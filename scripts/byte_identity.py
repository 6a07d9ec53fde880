"""Fingerprint the CLI outputs of laxkit trees, one SHA-256 digest per run.

Usage: python scripts/byte_identity.py [ROOT] > digests.txt
       python scripts/byte_identity.py [ROOT] --against OTHER_ROOT

Runs ``laxkit verify`` for every system at its README rank (``RANKS``, the
one table of them that the other scripts import), at seeds 0, 7 and 17,
with and without ``--perturb 1e-3``, and ``laxkit flow`` for every system
with a classical flow (``suites.SYSTEMS``) at T=1 with dt 2e-3 and 1e-2.
Each run is a fresh interpreter on ``ROOT/src`` (default: the tree holding
this script); the system list is read from the installed ``laxkit``.
The digest covers stdout with ``runtime_ms`` zeroed, stderr and the exit
code, so two trees give the same outputs iff all their digests are equal.

With ``--against OTHER_ROOT`` the same runs are fingerprinted on both trees,
and each is printed, sorted by label, as ``same`` or ``moved`` with the
digests of OTHER_ROOT and of ROOT; the exit status is 1 if any run moved.
Both trees run this script's matrix, so the comparison does not depend on
the order in which either tree's own script lists its runs.  Without it,
one ``digest  label`` line per run is printed in the matrix's order.
"""

import argparse
import hashlib
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from laxkit.suites import SYSTEMS

RANKS = {"rational-A": 3, "rational-C": 2, "trig-gln": 3, "koornwinder": 2,
         "ell-cm-A": 3, "inozemtsev": 2, "ell-ruijsenaars": 3, "vandiejen": 2}
FLOW_SYSTEMS = tuple(name for name, system in SYSTEMS.items() if system.flow is not None)
SEEDS = (0, 7, 17)
PERTURBS = ("0", "1e-3")
DTS = ("2e-3", "1e-2")
WORKERS = 2

RUNTIME = re.compile(r'("runtime_ms": )[^,\n}]+')


def runs():
    """(label, CLI argv) for the whole matrix, in output order."""
    out = []
    for system, rank in RANKS.items():
        for seed in SEEDS:
            for eps in PERTURBS:
                out.append((f"verify {system} rank={rank} seed={seed} perturb={eps}",
                            ["verify", "--system", system, "--rank", str(rank),
                             "--seed", str(seed), "--perturb", eps]))
    for system in FLOW_SYSTEMS:
        for dt in DTS:
            out.append((f"flow {system} rank={RANKS[system]} T=1 dt={dt}",
                        ["flow", "--system", system, "--rank", str(RANKS[system]),
                         "--time", "1", "--dt", dt]))
    return out


def fingerprint(root, argv):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "laxkit.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=root)
    stdout = RUNTIME.sub(r"\g<1>0", proc.stdout)
    blob = f"{stdout}\0{proc.stderr}\0exit={proc.returncode}"
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(root, matrix):
    """The digest of each (label, argv) run of ``matrix`` on the tree at
    ``root``, in the matrix's order."""
    with ThreadPoolExecutor(WORKERS) as pool:
        yield from pool.map(lambda run: fingerprint(root, run[1]), matrix)


def compare(root, other, matrix):
    """One ``same`` or ``moved`` line per run of ``matrix``, sorted by label,
    with the digests of ``other`` and ``root``; returns the exit status."""
    theirs = dict(zip((label for label, _argv in matrix), digests(other, matrix)))
    ours = dict(zip((label for label, _argv in matrix), digests(root, matrix)))
    moved = 0
    for label in sorted(ours):
        status = "same" if ours[label] == theirs[label] else "moved"
        moved += status == "moved"
        print(f"{status:5}  {theirs[label]}  {ours[label]}  {label}")
    print(f"{moved} of {len(ours)} runs moved")
    return 1 if moved else 0


def main(argv=None):
    here = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description="Fingerprint the CLI outputs of laxkit trees.")
    parser.add_argument("root", nargs="?", type=pathlib.Path, default=here,
                        help="the tree to fingerprint (default: the one holding this script)")
    parser.add_argument("--against", type=pathlib.Path, metavar="OTHER_ROOT",
                        help="compare every run with the same run on this tree")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    matrix = runs()
    if args.against is not None:
        return compare(root, args.against.resolve(), matrix)
    for (label, _argv), dig in zip(matrix, digests(root, matrix)):
        print(f"{dig}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
