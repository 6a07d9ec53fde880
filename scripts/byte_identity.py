"""Fingerprint the CLI outputs of laxkit trees, one SHA-256 digest per run.

Usage: python scripts/byte_identity.py [ROOT] > digests.txt
       python scripts/byte_identity.py [ROOT] --against OTHER_ROOT

Runs ``laxkit verify`` for every system at its README rank (``RANKS``, the
one table of them that the other scripts import), at seeds 0, 7 and 17,
with and without ``--perturb 1e-3``, and ``laxkit flow`` for every system
with a classical flow (``suites.SYSTEMS``) at T=1 with dt 2e-3 and 1e-2.
Each run is a fresh interpreter on ``ROOT/src`` (default: the tree holding
this script); the system list is read from the ``src`` of the tree holding
this script, which goes first on ``sys.path``, so no install is needed.
The digest covers stdout with ``runtime_ms`` zeroed, stderr and the exit
code, so two trees give the same outputs iff all their digests are equal.

With ``--against OTHER_ROOT`` the same runs are fingerprinted on both trees,
and each is printed, sorted by label, as ``same`` or ``moved`` with the
digests of OTHER_ROOT and of ROOT; the exit status is 1 if any run moved.
Under a moved ``verify`` run, one indented line per check whose residual or
verdict moved gives its name and, for OTHER_ROOT and then ROOT, the
residual's repr and the verdict.
Both trees run this script's matrix, so the comparison does not depend on
the order in which either tree's own script lists its runs.  Without it,
one ``digest  label`` line per run is printed in the matrix's order.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from laxkit.suites import SYSTEMS  # noqa: E402

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


def output(root, argv):
    """(stdout with ``runtime_ms`` zeroed, stderr, exit code) of one CLI run
    on the tree at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "laxkit.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=root)
    return RUNTIME.sub(r"\g<1>0", proc.stdout), proc.stderr, proc.returncode


def fingerprint(out):
    """The digest of an ``output``."""
    stdout, stderr, code = out
    blob = f"{stdout}\0{stderr}\0exit={code}"
    return hashlib.sha256(blob.encode()).hexdigest()


def outputs(root, matrix):
    """The ``output`` of each (label, argv) run of ``matrix`` on the tree at
    ``root``, in the matrix's order."""
    with ThreadPoolExecutor(WORKERS) as pool:
        yield from pool.map(lambda run: output(root, run[1]), matrix)


def checks(stdout):
    """{name: (residual repr, verdict)} of a verify report; {} if ``stdout``
    holds none."""
    try:
        report = json.loads(stdout)
        return {c["name"]: (repr(c["residual"]), "pass" if c["pass"] else "FAIL")
                for c in report["checks"]}
    except (ValueError, TypeError, KeyError):
        return {}


def moved_checks(theirs, ours):
    """One line per check of two verify outputs whose residual or verdict
    moved, in ``ours``'s order, then the checks only ``theirs`` has."""
    a, b = checks(theirs[0]), checks(ours[0])
    missing = ("-", "absent")
    return [f"       {name}: {' '.join(a.get(name, missing))} -> {' '.join(b.get(name, missing))}"
            for name in list(b) + [name for name in a if name not in b]
            if a.get(name) != b.get(name)]


def compare(root, other, matrix):
    """One ``same`` or ``moved`` line per run of ``matrix``, sorted by label,
    with the digests of ``other`` and ``root``, and under a moved ``verify``
    run its ``moved_checks``; returns the exit status."""
    labels = [label for label, _argv in matrix]
    theirs = dict(zip(labels, outputs(other, matrix)))
    ours = dict(zip(labels, outputs(root, matrix)))
    moved = 0
    for label in sorted(ours):
        a, b = fingerprint(theirs[label]), fingerprint(ours[label])
        status = "same" if a == b else "moved"
        moved += status == "moved"
        print(f"{status:5}  {a}  {b}  {label}")
        if status == "moved" and label.startswith("verify "):
            for line in moved_checks(theirs[label], ours[label]):
                print(line)
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
    for (label, _argv), out in zip(matrix, outputs(root, matrix)):
        print(f"{fingerprint(out)}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
