"""Fingerprint the CLI outputs of a laxkit tree, one SHA-256 line per run.

Usage: python scripts/byte_identity.py [ROOT] > digests.txt

Runs ``laxkit verify`` for every system at its README rank (``RANKS``, the
one table of them that the other scripts import), at seeds 0, 7 and 17,
with and without ``--perturb 1e-3``, and ``laxkit flow`` for every system
with a classical flow (``suites.SYSTEMS``) at T=1 with dt 2e-3 and 1e-2.
Each run is a fresh interpreter on ``ROOT/src`` (default: the tree holding
this script); the system list is read from the installed ``laxkit``.
The digest covers stdout with ``runtime_ms`` zeroed, stderr and the exit
code, so two trees give the same outputs iff their digest files are equal:

    python scripts/byte_identity.py /path/to/other/tree > other.txt
    python scripts/byte_identity.py > this.txt
    diff other.txt this.txt
"""

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


def main():
    here = pathlib.Path(__file__).resolve().parent.parent
    root = pathlib.Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else here
    matrix = runs()
    with ThreadPoolExecutor(WORKERS) as pool:
        digests = pool.map(lambda run: fingerprint(root, run[1]), matrix)
        for (label, _argv), dig in zip(matrix, digests):
            print(f"{dig}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
