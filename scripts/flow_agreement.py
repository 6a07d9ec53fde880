"""Compare the flow CSVs of two laxkit trees, value by value.

Usage: python scripts/flow_agreement.py OTHER_ROOT [ROOT]

Runs every ``laxkit flow`` of ``byte_identity.runs()`` in OTHER_ROOT and in
ROOT (default: the tree holding this script), each in a fresh interpreter on
that tree's ``src``, and prints per run the gate:

- both trees exit with the same code, and the first line of stderr is of
  the same kind (a flow aborted near a pole, or not);
- every x, p and trL value agrees to GATE relative, |a - b| / max(|a|, |b|);
- every ``charpoly_drift`` agrees to GATE absolute, |a - b|.  The drift is
  already scale-free (divided by 1 + the largest coefficient) and sits at
  rounding level, so a relative gate on it would compare rounding noise
  with itself.

Vandiejen rows are split at t = 0.6 and must agree to GATE_PAST_SPLIT after
it: past it the flow approaches a pole near t = 0.68, where the
conditioning amplifies rounding differences.  A run whose CSV holds only
the t = 0 row in both trees (the flow aborted before its first step) is
reported as "aborted, 1 row compared", since that compares no trajectory.
Per column it prints the gated difference, then max |a - b| over the
column's largest |a| (a value near a zero crossing, such as a momentum
changing sign, has no relative accuracy of its own).  Exits 1 if any run
misses the gate.
"""

import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from byte_identity import WORKERS, runs

SPLIT = {"vandiejen": 0.6}
GATE, GATE_PAST_SPLIT = 1e-12, 1e-9
ABSOLUTE = {"charpoly_drift"}
ABORTED = "flow aborted"


def flow_run(root, argv):
    """(exit code, aborted, header, rows) of one flow run in the tree at
    ``root``; ``aborted`` tells whether stderr starts with a pole abort."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "laxkit.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=root)
    lines = proc.stdout.splitlines()
    return (proc.returncode, proc.stderr.startswith(ABORTED), lines[0].split(","),
            [[float(v) for v in ln.split(",")] for ln in lines[1:]])


def column_differences(header, rows_a, rows_b):
    """Per column: (the gated difference with the t of its row, max |a - b|
    over the column's largest |a| in rows_a).  The gated difference is
    |a - b| for the columns in ABSOLUTE and |a - b| / max(|a|, |b|) for the
    others."""
    out = {}
    for c, name in enumerate(header):
        def gated(a, b):
            return abs(a - b) if name in ABSOLUTE else abs(a - b) / max(abs(a), abs(b))
        diff = max(((gated(ra[c], rb[c]), ra[0]) for ra, rb in zip(rows_a, rows_b)
                    if ra[c] != rb[c]), default=(0.0, None))
        scale = max((abs(r[c]) for r in rows_a), default=0.0) or 1.0
        worst = max((abs(ra[c] - rb[c]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        out[name] = diff, worst / scale
    return out


def agreement(label, system, run_a, run_b):
    """(failed, report lines) of one flow run in two trees under the gate."""
    (code_a, aborted_a, header, rows_a), (code_b, aborted_b, header_b, rows_b) = run_a, run_b
    if (code_a, aborted_a) != (code_b, aborted_b):
        return True, [f"{label}: exit {code_a} vs {code_b}, aborted {aborted_a} vs "
                      f"{aborted_b}: NOT met"]
    if header != header_b or len(rows_a) != len(rows_b):
        return True, [f"{label}: the two trees give different columns or row counts"]
    split = SPLIT.get(system)
    windows = [("", rows_a, rows_b, GATE)]
    if split is not None:
        keep = [r[0] <= split for r in rows_a]
        windows = [(f" t<={split}", *([r for r, k in zip(rs, keep) if k]
                                      for rs in (rows_a, rows_b)), GATE),
                   (f" t>{split}", *([r for r, k in zip(rs, keep) if not k]
                                     for rs in (rows_a, rows_b)), GATE_PAST_SPLIT)]
    failed, lines = False, []
    for tag, wa, wb, gate in windows:
        if not wa:
            continue
        diffs = column_differences(header, wa, wb)
        col, ((worst, t), _) = max(diffs.items(), key=lambda kv: kv[1][0][0])
        if worst > gate:
            verdict = f"NOT met ({col} at t = {t})"
        elif len(rows_a) == 1:
            verdict = "aborted, 1 row compared"
        else:
            verdict = "met"
        cols = "  ".join(f"{k} {d:.1e}/{v:.1e}" for k, ((d, _t), v) in diffs.items())
        lines.append(f"{label}{tag}: gated max {worst:.1e}, gate {gate:.0e} {verdict}"
                     f"  [gated/column-scaled] {cols}")
        failed = failed or worst > gate
    return failed, lines


def main():
    here = pathlib.Path(__file__).resolve().parent.parent
    other = pathlib.Path(sys.argv[1]).resolve()
    root = pathlib.Path(sys.argv[2]).resolve() if len(sys.argv) > 2 else here
    flows = [(label, argv) for label, argv in runs() if argv[0] == "flow"]
    jobs = [(tree, argv) for _label, argv in flows for tree in (other, root)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda job: flow_run(*job), jobs))
    failed = False
    for i, (label, argv) in enumerate(flows):
        bad, lines = agreement(label, argv[2], results[2 * i], results[2 * i + 1])
        print("\n".join(lines), flush=True)
        failed = failed or bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
