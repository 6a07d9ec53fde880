"""Compare the flow CSVs of two laxkit trees, value by value.

Usage: python scripts/flow_agreement.py OTHER_ROOT [ROOT]

Runs every ``laxkit flow`` of ``byte_identity.runs()`` in OTHER_ROOT and in
ROOT (default: the tree holding this script), each in a fresh interpreter on
that tree's ``src``, and prints per run the gate: every CSV value must agree
to GATE relative, |a - b| / max(|a|, |b|).  Vandiejen rows are split at
t = 0.6 and must agree to GATE_PAST_SPLIT after it: past it the flow
approaches a pole near t = 0.68, where the conditioning amplifies rounding
differences.  Per column it prints that largest per-value relative
difference, then max |a - b| over the column's largest |a| (a value near a
zero crossing, such as a momentum changing sign, has no relative accuracy
of its own; ``charpoly_drift`` is a rounding-level residual, so its
absolute difference is printed there).  Exits 1 if any run misses the gate.
"""

import os
import pathlib
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from byte_identity import WORKERS, runs

SPLIT = {"vandiejen": 0.6}
GATE, GATE_PAST_SPLIT = 1e-12, 1e-9


def flow_csv(root, argv):
    """(header, rows) of one flow run in the tree at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "laxkit.cli", *argv],
                          capture_output=True, text=True, env=env, cwd=root)
    lines = proc.stdout.splitlines()
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def column_differences(header, rows_a, rows_b):
    """Per column: (largest |a - b| / max(|a|, |b|) with the t of its row,
    max |a - b| over the column's largest |a| in rows_a, or the absolute
    difference for charpoly_drift)."""
    out = {}
    for c, name in enumerate(header):
        rel = max(((abs(ra[c] - rb[c]) / max(abs(ra[c]), abs(rb[c])), ra[0])
                   for ra, rb in zip(rows_a, rows_b) if ra[c] != rb[c]), default=(0.0, None))
        scale = 1.0 if name == "charpoly_drift" else max((abs(r[c]) for r in rows_a),
                                                         default=0.0) or 1.0
        worst = max((abs(ra[c] - rb[c]) for ra, rb in zip(rows_a, rows_b)), default=0.0)
        out[name] = rel, worst / scale
    return out


def main():
    here = pathlib.Path(__file__).resolve().parent.parent
    other = pathlib.Path(sys.argv[1]).resolve()
    root = pathlib.Path(sys.argv[2]).resolve() if len(sys.argv) > 2 else here
    flows = [(label, argv) for label, argv in runs() if argv[0] == "flow"]
    jobs = [(tree, argv) for _label, argv in flows for tree in (other, root)]
    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(lambda job: flow_csv(*job), jobs))
    failed = False
    for i, (label, argv) in enumerate(flows):
        (header, rows_a), (header_b, rows_b) = results[2 * i], results[2 * i + 1]
        if header != header_b or len(rows_a) != len(rows_b):
            print(f"{label}: the two trees give different columns or row counts")
            return 1
        split = SPLIT.get(argv[2])
        windows = [("", rows_a, rows_b, GATE)]
        if split is not None:
            keep = [r[0] <= split for r in rows_a]
            windows = [(f" t<={split}", *([r for r, k in zip(rs, keep) if k]
                                          for rs in (rows_a, rows_b)), GATE),
                       (f" t>{split}", *([r for r, k in zip(rs, keep) if not k]
                                         for rs in (rows_a, rows_b)), GATE_PAST_SPLIT)]
        for tag, wa, wb, gate in windows:
            diffs = column_differences(header, wa, wb)
            col, ((rel, t), _) = max(diffs.items(), key=lambda kv: kv[1][0][0])
            verdict = "met" if rel <= gate else f"NOT met ({col} at t = {t})"
            cols = "  ".join(f"{k} {r:.1e}/{v:.1e}" for k, ((r, _t), v) in diffs.items())
            print(f"{label}{tag}: per-value max {rel:.1e}, gate {gate:.0e} {verdict}"
                  f"  [per-value/column-scaled] {cols}", flush=True)
            failed = failed or rel > gate
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
