"""Run one laxkit CLI operation in this fresh interpreter and report it.

Usage: python3 -I perfbench/child.py ROOT SPEC_JSON

SPEC_JSON holds ``argv`` (the arguments for ``laxkit.cli.main``) and
``trace``: ``off`` (nothing installed but the speed sampler), ``checks``
(the speed sampler and a timestamp per CheckResult) or ``full`` (every layer
wrapped, see tracer.py, and no sampler).  Prints one JSON object with monotonic timestamps, the exit
status, the captured standard output and error, the speed samples, and,
when tracing, the layer summary.
"""

import gc
import io
import json
import os
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

SAMPLE_INTERVAL_S = 0.002


class _D:
    """Dual-like pair for the speed probe (the probe never touches laxkit)."""

    __slots__ = ("v", "e")

    def __init__(self, v, e):
        self.v = v
        self.e = e

    def __mul__(self, o):
        return _D(self.v * o.v, self.v * o.e + self.e * o.v)

    def __add__(self, o):
        return _D(self.v + o.v, self.e + o.e)


def speed_probe(n=8):
    """A fixed piece of interpreter work like laxkit's: complex dual products,
    method calls, allocation and a dict store."""
    x = _D(0.3 + 0.1j, 1.0)
    acc = _D(0j, 0j)
    table = {}
    for i in range(n):
        acc = acc * x + _D(complex(i, 1), 0.5)
        table[i & 15] = acc.v
    return acc


class SpeedSampler:
    """Times ``speed_probe`` every SAMPLE_INTERVAL_S while the call runs.

    The host this runs on changes speed by tens of percent from one second
    to the next; the probe's mean time during a call measures the speed that
    call saw, on the same core and at the same moments.  The cyclic
    garbage collector is held off while the probe runs, so a collection of
    laxkit's heap never lands inside a probe sample: laxkit's allocation
    rate does not move the reference it is measured against.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, _signum, _frame):
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        speed_probe()
        self.samples.append(time.perf_counter() - t0)
        if gc_on:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main():
    setup_sampler = SpeedSampler()
    setup_sampler.start()
    try:
        root, spec = sys.argv[1], json.loads(sys.argv[2])
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import laxkit.cli as cli
        import laxkit.fields
        import laxkit.verify
        if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
            print(f"laxkit imported from {cli.__file__}, not from {src}", file=sys.stderr)
            return 3
        marks = []
        tracer = None
        if spec["trace"] in ("checks", "full"):
            import tracer as tracing
            tracing.install_check_clock(laxkit.verify, marks)
            if spec["trace"] == "full":
                tracer = tracing.install(tracing.Tracer())
    finally:
        setup_sampler.stop()
    sampler = SpeedSampler() if spec["trace"] != "full" else None
    out, err = io.StringIO(), io.StringIO()
    t_ready = time.monotonic()
    if sampler:
        sampler.start()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(spec["argv"])
    except Exception:
        rc = "raised"
        err.write(traceback.format_exc())
    finally:
        if sampler:
            sampler.stop()
    t_end = time.monotonic()
    result = {"t_ready": t_ready, "t_end": t_end, "rc": rc,
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "check_marks": marks, "setup_samples": setup_sampler.samples,
              "speed_samples": sampler.samples if sampler else []}
    if tracer is not None:
        result["trace"] = summarize(tracer, tracing.count_nodes(
            tracer.eval_roots, laxkit.fields.Field))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def summarize(tracer, node_counts):
    distinct, tree = node_counts
    groups = {name: {"calls": g.calls, "outer_calls": g.outer_calls,
                     "incl": g.incl, "self": g.self_s}
              for name, g in tracer.groups.items()}
    layers = {name: {"incl": lay.incl, "self": lay.self_s}
              for name, lay in tracer.layers.items()}
    return {"groups": groups, "layers": layers, "counts": tracer.counts,
            "point_totals": tracer.point_totals, "points": tracer.points,
            "rhs_points": tracer.rhs_points,
            "pole_resamples": tracer.pole_resamples,
            "nodes_distinct": distinct, "nodes_tree": tree,
            "terms": tracer.eval_terms}


if __name__ == "__main__":
    sys.exit(main())
