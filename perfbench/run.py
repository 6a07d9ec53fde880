"""laxkit benchmark: time to a verdict per system, and a traced layer split.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-difference --seed 0 --seconds 30 --trace 0

Each operation is one call of ``laxkit.cli.main`` in a fresh interpreter
(``perfbench/child.py``), because command-line users pay cold caches on
every call.  One client runs the operations of a workload one after the
other (a closed loop); a pass is one operation per system.  Passes repeat
until ``--seconds`` of measurement are used up, with at least two passes.
Before the timed passes, untimed controls check that the program's answers
are not vacuous.  With ``--trace 1`` the timed passes also stamp each check,
and one more pass with every layer wrapped (``perfbench/tracer.py``) gives
the per-layer metrics.  The last line of standard output is one JSON object; the notes in
``perfbench/README.md`` say why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

from metrics import count_outcomes, geomean, median  # noqa: E402

# ranks of scripts/run_verify_all.py (the README ranks)
RANKS = {"rational-A": 3, "rational-C": 2, "trig-gln": 3, "koornwinder": 2,
         "ell-cm-A": 3, "inozemtsev": 2, "ell-ruijsenaars": 3, "vandiejen": 2}

WORKLOADS = {
    "verify-difference": ("verify", ("trig-gln", "koornwinder",
                                     "ell-ruijsenaars", "vandiejen")),
    "verify-differential": ("verify", ("rational-A", "rational-C", "ell-cm-A",
                                       "inozemtsev")),
    "flow": ("flow", ("rational-A", "trig-gln", "inozemtsev", "koornwinder",
                      "vandiejen")),
}

# the checks each report must hold, in order; they also name check_s metrics
CHECKS = {
    "rational-A": ("dunkl-commutativity", "collapse-vs-explicit",
                   "Ahat-annihilates-e", "lax-equation", "L-matches-qlp",
                   "kks-relation", "integrals-commute"),
    "rational-C": ("dunkl-commutativity", "collapse-vs-explicit",
                   "Ahat-annihilates-e", "lax-equation", "integrals-commute"),
    "trig-gln": ("hecke-quadratic", "cherednik-commute", "L-matches-table",
                 "lax-equation", "integrals-commute"),
    "koornwinder": ("noumi-quadratic", "y1-product-forms",
                    "PQ-matches-restriction", "lax-equation",
                    "integrals-commute"),
    "ell-cm-A": ("elliptic-dunkl-commute", "quadratic-split", "L-matches-table",
                 "lax-equation"),
    "inozemtsev": ("elliptic-dunkl-commute", "quadratic-split",
                   "L-matches-table", "lax-equation"),
    "ell-ruijsenaars": ("L-matches-table", "nsel-closed-form", "lax-equation"),
    "vandiejen": ("collapse-matches-hamiltonian", "PQ-matches-restriction",
                  "lax-equation", "residue-exponents"),
}
VERIFY_SYSTEMS = tuple(RANKS)
FLOW_SYSTEMS = WORKLOADS["flow"][1]

PERTURB = 1e-3
FLOW_T = 1.0           # the CLI default
FLOW_DT = 1e-2         # coarsened from the CLI default 2e-3 to size the pass
DRIFT_TOL = 1e-6       # isospectral drift bound of acceptance criterion 11
MIN_MOTION = 1e-3      # a flow must move its phase point at least this far
# Ledgered flow poles: every flow must complete, but the drift bound is a
# control only on the rows before this time.  vandiejen approaches a pole
# near t = 0.68-0.71, which dt = 1e-2 steps over (see README.md).
FLOW_POLE_T = {"vandiejen": 0.6}
MIN_PASSES = 2
# After the first pass, a system whose call took under SHORT_OP_S (at
# reference speed) runs SHORT_REPEATS times per pass: a few sub-second calls
# are too few samples to hold a median steady.
SHORT_OP_S = 0.5
SHORT_REPEATS = 4
RUN_LIMIT_S = 170.0
# The speed probe's time on the reference core: end-to-end times are
# reported as seconds on a core where child.speed_probe() takes this long.
PROBE_REF_S = 20e-6

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("pass_ratio", "ratio"),
              ("op_s.geomean", "s"), ("op_s.min", "s"))
LAYER_SELF = ("cli", "suites", "construct", "opcore", "weyl", "fields",
              "special", "dual", "verify")


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def per_layer_names():
    names = [("verify.sample_s", "s"), ("verify.loop_self_s", "s"),
             ("verify.points", "count"), ("verify.pole_resamples", "count"),
             ("verify.accept_ratio", "ratio"),
             ("fields.eval_s", "s"), ("fields.leaf_calls_per_point", "count"),
             ("fields.nodes_distinct", "count"), ("fields.nodes_tree", "count"),
             ("special.theta_calls_per_point", "count"),
             ("special.kernel_s", "s"),
             ("dual.objects_per_point", "count"),
             ("dual.directional_calls", "count"),
             ("dual.gradient_calls", "count"),
             ("opcore.mul_s", "s"), ("opcore.restrict_s", "s"),
             ("opcore.apply_field_s", "s"), ("opcore.terms", "count"),
             ("weyl.s", "s"), ("construct.self_s", "s"),
             ("verify.flow_rhs_s", "s"), ("verify.flow_steps", "count"),
             ("verify.flow_rows_s", "s"), ("trace.overhead_s", "s"),
             ("fail_ratio", "ratio")]
    names += [(f"{layer}.self_s", "s") for layer in LAYER_SELF
              if layer != "construct"]
    names += [(f"verify_s.{s}", "s") for s in VERIFY_SYSTEMS]
    names += [(f"flow_s.{s}", "s") for s in FLOW_SYSTEMS]
    names += [(f"check_s.{s}.{c}", "s") for s in VERIFY_SYSTEMS for c in CHECKS[s]]
    return names


# -- one operation ------------------------------------------------------

def child_env():
    env = {k: v for k, v in os.environ.items()
           if k != "LAXKIT_THREADS" and not k.startswith("PYTHON")}
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def cli_argv(mode, system, seed, perturb=0.0):
    argv = [mode, "--system", system, "--rank", str(RANKS[system]),
            "--seed", str(seed)]
    if mode == "flow":
        argv += ["--time", repr(FLOW_T), "--dt", repr(FLOW_DT)]
    if perturb:
        argv += ["--perturb", repr(perturb)]
    return argv


def run_child(argv, trace, deadline):
    """Run one CLI call in a fresh interpreter; its record with timings."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {' '.join(argv)}")
    spec = json.dumps({"argv": argv, "trace": trace})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "child.py"), str(ROOT), spec],
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT),
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child for {' '.join(argv)} exited with "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return add_timings(json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn)


def add_timings(res, t_spawn):
    """Set-up and call seconds without the probe's own time, and the mean
    probe time of each.

    The probes fire at even intervals, so their mean is the time-averaged
    slowness of the host over the call, which is what stretches the call;
    a median would see only the commonest speed state when the host
    changes speed within a call.
    """
    samples = res["speed_samples"]
    setup = res["setup_samples"]
    res["setup_s"] = res["t_ready"] - t_spawn - sum(setup)
    res["setup_probe_s"] = sum(setup) / len(setup) if setup else None
    res["op_s"] = res["t_end"] - res["t_ready"] - sum(samples)
    res["probe_s"] = sum(samples) / len(samples) if samples else None
    return res


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def read_verify(system, seed, res):
    """Operation record for one verify run; BenchError if the output is malformed."""
    op = {"mode": "verify", "system": system, "setup_s": res["setup_s"],
          "setup_probe_s": res["setup_probe_s"], "op_s": res["op_s"],
          "probe_s": res["probe_s"], "rc": res["rc"]}
    if res["rc"] == "raised":
        op["passed"] = False
        op["error"] = res["stderr"].strip().splitlines()[-1:]
        return op
    if res["rc"] not in (0, 1):
        raise BenchError(f"verify {system} exited with {res['rc']}: {res['stderr'][-500:]}")
    try:
        report = json.loads(res["stdout"])
    except ValueError as exc:
        raise BenchError(f"verify {system}: report is not JSON") from exc
    if report.get("system") != system or report.get("seed") != seed:
        raise BenchError(f"verify {system}: report is for {report.get('system')} "
                         f"seed {report.get('seed')}")
    checks = report.get("checks", [])
    names = tuple(c["name"] for c in checks)
    if names != CHECKS[system]:
        raise BenchError(f"verify {system}: checks {names}, expected {CHECKS[system]}")
    for c in checks:
        r, tol = c["residual"], c["tol"]
        if not (isinstance(r, (int, float)) and math.isfinite(r) and r >= 0):
            raise BenchError(f"verify {system}/{c['name']}: residual {r!r}")
        if c["pass"] != (r < tol):
            raise BenchError(f"verify {system}/{c['name']}: pass flag disagrees "
                             f"with residual {r} against tol {tol}")
    if (res["rc"] == 0) != all(c["pass"] for c in checks):
        raise BenchError(f"verify {system}: exit code {res['rc']} disagrees with checks")
    report.pop("runtime_ms", None)
    op["checks"] = checks
    op["passed"] = all(c["pass"] for c in checks)
    op["digest"] = digest(json.dumps(report, sort_keys=True, indent=2))
    op["check_s"] = check_times(checks, res)
    return op


def check_times(checks, res):
    """Seconds from the previous check's end (or the call's start) to each end."""
    marks = {}
    for name, t in res["check_marks"]:
        marks[name] = t
    out = {}
    prev = res["t_ready"]
    for c in checks:
        t = marks.get(c["name"])
        if t is None:
            continue
        out[c["name"]] = t - prev
        prev = t
    return out


def read_flow(system, res):
    """Operation record for one flow run, with its control verdict."""
    op = {"mode": "flow", "system": system, "setup_s": res["setup_s"],
          "setup_probe_s": res["setup_probe_s"], "op_s": res["op_s"],
          "probe_s": res["probe_s"], "rc": res["rc"]}
    if res["rc"] not in (0, 1):
        op.update(passed=False, control=False,
                  error=res["stderr"].strip().splitlines()[-1:])
        return op
    lines = res["stdout"].strip().splitlines()
    n = RANKS[system]
    header = lines[0].split(",") if lines else []
    trl = [i for i, h in enumerate(header) if h.startswith("trL")]
    expected = (["t"] + [f"x{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
                + [header[i] for i in trl] + ["charpoly_drift"])
    if header != expected or not trl or len(lines) < 2:
        raise BenchError(f"flow {system}: unexpected CSV header {header}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    finite = all(math.isfinite(v) for row in rows for v in row)
    aborted = res["rc"] == 1
    complete = (not aborted) and abs(rows[-1][0] - FLOW_T) < 1e-9
    op["drift"] = flow_drift(rows, trl) if finite else math.inf
    op["passed"] = finite and complete and op["drift"] <= DRIFT_TOL
    if complete and finite:
        before = [row for row in rows if row[0] < FLOW_POLE_T.get(system, math.inf)]
        motion = max(abs(a - b) for a, b in zip(before[-1][1:2 * n + 1],
                                                before[0][1:2 * n + 1]))
        op["control"] = flow_drift(before, trl) <= DRIFT_TOL and motion > MIN_MOTION
    else:
        op["control"] = False
    op["digest"] = digest(res["stdout"])
    return op


def flow_drift(rows, trl):
    """Worst of the charpoly_drift column and the relative spread of each trL column."""
    worst = max(row[-1] for row in rows)
    for i in trl:
        v0 = rows[0][i]
        worst = max(worst, max(abs(row[i] - v0) for row in rows) / (1.0 + abs(v0)))
    return worst


def read_op(mode, system, seed, res):
    op = read_verify(system, seed, res) if mode == "verify" else read_flow(system, res)
    if "trace" in res:
        op["trace"] = res["trace"]
    return op


def run_op(mode, system, seed, trace, deadline, perturb=0.0):
    res = run_child(cli_argv(mode, system, seed, perturb), trace, deadline)
    return read_op(mode, system, seed, res)


# -- controls and passes ------------------------------------------------

def run_controls(mode, systems, seed, deadline):
    """Untimed vacuousness controls; returns a list of failures (empty is good)."""
    problems = []
    if mode != "verify":
        return problems
    for system in systems:
        op = run_op("verify", system, seed, "off", deadline, perturb=PERTURB)
        lax = [c for c in op.get("checks", []) if c["name"] == "lax-equation"]
        if not lax or lax[0]["pass"]:
            problems.append(f"perturbed {system}: lax-equation did not fail")
    return problems


def run_pass(mode, systems, seed, trace, deadline, repeats=None):
    repeats = repeats or {}
    return [run_op(mode, s, seed, trace, deadline)
            for s in systems for _ in range(repeats.get(s, 1))]


def timed_passes(mode, systems, seed, seconds, deadline, trace="off"):
    passes = []
    repeats = {}
    t0 = time.monotonic()
    while True:
        passes.append(run_pass(mode, systems, seed, trace, deadline, repeats))
        repeats = {op["system"]: SHORT_REPEATS for op in passes[0]
                   if op["op_s"] * PROBE_REF_S / (op["probe_s"] or PROBE_REF_S)
                   < SHORT_OP_S}
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def output_problems(passes):
    """Reproducibility and flow controls over the timed passes."""
    problems = []
    digests = {}
    for ops in passes:
        for op in ops:
            if op.get("control") is False:
                problems.append(f"flow {op['system']}: failed its drift/motion control")
            if "digest" in op:
                digests.setdefault(op["system"], set()).add(op["digest"])
    for system, ds in digests.items():
        if len(ds) != 1:
            problems.append(f"{system}: reports differ between passes of one seed")
    return problems


# -- metrics --------------------------------------------------------------

def normalize(passes):
    """Set each operation's ``ref_s``, its time at the reference probe speed,
    and ``ref_scale``, the factor that took it there.

    An operation too short to hold a speed sample uses the run's median
    probe time.
    """
    probes = [op[k] for ops in passes for op in ops
              for k in ("probe_s", "setup_probe_s") if op[k]]
    fallback = median(probes)
    for ops in passes:
        for op in ops:
            op["ref_scale"] = PROBE_REF_S / (op["probe_s"] or fallback)
            op["ref_s"] = op["op_s"] * op["ref_scale"]
            op["setup_ref_s"] = (op["setup_s"] * PROBE_REF_S
                                 / (op["setup_probe_s"] or fallback))


def first_calls(passes):
    """One call per system per pass: repeated calls of a seed give the same
    reports, so they add samples of time but not of outcome."""
    out = []
    for ops in passes:
        seen = set()
        for op in ops:
            if op["system"] not in seen:
                seen.add(op["system"])
                out.append(op)
    return out


def system_medians(ops, key):
    systems = dict.fromkeys(op["system"] for op in ops)
    return {s: median([op[key] for op in ops if op["system"] == s]) for s in systems}


def end_to_end(passes):
    normalize(passes)
    op_s = system_medians([op for ops in passes for op in ops], "ref_s")
    attempted, failed = count_outcomes(first_calls(passes))
    values = {
        "setup_s": median([op["setup_ref_s"] for ops in passes for op in ops]),
        # one call per system: the median of a repeated system's calls
        "wall_s": median([sum(system_medians(ops, "ref_s").values())
                          for ops in passes]),
        "pass_ratio": (attempted - failed) / attempted,
        "op_s.geomean": geomean(list(op_s.values())),
        "op_s.min": min(op_s.values()),
    }
    return values, op_s


def check_medians(ops):
    """Median over calls of each (system, check) time, at reference speed."""
    samples = {}
    for op in ops:
        for check, secs in op.get("check_s", {}).items():
            samples.setdefault((op["system"], check), []).append(secs * op["ref_scale"])
    return {key: median(v) for key, v in samples.items()}


def layer_metrics(mode, light, op_s, traced):
    """Per-layer metrics from the check-stamped timed passes ``light``
    (normalised by ``end_to_end``, whose per-system medians are ``op_s``)
    and one fully traced pass."""
    out = {name: 0.0 for name, _unit in per_layer_names()}
    prefix = "verify_s." if mode == "verify" else "flow_s."
    for system, secs in op_s.items():
        out[prefix + system] = secs
    ops = [op for pass_ops in light for op in pass_ops]
    for (system, check), secs in check_medians(ops).items():
        out[f"check_s.{system}.{check}"] = secs
    attempted, failed = count_outcomes(first_calls(light))
    out["fail_ratio"] = failed / attempted
    out["trace.overhead_s"] = (sum(op["op_s"] for op in traced)
                               - sum(system_medians(ops, "op_s").values()))

    groups, layers, totals = {}, {}, {}
    scalars = {"points": 0, "rhs_points": 0, "pole_resamples": 0,
               "nodes_distinct": 0, "nodes_tree": 0, "terms": 0}
    for op in traced:
        tr = op["trace"]
        for name, g in tr["groups"].items():
            acc = groups.setdefault(name, {"calls": 0, "outer_calls": 0,
                                           "incl": 0.0, "self": 0.0})
            for k in acc:
                acc[k] += g[k]
        for name, lay in tr["layers"].items():
            acc = layers.setdefault(name, {"incl": 0.0, "self": 0.0})
            for k in acc:
                acc[k] += lay[k]
        for k, v in tr["point_totals"].items():
            totals[k] = totals.get(k, 0) + v
        for k in scalars:
            scalars[k] += tr[k]

    def g(name, field):
        return groups.get(name, {}).get(field, 0)

    points = scalars["points"]
    per_point = max(1, points + scalars["rhs_points"])
    out["verify.sample_s"] = g("verify.run_point_max", "incl")
    out["verify.loop_self_s"] = g("verify.run_point_max", "self")
    out["verify.points"] = points
    out["verify.pole_resamples"] = scalars["pole_resamples"]
    out["verify.accept_ratio"] = ((points - scalars["pole_resamples"]) / points
                                  if points else 0.0)
    out["fields.eval_s"] = g("fields.eval", "incl") / points if points else 0.0
    out["fields.leaf_calls_per_point"] = totals.get("leaf_calls", 0) / per_point
    out["fields.nodes_distinct"] = scalars["nodes_distinct"]
    out["fields.nodes_tree"] = scalars["nodes_tree"]
    out["special.theta_calls_per_point"] = totals.get("theta", 0) / per_point
    out["special.kernel_s"] = layers.get("special", {}).get("incl", 0.0)
    out["dual.objects_per_point"] = totals.get("dual_objects", 0) / per_point
    out["dual.directional_calls"] = g("dual.directional", "outer_calls")
    out["dual.gradient_calls"] = (g("dual.gradient_vec", "outer_calls")
                                  + g("dual.gradient", "outer_calls"))
    out["opcore.mul_s"] = g("opcore.mul", "incl")
    out["opcore.restrict_s"] = g("opcore.restrict", "incl")
    out["opcore.apply_field_s"] = g("opcore.apply_field", "incl")
    out["opcore.terms"] = scalars["terms"]
    out["weyl.s"] = layers.get("weyl", {}).get("incl", 0.0)
    out["verify.flow_rhs_s"] = g("verify.hamiltonian_rhs", "incl")
    out["verify.flow_steps"] = g("verify.rk4_step", "calls")
    if mode == "flow":
        out["verify.flow_rows_s"] = (g("cli.cmd_flow", "incl")
                                     - g("suites.classical_flow_setup", "incl")
                                     - g("verify.scaled_flow", "incl"))
    for layer in LAYER_SELF:
        out[f"{layer}.self_s"] = layers.get(layer, {}).get("self", 0.0)
    return out


def result_line(correct, attempted, failed, values, units):
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laxkit" / "cli.py").is_file():
        print(f"no laxkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    compileall.compile_dir(str(ROOT / "src" / "laxkit"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    mode, systems = WORKLOADS[args.workload]
    try:
        problems = run_controls(mode, systems, args.seed, deadline)
        passes = timed_passes(mode, systems, args.seed, args.seconds, deadline,
                              "checks" if args.trace else "off")
        if args.trace:
            traced = run_pass(mode, systems, args.seed, "full", deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    # a traced pass must give the same reports as an untraced one
    problems += output_problems(passes + [traced] if args.trace else passes)
    attempted, failed = count_outcomes(first_calls(passes))

    values, op_s = end_to_end(passes)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": passes, "problems": problems, "op_s": op_s,
              "raw_op_s": system_medians([op for ops in passes for op in ops], "op_s")}
    if args.trace:
        units = per_layer_names()
        values = layer_metrics(mode, passes, op_s, traced)
        report["traced"] = [{k: v for k, v in op.items() if k != "trace"}
                            for op in traced]
    else:
        units = END_TO_END
    report["metrics"] = values

    for ops in passes[:1]:
        for op in ops:
            status = "pass" if op["passed"] else "FAIL"
            print(f"{op['system']:16s} {status} digest {op.get('digest', '-')[:16]}"
                  + "".join(f" [{c['name']} FAIL]" for c in op.get("checks", [])
                            if not c["pass"]))
    print(f"{len(passes)} pass(es); times are medians over each system's calls")
    for system, secs in op_s.items():
        calls = sum(op["system"] == system for ops in passes for op in ops)
        print(f"{system:16s} {secs:.4f} s at reference speed, "
              f"{report['raw_op_s'][system]:.4f} s measured, {calls} calls")
    all_ops = [op for ops in passes for op in ops]
    print(f"set-up           {median([op['setup_ref_s'] for op in all_ops]):.4f} s at "
          f"reference speed, {median([op['setup_s'] for op in all_ops]):.4f} s measured")
    for name, unit in units:
        print(f"{name:48s} {values[name]:.6g} {unit}")
    for problem in problems:
        print(f"control failed: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(result_line(not problems, attempted, failed, values, units))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
