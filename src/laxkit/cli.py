"""Batch front end: run verification suites or classical flows.

    laxkit verify --system trig-gln --rank 3 --seed 7 --out report.json
    laxkit flow --system rational-A --rank 3 --time 1.0 --dt 1e-3 --csv traj.csv

Reports are JSON with complex parameters as {"re": ..., "im": ...} decimal
strings; identical configuration and seed give byte-identical reports up to
the runtime field.  Exit status: 0 all checks pass, 1 check failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .fields import PoleError
from .suites import (ConfigError, RunConfig, build_suite, classical_flow_setup,
                     default_params)
from .verify import (VerificationReport, decode_number, scaled_flow,
                     spectral_invariants)
from .dual import value


def load_params(path):
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("params file must hold a JSON object")
    out = {}
    for k, v in raw.items():
        try:
            out[k] = ([decode_number(x) for x in v] if isinstance(v, list)
                      else decode_number(v))
        except (TypeError, ValueError):
            raise ConfigError(f"parameter {k} is not a number") from None
    return out


def _is_number(v):
    return isinstance(v, (int, float, complex)) and not isinstance(v, bool)


def make_config(args, perturb=0.0) -> RunConfig:
    """RunConfig from the flags both subcommands read and verify's ``perturb``."""
    params = default_params(args.system)
    if args.params:
        loaded = load_params(args.params)
        unknown = set(loaded) - set(params)
        if unknown:
            raise ConfigError(f"unknown parameter keys {sorted(unknown)}; "
                              f"expected a subset of {sorted(params)}")
        for k, v in loaded.items():
            default = params[k]
            if isinstance(default, list):
                if not (isinstance(v, list) and len(v) == len(default)
                        and all(map(_is_number, v))):
                    raise ConfigError(f"parameter {k} must be a list of "
                                      f"{len(default)} numbers")
            elif not _is_number(v):
                raise ConfigError(f"parameter {k} is not a number")
        params.update(loaded)
    return RunConfig(system=args.system, rank=args.rank, params=params,
                     seed=args.seed, perturb=perturb)


def cmd_verify(args):
    config = make_config(args, args.perturb)
    t0 = time.perf_counter()
    # one suite exists; the report names it so that reports keep their shape
    report = VerificationReport(system=config.system,
                                params=dict(config.params, rank=config.rank,
                                            suite="default",
                                            perturb=config.perturb),
                                seed=config.seed)
    for r in build_suite(config):
        report.add(r)
    report.runtime_ms = 1000.0 * (time.perf_counter() - t0)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for r in report.checks:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: residual {r.residual:.3e} (tol {r.tol:g})",
              file=sys.stderr)
    return 0 if report.all_passed() else 1


def cmd_flow(args):
    if not (math.isfinite(args.dt) and args.dt > 0):
        raise ConfigError(f"--dt must be finite and > 0, got {args.dt}")
    if not (math.isfinite(args.time) and args.time >= 0):
        raise ConfigError(f"--time must be finite and >= 0, got {args.time}")
    config = make_config(args)
    H, Lf, n, powers, z0 = classical_flow_setup(config)
    rows = []
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
              + [f"trL{k}" for k in powers] + ["charpoly_drift"])
    aborted = False
    try:
        Hs, times, traj = scaled_flow(H, z0, args.time, args.dt, n)
    except (PoleError, OverflowError) as exc:
        print(f"flow aborted near a pole: {exc}", file=sys.stderr)
        times, traj = [0.0], [tuple(complex(v) for v in z0)]
        aborted = True
    idxs = range(0, len(traj), max(1, len(traj) // 200))
    spectra = spectral_invariants(Lf, powers, [traj[idx] for idx in idxs])
    for idx, (traces, drift) in zip(idxs, spectra):
        z = traj[idx]
        row = [float(times[idx])]
        row += [float(value(v).real) for v in z[:n]]
        row += [float(value(v).real) for v in z[n:]]
        row += [float(value(tr).real) for tr in traces]
        row += [drift]
        rows.append(row)
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(repr(v) for v in row) + "\n"
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    if aborted:
        print("partial output: trajectory aborted", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="laxkit",
                                     description="Lax pair construction and "
                                                 "numerical certification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--system", required=True)
    common.add_argument("--rank", type=int, default=2)
    common.add_argument("--params", default=None, help="JSON parameter file")
    # the flow is deterministic and reads no seed; it accepts one so that
    # one argv shape drives both subcommands
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", parents=[common])
    verify.add_argument("--out", default=None, help="JSON report path")
    verify.add_argument("--perturb", type=float, default=0.0)
    verify.set_defaults(fn=cmd_verify)
    flow = sub.add_parser("flow", parents=[common])
    flow.add_argument("--time", type=float, default=1.0)
    flow.add_argument("--dt", type=float, default=2e-3)
    flow.add_argument("--csv", default=None, help="CSV trajectory path")
    flow.set_defaults(fn=cmd_flow)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
