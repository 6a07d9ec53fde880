"""Batch front end: run verification suites or classical flows.

    laxkit verify --system trig-gln --rank 3 --seed 7 --out report.json
    laxkit flow --system rational-A --rank 3 --time 1.0 --dt 1e-3 --csv traj.csv

Reports are JSON with complex parameters as {"re": ..., "im": ...} decimal
strings; identical configuration and seed give byte-identical reports up to
the runtime field.  Exit status: 0 all checks pass, 1 check failure or
closed standard output, 2 configuration error or usage error.  The
configuration is checked, and an ``--out`` or ``--csv`` file opened, before
the first check or flow step runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from types import SimpleNamespace

from .fields import PoleError
from .suites import (ConfigError, RunConfig, build_suite, check_suite,
                     classical_flow_setup, default_params)
from .verify import (VerificationReport, decode_number, flow_steps, scaled_flow,
                     spectral_invariants)


def load_params(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from None
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


def write_file(path, text):
    """Write ``text`` to ``path``; an ``OSError`` (a directory, a missing
    folder) is a ``ConfigError``."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(str(exc)) from None


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
    check_suite(config)
    if args.out:
        write_file(args.out, "")
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
        write_file(args.out, text + "\n")
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
    flow_steps(args.time, args.dt)
    config = make_config(args)
    H, Lf, n, powers, z0 = classical_flow_setup(config)
    if args.csv:
        write_file(args.csv, "")
    header = (["t"] + [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
              + [f"trL{k}" for k in powers] + ["charpoly_drift"])
    aborted = False
    try:
        Hs, times, traj = scaled_flow(H, z0, args.time, args.dt, n)
    except (PoleError, OverflowError) as exc:
        print(f"flow aborted near a pole: {exc}", file=sys.stderr)
        times, traj = [0.0], [tuple(complex(v) for v in z0)]
        aborted = True
    # every stride-th point and the last, so the rows end at t = T
    idxs = list(range(0, len(traj) - 1, max(1, len(traj) // 200))) + [len(traj) - 1]
    spectra = spectral_invariants(Lf, powers, [traj[idx] for idx in idxs])
    rows = [[float(times[idx])] + [float(v.real) for v in traj[idx]]
            + [float(tr.real) for tr in traces] + [drift]
            for idx, (traces, drift) in zip(idxs, spectra)]
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(repr(v) for v in row) + "\n"
    if args.csv:
        write_file(args.csv, text)
    else:
        print(text, end="")
    if aborted:
        print("partial output: trajectory aborted", file=sys.stderr)
        return 1
    return 0


USAGE = """\
usage: laxkit verify --system SYSTEM [--rank N] [--params FILE] [--seed N]
                     [--out FILE] [--perturb EPS]
       laxkit flow --system SYSTEM [--rank N] [--params FILE] [--seed N]
                   [--time T] [--dt DT] [--csv FILE]"""

# flag: (type, default); the flow is deterministic and reads no seed, it
# accepts one so that one argv shape drives both subcommands
COMMON = {"--system": (str, None), "--rank": (int, 2), "--params": (str, None),
          "--seed": (int, 0)}
FLAGS = {"verify": {**COMMON, "--out": (str, None), "--perturb": (float, 0.0)},
         "flow": {**COMMON, "--time": (float, 1.0), "--dt": (float, 2e-3),
                  "--csv": (str, None)}}


def parse_args(argv):
    """Namespace of ``command`` and its flags (``--flag value`` or
    ``--flag=value``, named without dashes); ValueError on a usage error."""
    table = FLAGS.get(argv[0] if argv else None)
    if table is None:
        raise ValueError("the first argument must be verify or flow")
    values = {flag[2:]: default for flag, (_, default) in table.items()}
    items = iter(argv[1:])
    for item in items:
        flag, eq, value = item.partition("=")
        if flag not in table:
            raise ValueError(f"unrecognized argument {item}")
        if not eq:
            value = next(items, None)
            if value is None or value.startswith("--"):
                raise ValueError(f"{flag} expects a value")
        kind = table[flag][0]
        try:
            values[flag[2:]] = kind(value)
        except ValueError:
            raise ValueError(f"{flag}: invalid {kind.__name__} value {value!r}") from None
    if values["system"] is None:
        raise ValueError("--system is required")
    return SimpleNamespace(command=argv[0], **values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return 0
    try:
        args = parse_args(argv)
    except ValueError as exc:
        print(f"{USAGE}\nlaxkit: error: {exc}", file=sys.stderr)
        return 2
    try:
        # read at call time, so that a rebound cmd_verify or cmd_flow runs
        rc = (cmd_verify if args.command == "verify" else cmd_flow)(args)
        sys.stdout.flush()
        return rc
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: the output is lost, the configuration is
        # fine; what is left in the buffer goes to devnull at exit
        print("laxkit: error: standard output closed", file=sys.stderr)
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
