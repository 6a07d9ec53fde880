"""Harness primitives, report reproducibility, and the CLI front end."""

import csv
import json
import os
import random
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from laxkit import ellrel, suites, weyl
from laxkit.cli import main as cli_main
from laxkit.dual import Dual, d_exp
from laxkit.fields import (BiArg, Const, LinArg, PoleError, Scale, Tape, exp_lin,
                           linear_form, momentum)
from laxkit.opcore import DiffOp, WOp
from laxkit.special import DIFFERENCE_REGIMES, DIFFERENTIAL_REGIMES
from laxkit.suites import (KNOWN_SYSTEMS, SYSTEMS, ConfigError, RunConfig,
                           classical_flow_setup, default_params)
from laxkit.verify import (CheckResult, PointPolicy, VerificationReport, charpoly,
                           charpoly_drifts, decode_number, encode_params,
                           energy_drift, hamiltonian_flow, isospectral_drift,
                           matrix_fn_from_fields, poisson_bracket, rng_for,
                           run_check, run_point_max, trace_powers)


def coordinate(n, i):
    """x_i as a field on phase points (x_1..x_n, p_1..p_n)."""
    return linear_form(tuple(float(j == i) for j in range(2 * n)))


def test_poisson_bracket_basics():
    n = 3
    z = tuple(complex(0.1 * k, 0) for k in range(2 * n))
    for i in range(n):
        for j in range(n):
            got = poisson_bracket(coordinate(n, i), momentum(n, j), z, n)
            assert abs(got - (1.0 if i == j else 0.0)) < 1e-14
    # {e^{beta p_k}, f} = -beta (d_k f) e^{beta p_k}
    import cmath
    beta = 0.7
    k = 1
    ep = exp_lin(tuple(beta if j == n + k else 0.0 for j in range(2 * n)))
    f = coordinate(n, 0) * coordinate(n, 1) * coordinate(n, 1)
    z = (0.3, -0.4, 0.2, 0.1, 0.5, -0.2)
    got = poisson_bracket(ep, f, z, n)
    dkf = z[0] * 2 * z[1]
    want = -beta * dkf * cmath.exp(beta * z[n + k])
    assert abs(got - want) < 1e-12
    H = sum(momentum(n, i) * momentum(n, i) for i in range(n))
    assert abs(poisson_bracket(H, H, z, n)) < 1e-14


def test_free_flow_straight_lines_and_reversal():
    n = 2
    H = 0.5 * (momentum(n, 0) * momentum(n, 0) + momentum(n, 1) * momentum(n, 1))
    z0 = (0.0, 1.0, 0.3, -0.2)
    times, traj = hamiltonian_flow(H, z0, T=1.0, dt=1e-2, n=n)
    zT = traj[-1]
    assert abs(zT[0] - (z0[0] + z0[2])) < 1e-12
    assert abs(zT[1] - (z0[1] + z0[3])) < 1e-12
    assert energy_drift(H, traj) < 1e-14
    _t, back = hamiltonian_flow(Scale(-1.0, H), zT, T=1.0, dt=1e-2, n=n)
    assert max(abs(a - b) for a, b in zip(back[-1], z0)) < 1e-8


def test_isospectral_drift_constant_matrix():
    L = [[Const(2.0 + 0j), Const(0.5 + 0j)], [Const(-0.25 + 0j), Const(1.0 + 0j)]]
    Lfn = matrix_fn_from_fields(L)
    traj = [(0.1, 0.2, 0.3, 0.4)] * 5
    assert isospectral_drift(Lfn, traj) == 0.0


def _charpoly_error(mat):
    """max |c - c_np| / (1 + max |c_np|) against numpy's np.poly."""
    c = charpoly(mat)
    ref = np.poly(np.array(mat, dtype=complex))
    assert len(c) == len(ref) and c[0] == 1
    return max(abs(a - b) for a, b in zip(c, ref)) / (1 + np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_charpoly_matches_numpy_on_seeded_complex_matrices(n):
    rng = random.Random(n)
    for _ in range(20):
        mat = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
               for _ in range(n)]
        assert _charpoly_error(mat) <= 1e-12


class Counted(complex):
    """A complex number that counts the products it takes part in."""
    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(complex(self) * other)

    def __add__(self, other):
        return Counted(complex(self) + other)

    __radd__ = __add__


def full_product_traces(mat, powers):
    """tr M^k for k in powers from one running product of full matrices,
    each entry folded from the int 0 (the diagonal of every power built
    as all its other entries are)."""
    m = len(mat)
    out, traces = mat, {}
    for k in range(1, max(powers) + 1):
        if k > 1:
            out = [[sum(out[i][l] * mat[l][j] for l in range(m)) for j in range(m)]
                   for i in range(m)]
        tr = out[0][0]
        for i in range(1, m):
            tr = tr + out[i][i]
        traces[k] = tr
    return [traces[k] for k in powers]


@pytest.mark.parametrize("powers, products", [((1, 2, 3, 4), 3), ((2, 4), 3), ((3,), 2)])
def test_trace_powers_run_one_product_per_power_bit_for_bit(powers, products):
    """tr M^k for the requested k from one running product M^k = M^(k-1) M:
    each trace equals the one of M^k rebuilt from M, bit for bit; one
    matrix product (m^3 scalar products) is made per power below the last,
    and of the last power only the diagonal (m^2 scalar products)."""
    rng = random.Random(23)
    m = 3
    mat = [[Counted(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(m)] for _ in range(m)]

    def rebuilt(k):
        out = mat
        for _ in range(k - 1):
            out = [[sum(out[i][l] * mat[l][j] for l in range(m)) for j in range(m)]
                   for i in range(m)]
        return sum((out[i][i] for i in range(1, m)), out[0][0])
    want = [repr(complex(rebuilt(k))) for k in powers]
    Counted.products = 0
    got = trace_powers(mat, powers)
    assert Counted.products == (products - 1) * m ** 3 + m ** 2
    assert [repr(complex(v)) for v in got] == want


@pytest.mark.parametrize("powers", [(1, 2, 3, 4), (2, 4), (3,), (1,)])
def test_trace_powers_of_field_entries_list_the_full_product_instructions(powers):
    """On field entries the traces are fields whose tape lists the
    instructions of traces from full products: the off-diagonal entries of
    the last power reach no trace."""
    xs = [linear_form(tuple(float(j == i) for j in range(3))) for i in range(3)]
    mat = [[xs[0], exp_lin((0.5, -0.25, 0.0)), Const(0.3 - 0.1j)],
           [xs[1] * xs[2], xs[2], LinArg(d_exp, (1.0, 0.0, 1.0), 0.2j)],
           [Const(2.0 + 0j), xs[0] + xs[1], xs[2] * xs[2]]]
    got, want = Tape(trace_powers(mat, powers)), Tape(full_product_traces(mat, powers))
    assert got.code == want.code and got.out == want.out


@pytest.mark.parametrize("mat", [
    [[1, 2, 3], [0, 4, 5], [6, 7, 8]],
    [[1, 2, 3, 4], [1e-3, 5, 6, 7], [0.5, -2, 8, 9], [0, 3j, 1, 2]],
    [[1, 2, 3], [0, 4, 5], [0, 7, 8]],
    [[1, 2, 3, 4], [5, 6, 7, 8], [0, 0, 1, 2], [0, 0, 3, 4]],
], ids=["swap-first-column", "swap-second-column", "zero-pivot",
        "zero-pivot-and-subdiagonal"])
def test_charpoly_with_a_row_swap_or_a_zero_pivot(mat):
    assert _charpoly_error(mat) <= 1e-12


def test_charpoly_of_upper_triangular_is_product_of_linear_factors():
    diag = (2.0, -1 + 0.5j, 3j, 0.25, -4.0)
    rng = random.Random(0)
    mat = [[diag[i] if i == j else
            (complex(rng.gauss(0, 1), rng.gauss(0, 1)) if j > i else 0.0)
            for j in range(5)] for i in range(5)]
    expected = [1.0]
    for d in diag:
        expected = [a - d * b for a, b in zip(expected + [0.0], [0.0] + expected)]
    c = charpoly(mat)
    assert len(c) == len(expected)
    assert max(abs(a - b) for a, b in zip(c, expected)) <= 1e-14 * (
        1 + max(abs(e) for e in expected))


def test_run_point_max_resamples_poles():
    calls = {"n": 0}

    def evalfn(x):
        calls["n"] += 1
        if calls["n"] % 2:
            raise PoleError("synthetic pole")
        return 0.5
    rng = random.Random(0)
    out = run_point_max(evalfn, rng, PointPolicy(2), 4)
    assert out == 0.5


def test_report_roundtrip_and_params_encoding():
    rep = VerificationReport(system="demo", params={"tau": 1.2 + 0.5j, "n": 3},
                             seed=9)
    enc = encode_params(rep.params)
    assert enc["tau"] == {"re": "1.2", "im": "0.5"}
    assert decode_number(enc["tau"]) == 1.2 + 0.5j
    text = rep.to_json()
    assert json.loads(text)["seed"] == 9


def run_cli(*args):
    env = dict(os.environ)
    return subprocess.run([sys.executable, "-m", "laxkit.cli", *args],
                          capture_output=True, text=True, env=env)


def test_cli_verify_reproducible_and_exit_codes(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    r1 = run_cli("verify", "--system", "trig-gln", "--rank", "2", "--seed", "7",
                 "--out", str(out1))
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli("verify", "--system", "trig-gln", "--rank", "2", "--seed", "7",
                 "--out", str(out2))
    assert r2.returncode == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    d1["runtime_ms"] = d2["runtime_ms"] = 0.0
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    # missing params file -> exit 2
    r = run_cli("verify", "--system", "trig-gln", "--params", "/nonexistent.json")
    assert r.returncode == 2
    # unknown parameter key -> exit 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"bogus": 1}')
    r = run_cli("verify", "--system", "trig-gln", "--params", str(bad))
    assert r.returncode == 2
    # unknown system -> exit 2
    r = run_cli("verify", "--system", "nope")
    assert r.returncode == 2


def test_cli_params_file_roundtrip(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"tau": {"re": "1.35", "im": "0.1"},
                                 "c": {"re": "0.3", "im": "0.05"}}))
    out = tmp_path / "r.json"
    r = run_cli("verify", "--system", "trig-gln", "--rank", "2", "--seed", "3",
                "--params", str(pfile), "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads(out.read_text())
    assert rep["params"]["tau"] == {"re": "1.35", "im": "0.1"}
    assert all(c["pass"] for c in rep["checks"])


def test_cli_perturbation_control(tmp_path):
    r = run_cli("verify", "--system", "trig-gln", "--rank", "2", "--seed", "7",
                "--perturb", "1e-3", "--out", str(tmp_path / "p.json"))
    assert r.returncode == 1
    assert "FAIL" in r.stderr


def test_cli_flow_csv(tmp_path):
    csvpath = tmp_path / "traj.csv"
    r = run_cli("flow", "--system", "rational-A", "--rank", "2", "--time", "0.5",
                "--dt", "2e-3", "--csv", str(csvpath))
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(csvpath.open()))
    assert rows and {"t", "x1", "p1", "trL1", "trL2", "charpoly_drift"} <= set(rows[0])
    tr2 = [float(row["trL2"]) for row in rows]
    assert max(tr2) - min(tr2) < 1e-6
    assert max(float(row["charpoly_drift"]) for row in rows) < 1e-6
    # T = 0 gives a single data row
    single = tmp_path / "one.csv"
    r = run_cli("flow", "--system", "rational-A", "--rank", "2", "--time", "0",
                "--csv", str(single))
    assert r.returncode == 0
    assert len(single.read_text().strip().splitlines()) == 2


def test_cli_flow_evaluates_lax_matrix_once_per_row(tmp_path, monkeypatch):
    # the trL^k columns and the charpoly drift of a row share one evaluation
    # of the L entry fields (trig-gln writes four trace powers)
    calls = []
    real = Tape.__call__

    def counting(tape, x):
        calls.append(len(tape.out))
        return real(tape, x)
    monkeypatch.setattr(Tape, "__call__", counting)
    csvpath = tmp_path / "traj.csv"
    assert cli_main(["flow", "--system", "trig-gln", "--rank", "2", "--time", "0.05",
                     "--dt", "1e-2", "--csv", str(csvpath)]) == 0
    rows = list(csv.DictReader(csvpath.open()))
    assert len(rows) == 6 and [k for k in rows[0] if k.startswith("trL")] == \
        ["trL1", "trL2", "trL3", "trL4"]
    assert calls == [4] * len(rows)


@pytest.mark.parametrize("time, count", [("0.403", 203), ("0.4", 201)])
def test_cli_flow_csv_ends_at_t_equal_T(tmp_path, time, count):
    """Rows take every (len(traj) // 200)-th trajectory point and the last
    one, so the CSV ends at t = T also where the stride (2 here) does not
    divide the 403 steps."""
    csvpath = tmp_path / "traj.csv"
    assert cli_main(["flow", "--system", "trig-gln", "--rank", "2", "--time", time,
                     "--dt", "1e-3", "--csv", str(csvpath)]) == 0
    ts = [float(row["t"]) for row in csv.DictReader(csvpath.open())]
    assert len(ts) == count and ts[-1] == float(time)
    assert ts[:-1] == [2 * i * 1e-3 for i in range(count - 1)]


def test_cli_calls_no_tape_at_a_dual_point(monkeypatch):
    """No package path hands a Dual to a tape, so the values that verify and
    flow read are plain numbers: with ``Tape.__call__`` refusing a Dual
    coordinate, each run gives the exit code of an unwrapped one."""
    argvs = [["verify", "--system", "rational-A", "--rank", "2", "--seed", "0"],
             ["verify", "--system", "trig-gln", "--rank", "2", "--seed", "0"],
             ["flow", "--system", "koornwinder", "--rank", "2", "--time", "0.1",
              "--dt", "1e-2"]]
    want = [cli_main(argv) for argv in argvs]
    real = Tape.__call__

    def plain_only(tape, x):
        if any(isinstance(v, Dual) for v in x):
            raise AssertionError("a tape was called at a Dual point")
        return real(tape, x)
    monkeypatch.setattr(Tape, "__call__", plain_only)
    assert [cli_main(argv) for argv in argvs] == want == [0, 0, 0]


def test_cli_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys):
    # a flag the subcommand would ignore is a usage error, not a silent no-op
    assert cli_main(["flow", "--system", "trig-gln", "--perturb", "1e-3"]) == 2
    assert cli_main(["verify", "--system", "trig-gln", "--dt", "1e-2"]) == 2
    assert cli_main(["verify", "--system", "trig-gln", "--suite", "default"]) == 2
    assert capsys.readouterr().out == ""
    # the argv shape of perfbench/run.py, which passes --seed to every operation
    csvpath = tmp_path / "traj.csv"
    assert cli_main(["flow", "--system", "trig-gln", "--rank", "2", "--seed", "0",
                     "--time", "0.05", "--dt", "1e-2", "--csv", str(csvpath)]) == 0
    assert len(csvpath.read_text().splitlines()) == 7


@pytest.mark.parametrize("argv", [
    [],
    ["check", "--system", "trig-gln"],
    ["verify", "--system", "trig-gln", "--bogus", "1"],
    ["flow", "--system", "trig-gln", "--perturb", "1e-3"],
    ["verify", "--system", "trig-gln", "--out"],
    ["verify", "--system", "--rank", "2"],
    ["verify", "--system", "trig-gln", "--rank", "2.5"],
    ["flow", "--system", "trig-gln", "--dt", "x"],
    ["verify", "--sys", "trig-gln"],
    ["flow", "--rank", "2"],
], ids=["no-subcommand", "unknown-subcommand", "unknown-flag", "other-subcommand-flag",
        "no-value-at-end", "flag-as-value", "bad-int", "bad-float", "abbreviation",
        "no-system"])
def test_cli_usage_errors_exit_2_with_the_usage_on_stderr(argv, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: laxkit verify --system SYSTEM")
    assert "laxkit: error: " in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"],
                                  ["flow", "--system", "trig-gln", "--help"]])
def test_cli_help_prints_the_usage_and_exits_0(argv, capsys):
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: laxkit verify --system SYSTEM")
    assert "laxkit flow --system SYSTEM" in captured.out and captured.err == ""


def test_cli_flag_equals_value_gives_the_report_of_flag_value(tmp_path):
    reports = []
    for seed in (["--seed=7"], ["--seed", "7"]):
        out = tmp_path / "r.json"
        assert cli_main(["verify", "--system", "trig-gln", "--rank=2", *seed,
                         "--out", str(out)]) == 0
        reports.append(re.sub(r'("runtime_ms": )[^,\n}]+', r"\g<1>0", out.read_text()))
    assert reports[0] == reports[1] and '"seed": 7' in reports[0]


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "trig-gln", "--params", "{dir}"],
    ["verify", "--system", "trig-gln", "--params", "{binary}"],
    ["verify", "--system", "trig-gln", "--rank", "2", "--out", "{dir}"],
    ["flow", "--system", "trig-gln", "--rank", "2", "--time", "0.05", "--dt", "1e-2",
     "--csv", "{dir}"],
], ids=["params-directory", "params-binary", "out-directory", "csv-directory"])
def test_cli_unreadable_or_unwritable_files_are_configuration_errors(argv, tmp_path,
                                                                     monkeypatch, capsys):
    # each used to end in an IsADirectoryError or UnicodeDecodeError traceback;
    # an output path used to be refused only after the whole run
    ran = []
    monkeypatch.setattr(suites, "run_check", lambda *a, **kw: ran.append("check"))
    monkeypatch.setattr(suites, "scalar_check", lambda *a, **kw: ran.append("check"))
    monkeypatch.setattr("laxkit.verify.rk4_step", lambda *a: ran.append("step"))
    binary = tmp_path / "p.json"
    binary.write_bytes(b"\xff\xfe\x00{")
    argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert ran == []


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "trig-gln", "--params", "{params}", "--out", "{out}"],
    ["flow", "--system", "trig-gln", "--time", "1", "--dt", "0.3", "--csv", "{out}"],
    ["flow", "--system", "ell-cm-A", "--csv", "{out}"],
], ids=["verify-zero-c", "flow-partial-step", "flow-flowless-system"])
def test_cli_configuration_error_leaves_no_output_file(argv, tmp_path, capsys):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"c": 0}))
    out = tmp_path / "out"
    assert cli_main([a.format(params=params, out=out) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "trig-gln", "--rank", "2"],
    ["flow", "--system", "trig-gln", "--rank", "2", "--time", "0.05", "--dt", "1e-2"],
], ids=["verify", "flow"])
def test_cli_closed_stdout_exits_1_with_one_line(argv, monkeypatch, capsys):
    # it used to read as "configuration error: [Errno 32] Broken pipe", exit 2
    class ClosedStdout:
        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedStdout())
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "laxkit: error: standard output closed\n"


def test_cli_closed_stdout_pipe_leaves_nothing_to_flush_at_exit():
    # with a buffered stdout the output sits in the buffer until the exit
    # flush, which used to fail once more ("Exception ignored", exit 120)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "laxkit.cli", "flow", "--system",
                            "trig-gln", "--rank", "2", "--time", "0.05", "--dt", "1e-2"],
                           stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (1, "laxkit: error: standard output closed\n")


def test_rng_for_deterministic():
    a = rng_for(7, "x").random()
    b = rng_for(7, "x").random()
    c = rng_for(7, "y").random()
    assert a == b and a != c


FLOW_SYSTEMS = {"rational-A", "trig-gln", "inozemtsev", "koornwinder", "vandiejen"}
DIFFERENCE_SYSTEMS = ("trig-gln", "koornwinder", "ell-ruijsenaars", "vandiejen")
DIFFERENTIAL_SYSTEMS = ("rational-A", "rational-C", "ell-cm-A", "inozemtsev")


def test_system_registry():
    assert KNOWN_SYSTEMS == tuple(SYSTEMS) and len(SYSTEMS) == 8
    for name, spec in SYSTEMS.items():
        assert spec.defaults and callable(spec.suite)
        params = default_params(name)
        assert params == spec.defaults and params is not spec.defaults
    assert {name for name, spec in SYSTEMS.items() if spec.flow} == FLOW_SYSTEMS
    assert {name for name, spec in SYSTEMS.items()
            if spec.regime in DIFFERENCE_REGIMES} == set(DIFFERENCE_SYSTEMS)
    assert {name for name, spec in SYSTEMS.items()
            if spec.regime in DIFFERENTIAL_REGIMES} == set(DIFFERENTIAL_SYSTEMS)
    with pytest.raises(ConfigError, match=r"^unknown system 'nope'; known: \('rational-A', "):
        default_params("nope")
    with pytest.raises(ConfigError, match=r"^unknown system 'nope'; known: \('rational-A', "):
        RunConfig(system="nope")
    config = RunConfig(system="ell-cm-A", params=default_params("ell-cm-A"))
    with pytest.raises(ConfigError, match="^no classical flow for system 'ell-cm-A'$"):
        classical_flow_setup(config)


def test_cli_unknown_system_and_flowless_system(capsys):
    assert cli_main(["verify", "--system", "nope"]) == 2
    assert ("configuration error: unknown system 'nope'; known: ('rational-A', "
            in capsys.readouterr().err)
    assert cli_main(["flow", "--system", "ell-cm-A"]) == 2
    assert ("configuration error: no classical flow for system 'ell-cm-A'"
            in capsys.readouterr().err)


# systems whose suites need two coordinates; every other system runs at rank 1
MIN_RANKS = {"rational-A": 2, "rational-C": 2, "trig-gln": 2, "ell-ruijsenaars": 2}


@pytest.mark.parametrize("system", KNOWN_SYSTEMS)
def test_cli_rank_one(system, capsys):
    assert SYSTEMS[system].min_rank == MIN_RANKS.get(system, 1)
    rc = cli_main(["verify", "--system", system, "--rank", "1"])
    err = capsys.readouterr().err
    if system in MIN_RANKS:
        assert rc == 2
        assert f"configuration error: rank must be >= 2 for system '{system}'" in err
    else:
        assert rc == 0, err


@pytest.mark.parametrize("system", DIFFERENCE_SYSTEMS)
def test_cli_difference_suite_rejects_zero_step(system, tmp_path, capsys):
    # the classical flavor (c = 0) has no function action, so no suite runs
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"c": 0}))
    assert cli_main(["verify", "--system", system, "--params", str(pfile)]) == 2
    err = capsys.readouterr().err
    assert (f"configuration error: regime {SYSTEMS[system].regime} needs a "
            "nonzero step constant c") in err


@pytest.mark.parametrize("system", DIFFERENTIAL_SYSTEMS)
def test_cli_differential_suite_rejects_zero_planck_constant(system, tmp_path, capsys):
    # the classical flavor (t = 0) has no function action either; its suites
    # used to pass vacuously, with every residual 0
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"t": 0}))
    assert cli_main(["verify", "--system", system, "--params", str(pfile)]) == 2
    err = capsys.readouterr().err
    assert (f"configuration error: regime {SYSTEMS[system].regime} needs a "
            "nonzero Planck constant t") in err


def test_cli_verify_rejects_non_finite_parameter(tmp_path, capsys):
    # an infinite tau used to give a vacuous pass (every residual 0)
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"tau": {"re": "inf", "im": "0"}}))
    assert cli_main(["verify", "--system", "trig-gln", "--params", str(pfile)]) == 2
    assert "configuration error: parameter tau is not finite" in capsys.readouterr().err


def test_cli_verify_rejects_a_non_finite_list_element(tmp_path, capsys):
    # a NaN coupling in a list used to pass every check at residual 0
    pfile = tmp_path / "p.json"
    nan = {"re": "nan", "im": "0.0"}
    pfile.write_text(json.dumps({"g": [nan] + [{"re": "0.1", "im": "0.0"}] * 3}))
    assert cli_main(["verify", "--system", "inozemtsev", "--rank", "2",
                     "--params", str(pfile)]) == 2
    assert "configuration error: parameter g is not finite" in capsys.readouterr().err


def test_cli_flow_rejects_a_non_finite_parameter_but_not_a_classical_one(tmp_path, capsys):
    # a NaN c used to print a NaN trajectory with charpoly_drift 0.0; the
    # regime's c != 0 rule is the suites', and a flow runs at c = 0 itself
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"c": {"re": "nan", "im": "0.0"}}))
    assert cli_main(["flow", "--system", "rational-A", "--rank", "3",
                     "--params", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "configuration error: parameter c is not finite" in captured.err
    pfile.write_text(json.dumps({"t": 0}))
    assert cli_main(["flow", "--system", "rational-A", "--rank", "3", "--time", "0.01",
                     "--dt", "1e-2", "--params", str(pfile)]) == 0


def test_a_nan_value_at_one_point_fails_its_check():
    values = iter([1e-12, float("nan"), 2e-12])
    r = run_check("nan", 1e-9, lambda x: next(values), random.Random(0), PointPolicy(2), 3)
    assert r.residual == float("inf") and not r.passed


def test_a_nan_drift_reads_as_inf():
    nan = float("nan")
    drifts = charpoly_drifts([[[1.0, 0.0], [0.0, 2.0]], [[nan, 0.0], [0.0, 2.0]],
                              [[2.0, 0.0], [0.0, 1.0]]])
    assert drifts == [0.0, float("inf"), 0.0]
    x = linear_form((1.0,))
    assert energy_drift(x, [(1.0,), (complex(1.0, nan),), (1.0,)]) == float("inf")


def test_a_nan_residue_exponent_fails_its_check(monkeypatch):
    def run_check(name, tol, *_args, **_kw):
        return CheckResult(name, 0.0, tol, True)
    monkeypatch.setattr(suites, "run_check", run_check)
    monkeypatch.setattr(ellrel, "residue_conditions",
                        lambda *_a, **_kw: [("a", 3.0, True), ("b", float("nan"), True)])
    config = RunConfig(system="vandiejen", rank=2, params=default_params("vandiejen"))
    check = suites.build_suite(config)[-1]
    assert check.name == "residue-exponents"
    assert check.residual == float("inf") and not check.passed


@pytest.mark.parametrize("flag,value,message", [
    ("--dt", "0", "--dt must be finite and > 0, got 0.0"),
    ("--dt", "-0.01", "--dt must be finite and > 0, got -0.01"),
    ("--time", "-1", "--time must be finite and >= 0, got -1.0"),
    ("--time", "nan", "--time must be finite and >= 0, got nan"),
], ids=["dt-zero", "dt-negative", "time-negative", "time-nan"])
def test_cli_flow_rejects_a_bad_step_or_time(flag, value, message, capsys):
    # dt <= 0 or a negative time used to take one silent step the wrong way,
    # dt = 0 and a NaN time to end in a traceback
    assert cli_main(["flow", "--system", "trig-gln", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: {message}" in captured.err


@pytest.mark.parametrize("dt", ["0.7", "0.3"])
def test_cli_flow_rejects_a_time_that_is_no_whole_number_of_steps(dt, capsys):
    # round(T/dt) steps used to end the run short of T (at 0.7 and at
    # 0.8999999999999999 for T = 1), with exit 0
    assert cli_main(["flow", "--system", "trig-gln", "--rank", "2",
                     "--time", "1", "--dt", dt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"configuration error: time 1.0 is not a whole number of steps dt = {dt}"
            in captured.err)


def test_hamiltonian_flow_ends_at_T_or_refuses():
    H = 0.5 * momentum(1, 0) * momentum(1, 0)
    for T, dt in ((1.0, 0.7), (1.0, 0.3), (0.05, 0.1), (1.0, 1e-2 * (1 + 1e-8))):
        with pytest.raises(ConfigError, match="whole number of steps"):
            hamiltonian_flow(H, (0.0, 1.0), T, dt, 1)
    for T, dt in ((1.0, 1e-3), (1.0, 2e-3), (1.0, 1e-2), (0.1, 1e-2), (0.05, 1e-2),
                  (0.5, 2e-3), (0.9, 0.3)):
        times, traj = hamiltonian_flow(H, (0.0, 1.0), T, dt, 1)
        assert len(times) == len(traj) == round(T / dt) + 1
        assert abs(times[-1] - T) < 1e-12 and abs(traj[-1][0] - T) < 1e-12
    assert hamiltonian_flow(H, (0.0, 1.0), 0.0, 0.3, 1) == ([0.0], [(0.0, 1.0)])


def test_cli_verify_rank_above_the_weyl_guard(capsys):
    # the Weyl-group guard raises the one configuration error the CLI catches
    assert weyl.ConfigError is ConfigError
    assert cli_main(["verify", "--system", "rational-A", "--rank", "12"]) == 2
    assert ("configuration error: |W| = 479001600 exceeds guard 1000000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["verify", "flow"])
@pytest.mark.parametrize("params,message", [
    ({"t": "abc"}, "parameter t is not a number"),
    ({"t": {"re": "abc", "im": "0"}}, "parameter t is not a number"),
    ({"g": [0.1j, "x", 0.2j, 0.3j]}, "parameter g must be a list of 4 numbers"),
    ({"g": 0.1j}, "parameter g must be a list of 4 numbers"),
    ({"g": [0.1j, 0.2j]}, "parameter g must be a list of 4 numbers"),
], ids=["string", "complex-string", "list-entry", "scalar-for-list", "short-list"])
def test_cli_rejects_non_numeric_params(command, params, message, tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(params, default=lambda z: {"re": str(z.real),
                                                           "im": str(z.imag)}))
    assert cli_main([command, "--system", "inozemtsev", "--params", str(pfile)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


# parameters from which a system's kernels cannot be made: one that a kernel
# divides by is 0, or Im tau is below the theta series' guard; each used to
# end verify and flow in a ZeroDivisionError or ModulusError traceback
DEGENERATE_PARAMS = (
    [("trig-gln", "tau", 0, "parameter tau must be nonzero")]
    + [("koornwinder", k, 0, f"parameter {k} must be nonzero")
       for k in ("tau", "tau0", "tau0v", "taun", "taunv")]
    + [(system, "tau", {"re": "0.3", "im": "0.01"}, "Im tau = 0.01 < 0.05")
       for system in ("ell-cm-A", "inozemtsev", "ell-ruijsenaars", "vandiejen")])


@pytest.mark.parametrize("command", ["verify", "flow"])
@pytest.mark.parametrize("system,key,value,message", DEGENERATE_PARAMS,
                         ids=[f"{s}-{k}" for s, k, _v, _m in DEGENERATE_PARAMS])
def test_cli_rejects_parameters_that_make_no_kernel(command, system, key, value,
                                                    message, tmp_path, capsys):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({key: value}))
    if command == "flow" and SYSTEMS[system].flow is None:
        message = f"no classical flow for system {system!r}"
    assert cli_main([command, "--system", system, "--params", str(pfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"configuration error: {message}" in captured.err


@pytest.mark.parametrize("system,rank", [("rational-A", 3), ("rational-C", 2)])
def test_rational_commutator_checks_at_seed_17(system, rank, capsys):
    # both sides of each commutator are compared, so the residual scales with
    # the products and not with 1 + |difference|
    assert cli_main(["verify", "--system", system, "--rank", str(rank),
                     "--seed", "17"]) == 0, capsys.readouterr().err


SYSTEM_MODULES = {"laxkit.rational", "laxkit.trig", "laxkit.koorn",
                  "laxkit.ellcm", "laxkit.ellrel"}


def test_verify_imports_only_its_system_module():
    code = ("import io, sys, contextlib\n"
            "from laxkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    rc = main(['verify', '--system', 'trig-gln', '--rank', '2'])\n"
            "print(rc, ' '.join(m for m in sys.modules if m.startswith('laxkit.')))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ))
    assert r.returncode == 0, r.stderr
    rc, *loaded = r.stdout.split()
    assert rc == "0"
    assert SYSTEM_MODULES & set(loaded) == {"laxkit.trig"}


def test_cli_flow_and_verify_run_without_numpy():
    # numpy is a test-only oracle: the package imports none of it
    code = ("import io, sys, contextlib\n"
            "from laxkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    rcs = [main(['flow', '--system', 'trig-gln', '--rank', '3', "
            "'--time', '0.05', '--dt', '1e-2']),\n"
            "           main(['verify', '--system', 'trig-gln', '--rank', '2'])]\n"
            "print(*rcs, *(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ))
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "0"]


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_cli_and_system_modules_import_no_dataclasses_or_inspect():
    # plain record classes: their import execs no generated methods, and
    # -S keeps a host's site imports out of the count
    code = ("import sys\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import laxkit.cli, laxkit.rational, laxkit.trig, laxkit.koorn, "
            "laxkit.ellcm, laxkit.ellrel\n"
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    r = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


def test_a_verify_and_a_flow_call_load_no_argparse_gettext_locale_or_copy():
    # one flag table reads argv and default_params copies its lists itself;
    # -S keeps a host's site imports out of the count
    code = ("import io, sys, contextlib\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from laxkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    rcs = [main(['verify', '--system', 'trig-gln', '--rank', '2']),\n"
            "           main(['flow', '--system', 'trig-gln', '--rank', '2', "
            "'--time', '0.05', '--dt', '1e-2'])]\n"
            "print(*rcs, *sorted({'argparse', 'gettext', 'locale', 'copy', "
            "'dataclasses', 'inspect'} & set(sys.modules)))\n")
    r = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "0"]


# span groups perfbench/run.py turns into per-layer metrics
BENCH_GROUPS = {
    "verify": ("verify.run_point_max", "fields.eval", "opcore.mul",
               "opcore.restrict", "opcore.apply_field"),
    "flow": ("verify.hamiltonian_rhs", "verify.rk4_step", "verify.scaled_flow",
             "suites.classical_flow_setup", "cli.cmd_flow"),
}


@pytest.mark.parametrize("argv", [
    ["verify", "--system", "trig-gln", "--rank", "2", "--seed", "0"],
    ["verify", "--system", "rational-A", "--rank", "2", "--seed", "0"],
    ["flow", "--system", "rational-A", "--rank", "2", "--time", "0.05",
     "--dt", "1e-2"],
], ids=["verify", "verify-differential", "flow"])
def test_benchmark_tracer_hooks_fire(argv):
    # the tracer wraps these operator methods only where a class defines them
    for cls in (WOp, DiffOp):
        assert {"__mul__", "restrict", "apply_field"} <= set(cls.__dict__), cls
    spec = json.dumps({"argv": argv, "trace": "full"})
    r = subprocess.run([sys.executable, "-I", str(ROOT / "perfbench" / "child.py"),
                        str(ROOT), spec], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout)
    assert result["rc"] == 0, result["stderr"]
    groups = result["trace"]["groups"]
    if argv[0] == "verify":
        assert any(name.startswith("verify.") and name.endswith("_evalfn")
                   and g["calls"] > 0 for name, g in groups.items())
        assert result["trace"]["points"] > 0
        assert result["trace"]["layers"]["construct"]["incl"] > 0
        # the tracer counts leaf kernel calls by wrapping these methods
        assert "__call__" in LinArg.__dict__ and "__call__" in BiArg.__dict__
        assert result["trace"]["counts"].get("leaf_calls", 0) > 0
        assert result["trace"]["point_totals"].get("leaf_calls", 0) > 0
    for name in BENCH_GROUPS[argv[0]]:
        assert groups.get(name, {}).get("calls", 0) > 0, name


def test_byte_identity_against_prints_each_run_sorted_and_fails_if_one_moved(
        monkeypatch, capsys, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import byte_identity
    this, other = tmp_path / "this", tmp_path / "other"
    moved = ["flow", "--system", "vandiejen", "--rank", "2", "--time", "1", "--dt", "2e-3"]

    def output(root, argv):
        return f"{root.name if argv == moved else 'both'}:{'_'.join(argv)}", "", 0
    monkeypatch.setattr(byte_identity, "output", output)
    labels = sorted(label for label, _argv in byte_identity.runs())
    assert byte_identity.main([str(this), "--against", str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(labels) + 1 == 59 and lines[-1] == "1 of 58 runs moved"
    rows = [line.split(maxsplit=3) for line in lines[:-1]]
    assert [row[3] for row in rows] == labels
    for status, theirs, ours, label in rows:
        if label == "flow vandiejen rank=2 T=1 dt=2e-3":
            assert (status, theirs, ours) == (
                "moved", byte_identity.fingerprint(output(other, moved)),
                byte_identity.fingerprint(output(this, moved)))
        else:
            assert status == "same" and theirs == ours
    monkeypatch.setattr(byte_identity, "output", lambda root, argv: ("_".join(argv), "", 0))
    assert byte_identity.main([str(this), "--against", str(other)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0 of 58 runs moved"


def test_byte_identity_against_lists_the_moved_checks_of_a_moved_verify_run(
        monkeypatch, capsys, tmp_path):
    """Under a moved verify run, each check whose residual or verdict moved
    is printed with both residual reprs and both verdicts."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import byte_identity
    this, other = tmp_path / "this", tmp_path / "other"
    label = "verify ell-cm-A rank=3 seed=0 perturb=0"
    report = {"other": [("split", 1.5e-14, True), ("lax", 2.92e-14, True),
                        ("table", 0.0, True), ("gone", 0.1, True)],
              "this": [("split", 1.5e-14, True), ("lax", 4.24e-14, True),
                       ("table", 0.0, False), ("new", 0.2, False)]}

    def output(root, argv):
        if argv[:3] != ["verify", "--system", "ell-cm-A"] or argv[6] != "0" or argv[8] != "0":
            return "{}", "", 0
        checks = [{"name": n, "residual": r, "tol": 1e-9, "pass": ok}
                  for n, r, ok in report[root.name]]
        return json.dumps({"checks": checks, "runtime_ms": 0}), "", 1 - checks[2]["pass"]
    monkeypatch.setattr(byte_identity, "output", output)
    assert byte_identity.main([str(this), "--against", str(other)]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.endswith(label))
    assert lines[at].startswith("moved")
    assert lines[at + 1:at + 5] == ["       lax: 2.92e-14 pass -> 4.24e-14 pass",
                                    "       table: 0.0 pass -> 0.0 FAIL",
                                    "       new: - absent -> 0.2 FAIL",
                                    "       gone: 0.1 pass -> - absent"]
    assert lines[at + 5].startswith("same") and lines[-1] == "1 of 58 runs moved"


def test_flow_agreement_gates_values_drift_and_exit_codes(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import flow_agreement
    header = ["t", "x1", "p1", "trL2", "charpoly_drift"]
    rows = [[0.0, 0.3, -0.2, 1.5, 0.0], [0.5, 0.31, 1e-3, 1.5, 2e-16],
            [1.0, 0.33, -0.1, 1.5, 4e-16]]

    def failed(rows_b, code_b=0, rows_a=rows):
        return flow_agreement.agreement("flow", "rational-A", (0, False, header, rows_a),
                                        (code_b, False, header, rows_b))[0]

    def moved(col, fn):
        out = [list(r) for r in rows]
        out[1][col] = fn(out[1][col])
        return out
    assert not failed(rows)
    assert failed(moved(1, lambda v: v * (1 + 1e-10)))
    assert failed(moved(4, lambda v: v + 1e-11))
    # a rounding-level change of the drift is no disagreement, though it is
    # five times the drift itself
    assert not failed(moved(4, lambda v: v + 1e-15))
    assert failed(rows, code_b=1)
    # a flow that aborted before its first step compares no trajectory
    bad, lines = flow_agreement.agreement("flow", "vandiejen", (1, True, header, rows[:1]),
                                          (1, True, header, rows[:1]))
    assert not bad and "aborted, 1 row compared" in lines[0]
    assert flow_agreement.agreement("flow", "vandiejen", (1, True, header, rows[:1]),
                                    (1, False, header, rows[:1]))[0]
