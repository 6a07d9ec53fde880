"""Sampling policies, residuals, Poisson brackets, flows, and reports.

Residuals are scale-free: max over samples of |lhs-rhs|/(1+|lhs|+|rhs|).
Sample points rejected by a pole guard are redrawn (up to MAX_POINT_TRIES
rejected draws per check, over all its points), so identities are tested
off the singular divisor.  Every check is reproducible bit-for-bit from its
seed.

Every tape here runs at complex points, so its values are plain numbers.
tr L^k is a field too: ``trace_powers`` on the entry fields of L builds it
from ``Prod`` and ``NSum`` nodes, and its brackets take the generated
gradient like any Hamiltonian's.  Of the last power it builds only the
diagonal, the one part a trace reads.  A flow of the time-scaled H/kappa
runs H's generated gradient, the one ``flow_time_scale`` compiled
(``fields.Field.gradient`` of a ``Scale``).
"""

from __future__ import annotations

import json
import random
import time
from operator import mul

from .dual import gradient_vec
from .fields import ZERO, PoleError, Scale, Tape
from .opcore import OperatorMatrix, nan_as_inf, residual_pair
from .weyl import ConfigError

DEFAULT_POINTS = 8
MAX_POINT_TRIES = 100


class CheckResult:
    def __init__(self, name, residual, tol, passed, seconds=0.0):
        self.name, self.residual, self.tol, self.passed = name, residual, tol, passed
        self.seconds = seconds

    def as_dict(self):
        return {"name": self.name, "residual": self.residual,
                "tol": self.tol, "pass": self.passed}


class VerificationReport:
    def __init__(self, system, params, seed):
        self.system, self.params, self.seed = system, params, seed
        self.checks = []
        self.runtime_ms = 0.0

    def add(self, result: CheckResult):
        self.checks.append(result)

    def all_passed(self):
        return all(c.passed for c in self.checks)

    def as_dict(self):
        return {
            "system": self.system,
            "params": encode_params(self.params),
            "seed": self.seed,
            "checks": [c.as_dict() for c in self.checks],
            "runtime_ms": self.runtime_ms,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def encode_params(params):
    out = {}
    for k, v in params.items():
        if isinstance(v, complex):
            out[k] = {"re": repr(v.real), "im": repr(v.imag)}
        elif isinstance(v, float):
            out[k] = {"re": repr(v), "im": "0.0"}
        elif isinstance(v, (list, tuple)):
            out[k] = [encode_params({"v": x})["v"] for x in v]
        else:
            out[k] = v
    return out


def decode_number(v):
    if isinstance(v, dict) and set(v) == {"re", "im"}:
        z = complex(float(v["re"]), float(v["im"]))
        return z.real if z.imag == 0 else z
    return v


class PointPolicy:
    """Box for random complex sample points."""

    def __init__(self, n, re_lo=-0.9, re_hi=0.9, im=0.15):
        self.n, self.re_lo, self.re_hi, self.im = n, re_lo, re_hi, im

    def draw(self, rng):
        return tuple(complex(rng.uniform(self.re_lo, self.re_hi),
                             rng.uniform(-self.im, self.im))
                     for _ in range(self.n))


def run_point_max(evalfn, rng, policy: PointPolicy, npoints):
    """Max of evalfn over sample points, redrawing pole-guarded points.

    Points are drawn and evaluated serially, so the accepted points are the
    first ``npoints`` draws off the pole guard, whatever the evaluation cost.
    The draw after the MAX_POINT_TRIES-th rejected one, counted over all the
    points, raises ``PoleError`` if it is rejected too.  A NaN value reads
    as inf, so its check fails.
    """
    worst = 0.0
    got = 0
    tries = 0
    while got < npoints:
        try:
            r = evalfn(policy.draw(rng))
        except PoleError:
            tries += 1
            if tries > MAX_POINT_TRIES:
                raise PoleError("all sample points rejected by the pole guard")
            continue
        worst = max(worst, nan_as_inf(r))
        got += 1
    return worst


def residual_evalfn(lhs, rhs, probes):
    """Per-point residual of lhs = rhs on probe functions.

    ``lhs`` and ``rhs`` are scalar operators or OperatorMatrix objects of
    one size; ``rhs=None`` means lhs = 0.  At a point x the value is the max
    over entries and probes of residual_pair(lhs f (x), rhs f (x)), with
    all the sides compiled into one tape, so the field nodes shared between
    entries are computed once per point.
    """
    lops = _entries(lhs)
    rops = [None] * len(lops) if rhs is None else _entries(rhs)
    roots = [g for a, b in zip(lops, rops) for p in probes
             for g in (a.apply_field(p), ZERO if b is None else b.apply_field(p))]
    tape = Tape(roots)

    def evalfn(x):
        vals = tape(x)
        return max((residual_pair(v1, v2)
                    for v1, v2 in zip(vals[::2], vals[1::2])), default=0.0)
    return evalfn


def _entries(op):
    """Row-major entries of an OperatorMatrix; [op] for a scalar operator."""
    if isinstance(op, OperatorMatrix):
        return [e for row in op.entries for e in row]
    return [op]


def op_residual(lhs, rhs, probes, points) -> float:
    """Max of residual_evalfn over fixed points (no pole resampling)."""
    evalfn = residual_evalfn(lhs, rhs, probes)
    return max((evalfn(x) for x in points), default=0.0)


def run_check(name, tol, evalfn, rng, policy, npoints=DEFAULT_POINTS):
    t0 = time.perf_counter()
    residual = run_point_max(evalfn, rng, policy, npoints)
    dt = time.perf_counter() - t0
    return CheckResult(name, residual, tol, residual < tol, dt)


def scalar_check(name, tol, residual):
    return CheckResult(name, float(residual), tol, residual < tol)


# -- phase-space calculus -----------------------------------------------

def _bracket(f, g, z, n):
    """({f,g}, grad f, grad g) at phase point z from one gradient pass each."""
    gf = gradient_vec(f, z)
    gg = gradient_vec(g, z)
    return sum(gf[i] * gg[n + i] - gf[n + i] * gg[i] for i in range(n)), gf, gg


def poisson_bracket(f, g, z, n):
    """{f,g} = sum_i df/dx_i dg/dp_i - df/dp_i dg/dx_i at phase point z."""
    return _bracket(f, g, z, n)[0]


def hamiltonian_rhs(H, z, n):
    g = gradient_vec(H, z)
    return tuple(g[n:]) + tuple(-v for v in g[:n])


def rk4_step(H, z, dt, n):
    """One classical RK4 step of Hamilton's equations; 0.5 * dt and dt / 6.0
    are taken once, which gives the products a + 0.5 * dt * b would."""
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = hamiltonian_rhs(H, z, n)
    k2 = hamiltonian_rhs(H, [a + half * b for a, b in zip(z, k1)], n)
    k3 = hamiltonian_rhs(H, [a + half * b for a, b in zip(z, k2)], n)
    k4 = hamiltonian_rhs(H, [a + dt * b for a, b in zip(z, k3)], n)
    return tuple([a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                  for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)])


def flow_steps(T, dt):
    """The number of steps dt in T, which must be 0 or a whole number of steps
    (to 1e-9 of a step), so that a trajectory ends at T; otherwise
    ``ConfigError``."""
    if T == 0:
        return 0
    steps = round(T / dt)
    if steps < 1 or abs(T / dt - steps) > 1e-9:
        raise ConfigError(f"time {T} is not a whole number of steps dt = {dt}")
    return steps


def hamiltonian_flow(H, z0, T, dt, n):
    """Fixed-step RK4 trajectory of Hamilton's equations for H(x, p), every
    step recorded, over the ``flow_steps(T, dt)`` steps."""
    steps = flow_steps(T, dt)
    z = tuple(z0)
    times = [0.0]
    traj = [z]
    for s in range(steps):
        z = rk4_step(H, z, dt, n)
        times.append((s + 1) * dt)
        traj.append(z)
    return times, traj


def flow_time_scale(H, z0, n, target_speed=0.08):
    """Normalization constant kappa so that the flow of H/kappa starts with
    phase-speed ~ target_speed; fixes a time unit for systems whose natural
    Hamiltonian scale is large (isospectrality and involution statements
    are invariant under constant rescaling of H)."""
    rhs = hamiltonian_rhs(H, z0, n)
    speed = max(abs(v) for v in rhs)
    return max(speed / target_speed, 1.0)


def scaled_flow(H, z0, T, dt, n, target_speed=0.08):
    kappa = flow_time_scale(H, z0, n, target_speed)
    Hs = Scale(1.0 / kappa, H) if kappa != 1.0 else H
    times, traj = hamiltonian_flow(Hs, z0, T, dt, n)
    return Hs, times, traj


def energy_drift(H, traj):
    e0 = H(traj[0])
    return max(nan_as_inf(abs(H(z) - e0) / (1.0 + abs(e0))) for z in traj)


def charpoly(mat):
    """Coefficients of det(x I - A), highest power first (leading 1), of a
    square matrix given as row lists.

    Wilkinson, The Algebraic Eigenvalue Problem (1965), ch. 7: reduce A to
    upper Hessenberg form H by Gaussian similarity transforms with partial
    pivoting (a column whose pivot is exactly 0 is already reduced), then
    expand det(x I - H) by the Hessenberg determinant recurrence (Hyman)
        p_k = (x - h_kk) p_{k-1} - sum_{i<k} h_ik h_{i+1,i} ... h_{k,k-1} p_{i-1}
    over the leading principal submatrices, p_0 = 1.
    """
    a = [[complex(v) for v in row] for row in mat]
    n = len(a)
    for k in range(1, n - 1):
        p = max(range(k, n), key=lambda i: abs(a[i][k - 1]))
        pivot = a[p][k - 1]
        if pivot == 0:
            continue
        if p != k:
            a[p], a[k] = a[k], a[p]
            for row in a:
                row[p], row[k] = row[k], row[p]
        for i in range(k + 1, n):
            m = a[i][k - 1] / pivot
            if m == 0:
                continue
            ri, rk = a[i], a[k]
            for j in range(k, n):           # a[i][k - 1] is never read again
                ri[j] -= m * rk[j]
            for row in a:
                row[k] += m * row[i]
    polys = [[1.0 + 0j]]
    for k in range(n):
        prev = polys[k]
        pk = prev + [0j]
        for j, c in enumerate(prev):
            pk[j + 1] -= a[k][k] * c
        sub = 1.0 + 0j
        for i in range(k, 0, -1):
            sub *= a[i][i - 1]
            f = a[i - 1][k] * sub
            off = k + 2 - i
            for j, c in enumerate(polys[i - 1]):
                pk[off + j] -= f * c
        polys.append(pk)
    return polys[n]


def charpoly_drifts(matrices):
    """Per-matrix drift of the characteristic-polynomial coefficients from
    those of the first matrix, over 1 + their max size; a NaN reads as inf."""
    out = []
    for mat in matrices:
        coeffs = charpoly(mat)
        if not out:
            ref = coeffs
            scale = 1.0 + max(abs(c) for c in ref)
        drift = max(nan_as_inf(abs(c - r)) for c, r in zip(coeffs, ref))
        out.append(nan_as_inf(drift / scale))
    return out


def isospectral_drift(L_fn, traj):
    """Max drift of characteristic-polynomial coefficients along a flow."""
    return max(charpoly_drifts(L_fn(z) for z in traj), default=0.0)


def matrix_fn_from_fields(entry_fields):
    """Phase-point callable giving the entry values as nested row lists, from
    one tape of all the entries."""
    tape = Tape([e for row in entry_fields for e in row])
    m = len(entry_fields[0]) if entry_fields else 0

    def at(z):
        vals = tape(z)
        return [vals[i:i + m] for i in range(0, len(vals), m)]
    return at


def trace_powers(mat, powers):
    """[tr M^k for k in powers] of a square matrix given as row lists, from
    one running product M^k = M^(k-1) M, of which the last power builds
    only its diagonal.  An entry of a product is ``sum(map(mul, row,
    col))`` over a column of M, which folds from the int 0.  The entries may
    be numbers or fields; on fields each trace is a field (``Prod`` and
    ``NSum`` nodes)."""
    m = len(mat)
    cols = list(zip(*mat))
    last = max(powers, default=0)
    out, traces = mat, {}
    for k in range(1, last + 1):
        if k == 1:
            diag = [mat[i][i] for i in range(m)]
        elif k < last:
            out = [[sum(map(mul, row, col)) for col in cols] for row in out]
            diag = [out[i][i] for i in range(m)]
        else:
            diag = [sum(map(mul, out[i], cols[i])) for i in range(m)]
        tr = diag[0]
        for i in range(1, m):
            tr = tr + diag[i]
        traces[k] = tr
    return [traces[k] for k in powers]


def spectral_invariants(entry_fields, powers, points):
    """Per point, ([tr L^k for k in powers], characteristic-polynomial drift
    from the first point), from one evaluation of the matrix L per point."""
    at = matrix_fn_from_fields(entry_fields)
    mats = [at(z) for z in points]
    return [(trace_powers(mat, powers), drift)
            for mat, drift in zip(mats, charpoly_drifts(mats))]


def rng_for(seed, tag):
    """Deterministic child RNG for a named check."""
    return random.Random(f"{seed}:{tag}")
