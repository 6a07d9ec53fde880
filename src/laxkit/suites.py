"""Named verification suites per system, used by the CLI front end.

Every suite is deterministic given (system, rank, params, seed): all
sampling goes through child RNGs keyed by the check name.  A perturbation
epsilon (the vacuousness control) multiplies one Lax entry by 1 + eps
before the Lax-equation check, which must then fail.
"""

from __future__ import annotations

from .fields import symmetrized
from .opcore import OperatorMatrix, WOp, integrals, make_probes, nan_as_inf
from .special import check_couplings, check_params
from .verify import (PointPolicy, residual_evalfn, rng_for, run_check,
                     scalar_check)
from .weyl import (ConfigError, build_root_system, ext_coord, orbit_stabilizer,
                   replace, weyl_enumerate)


class RunConfig:
    def __init__(self, system, rank=2, params=None, seed=0, perturb=0.0):
        min_rank = _system(system).min_rank
        if rank < min_rank:
            raise ConfigError(f"rank must be >= {min_rank} for system {system!r}")
        self.system, self.rank = system, rank
        self.params = {} if params is None else params
        self.seed, self.perturb = seed, perturb


def _system(name):
    if name not in SYSTEMS:
        raise ConfigError(f"unknown system {name!r}; known: {KNOWN_SYSTEMS}")
    return SYSTEMS[name]


def default_params(system):
    return {k: list(v) if isinstance(v, list) else v
            for k, v in _system(system).defaults.items()}


def _perturb_matrix(mat, eps):
    if eps:
        mat.entries[0][-1] = mat.entries[0][-1].scale(1.0 + eps)
    return mat


def _lax_check(name, L, A, H, probes, rng, policy, tol, points=6):
    m = L.m
    Hm = OperatorMatrix.diagonal(H, m)
    lhs = L * Hm - Hm * L
    rhs = A * L - L * A
    return run_check(name, tol, residual_evalfn(lhs, rhs, probes), rng,
                     policy, points)


def _quadratic_check(name, gens, taus, probes, rng, policy):
    """(T - tau)(T + 1/tau) = 0 for every generator T, reported as one check."""
    worst = 0.0
    for i, (T, tau) in enumerate(zip(gens, taus)):
        quad = (T - WOp.from_scalar(T.n, T.c, tau)) * \
               (T + WOp.from_scalar(T.n, T.c, 1 / tau))
        r = run_check(f"{name}-T{i}", 1e-9, residual_evalfn(quad, None, probes),
                      rng, policy)
        worst = max(worst, r.residual)
    return scalar_check(f"{name}-quadratic", 1e-9, worst)


def suite_rational(config: RunConfig, kind):
    from . import rational as rat
    n = config.rank
    p = config.params
    rs = build_root_system("A" if kind == "A" else "C", n)
    cfg = rat.RationalDunklConfig(rs, t=p["t"], c_short=p["c"],
                                  c_long=p.get("c_long"))
    policy = PointPolicy(n, -0.9, 0.9, 0.2)
    out = []
    rng = rng_for(config.seed, "dunkl-comm")
    probes = make_probes(n, 4, rng)
    ys = rat.dunkl_basis(cfg)
    out.append(run_check("dunkl-commutativity", 1e-9,
                         residual_evalfn(ys[0] * ys[1], ys[1] * ys[0], probes),
                         rng, policy))
    rng = rng_for(config.seed, "cmo")
    probes = make_probes(n, 3, rng)
    _qy, L_q, A_hat = rat.cm_split(cfg)
    out.append(run_check("collapse-vs-explicit", 1e-9,
                         residual_evalfn(L_q, rat.cm_hamiltonian_explicit(cfg), probes),
                         rng, policy))
    W = weyl_enumerate(rs)
    sp = symmetrized(probes[0], W)
    out.append(run_check("Ahat-annihilates-e", 1e-9,
                         residual_evalfn(A_hat, None, [sp]), rng, policy))
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 3, rng)
    lax = rat.lax_pair_rational(cfg)
    Lm = _perturb_matrix(lax.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, lax.A, lax.H, probes, rng, policy, 1e-9))
    if kind == "A":
        rng = rng_for(config.seed, "qlp")
        probes = make_probes(n, 2, rng)
        Lref, Aref = rat.qlp_reference_matrices(cfg, lax.tbl)
        out.append(run_check("L-matches-qlp", 1e-10,
                             residual_evalfn(lax.L, Lref, probes), rng, policy))
        rng = rng_for(config.seed, "kks")
        lhs, rhs = rat.kks_matrices(cfg, lax.tbl)
        out.append(run_check("kks-relation", 1e-10,
                             residual_evalfn(lhs, rhs, probes), rng, policy))
    rng = rng_for(config.seed, "integrals")
    probes = make_probes(n, 2, rng)
    ints = integrals(lax.L, 2)
    out.append(run_check("integrals-commute", 1e-8,
                         residual_evalfn(ints[1] * lax.H, lax.H * ints[1], probes),
                         rng, policy))
    return out


def suite_trig(config: RunConfig):
    from . import trig
    n = config.rank
    p = config.params
    cfg = trig.TrigGLConfig(n=n, tau=p["tau"], c=p["c"])
    policy = PointPolicy(n, -0.9, 0.9, 0.15)
    out = []
    rng = rng_for(config.seed, "hecke")
    probes = make_probes(n, 3, rng)
    rs = build_root_system("A", n)
    Ts = trig.basic_rep(rs, cfg.c, cfg.tau)
    out.append(_quadratic_check("hecke", Ts, [cfg.tau] * len(Ts), probes, rng,
                                policy))
    rng = rng_for(config.seed, "ycomm")
    probes = make_probes(n, 2, rng)
    Y1 = trig.cherednik_gln(cfg, 1)
    Y2 = trig.cherednik_gln(cfg, 2) if n >= 2 else WOp.one(n, cfg.c)
    out.append(run_check("cherednik-commute", 1e-9,
                         residual_evalfn(Y1 * Y2, Y2 * Y1, probes), rng, policy))
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 2, rng)
    lax = trig.lax_trig_gln(cfg)
    Ltab, Atab = trig.lax_tables(cfg)
    out.append(run_check("L-matches-table", 1e-9,
                         residual_evalfn(lax.L, Ltab, probes), rng, policy))
    Lm = _perturb_matrix(lax.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, lax.A, lax.H, probes, rng, policy, 1e-9))
    rng = rng_for(config.seed, "integrals")
    probes = make_probes(n, 2, rng)
    ints = integrals(lax.L, 2, trig.phi_vector(cfg))
    out.append(run_check("integrals-commute", 1e-8,
                         residual_evalfn(ints[1] * lax.H, lax.H * ints[1], probes),
                         rng, policy))
    return out


def suite_koorn(config: RunConfig):
    from . import ellrel, koorn
    n = config.rank
    p = config.params
    pp = koorn.CCnParams(n=n, tau0=p["tau0"], tau0v=p["tau0v"], taun=p["taun"],
                         taunv=p["taunv"], tau=p["tau"], c=p["c"])
    policy = PointPolicy(n, -0.9, 0.9, 0.12)
    out = []
    rng = rng_for(config.seed, "noumi")
    probes = make_probes(n, 3, rng)
    out.append(_quadratic_check("noumi", koorn.noumi_rep(pp), pp.taus(), probes,
                                rng, policy))
    rng = rng_for(config.seed, "y1")
    probes = make_probes(n, 2, rng)
    Y1 = ellrel.y_elliptic(pp, ext_coord(n, 0))
    out.append(run_check("y1-product-forms", 1e-9,
                         residual_evalfn(koorn.y_operator(pp, 1), Y1, probes),
                         rng, policy))
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 2, rng)
    lax = koorn.koornwinder_lax(pp)
    out.append(run_check("PQ-matches-restriction", 1e-8,
                         residual_evalfn(lax.L, Y1.restrict(lax.tbl), probes),
                         rng, policy))
    Lm = _perturb_matrix(lax.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, lax.A, lax.H, probes, rng, policy, 1e-8))
    rng = rng_for(config.seed, "integrals")
    probes = make_probes(n, 2, rng)
    ints = integrals(lax.L, 1, koorn.phi_vector_ccn(pp))
    out.append(run_check("integrals-commute", 1e-8,
                         residual_evalfn(ints[0] * lax.H, lax.H * ints[0], probes),
                         rng, policy, npoints=5))
    return out


def suite_ellcm(config: RunConfig, bc=False):
    from . import ellcm
    n = config.rank
    p = config.params
    policy = PointPolicy(n, -0.35, 0.35, 0.05)
    out = []
    rng = rng_for(config.seed, "comm")
    probes = make_probes(n, 2, rng)
    rs = build_root_system("C" if bc else "A", n)
    lam = tuple(complex(0.2 + 0.03 * i, 0.02) for i in range(n))
    cfg = ellcm.EllipticDunklConfig(rs, p["t"], p["c"], p["tau"], lam,
                                    g=tuple(p["g"]) if bc else None)
    if n >= 2:
        y0 = ellcm.elliptic_dunkl(cfg, 0)
        y1 = ellcm.elliptic_dunkl(cfg, 1)
        out.append(run_check("elliptic-dunkl-commute", 1e-9,
                             residual_evalfn(y0 * y1, y1 * y0, probes), rng, policy,
                             npoints=5))
    rng = rng_for(config.seed, "split")
    probes = make_probes(n, 2, rng)
    HA = ellcm.split_hamiltonian(cfg) + ellcm.split_a_operator(cfg)
    out.append(run_check("quadratic-split", 1e-9,
                         residual_evalfn(ellcm.dual_substitution(cfg), HA, probes),
                         rng, policy, npoints=5))
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 2, rng)
    if bc:
        lax = ellcm.lax_inozemtsev(n, p["t"], p["c"], tuple(p["g"]), p["mu"], p["tau"])
        Ltab, Atab = ellcm.inozemtsev_tables(n, p["t"], p["c"], tuple(p["g"]),
                                             p["mu"], p["tau"])
    else:
        lax = ellcm.lax_elliptic_A(n, p["t"], p["c"], p["mu"], p["tau"])
        Ltab, Atab = ellcm.ael_tables(n, p["t"], p["c"], p["mu"], p["tau"])
    out.append(run_check("L-matches-table", 1e-9,
                         residual_evalfn(lax.L, Ltab, probes), rng, policy,
                         npoints=4))
    Lm = _perturb_matrix(lax.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, lax.A, lax.H, probes, rng, policy,
                          1e-8, points=4))
    return out


def suite_ruijsenaars(config: RunConfig):
    from . import ellrel
    n = config.rank
    p = config.params
    policy = PointPolicy(n, -0.35, 0.35, 0.05)
    out = []
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 2, rng)
    pg = ellrel.ruijsenaars_params(n, p["mu"], p["eta"], p["c"], p["tau"])
    lax = ellrel.lax_elliptic_ruijsenaars(pg)
    Ltab, Atab = ellrel.ruijsenaars_lax_tables(pg)
    out.append(run_check("L-matches-table", 1e-9,
                         residual_evalfn(lax.L, Ltab, probes), rng, policy,
                         npoints=4))
    out.append(run_check("nsel-closed-form", 1e-9,
                         residual_evalfn(ellrel.nsel_closed_y1(pg).restrict(lax.tbl),
                                            lax.L, probes), rng, policy, npoints=4))
    Lm = _perturb_matrix(lax.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, lax.A, lax.H, probes, rng, policy,
                          1e-7, points=4))
    return out


def suite_vandiejen(config: RunConfig):
    from . import ellrel
    n = config.rank
    p = config.params
    pv = ellrel.VDParams(n, p["mu"], p["nu"], p["nub"], tuple(p["g"]),
                         tuple(p["gb"]), p["c"], p["tau"])
    policy = PointPolicy(n, -0.35, 0.35, 0.05)
    out = []
    rng = rng_for(config.seed, "clb")
    probes = make_probes(n, 2, rng)
    Y1 = ellrel.y_elliptic(replace(pv, xi=pv.xi0()), ext_coord(n, 0))
    out.append(run_check("collapse-matches-hamiltonian", 1e-8,
                         residual_evalfn(Y1.collapse(), ellrel.vd_hamiltonian(pv), probes),
                         rng, policy, npoints=5))
    rng = rng_for(config.seed, "lax")
    probes = make_probes(n, 2, rng)
    eta = p["eta"]
    laxv = ellrel.lax_vandiejen(pv, eta)
    Y1s = ellrel.y_elliptic(replace(pv, xi=pv.xi_spec(eta)), ext_coord(n, 0))
    out.append(run_check("PQ-matches-restriction", 1e-7,
                         residual_evalfn(laxv.L, Y1s.restrict(laxv.tbl), probes),
                         rng, policy, npoints=4))
    Lm = _perturb_matrix(laxv.L, config.perturb)
    out.append(_lax_check("lax-equation", Lm, laxv.A, laxv.H, probes, rng, policy,
                          1e-7, points=4))
    rng = rng_for(config.seed, "residues")
    rep = ellrel.residue_conditions(pv, rng=rng)
    worst = max((nan_as_inf(-e) for (_l, e, _ok) in rep), default=0.0)
    out.append(scalar_check("residue-exponents", ellrel.RESIDUE_MAX_EXPONENT, worst))
    return out


def _checked(rule, *args):
    """Apply a parameter rule of ``special``; its ``ValueError`` is a
    ``ConfigError``."""
    try:
        rule(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def check_suite(config: RunConfig):
    """``ConfigError`` unless the parameters suit the system's coupling
    regime (``special.check_couplings``); checked before ``build_suite``."""
    _checked(check_couplings, SYSTEMS[config.system].regime, config.params)


def build_suite(config: RunConfig):
    """The check results of the system's suite, at parameters that passed
    ``check_suite``."""
    return SYSTEMS[config.system].suite(config)


# -- classical flows for the CSV front end ----------------------------------

def _z0(xs, p0):
    """Initial phase point: positions xs, alternating momenta +-p0."""
    return tuple(xs) + tuple(p0 * ((-1) ** i) for i in range(len(xs)))


def _flow_rational(p, n):
    from . import rational as rat
    cfg = rat.RationalDunklConfig(build_root_system("A", n), t=0.0, c_short=p["c"])
    xi = ext_coord(n, 0)
    _qy, H, _A_hat = rat.cm_split(cfg, ((0.5, 2),))
    L = rat.dunkl(cfg, xi).restrict(orbit_stabilizer(cfg.rs, xi))
    return H, L, (1, 2, 3, 4), _z0([0.45 * i - 0.4 for i in range(n)], 0.1)


def _flow_trig(p, n):
    from . import trig
    cfg = trig.TrigGLConfig(n=n, tau=abs(p["tau"]), c=0.0)
    return (trig.mr_operator(cfg), trig.lax_tables(cfg)[0], (1, 2, 3, 4),
            _z0([0.5 * i - 0.4 for i in range(n)], 0.08))


def _flow_inozemtsev(p, n):
    from . import ellcm
    g = tuple(complex(0, v.imag * 0.15) for v in p["g"])
    rs = build_root_system("C", n)
    cfg = ellcm.EllipticDunklConfig(rs, 0.0, complex(0, p["c"].imag * 0.12),
                                    complex(0, p["tau"].imag),
                                    (p["mu"].real or 0.24,) + (0,) * (n - 1), g=g)
    L = ellcm.elliptic_dunkl(cfg, 0).restrict(orbit_stabilizer(rs, ext_coord(n, 0)))
    return (ellcm.split_hamiltonian(cfg), L, (2, 4),
            _z0([0.2 + 0.15 * i for i in range(n)], 0.012))


def _flow_koorn(p, n):
    from . import koorn
    pc = koorn.CCnParams(n=n, tau0=abs(p["tau0"]), tau0v=abs(p["tau0v"]),
                         taun=abs(p["taun"]), taunv=abs(p["taunv"]),
                         tau=abs(p["tau"]), c=0.0)
    H, _fY = koorn.koornwinder_hamiltonian(pc)
    return (H, koorn.p_matrix(pc) * koorn.q_matrix(pc), (2, 4),
            _z0([0.4 + 0.35 * i - 1.0 for i in range(n)], 0.1))


def _flow_vandiejen(p, n):
    from . import ellrel
    pr = ellrel.VDParams(n, abs(p["mu"]), abs(p["nu"]), abs(p["nub"]),
                         tuple(abs(v) * 0.5 for v in p["g"]),
                         tuple(abs(v) * 0.5 for v in p["gb"]), 0.0,
                         complex(0, p["tau"].imag))
    eta = abs(p["eta"])
    return (ellrel.vd_hamiltonian(pr),
            ellrel.vd_p_matrix(pr, eta) * ellrel.vd_q_matrix(pr, eta), (2, 4),
            _z0([0.19 + 0.14 * i for i in range(n)], 0.015))


def classical_flow_setup(config: RunConfig):
    """(H phase field, L entry phase fields, n, trace powers, z0) for flow
    runs: each flow builds the quantum H and L at the classical point (c = 0
    or t = 0), and this is where they are read on phase space.  The
    parameters must make the regime's kernels (``special.check_params``);
    the regime's c/t rule is the suites', since a flow sets its own
    classical point."""
    system = SYSTEMS[config.system]
    if system.flow is None:
        raise ConfigError(f"no classical flow for system {config.system!r}")
    _checked(check_params, system.regime, config.params)
    H, L, powers, z0 = system.flow(config.params, config.rank)
    return H.phase_field(), L.phase_field(), config.rank, powers, z0


# -- the system registry ------------------------------------------------------

class System:
    """Registry entry: default parameters, the verification suite (a callable
    on RunConfig), for systems with a classical flow its set-up, the
    smallest rank the suite and flow can run at, and the coupling regime
    (``special.REGIMES``; the suites of difference regimes need c != 0, those
    of differential regimes t != 0)."""

    def __init__(self, defaults, suite, flow=None, min_rank=1, *, regime):
        self.defaults, self.suite, self.flow = defaults, suite, flow
        self.min_rank, self.regime = min_rank, regime


SYSTEMS = {
    "rational-A": System({"t": -0.7j, "c": 1.3j},
                         lambda config: suite_rational(config, "A"),
                         _flow_rational, min_rank=2, regime="rational"),
    "rational-C": System({"t": -0.7j, "c": 1.3j, "c_long": 0.9j},
                         lambda config: suite_rational(config, "C"), min_rank=2,
                         regime="rational"),
    "trig-gln": System({"tau": 1.4 + 0.2j, "c": 0.31 + 0.11j}, suite_trig,
                       _flow_trig, min_rank=2, regime="trig"),
    "koornwinder": System({"tau0": 1.2 + 0.1j, "tau0v": 0.8 - 0.05j,
                           "taun": 1.5 + 0.2j, "taunv": 0.7 + 0.1j,
                           "tau": 1.3 - 0.15j, "c": 0.23 + 0.07j},
                          suite_koorn, _flow_koorn, regime="trig-CvC"),
    "ell-cm-A": System({"t": -0.7j, "c": 1.3j, "tau": 0.31 + 0.84j,
                        "mu": 0.27 + 0.04j},
                       lambda config: suite_ellcm(config, bc=False),
                       regime="elliptic-CM"),
    "inozemtsev": System({"t": -0.7j, "c": 1.3j, "tau": 0.31 + 0.84j,
                          "mu": 0.22 + 0.03j, "g": [0.8j, -0.4j, 0.6j, 0.3j]},
                         lambda config: suite_ellcm(config, bc=True),
                         _flow_inozemtsev, regime="elliptic-CM"),
    "ell-ruijsenaars": System({"mu": 0.29 + 0.07j, "eta": 0.41 - 0.06j,
                               "c": 0.19 + 0.05j, "tau": 0.27 + 0.82j},
                              suite_ruijsenaars, min_rank=2, regime="elliptic-A"),
    "vandiejen": System({"mu": 0.23 + 0.06j, "nu": 0.31 - 0.02j,
                         "nub": 0.27 + 0.05j,
                         "g": [0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j],
                         "gb": [0.5 - 0.2j, 0.7 + 0.1j, -0.3 + 0.3j, 0.4 + 0j],
                         "c": 0.19 + 0.05j, "tau": 0.27 + 0.82j,
                         "eta": 0.37 - 0.04j},
                        suite_vandiejen, _flow_vandiejen, regime="elliptic-CvC"),
}
KNOWN_SYSTEMS = tuple(SYSTEMS)
