"""The classical limit is c = 0 in the difference modules and t = 0 in the
differential ones: no builder or operator constructor takes a flavor flag,
and the classical entry points build at that zero."""

import dataclasses
import inspect

import pytest

from laxkit import ellcm, ellrel, koorn, opcore, rational, trig
from laxkit.dual import value
from laxkit.weyl import build_root_system

TAU_ELL = 0.27 + 0.82j
G = (0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j)
GB = (0.5 - 0.2j, 0.7 + 0.1j, -0.3 + 0.3j, 0.4 + 0j)


def _functions(module):
    """(name, function) for the module's functions and its classes' methods."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("module", [trig, koorn, ellrel, rational, ellcm, opcore])
def test_no_builder_takes_a_classical_flag(module):
    functions = list(_functions(module))
    assert functions
    for name, fn in functions:
        assert "classical" not in inspect.signature(fn).parameters, name


def _values(obj, z):
    """Values at the phase point z of a field, of an operator (its symbol
    per group component) or of a (nested) list of them."""
    if isinstance(obj, (list, tuple)):
        return [_values(o, z) for o in obj]
    if isinstance(obj, opcore.DiffOp):
        x, p = z[:obj.n], z[obj.n:]
        return {w: obj.symbol_component(w, x, p) for (w, _m) in obj.terms}
    return value(obj(z))


ENTRY_POINTS = [
    ("trig.classical_lax_gln", trig.classical_lax_gln,
     trig.TrigGLConfig(n=3, tau=1.4 + 0.2j, c=0.31 + 0.11j), (),
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
    ("trig.classical_mr_hamiltonian", trig.classical_mr_hamiltonian,
     trig.TrigGLConfig(n=3, tau=1.4 + 0.2j, c=0.31 + 0.11j), (),
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
    ("koorn.classical_pq", koorn.classical_pq,
     koorn.CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                     taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j), (),
     (0.4, -0.25, 0.1, -0.3)),
    ("koorn.classical_hamiltonian_ccn", koorn.classical_hamiltonian_ccn,
     koorn.CCnParams(n=2, tau0=1.2 + 0.1j, tau0v=0.8 - 0.05j, taun=1.5 + 0.2j,
                     taunv=0.7 + 0.1j, tau=1.3 - 0.15j, c=0.23 + 0.07j), (),
     (0.4, -0.25, 0.1, -0.3)),
    ("ellrel.vd_classical_fields", ellrel.vd_classical_fields,
     ellrel.VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G, GB,
                     0.19 + 0.05j, TAU_ELL), (0.37,),
     (0.19, 0.33, 0.015, -0.015)),
    ("ellrel.vd_classical_hamiltonian", ellrel.vd_classical_hamiltonian,
     ellrel.VDParams(2, 0.23 + 0.06j, 0.31 - 0.02j, 0.27 + 0.05j, G, GB,
                     0.19 + 0.05j, TAU_ELL), (),
     (0.19, 0.33, 0.015, -0.015)),
]


@pytest.mark.parametrize("name,entry,params,args,z", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_classical_entry_points_build_at_c_zero(name, entry, params, args, z):
    assert params.c != 0
    got = _values(entry(params, *args), z)
    ref = _values(entry(dataclasses.replace(params, c=0.0), *args), z)
    assert got == ref, name


RATIONAL = rational.RationalDunklConfig(build_root_system("A", 3), t=-0.7j,
                                        c_short=1.3j)
ELL_A = ellcm.EllipticDunklConfig(build_root_system("A", 3), -0.7j, 1.3j,
                                  0.31 + 0.84j,
                                  (0.23 + 0.05j, -0.31 + 0.02j, 0.12 - 0.04j))
ELL_BC = ellcm.EllipticDunklConfig(build_root_system("C", 2), -0.7j, 1.3j,
                                   0.31 + 0.84j, (0.21 + 0.03j, -0.17 + 0.06j),
                                   g=(0.8j, -0.4j, 0.6j, 0.3j))
Z3 = (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)
Z2 = (0.19, 0.37, 0.21, -0.13)

DIFFERENTIAL_ENTRY_POINTS = [
    ("rational.classical_lax", lambda cfg: rational.classical_lax(cfg)[1:],
     RATIONAL, Z3),
    ("rational.classical_hamiltonian", rational.classical_hamiltonian, RATIONAL, Z3),
    ("ellcm.classical_cm_phase_field[A]", ellcm.classical_cm_phase_field, ELL_A, Z3),
    ("ellcm.classical_cm_phase_field[BC]", ellcm.classical_cm_phase_field, ELL_BC, Z2),
    ("ellcm.classical_dual_substitution[A]", ellcm.classical_dual_substitution,
     ELL_A, Z3),
    ("ellcm.classical_dual_substitution[BC]", ellcm.classical_dual_substitution,
     ELL_BC, Z2),
]


@pytest.mark.parametrize("name,entry,cfg,z", DIFFERENTIAL_ENTRY_POINTS,
                         ids=[e[0] for e in DIFFERENTIAL_ENTRY_POINTS])
def test_differential_entry_points_build_at_t_zero(name, entry, cfg, z):
    assert cfg.t != 0
    got = _values(entry(cfg), z)
    ref = _values(entry(dataclasses.replace(cfg, t=0.0)), z)
    assert got == ref, name
