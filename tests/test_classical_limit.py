"""The classical limit is c = 0 in the difference modules and t = 0 in the
differential ones: no builder or operator constructor takes a flavor flag,
each flow builds the quantum H and L at that zero, and only
``suites.classical_flow_setup`` reads them on phase space, so the classical
fields do not depend on c or t."""

import ast
import inspect

import pytest

from laxkit import ellcm, ellrel, koorn, opcore, rational, trig
from laxkit.dual import value
from laxkit.special import DIFFERENCE_REGIMES
from laxkit.suites import SYSTEMS, RunConfig, classical_flow_setup, default_params
from laxkit.weyl import build_root_system
import identities


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


def test_no_system_module_reads_the_classical_symbol():
    # the classical reading lives in suites.classical_flow_setup alone
    calls = []
    for module in (trig, koorn, ellrel, ellcm, rational):
        tree = ast.parse(inspect.getsource(module))
        calls += [f"{module.__name__}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "phase_field"]
    assert not calls


def _values(fields, z):
    """Values at the phase point z of a field or a (nested) list of them."""
    if isinstance(fields, list):
        return [_values(f, z) for f in fields]
    return value(fields(z))


@pytest.mark.parametrize("system", [s for s in SYSTEMS if SYSTEMS[s].flow])
def test_flow_reads_its_operators_at_the_classical_point(system):
    # the step constant c (difference systems) or Planck constant t
    # (differential ones) that the quantum suite reads leaves the flow as it is
    key = "c" if SYSTEMS[system].regime in DIFFERENCE_REGIMES else "t"
    params = default_params(system)
    assert params[key] != 0
    moved = dict(params, **{key: 1.7 * params[key]})
    H, L, _n, _powers, z = classical_flow_setup(RunConfig(system, 2, params))
    H2, L2, _n, _powers, z2 = classical_flow_setup(RunConfig(system, 2, moved))
    assert z == z2
    assert _values([H, L], z) == _values([H2, L2], z)


def _flow(system, part):
    """Reader of the flow's H (part 0) or L (part 1) phase fields."""
    return lambda params, n: classical_flow_setup(RunConfig(system, n, params))[part]


# Each row is named for the classical field it checks, as the former
# per-system entry point that gave it was named.
ENTRY_POINTS = [
    ("trig.classical_lax_gln", "trig-gln", _flow("trig-gln", 1), 3,
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
    ("trig.classical_mr_hamiltonian", "trig-gln", _flow("trig-gln", 0), 3,
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
    ("koorn.classical_pq", "koornwinder", _flow("koornwinder", 1), 2,
     (0.4, -0.25, 0.1, -0.3)),
    ("koorn.classical_hamiltonian_ccn", "koornwinder", _flow("koornwinder", 0), 2,
     (0.4, -0.25, 0.1, -0.3)),
    ("ellrel.vd_classical_fields", "vandiejen", _flow("vandiejen", 1), 2,
     (0.19, 0.33, 0.015, -0.015)),
    ("ellrel.vd_classical_hamiltonian", "vandiejen", _flow("vandiejen", 0), 2,
     (0.19, 0.33, 0.015, -0.015)),
]


@pytest.mark.parametrize("name,system,read,n,z", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_classical_entry_points_build_at_c_zero(name, system, read, n, z):
    params = default_params(system)
    assert params["c"] != 0
    got = _values(read(params, n), z)
    ref = _values(read(dict(params, c=0.0), n), z)
    assert got == ref, name


def _rational_lax(params, n):
    """The rational-A flow's L and the classical A-partner of it."""
    cfg = rational.RationalDunklConfig(build_root_system("A", n), t=params["t"],
                                       c_short=params["c"])
    return [_flow("rational-A", 1)(params, n),
            identities.classical_a_matrix(cfg).phase_field()]


DIFFERENTIAL_ENTRY_POINTS = [
    ("rational.classical_lax", "rational-A", _rational_lax, 3,
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
    ("rational.classical_hamiltonian", "rational-A", _flow("rational-A", 0), 3,
     (0.4, -0.2, 0.7, 0.1, 0.3, -0.2)),
]


@pytest.mark.parametrize("name,system,read,n,z", DIFFERENTIAL_ENTRY_POINTS,
                         ids=[e[0] for e in DIFFERENTIAL_ENTRY_POINTS])
def test_differential_entry_points_build_at_t_zero(name, system, read, n, z):
    params = default_params(system)
    assert params["t"] != 0
    got = _values(read(params, n), z)
    ref = _values(read(dict(params, t=0.0), n), z)
    assert got == ref, name
