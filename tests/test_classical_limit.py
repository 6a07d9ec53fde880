"""The classical limit of the difference-operator modules is c = 0: no
builder takes a flavor flag, and the classical entry points set c = 0."""

import dataclasses
import inspect

import pytest

from laxkit import ellrel, koorn, trig
from laxkit.dual import value

TAU_ELL = 0.27 + 0.82j
G = (0.8 + 0.1j, -0.4 + 0.2j, 0.6 - 0.1j, 0.3 + 0.15j)
GB = (0.5 - 0.2j, 0.7 + 0.1j, -0.3 + 0.3j, 0.4 + 0j)


@pytest.mark.parametrize("module", [trig, koorn, ellrel])
def test_no_builder_takes_a_classical_flag(module):
    for name, fn in vars(module).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            continue
        assert "classical" not in inspect.signature(fn).parameters, name


def _values(obj, z):
    """Field values of a field or a (nested) list of fields at z."""
    if isinstance(obj, (list, tuple)):
        return [_values(o, z) for o in obj]
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
