"""laxkit: quantum and classical Lax pairs for Calogero-Moser and
Ruijsenaars-type systems, built from Dunkl and Cherednik operators, with a
numerical certification harness for every identity used along the way."""

__version__ = "0.1.0"

from .weyl import (AffineElement, AffineRoot, CosetTable, RootSystemData,
                   SignedPerm, build_root_system, orbit_stabilizer, reduced_word,
                   weyl_enumerate)
from .opcore import (DiffOp, DynOp, OperatorMatrix, WOp, make_probes,
                     restrict_to_matrix)
from .verify import (CheckResult, PointPolicy, VerificationReport,
                     hamiltonian_flow, isospectral_drift, op_residual,
                     poisson_bracket)

__all__ = [
    "AffineElement", "AffineRoot", "CosetTable", "RootSystemData", "SignedPerm",
    "build_root_system", "orbit_stabilizer", "reduced_word",
    "weyl_enumerate", "DiffOp", "DynOp", "OperatorMatrix", "WOp", "make_probes",
    "restrict_to_matrix", "CheckResult", "PointPolicy", "VerificationReport",
    "hamiltonian_flow", "isospectral_drift", "op_residual", "poisson_bracket",
]
