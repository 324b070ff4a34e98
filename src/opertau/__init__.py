"""opertau: exact-arithmetic integrable-systems toolkit.

Microdifferential operators over truncated Laurent series, KdV hierarchy
flows, Miura opers and their gauge reductions, finite-window Sato
Grassmannians with tau functions, two-sided Toda correlators, affine Hecke
actions with q-wedges, and the Miura -> flag -> Grassmannian round trip.
Every scalar is an exact rational; every truncation is tracked.
"""

from .errors import OpertauError
from .series import (
    DualSeries,
    TruncSeries,
    tpoly,
)
from .times import TimesSeries
from .psido import (
    PsiDO,
    commutator,
    compose,
    nth_root,
    residue,
    split,
)
from .oper import (
    MatrixConnection,
    MiuraOper,
    ScalarOper,
    bidiagonal_matrix,
    companion_matrix,
    gauge_reduce,
    miura_transform,
    validate_oper,
)
from .kdv import (
    FlowIndex,
    conserved_density,
    lax_rhs,
    mkdv_intertwine_check,
    zs_residual,
)
from .fock import MayaState, clifford_apply, h_action
from .grass import (
    GrassPoint,
    hirota_residual,
    tau_determinant,
    tau_schur,
)
from .schur import h_complete, schur_polynomial
from .toda import toda_tau, toda_tau_bruteforce
from .dmodule import AnnihilatorOp, annihilator_basis
from .singular import VacuumModule, singular_vector_search
from .hecke import QPoly, TensorWindow, q_antisymmetrize, verify_relations
from .krichever import (
    AffineFlagPoint,
    SpectralRelation,
    bc_relation,
    dressing,
    flag_to_grass,
    krichever_point,
    main_theorem_check,
    miura_to_flag,
)
from .parser import parse_operator, print_operator

__version__ = "0.1.0"

__all__ = [
    "AffineFlagPoint",
    "AnnihilatorOp",
    "DualSeries",
    "FlowIndex",
    "GrassPoint",
    "MatrixConnection",
    "MayaState",
    "MiuraOper",
    "OpertauError",
    "PsiDO",
    "QPoly",
    "ScalarOper",
    "SpectralRelation",
    "TensorWindow",
    "TimesSeries",
    "TruncSeries",
    "VacuumModule",
    "annihilator_basis",
    "bc_relation",
    "bidiagonal_matrix",
    "clifford_apply",
    "commutator",
    "companion_matrix",
    "compose",
    "conserved_density",
    "dressing",
    "flag_to_grass",
    "gauge_reduce",
    "h_action",
    "h_complete",
    "hirota_residual",
    "krichever_point",
    "lax_rhs",
    "main_theorem_check",
    "miura_to_flag",
    "miura_transform",
    "mkdv_intertwine_check",
    "nth_root",
    "parse_operator",
    "print_operator",
    "q_antisymmetrize",
    "residue",
    "schur_polynomial",
    "singular_vector_search",
    "split",
    "tau_determinant",
    "tau_schur",
    "toda_tau",
    "toda_tau_bruteforce",
    "tpoly",
    "validate_oper",
    "verify_relations",
    "zs_residual",
]
