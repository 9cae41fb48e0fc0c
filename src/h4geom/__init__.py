"""Exact-arithmetic geometry of the 600-cell, its E8 embeddings, and the
induced F4 structure on E8/2E8."""

from .golden import (
    GoldenInt,
    PHI,
    PHI_INV,
    ReductionMap,
    golden_sign,
    phi_pow,
)
from .icosian import (
    ICOSIAN_ONE,
    IcosianVec,
    element_order,
    find_order5,
    generate_vertices,
    icosian_mul,
    quat_mul,
)
from .polytopes import Cell120, Cell600, the_600cell
from .symmetry import SymOp, generate_group, left_mul, reflection, right_mul

__version__ = "0.1.0"

__all__ = [
    "GoldenInt",
    "PHI",
    "PHI_INV",
    "ReductionMap",
    "golden_sign",
    "phi_pow",
    "ICOSIAN_ONE",
    "IcosianVec",
    "element_order",
    "find_order5",
    "generate_vertices",
    "icosian_mul",
    "quat_mul",
    "Cell120",
    "Cell600",
    "the_600cell",
    "SymOp",
    "generate_group",
    "left_mul",
    "reflection",
    "right_mul",
    "__version__",
]
