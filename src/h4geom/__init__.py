"""Exact-arithmetic geometry of the 600-cell, its E8 embeddings, and the
induced F4 structure on E8/2E8.

The exports below are resolved on first use (PEP 562), so `import h4geom`
loads none of the submodules until one of their names is read."""

from importlib import import_module

__version__ = "0.1.0"

# Each export and the submodule that defines it.
_EXPORTS = {
    "PHI": "golden",
    "PHI_INV": "golden",
    "ReductionMap": "golden",
    "phi_pow": "golden",
    "ICOSIAN_ONE": "icosian",
    "generate_vertices": "icosian",
    "icosian_mul": "icosian",
    "quat_mul": "icosian",
    "Cell120": "polytopes",
    "Cell600": "polytopes",
    "the_600cell": "polytopes",
    "SymOp": "symmetry",
    "generate_group": "symmetry",
    "left_mul": "symmetry",
    "reflection": "symmetry",
    "right_mul": "symmetry",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
