"""Dirichlet eigenvalues of unit-volume boxes by exact lattice counting,
counting-identity and inequality verification, and eigenvalue-minimising
box search."""

from .bounds import (
    BoundQuery,
    BoundReport,
    a1_lower_bound,
    cube_eigenvalue_bound,
    lemma31_rhs,
    lemma32_rhs,
    lemma41_rhs,
    lemma_sum,
    polya_lower_bound,
)
from .lattice import (
    CountBundle,
    count_bundle,
    count_bundles,
    count_full,
    count_plane,
    divisor_count,
    gauss_sphere_count,
    r2,
    r2_batch,
    r3,
)
from .spectrum import (
    Cuboid,
    ResourceLimitError,
    SpectralPoint,
    UNIT_CUBE,
    count_upto,
    counts_upto,
    cube_spectrum_table,
    eigenvalue_of_index,
    kth_eigenvalue,
    kth_eigenvalues,
    spectrum_points,
)

__version__ = "0.1.0"

# The optimiser's names import eigenbox.optimize on first use, so that a
# program that never optimises neither compiles nor loads it.
_OPTIMIZE_NAMES = (
    "InsufficientSpanError",
    "OptimalRecord",
    "OptimizerConfig",
    "optimize_k",
    "rate_fit",
    "sweep",
)


def __getattr__(name: str):
    if name in _OPTIMIZE_NAMES:
        from . import optimize

        return getattr(optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_OPTIMIZE_NAMES})
