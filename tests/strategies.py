"""Shared hypothesis strategies and random-tile builders for kernel tests.

The kernel test modules all property-test over the same axes — tile
edge ``b``, an RNG seed, and (for batched kernels) a tile count — and
all build inputs the same way, via ``np.random.default_rng(seed)``.
This module is the single home for those strategies and builders so the
per-kernel test files draw from identical distributions.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

#: Tile edges for single-tile kernel properties (GEQRT and friends).
tile_sizes = st.integers(min_value=1, max_value=20)

#: Smaller edge range for the pricier stacked-tile kernels (TSQRT).
small_tile_sizes = st.integers(min_value=1, max_value=12)

#: Tile edges for batched row-panel kernels.
batch_tile_sizes = st.integers(min_value=2, max_value=8)

#: How many tiles a batched row panel spans.
batch_widths = st.integers(min_value=1, max_value=5)

#: RNG seeds.  ``seeds`` keeps the shrunk examples small and readable;
#: ``wide_seeds`` covers the full 31-bit space for end-to-end sweeps.
seeds = st.integers(min_value=0, max_value=500)
wide_seeds = st.integers(min_value=0, max_value=2**31 - 1)

#: dtypes the kernels accept; float64 is the reference precision.
DTYPES = (np.float64, np.float32)


def make_rng(seed_or_rng) -> np.random.Generator:
    """Coerce a seed (or pass through a Generator) to an RNG."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_tile(seed_or_rng, shape, dtype=np.float64) -> np.ndarray:
    """A standard-normal tile of ``shape``, seeded or from a live RNG."""
    arr = make_rng(seed_or_rng).standard_normal(shape)
    return arr.astype(dtype) if arr.dtype != dtype else arr


def random_triangular(seed_or_rng, b, dtype=np.float64) -> np.ndarray:
    """An upper-triangular ``b x b`` tile, as TSQRT/TTQRT inputs expect."""
    return np.triu(random_tile(seed_or_rng, (b, b), dtype))


def _all_tree_names() -> list:
    from repro.dag.trees import tree_names

    return list(tree_names())


#: Every registered elimination tree, by canonical name.  Tests that
#: must hold for *any* within-panel annihilation order parametrize (or
#: draw) over this so a newly registered tree is covered automatically.
ALL_TREES = _all_tree_names()

#: Hypothesis strategy over canonical elimination-tree names.
trees = st.sampled_from(ALL_TREES)

#: Tile-grid shapes (p rows x q cols, p >= q) small enough for
#: closure-style DAG properties yet tall enough that flat / binary /
#: fibonacci / greedy panels genuinely differ.
grids = st.tuples(
    st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4)
).map(lambda pq: (max(pq), min(pq)))
