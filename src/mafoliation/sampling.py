"""Seeded point sampling and grids for scans.

The sampling measure is uniform on the real 2n-cube [-r, r]^{2n} identified
with C^n via interleaved (re, im) pairs; points with rho below a floor are
rejected. Identical seeds reproduce identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thresholds import RHO_FLOOR

DEFAULT_BOX = 1.5
MAX_SAMPLE_BATCHES = 1000  # sample_domain gives up after this many rejected-sample batches
# 65 times the default --samples. analyze and suite hold every sample's jet,
# spectrum and strata at once: about 1.3 KB per sample on ball3 (n = 3) and
# 6.6 KB on the generated normsq_n8 (n = 8), so 2^16 samples peak near 130 MiB
# and 470 MiB RSS, where --samples 200,000 reached 305 MiB at n = 3
MAX_SAMPLES = 2**16
# 4x the largest grid the README, tests and benchmark use (8 per axis on C^3).
# The grid is streamed (GRID_CHUNK_ROWS), so this bounds time, not memory: a
# burns check of 2^20 points takes 1-5 s for n = 1..5 (6 s with --csv at
# n = 2) and peaks under 50 MiB RSS on a 2-core x86-64 box
MAX_GRID_POINTS = 2**20
# points per real_grid chunk. On the burns grids of the benchmark and the n = 6
# suite, peak RSS is 39-60 MiB at 2^12, 45-83 MiB at 2^13 and 57-126 MiB at
# 2^14 (157-290 MiB and 1.7 GB with whole-grid arrays); time gains stop at 2^12
GRID_CHUNK_ROWS = 2**12


def complex_from_reals(x):
    """Map (..., 2n) real coordinates to (..., n) complex (re, im interleaved)."""
    x = np.asarray(x, dtype=float)
    return x[..., 0::2] + 1j * x[..., 1::2]


def sample_box(dim, count, radius=DEFAULT_BOX, rng=None):
    """Uniform complex points in the 2n-cube, no domain filtering."""
    rng = np.random.default_rng(rng)
    return complex_from_reals(rng.uniform(-radius, radius, size=(count, 2 * dim)))


def sample_domain(p, count, radius=DEFAULT_BOX, rng=None, min_rho=RHO_FLOOR):
    """Rejection-sample `count` points with rho > min_rho.

    Deterministic for a given seed/generator state. Raises ValueError for
    count < 1 or count > MAX_SAMPLES.
    """
    if count < 1:
        raise ValueError(f"sample count must be at least 1, got {count} (--samples)")
    if count > MAX_SAMPLES:
        raise ValueError(
            f"sample count {count} exceeds the limit of {MAX_SAMPLES} samples; use fewer samples (--samples)"
        )
    rng = np.random.default_rng(rng)
    kept = []
    have = 0
    for _ in range(MAX_SAMPLE_BATCHES):
        batch = sample_box(p.dim, max(count, 64), radius, rng)
        good = batch[p.evaluate_many(batch).real > min_rho]
        if len(good):
            kept.append(good)
            have += len(good)
        if have >= count:
            break
    else:
        raise ValueError(
            f"could not collect {count} admissible samples in {MAX_SAMPLE_BATCHES} batches"
        )
    return np.concatenate(kept, axis=0)[:count]


@dataclass(frozen=True)
class RealGrid:
    """The per_axis**(2*dim) points of a uniform grid over the real 2n-cube,
    built on demand: iterating yields (M, dim) complex chunks of at most
    GRID_CHUNK_ROWS points, in the C order of meshgrid(indexing="ij")."""

    dim: int
    per_axis: int
    radius: float

    def __len__(self):
        return self.per_axis ** (2 * self.dim)

    def __iter__(self):
        axis = np.linspace(-self.radius, self.radius, self.per_axis)
        # real coordinate j of flat index i is its base-per_axis digit j
        place = self.per_axis ** np.arange(2 * self.dim - 1, -1, -1)
        count, step = len(self), GRID_CHUNK_ROWS
        for start in range(0, count, step):
            flat = np.arange(start, min(start + step, count))
            yield complex_from_reals(axis[flat[:, None] // place % self.per_axis])


def real_grid(dim, per_axis, radius=DEFAULT_BOX):
    """Uniform grid over the real 2n-cube: per_axis**(2*dim) complex points,
    as a RealGrid that yields them chunk by chunk.

    Raises ValueError below 2 points per axis or above MAX_GRID_POINTS points.
    """
    if per_axis < 2:
        raise ValueError(f"grid needs at least 2 points per axis, got {per_axis} (burns --grid-n)")
    count = per_axis ** (2 * dim)
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"grid of {per_axis}^{2 * dim} = {count} points exceeds the limit of "
            f"{MAX_GRID_POINTS} points; use fewer points per axis (burns --grid-n)"
        )
    return RealGrid(dim, per_axis, radius)
