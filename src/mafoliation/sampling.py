"""Seeded point sampling and grids for scans.

The sampling measure is uniform on the real 2n-cube [-r, r]^{2n} identified
with C^n via interleaved (re, im) pairs, read as complex without arithmetic;
points with rho below a floor are rejected. Identical seeds give identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .thresholds import RHO_FLOOR

DEFAULT_BOX = 1.5
MAX_SAMPLE_BATCHES = 1000  # sample_domain gives up after this many rejected-sample batches
# 65 times the default --samples. analyze and suite scan the samples in
# blocks of the jet evaluator's rows (one table of potential.TABLE_BLOCK_BYTES
# each) and keep whole only the samples and four per-sample vectors, 16n + 32
# bytes a sample; sample_domain's rho over
# one batch of 2^16 points is taken a table block at a time too. With one
# BLAS thread on a shared 2-core x86-64 box, analyze of 2^16 samples peaks at
# 47 MB VmHWM in 0.7 s on ball3 (n = 3) and at 62 MB on the generated
# normsq_n8 (n = 8), where a whole table of that batch took 85 MB
MAX_SAMPLES = 2**16
# 4x the largest grid the README, tests and benchmark use (8 per axis on C^3).
# The grid is streamed (GRID_CHUNK_ROWS), so this bounds time, not memory: in a
# fresh process a burns check of 2^20 points (10^6 at n = 3, 5^8 at n = 4)
# takes 0.5-3 s for n = 1..5 (3.5-4.6 s with --csv at n = 2) and peaks at
# 32-36 MiB RSS on a shared 2-core x86-64 box
MAX_GRID_POINTS = 2**20
# points per real_grid chunk. In a fresh process per benchmark grid operation
# (tools/fault_probe.py, a 2-core x86-64 box), 2^11 takes 250-10,400 minor
# faults and peaks at 40-62 MiB. With the same table budget 2^12 took 860-7,000
# and 41-66 MiB, 2^13 2,000-26,200 and 45-67 MiB, and 2^10 up to 20,800 (ball3):
# a chunk whose transients top the heap's trim threshold hands the heap back
# to the kernel and faults it in again on every chunk, and smaller chunks do
# not always stay below it
GRID_CHUNK_ROWS = 2**11


class SamplingError(ValueError):
    """sample_domain found too few points with rho > min_rho in its batches."""


def complex_from_reals(x):
    """Map (..., 2n) real coordinates to (..., n) complex (re, im interleaved):
    the complex view of x as a C-contiguous float array, with no arithmetic."""
    return np.ascontiguousarray(x, dtype=float).view(complex)


def sample_domain(p, count, radius=DEFAULT_BOX, rng=None, min_rho=RHO_FLOOR):
    """Rejection-sample `count` points with rho > min_rho.

    Deterministic for a given seed/generator state. Raises ValueError for
    count < 1 or count > MAX_SAMPLES, and SamplingError if the batches fall short.
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
        batch = complex_from_reals(rng.uniform(-radius, radius, size=(max(count, 64), 2 * p.dim)))
        good = batch[p.evaluate_many(batch).real > min_rho]
        if len(good):
            kept.append(good)
            have += len(good)
        if have >= count:
            break
    else:
        raise SamplingError(
            f"could not collect {count} admissible samples in {MAX_SAMPLE_BATCHES} batches"
        )
    return np.concatenate(kept, axis=0)[:count]


@dataclass(frozen=True)
class RealGrid:
    """The per_axis**(2*dim) points of a uniform grid over the real 2n-cube,
    built on demand: iterating yields (M, dim) complex chunks of at most
    GRID_CHUNK_ROWS points in meshgrid(indexing="ij") order, real coordinate j
    of flat index i at i's base-per_axis digit j (np.unravel_index)."""

    dim: int
    per_axis: int
    radius: float

    def __len__(self):
        return self.per_axis ** (2 * self.dim)

    def __iter__(self):
        axis = np.linspace(-self.radius, self.radius, self.per_axis)
        shape = (self.per_axis,) * (2 * self.dim)
        count, step = len(self), GRID_CHUNK_ROWS
        for start in range(0, count, step):
            digits = np.unravel_index(np.arange(start, min(start + step, count)), shape)
            yield complex_from_reals(axis[np.stack(digits, axis=-1)])


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
