"""Monte Carlo estimates of random simplex volumes, for cross-validation only.

Estimates E V^p for the simplex of four uniform points in a unit-volume
tetrahedron, or of three uniform points plus the pinned facet centroid.  The
representative body is 6^(1/3) T_o so volumes need no rescaling.

Sampling is Dirichlet(1,1,1,1) barycentric: four unit exponentials normalized
to sum one are uniform over a simplex.  Streams are counter-based (Philox
keyed by the seed, one disjoint counter block per fixed-size sample block),
so the blocks are independent: they run on a thread pool with one worker per
usable CPU (numpy's generator and ufuncs release the interpreter lock), and
their sums are reduced in block-index order.  A given (seed, N, mode, power)
yields bit-identical results for any worker count.

Nothing here feeds the certificate; double precision is fine.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: samples per substream block; fixed, part of the reproducibility contract
BLOCK_SIZE = 1 << 15

#: counter stride between blocks (draw consumption per block is far smaller)
_BLOCK_STRIDE = 1 << 64

_SCALE = 6.0 ** (1.0 / 3.0)

#: unit-volume representative tetrahedron and its pinned facet centroid
UNIT_TETRA_VERTICES = _SCALE * np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
FACET_CENTROID = _SCALE * np.array([1.0 / 3.0, 1.0 / 3.0, 0.0])

MODE_ALL_RANDOM = "four"
MODE_CENTROID = "centroid"


@dataclass(frozen=True)
class EstimatorResult:
    mean: float
    stderr: float
    n_samples: int
    seed: int

    def z_score(self, reference: float) -> float:
        return (self.mean - reference) / self.stderr


def tetra_volume(p1, p2, p3, p4) -> np.ndarray | float:
    """|det(p1-p4, p2-p4, p3-p4)| / 6; broadcasts over leading axes."""
    u = np.asarray(p1, dtype=float) - p4
    v = np.asarray(p2, dtype=float) - p4
    w = np.asarray(p3, dtype=float) - p4
    det = (u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
           - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
           + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]))
    return np.abs(det) / 6.0


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    bg.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bg)


def _block_sums(seed: int, block_index: int, count: int, mode: str, power: int
                ) -> tuple[float, float]:
    gen = _block_generator(seed, block_index)
    n_random = 4 if mode == MODE_ALL_RANDOM else 3
    e = gen.standard_exponential((count, n_random, 4))
    # barycentric weights times UNIT_TETRA_VERTICES = _SCALE * [0; I3] are the
    # last three weights times _SCALE: every other matmul term is an exact 0.
    # The row sum goes into column 0 in np.sum's order for four terms,
    # ((e0 + e1) + e2) + e3, so the points are the matmul's bits.
    total = e[..., :1]
    total += e[..., 1:2]
    total += e[..., 2:3]
    total += e[..., 3:4]
    pts = e[..., 1:]
    pts /= total
    pts *= _SCALE
    if mode == MODE_ALL_RANDOM:
        vol = tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3])
    else:
        vol = tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2], FACET_CENTROID)
    del e, total, pts
    vp = vol ** power
    return float(np.sum(vp)), float(np.sum(vp * vp))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def estimate(mode: str, power: int, n_samples: int, seed: int) -> EstimatorResult:
    """Sample mean and standard error of V^power over n_samples draws."""
    if mode not in (MODE_ALL_RANDOM, MODE_CENTROID):
        raise ValueError(f"unknown mode {mode!r}")
    if power < 1:
        raise ValueError("power must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if not 0 <= seed < 1 << 128:  # the Philox key
        raise ValueError(f"seed {seed} is outside [0, 2**128)")

    counts = [min(BLOCK_SIZE, n_samples - start) for start in range(0, n_samples, BLOCK_SIZE)]
    # the pool is joined before estimate returns, so no thread outlives it
    # (moments.moment_table forks)
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(counts))) as pool:
        sums = list(pool.map(lambda index, count: _block_sums(seed, index, count, mode, power),
                             range(len(counts)), counts))

    s1 = float(np.sum(np.array([s[0] for s in sums])))
    s2 = float(np.sum(np.array([s[1] for s in sums])))
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return EstimatorResult(mean=mean, stderr=(var / n_samples) ** 0.5,
                           n_samples=n_samples, seed=seed)
