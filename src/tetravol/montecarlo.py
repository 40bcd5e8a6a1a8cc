"""Monte Carlo estimates of random simplex volumes, for cross-validation only.

Estimates E V^p for the simplex of four uniform points in a unit-volume
tetrahedron, or of three uniform points plus the pinned facet centroid.  The
representative body is 6^(1/3) T_o so volumes need no rescaling.

Sampling is Dirichlet(1,1,1,1) barycentric: four unit exponentials normalized
to sum one are uniform over a simplex.  Streams are counter-based (Philox
keyed by the seed, one disjoint counter block per fixed-size sample block),
so the blocks are independent: the calling thread and one plain helper
thread per further usable CPU run them (numpy's generator and ufuncs release
the interpreter lock), each taking the next block index when it finishes a
block, and their sums are reduced in block-index order.  A given (seed, N,
mode, power) yields bit-identical results for any worker count.  A
`concurrent.futures` pool would load that package, `logging` and `queue`
for nothing.  No kernel here calls BLAS, so the `tetravol mc` command, not
this module, sets OpenBLAS to one thread before numpy loads, and no
OpenBLAS server thread runs beside the workers.

A block is computed in chunks of _CHUNK_SIZE samples, in buffers allocated
once per block: each chunk is drawn into one buffer, its row sums and points
are formed from a transposed view of that draw into contiguous coordinate
planes, and its volumes are written into the block's volume array, so that
a chunk's draws and temporaries stay in a core's cache and no chunk
allocates.  Chunking leaves every bit of every result as one pass over the
whole block gives it, for three reasons: consecutive draws from one
generator continue its Philox stream, so the chunks hold the very variates
of one draw of the block; every step from the draws to V is a per-element
ufunc applied in the same order to each sample, so its bits do not depend on
how the samples are laid out, split or stored; and V^p and both sums still
run once over the whole block, so np.sum's pairwise tree is the block's.

Nothing here feeds the certificate; double precision is fine.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

#: samples per substream block; fixed, part of the reproducibility contract
BLOCK_SIZE = 1 << 15

#: samples per chunk of a block.  A chunk of four random points draws 512 KiB
#: into a buffer that, with the chunk's row sums, points and scratch rows,
#: takes 1.1 MiB and stays within a 2 MiB L2 cache.  On one thread of such a
#: core, 16 blocks (median of 9 runs) took 0.179, 0.168 and 0.211 s of four
#: random points, and 0.082, 0.073 and 0.071 s with the centroid, at 2048,
#: 4096 and 8192 samples.  Any value gives the same bits.
_CHUNK_SIZE = 1 << 12

#: counter stride between blocks (draw consumption per block is far smaller)
_BLOCK_STRIDE = 1 << 64

_SCALE = 6.0 ** (1.0 / 3.0)

#: the pinned facet centroid of the representative body _SCALE * T_o
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
        """(mean - reference) / stderr under IEEE division: a zero standard
        error (every V^power underflowed) gives +-inf when the mean differs
        from the reference and nan when it equals it."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.float64(self.mean - reference) / self.stderr)


def _determinant(u0, u1, u2, v0, v1, v2, w0, w1, w2, *, out, a, b):
    """det of the rows (u0, u1, u2), (v0, v1, v2), (w0, w1, w2), expanded
    along the first row as (u0 A - u1 B) + u2 C, written to `out`, with `a`
    and `b` as scratch rows of its shape.  Every volume goes through this
    function, so its operation order, which fixes the bits of each estimate,
    is written once."""
    np.multiply(v1, w2, out=a)
    a -= np.multiply(v2, w1, out=b)
    np.multiply(u0, a, out=out)  # u0 A
    np.multiply(v0, w2, out=a)
    a -= np.multiply(v2, w0, out=b)
    out -= np.multiply(u1, a, out=a)  # - u1 B
    np.multiply(v0, w1, out=a)
    a -= np.multiply(v1, w0, out=b)
    out += np.multiply(u2, a, out=a)  # + u2 C
    return out


def _block_generator(seed: int, block_index: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    bg.advance(block_index * _BLOCK_STRIDE)
    return np.random.Generator(bg)


def _block_sums(seed: int, block_index: int, count: int, mode: str, power: int
                ) -> tuple[float, float]:
    gen = _block_generator(seed, block_index)
    n_random = 4 if mode == MODE_ALL_RANDOM else 3
    chunk = min(_CHUNK_SIZE, count)
    # every chunk works in these buffers: its draw, its row sums, its points
    # as one contiguous plane per coordinate, and the determinant's scratch
    draw = np.empty((chunk, n_random, 4))
    totals = np.empty((n_random, chunk))
    planes = np.empty((n_random, 3, chunk))
    scratch = np.empty((2, chunk))
    vol = np.empty(count)
    for start in range(0, count, _CHUNK_SIZE):
        m = min(_CHUNK_SIZE, count - start)
        # the next m samples of the block's stream, as one draw of the whole
        # block would give them; e[i, j] is the j-th exponential of point i
        e = gen.standard_exponential(out=draw[:m]).transpose(1, 2, 0)
        # barycentric weights times the body's vertices _SCALE * [0; I3] are
        # the last three weights times _SCALE: every other matmul term is an
        # exact 0.  The row sum is np.sum's order for four terms,
        # ((e0 + e1) + e2) + e3, so the points are the matmul's bits.
        total = np.add(e[:, 0], e[:, 1], out=totals[:, :m])
        total += e[:, 2]
        total += e[:, 3]
        pts = np.divide(e[:, 1:], total[:, None], out=planes[:, :, :m])
        pts *= _SCALE  # pts[i, c]: coordinate c of point i
        if mode == MODE_ALL_RANDOM:
            edges = pts[:3]
            edges -= pts[3]
        else:
            edges = pts
            edges -= FACET_CENTROID[:, None]
        v = _determinant(*edges.reshape(9, m), out=vol[start:start + m],
                         a=scratch[0, :m], b=scratch[1, :m])
        np.abs(v, out=v)
        v /= 6.0
    # the power and both sums run once over the whole block: np.sum's
    # pairwise tree depends on the length it is given
    vol **= power
    s1 = float(np.sum(vol))
    vol *= vol
    return s1, float(np.sum(vol))


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

    n_blocks = -(-n_samples // BLOCK_SIZE)
    # sums[:, i]: block i's two sums.  The workers take indices from a shared
    # iterator, so beyond sums the bookkeeping grows with the workers alone.
    sums = np.empty((2, n_blocks))
    blocks = iter(range(n_blocks))
    next_block = threading.Lock()
    errors: list[BaseException] = []

    def work() -> None:
        try:
            while True:
                with next_block:  # after a failure, no worker starts a block
                    index = None if errors else next(blocks, None)
                if index is None:
                    return
                count = min(BLOCK_SIZE, n_samples - index * BLOCK_SIZE)
                sums[:, index] = _block_sums(seed, index, count, mode, power)
        except BaseException as exc:  # re-raised by estimate, once all are joined
            errors.append(exc)

    # the calling thread works too, beside one helper per further usable CPU
    helpers = [threading.Thread(target=work) for _ in range(min(_usable_cpus(), n_blocks) - 1)]
    try:  # an interrupt while the helpers start stops the ones started
        for helper in helpers:
            helper.start()
        work()
    except BaseException as exc:  # an interrupt: the workers take no more blocks
        errors.append(exc)
        raise
    finally:  # every helper that started ends before estimate does
        for helper in filter(threading.Thread.is_alive, helpers):
            helper.join()
    if errors:
        raise errors[0]

    s1 = float(np.sum(sums[0]))
    s2 = float(np.sum(sums[1]))
    mean = s1 / n_samples
    var = max(s2 - n_samples * mean * mean, 0.0) / (n_samples - 1)
    return EstimatorResult(mean=mean, stderr=(var / n_samples) ** 0.5,
                           n_samples=n_samples, seed=seed)
