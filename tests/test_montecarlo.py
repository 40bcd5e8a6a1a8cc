import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tetravol import montecarlo
from tetravol.montecarlo import (
    BLOCK_SIZE,
    FACET_CENTROID,
    MODE_ALL_RANDOM,
    MODE_CENTROID,
    EstimatorResult,
    estimate,
)

from oracles import UNIT_TETRA_VERTICES, block_sums_slice, tetra_volume

T_O_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_tetra_volume_standard():
    assert tetra_volume(*T_O_VERTICES) == pytest.approx(1 / 6)


def test_tetra_volume_degenerate():
    p = np.array([0.3, 0.2, 0.1])
    assert tetra_volume(p, p, p, p) == 0.0


def test_tetra_volume_unit_representative():
    assert tetra_volume(*UNIT_TETRA_VERTICES) == pytest.approx(1.0)


@pytest.mark.parametrize("mean, stderr, reference, z", [
    (1.5, 0.25, 1.0, 2.0),
    (0.0, 0.0, 1e-300, -math.inf),  # every V^power underflowed
    (2.0, 0.0, 1.0, math.inf),
    (0.5, 0.0, 0.5, math.nan),
])
def test_z_score_divides_as_ieee_does(mean, stderr, reference, z):
    z_score = EstimatorResult(mean=mean, stderr=stderr, n_samples=10, seed=1).z_score(reference)
    assert z_score == z or math.isnan(z) and math.isnan(z_score)


def test_estimate_reproducible():
    a = estimate(MODE_CENTROID, 1, 100_000, seed=7)
    b = estimate(MODE_CENTROID, 1, 100_000, seed=7)
    assert a == b
    d = estimate(MODE_CENTROID, 1, 100_000, seed=8)
    assert d.mean != a.mean


#: (mode, power, n_samples, seed) -> float.hex of the mean and the standard
#: error, as the one-worker matmul kernel computed them before the blocks ran
#: on a thread pool
PINNED = [
    # a partial last block: 3 full blocks and 1,699 samples
    (MODE_ALL_RANDOM, 1, 100_003, 11, "0x1.1daaada8d501ap-6", "0x1.1b1a8fffa382dp-14"),
    # n < BLOCK_SIZE: one partial block
    (MODE_ALL_RANDOM, 2, 1_000, 12, "0x1.715c6647abe94p-11", "0x1.4bcf9c8a9cad9p-14"),
    (MODE_CENTROID, 1, 1_000, 13, "0x1.01685cd49b990p-6", "0x1.061164cc3093cp-11"),
    (MODE_CENTROID, 2, 70_001, 14, "0x1.088177809d4bcp-11", "0x1.238a9e2c6c3f6p-18"),
    # three full blocks
    (MODE_CENTROID, 1, 3 * BLOCK_SIZE, 15, "0x1.03925111e300dp-6", "0x1.ab04b2136df49p-15"),
]


def _pinned_result(mode, power, n, seed, mean, stderr):
    return EstimatorResult(mean=float.fromhex(mean), stderr=float.fromhex(stderr),
                           n_samples=n, seed=seed)


@pytest.mark.parametrize("mode, power, n, seed, mean, stderr", PINNED)
def test_estimate_bits_are_pinned(mode, power, n, seed, mean, stderr):
    r = estimate(mode, power, n, seed)
    assert (r.mean.hex(), r.stderr.hex()) == (mean, stderr)


@pytest.mark.parametrize("cpus", [1, 3])
def test_estimate_same_bits_for_any_worker_count(monkeypatch, cpus):
    """One worker or three: the same results, and every sample thread is
    gone when estimate returns."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    for case in PINNED:
        assert estimate(*case[:4]) == _pinned_result(*case)
    assert threading.active_count() == threads


def test_estimate_memory_grows_with_the_workers_not_the_blocks(monkeypatch):
    """10**9 samples are 30,518 blocks.  With the kernel and its workspace
    stubbed out, what estimate allocates is its own bookkeeping: two sums
    per block (0.5 MB) and one thread per worker.  Submitting each block to a
    pool as its own task, with a future to keep per block, peaked at 52 MB.
    Each worker makes its one workspace before its first block."""
    n = 10**9
    calls = {"blocks": 0, "workspaces": 0}
    lock = threading.Lock()

    def stub(seed, index, count, mode, power, workspace):
        with lock:
            calls["blocks"] += 1
        return float(count), 1.0

    def workspace(mode, size):
        with lock:
            calls["workspaces"] += 1

    monkeypatch.setattr(montecarlo, "_block_sums", stub)
    monkeypatch.setattr(montecarlo, "_workspace", workspace)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    tracemalloc.start()
    try:
        result = estimate(MODE_CENTROID, 1, n, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert calls == {"blocks": -(-n // BLOCK_SIZE), "workspaces": 3}
    assert result.mean == 1.0  # every sample counted once
    assert peak < 2_000_000


class BlockFailed(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 3])
def test_estimate_raises_a_blocks_exception_after_joining_every_thread(monkeypatch, cpus):
    """A block that raises in a sample thread raises from estimate, and
    every sample thread has ended by then."""
    def stub(seed, index, count, mode, power, workspace):
        if index == 5:
            raise BlockFailed(f"block {index}")
        return float(count), 1.0

    monkeypatch.setattr(montecarlo, "_block_sums", stub)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
    before = threading.enumerate()
    with pytest.raises(BlockFailed, match="^block 5$"):
        estimate(MODE_CENTROID, 1, 20 * BLOCK_SIZE, seed=1)
    assert threading.enumerate() == before


def test_estimate_raises_a_helpers_workspace_failure_after_joining_every_thread(monkeypatch):
    """A helper that cannot allocate its workspace records the error like a
    failed block: estimate raises it once every sample thread has ended,
    rather than the thread printing it while the caller runs every block."""
    caller = threading.current_thread()
    real_workspace = montecarlo._workspace

    def workspace(mode, size):
        if threading.current_thread() is not caller:
            raise MemoryError("helper workspace")
        return real_workspace(mode, size)

    monkeypatch.setattr(montecarlo, "_workspace", workspace)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    before = threading.enumerate()
    with pytest.raises(MemoryError, match="^helper workspace$"):
        estimate(MODE_CENTROID, 1, 20 * BLOCK_SIZE, seed=1)
    assert threading.enumerate() == before


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_an_interrupt_stops_estimate_after_the_blocks_in_hand():
    """Ctrl-C while the workers run blocks: they finish the blocks in hand
    and take no more, and the interrupt reaches the caller.  Before,
    the threads ran every remaining block first, here 10**6 blocks of 10 ms.
    (An interrupted join can mark a thread as stopped while it finishes its
    block, so the test counts blocks, not threads.)"""
    code = """
import signal, sys, threading, time
from tetravol import montecarlo

taken = []

def block(seed, index, count, mode, power, workspace):
    taken.append(index)
    if index == 3:
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
    time.sleep(0.01)
    return 1.0, 1.0

montecarlo._block_sums = block
montecarlo._usable_cpus = lambda: 3
try:
    montecarlo.estimate(montecarlo.MODE_CENTROID, 1, 10**6 * montecarlo.BLOCK_SIZE, seed=1)
except KeyboardInterrupt:
    blocks = len(taken)
    time.sleep(0.1)
    assert len(taken) == blocks < 100, (blocks, len(taken))
else:
    sys.exit("estimate returned")
"""
    src = Path(montecarlo.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_an_interrupt_while_helpers_start_leaves_no_thread_running(monkeypatch):
    """Ctrl-C as the second helper starts: the first, already taking
    blocks, takes no more and is joined before the interrupt reaches the
    caller.  Started outside the guard, it ran every block of 2 ms left."""
    starts = [0]

    class Thread(threading.Thread):
        def start(self):
            starts[0] += 1
            if starts[0] == 2:
                raise KeyboardInterrupt
            super().start()

    def stub(seed, index, count, mode, power, workspace):
        time.sleep(0.002)
        return float(count), 1.0

    monkeypatch.setattr(montecarlo.threading, "Thread", Thread)
    monkeypatch.setattr(montecarlo, "_block_sums", stub)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    before = threading.enumerate()
    with pytest.raises(KeyboardInterrupt):
        estimate(MODE_CENTROID, 1, 2000 * BLOCK_SIZE, seed=1)
    assert threading.enumerate() == before


def test_one_usable_cpu_runs_every_block_on_the_calling_thread(monkeypatch):
    """The calling thread is a worker: with one usable CPU it runs every
    block and no thread starts; with three, at most three threads run
    blocks, the caller and two helpers."""
    runners = set()

    def stub(seed, index, count, mode, power, workspace):
        runners.add(threading.current_thread())
        return float(count), 1.0

    monkeypatch.setattr(montecarlo, "_block_sums", stub)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    assert estimate(MODE_CENTROID, 1, 50 * BLOCK_SIZE, seed=1).mean == 1.0
    assert runners == {threading.current_thread()}
    runners.clear()
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    assert estimate(MODE_CENTROID, 1, 50 * BLOCK_SIZE, seed=1).mean == 1.0
    assert len(runners) <= 3


def test_estimate_runs_every_block_once_under_contention(monkeypatch):
    """Three threads switching every microsecond: each block index is
    taken once, and every sample is counted once."""
    taken = []

    def stub(seed, index, count, mode, power, workspace):
        taken.append(index)
        return float(count), 1.0

    monkeypatch.setattr(montecarlo, "_block_sums", stub)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = estimate(MODE_CENTROID, 1, 2000 * BLOCK_SIZE, seed=1)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == list(range(2000))
    assert result.mean == 1.0


@pytest.mark.parametrize("chunk_size", [1000, 4096, 8192, BLOCK_SIZE])
def test_estimate_bits_do_not_depend_on_the_chunk_size(monkeypatch, chunk_size):
    monkeypatch.setattr(montecarlo, "_CHUNK_SIZE", chunk_size)
    for case in PINNED:
        assert estimate(*case[:4]) == _pinned_result(*case)


@pytest.mark.parametrize("mode", [MODE_ALL_RANDOM, MODE_CENTROID])
@pytest.mark.parametrize("power", [1, 2, 3])
@pytest.mark.parametrize("count", [
    BLOCK_SIZE,
    1_699,  # the partial last block of the pinned 100,003 samples
    1_000,  # less than one chunk
    4_097,  # the earlier 4,096-sample chunk and a one-sample chunk
    8_191,  # one sample short of a chunk, and twice the earlier chunk less one
    montecarlo._CHUNK_SIZE + 1,  # a chunk and a one-sample chunk
    # a full chunk, then a partial one in the same buffers: a tail left from
    # the full chunk would change the sums
    2 * montecarlo._CHUNK_SIZE - 1,
])
def test_block_sums_equal_the_whole_block_kernel(mode, power, count):
    got = montecarlo._block_sums(21, 2, count, mode, power, montecarlo._workspace(mode, count))
    want = block_sums_slice(21, 2, count, mode, power)
    assert [s.hex() for s in got] == [s.hex() for s in want]


@pytest.mark.parametrize("mode", [MODE_ALL_RANDOM, MODE_CENTROID])
def test_one_workspace_serves_full_and_partial_blocks(mode):
    """A worker's workspace runs a full block, the pinned partial block of
    1,699 samples, then a full block again: a tail of the draw or of the
    volumes left from one block must not reach the next."""
    workspace = montecarlo._workspace(mode, BLOCK_SIZE)
    for index, count in [(1, BLOCK_SIZE), (3, 1_699), (2, BLOCK_SIZE)]:
        got = montecarlo._block_sums(17, index, count, mode, 2, workspace)
        want = block_sums_slice(17, index, count, mode, 2)
        assert [s.hex() for s in got] == [s.hex() for s in want], (index, count)


def test_block_sums_allocate_no_block_sized_temporaries():
    """A block runs in its worker's workspace and allocates nothing
    chunk-sized: its generator and a few array views, about 3 KB.  One
    chunk-sized row more (64 KB) fails the bound.  The workspace of four
    random points is a chunk's draw (1 MiB) and planes (0.75 MiB) and a
    block's volumes (0.25 MiB), within a core's 2 MiB L2 cache."""
    workspace = montecarlo._workspace(MODE_ALL_RANDOM, BLOCK_SIZE)
    assert sum(buffer.nbytes for buffer in workspace) <= 2 * 1024 * 1024
    montecarlo._block_sums(4, 0, BLOCK_SIZE, MODE_ALL_RANDOM, 2, workspace)  # numpy's one-time setup
    tracemalloc.start()
    try:
        montecarlo._block_sums(4, 1, BLOCK_SIZE, MODE_ALL_RANDOM, 2, workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000


def test_chunked_draws_continue_the_stream():
    """The chunked kernel rests on this: consecutive draws from a block's
    generator give the variates of one draw of the whole block."""
    whole = montecarlo._block_generator(3, 1).standard_exponential((BLOCK_SIZE, 4, 4))
    gen = montecarlo._block_generator(3, 1)
    sizes = [1, 4095, 4096, 1000, BLOCK_SIZE - 9192]
    chunks = [gen.standard_exponential((m, 4, 4)) for m in sizes]
    assert np.array_equal(np.concatenate(chunks), whole)


def test_unit_tetra_vertices_is_the_scaled_corner():
    """_block_sums replaces `weights @ UNIT_TETRA_VERTICES` by the last three
    weights times _SCALE, which holds only for this body."""
    assert np.array_equal(UNIT_TETRA_VERTICES, montecarlo._SCALE * T_O_VERTICES)


def test_estimate_input_validation():
    with pytest.raises(ValueError):
        estimate("bogus", 1, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate(MODE_CENTROID, 0, 1000, seed=0)
    with pytest.raises(ValueError):
        estimate(MODE_CENTROID, 1, 1, seed=0)


def test_estimate_matches_exact_low_moments(table13):
    for k in (1, 2):
        r = estimate(MODE_CENTROID, 2 * k, 10**7, seed=123)
        exact = float(table13[k])
        assert abs(r.mean - exact) < 4 * r.stderr, (k, r, exact)


def test_affine_invariance():
    """Sampling in T_o and scaling volumes by 6 matches the unit-volume body."""
    n = 200_000
    rng = np.random.Generator(np.random.Philox(key=99))
    e = rng.standard_exponential((n, 3, 4))
    w = e / e.sum(axis=2, keepdims=True)
    pts = w @ T_O_VERTICES
    centroid = np.array([1 / 3, 1 / 3, 0.0])
    vols = 6.0 * tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2], centroid)
    mean_o = float(vols.mean())
    se_o = float(vols.std(ddof=1) / n**0.5)
    ref = estimate(MODE_CENTROID, 1, n, seed=99)
    combined = (se_o**2 + ref.stderr**2) ** 0.5
    assert abs(mean_o - ref.mean) < 3 * combined


def test_four_point_mode_tracks_target():
    from tetravol.rational import target_enclosure
    r = estimate(MODE_ALL_RANDOM, 1, 400_000, seed=5)
    assert abs(r.mean - float(target_enclosure().lo)) < 4 * r.stderr


def test_majorant_expectation_matches_exact_moments(table13):
    """Sample mean of P(V) must reproduce the exact E P(V) = sum a_i mu_2i.

    A degree-26 majorant exercises all 13 exact moments in one statistic with
    alternating a_i * mu_2i terms, so this catches relative errors ~1e-3 in
    the high orders that no closed form checks individually.

    The node set must end at 1/3 and cover [0, 1/3] evenly: a majorant whose
    nodes stop short (like the certificate's, last node 4/15) explodes beyond
    them (P(1/3) = 5e7) and carries ~2.5e-5 of true expectation in a region
    of probability < 1e-8 that no feasible sample ever visits, shifting every
    finite-sample mean low by several s.e. even though the estimator is
    unbiased.  With equispaced nodes P stays below 0.57 on [0, 1/3] and the
    unsampled-tail mass is < 1e-8.
    """
    from tetravol.majorant import NodeSet, expected_value, hermite_onesided
    from tetravol.montecarlo import _block_generator

    nodes = NodeSet(tuple(Fraction(j, 21) for j in range(1, 8)))
    poly = hermite_onesided(nodes)
    exact = float(expected_value(poly, table13))
    coeffs = np.array([float(c) for c in poly.coeffs])

    # the same draws as one (n, 3, 4) array, in consecutive chunks, so the
    # test holds a few vectors of n volumes rather than 12 n exponentials
    n, chunk = 2_000_000, 1 << 16
    gen = _block_generator(314159, 0)
    vol = np.empty(n)
    for start in range(0, n, chunk):
        e = gen.standard_exponential((min(chunk, n - start), 3, 4))
        pts = e / e.sum(axis=2, keepdims=True) @ UNIT_TETRA_VERTICES
        vol[start:start + len(e)] = tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2],
                                                 FACET_CENTROID)
    t = vol * vol
    pv = np.zeros_like(vol)
    for c in coeffs[::-1]:
        pv = pv * t + c
    se = float(pv.std(ddof=1)) / n**0.5
    assert abs(float(pv.mean()) - exact) < 4 * se


def test_facet_centroid_location():
    assert FACET_CENTROID == pytest.approx(6 ** (1 / 3) * np.array([1 / 3, 1 / 3, 0]))
