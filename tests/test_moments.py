import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest

from tetravol import moments as moments_mod
from tetravol.moments import (
    MomentCacheError,
    MomentIntegrityError,
    MomentTable,
    TERMS_3D,
    VAR_NAMES,
    _z_split,
    abbreviations,
    composition_count,
    enumerate_compositions,
    even_moment_direct,
    even_moment_fast,
    moment_table,
)
from tetravol.rational import factorial
from tetravol.simplex_integrals import triple_integral

PAPER_MOMENTS = {
    1: Fraction(1, 2000),
    2: Fraction(43, 27783000),
    3: Fraction(347, 28805414400),
    4: Fraction(2389, 14263395300000),
    5: Fraction(310483, 90249636885408000),
}


def theorem_sum_oracle(k: int) -> Fraction:
    """Literal Theorem-2 summation: materialize every composition, apply the
    abbreviation map, sum closed-form integrals.  Independent of the
    incremental recursion inside even_moment_direct."""
    n2k = 2 * k
    total = Fraction(0)
    for comp in enumerate_compositions(n2k, 18):
        ab = abbreviations(comp)
        mult = factorial(n2k)
        for c in comp:
            mult //= factorial(c)
        total += ((-1) ** ab.k_prime * 3**ab.k_double_prime * mult
                  * triple_integral(ab.exponents))
    return Fraction(8 * 27, 3**n2k) * total


def det_value(point, k_power: int) -> Fraction:
    """(3 * det M)^k_power at a rational 9-tuple, via cofactor expansion of
    the bordered 4x4 matrix with c = (1/3, 1/3, 0)."""
    x1, y1, z1, x2, y2, z2, x3, y3, z3 = (Fraction(v) for v in point)
    rows = [
        [x1, y1, z1, Fraction(1)],
        [x2, y2, z2, Fraction(1)],
        [x3, y3, z3, Fraction(1)],
        [Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(1)],
    ]

    def det(m):
        if len(m) == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(len(m)):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * det(minor)
        return total

    return (3 * det(rows)) ** k_power


def terms_3d_at(point) -> Fraction:
    """Sum of coeff * prod(vars) over TERMS_3D at a rational 9-tuple."""
    value = dict(zip(VAR_NAMES, point))
    return sum(coeff * prod(value[v] for v in vars_) for coeff, vars_ in TERMS_3D)


# ---------------------------------------------------------------------------
# determinant polynomial and abbreviation map
# ---------------------------------------------------------------------------

def test_build_D_term_count_and_scale():
    # 3D has 18 distinct monomials: 12 quadratic with coefficient +-1 and
    # 6 cubic with +-3
    assert len(TERMS_3D) == 18
    assert len({frozenset(vars_) for _, vars_ in TERMS_3D}) == 18
    for coeff, vars_ in TERMS_3D:
        assert abs(coeff) == (1 if len(vars_) == 2 else 3)
    assert sum(len(vars_) == 2 for _, vars_ in TERMS_3D) == 12


def test_build_D_printed_signs():
    signs = {frozenset(vars_): coeff for coeff, vars_ in TERMS_3D}
    assert signs[frozenset(("x1", "z2"))] == 1
    assert signs[frozenset(("x2", "z1"))] == -1
    assert signs[frozenset(("x1", "y2", "z3"))] == 3
    assert signs[frozenset(("x3", "y2", "z1"))] == -3


def test_build_D_matches_determinant_at_random_points():
    rng = random.Random(11)
    for _ in range(10):
        point = [Fraction(rng.randrange(1, 30), 90) for _ in range(9)]
        assert terms_3d_at(point) == det_value(point, 1)


def test_abbreviations_all_zero():
    ab = abbreviations([0] * 18)
    assert ab == (0, 0, (0,) * 9)


def test_abbreviations_single_slots():
    one = [0] * 18
    one[0] = 1  # k_1: the x1 z2 term
    ab = abbreviations(one)
    assert ab.k_prime == 0 and ab.k_double_prime == 0
    assert ab.exponents == (1, 0, 0, 0, 0, 1, 0, 0, 0)

    one = [0] * 18
    one[13] = 1  # k_14: the -3 x1 y3 z2 term
    ab = abbreviations(one)
    assert ab.k_prime == 1 and ab.k_double_prime == 1
    assert ab.exponents == (1, 0, 0, 0, 0, 1, 0, 1, 0)


def test_abbreviations_requires_18_parts():
    with pytest.raises(ValueError):
        abbreviations([1, 2, 3])


# ---------------------------------------------------------------------------
# composition enumeration
# ---------------------------------------------------------------------------

def test_composition_counts():
    assert len(list(enumerate_compositions(2, 3))) == 6
    assert len(list(enumerate_compositions(2, 18))) == 171
    assert sum(1 for _ in enumerate_compositions(6, 18)) == 100947


def test_compositions_are_lexicographic_and_complete():
    comps = list(enumerate_compositions(3, 3))
    assert comps == sorted(comps)
    assert len(set(comps)) == len(comps)
    assert all(sum(c) == 3 for c in comps)
    assert comps[0] == (0, 0, 3)


def test_composition_count_formula():
    assert composition_count(5) == 8436285


def test_power_z_degree_invariant_and_point_evaluation():
    # every term holds exactly one z coordinate, so (3D)^n has z-degree n and
    # 3D = z1*F - z2*F + z3*F with F read in each point's own layout
    for _, vars_ in TERMS_3D:
        assert sum(v.startswith("z") for v in vars_) == 1
    f, layouts = _z_split()
    rng = random.Random(23)
    for k in (1, 2, 3):
        for _ in range(4 if k < 3 else 2):
            point = [Fraction(rng.randrange(1, 24), 72) for _ in range(9)]
            value = dict(zip(VAR_NAMES, point))
            split = sum(sign * value[f"z{i}"] * sum(
                c * prod(value[v] ** e for v, e in zip(layouts[i], exps))
                for exps, c in f.items())
                for i, sign in ((1, 1), (2, -1), (3, 1)))
            assert split ** (2 * k) == det_value(point, 2 * k)


def test_z_split_rejects_a_flipped_sign(monkeypatch):
    # the fast path reads F2 and F3 off F1; any term whose sign breaks that
    # symmetry must stop it rather than give a wrong moment
    for i, (coeff, vars_) in enumerate(TERMS_3D):
        flipped = TERMS_3D[:i] + ((-coeff, vars_),) + TERMS_3D[i + 1:]
        monkeypatch.setattr(moments_mod, "TERMS_3D", flipped)
        with pytest.raises(MomentIntegrityError):
            _z_split()


# ---------------------------------------------------------------------------
# the two evaluation routes
# ---------------------------------------------------------------------------

def test_direct_matches_published_low_moments():
    for k in (1, 2, 3):
        assert even_moment_direct(k) == PAPER_MOMENTS[k]


def test_direct_matches_literal_theorem_sum():
    for k in (1, 2):
        assert even_moment_direct(k) == theorem_sum_oracle(k)


def test_direct_cap_names_composition_count():
    with pytest.raises(ValueError, match=str(composition_count(6))):
        even_moment_direct(6)
    # a raised cap unlocks the order
    assert even_moment_direct(3, cap=3) == PAPER_MOMENTS[3]


def test_fast_agrees_with_direct_low_orders():
    for k in (1, 2, 3):
        assert even_moment_fast(k) == even_moment_direct(k)


def test_fast_matches_published_moments():
    # k = 4, 5 reach splits with odd and even n2, so both signs of F2^n2
    for k in range(1, 6):
        assert even_moment_fast(k) == PAPER_MOMENTS[k]


def naive_matmul(a, b):
    """Reference for the packed product: the plain triple loop."""
    return [[sum(av * b[j][t] for j, av in enumerate(arow)) for t in range(len(b[0]))]
            for arow in a]


def test_packed_matmul_matches_naive_product():
    rng = random.Random(31)

    def signed(bits):
        return rng.choice((-1, 1)) * rng.getrandbits(bits)

    def rand(n, m, bits):
        return [[signed(rng.choice(bits)) for _ in range(m)] for _ in range(n)]

    cases = [([[v]], [[u]]) for v in (0, 1, -1, 5, -(1 << 200))
             for u in (0, -1, 7, (1 << 300) - 1)]                 # 1x1 operands
    cases += [(rand(5, 4, (9,)), rand(4, 1, (9,))) for _ in range(3)]  # one column
    a = rand(6, 5, (40,))
    a[0] = a[3] = [0] * 5                                         # all-zero rows
    cases += [(a, rand(5, 7, (40,))),
              ([[0] * 4 for _ in range(3)], rand(4, 5, (60,))),  # all-zero a
              (rand(3, 4, (60,)), [[0] * 5 for _ in range(4)])]  # all-zero b
    cases += [(rand(n, m, (1, 300)), rand(m, c, (1, 300)))       # 1- and 300-bit
              for n, m, c in ((7, 9, 5), (12, 3, 11), (2, 20, 2))]
    cases += [(rand(n, m, (1, 8, 64, 250)), rand(m, c, (1, 8, 64, 250)))
              for n, m, c in ((rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9))
                          for _ in range(40))]
    for a, b in cases:
        assert moments_mod._matmul(a, b) == naive_matmul(a, b)


@pytest.mark.parametrize("amax, bmax, n", [
    (1, 127, 1),                     # w = 1
    (31, 151, 7),                    # 7 * 31 * 151 = 2^15 - 1, w = 2
    (((1 << 303) - 1) // 7, 1, 7),   # 2^303 - 1, w = 38
])
def test_packed_matmul_at_the_slot_edge(amax, bmax, n):
    # max|a| * max|b| * len(b) = 2^(8w-1) - 1 with w the slot width it sets,
    # so the product entries land exactly on +-(2^(8w-1) - 1)
    bound = amax * bmax * n
    w = (bound.bit_length() + 8) // 8
    assert bound == (1 << (8 * w - 1)) - 1
    a = [[amax] * n, [-amax] * n, [amax, -amax] * (n // 2) + [amax] * (n % 2)]
    b = [[bmax, -bmax, 0] for _ in range(n)]
    product = moments_mod._matmul(a, b)
    assert product == naive_matmul(a, b)
    assert product[0][:2] == [bound, -bound] and product[1][:2] == [-bound, bound]


def test_power_table_is_built_once(monkeypatch):
    # every order reads the shared powers of F: k = 1..4 in turn need
    # F^1..F^8, one product each, and a lower order after them needs none
    monkeypatch.setattr(moments_mod, "_F_POWERS", [])
    calls = []
    mul = moments_mod._poly4_mul
    monkeypatch.setattr(moments_mod, "_poly4_mul",
                        lambda p, q: calls.append(1) or mul(p, q))
    for k in range(1, 5):
        assert even_moment_fast(k) == PAPER_MOMENTS[k]
    assert len(calls) == 8
    calls.clear()
    assert even_moment_fast(2) == PAPER_MOMENTS[2]
    assert calls == []


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="~2 min; set TETRAVOL_SLOW=1 to run")
def test_fast_agrees_with_direct_k6_slow():
    # 51.9M compositions; extends the mandatory k <= 4 cross-check one order
    # past the published values
    assert even_moment_fast(6) == even_moment_direct(6, cap=6)


def test_moment_decay_invariants(table13):
    prev = None
    for k in table13.orders():
        v = table13[k]
        assert 0 < v <= Fraction(1, 3 ** (2 * k))
        if prev is not None:
            assert v <= prev / 9
        prev = v


# ---------------------------------------------------------------------------
# moment table and cache file
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path, table13):
    path = tmp_path / "moments.tsv"
    table13.write(path)
    again = MomentTable.read(path)
    assert again == table13
    again.write(tmp_path / "second.tsv")
    assert (tmp_path / "second.tsv").read_bytes() == path.read_bytes()


def test_cache_format_is_exact(tmp_path):
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    assert path.read_bytes() == b"tetra-moments v1\n1\t1\t2000\n"


def test_cache_rejects_bad_header(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("wrong header\n1\t1\t2000\n")
    with pytest.raises(MomentCacheError):
        MomentTable.read(path)


def test_cache_rejects_unreduced_fraction(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("tetra-moments v1\n1\t2\t4000\n")
    with pytest.raises(MomentCacheError):
        MomentTable.read(path)


def test_cache_rejects_duplicate_order(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("tetra-moments v1\n1\t1\t2000\n1\t1\t2000\n")
    with pytest.raises(MomentCacheError):
        MomentTable.read(path)


def test_table_invariant_rejects_nondecreasing():
    with pytest.raises(MomentIntegrityError):
        MomentTable({1: Fraction(1, 2000), 2: Fraction(1, 2000)})


def test_moment_table_detects_tampered_cache(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("tetra-moments v1\n1\t1\t2001\n")
    with pytest.raises(MomentIntegrityError):
        moment_table(1, cache_path=path)


def test_moment_table_resumes_partial_cache(tmp_path, monkeypatch):
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    calls = []
    fast = moments_mod.even_moment_fast
    monkeypatch.setattr(moments_mod, "even_moment_fast",
                        lambda k: calls.append(k) or fast(k))
    table = moment_table(2, cache_path=path)
    assert table[2] == PAPER_MOMENTS[2]
    assert calls == [2]
    # rerun loads everything from the file and rewrites nothing
    calls.clear()
    before = path.read_bytes()
    again = moment_table(2, cache_path=path)
    assert again == table
    assert calls == []
    assert path.read_bytes() == before


def write_half_then_fail(self, target):
    """Stand-in for MomentTable.write on a full disk."""
    full = "\n".join(f"{k}\t{v}" for k, v in self.values.items())
    Path(target).write_text(full[:len(full) // 2])
    raise OSError("disk full")


def test_failed_cache_flush_keeps_the_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    before = path.read_bytes()

    monkeypatch.setattr(MomentTable, "write", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        moment_table(2, cache_path=path)
    assert path.read_bytes() == before
    assert MomentTable.read(path)[1] == PAPER_MOMENTS[1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]


def test_moment_table_verification_retags_low_orders(tmp_path):
    table = moment_table(2)
    assert table.provenance == {1: "direct", 2: "direct"}


# ---------------------------------------------------------------------------
# the direct enumerator's forked child
# ---------------------------------------------------------------------------

def test_direct_mismatch_names_the_order(monkeypatch):
    # the forked child inherits the patched module, so a wrong oracle value
    # at k = 2 reaches the comparison
    direct = moments_mod.even_moment_direct
    monkeypatch.setattr(moments_mod, "even_moment_direct",
                        lambda k: direct(k) + (Fraction(1, 10**40) if k == 2 else 0))
    with pytest.raises(MomentIntegrityError, match=r"moment k=2: fast value .* != direct"):
        moment_table(3)


def _raise(k):
    raise RuntimeError("oracle failed")


def _exit_early(k):
    if k == 2:
        os._exit(0)  # clean exit, nothing of the buffered reply written
    return even_moment_direct(k)


def _killed(k):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("oracle, message", [
    (_raise, r"k=1: .* exited with status 1"),
    (lambda k: "not a fraction", r"k=1: .* replied 'not a fraction'"),
    (_exit_early, r"k=1: .* reply ended early"),
    (_killed, r"k=1: .* exited with status -9"),
], ids=["raises", "unparsable", "short", "killed"])
def test_failing_direct_child_is_an_integrity_error(monkeypatch, oracle, message):
    monkeypatch.setattr(moments_mod, "even_moment_direct", oracle)
    with pytest.raises(MomentIntegrityError, match=message):
        moment_table(3)


def test_failed_flush_kills_and_reaps_the_direct_child(tmp_path, monkeypatch):
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    before = path.read_bytes()
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    # an oracle that would outlast the test: only a kill ends it in time
    monkeypatch.setattr(moments_mod, "even_moment_direct", lambda k: time.sleep(60))
    monkeypatch.setattr(MomentTable, "write", write_half_then_fail)
    t0 = time.monotonic()
    with pytest.raises(OSError, match="disk full"):
        moment_table(2, cache_path=path)
    assert time.monotonic() - t0 < 30
    assert len(pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(pids[0], os.WNOHANG)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]


def test_direct_child_flushes_no_inherited_stdio():
    # "before" sits unflushed in the stdout buffer at the fork; a child that
    # left through normal interpreter shutdown would print it a second time
    code = ("from tetravol.moments import moment_table\n"
            "print('before')\n"
            "moment_table(2)\n"
            "print('after')\n")
    src = Path(moments_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                         env=env, check=True, timeout=120).stdout
    assert out == b"before\nafter\n"
