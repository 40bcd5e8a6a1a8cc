import hashlib
import os
import random
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from tetravol import moments as moments_mod
from tetravol.moments import (
    MomentCacheError,
    MomentIntegrityError,
    MomentTable,
    even_moment_direct,
    even_moment_fast,
    moment_table,
)

from oracles import (
    TERMS_3D,
    VAR_NAMES,
    abbreviations,
    centred_integrals_pq,
    composition_count,
    enumerate_compositions,
    even_moment_18,
    even_moment_triple,
    product_kernel,
    triple_integral,
)

#: the moment cache the benchmark stages (read only)
GOLDEN_MOMENTS = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "moments13.tsv"

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
    incremental recursion inside even_moment_18."""
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


def centred(point):
    """(u1, v1, z1, u2, v2, z2, u3, v3, z3) with u = x - 1/3, v = y - 1/3."""
    third = Fraction(1, 3)
    return [Fraction(c) - (third if i % 3 < 2 else 0) for i, c in enumerate(point)]


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
    # every term holds exactly one z coordinate, so (3D)^n has z-degree n;
    # in centred coordinates D = z1*A1 - z2*A2 + z3*A3 with the 2x2 minors
    # of the (u, v) columns, the expansion the fast route sums
    for _, vars_ in TERMS_3D:
        assert sum(v.startswith("z") for v in vars_) == 1
    rng = random.Random(23)
    for k in (1, 2, 3):
        for _ in range(4 if k < 3 else 2):
            point = [Fraction(rng.randrange(1, 24), 72) for _ in range(9)]
            u1, v1, z1, u2, v2, z2, u3, v3, z3 = centred(point)
            split = (z1 * (u2 * v3 - u3 * v2) - z2 * (u1 * v3 - u3 * v1)
                     + z3 * (u1 * v2 - u2 * v1))
            assert (3 * split) ** (2 * k) == det_value(point, 2 * k)


def test_centred_determinant_matches_terms_3d():
    # the six signed terms the direct route enumerates are D = TERMS_3D / 3
    # at every point, beside the 4x4 cofactor check above
    rng = random.Random(17)
    for _ in range(20):
        point = [Fraction(rng.randrange(-40, 41), rng.randrange(1, 30)) for _ in range(9)]
        u1, v1, z1, u2, v2, z2, u3, v3, z3 = centred(point)
        six = (u1 * v2 * z3 - u1 * v3 * z2 - u2 * v1 * z3
               + u2 * v3 * z1 + u3 * v1 * z2 - u3 * v2 * z1)
        assert six == terms_3d_at(point) / 3


# ---------------------------------------------------------------------------
# the two evaluation routes
# ---------------------------------------------------------------------------

def test_direct_matches_published_low_moments():
    for k in range(1, 6):
        assert even_moment_direct(k) == PAPER_MOMENTS[k]


def test_direct_matches_literal_theorem_sum():
    for k in (1, 2):
        assert even_moment_direct(k) == theorem_sum_oracle(k)
        assert even_moment_18(k) == theorem_sum_oracle(k)


def test_18_term_enumerator_matches_direct():
    # the paper's uncentred 18-term sum against the centred 6-term one
    for k in range(1, 5):
        assert even_moment_18(k) == even_moment_direct(k)


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="~7 min; set TETRAVOL_SLOW=1 to run")
def test_18_term_enumerator_matches_direct_slow():
    # 8.4M and 51.9M compositions of 2k into 18 parts
    for k in (5, 6):
        assert even_moment_18(k) == even_moment_direct(k)


@pytest.mark.parametrize("route", [even_moment_fast, even_moment_direct])
def test_order_below_1_is_refused(route):
    with pytest.raises(ValueError, match="k must be >= 1"):
        route(0)


def test_direct_cap_names_composition_count(monkeypatch):
    cap = moments_mod.DIRECT_CAP
    with pytest.raises(ValueError, match=f"k={cap + 1} .* {comb(2 * cap + 7, 5)} "
                                         f"compositions of {2 * cap + 2} into 6 parts"):
        even_moment_direct(cap + 1)
    # the cap is a module constant: at 3, order 3 still runs and 4 is refused
    monkeypatch.setattr(moments_mod, "DIRECT_CAP", 3)
    assert even_moment_direct(3) == PAPER_MOMENTS[3]
    with pytest.raises(ValueError, match=r"k=4 exceeds the direct-path cap 3: "
                                         + str(comb(13, 5))):
        even_moment_direct(4)


def test_fast_agrees_with_direct_low_orders():
    # every pin is what both routes compute, and moment_table checks them all
    assert moments_mod.VERIFY_ORDER_MAX == len(moments_mod.PINNED_MOMENTS)
    for k in range(1, moments_mod.VERIFY_ORDER_MAX + 1):
        pinned = Fraction(*moments_mod.PINNED_MOMENTS[k - 1])
        assert even_moment_direct(k) == even_moment_fast(k) == pinned, k


def test_fast_matches_published_moments():
    # k = 4, 5 reach splits with odd and even n2, so both signs of A2^n2
    for k in range(1, 6):
        assert even_moment_fast(k) == PAPER_MOMENTS[k]


def test_centred_integrals_equal_the_pq_double_sum():
    # the one sum per entry over N against the sum over p and q it replaced
    for k in range(1, 17):
        assert moments_mod._centred_integrals(k) == centred_integrals_pq(k), k


def test_fast_equals_the_triple_sum():
    for k in range(1, 17):
        assert even_moment_fast(k) == even_moment_triple(k), k


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="~4 s; set TETRAVOL_SLOW=1 to run")
def test_fast_equals_the_triple_sum_slow():
    for k in range(17, 27):
        assert even_moment_fast(k) == even_moment_triple(k), k


#: sha256 of orders 14..20 in the moment file format, as the triple sum
#: (`even_moment_triple`) computes them: orders that no pin covers
ORDERS_14_20_SHA256 = "f56bee0ddfe8062f7289d1bafda3f28afb303db99495b94377b4a656abf09ba2"


def test_fast_orders_14_to_20_match_the_triple_sum(tmp_path):
    path = tmp_path / "m.tsv"
    MomentTable({k: even_moment_fast(k) for k in range(14, 21)}).write(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ORDERS_14_20_SHA256


def kernel_at(kernel, x, y):
    return sum(h * x ** a * y ** s for a, row in enumerate(kernel) for s, h in enumerate(row))


def assert_is_product(kernel, n1, n2, n3):
    # H[a][s] = [x^a y^s] (1 - x)^n1 (1 - y)^n2 (x - y)^n3, coefficient for
    # coefficient as the oracle expands it from scratch; the oracle's shape
    # and its values at integer points are the product's
    expected = product_kernel(n1, n2, n3)
    assert (len(expected), len(expected[0])) == (n1 + n3 + 1, n2 + n3 + 1)
    for x, y in ((2, 3), (-1, 5), (7, -4)):
        assert kernel_at(expected, x, y) == (1 - x) ** n1 * (1 - y) ** n2 * (x - y) ** n3
    assert kernel == expected


def kernel_by_steps(n1, n2, n3):
    """The kernel of (n1, n2, n3) from (1 - x)^(n1 + n2 + n3), by n3 steps
    with e = 1 and then n2 with e = 0."""
    n = n1 + n2 + n3
    kernel = [[(-1) ** a * comb(n, a)] for a in range(n + 1)]
    for e in [1] * n3 + [0] * n2:
        kernel = moments_mod._next_kernel(kernel, e)
    return kernel


@pytest.mark.parametrize("split", [(0, 0, 0), (2, 1, 1), (5, 0, 3), (4, 4, 4), (9, 3, 6),
                                   (20, 6, 14)])
def test_kernel_is_the_product_and_updates_to_the_next_split(split):
    # one step with e = 0 gives the kernel of (n1 - 1, n2 + 1, n3), and one
    # with e = 1 that of (n1 - 1, n2, n3 + 1)
    n1, n2, n3 = split
    kernel = kernel_by_steps(n1, n2, n3)
    assert_is_product(kernel, n1, n2, n3)
    if n1:
        assert_is_product(moments_mod._next_kernel(kernel, 0), n1 - 1, n2 + 1, n3)
        assert_is_product(moments_mod._next_kernel(kernel, 1), n1 - 1, n2, n3 + 1)


def test_the_route_sums_the_product_kernel_of_every_split(monkeypatch):
    # every kernel `even_moment_fast` passes to `_split_sum` is its split's,
    # the first and last split of each column included, and each split
    # n1 >= n2 >= n3 is summed once
    split_sum, seen = moments_mod._split_sum, []

    def checked(table, kernel, n1, n2, n3):
        assert_is_product(kernel, n1, n2, n3)
        seen.append((n1, n2, n3))
        return split_sum(table, kernel, n1, n2, n3)

    monkeypatch.setattr(moments_mod, "_split_sum", checked)
    for k in range(1, 9):
        seen.clear()
        assert even_moment_fast(k) == Fraction(*moments_mod.PINNED_MOMENTS[k - 1])
        assert sorted(seen) == sorted((2 * k - n2 - n3, n2, n3)
                                      for n3 in range(2 * k + 1) for n2 in range(n3, 2 * k + 1)
                                      if 2 * k - n2 - n3 >= n2), k


def test_a_wrong_kernel_update_is_an_integrity_error(monkeypatch):
    # a kernel that (1 - x) does not divide leaves a nonzero top row, in the
    # helper and in the route, where a wrong column step is caught by the
    # division that follows it
    kernel = kernel_by_steps(4, 1, 1)
    kernel[2][1] += 1
    with pytest.raises(MomentIntegrityError, match=r"not divisible by \(1 - x\)"):
        moments_mod._next_kernel(kernel, 0)
    step, bumped = moments_mod._next_kernel, []

    def bump_first_column_step(kernel, e):
        out = step(kernel, e)
        if e and not bumped:
            out[0][-1] += 1
            bumped.append(e)
        return out

    monkeypatch.setattr(moments_mod, "_next_kernel", bump_first_column_step)
    with pytest.raises(MomentIntegrityError, match=r"not divisible by \(1 - x\)"):
        even_moment_fast(4)
    assert bumped


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
    assert again.values == table13.values
    again.write(tmp_path / "second.tsv")
    assert (tmp_path / "second.tsv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("orders", [None, range(1, 21), [*range(1, 14), 15]],
                         ids=["golden", "1-20", "1-13,15"])
def test_read_gives_back_the_table_write_wrote(tmp_path, orders):
    # the golden file, the orders past the pins and a gap in the orders
    if orders is None:
        table = MomentTable.read(GOLDEN_MOMENTS)
    else:
        table = MomentTable({k: even_moment_fast(k) for k in orders})
    path = tmp_path / "m.tsv"
    table.write(path)
    again = MomentTable.read(path)
    assert again.values == table.values
    assert again.orders() == (list(orders) if orders else list(range(1, 14)))
    if orders is None:
        assert path.read_bytes() == GOLDEN_MOMENTS.read_bytes()


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


def test_table_cap_check_is_exact_at_the_boundary():
    # the check compares bit lengths before it builds 9^k; on values within a
    # few units of 9^-k, and across the bit-length edge, it must agree with
    # the exact comparison
    rng = random.Random(41)
    cases = 0
    for k in (1, 2, 3, 7, 20, 64):
        for num in (1, 2, 3, 5, rng.getrandbits(40) | 1, rng.getrandbits(200) | 1):
            for delta in range(-3, 4):
                v = Fraction(num, max(num * 9 ** k + delta, 1))
                if v.numerator != num:
                    continue
                cases += 1
                if v > Fraction(1, 9 ** k):
                    with pytest.raises(MomentIntegrityError, match=r"exceeds \(1/3\)\^\(2k\)"):
                        MomentTable({k: v})
                else:
                    assert MomentTable({k: v}).values == {k: v}
    assert cases > 150


def test_moment_table_writes_the_cache_once(tmp_path, monkeypatch, table13):
    # one rename of a temporary file over the target, nothing left beside it
    path = tmp_path / "m.tsv"
    replaced = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(dst) or replace(src, dst))
    table13.write(path)
    assert replaced == [path]
    assert MomentTable.read(path).values == table13.values
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]


def write_half_then_fail(self, data, **kwargs):
    """Stand-in for Path.write_text on a full disk."""
    Path.write_bytes(self, data[:len(data) // 2].encode())
    raise OSError("disk full")


def replace_fails(src, dst):
    raise OSError("rename failed")


def test_failed_cache_flush_keeps_the_previous_cache(tmp_path, monkeypatch):
    # a write that fails half way, then a rename that fails after a whole
    # temporary file was written: either way the old file stays whole and
    # the temporary file goes
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    before = path.read_bytes()
    table = MomentTable({1: Fraction(1, 2000), 2: PAPER_MOMENTS[2]})

    for target, name, stand_in, message in (
            (Path, "write_text", write_half_then_fail, "disk full"),
            (os, "replace", replace_fails, "rename failed")):
        with monkeypatch.context() as patch:
            patch.setattr(target, name, stand_in)
            with pytest.raises(OSError, match=message):
                table.write(path)
        assert path.read_bytes() == before
        assert MomentTable.read(path)[1] == PAPER_MOMENTS[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.tsv"]


def test_moment_table_verification_retags_low_orders():
    # every order up to VERIFY_ORDER_MAX is checked against its pin, and the
    # orders above it come from the fast route alone
    top = moments_mod.VERIFY_ORDER_MAX
    for k_max in (1, 2, 3, top, top + 1):
        table = moment_table(k_max)
        assert table.provenance == {k: "direct" if k <= top else "fast"
                                    for k in range(1, k_max + 1)}, k_max


def test_direct_mismatch_names_the_order(monkeypatch):
    # a fast value that differs from its pin at any checked order is refused
    fast = moments_mod.even_moment_fast
    for wrong in (2, 3):
        monkeypatch.setattr(moments_mod, "even_moment_fast",
                            lambda k: fast(k) + (Fraction(1, 10**40) if k == wrong else 0))
        with pytest.raises(MomentIntegrityError,
                           match=rf"moment k={wrong}: fast value .* != direct"):
            moment_table(3)
