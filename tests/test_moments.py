import os
import random
from fractions import Fraction
from math import prod

import pytest

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
    # 3D = z1*F1 + z2*F2 + z3*F3 with each F_i free of z
    for _, vars_ in TERMS_3D:
        assert sum(v.startswith("z") for v in vars_) == 1
    f1, f2, f3, layouts = _z_split()
    rng = random.Random(23)
    for k in (1, 2, 3):
        for _ in range(4 if k < 3 else 2):
            point = [Fraction(rng.randrange(1, 24), 72) for _ in range(9)]
            value = dict(zip(VAR_NAMES, point))
            split = sum(value[f"z{i}"] * sum(
                c * prod(value[v] ** e for v, e in zip(layouts[i], exps))
                for exps, c in f.items())
                for i, f in ((1, f1), (2, f2), (3, f3)))
            assert split ** (2 * k) == det_value(point, 2 * k)


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


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="~4.5 min; set TETRAVOL_SLOW=1 to run")
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


def test_moment_table_resumes_partial_cache(tmp_path):
    path = tmp_path / "m.tsv"
    MomentTable({1: Fraction(1, 2000)}).write(path)
    table = moment_table(2, cache_path=path, verify=False)
    assert table[2] == PAPER_MOMENTS[2]
    assert table.provenance == {1: "file", 2: "fast"}
    # rerun loads everything from the file and rewrites nothing
    before = path.read_bytes()
    again = moment_table(2, cache_path=path, verify=False)
    assert again == table
    assert again.provenance == {1: "file", 2: "file"}
    assert path.read_bytes() == before


def test_moment_table_verification_retags_low_orders(tmp_path):
    table = moment_table(2)
    assert table.provenance == {1: "direct", 2: "direct"}
