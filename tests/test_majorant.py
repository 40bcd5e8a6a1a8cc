import random
from fractions import Fraction

import pytest

from tetravol.majorant import (
    EvenPoly,
    MomentOrderError,
    NodeSet,
    expected_value,
    hermite_coefficients,
    hermite_onesided,
)
from tetravol.certificate import REFERENCE_NODES, verify_dominance
from tetravol.moments import MomentTable


def random_node_set(rng: random.Random, max_m: int = 4) -> NodeSet:
    """Sorted distinct rationals in (0, 1/3]."""
    count = rng.randrange(1, max_m + 2)
    nodes = set()
    while len(nodes) < count:
        q = rng.randrange(4, 60)
        p = rng.randrange(1, q)
        x = Fraction(p, q)
        if 0 < x <= Fraction(1, 3):
            nodes.add(x)
    return NodeSet(tuple(sorted(nodes)))


def test_single_node_closed_form():
    p = hermite_onesided(NodeSet((Fraction(1, 3),)))
    assert p.coeffs == (Fraction(1, 6), Fraction(3, 2))
    assert p.degree == 2


def test_reference_nodes_give_degree_26():
    p = hermite_onesided(NodeSet(REFERENCE_NODES))
    assert p.degree == 26
    assert len(p.coeffs) == 14


def test_float_coefficients_match_exact_on_reference_nodes():
    # node_search polishes nodes with the float path of the same routine
    exact = hermite_coefficients(REFERENCE_NODES)
    approx = hermite_coefficients([float(x) for x in REFERENCE_NODES])
    assert all(type(c) is float for c in approx)
    for a, e in zip(approx, exact):
        assert abs(a - float(e)) <= 1e-12 * abs(float(e))


def test_degree_contract():
    rng = random.Random(3)
    for _ in range(5):
        nodes = random_node_set(rng)
        p = hermite_onesided(nodes)
        m = len(nodes) - 1
        assert p.degree == 2 * (2 * m + 1)


def test_interpolation_conditions_exact():
    rng = random.Random(5)
    for _ in range(10):
        nodes = random_node_set(rng)
        p = hermite_onesided(nodes)
        for x in nodes:
            assert p.eval(x) == x
            assert p.eval_derivative(x) == 1


def test_eval_examples():
    p = hermite_onesided(NodeSet((Fraction(1, 3),)))
    assert p.eval(Fraction(0)) == Fraction(1, 6)
    assert p.eval(Fraction(1, 3)) == Fraction(1, 3)
    assert p.eval_derivative(Fraction(1, 3)) == 1


def test_dominance_on_grid():
    rng = random.Random(9)
    nodes = random_node_set(rng)
    p = hermite_onesided(nodes)
    for i in range(1001):
        x = Fraction(i, 3003)
        assert p.eval(x) >= x


def test_double_root_structure():
    rng = random.Random(13)
    for _ in range(5):
        nodes = random_node_set(rng)
        p = hermite_onesided(nodes)
        proof = verify_dominance(p, nodes)
        assert proof.remainder_is_zero


def test_evenness_is_structural():
    p = hermite_onesided(NodeSet((Fraction(1, 5), Fraction(1, 4))))
    assert p.eval(Fraction(1, 7)) == p.eval(Fraction(-1, 7))


def test_expected_value_constant():
    table = MomentTable({1: Fraction(1, 2000)})
    assert expected_value(EvenPoly((Fraction(2, 7),)), table) == Fraction(2, 7)


def test_expected_value_single_node_example():
    table = MomentTable({1: Fraction(1, 2000)})
    p = hermite_onesided(NodeSet((Fraction(1, 3),)))
    assert expected_value(p, table) == Fraction(2009, 12000)


def test_expected_value_missing_order_lists_it():
    table = MomentTable({1: Fraction(1, 2000)})
    p = hermite_onesided(NodeSet((Fraction(1, 5), Fraction(1, 4))))  # needs k<=3
    with pytest.raises(MomentOrderError, match=r"\[2, 3\]"):
        expected_value(p, table)


def test_node_set_validation():
    with pytest.raises(ValueError):
        NodeSet((Fraction(1, 4), Fraction(1, 4)))
    with pytest.raises(ValueError):
        NodeSet((Fraction(-1, 4), Fraction(1, 3)))
    with pytest.raises(ValueError):
        NodeSet((Fraction(1, 3), Fraction(1, 4)))
    with pytest.raises(ValueError):
        NodeSet(())


def test_even_poly_validation():
    with pytest.raises(ValueError):
        EvenPoly((Fraction(1), Fraction(0)))
    with pytest.raises(ValueError):
        EvenPoly(())


def test_node_file_round_trip(tmp_path):
    nodes = NodeSet(REFERENCE_NODES)
    path = tmp_path / "nodes.txt"
    nodes.write(path)
    assert path.read_text() == ("1/83\n1/22\n1/11\n2/15\n2/11\n5/22\n4/15\n")
    assert NodeSet.read(path) == nodes


def test_node_file_skips_comments(tmp_path):
    path = tmp_path / "nodes.txt"
    path.write_text("# reference set\n1/4\n\n1/3\n")
    assert NodeSet.read(path).nodes == (Fraction(1, 4), Fraction(1, 3))
