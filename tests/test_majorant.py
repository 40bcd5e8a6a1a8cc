import random
from fractions import Fraction

import pytest

from tetravol.majorant import (
    EvenPoly,
    MomentOrderError,
    NodeSet,
    _require_orders,
    expected_value,
    hermite_coefficients,
    hermite_onesided,
)
from tetravol.certificate import verify_dominance
from tetravol.moments import MomentTable

from oracles import (
    REFERENCE_NODES,
    expected_value_fraction,
    hermite_coefficients_newton,
    poly_derivative,
    poly_eval,
    x_coefficients,
)


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
        p = x_coefficients(hermite_onesided(nodes))
        for x in nodes:
            assert poly_eval(p, x) == x
            assert poly_eval(poly_derivative(p), x) == 1


def test_eval_examples():
    p = x_coefficients(hermite_onesided(NodeSet((Fraction(1, 3),))))
    assert poly_eval(p, Fraction(0)) == Fraction(1, 6)
    assert poly_eval(p, Fraction(1, 3)) == Fraction(1, 3)
    assert poly_eval(poly_derivative(p), Fraction(1, 3)) == 1


def test_dominance_on_grid():
    rng = random.Random(9)
    nodes = random_node_set(rng)
    p = x_coefficients(hermite_onesided(nodes))
    for i in range(1001):
        x = Fraction(i, 3003)
        assert poly_eval(p, x) >= x


def test_double_root_structure():
    rng = random.Random(13)
    for _ in range(5):
        nodes = random_node_set(rng)
        p = hermite_onesided(nodes)
        proof = verify_dominance(p, nodes)
        assert proof.remainder_is_zero


def test_evenness_is_structural():
    p = x_coefficients(hermite_onesided(NodeSet((Fraction(1, 5), Fraction(1, 4)))))
    assert poly_eval(p, Fraction(1, 7)) == poly_eval(p, Fraction(-1, 7))


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


@pytest.mark.parametrize("top, need, message", [
    pytest.param(2, {"nodes": 5}, "[3..9] needed for 5 nodes", id="5-nodes"),
    pytest.param(2, {"degree": 12}, "[3..6] needed for degree 12", id="degree-12"),
    pytest.param(0, {"nodes": 1}, "[1] needed for 1 node", id="1-node-no-order-1"),
    pytest.param(2, {"nodes": 1}, None, id="1-node-covered"),
    pytest.param(12, {"nodes": 7}, "[13] needed for 7 nodes", id="k-max-12"),
    pytest.param(11, {"nodes": 7}, "[12, 13] needed for 7 nodes", id="k-max-11"),
])
def test_require_orders_names_the_missing_runs(table13, top, need, message):
    # one rule for a polynomial's degree and for a node count: n nodes need
    # orders 1..2n - 1; a table of orders 1..top lacks top + 1 onwards, and
    # three or more missing orders read a..b
    moments = MomentTable({k: table13[k] for k in range(1, top + 1)})
    if message is None:
        _require_orders(moments, **need)
        return
    with pytest.raises(MomentOrderError) as info:
        _require_orders(moments, **need)
    assert str(info.value) == f"moment table lacks orders {message}"


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


def test_node_file_with_a_comment_is_refused(tmp_path):
    # a node file is read only as `write` writes it: no comment, no blank line
    path = tmp_path / "nodes.txt"
    path.write_text("# reference set\n1/4\n\n1/3\n")
    with pytest.raises(ValueError, match=r"nodes.txt:1: '# reference set\\n' is not a node"):
        NodeSet.read(path)


def test_hermite_coefficients_equal_the_newton_expansion(seeded_node_sets):
    for nodes in seeded_node_sets:
        assert hermite_coefficients(nodes.nodes) == hermite_coefficients_newton(nodes.nodes), nodes


def test_hermite_coefficients_edge_cases_equal_the_newton_expansion():
    rng = random.Random(1707)
    big = 10 ** 300
    cases = [
        [Fraction(1, 3)],
        [Fraction(2, 7)],
        [Fraction(1, big + 1)],
        [Fraction(1, 83), Fraction(1, 22), Fraction(1, 3)],
        [Fraction(k, 100) for k in range(1, 8)] + [Fraction(1, 3)],
        # 300-digit denominators, alone and before the node 1/3
        sorted({Fraction(rng.randrange(1, big // 3), big + rng.randrange(big))
                for _ in range(4)}),
        sorted({Fraction(rng.randrange(1, big // 3), big + rng.randrange(big))
                for _ in range(3)}) + [Fraction(1, 3)],
    ]
    for xs in cases:
        assert hermite_coefficients(xs) == hermite_coefficients_newton(xs), xs


def test_expected_value_equals_the_fraction_sum(seeded_node_sets, table13):
    checked = 0
    for nodes in seeded_node_sets:
        poly = hermite_onesided(nodes)
        if len(nodes) > 7:  # orders 1..2n - 1 exceed the 13 of table13
            with pytest.raises(MomentOrderError):
                expected_value(poly, table13)
            continue
        assert expected_value(poly, table13) == expected_value_fraction(poly, table13), nodes
        checked += 1
    assert checked == 175  # the sets of at most 7 nodes
