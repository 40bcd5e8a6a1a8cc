from fractions import Fraction

import pytest

import tetravol
from tetravol.certificate import (
    REFERENCE_NODES,
    VERDICT_FALSE,
    VERDICT_TRUE,
    certify,
    parse_report,
    render_report,
    sturm_root_count,
    verify_dominance,
)
from tetravol.majorant import EvenPoly, MomentOrderError, NodeSet, hermite_onesided
from tetravol.moments import MomentTable
from tetravol.rational import fraction_to_decimal


def test_sturm_known_roots():
    # (x - 1/4)(x - 1/5) = x^2 - 9/20 x + 1/20
    p = [Fraction(1, 20), Fraction(-9, 20), Fraction(1)]
    assert sturm_root_count(p, Fraction(0), Fraction(1, 3)) == 2
    assert sturm_root_count(p, Fraction(0), Fraction(22, 100)) == 1
    # x^2 + 1 has no real roots
    assert sturm_root_count([Fraction(1), Fraction(0), Fraction(1)],
                            Fraction(0), Fraction(1, 3)) == 0
    # double root counted once
    q = [Fraction(1, 16), Fraction(-1, 2), Fraction(1)]  # (x - 1/4)^2
    assert sturm_root_count(q, Fraction(0), Fraction(1, 3)) == 1


def test_sturm_rejects_root_at_endpoint():
    p = [Fraction(0), Fraction(1)]  # x
    with pytest.raises(ValueError):
        sturm_root_count(p, Fraction(0), Fraction(1, 3))


def test_dominance_single_node():
    nodes = NodeSet((Fraction(1, 3),))
    proof = verify_dominance(hermite_onesided(nodes), nodes)
    assert proof.quotient == (Fraction(3, 2),)
    assert proof.remainder_is_zero
    assert proof.interior_root_count == 0
    assert proof.sign_at_zero > 0 and proof.sign_at_end > 0
    assert proof.valid


def test_dominance_reference_nodes():
    nodes = NodeSet(REFERENCE_NODES)
    proof = verify_dominance(hermite_onesided(nodes), nodes)
    assert proof.valid
    assert proof.interior_root_count == 0
    assert len(proof.quotient) == 26 - 14 + 1


def test_dominance_rejects_tampered_polynomial():
    nodes = NodeSet(REFERENCE_NODES)
    p = hermite_onesided(nodes)
    coeffs = list(p.coeffs)
    coeffs[0] -= Fraction(1, 10**6)
    proof = verify_dominance(EvenPoly(tuple(coeffs)), nodes)
    assert not proof.valid
    assert not proof.remainder_is_zero


def test_certify_reference_nodes(table13):
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    assert cert.verdict is True
    assert fraction_to_decimal(cert.bound, 9).startswith("0.0173791")
    assert cert.margin > Fraction(1, 10**5)
    assert cert.dominance.valid


def test_certify_single_node_fails_comparison(table13):
    cert = certify(NodeSet((Fraction(1, 3),)), table13)
    assert cert.bound == Fraction(2009, 12000)
    assert cert.verdict is False
    assert cert.dominance.valid  # majorant fine, bound just too weak
    assert cert.margin < 0


def test_certificate_names_the_package_version():
    cert = certify(NodeSet((Fraction(1, 3),)), MomentTable({1: Fraction(1, 2000)}))
    assert cert.metadata["tool"] == f"tetravol {tetravol.__version__}"


def test_certify_requires_all_orders(table13):
    truncated = MomentTable({k: table13[k] for k in range(1, 13)})
    with pytest.raises(MomentOrderError):
        certify(NodeSet(REFERENCE_NODES), truncated)


def test_report_contains_verdict_and_round_trips(table13):
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    text = render_report(cert)
    assert f"verdict: {VERDICT_TRUE}" in text
    assert "bound-decimal: 0.0173791" in text
    assert parse_report(text) == cert


def test_failing_report_shows_deficit(table13):
    cert = certify(NodeSet((Fraction(1, 3),)), table13)
    text = render_report(cert)
    assert f"verdict: {VERDICT_FALSE}" in text
    assert "deficit: " in text
    deficit = -(cert.target.lo - cert.bound)
    assert f"deficit: {deficit.numerator}/{deficit.denominator}" in text
    assert parse_report(text) == cert


def test_report_rejects_garbage():
    from tetravol.certificate import ReportFormatError
    with pytest.raises(ReportFormatError):
        parse_report("not a certificate\n")
