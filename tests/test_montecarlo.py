from fractions import Fraction

import numpy as np
import pytest

from tetravol.montecarlo import (
    FACET_CENTROID,
    MODE_ALL_RANDOM,
    MODE_CENTROID,
    UNIT_TETRA_VERTICES,
    estimate,
    sample_uniform_tetrahedron,
    tetra_volume,
)

T_O_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_tetra_volume_standard():
    assert tetra_volume(*T_O_VERTICES) == pytest.approx(1 / 6)


def test_tetra_volume_degenerate():
    p = np.array([0.3, 0.2, 0.1])
    assert tetra_volume(p, p, p, p) == 0.0


def test_tetra_volume_unit_representative():
    assert tetra_volume(*UNIT_TETRA_VERTICES) == pytest.approx(1.0)


def test_sample_containment_and_mean():
    rng = np.random.Generator(np.random.Philox(key=42))
    pts = np.array([sample_uniform_tetrahedron(rng, T_O_VERTICES)
                    for _ in range(20000)])
    assert (pts >= 0).all()
    sums = pts.sum(axis=1)
    assert (sums <= 1 + 1e-12).all()
    # centroid of T_o is (1/4, 1/4, 1/4); per-coordinate sd is ~0.194
    se = pts.std(axis=0, ddof=1) / len(pts) ** 0.5
    assert (np.abs(pts.mean(axis=0) - 0.25) < 4 * se).all()
    # similar-tetrahedron volume ratio: P(x+y+z <= 1/2) = (1/2)^3
    frac = float((sums <= 0.5).mean())
    assert abs(frac - 0.125) < 4 * (0.125 * 0.875 / len(pts)) ** 0.5


def test_sample_rejects_degenerate_vertices():
    rng = np.random.Generator(np.random.Philox(key=0))
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        sample_uniform_tetrahedron(rng, flat)


def test_estimate_reproducible():
    a = estimate(MODE_CENTROID, 1, 100_000, seed=7)
    b = estimate(MODE_CENTROID, 1, 100_000, seed=7)
    assert a == b
    d = estimate(MODE_CENTROID, 1, 100_000, seed=8)
    assert d.mean != a.mean


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

    n = 2_000_000
    gen = _block_generator(314159, 0)
    e = gen.standard_exponential((n, 3, 4))
    w = e / e.sum(axis=2, keepdims=True)
    pts = w @ UNIT_TETRA_VERTICES
    vol = tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2], FACET_CENTROID)
    t = vol * vol
    pv = np.zeros_like(vol)
    for c in coeffs[::-1]:
        pv = pv * t + c
    se = float(pv.std(ddof=1)) / n**0.5
    assert abs(float(pv.mean()) - exact) < 4 * se


def test_facet_centroid_location():
    assert FACET_CENTROID == pytest.approx(6 ** (1 / 3) * np.array([1 / 3, 1 / 3, 0]))
