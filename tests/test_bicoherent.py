"""Tests for bi-coherent state evaluation, radii and the uncertainty product."""

import math

import numpy as np
import pytest

from biquon import qcore
from biquon.bicoherent import (
    ConvergenceError,
    bicoherent_state,
    coherent_coefficients,
    eigen_check,
    empirical_radius,
    family_radius,
    norm_series,
    normalization,
    pairing,
    quon_coherent_vector,
    radius_report,
    uncertainty_product,
)
from biquon.pseudoquon import (
    IdentitySimilarity,
    RankOneSimilarity,
    build_family,
    worked_deformation,
)


def reference_norm_sum(q: float, r: float, terms: int) -> float:
    """Independent oracle: direct term-by-term summation."""
    total = 0.0
    for k in range(terms):
        total += r ** (2 * k) / qcore.q_factorial_sq(q, k - 1)
    return total


class TestNormalization:
    def test_at_origin(self):
        for q in (0.1, 0.5, 0.99, 1.0):
            assert normalization(q, 0.0) == 1.0

    def test_bosonic_branch(self):
        for r in (0.3, 0.9, 1.7):
            assert normalization(1.0, r) == pytest.approx(
                math.exp(-r * r / 2.0), rel=1e-12)

    def test_against_long_reference_sum(self):
        got = normalization(0.5, 0.6, terms=200)
        want = 1.0 / math.sqrt(reference_norm_sum(0.5, 0.6, 500))
        assert abs(got - want) < 1e-12

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            normalization(0.5, qcore.disc_radius(0.5))

    def test_insufficient_terms_rejected(self):
        with pytest.raises(ConvergenceError):
            normalization(0.5, 1.41, terms=10)

    def test_adaptive_matches_fixed(self):
        total_a, tail_a, used = norm_series(0.5, 0.9)
        total_f, _, _ = norm_series(0.5, 0.9, terms=used + 100)
        assert abs(total_a - total_f) <= tail_a + 1e-15

    def test_hard_cap_raises(self):
        q = 0.9999
        r = 0.999 * qcore.disc_radius(q)
        with pytest.raises(ConvergenceError):
            norm_series(q, r, max_terms=64)

    def test_overflowing_partial_sum_raises(self):
        # at q = 0.9999 and |z| = 0.7 rho the terms grow past double range
        # before they start to fall; an infinite sum must not pass its tail test
        with pytest.raises(ConvergenceError, match="partial sum inf"):
            norm_series(0.9999, 0.7 * qcore.disc_radius(0.9999))


class TestCoefficients:
    def test_first_values(self):
        c = coherent_coefficients(0.5, 0.7 + 0.1j, 4)
        z = 0.7 + 0.1j
        assert c[0] == 1.0
        assert c[1] == pytest.approx(z / qcore.beta(0.5, 0), rel=1e-14)
        assert c[3] == pytest.approx(z ** 3 / qcore.q_factorial(0.5, 2), rel=1e-13)


@pytest.fixture(scope="module")
def worked_256():
    source = RankOneSimilarity(worked_deformation(1j))
    q = 0.5
    family = build_family(source, q, 256)
    return family, family.a, family.b


def dense_uncertainty(state, a, b) -> complex:
    """Oracle: Delta Q Delta P with Q^2 and P^2 formed as matrices."""
    qm = (b.dense() + a.dense()) / math.sqrt(2.0)
    pm = 1j * (b.dense() - a.dense()) / math.sqrt(2.0)

    def pexp(m):
        return complex(np.vdot(state.psi_z, m @ state.phi_z))

    dq_sq = pexp(qm @ qm) - pexp(qm) ** 2
    dp_sq = pexp(pm @ pm) - pexp(pm) ** 2
    return complex(np.sqrt(dq_sq) * np.sqrt(dp_sq))


def uncertainty_at(family, z):
    """uncertainty_product at z, checked against the dense oracle."""
    state = bicoherent_state(family, z)
    res = uncertainty_product(state, family.a, family.b)
    want = dense_uncertainty(state, family.a, family.b)
    assert abs(res.product - want) <= 1e-12 * abs(want)
    return res


class TestStates:
    def test_center_state_is_vacuum_pair(self, worked_256):
        family, _, _ = worked_256
        state = bicoherent_state(family, 0.0)
        assert np.allclose(state.phi_z, family.phi.dense()[:, 0], atol=1e-15)
        assert np.allclose(state.psi_z, family.psi.dense()[:, 0], atol=1e-15)
        assert state.norm_const == 1.0

    def test_identity_family_reduces_to_quon_state(self):
        q = 0.5
        family = build_family(IdentitySimilarity(), q, 200)
        state = bicoherent_state(family, 0.5)
        ez = quon_coherent_vector(q, 0.5, 200)
        assert np.allclose(state.phi_z, ez, atol=1e-14)
        assert np.allclose(state.psi_z, ez, atol=1e-14)

    def test_outside_disc_rejected(self, worked_256):
        family, _, _ = worked_256
        with pytest.raises(ValueError):
            bicoherent_state(family, family_radius(family))

    def test_pairing_inside_disc(self, worked_256):
        family, _, _ = worked_256
        rho = family_radius(family)
        for frac in (0.2, 0.5, 0.9):
            state = bicoherent_state(family, frac * rho * np.exp(0.9j))
            assert abs(pairing(state) - 1.0) <= state.tail_bound + 1e-9

    def test_eigen_at_origin(self, worked_256):
        family, a, b = worked_256
        state = bicoherent_state(family, 0.0)
        r_phi, r_psi = eigen_check(state, a, b)
        assert r_phi < 1e-14
        assert r_psi < 1e-14

    def test_eigen_identity_family(self):
        q = 0.5
        family = build_family(IdentitySimilarity(), q, 200)
        state = bicoherent_state(family, 0.4)
        r_phi, r_psi = eigen_check(state, family.a, family.b)
        assert max(r_phi, r_psi) < 1e-10

    def test_eigen_worked_family(self, worked_256):
        family, a, b = worked_256
        state = bicoherent_state(family, 0.3)
        r_phi, r_psi = eigen_check(state, a, b)
        assert max(r_phi, r_psi) < 1e-9

    def test_underflowing_state_does_not_pass(self):
        # at q = 0.999 the K = 64 truncation is far from converged and
        # N(|z|) ~ 1e-81: the absolute residual reads ~1e-81, the relative
        # one is of order one
        q = 0.999
        family = build_family(IdentitySimilarity(), q, 64)
        z = 0.7 * family_radius(family) * np.exp(0.3j)
        state = bicoherent_state(family, z)
        assert state.norm_const < 1e-60
        assert min(eigen_check(state, family.a, family.b)) > 1.0

    def test_residual_scales_with_truncation(self):
        # doubling the truncation must shrink the residual at least by the
        # geometric factor prod |z|/beta_j over the added terms
        q = 0.9
        family = build_family(IdentitySimilarity(), q, 128)
        a, b = family.a, family.b
        z = 0.85 * family_radius(family)
        r32 = max(eigen_check(bicoherent_state(family, z, terms=32), a, b))
        r64 = max(eigen_check(bicoherent_state(family, z, terms=64), a, b))
        bs = qcore.BetaSequence(q, 64)
        factor = np.prod([z / bs.beta(j) for j in range(32, 64)])
        assert r64 <= r32 * factor * 10 + 1e-14
        assert r32 > 1e-9   # the probe point must actually exercise the tail

    def test_boson_limit_coefficients(self):
        q = 1.0 - 1e-6
        family = build_family(IdentitySimilarity(), q, 64)
        state = bicoherent_state(family, 0.8)
        expected = np.exp(-0.32) * np.array(
            [0.8 ** k / math.sqrt(math.factorial(k)) for k in range(21)])
        assert np.max(np.abs(state.phi_z[:21] - expected)) < 1e-4


class TestRadii:
    def test_riesz_policy(self, worked_256):
        family, _, _ = worked_256
        norms_phi = family.phi.column_norms(48)
        norms_psi = family.psi.column_norms(48)
        rep = radius_report(norms_phi, norms_psi, family.q, "riesz")
        assert rep.rho == pytest.approx(qcore.disc_radius(family.q), rel=1e-14)
        assert rep.r_phi == 1.0
        assert rep.M_limit_phi == 1.0
        assert rep.A_phi >= 1.0

    def test_empirical_matches_for_riesz_family(self, worked_256):
        family, _, _ = worked_256
        norms = family.phi.column_norms(48)
        rep = radius_report(norms, norms, family.q, "riesz")
        target = qcore.disc_radius(family.q)
        assert abs(rep.empirical_rho_phi - target) / target < 0.05

    def test_position_policy_radius(self):
        # policy constants force rho = sqrt(1-q) regardless of sample values
        rng = np.random.default_rng(5)
        norms = 1.0 + 0.2 * rng.uniform(size=24)
        for q in (0.3, 0.5, 0.8):
            rep = radius_report(norms, norms, q, "position")
            assert rep.rho == pytest.approx(math.sqrt(1.0 - q), rel=1e-12)

    def test_fit_policy_recovers_synthetic_growth(self):
        q, a_true, r_true = 0.5, 2.0, 1.3
        n = np.arange(32)
        norms = a_true * r_true ** n
        rep = radius_report(norms, norms, q, "fit")
        assert rep.M_limit_phi == 1.0
        assert rep.r_phi == pytest.approx(r_true, rel=1e-10)
        assert rep.A_phi == pytest.approx(a_true, rel=1e-10)
        assert rep.rho == pytest.approx(qcore.disc_radius(q) / r_true, rel=1e-10)

    def test_fit_policy_detects_factorial_growth(self):
        q = 0.5
        bs = qcore.BetaSequence(q, 40)
        norms = np.array([3.0 * bs.factorial(n - 1) for n in range(40)])
        rep = radius_report(norms, norms, q, "fit")
        assert rep.M_limit_phi == pytest.approx(math.sqrt(1.0 - q), rel=1e-12)

    def test_empirical_radius_pure_geometric(self):
        q = 0.5
        bs = qcore.BetaSequence(q, 40)
        coeffs = np.array([0.7 ** n * bs.factorial(n - 1) for n in range(40)])
        # coefficient norms ||phi_n||/beta! = 0.7^n -> radius 1/0.7
        assert empirical_radius(coeffs / np.array(
            [bs.factorial(n - 1) for n in range(40)])) == pytest.approx(1 / 0.7, rel=1e-6)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            radius_report(np.ones(8), np.ones(8), 0.5)


class TestUncertainty:
    def test_at_origin(self, worked_256):
        family, _, _ = worked_256
        res = uncertainty_at(family, 0.0)
        assert abs(res.product - 0.5) < 1e-12
        assert res.predicted == 0.5

    def test_identity_family_formula_point(self):
        family = build_family(IdentitySimilarity(), 0.5, 128)
        res = uncertainty_at(family, 0.6)
        assert res.predicted == pytest.approx(0.41, abs=1e-15)
        assert abs(res.product - 0.41) < 1e-8

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_matches_prediction_across_disc(self, q):
        family = build_family(RankOneSimilarity(worked_deformation(1j)), q, 256)
        rho = family_radius(family)
        for frac in (0.0, 0.3, 0.6):
            res = uncertainty_at(family, frac * rho * np.exp(1.1j))
            assert abs(res.product - res.predicted) < 1e-7

    def test_boson_limit(self):
        family = build_family(IdentitySimilarity(), 1.0 - 1e-6, 64)
        res = uncertainty_at(family, 0.9 + 0.2j)
        assert abs(res.product - 0.5) < 1e-4

    def test_squared_deviations_are_real_positive_here(self, worked_256):
        # not a paper guarantee; recorded as observed behavior of the
        # pseudo-expectation on these families
        family, _, _ = worked_256
        res = uncertainty_at(family, 0.4 + 0.3j)
        assert res.dq_sq.real > 0
        assert abs(res.dq_sq.imag) < 1e-10
        assert abs(res.dp_sq.imag) < 1e-10
