"""Tests for bi-coherent state evaluation, radii and the uncertainty product."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biquon import bicoherent, qcore
from biquon.bicoherent import (
    _moments,
    bicoherent_state,
    eigen_check,
    empirical_radius,
    log_coefficients,
    norm_series,
    normalization,
    pairing,
    quon_coherent_vector,
    radius_bound_ratios,
    ratio_radius,
    uncertainty_product,
)
from biquon.pseudoquon import (
    Deformation,
    build_family,
    worked_deformation,
)

EPS = np.finfo(float).eps


def reference_norm_sum(q: float, r: float) -> float:
    """Independent oracle: log sum_k r^{2k} / [k]!, summed term by term.

    The log terms are cumulative sums of log(r^2 / [k]), with [k] taken as
    -expm1(k log q) / (1 - q), and the length doubles until the last term
    falls below 1e-20 of the largest.
    """
    terms = 64
    while True:
        k = np.arange(1, terms)
        bracket = -np.expm1(k * math.log(q)) / (1.0 - q)
        log_terms = np.concatenate(([0.0], np.cumsum(2.0 * math.log(r) - np.log(bracket))))
        top = np.max(log_terms)
        if log_terms[-1] - top < math.log(1e-20):
            return float(top + math.log(np.sum(np.exp(log_terms - top))))
        terms *= 2


class TestNormalization:
    def test_at_origin(self):
        for q in (0.1, 0.5, 0.99, 1.0):
            assert normalization(q, 0.0) == 1.0

    @given(r=st.floats(0.0, 20.0))
    def test_bosonic_branch(self, r):
        # at q = 1 the closed form keeps one term, r^2
        assert norm_series(1.0, r)[2] == 1
        assert normalization(1.0, r) == pytest.approx(math.exp(-r * r / 2.0), rel=1e-15)

    # the oracle's length grows like 1 / (1 - q), so q stops at 1 - 1e-4;
    # q = 0.9999 at 0.7 rho is where the linear sum overflows
    @given(q=st.floats(0.0, 1.0 - 1e-4, exclude_min=True),
           r_frac=st.floats(0.0, 0.95, exclude_min=True))
    @example(q=1.0 - 1e-4, r_frac=0.7)
    def test_against_long_reference_sum(self, q, r_frac):
        r = r_frac * qcore.disc_radius(q)
        log_sum, tail, _ = norm_series(q, r)
        want = reference_norm_sum(q, r)
        assert abs(log_sum - want) <= 1e-12 * max(1.0, want)
        assert 0.0 <= tail <= 1e-15 * max(1.0, log_sum)
        assert normalization(q, r) == pytest.approx(
            math.exp(-want / 2.0), rel=1e-12 * max(1.0, want), abs=1e-300)

    def test_terms_from_the_closed_form_ratio(self):
        # the sum stops at the first M with (xq)^M <= 2^-53, x = (1-q) r^2
        for q, r_frac, terms in ((0.5, 0.9, 41), (0.5, 0.999, 53),
                                 (0.999, 0.9, 174), (0.999, 0.99, 1741)):
            assert norm_series(q, r_frac * qcore.disc_radius(q))[2] == terms

    def test_array_of_moduli_gives_each_modulus_bits(self):
        # an array sums each modulus's own leading terms of one table, so
        # every entry is the scalar call's, and terms is their total
        q = 0.5
        r = np.array([0.0, 0.3, 0.9, 0.999]) * qcore.disc_radius(q)
        r[2] = np.nextafter(r[2], 0.0)
        log_sum, tail, terms = norm_series(q, r)
        one = [norm_series(q, x) for x in r.tolist()]
        assert log_sum.tolist() == [x[0] for x in one]
        assert tail.tolist() == [x[1] for x in one]
        assert terms == sum(x[2] for x in one)
        assert normalization(q, r).tolist() == [normalization(q, x) for x in r.tolist()]

    def test_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            normalization(0.5, qcore.disc_radius(0.5))


class TestCoefficients:
    def test_first_values(self):
        for q in (0.3, 0.5, 1.0):
            fact = qcore.BetaSequence(q, 12).factorial[:12]         # beta_{k-1}!
            for z in (0.7 + 0.1j, -1.2j, 0.0):
                want = np.array([z ** k for k in range(12)]) / fact
                c = np.exp(log_coefficients(q, abs(z), 12))
                assert np.allclose(c, np.abs(want), rtol=1e-13, atol=0.0)
                if q == 1.0 or abs(z) < qcore.disc_radius(q):
                    ez = quon_coherent_vector(q, z, 12)
                    assert np.allclose(ez, normalization(q, abs(z)) * want,
                                       rtol=1e-13, atol=0.0)

    def test_modulus_at_most_one(self):
        # at q = 0.999 and |z| = 0.9 rho, N underflows and z^k / beta_{k-1}!
        # overflows, but every normalized coefficient stays in range; with
        # log N near -535 the norm holds to a few thousand ulps
        q = 0.999
        z = 0.9 * qcore.disc_radius(q) * np.exp(0.4j)
        ez = quon_coherent_vector(q, z, 4096)
        assert normalization(q, abs(z)) < 1e-200
        assert np.all(np.isfinite(ez)) and np.max(np.abs(ez)) <= 1.0
        assert np.linalg.norm(ez) == pytest.approx(1.0, abs=1e-11)


@pytest.fixture(scope="module")
def worked_256():
    source = worked_deformation(1j)
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
    res = uncertainty_product(state)
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
        family = build_family(Deformation(), q, 200)
        state = bicoherent_state(family, 0.5)
        ez = quon_coherent_vector(q, 0.5, 200)
        assert np.allclose(state.phi_z, ez, atol=1e-14)
        assert np.allclose(state.psi_z, ez, atol=1e-14)

    def test_outside_disc_rejected(self, worked_256):
        family, _, _ = worked_256
        with pytest.raises(ValueError):
            bicoherent_state(family, qcore.disc_radius(family.q))

    def test_pairing_inside_disc(self, worked_256):
        family, _, _ = worked_256
        rho = qcore.disc_radius(family.q)
        for frac in (0.2, 0.5, 0.9):
            state = bicoherent_state(family, frac * rho * np.exp(0.9j))
            assert abs(pairing(state) - 1.0) <= state.tail_bound + 1e-9

    def test_eigen_at_origin(self, worked_256):
        family, _, _ = worked_256
        state = bicoherent_state(family, 0.0)
        r_phi, r_psi = eigen_check(state)
        assert r_phi < 1e-14
        assert r_psi < 1e-14

    def test_eigen_identity_family(self):
        q = 0.5
        family = build_family(Deformation(), q, 200)
        state = bicoherent_state(family, 0.4)
        r_phi, r_psi = eigen_check(state)
        assert max(r_phi, r_psi) < 1e-10

    def test_eigen_worked_family(self, worked_256):
        family, _, _ = worked_256
        state = bicoherent_state(family, 0.3)
        r_phi, r_psi = eigen_check(state)
        assert max(r_phi, r_psi) < 1e-9

    def test_underflowing_state_does_not_pass(self):
        # at q = 0.999 the K = 64 truncation is far from converged and
        # N(|z|) ~ 1e-81: the absolute residual reads ~1e-81, the relative
        # one is of order one
        q = 0.999
        family = build_family(Deformation(), q, 64)
        z = 0.7 * qcore.disc_radius(family.q) * np.exp(0.3j)
        state = bicoherent_state(family, z)
        assert state.norm_const < 1e-60
        assert min(eigen_check(state)) > 1.0

    def test_residual_scales_with_truncation(self):
        # doubling the truncation must shrink the residual at least by the
        # geometric factor prod |z|/beta_j over the added terms
        q = 0.9
        z = 0.85 * qcore.disc_radius(q)
        families = [build_family(Deformation(), q, dim) for dim in (32, 64)]
        r32, r64 = (max(eigen_check(bicoherent_state(f, z))) for f in families)
        factor = np.prod(z / qcore.BetaSequence(q, 64).beta[33:65])    # beta_32 .. beta_63
        assert r64 <= r32 * factor * 10 + 1e-14
        assert r32 > 1e-9   # the probe point must actually exercise the tail

    def test_boson_limit_coefficients(self):
        q = 1.0 - 1e-6
        family = build_family(Deformation(), q, 64)
        state = bicoherent_state(family, 0.8)
        expected = np.exp(-0.32) * np.array(
            [0.8 ** k / math.sqrt(math.factorial(k)) for k in range(21)])
        assert np.max(np.abs(state.phi_z[:21] - expected)) < 1e-4


class TestRadii:
    def test_ratio_radius_of_riesz_family(self, worked_256):
        # past its block the worked family's norms are 1, so the ratio test
        # at the last safe index reads beta_n, which is the disc radius
        # once q^n is below roundoff
        family, _, _ = worked_256
        target = qcore.disc_radius(family.q)
        for op in (family.phi, family.psi):
            norms = op.column_norms(family.safe_dim)
            assert ratio_radius(norms, family.q) == pytest.approx(target, rel=1e-12)

    def test_empirical_matches_for_riesz_family(self, worked_256):
        family, _, _ = worked_256
        coeffs = family.phi.column_norms(48) / qcore.BetaSequence(family.q, 48).factorial[:48]
        target = qcore.disc_radius(family.q)
        assert abs(empirical_radius(coeffs) - target) / target < 0.05

    def test_radius_bound_ratios_at_the_bound(self):
        # norms equal to the bound read 1 at every n, up to rounding
        q, log_a = 0.6, 0.3
        fact = qcore.BetaSequence(q, 40).factorial[:40]
        n = np.arange(40)
        norms = np.exp(log_a) * (n + 1) * fact * (1.0 - q) ** (-n / 2)
        assert np.allclose(radius_bound_ratios(norms, q, log_a), 1.0,
                           rtol=1e-13, atol=0.0)

    def test_empirical_radius_pure_geometric(self):
        q = 0.5
        fact = qcore.BetaSequence(q, 40).factorial[:40]
        coeffs = 0.7 ** np.arange(40) * fact
        # coefficient norms ||phi_n||/beta! = 0.7^n -> radius 1/0.7
        assert empirical_radius(coeffs / fact) == pytest.approx(1 / 0.7, rel=1e-6)

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            empirical_radius(np.ones(7))
        with pytest.raises(ValueError):
            ratio_radius(np.ones(1), 0.5)


class TestUncertainty:
    def test_at_origin(self, worked_256):
        family, _, _ = worked_256
        res = uncertainty_at(family, 0.0)
        assert abs(res.product - 0.5) < 1e-12
        assert res.predicted == 0.5

    def test_identity_family_formula_point(self):
        family = build_family(Deformation(), 0.5, 128)
        res = uncertainty_at(family, 0.6)
        assert res.predicted == pytest.approx(0.41, abs=1e-15)
        assert abs(res.product - 0.41) < 1e-8

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_matches_prediction_across_disc(self, q):
        family = build_family(worked_deformation(1j), q, 256)
        rho = qcore.disc_radius(family.q)
        for frac in (0.0, 0.3, 0.6):
            res = uncertainty_at(family, frac * rho * np.exp(1.1j))
            assert abs(res.product - res.predicted) < 1e-7

    def test_boson_limit(self):
        family = build_family(Deformation(), 1.0 - 1e-6, 64)
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


FAMILIES = {"identity": Deformation(),
            "worked": worked_deformation(1j)}
# repeated fractions put several points on one ring
POINTS = st.lists(st.tuples(st.sampled_from([0.0, 0.45, 0.9]) | st.floats(0.0, 0.9),
                            st.floats(0.0, 2.0 * math.pi)),
                  min_size=1, max_size=8)


class TestMoments:
    """The six pseudo-moments from four operator products, against
    <psi(z), XY phi(z)> with X, Y dense K x K matrices."""

    @pytest.mark.parametrize("kind,q", [(kind, q) for kind in sorted(FAMILIES)
                                        for q in (0.3, 0.5, 0.9)]
                             + [("identity", 1.0 - 1e-6)])
    def test_match_dense_products(self, kind, q):
        family = build_family(FAMILIES[kind], q, 64)
        if q < 0.99:
            rho = qcore.disc_radius(family.q)
            zs = np.outer([0.0, 0.3, 0.6, 0.9], rho * np.exp(1j * np.array([0.3, 2.5, 4.0])))
            zs = zs.ravel()
        else:
            zs = np.array([0.9 + 0.2j])     # the boson-limit point of 09b
        state = bicoherent_state(family, zs)
        got = _moments(state)
        a, b = family.a.dense(), family.b.dense()
        dense = {"a": a, "b": b, "aa": a @ a, "ab": a @ b, "ba": b @ a, "bb": b @ b}
        scale = 1.0 + np.abs(zs) ** 2
        for key, m in dense.items():
            want = np.sum(state.psi_z.conj() * (m @ state.phi_z), axis=0)
            assert np.all(np.abs(got[key] - want) <= 64 * EPS * scale), key

    def test_products_do_not_commute_here(self, worked_256):
        # <ab> - <ba> = <[a, b]> is about 1, so the order of the two
        # products in a moment is seen
        family, _, _ = worked_256
        m = _moments(bicoherent_state(family, 0.4 + 0.3j))
        assert abs(m["ab"] - m["ba"]) > 0.5


class TestColumnBatch:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(FAMILIES)), q=st.floats(0.2, 0.8),
           points=POINTS)
    def test_columns_match_single_points(self, kind, q, points):
        family = build_family(FAMILIES[kind], q, 64)
        rho = qcore.disc_radius(family.q)
        zs = np.array([frac * rho * cmath.exp(1j * ang) for frac, ang in points])
        batch = bicoherent_state(family, zs)
        eig = eigen_check(batch)
        pair = pairing(batch)
        unc = uncertainty_product(batch)
        assert batch.phi_z.shape == (family.K, len(zs))

        def close(got, want):
            return abs(got - want) <= 1e-12 * max(1.0, abs(want))

        for j, z in enumerate(zs):
            one = bicoherent_state(family, z)
            scale = max(1.0, np.max(np.abs(one.phi_z)), np.max(np.abs(one.psi_z)))
            assert np.max(np.abs(batch.phi_z[:, j] - one.phi_z)) <= 1e-14 * scale
            assert np.max(np.abs(batch.psi_z[:, j] - one.psi_z)) <= 1e-14 * scale
            assert batch.z[j] == one.z
            assert batch.norm_const[j] == one.norm_const
            assert batch.tail_bound[j] == one.tail_bound
            for got, want in zip(eig, eigen_check(one)):
                assert close(got[j], want)
            assert close(pair[j], pairing(one))
            one_unc = uncertainty_product(one)
            for field in ("product", "predicted", "dq_sq", "dp_sq", "residual"):
                assert close(getattr(unc, field)[j], getattr(one_unc, field))

    @pytest.mark.parametrize("kind", sorted(FAMILIES))
    def test_ring_moduli_an_ulp_apart_keep_their_bits(self, kind, monkeypatch):
        """One ring of eight angles has moduli an ulp apart.  Each column of
        the batch keeps the bits its point gives alone, and the batch sums
        the closed-form series twice: once for log N and once for N."""
        family = build_family(FAMILIES[kind], 0.5, 64)
        zs = 0.9 * qcore.disc_radius(0.5) * np.exp(2j * np.pi * np.arange(8) / 8)
        assert len(np.unique(np.abs(zs))) > 1
        points = [bicoherent_state(family, z) for z in zs]
        calls = []
        real = bicoherent.norm_series
        monkeypatch.setattr(bicoherent, "norm_series",
                            lambda *args: calls.append(args) or real(*args))
        batch = bicoherent_state(family, zs)
        assert len(calls) <= 2
        ez = quon_coherent_vector(0.5, zs, family.K)
        for j, one in enumerate(points):
            assert batch.norm_const[j] == one.norm_const
            assert batch.tail_bound[j] == one.tail_bound
            assert np.array_equal(ez[:, j], quon_coherent_vector(0.5, zs[j], family.K))
            if kind == "identity":
                # a deformed family's block product is one matrix product
                # for the batch, which BLAS may round apart from a point's
                assert np.array_equal(batch.phi_z[:, j], one.phi_z)
                assert np.array_equal(batch.psi_z[:, j], one.psi_z)

    def test_single_point_keeps_scalar_shapes(self, worked_256):
        family, _, _ = worked_256
        state = bicoherent_state(family, 0.3 + 0.2j)
        assert state.phi_z.shape == (family.K,)
        assert np.ndim(state.norm_const) == 0 and np.ndim(state.tail_bound) == 0
        assert all(np.ndim(r) == 0 for r in eigen_check(state))
        assert np.ndim(pairing(state)) == 0
        assert np.ndim(uncertainty_product(state).residual) == 0

    def test_one_point_outside_the_disc_rejects_the_batch(self, worked_256):
        family, _, _ = worked_256
        with pytest.raises(ValueError):
            bicoherent_state(family, [0.1, qcore.disc_radius(family.q)])

    def test_subnormal_point_is_the_vacuum_to_its_size(self, worked_256):
        # the unit phase comes from arg z, which a subnormal z keeps
        family, _, _ = worked_256
        state = bicoherent_state(family, np.array([5e-324, 5e-324j]))
        vacuum = bicoherent_state(family, 0.0)
        assert np.all(np.isfinite(state.phi_z))
        assert np.max(np.abs(state.phi_z - vacuum.phi_z[:, None])) <= 1e-300
