"""Tests for the truncated Fock-space engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquon import qcore
from biquon.fock import (
    FockOperator,
    identity_plus,
    make_quon_c,
    qmutator_residual,
)
from biquon.pseudoquon import (
    Deformation,
    build_family,
    make_pair,
    worked_deformation,
)


def basis(dim, n):
    e = np.zeros(dim, dtype=complex)
    e[n] = 1.0
    return e


class TestQuonMatrix:
    def test_two_by_two(self):
        c = make_quon_c(0.5, 2)
        assert np.allclose(c.dense(), [[0, 1], [0, 0]])

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            make_quon_c(0.5, 1)

    @pytest.mark.parametrize("q", [0.2, 0.8, 1.0])
    def test_lowering_action(self, q):
        dim = 16
        c = make_quon_c(q, dim)
        beta = qcore.BetaSequence(q, dim).beta      # beta[m] = beta_{m-1}
        assert np.allclose(c @ basis(dim, 0), 0.0)
        for m in range(1, dim):
            expected = beta[m] * basis(dim, m - 1)
            assert np.allclose(c @ basis(dim, m), expected, atol=1e-15)

    def test_raising_action(self):
        dim, q = 16, 0.6
        cdag = make_quon_c(q, dim).adjoint()
        beta = qcore.BetaSequence(q, dim).beta
        for n in range(dim - 1):
            expected = beta[n + 1] * basis(dim, n + 1)
            assert np.allclose(cdag @ basis(dim, n), expected, atol=1e-15)

    def test_adjoint_is_exact_conjugate_transpose(self):
        c = make_quon_c(0.3, 12)
        assert np.array_equal(c.adjoint().dense(), c.dense().conj().T)
        a = make_pair(worked_deformation(0.3 + 0.7j), 0.3, 12)[0]
        assert np.array_equal(a.adjoint().dense(), a.dense().conj().T)

    def test_number_operator_diagonal(self):
        dim, q = 24, 0.45
        c = make_quon_c(q, dim)
        n0 = c.adjoint().dense() @ c.dense()
        bracket = qcore.BetaSequence(q, dim).bracket        # [m] = beta_{m-1}^2
        for m in range(dim):
            expected = bracket[m] * basis(dim, m)
            assert np.linalg.norm(n0 @ basis(dim, m) - expected) < 1e-13

    def test_rejects_nonfinite(self):
        # beta_K^2 overflows double at q = 3, K = 4000
        with pytest.raises(OverflowError):
            make_quon_c(3.0, 4000)


def qmutator(x, y, q):
    """Deformed bracket [X, Y]_q = XY - q YX as a dense K x K array."""
    dx, dy = x.dense(), y.dense()
    return dx @ dy - q * (dy @ dx)


class TestQMutator:
    def test_identity_block_and_corner(self):
        q, dim = 0.7, 10
        c = make_quon_c(q, dim)
        m = qmutator(c, c.adjoint(), q)
        assert np.allclose(m[:dim - 1, :dim - 1], np.eye(dim - 1), atol=1e-14)
        corner = -q * qcore.bracket(q, dim - 1)        # -q beta_{K-2}^2
        assert m[dim - 1, dim - 1] == pytest.approx(corner, rel=1e-14)

    def test_two_by_two_value(self):
        c = make_quon_c(0.5, 2)
        m = qmutator(c, c.adjoint(), 0.5)
        assert np.allclose(m, np.diag([1.0, -0.5]))

    def test_commuting_identity(self):
        i = identity_plus(5)
        assert np.allclose(qmutator(i, i, 1.0), 0.0)
        # each column reads |1 - 1 - 1| against the scale 1 + 1 + 1
        assert qmutator_residual(i, i, 1.0, 3) == 1.0 / 3.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            qmutator_residual(identity_plus(4), identity_plus(5), 0.5, 2)


class TestResidual:
    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_quon_pair_below_edge(self, q):
        c = make_quon_c(q, 64)
        assert qmutator_residual(c, c.adjoint(), q, 62) < 1e-12

    def test_wrong_pair_fails_loudly(self):
        c = make_quon_c(0.5, 16)
        assert qmutator_residual(c.adjoint(), c, 0.5, 14) >= 0.99
        with pytest.raises(ValueError, match="shift"):
            qmutator_residual(c, c, 0.5, 14)

    def test_rejects_bad_safe_dim(self):
        c = make_quon_c(0.5, 8)
        with pytest.raises(ValueError):
            qmutator_residual(c, c.adjoint(), 0.5, 8)

    @pytest.mark.parametrize("q", [0.3, 0.9999, 1.5, 2.0])
    def test_pair_of_a_nearby_q_fails(self, q):
        # column n reads (q' - q) beta_{n-1}^2 against about 2 beta_n^2
        c = make_quon_c(q * (1.0 + 1e-9), 64)
        assert qmutator_residual(c, c.adjoint(), q, 62) > 1e-11

    def test_deformed_pair(self):
        source = worked_deformation(1j)
        a, b = make_pair(source, 0.3, 64)[:2]
        assert qmutator_residual(a, b, 0.3, source.safe_dim(64)) < 1e-12


def norm_growth(family):
    """Lower-bound sequence beta_{n-1}^2 (||phi_{n-1}|| / ||phi_n||)^2 for
    ||X||^2: bounded when X is bounded, divergent when it is not."""
    norms = family.phi.column_norms(family.K)
    return family.c.diag[1:] ** 2 * (norms[:-1] / norms[1:]) ** 2


class TestNormGrowthProbe:
    def test_undeformed_family_converges(self):
        q, dim = 0.5, 64
        probe = norm_growth(build_family(Deformation(), q, dim))
        expected = qcore.BetaSequence(q, dim).bracket[1:dim]
        assert np.allclose(probe, expected, rtol=1e-12)
        assert abs(probe[-1] - 1.0 / (1.0 - q)) < 1e-8

    def test_bosonic_divergence(self):
        probe = norm_growth(build_family(Deformation(), 1.0, 48))
        assert np.allclose(probe, np.arange(1, 48), rtol=1e-12)
        assert probe[-1] > probe[0]

    def test_deformed_family_stays_bounded(self):
        q, dim = 0.5, 64
        family = build_family(worked_deformation(1j), q, dim)
        probe = norm_growth(family)
        bound = (np.linalg.norm(family.phi.dense(), 2)
                 * np.linalg.norm(family.c.dense(), 2)
                 * np.linalg.norm(family.psi.dense(), 2)) ** 2
        assert np.all(probe <= bound + 1e-12)


def random_operator(rng, dim, shift, p):
    """A band of the given shift (zero where it would cross the edge) plus a
    random p x p leading block."""
    diag = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    keep = (np.arange(dim) + shift >= 0) & (np.arange(dim) + shift < dim)
    block = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return FockOperator(shift, np.where(keep, diag, 0), block)


operators = st.tuples(st.integers(2, 20), st.integers(0, 2 ** 32 - 1)).flatmap(
    lambda dk: st.tuples(st.just(dk[0]), st.just(np.random.default_rng(dk[1])),
                         st.integers(-1, 1), st.integers(0, dk[0])))


class TestStructuredAlgebra:
    """Every FockOperator operation against the same operation on dense()."""

    @settings(max_examples=200, deadline=None)
    @given(operators)
    def test_operations_match_dense(self, drawn):
        dim, rng, shift, p = drawn
        x = random_operator(rng, dim, shift, p)
        dx = x.dense()
        assert np.array_equal(x.adjoint().dense(), dx.conj().T)
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        batch = rng.standard_normal((dim, 3))
        assert np.allclose(x @ vec, dx @ vec, rtol=1e-13, atol=1e-13)
        assert np.allclose(x @ batch, dx @ batch, rtol=1e-13, atol=1e-13)
        for rows in (dim - 1, dim + 1):
            with pytest.raises(ValueError):
                x @ np.ones(rows)
        n = int(rng.integers(0, dim + 1))
        assert np.allclose(x.column_norms(n), np.linalg.norm(dx[:, :n], axis=0),
                           rtol=1e-14, atol=0)
        assert np.array_equal(x.dense(n), dx[:n, :n])

    def test_window_matches_whole(self):
        a = make_pair(worked_deformation(1j), 0.4, 32)[0]
        assert np.array_equal(a.dense(10), a.dense()[:10, :10])
