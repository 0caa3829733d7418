"""Tests for the deformed-pair construction and its biorthogonal families."""

import io
import json

import numpy as np
import pytest

from biquon import qcore
from biquon.fock import make_quon_c, qmutator_residual
from biquon.pseudoquon import (
    BiorthogonalFamily,
    IdentitySimilarity,
    RankOneDeformation,
    RankOneSimilarity,
    build_family,
    build_theta,
    build_theta_inverse,
    check_ladder,
    check_theta_conjugate,
    closed_form_theta,
    expanded_pair,
    family_to_json,
    gram_deviation,
    gram_matrix,
    make_pair,
    number_eigencheck,
    weak_resolution_check,
    worked_deformation,
)

Q = 0.4
DIM = 64


@pytest.fixture(scope="module")
def worked():
    source = RankOneSimilarity(worked_deformation(1j))
    family = build_family(source, Q, DIM)
    a, b = make_pair(source, Q, DIM)
    return source, family, a, b


class TestDeformationParameters:
    def test_worked_pair_satisfies_constraint(self):
        d = worked_deformation(1j)
        assert d.alpha_def == 1j
        assert d.beta_def == pytest.approx(-(1j + 1) / 2)
        assert abs(d.alpha_def + d.beta_def + d.alpha_def * d.beta_def) < 1e-15

    def test_rejects_constraint_violation(self):
        u = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            RankOneDeformation(u, u, 1j, 0.5 + 0j)

    def test_rejects_bad_pairing(self):
        u = np.array([1.0 + 0j])
        v = np.array([2.0 + 0j])
        with pytest.raises(ValueError):
            RankOneDeformation.from_alpha(u, v, 1j)

    def test_rejects_alpha_minus_one(self):
        u = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            RankOneDeformation.from_alpha(u, u, -1.0)

    def test_inverse_is_exact(self):
        source = RankOneSimilarity(worked_deformation(0.3 + 0.7j))
        s = source.matrix(32)
        s_inv = source.inverse(32)
        assert np.max(np.abs(s @ s_inv - np.eye(32))) < 1e-14
        assert np.max(np.abs(s_inv @ s - np.eye(32))) < 1e-14


class TestMakePair:
    def test_identity_reduces_to_quon_pair(self):
        a, b = make_pair(IdentitySimilarity(), Q, 16)
        c = make_quon_c(Q, 16)
        assert np.array_equal(a.matrix, c.matrix)
        assert np.array_equal(b.matrix, c.matrix.conj().T)

    def test_projector_expansion_matches(self, worked):
        source, _, a, b = worked
        a_exp, b_exp = expanded_pair(source, Q, DIM)
        assert np.max(np.abs(a.matrix - a_exp.matrix)) < 1e-13
        assert np.max(np.abs(b.matrix - b_exp.matrix)) < 1e-13

    def test_b_differs_from_a_adjoint(self, worked):
        _, _, a, b = worked
        assert np.max(np.abs(b.matrix - a.matrix.conj().T)) > 0.1

    def test_qmutator_identity_on_safe_block(self, worked):
        source, family, a, b = worked
        assert qmutator_residual(a, b, Q, family.safe_dim) < 1e-12


class TestBuildFamily:
    def test_identity_family_is_canonical_basis(self):
        family = build_family(IdentitySimilarity(), Q, 12)
        assert np.array_equal(family.phi, np.eye(12))
        assert np.array_equal(family.psi, np.eye(12))

    def test_worked_family_closed_form(self, worked):
        source, family, _, _ = worked
        d = source.deformation
        v = np.zeros(DIM, dtype=complex)
        v[:len(d.v)] = d.v
        u = np.zeros(DIM, dtype=complex)
        u[:len(d.u)] = d.u
        for k in range(DIM):
            e_k = np.zeros(DIM, dtype=complex)
            e_k[k] = 1.0
            expected_phi = e_k + d.alpha_def * np.conj(u[k]) * v
            expected_psi = e_k + np.conj(d.beta_def) * np.conj(v[k]) * u
            assert np.allclose(family.phi[k], expected_phi, atol=1e-14)
            assert np.allclose(family.psi[k], expected_psi, atol=1e-14)

    def test_iteration_agrees_with_direct(self, worked):
        _, family, _, _ = worked
        assert family.iteration_deviation < 1e-11

    def test_biorthogonality(self, worked):
        _, family, _, _ = worked
        assert gram_deviation(family) < 1e-12
        g = gram_matrix(family)
        assert g[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_singular_source(self):
        class Singular(IdentitySimilarity):
            def inverse(self, dim):
                return np.zeros((dim, dim), dtype=complex)

        with pytest.raises(ValueError):
            make_pair(Singular(), Q, 8)


class TestLadder:
    def test_identity_residuals(self):
        family = build_family(IdentitySimilarity(), Q, 32)
        assert check_ladder(family)["max_residual"] < 1e-13

    def test_worked_residuals(self, worked):
        _, family, a, b = worked
        assert check_ladder(family)["max_residual"] < 1e-11

    def test_vacua_annihilated(self, worked):
        _, family, a, b = worked
        assert np.linalg.norm(a.matrix @ family.phi[0]) < 1e-14
        assert np.linalg.norm(b.matrix.conj().T @ family.psi[0]) < 1e-14


class TestNumberOperator:
    def test_vacuum_eigenvalue_zero(self, worked):
        _, family, a, b = worked
        n = b.matrix @ a.matrix
        assert np.linalg.norm(n @ family.phi[0]) < 1e-14

    def test_bosonic_integer_spectrum(self):
        family = build_family(IdentitySimilarity(), 1.0, 16)
        a, b = make_pair(IdentitySimilarity(), 1.0, 16)
        n = b.matrix @ a.matrix
        for m in range(14):
            assert np.linalg.norm(n @ family.phi[m] - m * family.phi[m]) < 1e-13

    def test_worked_third_level(self):
        source = RankOneSimilarity(worked_deformation(1j))
        family = build_family(source, 0.5, DIM)
        a, b = make_pair(source, 0.5, DIM)
        n = b.matrix @ a.matrix
        assert np.linalg.norm(n @ family.phi[3] - 1.75 * family.phi[3]) < 1e-11

    def test_residual_report(self, worked):
        _, family, a, b = worked
        rep = number_eigencheck(family)
        assert rep["residual_phi"] < 1e-11
        assert rep["residual_psi"] < 1e-11
        assert rep["eigenvalue_convention"] == "beta_{n-1}^2"

    def test_isospectral_safe_block(self, worked):
        _, family, a, b = worked
        safe = family.safe_dim
        n = (b.matrix @ a.matrix)[:safe, :safe]
        ev = np.sort(np.linalg.eigvals(n).real)
        ev_dag = np.sort(np.linalg.eigvals(n.conj().T).real)
        assert np.max(np.abs(ev - ev_dag)) < 1e-9
        expected = np.sort([qcore.beta_sq(Q, m - 1) for m in range(safe)])
        assert np.max(np.abs(ev - expected)) < 1e-9


class TestTheta:
    def test_identity_theta(self):
        family = build_family(IdentitySimilarity(), Q, 16)
        theta = build_theta(family)
        assert np.allclose(theta.matrix, np.eye(16), atol=1e-14)

    def test_series_matches_closed_form(self, worked):
        source, family, _, _ = worked
        theta = build_theta(family)
        closed = closed_form_theta(source, DIM)
        assert np.max(np.abs(theta.matrix - closed.matrix)) < 1e-11

    def test_positive_definite(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family)
        herm = 0.5 * (theta.matrix + theta.matrix.conj().T)
        assert np.min(np.linalg.eigvalsh(herm)) > 0.0
        assert np.max(np.abs(theta.matrix - herm)) < 1e-13

    def test_inverse_pair(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family)
        theta_inv = build_theta_inverse(family)
        assert np.max(np.abs(theta.matrix @ theta_inv.matrix - np.eye(DIM))) < 1e-11
        assert np.max(np.abs(theta_inv.matrix @ theta.matrix - np.eye(DIM))) < 1e-11

    def test_intertwines_number_operators(self, worked):
        _, family, a, b = worked
        theta = build_theta(family).matrix
        n = b.matrix @ a.matrix
        comm = n.conj().T @ theta - theta @ n
        for m in range(family.safe_dim):
            assert np.linalg.norm(comm @ family.phi[m]) < 1e-10

    def test_conjugation(self, worked):
        _, family, a, b = worked
        theta = build_theta(family)
        rep = check_theta_conjugate(a, b, theta, family.safe_dim, family)
        assert rep["conjugation_residual"] < 1e-10
        assert rep["mapping_residual"] < 1e-10

    def test_wrong_theta_detected(self, worked):
        from biquon.fock import make_identity
        _, family, a, b = worked
        rep = check_theta_conjugate(a, b, make_identity(DIM), family.safe_dim)
        assert rep["conjugation_residual"] > 1e-2


class TestWeakResolution:
    def basis(self, n):
        e = np.zeros(DIM, dtype=complex)
        e[n] = 1.0
        return e

    def test_identity_vacuum_pairing(self):
        family = build_family(IdentitySimilarity(), Q, DIM)
        s1, s2 = weak_resolution_check(family, self.basis(0), self.basis(0))
        assert s1 == pytest.approx(1.0, abs=1e-13)
        assert s2 == pytest.approx(1.0, abs=1e-13)

    def test_orthogonal_pair(self, worked):
        _, family, _, _ = worked
        s1, s2 = weak_resolution_check(family, self.basis(1), self.basis(2))
        assert abs(s1) < 1e-11
        assert abs(s2) < 1e-11

    def test_random_pairs(self, worked):
        _, family, _, _ = worked
        rng = np.random.default_rng(2024)
        for _ in range(20):
            f = np.zeros(DIM, dtype=complex)
            g = np.zeros(DIM, dtype=complex)
            f[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            g[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
            s1, s2 = weak_resolution_check(family, f, g)
            assert abs(s1 - np.vdot(f, g)) < 1e-10
            assert abs(s2 - np.vdot(f, g)) < 1e-10

    def test_support_violation_rejected(self, worked):
        _, family, _, _ = worked
        f = self.basis(family.safe_dim + 1)
        with pytest.raises(ValueError):
            weak_resolution_check(family, f, f)


class TestNormBounds:
    def test_family_norms_below_operator_norm(self, worked):
        source, family, _, _ = worked
        s_norm = np.linalg.norm(source.matrix(DIM), 2)
        s_inv_norm = np.linalg.norm(source.adjoint_inverse(DIM), 2)
        norms_phi = np.linalg.norm(family.phi, axis=1)
        norms_psi = np.linalg.norm(family.psi, axis=1)
        assert np.all(norms_phi <= s_norm + 1e-12)
        assert np.all(norms_psi <= s_inv_norm + 1e-12)

    def test_unit_vector_bound(self):
        # with ||u|| = ||v|| = 1 the textbook bounds 1+|alpha|, 1+|beta| hold
        u = np.array([0.6, 0.8j], dtype=complex)
        d = RankOneDeformation.from_alpha(u, u, 1j)
        source = RankOneSimilarity(d)
        family = build_family(source, Q, 32)
        norms_phi = np.linalg.norm(family.phi, axis=1)
        norms_psi = np.linalg.norm(family.psi, axis=1)
        assert np.all(norms_phi <= 1.0 + abs(d.alpha_def) + 1e-12)
        assert np.all(norms_psi <= 1.0 + abs(d.beta_def) + 1e-12)


def test_family_export_round_trip(worked):
    _, family, _, _ = worked
    buf = io.StringIO()
    doc = family_to_json(family, buf, residual_report={"gram": 0.0})
    parsed = json.loads(buf.getvalue())
    assert parsed["K"] == DIM
    assert parsed["q"] == Q
    assert parsed["source"]["kind"] == "rank_one"
    assert parsed["residuals"] == {"gram": 0.0}
    phi0 = np.array([complex(re, im) for re, im in parsed["phi"][0]])
    assert np.allclose(phi0, family.phi[0])
    assert doc["K"] == DIM
