"""Tests for the deformed-pair construction and its biorthogonal families."""

import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from biquon import qcore
from biquon.cli import run_config
from biquon.fock import identity_plus, make_quon_c, qmutator_residual
from biquon.pseudoquon import (
    BiorthogonalFamily,
    IdentitySimilarity,
    RankOneDeformation,
    RankOneSimilarity,
    build_family,
    build_theta,
    check_ladder,
    check_theta_conjugate,
    closed_form_theta,
    family_to_json,
    gram_deviation,
    make_pair,
    number_eigencheck,
    worked_deformation,
)

Q = 0.4
DIM = 64


# ---------------------------------------------------------------------------
# dense oracles: the K x K constructions the structured engine replaces
# ---------------------------------------------------------------------------

def dense_similarity(d: RankOneDeformation, dim: int):
    """S = 1 + alpha v u^dag and S^{-1} = 1 + beta v u^dag as K x K arrays."""
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    u[:len(d.u)] = d.u
    v[:len(d.v)] = d.v
    return tuple(np.eye(dim, dtype=complex) + coeff * np.outer(v, u.conj())
                 for coeff in (d.alpha_def, d.beta_def))


def dense_c(q: float, dim: int) -> np.ndarray:
    c = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        c[k, k + 1] = qcore.beta(q, k)
    return c


def dense_pair(d: RankOneDeformation, q: float, dim: int):
    """a = S c S^{-1} and b = S c^dag S^{-1} from dense products."""
    s, s_inv = dense_similarity(d, dim)
    c = dense_c(q, dim)
    return s @ c @ s_inv, s @ c.conj().T @ s_inv


def expanded_pair(d: RankOneDeformation, q: float, dim: int):
    """The same pair from the explicit projector expansion

    a = c + alpha P_{c^dag u, v} + beta P_{u, c v} + alpha beta <u, c v> P_{u, v}

    and the mirrored expression for b, with P_{l, r} f = <l, f> r.
    """
    alpha, bet = d.alpha_def, d.beta_def
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    u[:len(d.u)] = d.u
    v[:len(d.v)] = d.v
    c = dense_c(q, dim)
    cdag = c.conj().T

    def proj(left, right):
        return np.outer(right, left.conj())

    a = c + alpha * proj(cdag @ u, v) + bet * proj(u, c @ v) \
        + alpha * bet * np.vdot(u, c @ v) * proj(u, v)
    b = cdag + alpha * proj(c @ u, v) + bet * proj(u, cdag @ v) \
        + alpha * bet * np.vdot(u, cdag @ v) * proj(u, v)
    return a, b


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
        s_block, inv_block = source.blocks()
        s = identity_plus(32, s_block).dense()
        s_inv = identity_plus(32, inv_block).dense()
        assert np.max(np.abs(s @ s_inv - np.eye(32))) < 1e-14
        assert np.max(np.abs(s_inv @ s - np.eye(32))) < 1e-14


class TestMakePair:
    def test_identity_reduces_to_quon_pair(self):
        a, b = make_pair(IdentitySimilarity(), Q, 16)
        c = make_quon_c(Q, 16)
        assert np.array_equal(a.dense(), c.dense())
        assert np.array_equal(b.dense(), c.dense().conj().T)

    def test_projector_expansion_matches(self, worked):
        source, _, a, b = worked
        a_exp, b_exp = expanded_pair(source.deformation, Q, DIM)
        assert np.max(np.abs(a.dense() - a_exp)) < 1e-13
        assert np.max(np.abs(b.dense() - b_exp)) < 1e-13

    def test_b_differs_from_a_adjoint(self, worked):
        _, _, a, b = worked
        assert np.max(np.abs(b.dense() - a.dense().conj().T)) > 0.1

    def test_qmutator_identity_on_safe_block(self, worked):
        source, family, a, b = worked
        assert qmutator_residual(a, b, Q, family.safe_dim) < 1e-12


class TestBuildFamily:
    def test_identity_family_is_canonical_basis(self):
        family = build_family(IdentitySimilarity(), Q, 12)
        assert np.array_equal(family.phi.dense(), np.eye(12))
        assert np.array_equal(family.psi.dense(), np.eye(12))

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
            assert np.allclose(family.phi @ e_k, expected_phi, atol=1e-14)
            assert np.allclose(family.psi @ e_k, expected_psi, atol=1e-14)

    def test_iteration_agrees_with_direct(self, worked):
        _, family, _, _ = worked
        assert family.iteration_deviation < 1e-11

    def test_fermionic_iteration_stops_at_zero_beta(self):
        # q = -1: beta_1 = 0, so the iterated route ends at phi_2; dividing
        # by beta_1 made NaNs that max() dropped from the deviation
        cfg = {"q": -1, "K": 32, "family": {"kind": "rank_one", "preset": "worked"},
               "tasks": ["family", "mutator", "theta"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary, code = run_config(cfg)
        assert code == 0
        assert summary["tasks"]["family"]["iteration_deviation"] < 1e-11

    def test_biorthogonality(self, worked):
        _, family, _, _ = worked
        assert gram_deviation(family) < 1e-12
        g = (family.phi.adjoint() @ family.psi).dense()
        assert g[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_singular_source(self):
        class Singular(IdentitySimilarity):
            def blocks(self):
                return np.zeros((2, 2)), -np.eye(2)

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
        assert np.linalg.norm(a @ family.phi.dense()[:, 0]) < 1e-14
        assert np.linalg.norm(b.adjoint() @ family.psi.dense()[:, 0]) < 1e-14


class TestNumberOperator:
    def test_vacuum_eigenvalue_zero(self, worked):
        _, family, a, b = worked
        n = (b @ a).dense()
        assert np.linalg.norm(n @ family.phi.dense()[:, 0]) < 1e-14

    def test_bosonic_integer_spectrum(self):
        family = build_family(IdentitySimilarity(), 1.0, 16)
        a, b = make_pair(IdentitySimilarity(), 1.0, 16)
        n, phi = (b @ a).dense(), family.phi.dense()
        for m in range(14):
            assert np.linalg.norm(n @ phi[:, m] - m * phi[:, m]) < 1e-13

    def test_worked_third_level(self):
        source = RankOneSimilarity(worked_deformation(1j))
        family = build_family(source, 0.5, DIM)
        a, b = make_pair(source, 0.5, DIM)
        n, phi3 = (b @ a).dense(), family.phi.dense()[:, 3]
        assert np.linalg.norm(n @ phi3 - 1.75 * phi3) < 1e-11

    def test_residual_report(self, worked):
        _, family, a, b = worked
        rep = number_eigencheck(family)
        assert rep["residual_phi"] < 1e-11
        assert rep["residual_psi"] < 1e-11
        assert rep["eigenvalue_convention"] == "beta_{n-1}^2"

    def test_isospectral_safe_block(self, worked):
        _, family, a, b = worked
        safe = family.safe_dim
        n = (b @ a).dense(safe)
        ev = np.sort(np.linalg.eigvals(n).real)
        ev_dag = np.sort(np.linalg.eigvals(n.conj().T).real)
        assert np.max(np.abs(ev - ev_dag)) < 1e-9
        expected = np.sort([qcore.beta_sq(Q, m - 1) for m in range(safe)])
        assert np.max(np.abs(ev - expected)) < 1e-9


class TestTheta:
    def test_identity_theta(self):
        family = build_family(IdentitySimilarity(), Q, 16)
        theta = build_theta(family)
        assert np.allclose(theta.dense(), np.eye(16), atol=1e-14)

    def test_series_matches_closed_form(self, worked):
        source, family, _, _ = worked
        theta = build_theta(family)
        closed = np.linalg.inv(dense_similarity(source.deformation, DIM)[0]
                               @ dense_similarity(source.deformation, DIM)[0].conj().T)
        assert np.max(np.abs(theta.dense() - closed)) < 1e-11
        assert (theta - closed_form_theta(source, DIM)).max_abs() < 1e-11

    def test_positive_definite(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family).dense()
        herm = 0.5 * (theta + theta.conj().T)
        assert np.min(np.linalg.eigvalsh(herm)) > 0.0
        assert np.max(np.abs(theta - herm)) < 1e-13

    def test_inverse_pair(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family).dense()
        theta_inv = (family.phi @ family.phi.adjoint()).dense()   # sum |phi_n><phi_n|
        assert np.max(np.abs(theta @ theta_inv - np.eye(DIM))) < 1e-11
        assert np.max(np.abs(theta_inv @ theta - np.eye(DIM))) < 1e-11

    def test_intertwines_number_operators(self, worked):
        _, family, a, b = worked
        theta = build_theta(family).dense()
        n = (b @ a).dense()
        comm = n.conj().T @ theta - theta @ n
        phi = family.phi.dense()
        for m in range(family.safe_dim):
            assert np.linalg.norm(comm @ phi[:, m]) < 1e-10

    def test_conjugation(self, worked):
        _, family, a, b = worked
        theta = build_theta(family)
        rep = check_theta_conjugate(a, b, theta, family.safe_dim, family)
        assert rep["conjugation_residual"] < 1e-10
        assert rep["mapping_residual"] < 1e-10

    def test_wrong_theta_detected(self, worked):
        _, family, a, b = worked
        rep = check_theta_conjugate(a, b, identity_plus(DIM), family.safe_dim)
        assert rep["conjugation_residual"] > 1e-2


def weak_resolution(family, f, g):
    """Both orderings of the weak completeness sum for <f, g>:
    sum_n <f,phi_n><psi_n,g> and sum_n <f,psi_n><phi_n,g>."""
    f_phi, f_psi = family.phi.adjoint() @ f, family.psi.adjoint() @ f
    g_phi, g_psi = family.phi.adjoint() @ g, family.psi.adjoint() @ g
    return complex(np.vdot(f_phi, g_psi)), complex(np.vdot(f_psi, g_phi))


class TestWeakResolution:
    def basis(self, n):
        e = np.zeros(DIM, dtype=complex)
        e[n] = 1.0
        return e

    def test_identity_vacuum_pairing(self):
        family = build_family(IdentitySimilarity(), Q, DIM)
        s1, s2 = weak_resolution(family, self.basis(0), self.basis(0))
        assert s1 == pytest.approx(1.0, abs=1e-13)
        assert s2 == pytest.approx(1.0, abs=1e-13)

    def test_orthogonal_pair(self, worked):
        _, family, _, _ = worked
        s1, s2 = weak_resolution(family, self.basis(1), self.basis(2))
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
            s1, s2 = weak_resolution(family, f, g)
            assert abs(s1 - np.vdot(f, g)) < 1e-10
            assert abs(s2 - np.vdot(f, g)) < 1e-10


class TestNormBounds:
    def test_family_norms_below_operator_norm(self, worked):
        source, family, _, _ = worked
        s_norm = np.linalg.norm(family.phi.dense(), 2)
        s_inv_norm = np.linalg.norm(family.psi.dense(), 2)
        norms_phi = family.phi.column_norms(DIM)
        norms_psi = family.psi.column_norms(DIM)
        assert np.all(norms_phi <= s_norm + 1e-12)
        assert np.all(norms_psi <= s_inv_norm + 1e-12)

    def test_unit_vector_bound(self):
        # with ||u|| = ||v|| = 1 the textbook bounds 1+|alpha|, 1+|beta| hold
        u = np.array([0.6, 0.8j], dtype=complex)
        d = RankOneDeformation.from_alpha(u, u, 1j)
        source = RankOneSimilarity(d)
        family = build_family(source, Q, 32)
        norms_phi = family.phi.column_norms(32)
        norms_psi = family.psi.column_norms(32)
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
    assert np.allclose(phi0, family.phi.dense()[:, 0])
    assert doc["K"] == DIM


# ---------------------------------------------------------------------------
# structured engine against the dense oracles
# ---------------------------------------------------------------------------

def max_col(m: np.ndarray, n: int) -> float:
    return float(np.max(np.linalg.norm(m[:, :n], axis=0), initial=0.0))


def dense_checks(d: RankOneDeformation, q: float, dim: int, safe: int) -> dict:
    """Every Fock check evaluated on K x K arrays, as the relations read."""
    s, s_inv = dense_similarity(d, dim)
    a, b = dense_pair(d, q, dim)
    c = dense_c(q, dim)
    cdag = c.conj().T
    phi, psi = s, s_inv.conj().T
    eye = np.eye(dim)
    n_op = b @ a
    theta = psi @ psi.conj().T
    cur, dev = phi[:, 0], np.linalg.norm(a @ phi[:, 0])
    for n in range(1, safe):
        cur = b @ cur / qcore.beta(q, n - 1)
        dev = max(dev, np.linalg.norm(cur - phi[:, n]))
    return {
        "mutator": max_col(a @ b - q * (b @ a) - eye, safe),
        "iteration_deviation": dev,
        "gram_deviation": np.max(np.abs(phi.conj().T @ psi - eye)),
        "raise_phi": max_col(b @ phi - phi @ cdag, safe),
        "lower_phi": max_col(a @ phi - phi @ c, safe),
        "raise_psi": max_col(a.conj().T @ psi - psi @ cdag, safe),
        "lower_psi": max_col(b.conj().T @ psi - psi @ c, safe),
        "number_residual_phi": max_col(n_op @ phi - phi @ (cdag @ c), safe),
        "number_residual_psi": max_col(n_op.conj().T @ psi - psi @ (cdag @ c), safe),
        "series_vs_closed": np.max(np.abs(theta - np.linalg.inv(s @ s.conj().T))),
        "conjugation_residual": max_col(
            a - np.linalg.inv(theta) @ b.conj().T @ theta, safe),
        "mapping_residual": max_col(theta @ phi - psi, safe),
        "inverse_residual": np.max(np.abs(theta @ (phi @ phi.conj().T) - eye)),
    }


BOUNDS = {"mutator": 1e-12, "iteration_deviation": 1e-11, "gram_deviation": 1e-11,
          "raise_phi": 1e-11, "lower_phi": 1e-11, "raise_psi": 1e-11,
          "lower_psi": 1e-11, "number_residual_phi": 1e-11,
          "number_residual_psi": 1e-11, "series_vs_closed": 1e-10,
          "conjugation_residual": 1e-10, "mapping_residual": 1e-10,
          "inverse_residual": 1e-10}


@st.composite
def deformations(draw):
    """Random compact u, v (support extent 1-12) with <u, v> = 1, alpha != -1."""
    extent = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = rng.standard_normal(extent) + 1j * rng.standard_normal(extent)
    v = rng.standard_normal(extent) + 1j * rng.standard_normal(extent)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    pairing = np.vdot(u, v)
    assume(abs(pairing) > 0.3)
    alpha = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    assume(abs(1 + alpha) > 0.3)
    return RankOneDeformation.from_alpha(u, v / pairing, alpha)


class TestAgainstDenseOracles:
    @settings(max_examples=60, deadline=None)
    @given(d=deformations(), q=st.floats(0.01, 0.99), extra=st.integers(3, 64))
    def test_structured_matches_dense(self, d, q, extra):
        dim = min(d.support_extent + extra, 128)
        source = RankOneSimilarity(d)
        family = build_family(source, q, dim)
        s, s_inv = dense_similarity(d, dim)
        a, b = dense_pair(d, q, dim)
        a_exp, b_exp = expanded_pair(d, q, dim)
        theta = np.linalg.inv(s @ s.conj().T)

        def close(got, want):
            return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

        assert close(family.a.dense(), a) and close(family.a.dense(), a_exp)
        assert close(family.b.dense(), b) and close(family.b.dense(), b_exp)
        assert close(family.phi.dense(), s)
        assert close(family.psi.dense(), s_inv.conj().T)
        assert close(build_theta(family).dense(), theta)
        assert close(closed_form_theta(source, dim).dense(), theta)

        safe = family.safe_dim
        dense = dense_checks(d, q, dim, safe)
        ladder = check_ladder(family)
        number = number_eigencheck(family)
        th = build_theta(family)
        conj = check_theta_conjugate(family.a, family.b, th, safe, family)
        structured = {
            "mutator": qmutator_residual(family.a, family.b, q, safe),
            "iteration_deviation": family.iteration_deviation,
            "gram_deviation": gram_deviation(family),
            **{k: ladder[k] for k in ("raise_phi", "lower_phi", "raise_psi", "lower_psi")},
            "number_residual_phi": number["residual_phi"],
            "number_residual_psi": number["residual_psi"],
            "series_vs_closed": (th - closed_form_theta(source, dim)).max_abs(),
            "conjugation_residual": conj["conjugation_residual"],
            "mapping_residual": conj["mapping_residual"],
            "inverse_residual": (th @ (family.phi @ family.phi.adjoint())
                                 - identity_plus(dim)).max_abs(),
        }
        for key, bound in BOUNDS.items():
            assert abs(structured[key] - dense[key]) <= bound, key

    def test_worked_values_match_dense(self):
        d = worked_deformation(1j)
        family = build_family(RankOneSimilarity(d), Q, DIM)
        dense = dense_checks(d, Q, DIM, family.safe_dim)
        ladder = check_ladder(family)
        for key in ("raise_phi", "lower_phi", "raise_psi", "lower_psi"):
            assert ladder[key] == pytest.approx(dense[key], abs=1e-15)


def legacy_family_json(family, s, s_inv, stream, residual_report):
    """The nested-list writer with json.dump, on the dense rows
    phi_n = S e_n and psi_n = conj(row n of S^{-1})."""
    doc = {
        "K": family.K,
        "q": family.q,
        "source": family.source.describe(),
        "iteration_deviation": family.iteration_deviation,
        "phi": [[[z.real, z.imag] for z in row] for row in s.T.copy()],
        "psi": [[[z.real, z.imag] for z in row] for row in s_inv.conj()],
        "residuals": residual_report,
    }
    json.dump(doc, stream, sort_keys=True)


# Every product in S and S^-1 here (alpha = -0.5, beta = 1, entries of v
# real or imaginary) is one correctly rounded multiplication.  For a general
# complex alpha, numpy's alpha * w and w * alpha can differ in the last bit,
# and the dense construction's alpha * outer runs as outer * alpha only once
# numpy elides the K x K temporary (256 KiB, K >= 128), which the block
# form follows.
COMPACT = RankOneDeformation.from_alpha(
    np.array([0.6, 0.8j, 0.0, 0.3 - 0.1j]),
    np.array([0.6, 0.8j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.2j]), -0.5)


@pytest.mark.parametrize("dim", [32, 64])
@pytest.mark.parametrize("deformation", [worked_deformation(1j), COMPACT],
                         ids=["worked", "compact"])
def test_export_bytes_match_legacy_writer(deformation, dim):
    family = build_family(RankOneSimilarity(deformation), 0.37, dim)
    report = check_ladder(family)
    new, old = io.StringIO(), io.StringIO()
    family_to_json(family, new, residual_report=report)
    legacy_family_json(family, *dense_similarity(deformation, dim), old, report)
    assert new.getvalue() == old.getvalue()
    assert "[0.0, -0.0]" in new.getvalue()      # psi's signed zeros survive


def test_identity_export_bytes_match_legacy_writer():
    family = build_family(IdentitySimilarity(), 0.5, 16)
    new, old = io.StringIO(), io.StringIO()
    family_to_json(family, new, residual_report={})
    eye = np.eye(16, dtype=complex)
    legacy_family_json(family, eye, eye, old, {})
    assert new.getvalue() == old.getvalue()


def test_worked_run_at_K_65536_holds_no_dense_square():
    # one K x K complex array at this size is 68 GB
    cfg = {"q": 0.5, "K": 65536, "tasks": ["family", "mutator", "theta"],
           "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}}
    tracemalloc.start()
    try:
        summary, code = run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and summary["all_pass"]
    assert peak < 64 * 2 ** 20
