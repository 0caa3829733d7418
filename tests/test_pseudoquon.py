"""Tests for the deformed-pair construction and its biorthogonal families."""

import functools
import io
import json
import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from biquon import qcore
from biquon.cli import TOLERANCES, ConfigError, main, run_config, validate_config
from biquon.fock import FockOperator, identity_plus, make_quon_c, qmutator_residual
from biquon.pseudoquon import (
    HEAD,
    REACH,
    Deformation,
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

def dense_similarity(d: Deformation, dim: int):
    """S = 1 + alpha v u^dag and S^{-1} = 1 + beta v u^dag as K x K arrays."""
    u = np.zeros(dim, dtype=complex)
    v = np.zeros(dim, dtype=complex)
    u[:len(d.u)] = d.u
    v[:len(d.v)] = d.v
    return tuple(np.eye(dim, dtype=complex) + coeff * np.outer(v, u.conj())
                 for coeff in (d.alpha_def, d.beta_def))


def dense_c(q: float, dim: int) -> np.ndarray:
    return np.diag(qcore.BetaSequence(q, dim - 2).beta[1:], 1).astype(complex)


def dense_pair(d: Deformation, q: float, dim: int):
    """a = S c S^{-1} and b = S c^dag S^{-1} from dense products."""
    s, s_inv = dense_similarity(d, dim)
    c = dense_c(q, dim)
    return s @ c @ s_inv, s @ c.conj().T @ s_inv


def expanded_pair(d: Deformation, q: float, dim: int):
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
    source = worked_deformation(1j)
    family = build_family(source, Q, DIM)
    a, b = make_pair(source, Q, DIM)[:2]
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
            Deformation(u, u, 1j, 0.5 + 0j)

    def test_rejects_bad_pairing(self):
        u = np.array([1.0 + 0j])
        v = np.array([2.0 + 0j])
        with pytest.raises(ValueError):
            Deformation.from_alpha(u, v, 1j)

    def test_rejects_alpha_minus_one(self):
        u = np.array([1.0 + 0j])
        with pytest.raises(ValueError):
            Deformation.from_alpha(u, u, -1.0)

    @pytest.mark.parametrize("parts", [
        {"alpha_def": np.nan}, {"alpha_def": np.inf},
        {"u": [np.nan, 1.0]}, {"v": [1.0, np.inf]}])
    def test_rejects_non_finite_parts(self, parts):
        # NaN passes no tolerance test, so it is refused by name
        fields = {"u": [1.0, 0.0], "v": [1.0, 0.0], "alpha_def": 1j, **parts}
        with pytest.raises(ValueError, match="must be finite"):
            Deformation.from_alpha(**fields)

    def test_empty_value_is_the_identity(self):
        s = Deformation()
        assert (s.kind, s.describe(), s.support_extent) == ("identity", {"kind": "identity"}, 0)
        assert s.safe_dim(16) == 14
        assert all(block.shape == (0, 0) for block in s.blocks())

    def test_inverse_is_exact(self):
        source = worked_deformation(0.3 + 0.7j)
        s_block, inv_block = source.blocks()
        s = identity_plus(32, s_block).dense()
        s_inv = identity_plus(32, inv_block).dense()
        assert np.max(np.abs(s @ s_inv - np.eye(32))) < 1e-14
        assert np.max(np.abs(s_inv @ s - np.eye(32))) < 1e-14


class TestMakePair:
    def test_identity_reduces_to_quon_pair(self):
        a, b = make_pair(Deformation(), Q, 16)[:2]
        c = make_quon_c(Q, 16)
        assert np.array_equal(a.dense(), c.dense())
        assert np.array_equal(b.dense(), c.dense().conj().T)

    def test_projector_expansion_matches(self, worked):
        source, _, a, b = worked
        a_exp, b_exp = expanded_pair(source, Q, DIM)
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
        family = build_family(Deformation(), Q, 12)
        assert np.array_equal(family.phi.dense(), np.eye(12))
        assert np.array_equal(family.psi.dense(), np.eye(12))

    def test_worked_family_closed_form(self, worked):
        d, family, _, _ = worked
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

    def test_fermionic_family_passes(self):
        # q = -1: beta_1 = 0 ends the fermionic ladder; no check divides by it
        cfg = {"q": -1, "K": 32, "family": {"kind": "rank_one", "preset": "worked"},
               "tasks": ["family", "mutator", "theta"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summary, code = run_config(cfg)
        assert code == 0
        assert summary["tasks"]["family"]["raise_phi"] < 1e-11

    def test_biorthogonality(self, worked):
        _, family, _, _ = worked
        assert gram_deviation(family) < 1e-12
        g = family.phi.dense().conj().T @ family.psi.dense()
        assert g[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_rejects_singular_source(self):
        # alpha + beta + alpha beta = 0 holds to roundoff, yet B_S B_inv
        # carries the rounding of alpha beta <u, v>, ~1e9 eps and up; on
        # u = v = e_0 the blocks cancel exactly, and only their size shows
        worked = worked_deformation(1j)
        cases = [(worked.u, worked.v, -1 + 1e-9), (worked.u, worked.v, 1e300),
                 ([0.6, 0.8], [0.6, 0.8], -1 - 1e-9), ([1.0], [1.0], 1e198)]
        for u, v, alpha in cases:
            with pytest.raises(ValueError, match="not invertible"):
                Deformation.from_alpha(u, v, alpha)

class TestLadder:
    def test_identity_residuals(self):
        family = build_family(Deformation(), Q, 32)
        assert max(check_ladder(family).values()) < 1e-13

    def test_worked_residuals(self, worked):
        _, family, a, b = worked
        assert max(check_ladder(family).values()) < 1e-11

    def test_vacua_annihilated(self, worked):
        _, family, a, b = worked
        assert np.linalg.norm(a @ family.phi.dense()[:, 0]) < 1e-14
        assert np.linalg.norm(b.adjoint() @ family.psi.dense()[:, 0]) < 1e-14


class TestNumberOperator:
    def test_vacuum_eigenvalue_zero(self, worked):
        _, family, a, b = worked
        n = b.dense() @ a.dense()
        assert np.linalg.norm(n @ family.phi.dense()[:, 0]) < 1e-14

    def test_bosonic_integer_spectrum(self):
        family = build_family(Deformation(), 1.0, 16)
        a, b = make_pair(Deformation(), 1.0, 16)[:2]
        n, phi = b.dense() @ a.dense(), family.phi.dense()
        for m in range(14):
            assert np.linalg.norm(n @ phi[:, m] - m * phi[:, m]) < 1e-13

    def test_worked_third_level(self):
        source = worked_deformation(1j)
        family = build_family(source, 0.5, DIM)
        a, b = make_pair(source, 0.5, DIM)[:2]
        n, phi3 = b.dense() @ a.dense(), family.phi.dense()[:, 3]
        assert np.linalg.norm(n @ phi3 - 1.75 * phi3) < 1e-11

    def test_residual_report(self, worked):
        _, family, a, b = worked
        rep = number_eigencheck(family)
        assert set(rep) == {"number_residual_phi", "number_residual_psi"}
        assert max(rep.values()) < 1e-11

    def test_isospectral_safe_block(self, worked):
        _, family, a, b = worked
        safe = family.safe_dim
        n = (b.dense() @ a.dense())[:safe, :safe]
        ev = np.sort(np.linalg.eigvals(n).real)
        ev_dag = np.sort(np.linalg.eigvals(n.conj().T).real)
        assert np.max(np.abs(ev - ev_dag)) < 1e-9
        expected = np.sort(qcore.BetaSequence(Q, safe).bracket[:safe])      # [m]
        assert np.max(np.abs(ev - expected)) < 1e-9


class TestTheta:
    def test_identity_theta(self):
        family = build_family(Deformation(), Q, 16)
        theta = build_theta(family)
        assert np.allclose(theta.dense(), np.eye(16), atol=1e-14)

    def test_series_matches_closed_form(self, worked):
        source, family, _, _ = worked
        theta = build_theta(family)
        closed = np.linalg.inv(dense_similarity(source, DIM)[0]
                               @ dense_similarity(source, DIM)[0].conj().T)
        assert np.max(np.abs(theta.dense() - closed)) < 1e-11
        assert np.max(np.abs(theta.dense() - closed_form_theta(source, DIM).dense())) < 1e-11

    def test_positive_definite(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family).dense()
        herm = 0.5 * (theta + theta.conj().T)
        assert np.min(np.linalg.eigvalsh(herm)) > 0.0
        assert np.max(np.abs(theta - herm)) < 1e-13

    def test_inverse_pair(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family).dense()
        phi = family.phi.dense()
        theta_inv = phi @ phi.conj().T      # sum |phi_n><phi_n|
        assert np.max(np.abs(theta @ theta_inv - np.eye(DIM))) < 1e-11
        assert np.max(np.abs(theta_inv @ theta - np.eye(DIM))) < 1e-11

    def test_intertwines_number_operators(self, worked):
        _, family, a, b = worked
        theta = build_theta(family).dense()
        n = b.dense() @ a.dense()
        comm = n.conj().T @ theta - theta @ n
        phi = family.phi.dense()
        for m in range(family.safe_dim):
            assert np.linalg.norm(comm @ phi[:, m]) < 1e-10

    def test_conjugation(self, worked):
        _, family, _, _ = worked
        theta = build_theta(family)
        rep = check_theta_conjugate(family, theta)
        assert rep["conjugation_residual"] < 1e-10
        assert rep["mapping_residual"] < 1e-10

    def test_wrong_theta_detected(self, worked):
        _, family, _, _ = worked
        rep = check_theta_conjugate(family, identity_plus(DIM))
        assert rep["conjugation_residual"] > 1e-2
        with pytest.raises(ValueError, match="window"):
            check_theta_conjugate(family, identity_plus(DIM, np.eye(DIM)))


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
        family = build_family(Deformation(), Q, DIM)
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
        d = Deformation.from_alpha(u, u, 1j)
        family = build_family(d, Q, 32)
        norms_phi = family.phi.column_norms(32)
        norms_psi = family.psi.column_norms(32)
        assert np.all(norms_phi <= 1.0 + abs(d.alpha_def) + 1e-12)
        assert np.all(norms_psi <= 1.0 + abs(d.beta_def) + 1e-12)


def array(entries, ndim):
    """Lists of numbers as a real array, lists of [re, im] pairs as a
    complex one, signed zeros kept."""
    x = np.array(entries, dtype=float)
    if x.ndim > ndim:           # reinterpret the pairs
        x = np.ascontiguousarray(x).view(complex)[..., 0]
    return x


def source_record(family) -> dict:
    """The family's source record as the summary carries it: through the
    summary's sorted, indented JSON encoding and back."""
    return json.loads(json.dumps(family_to_json(family), sort_keys=True, indent=2))


def parse_source(src: dict) -> Deformation:
    """The deformation a source record names: u, v, alpha_def and beta_def."""
    return Deformation() if src["kind"] == "identity" else Deformation(
        array(src["u"], 1), array(src["v"], 1),
        complex(*src["alpha_def"]), complex(*src["beta_def"]))


def rebuild_family(src: dict, dim: int) -> tuple[FockOperator, FockOperator]:
    """phi = S and psi = S^{-dag} from a source record, so S = 1 + B_S and
    S^{-1} = 1 + B_inv on K = dim, with phi_n = e_n + alpha conj(u_n) v and
    psi_n = e_n + conj(beta) conj(v_n) u."""
    s_block, inv_block = parse_source(src).blocks()
    return identity_plus(dim, s_block), identity_plus(dim, inv_block).adjoint()


def assert_same_operator(got: FockOperator, want: FockOperator):
    assert got.shift == want.shift
    for x, y in ((got.diag, want.diag), (got.block, want.block)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()       # bitwise, signed zeros too


def test_family_export_round_trip(worked, tmp_path):
    # the source record of the summary a family task writes
    _, family, _, _ = worked
    cfg = {"q": Q, "K": DIM, "tasks": ["family"],
           "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}}
    assert run_config(cfg, tmp_path)[1] == 0
    src = json.loads((tmp_path / "summary.json").read_text())["tasks"]["family"]["source"]
    assert src == source_record(family)
    assert set(src) == {"kind", "u", "v", "alpha_def", "beta_def"}
    assert src["kind"] == "rank_one"
    phi, psi = rebuild_family(src, DIM)
    assert_same_operator(phi, family.phi)
    assert_same_operator(psi, family.psi)


# ---------------------------------------------------------------------------
# the windowed run path against the dense oracles
# ---------------------------------------------------------------------------

def max_col(m: np.ndarray, n: int) -> float:
    return float(np.max(np.linalg.norm(m[:, :n], axis=0), initial=0.0))


# metrics that read the largest entry of their residual; the others read
# its largest column norm over the safe block
ENTRY_METRICS = ("gram_deviation", "series_vs_closed", "inverse_residual")


def dense_residuals(d: Deformation, q: float, dim: int) -> dict:
    """Every Fock check on K x K arrays, as the relations read: metric ->
    (residual, the terms it is the difference of)."""
    s, s_inv = dense_similarity(d, dim)
    a, b = dense_pair(d, q, dim)
    c = dense_c(q, dim)
    cdag = c.conj().T
    phi, psi = s, s_inv.conj().T
    eye = np.eye(dim)
    n_op, eigen = b @ a, cdag @ c
    theta = psi @ psi.conj().T
    terms = {
        "qmutator_residual": (a @ b, q * (b @ a), eye),
        "gram_deviation": (phi.conj().T @ psi, eye),
        "raise_phi": (b @ phi, phi @ cdag),
        "lower_phi": (a @ phi, phi @ c),
        "raise_psi": (a.conj().T @ psi, psi @ cdag),
        "lower_psi": (b.conj().T @ psi, psi @ c),
        "number_residual_phi": (n_op @ phi, phi @ eigen),
        "number_residual_psi": (n_op.conj().T @ psi, psi @ eigen),
        "series_vs_closed": (theta, np.linalg.inv(s @ s.conj().T)),
        "conjugation_residual": (a, np.linalg.inv(theta) @ b.conj().T @ theta),
        "mapping_residual": (theta @ phi, psi),
        "inverse_residual": (theta @ (phi @ phi.conj().T), eye),
    }
    return {key: (functools.reduce(operator.sub, t), t) for key, t in terms.items()}


def dense_metric(key: str, residual: np.ndarray, safe: int) -> float:
    if key in ENTRY_METRICS:
        return float(np.max(np.abs(residual)))
    return max_col(residual, safe)


def dense_checks(d: Deformation, q: float, dim: int, safe: int) -> dict:
    """Every Fock check evaluated on K x K arrays."""
    return {key: dense_metric(key, r, safe)
            for key, (r, _) in dense_residuals(d, q, dim).items()}


def run_metrics(d: Deformation, q: float, dim: int) -> dict:
    """The family, mutator and theta metrics of `biquon run` on the
    deformation d."""
    def entries(x):
        return [[k, z.real, z.imag] for k, z in enumerate(x)]
    family = {"kind": "rank_one", "alpha_def": [d.alpha_def.real, d.alpha_def.imag],
              "u": entries(d.u), "v": entries(d.v)}
    summary, _ = run_config({"q": q, "K": dim, "family": family,
                             "tasks": ["family", "mutator", "theta"]})
    return {m: report[m] for report in summary["tasks"].values() for m in report["bounds"]}


# each dense-oracle metric against the bound of the task that reports it
BOUNDS = {"qmutator_residual": TOLERANCES["mutator"],
          **dict.fromkeys(("gram_deviation", "raise_phi", "lower_phi", "raise_psi",
                           "lower_psi", "number_residual_phi", "number_residual_psi"),
                          TOLERANCES["family"]),
          **dict.fromkeys(("series_vs_closed", "conjugation_residual",
                           "mapping_residual", "inverse_residual"), TOLERANCES["theta"])}


def random_deformation(extent: int, seed: int, alpha: complex):
    """Compact u, v of the given support extent with <u, v> = 1, or None
    when the drawn u, v are too close to orthogonal."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(extent) + 1j * rng.standard_normal(extent)
    v = rng.standard_normal(extent) + 1j * rng.standard_normal(extent)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    pairing = np.vdot(u, v)
    if abs(pairing) <= 0.3:
        return None
    return Deformation.from_alpha(u, v / pairing, alpha)


@st.composite
def deformations(draw):
    """Random compact u, v (support extent 1-12) with <u, v> = 1, alpha != -1."""
    extent = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    alpha = complex(draw(st.floats(-2, 2)), draw(st.floats(-2, 2)))
    assume(abs(1 + alpha) > 0.3)
    d = random_deformation(extent, seed, alpha)
    assume(d is not None)
    return d


class TestAgainstDenseOracles:
    @settings(max_examples=60, deadline=None)
    @given(d=deformations(), q=st.floats(0.01, 0.99), extra=st.integers(3, 64))
    @example(d=worked_deformation(0), q=0.5, extra=8)
    @example(d=worked_deformation(1e-300j), q=0.5, extra=8)
    def test_structured_matches_dense(self, d, q, extra):
        dim = min(d.support_extent + extra, 128)
        family = build_family(d, q, dim)
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
        assert close(closed_form_theta(d, dim).dense(), theta)

        if 1.0 + np.max(np.abs(d.blocks()[0]), initial=0.0) == 1.0:
            # S rounds to 1: every family and theta residual would read exactly 0.0
            with pytest.raises(ConfigError, match=r"^tasks\[0\]: S = 1"):
                run_metrics(d, q, dim)
            return
        dense = dense_checks(d, q, dim, family.safe_dim)
        structured = run_metrics(d, q, dim)
        for key, bound in BOUNDS.items():
            assert abs(structured[key] - dense[key]) <= bound, key

    def test_worked_values_match_dense(self):
        d = worked_deformation(1j)
        family = build_family(d, Q, DIM)
        dense = dense_checks(d, Q, DIM, family.safe_dim)
        ladder = check_ladder(family)
        for key in ("raise_phi", "lower_phi", "raise_psi", "lower_psi"):
            assert ladder[key] == pytest.approx(dense[key], abs=1e-15)


def compact_deformation(extent: int) -> Deformation:
    """The first random_deformation of the given extent that exists."""
    return next(d for seed in range(100)
                if (d := random_deformation(extent, seed, 0.7 - 0.4j)) is not None)


WINDOW_FAMILIES = {"worked": worked_deformation(1j),
                   **{f"extent{e}": compact_deformation(e) for e in (6, 9, 12)}}


@pytest.mark.parametrize("size", ["extent+3", "window", 64, 256])
@pytest.mark.parametrize("name", sorted(WINDOW_FAMILIES))
@pytest.mark.parametrize("q", [0.3, 0.7, 0.999, -0.5, 1.5])
def test_window_matches_dense_oracle(q, name, size):
    """The run's windowed metrics equal the K x K oracle's to roundoff, and
    past the window W every oracle residual column is exactly 0, the
    mutator's apart from its diagonal entry, the beta band.

    At K = extent + 3 and K = W the window is the whole truncation, edge
    included.  The roundoff budget is 64 eps times the largest entry of the
    terms in the columns the metric reads: W of them, or the safe block
    for the mutator, whose band reaches it.
    """
    d = WINDOW_FAMILIES[name]
    extent = d.support_extent
    dim = {"extent+3": extent + 3, "window": extent + HEAD + REACH}.get(size, size)
    w = min(dim, extent + HEAD + REACH)
    safe = d.safe_dim(dim)
    got = run_metrics(d, q, dim)
    eps = np.finfo(float).eps
    for key, (residual, terms) in dense_residuals(d, q, dim).items():
        cols = safe if key == "qmutator_residual" else w
        scale = max(np.max(np.abs(t[:, :cols])) for t in terms)
        assert abs(got[key] - dense_metric(key, residual, safe)) <= 64 * eps * scale, key
        if key == "qmutator_residual":
            residual = residual - np.diag(np.diag(residual))
        assert not residual[:, w:].any(), key
        if key in ENTRY_METRICS:
            assert not residual[w:].any(), key


def legacy_family_json(family, s, s_inv, stream, residual_report):
    """The nested-list writer with json.dump, on the dense rows
    phi_n = S e_n and psi_n = conj(row n of S^{-1})."""
    doc = {
        "K": family.K,
        "q": family.q,
        "source": family.source.describe(),
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
COMPACT = Deformation.from_alpha(
    np.array([0.6, 0.8j, 0.0, 0.3 - 0.1j]),
    np.array([0.6, 0.8j, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5, 0.2j]), -0.5)


def dense_rows(m: np.ndarray) -> list:
    return np.stack([m.real, m.imag], axis=-1).tolist()


def dense_document(family, residual_report) -> str:
    """The earlier family document, with phi and psi rebuilt from the
    family's source record and written as the dense rows that format held:
    the rows of S^T and of conj(S^{-1})."""
    src = source_record(family)
    phi, psi = rebuild_family(src, family.K)
    return json.dumps({
        "K": family.K,
        "q": family.q,
        "source": src,
        "phi": dense_rows(phi.dense().T),
        "psi": dense_rows(psi.adjoint().dense().conj()),
        "residuals": residual_report,
    }, sort_keys=True)


@pytest.mark.parametrize("dim", [32, 64])
@pytest.mark.parametrize("deformation", [worked_deformation(1j), COMPACT],
                         ids=["worked", "compact"])
def test_export_bytes_match_legacy_writer(deformation, dim):
    family = build_family(deformation, 0.37, dim)
    report = check_ladder(family)
    old = io.StringIO()
    legacy_family_json(family, *dense_similarity(deformation, dim), old, report)
    new = dense_document(family, report)
    assert new == old.getvalue()
    assert "[0.0, -0.0]" in new         # psi's signed zeros survive


def test_identity_export_bytes_match_legacy_writer():
    family = build_family(Deformation(), 0.5, 16)
    old = io.StringIO()
    eye = np.eye(16, dtype=complex)
    legacy_family_json(family, eye, eye, old, {})
    assert dense_document(family, {}) == old.getvalue()


@settings(max_examples=60, deadline=None)
@given(deformation=st.one_of(st.none(), deformations()),
       q=st.floats(-1.0, 2.0), extra=st.integers(3, 300))
def test_source_rebuilds_phi_and_psi(deformation, q, extra):
    # phi and psi rebuilt from the source record the summary carries are
    # the family's, bit for bit
    source = Deformation() if deformation is None else deformation
    dim = min(source.support_extent + extra, 300)
    family = build_family(source, q, dim)
    phi, psi = rebuild_family(source_record(family), dim)
    assert_same_operator(phi, family.phi)
    assert_same_operator(psi, family.psi)


@pytest.mark.parametrize("family", [
    {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]},
    {"kind": "rank_one", "alpha_def": [0.3, -0.7], "u": [[0, 0.6, 0.8], [3, 0.25, -0.1]],
     "v": [[0, 0.6, 0.8], [5, -0.3, 0.2]]}], ids=["worked", "explicit"])
def test_source_rebuilds_the_pair(family, tmp_path, capsys):
    # make_pair on the source the family report records, at the run's q and
    # K, is the run's a and b bit for bit: no operator needs writing out
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"q": 0.3, "K": 48, "family": family, "tasks": ["family"]}))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    a, b = make_pair(parse_source(summary["tasks"]["family"]["source"]),
                     summary["q"], summary["K"])[:2]
    run = build_family(validate_config(json.loads(config.read_text()))["family"]["deformation"],
                       0.3, 48)
    assert_same_operator(a, run.a)
    assert_same_operator(b, run.b)


def test_export_holds_no_dense_square():
    # one 1024 x 1024 complex array is 16 MB, its tolist() several times that
    family = build_family(worked_deformation(1j), 0.5, 1024)
    tracemalloc.start()
    try:
        src = family_to_json(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20
    assert src == worked_deformation(1j).describe()


def test_family_source_does_not_grow_with_K():
    # the source is u, v, alpha_def and beta_def: nothing that grows with K
    sources = {}
    for K in (64, 65536):
        cfg = {"q": 0.5, "K": K, "tasks": ["family"],
               "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}}
        summary, code = run_config(cfg)
        assert code == 0
        sources[K] = summary["tasks"]["family"]["source"]
    assert sources[65536] == sources[64] == worked_deformation(1j).describe()


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


def test_run_artefacts_at_K_65536_stay_small(tmp_path, capsys):
    # an earlier family.json held 2 K^2 pairs (~100 GB here) and each
    # operator dump one K x K complex array (68 GB)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "q": 0.5, "K": 65536,
        "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]},
        "tasks": ["family", "mutator"]}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["run", "--config", str(config), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2 ** 20
    sizes = {f.name: f.stat().st_size for f in out.iterdir()}
    assert set(sizes) == {"summary.json"}
    assert max(sizes.values()) < 2 * 2 ** 20, sizes


def test_run_path_stays_in_the_window(monkeypatch):
    """The family, mutator and theta tasks at K = 4096 ask for no dense
    window wider than W = support extent + HEAD + REACH, and never hold an
    array the size of one K x W complex block: their peak is a few
    K-vectors, where a K x K array would be 268 MB."""
    K = 4096
    W = worked_deformation(1j).support_extent + HEAD + REACH
    widths = []

    def recorded(op, n=None, _dense=FockOperator.dense):
        widths.append(op.dim if n is None else n)
        return _dense(op, n)
    monkeypatch.setattr(FockOperator, "dense", recorded)
    cfg = {"q": 0.5, "K": K, "tasks": ["family", "mutator", "theta"],
           "family": {"kind": "rank_one", "preset": "worked", "alpha_def": [0, 1]}}
    tracemalloc.start()
    try:
        summary, code = run_config(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert widths and max(widths) <= W
    assert peak < K * W * np.dtype(complex).itemsize


def test_family_at_a_million_basis_states_exits_0(capsys):
    assert main(["family", "--dim", "1048576"]) == 0
    assert json.loads(capsys.readouterr().out)["all_pass"]
