"""Tests for the symbolic position-space realization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquon import bicoherent, positionrep, qcore
from biquon.cli import run_config
from biquon.positionrep import (
    AnalyticState,
    PositionParams,
    apply_a,
    apply_a_dagger,
    apply_b,
    apply_b_dagger,
    build_families,
    coefficient_recursion,
    default_grid,
    family_norms,
    gram_condition,
    inner,
    l_value,
    lattice_families,
    lattice_gram,
    ladder_check,
    norm,
    norm_formula_check,
    norm_sq_formula,
    phi_state,
    psi_state,
    qmutation_grid_check,
    similarity_check,
    state_to_csv,
    theta_conjugacy_check,
    vacuum_check,
    vacuum_phi,
    vacuum_psi,
)

PARAMS = PositionParams(0.5, 0.7)
X = default_grid(PARAMS.gamma)


def trapezoid(f, g, gamma=PARAMS.gamma):
    """Reference <f, g>: the trapezoid rule on the 4096-point sample grid."""
    x = default_grid(gamma)
    y = f.sample(x).conj() * g.sample(x)
    return complex((x[1] - x[0]) * (np.sum(y) - 0.5 * (y[0] + y[-1])))


class TestParams:
    def test_alpha_inverts_q(self):
        for q in (0.1, 0.5, 0.93):
            p = PositionParams(q)
            assert math.exp(-2.0 * p.alpha ** 2) == pytest.approx(q, abs=1e-14)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.3])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            PositionParams(q)


class TestAnalyticState:
    def test_translation_matches_resampling(self):
        state = AnalyticState([(np.array([0.3, 1.0]), 0.2 + 0.4j)])
        x = np.linspace(-3, 3, 41)
        shifted = state.translate(0.5)
        assert np.allclose(shifted.sample(x), state.sample(x + 0.5), atol=1e-13)

    def test_exponent_shift(self):
        state = vacuum_phi(PARAMS)
        assert np.allclose(state.shift_exponent(0.3).sample(X),
                           np.exp(0.3 * X) * state.sample(X), atol=1e-12)

    def test_merge_cancels_opposite_terms(self):
        p = np.array([1.0 + 0j])
        state = AnalyticState([(p, 0.5), (-p, 0.5)])
        assert state.terms == []


def _oracle_pairs():
    phis, psis = build_families(PARAMS, 4)
    poly = AnalyticState([(np.array([0.2, 0.0, 1.0]), 0.3 + 0.1j)])
    hermite_like = AnalyticState([(np.array([0.0, 0.0, 1.0]), 0.0)])
    pairs = [pytest.param(vacuum_phi(PARAMS), vacuum_psi(PARAMS), id="vacuum"),
             pytest.param(poly, hermite_like, id="poly"),
             pytest.param(poly, phis[2], id="poly-phi2")]
    pairs += [pytest.param(phis[n], psis[m], id=f"family-{n}{m}")
              for n in range(5) for m in range(5)]
    pairs += [pytest.param(phis[n], phis[n], id=f"phi-{n}") for n in range(5)]
    return pairs


# coefficient magnitudes stay above 1e-6: near 1e-308, ||f||^2 underflows to 0
# and the relative bound below loses its scale
_COEFF = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1.0,
                            allow_nan=False, allow_infinity=False)
_TERM = st.tuples(st.lists(_COEFF, min_size=1, max_size=4),
                  st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
_STATES = st.lists(_TERM, min_size=1, max_size=4).map(lambda terms: AnalyticState(
    [(np.array(p), complex(re, im)) for p, re, im in terms]))


class TestExactInner:
    @pytest.mark.parametrize("f,g", _oracle_pairs())
    def test_matches_trapezoid(self, f, g):
        assert abs(inner(f, g) - trapezoid(f, g)) <= 1e-12 * norm(f) * norm(g)

    def test_empty_state(self):
        assert inner(AnalyticState([]), vacuum_phi(PARAMS)) == 0.0
        assert norm(AnalyticState([])) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(f=_STATES, g=_STATES)
    def test_random_states(self, f, g):
        scale = norm(f) * norm(g)
        exact = inner(f, g)
        assert abs(exact - trapezoid(f, g, 0.0)) <= 1e-12 * scale
        assert abs(exact - inner(g, f).conjugate()) <= 1e-14 * scale


class TestVacua:
    def test_annihilation_is_exact(self):
        rep = vacuum_check(PARAMS)
        assert rep["a_phi0"] < 1e-12
        assert rep["bdag_psi0"] < 1e-12

    def test_pairing_normalized(self):
        rep = vacuum_check(PARAMS)
        assert abs(rep["pairing"] - 1.0) < 1e-10

    def test_vacuum_norm_squared(self):
        # ||phi_0||^2 = e^{gamma^2} since L_0 = 1
        got = norm(vacuum_phi(PARAMS)) ** 2
        assert got == pytest.approx(math.exp(PARAMS.gamma ** 2), rel=1e-12)


class TestLadderAction:
    def test_first_excited_closed_form(self):
        phi0 = vacuum_phi(PARAMS)
        got = apply_b(PARAMS, phi0) * (1.0 / qcore.beta(PARAMS.q, 0))
        al = PARAMS.alpha
        pref = -1j / PARAMS.sqrt_1mq
        expected = AnalyticState([
            (np.array([pref * math.pi ** -0.25]),
             PARAMS.gamma + 1.5j * al + 2j * al),
            (np.array([-pref * math.pi ** -0.25 * math.exp(-al * al)]),
             PARAMS.gamma + 1.5j * al),
        ])
        assert norm(got - expected) < 1e-12

    def test_gamma_zero_collapses_to_adjoint_pair(self):
        p0 = PositionParams(0.5, 0.0)
        f = AnalyticState([(np.array([0.2, 0.0, 1.0]), 0.3 + 0.1j)])
        x = default_grid(0.0)
        assert np.allclose(apply_b(p0, f).sample(x),
                           apply_a_dagger(p0, f).sample(x), atol=1e-13)
        assert np.allclose(apply_a(p0, f).sample(x),
                           apply_b_dagger(p0, f).sample(x), atol=1e-13)

    def test_ladder_relations_on_grid(self):
        rep = ladder_check(PARAMS, 6)
        assert rep["max_residual"] < 1e-10

    def test_qmutation_identity(self):
        phis, _ = build_families(PARAMS, 2)
        hermite_like = AnalyticState([(np.array([0.0, 0.0, 1.0]), 0.0)])
        resid = qmutation_grid_check(
            PARAMS, [phis[0], hermite_like, phis[2]])
        assert resid < 1e-10


class TestCoefficients:
    def test_paper_rows(self):
        table = coefficient_recursion(PARAMS, 2)
        e = math.exp(-PARAMS.alpha ** 2)
        assert np.allclose(table.row(0), [1.0])
        assert np.allclose(table.row(1), [-e, 1.0])
        assert np.allclose(table.row(2), [e * e, -e - e ** 3, 1.0])

    def test_leading_coefficient_is_one(self):
        table = coefficient_recursion(PARAMS, 10)
        for n in range(11):
            assert table.row(n)[n] == pytest.approx(1.0, abs=1e-14)

    def test_rows_match_ladder_built_states(self):
        # independent route: build phi_n by ladder action and read the
        # coefficients off the exponent structure
        table = coefficient_recursion(PARAMS, 5)
        phis, _ = build_families(PARAMS, 5)
        al = PARAMS.alpha
        bs = qcore.BetaSequence(PARAMS.q, 6)
        for n in range(6):
            pref = math.pi ** -0.25 / bs.factorial(n - 1) \
                * (-1j / PARAMS.sqrt_1mq) ** n
            w0 = PARAMS.gamma + 1.5j * al
            got = np.zeros(n + 1, dtype=complex)
            for poly, w in phis[n].terms:
                k = round((w - w0).imag / (2 * al))
                got[k] = poly[0] / pref
            assert np.allclose(got, table.row(n), atol=1e-12)

    def test_gamma_independence(self):
        t1 = coefficient_recursion(PositionParams(0.5, 0.3), 6)
        t2 = coefficient_recursion(PositionParams(0.5, 0.9), 6)
        for n in range(7):
            assert np.array_equal(t1.row(n), t2.row(n))

    def test_states_from_rows_match_ladder(self):
        phis, psis = build_families(PARAMS, 4)
        table = coefficient_recursion(PARAMS, 4)
        for n in range(5):
            assert norm(phis[n] - phi_state(PARAMS, n, table)) < 1e-12
            assert norm(psis[n] - psi_state(PARAMS, n, table)) < 1e-12


class TestSimilarity:
    def test_gamma_zero_is_identity(self):
        rep = similarity_check(PositionParams(0.5, 0.0), 4)
        assert rep["similarity_phi"] < 1e-13
        assert rep["similarity_psi"] < 1e-13

    def test_pointwise_match(self):
        rep = similarity_check(PARAMS, 6)
        assert rep["similarity_phi"] < 1e-11
        assert rep["similarity_psi"] < 1e-11

    @pytest.mark.parametrize("gamma", [26.6, -26.64])
    def test_family_task_near_gamma_max(self, gamma):
        # exp(gamma x) alone overflows on the grid, |x| <= 12 + |gamma|
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": gamma},
                                    "tasks": [{"task": "family", "n_max": 8}]})
        family = summary["tasks"]["family"]
        assert code == 0
        assert math.isfinite(family["similarity_phi"]) and math.isfinite(family["similarity_psi"])
        assert family["max_residual"] < 1e-9

    def test_biorthogonality(self):
        rep = similarity_check(PARAMS, 6)
        assert rep["biorthogonality"] < 1e-9

    def test_specific_level(self):
        p = PositionParams(0.5, 0.7)
        base = PositionParams(0.5, 0.0)
        x = default_grid(p.gamma)
        got = phi_state(p, 2).sample(x)
        ref = np.exp(p.gamma * x) * phi_state(base, 2).sample(x)
        assert np.max(np.abs(got - ref)) < 1e-11


class TestNormFormula:
    def test_ground_level(self):
        assert l_value(PARAMS, 0) == pytest.approx(1.0, abs=1e-15)
        assert norm_sq_formula(PARAMS, 0) == pytest.approx(
            math.exp(PARAMS.gamma ** 2), rel=1e-14)

    def test_first_level_quadrature_vs_formula(self):
        p = PositionParams(0.5, 0.3)
        got = norm(phi_state(p, 1)) ** 2
        assert abs(got - norm_sq_formula(p, 1)) / norm_sq_formula(p, 1) < 1e-6

    @pytest.mark.parametrize("q", [0.3, 0.6])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_formula_matches_quadrature(self, q, gamma):
        rep = norm_formula_check(PositionParams(q, gamma), 5)
        assert rep["max_rel_err"] < 1e-6

    def test_norm_symmetry_between_families(self):
        rep = norm_formula_check(PARAMS, 6)
        assert rep["norm_symmetry"] < 1e-10

    def test_l_values_real_and_bounded(self):
        for q in (0.3, 0.6):
            p = PositionParams(q, 0.5)
            for n in range(9):
                lv = l_value(p, n)
                assert abs(lv.imag) < 1e-14 * max(1.0, abs(lv.real))
                assert lv.real <= (n + 1) ** 2


def l_value_double_sum(params, n):
    """Reference L_n, term by term, and the sum of the term magnitudes."""
    q, al, gamma = params.q, params.alpha, params.gamma
    facts = [qcore.q_number_factorial(q, m) for m in range(n + 1)]
    total, scale = 0.0 + 0.0j, 0.0
    for k in range(n + 1):
        for l in range(n + 1):
            term = (-1) ** (k + l) \
                * math.exp(-al * al * (k + l + (l - k) ** 2)) \
                * np.exp(2j * al * gamma * (l - k)) \
                / (facts[k] * facts[l] * facts[n - k] * facts[n - l])
            total += term
            scale += abs(term)
    return complex(total), scale


class TestLattice:
    """The batched lattice kernels against per-state closed forms."""

    @settings(max_examples=25, deadline=None)
    @given(q=st.floats(0.1, 0.7), gamma=st.floats(-3.0, 3.0), n_max=st.integers(0, 20))
    def test_gram_norms_and_l_values_match_per_state_oracles(self, q, gamma, n_max):
        params = PositionParams(q, gamma)
        phi, psi = lattice_families(params, n_max)
        phis = [phi.state(n) for n in range(n_max + 1)]
        psis = [psi.state(n) for n in range(n_max + 1)]
        for f, g, fs, gs in ((phi, psi, phis, psis), (phi, phi, phis, phis)):
            gram, shift = lattice_gram(f, g)
            s = np.add.outer(f.exponents.conj(), g.exponents)
            kernel = math.sqrt(math.pi) * np.abs(np.exp(s * s / 4.0))
            scale = np.abs(f.coeffs) @ kernel @ np.abs(g.coeffs).T
            exact = np.array([[inner(a, b) for b in gs] for a in fs])
            assert np.all(np.abs(gram * math.exp(shift) - exact) <= 1e-12 * scale)
        norms_sq = np.array([inner(f, f).real for f in phis])
        assert np.all(np.abs(family_norms(params, n_max) ** 2 - norms_sq)
                      <= 1e-12 * np.diagonal(scale))
        for n in range(n_max + 1):
            ref, terms = l_value_double_sum(params, n)
            assert abs(l_value(params, n) - ref) <= 1e-12 * terms

    def test_states_are_rows_of_one_matrix(self):
        phi, psi = lattice_families(PARAMS, 6)
        assert np.array_equal(phi.coeffs, psi.coeffs)
        assert np.all(np.triu(phi.coeffs, 1) == 0)
        for n in range(7):
            assert norm(phi.state(n) - phi_state(PARAMS, n)) == 0.0
            assert norm(psi.state(n) - psi_state(PARAMS, n)) == 0.0


def _poison(monkeypatch, owner, name):
    """Make every call of owner.name after the first return a NaN (one NaN
    sample for an array), so a NaN follows a finite value."""
    original = getattr(owner, name)
    calls = []

    def poisoned(*args):
        calls.append(None)
        out = original(*args)
        if len(calls) == 1:
            return out
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[len(out) // 2] = np.nan
            return out
        return complex(math.nan)

    monkeypatch.setattr(owner, name, poisoned)


class TestNanVerdict:
    """A NaN in one sample or inner product reaches the verdict: the task
    reports it and the run exits 1."""

    @pytest.mark.parametrize("task,owner,name", [
        ({"task": "family", "n_max": 4}, AnalyticState, "sample"),
        ("mutator", positionrep, "inner"),
        ("theta", positionrep, "inner"),
        ({"task": "position", "n_max": 4}, positionrep, "inner"),
    ])
    def test_nan_is_reported_and_fails(self, monkeypatch, task, owner, name):
        _poison(monkeypatch, owner, name)
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": 0.7},
                                    "tasks": [task]})
        (report,) = summary["tasks"].values()
        values = [report["max_residual"], *(report[m] for m in report.get("bounds", {}))]
        assert any(math.isnan(v) for v in values)
        assert code == 1


class TestScaleAwareResiduals:
    """Position residuals are relative to the norm of the state acted on, so
    roundoff against ||phi_n|| ~ exp(gamma^2/2) passes at any admissible gamma."""

    @pytest.mark.parametrize("gamma", [5.0, 26.0])
    def test_mutator_passes_at_large_gamma(self, gamma):
        # absolute residuals read 1.94e-10 > 1e-10 at gamma = 5, 4.25e131 at 26
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": gamma},
                                    "tasks": ["mutator"]})
        assert code == 0
        assert 0.0 < summary["tasks"]["mutator"]["max_residual"] < 1e-14

    @pytest.mark.parametrize("gamma", [6.0, -26.6])
    def test_ladder_and_theta_pass_at_large_gamma(self, gamma):
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": gamma},
                                    "tasks": ["theta", {"task": "position", "n_max": 8}]})
        assert code == 0
        assert 0.0 < summary["tasks"]["position"]["ladder_residual"] < 1e-14

    def test_norm_is_finite_where_its_square_overflows(self):
        phi0 = vacuum_phi(PositionParams(0.5, 26.64))
        assert norm(phi0) == pytest.approx(math.exp(26.64 ** 2 / 2.0), rel=1e-13)


class TestRadius:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_guaranteed_radius_within_one_percent(self, q):
        params = PositionParams(q, 0.5)
        norms = family_norms(params, 40)
        rep = bicoherent.radius_report(norms, norms, q, "position")
        assert abs(rep.rho - math.sqrt(1.0 - q)) / math.sqrt(1.0 - q) < 0.01

    def test_empirical_radius_sees_the_larger_true_disc(self):
        # measured coefficient decay reflects the true convergence radius
        # 1/sqrt(1-q), strictly larger than the guaranteed bound
        q = 0.5
        params = PositionParams(q, 0.5)
        norms = family_norms(params, 40)
        rep = bicoherent.radius_report(norms, norms, q, "position")
        assert rep.empirical_rho_phi == pytest.approx(
            qcore.disc_radius(q), rel=0.02)
        assert rep.empirical_rho_phi > rep.rho


class TestTheta:
    def test_conjugacy_on_decaying_states(self):
        phis, _ = build_families(PARAMS, 3)
        assert theta_conjugacy_check(PARAMS, phis) < 1e-10


def test_gram_condition_is_finite_evidence():
    cond = gram_condition(PARAMS, 6)
    assert 1.0 <= cond < 1e6


def test_state_csv(tmp_path):
    table = coefficient_recursion(PARAMS, 1)
    out = tmp_path / "phi1.csv"
    with out.open("w", newline="") as fh:
        state_to_csv(phi_state(PARAMS, 1, table), X, fh)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == len(X) + 1

