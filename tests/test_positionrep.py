"""Tests for the position-space realization on its Gaussian lattice."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biquon import bicoherent, cli, positionrep, qcore
from biquon.cli import run_config
from biquon.positionrep import (
    AnalyticState,
    LatticeState,
    PositionParams,
    apply_a,
    apply_a_dagger,
    apply_b,
    apply_b_dagger,
    build_families,
    cancellation,
    coefficient_recursion,
    default_grid,
    inner,
    l_value,
    ladder_check,
    lattice,
    norm,
    norm_formula_check,
    qmutation_grid_check,
    similarity_check,
    theta_conjugacy_check,
)

PARAMS = PositionParams(0.5, 0.7)
X = default_grid(PARAMS.gamma)


def trapezoid(f, g, gamma=PARAMS.gamma):
    """Reference <f, g> of two one-row states: the trapezoid rule on the
    4096-point sample grid."""
    x = default_grid(gamma)
    y = f.sample(x)[0].conj() * g.sample(x)[0]
    return complex((x[1] - x[0]) * (np.sum(y) - 0.5 * (y[0] + y[-1])))


def exact(f, g):
    """<f_0, g_0> from the lattice Gram."""
    gram, c = inner(f, g)
    return complex(gram[0, 0] * math.exp(c))


def families(params, n_max):
    """phi and psi up to n_max, on the lattice of params.q up to row n_max."""
    return build_families(params, n_max, lattice(params, n_max))


def row(fam, n):
    """f_n of a family as a one-row state."""
    return LatticeState(fam.coeffs[n:n + 1], fam.w0, fam.step)


def on_lattice(fam, coeffs):
    """The states with the given coefficient rows on fam's lattice."""
    return LatticeState(np.atleast_2d(np.asarray(coeffs, dtype=complex)),
                        fam.w0, fam.step)


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
        # the banded maps against the operators' definitions through the
        # translation f(x + i alpha), sampled at complex points:
        #   a f = pref (e^{-2i al x} f(x) - e^{al^2 - i al s gamma} e^{-i al x} f(x + i al)),
        #   b f = -pref (e^{2i al x} f(x) - e^{-i al s gamma} e^{i al x} f(x + i al)),
        # pref = i / sqrt(1 - q), s = +1 for a and b, -1 for b^dag and a^dag
        al, g = PARAMS.alpha, PARAMS.gamma
        pref = 1j / PARAMS.sqrt_1mq
        x = np.linspace(-4.0, 4.0, 81)
        phi, psi = families(PARAMS, 3)
        for fam, s, down, up in ((phi, 1.0, apply_a, apply_b),
                                 (psi, -1.0, apply_b_dagger, apply_a_dagger)):
            f = on_lattice(fam, [0.3, -0.2 + 0.5j, 1.0, 0.4j])
            here, shifted = f.sample(x)[0], f.sample(x + 1j * al)[0]
            lowered = pref * (np.exp(-2j * al * x) * here
                              - np.exp(al * al - 1j * al * s * g - 1j * al * x) * shifted)
            raised = -pref * (np.exp(2j * al * x) * here
                              - np.exp(-1j * al * s * g + 1j * al * x) * shifted)
            scale = np.max(np.abs(here))
            assert np.max(np.abs(down(PARAMS, f).sample(x)[0] - lowered)) < 1e-12 * scale
            assert np.max(np.abs(up(PARAMS, f).sample(x)[0] - raised)) < 1e-12 * scale

    def test_exponent_shift(self):
        state = families(PARAMS, 2)[0]
        assert np.allclose(state.shift_exponent(0.3).sample(X),
                           np.exp(0.3 * X) * state.sample(X), atol=1e-12)

    def test_alias_is_the_lattice_state(self):
        assert AnalyticState is LatticeState


def _oracle_pairs():
    phi, psi = families(PARAMS, 4)
    pairs = [pytest.param(row(phi, 0), row(psi, 0), id="vacuum")]
    pairs += [pytest.param(row(phi, n), row(psi, m), id=f"family-{n}{m}")
              for n in range(5) for m in range(5)]
    pairs += [pytest.param(row(phi, n), row(phi, n), id=f"phi-{n}") for n in range(5)]
    return pairs


# coefficient magnitudes stay above 1e-6: near 1e-308, ||f||^2 underflows to 0
# and the relative bound below loses its scale
_COEFF = st.complex_numbers(min_magnitude=1e-6, max_magnitude=1.0,
                            allow_nan=False, allow_infinity=False)
_STATES = st.builds(
    lambda c, re, im, step: LatticeState(np.array([c]), complex(re, im), 1j * step),
    st.lists(_COEFF, min_size=1, max_size=5), st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0), st.floats(0.1, 1.5))


class TestExactInner:
    @pytest.mark.parametrize("f,g", _oracle_pairs())
    def test_matches_trapezoid(self, f, g):
        assert abs(exact(f, g) - trapezoid(f, g)) <= 1e-12 * norm(f)[0] * norm(g)[0]

    def test_empty_state(self):
        phi = families(PARAMS, 0)[0]
        empty = LatticeState(np.zeros((1, 0)), phi.w0, phi.step)
        assert exact(empty, phi) == 0.0
        assert norm(empty)[0] == 0.0

    @settings(max_examples=80, deadline=None)
    @given(f=_STATES, g=_STATES)
    def test_random_states(self, f, g):
        scale = norm(f)[0] * norm(g)[0]
        value = exact(f, g)
        assert abs(value - trapezoid(f, g, 0.0)) <= 1e-12 * scale
        assert abs(value - exact(g, f).conjugate()) <= 1e-14 * scale


class TestVacua:
    def test_annihilation_is_exact(self):
        # the k = 0 factor is exactly 0 on the vacuum's own lattice, so the
        # lowered vacuum has no term left (off it, _step_down raises)
        phi0, psi0 = families(PARAMS, 0)
        assert apply_a(PARAMS, phi0).coeffs.size == 0
        assert apply_b_dagger(PARAMS, psi0).coeffs.size == 0

    def test_pairing_normalized(self):
        phi0, psi0 = families(PARAMS, 0)
        assert abs(exact(phi0, psi0) - 1.0) < 1e-10

    def test_vacuum_norm_squared(self):
        # ||phi_0||^2 = e^{gamma^2} since L_0 = 1
        got = norm(families(PARAMS, 0)[0])[0] ** 2
        assert got == pytest.approx(math.exp(PARAMS.gamma ** 2), rel=1e-12)


def ladder_built(params, n_max):
    """phi_n = b phi_{n-1} / beta_{n-1} and psi_n = a^dag psi_{n-1} / beta_{n-1},
    applied one step at a time to the vacua."""
    out = []
    beta = qcore.BetaSequence(params.q, n_max).beta     # beta[n + 1] = beta_n
    for fam, up in zip(families(params, 0), (apply_b, apply_a_dagger)):
        rows, state = [fam.coeffs[0]], fam
        for n in range(n_max):
            state = up(params, state)
            state = LatticeState(state.coeffs / beta[n + 1], state.w0, state.step)
            rows.append(state.coeffs[0])
        out.append(rows)
    return out


class TestLadderAction:
    def test_first_excited_closed_form(self):
        phi0 = families(PARAMS, 0)[0]
        got = apply_b(PARAMS, phi0)
        al = PARAMS.alpha
        pref = -1j / PARAMS.sqrt_1mq * math.pi ** -0.25
        assert got.w0 == PARAMS.gamma + 1.5j * al
        assert np.allclose(got.coeffs[0] / qcore.BetaSequence(PARAMS.q, 0).beta[1],
                           [-pref * math.exp(-al * al), pref], rtol=1e-14, atol=0)

    def test_gamma_zero_collapses_to_adjoint_pair(self):
        p0 = PositionParams(0.5, 0.0)
        f = on_lattice(families(p0, 0)[0], [0.2, 0.0, 1.0])
        assert np.allclose(apply_b(p0, f).coeffs, apply_a_dagger(p0, f).coeffs,
                           rtol=0, atol=1e-15)
        assert np.allclose(apply_a(p0, f).coeffs, apply_b_dagger(p0, f).coeffs,
                           rtol=0, atol=1e-15)

    def test_lowering_refuses_a_foreign_lattice(self):
        phi, psi = families(PARAMS, 1)
        with pytest.raises(ValueError, match="lattice"):
            apply_a(PARAMS, psi)
        with pytest.raises(ValueError, match="lattice"):
            apply_b_dagger(PARAMS, phi)

    def test_ladder_relations_on_grid(self):
        rep = ladder_check(PARAMS, 6, lattice(PARAMS, 7))
        assert 0.0 < rep["max_residual"] < 1e-14

    def test_qmutation_identity(self):
        phi = families(PARAMS, 2)[0]
        states = on_lattice(phi, [phi.coeffs[0], [0.2, 0.0, 1.0], phi.coeffs[2]])
        assert qmutation_grid_check(PARAMS, states) < 1e-14


class TestCoefficients:
    def test_paper_rows(self):
        table = coefficient_recursion(PARAMS, 2)
        e = math.exp(-PARAMS.alpha ** 2)
        assert np.allclose(table, [[1.0, 0.0, 0.0], [-e, 1.0, 0.0],
                                   [e * e, -e - e ** 3, 1.0]], rtol=1e-14, atol=0)
        assert np.all(np.triu(table, 1) == 0)

    def test_leading_coefficient_is_one(self):
        table = coefficient_recursion(PARAMS, 10)
        for n in range(11):
            assert table[n, n] == pytest.approx(1.0, abs=1e-14)

    def test_rows_match_ladder_built_states(self):
        # independent route: build phi_n by ladder action and divide out pref_n
        table = coefficient_recursion(PARAMS, 5)
        fact = qcore.BetaSequence(PARAMS.q, 6).factorial
        for n, coeffs in enumerate(ladder_built(PARAMS, 5)[0]):
            pref = math.pi ** -0.25 / fact[n] * (-1j / PARAMS.sqrt_1mq) ** n
            assert np.allclose(coeffs / pref, table[n, :n + 1], atol=1e-12)

    def test_gamma_independence(self):
        t1 = coefficient_recursion(PositionParams(0.5, 0.3), 6)
        t2 = coefficient_recursion(PositionParams(0.5, 0.9), 6)
        assert np.array_equal(t1, t2)

    def test_states_from_rows_match_ladder(self):
        table = lattice(PARAMS, 4)
        for fam, rows in zip(build_families(PARAMS, 4, table), ladder_built(PARAMS, 4)):
            for n, coeffs in enumerate(rows):
                assert np.allclose(fam.coeffs[n, :n + 1], coeffs, rtol=0, atol=1e-14)


class TestSimilarity:
    def test_gamma_zero_is_identity(self):
        params = PositionParams(0.5, 0.0)
        rep = similarity_check(params, 4, lattice(params, 4))
        assert rep["similarity_phi"] < 1e-13
        assert rep["similarity_psi"] < 1e-13

    def test_pointwise_match(self):
        rep = similarity_check(PARAMS, 6, lattice(PARAMS, 6))
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
        rep = similarity_check(PARAMS, 6, lattice(PARAMS, 6))
        assert rep["biorthogonality"] < 1e-9

    def test_specific_level(self):
        p = PositionParams(0.5, 0.7)
        base = PositionParams(0.5, 0.0)
        x = default_grid(p.gamma)
        got = families(p, 2)[0].sample(x)[2]
        ref = np.exp(p.gamma * x) * families(base, 2)[0].sample(x)[2]
        assert np.max(np.abs(got - ref)) < 1e-11


def l_value_double_sum(params, n):
    """Reference L_n, term by term, and the sum of the term magnitudes."""
    q, al, gamma = params.q, params.alpha, params.gamma
    facts = qcore.BetaSequence(q, n).factorial_sq.tolist()      # [m]!
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


def norm_sq_formula(params, n):
    """Closed form ||phi_n||^2 = [n]! e^{gamma^2} (1-q)^{-n} L_n, with L_n
    from the double sum."""
    return qcore.BetaSequence(params.q, n).factorial_sq[n] * math.exp(params.gamma ** 2) \
        * (1.0 - params.q) ** (-n) * l_value_double_sum(params, n)[0].real


class TestNormFormula:
    def test_ground_level(self):
        assert l_value(PARAMS, 0, lattice(PARAMS, 0))[0] == pytest.approx(1.0, abs=1e-15)
        assert norm(families(PARAMS, 0)[0])[0] ** 2 == pytest.approx(
            norm_sq_formula(PARAMS, 0), rel=1e-14)

    def test_first_level_quadrature_vs_formula(self):
        p = PositionParams(0.5, 0.3)
        phi1 = row(families(p, 1)[0], 1)
        got = trapezoid(phi1, phi1, p.gamma).real
        assert abs(got - norm_sq_formula(p, 1)) / norm_sq_formula(p, 1) < 1e-6

    @pytest.mark.parametrize("q", [0.3, 0.6])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    def test_formula_matches_quadrature(self, q, gamma):
        params = PositionParams(q, gamma)
        rep = norm_formula_check(params, 5, lattice(params, 5))
        assert rep["max_rel_err"] < 1e-6

    def test_norm_symmetry_between_families(self):
        phi, psi = families(PARAMS, 6)
        assert np.allclose(norm(psi), norm(phi), rtol=1e-10, atol=0)

    def test_l_values_real_and_bounded(self):
        for q in (0.3, 0.6):
            p = PositionParams(q, 0.5)
            lvs = l_value(p, 8, lattice(p, 8))
            for n, lv in enumerate(lvs):
                ref, terms = l_value_double_sum(p, n)
                assert abs(ref.imag) < 1e-14 * terms
                assert lv <= (n + 1) ** 2


class TestLattice:
    """The batched lattice kernels against per-state closed forms."""

    @settings(max_examples=25, deadline=None)
    @given(q=st.floats(0.1, 0.7), gamma=st.floats(-3.0, 3.0), n_max=st.integers(0, 20))
    def test_gram_norms_and_l_values_match_per_state_oracles(self, q, gamma, n_max):
        params = PositionParams(q, gamma)
        phi, psi = families(params, n_max)
        for f, g in ((phi, psi), (phi, phi)):
            gram, shift = inner(f, g)
            s = np.add.outer(f.exponents.conj(), g.exponents)
            kernel = math.sqrt(math.pi) * np.abs(np.exp(s * s / 4.0))
            scale = np.abs(f.coeffs) @ kernel @ np.abs(g.coeffs).T
            pairs = np.array([[exact(row(f, n), row(g, m)) for m in range(n_max + 1)]
                              for n in range(n_max + 1)])
            assert np.all(np.abs(gram * math.exp(shift) - pairs) <= 1e-12 * scale)
        norms_sq = np.array([exact(row(phi, n), row(phi, n)).real for n in range(n_max + 1)])
        assert np.all(np.abs(norm(phi) ** 2 - norms_sq)
                      <= 1e-12 * np.diagonal(scale))
        worst, factors = 1.0, []
        table = lattice(params, n_max)
        for n, lv in enumerate(l_value(params, n_max, table)):
            ref, terms = l_value_double_sum(params, n)
            assert abs(lv - ref) <= 1e-12 * terms
            worst = max(worst, terms / abs(ref))
            factors.append(worst)
        assert np.allclose(cancellation(params, n_max, table), factors, rtol=1e-6)

    def test_states_are_rows_of_one_matrix(self):
        phi, psi = families(PARAMS, 6)
        assert phi.coeffs is psi.coeffs
        assert np.all(np.triu(phi.coeffs, 1) == 0)
        for n in range(7):
            assert np.array_equal(families(PARAMS, n)[0].coeffs,
                                  phi.coeffs[:n + 1, :n + 1])


def l_sums_reference(params, n_max):
    """(L_n, m_n) for n <= n_max from the per-gamma lag loop: for each lag d
    until |t_d| rounds to 0, one product of u with itself shifted by d."""
    al2 = params.alpha ** 2
    k = np.arange(n_max + 1)
    facts = qcore.BetaSequence(params.q, n_max).factorial_sq[:n_max + 1]
    n = k[:, None]
    u = np.where(k <= n, (-1.0) ** k * np.exp(-al2 * k) / facts / facts[np.abs(n - k)],
                 0.0)
    l_sum = np.sum(u * u, axis=1)
    magnitude = l_sum.copy()
    for d in range(1, n_max + 1):
        size = math.exp(-al2 * d * d)
        if size == 0.0:
            break
        lagged = u[:, d:] * u[:, :-d]
        l_sum += 2.0 * size * math.cos(2.0 * params.alpha * params.gamma * d) \
            * np.sum(lagged, axis=1)
        magnitude += 2.0 * size * np.sum(np.abs(lagged), axis=1)
    return l_sum, magnitude


class TestSharedLagPass:
    """L_n and the cancellation factor from the gamma-free lag sums of one
    lattice, against the per-gamma lag loop."""

    @pytest.mark.parametrize("n_max", [0, 1, 6, 40, 200])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, -2.0])
    @pytest.mark.parametrize("q", [0.05, 0.3, 0.7, 0.95])
    def test_matches_the_lag_loop(self, q, gamma, n_max):
        params = PositionParams(q, gamma)
        ref, magnitude = l_sums_reference(params, n_max)
        table = lattice(PositionParams(q), n_max)
        got = l_value(params, n_max, table)
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - ref) <= 8 * eps * magnitude)
        assert np.allclose(table.lag_sums[1], magnitude, rtol=1e-12, atol=0)
        # a factor f = m / |L| moves by |dL| m / |L|^2 <= 8 eps f^2 when L
        # moves by 8 eps m: rtol 1e-12 while f < 1e-12 / (8 eps) ~ 560, and
        # the roundoff of L itself past that; inf where L rounds to 0
        factors = cancellation(params, n_max, table)
        ratio = np.full(n_max + 1, math.inf)
        np.divide(magnitude, np.abs(ref), out=ratio, where=ref != 0.0)
        expected = np.maximum.accumulate(np.maximum(ratio, 1.0))
        finite = np.isfinite(expected) & np.isfinite(factors)
        f, e = factors[finite], expected[finite]
        assert np.all(np.abs(f - e) <= 1e-12 * e + 8 * eps * e * f)
        assert np.all(factors[~finite] * 8 * eps >= 1.0)
        assert np.all(expected[~finite] * 8 * eps >= 1.0)

    def test_a_longer_table_adds_only_zero_lags(self):
        params = PositionParams(0.3, 0.5)
        table, longer = lattice(params, 9), lattice(params, 12)
        # the longer table adds only zero lags to rows n <= 9
        assert np.allclose(l_value(params, 9, table), l_value(params, 9, longer),
                           rtol=1e-14, atol=0)
        assert np.allclose(cancellation(params, 9, table), cancellation(params, 9, longer),
                           rtol=1e-14, atol=0)

    # each ran at the parent, on a lattice of its own or on the wrong q's
    @pytest.mark.parametrize("call,reads", [(build_families, 4), (l_value, 4),
                                            (ladder_check, 5)],
                             ids=["build_families", "l_value", "ladder_check"])
    def test_an_unfit_lattice_is_refused(self, call, reads):
        with pytest.raises(ValueError, match=rf"up to row {reads - 1} .* reads row {reads}$"):
            call(PARAMS, 4, lattice(PARAMS, reads - 1))
        with pytest.raises(ValueError, match=r"of q=0\.6 .* at q=0\.5 "):
            call(PARAMS, 4, lattice(PositionParams(0.6), reads))
        call(PARAMS, 4, lattice(PARAMS, reads))

    def test_memory_is_linear_in_the_lags(self):
        # at q = 0.999 no |t_d| rounds to 0 below n_max = 400, so every lag
        # is taken; one n_max^3 window would take 0.5 GB
        n_max = 400
        params = PositionParams(0.999)
        beta = qcore.BetaSequence(params.q, n_max)
        tracemalloc.start()
        try:
            lags, _ = positionrep._lag_sums(params, beta, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lags.shape == (n_max + 1, n_max + 1)
        assert peak < 8 * (n_max + 1) * 2 * (n_max + 1) * 8

    def test_one_pass_per_run(self, monkeypatch):
        calls = {"coefficient_recursion": 0, "_lag_sums": 0}
        for name in calls:
            original = getattr(positionrep, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(positionrep, name, counted)
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": 0.7},
                                    "tasks": ["mutator", {"task": "family", "n_max": 40},
                                              "theta", {"task": "position", "n_max": 40}]})
        assert code == 0
        assert calls == {"coefficient_recursion": 1, "_lag_sums": 1}


def _poison(monkeypatch, owner, name):
    """Put a NaN in the middle of every array owner.name returns (the samples
    of a state, or the Gram of an inner product, on its diagonal), so that a
    NaN follows finite values."""
    original = getattr(owner, name)

    def poisoned(*args):
        out = original(*args)
        array = (out[0] if isinstance(out, tuple) else out).copy()
        array[tuple(n // 2 for n in array.shape)] = np.nan
        return (array, *out[1:]) if isinstance(out, tuple) else array

    monkeypatch.setattr(owner, name, poisoned)


class TestNanVerdict:
    """A NaN in one sample or inner product reaches the verdict: the task
    reports it and the run exits 1."""

    @pytest.mark.parametrize("task,owner,name", [
        ({"task": "family", "n_max": 4}, LatticeState, "sample"),
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
        phi0 = families(PositionParams(0.5, 26.64), 0)[0]
        assert norm(phi0)[0] == pytest.approx(math.exp(26.64 ** 2 / 2.0), rel=1e-13)


class TestRadius:
    @pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
    def test_norm_bound_gives_guaranteed_radius(self, q):
        # ||phi_n|| <= e^{gamma^2/2} (n+1) beta_{n-1}! (1-q)^{-n/2}, the bound
        # behind the radius sqrt(1-q); n = 0 meets it exactly
        for gamma in (0.0, 0.5, 2.0, -3.0, 6.0):
            norms = norm(families(PositionParams(q, gamma), 40)[0])
            ratios = bicoherent.radius_bound_ratios(norms, q, 0.5 * gamma ** 2)
            assert ratios[0] == pytest.approx(1.0, rel=1e-14)
            assert 0.0 < np.max(ratios[1:]) < 0.9

    def test_empirical_radius_sees_the_larger_true_disc(self):
        # measured coefficient decay reflects the true convergence radius
        # 1/sqrt(1-q), strictly larger than the guaranteed bound sqrt(1-q)
        q = 0.5
        norms = norm(families(PositionParams(q, 0.5), 40)[0])
        emp = bicoherent.empirical_radius(norms / qcore.BetaSequence(q, 41).factorial[:41])
        assert emp == pytest.approx(qcore.disc_radius(q), rel=0.02)
        assert emp > math.sqrt(1.0 - q)


class TestTheta:
    def test_conjugacy_on_decaying_states(self):
        assert 0.0 < theta_conjugacy_check(PARAMS, 3, lattice(PARAMS, 3)) < 1e-13

    def test_perturbed_theta_exponent_fails(self, monkeypatch):
        # Theta = exp(-2 gamma x + 1e-3 x) in place of exp(-2 gamma x)
        shift = LatticeState.shift_exponent
        monkeypatch.setattr(LatticeState, "shift_exponent",
                            lambda self, c: shift(self, c + 1e-3))
        summary, code = run_config({"q": 0.5, "family": {"kind": "position", "gamma": 0.6},
                                    "tasks": ["theta"]})
        assert summary["tasks"]["theta"]["max_residual"] > 10 * cli.TOLERANCES["theta"]
        assert code == 1


def test_gram_condition_is_finite_evidence():
    phi = families(PARAMS, 6)[0]
    cond = np.linalg.cond(inner(phi, phi)[0])
    assert 1.0 <= cond < 1e6


def recorded_run(params, n_max, tmp_path, monkeypatch):
    """A position task's run with --out: its saved summary and the
    (lattice, phi, psi) of every family its checks built."""
    built = []
    real = positionrep.build_families

    def recorded(params, n_max, table):
        built.append((table, *real(params, n_max, table)))
        return built[-1][1:]

    monkeypatch.setattr(positionrep, "build_families", recorded)
    cfg = {"q": params.q, "family": {"kind": "position", "gamma": params.gamma},
           "tasks": [{"task": "position", "n_max": n_max}]}
    assert run_config(cfg, tmp_path)[1] == 0
    assert {f.name for f in tmp_path.iterdir()} == {"summary.json"}
    return json.loads((tmp_path / "summary.json").read_text()), built


def test_summary_rebuilds_the_lattice_rows(tmp_path, monkeypatch):
    # q and n_max in summary.json fix every lattice row the run read, bit
    # for bit: the ladder check reads row n_max + 1
    summary, built = recorded_run(PositionParams(0.45, -0.8), 40, tmp_path, monkeypatch)
    rows = coefficient_recursion(PositionParams(summary["q"]),
                                 summary["tasks"]["position"]["n_max"] + 1)
    assert all(table is built[0][0] for table, *_ in built)
    assert built[0][0].coeffs.tobytes() == rows.tobytes()


def test_summary_rebuilds_the_states(tmp_path, monkeypatch):
    # row n of every state the run built is pref_n c^(n), bit for bit, with
    # pref_n = pi^{-1/4} (-i/sqrt(1-q))^n / beta_{n-1}! and c^(n) from
    # coefficient_recursion at the summary's q: no state needs writing out
    summary, built = recorded_run(PositionParams(0.45, 0.8), 12, tmp_path, monkeypatch)
    params, n_max = PositionParams(summary["q"]), summary["tasks"]["position"]["n_max"]
    coeffs = coefficient_recursion(params, n_max + 1)
    fact = qcore.BetaSequence(params.q, n_max + 1).factorial
    assert max(len(phi.coeffs) for _, phi, _ in built) == n_max + 1
    for _, phi, psi in built:
        assert phi.coeffs is psi.coeffs
        for n, state in enumerate(phi.coeffs):
            pref = math.pi ** -0.25 / fact[n] * (-1j / params.sqrt_1mq) ** n
            assert (pref * coeffs[n, :n + 1]).tobytes() == state[:n + 1].tobytes()
            assert not state[n + 1:].any()


def test_exponents_are_each_new_states_own():
    # a state computes its exponents once; every state made from another,
    # whose lattice may move or grow, computes its own
    phi, psi = families(PARAMS, 4)
    assert phi.exponents is phi.exponents and psi.exponents is psi.exponents
    made = [replace(phi, coeffs=phi.coeffs[:, :3]), replace(phi, w0=phi.w0 + 0.25),
            phi.shift_exponent(-2.0 * PARAMS.gamma),
            positionrep._step_up(PARAMS, phi, +1.0), positionrep._step_up(PARAMS, psi, -1.0),
            positionrep._step_down(PARAMS, phi, +1.0),
            positionrep._step_down(PARAMS, psi, -1.0)]
    for f in made:
        fresh = f.w0 + f.step * np.arange(f.coeffs.shape[1])
        assert f.exponents.tobytes() == fresh.tobytes()
