"""Tests for the scalar coefficient machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from biquon import qcore
from biquon.cli import main


def beta_recursive(q, n):
    """beta_n from the defining recursion beta_n^2 = 1 + q beta_{n-1}^2."""
    b2 = 1.0
    for _ in range(n):
        b2 = 1.0 + q * b2
    return math.sqrt(b2)


class TestBeta:
    def test_bosonic_point(self):
        assert qcore.beta(1.0, 3) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 0.5, 1.0, 2.0])
    def test_minus_one_index(self, q):
        assert qcore.beta(q, -1) == 0.0

    def test_fermionic_limit(self):
        assert qcore.beta(-1.0, 1) == 0.0

    def test_hand_recursion_value(self):
        # beta_1^2 = 1 + 0.5 * beta_0^2 = 1.5
        assert qcore.beta_sq(0.5, 1) == pytest.approx(1.5, abs=1e-15)

    def test_fermionic_alternation(self):
        vals = [qcore.beta(-1.0, n) for n in range(8)]
        assert vals == pytest.approx([1, 0, 1, 0, 1, 0, 1, 0], abs=1e-15)

    def test_bosonic_branch(self):
        for n in range(20):
            assert qcore.beta(1.0, n) == pytest.approx(math.sqrt(n + 1), rel=1e-15)

    @pytest.mark.parametrize("q", [0.01, 0.1, 0.37, 0.5, 0.73, 0.99])
    def test_recursion_matches_closed_form(self, q):
        for n in range(201):
            assert abs(qcore.beta(q, n) - beta_recursive(q, n)) < 1e-13

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_monotone_limit(self, q):
        limit = 1.0 / (1.0 - q)
        eps = np.finfo(float).eps
        for n in range(200):
            b1, b2 = qcore.beta_sq(q, n), qcore.beta_sq(q, n + 1)
            assert b1 <= b2 <= limit
            if q ** (n + 2) > 4 * eps:   # strict until float saturation
                assert b1 < b2 < limit

    def test_rejects_q_below_minus_one(self):
        with pytest.raises(ValueError):
            qcore.beta(-1.5, 2)

    @pytest.mark.parametrize("q", [0.99989, 1.0 - 1e-6, 1.0001, 1.5, -0.5])
    def test_exact_rational_value(self, q):
        # (1 - q^2)/(1 - q) evaluated as written is off by 8.8e-15 (q = 0.99989)
        # and 1.1e-11 (q = 1 - 1e-6) relative in beta_1^2
        bs = qcore.BetaSequence(q, 40)
        for n in range(41):
            exact = (1 - Fraction(q) ** (n + 1)) / (1 - Fraction(q))
            assert abs(Fraction(qcore.beta_sq(q, n)) - exact) <= 2.5e-16 * exact
            assert bs.beta(n) == pytest.approx(math.sqrt(exact), rel=2.5e-16)


class TestQFactorial:
    def test_bosonic(self):
        assert qcore.q_factorial(1.0, 3) == pytest.approx(math.sqrt(24.0), rel=1e-15)

    @pytest.mark.parametrize("q", [-1.0, 0.2, 1.0, 3.0])
    def test_empty_products(self, q):
        assert qcore.q_factorial(q, 0) == 1.0
        assert qcore.q_factorial(q, -1) == 1.0

    def test_two_step_product(self):
        expected = math.sqrt(1.5 * 1.75)
        assert qcore.q_factorial(0.5, 2) == pytest.approx(expected, rel=1e-15)

    def test_squared_variant(self):
        for n in range(10):
            assert qcore.q_factorial_sq(0.6, n) == pytest.approx(
                qcore.q_factorial(0.6, n) ** 2, rel=1e-13)

    def test_q_number_bracket(self):
        # [n] = beta_{n-1}^2 and [n]! = (beta_{n-1}!)^2
        for n in range(1, 8):
            assert qcore.q_number(0.4, n) == qcore.beta_sq(0.4, n - 1)
            assert qcore.q_number_factorial(0.4, n) == pytest.approx(
                qcore.q_factorial_sq(0.4, n - 1), rel=1e-14)


class TestLogNumber:
    """The log-number eigenvalue log(1 - (1-q) beta_{n-1}^2) / log q is n
    exactly: the argument telescopes to q^n.  `biquon beta` prints n."""

    @staticmethod
    def table(q, n_max, capsys):
        assert main(["beta", "--q", str(q), "--n-max", str(n_max)]) == 0
        return [row.split(",") for row in capsys.readouterr().out.split()]

    def test_vacuum(self, capsys):
        assert self.table(0.5, 0, capsys)[1] == ["0", "1", "1", "0"]

    @pytest.mark.parametrize("q,n", [(0.5, 5), (0.9, 12)])
    def test_closed_form_points(self, q, n):
        arg = 1.0 - (1.0 - q) * qcore.BetaSequence(q, n).beta(n - 1) ** 2
        assert math.log(arg) / math.log(q) == pytest.approx(n, abs=1e-10)

    @pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.99])
    def test_integer_spectrum(self, q, capsys):
        header, *rows = self.table(q, 100, capsys)
        assert header[-1] == "log_number"
        assert [row[-1] for row in rows] == [str(n) for n in range(101)]

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_matches_direct_expression_where_stable(self, q):
        # the naive log argument carries a relative error of order eps/q^n,
        # so it can only be compared with n within that budget
        eps = np.finfo(float).eps
        bs = qcore.BetaSequence(q, 25)
        for n in range(1, 26):
            direct = math.log(1.0 - bs.beta(n - 1) ** 2 * (1.0 - q)) / math.log(q)
            assert abs(n - direct) < 8 * eps / q ** n + 1e-12

    @pytest.mark.parametrize("q", [-0.5, 0.0, 1.0, 1.2])
    def test_rejects_outside_unit_interval(self, q, capsys):
        # log q is not a finite negative number: the table has no such column
        assert self.table(q, 3, capsys)[0] == ["n", "beta", "beta_factorial"]


class TestBetaSequence:
    def test_matches_scalar_functions(self):
        bs = qcore.BetaSequence(0.7, 30)
        for n in range(-1, 31):
            assert bs.beta(n) == pytest.approx(qcore.beta(0.7, n), rel=1e-15)
            assert bs.factorial(n) == pytest.approx(qcore.q_factorial(0.7, n), rel=1e-13)
            assert bs.factorial_sq(n) == pytest.approx(
                qcore.q_factorial_sq(0.7, n), rel=1e-13)

    def test_index_bounds(self):
        bs = qcore.BetaSequence(0.5, 4)
        with pytest.raises(IndexError):
            bs.beta(5)
        with pytest.raises(IndexError):
            bs.beta(-2)

    def test_betas_array(self):
        bs = qcore.BetaSequence(0.5, 5)
        assert np.allclose(bs.betas(), [qcore.beta(0.5, n) for n in range(6)])

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 0.99, 1.0, 1.5])
    def test_vectorised_closed_form_matches_scalar(self, q):
        # either side is within a few ulp of the exact value
        bs = qcore.BetaSequence(q, 300)
        np.testing.assert_allclose(
            bs.betas(), [qcore.beta(q, n) for n in range(301)], rtol=1e-14, atol=0)

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            qcore.BetaSequence(2.0, 2000)


def test_disc_radius():
    assert qcore.disc_radius(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        qcore.disc_radius(1.0)
