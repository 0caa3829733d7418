"""Tests for the q-number table."""

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


def exact_brackets(q, n):
    """[k] = 1 + q + ... + q^{k-1} for k = 0 .. n, in exact rationals of the
    float q, from [k + 1] = 1 + q [k]."""
    q, out = Fraction(q), [Fraction(0)]
    for _ in range(n):
        out.append(1 + q * out[-1])
    return out


class TestBeta:
    def test_bosonic_point(self):
        assert qcore.BetaSequence(1.0, 3).beta[4] == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 0.5, 1.0, 2.0])
    def test_minus_one_index(self, q):
        bs = qcore.BetaSequence(q, 2)
        assert bs.bracket[0] == bs.beta[0] == 0.0      # beta_{-1} = 0

    def test_fermionic_limit(self):
        assert qcore.bracket(-1.0, 2) == 0.0           # beta_1^2

    def test_hand_recursion_value(self):
        # beta_1^2 = 1 + 0.5 * beta_0^2 = 1.5
        assert qcore.bracket(0.5, 2) == pytest.approx(1.5, abs=1e-15)
        assert qcore.BetaSequence(0.5, 3).bracket.tolist() == [0.0, 1.0, 1.5, 1.75, 1.875]

    def test_fermionic_alternation(self):
        assert qcore.BetaSequence(-1.0, 7).beta[1:].tolist() == [1, 0, 1, 0, 1, 0, 1, 0]

    def test_bosonic_branch(self):
        beta = qcore.BetaSequence(1.0, 19).beta
        for n in range(20):
            assert beta[n + 1] == pytest.approx(math.sqrt(n + 1), rel=1e-15)

    @pytest.mark.parametrize("q", [0.01, 0.1, 0.37, 0.5, 0.73, 0.99])
    def test_recursion_matches_closed_form(self, q):
        beta = qcore.BetaSequence(q, 200).beta
        for n in range(201):
            assert abs(beta[n + 1] - beta_recursive(q, n)) < 1e-13

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_monotone_limit(self, q):
        limit = 1.0 / (1.0 - q)
        eps = np.finfo(float).eps
        b = qcore.bracket(q, np.arange(202))         # b[n + 1] = beta_n^2
        for n in range(200):
            assert b[n + 1] <= b[n + 2] <= limit
            if q ** (n + 2) > 4 * eps:   # strict until float saturation
                assert b[n + 1] < b[n + 2] < limit

    def test_rejects_q_below_minus_one(self):
        for q in (-1.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                qcore.bracket(q, 2)
            with pytest.raises(ValueError):
                qcore.BetaSequence(q, 2)

    def test_bracket_one_is_exactly_one(self):
        # -expm1(log q) / (1 - q) rounds twice and read 1 - 2^-53 at 107 of
        # these q, so beta_0 and every factorial built on it were an ulp off
        tested = [-1.0, -0.5, 0.0, 0.3, 0.99989, 1.0 - 1e-6, 1.0, 1.0001, 1.5, 2.9,
                  1e-300, 1e50]
        for q in [i / 1000 for i in range(1, 1000)] + tested:
            assert qcore.bracket(q, 1) == 1.0, q
            assert qcore.BetaSequence(q, 1).beta[1] == 1.0, q

    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.3, 0.99989, 1.0 - 1e-6, 1.0,
                                   1.0001, 1.5])
    def test_exact_rational_value(self, q):
        # (1 - q^2)/(1 - q) evaluated as written is off by 8.8e-15 (q = 0.99989)
        # and 1.1e-11 (q = 1 - 1e-6) relative in beta_1^2
        bs = qcore.BetaSequence(q, 299)
        for k, exact in enumerate(exact_brackets(q, 300)):
            assert abs(Fraction(float(bs.bracket[k])) - exact) <= 2.5e-16 * exact
            assert bs.beta[k] == pytest.approx(math.sqrt(exact), rel=2.5e-16, abs=0.0)


class TestQFactorial:
    def test_bosonic(self):
        # beta_3! = sqrt(4!)
        assert qcore.BetaSequence(1.0, 3).factorial[4] == pytest.approx(math.sqrt(24.0),
                                                                         rel=1e-15)

    @pytest.mark.parametrize("q", [-1.0, 0.2, 1.0, 3.0])
    def test_empty_products(self, q):
        bs = qcore.BetaSequence(q, 0)
        assert bs.factorial.tolist() == bs.factorial_sq.tolist() == [1.0, 1.0]

    def test_two_step_product(self):
        expected = math.sqrt(1.5 * 1.75)                # beta_2!
        assert qcore.BetaSequence(0.5, 2).factorial[3] == pytest.approx(expected, rel=1e-15)

    def test_squared_variant(self):
        bs = qcore.BetaSequence(0.6, 9)
        np.testing.assert_allclose(bs.factorial_sq, bs.factorial ** 2, rtol=1e-13, atol=0)

    def test_q_number_bracket(self):
        # [k] = beta_{k-1}^2 and [k]! = (beta_{k-1}!)^2 = [1] [2] ... [k]
        bs = qcore.BetaSequence(0.4, 7)
        np.testing.assert_allclose(bs.bracket, bs.beta ** 2, rtol=1e-15, atol=0)
        np.testing.assert_allclose(bs.factorial_sq[1:], np.cumprod(bs.bracket[1:]),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("q", [-1.0, -0.5, 0.0, 0.3, 0.99989, 1.0 - 1e-6, 1.0,
                                   1.0001, 1.5])
    def test_exact_products(self, q):
        bs = qcore.BetaSequence(q, 39)
        fact_sq = [Fraction(1)]                             # [k]!, k = 0 .. 40
        for b in exact_brackets(q, 40)[1:]:
            fact_sq.append(fact_sq[-1] * b)
        for k in range(41):
            # each of the k factors carries its own roundings and one product's
            rel = 4e-16 * (k + 1)
            assert bs.factorial_sq[k] == pytest.approx(float(fact_sq[k]), rel=rel, abs=0.0)
            # beta_{k-1}! = sqrt([2] ... [k]) = sqrt([k]!)
            assert bs.factorial[k] == pytest.approx(math.sqrt(fact_sq[k]), rel=rel, abs=0.0)


class TestBetaSequence:
    def test_betas_array(self):
        bs = qcore.BetaSequence(0.5, 5)
        assert len(bs.beta) == 7
        assert np.array_equal(bs.beta, np.sqrt(bs.bracket))

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.3, 0.99, 1.0, 1.5, 1e-300, 0.99989,
                                   1.0001, 2.9, 1e50])
    def test_vectorised_closed_form_matches_scalar(self, q):
        # one entry alone has the bits of that entry inside a table
        n = 5 if q == 1e50 else 300
        table = qcore.bracket(q, np.arange(n + 1))
        for k in range(n + 1):
            assert np.float64(qcore.bracket(q, k)).tobytes() == table[k].tobytes()
        assert qcore.BetaSequence(q, n - 1).bracket.tobytes() == table.tobytes()

    def test_arrays_are_read_only(self):
        bs = qcore.BetaSequence(0.5, 4)
        for name in ("bracket", "beta", "factorial", "factorial_sq"):
            array = getattr(bs, name)
            assert len(array) == 6
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            qcore.BetaSequence(2.0, 2000)

    def test_overflowed_factorial_reads_inf(self):
        bs = qcore.BetaSequence(0.999, 3000)
        assert np.all(np.isfinite(bs.beta))
        assert np.isinf(bs.factorial[-1]) and np.isinf(bs.factorial_sq[-1])


class TestLogNumber:
    """The log-number eigenvalue log(1 - (1-q) beta_{n-1}^2) / log q is n
    exactly: the argument telescopes to q^n.  `biquon beta` prints n and no
    column for the eigenvalue, which would repeat it."""

    @staticmethod
    def table(q, n_max, capsys):
        assert main(["beta", "--q", str(q), "--n-max", str(n_max)]) == 0
        return [row.split(",") for row in capsys.readouterr().out.split()]

    def test_vacuum(self, capsys):
        assert self.table(0.5, 0, capsys)[1] == ["0", "1", "1"]

    @pytest.mark.parametrize("q,n", [(0.5, 5), (0.9, 12)])
    def test_closed_form_points(self, q, n):
        arg = 1.0 - (1.0 - q) * qcore.bracket(q, n)
        assert math.log(arg) / math.log(q) == pytest.approx(n, abs=1e-10)

    @pytest.mark.parametrize("q", [0.01, 0.25, 0.5, 0.75, 0.99])
    def test_integer_spectrum(self, q, capsys):
        header, *rows = self.table(q, 100, capsys)
        assert header == ["n", "beta", "beta_factorial"]
        assert [row[0] for row in rows] == [str(n) for n in range(101)]

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_matches_direct_expression_where_stable(self, q):
        # the naive log argument carries a relative error of order eps/q^n,
        # so it can only be compared with n within that budget
        eps = np.finfo(float).eps
        bracket = qcore.BetaSequence(q, 25).bracket
        for n in range(1, 26):
            direct = math.log(1.0 - bracket[n] * (1.0 - q)) / math.log(q)
            assert abs(n - direct) < 8 * eps / q ** n + 1e-12

    @pytest.mark.parametrize("q", [-0.5, 0.0, 1.0, 1.2])
    def test_rejects_outside_unit_interval(self, q, capsys):
        # log q is not a finite negative number; the table is the same
        assert self.table(q, 3, capsys)[0] == ["n", "beta", "beta_factorial"]

    def test_rows_are_the_table(self, capsys):
        bs = qcore.BetaSequence(0.7, 30)
        rows = self.table(0.7, 30, capsys)[1:]
        assert [float(row[1]) for row in rows] == bs.beta[1:].tolist()
        assert [float(row[2]) for row in rows] == bs.factorial[1:].tolist()


def test_exports():
    assert sorted(qcore.__all__) == sorted(["bracket", "BetaSequence", "disc_radius",
                                            "validate_q_algebraic", "validate_q_disc"])


def test_disc_radius():
    assert qcore.disc_radius(0.5) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    with pytest.raises(ValueError):
        qcore.disc_radius(1.0)
