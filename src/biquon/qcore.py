"""Scalar machinery for the q-deformed ladder algebra.

Everything downstream is driven by the coefficient sequence ``beta_n`` with

    beta_0^2 = 1,   beta_n^2 = 1 + q beta_{n-1}^2   (n >= 1),

together with the conventions ``beta_{-1} = 0`` and the empty products
``beta_{-1}! = beta_0! = 1``.  For q != 1 the recursion telescopes to the
closed form beta_n^2 = (1 - q^{n+1})/(1 - q); at q = 1 it degenerates to
beta_n^2 = n + 1.  The closed form is what the library uses (no error
accumulation); the tests check it against the recursion.  The
numerator 1 - q^{n+1} cancels near q = 1, so while x = (n+1) log q < 1 it
is taken as -expm1(x); past that (q > 1 only) the power is the more
accurate form, and for q <= 0 the denominator 1 - q >= 1 and nothing
cancels.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "beta",
    "beta_sq",
    "q_factorial",
    "q_factorial_sq",
    "q_number",
    "q_number_factorial",
    "disc_radius",
    "validate_q_algebraic",
    "validate_q_disc",
    "BetaSequence",
]


def validate_q_algebraic(q: float) -> float:
    """Check q for the purely algebraic operations (q >= -1, finite)."""
    q = float(q)
    if not math.isfinite(q) or q < -1.0:
        raise ValueError(f"deformation parameter q={q} outside [-1, inf)")
    return q


def validate_q_disc(q: float) -> float:
    """Check q for operations that need a finite convergence disc (0 < q < 1)."""
    q = float(q)
    if not (0.0 < q < 1.0):
        raise ValueError(f"deformation parameter q={q} outside (0, 1)")
    return q


def beta_sq(q: float, n: int) -> float:
    """Squared ladder coefficient beta_n^2, with beta_{-1} = 0."""
    if n < -1:
        raise ValueError(f"index n={n} below -1")
    if n == -1:
        return 0.0
    q = validate_q_algebraic(q)
    if q == 1.0:
        return float(n + 1)
    x = (n + 1) * math.log(q) if q > 0.0 else 1.0
    return (-math.expm1(x) if x < 1.0 else 1.0 - q ** (n + 1)) / (1.0 - q)


def beta(q: float, n: int) -> float:
    """Ladder coefficient beta_n (positive root)."""
    return math.sqrt(beta_sq(q, n))


def q_factorial(q: float, n: int) -> float:
    """q-factorial beta_n! = beta_n beta_{n-1} ... beta_1.

    Empty products: beta_{-1}! = beta_0! = 1.
    """
    if n < -1:
        raise ValueError(f"index n={n} below -1")
    out = 1.0
    for j in range(1, n + 1):
        out *= beta(q, j)
    return out


def q_factorial_sq(q: float, n: int) -> float:
    """(beta_n!)^2, accumulated from squared factors."""
    if n < -1:
        raise ValueError(f"index n={n} below -1")
    out = 1.0
    for j in range(1, n + 1):
        out *= beta_sq(q, j)
    return out


def q_number(q: float, m: int) -> float:
    """q-number bracket [m]; satisfies [m] = beta_{m-1}^2."""
    return beta_sq(q, m - 1)


def q_number_factorial(q: float, n: int) -> float:
    """[n]! = [1][2]...[n] = (beta_{n-1}!)^2."""
    return q_factorial_sq(q, n - 1)


def disc_radius(q: float) -> float:
    """Radius 1/sqrt(1-q) of the disc on which the scalar series converge."""
    q = validate_q_disc(q)
    return 1.0 / math.sqrt(1.0 - q)


class BetaSequence:
    """Precomputed beta_n, beta_n! and (beta_n!)^2 for indices -1..nmax.

    Exists so matrix builders and series evaluators can index the whole
    sequence without recomputing prefix products.
    """

    def __init__(self, q: float, nmax: int):
        self.q = validate_q_algebraic(q)
        if nmax < 0:
            raise ValueError(f"nmax={nmax} must be nonnegative")
        self.nmax = int(nmax)
        k = np.arange(self.nmax + 2)        # beta_{k-1}^2 = [k], with [0] = 0
        if self.q == 1.0:
            self._sq = k.astype(float)
        else:
            x = k * math.log(self.q) if self.q > 0.0 else np.ones(len(k))
            num = -np.expm1(np.minimum(x, 1.0))
            with np.errstate(over="ignore"):
                if x[-1] >= 1.0:            # q > 1 past x = 1, or q <= 0
                    num = np.where(x < 1.0, num, 1.0 - self.q ** k)
                self._sq = num / (1.0 - self.q)
            if not np.isfinite(self._sq[-1]):
                raise OverflowError(f"beta_{self.nmax}^2 overflows at q={self.q}")
        self._beta = np.sqrt(self._sq)
        self._fact: np.ndarray | None = None       # built on first use; the
        self._fact_sq: np.ndarray | None = None    # products overflow well
                                                   # before the betas do

    def _idx(self, n: int) -> int:
        if not (-1 <= n <= self.nmax):
            raise IndexError(f"index n={n} outside [-1, {self.nmax}]")
        return n + 1

    def beta(self, n: int) -> float:
        return float(self._beta[self._idx(n)])

    def factorial(self, n: int) -> float:
        if self._fact is None:
            with np.errstate(over="ignore"):    # an overflowed entry reads inf
                self._fact = np.concatenate(([1.0, 1.0], np.cumprod(self._beta[2:])))
        return float(self._fact[self._idx(n)])

    def factorial_sq(self, n: int) -> float:
        if self._fact_sq is None:
            with np.errstate(over="ignore"):
                self._fact_sq = np.concatenate(([1.0, 1.0], np.cumprod(self._sq[2:])))
        return float(self._fact_sq[self._idx(n)])

    def betas(self) -> np.ndarray:
        """beta_0 .. beta_nmax as an array."""
        return self._beta[1:].copy()
