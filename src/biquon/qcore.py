"""The q-number table behind the q-deformed ladder algebra.

Everything downstream is driven by the q-numbers

    [k] = (1 - q^k)/(1 - q) = 1 + q + ... + q^{k-1},   [k] = k at q = 1,

through the ladder coefficients beta_{k-1} = sqrt([k]), which obey
beta_0^2 = 1, beta_n^2 = 1 + q beta_{n-1}^2 and beta_{-1} = 0.  Every array
here is indexed by k: entry k of :class:`BetaSequence` holds [k],
beta_{k-1}, beta_{k-1}! and [k]! = (beta_{k-1}!)^2, with the empty
products beta_{-1}! = beta_0! = 1.  :func:`bracket` is the one closed form;
the tests check it against the recursion and exact rationals.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "bracket",
    "BetaSequence",
    "disc_radius",
    "validate_q_algebraic",
    "validate_q_disc",
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


def bracket(q: float, k):
    """[k] = (1 - q^k)/(1 - q) for an int k >= 0 or elementwise over an array.

    Both sides cancel near q = 1, so while x = k log q < 1 it is taken as
    expm1(x) / expm1(log q), which is exactly 1 at k = 1; past that (q > 1
    only) the power is the more accurate form, and for q <= 0 the
    denominator 1 - q >= 1 and nothing cancels.  An entry that overflows
    reads inf.  Each entry is computed alone, so an int k gives the bits of
    entry k of any table.
    """
    q = validate_q_algebraic(q)
    k = np.asarray(k)
    if q == 1.0:
        return (k * 1.0)[()]
    if 0.0 < q < 1.0:
        log_q = math.log(q)
        return (np.expm1(k * log_q) / np.expm1(log_q))[()]
    with np.errstate(over="ignore"):
        out = (1.0 - q ** k) / (1.0 - q)
        if q > 1.0:
            log_q = math.log(q)
            x = k * log_q
            out = np.where(x < 1.0, np.expm1(x) / np.expm1(log_q), out)
        return out[()]


def disc_radius(q: float) -> float:
    """Radius 1/sqrt(1-q) of the disc on which the scalar series converge."""
    q = validate_q_disc(q)
    return 1.0 / math.sqrt(1.0 - q)


class BetaSequence:
    """The read-only arrays bracket[k] = [k], beta[k] = beta_{k-1},
    factorial[k] = beta_{k-1}! and factorial_sq[k] = [k]! for
    k = 0 .. nmax + 1.

    The factorials are formed on first read: they overflow well before the
    betas do, and an overflowed entry reads inf.
    """

    def __init__(self, q: float, nmax: int):
        if nmax < 0:
            raise ValueError(f"nmax={nmax} must be nonnegative")
        self.nmax = int(nmax)
        self.bracket = bracket(q, np.arange(self.nmax + 2))
        self.q = float(q)
        if not math.isfinite(self.bracket[-1]):
            raise OverflowError(f"beta_{self.nmax}^2 overflows at q={self.q}")
        self.beta = np.sqrt(self.bracket)
        self.bracket.setflags(write=False)
        self.beta.setflags(write=False)

    @staticmethod
    def _products(factors: np.ndarray) -> np.ndarray:
        """1, 1 and the running products of factors[2:], read-only."""
        with np.errstate(over="ignore"):
            out = np.concatenate(([1.0, 1.0], np.cumprod(factors[2:])))
        out.setflags(write=False)
        return out

    @functools.cached_property
    def factorial(self) -> np.ndarray:
        return self._products(self.beta)

    @functools.cached_property
    def factorial_sq(self) -> np.ndarray:
        return self._products(self.bracket)
