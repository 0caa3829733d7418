"""Radial measure for the weak resolution of identity.

The weak resolution of identity requires a radial measure whose even
moments are m_k = (beta_{k-1}!)^2 / (2 pi) = [k]! / (2 pi).  In the scaled
variable s = r^2 that is the q-Gamma moment problem, solved in closed form
by Jackson's q-integral (Gasper & Rahman, ch. 1; Arik & Coon 1976):

    [k]! = sum_{j >= 0} q^j (q^{j+1}; q)_inf  s_j^k,   s_j = q^j / (1 - q).

So the measure is a sequence of atoms at r_j = rho q^{j/2}, rho the disc
radius 1/sqrt(1-q), accumulating at the origin.  It lives on [0, rho] with
one atom (j = 0) on the rim itself; that is harmless because the
resolution check evaluates the N-cancelled integrand, a polynomial in z
and conj(z).  The atoms j >= J are dropped, with J the smallest index whose
dropped-mass bound q^J / (1 - q) is below double-precision roundoff; the
dropped share of every moment is at most that bound.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field
from typing import IO, ClassVar

import numpy as np

from .pseudoquon import BiorthogonalFamily
from .qcore import disc_radius, q_factorial_sq, validate_q_disc

__all__ = [
    "SupportError",
    "RadialQuadrature",
    "MAX_ATOMS",
    "atom_count",
    "check_moment_range",
    "moment",
    "solve_moment_measure",
    "resolution_check",
    "quadrature_to_csv",
    "residual_report",
]

ROUNDOFF = np.finfo(float).eps / 2.0
# J grows like log(1 / (roundoff (1 - q))) / (1 - q); this admits q <= 0.99995
MAX_ATOMS = 1_000_000


class SupportError(ValueError):
    """Vector support exceeds the range covered by the verified moments."""


@dataclass(frozen=True)
class RadialQuadrature:
    """Jackson atoms r_j, w_j; residuals verified for the first K_mom moments."""

    q: float
    rho: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    K_mom: int
    residuals: np.ndarray = field(repr=False)
    tail_bound: float
    method: ClassVar[str] = "jackson"

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def moment(q: float, k: int) -> float:
    """Target radial moment m_k = (beta_{k-1}!)^2 / (2 pi)."""
    return q_factorial_sq(q, k - 1) / (2.0 * math.pi)


def atom_count(q: float) -> int:
    """Smallest J with dropped-mass bound q^J / (1 - q) below roundoff."""
    q = validate_q_disc(q)
    n_atoms = int(math.log(ROUNDOFF * (1.0 - q)) / math.log(q)) + 1
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"q={q} needs {n_atoms} Jackson atoms, more than "
                         f"{MAX_ATOMS}")
    return n_atoms


def check_moment_range(q: float, K_mom: int) -> None:
    """Raise ValueError unless m_0 .. m_{K_mom - 1} fit in double precision.

    The bound is on rho^{2k} = (1 - q)^{-k}, which is at least 2 pi m_k,
    so the moments and the atom powers r_j^{2k} stay finite as well.
    """
    q = validate_q_disc(q)
    if K_mom < 2:
        raise ValueError(f"K_mom={K_mom} must be at least 2")
    if (K_mom - 1) * -math.log1p(-q) >= math.log(sys.float_info.max):
        raise ValueError(f"moment m_{K_mom - 1} overflows double at q={q}")


def solve_moment_measure(q: float, K_mom: int = 12) -> RadialQuadrature:
    """Jackson atoms on [0, rho], with moments m_0 .. m_{K_mom - 1} verified.

    Residuals are relative, taken on the scaled variable (r / rho)^2 in
    [0, 1] so that the atom powers stay at most one.
    """
    q = validate_q_disc(q)
    check_moment_range(q, K_mom)
    n_atoms = atom_count(q)

    rho = disc_radius(q)
    t = q ** np.arange(n_atoms)                        # (r_j / rho)^2
    # (q^{j+1}; q)_inf as a reverse running product of 1 - q^i, i = j+1..J
    tail_products = np.cumprod((1.0 - q * t)[::-1])[::-1]
    weights = t * tail_products / (2.0 * math.pi)
    mu = np.array([moment(q, k) / rho ** (2 * k) for k in range(K_mom)])
    residuals = np.abs(np.array(
        [weights @ t ** k for k in range(K_mom)]) - mu) / mu
    return RadialQuadrature(q=q, rho=rho, nodes=rho * np.sqrt(t),
                            weights=weights, K_mom=K_mom, residuals=residuals,
                            tail_bound=q ** n_atoms / (1.0 - q))


def _overlap_coefficients(family: BiorthogonalFamily, f: np.ndarray,
                          g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Series coefficients <f, phi_k>/beta_{k-1}! and <psi_k, g>/beta_{k-1}!."""
    # beta_{k-1}! from the family's beta array c.diag[k] = beta_{k-1}
    fact = np.concatenate(([1.0, 1.0], np.cumprod(family.c.diag[2:])))
    f_phi = (family.phi.adjoint() @ f).conj()   # <f, phi_k>
    psi_g = family.psi.adjoint() @ g            # <psi_k, g>
    return f_phi / fact, psi_g / fact


def resolution_check(family: BiorthogonalFamily, quad: RadialQuadrature,
                     n_theta: int, f: np.ndarray, g: np.ndarray) -> complex:
    """Discretized weak resolution integral; must reproduce <f, g>.

    The N-cancelled integrand N^{-1}<f, phi(z)> N^{-1}<psi(z), g> is
    sum_{k,l} a_k b_l r^{k+l} e^{i(k-l)theta}, so its sum over the radial
    atoms and the uniform n_theta-point trapezoid rule on [0, 2 pi) is the
    contraction a^T (E o M) b with E_kl = sum_theta e^{i(k-l)theta} and
    M_kl = sum_j w_j r_j^{k+l}.  E is evaluated, not assumed diagonal.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (family.K,) or g.shape != (family.K,):
        raise ValueError("vector length does not match family dimension")
    if family.q != quad.q:
        raise ValueError("family and quadrature deformation parameters differ")

    a_k, b_l = _overlap_coefficients(family, f, g)
    k_supported = np.flatnonzero(np.abs(a_k) > 1e-13)
    l_supported = np.flatnonzero(np.abs(b_l) > 1e-13)
    k_max = int(max(k_supported.max(initial=0), l_supported.max(initial=0)))
    moment_range = quad.K_mom // 2
    if k_supported.max(initial=-1) >= moment_range or \
            l_supported.max(initial=-1) >= moment_range:
        raise SupportError(
            f"overlap coefficients reach index {k_max}, beyond the matched "
            f"moment range k < {moment_range}")
    if n_theta <= 2 * k_max:
        raise ValueError(f"n_theta={n_theta} too small for maximal index "
                         f"difference {k_max} (need n_theta > {2 * k_max})")

    idx = np.arange(k_max + 1)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    angular = np.exp(1j * np.multiply.outer(np.subtract.outer(idx, idx), theta))
    radial = np.array([quad.weights @ quad.nodes ** p
                       for p in range(2 * k_max + 1)])
    kernel = angular.sum(axis=2) * radial[np.add.outer(idx, idx)]
    total = a_k[:k_max + 1] @ kernel @ b_l[:k_max + 1]
    return complex(total * (2.0 * math.pi / n_theta))


def quadrature_to_csv(quad: RadialQuadrature, stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["r", "w"])
    for r_j, w_j in zip(quad.nodes, quad.weights):
        writer.writerow([f"{r_j:.17g}", f"{w_j:.17g}"])


def residual_report(quad: RadialQuadrature) -> dict:
    return {
        "q": quad.q,
        "rho": quad.rho,
        "K_mom": quad.K_mom,
        "method": quad.method,
        "n_atoms": int(len(quad.nodes)),
        "tail_bound": quad.tail_bound,
        "max_relative_residual": quad.max_residual,
        "relative_residuals": [float(r) for r in quad.residuals],
    }
