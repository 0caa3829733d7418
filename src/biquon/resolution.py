"""Radial measure for the weak resolution of identity, and the check it feeds.

The weak resolution of identity requires a radial measure whose even
moments are m_k = (beta_{k-1}!)^2 / (2 pi) = [k]! / (2 pi).  In the scaled
variable t = (r / rho)^2, rho = 1/sqrt(1-q) the disc radius, the moments
are (q; q)_k / (2 pi), and Jackson's q-integral gives that measure in
closed form (Gasper & Rahman, ch. 1; Arik & Coon 1976):

    (q; q)_k = sum_{j >= 0} q^j (q^{j+1}; q)_inf  t_j^k,   t_j = q^j.

So the measure is a sequence of atoms at r_j = rho q^{j/2}, accumulating at
the origin, with weights w_j = q^j (q^{j+1}; q)_inf / (2 pi).  It lives on
[0, rho] with one atom (j = 0) on the rim itself; that is harmless because
the resolution check evaluates the N-cancelled integrand, a polynomial in z
and conj(z).  The atoms j >= J are dropped, with J the smallest index whose
dropped-mass bound q^J / (1 - q) is below double-precision roundoff; the
dropped share of every moment is at most that bound.

Every check reads the scaled moments

    rho_k = 2 pi sum_j w_j t_j^k / (q; q)_k,

which equal 1 for every k: no power of rho is formed, and each scaled term
stays at or below 1.  Above q ~ 0.997 the first weights underflow and only
rho_k with k < moment_limit stay held (286 at q = 0.999).  The moment
residuals are |rho_k - 1|.  The resolution integral of
N^{-1}<f, phi(z)> N^{-1}<psi(z), g> over the atoms and the uniform
n_theta-point rule in the angle is

    sum_{k,l} <f, phi_k><psi_l, g> / (beta_{k-1}! beta_{l-1}!)
        sum_j w_j r_j^{k+l}  (2 pi / n_theta) sum_theta e^{i(k-l) theta}.

For k, l < n with n_theta > 2 (n - 1) the angular sum is n_theta delta_kl,
the discrete orthogonality of the n_theta-th roots of unity (the trapezoid
rule is exact on trigonometric polynomials; Trefethen & Weideman, SIAM Rev.
56, 2014), so the integral is sum_{k < n} <f, phi_k><psi_k, g> rho_k.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, ClassVar

import numpy as np

from .pseudoquon import BiorthogonalFamily
from .qcore import disc_radius, validate_q_disc

__all__ = [
    "RadialQuadrature",
    "MAX_ATOMS",
    "atom_count",
    "solve_moment_measure",
    "resolution_check",
    "quadrature_to_csv",
    "residual_report",
]

ROUNDOFF = np.finfo(float).eps / 2.0
# J grows like log(1 / (roundoff (1 - q))) / (1 - q); this admits q <= 0.99995
MAX_ATOMS = 1_000_000


@dataclass(frozen=True)
class RadialQuadrature:
    """Jackson atoms r_j, w_j; residuals |rho_k - 1| for the first K_mom
    moments; the weights hold rho_k for k < moment_limit (inf: every k)."""

    q: float
    rho: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    K_mom: int
    residuals: np.ndarray = field(repr=False)
    tail_bound: float
    moment_limit: float
    method: ClassVar[str] = "jackson"

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def atom_count(q: float) -> int:
    """Smallest J with dropped-mass bound q^J / (1 - q) below roundoff."""
    q = validate_q_disc(q)
    n_atoms = int(math.log(ROUNDOFF * (1.0 - q)) / math.log(q)) + 1
    if n_atoms > MAX_ATOMS:
        raise ValueError(f"q={q} needs {n_atoms} Jackson atoms, more than "
                         f"{MAX_ATOMS}")
    return n_atoms


def _scaled_moments(q: float, weights: np.ndarray, n: int) -> np.ndarray:
    """rho_k = 2 pi sum_j w_j t_j^k / (q; q)_k for k < n.

    The scaled terms are one running product over k, so no J x n array is
    formed and each term stays at or below 1.
    """
    t = q ** np.arange(len(weights))
    out = np.empty(n)
    terms = 2.0 * math.pi * weights
    for k in range(n):
        out[k] = terms.sum()
        terms *= t
        terms /= 1.0 - q ** (k + 1)
    return out


def solve_moment_measure(q: float, K_mom: int = 12) -> RadialQuadrature:
    """Jackson atoms on [0, rho], with moments m_0 .. m_{K_mom - 1} verified."""
    q = validate_q_disc(q)
    if K_mom < 2:
        raise ValueError(f"K_mom={K_mom} must be at least 2")
    n_atoms = atom_count(q)
    rho = disc_radius(q)
    t = q ** np.arange(n_atoms)                        # (r_j / rho)^2
    # a weight below the smallest normal double adds at most 2 pi tiny /
    # (q; q)_k to rho_k; rho_k is held while J of those stay below roundoff
    log_qq = np.cumsum(np.log1p(-q * t))               # log (q; q)_k, k = 1..J
    floor = math.log(2.0 * math.pi * n_atoms * np.finfo(float).tiny / ROUNDOFF)
    held = 1 + int(np.count_nonzero(log_qq >= floor))
    # (q^{j+1}; q)_inf as a reverse running product of 1 - q^i, i = j+1..J
    tail_products = np.cumprod((1.0 - q * t)[::-1])[::-1]
    weights = t * tail_products / (2.0 * math.pi)
    residuals = np.abs(_scaled_moments(q, weights, K_mom) - 1.0)
    return RadialQuadrature(q=q, rho=rho, nodes=rho * np.sqrt(t),
                            weights=weights, K_mom=K_mom, residuals=residuals,
                            tail_bound=q ** n_atoms / (1.0 - q),
                            moment_limit=held if held <= n_atoms else math.inf)


def resolution_check(family: BiorthogonalFamily, quad: RadialQuadrature,
                     n_theta: int, f: np.ndarray, g: np.ndarray) -> complex:
    """Discretized weak resolution integral; must reproduce <f, g>.

    The integral is sum_{k < n} <f, phi_k><psi_k, g> rho_k (see the module
    docstring), with n the reach: one plus the last index at which either
    overlap is nonzero; n_theta > 2 (n - 1) and n <= quad.moment_limit.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (family.K,) or g.shape != (family.K,):
        raise ValueError("vector length does not match family dimension")
    if family.q != quad.q:
        raise ValueError("family and quadrature deformation parameters differ")

    f_phi = (family.phi.adjoint() @ f).conj()   # <f, phi_k>
    psi_g = family.psi.adjoint() @ g            # <psi_k, g>
    reach = int(np.flatnonzero((f_phi != 0) | (psi_g != 0)).max(initial=-1)) + 1
    if n_theta <= 2 * (reach - 1):
        raise ValueError(f"n_theta={n_theta} too small for overlaps reaching "
                         f"index {reach - 1} (need n_theta > {2 * (reach - 1)})")
    if reach > quad.moment_limit:
        raise ValueError(f"overlaps reach index {reach - 1}, but the weights "
                         f"hold rho_k only for k < {quad.moment_limit}")
    rho_k = _scaled_moments(quad.q, quad.weights, reach)
    return complex(f_phi[:reach] @ (psi_g[:reach] * rho_k))


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
