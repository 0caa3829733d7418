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
stays at or below 1.  Above q ~ 0.998 the first weights underflow; their
terms are carried by the exact ratio (1 - q^{j+1}) / q^{k+1} of neighbouring
terms, so every rho_k is held.  The moment residuals are |rho_k - 1|.

The measure is rotation invariant, so the resolution integral of
N^{-1}<f, phi(z)> N^{-1}<psi(z), g> over the atoms and the angle is

    sum_{k,l} <f, phi_k><psi_l, g> / (beta_{k-1}! beta_{l-1}!)
        sum_j w_j r_j^{k+l}  int_0^{2 pi} e^{i(k-l) theta} d theta,

and the angle integral is exactly 2 pi delta_kl.  So the integral is
sum_{k < n} <f, phi_k><psi_k, g> rho_k, with n the reach of the overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .pseudoquon import BiorthogonalFamily
from .qcore import disc_radius, validate_q_disc

__all__ = [
    "RadialQuadrature",
    "MAX_ATOMS",
    "atom_count",
    "solve_moment_measure",
    "resolution_check",
    "residual_report",
]

ROUNDOFF = np.finfo(float).eps / 2.0
TINY = np.finfo(float).tiny
# J grows like log(1 / (roundoff (1 - q))) / (1 - q); this admits q <= 0.99995
MAX_ATOMS = 1_000_000


@dataclass(frozen=True)
class RadialQuadrature:
    """Jackson atoms r_j, w_j, the scaled moments rho_k of the first K_mom
    moments and their residuals |rho_k - 1|."""

    q: float
    rho: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    K_mom: int
    moments: np.ndarray = field(repr=False)
    residuals: np.ndarray = field(repr=False)
    tail_bound: float
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
    formed and each term stays at or below 1.  The leading weights below the
    smallest normal double start at 0; at each k, the term of the last of
    them joins the product once its value, term_{j+1} (1 - q^{j+1}) /
    q^{k+1} (exactly the ratio of neighbouring terms), reaches that double.
    """
    t = q ** np.arange(len(weights))
    out = np.empty(n)
    terms = 2.0 * math.pi * weights
    head = int(np.argmax(weights >= TINY))     # the underflowed weights
    terms[:head] = 0.0
    for k in range(n):
        while head:
            term = terms[head] * (1.0 - q ** head) / q ** (k + 1)
            if term < TINY:
                break
            head -= 1
            terms[head] = term
        out[k] = terms.sum()
        terms *= t
        terms /= 1.0 - q ** (k + 1)
    return out


def solve_moment_measure(q: float, K_mom: int) -> RadialQuadrature:
    """Jackson atoms on [0, rho], with moments m_0 .. m_{K_mom - 1} verified."""
    q = validate_q_disc(q)
    if K_mom < 2:
        raise ValueError(f"K_mom={K_mom} must be at least 2")
    n_atoms = atom_count(q)
    rho = disc_radius(q)
    t = q ** np.arange(n_atoms)                        # (r_j / rho)^2
    # (q^{j+1}; q)_inf as a reverse running product of 1 - q^i, i = j+1..J
    tail_products = np.cumprod((1.0 - q * t)[::-1])[::-1]
    weights = t * tail_products / (2.0 * math.pi)
    moments = _scaled_moments(q, weights, K_mom)
    return RadialQuadrature(q=q, rho=rho, nodes=rho * np.sqrt(t),
                            weights=weights, K_mom=K_mom, moments=moments,
                            residuals=np.abs(moments - 1.0),
                            tail_bound=q ** n_atoms / (1.0 - q))


def resolution_check(family: BiorthogonalFamily, quad: RadialQuadrature,
                     f: np.ndarray, g: np.ndarray):
    """Weak resolution integral over the atoms and the angle; must
    reproduce <f, g>.

    f and g are vectors, or K x P batches of them paired column by column,
    which give one value per column.  The integral is sum_{k < n} <f,
    phi_k><psi_k, g> rho_k (see the module docstring), with n the reach:
    one plus the last index at which an overlap of any column is nonzero.
    rho_k is the quadrature's own up to K_mom, and computed once per call
    for a longer reach: the running product is the same from k = 0.
    """
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != g.shape or f.shape[:1] != (family.K,) or f.ndim > 2:
        raise ValueError("vector length does not match family dimension")
    if family.q != quad.q:
        raise ValueError("family and quadrature deformation parameters differ")

    f_phi = (family.phi.adjoint() @ f).conj()   # <f, phi_k>
    psi_g = family.psi.adjoint() @ g            # <psi_k, g>
    hit = ((f_phi != 0) | (psi_g != 0)).reshape(family.K, -1).any(axis=1)
    reach = int(np.flatnonzero(hit).max(initial=-1)) + 1
    rho_k = (quad.moments[:reach] if reach <= len(quad.moments)
             else _scaled_moments(quad.q, quad.weights, reach))
    return rho_k @ (f_phi[:reach] * psi_g[:reach])


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
