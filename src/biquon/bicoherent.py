"""Bi-coherent states of a deformed ladder pair.

The pair of vectors

    phi(z) = N(|z|) sum_k z^k / beta_{k-1}!  phi_k
    psi(z) = N(|z|) sum_k z^k / beta_{k-1}!  psi_k

is well defined inside a disc whose radius is controlled by the norm
growth of the family; phi(z) is an eigenvector of the lowering operator a
and psi(z) of b^dag, both with eigenvalue z, and the two states pair to 1.
All series here are truncated with explicit geometric tail bounds, never
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pseudoquon import BiorthogonalFamily
from .qcore import BetaSequence, disc_radius, validate_q_disc

__all__ = [
    "ConvergenceError",
    "norm_series",
    "normalization",
    "coherent_coefficients",
    "quon_coherent_vector",
    "BiCoherentState",
    "family_radius",
    "bicoherent_state",
    "pairing",
    "eigen_check",
    "RadiusReport",
    "radius_report",
    "empirical_radius",
    "UncertaintyResult",
    "uncertainty_product",
]

MAX_SERIES_TERMS = 4096
TAIL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """A truncated series could not meet its tail target."""


def _check_q_series(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ValueError(f"deformation parameter q={q} outside (0, 1]")
    return q


def norm_series(q: float, r: float, terms: int | None = None,
                tail_tol: float = TAIL_TOL,
                max_terms: int = MAX_SERIES_TERMS) -> tuple[float, float, int]:
    """Partial sum of sum_k r^{2k} / (beta_{k-1}!)^2 with a geometric tail bound.

    With ``terms`` given, sums exactly that many terms and raises
    :class:`ConvergenceError` if the tail bound exceeds ``tail_tol`` relative
    to the partial sum.  Otherwise grows the truncation adaptively up to
    ``max_terms``.  Returns (partial_sum, tail_bound, terms_used).
    """
    q = _check_q_series(q)
    r = float(r)
    if r < 0:
        raise ValueError(f"radius r={r} must be nonnegative")
    if q < 1.0 and r >= disc_radius(q):
        raise ValueError(f"r={r} outside the convergence disc of radius {disc_radius(q)}")

    bs = BetaSequence(q, (terms if terms is not None else max_terms) + 1)
    total = 0.0
    t = 1.0            # term k: r^{2k} / (beta_{k-1}!)^2
    k = 0
    limit = terms if terms is not None else max_terms
    while k < limit:
        total += t
        t *= r * r / bs.beta(k) ** 2 if r > 0 else 0.0
        k += 1
        if terms is None and k >= 8:
            ratio = r * r / bs.beta(k) ** 2
            if ratio < 1.0 and t / (1.0 - ratio) <= tail_tol * total:
                break
    ratio = r * r / bs.beta(k) ** 2 if r > 0 else 0.0
    tail = t / (1.0 - ratio) if ratio < 1.0 else math.inf
    if not tail <= tail_tol * total < math.inf:
        raise ConvergenceError(
            f"tail bound {tail:.3e} exceeds {tail_tol:.1e} x partial sum "
            f"{total:.3e} after {k} terms (r={r}, q={q})")
    return total, tail, k


def normalization(q: float, r: float, terms: int | None = None,
                  tail_tol: float = TAIL_TOL) -> float:
    """N(|z|) = (sum_k |z|^{2k} / (beta_{k-1}!)^2)^{-1/2}.

    At q = 1 the factorials reduce to sqrt(k!) and the value recovers the
    ordinary coherent-state normalization exp(-r^2 / 2).
    """
    total, _, _ = norm_series(q, r, terms=terms, tail_tol=tail_tol)
    return 1.0 / math.sqrt(total)


def coherent_coefficients(q: float, z: complex, terms: int) -> np.ndarray:
    """Unnormalized series coefficients z^k / beta_{k-1}!, k = 0..terms-1."""
    _check_q_series(q)
    if terms < 1:
        raise ValueError("terms must be positive")
    bs = BetaSequence(q, terms)
    out = np.empty(terms, dtype=complex)
    out[0] = 1.0
    for k in range(1, terms):
        out[k] = out[k - 1] * z / bs.beta(k - 1)
    return out


def quon_coherent_vector(q: float, z: complex, dim: int,
                         norm_const: float | None = None) -> np.ndarray:
    """Undeformed coherent vector e(z) = N(|z|) sum_k z^k/beta_{k-1}! e_k."""
    if norm_const is None:
        norm_const = normalization(q, abs(z))
    return norm_const * coherent_coefficients(q, z, dim)


@dataclass(frozen=True)
class BiCoherentState:
    """Truncated phi(z), psi(z) with their norm-tail bounds."""

    z: complex
    q: float
    terms: int
    norm_const: float
    phi_z: np.ndarray = field(repr=False)
    psi_z: np.ndarray = field(repr=False)
    tail_phi: float = 0.0
    tail_psi: float = 0.0

    @property
    def tail_bound(self) -> float:
        return max(self.tail_phi, self.tail_psi)


def family_radius(family: BiorthogonalFamily) -> float:
    """Guaranteed convergence radius for a Fock-side family.

    Both supported similarity kinds produce uniformly norm-bounded
    families, so the radius is the scalar-series disc 1/sqrt(1-q).
    """
    return disc_radius(family.q)


def _coefficient_tail(q: float, r: float, terms: int) -> float:
    """Geometric bound on sum_{k>=terms} r^k / beta_{k-1}!."""
    bs = BetaSequence(q, terms + 1)
    t = 1.0
    for k in range(terms):
        t *= r / bs.beta(k)
    ratio = r / bs.beta(terms)
    return t / (1.0 - ratio) if ratio < 1.0 else math.inf


def bicoherent_state(family: BiorthogonalFamily, z: complex,
                     terms: int | None = None) -> BiCoherentState:
    """Evaluate phi(z), psi(z) by truncating the series at ``terms``.

    z must lie strictly inside the family's convergence disc.  The dropped
    mass is bounded by the uniform family norm times the geometric tail of
    the coefficient series.
    """
    q = validate_q_disc(family.q)
    rho = family_radius(family)
    z = complex(z)
    if abs(z) >= rho:
        raise ValueError(f"|z|={abs(z)} outside the convergence disc of radius {rho}")
    if terms is None:
        terms = family.K
    if not (1 <= terms <= family.K):
        raise ValueError(f"terms={terms} outside [1, K={family.K}]")

    nconst = normalization(q, abs(z))
    coeffs = np.zeros(family.K, dtype=complex)
    coeffs[:terms] = coherent_coefficients(q, z, terms)
    phi_z = nconst * (family.phi @ coeffs)      # N (e(z) + alpha <u, e(z)> v)
    psi_z = nconst * (family.psi @ coeffs)

    a_phi = float(np.max(family.phi.column_norms(family.K)))
    a_psi = float(np.max(family.psi.column_norms(family.K)))
    tail = _coefficient_tail(q, abs(z), terms)
    return BiCoherentState(
        z=z, q=q, terms=terms, norm_const=nconst,
        phi_z=phi_z, psi_z=psi_z,
        tail_phi=nconst * a_phi * tail,
        tail_psi=nconst * a_psi * tail,
    )


def pairing(state: BiCoherentState) -> complex:
    """<phi(z), psi(z)>; equals 1 up to the truncation tail."""
    return complex(np.vdot(state.phi_z, state.psi_z))


def eigen_check(state: BiCoherentState, a, b) -> tuple[float, float]:
    """Relative eigenvalue residuals of phi(z) under a and of psi(z) under b^dag.

    ||a phi(z) - z phi(z)|| / ||phi(z)|| and ||b^dag psi(z) - z psi(z)|| /
    ||psi(z)||: judged against the scale of the states, a state whose
    normalization underflows cannot pass.
    """
    if a.dim != len(state.phi_z) or b.dim != len(state.psi_z):
        raise ValueError("operator dimension does not match state")
    phi, psi = state.phi_z, state.psi_z
    r_phi = np.linalg.norm(a @ phi - state.z * phi) / np.linalg.norm(phi)
    r_psi = np.linalg.norm(b.adjoint() @ psi - state.z * psi) / np.linalg.norm(psi)
    return float(r_phi), float(r_psi)


@dataclass(frozen=True)
class RadiusReport:
    """Norm-bound constants and the convergence radii they imply.

    The guaranteed radius rho comes from the fitted bound
    ||phi_n|| <= A r^n M_n; the empirical radii come from a root test on
    the measured coefficient norms and estimate the true radius, which can
    exceed the guaranteed one when the fitted bound is loose.
    """

    policy: str
    rho_phi: float
    rho_psi: float
    rho: float
    A_phi: float
    A_psi: float
    r_phi: float
    r_psi: float
    M_limit_phi: float
    M_limit_psi: float
    empirical_rho_phi: float
    empirical_rho_psi: float


def empirical_radius(coeff_norms: np.ndarray) -> float:
    """Root-test radius from the tail slope of log |coefficient_k|."""
    c = np.asarray(coeff_norms, dtype=float)
    if len(c) < 8:
        raise ValueError("need at least 8 coefficient norms for the root test")
    if np.any(c <= 0):
        raise ValueError("coefficient norms must be positive")
    n0 = len(c) // 2
    k = np.arange(n0, len(c))
    slope = np.polyfit(k, np.log(c[n0:]), 1)[0]
    return float(np.exp(-slope))


def _fit_bound(norms: np.ndarray, log_m: np.ndarray) -> tuple[float, float, float]:
    """Least-squares fit log||phi_n|| ~ log A + n log r + log M_n.

    Returns (A, r, sum of squared residuals); A is then lifted so the bound
    actually dominates the data.
    """
    n = np.arange(len(norms))
    y = np.log(norms) - log_m
    slope, intercept = np.polyfit(n, y, 1)
    resid = float(np.sum((y - slope * n - intercept) ** 2))
    r = float(np.exp(slope))
    a = float(np.max(norms / (np.exp(log_m) * r ** n)))
    return a, r, resid


def radius_report(norms_phi: np.ndarray, norms_psi: np.ndarray, q: float,
                  fit_policy: str = "fit") -> RadiusReport:
    """Fit the norm-bound constants and derive the convergence radii.

    Policies:

    * ``riesz``: uniform norms, A = max ||phi_n||, r = 1, M_n = 1.
    * ``position``: A fitted, r = 1/sqrt(1-q), M_n = (n+1) sqrt([n]!),
      so the limit ratio M_n/M_{n+1} is sqrt(1-q).
    * ``fit``: chooses between constant M_n and q-factorial M_n by
      least-squares residual of the log fit.

    The empirical radii from the root test on ||phi_k|| / beta_{k-1}! are
    always included for cross-validation.
    """
    q = validate_q_disc(q)
    norms_phi = np.asarray(norms_phi, dtype=float)
    norms_psi = np.asarray(norms_psi, dtype=float)
    if len(norms_phi) < 16 or len(norms_psi) < 16:
        raise ValueError("need at least 16 norm samples per family")
    if np.any(norms_phi <= 0) or np.any(norms_psi <= 0):
        raise ValueError("norms must be positive")

    nmax = max(len(norms_phi), len(norms_psi))
    bs = BetaSequence(q, nmax + 1)
    fact = np.array([bs.factorial(n - 1) for n in range(nmax)])
    sqrt_1mq = math.sqrt(1.0 - q)

    def one_family(norms: np.ndarray) -> tuple[float, float, float]:
        if fit_policy == "riesz":
            return float(np.max(norms)), 1.0, 1.0
        if fit_policy == "position":
            n = np.arange(len(norms))
            log_m = np.log(n + 1.0) + np.log(fact[:len(norms)])
            r = 1.0 / sqrt_1mq
            a = float(np.max(norms / (np.exp(log_m) * r ** n)))
            return a, r, sqrt_1mq
        if fit_policy == "fit":
            const_m = np.zeros(len(norms))
            qfact_m = np.log(fact[:len(norms)])
            a1, r1, res1 = _fit_bound(norms, const_m)
            a2, r2, res2 = _fit_bound(norms, qfact_m)
            if res1 <= res2:
                return a1, r1, 1.0
            return a2, r2, sqrt_1mq
        raise ValueError(f"unknown fit_policy {fit_policy!r}")

    a_phi, r_phi, m_phi = one_family(norms_phi)
    a_psi, r_psi, m_psi = one_family(norms_psi)
    rho_phi = min(disc_radius(q), m_phi / (r_phi * sqrt_1mq))
    rho_psi = min(disc_radius(q), m_psi / (r_psi * sqrt_1mq))
    return RadiusReport(
        policy=fit_policy,
        rho_phi=rho_phi, rho_psi=rho_psi, rho=min(rho_phi, rho_psi),
        A_phi=a_phi, A_psi=a_psi, r_phi=r_phi, r_psi=r_psi,
        M_limit_phi=m_phi, M_limit_psi=m_psi,
        empirical_rho_phi=empirical_radius(norms_phi / fact[:len(norms_phi)]),
        empirical_rho_psi=empirical_radius(norms_psi / fact[:len(norms_psi)]),
    )


@dataclass(frozen=True)
class UncertaintyResult:
    """Generalized uncertainty product under the pseudo-expectation.

    The individual squared deviations are complex-valued intermediates;
    only the principal-value product carries a contract.
    """

    product: complex
    predicted: float
    dq_sq: complex
    dp_sq: complex


def uncertainty_product(state: BiCoherentState, a, b) -> UncertaintyResult:
    """Compute Delta Q Delta P at state.z against the closed form (|z|^2 (q-1) + 1)/2.

    Q = (b + a)/sqrt(2), P = i (b - a)/sqrt(2), and expectations are the
    pseudo-expectations <T> = <psi(z), T phi(z)>.  Q^2 phi(z) and P^2 phi(z)
    come from six matrix-vector products, never from Q^2 or P^2 as matrices.
    """
    root2 = math.sqrt(2.0)
    a_phi, b_phi = a @ state.phi_z, b @ state.phi_z
    q_phi = (b_phi + a_phi) / root2
    p_phi = 1j * (b_phi - a_phi) / root2
    q2_phi = (b @ q_phi + a @ q_phi) / root2
    p2_phi = 1j * (b @ p_phi - a @ p_phi) / root2

    def pexp(vec: np.ndarray) -> complex:
        return complex(np.vdot(state.psi_z, vec))

    dq_sq = pexp(q2_phi) - pexp(q_phi) ** 2
    dp_sq = pexp(p2_phi) - pexp(p_phi) ** 2
    product = complex(np.sqrt(dq_sq) * np.sqrt(dp_sq))
    predicted = 0.5 * (abs(state.z) ** 2 * (state.q - 1.0) + 1.0)
    return UncertaintyResult(product=product, predicted=predicted,
                             dq_sq=dq_sq, dp_sq=dp_sq)
