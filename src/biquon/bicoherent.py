"""Bi-coherent states of a deformed ladder pair.

The pair of vectors

    phi(z) = N(|z|) sum_k z^k / beta_{k-1}!  phi_k
    psi(z) = N(|z|) sum_k z^k / beta_{k-1}!  psi_k

is well defined inside a disc whose radius is controlled by the norm
growth of the family; phi(z) is an eigenvector of the lowering operator a
and psi(z) of b^dag, both with eigenvalue z, and the two states pair to 1.
N(|z|) comes from the logarithm of its q-exponential in closed form, and
the coefficients are formed in log space, so neither overflows.  All
series here are truncated with explicit geometric tail bounds, never
silently.

A sweep over many z is one batch: given a 1-D array of points, the states
are K x P column batches, every check reduces down axis 0 and returns one
value per column, and a scalar z gives 1-D states and scalar results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pseudoquon import BiorthogonalFamily
from .qcore import BetaSequence, bracket, disc_radius, validate_q_disc

__all__ = [
    "norm_series",
    "normalization",
    "log_coefficients",
    "quon_coherent_vector",
    "BiCoherentState",
    "bicoherent_state",
    "pairing",
    "eigen_check",
    "empirical_radius",
    "ratio_radius",
    "radius_bound_ratios",
    "UncertaintyResult",
    "uncertainty_product",
]

UNIT_ROUNDOFF = 2.0 ** -53


def _check_q_series(q: float) -> float:
    q = float(q)
    if not (0.0 < q <= 1.0):
        raise ValueError(f"deformation parameter q={q} outside (0, 1]")
    return q


def norm_series(q: float, r) -> tuple:
    """log sum_k r^{2k} / [k]! in closed form, with its tail bound and length.

    With x = (1-q) r^2 the q-binomial theorem gives sum_k x^k / (q; q)_k =
    1 / (x; q)_inf, whose logarithm sum_m x^m / (m (1 - q^m)) splits as

        -log1p(-x) + r^2 q sum_{m>=1} (xq)^{m-1} / (m [m]).

    Every term is positive and each is at most xq times the one before, so
    the sum stops at the first M with (xq)^M <= 2^-53 and the dropped terms
    are bounded by the geometric tail.  At q = 1, x = 0 and the one term
    left gives r^2.  Returns (log_sum, tail_bound, terms).

    An array r gives log_sum and tail_bound per modulus, each with the bits
    of that modulus alone (it sums its own leading M terms of one table),
    and terms summed over the moduli.
    """
    q = _check_q_series(q)
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < math.inf)):
        raise ValueError(f"radius r={r} must be nonnegative and finite")
    if q < 1.0 and np.any(r >= disc_radius(q)):
        raise ValueError(f"r={r} outside the convergence disc of radius {disc_radius(q)}")
    rs = r.ravel().tolist()
    x = [(1.0 - q) * ri * ri for ri in rs]
    counts = [math.ceil(math.log(UNIT_ROUNDOFF) / math.log(max(xi * q, UNIT_ROUNDOFF)))
              for xi in x]
    m = np.arange(1, max(counts, default=0) + 2)
    table = q * np.power(np.multiply(x, q)[:, None], m - 1) / (m * bracket(q, m))
    # -log1p(-x) per modulus: numpy's log1p may round otherwise
    log_sum = [-math.log1p(-xi) + ri * ri * float(np.sum(row[:n]))
               for ri, xi, n, row in zip(rs, x, counts, table)]
    tail = [ri * ri * float(row[n]) / (1.0 - xi * q)
            for ri, xi, n, row in zip(rs, x, counts, table)]
    if not r.ndim:
        return log_sum[0], tail[0], counts[0]
    return np.reshape(log_sum, r.shape), np.reshape(tail, r.shape), sum(counts)


def normalization(q: float, r):
    """N(r) = (sum_k r^{2k} / (beta_{k-1}!)^2)^{-1/2}, per modulus of an
    array r.

    At q = 1 this is the ordinary coherent-state normalization exp(-r^2 / 2).
    Far out in the disc of q near 1 it underflows to 0; states are built
    from log N instead (:func:`quon_coherent_vector`).
    """
    log_sum = norm_series(q, r)[0]
    if not np.ndim(log_sum):
        return math.exp(-0.5 * log_sum)
    # math.exp per modulus: numpy's exp may round otherwise
    return np.reshape([math.exp(-0.5 * v) for v in log_sum.ravel().tolist()], log_sum.shape)


def log_coefficients(q: float, r, terms: int) -> np.ndarray:
    """log(r^k / beta_{k-1}!) for k = 0..terms-1 down axis 0, one column
    per entry of the moduli r (a scalar r gives one row).

    Summed in log space, so no power or factorial overflows; at r = 0 every
    entry past the first is -inf.
    """
    q = _check_q_series(q)
    if terms < 1:
        raise ValueError("terms must be positive")
    r = np.asarray(r, dtype=float)
    log_beta = np.log(BetaSequence(q, terms).beta[1:terms])
    with np.errstate(divide="ignore"):
        log_r = np.log(r)
    out = np.zeros((terms,) + r.shape)
    np.cumsum(log_r - log_beta.reshape((-1,) + (1,) * r.ndim), axis=0, out=out[1:])
    return out


def _coherent_columns(q: float, z: np.ndarray, dim: int) -> tuple:
    """e(z) (see :func:`quon_coherent_vector`), the distinct moduli of z,
    sorted, and the index of each entry's modulus among them."""
    rings, ring = np.unique(np.abs(z).ravel(), return_inverse=True)
    ring = ring.reshape(z.shape)
    out = np.empty((dim,) + z.shape, dtype=complex)
    out[0] = 1.0
    out[1:] = np.exp(1j * np.angle(z))      # z / |z| fails on a subnormal z
    np.cumprod(out, axis=0, out=out)
    log_n = -0.5 * norm_series(q, rings)[0]
    out *= np.exp((log_n + log_coefficients(q, rings, dim))[:, ring])
    return out, rings, ring


def quon_coherent_vector(q: float, z, dim: int) -> np.ndarray:
    """Undeformed coherent vector e(z) = N(|z|) sum_{k<dim} z^k/beta_{k-1}! e_k,
    one column per entry of a 1-D z.

    Formed as exp(log N + log |z^k / beta_{k-1}!|) times a running product
    of the unit phase e^{i arg z}: every entry has modulus at most 1, none
    overflows where N underflows, and the phase of e_k carries k roundings
    of one multiplication, not the rounding of arg(z) k.  log N and the log
    coefficients come from one evaluation over the distinct |z|.
    """
    return _coherent_columns(q, np.asarray(z, dtype=complex), dim)[0]


@dataclass(frozen=True)
class BiCoherentState:
    """Truncated phi(z), psi(z) of one family, with the bound on their
    dropped norm and their images a phi(z) and b^dag psi(z) under its pair:
    one column (and one entry of z, norm_const and tail_bound) per point of
    a batch, or 1-D states and scalars for a single z."""

    z: complex | np.ndarray
    family: BiorthogonalFamily = field(repr=False)
    norm_const: float | np.ndarray
    phi_z: np.ndarray = field(repr=False)
    psi_z: np.ndarray = field(repr=False)
    a_phi: np.ndarray = field(repr=False)
    b_dag_psi: np.ndarray = field(repr=False)
    tail_bound: float | np.ndarray


def bicoherent_state(family: BiorthogonalFamily, z) -> BiCoherentState:
    """Evaluate phi(z), psi(z) by truncating the series at the family's K.

    z is one point or a 1-D array of points, each strictly inside the
    family's convergence disc; a batch costs four K x P operator products,
    phi(z), psi(z) and the images a phi(z) and b^dag psi(z) both checks read.
    The dropped mass is bounded by the larger uniform family norm times the
    geometric tail |c_K| / (1 - |z| / beta_K) of the coefficients c_k.
    """
    q = validate_q_disc(family.q)
    # a compactly supported S keeps the family norm-bounded, so the disc is
    # the scalar series' 1/sqrt(1-q)
    rho = disc_radius(q)
    z = np.asarray(z, dtype=complex)
    if z.ndim > 1:
        raise ValueError(f"z must be a scalar or a 1-D array, got shape {z.shape}")
    r = np.abs(z)
    if not np.all(r < rho):
        raise ValueError(f"|z| up to {np.max(r)} outside the convergence disc "
                         f"of radius {rho}")
    dim = family.K

    # N is a second evaluation over the distinct |z|, after log N's; it
    # stays a call of normalization, which traced runs count
    ez, rings, ring = _coherent_columns(q, z, dim + 1)
    a_max = max(np.max(family.phi.column_norms(dim)), np.max(family.psi.column_norms(dim)))
    ratio = r / math.sqrt(bracket(q, dim + 1))      # |z| / beta_K
    tail = np.divide(np.abs(ez[dim]), 1.0 - ratio,
                     out=np.full(z.shape, math.inf), where=ratio < 1.0)
    phi = family.phi @ ez[:-1]      # N (e(z) + alpha <u, e(z)> v)
    psi = family.psi @ ez[:-1]
    # [()] turns the 0-d results of a scalar z back into scalars
    return BiCoherentState(
        z=z[()], family=family, norm_const=normalization(q, rings)[ring][()],
        phi_z=phi, psi_z=psi, a_phi=family.a @ phi, b_dag_psi=family.b.adjoint() @ psi,
        tail_bound=(a_max * tail)[()],
    )


def pairing(state: BiCoherentState) -> complex | np.ndarray:
    """<phi(z), psi(z)>; equals 1 up to the truncation tail."""
    return np.sum(state.phi_z.conj() * state.psi_z, axis=0)


def eigen_check(state: BiCoherentState) -> tuple:
    """Relative eigenvalue residuals of phi(z) under a and of psi(z) under b^dag.

    ||a phi(z) - z phi(z)|| / ||phi(z)|| and ||b^dag psi(z) - z psi(z)|| /
    ||psi(z)||, per column: judged against the scale of the states, a state
    whose normalization underflows cannot pass.
    """
    phi, psi = state.phi_z, state.psi_z
    r_phi = np.linalg.norm(state.a_phi - state.z * phi, axis=0) / np.linalg.norm(phi, axis=0)
    r_psi = np.linalg.norm(state.b_dag_psi - state.z * psi, axis=0) \
        / np.linalg.norm(psi, axis=0)
    return r_phi, r_psi


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


def ratio_radius(norms: np.ndarray, q: float) -> float:
    """Ratio-test radius beta_n ||phi_n|| / ||phi_{n+1}|| at the last index
    n = len(norms) - 2.

    The terms z^n phi_n / beta_{n-1}! of the bi-coherent series have the
    norm ratio |z| ||phi_{n+1}|| / (beta_n ||phi_n||), so far into the
    family this is its radius of convergence.
    """
    c = np.asarray(norms, dtype=float)
    if len(c) < 2 or np.any(c <= 0):
        raise ValueError("need at least 2 positive norms for the ratio test")
    n = len(c) - 2
    return float(math.sqrt(bracket(q, n + 1)) * c[n] / c[n + 1])     # beta_n = sqrt([n + 1])


def radius_bound_ratios(norms: np.ndarray, q: float, log_a: float) -> np.ndarray:
    """||phi_n|| / (A (n+1) beta_{n-1}! (1-q)^{-n/2}) for each n, with
    A = e^{log_a}.

    Where every ratio is at most 1, the terms of the bi-coherent series are
    at most A (n+1) (|z| / sqrt(1-q))^n, so it converges for |z| < sqrt(1-q).
    Formed in log space, so no factorial or power overflows.
    """
    q = validate_q_disc(q)
    c = np.asarray(norms, dtype=float)
    n = np.arange(len(c))
    return np.exp(np.log(c) - log_a - np.log1p(n) + log_coefficients(q, 1.0, len(c))
                  + 0.5 * n * math.log1p(-q))


@dataclass(frozen=True)
class UncertaintyResult:
    """Generalized uncertainty product under the pseudo-expectation.

    The individual squared deviations are complex-valued intermediates;
    only the principal-value product carries a contract.  residual is
    |product - predicted| / (1 + |z|^2): Delta Q^2 and Delta P^2 are
    differences of terms of size |z|^2, so that is the scale their
    rounding carries.  Every field holds one entry per column of a batch.
    """

    product: complex | np.ndarray
    predicted: float | np.ndarray
    dq_sq: complex | np.ndarray
    dp_sq: complex | np.ndarray
    residual: float | np.ndarray


def _moments(state: BiCoherentState) -> dict:
    """The pseudo-moments <a>, <b> and <XY>, X, Y in {a, b}, keyed "a" ..
    "bb", one entry per column.

    <XY> = <X^dag psi(z), Y phi(z)>: column inner products of the state's
    a phi and b^dag psi, and of b phi and a^dag psi.  np.vecdot conjugates
    its first argument and forms no K x P temporary.
    """
    family, psi = state.family, state.psi_z
    a_phi, b_phi = state.a_phi, family.b @ state.phi_z
    a_psi, b_psi = family.a.adjoint() @ psi, state.b_dag_psi
    pairs = {"a": (psi, a_phi), "b": (psi, b_phi), "aa": (a_psi, a_phi),
             "ab": (a_psi, b_phi), "ba": (b_psi, a_phi), "bb": (b_psi, b_phi)}
    return {key: np.vecdot(left, right, axis=0) for key, (left, right) in pairs.items()}


def uncertainty_product(state: BiCoherentState) -> UncertaintyResult:
    """Compute Delta Q Delta P at state.z against the closed form (|z|^2 (q-1) + 1)/2.

    Q = (b + a)/sqrt(2), P = i (b - a)/sqrt(2), and expectations are the
    pseudo-expectations <T> = <psi(z), T phi(z)>.  With the moments <X>
    and <XY> of X, Y in {a, b},

        Delta Q^2 = (<aa> + <ab> + <ba> + <bb> - (<a> + <b>)^2) / 2,
        Delta P^2 = (<ab> + <ba> - <aa> - <bb> + (<b> - <a>)^2) / 2,

    from four operator products on the state columns (:func:`_moments`),
    never from Q^2 or P^2 as matrices.
    """
    m = _moments(state)
    dq_sq = 0.5 * (m["aa"] + m["ab"] + m["ba"] + m["bb"] - (m["a"] + m["b"]) ** 2)
    dp_sq = 0.5 * (m["ab"] + m["ba"] - m["aa"] - m["bb"] + (m["b"] - m["a"]) ** 2)
    product = np.sqrt(dq_sq) * np.sqrt(dp_sq)
    r_sq = np.abs(state.z) ** 2
    predicted = 0.5 * (r_sq * (state.family.q - 1.0) + 1.0)
    return UncertaintyResult(product=product, predicted=predicted,
                             dq_sq=dq_sq, dp_sq=dp_sq,
                             residual=np.abs(product - predicted) / (1.0 + r_sq))
