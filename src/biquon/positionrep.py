"""The shifted multiplication-operator example on its Gaussian lattice.

The deformed pair acts on real-line functions through multiplication by
complex exponentials and the imaginary translation f(x) -> f(x + i alpha).
Every state the example needs is a combination of lattice Gaussians

    f(x) = sum_k c_k exp(-x^2/2 + (w0 + 2 i alpha k) x),        k = 0, 1, ...

with w0 = gamma + 1.5 i alpha for the phi family and -gamma + 1.5 i alpha
for the psi family.  Both ingredients map the lattice onto itself, so a
state is its coefficient vector, the ladder operators are banded maps of
it, and inner products are closed-form Gaussian integrals.

Conventions: alpha = sqrt(-log(q)/2) so that q = exp(-2 alpha^2); the
similarity between the shifted family and the undeformed one is the
multiplication operator exp(gamma x).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .qcore import BetaSequence, validate_q_disc

__all__ = [
    "PositionParams",
    "LatticeState",
    "AnalyticState",
    "default_grid",
    "apply_a",
    "apply_b",
    "apply_a_dagger",
    "apply_b_dagger",
    "build_families",
    "Lattice",
    "coefficient_recursion",
    "lattice",
    "inner",
    "norm",
    "qmutation_grid_check",
    "ladder_check",
    "similarity_check",
    "l_value",
    "cancellation",
    "norm_formula_check",
    "theta_conjugacy_check",
]


@dataclass(frozen=True)
class PositionParams:
    """Deformation parameter q in (0, 1) and real shift gamma."""

    q: float
    gamma: float = 0.0

    def __post_init__(self):
        validate_q_disc(self.q)

    @property
    def alpha(self) -> float:
        return math.sqrt(-math.log(self.q) / 2.0)

    @property
    def sqrt_1mq(self) -> float:
        return math.sqrt(1.0 - self.q)


@dataclass(frozen=True)
class LatticeState:
    """States f_n = sum_k coeffs[n, k] exp(-x^2/2 + (w0 + step k) x), one per row."""

    coeffs: np.ndarray = field(repr=False)
    w0: complex
    step: complex

    # a state is frozen and every change makes a new one, so no cache goes stale
    @functools.cached_property
    def exponents(self) -> np.ndarray:
        return self.w0 + self.step * np.arange(self.coeffs.shape[1])

    def shift_exponent(self, c: complex) -> "LatticeState":
        """Multiplication by exp(c x): the lattice moves by c."""
        return replace(self, w0=self.w0 + c)

    def sample(self, x: np.ndarray) -> np.ndarray:
        """Values at the points x (rows x points), summed term by term."""
        vals = np.zeros((self.coeffs.shape[0], len(x)), dtype=complex)
        env = -x * x / 2.0
        for c, w in zip(self.coeffs.T, self.exponents):
            vals += c[:, None] * np.exp(env + w * x)
        return vals


# the benchmark tracer (bench/spans.py) times the sampler under this name
AnalyticState = LatticeState

GRID_POINTS = 4096


def default_grid(gamma: float) -> np.ndarray:
    """Sample points for pointwise comparisons."""
    half = 12.0 + abs(gamma)
    return np.linspace(-half, half, GRID_POINTS)


def inner(f: LatticeState, g: LatticeState) -> tuple[np.ndarray, float]:
    """(G, c) with <f_n, g_m> = exp(c) G[n, m] (conjugate-linear in f).

    G = P^H K Q^T with K_kl = sqrt(pi) exp(s^2/4 - c), s = conj(w_k) + v_l,
    since sqrt(pi) exp(s^2/4) = <exp(-x^2/2 + w x), exp(-x^2/2 + v x)>.  The
    lattice steps are imaginary, so c = Re(s)^2/4 = (Re w0_f + Re w0_g)^2/4
    bounds Re(s^2/4) and K stays finite where <f_n, g_m> would overflow.
    """
    c = (f.w0.real + g.w0.real) ** 2 / 4.0
    s = np.add.outer(np.conj(f.exponents), g.exponents)
    kernel = math.sqrt(math.pi) * np.exp(s * s / 4.0 - c)
    return f.coeffs.conj() @ kernel @ g.coeffs.T, c


def _norms_sq(f: LatticeState) -> tuple[np.ndarray, float]:
    """(N, c) with ||f_n||^2 = exp(c) N[n]: the diagonal of the Gram."""
    gram, c = inner(f, f)
    return np.abs(np.diagonal(gram)), c


def norm(f: LatticeState) -> np.ndarray:
    """||f_n|| for every row; finite and resolved where ||f_n||^2 would
    overflow, as it does when |gamma| nears GAMMA_MAX."""
    norms_sq, c = _norms_sq(f)
    return np.sqrt(norms_sq) * math.exp(c / 2.0)


# the benchmark tracer (bench/spans.py) times the norm layer under this name
grid_norm = norm


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def _exponent_factor(params: PositionParams, f: LatticeState, half_sq: float,
                     gamma_sign: float) -> np.ndarray:
    """exp(half_sq alpha^2 + i alpha (w_k - gamma_sign gamma)) over f's lattice."""
    al = params.alpha
    return np.exp(half_sq * al * al + 1j * al * (f.exponents - gamma_sign * params.gamma))


def _step_down(params: PositionParams, f: LatticeState, gamma_sign: float) -> LatticeState:
    """a (gamma_sign +1) or b^dag (-1): coefficient k moves to k - 1 with the
    factor pref (1 - exp(1.5 alpha^2 + i alpha (w_k -+ gamma))).

    On the operator's own lattice (w0 = +-gamma + 1.5 i alpha) the k = 0
    factor is exactly 0.0, so the term that would leave the lattice is zero
    and the vacuum is annihilated in closed form.
    """
    factor = 1j / params.sqrt_1mq * (1.0 - _exponent_factor(params, f, 1.5, gamma_sign))
    if factor.size and factor[0] != 0.0:
        raise ValueError("lowering is defined here only on its vacuum's lattice")
    return replace(f, coeffs=factor[1:] * f.coeffs[:, 1:])


def _step_up(params: PositionParams, f: LatticeState, gamma_sign: float) -> LatticeState:
    """b (gamma_sign +1) or a^dag (-1): bidiagonal, coefficient k moves to
    k + 1 with the factor pref, plus the diagonal -pref exp(0.5 alpha^2 +
    i alpha (w_k -+ gamma))."""
    pref = -1j / params.sqrt_1mq
    out = np.zeros((f.coeffs.shape[0], f.coeffs.shape[1] + 1), dtype=complex)
    out[:, 1:] = pref * f.coeffs
    out[:, :-1] -= pref * _exponent_factor(params, f, 0.5, gamma_sign) * f.coeffs
    return replace(f, coeffs=out)


def apply_a(params: PositionParams, state: LatticeState) -> LatticeState:
    return _step_down(params, state, +1.0)


def apply_b_dagger(params: PositionParams, state: LatticeState) -> LatticeState:
    return _step_down(params, state, -1.0)


def apply_b(params: PositionParams, state: LatticeState) -> LatticeState:
    return _step_up(params, state, +1.0)


def apply_a_dagger(params: PositionParams, state: LatticeState) -> LatticeState:
    return _step_up(params, state, -1.0)


# ---------------------------------------------------------------------------
# oscillatory-factor coefficients and the two families
# ---------------------------------------------------------------------------

def coefficient_recursion(params: PositionParams, n_max: int) -> np.ndarray:
    """Coefficient rows from the raising operator acting on the factor, as
    one lower-triangular array whose row n holds c^(n) in its first n + 1
    entries.

    One application of b maps the factor coefficients by
    c_k^(n+1) = c_{k-1}^(n) - exp(-alpha^2) q^k c_k^(n); this is the exact
    action on exp(2 i alpha k x) terms, and it does not involve gamma,
    which is why the same table serves both families.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    damped = math.exp(-params.alpha ** 2) * params.q ** np.arange(n_max + 1)
    rows = np.zeros((n_max + 1, n_max + 1))
    rows[0, 0] = 1.0
    for n in range(n_max):
        rows[n + 1, 1:n + 2] += rows[n, :n + 1]
        rows[n + 1, :n + 1] -= damped[:n + 1] * rows[n, :n + 1]
    return rows


@dataclass(frozen=True)
class Lattice:
    """What the states phi_n and psi_n, n <= n_max, share whatever gamma is:
    the coefficient rows c^(n), the family rows P[n] = pref_n c^(n) of
    :func:`build_families`, the betas, and the lag sums of L_n (see
    :func:`l_value`).  The states and the lag sums are each computed on
    their first read, so a lattice read only for its lag sums never forms
    the prefactors (-i/sqrt(1-q))^n, which overflow on a lattice the
    rounding refusal rejects.  Every task of a run reads the same lattice,
    so its arrays are read-only."""

    coeffs: np.ndarray = field(repr=False)
    beta: BetaSequence = field(repr=False)

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    @functools.cached_property
    def states(self) -> np.ndarray:
        """The family rows P[n] = pref_n c^(n) of :func:`build_families`."""
        step = -1j / PositionParams(self.beta.q).sqrt_1mq
        pref = np.array([math.pi ** -0.25 / fact * step ** n for n, fact
                         in enumerate(self.beta.factorial[:self.n_max + 1].tolist())])
        out = np.tril(pref[:, None] * self.coeffs)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def lag_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, m) of :func:`_lag_sums` for every row."""
        out = _lag_sums(PositionParams(self.beta.q), self.beta, self.n_max)
        for array in out:
            array.setflags(write=False)
        return out


def lattice(params: PositionParams, n_max: int) -> Lattice:
    """The lattice of q = params.q up to row n_max, from one coefficient
    recursion and one beta table."""
    coeffs = coefficient_recursion(params, n_max)
    coeffs.setflags(write=False)
    return Lattice(coeffs, BetaSequence(params.q, n_max))


def _fitting(params: PositionParams, n_max: int, table: Lattice) -> Lattice:
    """table, once it is the lattice of params.q and holds row n_max."""
    if table.beta.q != params.q or table.n_max < n_max:
        raise ValueError(f"a lattice of q={table.beta.q} up to row {table.n_max} does "
                         f"not fit a call at q={params.q} that reads row {n_max}")
    return table


def build_families(params: PositionParams, n_max: int,
                   table: Lattice) -> tuple[LatticeState, LatticeState]:
    """phi_n = b^n phi_0 / beta_{n-1}! and psi_n = (a^dag)^n psi_0 / beta_{n-1}!
    for n <= n_max, as the rows P[n, k] = pref_n c_k^(n) of one
    lower-triangular matrix, pref_n = pi^{-1/4} (-i/sqrt(1-q))^n / beta_{n-1}!,
    over the lattices w0 = +-gamma + 1.5 i alpha with step 2 i alpha, read
    from table."""
    coeffs = _fitting(params, n_max, table).states[:n_max + 1, :n_max + 1]
    al = params.alpha
    return (LatticeState(coeffs, params.gamma + 1.5j * al, 2j * al),
            LatticeState(coeffs, -params.gamma + 1.5j * al, 2j * al))


# ---------------------------------------------------------------------------
# identity and formula checks
# ---------------------------------------------------------------------------

def qmutation_grid_check(params: PositionParams, states: LatticeState) -> float:
    """max over the rows f of ||(a b - q b a) f - f|| / ||f||."""
    ab = apply_a(params, apply_b(params, states))
    ba = apply_b(params, apply_a(params, states))
    resid = replace(states, coeffs=ab.coeffs - params.q * ba.coeffs - states.coeffs)
    return float(np.max(norm(resid) / norm(states)))


def ladder_check(params: PositionParams, n_max: int, table: Lattice) -> dict:
    """Residuals of the four ladder relations for n <= n_max, each relative
    to the norm of the state the operator acts on: the operator applied to
    a closed-form row against beta times the neighbouring closed-form row.
    The rows come from table, which needs row n_max + 1."""
    phi, psi = build_families(params, n_max + 1, table)
    beta = table.beta.beta[1:n_max + 2]
    below = table.beta.beta[:n_max + 1]             # beta_{n-1}, beta_{-1} = 0
    report = {}
    for name, fam, up, down in (("phi", phi, apply_b, apply_a),
                                ("psi", psi, apply_a_dagger, apply_b_dagger)):
        head = replace(fam, coeffs=fam.coeffs[:n_max + 1, :n_max + 1])
        prev = np.zeros((n_max + 1, n_max), dtype=complex)
        prev[1:] = fam.coeffs[:n_max, :n_max]
        scale = norm(head)
        for kind, resid in (
                ("raise", up(params, head).coeffs - beta[:, None] * fam.coeffs[1:]),
                ("lower", down(params, head).coeffs - below[:, None] * prev)):
            rel = norm(replace(fam, coeffs=resid)) / scale
            report[f"{kind}_{name}"] = float(np.max(rel))
    worst = np.max(list(report.values()))
    report["n_max"] = n_max
    report["max_residual"] = float(worst)
    return report


def similarity_check(params: PositionParams, n_max: int, table: Lattice) -> dict:
    """The multiplication-similarity structure, and biorthogonality.

    phi_n with shift gamma must equal exp(gamma x) times the unshifted
    phi_n, and psi_n exp(-gamma x) times it.  Every family member is its
    lattice base Gaussian exp(-x^2/2 + w0 x) times a polynomial in
    exp(2 i alpha x) that does not depend on gamma, so the similarity holds
    for every row exactly when it holds for the base Gaussians:
    similarity_phi and similarity_psi compare exp(+-gamma x) g_0 with
    g_{+-gamma} on the sample points of :func:`default_grid`.  Both sides
    are scaled by exp(-gamma^2/2), the size of ||phi_n||, which is folded
    into the exponent exp(+-gamma x - gamma^2/2): exp(gamma x) alone
    overflows on the grid as |gamma| nears GAMMA_MAX.
    """
    x = default_grid(params.gamma)
    phi, psi = build_families(params, n_max, table)
    g2 = params.gamma ** 2 / 2.0

    def base(w0: complex) -> np.ndarray:
        return LatticeState(np.ones((1, 1)), w0, phi.step).sample(x)[0]

    ref = base(1.5j * params.alpha)
    dev = [np.max(np.abs(math.exp(-g2) * base(fam.w0)
                         - np.exp(sign * params.gamma * x - g2) * ref))
           for fam, sign in ((phi, 1.0), (psi, -1.0))]
    gram = inner(phi, psi)[0]       # the phi/psi shift is 0
    return {"similarity_phi": float(dev[0]), "similarity_psi": float(dev[1]),
            "biorthogonality": float(np.max(np.abs(gram - np.eye(n_max + 1))))}


def _lag_sums(params: PositionParams, beta: BetaSequence,
              n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The gamma-free part of L_n for every n <= n_max: (a, m) with
    a[n, d] = sum_k u_k u_{k+d} and m[n] = |u|^T |T| |u| for u = u^(n).

    The lags stop where |t_d| = exp(-alpha^2 d^2) rounds to 0.  Each is one
    sum over the window of u that starts d entries in, and the windows are
    strided views of one padded row, so the pass holds O(n_max * lags)
    floats and no window is copied.
    """
    al2 = params.alpha ** 2
    k = np.arange(n_max + 1)
    size = np.exp(-al2 * k * k)                                 # |t_d|
    width = np.count_nonzero(size)                              # lags 0 .. width-1
    facts = beta.factorial_sq[:n_max + 1]                       # [k]! >= 1
    n = k[:, None]
    # row n holds u^(n), padded by width - 1 zeros; dividing twice keeps
    # [k]! [n-k]! from overflowing
    u = np.zeros((n_max + 1, n_max + width))
    u[:, :n_max + 1] = np.where(
        k <= n, (-1.0) ** k * np.exp(-al2 * k) / facts / facts[np.abs(n - k)], 0.0)

    def windowed_sums(v: np.ndarray) -> np.ndarray:
        rows, cols = v.strides
        windows = as_strided(v, (n_max + 1, width, n_max + 1), (rows, cols, cols),
                             writeable=False)
        return np.einsum("nk,ndk->nd", v[:, :n_max + 1], windows)

    weights = 2.0 * size[:width]
    weights[0] = 1.0
    return windowed_sums(u), windowed_sums(np.abs(u)) @ weights


def l_value(params: PositionParams, n_max: int, table: Lattice) -> np.ndarray:
    """L_0 .. L_n_max, the double sums of the closed norm formula; each is
    real and at most (n+1)^2.

    L_n = u^T T u with u_k = (-1)^k exp(-alpha^2 k) / ([k]! [n-k]!) and
    T_kl = t_{k-l}, t_d = exp(-alpha^2 d^2 - 2 i alpha gamma d).  T is
    Hermitian and u real, so L_n = a_0 + 2 sum_{d>=1} Re(t_d) a_d over the
    gamma-free lag sums a_d of table (see :class:`Lattice`): one product.
    """
    lags = _fitting(params, n_max, table).lag_sums[0][:n_max + 1]
    d = np.arange(lags.shape[1])
    al = params.alpha
    weights = 2.0 * np.exp(-al * al * d * d) * np.cos(2.0 * al * params.gamma * d)
    weights[0] = 1.0
    return lags @ weights


def cancellation(params: PositionParams, n_max: int, table: Lattice) -> np.ndarray:
    """For each n <= n_max, the largest |u|^T |T| |u| / |L_m| over m <= n.

    The factor by which the alternating terms of L_m amplify rounding; the
    lattice coefficients of phi_m cancel by the same factor in ||phi_m||^2,
    so float evaluation cannot resolve either below eps times it.  It is
    infinite where L_m rounds to 0, and at least 1.  Only L_m depends on
    gamma.
    """
    l_sum = l_value(params, n_max, table)
    ratio = np.full(n_max + 1, math.inf)
    np.divide(table.lag_sums[1][:n_max + 1], np.abs(l_sum), out=ratio,
              where=l_sum != 0.0)
    return np.maximum.accumulate(np.maximum(ratio, 1.0))


def norm_formula_check(params: PositionParams, n_max: int, table: Lattice) -> dict:
    """Exact norms against the closed formula
    ||phi_n||^2 = [n]! e^{gamma^2} (1-q)^{-n} L_n, plus its side claims.

    The norms are the diagonals of the lattice Grams; norms and formula are
    compared without their common factor exp(gamma^2), which overflows
    first.
    """
    nphi = _norms_sq(build_families(params, n_max, table)[0])[0]
    lvs = l_value(params, n_max, table)
    n = np.arange(n_max + 1)
    formula = table.beta.factorial_sq[:n_max + 1] * (1.0 - params.q) ** (-n) * lvs
    rel = np.abs(nphi - formula) / np.abs(formula)
    return {"max_rel_err": float(np.max(rel)),
            "L_bound_ok": bool(np.all(lvs <= (n + 1) ** 2 + 1e-12))}


def theta_conjugacy_check(params: PositionParams, n_max: int, table: Lattice) -> float:
    """max |<phi_n, Theta phi_m> - delta_nm| over n, m <= n_max.

    Theta = exp(-2 gamma x) is the metric that conjugates a into
    Theta^{-1} b^dag Theta; as an operator it moves phi's lattice by
    -2 gamma, so the Gaussian kernel pairs phi with Theta phi, and the
    identity fails as soon as Theta's exponent is off.
    """
    phi = build_families(params, n_max, table)[0]
    gram, c = inner(phi, phi.shift_exponent(-2.0 * params.gamma))
    return float(np.max(np.abs(gram * math.exp(c) - np.eye(n_max + 1))))

