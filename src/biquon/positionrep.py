"""Symbolic realization of the shifted multiplication-operator example.

The deformed pair acts on real-line functions through multiplication by
complex exponentials and the imaginary translation f(x) -> f(x + i alpha).
On the analytic family

    f(x) = sum_j P_j(x) exp(-x^2/2 + w_j x),        P_j polynomial, w_j complex,

both ingredients act by exact parameter substitution, so states are stored
symbolically and inner products are closed-form Gaussian integrals.

Conventions: alpha = sqrt(-log(q)/2) so that q = exp(-2 alpha^2); the
similarity between the shifted family and the undeformed one is the
multiplication operator exp(gamma x).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import IO, Sequence

import numpy as np

from .qcore import BetaSequence

__all__ = [
    "PositionParams",
    "AnalyticState",
    "default_grid",
    "vacuum_phi",
    "vacuum_psi",
    "apply_a",
    "apply_b",
    "apply_a_dagger",
    "apply_b_dagger",
    "build_families",
    "phi_state",
    "psi_state",
    "CoefficientTable",
    "coefficient_recursion",
    "LatticeFamily",
    "lattice_families",
    "lattice_gram",
    "inner",
    "norm",
    "qmutation_grid_check",
    "ladder_check",
    "vacuum_check",
    "similarity_check",
    "l_value",
    "cancellation",
    "norm_sq_formula",
    "norm_formula_check",
    "family_norms",
    "theta_conjugacy_check",
    "gram_condition",
    "state_to_csv",
]

MERGE_TOL = 1e-9


@dataclass(frozen=True)
class PositionParams:
    """Deformation parameter q in (0, 1) and real shift gamma."""

    q: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q={self.q} outside (0, 1)")

    @property
    def alpha(self) -> float:
        return math.sqrt(-math.log(self.q) / 2.0)

    @property
    def sqrt_1mq(self) -> float:
        return math.sqrt(1.0 - self.q)


def _poly_shift(p: np.ndarray, c: complex) -> np.ndarray:
    """Coefficients of P(x + c) from those of P(x) (low to high order)."""
    n = len(p)
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        if p[k] == 0:
            continue
        binom = 1.0
        power = 1.0 + 0.0j
        for m in range(k, -1, -1):
            out[m] += p[k] * binom * power
            binom = binom * m / (k - m + 1)
            power *= c
    return out


class AnalyticState:
    """Finite sum of terms P(x) exp(-x^2/2 + w x)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[np.ndarray, complex]]):
        merged: list[tuple[np.ndarray, complex]] = []
        for poly, w in terms:
            poly = np.atleast_1d(np.asarray(poly, dtype=complex))
            for i, (p0, w0) in enumerate(merged):
                if abs(w - w0) < MERGE_TOL:
                    n = max(len(p0), len(poly))
                    acc = np.zeros(n, dtype=complex)
                    acc[:len(p0)] += p0
                    acc[:len(poly)] += poly
                    merged[i] = (acc, w0)
                    break
            else:
                merged.append((poly.copy(), complex(w)))
        self.terms = [(p, w) for p, w in merged if np.any(p != 0)]

    @classmethod
    def gaussian(cls, amplitude: complex, w: complex) -> "AnalyticState":
        return cls([(np.array([amplitude], dtype=complex), w)])

    def __add__(self, other: "AnalyticState") -> "AnalyticState":
        return AnalyticState(self.terms + other.terms)

    def __sub__(self, other: "AnalyticState") -> "AnalyticState":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "AnalyticState":
        return AnalyticState([(p * scalar, w) for p, w in self.terms])

    __rmul__ = __mul__

    def shift_exponent(self, c: complex) -> "AnalyticState":
        """Multiplication by exp(c x)."""
        return AnalyticState([(p, w + c) for p, w in self.terms])

    def translate(self, c: complex) -> "AnalyticState":
        """f(x) -> f(x + c): each term picks up exp(-c^2/2) exp(c w) and shifts w."""
        out = []
        for p, w in self.terms:
            scale = np.exp(-c * c / 2.0 + c * w)
            out.append((scale * _poly_shift(p, c), w - c))
        return AnalyticState(out)

    def sample(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = np.zeros(len(x), dtype=complex)
        env = -x * x / 2.0
        for p, w in self.terms:
            vals += np.polynomial.polynomial.polyval(x, p) * np.exp(env + w * x)
        return vals


def default_grid(gamma: float = 0.0, n: int = 4096) -> np.ndarray:
    """Sample points for pointwise comparisons and state export."""
    half = 12.0 + abs(gamma)
    return np.linspace(-half, half, n)


def _stacked(state: AnalyticState) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded coefficient rows (terms x degree) and exponents of a state."""
    width = max((len(p) for p, _ in state.terms), default=1)
    coeffs = np.zeros((len(state.terms), width), dtype=complex)
    for row, (p, _) in zip(coeffs, state.terms):
        row[:len(p)] = p
    return coeffs, np.array([w for _, w in state.terms], dtype=complex)


def _gaussian_kernel(w: np.ndarray, v: np.ndarray, shift: float = 0.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """s = conj(w_i) + v_l and exp(s^2/4 - shift) for every exponent pair.

    sqrt(pi) exp(s^2/4) = <exp(-x^2/2 + w_i x), exp(-x^2/2 + v_l x)>; the
    shift lets a caller factor out a common exp(shift) that would overflow.
    """
    s = np.add.outer(np.conj(w), v)
    return s, np.exp(s * s / 4.0 - shift)


def inner(f: AnalyticState, g: AnalyticState, shift: float = 0.0) -> complex:
    """exp(-shift) <f, g> in closed form (conjugate-linear in the first slot).

    Terms P exp(-x^2/2 + w x) and Q exp(-x^2/2 + v x) pair to
    sqrt(pi) exp(s^2/4) sum_{i,l} conj(p_i) q_l m_{i+l}(s/2) with
    s = conj(w) + v, where m_j(mu) = E[(mu + Y)^j] for Y ~ N(0, 1/2):
    m_0 = 1, m_1 = mu, m_j = mu m_{j-1} + (j-1)/2 m_{j-2}.  All term pairs
    are evaluated at once.  Roundoff is relative to the term magnitudes,
    so terms with distinct but nearly equal w that nearly cancel lose
    relative accuracy; terms with w within MERGE_TOL are merged first.
    """
    p, w = _stacked(f)
    c, v = _stacked(g)
    s, kernel = _gaussian_kernel(w, v, shift)
    mu = s / 2.0
    moments = [np.ones_like(mu), mu]
    for j in range(2, p.shape[1] + c.shape[1] - 1):
        moments.append(mu * moments[-1] + (j - 1) / 2.0 * moments[-2])
    m = np.array(moments)[np.add.outer(np.arange(p.shape[1]),
                                       np.arange(c.shape[1]))]
    poly = np.einsum("ai,bl,ilab->ab", p.conj(), c, m)
    return complex(math.sqrt(math.pi) * np.sum(kernel * poly))


def norm(f: AnalyticState) -> float:
    """||f||, with exp(c), c = max (Re w)^2 >= Re(s^2/4), taken out of
    <f, f>: ||f|| stays finite and resolved where ||f||^2 would overflow,
    as it does for the position families when |gamma| nears GAMMA_MAX."""
    c = max((w.real ** 2 for _, w in f.terms), default=0.0)
    return math.sqrt(abs(inner(f, f, c))) * math.exp(c / 2.0)


# the benchmark tracer (bench/spans.py) times the norm layer under this name
grid_norm = norm


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def vacuum_phi(params: PositionParams) -> AnalyticState:
    """Normalized vacuum annihilated by the lowering operator a."""
    w = params.gamma + 1.5j * params.alpha
    return AnalyticState.gaussian(math.pi ** -0.25, w)


def vacuum_psi(params: PositionParams) -> AnalyticState:
    """Vacuum of b^dag; the gamma -> -gamma mirror of the a vacuum."""
    w = -params.gamma + 1.5j * params.alpha
    return AnalyticState.gaussian(math.pi ** -0.25, w)


def _lowering(params: PositionParams, state: AnalyticState,
              gamma_sign: float) -> AnalyticState:
    """Exact action of a (gamma_sign=+1) or b^dag (gamma_sign=-1)."""
    al = params.alpha
    out: list[tuple[np.ndarray, complex]] = []
    pref = 1.0 / (-1j * params.sqrt_1mq)
    for p, w in state.terms:
        scale = np.exp(1.5 * al * al + 1j * al * (w - gamma_sign * params.gamma))
        out.append((pref * p, w - 2j * al))
        out.append((-pref * scale * _poly_shift(p, 1j * al), w - 2j * al))
    return AnalyticState(out)


def _raising(params: PositionParams, state: AnalyticState,
             gamma_sign: float) -> AnalyticState:
    """Exact action of b (gamma_sign=+1) or a^dag (gamma_sign=-1)."""
    al = params.alpha
    out: list[tuple[np.ndarray, complex]] = []
    pref = 1.0 / (1j * params.sqrt_1mq)
    for p, w in state.terms:
        scale = np.exp(0.5 * al * al + 1j * al * (w - gamma_sign * params.gamma))
        out.append((pref * p, w + 2j * al))
        out.append((-pref * scale * _poly_shift(p, 1j * al), w))
    return AnalyticState(out)


def apply_a(params: PositionParams, state: AnalyticState) -> AnalyticState:
    return _lowering(params, state, +1.0)


def apply_b_dagger(params: PositionParams, state: AnalyticState) -> AnalyticState:
    return _lowering(params, state, -1.0)


def apply_b(params: PositionParams, state: AnalyticState) -> AnalyticState:
    return _raising(params, state, +1.0)


def apply_a_dagger(params: PositionParams, state: AnalyticState) -> AnalyticState:
    return _raising(params, state, -1.0)


def build_families(params: PositionParams, n_max: int
                   ) -> tuple[list[AnalyticState], list[AnalyticState]]:
    """phi_n = b^n phi_0 / beta_{n-1}! and psi_n = (a^dag)^n psi_0 / beta_{n-1}!."""
    bs = BetaSequence(params.q, n_max + 1)
    phis = [vacuum_phi(params)]
    psis = [vacuum_psi(params)]
    for n in range(n_max):
        phis.append(apply_b(params, phis[-1]) * (1.0 / bs.beta(n)))
        psis.append(apply_a_dagger(params, psis[-1]) * (1.0 / bs.beta(n)))
    return phis, psis


# ---------------------------------------------------------------------------
# oscillatory-factor coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientTable:
    """Rows c^(n) of the oscillatory factor sum_k c_k^(n) exp(2 i alpha k x)."""

    q: float
    rows: list = field(repr=False)

    def row(self, n: int) -> np.ndarray:
        return self.rows[n]

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1


def coefficient_recursion(params: PositionParams, n_max: int) -> CoefficientTable:
    """Coefficient rows from the raising operator acting on the factor.

    One application of b maps the factor coefficients by
    c_k^(n+1) = c_{k-1}^(n) - exp(-alpha^2) q^k c_k^(n); this is the exact
    symbolic action on exp(2 i alpha k x) terms, and it does not involve
    gamma, which is why the same table serves both families.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    damp = math.exp(-params.alpha ** 2)
    rows = [np.array([1.0 + 0.0j])]
    for n in range(n_max):
        c = rows[-1]
        nxt = np.zeros(n + 2, dtype=complex)
        nxt[1:] += c
        nxt[:n + 1] -= damp * (params.q ** np.arange(n + 1)) * c
        rows.append(nxt)
    return CoefficientTable(params.q, rows)


@dataclass(frozen=True)
class LatticeFamily:
    """States f_n = sum_k coeffs[n, k] exp(-x^2/2 + (w0 + step k) x).

    phi_n and psi_n share one lower-triangular coefficient matrix over the
    Gaussian lattice w0 + 2 i alpha k; only w0 = +-gamma + 1.5 i alpha differs.
    """

    coeffs: np.ndarray = field(repr=False)
    w0: complex
    step: complex

    @property
    def exponents(self) -> np.ndarray:
        return self.w0 + self.step * np.arange(self.coeffs.shape[1])

    def state(self, n: int) -> AnalyticState:
        return AnalyticState([(np.array([c]), w) for c, w in
                              zip(self.coeffs[n, :n + 1], self.exponents)])


def lattice_families(params: PositionParams, n_max: int,
                     table: CoefficientTable | None = None
                     ) -> tuple[LatticeFamily, LatticeFamily]:
    """phi_0..phi_n_max and psi_0..psi_n_max as rows P[n, k] = pref_n c_k^(n),
    pref_n = pi^{-1/4} (-i/sqrt(1-q))^n / beta_{n-1}!."""
    if table is None or table.n_max < n_max:
        table = coefficient_recursion(params, n_max)
    bs = BetaSequence(params.q, n_max + 1)
    coeffs = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max + 1):
        pref = math.pi ** -0.25 / bs.factorial(n - 1) * (-1j / params.sqrt_1mq) ** n
        coeffs[n, :n + 1] = pref * table.row(n)
    al = params.alpha
    return (LatticeFamily(coeffs, params.gamma + 1.5j * al, 2j * al),
            LatticeFamily(coeffs, -params.gamma + 1.5j * al, 2j * al))


def lattice_gram(f: LatticeFamily, g: LatticeFamily) -> tuple[np.ndarray, float]:
    """(G, c) with <f_n, g_m> = exp(c) G[n, m], G = P^H K Q^T.

    K_kl = sqrt(pi) exp(s^2/4 - c) over the lattice exponents, and
    c = Re(s)^2/4 = (Re w0_f + Re w0_g)^2/4 bounds Re(s^2/4), so K stays
    finite where <f_n, g_m> itself would overflow.
    """
    shift = (f.w0.real + g.w0.real) ** 2 / 4.0
    kernel = math.sqrt(math.pi) * _gaussian_kernel(f.exponents, g.exponents, shift)[1]
    return f.coeffs.conj() @ kernel @ g.coeffs.T, shift


def _scaled_norms_sq(fam: LatticeFamily) -> tuple[np.ndarray, float]:
    """(N, c) with ||f_n||^2 = exp(c) N[n]: the diagonal of the lattice Gram."""
    gram, shift = lattice_gram(fam, fam)
    return np.abs(np.diagonal(gram)), shift


def phi_state(params: PositionParams, n: int,
              table: CoefficientTable | None = None) -> AnalyticState:
    """phi_n assembled from its coefficient row (closed-form route)."""
    return lattice_families(params, n, table)[0].state(n)


def psi_state(params: PositionParams, n: int,
              table: CoefficientTable | None = None) -> AnalyticState:
    return lattice_families(params, n, table)[1].state(n)


# ---------------------------------------------------------------------------
# identity and formula checks
# ---------------------------------------------------------------------------

def qmutation_grid_check(params: PositionParams,
                         states: Sequence[AnalyticState]) -> float:
    """max ||(a b - q b a) f - f|| / ||f|| over the test states."""
    worst = 0.0
    for f in states:
        ab = apply_a(params, apply_b(params, f))
        ba = apply_b(params, apply_a(params, f))
        worst = np.maximum(worst, norm(ab - params.q * ba - f) / norm(f))
    return float(worst)


def ladder_check(params: PositionParams, n_max: int) -> dict:
    """Residuals of the four ladder relations for n <= n_max, each relative
    to the norm of the state the operator acts on."""
    bs = BetaSequence(params.q, n_max + 2)
    phis, psis = build_families(params, n_max + 1)
    resid = np.zeros((4, n_max + 1))
    zero = AnalyticState([])
    for n in range(n_max + 1):
        below_phi = phis[n - 1] if n >= 1 else zero
        below_psi = psis[n - 1] if n >= 1 else zero
        resid[:, n] = [
            norm(apply_b(params, phis[n]) - bs.beta(n) * phis[n + 1]),
            norm(apply_a(params, phis[n]) - bs.beta(n - 1) * below_phi),
            norm(apply_a_dagger(params, psis[n]) - bs.beta(n) * psis[n + 1]),
            norm(apply_b_dagger(params, psis[n]) - bs.beta(n - 1) * below_psi),
        ]
        resid[:, n] /= np.repeat([norm(phis[n]), norm(psis[n])], 2)
    worst = np.max(resid, axis=1)
    report = dict(zip(("raise_phi", "lower_phi", "raise_psi", "lower_psi"),
                      map(float, worst)))
    report["n_max"] = n_max
    report["max_residual"] = float(np.max(worst))
    return report


def vacuum_check(params: PositionParams) -> dict:
    """Annihilation residuals of the vacua and their mutual pairing."""
    phi0, psi0 = vacuum_phi(params), vacuum_psi(params)
    return {
        "a_phi0": norm(apply_a(params, phi0)),
        "bdag_psi0": norm(apply_b_dagger(params, psi0)),
        "pairing": inner(phi0, psi0),
    }


def _horner(row: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k row[k] z^k at every point of z."""
    out = np.full(len(z), row[-1], dtype=complex)
    for c in row[-2::-1]:
        out *= z
        out += c
    return out


def similarity_check(params: PositionParams, n_max: int) -> dict:
    """Pointwise check of the multiplication-similarity structure.

    phi_n with shift gamma must equal exp(gamma x) times the unshifted
    phi_n, psi_n must equal exp(-gamma x) times it (compared on the
    sample points of :func:`default_grid`), and the two families must be
    biorthogonal.  Every family member is its lattice base Gaussian
    exp(-x^2/2 + w0 x) times a polynomial in exp(2 i alpha x), which Horner's
    rule evaluates row by row, so no (n_max + 1) x grid array is held.  Both
    sides of the pointwise comparison are scaled by exp(-gamma^2/2), the size
    of ||phi_n||, which is folded into the exponent exp(+-gamma x - gamma^2/2):
    exp(gamma x) alone overflows on the grid as |gamma| nears GAMMA_MAX.
    """
    x = default_grid(params.gamma)
    phi, psi = lattice_families(params, n_max)
    g2 = params.gamma ** 2 / 2.0
    scale = math.exp(-g2)
    ref = AnalyticState.gaussian(1.0, 1.5j * params.alpha).sample(x)
    # scaled shifted base minus the scaled similarity image of the unshifted one
    base_dev = [
        scale * AnalyticState.gaussian(1.0, fam.w0).sample(x)
        - np.exp(sign * params.gamma * x - g2) * ref
        for fam, sign in ((phi, 1.0), (psi, -1.0))
    ]
    z = np.exp(phi.step * x)
    dev = np.zeros(2)
    for n in range(n_max + 1):
        poly = _horner(phi.coeffs[n, :n + 1], z)
        dev = np.maximum(dev, [np.max(np.abs(poly * d)) for d in base_dev])
    gram = lattice_gram(phi, psi)[0]       # the phi/psi shift is 0
    gram_dev = np.max(np.abs(gram - np.eye(n_max + 1)))
    return {"similarity_phi": float(dev[0]), "similarity_psi": float(dev[1]),
            "biorthogonality": float(gram_dev), "n_max": n_max}


def _l_terms(params: PositionParams, n: int, bs: BetaSequence
             ) -> tuple[np.ndarray, np.ndarray]:
    """u_k = (-1)^k exp(-alpha^2 k) / ([k]! [n-k]!) and the Hermitian
    Toeplitz T_kl = exp(-alpha^2 (k-l)^2 - 2 i alpha gamma (k-l)), k, l <= n;
    bs must reach index n - 1."""
    al = params.alpha
    k = np.arange(n + 1)
    facts = np.array([bs.factorial_sq(j - 1) for j in k])     # [k]!
    u = (-1.0) ** k * np.exp(-al * al * k) / (facts * facts[::-1])
    d = np.subtract.outer(k, k)
    return u, np.exp(-al * al * d * d - 2j * al * params.gamma * d)


def l_value(params: PositionParams, n: int,
            bs: BetaSequence | None = None) -> complex:
    """Double sum entering the closed norm formula; real and <= (n+1)^2.

    L_n = u^T T u (see :func:`_l_terms`); bs, if given, must reach n - 1.
    """
    u, toeplitz = _l_terms(params, n, bs or BetaSequence(params.q, n))
    return complex(u @ toeplitz @ u)


def cancellation(params: PositionParams, n_max: int) -> float:
    """max over n <= n_max of |u|^T |T| |u| / |L_n|.

    The factor by which the alternating terms of L_n amplify rounding; the
    lattice coefficients of phi_n cancel by the same factor in ||phi_n||^2,
    so float evaluation cannot resolve either below eps times it.  It is
    infinite where L_n rounds to 0.
    """
    bs = BetaSequence(params.q, n_max)
    worst = 1.0
    for n in range(n_max + 1):
        u, toeplitz = _l_terms(params, n, bs)
        den = abs(u @ toeplitz @ u)
        num = float(np.abs(u) @ np.abs(toeplitz) @ np.abs(u))
        worst = np.maximum(worst, num / den if den > 0.0 else math.inf)
    return float(worst)


def _scaled_formula(params: PositionParams, n: int, lv: float,
                    bs: BetaSequence) -> float:
    """The closed form ||phi_n||^2 without its factor exp(gamma^2)."""
    return bs.factorial_sq(n - 1) * (1.0 - params.q) ** (-n) * lv


def norm_sq_formula(params: PositionParams, n: int) -> float:
    """Closed form ||phi_n||^2 = [n]! e^{gamma^2} (1-q)^{-n} L_n."""
    bs = BetaSequence(params.q, n)
    return _scaled_formula(params, n, l_value(params, n, bs).real, bs) \
        * math.exp(params.gamma ** 2)


def norm_formula_check(params: PositionParams, n_max: int) -> dict:
    """Exact norms against the closed formula, plus its side claims.

    The norms are the diagonals of the lattice Grams; norms and formula are
    compared without their common factor exp(gamma^2), which overflows
    first.  The rows report the unscaled values.
    """
    phi, psi = lattice_families(params, n_max)
    nphi, shift = _scaled_norms_sq(phi)
    npsi = _scaled_norms_sq(psi)[0]
    bs = BetaSequence(params.q, n_max)
    lvs = np.array([l_value(params, n, bs) for n in range(n_max + 1)])
    formula = np.array([_scaled_formula(params, n, lv.real, bs)
                        for n, lv in enumerate(lvs)])
    rel = np.abs(nphi - formula) / np.abs(formula)
    symm = np.abs(np.sqrt(nphi) - np.sqrt(npsi)) / np.sqrt(nphi)
    l_imag = np.abs(lvs.imag) / np.abs(lvs)
    n = np.arange(n_max + 1)
    factor = math.exp(shift)
    rows = [{"n": int(i), "norm_sq": float(a) * factor, "formula": float(b) * factor,
             "rel_err": float(r), "L": float(lv.real)}
            for i, a, b, r, lv in zip(n, nphi, formula, rel, lvs)]
    return {"rows": rows, "max_rel_err": float(np.max(rel)),
            "norm_symmetry": float(np.max(symm)),
            "L_imag_rel": float(np.max(l_imag)),
            "L_bound_ok": bool(np.all(lvs.real <= (n + 1) ** 2 + 1e-12))}


def family_norms(params: PositionParams, n_max: int) -> np.ndarray:
    """Exact ||phi_n|| for n = 0..n_max (input to the radius machinery)."""
    norms_sq, shift = _scaled_norms_sq(lattice_families(params, n_max)[0])
    return np.sqrt(norms_sq) * math.exp(shift / 2.0)


def theta_conjugacy_check(params: PositionParams,
                          states: Sequence[AnalyticState]) -> float:
    """Residual ||a f - Theta^{-1} b^dag Theta f|| / ||f||, Theta = exp(-2 gamma x).

    Checked only on analytic states, on which the unbounded multiplication
    operators act by shifting exponents.
    """
    worst = 0.0
    for f in states:
        lhs = apply_a(params, f)
        rhs = apply_b_dagger(params, f.shift_exponent(-2.0 * params.gamma)) \
            .shift_exponent(2.0 * params.gamma)
        worst = np.maximum(worst, norm(lhs - rhs) / norm(f))
    return float(worst)


def gram_condition(params: PositionParams, n_max: int) -> float:
    """Condition number of the phi-family Gram matrix (basis-quality evidence)."""
    phi = lattice_families(params, n_max)[0]
    return float(np.linalg.cond(lattice_gram(phi, phi)[0]))


def state_to_csv(state: AnalyticState, x: np.ndarray, stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["x", "re", "im"])
    for xi, v in zip(x, state.sample(x)):
        writer.writerow([f"{xi:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])
