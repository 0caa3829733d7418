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

from .qcore import BetaSequence, q_number_factorial

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
    "inner",
    "norm",
    "qmutation_grid_check",
    "ladder_check",
    "vacuum_check",
    "similarity_check",
    "l_value",
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


def inner(f: AnalyticState, g: AnalyticState) -> complex:
    """<f, g> in closed form (conjugate-linear in the first slot).

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
    s = np.add.outer(w.conj(), v)
    mu = s / 2.0
    moments = [np.ones_like(mu), mu]
    for j in range(2, p.shape[1] + c.shape[1] - 1):
        moments.append(mu * moments[-1] + (j - 1) / 2.0 * moments[-2])
    m = np.array(moments)[np.add.outer(np.arange(p.shape[1]),
                                       np.arange(c.shape[1]))]
    poly = np.einsum("ai,bl,ilab->ab", p.conj(), c, m)
    return complex(math.sqrt(math.pi) * np.sum(np.exp(s * s / 4.0) * poly))


def norm(f: AnalyticState) -> float:
    return math.sqrt(abs(inner(f, f)))


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


def phi_state(params: PositionParams, n: int,
              table: CoefficientTable | None = None) -> AnalyticState:
    """phi_n assembled from its coefficient row (closed-form route)."""
    return _state_from_row(params, n, params.gamma, table)


def psi_state(params: PositionParams, n: int,
              table: CoefficientTable | None = None) -> AnalyticState:
    return _state_from_row(params, n, -params.gamma, table)


def _state_from_row(params: PositionParams, n: int, gamma: float,
                    table: CoefficientTable | None) -> AnalyticState:
    if table is None or table.n_max < n:
        table = coefficient_recursion(params, n)
    bs = BetaSequence(params.q, n + 1)
    pref = math.pi ** -0.25 / bs.factorial(n - 1) * (-1j / params.sqrt_1mq) ** n
    al = params.alpha
    w0 = gamma + 1.5j * al
    return AnalyticState([
        (np.array([pref * c]), w0 + 2j * al * k)
        for k, c in enumerate(table.row(n))
    ])


# ---------------------------------------------------------------------------
# identity and formula checks
# ---------------------------------------------------------------------------

def qmutation_grid_check(params: PositionParams,
                         states: Sequence[AnalyticState]) -> float:
    """max norm of the residual (a b - q b a) f - f over the test states."""
    worst = 0.0
    for f in states:
        ab = apply_a(params, apply_b(params, f))
        ba = apply_b(params, apply_a(params, f))
        worst = max(worst, norm(ab - params.q * ba - f))
    return worst


def ladder_check(params: PositionParams, n_max: int) -> dict:
    """Residual norms of the four ladder relations for n <= n_max."""
    bs = BetaSequence(params.q, n_max + 2)
    phis, psis = build_families(params, n_max + 1)
    raise_phi = lower_phi = raise_psi = lower_psi = 0.0
    zero = AnalyticState([])
    for n in range(n_max + 1):
        raise_phi = max(raise_phi, norm(
            apply_b(params, phis[n]) - bs.beta(n) * phis[n + 1]))
        raise_psi = max(raise_psi, norm(
            apply_a_dagger(params, psis[n]) - bs.beta(n) * psis[n + 1]))
        below_phi = phis[n - 1] if n >= 1 else zero
        below_psi = psis[n - 1] if n >= 1 else zero
        lower_phi = max(lower_phi, norm(
            apply_a(params, phis[n]) - bs.beta(n - 1) * below_phi))
        lower_psi = max(lower_psi, norm(
            apply_b_dagger(params, psis[n]) - bs.beta(n - 1) * below_psi))
    report = {"raise_phi": raise_phi, "lower_phi": lower_phi,
              "raise_psi": raise_psi, "lower_psi": lower_psi, "n_max": n_max}
    report["max_residual"] = max(raise_phi, lower_phi, raise_psi, lower_psi)
    return report


def vacuum_check(params: PositionParams) -> dict:
    """Annihilation residuals of the vacua and their mutual pairing."""
    phi0, psi0 = vacuum_phi(params), vacuum_psi(params)
    return {
        "a_phi0": norm(apply_a(params, phi0)),
        "bdag_psi0": norm(apply_b_dagger(params, psi0)),
        "pairing": inner(phi0, psi0),
    }


def similarity_check(params: PositionParams, n_max: int) -> dict:
    """Pointwise check of the multiplication-similarity structure.

    phi_n with shift gamma must equal exp(gamma x) times the unshifted
    phi_n, psi_n must equal exp(-gamma x) times it (compared on the
    sample points of :func:`default_grid`), and the two families must be
    biorthogonal.  Both sides of the pointwise comparison are scaled by
    exp(-gamma^2/2), the size of ||phi_n||, which is folded into the
    exponent exp(+-gamma x - gamma^2/2): exp(gamma x) alone overflows on
    the grid as |gamma| nears GAMMA_MAX.
    """
    x = default_grid(params.gamma)
    base = PositionParams(params.q, 0.0)
    table = coefficient_recursion(params, n_max)
    g2 = params.gamma ** 2 / 2.0
    scale = math.exp(-g2)
    up, down = np.exp(params.gamma * x - g2), np.exp(-params.gamma * x - g2)
    dev_phi = dev_psi = 0.0
    for n in range(n_max + 1):
        ref = phi_state(base, n, table).sample(x)
        dev_phi = max(dev_phi, float(np.max(np.abs(
            scale * phi_state(params, n, table).sample(x) - up * ref))))
        dev_psi = max(dev_psi, float(np.max(np.abs(
            scale * psi_state(params, n, table).sample(x) - down * ref))))
    gram_dev = 0.0
    phis = [phi_state(params, n, table) for n in range(n_max + 1)]
    psis = [psi_state(params, n, table) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for m in range(n_max + 1):
            val = inner(phis[n], psis[m])
            gram_dev = max(gram_dev, abs(val - (1.0 if n == m else 0.0)))
    return {"similarity_phi": dev_phi, "similarity_psi": dev_psi,
            "biorthogonality": gram_dev, "n_max": n_max}


def l_value(params: PositionParams, n: int) -> complex:
    """Double sum entering the closed norm formula; real and <= (n+1)^2."""
    q, al, gamma = params.q, params.alpha, params.gamma
    facts = [q_number_factorial(q, m) for m in range(n + 1)]
    total = 0.0 + 0.0j
    for k in range(n + 1):
        for l in range(n + 1):
            total += (-1) ** (k + l) \
                * math.exp(-al * al * (k + l + (l - k) ** 2)) \
                * np.exp(2j * al * gamma * (l - k)) \
                / (facts[k] * facts[l] * facts[n - k] * facts[n - l])
    return complex(total)


def norm_sq_formula(params: PositionParams, n: int) -> float:
    """Closed form ||phi_n||^2 = [n]! e^{gamma^2} (1-q)^{-n} L_n."""
    lv = l_value(params, n)
    return q_number_factorial(params.q, n) * math.exp(params.gamma ** 2) \
        * (1.0 - params.q) ** (-n) * lv.real


def norm_formula_check(params: PositionParams, n_max: int) -> dict:
    """Exact norms against the closed formula, plus its side claims."""
    table = coefficient_recursion(params, n_max)
    rows = []
    max_rel = symm_dev = l_imag = 0.0
    bound_ok = True
    for n in range(n_max + 1):
        nphi = norm(phi_state(params, n, table))
        npsi = norm(psi_state(params, n, table))
        lv = l_value(params, n)
        formula = norm_sq_formula(params, n)
        rel = abs(nphi ** 2 - formula) / abs(formula)
        max_rel = max(max_rel, rel)
        symm_dev = max(symm_dev, abs(nphi - npsi) / nphi)
        l_imag = max(l_imag, abs(lv.imag) / abs(lv))
        bound_ok = bound_ok and (lv.real <= (n + 1) ** 2 + 1e-12)
        rows.append({"n": n, "norm_sq": nphi ** 2, "formula": formula,
                     "rel_err": rel, "L": lv.real})
    return {"rows": rows, "max_rel_err": max_rel, "norm_symmetry": symm_dev,
            "L_imag_rel": l_imag, "L_bound_ok": bound_ok}


def family_norms(params: PositionParams, n_max: int) -> np.ndarray:
    """Exact ||phi_n|| for n = 0..n_max (input to the radius machinery)."""
    table = coefficient_recursion(params, n_max)
    return np.array([norm(phi_state(params, n, table))
                     for n in range(n_max + 1)])


def theta_conjugacy_check(params: PositionParams,
                          states: Sequence[AnalyticState]) -> float:
    """Residual of a f = Theta^{-1} b^dag Theta f with Theta = exp(-2 gamma x).

    Checked only on analytic states, on which the unbounded multiplication
    operators act by shifting exponents.
    """
    worst = 0.0
    for f in states:
        lhs = apply_a(params, f)
        rhs = apply_b_dagger(params, f.shift_exponent(-2.0 * params.gamma)) \
            .shift_exponent(2.0 * params.gamma)
        worst = max(worst, norm(lhs - rhs))
    return worst


def gram_condition(params: PositionParams, n_max: int) -> float:
    """Condition number of the phi-family Gram matrix (basis-quality evidence)."""
    table = coefficient_recursion(params, n_max)
    states = [phi_state(params, n, table) for n in range(n_max + 1)]
    g = np.array([[inner(fi, fj) for fj in states] for fi in states])
    return float(np.linalg.cond(g))


def state_to_csv(state: AnalyticState, x: np.ndarray, stream: IO[str]) -> None:
    writer = csv.writer(stream)
    writer.writerow(["x", "re", "im"])
    for xi, v in zip(x, state.sample(x)):
        writer.writerow([f"{xi:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"])
