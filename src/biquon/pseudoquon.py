"""Deformed ladder pairs from a similarity operator.

Given an invertible S, the pair a = S c S^{-1}, b = S c^dag S^{-1} satisfies
the same q-mutation identity as (c, c^dag) but with b != a^dag whenever
S^dag S != 1.  The eigenvector families

    phi_n = S e_n,        psi_n = (S^dag)^{-1} e_n

are biorthogonal, and the metric operator Theta built from the psi series
maps one family onto the other.  On the truncation all of this is exact
linear algebra away from the edge rows touched by the deformation.

A compactly supported S is the identity plus a block on its support, so
S, S^{-dag}, the pair and Theta are all :class:`~biquon.fock.FockOperator`
values: a band plus a leading block.  Past the block S = 1, so a = c and
b = c^dag there and every residual column of the ladder, number-operator,
Gram and Theta checks from support extent + HEAD on is exactly 0.  Each
check therefore reads the leading ``cols`` columns of products of the
dense W x W windows a family builds once, with W = support extent + HEAD
+ REACH (or K if that is smaller): REACH more rows than the longest
product, b a S, moves those columns down the ladder.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fock import FockOperator, identity_plus, make_quon_c
from .qcore import validate_q_algebraic

__all__ = [
    "Deformation",
    "worked_deformation",
    "BiorthogonalFamily",
    "Window",
    "make_pair",
    "build_family",
    "gram_deviation",
    "check_ladder",
    "number_eigencheck",
    "build_theta",
    "closed_form_theta",
    "check_theta_conjugate",
    "family_to_json",
]

PAIR_CONSTRAINT_TOL = 1e-14
INVERSE_TOL = 1e-12
EPS = np.finfo(float).eps
# Residual columns from support extent + HEAD on are exactly 0, and the
# longest product a check forms, b a S, moves them REACH rows down.
HEAD = 3
REACH = 3


@dataclass(frozen=True)
class Deformation:
    """S = 1 + alpha P_{u,v} with P_{u,v} f = <u, f> v, and S^{-1} =
    1 + beta P_{u,v}; the empty value ``Deformation()`` is S = 1.

    u, v are given as compactly supported coefficient vectors (trailing
    zeros implied), whose longer length is the support extent.  Every part
    must be finite, alpha + beta + alpha*beta = 0, and on a nonempty support
    <u, v> = 1, so that P_{u,v} is idempotent; the blocks of S and S^{-1}
    must invert each other to INVERSE_TOL, at a size whose rounding stays
    below it.
    """

    u: np.ndarray = field(default=(), repr=False)
    v: np.ndarray = field(default=(), repr=False)
    alpha_def: complex = 0j
    beta_def: complex = 0j

    def __post_init__(self):
        for name in ("u", "v"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=complex))
        a, b = complex(self.alpha_def), complex(self.beta_def)
        object.__setattr__(self, "alpha_def", a)
        object.__setattr__(self, "beta_def", b)
        # NaN passes no tolerance test, so it is refused by name; a value
        # that overflows below is inf or NaN and fails its test
        if not (cmath.isfinite(a) and cmath.isfinite(b)
                and np.isfinite(self.u).all() and np.isfinite(self.v).all()):
            raise ValueError("deformation parameters alpha_def, beta_def, u, v "
                             "must be finite")
        n = min(len(self.u), len(self.v))
        with np.errstate(over="ignore", invalid="ignore"):
            constraint = np.abs(a + b + a * b)
            pairing = np.vdot(self.u[:n], self.v[:n])
            s_block, inv_block = self.blocks()
            resid = np.max(np.abs(s_block + inv_block + s_block @ inv_block), initial=0.0)
            # the product rounds by up to eps ||B_S|| ||B_inv||, which must
            # sit below the tolerance too, or huge blocks that happen to
            # cancel exactly would pass
            rounding = EPS * np.linalg.norm(s_block) * np.linalg.norm(inv_block)
        if not constraint <= PAIR_CONSTRAINT_TOL:
            raise ValueError(f"deformation parameters violate alpha+beta+alpha*beta=0 "
                             f"(got {a + b + a * b})")
        if self.support_extent and not abs(pairing - 1.0) <= PAIR_CONSTRAINT_TOL:
            raise ValueError(f"<u, v> = {pairing} differs from 1")
        if not (resid <= INVERSE_TOL and rounding <= INVERSE_TOL):
            raise ValueError(f"similarity operator not invertible on truncation "
                             f"(S S^-1 deviates from 1 by {resid:.2e}, its rounding "
                             f"by up to {rounding:.2e})")

    @classmethod
    def from_alpha(cls, u, v, alpha_def: complex) -> "Deformation":
        """Solve beta from alpha via beta = -alpha / (1 + alpha)."""
        a = complex(alpha_def)
        if a == -1:
            raise ValueError("alpha_def = -1 leaves no admissible beta_def")
        return cls(u, v, a, -a / (1.0 + a))

    @property
    def support_extent(self) -> int:
        return max(len(self.u), len(self.v))

    @property
    def kind(self) -> str:
        return "rank_one" if self.support_extent else "identity"

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks B_S and B_inv of S = 1 + B_S and S^{-1} = 1 + B_inv on
        the leading support_extent indices."""
        u = np.zeros(self.support_extent, dtype=complex)
        v = np.zeros(self.support_extent, dtype=complex)
        u[:len(self.u)] = self.u
        v[:len(self.v)] = self.v
        rank_one = np.outer(v, u.conj())
        # array times scalar: the operand order the dense K x K construction
        # took, so a, b and the residuals a run reports keep their last bits
        return rank_one * self.alpha_def, rank_one * self.beta_def

    def safe_dim(self, dim: int) -> int:
        """Leading block on which truncated products reproduce the exact
        algebra: the deformation couples rows up to one ladder step past
        the supports, and the truncation edge the last two."""
        return dim - 2 - self.support_extent

    def describe(self) -> dict:
        if not self.support_extent:
            return {"kind": self.kind}
        return {
            "kind": self.kind,
            "alpha_def": [self.alpha_def.real, self.alpha_def.imag],
            "beta_def": [self.beta_def.real, self.beta_def.imag],
            "u": [[z.real, z.imag] for z in self.u],
            "v": [[z.real, z.imag] for z in self.v],
        }


def worked_deformation(alpha_def: complex) -> Deformation:
    """Canonical test configuration: u = c0 + c1, v = c0 + c2.

    The blocks c0 (indices 0, 1, unit norm), c1 (indices 2, 3) and c2
    (indices 4, 5) are disjoint, so <u, v> = ||c0||^2 = 1 automatically.
    """
    h = 1 / np.sqrt(2)
    u = np.array([h, h, 0.4, -0.3 + 0.2j, 0.0, 0.0])
    v = np.array([h, h, 0.0, 0.0, 0.5j, -0.2])
    return Deformation.from_alpha(u, v, alpha_def)


class Window(NamedTuple):
    """The leading W x W windows of S, S^{-1}, c, a and b, and the number
    of leading columns in which a residual of their products can differ
    from 0."""

    s: np.ndarray
    s_inv: np.ndarray
    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    cols: int


@dataclass(frozen=True)
class BiorthogonalFamily:
    """phi_n = phi e_n and psi_n = psi e_n with phi = S and psi = S^{-dag},
    the plain lowering operator c (its band is the family's beta array),
    the pair (a, b) built from S and c, and their leading windows, built on
    their first read."""

    K: int
    q: float
    phi: FockOperator = field(repr=False)
    psi: FockOperator = field(repr=False)
    source: Deformation = field(repr=False)
    c: FockOperator = field(repr=False)
    a: FockOperator = field(repr=False)
    b: FockOperator = field(repr=False)

    @property
    def safe_dim(self) -> int:
        return self.source.safe_dim(self.K)

    @functools.cached_property
    def window(self) -> Window:
        """The dense W x W windows the Fock checks read; S^{-1} is psi^dag,
        which the adjoint gives back bit for bit."""
        w = min(self.K, self.source.support_extent + HEAD + REACH)
        return Window(*(x.dense(w) for x in (self.phi, self.psi.adjoint(), self.c,
                                             self.a, self.b)),
                      cols=min(self.safe_dim, self.source.support_extent + HEAD))


def _pad(block: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=block.dtype)
    out[:len(block), :len(block)] = block
    return out


def make_pair(source: Deformation, q: float, dim: int) -> tuple:
    """Build a = S c S^{-1} and b = S c^dag S^{-1} on the truncation, and
    return (a, b, S, S^{-1}, c).

    a is c's band plus the block B_S c + c B_inv + B_S c B_inv, and b the
    same with c^dag, on the leading support extent + 1 indices, the ones
    the ladder step moves the blocks of S and S^{-1} onto.
    """
    validate_q_algebraic(q)
    s_block, inv_block = source.blocks()
    s, s_inv = identity_plus(dim, s_block), identity_plus(dim, inv_block)
    c = make_quon_c(q, dim)
    w = min(dim, len(s_block) + 1)
    b_s, b_inv, cw = _pad(s_block, w), _pad(inv_block, w), c.dense(w)

    def deformed(x: FockOperator, xw: np.ndarray) -> FockOperator:
        return FockOperator(x.shift, x.diag, b_s @ xw + xw @ b_inv + b_s @ xw @ b_inv)
    return deformed(c, cw), deformed(c.adjoint(), cw.T), s, s_inv, c


def build_family(source: Deformation, q: float, dim: int) -> BiorthogonalFamily:
    """The families phi_n = S e_n and psi_n = S^{-dag} e_n with the plain c
    and the pair (a, b); check_ladder verifies that b raises and a lowers
    them."""
    a, b, s, s_inv, c = make_pair(source, q, dim)
    return BiorthogonalFamily(dim, q, s, s_inv.adjoint(), source, c, a, b)


def _worst_columns(residual: np.ndarray, n: int) -> float:
    """Largest norm among the leading n columns."""
    return float(np.max(np.linalg.norm(residual[:, :n], axis=0), initial=0.0))


def gram_deviation(family: BiorthogonalFamily) -> float:
    """Max-entry deviation of the Gram matrix G[n, m] = <phi_n, psi_m>,
    that is of S^dag S^{-dag}, from the identity."""
    w = family.window
    gram = w.s.conj().T @ w.s_inv.conj().T
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def check_ladder(family: BiorthogonalFamily) -> dict:
    """Residual maxima of the four ladder relations of the family's pair over
    the safe block.

    b phi_n = beta_n phi_{n+1};  a phi_n = beta_{n-1} phi_{n-1};
    a^dag psi_n = beta_n psi_{n+1};  b^dag psi_n = beta_{n-1} psi_{n-1};
    with phi_{-1} = psi_{-1} = 0.  In operator form the residual of
    b phi_n = beta_n phi_{n+1} is column n of b S - S c^dag, and so on.
    """
    w = family.window
    phi, psi, c, cdag = w.s, w.s_inv.conj().T, w.c, w.c.conj().T
    residuals = {
        "raise_phi": w.b @ phi - phi @ cdag,
        "lower_phi": w.a @ phi - phi @ c,
        "raise_psi": w.a.conj().T @ psi - psi @ cdag,
        "lower_psi": w.b.conj().T @ psi - psi @ c,
    }
    return {key: _worst_columns(r, w.cols) for key, r in residuals.items()}


def number_eigencheck(family: BiorthogonalFamily) -> dict:
    """Eigenvalue residuals of N = ba on phi_n and of N^dag on psi_n, with
    (a, b) the family's pair.

    The eigenvalue is beta_{n-1}^2 (squared), the value the ladder
    relations force, here the diagonal c^dag c.
    """
    w = family.window
    phi, psi = w.s, w.s_inv.conj().T
    n_op = w.b @ w.a
    eigen = w.c.conj().T @ w.c
    return {
        "number_residual_phi": _worst_columns(n_op @ phi - phi @ eigen, w.cols),
        "number_residual_psi": _worst_columns(n_op.conj().T @ psi - psi @ eigen, w.cols),
    }


def build_theta(family: BiorthogonalFamily) -> FockOperator:
    """Metric operator from the series Theta = sum_n |psi_n><psi_n|, that
    is psi psi^dag = 1 + B + B^dag + B B^dag with B the block of psi."""
    b = family.psi.block
    return identity_plus(family.K, b + b.conj().T + b @ b.conj().T)


def closed_form_theta(source: Deformation, dim: int) -> FockOperator:
    """(S S^dag)^{-1}, the closed form the series must reproduce: with
    S S^dag = 1 + M on the block, its inverse is 1 - (1 + M)^{-1} M."""
    b, _ = source.blocks()
    m = b + b.conj().T + b @ b.conj().T
    return identity_plus(dim, np.linalg.solve(np.eye(len(m)) + m, -m))


def check_theta_conjugate(family: BiorthogonalFamily, theta: FockOperator) -> dict:
    """Residuals of a = Theta^{-1} b^dag Theta over the safe block, of the
    equivalent psi_n = Theta phi_n, and of Theta^{-1} = sum_n |phi_n><phi_n|
    = S S^dag, for Theta the identity plus a block inside the family's
    window."""
    w = family.window
    if theta.shift != 0 or len(theta.block) > len(w.s):
        raise ValueError("Theta is not the identity plus a block inside the window")
    th = theta.dense(len(w.s))
    return {
        "conjugation_residual": _worst_columns(
            w.a - np.linalg.solve(th, w.b.conj().T @ th), w.cols),
        "mapping_residual": _worst_columns(th @ w.s - w.s_inv.conj().T, w.cols),
        "inverse_residual": float(np.max(np.abs(th @ (w.s @ w.s.conj().T) - np.eye(len(th))))),
    }


def family_to_json(family: BiorthogonalFamily) -> dict:
    """The source record the family task reports: ``Deformation.describe()``,
    which fixes phi_n = e_n + alpha conj(u_n) v and psi_n = e_n + conj(beta)
    conj(v_n) u bit for bit, whatever K.  The name stays while the
    benchmark's span ``pseudoquon.family_to_json`` times it."""
    return family.source.describe()
