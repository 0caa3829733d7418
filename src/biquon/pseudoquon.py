"""Deformed ladder pairs from a similarity operator.

Given an invertible S, the pair a = S c S^{-1}, b = S c^dag S^{-1} satisfies
the same q-mutation identity as (c, c^dag) but with b != a^dag whenever
S^dag S != 1.  The eigenvector families

    phi_n = S e_n,        psi_n = (S^dag)^{-1} e_n

are biorthogonal, and the metric operator Theta built from the psi series
maps one family onto the other.  On the truncation all of this is exact
linear algebra away from the edge rows touched by the deformation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .fock import TruncatedOperator, make_quon_c
from .qcore import BetaSequence, validate_q_algebraic

__all__ = [
    "SimilarityOperator",
    "IdentitySimilarity",
    "RankOneDeformation",
    "RankOneSimilarity",
    "worked_deformation",
    "BiorthogonalFamily",
    "make_pair",
    "expanded_pair",
    "build_family",
    "gram_matrix",
    "gram_deviation",
    "check_ladder",
    "number_eigencheck",
    "build_theta",
    "build_theta_inverse",
    "closed_form_theta",
    "check_theta_conjugate",
    "weak_resolution_check",
    "family_to_json",
]

PAIR_CONSTRAINT_TOL = 1e-14


class SimilarityOperator:
    """Factory for the four matrix realizations of S on a K-dim truncation."""

    kind = "abstract"

    def matrix(self, dim: int) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, dim: int) -> np.ndarray:
        raise NotImplementedError

    def adjoint(self, dim: int) -> np.ndarray:
        return self.matrix(dim).conj().T

    def adjoint_inverse(self, dim: int) -> np.ndarray:
        return self.inverse(dim).conj().T

    def safe_dim(self, dim: int) -> int:
        """Leading block on which truncated products reproduce the exact algebra."""
        return dim - 2

    def describe(self) -> dict:
        return {"kind": self.kind}


class IdentitySimilarity(SimilarityOperator):
    """S = 1; reproduces the undeformed pair (c, c^dag)."""

    kind = "identity"

    def matrix(self, dim: int) -> np.ndarray:
        return np.eye(dim, dtype=complex)

    inverse = matrix


@dataclass(frozen=True)
class RankOneDeformation:
    """Parameters of S = 1 + alpha P_{u,v} with P_{u,v} f = <u, f> v.

    u, v are given as compactly supported coefficient vectors (length =
    support extent, trailing zeros implied).  The pair (alpha_def, beta_def)
    must satisfy alpha + beta + alpha*beta = 0 so that
    S^{-1} = 1 + beta P_{u,v}, and <u, v> = 1 so that P_{u,v} is idempotent.
    """

    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    alpha_def: complex
    beta_def: complex

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        a, b = complex(self.alpha_def), complex(self.beta_def)
        if abs(a + b + a * b) > PAIR_CONSTRAINT_TOL:
            raise ValueError(
                f"deformation parameters violate alpha+beta+alpha*beta=0 "
                f"(got {a + b + a * b})")
        n = min(len(u), len(v))
        pairing = np.vdot(u[:n], v[:n])
        if abs(pairing - 1.0) > PAIR_CONSTRAINT_TOL:
            raise ValueError(f"<u, v> = {pairing} differs from 1")

    @classmethod
    def from_alpha(cls, u, v, alpha_def: complex) -> "RankOneDeformation":
        """Solve beta from alpha via beta = -alpha / (1 + alpha)."""
        a = complex(alpha_def)
        if a == -1:
            raise ValueError("alpha_def = -1 leaves no admissible beta_def")
        return cls(np.asarray(u), np.asarray(v), a, -a / (1.0 + a))

    @property
    def support_extent(self) -> int:
        return max(len(self.u), len(self.v))


class RankOneSimilarity(SimilarityOperator):
    kind = "rank_one"

    def __init__(self, deformation: RankOneDeformation):
        self.deformation = deformation

    def _embed(self, vec: np.ndarray, dim: int) -> np.ndarray:
        if len(vec) > dim:
            raise ValueError(f"support extent {len(vec)} exceeds dim={dim}")
        out = np.zeros(dim, dtype=complex)
        out[:len(vec)] = vec
        return out

    def _rank_one(self, coeff: complex, dim: int) -> np.ndarray:
        d = self.deformation
        u = self._embed(d.u, dim)
        v = self._embed(d.v, dim)
        return np.eye(dim, dtype=complex) + coeff * np.outer(v, u.conj())

    def matrix(self, dim: int) -> np.ndarray:
        return self._rank_one(self.deformation.alpha_def, dim)

    def inverse(self, dim: int) -> np.ndarray:
        return self._rank_one(self.deformation.beta_def, dim)

    def safe_dim(self, dim: int) -> int:
        # the deformation couples rows up to one ladder step past the supports
        return dim - 2 - self.deformation.support_extent

    def describe(self) -> dict:
        d = self.deformation
        return {
            "kind": self.kind,
            "alpha_def": [d.alpha_def.real, d.alpha_def.imag],
            "beta_def": [d.beta_def.real, d.beta_def.imag],
            "u": [[z.real, z.imag] for z in d.u],
            "v": [[z.real, z.imag] for z in d.v],
        }


def worked_deformation(alpha_def: complex = 1j) -> RankOneDeformation:
    """Canonical test configuration: u = c0 + c1, v = c0 + c2.

    The blocks c0 (indices 0, 1, unit norm), c1 (indices 2, 3) and c2
    (indices 4, 5) are disjoint, so <u, v> = ||c0||^2 = 1 automatically.
    """
    c0 = {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)}
    c1 = {2: 0.4, 3: -0.3 + 0.2j}
    c2 = {4: 0.5j, 5: -0.2}
    u = np.zeros(6, dtype=complex)
    v = np.zeros(6, dtype=complex)
    for k, g in c0.items():
        u[k] = g
        v[k] = g
    for k, g in c1.items():
        u[k] = g
    for k, g in c2.items():
        v[k] = g
    return RankOneDeformation.from_alpha(u, v, alpha_def)


@dataclass(frozen=True)
class BiorthogonalFamily:
    """Row-stacked families phi[n] = S e_n and psi[n] = (S^dag)^{-1} e_n,
    with the pair (a, b) they are built from."""

    K: int
    q: float
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    source: SimilarityOperator = field(repr=False)
    a: TruncatedOperator = field(repr=False)
    b: TruncatedOperator = field(repr=False)
    iteration_deviation: float = 0.0

    @property
    def safe_dim(self) -> int:
        return self.source.safe_dim(self.K)


def make_pair(source: SimilarityOperator, q: float, dim: int
              ) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Build a = S c S^{-1} and b = S c^dag S^{-1} on the truncation."""
    validate_q_algebraic(q)
    s = source.matrix(dim)
    s_inv = source.inverse(dim)
    resid = np.max(np.abs(s @ s_inv - np.eye(dim)))
    if resid > 1e-12:
        raise ValueError(f"similarity operator not invertible on truncation "
                         f"(S S^-1 deviates from 1 by {resid:.2e})")
    c = make_quon_c(q, dim).matrix
    a = TruncatedOperator(dim, s @ c @ s_inv, "a")
    b = TruncatedOperator(dim, s @ c.conj().T @ s_inv, "b")
    return a, b


def expanded_pair(source: RankOneSimilarity, q: float, dim: int
                  ) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Same pair assembled from the explicit projector expansion.

    a = c + alpha P_{c^dag u, v} + beta P_{u, c v} + alpha beta <u, c v> P_{u, v}
    and the mirrored expression for b.  Kept as an independent construction
    against which the similarity products are cross-checked.
    """
    d = source.deformation
    alpha, bet = d.alpha_def, d.beta_def
    u = source._embed(d.u, dim)
    v = source._embed(d.v, dim)
    c = make_quon_c(q, dim).matrix
    cdag = c.conj().T

    def proj(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # P_{left, right} f = <left, f> right
        return np.outer(right, left.conj())

    a = c + alpha * proj(cdag @ u, v) + bet * proj(u, c @ v) \
        + alpha * bet * np.vdot(u, c @ v) * proj(u, v)
    b = cdag + alpha * proj(c @ u, v) + bet * proj(u, cdag @ v) \
        + alpha * bet * np.vdot(u, cdag @ v) * proj(u, v)
    return (TruncatedOperator(dim, a, "a_expanded"),
            TruncatedOperator(dim, b, "b_expanded"))


def build_family(source: SimilarityOperator, q: float, dim: int) -> BiorthogonalFamily:
    """Construct (phi_n), (psi_n) and cross-check the ladder iteration.

    phi_n = S e_n is the direct route; phi_n = b phi_{n-1} / beta_{n-1}
    is the iterated route starting from the vacuum phi_0 (annihilated by a).
    The maximal deviation between the two over the safe block is recorded,
    and the family keeps the pair (a, b).
    """
    validate_q_algebraic(q)
    s = source.matrix(dim)
    phi = s.T.copy()                       # phi[n] = S e_n
    psi = source.adjoint_inverse(dim).T.copy()

    a, b = make_pair(source, q, dim)
    bs = BetaSequence(q, dim)
    safe = max(source.safe_dim(dim), 1)
    vac_resid = np.linalg.norm(a.matrix @ phi[0])
    dev = vac_resid
    cur = phi[0]
    for n in range(1, safe):
        cur = b.matrix @ cur / bs.beta(n - 1)
        dev = max(dev, float(np.linalg.norm(cur - phi[n])))
    return BiorthogonalFamily(dim, q, phi, psi, source, a, b,
                              iteration_deviation=float(dev))


def gram_matrix(family: BiorthogonalFamily) -> np.ndarray:
    """G[n, m] = <phi_n, psi_m>."""
    return family.phi.conj() @ family.psi.T


def gram_deviation(family: BiorthogonalFamily) -> float:
    """Max-entry deviation of the Gram matrix from the identity."""
    g = gram_matrix(family)
    return float(np.max(np.abs(g - np.eye(family.K))))


def check_ladder(family: BiorthogonalFamily) -> dict:
    """Residual maxima of the four ladder relations of the family's pair over
    the safe block.

    b phi_n = beta_n phi_{n+1};  a phi_n = beta_{n-1} phi_{n-1};
    a^dag psi_n = beta_n psi_{n+1};  b^dag psi_n = beta_{n-1} psi_{n-1};
    with phi_{-1} = psi_{-1} = 0.
    """
    K, safe = family.K, family.safe_dim
    bs = BetaSequence(family.q, K)
    phi, psi, a, b = family.phi, family.psi, family.a, family.b
    adag = a.matrix.conj().T
    bdag = b.matrix.conj().T

    raise_phi = lower_phi = raise_psi = lower_psi = 0.0
    for n in range(safe):
        if n + 1 < K:
            raise_phi = max(raise_phi, float(np.linalg.norm(
                b.matrix @ phi[n] - bs.beta(n) * phi[n + 1])))
            raise_psi = max(raise_psi, float(np.linalg.norm(
                adag @ psi[n] - bs.beta(n) * psi[n + 1])))
        below_phi = phi[n - 1] if n >= 1 else np.zeros(K)
        below_psi = psi[n - 1] if n >= 1 else np.zeros(K)
        lower_phi = max(lower_phi, float(np.linalg.norm(
            a.matrix @ phi[n] - bs.beta(n - 1) * below_phi)))
        lower_psi = max(lower_psi, float(np.linalg.norm(
            bdag @ psi[n] - bs.beta(n - 1) * below_psi)))
    report = {
        "raise_phi": raise_phi,
        "lower_phi": lower_phi,
        "raise_psi": raise_psi,
        "lower_psi": lower_psi,
        "safe_dim": safe,
    }
    report["max_residual"] = max(raise_phi, lower_phi, raise_psi, lower_psi)
    return report


def number_eigencheck(family: BiorthogonalFamily) -> dict:
    """Eigenvalue residuals of N = ba on phi_n and of N^dag on psi_n, with
    (a, b) the family's pair.

    The eigenvalue is beta_{n-1}^2 (squared), the value the ladder
    relations force; reports carry the convention explicitly.
    """
    safe = family.safe_dim
    bs = BetaSequence(family.q, family.K)
    nmat = family.b.matrix @ family.a.matrix
    ndag = nmat.conj().T
    r_phi = r_psi = 0.0
    for n in range(safe):
        ev = bs.beta(n - 1) ** 2
        r_phi = max(r_phi, float(np.linalg.norm(nmat @ family.phi[n] - ev * family.phi[n])))
        r_psi = max(r_psi, float(np.linalg.norm(ndag @ family.psi[n] - ev * family.psi[n])))
    return {
        "residual_phi": r_phi,
        "residual_psi": r_psi,
        "safe_dim": safe,
        "eigenvalue_convention": "beta_{n-1}^2",
    }


def build_theta(family: BiorthogonalFamily) -> TruncatedOperator:
    """Metric operator from the series Theta = sum_n |psi_n><psi_n|."""
    m = family.psi.T @ family.psi.conj()
    return TruncatedOperator(family.K, m, "Theta")


def build_theta_inverse(family: BiorthogonalFamily) -> TruncatedOperator:
    """Series inverse Theta^{-1} = sum_n |phi_n><phi_n|."""
    m = family.phi.T @ family.phi.conj()
    return TruncatedOperator(family.K, m, "Theta^-1")


def closed_form_theta(source: SimilarityOperator, dim: int) -> TruncatedOperator:
    """(S S^dag)^{-1}, the closed form the series must reproduce."""
    s = source.matrix(dim)
    m = np.linalg.inv(s @ s.conj().T)
    return TruncatedOperator(dim, m, "Theta_closed")


def check_theta_conjugate(a: TruncatedOperator, b: TruncatedOperator,
                          theta: TruncatedOperator, safe_dim: int,
                          family: BiorthogonalFamily | None = None) -> dict:
    """Residual of a = Theta^{-1} b^dag Theta on the safe basis block.

    When a family is supplied, also verifies the equivalent criterion
    psi_n = Theta phi_n.
    """
    if not (0 < safe_dim <= a.dim):
        raise ValueError(f"safe_dim={safe_dim} outside (0, {a.dim}]")
    theta_inv = np.linalg.inv(theta.matrix)
    conj = theta_inv @ b.matrix.conj().T @ theta.matrix
    diff = (a.matrix - conj)[:, :safe_dim]
    report = {"conjugation_residual": float(np.max(np.linalg.norm(diff, axis=0))),
              "safe_dim": safe_dim}
    if family is not None:
        r = 0.0
        for n in range(min(safe_dim, family.K)):
            r = max(r, float(np.linalg.norm(
                theta.matrix @ family.phi[n] - family.psi[n])))
        report["mapping_residual"] = r
    return report


def weak_resolution_check(family: BiorthogonalFamily,
                          f: np.ndarray, g: np.ndarray) -> tuple[complex, complex]:
    """Both orderings of the weak completeness sum for <f, g>.

    Returns (sum_n <f,phi_n><psi_n,g>, sum_n <f,psi_n><phi_n,g>); each must
    reproduce <f, g>.  f and g must be supported inside the safe block.
    """
    K, safe = family.K, family.safe_dim
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    if f.shape != (K,) or g.shape != (K,):
        raise ValueError("vector length does not match family dimension")
    if np.any(np.abs(f[safe:]) > 0) or np.any(np.abs(g[safe:]) > 0):
        raise ValueError(f"vectors must be supported in indices < safe_dim={safe}")
    f_phi = family.phi.conj() @ f    # <phi_n, f>
    f_psi = family.psi.conj() @ f
    g_phi = family.phi.conj() @ g
    g_psi = family.psi.conj() @ g
    first = complex(np.sum(f_phi.conj() * g_psi))
    second = complex(np.sum(f_psi.conj() * g_phi))
    return first, second


def family_to_json(family: BiorthogonalFamily, stream: IO[str] | None = None,
                   residual_report: dict | None = None) -> dict:
    """JSON document with the family data and an optional residual report."""
    doc = {
        "K": family.K,
        "q": family.q,
        "source": family.source.describe(),
        "iteration_deviation": family.iteration_deviation,
        "phi": [[[z.real, z.imag] for z in row] for row in family.phi],
        "psi": [[[z.real, z.imag] for z in row] for row in family.psi],
    }
    if residual_report is not None:
        doc["residuals"] = residual_report
    if stream is not None:
        json.dump(doc, stream, sort_keys=True)
    return doc
