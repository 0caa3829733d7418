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
values: a band plus a leading block.  Every check below is a product of
such operators whose safe columns are read in O(K), never a K x K array.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .fock import EMPTY, FORMAT, FockOperator, identity_plus, make_quon_c, operator_json
from .qcore import validate_q_algebraic

__all__ = [
    "SimilarityOperator",
    "IdentitySimilarity",
    "RankOneDeformation",
    "RankOneSimilarity",
    "worked_deformation",
    "BiorthogonalFamily",
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


class SimilarityOperator:
    """S = 1 + B_S with S^{-1} = 1 + B_inv, both blocks on the leading
    support_extent indices."""

    kind = "abstract"
    support_extent = 0

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks B_S and B_inv."""
        raise NotImplementedError

    def safe_dim(self, dim: int) -> int:
        """Leading block on which truncated products reproduce the exact algebra."""
        return dim - 2

    def describe(self) -> dict:
        return {"kind": self.kind}


class IdentitySimilarity(SimilarityOperator):
    """S = 1; reproduces the undeformed pair (c, c^dag)."""

    kind = "identity"

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        return EMPTY, EMPTY


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
        self.support_extent = deformation.support_extent

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        d = self.deformation
        u = np.zeros(self.support_extent, dtype=complex)
        v = np.zeros(self.support_extent, dtype=complex)
        u[:len(d.u)] = d.u
        v[:len(d.v)] = d.v
        rank_one = np.outer(v, u.conj())
        # array times scalar: the operand order the dense K x K construction
        # took, so exported rows keep their last bits
        return rank_one * d.alpha_def, rank_one * d.beta_def

    def safe_dim(self, dim: int) -> int:
        # the deformation couples rows up to one ladder step past the supports
        return dim - 2 - self.support_extent

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
    h = 1 / np.sqrt(2)
    u = np.array([h, h, 0.4, -0.3 + 0.2j, 0.0, 0.0])
    v = np.array([h, h, 0.0, 0.0, 0.5j, -0.2])
    return RankOneDeformation.from_alpha(u, v, alpha_def)


@dataclass(frozen=True)
class BiorthogonalFamily:
    """phi_n = phi e_n and psi_n = psi e_n with phi = S and psi = S^{-dag},
    the plain lowering operator c (its band is the family's beta array) and
    the pair (a, b) built from S and c."""

    K: int
    q: float
    phi: FockOperator = field(repr=False)
    psi: FockOperator = field(repr=False)
    source: SimilarityOperator = field(repr=False)
    c: FockOperator = field(repr=False)
    a: FockOperator = field(repr=False)
    b: FockOperator = field(repr=False)

    @property
    def safe_dim(self) -> int:
        return self.source.safe_dim(self.K)


def _similarity(source: SimilarityOperator, dim: int
                ) -> tuple[FockOperator, FockOperator]:
    """S and S^{-1} on the K-dim truncation."""
    s_block, inv_block = source.blocks()
    return identity_plus(dim, s_block), identity_plus(dim, inv_block)


def _deviation(x: FockOperator) -> float:
    """Largest entry of X - 1."""
    return (x - identity_plus(x.dim)).max_abs()


def make_pair(source: SimilarityOperator, q: float, dim: int
              ) -> tuple[FockOperator, FockOperator]:
    """Build a = S c S^{-1} and b = S c^dag S^{-1} on the truncation."""
    validate_q_algebraic(q)
    s, s_inv = _similarity(source, dim)
    resid = _deviation(s @ s_inv)
    if resid > 1e-12:
        raise ValueError(f"similarity operator not invertible on truncation "
                         f"(S S^-1 deviates from 1 by {resid:.2e})")
    c = make_quon_c(q, dim)
    return s @ c @ s_inv, s @ c.adjoint() @ s_inv


def build_family(source: SimilarityOperator, q: float, dim: int) -> BiorthogonalFamily:
    """The families phi_n = S e_n and psi_n = S^{-dag} e_n with the plain c
    and the pair (a, b); check_ladder verifies that b raises and a lowers
    them."""
    a, b = make_pair(source, q, dim)
    s, s_inv = _similarity(source, dim)
    return BiorthogonalFamily(dim, q, s, s_inv.adjoint(), source, make_quon_c(q, dim), a, b)


def gram_deviation(family: BiorthogonalFamily) -> float:
    """Max-entry deviation of the Gram matrix G[n, m] = <phi_n, psi_m>,
    that is of S^dag S^{-dag}, from the identity."""
    return _deviation(family.phi.adjoint() @ family.psi)


def _worst_columns(residual: FockOperator, n: int) -> float:
    return float(np.max(residual.column_norms(n), initial=0.0))


def check_ladder(family: BiorthogonalFamily) -> dict:
    """Residual maxima of the four ladder relations of the family's pair over
    the safe block.

    b phi_n = beta_n phi_{n+1};  a phi_n = beta_{n-1} phi_{n-1};
    a^dag psi_n = beta_n psi_{n+1};  b^dag psi_n = beta_{n-1} psi_{n-1};
    with phi_{-1} = psi_{-1} = 0.  In operator form the residual of
    b phi_n = beta_n phi_{n+1} is column n of b S - S c^dag, and so on.
    """
    phi, psi, a, b, c = family.phi, family.psi, family.a, family.b, family.c
    cdag = c.adjoint()
    residuals = {
        "raise_phi": b @ phi - phi @ cdag,
        "lower_phi": a @ phi - phi @ c,
        "raise_psi": a.adjoint() @ psi - psi @ cdag,
        "lower_psi": b.adjoint() @ psi - psi @ c,
    }
    return {key: _worst_columns(r, family.safe_dim) for key, r in residuals.items()}


def number_eigencheck(family: BiorthogonalFamily) -> dict:
    """Eigenvalue residuals of N = ba on phi_n and of N^dag on psi_n, with
    (a, b) the family's pair.

    The eigenvalue is beta_{n-1}^2 (squared), the value the ladder
    relations force, here the diagonal c^dag c; reports carry the
    convention explicitly.
    """
    n_op = family.b @ family.a
    eigen = family.c.adjoint() @ family.c
    safe = family.safe_dim
    return {
        "residual_phi": _worst_columns(n_op @ family.phi - family.phi @ eigen, safe),
        "residual_psi": _worst_columns(
            n_op.adjoint() @ family.psi - family.psi @ eigen, safe),
        "safe_dim": safe,
        "eigenvalue_convention": "beta_{n-1}^2",
    }


def build_theta(family: BiorthogonalFamily) -> FockOperator:
    """Metric operator from the series Theta = sum_n |psi_n><psi_n|."""
    return family.psi @ family.psi.adjoint()


def _inverse(x: FockOperator) -> FockOperator:
    """(1 + B)^{-1} = 1 + B' with (1 + B) B' = -B solved on the block."""
    if x.shift != 0 or np.any(x.diag != 1.0):
        raise ValueError("operator is not the identity plus a leading block")
    p = len(x.block)
    return identity_plus(x.dim, np.linalg.solve(x.dense(p), -x.block))


def closed_form_theta(source: SimilarityOperator, dim: int) -> FockOperator:
    """(S S^dag)^{-1}, the closed form the series must reproduce."""
    s, _ = _similarity(source, dim)
    return _inverse(s @ s.adjoint())


def check_theta_conjugate(a: FockOperator, b: FockOperator,
                          theta: FockOperator, safe_dim: int,
                          family: BiorthogonalFamily | None = None) -> dict:
    """Residual of a = Theta^{-1} b^dag Theta on the safe basis block.

    Theta must be the identity plus a leading block.  When a family is
    supplied, also verifies the equivalent criterion psi_n = Theta phi_n.
    """
    if not (0 < safe_dim <= a.dim):
        raise ValueError(f"safe_dim={safe_dim} outside (0, {a.dim}]")
    conj = a - _inverse(theta) @ b.adjoint() @ theta
    report = {"conjugation_residual": _worst_columns(conj, safe_dim),
              "safe_dim": safe_dim}
    if family is not None:
        report["mapping_residual"] = _worst_columns(
            theta @ family.phi - family.psi, min(safe_dim, family.K))
    return report


def family_to_json(family: BiorthogonalFamily, stream: IO[str],
                   residual_report: dict | None = None) -> None:
    """Write the family data and an optional residual report as one JSON
    document with sorted keys.

    phi = S (column n is phi_n) and psi = S^{-dag} (column n is psi_n) are
    written in the stored form of :func:`~biquon.fock.operator_json`, which
    the "format" key names, so the document is O(K) in size.
    """
    doc = {
        "K": family.K,
        "q": family.q,
        "format": FORMAT,
        "source": family.source.describe(),
        "phi": operator_json(family.phi),
        "psi": operator_json(family.psi),
    }
    if residual_report is not None:
        doc["residuals"] = residual_report
    # one write: json.dump would issue thousands of small ones
    stream.write(json.dumps(doc, sort_keys=True))
