"""Truncated Fock-space engine in structured form.

Every operator the library builds on span{e_0, ..., e_{K-1}} is one band
plus a small dense block on the leading indices,

    X e_n = d_n e_{n+s} + B e_n,

with s the shift of the band (0 for the identity, -1 for the lowering
operator c, +1 for the raising operator c^dag).  A compactly supported
deformation of the quon pair keeps that form, with a block one index past
the support extent, so storage and matvecs cost O(K) plus the block.
Checks read products of the leading W x W windows (:meth:`FockOperator.dense`)
that the blocks and a few ladder steps reach; past them a residual column
is a band entry alone.  No operator is written out: the family report's
source, with q and K, fixes S, a and b.

Truncation breaks the q-mutation identity on the top basis vectors, so
every residual check takes a ``safe_dim`` argument restricting it to the
leading columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import BetaSequence, validate_q_algebraic

__all__ = [
    "FockOperator",
    "identity_plus",
    "make_quon_c",
    "qmutator_residual",
]

EMPTY = np.zeros((0, 0), dtype=complex)


def _shifted(v: np.ndarray, s: int) -> np.ndarray:
    """w with w[n + s] = v[n]; entries moved past either end are dropped."""
    w = np.zeros_like(v)
    k = len(v)
    if s >= 0:
        w[s:] = v[:max(k - s, 0)]
    elif -s < k:
        w[:k + s] = v[-s:]
    return w


@dataclass(frozen=True)
class FockOperator:
    """X e_n = diag[n] e_{n+shift} + block e_n, the block acting on the
    leading len(block) indices.

    diag[n] is zero wherever n + shift leaves [0, K), so the band never
    crosses the truncation edge.
    """

    shift: int
    diag: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.diag)

    def __matmul__(self, x) -> np.ndarray:
        """Matvec on a vector or a column batch."""
        x = np.asarray(x)
        if len(x) != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {len(x)}")
        d = self.diag if x.ndim == 1 else self.diag[:, None]
        out = np.zeros(x.shape, dtype=np.result_type(d, x, self.block))
        # out[n + shift] = d[n] x[n] for the n whose image stays in [0, K)
        s, k = self.shift, len(x)
        lo, hi = max(-s, 0), min(k - s, k)
        np.multiply(d[lo:hi], x[lo:hi], out=out[lo + s:hi + s])
        p = len(self.block)
        out[:p] += self.block @ x[:p]
        return out

    def adjoint(self) -> "FockOperator":
        return FockOperator(-self.shift, _shifted(self.diag.conj(), self.shift),
                            self.block.conj().T)

    def dense(self, n: int | None = None) -> np.ndarray:
        """The leading n x n window as a dense array (the whole matrix by default)."""
        n = self.dim if n is None else n
        out = np.zeros((n, n), dtype=np.result_type(self.diag, self.block))
        # the band entries (j + shift, j) of the window, a strided view of its rows
        j0, count = max(-self.shift, 0), max(n - abs(self.shift), 0)
        out.reshape(-1)[self.shift * n + j0 * (n + 1)::n + 1][:count] = \
            self.diag[j0:j0 + count]
        p = min(n, len(self.block))
        out[:p, :p] += self.block[:p, :p]
        return out

    def column_norms(self, n: int) -> np.ndarray:
        """||X e_j|| for j < n: the block columns from a dense window, the
        rest from the band alone."""
        p = min(len(self.block), n)
        w = min(self.dim, len(self.block) + max(self.shift, 0))
        head = np.linalg.norm(self.dense(w)[:, :p], axis=0)
        return np.concatenate([head, np.abs(self.diag[p:n])])


def identity_plus(dim: int, block: np.ndarray = EMPTY) -> FockOperator:
    """1 + B with B dense on the leading len(B) indices."""
    if len(block) > dim:
        raise ValueError(f"support extent {len(block)} exceeds dim={dim}")
    return FockOperator(0, np.ones(dim), np.asarray(block))


def make_quon_c(q: float, dim: int) -> FockOperator:
    """K x K truncation of the lowering operator: entries c[k, k+1] = beta_k.

    Its adjoint is the truncation of the raising operator, so
    c e_m = beta_{m-1} e_{m-1} and c^dag e_n = beta_n e_{n+1} (n < K-1).
    The band diag[m] = beta_{m-1} is the beta array every Fock check reads.
    """
    if dim < 2:
        raise ValueError(f"dim={dim} must be at least 2")
    return FockOperator(-1, BetaSequence(q, dim - 2).beta, EMPTY)


def qmutator_residual(x: FockOperator, y: FockOperator, q: float, safe_dim: int) -> float:
    """max_n || (XY - q YX - I) e_n || / (||XY e_n|| + |q| ||YX e_n|| + 1)
    over the safe block n < safe_dim: each column against the size of the
    terms that cancel in it, so a residual at the rounding of entries that
    grow with q reads eps, not their size.

    safe_dim excludes the columns where the truncation edge corrupts the
    identity, at least the last two.  From one ladder step past both blocks
    on, column n is the band entry alone, beta_n^2 - q beta_{n-1}^2 - 1 for a
    quon pair against beta_n^2 + |q| beta_{n-1}^2 + 1, read as one vector
    expression; the columns before it come from products of the leading
    windows, two rows wider than they reach.
    """
    validate_q_algebraic(q)
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if x.shift + y.shift != 0:
        raise ValueError(f"band shifts {x.shift} and {y.shift} do not cancel")
    if not (0 < safe_dim < x.dim):
        raise ValueError(f"safe_dim={safe_dim} outside (0, dim={x.dim})")
    reach = max(len(x.block), len(y.block)) + 1
    head, w = min(safe_dim, reach), min(x.dim, reach + 2)
    xw, yw = x.dense(w), y.dense(w)

    def relative(xy, yx, one, size):
        # XY, YX and 1 come halved, so the scale stays finite wherever its
        # terms are; halving is exact, so the ratio is not changed
        return size(xy - q * yx - one) / (size(xy) + abs(q) * size(yx) + 0.5)

    def columns(m: np.ndarray) -> np.ndarray:
        return np.linalg.norm(m[:, :head], axis=0)

    head_rel = relative(0.5 * (xw @ yw), 0.5 * (yw @ xw), 0.5 * np.eye(w), columns)
    band_rel = relative(0.5 * (y.diag * _shifted(x.diag, -y.shift))[head:safe_dim],
                        0.5 * (x.diag * _shifted(y.diag, -x.shift))[head:safe_dim],
                        0.5, np.abs)
    return float(max(np.max(head_rel), np.max(band_rel, initial=0.0)))

