"""The classical projective plane PG(2,q) as an indexed incidence structure.

Points and lines are normalized homogeneous triples over GF(q): the first
nonzero coordinate (scanning x, then y, then z) is scaled to 1, and both
families are listed in lexicographic order of their encoded triples.  That
order has a closed form, so planes are cheap to create at any q, and one
array decode (`triples`) and one array encode (`index_of`) map between
indices and triples.  The points of any batch of lines come from one
vectorized closed-form solver (`line_points`), which caches nothing: the
two searches each solve all N lines once, and spectra are counted without
any incidence.

The affine chart identifies F_q^2 with the points off the line z = 0:
(x, y) corresponds to (x : y : 1), the line y = dx + b to [d : -1 : b],
and the vertical x = c to [1 : 0 : -c].  Its points have a closed-form
table, solved for any batch of rows on request (`affine_points`); every
other chart object is encoded with `index_of`.  The plane caches no
table.  The constructions write their regions through `affine_points`.
The spectrum and the curve scan solve no table: they count on the other
chart, of the points (1 : a : b), which sit at the indices
q+1 + a*q + b, so their grid is a view of the mask.
"""

from __future__ import annotations

import numpy as np

from .field import Field, make_field

# Lines are solved, random sets drawn and the curve scan's base sums taken
# in blocks of about this many entries, and the projection laws checked in
# blocks of an eighth of it, which bounds their int64 temporaries.
_SOLVE_BLOCK_ENTRIES = 1 << 16


class PlaneError(ValueError):
    pass


class ProjectivePlane:
    """Immutable PG(2,q); safe to share read-only across workers."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q
        self.N = self.q * self.q + self.q + 1

    def __repr__(self):
        return f"PG(2,{self.q})"

    # -- the one codec between indices and normalized triples -----------------

    def triples(self, idx=None) -> np.ndarray:
        """(..., 3) int64 normalized triples of the points (or lines) with
        these indices, all N by default: index 0 is (0 : 0 : 1), 1 + z is
        (0 : 1 : z) and q + 1 + yq + z is (1 : y : z)."""
        q = self.q
        idx = np.arange(self.N) if idx is None else np.asarray(idx, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.N)):
            raise PlaneError(f"index outside [0, {self.N})")
        t = idx - q - 1
        out = np.empty(idx.shape + (3,), dtype=np.int64)
        out[..., 0] = t >= 0
        out[..., 1] = np.where(t >= 0, t // q, idx > 0)
        out[..., 2] = np.where(t >= 0, t % q, np.where(idx > 0, idx - 1, 1))
        return out

    def index_of(self, triples) -> np.ndarray:
        """Indices of (..., 3) nonzero triples over GF(q), not necessarily
        normalized: each row is scaled by the inverse of its first nonzero
        entry."""
        F, q = self.field, self.q
        t = np.asarray(triples, dtype=np.int64)
        if np.any((t < 0) | (t >= q)):
            raise PlaneError(f"triple entry outside GF({q})")
        x, y, z = np.moveaxis(t, -1, 0)
        lead = np.where(x != 0, x, np.where(y != 0, y, z))
        if np.any(lead == 0):
            raise PlaneError("zero triple has no projective class")
        s = F.inv(lead)
        x, y, z = F.mul(x, s), F.mul(y, s), F.mul(z, s)
        return np.where(x == 1, q + 1 + y * q + z, np.where(y == 1, 1 + z, 0))

    # -- the line solver ------------------------------------------------------

    def line_points(self, lines=None) -> np.ndarray:
        """(len(lines), q+1) int32 array: row i holds the sorted indices of
        the points on line lines[i], all N lines by default.  Nothing is
        cached; the rows are solved in blocks of about _SOLVE_BLOCK_ENTRIES
        entries from the closed form for [a : b : c]."""
        F, q = self.field, self.q
        lines = np.arange(self.N) if lines is None else np.asarray(lines, dtype=np.int64)
        out = np.empty((lines.size, q + 1), dtype=np.int32)
        z = np.arange(q, dtype=np.int64)
        step = max(1, _SOLVE_BLOCK_ENTRIES // (q + 1))
        for lo in range(0, lines.size, step):
            a, b, c = self.triples(lines[lo:lo + step]).T
            block = out[lo:lo + step]
            # c != 0: the point (0 : 1 : -b/c), then (1 : y : -(a + by)/c) by y
            s = np.nonzero(c)[0]
            nc = F.neg(F.inv(c[s]))
            block[s, 0] = 1 + F.mul(b[s], nc)
            block[s, 1:] = q + 1 + z * q + F.mul(
                F.add(a[s, None], F.mul(b[s, None], z)), nc[:, None])
            # c == 0: the point (0 : 0 : 1), then (1 : -a/b : z) by z, or
            # (0 : 1 : z) on the line x = 0, where b == 0 too
            block[c == 0, 0] = 0
            s = np.nonzero((c == 0) & (b != 0))[0]
            block[s, 1:] = q + 1 + F.mul(F.neg(a[s]), F.inv(b[s]))[:, None] * q + z
            block[(c == 0) & (b == 0), 1:] = 1 + z
        return out

    # -- the affine chart -------------------------------------------------------

    def affine_points(self, xs) -> np.ndarray:
        """(len(xs), q) int32 table: [i, y] is the index of (x : y : 1) for
        x = xs[i].  Nothing is cached, and the callers ask for a few rows
        at a time; the rows are solved from int32 operands, exact since a
        product y * (1/x) of a prime field is below q^2 < N and every
        index of an int32 table is below 2^31."""
        F, q = self.field, self.q
        x = np.asarray(xs)[:, None]
        y = np.arange(q, dtype=np.int32)
        out = np.empty((x.size, q), dtype=np.int32)
        inv = F.inv(np.where(x == 0, 1, x)).astype(np.int32)
        out[:] = F.mul(y, inv) * q + (q + 1 + inv)                 # (1 : y/x : 1/x)
        axis = x[:, 0] == 0
        if axis.any():
            out[axis, 0] = 0
            out[axis, 1:] = 1 + F.inv(y[1:])                       # (0 : 1 : 1/y)
        return out


def build_plane(q: int) -> ProjectivePlane:
    """Canonical PG(2,q) from a prime-power order; to build on a Field at
    hand, call ProjectivePlane(field)."""
    return ProjectivePlane(make_field(q))
