"""The classical projective plane PG(2,q) as an indexed incidence structure.

Points and lines are normalized homogeneous triples over GF(q): the first
nonzero coordinate (scanning x, then y, then z) is scaled to 1, and both
families are listed in lexicographic order of their encoded triples.  That
order has a closed form, so planes are cheap to create at any q, and one
array decode (`triples`) and one array encode (`index_of`) map between
indices and triples.  The points of any batch of lines come from one
vectorized closed-form solver.  The incidence cache, an int32 matrix of
per-line point indices, is materialized while it fits in a fixed memory
budget; the searches and the test oracles read it, and spectra are
counted without it.  Points and lines share one indexing and x.a = a.x,
so the same matrix lists the lines through each point.

The affine frame identifies F_q^2 with the points off the line z = 0:
(x, y) corresponds to (x : y : 1), the line y = dx + b to [d : -1 : b],
and the vertical x = c to [1 : 0 : -c].
"""

from __future__ import annotations

import numpy as np

from .field import Field, make_field

# The incidence cache is built only when its (N, q+1) int32 index matrix
# fits in this many bytes.
INCIDENCE_BUDGET_BYTES = 64 * 1024 * 1024

# Lines are solved in blocks of about this many entries, which bounds the
# solver's int64 temporaries.
_SOLVE_BLOCK_ENTRIES = 1 << 20


class PlaneError(ValueError):
    pass


class ProjectivePlane:
    """Immutable PG(2,q); safe to share read-only across workers."""

    def __init__(self, field: Field):
        self.field = field
        self.q = field.q
        self.N = self.q * self.q + self.q + 1
        self._line_points = None   # numpy (N, q+1) int32, within the budget only
        self._frame = None

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

    # -- incidence ------------------------------------------------------------

    def incident(self, point_idx, line_idx):
        """Whether each point lies on each line; the index arrays broadcast."""
        F = self.field
        x, y, z = np.moveaxis(self.triples(point_idx), -1, 0)
        a, b, c = np.moveaxis(self.triples(line_idx), -1, 0)
        return F.add(F.add(F.mul(a, x), F.mul(b, y)), F.mul(c, z)) == 0

    def line_point_indices(self, line_idx: int):
        """Sorted indices of the q+1 points on a line."""
        return self._solve_lines([line_idx])[0].tolist()

    def _solve_lines(self, lines) -> np.ndarray:
        """(len(lines), q+1) int32 matrix: row i holds the sorted indices of
        the points on line lines[i], from the closed form for [a : b : c]."""
        F, q = self.field, self.q
        a, b, c = self.triples(lines).T
        z = np.arange(q, dtype=np.int64)
        out = np.empty((a.size, q + 1), dtype=np.int32)
        # c != 0: the point (0 : 1 : -b/c), then (1 : y : -(a + by)/c) by y
        s = np.nonzero(c)[0]
        nc = F.neg(F.inv(c[s]))
        out[s, 0] = 1 + F.mul(b[s], nc)
        out[s, 1:] = q + 1 + z * q + F.mul(
            F.add(a[s, None], F.mul(b[s, None], z)), nc[:, None])
        # c == 0: the point (0 : 0 : 1), then (1 : -a/b : z) by z, or (0 : 1 : z)
        # on the line x = 0, where b == 0 too
        out[c == 0, 0] = 0
        s = np.nonzero((c == 0) & (b != 0))[0]
        out[s, 1:] = q + 1 + F.mul(F.neg(a[s]), F.inv(b[s]))[:, None] * q + z
        out[(c == 0) & (b == 0), 1:] = 1 + z
        return out

    @property
    def has_incidence_cache(self) -> bool:
        return self.N * (self.q + 1) * 4 <= INCIDENCE_BUDGET_BYTES

    @property
    def line_points_matrix(self) -> np.ndarray:
        """(N, q+1) int32 matrix of point indices per line, rows ascending
        (within the budget); by duality row i also lists the lines through point i."""
        if not self.has_incidence_cache:
            raise PlaneError(
                f"incidence cache for N={self.N} exceeds the memory budget")
        if self._line_points is None:
            N, step = self.N, max(1, _SOLVE_BLOCK_ENTRIES // (self.q + 1))
            out = np.empty((N, self.q + 1), dtype=np.int32)
            for lo in range(0, N, step):
                out[lo:lo + step] = self._solve_lines(np.arange(lo, min(lo + step, N)))
            self._line_points = out
        return self._line_points

    # -- axioms-level helpers ---------------------------------------------------

    def line_through(self, p_idx: int, q_idx: int) -> int:
        """The unique line through two distinct points (cross product)."""
        if p_idx == q_idx:
            raise PlaneError("identical points")
        F = self.field
        P, Q = self.triples([p_idx, q_idx])
        cross = F.sub(F.mul(P[[1, 2, 0]], Q[[2, 0, 1]]), F.mul(P[[2, 0, 1]], Q[[1, 2, 0]]))
        return int(self.index_of(cross))

    # -- affine frame -----------------------------------------------------------

    @property
    def frame(self) -> "AffineFrame":
        if self._frame is None:
            self._frame = AffineFrame(self)
        return self._frame


class AffineFrame:
    """Coordinate maps between AG(2,q) and the plane's point/line indices.

    The frame keeps the plane's field and size, not the plane: the plane
    caches its frame, and a reference back would make a cycle that holds
    the frame's tables until the cyclic garbage collector runs."""

    def __init__(self, plane: ProjectivePlane):
        self.field = plane.field
        self.q = plane.q
        self.N = plane.N
        self._index_table = None

    @property
    def infinite_line(self) -> int:
        return 0

    @property
    def vertical_direction(self) -> int:
        # (0 : 1 : 0), the common point of all vertical lines
        return 1

    def direction_point(self, d):
        """Index of (1 : d : 0), the infinite point of the slope-d class;
        elementwise on an array of slopes."""
        return self.q + 1 + d * self.q

    def affine_point(self, x: int, y: int) -> int:
        F, q = self.field, self.q
        if x != 0:
            xinv = F.inv(x)
            return q + 1 + F.mul(y, xinv) * q + xinv
        if y != 0:
            return 1 + F.inv(y)
        return 0

    def affine_line(self, d: int, b: int) -> int:
        """Index of the line y = dx + b."""
        F, q = self.field, self.q
        if d != 0:
            dinv = F.inv(d)
            return q + 1 + F.neg(dinv) * q + F.mul(b, dinv)
        return 1 + F.neg(b)

    def vertical_line(self, c: int) -> int:
        """Index of the line x = c."""
        return self.q + 1 + self.field.neg(c)

    def point_index_table(self) -> np.ndarray:
        """(q, q) int32 table mapping affine (x, y) to point index."""
        if self._index_table is not None:
            return self._index_table
        F, q = self.field, self.q
        inv = F.inv(np.arange(1, q, dtype=np.int64))[:, None]
        y = np.arange(q, dtype=np.int64)
        tbl = np.empty((q, q), dtype=np.int32)
        tbl[0, 0] = 0
        tbl[0, 1:] = 1 + inv[:, 0]                    # (0 : 1 : 1/y)
        tbl[1:] = q + 1 + F.mul(y, inv) * q + inv     # (1 : y/x : 1/x)
        self._index_table = tbl
        return tbl

    def line_index_table(self, slopes=None) -> np.ndarray:
        """(len(slopes), q) int64 table mapping row i and intercept b to the
        index of the line y = slopes[i]*x + b; all q slopes by default."""
        F, q = self.field, self.q
        d = np.arange(q, dtype=np.int64) if slopes is None else np.asarray(slopes)
        b = np.arange(q, dtype=np.int64)
        flat = d == 0
        dinv = F.inv(d[~flat])[:, None]
        tbl = np.empty((d.size, q), dtype=np.int64)
        tbl[flat] = 1 + F.neg(b)                                  # [0 : 1 : -b]
        tbl[~flat] = q + 1 + F.neg(dinv) * q + F.mul(b, dinv)     # [1 : -1/d : b/d]
        return tbl


def build_plane(field_or_q) -> ProjectivePlane:
    """Canonical PG(2,q) from a Field or a prime-power order."""
    field = field_or_q if isinstance(field_or_q, Field) else make_field(field_or_q)
    return ProjectivePlane(field)
