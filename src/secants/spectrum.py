"""Secant-size spectra: per-line intersection counts with a point set,
their histogram, and the exact double-counting identities they satisfy.

A point set is a read-only boolean mask over the point indices.  Every
plane is counted the same way, through the affine chart with the finite
Radon transform: the counts along the parallel class of slope d are the
inverse DFT of one slice of the DFT of the q x q membership grid (the
Fourier slice theorem over GF(q), whose additive characters are the
characters of its base-p digit vectors), so all classes cost
O(q^2 log q) and no incidence is stored.  The transform is rounded to
integers under an explicit tolerance guard."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import _decode_digits
from .plane import ProjectivePlane


class PointSet:
    """Read-only boolean membership mask over the point indices of a plane."""

    __slots__ = ("plane", "mask", "size", "meta")

    def __init__(self, plane: ProjectivePlane, mask, meta=None):
        mask = np.array(mask, dtype=bool)
        if mask.shape != (plane.N,):
            raise ValueError(f"mask of shape {mask.shape} for N={plane.N} points")
        mask.flags.writeable = False
        self.plane = plane
        self.mask = mask
        self.size = int(np.count_nonzero(mask))
        self.meta = dict(meta or {})

    @classmethod
    def empty(cls, plane, meta=None):
        return cls(plane, np.zeros(plane.N, dtype=bool), meta)

    @classmethod
    def full(cls, plane, meta=None):
        return cls(plane, np.ones(plane.N, dtype=bool), meta)

    @classmethod
    def from_indices(cls, plane, indices, meta=None):
        idx = np.asarray(indices, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= plane.N)]
        if bad.size:                  # a negative index would alias from the end
            raise ValueError(f"point index {bad[0]} out of range")
        mask = np.zeros(plane.N, dtype=bool)
        mask[idx] = True
        return cls(plane, mask, meta)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def complement(self) -> "PointSet":
        meta = {"construction": "complement", "of": self.meta.get("construction")}
        return PointSet(self.plane, ~self.mask, meta)

    def __eq__(self, other):
        return (isinstance(other, PointSet) and self.plane is other.plane
                and np.array_equal(self.mask, other.mask))

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"PointSet(|S|={self.size} of N={self.plane.N})"


@dataclass
class SecantSpectrum:
    """Per-line secant sizes of a set, with histogram and mode statistics."""

    q: int
    N: int
    s: int
    n_ell: np.ndarray          # length N, n_ell[i] = |S ∩ line i|
    histogram: np.ndarray      # length q+2, histogram[k] = #k-secants
    mu: Fraction               # exact average secant size s(q+1)/N
    mode_k: int                # smallest k maximizing histogram[k]
    mode_count: int


@dataclass
class IdentityReport:
    """Exact-integer residuals of the two standard equations and the
    cleared-denominator variance identity (all must be zero)."""

    eq1: bool
    eq2: bool
    var_ok: bool
    eq1_residual: int
    eq2_residual: int
    var_residual: int

    @property
    def ok(self) -> bool:
        return self.eq1 and self.eq2 and self.var_ok


def compute_spectrum(plane: ProjectivePlane, pset: PointSet) -> SecantSpectrum:
    if pset.plane is not plane:
        raise ValueError("point set belongs to a different plane")
    q, N, size = plane.q, plane.N, pset.size
    n_ell = _spectrum_affine(plane, pset.mask)
    hist = np.bincount(n_ell, minlength=q + 2)
    mode_k = int(hist.argmax())          # argmax returns the smallest maximizer
    return SecantSpectrum(
        q=q, N=N, s=size, n_ell=n_ell, histogram=hist,
        mu=Fraction(size * (q + 1), N),
        mode_k=mode_k, mode_count=int(hist[mode_k]))


def _spectrum_affine(plane, mask: np.ndarray) -> np.ndarray:
    F, q, N = plane.field, plane.q, plane.N
    c = np.arange(q, dtype=np.int64)
    one, zero = np.ones_like(c), np.zeros_like(c)
    directions = plane.index_of(np.column_stack([one, c, zero]))        # (1 : d : 0)
    verticals = plane.index_of(np.column_stack([one, zero, F.neg(c)]))  # x = c
    grid = mask[plane.affine_points()]                          # grid[x, y]
    dir_in = mask[directions]
    vert_in = int(mask[plane.index_of([0, 1, 0])])

    n_ell = np.zeros(N, dtype=np.int64)
    n_ell[plane.index_of([0, 0, 1])] = int(dir_in.sum()) + vert_in     # z = 0
    n_ell[verticals] = grid.sum(1) + vert_in
    for lo, counts in affine_class_blocks(grid, F):
        d = np.arange(lo, lo + len(counts))
        n_ell[plane.affine_lines(d)] = counts + dir_in[d, None]
    return n_ell


# The finite Radon transform transforms this many grid entries (rows of x
# times y) and inverts this many counts (slopes times intercepts) at a
# time, which bounds its temporaries at large q.
_RADON_BLOCK_ENTRIES = 1 << 16

# Largest distance from an integer that a transformed count may have.
# Measured rounding errors stay below 3e-12 up to p = 1999, so a value
# anywhere near this bound is a numerical fault, never a rounding choice.
_RADON_TOLERANCE = 1e-3


def affine_class_blocks(grid: np.ndarray, field):
    """Counts of a q x q membership grid along every non-vertical parallel
    class of AG(2,q), by the finite Radon transform over GF(q) = GF(p^k).

    Yields (lo, C) for consecutive blocks of slopes, where C[i, b] counts
    the x with grid[x, d*x + b] set (field arithmetic), for the slope
    d = lo + i.  Reshaped to (p,)*2k, the grid has the digits of x, then
    of y, as axes, highest digit first.  With F its DFT over those axes,
    the DFT of the slope-d counts at the dual digit vector v is
    F[-M_d^T v, v], where M_d is multiplication by d on digit vectors
    (column j holds the digits of d*p^j), so each class is one inverse FFT
    of a slice over the k intercept axes.  The real FFT halves the last
    axis, the lowest digit of y, and the slice reads that axis directly.
    At k = 1 this is F[-d*v mod p, v] of the 2-D DFT.
    F is filled in place in the order rfftn takes: the real FFT over the
    y axes one block of rows of x at a time, then one FFT over the x axes
    with F as its output, so no temporary is as large as F.  The forward
    and the inverse passes both work in blocks of about
    _RADON_BLOCK_ENTRIES entries.
    Raises ArithmeticError when a transformed count is more than
    _RADON_TOLERANCE from an integer."""
    p, k, q = field.p, field.k, field.q
    half = p // 2 + 1
    F = np.empty((q, q // p * half), dtype=complex)   # rows: encoded u; columns: v
    step = max(1, _RADON_BLOCK_ENTRIES // q)
    for lo in range(0, q, step):
        rows = grid[lo:lo + step].reshape(-1, *(p,) * k)
        np.fft.rfftn(rows, axes=range(1, k + 1),
                     out=F[lo:lo + step].reshape(len(rows), *(p,) * (k - 1), half))
    Fx = F.reshape(*(p,) * k, -1)
    np.fft.fftn(Fx, axes=range(k), out=Fx)
    col = np.arange(F.shape[1])
    # digits of each column's v, lowest (the halved axis) first
    v = np.column_stack([col % half, _decode_digits(col // half, p, k - 1)])
    powers = p ** np.arange(k)
    for lo in range(0, q, step):
        d = np.arange(lo, min(lo + step, q), dtype=np.int64)
        MT = _decode_digits(field.mul(d[:, None], powers), p, k)    # MT[i] = M_d^T
        u = ((-(MT @ v.T) % p) * powers[:, None]).sum(axis=1)
        x = np.fft.irfftn(F[u, col].reshape(d.size, *(p,) * (k - 1), half),
                          s=(p,) * k, axes=range(1, k + 1)).reshape(d.size, q)
        counts = np.rint(x)
        err = float(np.abs(x - counts).max())
        if err > _RADON_TOLERANCE:
            raise ArithmeticError(
                f"finite Radon transform at q={q} is {err:.3g} off an integer count")
        yield lo, counts.astype(np.int64)


def verify_counting_identities(spec: SecantSpectrum) -> IdentityReport:
    """Check, in exact integer arithmetic, the standard equations and the
    cleared-denominator variance identity N*Σn² - (Σn)² = q*s*(N - s)."""
    n = spec.n_ell
    s, q, N = spec.s, spec.q, spec.N
    sum_n = int(n.sum())
    sum_n2 = int((n * n).sum())
    r1 = sum_n - s * (q + 1)
    r2 = (sum_n2 - sum_n) - s * (s - 1)
    r3 = N * sum_n2 - sum_n * sum_n - q * s * (N - s)
    return IdentityReport(eq1=r1 == 0, eq2=r2 == 0, var_ok=r3 == 0,
                          eq1_residual=r1, eq2_residual=r2, var_residual=r3)


def bounds_report(q: int, s: int) -> dict:
    """The mode-frequency lower bounds at set size s, as the `bounds` object
    of the spectrum document: prop = N^(3/2) / sqrt(12V + 13N) with V the
    exact variance q*s*(1 - s/N), cor = N / sqrt(3q + 13) and
    thm_lower = q^(3/2)/sqrt(3) - 3q (negative at small q).

    The general bound uses the 13N denominator of the counting argument
    (consistent with the universal N/sqrt(3q+13) form it specializes to).
    """
    N = q * q + q + 1
    if not 0 <= s <= N:
        raise ValueError(f"set size {s} out of range [0, {N}]")
    V = q * s * (N - s) / N       # true division of ints rounds once, exactly
    return {"prop": N ** 1.5 / math.sqrt(12 * V + 13 * N),
            "cor": N / math.sqrt(3 * q + 13),
            "thm_lower": q ** 1.5 / math.sqrt(3) - 3 * q}


def cor_bound_ceiling(q: int) -> int:
    """Smallest admissible mode count, the exact ceiling of N/sqrt(3q+13)."""
    N = q * q + q + 1
    d = 3 * q + 13
    m = math.isqrt(N * N // d)
    while m * m * d < N * N:
        m += 1
    return m
