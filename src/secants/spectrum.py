"""Secant-size spectra: per-line intersection counts with a point set,
their histogram, and the exact double-counting identities they satisfy.

A point set is a read-only boolean mask over the point indices, and the
kind of plane picks the counting kernel.  Prime planes are counted through
the affine frame: every affine line of slope d meets the set where y - d*x
is its intercept, so one bincount per parallel class recovers all counts
without any stored incidence.  Extension planes gather the mask along each
line's point indices, from the incidence cache within its budget and from
freshly solved blocks of lines above it.  Both kernels work on prime
planes and are cross-checked there in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .field import inverse_table
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
        idx = np.fromiter(indices, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= plane.N)]
        if bad.size:                  # a negative index would alias from the end
            raise ValueError(f"point index {bad[0]} out of range")
        mask = np.zeros(plane.N, dtype=bool)
        mask[idx] = True
        return cls(plane, mask, meta)

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def contains(self, idx: int) -> bool:
        return 0 <= idx < self.plane.N and bool(self.mask[idx])

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


@dataclass
class BoundsReport:
    q: int
    s: int
    N: int
    V: Fraction          # exact variance q*s*(1 - s/N)
    prop_bound: float    # N^(3/2) / sqrt(12V + 13N)
    cor_bound: float     # N / sqrt(3q + 13)
    thm_lower: float     # q^(3/2)/sqrt(3) - 3q (may be negative at small q)
    thm_upper_ref: float  # sqrt(2/pi) * q^(3/2), reference scale only


def compute_spectrum(plane: ProjectivePlane, pset: PointSet) -> SecantSpectrum:
    if pset.plane is not plane:
        raise ValueError("point set belongs to a different plane")
    kernel = _spectrum_affine if plane.field.k == 1 else _spectrum_gather
    return spectrum_from_counts(plane, pset.size, kernel(plane, pset.mask))


def spectrum_from_counts(plane, size, n_ell) -> SecantSpectrum:
    q, N = plane.q, plane.N
    hist = np.bincount(n_ell, minlength=q + 2)
    mode_k = int(hist.argmax())          # argmax returns the smallest maximizer
    return SecantSpectrum(
        q=q, N=N, s=size, n_ell=n_ell, histogram=hist,
        mu=Fraction(size * (q + 1), N),
        mode_k=mode_k, mode_count=int(hist[mode_k]))


def _spectrum_gather(plane, mask: np.ndarray) -> np.ndarray:
    return np.concatenate([mask[block].sum(axis=1, dtype=np.int64)
                           for block in plane.line_point_blocks()])


def _spectrum_affine(plane, mask: np.ndarray) -> np.ndarray:
    p, q, N = plane.field.p, plane.q, plane.N
    ax, ay, slope = plane.frame.coords_arrays()
    idx = np.flatnonzero(mask)
    sl = slope[idx]
    aff = idx[sl == -1]
    xs = ax[aff].astype(np.int64)
    ys = ay[aff].astype(np.int64)
    dir_in = np.zeros(q + 1, dtype=np.int64)
    dirs = sl[sl >= 0]
    dir_in[dirs] = 1

    n_ell = np.zeros(N, dtype=np.int64)
    n_ell[0] = int(dir_in.sum())
    b = np.arange(p, dtype=np.int64)
    # horizontal class y = b: line index 1 + enc(-b)
    ycnt = np.bincount(ys, minlength=p)
    n_ell[1 + (p - b) % p] = ycnt + dir_in[0]
    # vertical class x = c: line index q+1 + enc(-c)
    xcnt = np.bincount(xs, minlength=p)
    n_ell[q + 1 + (p - b) % p] = xcnt + dir_in[q]
    # slope-d classes: y = dx + b normalizes to [1, -1/d, b/d]
    inv = inverse_table(p)
    for d in range(1, p):
        cnt = np.bincount((ys - d * xs) % p, minlength=p)
        di = int(inv[d])
        rows = q + 1 + (p - di) * q + (b * di) % p
        n_ell[rows] = cnt + dir_in[d]
    return n_ell


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


def bounds_report(q: int, s: int) -> BoundsReport:
    """Evaluate the mode-frequency lower bounds at set size s.

    The general bound uses the 13N denominator of the counting argument
    (consistent with the universal N/sqrt(3q+13) form it specializes to).
    """
    N = q * q + q + 1
    if not 0 <= s <= N:
        raise ValueError(f"set size {s} out of range [0, {N}]")
    V = Fraction(q * s * (N - s), N)
    prop = N ** 1.5 / math.sqrt(12 * float(V) + 13 * N)
    cor = N / math.sqrt(3 * q + 13)
    thm_lower = q ** 1.5 / math.sqrt(3) - 3 * q
    thm_upper = math.sqrt(2 / math.pi) * q ** 1.5
    return BoundsReport(q=q, s=s, N=N, V=V, prop_bound=prop, cor_bound=cor,
                        thm_lower=thm_lower, thm_upper_ref=thm_upper)


def cor_bound_ceiling(q: int) -> int:
    """Smallest admissible mode count, the exact ceiling of N/sqrt(3q+13)."""
    N = q * q + q + 1
    d = 3 * q + 13
    m = math.isqrt(N * N // d)
    while m * m * d < N * N:
        m += 1
    return m
