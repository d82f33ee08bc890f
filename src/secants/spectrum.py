"""Secant-size spectra: per-line intersection counts with a point set,
their histogram, and the exact double-counting identities they satisfy.

A point set is a read-only boolean mask over the point indices.  Every
plane is counted the same way, through the affine chart with the finite
Radon transform: the counts along a parallel class are the inverse DFT
of one slice of the DFT of the q x q membership grid (the Fourier slice
theorem over GF(q), whose additive characters are the characters of its
base-p digit vectors), so all classes cost O(q^2 log q) and no incidence
is stored.  The classes come in the order of the line indices, so each
fills one contiguous slab of the counts, and the real transforms run two
to one complex FFT.  The transform is rounded to integers under an
explicit tolerance guard."""

from __future__ import annotations

import math

import numpy as np

from .field import _decode_digits
from .plane import ProjectivePlane


def compute_spectrum(plane: ProjectivePlane, mask: np.ndarray, meta: dict):
    """(document, n_ell): the `spectrum` document of the set with this bool
    membership mask over the N points, with its histogram over every k in
    0..q+1, the smallest k of largest count, the counting checks, the
    bounds and the set's meta, and the int64 array of the per-line counts
    n_ell[i] = |S ∩ line i|."""
    if mask.dtype != bool or mask.shape != (plane.N,):
        raise ValueError(f"mask of {mask.dtype} and shape {mask.shape} "
                         f"for N={plane.N} points")
    q, size = plane.q, int(np.count_nonzero(mask))
    n_ell = _spectrum_affine(plane, mask)
    hist = np.bincount(n_ell, minlength=q + 2)
    mode_k = int(hist.argmax())          # argmax returns the smallest maximizer
    return {"q": q, "N": plane.N, "set_size": size,
            "histogram": [{"k": k, "count": c} for k, c in enumerate(hist.tolist())],
            "mode_k": mode_k, "mode_count": int(hist[mode_k]),
            "checks": verify_counting_identities(q, size, n_ell),
            "bounds": bounds_report(q, size),
            "meta": meta}, n_ell


def _spectrum_affine(plane, mask: np.ndarray) -> np.ndarray:
    F, q, N = plane.field, plane.q, plane.N
    grid = mask.take(plane.affine_points().T)           # grid[y, x]: (x : y : 1)
    at_inf = mask[q + 1::q]                             # (1 : y : 0) by y
    n_ell = np.empty(N, dtype=np.int64)
    n_ell[0] = mask[1] + at_inf.sum()                   # z = 0
    c = np.arange(q, dtype=np.int64)
    n_ell[1:q + 1] = grid.sum(1)[F.neg(c)] + at_inf[0]  # [0 : 1 : c]: y = -c
    # class t meets z = 0 at (-t : 1 : 0): (0 : 1 : 0), then (1 : -1/t : 0)
    ends = np.concatenate([mask[1:2], at_inf[F.neg(F.inv(c[1:]))]])
    slabs = n_ell[q + 1:].reshape(q, q)                 # [1 : t : c] at row t
    for lo, counts in affine_class_blocks(grid, F):
        hi = lo + len(counts)
        np.add(counts, ends[lo:hi, None], out=slabs[lo:hi])
    return n_ell


# The finite Radon transform transforms this many grid entries (rows times
# columns) and inverts this many counts (classes times intercepts) at a
# time, in pairs of rows or classes, which bounds its temporaries at large q.
_RADON_BLOCK_ENTRIES = 1 << 16

# Largest distance from an integer that a transformed count may have.
# Measured rounding errors stay below 3e-12 up to p = 1999, so a value
# anywhere near this bound is a numerical fault, never a rounding choice.
_RADON_TOLERANCE = 1e-3


def affine_class_blocks(grid: np.ndarray, field):
    """Counts of a q x q membership grid along every parallel class of
    AG(2,q) but the rows, by the finite Radon transform over
    GF(q) = GF(p^k).

    Yields (lo, C) for consecutive blocks of classes, where C[i, c] counts
    the (r, s) with grid[r, s] set and s + t*r + c = 0 (field arithmetic),
    for t = lo + i.  Given grid[y, x], the transposed affine chart, C[i, c]
    is the count on the line [1 : t : c] of PG(2,q), so the rows of C come
    in the order of the line indices.  Reshaped to (p,)*k, each index has
    its base-p digits as axes, highest first.  With F the DFT of the grid
    over those 2k axes, the DFT of the class-t counts at the dual digit
    vector v is conj F[M_t^T v, v], where M_t is multiplication by t on
    digit vectors (column j holds the digits of t*p^j), so each class is
    one inverse FFT of a slice over the k intercept axes.  F is kept as
    the half-spectrum of the real rows: the lowest digit of v runs to
    p // 2 only, and the slice reads that axis directly.

    Real data goes through the transforms two at a time.  The forward pass
    packs the rows r and r+1 as z = grid[r] + i*grid[r+1]; with Z the FFT
    of z, their spectra are (Z(v) + conj Z(-v))/2 and (Z(v) - conj Z(-v))/2i,
    where -v is the digit-wise negation.  F is filled in place one block of
    rows at a time, then one FFT over the r axes writes back into F, so no
    temporary is as large as F.  The inverse pass packs the classes t and
    t+1 as the real and the imaginary part of one spectrum: on the half it
    takes the conjugated slices, and on the mirrored half, at -v, the
    slices themselves, read reversed (a reversed view at k = 1).  Both
    passes work in blocks of about _RADON_BLOCK_ENTRIES entries, in pairs;
    the last row or class of an odd block is packed with zeros.
    Raises ArithmeticError when a transformed count is more than
    _RADON_TOLERANCE from an integer."""
    p, k, q = field.p, field.k, field.q
    half = p // 2 + 1
    cols = q // p * half
    digits = (p,) * k
    neg = -np.arange(p) % p
    # the flat index of -v for each column v of the half-spectrum
    negcol = np.ravel_multi_index(np.ix_(*(neg,) * (k - 1), neg[:half]), digits).ravel()
    # rows or classes per block, in pairs, and never more than q needs
    step = min(2 * max(1, _RADON_BLOCK_ENTRIES // (2 * q)), q + q % 2)
    packed = np.empty((step // 2, q), dtype=complex)   # z, then the class pair spectra
    halves = np.empty((step, cols), dtype=complex)     # Z(-v), then the class slices
    F = np.empty((q, cols), dtype=complex)             # rows: encoded u; columns: v
    Fv = F.reshape(q, -1, half)
    for lo in range(0, q, step):
        rows = grid[lo:lo + step]
        n = len(rows) // 2
        z = packed[:len(rows) - n]
        # z = (grid[r] + i*grid[r+1]) / 2, so the split below needs no halving
        np.multiply(rows[0::2], 0.5, out=z.real)
        np.multiply(rows[1::2], 0.5, out=z.imag[:n])
        z.imag[n:] = 0
        Z = z.reshape(-1, *digits)
        Z = np.fft.fftn(Z, axes=range(1, k + 1), out=Z).reshape(len(z), q)
        P = Z.reshape(len(z), -1, p)[..., :half]                            # Z(v)
        M = np.take(Z, negcol, axis=1, out=halves[:len(z)]).reshape(P.shape)  # Z(-v)
        Fe, Fo = Fv[lo:lo + step:2], Fv[lo + 1:lo + step:2]
        np.add(P.real, M.real, out=Fe.real)
        np.subtract(P.imag, M.imag, out=Fe.imag)
        np.add(P.imag[:n], M.imag[:n], out=Fo.real)
        np.subtract(M.real[:n], P.real[:n], out=Fo.imag)
    Fx = F.reshape(*digits, -1)
    np.fft.fftn(Fx, axes=range(k), out=Fx)
    col = np.arange(cols)
    # digits of each column's v, lowest (the halved axis) first
    v = np.column_stack([col % half, _decode_digits(col // half, p, k - 1)])
    powers = p ** np.arange(k)
    flat = F.reshape(-1)
    for lo in range(0, q, step):
        t = np.arange(lo, min(lo + step, q), dtype=np.int64)
        MT = _decode_digits(field.mul(t[:, None], powers), p, k)    # MT[i] = M_t^T
        u = ((MT @ v.T % p) * powers[:, None]).sum(axis=1)
        n = -(-t.size // 2)
        S = halves[:2 * n]
        np.take(flat, u * cols + col, out=S[:t.size])
        S[t.size:] = 0
        S = S.reshape(n, 2, *digits[:-1], half)
        a, b = S[:, 0], S[:, 1]               # the slices of t and t+1, on the half
        W = packed[:n].reshape(n, *digits)
        # conj a + i conj b on the half ...
        np.add(a.real, b.imag, out=W.real[..., :half])
        np.subtract(b.real, a.imag, out=W.imag[..., :half])
        # ... and a + i b, read at -v, on the mirrored half
        a, b = a[..., p - half:0:-1], b[..., p - half:0:-1]
        for axis in range(1, k):
            a, b = a.take(neg, axis=axis), b.take(neg, axis=axis)
        np.subtract(a.real, b.imag, out=W.real[..., half:])
        np.add(a.imag, b.real, out=W.imag[..., half:])
        x = np.fft.ifftn(W, axes=range(1, k + 1), out=W).reshape(n, q)
        x = x.view(float).reshape(n, q, 2)    # [..., 0]: class t, [..., 1]: t+1
        counts = np.rint(x)
        err = float(np.abs(np.subtract(x, counts, out=x), out=x).max())
        if err > _RADON_TOLERANCE:
            raise ArithmeticError(
                f"finite Radon transform at q={q} is {err:.3g} off an integer count")
        counts = counts.transpose(0, 2, 1).astype(np.int64, order="C")
        yield lo, counts.reshape(2 * n, q)[:t.size]


def verify_counting_identities(q: int, s: int, n_ell: np.ndarray) -> dict:
    """The `checks` object of the spectrum document: whether the per-line
    counts of a set of size s satisfy, in exact integer arithmetic, the
    standard equations (eq1, eq2) and the cleared-denominator variance
    identity N*Σn² - (Σn)² = q*s*(N - s) (var)."""
    N = q * q + q + 1
    sum_n = int(n_ell.sum())
    sum_n2 = int((n_ell * n_ell).sum())
    return {"eq1": sum_n == s * (q + 1),
            "eq2": sum_n2 - sum_n == s * (s - 1),
            "var": N * sum_n2 - sum_n * sum_n == q * s * (N - s)}


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
