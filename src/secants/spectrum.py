"""Secant-size spectra: per-line intersection counts with a point set,
their histogram, and the exact double-counting identities they satisfy.

A point set is a read-only boolean mask over the point indices.  Every
plane is counted with the finite Radon transform on the chart of the
points (1 : a : b), whose q x q grid is a view of the mask: the counts
along a parallel class are the inverse DFT of one slice of the DFT of the
grid (the Fourier slice theorem over GF(q), whose additive characters are
the characters of its base-p digit vectors), so all classes cost
O(q^2 log q) and no incidence is stored.  The counts stream out block by
block in chart order (`secant_count_blocks`), straight into the histogram
of a spectrum or of the curve scan, which also keeps each class's counts
by slope and intercept.  The transform is rounded to integers under an
explicit tolerance guard."""

from __future__ import annotations

import math

import numpy as np

from .plane import ProjectivePlane


def compute_spectrum(plane: ProjectivePlane, mask: np.ndarray, meta: dict) -> dict:
    """The `spectrum` document of the set with this bool membership mask
    over the N points: its histogram over every k in 0..q+1, the smallest k
    of largest count, the counting checks, the bounds and the set's meta.
    The per-line counts stream block by block into the histogram, so no
    array of all N counts is built."""
    if mask.dtype != bool or mask.shape != (plane.N,):
        raise ValueError(f"mask of {mask.dtype} and shape {mask.shape} "
                         f"for N={plane.N} points")
    hist = np.zeros(plane.q + 2, dtype=np.int64)
    for counts in secant_count_blocks(plane, mask):
        hist += np.bincount(counts, minlength=hist.size)
    return _spectrum_document(plane, mask, meta, hist)


def _spectrum_document(plane, mask: np.ndarray, meta: dict, hist: np.ndarray) -> dict:
    q, size = plane.q, int(np.count_nonzero(mask))
    mode_k = int(hist.argmax())          # argmax returns the smallest maximizer
    return {"q": q, "N": plane.N, "set_size": size,
            "histogram": [{"k": k, "count": c} for k, c in enumerate(hist.tolist())],
            "mode_k": mode_k, "mode_count": int(hist[mode_k]),
            "checks": verify_counting_identities(q, size, hist),
            "bounds": bounds_report(q, size),
            "meta": meta}


def secant_count_blocks(plane: ProjectivePlane, mask: np.ndarray):
    """The per-line counts |S ∩ line| of the set with this mask, yielded as
    int64 blocks in chart order: the q+1 lines through (0 : 0 : 1), first
    row a of the chart mask[q+1:].reshape(q, q) of the points (1 : a : b)
    with (0 : 0 : 1) for each a ([0 : 1 : 0], then [1 : -1/a : 0]), then
    x = 0; then each block of classes of affine_class_blocks, the count on
    [c : t : 1] at (t - lo)*q + c with its point (0 : 1 : -t) off the chart.
    Raises ArithmeticError unless the blocks count every line once."""
    F, q, N = plane.field, plane.q, plane.N
    grid = mask[q + 1:].reshape(q, q)                   # grid[a, b]: (1 : a : b)
    pencil = grid.sum(1, dtype=np.int64) + mask[0]
    yield np.append(pencil, mask[0] + np.count_nonzero(mask[1:q + 1]))
    ends = mask[1 + F.neg(np.arange(q, dtype=np.int64))]   # (0 : 1 : -t) by t
    lines = q + 1
    for lo, counts in affine_class_blocks(grid, F):     # [c : t : 1] at row t
        lines += counts.size
        if lines > N:
            break
        counts += ends[lo:lo + len(counts), None]
        yield counts.reshape(-1)
    if lines != N:
        raise ArithmeticError(f"the spectrum of PG(2,{q}) counted {lines} of its {N} lines")


# The finite Radon transform transforms this many grid entries (rows times
# columns) and inverts this many counts (classes times intercepts) at a
# time, in pairs of rows or classes, which bounds its temporaries at large q.
_RADON_BLOCK_ENTRIES = 1 << 16

# Largest distance from an integer that a packed transformed value may
# have.  Measured errors stay below 1e-8 up to p = 1999, so a value
# anywhere near this bound is a numerical fault, never a rounding choice.
_RADON_TOLERANCE = 1e-3


def affine_class_blocks(grid: np.ndarray, field):
    """Counts of a q x q membership grid along every parallel class of
    AG(2,q) but the rows, by the finite Radon transform over
    GF(q) = GF(p^k).

    Yields (lo, C) for consecutive blocks of classes, where C[i, c] counts
    the (r, s) with grid[r, s] set and s + t*r + c = 0 (field arithmetic),
    for t = lo + i.  Given grid[a, b], the chart of the points (1 : a : b),
    C[i, c] is the count on the chart of the line [c : t : 1] of PG(2,q).
    Reshaped to (p,)*k, each index has its base-p digits as axes, highest
    first.  With F the DFT of the grid over those 2k axes, the DFT of the
    class-t counts at the dual digit vector v is conj F[M_t^T v, v], where
    M_t is multiplication by t on digit vectors (column j holds the digits
    of t*p^j), so each class is one inverse FFT of a slice over the k
    intercept axes.  The rows M_t^T v come from one O(q) orbit table
    (_slice_index), with no digit products and no mod.  F is kept as the
    half-spectrum of the real rows: the lowest digit of v runs to p // 2
    only, and the slice reads that axis directly.

    Real data is packed.  The forward pass runs the rows r and r+1 as
    z = grid[r] + i*grid[r+1]; with Z the FFT of z, their spectra are
    (Z(v) + conj Z(-v))/2 and (Z(v) - conj Z(-v))/2i, where -v is the
    digit-wise negation.  F is filled in place one block of rows at a
    time, then one FFT over the r axes writes back into F, so no temporary
    is as large as F.  The inverse pass runs four classes per FFT: a count
    is at most q < B = 2^bitlen(q), so two classes are packed as
    count + B*count', and two such pairs as the real and the imaginary
    part of one spectrum, the conjugated slices on the half and the slices
    read at -v on the mirrored half (a reversed view at k = 1).  The
    rounded values are split with & (B-1) and >> bitlen(q).  Both passes
    work in blocks of about _RADON_BLOCK_ENTRIES entries, in pairs; a
    short group of four is padded with zero slices.
    Raises ArithmeticError when a packed value is more than
    _RADON_TOLERANCE from an integer."""
    p, k, q = field.p, field.k, field.q
    half = p // 2 + 1
    cols = q // p * half
    digits = (p,) * k
    shift = q.bit_length()
    neg = -np.arange(p) % p
    # the flat index of -v for each column v of the half-spectrum
    negcol = np.ravel_multi_index(np.ix_(*(neg,) * (k - 1), neg[:half]), digits).ravel()
    # rows or classes per block, in pairs, and never more than q needs
    step = min(2 * max(1, _RADON_BLOCK_ENTRIES // (2 * q)), q + q % 2)
    packed = np.empty((step // 2, q), dtype=complex)   # z, then the packed spectra
    halves = np.empty((step + step % 4, cols), dtype=complex)  # Z(-v), then slices
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
    slice_index = _slice_index(field, cols)
    flat = F.reshape(-1)
    for lo in range(0, q, step):
        t = np.arange(lo, min(lo + step, q), dtype=np.int64)
        idx = slice_index(t)
        n = -(-t.size // 4)
        S = halves[:4 * n]
        np.take(flat, idx, out=S[:t.size])
        S[t.size:] = 0
        # S[j, g] is the slice of the class lo + j*n + g; pack j = 0, 2 and 1, 3
        S = S.reshape(4, n, *digits[:-1], half)
        np.multiply(S[2:], 1 << shift, out=S[2:])
        np.add(S[:2], S[2:], out=S[:2])
        a, b = S[0], S[1]
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
        x = x.view(float).reshape(n, q, 2)    # [..., 0]: packed j = 0, 2; [..., 1]: 1, 3
        rounded = np.rint(x)
        err = float(np.abs(np.subtract(x, rounded, out=x), out=x).max())
        if err > _RADON_TOLERANCE:
            raise ArithmeticError(
                f"finite Radon transform at q={q} is {err:.3g} off an integer count")
        rounded = rounded.astype(np.int64).transpose(2, 0, 1)
        counts = np.empty((4, n, q), dtype=np.int64)
        np.bitwise_and(rounded, (1 << shift) - 1, out=counts[:2])
        np.right_shift(rounded, shift, out=counts[2:])
        yield lo, counts.reshape(4 * n, q)[:t.size]


def _slice_index(field, cols: int):
    """index(t): for an array t of classes, the (len(t), cols) flat index
    u*cols + col of F[M_t^T v, v] in the (q, cols) half-spectrum F of
    affine_class_blocks, v the dual digit vector of column col.

    With g the generator of GF(q)^* of the field's exp/log tables, for
    every q, M_{g^c} is M_g to the c, so M_{g^c}^T = A^c for A = M_g^T,
    and A, conjugate to M_g, is transitive on the nonzero digit vectors.
    So M_t^T v = orbit[log t + pos v], where orbit[c] = A^c e_0 (digit j
    of it is digit 0 of g^c * p^j), stored as its row offset u*cols, and
    pos is its inverse.
    Both carry the zero sentinel of the field's tables: log 0 = pos 0 =
    2(q-1), and orbit is zero from that index on.  The tables take O(q);
    each block of classes is one add, one gather and one more add."""
    p, k, q = field.p, field.k, field.q
    exp, log = field._tables
    c = np.arange(q - 1)
    codes = sum(exp[(c + log[p ** j]) % (q - 1)] % p * p ** j for j in range(k))
    orbit = np.zeros(4 * (q - 1) + 1, dtype=np.int64)
    orbit[:2 * (q - 1)] = np.tile(codes * cols, 2)
    pos = np.empty(q, dtype=np.int64)
    pos[codes] = c
    pos[0] = 2 * (q - 1)
    half = p // 2 + 1
    col = np.arange(cols)
    # the encoding of each column's v: its lowest digit is the halved axis
    pos_v = pos[col % half + p * (col // half)]

    def index(t):
        idx = orbit[log[t][:, None] + pos_v]
        idx += col
        return idx
    return index


def verify_counting_identities(q: int, s: int, hist) -> dict:
    """The `checks` object of the spectrum document: whether the secant-size
    histogram h of a set of size s (h[k] lines meet it in k points)
    satisfies, in exact integer arithmetic, the standard equations
    Σk·h_k = s(q+1) (eq1) and Σk(k-1)·h_k = s(s-1) (eq2), and the
    cleared-denominator variance identity N·Σk²h_k - (Σk·h_k)² = q*s*(N - s)
    (var).  O(q), with no N-sized temporary."""
    N = q * q + q + 1
    h = [int(c) for c in hist]
    sum_n = sum(k * c for k, c in enumerate(h))
    sum_n2 = sum(k * k * c for k, c in enumerate(h))
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
