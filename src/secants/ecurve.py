"""Weierstrass curves over F_p counted by direct character sums, and
the correspondence between secants of the cubic-square region and curve
point counts.

A single curve is counted by the O(p) sum 1 + sum_x (1 + chi(x^3 + a*x + b)),
trivially auditable against direct (x, y) enumeration.  The region scan
counts all p^2 curves Y^2 = X^3 - m*X - b in O(p^2).  The character sums
S(m, b) = sum_x chi(x^3 - m*x - b) are taken directly for three slopes,
m0 = 0, 1 and the least non-square g, grouped by value: one histogram of
x^3 - m0*x per slope times the circulant table of chi(v - b).  Every other
slope is m = m0*lam^2, and the change of variables x = lam*y gives
S(m, lam^3*b) = chi(lam) * S(m0, b), so its row is a scatter of one of the
three.  The curve counts never pass through a transform, so they stay
independent of the region's secant sizes they are checked against.  Those
are read from the spectrum's block stream, with the region written on the
spectrum's chart: (x, v) at the point (1 : x : v).  That is the affine
region moved by the collineation (X : Y : Z) -> (Z : X : Y), which keeps
every secant size, and it makes each parallel class of the stream the
lines v = m*x + b of one slope m.  For a non-vertical line v = m*x + b
that avoids the singular locus, the region's secant size n and the root
count Z of X^3 - m*X - b tie the curve Y^2 = X^3 - m*X - b to the line
via  |E| = 2n + 1 - Z."""

from __future__ import annotations

import math

import numpy as np

from .construct import ec_grid, require_prime_plane
from .field import is_prime, legendre_table
from .plane import ProjectivePlane
from .spectrum import _spectrum_document, cor_bound_ceiling, secant_count_blocks


class CurveError(ValueError):
    pass


def curve_count(p: int, a: int, b: int) -> dict:
    """The `ec count` document of Y^2 = X^3 + aX + b over F_p: its point
    count including the point at infinity, its trace and the Hasse check."""
    if not is_prime(p) or p <= 3:
        raise CurveError(f"requires a prime p > 3, got {p}")
    if (4 * pow(a, 3, p) + 27 * pow(b, 2, p)) % p == 0:
        raise CurveError(f"singular curve: 4a^3 + 27b^2 = 0 mod {p} at a={a}, b={b}")
    a %= p
    b %= p
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    total = p + 1 + int(chi[((x * x + a) % p * x + b) % p].sum())   # int64 terms < p^2
    trace = p + 1 - total
    return {"p": p, "a": a, "b": b, "count": total, "trace": trace,
            "hasse_ok": trace * trace <= 4 * p}


def _curve_counts(p: int):
    """(counts, roots), two (p, p) int64 tables over the slopes m and the
    intercepts b: counts[m, b] = |E| of Y^2 = X^3 - m*X - b, singular
    curves included, and roots[m, b] the number of roots of X^3 - m*X - b.
    Every count is a direct character sum, never a transform."""
    chi = legendre_table(p).astype(np.int64)
    x = m = b = np.arange(p, dtype=np.int64)

    # roots[m, v] = #{x : x^3 - m*x = v}, so roots[m, b] is the root count Z
    # of x^3 - m*x - b
    vals = (x * x % p * x - m[:, None] * x) % p                  # [m, x]
    roots = np.bincount((m[:, None] * p + vals).ravel(),
                        minlength=p * p).reshape(p, p)

    # sums[i, b] = S(m0, b) for m0 = 0, 1, g, grouped by value: the values
    # v run over the rows of the circulant of chi(v - b).  Each m is
    # m0*lam^2, and counts[m, lam^3*b] = p + 1 + chi(lam) * S(m0, b)
    g = int(np.argmax(chi == -1))
    sums = roots[[0, 1, g]] @ chi[(x[:, None] - b) % p]          # [m0, b]
    row = np.where(chi == 1, 1, 2)                # the row of m0 for each m
    row[0] = 0
    sqrt = np.zeros(p, dtype=np.int64)
    sqrt[x * x % p] = x                           # a square root of each square
    lam = sqrt[m * np.array([1, 1, pow(g, -1, p)])[row] % p]
    lam[0] = 1
    lam3 = lam * lam % p * lam % p
    counts = np.empty((p, p), dtype=np.int64)
    counts[m[:, None], lam3[:, None] * b % p] = p + 1 + chi[lam][:, None] * sums[row]
    return counts, roots


def ec_spectrum_scan(plane: ProjectivePlane):
    """(document, ok): the `ec scan` document of the cubic-square region's
    full secant spectrum, with the line-curve relation verified on every
    non-vertical nonsingular line, and whether the relation, the counting
    identities and the cor ceiling all hold."""
    p = require_prime_plane(plane, 3)
    # the region on the spectrum's chart: (x, v) at the point (1 : x : v)
    mask = np.zeros(plane.N, dtype=bool)
    mask[p + 1:] = ec_grid(plane).ravel()
    blocks = secant_count_blocks(plane, mask)
    # the verticals x = a and the image of z = 0
    hist = np.bincount(next(blocks), minlength=p + 2)
    # n_mat[m, b]: the secant size of the line v = m*x + b; row t, column c
    # of a class block is [c : t : 1], the line v = -t*x - c
    n_mat = np.empty((p, p), dtype=np.int64)
    neg = -np.arange(p) % p
    t = 0
    for block in blocks:
        hist += np.bincount(block, minlength=p + 2)
        block = block.reshape(-1, p)
        n_mat[neg[t:t + len(block)]] = block[:, neg]
        t += len(block)
    spec = _spectrum_document(plane, mask, None, hist)
    del block, neg, hist     # only n_mat is kept through the curve counts

    counts, roots = _curve_counts(p)

    m = b = np.arange(p, dtype=np.int64)
    singular = (27 * b[None, :] ** 2 - 4 * m[:, None] ** 3) % p == 0
    holds = counts == 2 * n_mat + 1 - roots
    skipped_singular = int(singular.sum())
    violations = int((~holds & ~singular).sum())
    mode_count, ceiling = spec["mode_count"], cor_bound_ceiling(p)

    ratio_scale = p ** 1.5 * math.log(p) * math.log(math.log(p)) ** 2
    return {
        "p": p,
        "set_size": spec["set_size"],
        "histogram": [e for e in spec["histogram"] if e["count"]],
        "mode_k": spec["mode_k"],
        "mode_count": mode_count,
        "relation_violations": violations,
        "checked_lines": int((~singular).sum()),
        "skipped_lines": p + skipped_singular,
        "skipped_vertical": p,
        "skipped_singular": skipped_singular,
        # mode_count / (p^1.5 * ln p * (ln ln p)^2)
        "mode_ratio": mode_count / ratio_scale,
        "cor_ceiling": ceiling,
    }, violations == 0 and all(spec["checks"].values()) and mode_count >= ceiling
