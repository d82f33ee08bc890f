"""Weierstrass curves over F_p counted by direct character sums, and
the correspondence between secants of the cubic-square region and curve
point counts.

A single curve is counted by the O(p) sum 1 + sum_x (1 + chi(x^3 + a*x + b)),
trivially auditable against direct (x, y) enumeration.  The region scan
counts all p^2 curves Y^2 = X^3 + t*X + c in O(p^2), one block of classes t
at a time.  The character sums S(t, c) = sum_x chi(x^3 + t*x + c) are
taken directly for three classes, t0 = 0, 1 and the least non-square g,
grouped by value: one histogram of x^3 + t0*x per class times the circulant
of chi(v + c), a block of intercepts at a time.  Every other class is
t = t0*lam^2, and the change of variables x = lam*y gives
S(t, c) = chi(lam) * S(t0, lam^-3 * c), so its row is a gather from one of
the three.  The curve counts never pass through a transform, so they stay
independent of the region's secant sizes they are checked against.  Those
are read from the spectrum's block stream, with the region written on the
spectrum's chart: (x, v) at the point (1 : x : v).  That is the affine
region moved by the collineation (X : Y : Z) -> (Z : X : Y), which keeps
every secant size.  Row t, column c of a class block of the stream is the
line [c : t : 1], that is v = -t*x - c.  Off the singular locus
4t^3 + 27c^2 = 0, its secant size n and the root count Z of X^3 + t*X + c
tie the curve Y^2 = X^3 + t*X + c to the line via  |E| = 2n + 1 - Z.
The p singular curves are (t, c) = (-3r^2, 2r^3) for r in F_p, so the
scan marks them from that list, not by evaluating the cubic at every
(t, c)."""

from __future__ import annotations

import math

import numpy as np

from .construct import ec_grid, require_prime_plane
from .field import inverse_table, is_prime, legendre_table
from .plane import _SOLVE_BLOCK_ENTRIES, ProjectivePlane
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
    """rows(t): for an array t of classes, (counts, roots), two (len(t), p)
    int64 arrays over t and the intercepts c: counts[i, c] = |E| of
    Y^2 = X^3 + t[i]*X + c, singular curves included, and roots[i, c] the
    number of roots of X^3 + t[i]*X + c.  Every count is a direct
    character sum, never a transform."""
    chi = legendre_table(p).astype(np.int64)
    x = c = np.arange(p, dtype=np.int64)
    cube = x * x % p * x % p

    # sums[i, c] = S(t0, c) for t0 = 0, 1, g, grouped by value: the values
    # v = x^3 + t0*x run over the rows of the circulant of chi(v + c), a
    # block of intercepts at a time.  Each t is t0*lam^2, and
    # counts[t, c] = p + 1 + chi(lam) * S(t0, lam^-3 * c), a gather
    g = int(np.argmax(chi == -1))
    hist = np.stack([np.bincount((cube + t0 * x) % p, minlength=p) for t0 in (0, 1, g)])
    intercepts = np.array_split(c, p * p // _SOLVE_BLOCK_ENTRIES + 1)
    sums = np.concatenate([hist @ chi[(x[:, None] + cs) % p] for cs in intercepts], 1)
    row = chi % 3                       # the row of t0: chi(t) = 0, 1, -1 to 0, 1, 2
    mu = np.ones(p, dtype=np.int64)               # 1 / lam for each t = t0*lam^2
    mu[x[1:] ** 2 % p] = mu[g * (x[1:] ** 2 % p) % p] = inverse_table(p)[1:]
    mu3 = mu * mu % p * mu % p

    def rows(t):
        t = t[:, None]
        counts = p + 1 + chi[mu[t]] * sums[row[t], mu3[t] * c % p]
        # roots[i, c] = #{x : -x^3 - t[i]*x = c}, one bincount for the block
        vals = (-cube - t * x % p) % p + p * np.arange(len(t))[:, None]
        roots = np.bincount(vals.ravel(), minlength=vals.size).reshape(-1, p)
        return counts, roots
    return rows


def _singular_lines(p: int):
    """(t, c), two int64 arrays of length p: the p singular curves
    Y^2 = X^3 + t*X + c over F_p, p > 3, where 4t^3 + 27c^2 = 0, as
    (t, c) = (-3r^2, 2r^3) for r in F_p.  No pair repeats, since r = 0 is
    the only r at t = 0 and r = -3c/(2t) elsewhere."""
    r = np.arange(p, dtype=np.int64)
    r2 = r * r % p
    return -3 * r2 % p, 2 * (r2 * r % p) % p


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
    rows = _curve_counts(p)
    singular_t, singular_c = _singular_lines(p)
    violations = skipped_singular = lo = 0
    # row t, column c of a class block is [c : t : 1], the line v = -t*x - c,
    # and its secant size n, curve count and root count sit at [t, c]
    for block in blocks:
        hist += np.bincount(block, minlength=p + 2)
        n = block.reshape(-1, p)
        counts, roots = rows(np.arange(lo, lo + len(n), dtype=np.int64))
        wrong = counts != 2 * n + 1 - roots
        # the singular curves of this block's classes are not checked
        here = (singular_t >= lo) & (singular_t < lo + len(n))
        wrong[singular_t[here] - lo, singular_c[here]] = False
        skipped_singular += int(np.count_nonzero(here))
        violations += int(np.count_nonzero(wrong))
        lo += len(n)
    spec = _spectrum_document(plane, mask, None, hist)
    mode_count, ceiling = spec["mode_count"], cor_bound_ceiling(p)

    ratio_scale = p ** 1.5 * math.log(p) * math.log(math.log(p)) ** 2
    return {
        "p": p,
        "set_size": spec["set_size"],
        "histogram": [e for e in spec["histogram"] if e["count"]],
        "mode_k": spec["mode_k"],
        "mode_count": mode_count,
        "relation_violations": violations,
        "checked_lines": p * p - skipped_singular,
        "skipped_lines": p + skipped_singular,
        "skipped_vertical": p,
        "skipped_singular": skipped_singular,
        # mode_count / (p^1.5 * ln p * (ln ln p)^2)
        "mode_ratio": mode_count / ratio_scale,
        "cor_ceiling": ceiling,
    }, violations == 0 and all(spec["checks"].values()) and mode_count >= ceiling
