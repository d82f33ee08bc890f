"""Weierstrass curves over F_p counted by direct character sums, and
the correspondence between secants of the cubic-square region and curve
point counts.

A single curve is counted by the O(p) sum 1 + sum_x (1 + chi(x^3 + a*x + b)),
trivially auditable against direct (x, y) enumeration.  The region scan
takes the same direct sums for every line at once, grouped by value: one
histogram of x^3 - m*x per slope m, multiplied by the circulant table of
chi(v - b).  The curve counts never pass through a transform, so they stay
independent of the region's secant sizes they are checked against.  For a
non-vertical line v = m*x + b that avoids the singular locus, the region's
secant size n and the root count Z of X^3 - m*X - b tie the curve
Y^2 = X^3 - m*X - b to the line via  |E| = 2n + 1 - Z."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .construct import ec_region, require_prime_plane
from .field import is_prime, legendre_table
from .plane import ProjectivePlane
from .spectrum import SecantSpectrum, compute_spectrum, cor_bound_ceiling


class CurveError(ValueError):
    pass


@dataclass
class Curve:
    """Y^2 = X^3 + aX + b over F_p with its point count and trace."""

    p: int
    a: int
    b: int
    count: int
    trace: int

    @property
    def hasse_ok(self) -> bool:
        return self.trace * self.trace <= 4 * self.p


@dataclass
class EcScanReport:
    p: int
    set_size: int
    spectrum: SecantSpectrum
    checked_lines: int
    relation_violations: int
    skipped_vertical: int
    skipped_singular: int
    mode_ratio: float        # mode_count / (p^1.5 * ln p * (ln ln p)^2)
    cor_ceiling: int

    @property
    def skipped_lines(self) -> int:
        return self.skipped_vertical + self.skipped_singular

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "set_size": self.set_size,
            "histogram": [{"k": k, "count": int(c)}
                          for k, c in enumerate(self.spectrum.histogram) if c],
            "mode_k": self.spectrum.mode_k,
            "mode_count": self.spectrum.mode_count,
            "relation_violations": self.relation_violations,
            "checked_lines": self.checked_lines,
            "skipped_lines": self.skipped_lines,
            "skipped_vertical": self.skipped_vertical,
            "skipped_singular": self.skipped_singular,
            "mode_ratio": self.mode_ratio,
            "cor_ceiling": self.cor_ceiling,
        }


def curve_count(p: int, a: int, b: int) -> Curve:
    """Point count over F_p including the point at infinity."""
    if not is_prime(p) or p <= 3:
        raise CurveError(f"requires a prime p > 3, got {p}")
    a %= p
    b %= p
    if (4 * a * a * a + 27 * b * b) % p == 0:
        raise CurveError("singular curve")
    chi = legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    total = p + 1 + int(chi[((x * x + a) % p * x + b) % p].sum())   # int64 terms < p^2
    return Curve(p=p, a=a, b=b, count=total, trace=p + 1 - total)


def ec_spectrum_scan(plane: ProjectivePlane) -> EcScanReport:
    """Full secant spectrum of the cubic-square region, with the
    line-curve relation verified on every non-vertical nonsingular line."""
    p = require_prime_plane(plane, 3)
    region = ec_region(plane)
    spec = compute_spectrum(plane, region)

    chi = legendre_table(p).astype(np.int64)
    m = np.arange(p, dtype=np.int64)
    b = np.arange(p, dtype=np.int64)
    x = np.arange(p, dtype=np.int64)

    # roots[m, v] = #{x : x^3 - m*x = v}, so roots[m, b] is the root count Z
    # of x^3 - m*x - b, and the curve count p + 1 + sum_x chi(x^3 - m*x - b)
    # is the same direct sum grouped by value: p + 1 + sum_v roots[m, v] *
    # chi(v - b), with the values v running over the rows of the circulant
    vals = (x ** 3 - m[:, None] * x) % p                        # [m, x]
    roots = np.bincount((m[:, None] * p + vals).ravel(),
                        minlength=p * p).reshape(p, p)
    counts = p + 1 + roots @ chi[(x[:, None] - b) % p]          # [v, b]

    # secant sizes of the lines v = m*x + b, read off the spectrum
    n_mat = spec.n_ell[plane.affine_lines()]

    singular = (27 * b[None, :] ** 2 - 4 * m[:, None] ** 3) % p == 0
    holds = counts == 2 * n_mat + 1 - roots
    violations = int((~holds & ~singular).sum())
    checked = int((~singular).sum())

    ratio_scale = p ** 1.5 * math.log(p) * math.log(math.log(p)) ** 2
    return EcScanReport(
        p=p, set_size=region.size, spectrum=spec,
        checked_lines=checked, relation_violations=violations,
        skipped_vertical=p, skipped_singular=int(singular.sum()),
        mode_ratio=spec.mode_count / ratio_scale,
        cor_ceiling=cor_bound_ceiling(p))

