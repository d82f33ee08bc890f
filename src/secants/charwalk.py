"""Quadratic-character walks and projection profiles of the under-parabola
region.

The walk tracks prefix sums of the Legendre symbol along consecutive
integers.
For the region under y = alpha*x^2 + beta*x + gamma, the profile of a
parallel class maps each intercept b to the secant size of y = dx + b.
Every class is counted exactly by one O(p) difference array over the
points of its lines, and the slope-1 profile is the reference that L3-L5
compare against.  Each law is checked against the character formula, so
the verified laws below are genuine checks, not restatements:

  L1  step law: pr_d(b+1) - pr_d(b) = chi((beta-d)^2 + 4*alpha*(b-gamma)),
      including the wrap at b = p-1 (this is the form that holds exactly
      under the strict integer-lift order; the sign-flipped d-free variant
      -chi((beta-1)^2 + 4*alpha*(b+1-gamma)) is evaluated alongside for
      comparison and reported, never asserted);
  L2  steps have absolute value <= 1 and the attained values form an
      integer interval;
  L3  every slope's profile is a cyclic shift of the slope-1 profile;
  L4  the number of non-vertical non-horizontal affine k-secants equals
      (p-1) * #{b : pr_1(b) = k};
  L5  the attained interval has length between sqrt(p)/(2*pi) and
      sqrt(p)*ln(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .construct import ParabolaParams, under_parabola
from .field import legendre_table
from .plane import ProjectivePlane


@dataclass
class LevelStats:
    """Occupancy statistics of a walk: how often each level is visited."""

    p: int
    counts: dict            # level -> number of t with walk[t] == level
    zero_count: int
    max_level_count: int
    range: int              # max - min of the visited levels
    range_within_sqrt_log: bool    # range <= sqrt(p) * ln(p)
    zeros_within_sqrt_log2: bool   # zero_count <= sqrt(p) * ln(p)^2


@dataclass
class LawReport:
    p: int
    params: ParabolaParams
    l1_ok: bool = False
    l2_ok: bool = False
    l3_ok: bool = False
    l4_ok: bool = False
    l5_ok: bool = False
    l1_first_fail: tuple | None = None     # (d, b)
    l2_first_fail: int | None = None       # d
    l3_shifts: list = field(default_factory=list)
    l4_first_fail: int | None = None       # k
    step_law: str = ""
    d_free_variant: str = ""
    d_free_match_fraction: float = 0.0
    range_d1: int = 0
    range_lo: float = 0.0
    range_hi: float = 0.0

    @property
    def all_ok(self) -> bool:
        return self.l1_ok and self.l2_ok and self.l3_ok and self.l4_ok and self.l5_ok

    def as_dict(self) -> dict:
        return {
            "p": self.p,
            "params": {"alpha": self.params.alpha, "beta": self.params.beta,
                       "gamma": self.params.gamma},
            "laws": {"L1": self.l1_ok, "L2": self.l2_ok, "L3": self.l3_ok,
                     "L4": self.l4_ok, "L5": self.l5_ok},
            "l1_first_fail": self.l1_first_fail,
            "l2_first_fail": self.l2_first_fail,
            "l4_first_fail": self.l4_first_fail,
            "shifts": self.l3_shifts,
            "step_law": self.step_law,
            "d_free_variant": self.d_free_variant,
            "d_free_match_fraction": self.d_free_match_fraction,
            "range_d1": self.range_d1,
            "range_bounds": [self.range_lo, self.range_hi],
            "all_ok": self.all_ok,
        }


def psi_walk(p: int, a: int) -> np.ndarray:
    """Prefix sums of the quadratic character from a: walk[t] =
    sum_{j<=t} chi(a+j), t in [0, p-1]."""
    chi = legendre_table(p)             # rejects p that is not an odd prime
    steps = chi[(a % p + np.arange(p, dtype=np.int64)) % p]   # any int a, no int64 wrap
    return np.cumsum(steps, dtype=np.int64)


def level_stats(walk: np.ndarray) -> LevelStats:
    """Occupancy of the walk's levels, counted by one bincount over the
    visited range [min, max]; p is the walk's length."""
    p = walk.size
    lo, hi = int(walk.min()), int(walk.max())
    visits = np.bincount(walk - lo).tolist()
    counts = {lo + i: c for i, c in enumerate(visits) if c}
    zeros = counts.get(0, 0)
    sq = math.sqrt(p)
    ln = math.log(p)
    return LevelStats(
        p=p, counts=counts, zero_count=zeros,
        max_level_count=max(visits), range=hi - lo,
        range_within_sqrt_log=hi - lo <= sq * ln,
        zeros_within_sqrt_log2=zeros <= sq * ln * ln)


def projection_profile(plane: ProjectivePlane, params: ParabolaParams, d: int) -> np.ndarray:
    """Profile of the slope-d class by direct counting over x: pr[b] =
    |S ∩ {y = dx + b}|."""
    params, f = under_parabola(plane, params)
    d %= f.size
    if d == 0:
        raise ValueError("horizontal slope excluded")
    return _direct_profile(f, d)


def _direct_profile(f: np.ndarray, d: int) -> np.ndarray:
    """pr[b] for the slope d: the b with (d*x + b) mod p > f(x) are
    p-1-f(x) cyclic steps from (f(x)+1-d*x) mod p, summed by one difference
    array over two turns of the circle."""
    p = f.size
    start = (f + 1 - d * np.arange(p, dtype=np.int64)) % p
    turns = np.cumsum(np.bincount(start, minlength=2 * p)
                      - np.bincount(start + p - 1 - f, minlength=2 * p))
    return turns.reshape(2, p).sum(axis=0)


def profile_range_check(pr: np.ndarray):
    """Length of the attained-value interval of one profile against the
    sqrt(p)/(2*pi) .. sqrt(p)*ln(p) window, p its length; returns
    (range, lo, hi, ok)."""
    span = int(pr.max() - pr.min())
    lo = math.sqrt(pr.size) / (2 * math.pi)
    hi = math.sqrt(pr.size) * math.log(pr.size)
    return span, lo, hi, lo <= span <= hi


def _all_profiles(f: np.ndarray) -> np.ndarray:
    """(p, p) matrix P with P[d, b] = secant count of y = dx + b."""
    return np.array([_direct_profile(f, d) for d in range(f.size)])


def verify_projection_laws(plane: ProjectivePlane, params: ParabolaParams) -> LawReport:
    """Check laws L1-L4 exactly for every slope d != 0 and intercept, plus
    the L5 range window.  The slope-1 profile is the reference for L3-L5."""
    params, f = under_parabola(plane, params)
    p = f.size
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    chi = legendre_table(p)
    P = _all_profiles(f)
    ref = P[1]
    report = LawReport(p=p, params=params)
    report.step_law = "pr_d(b+1) - pr_d(b) = chi((beta-d)^2 + 4*alpha*(b-gamma))"
    report.d_free_variant = "-chi((beta-1)^2 + 4*alpha*(b+1-gamma))"

    d_arr = np.arange(p, dtype=np.int64)
    b_arr = np.arange(p, dtype=np.int64)

    # L1: wrap-around first differences against the character of the
    # discriminant of f(x) = dx + b.
    delta = np.roll(P, -1, axis=1) - P
    disc = ((beta - d_arr[:, None]) ** 2 + 4 * alpha * (b_arr[None, :] - gamma)) % p
    expect = chi[disc].astype(np.int64)
    mism = delta[1:] != expect[1:]
    report.l1_ok = not mism.any()
    if not report.l1_ok:
        d0, b0 = np.argwhere(mism)[0]
        report.l1_first_fail = (int(d0) + 1, int(b0))

    # d-free variant, evaluated for comparison only
    alt = -chi[((beta - 1) ** 2 + 4 * alpha * (b_arr + 1 - gamma)) % p].astype(np.int64)
    report.d_free_match_fraction = float((delta[1:] == alt[None, :]).mean())

    # L2: unit steps and interval image
    report.l2_ok = True
    for d in range(1, p):
        row = P[d]
        span = int(row.max() - row.min())
        if np.abs(delta[d]).max() > 1 or len(np.unique(row)) != span + 1:
            report.l2_ok = False
            report.l2_first_fail = d
            break

    # L3: every class is a cyclic shift of the slope-1 class
    # (the smallest s with P[d] = roll(ref, -s), or None)
    first_shift = {}
    for s, row in enumerate(ref[(b_arr[:, None] + b_arr[None, :]) % p]):
        first_shift.setdefault(row.tobytes(), s)
    report.l3_shifts = [first_shift.get(P[d].tobytes()) for d in range(1, p)]
    report.l3_ok = None not in report.l3_shifts

    # L4: class-wise frequencies aggregate to (p-1) * histogram of pr_1
    hist_all = np.bincount(P[1:].ravel(), minlength=p + 2)
    hist_one = np.bincount(ref, minlength=p + 2)
    l4 = hist_all == (p - 1) * hist_one
    report.l4_ok = bool(l4.all())
    if not report.l4_ok:
        report.l4_first_fail = int(np.nonzero(~l4)[0][0])

    # L5: range window on the slope-1 profile
    report.range_d1, report.range_lo, report.range_hi, report.l5_ok = \
        profile_range_check(ref)
    return report


def occupancy_scaling(stats: LevelStats, a: int = 0) -> dict:
    """The levels document of the walk from a: its occupancy statistics,
    scaled against sqrt(p) * log-power envelopes (exploratory output,
    nothing asserted)."""
    p = stats.p
    sq = math.sqrt(p)
    ln = math.log(p)
    return {
        "p": p, "a": a,
        "counts": {str(k): v for k, v in stats.counts.items()},
        "zero_count": stats.zero_count,
        "max_level_count": stats.max_level_count,
        "range": stats.range,
        "range_within_sqrt_log": stats.range_within_sqrt_log,
        "zeros_within_sqrt_log2": stats.zeros_within_sqrt_log2,
        "zero_over_sqrt": stats.zero_count / sq,
        "max_level_over_sqrt": stats.max_level_count / sq,
        "envelope_log1": ln,
        "envelope_log2": ln * ln,
    }
