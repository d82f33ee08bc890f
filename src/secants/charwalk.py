"""Quadratic-character walks and projection profiles of the under-parabola
region.

The walk tracks prefix sums of the Legendre symbol along consecutive
integers.
For the region under y = alpha*x^2 + beta*x + gamma, the profile of a
parallel class maps each intercept b to the secant size of y = dx + b.
Every class is counted exactly by one O(p) difference array over the
points of its lines, and the law check counts and checks a block of
slopes at a time, in O(block) memory.  The slope-1 profile is the
reference that L3-L5 compare against.  Each law is checked against the
character formula, so the verified laws below are genuine checks, not
restatements:

  L1  step law: pr_d(b+1) - pr_d(b) = chi((beta-d)^2 + 4*alpha*(b-gamma)),
      including the wrap at b = p-1 (this is the form that holds exactly
      under the strict integer-lift order; the sign-flipped d-free variant
      -chi((beta-1)^2 + 4*alpha*(b+1-gamma)) is evaluated alongside for
      comparison and reported, never asserted);
  L2  steps have absolute value <= 1 and the attained values form an
      integer interval;
  L3  every slope's profile is the slope-1 profile cyclically shifted by
      the predicted s_d = ((beta-d)^2 - (beta-1)^2) / (4*alpha):
      pr_d(b) = pr_1(b + s_d);
  L4  the number of non-vertical non-horizontal affine k-secants equals
      (p-1) * #{b : pr_1(b) = k};
  L5  the attained interval has length between sqrt(p)/(2*pi) and
      sqrt(p)*ln(p).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .construct import under_parabola
from .field import legendre_table
from .plane import _SOLVE_BLOCK_ENTRIES, ProjectivePlane


def psi_walk(p: int, a: int) -> np.ndarray:
    """Prefix sums of the quadratic character from a: walk[t] =
    sum_{j<=t} chi(a+j), t in [0, p-1]."""
    chi = legendre_table(p)             # rejects p that is not an odd prime
    steps = chi[(a % p + np.arange(p, dtype=np.int64)) % p]   # any int a, no int64 wrap
    return np.cumsum(steps, dtype=np.int64)


def level_stats(walk: np.ndarray, a: int = 0) -> dict:
    """The levels document of the walk from a: how often each level is
    visited, counted by one bincount over the visited range [min, max], and
    scaled against sqrt(p) * log-power envelopes, p the walk's length
    (exploratory output, nothing asserted)."""
    p = walk.size
    lo, hi = int(walk.min()), int(walk.max())
    visits = np.bincount(walk - lo).tolist()
    counts = {str(lo + i): c for i, c in enumerate(visits) if c}
    zeros = counts.get("0", 0)
    top = max(visits)
    sq = math.sqrt(p)
    ln = math.log(p)
    return {
        "p": p, "a": a, "counts": counts,
        "zero_count": zeros, "max_level_count": top, "range": hi - lo,
        "range_within_sqrt_log": hi - lo <= sq * ln,
        "zeros_within_sqrt_log2": zeros <= sq * ln * ln,
        "zero_over_sqrt": zeros / sq,
        "max_level_over_sqrt": top / sq,
        "envelope_log1": ln,
        "envelope_log2": ln * ln,
    }


def projection_profile(plane: ProjectivePlane, alpha: int, beta: int, gamma: int,
                       d: int) -> np.ndarray:
    """Profile of the slope-d class by direct counting over x: pr[b] =
    |S ∩ {y = dx + b}|."""
    _, f = under_parabola(plane, alpha, beta, gamma)
    if d % f.size == 0:
        raise ValueError(f"horizontal slope excluded: d={d} is 0 mod {f.size}")
    return _direct_profile(f, d % f.size)


def _direct_profile(f: np.ndarray, d: int) -> np.ndarray:
    """pr[b] for the slope d, the one-row case of _direct_profiles."""
    return _direct_profiles(f, np.array([d], dtype=np.int64))[0]


def _direct_profiles(f: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(len(ds), p) int64 profiles, row i that of the slope ds[i]: the b
    with (d*x + b) mod p > f(x) are the p-1-f(x) cyclic steps from
    (f(x)+1-d*x) mod p.  One difference array over all rows, each offset
    by p, marks where the steps start and where they end mod p; its cumsum
    is the profile but for the steps that wrap past b = p-1, which cover
    every b once more than the marks count."""
    p, n = f.size, len(ds)
    start = np.multiply.outer(ds, np.arange(p, dtype=np.int64))
    np.subtract(f + 1, start, out=start)
    start -= start // p * p           # mod p: floor division by an int is the fast one
    end = start + (p - 1 - f)
    wrap = end // p                   # 1 where the steps wrap past p-1, else 0
    end -= wrap * p
    offset = p * np.arange(n)[:, None]
    start += offset
    end += offset
    steps = np.bincount(start.ravel(), minlength=n * p)
    steps -= np.bincount(end.ravel(), minlength=n * p)
    pr = np.cumsum(steps).reshape(n, p)          # each row's marks sum to 0
    pr += wrap.sum(axis=1)[:, None]
    return pr


def profile_range_check(pr: np.ndarray):
    """Length of the attained-value interval of one profile against the
    sqrt(p)/(2*pi) .. sqrt(p)*ln(p) window, p its length; returns
    (range, lo, hi, ok)."""
    span = int(pr.max() - pr.min())
    lo = math.sqrt(pr.size) / (2 * math.pi)
    hi = math.sqrt(pr.size) * math.log(pr.size)
    return span, lo, hi, lo <= span <= hi


def verify_projection_laws(plane: ProjectivePlane, alpha: int, beta: int,
                           gamma: int) -> dict:
    """Check laws L1-L4 exactly for every slope d != 0 and intercept, plus
    the L5 range window, and return the `projection` document.  One pass
    over the slopes takes them a block of _SOLVE_BLOCK_ENTRIES // 8
    profile entries at a time, and checks L1-L4 on the whole block with
    no loop over its slopes: O(p^2) work in O(p + block) memory.  The
    first L1 and L2 failures are the first in slope order.  The slope-1
    profile is the reference for L3-L5.

    L3 compares each profile with the reference shifted by the predicted
    s_d and records s_d on a match, None otherwise.  On profiles that obey
    L1 no other shift matches, since a non-constant profile of prime
    length has no nontrivial period.  On a faulty profile this is stricter
    than asking for some shift, and it costs O(p) per slope, not a search
    over all p shifts."""
    (alpha, beta, gamma), f = under_parabola(plane, alpha, beta, gamma)
    p = f.size
    chi = legendre_table(p)
    b = np.arange(p, dtype=np.int64)
    quad = 4 * alpha * (b - gamma) % p
    chi2 = np.tile(chi.astype(np.int64), 2)       # chi2[v] = chi(v mod p), v < 2p
    # d-free variant, evaluated for comparison only
    alt = -chi[((beta - 1) ** 2 + 4 * alpha * (b + 1 - gamma)) % p]
    ref = _direct_profile(f, 1)
    shifted = sliding_window_view(np.concatenate([ref, ref[:-1]]), p)  # [s, b] = pr_1(b + s)
    inv_4alpha = pow(4 * alpha, -1, p)
    l1_first_fail = l2_first_fail = None   # (d, b) and d
    shifts, alt_matches = [], 0
    hist_all = np.zeros(p + 2, dtype=np.int64)
    rows = max(1, _SOLVE_BLOCK_ENTRIES // 8 // p)
    for lo in range(1, p, rows):
        d = np.arange(lo, min(lo + rows, p), dtype=np.int64)
        pr = _direct_profiles(f, d)
        step = np.diff(pr, axis=1, append=pr[:, :1])   # wraps at b = p-1
        # L1: steps against the character of the discriminant of f(x) = dx + b
        if l1_first_fail is None:
            mism = step != chi2[((beta - d) ** 2 % p)[:, None] + quad]
            if mism.any():
                i, j = divmod(int(mism.argmax()), p)    # the first in slope order
                l1_first_fail = (int(d[i]), j)
        # the histogram of each profile, rows offset by p + 2
        hist = np.bincount((pr + (p + 2) * np.arange(len(d))[:, None]).ravel(),
                           minlength=(p + 2) * len(d)).reshape(len(d), p + 2)
        # L2: unit steps and interval image (every value from min to max)
        if l2_first_fail is None:
            bad = ((np.abs(step).max(axis=1) > 1)
                   | (np.count_nonzero(hist, axis=1) <= pr.max(axis=1) - pr.min(axis=1)))
            if bad.any():
                l2_first_fail = int(d[bad.argmax()])
        # L3: pr_d(b) = pr_1(b + s_d), 4*alpha*s_d = (beta-d)^2 - (beta-1)^2
        s = ((beta - d) ** 2 - (beta - 1) ** 2) % p * inv_4alpha % p
        match = (pr == shifted[s]).all(axis=1)
        shifts += [int(v) if m else None for v, m in zip(s, match)]
        hist_all += hist.sum(axis=0)
        alt_matches += int(np.count_nonzero(step == alt))

    # L4: class-wise frequencies aggregate to (p-1) * histogram of pr_1
    l4 = hist_all == (p - 1) * np.bincount(ref, minlength=p + 2)
    l4_first_fail = None if l4.all() else int(np.nonzero(~l4)[0][0])   # k

    # L5: range window on the slope-1 profile
    range_d1, range_lo, range_hi, l5_ok = profile_range_check(ref)
    laws = {"L1": l1_first_fail is None, "L2": l2_first_fail is None,
            "L3": None not in shifts, "L4": l4_first_fail is None, "L5": l5_ok}
    return {
        "p": p,
        "params": {"alpha": alpha, "beta": beta, "gamma": gamma},
        "laws": laws,
        "l1_first_fail": l1_first_fail,
        "l2_first_fail": l2_first_fail,
        "l4_first_fail": l4_first_fail,
        "shifts": shifts,
        "step_law": "pr_d(b+1) - pr_d(b) = chi((beta-d)^2 + 4*alpha*(b-gamma))",
        "d_free_variant": "-chi((beta-1)^2 + 4*alpha*(b+1-gamma))",
        "d_free_match_fraction": alt_matches / ((p - 1) * p),
        "range_d1": range_d1,
        "range_bounds": [range_lo, range_hi],
        "all_ok": all(laws.values()),
    }
