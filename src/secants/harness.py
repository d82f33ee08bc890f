"""Search and sweep drivers for the mode-frequency question: how small can
the most common secant size's frequency be?

The exhaustive search settles it exactly for q <= 4 by scanning every
subset up to complement duality (the histogram of a complement is the
reversed histogram, so only sizes <= N/2 need visiting).  The local search
probes larger planes with seeded best-improvement hill descent on
single-point flips.  Sweeps evaluate a construction over a prime list and
emit rows whose CSV form is byte-stable across runs and thread counts.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ThreadPoolExecutor
from random import Random

import numpy as np

from .construct import build_construction
from .plane import ProjectivePlane, build_plane
from .spectrum import _spectrum_affine, compute_spectrum, cor_bound_ceiling

EXHAUSTIVE_MAX_Q = 4
# The local search holds the plane's (N, q+1) int32 incidence; 251 is the
# largest order whose matrix stays within 64 MiB (q = 256 needs 67.6 MB).
LOCAL_SEARCH_MAX_Q = 251
_CHUNK_BITS = 16

# The local search scores flips in blocks of about this many (point, count) entries.
_FLIP_BLOCK_ENTRIES = 1 << 16

SWEEP_SCHEMA = "secants-sweep-v1"
SWEEP_COLUMNS = ("q", "construction", "seed", "set_size", "mode_k", "mode_count",
                 "cor_bound", "prop_bound", "thm_lower", "thm_lower_clamped",
                 "ratio", "eq1", "eq2", "var_ok", "cor_ok", "error")


def _ordered_map(fn, items, threads: int) -> list:
    """fn over items on `threads` worker threads, results in input order.
    One thread means the calling thread: a worker thread gets its own
    malloc arena, which adds about 10 MB to the peak RSS of a q=499 sweep."""
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def exhaustive_minmax(plane: ProjectivePlane, threads: int = 1) -> dict:
    """The `exhaustive` document: the exact minimum over all subsets of the
    maximal secant-size frequency, with a witness set's point indices.

    Only bitmaps (bit i = point i) with at most N/2 bits set are enumerated
    (complement duality); the witness is the numerically smallest bitmap
    attaining the minimum, regardless of chunking or thread count.
    """
    q, N = plane.q, plane.N
    if q > EXHAUSTIVE_MAX_Q:
        raise ValueError(f"exhaustive limit: q={q} is above the largest "
                         f"exhaustively searched order {EXHAUSTIVE_MAX_Q}")
    line_masks = np.bitwise_or.reduce(
        np.left_shift(np.uint32(1), plane.line_points().astype(np.uint32)), axis=1)
    half = N // 2

    def chunk_best(lo: int, hi: int):
        masks = np.arange(lo, hi, dtype=np.uint32)
        masks = masks[np.bitwise_count(masks) <= half]
        if masks.size == 0:
            return None
        secants = np.bitwise_count(masks[:, None] & line_masks[None, :])
        # row-wise histogram maximum of the secant sizes
        modes = np.zeros(masks.size, dtype=np.int32)
        for k in range(q + 2):
            np.maximum(modes, (secants == k).sum(axis=1, dtype=np.int32), out=modes)
        i = int(modes.argmin())          # first occurrence = smallest bitmap
        return int(modes[i]), int(masks[i]), masks.size

    step = 1 << _CHUNK_BITS
    ranges = [(lo, min(lo + step, 1 << N)) for lo in range(0, 1 << N, step)]
    results = _ordered_map(lambda r: chunk_best(*r), ranges, threads)

    best = (N + 1, 0)
    examined = 0
    for res in results:
        if res is None:
            continue
        mode, mask, count = res
        examined += count
        if (mode, mask) < best:
            best = (mode, mask)
    return {"q": q, "best_mode_count": best[0],
            "witness_points": np.flatnonzero((best[1] >> np.arange(N)) & 1).tolist(),
            "subsets_examined": examined, "method": "exhaustive",
            "cor_ceiling": cor_bound_ceiling(q)}


def local_search(plane: ProjectivePlane, iters: int = 200, seed: int = 0,
                 restarts: int = 5) -> dict:
    """The `search` document of a seeded hill descent on single-point flips
    minimizing the mode count, ties broken by histogram variance; best over
    restarts.

    A step scores all N flips at once.  With C[pt, k] the number of lines
    through pt that meet the set in k points, flipping pt gives the
    histogram hist - C[pt] + C[pt] shifted by the flip's sign.  C is built
    in blocks of points of about _FLIP_BLOCK_ENTRIES entries.  Each restart
    takes its starting secant sizes from the spectrum kernel; the flips
    read the plane's incidence, solved once, so the search runs up to
    LOCAL_SEARCH_MAX_Q."""
    q, N, W = plane.q, plane.N, plane.q + 2
    if q > LOCAL_SEARCH_MAX_Q:
        raise ValueError(f"search limit: q={q} is above the largest locally "
                         f"searched order {LOCAL_SEARCH_MAX_Q}")
    # row i lists the points of line i and, since point i and line i are
    # the same triple and incidence is symmetric, the lines through point i
    incidence = plane.line_points()
    rows = max(1, _FLIP_BLOCK_ENTRIES // W)
    rng = Random(seed)
    best = None
    examined = 0

    for _ in range(max(1, restarts)):
        # the seed's random bitmap, bit i = point i
        raw = np.frombuffer(rng.getrandbits(N).to_bytes((N + 7) // 8, "little"), np.uint8)
        mask = np.unpackbits(raw, count=N, bitorder="little").astype(bool)
        n_ell = _spectrum_affine(plane, mask)
        hist = np.bincount(n_ell, minlength=W)
        # exact integer score: mode, then cleared-denominator variance
        cur = (int(hist.max()), W * int(hist @ hist) - N * N)

        for _ in range(iters):
            examined += N
            move = ((N + 1, 0),)                # worse than any score
            for lo in range(0, N, rows):
                lines = incidence[lo:lo + rows]
                B = len(lines)
                # C[:, k + 1]: the empty columns 0 and W + 1 absorb the shift
                keys = np.arange(B)[:, None] * (W + 2) + 1 + n_ell[lines]
                C = np.bincount(keys.ravel(), minlength=B * (W + 2)).reshape(B, W + 2)
                trial = hist - C[:, 1:-1]
                trial += np.where(mask[lo:lo + B, None], C[:, 2:], C[:, :-2])
                mode = trial.max(axis=1)
                low = np.flatnonzero(mode == mode.min())
                ties = W * (trial[low] ** 2).sum(axis=1) - N * N
                i = low[ties.argmin()]
                if (mode[i], ties.min()) < move[0]:    # first point of a tie wins
                    move = ((int(mode[i]), int(ties.min())), lo + int(i), trial[i])
            if not move[0] < cur:
                break
            cur, pt, hist = move
            n_ell[incidence[pt]] += -1 if mask[pt] else 1
            mask[pt] = not mask[pt]

        # reversed mask bytes order sets as their bitmaps do numerically
        cand = (cur[0], cur[1], mask[::-1].tobytes())
        if best is None or cand < best:
            best, witness = cand, mask
    return {"q": q, "best_mode_count": best[0],
            "witness_points": np.flatnonzero(witness).tolist(),
            "subsets_examined": examined, "method": "local",
            "cor_ceiling": cor_bound_ceiling(q)}


def _sweep_cell(plane: ProjectivePlane, construction: str, seed: int) -> dict:
    q = plane.q
    try:
        doc, _ = compute_spectrum(plane, *build_construction(plane, construction, seed=seed))
    except ValueError as exc:           # an input error: recorded per row, sweep continues
        return dict(zip(SWEEP_COLUMNS, (q, construction, seed, 0, 0, 0, *(0.0,) * 5,
                                        *(False,) * 4, str(exc))))
    bounds, checks, mode_count = doc["bounds"], doc["checks"], doc["mode_count"]
    return {"q": q, "construction": construction, "seed": seed, "set_size": doc["set_size"],
            "mode_k": doc["mode_k"], "mode_count": mode_count,
            "cor_bound": bounds["cor"], "prop_bound": bounds["prop"],
            "thm_lower": bounds["thm_lower"],
            "thm_lower_clamped": max(bounds["thm_lower"], 0.0),
            "ratio": mode_count / q ** 1.5,
            "eq1": checks["eq1"], "eq2": checks["eq2"], "var_ok": checks["var"],
            "cor_ok": mode_count >= cor_bound_ceiling(q), "error": ""}


def run_sweep(primes, construction: str, seeds, threads: int = 1):
    """One row per (prime, seed) cell, a dict keyed by SWEEP_COLUMNS, in
    input order regardless of the worker count."""
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = list(seeds)
    planes = {q: build_plane(q) for q in primes}
    for plane in planes.values():       # build shared tables before dispatch
        plane.affine_points()
    cells = [(q, s) for q in primes for s in seeds]
    return _ordered_map(lambda c: _sweep_cell(planes[c[0]], construction, c[1]),
                        cells, threads)


def sweep_to_csv(rows) -> str:
    """The rows as CSV: floats to six decimals, bools as 0/1."""
    buf = io.StringIO()
    buf.write(f"# schema={SWEEP_SCHEMA}\n")
    writer = csv.writer(buf, lineterminator="\n")     # quotes error text with commas
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        values = (row[c] for c in SWEEP_COLUMNS)
        writer.writerow([f"{v:.6f}" if type(v) is float else int(v) if type(v) is bool
                         else v for v in values])
    return buf.getvalue()
