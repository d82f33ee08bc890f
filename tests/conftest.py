"""Shared brute-force oracles, kept deliberately independent of the
library's counting kernel and line solver: everything here goes through
python sets, one batched incidence test and an itertools enumeration of
the normalized triples only.  The gather check and the local-search loop
are the exceptions: they read the plane's incidence cache, which
test_plane checks against the incidence test, and never the Radon
transform."""

import itertools
import sys
from functools import lru_cache
from random import Random

import numpy as np
import pytest


@lru_cache(maxsize=None)
def normalized_triples(q):
    """The nonzero triples over range(q) whose first nonzero entry is 1, in
    lexicographic order: entry i is the triple of point (and line) i."""
    return [t for t in itertools.product(range(q), repeat=3)
            if next((c for c in t if c), 0) == 1]


@lru_cache(maxsize=None)
def projective_classes(plane):
    """Every nonzero triple over GF(q), mapped to the index of its class
    through all scalar multiples of the normalized triples."""
    F = plane.field
    return {tuple(F.mul(s, c) for c in t): i
            for i, t in enumerate(normalized_triples(plane.q)) for s in range(1, plane.q)}


def class_of(plane, *triple):
    """Index of the class of a nonzero triple over GF(q), looked up in
    `projective_classes`, never through the library's codec or tables:
    (x, y, 1) is the affine point (x, y), [d, -1, b] the line y = dx + b."""
    return projective_classes(plane)[triple]


@lru_cache(maxsize=None)
def naive_line_points(plane):
    """Per-line point sets from one incidence test `plane.incident` of every
    line against every point, independent of the library's line solver."""
    idx = np.arange(plane.N)
    return [frozenset(np.flatnonzero(row).tolist())
            for row in plane.incident(idx, idx[:, None])]


def naive_secant_counts(plane, member_indices):
    """Per-line |S ∩ line| by set intersection over explicit point lists."""
    S = set(int(i) for i in member_indices)
    return [len(S & line) for line in naive_line_points(plane)]


def gather_secant_counts(plane, mask):
    """Per-line |S ∩ line| gathered from the incidence cache, O(q^3): a
    cross-check of the transform for planes too large for the set oracle."""
    return mask[plane.line_points_matrix].sum(axis=1, dtype=np.int64)


def naive_histogram(plane, member_indices):
    counts = naive_secant_counts(plane, member_indices)
    hist = [0] * (plane.q + 2)
    for c in counts:
        hist[c] += 1
    return hist


def assert_spectrum_matches_naive(plane, pset, spec):
    expect = naive_secant_counts(plane, pset.indices())
    assert spec.n_ell.tolist() == expect


def naive_local_search(plane, iters, seed, restarts):
    """The local search as a per-flip Python loop: every step copies the
    histogram and moves each line through the flipped point by hand.  It
    takes its incidence from the plane's cache (checked against
    `naive_line_points` in test_plane, and checked symmetric there, so the
    same rows list the lines through each point) and returns
    (best_mode_count, witness point list, subsets_examined)."""
    q, N = plane.q, plane.N
    line_points = plane.line_points_matrix.tolist()
    point_lines = line_points

    def score(hist):
        return max(hist), (q + 2) * sum(c * c for c in hist) - N * N

    rng = Random(seed)
    best = None
    examined = 0
    for _ in range(max(1, restarts)):
        bits = rng.getrandbits(N)
        mask = [(bits >> i) & 1 for i in range(N)]
        n_ell = [sum(mask[pt] for pt in line) for line in line_points]
        hist = [0] * (q + 2)
        for n in n_ell:
            hist[n] += 1
        cur = score(hist)
        for _ in range(iters):
            move = None
            for pt in range(N):
                sign = -1 if mask[pt] else 1
                trial = hist[:]
                for ell in point_lines[pt]:
                    trial[n_ell[ell]] -= 1
                    trial[n_ell[ell] + sign] += 1
                s = score(trial)
                examined += 1
                if s < cur and (move is None or s < move[0]):
                    move = (s, pt)
            if move is None:
                break
            cur, pt = move
            sign = -1 if mask[pt] else 1
            mask[pt] ^= 1
            for ell in point_lines[pt]:
                hist[n_ell[ell]] -= 1
                n_ell[ell] += sign
                hist[n_ell[ell]] += 1
        # restarts tie on the smaller bitmap (bit i = point i)
        bitmap = sum(1 << i for i in range(N) if mask[i])
        if best is None or (*cur, bitmap) < best:
            best = (*cur, bitmap)
    witness = [i for i in range(N) if (best[2] >> i) & 1]
    return best[0], witness, examined


@pytest.fixture(scope="session")
def fano():
    from secants.plane import build_plane
    return build_plane(2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
