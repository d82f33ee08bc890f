"""Shared brute-force oracles, kept deliberately independent of the
library's counting kernels and line solver: everything here goes through
python sets and per-point incidence tests only."""

import sys
from functools import lru_cache

import pytest


@lru_cache(maxsize=None)
def naive_line_points(plane):
    """Per-line point sets from the incidence test `plane.incident` over all
    points, independent of the library's line solver."""
    return [frozenset(pt for pt in range(plane.N) if plane.incident(pt, ell))
            for ell in range(plane.N)]


def naive_secant_counts(plane, member_indices):
    """Per-line |S ∩ line| by set intersection over explicit point lists."""
    S = set(int(i) for i in member_indices)
    return [len(S & line) for line in naive_line_points(plane)]


def naive_histogram(plane, member_indices):
    counts = naive_secant_counts(plane, member_indices)
    hist = [0] * (plane.q + 2)
    for c in counts:
        hist[c] += 1
    return hist


def assert_spectrum_matches_naive(plane, pset, spec):
    expect = naive_secant_counts(plane, pset.indices())
    assert spec.n_ell.tolist() == expect


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
