import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secants import harness as harness_module
from secants import spectrum as spectrum_module
from secants.harness import (SWEEP_COLUMNS, SWEEP_SCHEMA, exhaustive_minmax,
                             local_search, run_sweep, sweep_to_csv)
from secants.plane import build_plane
from secants.spectrum import compute_spectrum, cor_bound_ceiling

from conftest import mask_of, naive_histogram, naive_line_points, naive_local_search


def brute_minmax(plane):
    """Set-arithmetic subset scan, independent of the numpy kernel; the
    witness is the sorted member list of the numerically smallest optimal
    bitmap (bit i = point i)."""
    rows = naive_line_points(plane)
    best = plane.N + 1
    witness = None
    for mask in range(1 << plane.N):
        members = {i for i in range(plane.N) if (mask >> i) & 1}
        if len(members) > plane.N // 2:
            continue
        hist = [0] * (plane.q + 2)
        for r in rows:
            hist[len(r & members)] += 1
        mode = max(hist)
        if mode < best:
            best, witness = mode, sorted(members)
    return best, witness


# the four checks a sweep row must pass
CHECKS = ("eq1", "eq2", "var_ok", "cor_ok")


def test_exhaustive_q2_matches_bruteforce(fano):
    res = exhaustive_minmax(fano)
    expect_best, expect_witness = brute_minmax(fano)
    assert res["best_mode_count"] == expect_best == 3
    assert res["witness_points"] == expect_witness
    assert res["method"] == "exhaustive"
    # the witness is a triangle: its spectrum attains the minimum
    doc = compute_spectrum(fano, mask_of(fano, res["witness_points"]), None)
    assert doc["mode_count"] == 3
    assert res["best_mode_count"] >= cor_bound_ceiling(2) == 2


def test_exhaustive_q3_matches_bruteforce_and_golden():
    pl = build_plane(3)
    res = exhaustive_minmax(pl)
    expect_best, expect_witness = brute_minmax(pl)
    assert res["best_mode_count"] == expect_best
    assert res["witness_points"] == expect_witness
    # repository golden value, first computed by this oracle
    assert res["best_mode_count"] == 6
    assert res["best_mode_count"] >= cor_bound_ceiling(3) == 3


def test_exhaustive_q4_golden_and_thread_invariance():
    pl = build_plane(4)
    res1 = exhaustive_minmax(pl, threads=1)
    res4 = exhaustive_minmax(pl, threads=4)
    assert res1["best_mode_count"] == res4["best_mode_count"]
    assert res1["witness_points"] == res4["witness_points"]
    assert res1["best_mode_count"] == 7       # repository golden value
    assert res1["best_mode_count"] >= cor_bound_ceiling(4) == 5


def test_exhaustive_enumerates_half_space(fano):
    res = exhaustive_minmax(fano)
    expect = sum(1 for m in range(1 << 7) if bin(m).count("1") <= 3)
    assert res["subsets_examined"] == expect


def test_exhaustive_rejects_large_q():
    with pytest.raises(ValueError, match="exhaustive limit"):
        exhaustive_minmax(build_plane(5))


def test_local_search_rejects_q_above_its_limit():
    assert harness_module.LOCAL_SEARCH_MAX_Q == 251
    local_search(build_plane(251), iters=0, restarts=1)
    with pytest.raises(ValueError, match="search limit: q=256"):
        local_search(build_plane(256), iters=0, restarts=1)


def test_local_search_reaches_exhaustive_minimum():
    for q, golden in ((2, 3), (3, 6), (4, 7)):
        pl = build_plane(q)
        res = local_search(pl, iters=300, seed=11, restarts=10)
        assert res["best_mode_count"] == golden
        assert res["method"] == "local"
        doc = compute_spectrum(pl, mask_of(pl, res["witness_points"]), None)
        assert doc["mode_count"] == res["best_mode_count"]


def test_local_search_determinism():
    pl = build_plane(3)
    a = local_search(pl, iters=100, seed=5, restarts=4)
    b = local_search(pl, iters=100, seed=5, restarts=4)
    assert a == b
    c = local_search(pl, iters=100, seed=6, restarts=4)
    assert c["best_mode_count"] >= cor_bound_ceiling(3)


def _result_triple(res):
    return res["best_mode_count"], res["witness_points"], res["subsets_examined"]


@lru_cache(maxsize=None)
def _search_plane(q):
    return build_plane(q)


# (q, seed, iters, restarts): small planes run to a local minimum, larger
# ones stop after a few steps, so the loop oracle stays cheap.
_ORACLE_CASES = [
    *[(q, seed, 60, 3) for q in (2, 3, 4, 5, 7, 8, 9) for seed in (0, 1, 2)],
    *[(q, seed, 12, 2) for q in (13, 16) for seed in (0, 4)],
    (4, 7, 0, 3), (5, 3, 1, 1), (7, 9, 300, 6),
    *[(q, seed, 8, 2) for q in (23, 25, 27, 31) for seed in (0, 1)],
    (23, 0, 25, 1), (31, 0, 25, 1),      # the benchmark's search jobs
]


@pytest.mark.parametrize("q, seed, iters, restarts", _ORACLE_CASES)
def test_local_search_matches_loop_oracle(q, seed, iters, restarts):
    pl = _search_plane(q)
    res = local_search(pl, iters=iters, seed=seed, restarts=restarts)
    assert _result_triple(res) == naive_local_search(pl, iters, seed, restarts)


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from((2, 3, 4, 5, 7)), seed=st.integers(0, 2 ** 32),
       iters=st.integers(0, 40), restarts=st.integers(0, 4))
def test_local_search_matches_loop_oracle_property(q, seed, iters, restarts):
    pl = _search_plane(q)
    res = local_search(pl, iters=iters, seed=seed, restarts=restarts)
    assert _result_triple(res) == naive_local_search(pl, iters, seed, restarts)


@pytest.mark.parametrize("q, seed", [(7, 3), (13, 1), (23, 0)])
def test_local_search_point_blocks_do_not_change_results(monkeypatch, q, seed):
    pl = _search_plane(q)
    expect = naive_local_search(pl, 6, seed, 2)
    # one point per block, a few points per block, and a ragged last block
    for entries in (1, 3 * (q + 2), 7 * (q + 2) + 5):
        monkeypatch.setattr(harness_module, "_FLIP_BLOCK_ENTRIES", entries)
        res = local_search(pl, iters=6, seed=seed, restarts=2)
        assert _result_triple(res) == expect, entries


@pytest.mark.parametrize("q, seed, iters, restarts", _ORACLE_CASES[::9])
def test_local_search_reads_no_spectrum_kernel(monkeypatch, q, seed, iters, restarts):
    def no_kernel(*args, **kwargs):
        raise AssertionError("the search called the spectrum kernel")

    monkeypatch.setattr(spectrum_module, "secant_count_blocks", no_kernel)
    pl = _search_plane(q)
    res = local_search(pl, iters=iters, seed=seed, restarts=restarts)
    assert _result_triple(res) == naive_local_search(pl, iters, seed, restarts)


def test_local_search_at_q251_holds_one_incidence():
    # the (N, q+1) int32 incidence takes 60.8 MiB and the search peaked at
    # 64.5 MiB; gathering the start counts as one mask[incidence] would add
    # an (N, q+1) bool array, 15.2 MiB
    pl = build_plane(251)
    tracemalloc.start()
    try:
        local_search(pl, iters=1, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 65 * 2 ** 20, peak


def _relabelled_incidence(plane, seed):
    """The plane's lines as point lists and its points as line lists, after
    relabelling the points and the lines by two independent seeded
    permutations, so point i and line i are no longer the same triple.  The
    lines come from the naive incidence test, and the lines through each
    point are collected from them by hand."""
    rng = np.random.default_rng(seed)
    point, line = rng.permutation(plane.N), rng.permutation(plane.N)
    on_line = [None] * plane.N
    for j, members in enumerate(naive_line_points(plane)):
        on_line[line[j]] = sorted(int(point[i]) for i in members)
    through = [[] for _ in range(plane.N)]
    for j, members in enumerate(on_line):
        for i in members:
            through[i].append(j)
    return np.array(on_line), np.array(through)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_flip_scores_on_a_relabelled_plane_match_a_naive_recount(monkeypatch, q):
    pl = _search_plane(q)
    line_points, lines_through = _relabelled_incidence(pl, seed=q)
    N, W = pl.N, q + 2
    assert lines_through.shape == (N, q + 1)
    assert not np.array_equal(line_points, lines_through)     # not self-dual
    lines = [frozenset(row) for row in line_points.tolist()]

    def recount(members):
        """(mode, cleared-denominator variance, histogram) of a point set."""
        hist = [0] * W
        for row in lines:
            hist[len(row & members)] += 1
        return max(hist), W * sum(h * h for h in hist) - N * N, hist

    calls = []
    scores = harness_module._flip_scores

    def recording(C, hist, members):
        mode, var, trial = scores(C, hist, members)
        calls.append((hist.tolist(), members.copy(), mode, var, trial.copy()))
        return mode, var, trial

    monkeypatch.setattr(harness_module, "_flip_scores", recording)
    rng = np.random.default_rng(q)
    steps = 0
    # one block of points, then blocks of two points and a ragged last one
    for entries in (harness_module._FLIP_BLOCK_ENTRIES, 2 * W + 1):
        monkeypatch.setattr(harness_module, "_FLIP_BLOCK_ENTRIES", entries)
        for _ in range(2):
            mask = rng.random(N) < rng.uniform(0.2, 0.8)
            start = set(np.flatnonzero(mask).tolist())
            calls.clear()
            score, examined = harness_module._flip_descent(line_points, lines_through,
                                                           mask, iters=5)
            assert score == recount(set(np.flatnonzero(mask).tolist()))[:2]
            assert sum(len(c[1]) for c in calls) == examined
            assert calls[0][0] == recount(start)[2]     # the start counts
            members, mode, var, trial = (np.concatenate([c[k] for c in calls])
                                         for k in (1, 2, 3, 4))
            members = members.reshape(-1, N)
            for pt in range(examined):
                flipped = set(np.flatnonzero(members[pt // N]).tolist()) ^ {pt % N}
                assert (mode[pt], var[pt], trial[pt].tolist()) == recount(flipped), pt
            steps += examined // N
    assert steps >= 4


def test_sweep_rows_and_determinism():
    rows = run_sweep([7, 11], "random:density=1/2", seeds=4)
    assert len(rows) == 8
    assert [(r["q"], r["seed"]) for r in rows] == [(q, s) for q in (7, 11) for s in range(4)]
    for r in rows:
        assert list(r) == list(SWEEP_COLUMNS)
        assert all(r[c] is True for c in CHECKS) and r["error"] == ""
        assert r["mode_count"] >= r["cor_bound"]
        assert r["ratio"] == r["mode_count"] / r["q"] ** 1.5
    text1 = sweep_to_csv(rows)
    assert text1.startswith(f"# schema={SWEEP_SCHEMA}\n")
    text2 = sweep_to_csv(run_sweep([7, 11], "random:density=1/2", seeds=4, threads=3))
    assert text1 == text2


def test_sweep_cell_names_a_density_past_int64():
    row, = run_sweep([7], "random:density=1/100000000000000000000", seeds=1)
    assert row["error"] == "density 1/100000000000000000000 has a denominator past 2^63"


def test_sweep_records_row_errors_and_continues():
    rows = run_sweep([3, 7], "parabola:a=1,b=0,g=0", seeds=1)
    assert rows[0]["error"] != "" and not any(rows[0][c] for c in CHECKS)
    assert rows[1]["error"] == "" and all(rows[1][c] for c in CHECKS)
    text = sweep_to_csv(rows)
    assert "requires a prime plane" in text


def test_sweep_deterministic_constructions_ignore_seed_column():
    rows = run_sweep([11], "ecregion", seeds=2)
    assert rows[0]["set_size"] == rows[1]["set_size"] == 11 * 12 // 2
    assert rows[0]["mode_count"] == rows[1]["mode_count"]


def test_witness_histograms_survive_naive_recount(fano):
    res = exhaustive_minmax(fano)
    members = res["witness_points"]
    hist = naive_histogram(fano, members)
    assert max(hist) == res["best_mode_count"]
