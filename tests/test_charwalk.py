import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from secants import charwalk
from secants.charwalk import (level_stats, profile_range_check, projection_profile,
                              psi_walk, verify_projection_laws)
from secants.cli import CHECK_FAILED, main
from secants.construct import parabola_region, under_parabola
from secants.field import is_prime, legendre_table
from secants.plane import build_plane

from conftest import class_of, contains, phi_sum, slope_lines, stream_secant_counts

PRIMES = [p for p in range(5, 60) if is_prime(p)]


def test_psi_walk_examples():
    assert psi_walk(7, 0).tolist() == [0, 1, 2, 1, 2, 1, 0]
    assert psi_walk(5, 0).tolist() == [0, 1, 0, -1, 0]


@pytest.mark.parametrize("p", PRIMES)
def test_walk_closes_and_steps_are_unit(p):
    for a in (0, 1, p // 2, p - 1):
        w = psi_walk(p, a)
        assert len(w) == p
        assert w[-1] == 0
        diffs = np.diff([0] + w.tolist())
        assert set(diffs.tolist()) <= {-1, 0, 1}
        # the single zero step sits where a + j hits the zero residue
        zero_steps = np.nonzero(diffs == 0)[0]
        assert len(zero_steps) == 1
        assert (a + zero_steps[0]) % p == 0


def test_phi_sum_examples_and_window_bound():
    assert phi_sum(7, 3, 2) == 0       # chi(3) + chi(2) = -1 + 1
    assert phi_sum(7, 3, 0) == 0
    assert phi_sum(5, 1, 1) == 1
    chi = legendre_table(11)
    for u in range(11):
        for a in range(12):
            val = phi_sum(11, u, a)
            assert abs(val) <= a
            assert val == sum(int(chi[(u - t) % 11]) for t in range(a))
    assert phi_sum(13, 5, 13) == 0     # full-period sum vanishes
    with pytest.raises(ValueError):
        phi_sum(11, 0, 12)


def test_level_stats_examples():
    s7 = level_stats(psi_walk(7, 0))
    assert s7["zero_count"] == 2
    assert s7["max_level_count"] == 3     # level 1 at t in {1, 3, 5}
    assert s7["counts"]["1"] == 3
    s5 = level_stats(psi_walk(5, 0))
    assert s5["zero_count"] == 3 and s5["max_level_count"] == 3
    assert sum(s5["counts"].values()) == 5
    assert s5["range"] <= 2 * max(abs(v) for v in psi_walk(5, 0).tolist())


def counter_level_stats(walk):
    """(counts, zero_count, max_level_count, range) of a walk, counted as a
    Python list by a Counter; counts has the levels' text as its keys."""
    values = walk.tolist()
    counts = Counter(values)
    return ({str(k): v for k, v in sorted(counts.items())}, counts.get(0, 0),
            max(counts.values()), max(values) - min(values))


@pytest.mark.parametrize("p", [p for p in range(3, 200) if is_prime(p)])
def test_level_stats_equal_a_counter(p):
    for a in (0, 1, 2, p // 2, p - 1, p + 3, -5):
        walk = psi_walk(p, a)
        stats = level_stats(walk)
        assert (stats["counts"], stats["zero_count"], stats["max_level_count"],
                stats["range"]) == counter_level_stats(walk), a
        assert all(type(v) is int for v in stats["counts"].values())
        sq, ln = math.sqrt(p), math.log(p)
        assert stats["range_within_sqrt_log"] == (stats["range"] <= sq * ln)
        assert stats["zeros_within_sqrt_log2"] == (stats["zero_count"] <= sq * ln * ln)


def test_level_stats_peak_memory_at_the_largest_order():
    # the walk and its levels stay int64 arrays: no Python list of p ints
    tracemalloc.start()
    try:
        level_stats(psi_walk(4194301, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2 ** 20, peak


def test_projection_profile_example_p5():
    pl = build_plane(5)
    prof = projection_profile(pl, 4, 1, 1, 1)   # alpha = 1/4 mod 5
    assert prof.tolist() == [1, 2, 2, 3, 2]
    assert prof.sum() == 10
    delta = np.roll(prof, -1) - prof
    assert delta.tolist() == [1, 0, 1, -1, -1]
    chi = legendre_table(5)
    assert delta.tolist() == [int(chi[(b - 1) % 5]) for b in range(5)]
    span, lo, hi, ok = profile_range_check(prof)
    assert (span, ok) == (2, True)
    assert lo == pytest.approx(math.sqrt(5) / (2 * math.pi))


def test_projection_profile_rejects_horizontal():
    pl = build_plane(7)
    with pytest.raises(ValueError, match="horizontal"):
        projection_profile(pl, 1, 0, 0, 0)
    with pytest.raises(ValueError, match=r"^horizontal slope excluded: d=-14 is 0 mod 7$"):
        projection_profile(pl, 1, 0, 0, -14)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_profile_matches_membership_count(p):
    pl = build_plane(p)
    S, _ = parabola_region(pl, 2, 3, 1)
    for d in (1, 2, p - 1):
        prof = projection_profile(pl, 2, 3, 1, d)
        for b in range(p):
            direct = sum(contains(S, class_of(pl, x, (d * x + b) % p, 1))
                         for x in range(p))
            assert prof[b] == direct
        assert int(prof.sum()) == S.sum()


def matrix_profile(p, f, d):
    """The profile as a (p, p) count: row b holds (d*x + b) mod p for
    every x, compared with f(x)."""
    x = np.arange(p)
    y = (d * x[None, :] + x[:, None]) % p
    return (y > f[None, :]).sum(axis=1)


@pytest.mark.parametrize("p", PRIMES + [61])
def test_profile_matches_matrix_count_for_every_slope(p):
    pl = build_plane(p)
    for params in ((1, 0, 0), (2, 3, 1), (p - 1, 1, p - 1)):
        params, f = under_parabola(pl, *params)
        for d in range(1, p):
            prof = projection_profile(pl, *params, d)
            assert prof.tolist() == matrix_profile(p, f, d).tolist(), (params, d)


def test_profile_is_counted_in_linear_memory():
    # one slope's profile needs f and a few length-2p arrays, never the
    # (p, p) membership grid
    p = 4001
    pl = build_plane(p)
    tracemalloc.start()
    try:
        projection_profile(pl, 1, 2, 3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * p // 16, peak         # the grid alone is p * p bytes


@pytest.mark.parametrize("p", [5, 7, 13, 31, 61, 199, 401])
def test_law_profiles_are_the_spectrum_of_the_region(p):
    # the profiles the laws check are the secant sizes that the spectrum
    # path counts for the parabola region's affine lines
    pl = build_plane(p)
    for params in ((1, 0, 0), (2, 3, 1), (p - 1, 1, p - 1)):
        _, f = under_parabola(pl, *params)
        n_ell = stream_secant_counts(pl, parabola_region(pl, *params)[0])
        profiles = charwalk._direct_profiles(f, np.arange(p))
        assert np.array_equal(profiles, n_ell[slope_lines(pl)]), params


def test_laws_reject_a_profile_off_by_one(monkeypatch, tmp_path):
    direct = charwalk._direct_profiles

    def off_by_one(f, ds):
        pr = direct(f, ds)
        pr[ds == 1, 0] += 1
        return pr

    monkeypatch.setattr(charwalk, "_direct_profiles", off_by_one)
    rep = verify_projection_laws(build_plane(13), 1, 0, 0)
    assert not rep["all_ok"] and rep["l1_first_fail"] is not None
    assert main(["projection", "--p", "13", "--out", str(tmp_path / "out")]) == CHECK_FAILED


def test_l3_demands_the_predicted_shift(monkeypatch):
    # at p = 23 the reversed slope-2 profile is a cyclic shift of the
    # slope-1 profile, but not by s_2, so L3 fails on it
    p, params = 23, (2, 3, 1)
    pl = build_plane(p)
    ref = projection_profile(pl, *params, 1)
    rev = projection_profile(pl, *params, 2)[::-1].copy()
    assert any(np.array_equal(rev, np.roll(ref, -s)) for s in range(p))
    direct = charwalk._direct_profiles

    def reversed_slope_2(f, ds):
        pr = direct(f, ds)
        pr[ds == 2] = rev
        return pr

    monkeypatch.setattr(charwalk, "_direct_profiles", reversed_slope_2)
    rep = verify_projection_laws(pl, *params)
    assert rep["shifts"][1] is None and not rep["laws"]["L3"]


def test_laws_are_checked_in_linear_memory():
    # one block of profiles at a time: no (p, p) table of profiles, steps
    # or shifts, each of which alone is 7.6 MiB at p = 997
    pl = build_plane(997)
    tracemalloc.start()
    try:
        verify_projection_laws(pl, 1, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def per_slope_laws(p, profile, alpha, beta, gamma):
    """(l1_first_fail, l2_first_fail, shifts, l4_first_fail) of the laws
    checked one slope at a time on the rows profile(d), with Python ints
    and sets: the first (d, b) whose step is not chi((beta-d)^2 +
    4*alpha*(b-gamma)), the first d with a step past 1 or a gap in its
    values, the predicted shift of each slope or None, and the first k
    whose count over all slopes is not p-1 times that of slope 1."""
    chi = legendre_table(p).tolist()
    ref = profile(1)
    l1 = l2 = None
    shifts, hist = [], Counter()
    for d in range(1, p):
        pr = profile(d)
        step = [pr[(b + 1) % p] - pr[b] for b in range(p)]
        if l1 is None:
            l1 = next(((d, b) for b in range(p)
                       if step[b] != chi[((beta - d) ** 2 + 4 * alpha * (b - gamma)) % p]),
                      None)
        if l2 is None and (max(map(abs, step)) > 1
                           or set(range(min(pr), max(pr) + 1)) - set(pr)):
            l2 = d
        s = ((beta - d) ** 2 - (beta - 1) ** 2) * pow(4 * alpha, -1, p) % p
        shifts.append(s if all(pr[b] == ref[(b + s) % p] for b in range(p)) else None)
        hist.update(pr)
    ref_hist = Counter(ref)
    l4 = next((k for k in range(p + 2) if hist[k] != (p - 1) * ref_hist[k]), None)
    return l1, l2, shifts, l4


@pytest.mark.parametrize("faults", [
    [(80, 150, 1)],                 # inside the middle block of slopes 77..114
    [(95, 200, 1), (97, 3, 1)],     # the first in slope order, not in intercept order
    [(90, 10, 3), (100, 20, 3)],    # two steps past 1 in one block: L2 at the first
    [(210, 0, 1)],                  # the last slope, in the short last block; wraps
    [(210, 7, 1), (1, 5, 1)],       # the reference row too
])
def test_laws_report_faults_where_a_per_slope_check_does(monkeypatch, faults):
    # at p = 211 the slopes run in blocks of 38: 1..38, ..., 191..210;
    # each fault (d, b, e) adds e to the profile of slope d at b
    p, params = 211, (2, 3, 1)
    pl = build_plane(p)
    direct = charwalk._direct_profiles

    def faulty(f, ds):
        pr = direct(f, ds)
        for d, b, e in faults:
            pr[ds == d, b] += e
        return pr

    monkeypatch.setattr(charwalk, "_direct_profiles", faulty)
    (alpha, beta, gamma), f = under_parabola(pl, *params)
    expect = per_slope_laws(p, lambda d: faulty(f, np.array([d]))[0].tolist(),
                            alpha, beta, gamma)
    rep = verify_projection_laws(pl, *params)
    assert (rep["l1_first_fail"], rep["l2_first_fail"], rep["shifts"],
            rep["l4_first_fail"]) == expect
    assert expect[0][0] == min(d for d, _, _ in faults) and not rep["all_ok"]


def test_laws_report_a_range_window_miss(monkeypatch, tmp_path):
    # L5 is a range window, not an identity; a miss still clears all_ok
    monkeypatch.setattr(charwalk, "profile_range_check",
                        lambda pr: (0, 1.0, 2.0, False))
    rep = verify_projection_laws(build_plane(13), 1, 0, 0)
    assert rep["laws"] == {"L1": True, "L2": True, "L3": True, "L4": True, "L5": False}
    assert not rep["all_ok"] and rep["range_bounds"] == [1.0, 2.0]
    assert main(["projection", "--p", "13", "--out", str(tmp_path / "out")]) == CHECK_FAILED


def test_law_check_runs_no_transform(monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("the law check ran an FFT")

    for name in np.fft.__all__:       # every transform, whichever the kernel calls
        monkeypatch.setattr(np.fft, name, no_transform)
    p = 29
    pl = build_plane(p)
    for params in ((1, 0, 0), (pow(4, p - 2, p), 1, 1), (2, 3, 1)):
        laws = verify_projection_laws(pl, *params)["laws"]
        assert laws["L1"] and laws["L2"] and laws["L3"] and laws["L4"], params


@pytest.mark.parametrize("p", PRIMES)
def test_projection_laws_three_triples(p):
    pl = build_plane(p)
    inv4 = pow(4, p - 2, p)
    for params in ((1, 0, 0), (inv4, 1, 1), (2, 3, 1)):
        rep = verify_projection_laws(pl, *params)
        laws = rep["laws"]
        assert laws["L1"] and laws["L2"] and laws["L3"] and laws["L4"], (p, params)
        assert rep["l1_first_fail"] is None
        assert rep["all_ok"] == laws["L5"]


def test_shift_structure_for_canonical_parabola():
    # with alpha = 1/4, beta = gamma = 1 the slope-d class is the slope-1
    # class shifted by (d-1)^2
    for p in (5, 7, 13, 29):
        pl = build_plane(p)
        inv4 = pow(4, p - 2, p)
        rep = verify_projection_laws(pl, inv4, 1, 1)
        p1 = projection_profile(pl, inv4, 1, 1, 1)
        for d in range(1, p):
            shift = rep["shifts"][d - 1]
            prof_d = projection_profile(pl, inv4, 1, 1, d)
            assert (prof_d == np.roll(p1, -shift)).all()
            expected = (d - 1) ** 2 % p
            assert (prof_d == np.roll(p1, -expected)).all()


def test_l4_against_full_spectrum():
    for p in (7, 11):
        pl = build_plane(p)
        params = (pow(4, p - 2, p), 1, 1)
        n_ell = stream_secant_counts(pl, parabola_region(pl, *params)[0])
        skip = {class_of(pl, 0, 0, 1)} | {class_of(pl, 1, 0, -c % p) for c in range(p)} \
            | {class_of(pl, 0, p - 1, b) for b in range(p)}
        hist = [0] * (p + 2)
        for ell in range(pl.N):
            if ell not in skip:
                hist[n_ell[ell]] += 1
        pr1 = projection_profile(pl, *params, 1)
        for k in range(p + 2):
            assert hist[k] == (p - 1) * int((pr1 == k).sum())


def test_walk_reconstructs_canonical_profile():
    # pr_1 steps are chi(b-1), so pr_1 telescopes to a shifted psi walk
    for p in (7, 13, 31):
        pl = build_plane(p)
        inv4 = pow(4, p - 2, p)
        pr = projection_profile(pl, inv4, 1, 1, 1)
        chi = legendre_table(p)
        psi = psi_walk(p, 0).tolist()
        rebuilt = [int(pr[0])]
        for b in range(1, p):
            # sum_{j<=b-1} chi(j-1) = chi(-1) + psi[b-2] for b >= 2
            inc = int(chi[p - 1]) + (psi[b - 2] if b >= 2 else 0)
            rebuilt.append(int(pr[0]) + inc)
        assert rebuilt == pr.tolist()


def test_d_free_variant_is_reported_not_asserted():
    pl = build_plane(13)
    rep = verify_projection_laws(pl, pow(4, 11, 13), 1, 1)
    assert rep["step_law"].startswith("pr_d(b+1)")
    assert rep["d_free_variant"].startswith("-chi(")
    assert 0.0 <= rep["d_free_match_fraction"] <= 1.0
    assert rep["laws"]["L1"]


def test_levels_document_shape():
    out = level_stats(psi_walk(101, 0))
    assert out["zero_count"] >= 1
    assert out["envelope_log2"] == pytest.approx(math.log(101) ** 2)
    assert out["zero_over_sqrt"] == out["zero_count"] / math.sqrt(101)


def test_level_stats_is_the_levels_document(tmp_path):
    walk = psi_walk(101, 3)
    doc = level_stats(walk, 3)
    assert doc["p"] == 101 and doc["a"] == 3
    assert doc["counts"] == counter_level_stats(walk)[0]
    out = tmp_path / "levels.json"
    assert main(["charwalk", "--p", "101", "--a", "3", "--levels", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == doc
