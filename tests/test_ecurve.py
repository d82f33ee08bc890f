import json
import math

import numpy as np
import pytest

from secants import ecurve, spectrum
from secants.cli import CHECK_FAILED, main
from secants.construct import ec_region
from secants.ecurve import CurveError, _curve_counts, curve_count, ec_spectrum_scan
from secants.field import legendre_table
from secants.plane import ProjectivePlane, build_plane
from secants.spectrum import compute_spectrum

from conftest import (chart_stream_lines, class_of, cubic_root_count,
                      curve_count_bruteforce, curve_counts_by_line, line_curve_check)


def test_curve_count_examples():
    assert curve_count(5, 0, 1) == {"p": 5, "a": 0, "b": 1, "count": 6, "trace": 0,
                                    "hasse_ok": True}
    assert curve_count(5, -1, 0)["count"] == 8
    doc = curve_count(5, -1, -7)              # a and b are written reduced mod p
    assert (doc["a"], doc["b"]) == (4, 3)
    with pytest.raises(CurveError, match="singular"):
        curve_count(5, 0, 0)
    with pytest.raises(CurveError,
                       match=r"^singular curve: 4a\^3 \+ 27b\^2 = 0 mod 5 at a=5, b=-10$"):
        curve_count(5, 5, -10)
    with pytest.raises(CurveError, match="prime"):
        curve_count(9, 1, 1)
    with pytest.raises(CurveError, match="prime"):
        curve_count(3, 1, 1)


def test_curve_count_past_the_int64_cube():
    # x^3 passes 2^63 at this p; the sum is taken again on Python ints,
    # in chunks of the x range
    p = 3000017
    chi = legendre_table(p)
    total = p + 1
    for lo in range(0, p, 1 << 18):
        x = np.arange(lo, min(lo + (1 << 18), p)).astype(object)
        total += int(chi[((x * x * x + x + 1) % p).astype(np.int64)].sum())
    assert curve_count(p, 1, 1)["count"] == total == 2999216


def test_cubic_root_count_examples():
    assert cubic_root_count(5, 1, 0) == 3       # x(x-1)(x+1)
    assert cubic_root_count(5, 0, 2) == 1       # cubing is a bijection mod 5
    # oracle check: enumerate directly
    for (p, m, b) in [(5, 1, 0), (5, 0, 2), (7, 0, 1), (7, 0, -1), (11, 3, 4)]:
        expect = sum((x ** 3 - m * x - b) % p == 0 for x in range(p))
        assert cubic_root_count(p, m, b) == expect


def test_root_counts_mod7_cube_roots_of_unity():
    # x^3 = 1 has the three roots {1, 2, 4} since 3 | 7 - 1
    assert cubic_root_count(7, 0, 1) == 3
    assert {x for x in range(7) if (x ** 3 - 1) % 7 == 0} == {1, 2, 4}


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_count_matches_bruteforce_oracle(p):
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b * b) % p == 0:
                continue
            assert curve_count(p, a, b)["count"] == curve_count_bruteforce(p, a, b)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23])
def test_hasse_bound(p):
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b * b) % p == 0:
                continue
            c = curve_count(p, a, b)
            assert c["hasse_ok"] is True
            assert abs(c["trace"]) <= 2 * math.sqrt(p)


def test_line_curve_check_example():
    pl = build_plane(5)
    r = line_curve_check(pl, 1, 0)
    assert (r.n_ell, r.roots, r.curve_count) == (5, 3, 8)
    assert r.holds and r.skipped is None
    r2 = line_curve_check(pl, 0, 1)
    assert r2.holds
    assert r2.curve_count == curve_count(5, 0, -1)["count"]


def test_line_curve_check_skips_singular():
    pl = build_plane(5)
    # -4*27 + 27*b^2 = 0 mod 5 at b in {2, 3} for m = 3
    r = line_curve_check(pl, 3, 2)
    assert r.skipped == "singular" and not r.holds


def test_line_curve_check_region_reuse():
    pl = build_plane(13)
    region, _ = ec_region(pl)
    for m, b in [(1, 1), (4, 7), (12, 2)]:
        if (-4 * m ** 3 + 27 * b * b) % 13 == 0:
            continue
        r = line_curve_check(pl, m, b, region=region)
        assert r.holds
        assert r.curve_count == 2 * r.n_ell + 1 - r.roots


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29])
def test_scan_counts_every_curve_directly(p):
    # both classes of p mod 4 and the least non-square g = 2, 3 and 5, so the
    # rows read off the classes 1 and g by x = lam*y are checked with lam of
    # both characters; every root count against a scan of x.  The rows are
    # by class t and intercept c: the line v = m*x + b has the curve
    # Y^2 = X^3 + t*X + c with (t, c) = (-m, -b)
    counts, roots = _curve_counts(p)(np.arange(p))
    expect = curve_counts_by_line(p)
    assert {(m, b): int(counts[-m % p, -b % p]) for m, b in expect} == expect
    assert roots.tolist() == [[cubic_root_count(p, -t % p, -c % p) for c in range(p)]
                              for t in range(p)]


def off_by_one(line, blocks=spectrum.secant_count_blocks):
    """The block generator with +1 on the secant size of one line, found in
    the stream by its documented chart order."""
    def faulty(plane, mask):
        at = int(np.flatnonzero(chart_stream_lines(plane) == line)[0])
        lo = 0
        for counts in blocks(plane, mask):
            if lo <= at < lo + counts.size:
                counts[at - lo] += 1
            lo += counts.size
            yield counts
    return faulty


@pytest.mark.parametrize("p", [13, 29])
def test_scan_finds_one_secant_size_off(monkeypatch, p):
    # +1 on the secant size of the nonsingular line v = x + 1 breaks the
    # relation on that line alone, and the counting identities; the scan
    # holds the region as (x, v) at (1 : x : v), where that line is
    # [-1 : -1 : 1]
    pl = build_plane(p)
    faulty = off_by_one(class_of(pl, p - 1, p - 1, 1))
    monkeypatch.setattr(ecurve, "secant_count_blocks", faulty)
    monkeypatch.setattr(spectrum, "secant_count_blocks", faulty)
    rep, ok = ec_spectrum_scan(pl)
    assert rep["relation_violations"] == 1
    assert not ok
    assert compute_spectrum(pl, *ec_region(pl))["checks"]["eq1"] is False
    assert rep["checked_lines"] + rep["skipped_singular"] == p * p


@pytest.mark.parametrize("p", [5, 7, 11, 13, 101, 401])
def test_singular_lines_are_the_roots_of_the_discriminant(p):
    # the parametrization (t, c) = (-3r^2, 2r^3) against 4t^3 + 27c^2
    # evaluated on every (t, c), each root once
    t, c = ecurve._singular_lines(p)
    roots = [(a, b) for a in range(p) for b in range(p) if (4 * a ** 3 + 27 * b * b) % p == 0]
    assert sorted(zip(t.tolist(), c.tolist())) == roots


@pytest.mark.parametrize("p", [13, 29])
def test_scan_skips_a_fault_on_a_singular_line(monkeypatch, p):
    # +1 on the secant size of the singular line at r = 2, (t, c) =
    # (-12, 16), the line [c : t : 1], is not a relation violation, since
    # the relation is not checked there; the counting identities catch it
    pl = build_plane(p)
    monkeypatch.setattr(ecurve, "secant_count_blocks",
                        off_by_one(class_of(pl, 16 % p, -12 % p, 1)))
    rep, ok = ec_spectrum_scan(pl)
    assert rep["relation_violations"] == 0 and rep["skipped_singular"] == p
    assert not ok


def test_scan_exits_2_on_a_vertical_secant_size_off(monkeypatch, tmp_path):
    # the relation covers non-vertical lines only; +1 on the vertical x = 0,
    # [0 : 1 : 0] on the scan's chart, leaves it clean and is caught by the
    # counting identities
    p = 13
    monkeypatch.setattr(ecurve, "secant_count_blocks",
                        off_by_one(class_of(build_plane(p), 0, 1, 0)))
    rep, ok = ec_spectrum_scan(build_plane(p))
    assert rep["relation_violations"] == 0
    assert not ok                                    # the identities catch it
    assert main(["ec", "scan", "--p", str(p), "--out", str(tmp_path / "out")]) == CHECK_FAILED


def test_scan_exits_2_on_a_mode_count_under_the_ceiling(monkeypatch, tmp_path):
    # the relation and the identities hold; only the cor ceiling is raised
    monkeypatch.setattr(ecurve, "cor_bound_ceiling", lambda q: 10 ** 9)
    out = tmp_path / "out"
    assert main(["ec", "scan", "--p", "13", "--out", str(out)]) == CHECK_FAILED
    assert json.loads(out.read_text())["cor_ceiling"] == 10 ** 9


@pytest.mark.parametrize("p", [5, 13, 401])
def test_scan_reads_no_chart_table(monkeypatch, p):
    # the scan counts its region on the spectrum's chart, a view of the
    # mask, so it runs with the chart table unsolvable
    expect = ec_spectrum_scan(build_plane(p))

    def unsolvable(self, xs):
        raise AssertionError("the scan solved the chart")

    monkeypatch.setattr(ProjectivePlane, "affine_points", unsolvable)
    assert ec_spectrum_scan(build_plane(p)) == expect


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 29, 401, 997])
def test_scan_relation_and_identities(p):
    pl = build_plane(p)
    rep, ok = ec_spectrum_scan(pl)
    doc = compute_spectrum(pl, *ec_region(pl))
    assert rep["set_size"] == p * (p + 1) // 2
    assert rep["relation_violations"] == 0
    assert rep["skipped_vertical"] == p
    # 4t^3 + 27c^2 = 0 has c = 0 at t = 0, and two roots c at each t != 0
    # with -3t a square: p in all
    assert rep["skipped_singular"] == p
    assert rep["checked_lines"] + rep["skipped_singular"] == p * p
    assert ok and all(doc["checks"].values())
    assert rep["mode_count"] == doc["mode_count"] >= rep["cor_ceiling"]
    assert rep["skipped_lines"] == rep["skipped_vertical"] + rep["skipped_singular"]
    assert rep["mode_ratio"] > 0


def test_scan_agrees_with_scalar_path():
    p = 11
    pl = build_plane(p)
    region, _ = ec_region(pl)
    rep, _ = ec_spectrum_scan(pl)
    checked = 0
    for m in range(p):
        for b in range(p):
            r = line_curve_check(pl, m, b, region=region)
            if r.skipped:
                continue
            checked += 1
            assert r.holds
    assert checked == rep["checked_lines"]


def test_trace_parity_under_b_negation():
    # x -> -x maps the chi-sum of (a, b) to chi(-1) times that of (a, -b),
    # so the trace flips sign exactly when p = 3 (mod 4)
    for p in (7, 11, 13, 17, 19):
        sign = 1 if p % 4 == 1 else -1
        for a in range(p):
            for b in range(1, p):
                if (4 * a ** 3 + 27 * b * b) % p == 0:
                    continue
                t1 = curve_count(p, a, b)["trace"]
                t2 = curve_count(p, a, -b)["trace"]
                assert t2 == sign * t1, (p, a, b)
