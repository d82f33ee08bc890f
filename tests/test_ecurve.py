import json
import math

import numpy as np
import pytest

from secants import ecurve, spectrum
from secants.cli import CHECK_FAILED, main
from secants.construct import ec_region
from secants.ecurve import CurveError, _curve_counts, curve_count, ec_spectrum_scan
from secants.field import legendre_table
from secants.plane import build_plane
from secants.spectrum import compute_spectrum

from conftest import (class_of, cubic_root_count, curve_count_bruteforce,
                      curve_counts_by_line, line_curve_check)


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
    # rows read off the slopes 1 and g by x = lam*y are checked with lam of
    # both characters; every root count against a scan of x
    counts, roots = _curve_counts(p)
    expect = curve_counts_by_line(p)
    assert {line: int(counts[line]) for line in expect} == expect
    assert roots.tolist() == [[cubic_root_count(p, m, b) for b in range(p)]
                              for m in range(p)]


@pytest.mark.parametrize("p", [13, 29])
def test_scan_finds_one_secant_size_off(monkeypatch, p):
    # +1 on the secant size of the nonsingular line v = x + 1 breaks the
    # relation on that line alone, and the counting identities
    pl = build_plane(p)
    line = class_of(pl, 1, p - 1, 1)                 # [1 : -1 : 1]

    def off_by_one(plane, mask, kernel=spectrum._spectrum_affine):
        n_ell = kernel(plane, mask)
        n_ell[line] += 1
        return n_ell

    monkeypatch.setattr(spectrum, "_spectrum_affine", off_by_one)
    rep, ok = ec_spectrum_scan(pl)
    assert rep["relation_violations"] == 1
    assert not ok
    assert compute_spectrum(pl, *ec_region(pl))[0]["checks"]["eq1"] is False
    assert rep["checked_lines"] + rep["skipped_singular"] == p * p


def test_scan_exits_2_on_a_vertical_secant_size_off(monkeypatch, tmp_path):
    # the relation covers non-vertical lines only; +1 on the vertical x = 0
    # leaves it clean and is caught by the counting identities
    p = 13
    line = class_of(build_plane(p), 1, 0, 0)          # [1 : 0 : 0]

    def off_by_one(plane, mask, kernel=spectrum._spectrum_affine):
        n_ell = kernel(plane, mask)
        n_ell[line] += 1
        return n_ell

    monkeypatch.setattr(spectrum, "_spectrum_affine", off_by_one)
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


@pytest.mark.parametrize("p", [5, 7, 11, 13, 19, 29, 401, 997])
def test_scan_relation_and_identities(p):
    pl = build_plane(p)
    rep, ok = ec_spectrum_scan(pl)
    doc, _ = compute_spectrum(pl, *ec_region(pl))
    assert rep["set_size"] == p * (p + 1) // 2
    assert rep["relation_violations"] == 0
    assert rep["skipped_vertical"] == p
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
