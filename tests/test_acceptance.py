"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line, with tolerances and runtime budgets pinned to their stated values."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from secants.charwalk import (profile_range_check, projection_profile,
                              verify_projection_laws)
from secants.cli import main as cli_main
from secants.construct import ec_region, parabola_family, parabola_region, random_set
from secants.ecurve import curve_count, ec_spectrum_scan
from secants.field import is_prime, legendre_table
from secants.harness import exhaustive_minmax, local_search, run_sweep
from secants.legit import (generate_linear_hypergraph, two_phase_coloring,
                           verify_legitimate)
from secants.plane import build_plane
from secants.spectrum import compute_spectrum, cor_bound_ceiling

from conftest import curve_count_bruteforce, histogram_counts, identity_residuals, mask_of

IDENTITY_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13)
SETS_PER_ORDER = 200
DENSITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

SCALING_PRIMES = (101, 211, 307, 401, 499)
SCALING_SEEDS = tuple(range(10))

LAW_TRIPLES = ((1, 0, 0), ("1/4", 1, 1), (2, 3, 1))


# one line per criterion; conftest echoes these after the run, outside
# pytest's output capture
ACCEPTANCE_LINES = []


def report(num, ok, desc):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {desc}"


def primes_in(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def parabola_coeffs(plane, triple):
    p = plane.field.p
    vals = []
    for v in triple:
        if isinstance(v, str):
            num, _, den = v.partition("/")
            vals.append(int(num) * pow(int(den), p - 2, p) % p)
        else:
            vals.append(v % p)
    return vals


@pytest.fixture(scope="module")
def identity_corpus():
    """Criterion-1 corpus: 200 seeded random sets per order, densities
    cycling through 1/4, 1/2, 3/4; spectra computed once as (plane, mask,
    document, n_ell), reused by the complement-duality and universal-bound
    criteria."""
    corpus = []
    start = time.monotonic()
    for q in IDENTITY_ORDERS:
        plane = build_plane(q)
        for seed in range(SETS_PER_ORDER):
            density = DENSITIES[seed % len(DENSITIES)]
            mask, meta = random_set(plane, density, seed)
            corpus.append((plane, mask, *compute_spectrum(plane, mask, meta)))
    return corpus, time.monotonic() - start


def test_criterion_01_exact_identities(identity_corpus):
    corpus, elapsed = identity_corpus
    bad = 0
    for plane, mask, doc, n_ell in corpus:
        if (identity_residuals(plane.q, int(mask.sum()), n_ell) != (0, 0, 0)
                or not all(doc["checks"].values())):
            bad += 1
    ok = bad == 0 and len(corpus) == len(IDENTITY_ORDERS) * SETS_PER_ORDER \
        and elapsed < 60.0
    report(1, ok, f"standard equations + variance identity on {len(corpus)} "
                  f"random sets, residuals all zero, {elapsed:.1f}s < 60s")


def test_criterion_02_universal_lower_bound(identity_corpus):
    corpus, _ = identity_corpus
    violations = 0
    checked = 0

    def check(q, doc):
        nonlocal violations, checked
        checked += 1
        if doc["mode_count"] < cor_bound_ceiling(q):
            violations += 1

    def check_set(plane, mask, meta=None):
        check(plane.q, compute_spectrum(plane, mask, meta)[0])

    for plane, _, doc, _ in corpus:
        check(plane.q, doc)
    # deterministic constructions across a prime span
    for p in primes_in(5, 31):
        plane = build_plane(p)
        check_set(plane, *ec_region(plane))
        check_set(plane, *parabola_region(plane, 1, 0, 0))
        if p >= 7:
            check_set(plane, *parabola_family(plane, Fraction(1, 2)))
    # search witnesses and degenerate sets
    for q in (2, 3, 4):
        plane = build_plane(q)
        res = exhaustive_minmax(plane)
        check_set(plane, mask_of(plane, res["witness_points"]))
        check_set(plane, np.zeros(plane.N, dtype=bool))
        check_set(plane, np.ones(plane.N, dtype=bool))
        check_set(plane, mask_of(plane, [0]))
    report(2, violations == 0,
           f"mode_count >= ceil(N/sqrt(3q+13)) on {checked} sets, "
           f"{violations} violations")


def test_criterion_03_exhaustive_oracle():
    t0 = time.monotonic()
    res2 = exhaustive_minmax(build_plane(2))
    t3 = time.monotonic()
    res3 = exhaustive_minmax(build_plane(3))
    t3 = time.monotonic() - t3
    t4 = time.monotonic()
    res4 = exhaustive_minmax(build_plane(4), threads=8)
    t4 = time.monotonic() - t4
    locals_match = all(
        local_search(build_plane(q), iters=300, seed=11, restarts=10
                     )["best_mode_count"] == res["best_mode_count"]
        for q, res in ((2, res2), (3, res3), (4, res4)))
    best = [res["best_mode_count"] for res in (res2, res3, res4)]
    ok = (best[0] == 3
          and t3 < 5.0 and t4 < 300.0
          and best[1] >= 3 and best[2] >= 5
          and locals_match)
    report(3, ok, f"exhaustive min-max: q=2 -> {best[0]} (=3), "
                  f"q=3 -> {best[1]} in {t3:.1f}s (<5s), "
                  f"q=4 -> {best[2]} in {t4:.1f}s (<300s on 8 workers), "
                  f"local search agrees: {locals_match}")


def test_criterion_04_random_construction_scaling():
    t0 = time.monotonic()
    rows = run_sweep(list(SCALING_PRIMES), "random:density=1/2",
                     seeds=list(SCALING_SEEDS))
    elapsed = time.monotonic() - t0
    ratios = [r["ratio"] for r in rows]
    in_window = all(0.55 <= x <= 1.00 for x in ratios)
    mean_499 = sum(r["ratio"] for r in rows if r["q"] == 499) / len(SCALING_SEEDS)
    target = math.sqrt(2 / math.pi)
    mean_ok = abs(mean_499 - target) / target <= 0.10
    clean = all(r["eq1"] and r["eq2"] and r["var_ok"] and r["cor_ok"] and not r["error"]
                for r in rows)
    ok = in_window and mean_ok and clean and len(rows) == 50
    report(4, ok, f"50 sweep cells (seeds {SCALING_SEEDS[0]}..{SCALING_SEEDS[-1]}), "
                  f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}] within "
                  f"[0.55, 1.00]; mean@499 = {mean_499:.4f} within 10% of "
                  f"sqrt(2/pi) = {target:.4f}; {elapsed:.1f}s")


def test_criterion_05_projection_laws():
    t0 = time.monotonic()
    law_fail = []
    for p in primes_in(5, 199):
        plane = build_plane(p)
        for triple in LAW_TRIPLES:
            laws = verify_projection_laws(plane, *parabola_coeffs(plane, triple))["laws"]
            if not (laws["L1"] and laws["L2"] and laws["L3"] and laws["L4"]):
                law_fail.append((p, triple))
    range_fail = []
    for p in primes_in(5, 1999):
        plane = build_plane(p)
        span, lo, hi, ok = profile_range_check(
            projection_profile(plane, *parabola_coeffs(plane, LAW_TRIPLES[1]), 1))
        if not ok:
            range_fail.append((p, span, lo, hi))
    elapsed = time.monotonic() - t0
    ok = not law_fail and not range_fail and elapsed < 60.0
    report(5, ok, f"L1-L4 exact for p<=199 x {len(LAW_TRIPLES)} triples "
                  f"({len(law_fail)} failures); L5 range window for p<=1999 "
                  f"({len(range_fail)} failures); {elapsed:.1f}s < 60s")


def test_criterion_06_family_counting():
    failures = 0
    checked_lines = 0
    for p in primes_in(7, 97):
        plane = build_plane(p)
        chi = legendre_table(p).astype(np.int64)
        for c in (Fraction(1, 4), Fraction(1, 2)):
            a = math.floor(c * p)
            _, n_ell = compute_spectrum(plane, *parabola_family(plane, c))
            m = np.arange(p, dtype=np.int64)
            b = np.arange(p, dtype=np.int64)
            u = (m[:, None] ** 2 + 4 * b[None, :]) % p
            expect = np.full((p, p), a, dtype=np.int64)
            for t in range(a):
                expect += chi[(u - 4 * t) % p]
            got = n_ell[plane.affine_lines()]
            failures += int((got != expect).sum())
            checked_lines += p * p
            for cc in range(p):
                checked_lines += 1
                if n_ell[plane.index_of([1, 0, -cc % p])] != a:
                    failures += 1
    report(6, failures == 0,
           f"family-of-parabolas counting exact on {checked_lines} lines "
           f"(non-vertical via the a + moving-chi-sum formula, vertical = a), "
           f"{failures} failures")


def test_criterion_07_elliptic_curves():
    t0 = time.monotonic()
    hasse_bad = sum(
        1
        for p in primes_in(5, 47)
        for a in range(p)
        for b in range(p)
        if (4 * a ** 3 + 27 * b * b) % p != 0
        and not curve_count(p, a, b)["hasse_ok"])
    enum_bad = sum(
        1
        for p in primes_in(5, 31)
        for a in range(p)
        for b in range(p)
        if (4 * a ** 3 + 27 * b * b) % p != 0
        and curve_count(p, a, b)["count"] != curve_count_bruteforce(p, a, b))
    relation_bad = 0
    for p in primes_in(7, 101):
        rep, _ = ec_spectrum_scan(build_plane(p))
        relation_bad += rep["relation_violations"]
        assert rep["checked_lines"] + rep["skipped_singular"] == p * p
    elapsed = time.monotonic() - t0
    ok = hasse_bad == 0 and enum_bad == 0 and relation_bad == 0 and elapsed < 120.0
    report(7, ok, f"Hasse p<=47: {hasse_bad} bad; chi-sum vs enumeration "
                  f"p<=31: {enum_bad} bad; line-curve relation 5<p<=101: "
                  f"{relation_bad} violations; {elapsed:.1f}s < 120s")


def test_criterion_08_legitimate_coloring():
    t0 = time.monotonic()
    failures = 0
    instances = 0
    for mode in ("pairwise", "sunflower", "mixed"):
        for n in range(1, 61):
            for seed in range(50):
                instances += 1
                hg = generate_linear_hypergraph(n, seed, mode)
                try:
                    doc, color = two_phase_coloring(hg)
                except Exception:
                    failures += 1
                    continue
                if doc["blue_counts"] != doc["targets"]:
                    failures += 1
                elif len(set(doc["blue_counts"])) != n:
                    failures += 1
                elif not all(d["feasible"] for d in doc["diagnostics"]):
                    failures += 1
                elif not verify_legitimate(hg, color)[0]:
                    failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0 and instances == 9000 and elapsed < 30.0
    report(8, ok, f"two-phase coloring on {instances} instances "
                  f"(n<=60, 50 seeds, 3 modes): {failures} failures; "
                  f"{elapsed:.1f}s < 30s")


def test_criterion_09_complement_duality(identity_corpus):
    corpus, _ = identity_corpus
    violations = 0
    for plane, mask, doc, _ in corpus:
        doc_c, _ = compute_spectrum(plane, ~mask, None)
        if histogram_counts(doc_c) != histogram_counts(doc)[::-1]:
            violations += 1
    report(9, violations == 0,
           f"complement histogram reversal on {len(corpus)} sets, "
           f"{violations} violations")


def test_criterion_10_cli_determinism(tmp_path):
    cases = [
        ("sweep", "--primes", "7,11,13", "--construction",
         "random:density=1/2", "--seeds", "4"),
        ("spectrum", "--q", "9", "--construction", "random:density=3/4",
         "--seed", "7"),
        ("exhaustive", "--q", "3"),
        ("charwalk", "--p", "61", "--a", "3"),
        ("projection", "--p", "29", "--alpha", "1/4", "--beta", "1",
         "--gamma", "1"),
        ("ec", "scan", "--p", "13"),
        ("search", "--q", "7", "--iters", "50", "--restarts", "3", "--seed", "1"),
    ]
    stable = True
    for i, args in enumerate(cases):
        outputs = []
        for j, threads in enumerate(("1", "1", "4")):
            path = tmp_path / f"case{i}_{j}.out"
            code = cli_main([*args, "--threads", threads, "--out", str(path)])
            assert code == 0, (args, code)
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            stable = False
    report(10, stable, f"{len(cases)} CLI invocations byte-identical across "
                       f"repeats and --threads 1/4")
