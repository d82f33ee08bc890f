import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secants import plane as plane_module
from secants import spectrum as spectrum_module
from secants.construct import build_construction, pointset_from_json, random_set
from secants.field import is_prime, make_field
from secants.ecurve import ec_spectrum_scan
from secants.plane import build_plane
from secants.spectrum import (bounds_report, compute_spectrum, cor_bound_ceiling,
                              secant_count_blocks, verify_counting_identities)

from conftest import (assert_spectrum_matches_naive, chart_stream_lines, class_of,
                      contains, gather_secant_counts, histogram_counts, identity_residuals,
                      mask_of, naive_histogram, naive_secant_counts, slice_rows,
                      slope_lines, stream_lines, stream_secant_counts)


def fano_triangle(fano):
    rows = fano.line_points().tolist()
    for comb in itertools.combinations(range(7), 3):
        if all(len(set(comb) & set(row)) < 3 for row in rows):
            return comb
    raise AssertionError("no triangle found")


def test_full_line_spectrum(fano):
    S = mask_of(fano, fano.line_points([0])[0])
    doc, n_ell = compute_spectrum(fano, S, None), stream_secant_counts(fano, S)
    # any other line meets this one in exactly one point
    assert histogram_counts(doc) == [0, 6, 0, 1]
    assert (doc["mode_k"], doc["mode_count"]) == (1, 6)
    assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
    assert int(n_ell.sum()) == 9
    assert int((n_ell * (n_ell - 1)).sum()) == 6
    assert 7 * int((n_ell ** 2).sum()) - 81 == 24


def test_empty_and_full_set(fano):
    doc = compute_spectrum(fano, np.zeros(fano.N, dtype=bool), None)
    assert histogram_counts(doc) == [7, 0, 0, 0]
    assert (doc["mode_k"], doc["mode_count"]) == (0, 7)
    assert all(doc["checks"].values())
    doc_full = compute_spectrum(fano, np.ones(fano.N, dtype=bool), None)
    assert histogram_counts(doc_full) == [0, 0, 0, 7]
    assert all(doc_full["checks"].values())


def test_triangle_spectrum(fano):
    tri = fano_triangle(fano)
    doc = compute_spectrum(fano, mask_of(fano, tri), None)
    assert histogram_counts(doc) == [1, 3, 3, 0]
    # ties resolve to the smallest k
    assert (doc["mode_k"], doc["mode_count"]) == (1, 3)


def test_single_point_variance_identity():
    # N*Σn² - (Σn)² = q(N-1) * ... both sides reduce to q²(q+1) at |S| = 1
    for q in (2, 3, 4, 5, 7, 9):
        pl = build_plane(q)
        S = mask_of(pl, [0])
        doc, n_ell = compute_spectrum(pl, S, None), stream_secant_counts(pl, S)
        assert all(doc["checks"].values())
        lhs = pl.N * int((n_ell ** 2).sum()) - int(n_ell.sum()) ** 2
        assert lhs == q * q * (q + 1)


def test_counting_identities_catch_a_count_off():
    q = 7
    pl = build_plane(q)
    S, meta = random_set(pl, Fraction(1, 2), 0)
    n_ell = stream_secant_counts(pl, S)
    size = int(S.sum())
    assert verify_counting_identities(q, size, np.bincount(n_ell)) == \
        {"eq1": True, "eq2": True, "var": True}
    off = n_ell.copy()
    off[0] += 1
    assert verify_counting_identities(q, size, np.bincount(off))["eq1"] is False
    # one incidence moved from the fullest line to the emptiest keeps Σn, not Σn²
    moved = n_ell.copy()
    moved[n_ell.argmax()] -= 1
    moved[n_ell.argmin()] += 1
    assert verify_counting_identities(q, size, np.bincount(moved)) == \
        {"eq1": True, "eq2": False, "var": False}


def test_complement_involution_and_reversal(fano):
    tri = fano_triangle(fano)
    S = mask_of(fano, tri)
    Sc = ~S
    assert Sc.sum() == 4
    assert np.array_equal(~Sc, S)
    assert (~np.zeros(fano.N, dtype=bool)).sum() == fano.N
    hist = histogram_counts(compute_spectrum(fano, S, None))
    hist_c = histogram_counts(compute_spectrum(fano, Sc, None))
    assert hist_c == hist[::-1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_spectrum_matches_naive_oracle(q):
    pl = build_plane(q)
    rng = random.Random(q)
    for _ in range(8):
        members = [i for i in range(pl.N) if rng.random() < 0.4]
        S = mask_of(pl, members)
        doc = compute_spectrum(pl, S, None)
        assert_spectrum_matches_naive(pl, S, stream_secant_counts(pl, S))
        assert all(doc["checks"].values())
        assert doc["mode_count"] >= cor_bound_ceiling(q)
        assert histogram_counts(doc) == naive_histogram(pl, members)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_gather_and_affine_kernels_agree(p):
    pl = build_plane(p)
    rng = np.random.default_rng(p)
    for density in (0.2, 0.5, 0.9):
        mask = rng.random(pl.N) < density
        assert (gather_secant_counts(pl, mask) == stream_secant_counts(pl, mask)).all()


def test_affine_kernel_handles_infinite_points():
    pl = build_plane(7)
    infinite = pl.line_points([class_of(pl, 0, 0, 1)])[0].tolist()
    S = mask_of(pl, infinite[:4] + [class_of(pl, 2, 3, 1)])
    assert (stream_secant_counts(pl, S) == gather_secant_counts(pl, S)).all()
    assert stream_secant_counts(pl, S).tolist() == naive_secant_counts(pl, np.flatnonzero(S))


def test_spectrum_scratch_is_bounded():
    # only the transform F (q x (q//2 + 1) complex, 7.6 MiB) is kept whole:
    # the grid is a view of the mask, every other temporary comes in
    # blocks, and the counts stream into the histogram, so no array of all
    # N counts exists.  Measured 10.3 MiB at q=997, from a fresh plane;
    # 11.4 MiB when the grid was gathered through the chart, and 22.8 MiB
    # when the N per-line counts and the chart table were held
    q = 997
    pl = build_plane(q)
    mask, meta = random_set(pl, Fraction(1, 2), 0)
    tracemalloc.start()
    try:
        compute_spectrum(pl, mask, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak
    assert not any(isinstance(v, np.ndarray) for v in vars(pl).values())


STREAM_ORDERS = [2, 3, 4, 8, 9, 16, 25, 27, 31]


@pytest.mark.parametrize("q", STREAM_ORDERS)
def test_streamed_histogram_matches_per_line_counts_and_naive(q):
    # the histogram bincounted block by block is the set oracle's
    # histogram, and the blocks, joined, are the oracle's per-line counts
    # in the documented chart order, which the per-line reader's map
    # encodes
    pl = build_plane(q)
    order = chart_stream_lines(pl)
    assert sorted(order.tolist()) == list(range(pl.N))
    assert (stream_lines(pl) == order).all()
    rng = np.random.default_rng(q)
    for density in (0.1, 0.5, 0.9):
        mask = rng.random(pl.N) < density
        n_ell = np.array(naive_secant_counts(pl, np.flatnonzero(mask)))
        hist = histogram_counts(compute_spectrum(pl, mask, None))
        assert hist == np.bincount(n_ell, minlength=q + 2).tolist()
        blocks = list(secant_count_blocks(pl, mask))
        assert [b.dtype for b in blocks] == [np.int64] * len(blocks)
        assert np.concatenate(blocks).tolist() == n_ell[order].tolist()
        assert stream_secant_counts(pl, mask).tolist() == n_ell.tolist()


@pytest.mark.parametrize("q", [7, 9, 16])
@pytest.mark.parametrize("fault", ["drop", "repeat"])
def test_a_lost_or_repeated_block_trips_the_line_count_guard(monkeypatch, q, fault):
    # dropping or repeating one block of two classes leaves the histogram
    # summing to N - 2q or past N, never to N; the curve scan reads the
    # same guarded stream
    pl = build_plane(q)
    mask = np.random.default_rng(q).random(pl.N) < 0.5
    kernel = spectrum_module.affine_class_blocks

    def faulty(grid, field):
        for i, (lo, counts) in enumerate(kernel(grid, field)):
            for _ in range({"drop": 0, "repeat": 2}[fault] if i == 1 else 1):
                yield lo, counts.copy()

    monkeypatch.setattr(spectrum_module, "_RADON_BLOCK_ENTRIES", 2 * q)
    assert sum(histogram_counts(compute_spectrum(pl, mask, None))) == pl.N
    monkeypatch.setattr(spectrum_module, "affine_class_blocks", faulty)
    counted = str(pl.N - 2 * q) if fault == "drop" else r"\d+"
    guard = rf"^the spectrum of PG\(2,{q}\) counted {counted} of its {pl.N} lines$"
    with pytest.raises(ArithmeticError, match=guard):
        compute_spectrum(pl, mask, None)
    if q == 7:
        with pytest.raises(ArithmeticError, match=guard):
            ec_spectrum_scan(pl)


@pytest.mark.parametrize("q", [8, 9])
def test_line_points_fills_solved_blocks_in_place(monkeypatch, q):
    whole = build_plane(q).line_points()
    monkeypatch.setattr(plane_module, "_SOLVE_BLOCK_ENTRIES", 100)
    pl = build_plane(q)
    step = 100 // (q + 1)
    blocks = [pl.line_points(np.arange(lo, min(lo + step, pl.N)))
              for lo in range(0, pl.N, step)]
    assert len(blocks) > 1
    assert (pl.line_points() == np.concatenate(blocks)).all()
    assert (pl.line_points() == whole).all()
    # any batch of lines, in any order, solves to the same rows
    order = np.random.default_rng(q).permutation(pl.N)
    assert (pl.line_points(order) == whole[order]).all()


@pytest.mark.parametrize("q", [8, 9])
def test_spectrum_needs_no_incidence_cache(monkeypatch, q):
    def unsolvable(self, lines=None):
        raise AssertionError("the spectrum solved lines")

    monkeypatch.setattr(plane_module.ProjectivePlane, "line_points", unsolvable)
    pl = build_plane(q)
    S, meta = random_set(pl, Fraction(1, 3), q)
    assert_spectrum_matches_naive(pl, S, stream_secant_counts(pl, S))
    assert histogram_counts(compute_spectrum(pl, S, meta)) == \
        naive_histogram(pl, np.flatnonzero(S))


_PROPERTY_PLANES = {q: build_plane(q)
                    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)}


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_PROPERTY_PLANES)), data=st.data())
def test_kernels_match_naive_oracle_property(q, data):
    pl = _PROPERTY_PLANES[q]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=pl.N, max_size=pl.N)))
    expect = naive_secant_counts(pl, np.flatnonzero(mask))
    assert gather_secant_counts(pl, mask).tolist() == expect
    assert stream_secant_counts(pl, mask).tolist() == expect
    assert histogram_counts(compute_spectrum(pl, mask, None)) == \
        np.bincount(expect, minlength=q + 2).tolist()


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_PROPERTY_PLANES)), block=st.integers(1, 200),
       data=st.data())
def test_radon_kernel_matches_gather_and_naive_property(q, block, data):
    # any block size, down to one slope per block, gives the same counts
    pl = _PROPERTY_PLANES[q]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=pl.N, max_size=pl.N)))
    expect = naive_secant_counts(pl, np.flatnonzero(mask))
    saved = spectrum_module._RADON_BLOCK_ENTRIES
    spectrum_module._RADON_BLOCK_ENTRIES = block
    try:
        radon = stream_secant_counts(pl, mask)
    finally:
        spectrum_module._RADON_BLOCK_ENTRIES = saved
    assert radon.tolist() == gather_secant_counts(pl, mask).tolist() == expect


@pytest.mark.parametrize("q", [32, 49, 64, 81, 121, 125, 128])
def test_radon_kernel_matches_gather_on_extension_planes(q):
    pl = build_plane(q)
    rng = np.random.default_rng(q)
    for density in (0.1, 0.5, 0.9):
        mask = rng.random(pl.N) < density
        assert (stream_secant_counts(pl, mask) == gather_secant_counts(pl, mask)).all()


@pytest.mark.parametrize("q", [2, 4, 8, 16, 5, 7, 9, 25, 27])
def test_radon_kernel_block_shapes(monkeypatch, q):
    # Rows go through the forward FFT in pairs, and classes through the
    # inverse FFT in groups of four, over blocks of an even number of
    # classes.  Up to 3q+1 entries give blocks of one pair, a short group
    # of two classes, and leave an odd q's last row unpaired; 5q+1 gives
    # blocks of four, 6q+1 blocks of six, a full group and a short one.  An
    # odd q's last block holds q % 4 classes at 5q+1: one at q = 5, 9 and
    # 25, three at q = 7 and 27.  At p = 2 the half-spectrum is the whole
    # spectrum: nothing is mirrored.
    pl = build_plane(q)
    rng = np.random.default_rng(q)
    masks = [rng.random(pl.N) < density for density in (0.2, 0.5, 0.9)]
    expects = [naive_secant_counts(pl, np.flatnonzero(mask)) for mask in masks]
    for block in (1, q, q + 1, 3 * q + 1, 5 * q + 1, 6 * q + 1,
                  spectrum_module._RADON_BLOCK_ENTRIES):
        monkeypatch.setattr(spectrum_module, "_RADON_BLOCK_ENTRIES", block)
        for mask, expect in zip(masks, expects):
            assert stream_secant_counts(pl, mask).tolist() == expect, block
            assert gather_secant_counts(pl, mask).tolist() == expect


@pytest.mark.parametrize("q", [7, 9, 997])
def test_spectrum_reads_the_chart_without_a_gather(monkeypatch, q):
    # the chart of the points (1 : a : b) is a view of the mask, so the
    # spectrum runs with the chart table unsolvable
    pl = build_plane(q)
    mask, meta = random_set(pl, Fraction(1, 2), q)
    expect = np.bincount(stream_secant_counts(pl, mask), minlength=q + 2).tolist()
    if q < 10:
        assert expect == naive_histogram(pl, np.flatnonzero(mask))

    def unsolvable(self, xs):
        raise AssertionError("the spectrum gathered the chart")

    monkeypatch.setattr(plane_module.ProjectivePlane, "affine_points", unsolvable)
    doc = compute_spectrum(pl, mask, meta)
    assert histogram_counts(doc) == expect
    assert all(doc["checks"].values())


@pytest.mark.parametrize("q", [997, 1999])
@pytest.mark.parametrize("construction", ["random:density=1/2", "ecregion"])
def test_packed_rounding_error_has_margin(monkeypatch, q, construction):
    # four classes share one inverse FFT as count + B*count' with B > q, so
    # the packed values reach about q*B; their rounding error stays under
    # 1e-6 at the largest primes run, a thousandth of the 1e-3 guard
    assert spectrum_module._RADON_TOLERANCE == 1e-3
    pl = build_plane(q)
    mask, meta = build_construction(pl, construction, seed=0)
    monkeypatch.setattr(spectrum_module, "_RADON_TOLERANCE", 1e-6)
    doc = compute_spectrum(pl, mask, meta)
    assert sum(histogram_counts(doc)) == pl.N
    assert all(doc["checks"].values())


@pytest.mark.parametrize("q, construction, digest", [
    (997, "random:density=1/2",
     "e16c00fd6c2a3b233a2087b69bf5f9e8656e08dfbbf293ae5d2f29add028934d"),
    (997, "ecregion", "67669da67c3d77a3c6e344c7a482dba6708421a8f8e95cf9a829c1b99bf7749a"),
    (32, "random:density=1/2",
     "4a0f846dcd62ea3474e60dceea93d0221061dd64f55f98b195d8009318a6146d"),
    (49, "random:density=1/2",
     "3140dd94a68dfce6eb9445b202ffcbe64cfd87053c2cfe1efd942da1602ab502"),
    (25, "random:density=1/2",
     "98f77115368bae0d1e77382e5b6ef2bf3c69831da1fbf9374b443b95f987b8a4"),
    (27, "random:density=1/2",
     "a5368bd556d60b578d328a1c4a50d5b84bccb888b56772854a4dc6d750b5a212"),
    ((499, 0), "random:density=1/2",
     "10c304dabf98220b488dab54beaa0735f8d75c13991ed09b6ec28a25a79c250f"),
    ((499, 1), "random:density=1/2",
     "8b18aed3d465df97b432a183671ece5e5ce43fb29242d8458c92f71e746f0bcf"),
    ((499, 2), "random:density=1/2",
     "2d17d1c25938ec5d0500384c40ce09d0374b51ca1cf418822884ab192f94568d"),
    ((499, 3), "random:density=1/2",
     "2db4520637b3675fcd82713331e82e7c07d60170025ce98c4d77fe87966ce674"),
])
def test_secant_counts_match_recorded_digests(q, construction, digest):
    # sha256 of n_ell, in line-index order, as little-endian int64 at the
    # benchmark's largest prime, its q=499 sweep cells (seeds 0-3) and small
    # and larger extension planes: a change of any one secant count shows
    q, seed = q if isinstance(q, tuple) else (q, 0)
    pl = build_plane(q)
    n_ell = stream_secant_counts(pl, build_construction(pl, construction, seed=seed)[0])
    assert hashlib.sha256(n_ell.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("q", sorted({2, 3, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128}
                                      | {p for p in range(2, 102) if is_prime(p)}))
def test_slice_index_is_the_digit_formula(q):
    # the row M_t^T v of every class's slice, read from the orbit table,
    # against the digit products; at q = 2 the orbit is GF(2)^* = {1}
    F = make_field(q)
    cols = q // F.p * (F.p // 2 + 1)
    index = spectrum_module._slice_index(F, cols)(np.arange(q))
    expect = [slice_rows(F, t, cols) * cols + np.arange(cols) for t in range(q)]
    assert np.array_equal(index, expect)


@pytest.mark.parametrize("q, offset, raises", [
    pytest.param(11, 0.25, True, id="0.25-True"),
    pytest.param(11, 1e-4, False, id="0.0001-False"),
    pytest.param(9, 0.25, True, id="q9-0.25-True"),
    pytest.param(9, 1e-4, False, id="q9-0.0001-False"),
])
def test_radon_rounding_guard(monkeypatch, q, offset, raises):
    # the inverse pass packs four classes into the real and the imaginary
    # part of one inverse FFT, two to a part, so the guard must watch both
    pl = build_plane(q)
    mask = np.random.default_rng(q).random(pl.N) < 0.5
    expect = gather_secant_counts(pl, mask)
    ifftn = np.fft.ifftn
    for member in (offset, 1j * offset):
        monkeypatch.setattr(np.fft, "ifftn",
                            lambda *a, member=member, **k: ifftn(*a, **k) + member)
        if raises:
            with pytest.raises(ArithmeticError, match="off an integer"):
                compute_spectrum(pl, mask, None)
        else:
            assert (stream_secant_counts(pl, mask) == expect).all()


def test_radon_kernel_at_p997_against_direct_bincounts():
    # the largest prime of the benchmark workloads, where the transform's
    # rounding error is largest
    p = 997
    pl = build_plane(p)
    grid = np.random.default_rng(997).random((p, p)) < 0.5
    xs, ys = np.nonzero(grid)
    mask = np.zeros(pl.N, dtype=bool)
    mask[pl.affine_points(range(p))[xs, ys]] = True
    n_ell = stream_secant_counts(pl, mask)
    lines = slope_lines(pl)
    for d in (0, 1, 2, 498, 996):
        expect = np.bincount((ys - d * xs) % p, minlength=p)
        assert (n_ell[lines[d]] == expect).all(), d


def test_bounds_report_examples():
    br = bounds_report(2, 3)
    assert sorted(br) == ["cor", "prop", "thm_lower"]
    # the variance q*s*(1 - s/N) is 24/7 here
    assert math.isclose(br["prop"], 7 ** 1.5 / math.sqrt(12 * 24 / 7 + 91))
    assert round(br["prop"], 3) == 1.611
    assert round(br["cor"], 3) == 1.606
    assert math.isclose(bounds_report(2, 0)["prop"], 7 / math.sqrt(13))
    assert bounds_report(2, 5)["thm_lower"] < 0
    with pytest.raises(ValueError):
        bounds_report(3, 14)


def test_bounds_monotonicity_and_symmetry():
    for q in (2, 3, 5, 9):
        N = q * q + q + 1
        for s in range(N + 1):
            br = bounds_report(q, s)
            assert br["prop"] >= br["cor"] - 1e-9
            assert br["prop"] == bounds_report(q, N - s)["prop"]


def test_cor_bound_ceiling_matches_float_ceiling():
    for q in list(range(2, 60)) + [101, 211, 499]:
        N = q * q + q + 1
        assert cor_bound_ceiling(q) == math.ceil(N / math.sqrt(3 * q + 13))


def test_pointset_basics(fano):
    S = mask_of(fano, [0, 3, 5])
    assert S.sum() == 3 and contains(S, 3) and not contains(S, 1)
    assert np.flatnonzero(S).tolist() == [0, 3, 5]
    with pytest.raises(ValueError):
        mask_of(fano, [99])
    with pytest.raises(ValueError, match="out of range"):
        mask_of(fano, [-1])                     # would alias to point N-1
    pl = build_plane(7)
    built = [build_construction(pl, spec) for spec in ("random", "parabola", "family",
                                                       "ecregion")]
    for mask, _ in built + [pointset_from_json(pl, {"q": 7, "affine": [[1, 2]]})]:
        with pytest.raises(ValueError):
            mask[0] = False                     # masks are read-only
    # the mask of another plane, and a mask that is not bool, are refused
    with pytest.raises(ValueError, match=r"shape \(13,\) for N=7 points"):
        compute_spectrum(fano, np.zeros(13, dtype=bool), None)
    with pytest.raises(ValueError, match=r"^mask of int64 and shape \(7,\) for N=7 points$"):
        compute_spectrum(fano, S.astype(np.int64), None)


def test_identities_on_random_sets_random_plane_sizes():
    rng = random.Random(7)
    for q in (4, 8, 9, 11):
        pl = build_plane(q)
        for _ in range(5):
            S, meta = random_set(pl, Fraction(rng.randrange(1, 4), 4), rng.randrange(1000))
            doc, n_ell = compute_spectrum(pl, S, meta), stream_secant_counts(pl, S)
            assert identity_residuals(q, int(S.sum()), n_ell) == (0, 0, 0)
            assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
