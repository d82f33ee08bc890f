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
from secants.plane import build_plane
from secants.spectrum import (bounds_report, compute_spectrum, cor_bound_ceiling,
                              verify_counting_identities)
from secants.spectrum import _spectrum_affine

from conftest import (assert_spectrum_matches_naive, class_of, contains,
                      gather_secant_counts, histogram_counts, identity_residuals, mask_of,
                      naive_histogram, naive_secant_counts)


def fano_triangle(fano):
    rows = fano.line_points().tolist()
    for comb in itertools.combinations(range(7), 3):
        if all(len(set(comb) & set(row)) < 3 for row in rows):
            return comb
    raise AssertionError("no triangle found")


def test_full_line_spectrum(fano):
    S = mask_of(fano, fano.line_points([0])[0])
    doc, n_ell = compute_spectrum(fano, S, None)
    # any other line meets this one in exactly one point
    assert histogram_counts(doc) == [0, 6, 0, 1]
    assert (doc["mode_k"], doc["mode_count"]) == (1, 6)
    assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
    assert int(n_ell.sum()) == 9
    assert int((n_ell * (n_ell - 1)).sum()) == 6
    assert 7 * int((n_ell ** 2).sum()) - 81 == 24


def test_empty_and_full_set(fano):
    doc, _ = compute_spectrum(fano, np.zeros(fano.N, dtype=bool), None)
    assert histogram_counts(doc) == [7, 0, 0, 0]
    assert (doc["mode_k"], doc["mode_count"]) == (0, 7)
    assert all(doc["checks"].values())
    doc_full, _ = compute_spectrum(fano, np.ones(fano.N, dtype=bool), None)
    assert histogram_counts(doc_full) == [0, 0, 0, 7]
    assert all(doc_full["checks"].values())


def test_triangle_spectrum(fano):
    tri = fano_triangle(fano)
    doc, _ = compute_spectrum(fano, mask_of(fano, tri), None)
    assert histogram_counts(doc) == [1, 3, 3, 0]
    # ties resolve to the smallest k
    assert (doc["mode_k"], doc["mode_count"]) == (1, 3)


def test_single_point_variance_identity():
    # N*Σn² - (Σn)² = q(N-1) * ... both sides reduce to q²(q+1) at |S| = 1
    for q in (2, 3, 4, 5, 7, 9):
        pl = build_plane(q)
        doc, n_ell = compute_spectrum(pl, mask_of(pl, [0]), None)
        assert all(doc["checks"].values())
        lhs = pl.N * int((n_ell ** 2).sum()) - int(n_ell.sum()) ** 2
        assert lhs == q * q * (q + 1)


def test_counting_identities_catch_a_count_off():
    q = 7
    pl = build_plane(q)
    S, meta = random_set(pl, Fraction(1, 2), 0)
    _, n_ell = compute_spectrum(pl, S, meta)
    size = int(S.sum())
    assert verify_counting_identities(q, size, n_ell) == \
        {"eq1": True, "eq2": True, "var": True}
    off = n_ell.copy()
    off[0] += 1
    assert verify_counting_identities(q, size, off)["eq1"] is False
    # one incidence moved from the fullest line to the emptiest keeps Σn, not Σn²
    moved = n_ell.copy()
    moved[n_ell.argmax()] -= 1
    moved[n_ell.argmin()] += 1
    assert verify_counting_identities(q, size, moved) == \
        {"eq1": True, "eq2": False, "var": False}


def test_complement_involution_and_reversal(fano):
    tri = fano_triangle(fano)
    S = mask_of(fano, tri)
    Sc = ~S
    assert Sc.sum() == 4
    assert np.array_equal(~Sc, S)
    assert (~np.zeros(fano.N, dtype=bool)).sum() == fano.N
    hist = histogram_counts(compute_spectrum(fano, S, None)[0])
    hist_c = histogram_counts(compute_spectrum(fano, Sc, None)[0])
    assert hist_c == hist[::-1]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_spectrum_matches_naive_oracle(q):
    pl = build_plane(q)
    rng = random.Random(q)
    for _ in range(8):
        members = [i for i in range(pl.N) if rng.random() < 0.4]
        S = mask_of(pl, members)
        doc, n_ell = compute_spectrum(pl, S, None)
        assert_spectrum_matches_naive(pl, S, n_ell)
        assert all(doc["checks"].values())
        assert doc["mode_count"] >= cor_bound_ceiling(q)
        assert histogram_counts(doc) == naive_histogram(pl, members)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_gather_and_affine_kernels_agree(p):
    pl = build_plane(p)
    rng = np.random.default_rng(p)
    for density in (0.2, 0.5, 0.9):
        mask = rng.random(pl.N) < density
        assert (gather_secant_counts(pl, mask) == _spectrum_affine(pl, mask)).all()


def test_affine_kernel_handles_infinite_points():
    pl = build_plane(7)
    infinite = pl.line_points([class_of(pl, 0, 0, 1)])[0].tolist()
    S = mask_of(pl, infinite[:4] + [class_of(pl, 2, 3, 1)])
    assert (_spectrum_affine(pl, S) == gather_secant_counts(pl, S)).all()
    assert _spectrum_affine(pl, S).tolist() == naive_secant_counts(pl, np.flatnonzero(S))


def test_spectrum_scratch_is_bounded():
    # n_ell (N int64) and the transform F (q x (q//2 + 1) complex) are
    # kept; the grid is q*q bools and every other temporary comes in
    # blocks of pairs.  Measured 19.8 MB at q=997 (20.9 with one real FFT per
    # row, 24.9 with the whole-grid rfftn)
    q = 997
    pl = build_plane(q)
    mask, meta = random_set(pl, Fraction(1, 2), 0)
    pl.affine_points()
    tracemalloc.start()
    try:
        compute_spectrum(pl, mask, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * pl.N + 16 * q * (q // 2 + 1) + 7 * 2 ** 20, peak


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
    assert_spectrum_matches_naive(pl, S, compute_spectrum(pl, S, meta)[1])


_PROPERTY_PLANES = {q: build_plane(q)
                    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)}


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from(sorted(_PROPERTY_PLANES)), data=st.data())
def test_kernels_match_naive_oracle_property(q, data):
    pl = _PROPERTY_PLANES[q]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=pl.N, max_size=pl.N)))
    expect = naive_secant_counts(pl, np.flatnonzero(mask))
    assert gather_secant_counts(pl, mask).tolist() == expect
    assert _spectrum_affine(pl, mask).tolist() == expect
    assert compute_spectrum(pl, mask, None)[1].tolist() == expect


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
        radon = _spectrum_affine(pl, mask)
    finally:
        spectrum_module._RADON_BLOCK_ENTRIES = saved
    assert radon.tolist() == gather_secant_counts(pl, mask).tolist() == expect


@pytest.mark.parametrize("q", [32, 49, 64, 81, 121, 125, 128])
def test_radon_kernel_matches_gather_on_extension_planes(q):
    pl = build_plane(q)
    rng = np.random.default_rng(q)
    for density in (0.1, 0.5, 0.9):
        mask = rng.random(pl.N) < density
        assert (_spectrum_affine(pl, mask) == gather_secant_counts(pl, mask)).all()


@pytest.mark.parametrize("q", [2, 4, 8, 16, 5, 7, 9, 25])
def test_radon_kernel_block_shapes(monkeypatch, q):
    # Rows and classes go through the transforms in pairs.  One pair per
    # block leaves an odd q's last row and last class unpaired, and 6q+1
    # entries give odd blocks of a pair and a lone member at q = 7 and 9.
    # At p = 2 the half-spectrum is the whole spectrum: nothing is mirrored.
    pl = build_plane(q)
    rng = np.random.default_rng(q)
    masks = [rng.random(pl.N) < density for density in (0.2, 0.5, 0.9)]
    expects = [naive_secant_counts(pl, np.flatnonzero(mask)) for mask in masks]
    for block in (1, q, q + 1, 6 * q + 1, spectrum_module._RADON_BLOCK_ENTRIES):
        monkeypatch.setattr(spectrum_module, "_RADON_BLOCK_ENTRIES", block)
        for mask, expect in zip(masks, expects):
            assert _spectrum_affine(pl, mask).tolist() == expect, block
            assert gather_secant_counts(pl, mask).tolist() == expect


@pytest.mark.parametrize("q, construction, digest", [
    (997, "random:density=1/2",
     "e16c00fd6c2a3b233a2087b69bf5f9e8656e08dfbbf293ae5d2f29add028934d"),
    (997, "ecregion", "67669da67c3d77a3c6e344c7a482dba6708421a8f8e95cf9a829c1b99bf7749a"),
    (32, "random:density=1/2",
     "4a0f846dcd62ea3474e60dceea93d0221061dd64f55f98b195d8009318a6146d"),
    (49, "random:density=1/2",
     "3140dd94a68dfce6eb9445b202ffcbe64cfd87053c2cfe1efd942da1602ab502"),
])
def test_secant_counts_match_recorded_digests(q, construction, digest):
    # sha256 of n_ell as little-endian int64 at the benchmark's largest prime
    # and its extension planes: a change of any one secant count shows
    pl = build_plane(q)
    _, n_ell = compute_spectrum(pl, *build_construction(pl, construction, seed=0))
    assert hashlib.sha256(n_ell.astype("<i8").tobytes()).hexdigest() == digest


@pytest.mark.parametrize("q, offset, raises", [
    pytest.param(11, 0.25, True, id="0.25-True"),
    pytest.param(11, 1e-4, False, id="0.0001-False"),
    pytest.param(9, 0.25, True, id="q9-0.25-True"),
    pytest.param(9, 1e-4, False, id="q9-0.0001-False"),
])
def test_radon_rounding_guard(monkeypatch, q, offset, raises):
    # the inverse pass packs two classes into the real and the imaginary
    # part of one inverse FFT, so the guard must watch both
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
            assert (_spectrum_affine(pl, mask) == expect).all()


def test_radon_kernel_at_p997_against_direct_bincounts():
    # the largest prime of the benchmark workloads, where the transform's
    # rounding error is largest
    p = 997
    pl = build_plane(p)
    grid = np.random.default_rng(997).random((p, p)) < 0.5
    xs, ys = np.nonzero(grid)
    mask = np.zeros(pl.N, dtype=bool)
    mask[pl.affine_points()[xs, ys]] = True
    n_ell = _spectrum_affine(pl, mask)
    for d in (0, 1, 2, 498, 996):
        expect = np.bincount((ys - d * xs) % p, minlength=p)
        assert (n_ell[pl.affine_lines([d])[0]] == expect).all(), d


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
            doc, n_ell = compute_spectrum(pl, S, meta)
            assert identity_residuals(q, int(S.sum()), n_ell) == (0, 0, 0)
            assert doc["checks"] == {"eq1": True, "eq2": True, "var": True}
