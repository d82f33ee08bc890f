import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secants import construct
from secants.construct import (ConstructionError, build_construction, ec_region,
                               parabola_family, parabola_region, parse_construction,
                               pointset_from_json, pointset_to_json, random_set,
                               under_parabola)
from secants.field import legendre_table
from secants.plane import build_plane

from conftest import (class_of, contains, mask_of, normalized_triples, projective_classes,
                      stream_secant_counts)


def brute_parabola_members(p, alpha, beta, gamma):
    out = set()
    for x in range(p):
        fx = (alpha * x * x + beta * x + gamma) % p
        for y in range(p):
            if fx < y:
                out.add((x, y))
    return out


def test_parabola_region_p5():
    pl = build_plane(5)
    S, _ = parabola_region(pl, 1, 0, 0)
    expect = brute_parabola_members(5, 1, 0, 0)
    assert S.sum() == len(expect) == 10
    for x in range(5):
        for y in range(5):
            assert contains(S, class_of(pl, x, y, 1)) == ((x, y) in expect)
    assert contains(S, class_of(pl, 1, 2, 1))
    assert not contains(S, class_of(pl, 2, 1, 1))


def test_parabola_region_p7_row_counts():
    pl = build_plane(7)
    S, _ = parabola_region(pl, 1, 0, 0)
    assert S.sum() == 28
    rows = [sum(contains(S, class_of(pl, x, y, 1)) for y in range(7)) for x in range(7)]
    assert rows == [6, 5, 2, 4, 4, 2, 5]
    # included y values form the lift interval (f(x), p-1]
    for x in range(7):
        fx = (x * x) % 7
        ys = {y for y in range(7) if contains(S, class_of(pl, x, y, 1))}
        assert ys == set(range(fx + 1, 7))
        assert len(ys) == 7 - 1 - fx


def test_parabola_region_never_contains_infinite_points():
    pl = build_plane(11)
    S, _ = parabola_region(pl, 3, 1, 4)
    infinite = set(pl.line_points([class_of(pl, 0, 0, 1)])[0].tolist())
    assert all(not contains(S, i) for i in infinite)


def test_parabola_param_validation():
    pl5 = build_plane(5)
    with pytest.raises(ConstructionError, match="alpha"):
        parabola_region(pl5, 0, 1, 1)
    with pytest.raises(ConstructionError, match="alpha"):
        parabola_region(pl5, 5, 1, 1)   # reduces to zero
    with pytest.raises(ConstructionError, match="prime"):
        parabola_region(build_plane(3), 1, 0, 0)
    with pytest.raises(ConstructionError, match="prime"):
        parabola_region(build_plane(9), 1, 0, 0)


def test_family_examples():
    pl7 = build_plane(7)
    S, meta = parabola_family(pl7, Fraction(3, 10))
    assert meta == {"construction": "family", "c": "3/10", "a": 2}
    assert S.sum() == 14
    assert contains(S, class_of(pl7, 3, 3, 1))   # (3, 3^2+1) mod 7
    assert parabola_family(build_plane(11), Fraction(1, 2))[0].sum() == 55


def test_family_members_are_the_shifted_parabolas():
    pl = build_plane(13)
    a = 3                                    # floor(13/4)
    S, _ = parabola_family(pl, Fraction(1, 4))
    expect = {(x, (x * x + t) % 13) for x in range(13) for t in range(a)}
    got = {(x, y) for x in range(13) for y in range(13)
           if contains(S, class_of(pl, x, y, 1))}
    assert got == expect


def test_family_vertical_sections():
    pl = build_plane(11)
    a = 4                                    # floor(22/5)
    n_ell = stream_secant_counts(pl, parabola_family(pl, Fraction(2, 5))[0])
    for c in range(11):
        assert n_ell[class_of(pl, 1, 0, pl.field.neg(c))] == a


def test_family_param_validation():
    with pytest.raises(ConstructionError):
        parabola_family(build_plane(5), Fraction(0))
    with pytest.raises(ConstructionError):
        parabola_family(build_plane(5), Fraction(1))
    with pytest.raises(ConstructionError, match="height"):
        parabola_family(build_plane(5), Fraction(1, 11))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_ec_region_row_counts(p):
    pl = build_plane(p)
    S, _ = ec_region(pl)
    assert S.sum() == p * (p + 1) // 2
    chi = legendre_table(p)
    assert contains(S, class_of(pl, 0, 0, 1))
    for x in range(p):
        row = [v for v in range(p) if contains(S, class_of(pl, x, v, 1))]
        assert len(row) == (p + 1) // 2
        for v in row:
            assert chi[(x ** 3 - v) % p] >= 0


def test_ec_region_example_point():
    pl = build_plane(5)
    S, _ = ec_region(pl)
    assert contains(S, class_of(pl, 1, 2, 1))   # 1 - 2 = 4 = 2²


@pytest.mark.parametrize("build", [ec_region,
                                   lambda pl: parabola_region(pl, 1, 2, 3)])
def test_region_scratch_is_one_bool_grid(build):
    # the region's bool grid goes straight into the mask through the
    # chart, solved a few rows at a time on a fresh plane: measured 2.24 MB
    # at q=997 for a 1.0 MB mask and a 1.0 MB grid, where the coordinate
    # lists took 20 MB
    pl = build_plane(997)
    tracemalloc.start()
    try:
        build(pl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * pl.N, peak


def test_random_set_extremes_and_determinism():
    pl = build_plane(7)
    assert random_set(pl, 0, 3)[0].sum() == 0
    assert random_set(pl, 1, 3)[0].sum() == pl.N
    a, meta = random_set(pl, Fraction(1, 2), 9)
    b, _ = random_set(pl, Fraction(1, 2), 9)
    assert np.array_equal(a, b)
    assert meta == {"construction": "random", "density": "1/2",
                    "generator": "philox4x64", "seed": 9}
    assert not np.array_equal(random_set(pl, Fraction(1, 2), 10)[0], a)
    with pytest.raises(ConstructionError):
        random_set(pl, Fraction(3, 2), 0)


@pytest.mark.parametrize("q", [7, 32, 101])
def test_random_set_drawn_in_blocks_equals_one_draw(monkeypatch, q):
    # blocks of 7 draws continue one Philox stream: the mask is the one of
    # a single draw of all N points
    monkeypatch.setattr(construct, "_SOLVE_BLOCK_ENTRIES", 7)
    pl = build_plane(q)
    for seed in range(4):
        for density in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(5, 2 ** 32 + 1)):
            rng = np.random.Generator(np.random.Philox(key=seed))
            draws = rng.integers(0, density.denominator, size=pl.N, dtype=np.int64)
            expect = draws < density.numerator
            assert np.array_equal(random_set(pl, density, seed)[0], expect), (seed, density)


@pytest.mark.parametrize("q", [7, 32, 101])
def test_random_set_extreme_densities_are_empty_and_full(q):
    pl = build_plane(q)
    for density, whole, text in (("0", False, "0/1"), ("0/3", False, "0/1"),
                                 ("1", True, "1/1"), ("3/3", True, "1/1")):
        S, meta = random_set(pl, Fraction(density), 5)
        assert np.array_equal(S, np.full(pl.N, whole))
        assert meta == {"construction": "random", "density": text,
                        "generator": "philox4x64", "seed": 5}


def test_random_set_binomial_window_at_scale():
    # |S| ~ Bin(N, 1/2): seed 1 must land within 4 standard deviations of
    # N/2 (re-seed and record here if a future generator change drifts)
    pl = build_plane(499)
    S, _ = random_set(pl, Fraction(1, 2), 1)
    half = pl.N / 2
    assert abs(S.sum() - half) <= 4 * math.sqrt(pl.N / 4)


def test_random_set_denominator_past_int64_is_named():
    # the draws are int64 integers below the denominator, so 2^63 still draws
    pl = build_plane(7)
    S, _ = random_set(pl, Fraction(1, 2 ** 63), 2)
    rng = np.random.Generator(np.random.Philox(key=2))
    assert S.tolist() == (rng.integers(0, 2 ** 63, size=pl.N, dtype=np.int64) < 1).tolist()
    with pytest.raises(ConstructionError,
                       match=r"^density 1/100000000000000000000 has a denominator past 2\^63$"):
        random_set(pl, Fraction(1, 10 ** 20), 0)


def test_under_parabola_past_the_int64_square():
    # alpha * x^2 passes 2^63 at this p; f is checked against Python ints
    p = 3000017
    alpha = pow(4, p - 2, p)
    _, f = under_parabola(build_plane(p), alpha, 1, 1)
    xs = list(range(0, p, 997)) + [p - 1]
    assert f[xs].tolist() == [(alpha * x * x + x + 1) % p for x in xs]


def test_random_set_density_is_exactly_rational():
    # density 1/3 draws integers mod 3; all N decisions follow one stream
    pl = build_plane(11)
    S, _ = random_set(pl, Fraction(1, 3), 4)
    rng = np.random.Generator(np.random.Philox(key=4))
    draws = rng.integers(0, 3, size=pl.N, dtype=np.int64)
    expect = set(np.nonzero(draws < 1)[0].tolist())
    assert set(np.flatnonzero(S).tolist()) == expect


def test_set_file_round_trip_with_infinite_points(tmp_path):
    pl = build_plane(7)
    S, _ = random_set(pl, Fraction(2, 3), 5)
    doc = pointset_to_json(pl, S)
    assert doc["q"] == 7
    assert len(doc["affine"]) + len(doc["projective"]) == S.sum()
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    S2, meta = pointset_from_json(pl, json.loads(path.read_text()))
    assert np.array_equal(S2, S) and meta == {"construction": "set-file"}
    with pytest.raises(ConstructionError, match="q=7"):
        pointset_from_json(build_plane(5), doc)


def test_parse_and_build_construction():
    assert parse_construction("random:density=1/2") == ("random", {"density": "1/2"})
    assert parse_construction("parabola:g=2, a=1/4") == ("parabola", {"g": "2", "a": "1/4"})
    assert parse_construction("ecregion") == ("ecregion", {})
    with pytest.raises(ConstructionError):
        parse_construction("nonesuch")
    with pytest.raises(ConstructionError):
        parse_construction("random:density")
    pl = build_plane(13)
    _, meta = build_construction(pl, "parabola:a=1/4,b=1,g=1")
    inv4 = pow(4, 11, 13)
    assert meta == {"construction": "parabola", "alpha": inv4, "beta": 1, "gamma": 1}
    assert build_construction(pl, "family:c=1/4")[1]["a"] == 3
    # the seed comes from the caller only, by default 0
    r1, meta = build_construction(pl, "random:density=1/2", seed=8)
    r2, meta2 = random_set(pl, Fraction(1, 2), 8)
    assert np.array_equal(r1, r2) and meta == meta2
    assert np.array_equal(build_construction(pl, "random:density=1/2")[0],
                          random_set(pl, Fraction(1, 2), 0)[0])


@pytest.mark.parametrize("spec, match", [
    ("random:density=1/2,seed=3", "--seed"),
    ("random:seed=1", "--seed"),
    ("random:densty=1/8", "no argument 'densty'"),
    ("ecregion:foo=1", "no argument 'foo'"),
    ("family:c=1/2,a=1", "no argument 'a'"),
    ("parabola:c=1/2", "no argument 'c'"),
    ("random:density=1/2,density=1/3", "'density' given twice"),
    ("parabola:a=1,b=2,a=3", "'a' given twice"),
    ("random:density=1/2,", "malformed"),
])
def test_parse_construction_rejects_other_arguments(spec, match):
    with pytest.raises(ConstructionError, match=match):
        parse_construction(spec)


@pytest.mark.parametrize("doc,match", [
    ([[1, 2]], "JSON object"),
    ({"q": 7, "affine": [[9, 3]]}, "affine entry"),
    ({"q": 7, "affine": [[-1, 3]]}, "affine entry"),
    ({"q": 7, "affine": [[1, 2, 3]]}, "affine entry"),
    ({"q": 7, "affine": [[1, True]]}, "affine entry"),
    ({"q": 7, "affine": [1, 2]}, "affine entry"),
    ({"q": 7, "affine": {"x": 1}}, "list of points"),
    ({"q": 7, "projective": [[0, 0, 0]]}, "projective entry"),
    ({"q": 7, "projective": [[1, 7, 0]]}, "projective entry"),
    ({"q": 7, "projective": [[1, 0]]}, "projective entry"),
    ({"q": 7, "affine": [[1, 2], [1, 2]]}, "repeats"),
    ({"q": 7, "affine": [[1, 2]], "projective": [[1, 2, 1]]}, "repeats"),
    ({"q": 7, "projective": [[1, 2, 0], [2, 4, 0]]}, "repeats"),
    ({"q": 7.0, "affine": [[1, 2]]}, r"^set file is for q=7\.0, plane has q=7$"),
    ({"affine": [[1, 2]]}, r"^set file is for q=None, plane has q=7$"),
])
def test_set_file_rejects_malformed_points(doc, match):
    with pytest.raises(ConstructionError, match=match):
        pointset_from_json(build_plane(7), doc)


def loop_pointset_from_json(plane, doc):
    """The set-file reader as one scalar map per entry, in document order:
    the sorted point indices, or the first error's message."""
    q, seen = plane.q, set()
    for key, length in (("affine", 2), ("projective", 3)):
        entries = doc.get(key, [])
        if not isinstance(entries, list):
            return f"set file {key!r} must be a list of points"
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == length
                    and all(type(c) is int and 0 <= c < q for c in entry)
                    and (length == 2 or any(entry))):
                return f"set file {key} entry {entry!r} is not a point of PG(2,{q})"
            idx = projective_classes(plane)[(*entry, 1) if length == 2 else tuple(entry)]
            if idx in seen:
                return f"set file repeats the point {entry!r}"
            seen.add(idx)
    return sorted(seen)


@pytest.mark.parametrize("q", [4, 7, 9])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_set_file_reader_matches_scalar_loop(q, data):
    # mostly valid points with repeats, now and then one bad entry
    coord = st.integers(0, q - 1)
    bad = st.sampled_from([[q, 0], [0, -1], [1, True], [1, 2, 3], 5, [0, 0, 0], [1, q, 0],
                           [2 ** 64, 0], [1.0, 2], [False, 0, 1]])
    affine = st.lists(st.one_of(st.lists(coord, min_size=2, max_size=2), bad), max_size=12)
    projective = st.lists(st.one_of(st.lists(coord, min_size=3, max_size=3), bad),
                          max_size=6)
    doc = {"q": q, "affine": data.draw(affine),
           "projective": data.draw(st.one_of(projective, st.just({"x": 1})))}
    expect = loop_pointset_from_json(build_plane(q), doc)
    try:
        got = np.flatnonzero(pointset_from_json(build_plane(q), doc)[0]).tolist()
    except ConstructionError as exc:
        got = str(exc)
    assert got == expect


def loop_pointset_to_json(plane, indices):
    """The set-file writer as one scalar decode per member point, in index
    order, from the itertools enumeration of the normalized triples."""
    F, affine, projective = plane.field, [], []
    for i in indices:
        x, y, z = normalized_triples(plane.q)[i]
        if z:
            zinv = F.inv(z)
            affine.append([F.mul(x, zinv), F.mul(y, zinv)])
        else:
            projective.append([x, y, z])
    return {"q": plane.q, "affine": affine, "projective": projective}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_set_file_writer_matches_scalar_loop(q, data):
    # any points, and always some of the q + 1 on the infinite line z = 0
    pl = build_plane(q)
    infinite = [i for i, t in enumerate(normalized_triples(q)) if t[2] == 0]
    picked = (data.draw(st.lists(st.integers(0, pl.N - 1), max_size=40))
              + data.draw(st.lists(st.sampled_from(infinite), min_size=1, max_size=4)))
    S = mask_of(pl, picked)
    doc = pointset_to_json(pl, S)
    expect = loop_pointset_to_json(pl, sorted(set(picked)))
    assert json.dumps(doc, sort_keys=True) == json.dumps(expect, sort_keys=True)
    assert np.array_equal(pointset_from_json(pl, doc)[0], S)


@pytest.mark.parametrize("spec", ["random:density=1/0", "random:density=half",
                                  "family:c=1/0", "parabola:a=1/0"])
def test_construction_rejects_malformed_rationals(spec):
    with pytest.raises(ConstructionError, match="rational"):
        build_construction(build_plane(7), spec)
