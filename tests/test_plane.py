import hashlib
import itertools

import numpy as np
import pytest

from secants.plane import PlaneError, build_plane
from secants.spectrum import compute_spectrum

from conftest import (class_of, incident, line_through, naive_line_points, normalized_triples,
                      slope_lines)


@pytest.mark.parametrize("q,n_points,per_line", [(2, 7, 3), (3, 13, 4), (4, 21, 5)])
def test_build_plane_counts(q, n_points, per_line):
    pl = build_plane(q)
    assert pl.N == n_points
    assert pl.triples().shape == (n_points, 3)
    assert pl.line_points().shape == (n_points, per_line)
    for ell in range(pl.N):
        assert pl.line_points([ell]).shape == (1, per_line)


def test_points_normalized_and_sorted():
    for q in (2, 3, 4, 5, 8, 9):
        pl = build_plane(q)
        expect = normalized_triples(q)
        assert pl.triples().tolist() == [list(t) for t in expect]
        assert pl.triples(np.arange(pl.N).reshape(-1, 1)).shape == (pl.N, 1, 3)
        # index_of inverts the enumeration from every nonzero multiple
        F, idx = pl.field, np.arange(pl.N)
        for s in range(1, q):
            assert (pl.index_of(F.mul(s, np.array(expect))) == idx).all()
        assert pl.index_of(expect[-1]) == pl.N - 1


def test_codec_rejects_what_is_not_a_point():
    pl = build_plane(7)
    with pytest.raises(PlaneError, match="zero triple"):
        pl.index_of([[1, 2, 3], [0, 0, 0]])
    for bad in ([1, 7, 0], [-1, 0, 1]):
        with pytest.raises(PlaneError, match="outside GF"):
            pl.index_of(bad)
    for bad in (-1, pl.N, [0, pl.N]):
        with pytest.raises(PlaneError, match="outside"):
            pl.triples(bad)
    for bad in ([-1], [0, pl.N]):
        with pytest.raises(PlaneError, match="outside"):
            pl.line_points(bad)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_plane_axioms_exhaustive(q):
    pl = build_plane(q)
    rows = [frozenset(row) for row in pl.line_points().tolist()]
    # two points determine exactly one line, and line_through finds it
    for P, Q in itertools.combinations(range(pl.N), 2):
        joining = [ell for ell, r in enumerate(rows) if P in r and Q in r]
        assert len(joining) == 1
        assert line_through(pl, P, Q) == joining[0]
    # dually: two lines meet in exactly one point, and by x.a = a.x the
    # line through two points, read as a point, is the meet of two lines
    for L, M in itertools.combinations(range(pl.N), 2):
        assert len(rows[L] & rows[M]) == 1
        assert line_through(pl, L, M) in rows[L] & rows[M]


@pytest.mark.parametrize("q", [3, 5, 8, 9])
def test_incidence_matrices_are_mutual_transposes(q):
    # the one incidence matrix read both ways: row i as the points of line
    # i and as the lines through point i gives the same incidence
    pl = build_plane(q)
    lp = pl.line_points()
    inc = np.zeros((pl.N, pl.N), dtype=bool)
    for ell in range(pl.N):
        inc[ell, lp[ell]] = True
    inc_T = np.zeros((pl.N, pl.N), dtype=bool)
    for pt in range(pl.N):
        inc_T[lp[pt], pt] = True
    assert (inc == inc_T).all()
    assert (inc.sum(axis=0) == q + 1).all() and (inc.sum(axis=1) == q + 1).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 16])
def test_solver_rows_match_incidence_oracle(q):
    pl = build_plane(q)
    expect = [sorted(line) for line in naive_line_points(pl)]
    assert pl.line_points().tolist() == expect
    assert [pl.line_points([ell])[0].tolist() for ell in range(pl.N)] == expect


# sha256 of the (N, q+1) int32 bytes of line_points(), recorded from the
# cached incidence matrix that the solver's rows replaced
LINE_POINTS_DIGESTS = {
    16: "c16a3b9deae8ae42d67ca0e18c16fcf0dda46cdab67dfeb8b42258d1d857c591",
    27: "1128972b997071b0c1ab06fd6f0af5856de9e981a4c20fc37fd201e9ad62e39c",
    32: "05a33e427a7b54dfb4e62aaa457c338cb0217e67b3590af9e8c0d0fe6d5bbf25",
    49: "0c0f7fe76bb90a7d682a32dd81ef7b1bd25a90c0a72ff1cb41b947f9cc6f13ec",
    128: "28d1efde414cb01332150255e7d9604dd3cc6cb21495efcecd54c6e53760bac5",
    251: "705739a78ecccc0beb3d29a6f943aa3eb2d275121ddc5494d7ebf94f68351ae4",
}


@pytest.mark.parametrize("q", list(LINE_POINTS_DIGESTS))
def test_line_points_golden(q):
    rows = build_plane(q).line_points()
    assert rows.dtype == np.int32 and rows.shape == (q * q + q + 1, q + 1)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == LINE_POINTS_DIGESTS[q]


def test_line_through_examples(fano):
    i001 = fano.index_of((0, 0, 1))
    i010 = fano.index_of((0, 1, 0))
    i100 = fano.index_of((1, 0, 0))
    assert fano.triples(line_through(fano, i001, i010)).tolist() == [1, 0, 0]
    assert fano.triples(line_through(fano, i100, i010)).tolist() == [0, 0, 1]
    with pytest.raises(PlaneError, match="identical"):
        line_through(fano, 3, 3)
    pl3 = build_plane(3)
    P, Q = pl3.index_of((1, 1, 1)), pl3.index_of((1, 2, 1))
    L = pl3.triples(line_through(pl3, P, Q)).tolist()
    F = pl3.field
    for pt in ((1, 1, 1), (1, 2, 1)):
        acc = 0
        for a, x in zip(L, pt):
            acc = F.add(acc, F.mul(a, x))
        assert acc == 0


def points_on(pl, line):
    return set(pl.line_points([line])[0].tolist())


def test_affine_frame_q5():
    pl = build_plane(5)
    neg1 = pl.field.neg(1)
    affine = {class_of(pl, x, y, 1) for x in range(5) for y in range(5)}
    assert len(affine) == 25
    infinite = points_on(pl, class_of(pl, 0, 0, 1))
    assert len(infinite) == 6 and not (affine & infinite)
    # y = x contains the diagonal plus one infinite point
    on = points_on(pl, class_of(pl, 1, neg1, 0))
    diag = {class_of(pl, x, x, 1) for x in range(5)}
    assert diag < on and (on - diag) == {class_of(pl, 1, 1, 0)}
    # every affine point (x, dx+b) sits on the line [d : -1 : b]
    for d in range(5):
        for b in range(5):
            row = points_on(pl, class_of(pl, d, neg1, b))
            for x in range(5):
                assert class_of(pl, x, (d * x + b) % 5, 1) in row


def test_affine_frame_q7_vertical():
    pl = build_plane(7)
    v2 = points_on(pl, class_of(pl, 1, 0, pl.field.neg(2)))
    assert {class_of(pl, 2, y, 1) for y in range(7)} | {class_of(pl, 0, 1, 0)} == v2


def test_parallel_classes_partition_affine_points():
    pl = build_plane(5)
    neg1 = pl.field.neg(1)
    for d in range(5):
        seen = set()
        for b1, b2 in itertools.combinations(range(5), 2):
            s1 = points_on(pl, class_of(pl, d, neg1, b1))
            s2 = points_on(pl, class_of(pl, d, neg1, b2))
            assert s1 & s2 == {class_of(pl, 1, d, 0)}
        for b in range(5):
            seen |= points_on(pl, class_of(pl, d, neg1, b))
        assert len(seen) == 26  # 25 affine + the class direction


CHART_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 16, 25, 27]


@pytest.mark.parametrize("q", CHART_ORDERS)
def test_chart_tables_match_index_of(q):
    # [x, y] is (x : y : 1), encoded by index_of
    pl = build_plane(q)
    x, y = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    tbl = pl.affine_points(range(q))
    assert tbl.dtype == np.int32
    assert (tbl == pl.index_of(np.stack([x, y, np.ones_like(x)], -1))).all()
    assert (pl.affine_points([q - 1, 0, 1]) == tbl[[q - 1, 0, 1]]).all()
    # the rows are solved on request: a plane holds no table, even after
    # a spectrum has read its whole chart
    compute_spectrum(pl, np.ones(pl.N, dtype=bool), None)
    assert not any(isinstance(v, np.ndarray) for v in vars(pl).values())


@pytest.mark.parametrize("q", CHART_ORDERS)
def test_chart_tables_are_incident(q):
    # for every slope d and intercept b, the q points (x, d*x + b) of the
    # point table lie on the line [d : -1 : b]
    pl = build_plane(q)
    F, tbl, ltbl = pl.field, pl.affine_points(range(q)), slope_lines(pl)
    x = np.arange(q)
    d, b = np.arange(q)[:, None, None], np.arange(q)[None, :, None]
    points = tbl[x, F.add(F.mul(d, x), b)]                   # [d, b, x]
    assert incident(pl, points, ltbl[:, :, None]).all()


def test_point_coords_round_trip():
    # the decoded triple (x : y : z) of each point is the affine (x/z, y/z),
    # a slope direction (1 : d : 0) or the vertical direction (0 : 1 : 0)
    pl = build_plane(9)
    F = pl.field
    for i, (x, y, z) in enumerate(pl.triples().tolist()):
        if z:
            zinv = F.inv(z)
            assert class_of(pl, F.mul(x, zinv), F.mul(y, zinv), 1) == i
        elif x:
            assert i == class_of(pl, 1, y, 0)
        else:
            assert i == class_of(pl, 0, 1, 0)
    slopes = np.arange(pl.q)
    directions = np.column_stack([np.ones_like(slopes), slopes, np.zeros_like(slopes)])
    assert pl.index_of(directions).tolist() == [class_of(pl, 1, d, 0)
                                                for d in range(pl.q)]


def test_large_plane_stays_lazy():
    # lines are solved on demand, and the plane keeps no incidence
    pl = build_plane(499)
    rows = pl.line_points([12345, 0])
    assert rows.shape == (2, 500) and rows.dtype == np.int32
    assert incident(pl, rows, [[12345], [0]]).all()
    assert incident(pl, np.arange(pl.N), 12345).sum() == 500
    assert (np.diff(rows, axis=1) > 0).all()
    assert not any(isinstance(v, np.ndarray) for v in vars(pl).values())
