import itertools
import re
from collections import Counter
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secants.legit import (BLUE, GENERATOR_MODES, RED, LegitError, LinearHypergraph,
                           generate_linear_hypergraph, two_phase_coloring,
                           verify_legitimate)

# the columns of an edge's diagnostics, in the loop oracle's order
DIAGNOSTIC_KEYS = ("edge", "target", "phase1_blue", "recolored", "private", "captured",
                   "disjoint")


def naive_diagnostics(hg):
    """(private, captured, disjoint) per edge from plain vertex sets, by
    the definitions: private vertices lie on no other edge; an edge meets
    the other edges it shares a vertex with; it captures each earlier
    edge j it meets at a vertex that an edge before j already held; it
    is disjoint from the edges it does not meet."""
    edges = [set(e) for e in hg.edges.tolist()]
    rows = []
    for i, e in enumerate(edges):
        others = [f for j, f in enumerate(edges) if j != i]
        meets = [j for j, f in enumerate(edges) if j != i and e & f]
        private = sum(1 for v in e if not any(v in f for f in others))
        captured = sum(1 for j in meets if j < i and any(
            v in edges[k] for v in e & edges[j] for k in range(j)))
        rows.append((private, captured, hg.n - 1 - len(meets)))
    return rows


def naive_verify_legitimate(hg, color, num_colors=2):
    """The verifier as a per-slot loop: one multiplicity list per edge,
    then the first list already seen."""
    lists = []
    for pos, e in enumerate(hg.edges.tolist(), start=1):
        counts = [0] * num_colors
        for v in e:
            c = color[v]
            if c is None or not 0 <= c < num_colors:
                raise LegitError(f"vertex {v} of edge {pos} is uncolored")
            counts[c] += 1
        lists.append(tuple(counts))
    seen = {}
    for pos, sig in enumerate(lists, start=1):
        if sig in seen:
            return False, (seen[sig], pos)
        seen[sig] = pos
    return True, None


def loop_generate_linear_hypergraph(n, seed, mode):
    """The generator as per-edge lists and a set of linked pairs, with its
    capacity guards.  Returns (edges, num_vertices, the most link vertices
    any edge holds before padding)."""
    rng = Random(f"{mode}/{n}/{seed}")
    edges = [[] for _ in range(n)]
    linked = set()
    next_vertex = 0

    def link(group):
        nonlocal next_vertex
        for e in group:
            edges[e].append(next_vertex)
        next_vertex += 1
        linked.update(itertools.combinations(sorted(group), 2))

    if mode in ("sunflower", "mixed") and n >= 3:
        for _ in range(max(1, n // 3)):
            k = rng.randint(3, min(n, 5))
            group = rng.sample(range(n), k)
            if all(len(edges[e]) < n for e in group) and not any(
                    pair in linked for pair in itertools.combinations(sorted(group), 2)):
                link(group)
    p_link = 0.25 if mode == "mixed" else 0.5
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) in linked or len(edges[i]) >= n or len(edges[j]) >= n:
            continue
        if rng.random() < p_link:
            link((i, j))
    most_links = max(len(e) for e in edges)
    for e in edges:
        while len(e) < n:
            e.append(next_vertex)
            next_vertex += 1
    return edges, next_vertex, most_links


def loop_two_phase_coloring(hg):
    """The coloring as plain loops over the edges: phase 1 keeps each
    vertex's first color, phase 2 walks the edges and flips the smallest
    private vertices of the color each must shed.  Returns (color list,
    diagnostics as (position, target, phase1_blue, recolored, private,
    captured, disjoint) tuples)."""
    n, edges = hg.n, hg.edges.tolist()
    degree = Counter(v for e in edges for v in e)
    color = [RED] * hg.num_vertices
    through, captured = Counter(), []      # edges so far through each vertex
    for pos, e in enumerate(edges, start=1):
        for v in e:
            if not through[v]:
                color[v] = BLUE if pos % 2 else RED
        captured.append(sum(max(through[v] - 1, 0) for v in e))
        through.update(e)
    rows = []
    for pos, e in enumerate(edges, start=1):
        target = n - pos // 2 if pos % 2 else pos // 2
        blue = sum(color[v] for v in e)
        rows.append((pos, target, blue, blue - target if pos % 2 else target - blue,
                     sum(degree[v] == 1 for v in e), captured[pos - 1],
                     n - 1 - sum(degree[v] - 1 for v in e)))
    for (pos, _, _, recolored, *_), e in zip(rows, edges):
        want = BLUE if pos % 2 else RED
        pool = sorted(v for v in e if degree[v] == 1 and color[v] == want)
        assert recolored <= len(pool)
        for v in pool[:recolored]:
            color[v] = 1 - want
    return color, rows


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_arrays_match_loop_oracles(mode):
    for n in range(1, 61):
        for seed in range(5):
            edges, num_vertices, most_links = loop_generate_linear_hypergraph(n, seed, mode)
            # by linearity: the capacity guards never fire
            assert most_links <= n - 1, (n, seed)
            hg = generate_linear_hypergraph(n, seed, mode)
            assert hg.edges.tolist() == edges and hg.num_vertices == num_vertices
            color, diagnostics = loop_two_phase_coloring(hg)
            doc, col = two_phase_coloring(hg)
            assert col.tolist() == color, (n, seed)
            assert [tuple(map(d.get, DIAGNOSTIC_KEYS)) for d in doc["diagnostics"]] \
                == diagnostics, (n, seed)
            assert doc["colors"] == [("red", "blue")[c] for c in color]


def _verdict(verify, *args):
    try:
        return verify(*args)
    except LegitError as exc:
        return str(exc)


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_verify_matches_loop_oracle_on_generated_instances(mode):
    # criterion 8's instances, with the two-phase coloring (legitimate),
    # seeded random colorings (mostly not) and one slot left uncolored
    for n in range(1, 61):
        for seed in (0, 1):
            hg = generate_linear_hypergraph(n, seed, mode)
            rng = Random(seed * 61 + n)
            colorings = [(two_phase_coloring(hg)[1], 2)]
            for num_colors in (2, 3):
                colorings.append(([rng.randrange(num_colors)
                                   for _ in range(hg.num_vertices)], num_colors))
            holed = list(colorings[1][0])
            holed[int(hg.edges[rng.randrange(n), rng.randrange(n)])] = \
                rng.choice([None, -1, 2])
            colorings.append((holed, 2))
            for color, num_colors in colorings:
                assert _verdict(verify_legitimate, hg, color, num_colors) == \
                    _verdict(naive_verify_legitimate, hg, color, num_colors), (n, seed)


def test_disjoint_triples_hand_trace():
    hg = LinearHypergraph(3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    doc, color = two_phase_coloring(hg)
    assert [d["phase1_blue"] for d in doc["diagnostics"]] == [3, 0, 3]
    assert doc["targets"] == [3, 1, 2]
    assert [d["recolored"] for d in doc["diagnostics"]] == [0, 1, 1]
    assert doc["blue_counts"] == [3, 1, 2]
    ok, cert = verify_legitimate(hg, color)
    assert ok and cert is None


def test_two_edge_hand_trace():
    hg = LinearHypergraph(2, [[0, 1], [1, 2]])
    doc, color = two_phase_coloring(hg)
    assert doc["blue_counts"] == [2, 1]
    assert [d["recolored"] for d in doc["diagnostics"]] == [0, 0]
    assert color[1] == BLUE and color[2] == RED


def test_single_edge():
    doc, _ = two_phase_coloring(LinearHypergraph(1, [[0]]))
    assert doc["blue_counts"] == [1] and doc["targets"] == [1]
    assert doc["n"] == 1 and doc["colors"] == ["blue"]


def test_feasible_is_strict():
    # an index overwritten so that R = C + D (1 = 1 + 0): a linear
    # hypergraph always has R > C + D, so only a hand-set index shows the
    # boundary; phase 2 has nothing to recolor and still runs
    hg = LinearHypergraph(1, [[0]])
    hg.rank = np.array([[2]])
    doc, _ = two_phase_coloring(hg)
    d, = doc["diagnostics"]
    assert (d["private"], d["captured"], d["disjoint"]) == (1, 1, 0)
    assert d["feasible"] is False


def test_phase2_shortfall_names_its_edge():
    # an index overwritten so that no vertex is private (and every slot
    # has two edges before it): edge 2 must shed one red vertex and has none
    hg = LinearHypergraph(3, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    hg.degree = np.full(hg.num_vertices, 2)
    hg.rank = np.full((3, 3), 3)
    with pytest.raises(LegitError) as exc:
        two_phase_coloring(hg)
    assert str(exc.value) == ("edge 2 needs 1 recolorings but has only 0 private red "
                              "vertices (R=0, C=6, D=-1)")


def test_verify_rejects_identical_lists():
    hg = LinearHypergraph(2, [[0, 1], [2, 3]])
    ok, cert = verify_legitimate(hg, [BLUE, BLUE, BLUE, BLUE])
    assert not ok and cert == (1, 2)
    ok, cert = verify_legitimate(hg, [BLUE, BLUE, BLUE, RED])
    assert ok


def test_verify_requires_everything_colored():
    hg = LinearHypergraph(2, [[0, 1], [1, 2]])
    with pytest.raises(LegitError, match="uncolored"):
        verify_legitimate(hg, [BLUE, None, RED])
    with pytest.raises(LegitError, match="uncolored"):
        verify_legitimate(hg, [BLUE, 5, RED])


def test_verify_more_colors():
    hg = LinearHypergraph(2, [[0, 1], [2, 3]])
    ok, _ = verify_legitimate(hg, [0, 1, 2, 2], num_colors=3)
    assert ok
    ok, cert = verify_legitimate(hg, [0, 1, 1, 0], num_colors=3)
    assert not ok and cert == (1, 2)


def test_input_validation():
    with pytest.raises(LegitError, match="exactly n=2"):
        LinearHypergraph(2, [[0, 1]])
    with pytest.raises(LegitError, match="size"):
        LinearHypergraph(2, [[0, 1], [2]])          # "at most n" is rejected
    with pytest.raises(LegitError, match="more than one"):
        LinearHypergraph(3, [[0, 1, 2], [0, 1, 3], [4, 5, 6]])
    with pytest.raises(LegitError, match="repeats"):
        LinearHypergraph(2, [[0, 0], [1, 2]])
    # the smallest repeating edge is named, ahead of the linearity check
    with pytest.raises(LegitError, match="edge 2 repeats a vertex"):
        LinearHypergraph(3, [[0, 1, 2], [7, 5, 7], [3, 3, 4]])
    with pytest.raises(LegitError, match="edge 1 repeats a vertex"):
        LinearHypergraph(3, [[0, 1, 1], [0, 1, 3], [4, 5, 6]])
    with pytest.raises(LegitError, match="edges 2 and 3 share more than one"):
        LinearHypergraph(3, [[0, 1, 2], [3, 4, 5], [6, 4, 3]])
    # more vertex-sharing pairs than C(n, 2) is rejected before any pair is listed
    with pytest.raises(LegitError, match="9 edge pairs meet at a vertex, more than C"):
        LinearHypergraph(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    with pytest.raises(LegitError, match="vertex -1 is outside"):
        LinearHypergraph(2, [[-1, 0], [1, 2]])
    with pytest.raises(LegitError, match=r"vertex 5 is outside \[0, 2\)"):
        LinearHypergraph(1, [[5]], num_vertices=2)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_linearity_check_matches_pairwise_intersections(data):
    n = data.draw(st.integers(1, 5))
    top = data.draw(st.integers(n, n * n))
    edge = st.lists(st.integers(0, top - 1), min_size=n, max_size=n, unique=True)
    edges = data.draw(st.lists(edge, min_size=n, max_size=n))
    offending = [(a + 1, b + 1) for a, b in itertools.combinations(range(n), 2)
                 if len(set(edges[a]) & set(edges[b])) > 1]
    if not offending:
        assert LinearHypergraph(n, edges).edges.tolist() == edges
        return
    with pytest.raises(LegitError, match="more than one vertex") as err:
        LinearHypergraph(n, edges)
    named = re.match(r"edges (\d+) and (\d+) share", str(err.value))
    if named:       # the pair list names the smallest offending pair
        assert tuple(map(int, named.groups())) == offending[0]


def test_targets_are_pairwise_distinct():
    for n in range(1, 80):
        targets = [n - pos // 2 if pos % 2 else pos // 2
                   for pos in range(1, n + 1)]
        assert len(set(targets)) == n
        odd = [t for pos, t in enumerate(targets, 1) if pos % 2]
        even = [t for pos, t in enumerate(targets, 1) if pos % 2 == 0]
        assert all(t > n // 2 for t in odd)
        assert all(t <= n // 2 for t in even)


@pytest.mark.parametrize("mode", ["pairwise", "sunflower", "mixed"])
def test_generator_contract(mode):
    for n in (1, 2, 3, 4, 7, 12, 25):
        for seed in range(6):
            hg = generate_linear_hypergraph(n, seed, mode)
            assert hg.n == n and len(hg.edges) == n
            assert all(len(e) == n for e in hg.edges)
            for a, b in itertools.combinations(hg.edges, 2):
                assert len(set(a) & set(b)) <= 1
            # determinism
            again = generate_linear_hypergraph(n, seed, mode)
            assert again.edges.tolist() == hg.edges.tolist()


def test_generator_modes_differ_and_sunflower_nests():
    a = generate_linear_hypergraph(14, 3, "pairwise")
    b = generate_linear_hypergraph(14, 3, "sunflower")
    assert a.edges.tolist() != b.edges.tolist()
    degree = {}
    for e in b.edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    assert max(degree.values()) >= 3
    # pairwise mode never exceeds degree 2
    degree_a = {}
    for e in a.edges:
        for v in e:
            degree_a[v] = degree_a.get(v, 0) + 1
    assert max(degree_a.values()) <= 2


def test_generator_rejects_bad_input():
    with pytest.raises(LegitError):
        generate_linear_hypergraph(0, 1)
    with pytest.raises(LegitError, match="mode"):
        generate_linear_hypergraph(3, 1, "clique")


@pytest.mark.parametrize("mode", ["pairwise", "sunflower", "mixed"])
def test_coloring_invariants_across_instances(mode):
    for n in (1, 2, 3, 5, 9, 16, 30):
        for seed in range(8):
            hg = generate_linear_hypergraph(n, seed, mode)
            doc, color = two_phase_coloring(hg)
            assert doc["blue_counts"] == doc["targets"]
            assert len(set(doc["blue_counts"])) == n
            for d in doc["diagnostics"]:
                assert d["feasible"] is True
                assert d["recolored"] <= d["captured"] + d["disjoint"]
            ok, cert = verify_legitimate(hg, color)
            assert ok, cert


@pytest.mark.parametrize("mode", GENERATOR_MODES)
def test_diagnostics_match_set_oracle(mode):
    for n in range(1, 31):
        for seed in range(3):
            hg = generate_linear_hypergraph(n, seed, mode)
            for g in (hg, hg.permuted(seed)):
                got = [(d["private"], d["captured"], d["disjoint"])
                       for d in two_phase_coloring(g)[0]["diagnostics"]]
                assert got == naive_diagnostics(g), (n, seed)


def test_vertices_on_no_edge_are_red():
    hg = LinearHypergraph(2, [[0, 1], [1, 3]])
    _, color = two_phase_coloring(hg)
    assert hg.num_vertices == 4 and color.tolist() == [BLUE, BLUE, RED, RED]
    assert verify_legitimate(hg, color)[0]
    _, color = two_phase_coloring(LinearHypergraph(2, [[0, 1], [0, 2]], num_vertices=4))
    assert color.tolist() == [BLUE, BLUE, RED, RED]


def test_phase2_touches_only_private_vertices():
    for seed in range(10):
        hg = generate_linear_hypergraph(12, seed, "sunflower")
        # phase-1 only coloring: replay the first sweep
        color1 = [None] * hg.num_vertices
        for pos, e in enumerate(hg.edges, 1):
            paint = BLUE if pos % 2 else RED
            for v in e:
                if color1[v] is None:
                    color1[v] = paint
        doc, color = two_phase_coloring(hg)
        degree = {}
        for e in hg.edges:
            for v in e:
                degree[v] = degree.get(v, 0) + 1
        changed = [v for v in range(hg.num_vertices) if color[v] != color1[v]]
        assert all(degree[v] == 1 for v in changed)
        assert len(changed) == sum(d["recolored"] for d in doc["diagnostics"])


def test_coloring_determinism_and_permutation():
    hg = generate_linear_hypergraph(15, 4, "mixed")
    d1, c1 = two_phase_coloring(hg)
    d2, c2 = two_phase_coloring(hg)
    assert c1.tolist() == c2.tolist() and d1 == d2
    shuffled = hg.permuted(9)
    assert shuffled.edges.tolist() != hg.edges.tolist()
    assert sorted(map(sorted, shuffled.edges.tolist())) == sorted(map(sorted, hg.edges.tolist()))
    _, c3 = two_phase_coloring(shuffled)
    assert verify_legitimate(shuffled, c3)[0]


def test_json_round_trip():
    hg = generate_linear_hypergraph(6, 2, "sunflower")
    doc = hg.to_json()
    again = LinearHypergraph.from_json(doc)
    assert again.edges.tolist() == hg.edges.tolist() and again.num_vertices == hg.num_vertices
