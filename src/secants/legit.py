"""Linear hypergraphs with n edges of size n, and a two-phase red/blue
coloring that makes every edge's color multiplicity list unique.

Phase 1 gives each vertex the color of the first edge through it in
input order: blue for odd positions, red for even ones; linearity caps
how much earlier edges can contaminate an edge, so odd edges end up
blue-heavy and even edges red-heavy.  Phase 2 retunes every edge to an
exact blue quota (n - floor(i/2) on odd positions, i/2 on even) by
recoloring only its private vertices; these lie on no other edge, so it is
one masked array step, not a walk over the edges.  The quotas are
pairwise distinct, so the final counts distinguish all edges.  The
generator, the coloring and the verifier all work on numpy arrays.
"""

from __future__ import annotations

from itertools import chain
from random import Random

import numpy as np

RED, BLUE = 0, 1
COLOR_NAMES = np.array(["red", "blue"], dtype=object)   # by RED, BLUE; shares the strs

GENERATOR_MODES = ("pairwise", "sunflower", "mixed")


class LegitError(ValueError):
    pass


class LinearHypergraph:
    """n edges of n vertices each, pairwise sharing at most one vertex,
    held as one (n, n) int64 array.  Edge positions are 1-based in all
    diagnostics, matching the odd/even role the algorithm assigns them.

    One vertex index, built at construction from a stable argsort of the
    flattened edges, serves validation and coloring: `degree[v]` counts
    the edges through v, `first_edge[v]` is the position of the first of
    them (0 if none), and `rank[i, j]` counts the edges before edge i
    through vertex edges[i, j]."""

    def __init__(self, n: int, edges, num_vertices: int | None = None):
        if n < 1 or len(edges) != n:
            raise LegitError(f"need exactly n={n} edges, got {len(edges)}")
        for pos, e in enumerate(edges, start=1):
            if len(e) != n:
                raise LegitError(f"edge {pos} has size {len(e)}, expected {n}")
        try:
            self.edges = np.array(edges, dtype=np.int64)
            lo, hi = int(self.edges.min()), int(self.edges.max())
        except OverflowError:
            # a vertex past int64, found on Python ints; as n^2 < 2^63, one of
            # the two range checks below then raises, naming it in full
            lo, hi = min(chain.from_iterable(edges)), max(chain.from_iterable(edges))
        self.n = n
        self.num_vertices = hi + 1 if num_vertices is None else num_vertices
        if lo < 0 or hi >= self.num_vertices:
            raise LegitError(f"vertex {lo if lo < 0 else hi} is outside "
                             f"[0, {self.num_vertices})")
        if self.num_vertices > n * n:
            raise LegitError(f"{self.num_vertices} vertices exceed n^2 = {n * n}, "
                             "the most that n edges of size n can cover")
        self.edges.flags.writeable = False
        flat = self.edges.ravel()
        order = np.argsort(flat, kind="stable")
        vertex, edge = flat[order], order // n   # slots grouped by vertex
        head = np.r_[True, vertex[1:] != vertex[:-1]]
        # a group lists its edges in order, so a repeat is two adjacent slots
        repeats = edge[1:][~head[1:] & (edge[1:] == edge[:-1])]
        if repeats.size:
            raise LegitError(f"edge {repeats.min() + 1} repeats a vertex")
        slot = np.arange(n * n)
        rank = slot - np.maximum.accumulate(np.where(head, slot, 0))
        self.degree = np.bincount(flat, minlength=self.num_vertices)
        self.first_edge = np.zeros(self.num_vertices, dtype=np.int64)
        self.first_edge[vertex[head]] = edge[head] + 1
        self.rank = np.empty((n, n), dtype=np.int64)
        self.rank.flat[order] = rank

        # linearity: no edge pair may meet in two vertex groups.  Each slot
        # meets the rank-many slots before it in its group, and a linear
        # hypergraph has at most C(n, 2) meeting pairs: check before listing.
        if rank.sum() > n * (n - 1) // 2:
            raise LegitError(f"{rank.sum()} edge pairs meet at a vertex, more than "
                             f"C(n, 2): two edges share more than one vertex")
        pairs = [np.empty(0, dtype=np.int64)]
        for k in range(1, int(rank.max()) + 1):   # slot and the slot k before it
            later = np.flatnonzero(rank >= k)
            pairs.append(edge[later - k] * n + edge[later])
        repeated = np.flatnonzero(np.bincount(np.concatenate(pairs), minlength=n * n) > 1)
        if repeated.size:
            a, b = divmod(int(repeated[0]), n)
            raise LegitError(f"edges {a + 1} and {b + 1} share more than one vertex")

    def to_json(self) -> dict:
        return {"n": self.n, "num_vertices": self.num_vertices,
                "edges": self.edges.tolist()}

    @classmethod
    def from_json(cls, doc) -> "LinearHypergraph":
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise LegitError("hypergraph file must be a JSON object with n and edges")
        extra = next((key for key in doc if key not in ("n", "edges", "num_vertices")), None)
        if extra is not None:
            raise LegitError(f"hypergraph file key {extra!r} is not n, edges or num_vertices")
        n, edges, num_vertices = doc["n"], doc["edges"], doc.get("num_vertices")
        if type(n) is not int or n < 1:
            raise LegitError(f"n must be an integer >= 1, got {n!r}")
        # the types in one pass in C (a JSON true is a bool, not an int); the
        # vertex array that the constructor builds checks the values
        if type(edges) is not list or not (set(map(type, edges)) <= {list} and
                                           set(map(type, chain.from_iterable(edges))) <= {int}):
            raise LegitError("edges must be a list of lists of integer vertices")
        if num_vertices is not None and type(num_vertices) is not int:
            raise LegitError(f"num_vertices must be an integer, got {num_vertices!r}")
        return cls(n, edges, num_vertices)

    def permuted(self, seed: int) -> "LinearHypergraph":
        """Same edges in a seeded random order (order is an input to the
        coloring, never an internal choice)."""
        order = list(range(self.n))
        Random(seed).shuffle(order)
        return LinearHypergraph(self.n, self.edges[order], self.num_vertices)


def generate_linear_hypergraph(n: int, seed: int, mode: str = "pairwise") -> LinearHypergraph:
    """Random linear test instance with n edges of size n.

    pairwise: each edge pair intersects with probability 1/2 at a vertex
    of its own.  sunflower: additionally plants vertices shared by 3..5
    edges (so later edges see intersections that appeared earlier).
    mixed: sunflower cores with sparser 1/4-probability pair links,
    leaving more disjoint pairs.  Conflicting requests are dropped,
    never resolved by breaking linearity.

    Link vertices are numbered as made (planted groups, then chosen pairs
    in lexicographic order); each joins an edge to partners no other one
    does, so an edge has at most n - 1 and always room for padding.
    """
    if n < 1:
        raise LegitError("n must be positive")
    if mode not in GENERATOR_MODES:
        raise LegitError(f"unknown mode {mode!r}")
    rng = Random(f"{mode}/{n}/{seed}")
    linked = np.zeros((n, n), dtype=bool)     # edge pairs that already meet
    groups = []

    if mode in ("sunflower", "mixed") and n >= 3:
        for _ in range(max(1, n // 3)):
            k = rng.randint(3, min(n, 5))
            g = np.array(rng.sample(range(n), k))
            if not linked[g[:, None], g].any():
                linked[g[:, None], g] = True
                linked[g, g] = False             # a later group may reuse an edge
                groups.append(g)

    p_link = 0.25 if mode == "mixed" else 0.5
    i, j = np.nonzero(np.triu(~linked, 1))    # unlinked pairs, lexicographic
    # one draw per pair, in order (random() < 1 never hits the sentinel)
    chosen = np.fromiter(iter(rng.random, 1.0), float, count=i.size) < p_link
    i, j = i[chosen], j[chosen]

    # (edge, vertex) memberships, link vertices numbered as made; padding
    # vertices follow in row-major order, so every row comes out sorted
    pair_vertex = len(groups) + np.arange(i.size)
    edge = np.concatenate([*groups, i, j])
    vertex = np.concatenate([np.repeat(np.arange(len(groups)), [g.size for g in groups]),
                             pair_vertex, pair_vertex])
    links, pad = len(groups) + i.size, n - np.bincount(edge, minlength=n)
    edge = np.concatenate([edge, np.repeat(np.arange(n), pad)])
    vertex = np.concatenate([vertex, links + np.arange(pad.sum())])
    edges = vertex[np.lexsort((vertex, edge))].reshape(n, n)
    del edge, vertex, i, j          # freed before the index build: lower peak memory
    return LinearHypergraph(n, edges, links + int(pad.sum()))


def two_phase_coloring(hg: LinearHypergraph):
    """(document, color): color so edge i holds exactly n - floor(i/2) blue
    vertices when i is odd and i/2 when even, and return the `legit color`
    document without its verdict, with the int64 color array (vertex ->
    RED/BLUE).  Raises LegitError if phase 2 would need more private
    vertices than exist, which a valid linear instance never does.
    Vertices on no edge stay red.

    Each edge's diagnostics: its 1-based position, its target, its phase-1
    blue count, the t_i vertices recolored in phase 2, and |R_i|, |C_i| and
    |D_i| (private, captured, disjoint); it is feasible when
    |R_i| > |C_i| + |D_i|.
    """
    n, edges = hg.n, hg.edges
    pos = np.arange(1, n + 1)
    odd = pos % 2 == 1
    targets = np.where(odd, n - pos // 2, pos // 2)
    color = hg.first_edge % 2                # phase 1: the first edge wins
    phase1 = color[edges].sum(axis=1)
    recolored = np.where(odd, phase1 - targets, targets - phase1)
    if (recolored < 0).any():
        i = int(np.argmax(recolored < 0))
        raise LegitError(f"odd edge {i + 1} below its blue floor: {phase1[i]}" if odd[i]
                         else f"even edge {i + 1} above its blue ceiling: {phase1[i]}")

    degree = hg.degree[edges]
    private = degree == 1
    rows = np.stack([pos, targets, phase1, recolored, private.sum(axis=1),
                     np.maximum(hg.rank - 1, 0).sum(axis=1),
                     n - 1 - (degree - 1).sum(axis=1)], axis=1)

    # phase 2: every edge at once flips its smallest private vertices of
    # the color it must shed
    want = np.where(odd, BLUE, RED)
    pool = private & (color[edges] == want[:, None])
    size = pool.sum(axis=1)
    short = np.flatnonzero(size < recolored)
    if short.size:
        i = short[0]
        R, C, D = rows[i, 4:]
        raise LegitError(
            f"edge {i + 1} needs {recolored[i]} recolorings but has only "
            f"{size[i]} private {COLOR_NAMES[want[i]]} vertices (R={R}, C={C}, D={D})")
    flips = np.sort(np.where(pool, edges, hg.num_vertices), axis=1)
    color[flips[np.arange(n) < recolored[:, None]]] = np.repeat(1 - want, recolored)

    blue_counts = color[edges].sum(axis=1).tolist()
    if blue_counts != targets.tolist():
        raise LegitError(f"blue quotas missed: {blue_counts} vs {targets.tolist()}")
    diagnostics = [{"edge": i, "target": t, "phase1_blue": b, "recolored": r,
                    "private": R, "captured": C, "disjoint": D, "feasible": R > C + D}
                   for i, t, b, r, R, C, D in rows.tolist()]
    return {"n": n, "colors": COLOR_NAMES[color].tolist(), "blue_counts": blue_counts,
            "targets": targets.tolist(), "diagnostics": diagnostics}, color


def verify_legitimate(hg: LinearHypergraph, color, num_colors: int = 2):
    """True iff the per-edge color multiplicity lists of the color array
    (vertex -> color) are pairwise distinct; otherwise returns the first
    offending 1-based pair."""
    slots = np.asarray(color, dtype=float)[hg.edges]    # None reads as NaN
    ok = (slots >= 0) & (slots < num_colors) & (slots == np.trunc(slots))
    bad = np.flatnonzero(~ok)
    if bad.size:
        pos, j = divmod(int(bad[0]), hg.n)
        raise LegitError(f"vertex {hg.edges[pos, j]} of edge {pos + 1} is uncolored")
    keys = np.arange(hg.n)[:, None] * num_colors + slots.astype(np.int64)
    counts = np.bincount(keys.ravel(), minlength=hg.n * num_colors).reshape(hg.n, -1)
    order = np.lexsort(counts.T)         # stable: equal lists keep edge order
    rows = counts[order]
    repeat = np.r_[False, (rows[1:] == rows[:-1]).all(axis=1)]
    if not repeat.any():
        return True, None
    # the earliest edge of each run of equal lists, and the first repeat
    earliest = order[np.maximum.accumulate(np.where(repeat, 0, np.arange(hg.n)))]
    i = np.flatnonzero(repeat)[order[repeat].argmin()]
    return False, (int(earliest[i]) + 1, int(order[i]) + 1)
