"""Linear hypergraphs with n edges of size n, and a two-phase red/blue
coloring that makes every edge's color multiplicity list unique.

Phase 1 gives each vertex the color of the first edge through it in
input order: blue for odd positions, red for even ones; linearity caps
how much earlier edges can contaminate an edge, so odd edges end up
blue-heavy and even edges red-heavy.  Phase 2 walks the edges again and
retunes each to an exact blue quota (n - floor(i/2) on odd positions, i/2
on even) by recoloring only private vertices, which leaves every other
edge untouched.  The quotas are pairwise distinct, so the final counts
distinguish all edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from random import Random

import numpy as np

RED, BLUE = 0, 1
COLOR_NAMES = {RED: "red", BLUE: "blue"}

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
        self.edges = np.array(edges, dtype=np.int64)
        self.edges.flags.writeable = False
        self.n = n
        lo, hi = int(self.edges.min()), int(self.edges.max())
        self.num_vertices = hi + 1 if num_vertices is None else num_vertices
        if lo < 0 or hi >= self.num_vertices:
            raise LegitError(f"vertex {lo if lo < 0 else hi} is outside "
                             f"[0, {self.num_vertices})")
        if self.num_vertices > n * n:
            raise LegitError(f"{self.num_vertices} vertices exceed n^2 = {n * n}, "
                             "the most that n edges of size n can cover")
        rows = np.sort(self.edges, axis=1)
        repeats = np.flatnonzero((rows[:, 1:] == rows[:, :-1]).any(axis=1))
        if repeats.size:
            raise LegitError(f"edge {repeats[0] + 1} repeats a vertex")

        flat = self.edges.ravel()
        order = np.argsort(flat, kind="stable")
        vertex, edge = flat[order], order // n   # slots grouped by vertex
        head = np.r_[True, vertex[1:] != vertex[:-1]]
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
        pairs = np.sort(np.concatenate(pairs))
        repeated = pairs[1:][pairs[1:] == pairs[:-1]]
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
        n, edges, num_vertices = doc["n"], doc["edges"], doc.get("num_vertices")
        if type(n) is not int or n < 1:
            raise LegitError(f"n must be an integer >= 1, got {n!r}")
        if type(edges) is not list or not all(
                type(e) is list and all(type(v) is int for v in e) for e in edges):
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


@dataclass
class EdgeDiagnostics:
    position: int            # 1-based
    target: int              # required blue count
    phase1_blue: int
    recolored: int           # t_i, vertices flipped in phase 2
    private: int             # |R_i|
    captured: int            # |C_i|
    disjoint: int            # |D_i|

    @property
    def feasible(self) -> bool:
        return self.private >= self.captured + self.disjoint + 1


@dataclass
class LegitColoring:
    color: list              # vertex -> RED/BLUE
    blue_counts: list        # per edge position
    targets: list
    diagnostics: list = field(default_factory=list)

    def color_names(self):
        return [COLOR_NAMES[c] for c in self.color]


def generate_linear_hypergraph(n: int, seed: int, mode: str = "pairwise") -> LinearHypergraph:
    """Random linear test instance with n edges of size n.

    pairwise: each edge pair intersects with probability 1/2 at a vertex
    of its own.  sunflower: additionally plants vertices shared by 3..5
    edges (so later edges see intersections that appeared earlier).
    mixed: sunflower cores with sparser 1/4-probability pair links,
    leaving more disjoint pairs.  Conflicting requests are dropped,
    never resolved by breaking linearity.
    """
    if n < 1:
        raise LegitError("n must be positive")
    if mode not in GENERATOR_MODES:
        raise LegitError(f"unknown mode {mode!r}")
    rng = Random(f"{mode}/{n}/{seed}")
    edges = [[] for _ in range(n)]
    linked = set()
    next_vertex = 0

    def link(group):
        nonlocal next_vertex
        v = next_vertex
        next_vertex += 1
        for e in group:
            edges[e].append(v)
        linked.update(itertools.combinations(sorted(group), 2))

    if mode in ("sunflower", "mixed") and n >= 3:
        for _ in range(max(1, n // 3)):
            k = rng.randint(3, min(n, 5))
            group = rng.sample(range(n), k)
            ok = all(len(edges[e]) < n for e in group) and not any(
                pair in linked for pair in itertools.combinations(sorted(group), 2))
            if ok:
                link(group)

    p_link = 0.25 if mode == "mixed" else 0.5
    for i, j in itertools.combinations(range(n), 2):
        if (i, j) in linked or len(edges[i]) >= n or len(edges[j]) >= n:
            continue
        if rng.random() < p_link:
            link((i, j))

    for e in edges:
        while len(e) < n:
            e.append(next_vertex)
            next_vertex += 1
    return LinearHypergraph(n, edges, next_vertex)


def two_phase_coloring(hg: LinearHypergraph) -> LegitColoring:
    """Color so edge i holds exactly n - floor(i/2) blue vertices when i is
    odd and i/2 when even.  Raises LegitError if phase 2 would need more
    private vertices than exist, which a valid linear instance never does.
    Vertices on no edge stay red.
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
    diagnostics = [EdgeDiagnostics(*row) for row in rows.tolist()]

    # phase 2: each edge flips only its own private vertices, so the edges
    # never disturb one another
    for i in np.flatnonzero(recolored):
        want = BLUE if odd[i] else RED    # color the flips must start from
        pool = np.sort(edges[i][private[i] & (color[edges[i]] == want)])
        d = diagnostics[i]
        if d.recolored > pool.size:
            raise LegitError(
                f"edge {i + 1} needs {d.recolored} recolorings but has only "
                f"{pool.size} private {COLOR_NAMES[want]} vertices "
                f"(R={d.private}, C={d.captured}, D={d.disjoint})")
        color[pool[:d.recolored]] = 1 - want

    blue_counts = color[edges].sum(axis=1).tolist()
    if blue_counts != targets.tolist():
        raise LegitError(f"blue quotas missed: {blue_counts} vs {targets.tolist()}")
    return LegitColoring(color=color.tolist(), blue_counts=blue_counts,
                         targets=targets.tolist(), diagnostics=diagnostics)


def verify_legitimate(hg: LinearHypergraph, coloring, num_colors: int = 2):
    """True iff the per-edge color multiplicity lists are pairwise
    distinct; otherwise returns the first offending 1-based pair."""
    color = coloring.color if isinstance(coloring, LegitColoring) else list(coloring)
    slots = np.array(color, dtype=float)[hg.edges]      # None reads as NaN
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
