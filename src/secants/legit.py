"""Linear hypergraphs with n edges of size n, and a two-phase red/blue
coloring that makes every edge's color multiplicity list unique.

Phase 1 sweeps the edges in input order, painting each edge's still
uncolored vertices blue on odd positions and red on even ones; linearity
caps how much earlier edges can contaminate an edge, so odd edges end up
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

RED, BLUE = 0, 1
COLOR_NAMES = {RED: "red", BLUE: "blue"}

GENERATOR_MODES = ("pairwise", "sunflower", "mixed")


class LegitError(ValueError):
    pass


class LinearHypergraph:
    """Ordered list of n edges, each n vertices, pairwise sharing at most
    one vertex.  Edge positions are 1-based in all diagnostics, matching
    the odd/even role the algorithm assigns them."""

    def __init__(self, n: int, edges, num_vertices: int | None = None):
        self.n = n
        self.edges = [list(e) for e in edges]
        seen = set()
        for e in self.edges:
            seen.update(e)
        self.num_vertices = num_vertices if num_vertices is not None else (
            max(seen) + 1 if seen else 0)
        self.validate()

    def validate(self):
        if self.n < 1 or len(self.edges) != self.n:
            raise LegitError(f"need exactly n={self.n} edges, got {len(self.edges)}")
        incidence = {}
        for pos, e in enumerate(self.edges, start=1):
            if len(set(e)) != len(e):
                raise LegitError(f"edge {pos} repeats a vertex")
            if len(e) != self.n:
                raise LegitError(f"edge {pos} has size {len(e)}, expected {self.n}")
            for v in e:
                incidence.setdefault(v, []).append(pos)
        # linearity: no edge pair may meet at two vertices, so no pair may
        # repeat across the per-vertex incidence lists
        met = set()
        for stack in incidence.values():
            if len(stack) > 1:
                for pair in itertools.combinations(stack, 2):
                    if pair in met:
                        raise LegitError(
                            f"edges {pair[0]} and {pair[1]} share more than one vertex")
                    met.add(pair)

    def to_json(self) -> dict:
        return {"n": self.n, "num_vertices": self.num_vertices,
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, doc) -> "LinearHypergraph":
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise LegitError("hypergraph file must be a JSON object with n and edges")
        return cls(doc["n"], doc["edges"], doc.get("num_vertices"))

    def permuted(self, seed: int) -> "LinearHypergraph":
        """Same edges in a seeded random order (order is an input to the
        coloring, never an internal choice)."""
        order = list(range(self.n))
        Random(seed).shuffle(order)
        return LinearHypergraph(self.n, [self.edges[i] for i in order],
                                self.num_vertices)


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


def _edge_targets(n: int):
    return [n - pos // 2 if pos % 2 else pos // 2 for pos in range(1, n + 1)]


def two_phase_coloring(hg: LinearHypergraph) -> LegitColoring:
    """Color so edge i holds exactly n - floor(i/2) blue vertices when i is
    odd and i/2 when even.  Raises LegitError if phase 2 would need more
    private vertices than exist, which a valid linear instance never does.
    """
    n = hg.n
    color = [None] * hg.num_vertices
    for pos, e in enumerate(hg.edges, start=1):
        paint = BLUE if pos % 2 else RED
        for v in e:
            if color[v] is None:
                color[v] = paint

    targets = _edge_targets(n)
    phase1 = [sum(color[v] == BLUE for v in e) for e in hg.edges]
    for pos, cnt in enumerate(phase1, start=1):
        if pos % 2 and cnt < n - pos // 2:
            raise LegitError(f"odd edge {pos} below its blue floor: {cnt}")
        if pos % 2 == 0 and cnt > pos // 2:
            raise LegitError(f"even edge {pos} above its blue ceiling: {cnt}")

    first_edge = {}
    vertex_edges = {}
    for pos, e in enumerate(hg.edges, start=1):
        for v in e:
            first_edge.setdefault(v, pos)
            vertex_edges.setdefault(v, []).append(pos)

    diagnostics = []
    for pos, e in enumerate(hg.edges, start=1):
        private = [v for v in e if len(vertex_edges[v]) == 1]
        meets = {}
        for v in e:
            for other in vertex_edges[v]:
                if other != pos:
                    meets[other] = v
        captured = sum(1 for j, v in meets.items()
                       if j < pos and first_edge[v] < j)
        disjoint = n - 1 - len(meets)
        cur = phase1[pos - 1]
        t = cur - targets[pos - 1] if pos % 2 else targets[pos - 1] - cur
        diagnostics.append(EdgeDiagnostics(
            position=pos, target=targets[pos - 1], phase1_blue=cur,
            recolored=t, private=len(private), captured=captured,
            disjoint=disjoint))
        if t == 0:
            continue
        want = BLUE if pos % 2 else RED    # color the flips must start from
        pool = sorted(v for v in private if color[v] == want)
        if t > len(pool):
            raise LegitError(
                f"edge {pos} needs {t} recolorings but has only {len(pool)} "
                f"private {COLOR_NAMES[want]} vertices "
                f"(R={len(private)}, C={captured}, D={disjoint})")
        for v in pool[:t]:
            color[v] = RED if want == BLUE else BLUE

    blue_counts = [sum(color[v] == BLUE for v in e) for e in hg.edges]
    if blue_counts != targets:
        raise LegitError(f"blue quotas missed: {blue_counts} vs {targets}")
    return LegitColoring(color=color, blue_counts=blue_counts,
                         targets=targets, diagnostics=diagnostics)


def verify_legitimate(hg: LinearHypergraph, coloring, num_colors: int = 2):
    """True iff the per-edge color multiplicity lists are pairwise
    distinct; otherwise returns the first offending 1-based pair."""
    color = coloring.color if isinstance(coloring, LegitColoring) else list(coloring)
    lists = []
    for pos, e in enumerate(hg.edges, start=1):
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
