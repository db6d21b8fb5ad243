"""Mesh topology construction: the ``topology`` section of a scenario
(``TopologySpec``), node placement, virtual links, interference map.

``TopologySpec`` declares and checks every field of that section, and its
``build(alg)`` is the one way to a ``Topology``: the ``AlgorithmParams`` of
the scenario give the interference range (``interference_multiplier`` times
``tx_range``), already checked, so nothing here checks it again. Which links
share a node is read off each link's own endpoints, ``u`` and ``v``, or off
``Topology.adjacency``, which each topology builds once.

A virtual link exists between every node pair within transmission range
(with a tiny relative tolerance so exact-range geometries such as a ring
with chord == tx_range are kept). Two links interfere when the distance
between their midpoints is at most the interference range; every link
interferes with itself.

Both rules are found by a cell-list neighbour search (Allen & Tildesley,
*Computer Simulation of Liquids*, 1987) instead of testing every pair.
Points are binned into square cells a little wider than the largest
distance that passes the range test, so two points that pass it lie in the
same or adjacent cells. A half stencil visits each unordered pair of such
cells once: every cell with itself and with its 4 forward neighbours. Each
candidate pair is decided by its squared distance ``dx*dx + dy*dy`` when
that lies clearly inside or clearly outside the limit; the thresholds are
widened by the 1e-9 quantum to which ``_distance`` rounds and by a relative
float slack. Only a pair in the narrow band between them, or whose squares
overflow or underflow, gets the quantized ``_distance(...) <= limit`` test
an all-pairs scan applies, so every pair passes exactly when it passes that
scan. The search returns rows, not pairs: per point, the ids of the others
in range. Each point is searched once against the points after it in its
cell and those of the forward cells, its matches go into its row, and it
goes into each match's row, so the rows hold each pair twice as references
to the points' own ids and no pair is stored as an object or code of its
own. The pair count is checked against its bound after every point. Sorting
a row gives the links in (u, v) order, or a link's interferer set, exactly
as the all-pairs scan does.

When there are more points than the pair bound allows pairs, a cheaper
count comes first: points binned into squares small enough that any two in
one square pass the range test, the pairs within each square, summed. That
is a lower bound on the pairs in range, so when it exceeds the bound the
search fails before it allocates a row or a cell, and it never fails a
search that would pass. Likewise the links that share a node interfere when
the interference range exceeds the transmission range by a little more than
the rounding, so ``build`` counts those pairs off the node rows and fails
before it makes a link when they alone pass the bound.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigurationError
from .schema import check, invalid, param

if TYPE_CHECKING:
    from .scenario import AlgorithmParams

# Relative slack applied to range comparisons so that constructions placing
# nodes at exactly tx_range apart survive floating-point rounding.
_RANGE_TOL = 1e-9

TOPOLOGY_KINDS = ("chain", "ring", "grid", "star", "binary-tree")

# Bound on the nodes of one topology, generated or listed: ten times the
# 10,000-node grid planned in CI.
MAX_NODES = 100_000
# Bound on the pairs one range search collects, node pairs in range or link
# pairs that interfere: a 100,000-node grid at a 200 m pitch and the default
# ranges has about 3.6 million interfering pairs.
MAX_PAIRS = 4_000_000


@dataclass(frozen=True)
class MeshNode:
    x: float
    y: float

    def __post_init__(self):
        check(self)


@dataclass(frozen=True, slots=True)
class VirtualLink:
    u: int
    v: int


@dataclass(frozen=True)
class Topology:
    """Node i is nodes[i] and link l is links[l]: an id is a position."""
    nodes: tuple[MeshNode, ...]
    links: tuple[VirtualLink, ...]
    interference_range: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @functools.cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node: (link id, neighbor node id) pairs, in link-id order,
        built on first use and kept with the topology."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for lid, l in enumerate(self.links):
            adj[l.u].append((lid, l.v))
            adj[l.v].append((lid, l.u))
        return adj


@dataclass(frozen=True)
class TopologySpec:
    """The ``topology`` section: a generator (kind/n/spacing) or explicit
    node placements. It checks every rule the fields alone decide; ``build``,
    the one way to a ``Topology``, raises only for what placing the nodes
    shows (nodes at one point or past the float range, too many pairs)."""
    kind: str | None = param(None, choices=TOPOLOGY_KINDS)
    n: int | None = param(None, ge=2, le=MAX_NODES)
    spacing: float | None = param(None, gt=0)
    tx_range: float = param(250.0, gt=0)
    nodes: tuple[MeshNode, ...] = ()

    def __post_init__(self):
        check(self)
        if len(self.nodes) > MAX_NODES:
            raise invalid("nodes", f"must list at most {MAX_NODES} nodes, got {len(self.nodes)}")
        generator = {"kind": self.kind, "n": self.n, "spacing": self.spacing}
        if self.nodes:
            given = [k for k, v in generator.items() if v is not None]
            if given:
                raise invalid(given[0], "not allowed with explicit nodes")
            return
        missing = [k for k, v in generator.items() if v is None]
        if missing:
            raise invalid(missing[0], "required unless nodes are given")
        if self.kind == "grid" and not _grid_rows(self.n):
            raise invalid("n", f"grid needs a composite node count with both sides >= 2, "
                               f"got {self.n}")
        if self.kind == "binary-tree" and self.spacing > self.tx_range * (1.0 + _RANGE_TOL):
            raise invalid("spacing", f"binary-tree needs spacing <= tx_range "
                                     f"({self.tx_range!r}), got {self.spacing!r}")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes) if self.nodes else self.n

    def build(self, alg: AlgorithmParams) -> Topology:
        """The given nodes, or the generator's placed ones, with a link
        between every pair within tx_range, in (u, v) order, and an
        interference range of ``alg.interference_multiplier`` times tx_range.

        Spacing is the adjacent-node distance of the construction (chord
        length for rings, lattice pitch for grids, hub-leaf radius for
        stars). A binary-tree's layered layout cannot realize the tree as a
        pure range graph beyond trivial depth, so its links are the
        parent-child edges (all of them within tx_range)."""
        if self.nodes:
            nodes = self.nodes
            points = [(node.x, node.y) for node in nodes]
        else:
            points = _place(self.kind, self.n, self.spacing)
            if not all(math.isfinite(c) for p in points for c in p):
                raise invalid("topology.spacing",
                              f"{self.spacing} m places nodes past the float range")
            nodes = tuple(MeshNode(x, y) for x, y in points)
        # Nodes at one point are within range of each other, so the search
        # meets them. A binary tree's links are the parent-child edges, not a
        # range search, so it looks for such nodes with a search at 0 m.
        tree = self.kind == "binary-tree"
        tx_limit = self.tx_range * (1.0 + _RANGE_TOL)
        rows = (_neighbours(points, 0.0, "topology.spacing") if tree else
                _neighbours(points, tx_limit, "topology.tx_range"))
        interference_range = alg.interference_multiplier * self.tx_range
        if not tree:
            # The links that share a node already pass the bound on the
            # interfering pairs: fail before making one of them.
            int_limit = interference_range * (1.0 + _RANGE_TOL)
            if _adjacent_pairs(rows, points, tx_limit, int_limit) > MAX_PAIRS:
                raise _too_many_pairs("algorithm.interference_multiplier", int_limit)
        pairs = ((u, v) for u, row in enumerate(rows) for v in sorted(row) if v > u)
        if tree:
            coincident = next(pairs, None)
            if coincident:
                raise _coincident(*coincident, self.spacing)
            pairs = (((child - 1) // 2, child) for child in range(1, self.n))
        links = []
        for u, v in pairs:
            if _distance(points[u], points[v]) == 0:
                raise _coincident(u, v, self.spacing)
            links.append(VirtualLink(u, v))
        return Topology(nodes, tuple(links), interference_range)


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    # Nanometre quantization: nodes within 1 nm are one point (_coincident),
    # and symmetric constructions (ring chords, grid pitches) give
    # bit-identical distances, so range tests do not turn on trigonometric
    # rounding noise. The thresholds of _neighbours, _sure_pairs and
    # _adjacent_pairs are widened by this quantum.
    return round(math.hypot(a[0] - b[0], a[1] - b[1]), 9)


def _too_many_pairs(name: str, limit: float) -> ConfigurationError:
    return invalid(name, f"puts more than {MAX_PAIRS:.0e} pairs within "
                         f"{limit:.6g} m; one topology may have at most {MAX_PAIRS:.0e}")


def _sure_pairs(xs: list[float], ys: list[float], x0: float, y0: float,
                half_spread: float, limit: float) -> int:
    """A lower bound on the pairs of points within ``limit``: the pairs that
    share a square of a grid so fine that any two points in one square pass
    the range test. Coordinates are halved and offset by (x0, y0), and an
    index rounds as in _neighbours, so two points given one index lie less
    than 2 * half_side + 2**-50 * half_spread apart on each axis. That is
    kept below r / sqrt(2), less a relative slack, for r = max(limit - 1e-9,
    0) + 4e-10, so two such points lie less than r apart. _distance moves a
    distance by at most 5e-10, to a multiple of 1e-9, so it gives them 0 at a
    limit below 1e-9 and less than the limit otherwise. Returns 0 when no
    square fits, or when the squares are so small against the spread that an
    index could pass 2**50."""
    half_side = ((max(limit - 1e-9, 0.0) + 4e-10) * (1 - 1e-6) / math.sqrt(2)
                 - half_spread * 2.0 ** -49) / 2
    if not half_side > 0 or half_side < half_spread * 2.0 ** -50:
        return 0
    squares = Counter((math.floor((x / 2 - x0) / half_side), math.floor((y / 2 - y0) / half_side))
                      for x, y in zip(xs, ys))
    return sum(k * (k - 1) // 2 for k in squares.values())


def _adjacent_pairs(rows: list[list[int]], points: list[tuple[float, float]],
                    tx_limit: float, int_limit: float) -> int:
    """A lower bound on the interfering pairs of the links that ``rows``, the
    node search within ``tx_limit``, makes: the pairs of links that share a
    node, the sum over nodes of C(degree, 2). Two such links have midpoints
    at most tx_limit apart, give or take the 1 nm to which _distance rounds a
    link's length and the midpoints' distance and the float error of the
    midpoints, below 2**-51 of the largest coordinate. The count is a lower
    bound only when int_limit, the interference limit, leaves room for all
    that over tx_limit, so that every such pair interferes; otherwise it is
    0."""
    reach = max(abs(c) for p in points for c in p)
    if not int_limit >= tx_limit * (1 + 1e-12) + 2e-9 + reach * 2.0 ** -50:
        return 0
    return sum(len(row) * (len(row) - 1) // 2 for row in rows)


def _neighbours(points: list[tuple[float, float]], limit: float,
                name: str) -> list[list[int]]:
    """Per point i, the row of ids j != i with _distance(points[i],
    points[j]) <= limit, in no set order, found by the cell list of the module
    docstring. More than ``MAX_PAIRS`` pairs in range is an error naming the
    field ``name``. When the points could make that many pairs, ``_sure_pairs``
    is checked first, before any row or cell exists; after that the count is
    checked after each point's search, not after a cell's, so the rows never
    hold more than that bound plus one point's matches, even when every point
    shares one cell."""
    if not points:
        return []
    # Coordinates are halved so that no difference of two finite ones overflows.
    xs, ys = [x for x, _ in points], [y for _, y in points]
    x0, y0 = min(xs) / 2, min(ys) / 2
    half_spread = max(max(xs) / 2 - x0, max(ys) / 2 - y0)
    n = len(points)
    if (n * (n - 1) // 2 > MAX_PAIRS
            and _sure_pairs(xs, ys, x0, y0, half_spread, limit) > MAX_PAIRS):
        raise _too_many_pairs(name, limit)
    rows: list[list[int]] = [[] for _ in points]
    # A passing pair can be 5e-10 beyond the limit, since _distance rounds to
    # 1e-9: the first term covers that. Computing a cell index rounds twice,
    # each time by at most 2**-53 of the index, so two points' indices move
    # apart by at most 2**-51 of the larger; the second term widens the cell
    # by 2**-49 of the index bound it sets (the spread over the side, at most
    # 2**49), which outweighs that, so two points that pass the limit lie in
    # the same or adjacent cells. It adds less than the first term's 1e-6
    # slack unless the points span over 2**29 limits, and one far point no
    # longer puts all the others into one cell.
    half_side = (limit + 1e-9) * (1 + 1e-6) / 2 + half_spread * 2.0 ** -49
    cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    for i, (x, y) in enumerate(points):
        key = (math.floor((x / 2 - x0) / half_side), math.floor((y / 2 - y0) / half_side))
        cells.setdefault(key, []).append((i, x, y))
    # A pair whose squared distance lies in [tiny, inside] has a _distance of
    # at most the limit, and one above `outside` has more: each bound lies a
    # rounding quantum from the limit, and the relative slack outweighs the
    # float error of the squares, of hypot and of the rounding. An `inside`
    # that overflows is capped. A pair whose squares underflow or overflow,
    # or that lies between the bounds, gets the exact test.
    lo, hi = limit - 1e-9, limit + 1e-9
    tiny, inf = sys.float_info.min, math.inf
    inside = min(lo * lo * (1 - 1e-12), sys.float_info.max) if lo > 0 else -1.0
    outside = hi * hi * (1 + 1e-12)
    pairs = 0
    for (cx, cy), here in cells.items():
        # The cell's own points, then those of its 4 forward neighbours: each
        # point of the cell is tested against the ones after it.
        stencil = [p for key in ((cx, cy), (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                                 (cx, cy + 1)) for p in cells.get(key, ())]
        for k, (i, xi, yi) in enumerate(here, 1):
            near = [j for j, xj, yj in stencil[k:]
                    if ((s := (dx := xi - xj) * dx + (dy := yi - yj) * dy) <= inside
                        and s >= tiny
                        or (s <= outside or s == inf)
                        and _distance((xi, yi), (xj, yj)) <= limit)]
            rows[i] += near
            for j in near:
                rows[j].append(i)
            pairs += len(near)
            if pairs > MAX_PAIRS:
                raise _too_many_pairs(name, limit)
    return rows


def _coincident(u: int, v: int, spacing: float | None) -> ConfigurationError:
    """The error for nodes u < v at one point: it names the generator's
    spacing, or the second of two explicit nodes when ``spacing`` is None."""
    if spacing is None:
        return invalid(f"topology.nodes[{v}]", f"coincides with node {u}")
    return invalid("topology.spacing",
                   f"{spacing} m puts nodes {u} and {v} at one point (distances round to 1 nm)")


def _grid_rows(n: int) -> int:
    """The rows of an n-node grid: its largest divisor from 2 to sqrt(n), or
    0 when n has none."""
    return max((r for r in range(2, math.isqrt(n) + 1) if n % r == 0), default=0)


def _place(kind: str, n: int, spacing: float) -> list[tuple[float, float]]:
    if kind == "chain":
        return [(i * spacing, 0.0) for i in range(n)]
    if kind == "ring":
        radius = spacing / (2.0 * math.sin(math.pi / n))
        return [(radius * math.cos(2.0 * math.pi * k / n),
                 radius * math.sin(2.0 * math.pi * k / n)) for k in range(n)]
    if kind == "grid":
        cols = n // _grid_rows(n)
        return [((i % cols) * spacing, (i // cols) * spacing) for i in range(n)]
    if kind == "star":
        leaves = n - 1
        pos = [(0.0, 0.0)]
        pos += [(spacing * math.cos(2.0 * math.pi * k / leaves),
                 spacing * math.sin(2.0 * math.pi * k / leaves)) for k in range(leaves)]
        return pos
    # binary-tree, in heap-order layout: level d at depth d * 0.8 * spacing,
    # horizontal slots scaled so the widest parent-child offset keeps every
    # edge <= spacing.
    depth = n.bit_length() - 1  # depth of the deepest level for nodes 0..n-1
    v_gap = 0.8 * spacing
    h_max = math.sqrt(max(spacing * spacing - v_gap * v_gap, 0.0))
    pitch = h_max / (2.0 ** (depth - 2)) if depth >= 1 else h_max
    pos = []
    for i in range(n):
        d = (i + 1).bit_length() - 1
        slot = i - (2 ** d - 1)
        x = (slot + 0.5) * (2.0 ** (depth - d)) * pitch
        pos.append((x, d * v_gap))
    return pos


@dataclass(frozen=True)
class InterferenceMap:
    """Per link: the interfering link ids (midpoint rule, includes self), in
    ascending id order."""
    interferers: tuple[tuple[int, ...], ...]


def build_interference_map(topology: Topology) -> InterferenceMap:
    """The interferer set of every link.

    Link j interferes with link i when their midpoints are within the
    interference range. Each link's row of interferers comes from the
    cell-list search of the module docstring, which decides every pair as
    the all-pairs scan's quantized distance test does; with the link itself
    added and sorted, each set equals the scan's. Each row becomes a tuple
    as soon as it is sorted, so the map's lists and tuples are never all held
    at once.
    """
    links, nodes = topology.links, topology.nodes
    # Halved before the sum: the same midpoint as halving the sum, except at
    # subnormal scale, and it cannot overflow.
    mids = [(nodes[l.u].x / 2 + nodes[l.v].x / 2, nodes[l.u].y / 2 + nodes[l.v].y / 2)
            for l in links]
    rows = _neighbours(mids, topology.interference_range * (1.0 + _RANGE_TOL),
                       "algorithm.interference_multiplier")
    for i, row in enumerate(rows):
        row.append(i)
        row.sort()
        rows[i] = tuple(row)
    return InterferenceMap(tuple(rows))
