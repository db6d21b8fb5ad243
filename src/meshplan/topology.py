"""Mesh topology construction: the ``topology`` section of a scenario
(``TopologySpec``), node placement, virtual links, interference map.

``TopologySpec`` declares and checks every field of that section and is the
one builder of a ``Topology``; ``scenario`` reads a document's sections into
their dataclasses.

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
scan. The pairs are sorted once into ascending (i, j) order, so the links,
their order and every interferer set equal the all-pairs result.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat

from .errors import ConfigurationError
from .schema import check, invalid, param

# Relative slack applied to range comparisons so that constructions placing
# nodes at exactly tx_range apart survive floating-point rounding.
_RANGE_TOL = 1e-9

DEFAULT_TX_RANGE = 250.0
DEFAULT_GAIN_REF = 10.0
DEFAULT_GAIN_EXP = 3.0
# Interference range over transmission range, unless a scenario sets it.
DEFAULT_INTERFERENCE_MULTIPLIER = 2.0

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
    distance: float
    gain: float


@dataclass(frozen=True)
class Topology:
    """Node i is nodes[i] and link l is links[l]: an id is a position."""
    nodes: tuple[MeshNode, ...]
    links: tuple[VirtualLink, ...]
    tx_range: float
    interference_range: float

    def __post_init__(self):
        if self.interference_range < self.tx_range:
            raise ConfigurationError("interference_range must be >= tx_range")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_gains(self) -> tuple[float, ...]:
        return tuple(l.gain for l in self.links)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per node: (link id, neighbor node id) pairs, sorted by link id."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.nodes]
        for lid, l in enumerate(self.links):
            adj[l.u].append((lid, l.v))
            adj[l.v].append((lid, l.u))
        for entries in adj:
            entries.sort()
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
    tx_range: float = param(DEFAULT_TX_RANGE, gt=0)
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

    def build(self, interference_range: float | None = None,
              d0: float = DEFAULT_GAIN_REF, alpha: float = DEFAULT_GAIN_EXP) -> Topology:
        """The given nodes, or the generator's placed ones, with a link
        between every pair within tx_range, in (u, v) order.

        Spacing is the adjacent-node distance of the construction (chord
        length for rings, lattice pitch for grids, hub-leaf radius for
        stars). A binary-tree's layered layout cannot realize the tree as a
        pure range graph beyond trivial depth, so its links are the
        parent-child edges (all of them within tx_range)."""
        if interference_range is None:
            interference_range = DEFAULT_INTERFERENCE_MULTIPLIER * self.tx_range
        if self.nodes:
            nodes = self.nodes
            points = [(node.x, node.y) for node in nodes]
        else:
            points = _place(self.kind, self.n, self.spacing)
            if not all(math.isfinite(c) for p in points for c in p):
                raise invalid("topology.spacing",
                              f"{self.spacing} m places nodes past the float range")
            nodes = tuple(MeshNode(x, y) for x, y in points)
        if self.kind == "binary-tree":
            # The links are the parent-child edges, not a range search, so
            # look for nodes at one point separately.
            coincident = next(_pairs_within(points, 0.0, "topology.spacing"), None)
            if coincident:
                raise _coincident(*coincident, self.spacing)
            pairs = (((child - 1) // 2, child) for child in range(1, self.n))
        else:
            # Nodes at one point are within range of each other, so the
            # search meets them.
            pairs = _pairs_within(points, self.tx_range * (1.0 + _RANGE_TOL), "topology.tx_range")
        links = []
        for u, v in pairs:
            d = _distance(points[u], points[v])
            if d == 0:
                raise _coincident(u, v, self.spacing)
            links.append(VirtualLink(u, v, d, link_gain(d, d0, alpha)))
        return Topology(nodes, tuple(links), self.tx_range, interference_range)


def link_gain(distance: float, d0: float = DEFAULT_GAIN_REF,
              alpha: float = DEFAULT_GAIN_EXP) -> float:
    """Clamped power-law gain: min(1, (d0/distance)^alpha).

    Equals 1 at and below the reference distance d0, then decays
    monotonically; alpha is the path-loss exponent.
    """
    if distance <= 0:
        raise ValueError("distance must be positive")
    if d0 <= 0:
        raise ValueError("d0 must be positive")
    if alpha < 2:
        raise ValueError("alpha must be >= 2")
    if distance <= d0:  # the power could overflow here
        return 1.0
    return (d0 / distance) ** alpha


def _distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    # Nanometre quantization: symmetric constructions (ring chords, grid
    # pitches) yield bit-identical distances and gains, so gain-sum ties
    # break by channel index instead of trigonometric rounding noise.
    return round(math.hypot(a[0] - b[0], a[1] - b[1]), 9)


def _pairs_within(points: list[tuple[float, float]], limit: float,
                  name: str) -> Iterator[tuple[int, int]]:
    """Every (i, j) with i < j and _distance(points[i], points[j]) <= limit,
    in ascending order, found by the cell list of the module docstring.
    More than ``MAX_PAIRS`` of them is an error naming the field ``name``,
    raised before the first pair is returned."""
    if not points:
        return iter(())
    # Coordinates are halved so that no difference of two finite ones overflows.
    xs, ys = zip(*points)
    x0, y0 = min(xs) / 2, min(ys) / 2
    half_spread = max(max(xs) / 2 - x0, max(ys) / 2 - y0)
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
    # Each pair is held as the code i * n + j in an array of 8-byte ints, an
    # eighth of the room a 2-tuple in a list takes, and decoded one at a time
    # as the caller iterates, once the search has stayed within the bound.
    n = len(points)
    codes = array("q")
    for (cx, cy), here in cells.items():
        ahead = [cells[key] for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                                        (cx, cy + 1)) if key in cells]
        for k, (i, xi, yi) in enumerate(here):
            ni = i * n
            for others in (here[k + 1:], *ahead):
                for j, xj, yj in others:
                    dx, dy = xi - xj, yi - yj
                    s = dx * dx + dy * dy
                    if (s <= inside and s >= tiny
                            or (s <= outside or s == inf)
                            and _distance((xi, yi), (xj, yj)) <= limit):
                        codes.append(ni + j if i < j else j * n + i)
            if len(codes) > MAX_PAIRS:
                raise invalid(name, f"puts more than {MAX_PAIRS:.0e} pairs within "
                                    f"{limit:.6g} m; one topology may have at most {MAX_PAIRS:.0e}")
    return map(divmod, sorted(codes), repeat(n))


def _coincident(u: int, v: int, spacing: float | None) -> ConfigurationError:
    """The error for nodes u < v at one point: it names the generator's
    spacing, or the second of two explicit nodes when ``spacing`` is None."""
    if spacing is None:
        return invalid(f"topology.nodes[{v}]", f"coincides with node {u}")
    return invalid("topology.spacing",
                   f"{spacing} m puts nodes {u} and {v} at one point (distances round to 1 nm)")


def topology_from_nodes(nodes: tuple[MeshNode, ...], *, tx_range: float = DEFAULT_TX_RANGE,
                        interference_range: float | None = None,
                        d0: float = DEFAULT_GAIN_REF,
                        alpha: float = DEFAULT_GAIN_EXP) -> Topology:
    """Topology over explicit node placements; links follow the range rule."""
    return TopologySpec(tx_range=tx_range, nodes=tuple(nodes)).build(interference_range, d0, alpha)


def build_topology(kind: str, n: int, spacing: float, *,
                   tx_range: float = DEFAULT_TX_RANGE,
                   interference_range: float | None = None,
                   d0: float = DEFAULT_GAIN_REF,
                   alpha: float = DEFAULT_GAIN_EXP) -> Topology:
    """Deterministic generator for the supported topology kinds (see
    ``TopologySpec.build``)."""
    return TopologySpec(kind, n, spacing, tx_range).build(interference_range, d0, alpha)


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
    """Per link: interfering link ids (midpoint rule, includes self) and the
    node-adjacent neighbours n1 (links sharing an endpoint, excluding self),
    each in ascending id order.
    """
    interferers: tuple[tuple[int, ...], ...]
    n1: tuple[tuple[int, ...], ...]


def build_interference_map(topology: Topology) -> InterferenceMap:
    """The interferer and node-adjacent sets of every link.

    Link j interferes with link i when their midpoints are within the
    interference range. The pairs come from the cell-list search of the
    module docstring, which decides every pair as the all-pairs scan's
    quantized distance test does, so each set equals the scan's.
    """
    links, nodes = topology.links, topology.nodes
    # Halved before the sum: the same midpoint as halving the sum, except at
    # subnormal scale, and it cannot overflow.
    mids = [(nodes[l.u].x / 2 + nodes[l.v].x / 2, nodes[l.u].y / 2 + nodes[l.v].y / 2)
            for l in links]
    pairs = _pairs_within(mids, topology.interference_range * (1.0 + _RANGE_TOL),
                          "algorithm.interference_multiplier")
    # The pairs come in ascending (i, j) order, so each link's lower
    # interferers arrive in order, all before its higher ones, which arrive in
    # order too: each list is sorted, and the link itself goes in between.
    near: list[list[int]] = [[] for _ in links]
    for i, j in pairs:
        near[i].append(j)
        near[j].append(i)
    for i, ids in enumerate(near):
        insort(ids, i)
    interferers = tuple(map(tuple, near))
    # A link's node-adjacent links are the links at either endpoint. A
    # topology has at most one link per node pair, so the link itself is the
    # one id at both endpoints: after the sort, its two copies lie side by side.
    at: list[list[int]] = [[] for _ in nodes]
    for lid, l in enumerate(links):
        at[l.u].append(lid)
        at[l.v].append(lid)
    n1 = []
    for lid, l in enumerate(links):
        ids = sorted(at[l.u] + at[l.v])
        k = ids.index(lid)
        n1.append((*ids[:k], *ids[k + 2:]))
    return InterferenceMap(interferers, tuple(n1))
