import itertools
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshplan import ConfigurationError, MeshNode, build_interference_map, scenario_from_dict
from meshplan import topology
from meshplan.pipeline import plan, run_pipeline

from conftest import build, build_from_nodes, generator_topologies_upto_8, random_topology


def length(topo, link):
    """A link's length, from its endpoints' coordinates."""
    u, v = topo.nodes[link.u], topo.nodes[link.v]
    return topology._distance((u.x, u.y), (v.x, v.y))


def test_ring4_paper_setup(ring4):
    assert ring4.n_nodes == 4
    assert ring4.n_links == 4
    for l in ring4.links:
        assert length(ring4, l) == pytest.approx(250.0)
    assert sorted((l.u, l.v) for l in ring4.links) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_chain2_minimal():
    t = build("chain", 2, 100.0)
    assert t.n_nodes == 2 and t.n_links == 1
    assert (t.links[0].u, t.links[0].v) == (0, 1)


def test_grid9_edge_count(grid9):
    # 3x3 lattice: 2 rows of 3 vertical + 2 cols of 3 horizontal = 12 edges.
    assert grid9.n_nodes == 9
    assert grid9.n_links == 12
    for l in grid9.links:
        assert length(grid9, l) == pytest.approx(200.0)


def test_star_five_leaves():
    t = build("star", 6, 250.0)
    assert t.n_links == 5
    assert all(l.u == 0 for l in t.links)


def test_binary_tree_links_are_tree_edges():
    t = build("binary-tree", 7, 200.0)
    assert t.n_links == 6
    assert sorted((l.u, l.v) for l in t.links) == [(0, 1), (0, 2), (1, 3), (1, 4),
                                                   (2, 5), (2, 6)]
    for l in t.links:
        assert length(t, l) <= 200.0 * (1 + 1e-9)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        build("hexagon", 6, 100.0)
    with pytest.raises(ConfigurationError):
        build("grid", 7, 100.0)  # prime
    with pytest.raises(ConfigurationError):
        build("chain", 1, 100.0)
    with pytest.raises(ConfigurationError):
        build("chain", 4, -5.0)
    with pytest.raises(ConfigurationError):
        build("binary-tree", 7, 300.0, tx_range=250.0)


def test_pair_bound_names_the_range_field(monkeypatch):
    # A 6-node ring 1 m apart has all 15 node pairs in range as links; 60
    # pairs of those links share a node, and all 105 pairs interfere.
    monkeypatch.setattr(topology, "MAX_PAIRS", 14)
    with pytest.raises(ConfigurationError, match="^topology.tx_range: "):
        build("ring", 6, 1.0)
    monkeypatch.setattr(topology, "MAX_PAIRS", 59)
    with pytest.raises(ConfigurationError, match="^algorithm.interference_multiplier: "):
        build("ring", 6, 1.0)
    monkeypatch.setattr(topology, "MAX_PAIRS", 60)
    ring = build("ring", 6, 1.0)
    assert ring.n_links == 15
    with pytest.raises(ConfigurationError, match="^algorithm.interference_multiplier: "):
        build_interference_map(ring)


def test_interference_single_link():
    t = build("chain", 2, 100.0)
    im = build_interference_map(t)
    assert im.interferers[0] == (0,)


def test_interference_ring4_all_pairs(ring4, ring4_imap):
    # Interference range (500) exceeds every midpoint distance on the ring.
    for l in range(ring4.n_links):
        assert ring4_imap.interferers[l] == (0, 1, 2, 3)


def test_interference_grid9_matches_bruteforce(grid9):
    im = build_interference_map(grid9)
    mids = [((grid9.nodes[l.u].x + grid9.nodes[l.v].x) / 2,
             (grid9.nodes[l.u].y + grid9.nodes[l.v].y) / 2) for l in grid9.links]
    rng = grid9.interference_range
    for i in range(grid9.n_links):
        expect = {j for j in range(grid9.n_links)
                  if math.dist(mids[i], mids[j]) <= rng * (1 + 1e-9)}
        assert im.interferers[i] == tuple(sorted(expect))


def test_interference_symmetry_random():
    for seed in range(100):
        topo = random_topology(seed)
        im = build_interference_map(topo)
        for l in range(topo.n_links):
            assert l in im.interferers[l]
            for other in im.interferers[l]:
                assert l in im.interferers[other]


@st.composite
def topologies(draw):
    """A generated topology of any kind, or nodes on 50 m cells in a 750 m
    box, at a 250 m range and a random interference range."""
    multiplier = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    kind = draw(st.sampled_from((None, *topology.TOPOLOGY_KINDS)))
    if kind is None:
        cells = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                              min_size=1, max_size=30, unique=True))
        return build_from_nodes((MeshNode(50.0 * x, 50.0 * y) for x, y in cells),
                                interference_multiplier=multiplier)
    # a grid needs a composite node count
    n = (draw(st.integers(2, 6)) * draw(st.integers(2, 6)) if kind == "grid"
         else draw(st.integers(2, 40)))
    return build(kind, n, draw(st.sampled_from([100.0, 150.0, 200.0, 250.0])),
                 interference_multiplier=multiplier)


@settings(max_examples=150, deadline=None)
@given(topologies())
def test_adjacency_and_interferer_order_match_definitions(t):
    for node, entries in enumerate(t.adjacency):
        assert entries == [(j, link.u + link.v - node) for j, link in enumerate(t.links)
                           if node in (link.u, link.v)]
    im = build_interference_map(t)
    for l in range(t.n_links):
        assert l in im.interferers[l]
        assert all(a < b for a, b in zip(im.interferers[l], im.interferers[l][1:]))


def test_all_generated_link_distances_within_range():
    # every one is built at the default 250 m range
    for topo in generator_topologies_upto_8():
        for l in topo.links:
            assert length(topo, l) <= 250.0 * (1 + 1e-9)
    for seed in range(20):
        topo = random_topology(seed)
        for l in topo.links:
            assert length(topo, l) <= 250.0 * (1 + 1e-9)


def test_generated_links_match_range_rule():
    # For the range-rule kinds, the link set is exactly the close pairs.
    for kind, n, spacing in [("chain", 6, 150.0), ("ring", 5, 250.0),
                             ("grid", 9, 200.0), ("star", 6, 250.0)]:
        topo = build(kind, n, spacing)
        close = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if math.dist((topo.nodes[u].x, topo.nodes[u].y),
                              (topo.nodes[v].x, topo.nodes[v].y))
                 <= 250.0 * (1 + 1e-9)}
        assert {(l.u, l.v) for l in topo.links} == close


def test_determinism():
    a = build("grid", 9, 200.0)
    b = build("grid", 9, 200.0)
    assert a == b and repr(a) == repr(b)
    im_a, im_b = build_interference_map(a), build_interference_map(b)
    assert im_a == im_b


def test_explicit_nodes_use_range_rule():
    nodes = (MeshNode(0.0, 0.0), MeshNode(100.0, 0.0), MeshNode(1000.0, 0.0))
    t = build_from_nodes(nodes)
    assert [(l.u, l.v) for l in t.links] == [(0, 1)]
    assert t.interference_range == 500.0


# All-pairs oracles: the scans the cell-list search replaced, with link
# midpoints halved before the sum as build_interference_map takes them.

def all_pairs_within(points, limit):
    pairs = []
    for u in range(len(points)):
        for v in range(u + 1, len(points)):
            d = topology._distance(points[u], points[v])
            if d <= limit:
                pairs.append((u, v, d))
    return pairs


def all_pairs_links(nodes, tx_range):
    return all_pairs_within([(n.x, n.y) for n in nodes], tx_range * (1.0 + topology._RANGE_TOL))


def all_pairs_interferers(topo):
    nodes = topo.nodes
    mids = [(nodes[l.u].x / 2 + nodes[l.v].x / 2, nodes[l.u].y / 2 + nodes[l.v].y / 2)
            for l in topo.links]
    limit = topo.interference_range * (1.0 + topology._RANGE_TOL)
    interferers = []
    for i, mi in enumerate(mids):
        within = {j for j, mj in enumerate(mids) if topology._distance(mi, mj) <= limit}
        within.add(i)
        interferers.append(tuple(sorted(within)))
    return tuple(interferers)


RANGES = st.sampled_from([250.0, 1.0, 0.3, 1e10, 1e-9, 1e-300])
COORDS = st.one_of(st.floats(-2000.0, 2000.0),
                   st.sampled_from([0.0, -0.0, 5e-324, 1e10, -1e10, 1.7e308, -1.7e308]))
# Nothing, or one point far from the rest: with a small range it sets the
# cell size, and the cell indices of the other points run up to 2**49.
OUTLIERS = st.sampled_from([None, (1e12, 0.0), (0.0, -1e15), (3e17, 3e17), (-1e6, 1e6)])
DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
              (math.sqrt(0.5), math.sqrt(0.5)), (-math.sqrt(0.5), math.sqrt(0.5)),
              (math.sqrt(0.5), -math.sqrt(0.5)), (-math.sqrt(0.5), -math.sqrt(0.5))]


@st.composite
def placements(draw):
    """Random nodes, then walks from them along the axes and diagonals in
    steps of exactly the transmission or interference range, just past
    them, or half the first: a chain with step tx_range puts its link
    midpoints tx_range apart, so both range tests meet their boundary, and
    so do the cell edges, which lie just past each range. Some placements
    add a far outlier."""
    tx = draw(RANGES)
    multiplier = draw(st.sampled_from([1.0, 1.5, 2.0]))
    interference = tx * multiplier
    points = [(draw(COORDS), draw(COORDS)) for _ in range(draw(st.integers(1, 5)))]
    # tx + 4e-10 is past the range but within it once _distance rounds
    steps = st.sampled_from([tx, interference, tx * (1 + 1e-9), interference * (1 + 1e-9),
                             tx + 4e-10, tx * (1 + 1e-9) + 1e-9, tx / 2])
    for _ in range(draw(st.integers(0, 16))):
        x, y = draw(st.sampled_from(points))
        ux, uy = draw(st.sampled_from(DIRECTIONS))
        r = draw(steps)
        points.append((x + r * ux, y + r * uy))
    outlier = draw(OUTLIERS)
    if outlier is not None:
        points.append(outlier)
    # walks that step back reach their start again; keep each point once
    nodes = tuple(MeshNode(x, y) for x, y in dict.fromkeys(points)
                  if math.isfinite(x) and math.isfinite(y))
    return nodes, tx, multiplier


@settings(max_examples=300, deadline=None)
@given(placements())
def test_cell_list_equals_all_pairs(case):
    nodes, tx, multiplier = case
    expected = all_pairs_links(nodes, tx)
    coincident = [(u, v) for u, v, d in expected if d == 0]
    if coincident:
        u, v = coincident[0]
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"topology.nodes[{v}]: coincides with node {u}")):
            build_from_nodes(nodes, tx, interference_multiplier=multiplier)
        return
    topo = build_from_nodes(nodes, tx, interference_multiplier=multiplier)
    assert [(l.u, l.v, length(topo, l)) for l in topo.links] == expected
    want = all_pairs_interferers(topo)
    got = build_interference_map(topo).interferers
    assert got == want


def test_cell_list_extreme_placements():
    # cell indices stay finite where coordinate / range overflows a float
    cases = [([(0.0, 0.0), (1e10, 0.0)], 1e-300, []),
             ([(-1.7e308, 0.0), (1.7e308, 0.0)], 250.0, []),
             ([(1.7e308, 0.0), (1.7e308, 100.0)], 250.0, [(0, 1, 100.0)]),
             ([(0.0, 0.0), (1e10, 0.0)], 1e10, [(0, 1, 1e10)]),
             # cell indices near 2**50, where the rounding of the index
             # arithmetic alone would put nodes 2 and 3 two cells apart
             ([(1964075116579467.5, 0.0), (9387931901222268.0, 0.0),
               (7225610246189830.0, 0.0), (7225610246189837.0, 0.0)], 7.0, [(2, 3, 7.0)]),
             ([(-176073743384268.06, 0.0), (160604953218862.44, 0.0),
               (131887843818522.25, 0.0), (131887843818522.55, 0.0)], 0.3,
              [(2, 3, 0.296875)])]
    for points, tx, links in cases:
        nodes = tuple(MeshNode(*p) for p in points)
        topo = build_from_nodes(nodes, tx)
        assert [(l.u, l.v, length(topo, l)) for l in topo.links] == links
        assert build_interference_map(topo).interferers == all_pairs_interferers(topo)


def band_distances(limit):
    """Distances on both sides of where _distance's rounding can flip the
    test (half a 1e-9 quantum from the limit) and of where the squared-
    distance pre-test hands a pair to it (a quantum from the limit, widened
    by a relative slack): each such edge, a few ulps and a relative 1e-15,
    1e-13 and 1e-12 to either side, plus distances whose squares underflow."""
    q = 1e-9
    out = [1e-200, 1e-160, 3e-10, 7e-10]
    for edge in (limit - q, limit - q / 2, limit, limit + q / 2, limit + q):
        out += [edge * (1 + r) for r in (-1e-12, -1e-13, -1e-15, 0.0, 1e-15, 1e-13, 1e-12)]
        out += [math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
    return [d for d in out if d >= 0]


@pytest.mark.parametrize("limit", [1e-300, 1.0, 500.0, 1e10, 1e160])
def test_pairs_within_rounding_band(limit):
    # Pairs placed by direction and distance from two bases, one of which
    # makes the coordinate differences round; and pairs whose coordinate
    # differences are 1.3e154 or more, so that their squares overflow.
    directions = [(1.0, 0.0), (0.0, -1.0), (math.sqrt(0.5), math.sqrt(0.5)), (-0.6, 0.8)]
    bases = [(0.0, 0.0), (-3.3 * limit, 7.1 * limit)]
    cases = [[(bx, by), (bx + d * ux, by + d * uy)]
             for bx, by in bases for ux, uy in directions for d in band_distances(limit)]
    cases += [[(0.0, 0.0), (1.3e154, 0.0)], [(0.0, 0.0), (-2e154, 3e154)],
              [(1e160, -1e160), (1e160 - 1.4e154, -1e160)], [(-1e308, 0.0), (1e308, 0.0)]]
    outcomes = set()
    for points in cases:
        expected = [(i, j) for i, j, _ in all_pairs_within(points, limit)]
        rows = topology._neighbours(points, limit, "limit")
        assert [(i, j) for i, row in enumerate(rows) for j in sorted(row) if j > i] == expected
        assert all(i in rows[j] for i, row in enumerate(rows) for j in row), points
        outcomes.add(bool(expected))
    assert outcomes == {True, False}


def test_neighbours_of_no_points():
    assert topology._neighbours([], 250.0, "limit") == []


def test_neighbours_bound_holds_inside_one_cell(monkeypatch):
    # 3,000 points within a metre of each other share one cell and make about
    # 4.5 million pairs; the bound is checked after each point's search, so
    # the search stops holding a few thousand of them, not the whole cell's.
    # The count before the search would fail them first, so it is taken out.
    monkeypatch.setattr(topology, "MAX_PAIRS", 1_000)
    monkeypatch.setattr(topology, "_sure_pairs", lambda *args: 0)
    points = [(k * 1e-4, (k % 7) * 1e-4) for k in range(3_000)]
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="^crowd: puts more than 1e[+]03 pairs"):
            topology._neighbours(points, 250.0, "crowd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def sure_pairs(points, limit):
    """``_sure_pairs`` over the points, offset and halved as _neighbours does."""
    xs, ys = zip(*points)
    x0, y0 = min(xs) / 2, min(ys) / 2
    half_spread = max(max(xs) / 2 - x0, max(ys) / 2 - y0)
    return topology._sure_pairs(xs, ys, x0, y0, half_spread, limit)


def test_dense_points_fail_before_the_search_allocates():
    # 20,000 points within a millimetre make 2e8 pairs within 250 m. The
    # count before the search finds them in one square and fails at once:
    # no row or cell is made, so the traced peak stays near the two
    # coordinate lists (2 x 160 kB), where the rows alone would take 1.1 MB.
    points = [(k % 100 * 1e-5, k // 100 * 1e-5) for k in range(20_000)]
    assert sure_pairs(points, 250.0) == 20_000 * 19_999 // 2
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="^crowd: puts more than 4e[+]06 pairs"):
            topology._neighbours(points, 250.0, "crowd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000


def test_large_binary_tree_builds():
    # 3,000 nodes make over MAX_PAIRS candidate pairs, so the tree's search
    # for nodes at one point, a search at 0 m, counts the sure pairs first:
    # no square is that small, so the count is 0 and the build goes on.
    assert 3_000 * 2_999 // 2 > topology.MAX_PAIRS
    t = build("binary-tree", 3_000, 200.0)
    assert t.n_links == 2_999
    assert {(l.u, l.v) for l in t.links} == {((c - 1) // 2, c) for c in range(1, 3_000)}


@st.composite
def clustered_points(draw):
    """A range limit and up to 30 points around a few centres, at offsets of
    up to two limits, some snapped to the limit's multiples or to one
    another, and at times one point 1e12 limits away."""
    limit = draw(st.sampled_from([1.5e-9, 1e-3, 1.0, 250.0, 1e10, 1e160]))
    centres = draw(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                            min_size=1, max_size=3))
    offsets = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.5, 1.0, -1.0, 0.7071]))
    points = []
    for _ in range(draw(st.integers(2, 30))):
        cx, cy = draw(st.sampled_from(centres))
        points.append((limit * (cx + draw(offsets)), limit * (cy + draw(offsets))))
    if draw(st.booleans()):
        points.append((limit * 1e12, 0.0))
    return points, limit


@settings(max_examples=300, deadline=None)
@given(clustered_points())
# the search at 0 m of a binary tree: no square fits, so none is counted; two
# of these points share a square half a nanometre wide, yet lie 1 nm apart
# once rounded
@example(([(0.0, 0.0), (0.8e-9, 0.0), (1.35e-9, 0.0)], 0.0))
def test_sure_pairs_never_exceed_the_pairs_in_range(case):
    # the count before the search is a lower bound, so it fails no search
    # that would pass
    points, limit = case
    assert sure_pairs(points, limit) <= len(all_pairs_within(points, limit))


def test_dense_ring_fails_before_links_are_made(monkeypatch):
    # 1000 nodes within a millimetre: every pair is a link, and the 4.98e8
    # pairs of links that share a node pass the bound on interfering pairs,
    # so the build fails before it makes one of the 499,500 links.
    def no_link(*args):
        raise AssertionError("a link was made")

    monkeypatch.setattr(topology, "VirtualLink", no_link)
    with pytest.raises(ConfigurationError,
                       match="^algorithm.interference_multiplier: puts more than 4e[+]06 pairs"):
        build("ring", 1000, 1e-6, tx_range=1e-3)


@st.composite
def hubs(draw):
    """A range and up to 6 nodes about that range from a hub up to 1e9 m from
    the origin, some straight across the hub from another: two links of the
    hub have midpoints up to the range apart, give or take the float error
    of coordinates that large."""
    tx_range = draw(st.sampled_from([1e-3, 1.0, 250.0]))
    hub = (draw(st.sampled_from([0.0, 1e6, 1e9])), draw(st.floats(-1e9, 1e9)))
    points = [hub]
    for _ in range(draw(st.integers(2, 6))):
        angle = draw(st.floats(0.0, 2 * math.pi))
        r = tx_range * (1 + draw(st.sampled_from([0.0, -1e-12, 5e-10, 1e-9])))
        points.append((hub[0] + r * math.cos(angle), hub[1] + r * math.sin(angle)))
        if draw(st.booleans()):
            points.append((2 * hub[0] - points[-1][0], 2 * hub[1] - points[-1][1]))
    return points, tx_range


@settings(max_examples=500, deadline=None)
# a hub 1e9 m out, where the midpoints' float error outweighs 1e-5 of a 1 mm range
@example(([(1e9, 491963578.772427), (1000000000.0008461, 491963578.7718941),
           (999999999.9991539, 491963578.77295995), (1000000000.0008131, 491963578.7718449)],
          1e-3), 1.00001)
@given(clustered_points() | hubs(),
       st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.00001, 1.0001, 1.5, 2.0])
       | st.floats(1.0, 3.0))
def test_adjacent_pairs_never_exceed_the_interfering_pairs(case, multiplier):
    # the count of links that share a node is a lower bound on the pairs the
    # interference search finds, so the build fails no topology that would pass
    points, tx_range = case
    tx_limit = tx_range * (1.0 + topology._RANGE_TOL)
    rows = topology._neighbours(points, tx_limit, "tx_range")
    try:
        topo = build_from_nodes([MeshNode(x, y) for x, y in points], tx_range,
                                interference_multiplier=multiplier)
    except ConfigurationError:  # nodes at one point
        return
    imap = build_interference_map(topo)
    count = topology._adjacent_pairs(rows, points, tx_limit,
                                     topo.interference_range * (1.0 + topology._RANGE_TOL))
    assert count <= sum(len(row) - 1 for row in imap.interferers) // 2
    if multiplier >= 1.5 and 1e-3 <= tx_range <= 250.0:
        assert count == sum(len(row) * (len(row) - 1) // 2 for row in rows)


@pytest.fixture
def distance_calls(monkeypatch):
    calls = [0]
    real = topology._distance

    def counted(a, b):
        calls[0] += 1
        return real(a, b)

    monkeypatch.setattr(topology, "_distance", counted)
    return calls


def test_chain_run_distance_work(distance_calls):
    # all-pairs scans make 2,157,001 calls here: 1200*1199/2 node pairs
    # plus 1199**2 link pairs
    scenario = scenario_from_dict({
        "topology": {"kind": "chain", "n": 1200, "spacing": 200.0},
        "traffic": {"flows": [{"src": 0, "dst": 1199, "kind": "voip"}]},
        "sim": {"horizon_s": 2.0}})
    run_pipeline(scenario)
    assert distance_calls[0] < 50_000


def test_grid_plan_distance_work(distance_calls):
    # a 40x50 grid with 20 flows of 4+4 hops; all-pairs scans make 17.3 M calls
    flows = [{"src": 50 * r + c, "dst": 50 * (r + 4) + c + 4, "kind": "voip"}
             for r in (0, 9, 18, 27) for c in (0, 10, 20, 30, 40)]
    scenario = scenario_from_dict({
        "topology": {"kind": "grid", "n": 2000, "spacing": 200.0},
        "traffic": {"flows": flows}, "sim": {"horizon_s": 1.0}})
    topo, *_ = plan(scenario, "ccmca")
    assert (topo.n_nodes, topo.n_links) == (2000, 40 * 49 + 50 * 39)
    assert distance_calls[0] < 1_000_000


def test_grid_distance_calls_only_for_links_and_band(distance_calls):
    # Only a link's own distance and a pair within a nanometre or so of the
    # range need _distance; the squared distance decides every other pair.
    # A 3x3-cell scan calling it for every candidate makes 2,392 calls for
    # the links and 35,371 for the interferer pairs.
    topo = build("grid", 400, 200.0)
    limit = 250.0 * (1.0 + topology._RANGE_TOL)
    points = [(n.x, n.y) for n in topo.nodes]
    band = sum(1 for a, b in itertools.combinations(points, 2)
               if abs(math.dist(a, b) - limit) <= 1e-6)
    assert topo.n_links == 760
    assert distance_calls[0] <= topo.n_links + band
    distance_calls[0] = 0
    imap = build_interference_map(topo)
    pairs = sum(len(s) - 1 for s in imap.interferers) // 2
    assert pairs == 12_238
    assert distance_calls[0] < pairs
