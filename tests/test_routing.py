import functools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meshplan import (AlgorithmParams, ContractError, TopologySpec,
                      acceptable_paths_for_profile, build_interference_map, cost_table,
                      fixed_point_route, select_routes)

from conftest import GENERATOR_CASES_8, cbr, profile, scenario_of

RING4 = TopologySpec("ring", 4, 250.0)


def one_link_cost(load, capacity, threshold_fraction):
    alg = AlgorithmParams(threshold_fraction=threshold_fraction)
    return cost_table((load,), (capacity,), alg)[0]


def test_link_cost_branches():
    assert one_link_cost(0.0, 100.0, 0.9) == 1.0
    assert one_link_cost(40.0, 100.0, 0.9) == pytest.approx(1.4)
    assert math.isinf(one_link_cost(95.0, 100.0, 0.9))
    # boundary load exactly at the threshold stays finite
    assert one_link_cost(90.0, 100.0, 0.9) == pytest.approx(1.9)


def test_link_cost_domain_errors():
    with pytest.raises(ValueError):
        one_link_cost(-1.0, 100.0, 0.9)
    with pytest.raises(ValueError):
        one_link_cost(1.0, 0.0, 0.9)


@given(st.floats(min_value=1e-9, max_value=0.9),
       st.floats(min_value=1e-9, max_value=0.9))
def test_link_cost_monotone_on_finite_branch(a, b):
    lo, hi = sorted((a, b))
    c_lo, c_hi = one_link_cost(lo * 100, 100.0, 0.9), one_link_cost(hi * 100, 100.0, 0.9)
    assert c_lo <= c_hi
    if 1.0 + lo < 1.0 + hi:  # distinguishable at float granularity
        assert c_lo < c_hi


_loads = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False)
_capacities = st.floats(min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_loads, _capacities), max_size=20),
       st.sampled_from([0.1, 0.5, 0.9, 1.0]), st.data())
def test_cost_table_is_the_piecewise_rule(links, threshold, data):
    # loads exactly at the threshold stay finite
    links = [(data.draw(st.sampled_from([d, threshold * c])), c) for d, c in links]
    load, capacity = tuple(d for d, _ in links), tuple(c for _, c in links)
    alg = AlgorithmParams(threshold_fraction=threshold)
    costs = cost_table(load, capacity, alg)
    assert len(costs) == len(links)
    for (d, c), cost in zip(links, costs):
        x = d / c
        assert cost == (math.inf if x > threshold else 1.0 + x if x > 0 else 1.0)
    with pytest.raises(ContractError):
        cost_table(load + (0.0,), capacity, alg)


def left_to_right(values, path):
    return functools.reduce(lambda c, link: c + values[link], path, 0.0)


def test_route_cost_adds_left_to_right():
    # 1e16 + 1 rounds back to 1e16, twice, so path (0, 1, 2) ties with (3,) at
    # 1e16 and, first in order, is chosen; compensated summation, which sum()
    # uses on floats from Python 3.12, would price it 1.0000000000000002e16
    # and choose (3,)
    table = select_routes({(0, 3): ((0, 1, 2), (3,))}, (1e16, 1.0, 1.0, 1e16))
    assert table.routes[(0, 3)].links == (0, 1, 2)


def test_select_routes_all_unit_costs(ring4):
    prof = profile(cbr(0, 2, 10.0))
    paths = acceptable_paths_for_profile(ring4, prof, AlgorithmParams())
    table = select_routes(paths, (1.0,) * 4)
    assert table.routes[(0, 2)].links == (0, 2)  # lexicographic tie-break


def test_select_routes_avoids_infinite_side(ring4):
    prof = profile(cbr(0, 2, 10.0))
    paths = acceptable_paths_for_profile(ring4, prof, AlgorithmParams())
    table = select_routes(paths, (math.inf, 1.0, 1.0, 1.0))
    assert table.routes[(0, 2)].links == (1, 3)
    assert not table.blocked


def test_select_routes_blocked_when_everything_infinite(ring4):
    prof = profile(cbr(0, 2, 10.0))
    paths = acceptable_paths_for_profile(ring4, prof, AlgorithmParams())
    table = select_routes(paths, (math.inf, math.inf, 1.0, 1.0))
    assert table.blocked == frozenset({(0, 2)})
    assert (0, 2) not in table.routes


def test_select_routes_matches_bruteforce(grid9):
    rng = random.Random(11)
    pairs = [(0, 8), (2, 6), (1, 7), (3, 5)]
    prof = profile(*[cbr(s, d, 1.0) for s, d in pairs])
    paths = acceptable_paths_for_profile(grid9, prof, AlgorithmParams(slack=1, cap=1024))
    for trial in range(25):
        values = tuple(math.inf if rng.random() < 0.1 else rng.uniform(1.0, 2.0)
                       for _ in range(grid9.n_links))
        table = select_routes(paths, values)
        for pair in pairs:
            priced = [(left_to_right(values, p), p) for p in paths[pair]]
            finite = [(c, p) for c, p in priced if not math.isinf(c)]
            if not finite:
                assert pair in table.blocked
            else:
                assert table.routes[pair].links == min(finite)[1]


def fixed_point(spec, prof, channel_capacity_bps, **alg):
    """fixed_point_route over the scenario of these parts."""
    scenario = scenario_of(spec, prof, channel_capacity_bps, **alg)
    topology = scenario.build_topology()
    return fixed_point_route(topology, build_interference_map(topology), scenario)


def make_fp(prof, thr):
    # n_l = 4 on the ring, so capacity 400/4 = 100 per link
    return fixed_point(RING4, prof, 400.0, n_channels=1, threshold_fraction=thr)


def test_fixed_point_single_path_converges_first_iteration():
    prof = profile(cbr(0, 1, 10.0))
    table, est = fixed_point(TopologySpec("chain", 2, 100.0), prof, 100.0, n_channels=1)
    assert table.converged and table.iterations == 1
    assert table.routes[(0, 1)].links == (0,)
    assert est.load == (10.0,)


def test_fixed_point_anchored_instance_converges():
    # Hand trace: anchors on links 0 and 3, the mover ties toward the light
    # side at iteration 1 and keeps it; loads repeat at iteration 2.
    prof = profile(cbr(0, 1, 5.0), cbr(2, 3, 40.0), cbr(1, 3, 10.0))
    table, est = make_fp(prof, thr=0.6)
    assert table.converged and table.iterations == 2
    assert table.routes[(0, 1)].links == (0,)
    assert table.routes[(2, 3)].links == (3,)
    assert table.routes[(1, 3)].links == (0, 1)
    assert est.load == (15.0, 10.0, 0.0, 40.0)
    assert est.capacity == (100.0,) * 4


def test_fixed_point_threshold_shift_then_cycle():
    # Hand trace: both flows start on the shared cheap side, the threshold
    # kicks both off at iteration 2, and iteration 3 recreates iteration 1's
    # table, which is detected as a cycle and flagged.
    prof = profile(cbr(0, 2, 50.0), cbr(1, 3, 20.0))
    table, est = make_fp(prof, thr=0.6)
    assert not table.converged
    assert table.iterations == 3
    assert table.routes[(0, 2)].links == (0, 2)
    assert table.routes[(1, 3)].links == (0, 1)
    # selection snapshot: the loads induced by iteration 2's routes
    assert est.load == (0.0, 50.0, 20.0, 70.0)
    # no selected route crosses a link loaded above the threshold
    for route in table.routes.values():
        for l in route.links:
            assert est.load[l] / est.capacity[l] <= 0.6


def test_fixed_point_exclusion_and_determinism():
    rng = random.Random(5)
    for case in GENERATOR_CASES_8:
        spec = TopologySpec(*case)
        pairs = [(s, d) for s in range(spec.n_nodes) for d in range(spec.n_nodes)
                 if s != d]
        chosen = rng.sample(pairs, k=3)
        try:
            prof = profile(*[cbr(s, d, rng.uniform(10.0, 80.0)) for s, d in chosen])
        except ValueError:
            continue
        t1, e1 = fixed_point(spec, prof, 200.0, n_channels=2, threshold_fraction=0.8)
        t2, e2 = fixed_point(spec, prof, 200.0, n_channels=2, threshold_fraction=0.8)
        assert t1 == t2 and e1 == e2
        for route in t1.routes.values():
            for l in route.links:
                assert e1.load[l] / e1.capacity[l] <= 0.8


def test_cost_table_matches_scalar(ring4):
    table = cost_table((0.0, 45.0, 95.0, 90.0), (100.0,) * 4,
                       AlgorithmParams(threshold_fraction=0.9))
    assert table[0] == 1.0
    assert table[1] == pytest.approx(1.45)
    assert math.isinf(table[2])
    assert table[3] == pytest.approx(1.9)
