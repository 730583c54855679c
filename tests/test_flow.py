import math
from fractions import Fraction

import pytest

from ftkcenter.flow import INF, FlowNetwork, capacitated_assignment, max_flow, transport
from ftkcenter.instance import ContractViolation, InstanceError

from helpers import cut_capacity


def test_diamond_max_flow():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 1)
    net.add_arc("s", "b", 1)
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    net.add_arc("a", "b", 1)
    res = max_flow(net)
    assert res.value == 2
    assert res.flow[("s", "a")] == 1 and res.flow[("s", "b")] == 1


def test_bottleneck_min_cut_is_minimal_source_side():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 5)
    net.add_arc("a", "b", 1)
    net.add_arc("b", "t", 5)
    res = max_flow(net)
    assert res.value == 1
    assert res.min_cut == frozenset({"s", "a"})
    assert cut_capacity(net, res.min_cut) == 1


def test_infinite_path_gives_infinite_value():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", INF)
    net.add_arc("a", "t", INF)
    assert max_flow(net).value is INF


def test_rational_capacities_stay_exact():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", Fraction(1, 3))
    net.add_arc("s", "b", Fraction(2, 3))
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    assert max_flow(net).value == 1


def test_parallel_arcs_merge_and_antiparallel_work():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 1)
    net.add_arc("s", "a", 2)  # merges to 3
    net.add_arc("a", "b", 2)
    net.add_arc("b", "a", 5)  # antiparallel, must not corrupt accounting
    net.add_arc("b", "t", 2)
    res = max_flow(net)
    assert res.value == 2
    for (u, v), f in res.flow.items():
        assert 0 <= f <= net.cap[u][v]


def test_add_arc_validations():
    net = FlowNetwork("s", "t")
    with pytest.raises(InstanceError):
        net.add_arc("a", "a", 1)
    with pytest.raises(InstanceError):
        net.add_arc("a", "s", 1)
    with pytest.raises(InstanceError):
        net.add_arc("t", "a", 1)
    with pytest.raises(InstanceError):
        net.add_arc("a", "b", -1)


def test_zero_flow_network():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 3)
    res = max_flow(net)  # no path to t at all
    assert res.value == 0
    assert res.min_cut == frozenset({"s", "a"})


def test_capacitated_assignment_feasible():
    allowed = {0: [10, 11], 1: [10], 2: [11]}
    phi, witness = capacitated_assignment([0, 1, 2], [10, 11], allowed, {10: 1, 11: 2})
    assert witness is None
    assert phi[1] == 10 and phi[2] == 11
    assert sorted(phi) == [0, 1, 2]
    load = {}
    for u, c in phi.items():
        assert c in allowed[u]
        load[c] = load.get(c, 0) + 1
    assert load[10] <= 1 and load[11] <= 2


def test_capacitated_assignment_hall_witness():
    # three clients all needing the same unit-capacity center
    allowed = {0: [9], 1: [9], 2: [9]}
    phi, witness = capacitated_assignment([0, 1, 2], [9], allowed, {9: 1})
    assert phi is None
    assert set(witness.clients) == {0, 1, 2}
    assert witness.capacity == 1 and witness.demand == 3
    assert witness.capacity < witness.demand


def test_capacitated_assignment_empty_clients():
    phi, witness = capacitated_assignment([], [5], {}, {5: 1})
    assert phi == {} and witness is None


def test_capacitated_assignment_rejects_center_outside_centers():
    with pytest.raises(InstanceError):
        capacitated_assignment([0, 1], [10], {0: [10], 1: [11]}, {10: 2, 11: 2})


def test_transport_fractional_demand_with_dead_end_center():
    # center 12 has no supply entry: client 1 gets only the 1/3 of center 11
    demand = {0: Fraction(1, 2), 1: Fraction(2, 3)}
    allowed = {0: [10], 1: [11, 12]}
    supply = {10: 1, 11: Fraction(1, 3)}
    value, flow, blocked = transport(demand, allowed, supply)
    assert value == Fraction(5, 6)
    assert flow == {(0, 10): Fraction(1, 2), (1, 11): Fraction(1, 3)}
    assert blocked == frozenset({1})


def test_transport_infinite_demand_is_always_blocked():
    allowed = {0: [10], 1: [10, 11], 2: [11]}
    supply = {10: 5, 11: 5}
    values = []
    for w in allowed:
        demand = {v: INF if v == w else 1 for v in allowed}
        value, _, blocked = transport(demand, allowed, supply)
        assert w in blocked
        values.append(value)
    assert values == [7, 10, 7]


def test_transport_unbounded_supply_is_a_contract_violation():
    with pytest.raises(ContractViolation):
        transport({0: INF}, {0: [10]}, {10: INF})
