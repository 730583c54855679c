import ast
import math
import random
import re
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from ftkcenter import flow, lp, rounding, solvers
from ftkcenter.conservative import solve_conservative_general, solve_conservative_uniform
from ftkcenter.flow import (
    INF,
    FlowNetwork,
    TransportNetwork,
    capacitated_assignment,
    max_flow,
)
from ftkcenter.instance import ContractViolation, InstanceError, Radius
from ftkcenter.lp import general_network, separate_general, separate_uniform, uniform_network
from ftkcenter.oracle import random_point_instance, verify_ft
from ftkcenter.solvers import solve_ft_general, solve_ft_uniform

from helpers import (
    assert_first_violated_row,
    brute_separate_general,
    brute_separate_uniform,
    closed_out,
    cut_capacity,
    edmonds_karp_max_flow,
    flow_capacitated_assignment,
    per_cut_separate_general,
    per_cut_separate_uniform,
    random_separation_point,
    reference_short,
    transport,
    transport_variants,
)


def test_diamond_max_flow():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 1)
    net.add_arc("s", "b", 1)
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    net.add_arc("a", "b", 1)
    assert max_flow(net) == (2, frozenset({"s"}))


def test_bottleneck_min_cut_is_minimal_source_side():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 5)
    net.add_arc("a", "b", 1)
    net.add_arc("b", "t", 5)
    value, cut = max_flow(net)
    assert value == 1
    assert cut == frozenset({"s", "a"})
    assert cut_capacity(net, cut) == 1


def test_infinite_path_gives_infinite_value():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", INF)
    net.add_arc("a", "t", INF)
    assert max_flow(net) == (INF, None)


def test_rational_capacities_stay_exact():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", Fraction(1, 3))
    net.add_arc("s", "b", Fraction(2, 3))
    net.add_arc("a", "t", 1)
    net.add_arc("b", "t", 1)
    assert max_flow(net)[0] == 1


def test_parallel_arcs_merge_and_antiparallel_work():
    net = FlowNetwork("s", "t")
    net.add_arc("s", "a", 1)
    net.add_arc("s", "a", 2)  # merges to 3
    net.add_arc("a", "b", 2)
    net.add_arc("b", "a", 5)  # antiparallel, must not corrupt the residuals
    net.add_arc("b", "t", 2)
    assert net.cap["s"]["a"] == 3
    value, cut = max_flow(net)
    assert value == 2
    assert cut == frozenset({"s", "a"})
    assert cut_capacity(net, cut) == 2


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
    # no path to t at all
    assert max_flow(net) == (0, frozenset({"s", "a"}))


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


def test_capacitated_assignment_matches_the_max_flow_reference(monkeypatch):
    """Augmenting paths against one max flow on the transport network
    (`helpers.flow_capacitated_assignment`), on seeded random bipartite
    inputs with 0-9 clients, 1-6 centers, capacities 0-3 and random allowed
    sets: the same feasibility, a valid assignment when feasible, and the
    same Hall witness when not.  No flow network is built or solved."""

    def no_flow(*args, **kwargs):
        raise AssertionError("capacitated_assignment ran the flow engine")

    for name in ("FlowNetwork", "max_flow", "TransportNetwork"):
        monkeypatch.setattr(flow, name, no_flow)
    rng = random.Random(1608)
    feasible = infeasible = partial = 0
    for _ in range(3000):
        clients = rng.sample(range(30), rng.randint(0, 9))
        centers = rng.sample(range(30, 40), rng.randint(1, 6))
        capacities = {v: rng.randint(0, 3) for v in centers}
        allowed = {c: rng.sample(centers, rng.randint(0, len(centers))) for c in clients}
        phi, witness = capacitated_assignment(clients, centers, allowed, capacities)
        ref_phi, ref_witness = flow_capacitated_assignment(clients, centers, allowed, capacities)
        assert (phi is None) == (ref_phi is None)
        if phi is None:
            assert witness == ref_witness
            infeasible += 1
            partial += len(witness.clients) < len(clients)
            continue
        assert witness is None and sorted(phi) == sorted(clients)
        load = dict.fromkeys(centers, 0)
        for c, v in phi.items():
            assert v in allowed[c]
            load[v] += 1
        assert all(load[v] <= capacities[v] for v in centers)
        feasible += 1
    assert feasible > 500 and infeasible > 500 and partial > 200, (feasible, infeasible, partial)


def test_transport_fractional_demand_with_dead_end_center(monkeypatch):
    """Center 12 has supply 0, a dead end: client 1 gets only the 1/3 of
    center 11, so the plain network routes 5/6, and the centers of the cut
    are client 1's allowed list, 12 included.  A bound of 5/6 is not short
    of it; 5/6 + 10**-6 and 6/7, whose denominator divides no amount, are,
    and return that cut.  Each call solves its one variant once."""
    calls = count_augments(monkeypatch)
    network = TransportNetwork([[10], [11, 12]], [10, 11, 12])
    demand, supply = [Fraction(1, 2), Fraction(2, 3)], [1, Fraction(1, 3), 0]
    assert network.short(demand, supply, Fraction(5, 6), closed=[()]) is None
    for bound in (Fraction(5, 6) + EPS, Fraction(6, 7)):
        assert network.short(demand, supply, bound, closed=[()]) == (
            0, frozenset({1}), frozenset({11, 12})
        )
    assert calls[0] == 3


def test_transport_infinite_demand_is_always_blocked(monkeypatch):
    """A forced client's demand is infinite, so it is on the source side
    of every min cut.  The forced values of clients with allowed lists
    [10], [10, 11] and [11], each center of supply 5, are 7, 10 and 7.  In
    every rotation of the three clients the first one is short of a bound
    just above its value and is in its own cut; at a bound equal to its
    value it is not short, and the first short client is the next one
    whose value is below it, after one augment per class up to it."""
    calls = count_augments(monkeypatch)
    lists, values = [[10], [10, 11], [11]], [7, 10, 7]
    for turn in range(3):
        allowed = lists[turn:] + lists[:turn]
        value = values[turn]
        network = TransportNetwork(allowed, [10, 11])
        calls[0] = 0
        w, blocked, _ = network.short([1] * 3, [5, 5], value + EPS, forced=True)
        assert w == 0 and 0 in blocked and calls[0] == 2
        later = [i for i in (1, 2) if values[(turn + i) % 3] < value]
        calls[0] = 0
        hit = network.short([1] * 3, [5, 5], value, forced=True)
        assert (hit and hit[0]) == (later[0] if later else None)
        assert calls[0] == 1 + (later[0] + 1 if later else 3)
        if hit:
            assert hit[0] in hit[1]


EPS = Fraction(1, 10**6)


def bounds_for(values):
    """Bounds around variant values: each value, which a variant of that
    value does not fall below, the value plus 10**-6, and the next multiple
    of 1/97 above it, a denominator that divides no amount drawn here and
    so enters the scale."""
    bounds = {0, Fraction(1, 97)}
    for value in values:
        bounds |= {value, value + EPS, Fraction(math.floor(value * 97) + 1, 97)}
    return sorted(bounds)


def variant_values(demand, allowed, supply, forced, closed):
    """The `transport` value of each variant, in order."""
    return [value for value, _, _ in transport_variants(demand, allowed, supply, forced, closed)]


def augments_of(hit, allowed, forced, closed):
    """The `_augment` calls of a `short` call that returns `hit`: forced,
    the base flow and one per class up to the returned client's, the
    classes in order of first appearance; closed, one per variant up to
    the returned one; None, every variant."""
    if forced:
        lists = list(dict.fromkeys(map(tuple, allowed)))
        return 1 + (lists.index(tuple(allowed[hit[0]])) + 1 if hit else len(lists))
    return hit[0] + 1 if hit else len(closed)


def assert_short_matches(network, calls, demand, allowed, supply, forced, closed):
    """At every bound of `bounds_for`, `network.short` returns what
    `reference_short` returns, a forced client is in its own cut, and the
    call runs the `_augment` calls of `augments_of`.  `supply` maps the
    network's centers, in order, to their amounts.  Returns the variant
    values."""
    values = variant_values(demand, allowed, supply, forced, closed)
    for bound in bounds_for(values):
        expected = reference_short(demand, allowed, supply, bound, forced, closed)
        calls[0] = 0  # `transport` runs `_augment` too
        hit = network.short(demand, list(supply.values()), bound, forced, closed)
        assert hit == expected
        assert calls[0] == augments_of(hit, allowed, forced, closed), (hit, bound)
        if forced and hit is not None:
            assert hit[0] in hit[1]
    return values


def test_network_cuts_match_transport_per_variant(monkeypatch):
    """The first forced variant below a bound is the first client whose
    `transport` with its demand made infinite is below it, and the first
    closed variant the first center set whose `transport` without those
    centers' supply is: index, clients and centers of the cut, at bounds
    at and just above every variant's value, on random transport networks
    with Fraction and zero demands and supplies, and centers no client may
    use."""
    calls = count_augments(monkeypatch)
    rng = random.Random(1970)
    forced_total = closed_total = short = 0
    for _ in range(200):
        m = rng.randint(0, 6)

        def amount():
            roll = rng.random()
            if roll < 0.2:
                return 0
            if roll < 0.6:
                return Fraction(rng.randint(0, 9), rng.randint(1, 6))
            return rng.randint(0, 4)

        demand = [amount() for _ in range(m)]
        supply = {v: amount() for v in range(20, 20 + rng.randint(0, 5)) if rng.random() < 0.85}
        centers = list(supply)
        allowed = [rng.sample(centers, rng.randint(0, len(centers))) for _ in range(m)]
        forced = rng.random() < 0.5
        closed = () if forced else [
            tuple(rng.sample(centers, rng.randint(0, len(centers))))
            for _ in range(rng.randint(0, 3))
        ]
        network = TransportNetwork(allowed, centers)
        values = assert_short_matches(network, calls, demand, allowed, supply, forced, closed)
        forced_total += m if forced else 0
        closed_total += len(closed)
        short += sum(value < sum(demand) for value in values) if closed else 0
    assert forced_total > 100 and closed_total > 100 and short > 20, (forced_total, closed_total, short)


def test_closed_chains_match_transport_per_variant(monkeypatch):
    """Each closed variant starts from the maximum flow of the one before,
    so a long chain reopens, cancels and re-augments many times; the first
    variant below a bound must still be the first whose `transport`
    without its closed centers' supply is, index, clients and centers of
    the cut, and the chain runs one augment per variant up to it.  Chains
    hold all C(m, a) center sets in shuffled order, the same set twice in a
    row, overlapping and empty sets, and a center without any arc; demands
    and supplies are ints, Fractions and zeros."""
    calls = count_augments(monkeypatch)
    rng = random.Random(1982)
    variants = short = moved = 0
    for _ in range(150):
        m = rng.randint(1, 7)
        centers = list(range(20, 20 + rng.randint(1, 6)))
        idle = centers[-1] + 1  # a center no client may use

        def amount():
            roll = rng.random()
            if roll < 0.15:
                return 0
            if roll < 0.5:
                return Fraction(rng.randint(1, 9), rng.randint(1, 4))
            return rng.randint(1, 3)

        demand = [amount() for _ in range(m)]
        supply = {v: amount() for v in (*centers, idle)}
        allowed = [rng.sample(centers, rng.randint(0, len(centers))) for _ in range(m)]
        closed = list(combinations(centers, rng.randint(0, min(3, len(centers)))))
        rng.shuffle(closed)
        for _ in range(rng.randint(2, 6)):
            i = rng.randrange(len(closed) + 1)
            extra = rng.choice([
                closed[i - 1] if i else (),  # the same set twice in a row
                (),
                (idle, *rng.sample(centers, 1)),
                tuple(rng.sample(centers, rng.randint(1, len(centers)))),
            ])
            closed.insert(i, extra)
        network = TransportNetwork(allowed, list(supply))
        values = assert_short_matches(network, calls, demand, allowed, supply, False, closed)
        full = transport(dict(enumerate(demand)), dict(enumerate(allowed)), supply)[0]
        short += sum(value < sum(demand) for value in values)
        moved += sum(value < full for value in values)
        variants += len(closed)
    assert variants > 1000 and short > 500 and moved > 400, (variants, short, moved)


def test_network_cuts_rejects_infinite_and_negative_amounts():
    """Bad input raises at the call, before any variant is solved.  Only a
    forced variant makes a demand infinite; an infinite amount in the input
    is a caller bug."""
    one, two = TransportNetwork([[10]], [10]), TransportNetwork([[10], [10]], [10])
    with pytest.raises(ContractViolation, match="infinite supply"):
        one.short([1], [INF], 1, forced=True)
    with pytest.raises(ContractViolation, match="infinite supply"):
        one.short([1], [INF], 1)
    with pytest.raises(ContractViolation, match="infinite demand"):
        one.short([INF], [1], 1, closed=[()])
    with pytest.raises(ContractViolation, match="infinite demand"):
        two.short([1, INF], [1], 2, forced=True)
    with pytest.raises(InstanceError, match="negative capacity"):
        one.short([1], [-1], 1, closed=[()])
    with pytest.raises(InstanceError, match="negative demand"):
        two.short([1, -1], [1], 0, forced=True)
    with pytest.raises(InstanceError, match="negative demand"):
        one.short([Fraction(-1, 2)], [1], 0, closed=[()])


def test_a_reused_network_matches_a_fresh_build(monkeypatch):
    """One `TransportNetwork` solved for a sequence of supplies returns,
    at every bound, forced or closed, what a fresh network and
    `reference_short` return.  The sequence changes denominators, zeroes
    supplies and repeats an earlier one, which must give the same answers
    again: `short` never changes the network's residual template."""
    calls = count_augments(monkeypatch)
    rng = random.Random(2025)
    calls_made = short = zeroed = 0
    for _ in range(60):
        m = rng.randint(1, 6)
        centers = list(range(20, 20 + rng.randint(1, 5)))
        allowed = [rng.sample(centers, rng.randint(0, len(centers))) for _ in range(m)]
        network = TransportNetwork(allowed, centers)
        template = network.template[:]
        demand = [rng.randint(0, 2) for _ in range(m)]
        forced = rng.random() < 0.5
        closed = () if forced else [
            tuple(rng.sample(centers, rng.randint(0, min(2, len(centers))))) for _ in range(3)
        ]
        supplies = []
        for _ in range(4):
            den = rng.randint(1, 7)
            supplies.append([
                Fraction(rng.randint(0, 9), den) if rng.random() < 0.6 else 0 for _ in centers
            ])
        supplies.append(supplies[0])
        for supply in supplies:
            supplied = dict(zip(centers, supply))
            values = assert_short_matches(network, calls, demand, allowed, supplied, forced, closed)
            for bound in bounds_for(values):
                fresh = TransportNetwork(allowed, centers).short(demand, supply, bound, forced, closed)
                assert network.short(demand, supply, bound, forced, closed) == fresh
            assert network.template == template
            calls_made += 1
            short += any(value < sum(demand) for value in values)
            zeroed += 0 in supply
    assert calls_made == 300 and short > 50 and zeroed > 50, (short, zeroed)


def count_augments(monkeypatch):
    """Rebind `flow._augment`, the Dinic loop every variant runs, to a
    wrapper that counts its calls in the returned one-item list."""
    calls = [0]
    augment = flow._augment

    def counted(*args):
        calls[0] += 1
        return augment(*args)

    monkeypatch.setattr(flow, "_augment", counted)
    return calls


def test_transport_network_rejects_names_it_was_not_built_with(monkeypatch):
    """An allowed center that is not one of `centers`, and a repeated
    center, are caller bugs, a `ContractViolation` raised by the build.  So
    are, at the call and before any variant is solved, a demand or supply
    sequence whose length is not the number of clients or centers, which
    `zip` would otherwise truncate, a closed id that is not one of
    `centers`, an infinite demand, and a call that asks for forced and
    closed variants at once."""
    with pytest.raises(ContractViolation, match="allowed center 11 of client 1"):
        TransportNetwork([[10], [10, 11]], [10])
    with pytest.raises(ContractViolation, match="repeated center"):
        TransportNetwork([[10]], [10, 10])
    network = TransportNetwork([[10], [10]], [10])
    calls = count_augments(monkeypatch)
    with pytest.raises(ContractViolation, match="3 demands and 1 supplies"):
        network.short([1, 1, 1], [1], 3)
    with pytest.raises(ContractViolation, match="1 demands and 1 supplies"):
        network.short([1], [1], 1, closed=[()])
    with pytest.raises(ContractViolation, match="2 demands and 2 supplies"):
        network.short([1, 1], [1, 1], 2, forced=True)
    with pytest.raises(ContractViolation, match="2 demands and 0 supplies"):
        network.short([1, 1], [], 2, closed=[()])
    with pytest.raises(ContractViolation, match="closed center 12"):
        network.short([1, 1], [1], 2, closed=[(10,), (12,)])
    with pytest.raises(ContractViolation, match="closed center 12"):
        network.short([1, 1], [1], 2, forced=True, closed=[(10, 12)])
    with pytest.raises(ContractViolation, match="infinite demand"):
        network.short([1, INF], [1], 2, forced=True)
    for closed in ([()], [(10,)], [(), (10,)]):
        with pytest.raises(ContractViolation, match="forced and closed variants"):
            network.short([1, 1], [1], 2, forced=True, closed=closed)
    assert calls[0] == 0
    assert network.short([1, 1], [1], 2, closed=[()]) == (0, frozenset({0, 1}), frozenset({10}))
    assert network.short([1, 1], [1], 1, closed=[()]) is None


def test_network_cuts_solves_each_variant_on_demand(monkeypatch):
    """A call solves the variants in order and none after the first short
    one: a forced call runs the base flow and one augment per class up to
    the returned client's, a closed call one augment per variant up to the
    returned one, and a call with no short variant runs every variant.
    The forced values are 7, 6, 4 and 4, and the closed ones 3, 2 and 1, so
    each variant is the first short one at some bound, except client 3, the
    twin of client 2, whose class is solved at client 2."""
    calls = count_augments(monkeypatch)
    allowed = [[10], [11], [12], [12]]
    supply = {10: 4, 11: 3, 12: 2}
    network = TransportNetwork(allowed, list(supply))
    demand = [1] * 4
    closed = [(10,), (12,), (10, 12)]
    seen = set()
    for forced, variants in ((True, ()), (False, closed)):
        for bound in bounds_for(variant_values(demand, allowed, supply, forced, variants)):
            expected = reference_short(demand, allowed, supply, bound, forced, variants)
            calls[0] = 0  # `transport` runs `_augment` too
            hit = network.short(demand, list(supply.values()), bound, forced, variants)
            assert hit == expected
            assert calls[0] == augments_of(hit, allowed, forced, variants)
            seen.add((forced, hit and hit[0]))
    assert seen == {(True, None), (True, 0), (True, 1), (True, 2),
                    (False, None), (False, 0), (False, 1), (False, 2)}, seen


def test_twin_classes_match_the_per_client_reference(monkeypatch):
    """Clients with equal allowed lists share one class node.  On random
    networks whose lists are drawn from a few shared lists, so most clients
    have a twin, the first forced and the first closed variant below every
    bound are the per-client `reference_short`, index, clients and centers
    of the cut, with zero, int and Fraction demands and supplies; a forced
    client of zero demand is in its own cut, its zero-demand twins are not.
    A forced call runs the base flow and one augment per class up to the
    returned client's class, never a later member of a class already
    solved; a closed call one per set up to the returned one."""
    calls = count_augments(monkeypatch)
    rng = random.Random(1721)
    twins = short = zero_twins = 0
    for _ in range(200):
        centers = list(range(20, 20 + rng.randint(1, 5)))
        shared = [
            rng.sample(centers, rng.randint(0, len(centers))) for _ in range(rng.randint(1, 3))
        ]
        m = rng.randint(1, 8)
        allowed = [list(rng.choice(shared)) for _ in range(m)]

        def amount():
            roll = rng.random()
            if roll < 0.25:
                return 0
            if roll < 0.6:
                return Fraction(rng.randint(1, 9), rng.randint(1, 5))
            return rng.randint(1, 3)

        demand = [amount() for _ in range(m)]
        supply = {v: amount() for v in centers}
        closed = [
            tuple(rng.sample(centers, rng.randint(0, min(2, len(centers)))))
            for _ in range(rng.randint(1, 4))
        ]
        network = TransportNetwork(allowed, centers)
        classes = len({tuple(near) for near in allowed})
        assert_short_matches(network, calls, demand, allowed, supply, True, ())
        values = assert_short_matches(network, calls, demand, allowed, supply, False, closed)
        short += sum(value < sum(demand) for value in values)
        twins += m - classes
        zero_twins += sum(
            1
            for w in range(m)
            if demand[w] == 0
            and any(demand[x] == 0 and allowed[x] == allowed[w] for x in range(m) if x != w)
        )
    assert twins > 300 and short > 100 and zero_twins > 50, (twins, short, zero_twins)


def test_separate_uniform_stops_at_its_witness(monkeypatch):
    """A violated pass whose witness is forced vertex w runs the base flow
    and one variant per twin class of vertices 0..w, vertices whose closed
    neighborhoods hold the same positive-capacity vertices, and returns the
    row of the per-cut reference; a clean pass runs 1 + the number of
    classes."""
    calls = count_augments(monkeypatch)
    rng = random.Random(2016)
    seen = {"clean": 0, "stopped before the last vertex": 0, "with twins": 0}
    for _ in range(150):
        g, y, alpha = random_separation_point(rng)
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.75 else 0 for _ in range(g.n)]
        network = uniform_network(g, caps)
        lists = [tuple(u for u in g.closed(v) if caps[u] > 0) for v in range(g.n)]
        supply = {u: y[u] * L for u in network.centers}
        hit = reference_short([1] * g.n, lists, supply, g.n + alpha * L, True, ())
        w = hit and hit[0]
        ref = per_cut_separate_uniform(y, g, caps, alpha)
        calls[0] = 0
        row = separate_uniform(y, network, caps, alpha)
        assert_first_violated_row(row, y, brute_separate_uniform(y, g, caps, alpha), alpha * L, ref)
        assert (row is None) == (w is None)
        if w is None:
            assert calls[0] == 1 + len(set(lists))
            seen["clean"] += 1
        else:
            assert calls[0] == 1 + len(set(lists[:w + 1]))
            seen["stopped before the last vertex"] += w < g.n - 1
        seen["with twins"] += len(set(lists)) < g.n
    assert min(seen.values()) >= 20, seen


def test_separate_general_stops_at_its_witness(monkeypatch):
    """A violated pass whose witness is the i-th failure scenario runs the
    chain up to it, i + 1 augments, and returns the row of the per-cut
    reference; a clean pass runs one per scenario."""
    calls = count_augments(monkeypatch)
    rng = random.Random(2017)
    seen = {"clean": 0, "stopped before the last scenario": 0}
    for _ in range(300):
        g, y, alpha = random_separation_point(rng)
        n = g.n
        gp = tuple(
            sum(1 << w for w in rng.sample(range(n), rng.randint(0, n)) if w != u)
            for u in range(n)
        )
        backups = frozenset(rng.sample(range(n), rng.randint(0, min(n, 4))))
        caps = [rng.randint(0, 3) for _ in range(n)]
        scenarios = list(combinations(sorted(backups), alpha))
        network = general_network(gp)
        allowed = [sorted(closed_out(gp, [v])) for v in range(n)]
        supply = {u: y[u] * caps[u] for u in range(n)}
        hit = reference_short([1] * n, allowed, supply, n, False, scenarios)
        i = hit and hit[0]
        ref = per_cut_separate_general(y, g, gp, backups, alpha, caps)
        calls[0] = 0
        row = separate_general(y, network, backups, alpha, caps)
        brute = brute_separate_general(y, g, gp, backups, alpha, caps)
        assert_first_violated_row(row, y, brute, 0, ref)
        assert (row is None) == (i is None)
        if i is None:
            assert calls[0] == len(scenarios)
            seen["clean"] += bool(scenarios)
        else:
            assert calls[0] == i + 1
            seen["stopped before the last scenario"] += i < len(scenarios) - 1
    assert min(seen.values()) >= 20, seen


def test_verify_ft_stops_at_the_scenario_it_reports(monkeypatch):
    """A rejected solution runs the closed chain up to the failure set its
    report names; an accepted one runs every scenario."""
    calls = count_augments(monkeypatch)
    rng = random.Random(2018)
    seen = {"accepted": 0, "stopped before the last scenario": 0}
    for _ in range(200):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(n, 5))
        alpha = rng.randint(0, k - 1)
        inst = random_point_instance(rng, n, k, alpha, caps_mode="general", span=6)
        centers = rng.sample(range(n), k)
        radius = Radius(rng.randint(1, 3), rng.choice((0, *inst.thresholds_sq())))
        scenarios = list(combinations(sorted(centers), alpha))
        calls[0] = 0
        rep = verify_ft(inst, centers, radius)
        if rep.ok:
            assert calls[0] == len(scenarios)
            seen["accepted"] += 1
        else:
            F = ast.literal_eval(rep.detail[len("failures "):rep.detail.index(":")])
            i = scenarios.index(tuple(F))
            assert calls[0] == i + 1
            seen["stopped before the last scenario"] += i < len(scenarios) - 1
    assert min(seen.values()) >= 20, seen


def watch_augments(monkeypatch):
    """Rebind `flow._augment` to a wrapper that records, for each call, the
    residuals of the source arcs it is entered with, the value it adds and
    the nodes its last BFS reached."""
    entries = []
    augment = flow._augment

    def watched(head, res, adj, s, t):
        sources = [res[a] for a in adj[s]]
        value, reached = augment(head, res, adj, s, t)
        entries.append((sources, value, reached))
        return value, reached

    monkeypatch.setattr(flow, "_augment", watched)
    return entries


def test_seating_routes_one_step_demand_before_dinic(monkeypatch):
    """Two client groups, each sharing two centers that hold the group's
    whole demand: the seating pass routes every variant's demand before
    Dinic runs, so every variant enters `_augment` with each finite source
    arc saturated and adds nothing, in one BFS.  Clients 0 and 1 share an
    allowed list, so they are one class node with demand 2, and the forced
    variants are one per class.  The base and every closed variant have all
    demand routed, so that BFS reaches only the source; a forced class's
    demand stays infinite, and its BFS stops at the full centers it fills
    and the classes seated there.  Every forced value is 6 and every
    closed one 4, so at those bounds no variant is short and each call runs
    them all; just above them the first variant is returned."""
    entries = watch_augments(monkeypatch)
    allowed = [[10, 11], [10, 11], [12, 13], [13, 12]]
    network = TransportNetwork(allowed, [10, 11, 12, 13])
    assert network.twin == [0, 0, 1, 2]
    closed = [(), (10,), (11,), (10, 12), (13,), (11, 12)]
    assert network.short([1] * 4, [2] * 4, 6, forced=True) is None
    assert network.short([1] * 4, [2] * 4, 4, closed=closed) is None
    assert len(entries) == 1 + 3 + len(closed)
    base, *rest = entries
    for sources, value, _ in entries:
        assert value == 0
        assert all(r == 0 for r in sources if r != INF)
    assert base[0] == [0] * 3 and base[2] == [0]
    reached_classes = [{0}, {1, 2}, {1, 2}]  # the classes that share class c's centers
    for c, (sources, _, reached) in enumerate(rest[:3]):
        assert [r == INF for r in sources] == [d == c for d in range(3)]
        assert {u - 2 for u in reached if 2 <= u < 5} == reached_classes[c]
    for sources, _, reached in rest[3:]:
        assert sources == [0] * 3 and reached == [0]
    assert network.short([1] * 4, [2] * 4, 6 + EPS, forced=True) == (
        0, frozenset({0, 1}), frozenset({10, 11})
    )
    assert network.short([1] * 4, [2] * 4, 4 + EPS, closed=closed) == (0, frozenset(), frozenset())


def test_dinic_finishes_what_seating_leaves(monkeypatch):
    """Client 0 is seated first at center 10, client 1's only center: the
    base flow needs the longer path source -> 1 -> 10 -> 0 -> 11 -> sink,
    which Dinic finds after the seating pass.  At every bound, forced and
    closed, `short` returns what `reference_short` returns."""
    entries = watch_augments(monkeypatch)
    allowed = [[10, 11], [10], [11, 12]]
    supply = {10: 1, 11: 1, 12: Fraction(1, 2)}
    demand = [1, 1, Fraction(1, 2)]
    closed = [(), (12,), (11,), (10, 12)]
    network = TransportNetwork(allowed, list(supply))
    assert network.short(demand, list(supply.values()), 0, forced=True) is None
    assert network.short(demand, list(supply.values()), 0, closed=closed) is None
    assert len(entries) == 1 + len(allowed) + len(closed)
    # Dinic moves client 0 on to seat client 1: 2 in the scaled units of 1/2
    assert entries[0][1] == 2
    for forced, variants in ((True, ()), (False, closed)):
        for bound in bounds_for(variant_values(demand, allowed, supply, forced, variants)):
            hit = network.short(demand, list(supply.values()), bound, forced, variants)
            assert hit == reference_short(demand, allowed, supply, bound, forced, variants)
    # the plain network routes 5/2, all demand, and its minimal min cut is empty
    assert network.short(demand, list(supply.values()), Fraction(5, 2), closed=[()]) is None
    assert network.short(demand, list(supply.values()), Fraction(5, 2) + EPS, closed=[()]) == (
        0, frozenset(), frozenset()
    )


def test_transport_network_layout_is_what_cuts_reads():
    """`TransportNetwork` has one node per twin class, the clients whose
    allowed lists are equal as tuples, in order of first appearance, and
    lists each arc at both of its ends; `short` reads two facts of its
    layout: `adj[0]` is the source arcs in class order, and a center's
    first arc is its sink arc, arc 2j for centers[j], followed only by the
    reverses of the class arcs into it.  `template` is INF exactly on the
    class -> center arcs, one per entry of the class's allowed list.
    Random networks have repeated entries in allowed lists, clients that
    copy an earlier client's list, lists with the same centers in another
    order, centers no client may use and clients with no center."""
    rng = random.Random(1608)
    twins = 0
    for _ in range(300):
        m = rng.randint(0, 7)
        centers = rng.sample(range(20, 26), rng.randint(0, 6))
        allowed = []
        for _ in range(m):
            if allowed and rng.random() < 0.3:
                near = rng.choice(allowed)
                allowed.append(rng.sample(near, len(near)) if rng.random() < 0.3 else list(near))
            else:
                allowed.append(
                    rng.choices(centers, k=rng.randint(0, len(centers) + 1)) if centers else []
                )
        network = TransportNetwork(allowed, centers)
        head, adj, template = network.head, network.adj, network.template
        lists = list(dict.fromkeys(map(tuple, allowed)))
        assert network.twin == [lists.index(tuple(near)) for near in allowed]
        twins += len(lists) < m
        first = len(lists) + 2
        center_id = {v: j for j, v in enumerate(centers, first)}
        assert len(adj) == first + len(centers) and len(template) == len(head)
        # arc e runs from head[e ^ 1] to head[e], and each node lists exactly
        # the arcs out of it, every arc once
        assert sorted(e for arcs in adj for e in arcs) == list(range(len(head)))
        assert all(head[e ^ 1] == u for u, arcs in enumerate(adj) for e in arcs)
        assert [head[e] for e in adj[0]] == list(range(2, first))
        class_arcs = {e for e in range(0, len(head), 2) if 2 <= head[e ^ 1] < first <= head[e]}
        assert [e for e, c in enumerate(template) if c is INF] == sorted(class_arcs)
        assert not any(template[e] for e in range(len(head)) if e not in class_arcs)
        for i, near in enumerate(lists, 2):
            heads = [head[e] for e in class_arcs if head[e ^ 1] == i]
            assert sorted(heads) == sorted(center_id[v] for v in near)
        for j, v in enumerate(centers):
            k = center_id[v]
            assert adj[k][0] == 2 * j and head[2 * j] == 1
            assert sorted(e ^ 1 for e in adj[k][1:]) == sorted(e for e in class_arcs if head[e] == k)
    assert twins > 100, twins


# -- the engine against the Edmonds-Karp reference ----------------------------


def random_network(rng):
    """Up to ten inner nodes with int, Fraction and infinite capacities,
    parallel and antiparallel arcs; the sink may be unreachable and some
    nodes are dead ends."""
    inner = list(range(rng.randint(0, 10)))
    net = FlowNetwork("s", "t")
    tails = ["s", *inner]
    heads = [*inner, "t"]
    for _ in range(rng.randint(0, 30)):
        u, v = rng.choice(tails), rng.choice(heads)
        if u == v:
            continue
        roll = rng.random()
        if roll < 0.15:
            cap = INF
        elif roll < 0.5:
            cap = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        else:
            cap = rng.randint(0, 6)
        net.add_arc(u, v, cap)
        if rng.random() < 0.2:
            net.add_arc(u, v, rng.randint(0, 3))  # parallel arc, merged
        if v != "t" and u != "s" and rng.random() < 0.3:
            net.add_arc(v, u, rng.randint(0, 4))  # antiparallel arc
    return net


def test_max_flow_agrees_with_edmonds_karp():
    """The same value and minimal min cut as the reference, whose per-arc
    flow (the one the reference assignment reads its seats from) is a
    feasible flow of that value with opposite flows cancelled."""
    rng = random.Random(2024)
    kinds = {"infinite": 0, "zero": 0, "positive": 0, "antiparallel flow": 0}
    for _ in range(300):
        net = random_network(rng)
        value, cut = max_flow(net)
        ref_value, ref_flow, ref_cut = edmonds_karp_max_flow(net)
        assert value == ref_value
        assert cut == ref_cut
        if value is INF:
            kinds["infinite"] += 1
            assert cut is None and ref_flow == {}
            continue
        kinds["zero" if value == 0 else "positive"] += 1
        net_out = dict.fromkeys(net.cap, 0)
        for (u, v), f in ref_flow.items():
            assert 0 < f <= net.cap[u][v]
            assert (v, u) not in ref_flow  # opposite flows cancel
            kinds["antiparallel flow"] += u in net.cap[v]
            net_out[u] += f
            net_out[v] -= f
        assert net_out.pop("s") == value == -net_out.pop("t")
        assert set(net_out.values()) <= {0}
        assert cut_capacity(net, cut) == value
    assert min(kinds.values()) > 0, kinds


def test_max_flow_on_a_long_path_needs_no_recursion():
    n = 5000
    assert n > sys.getrecursionlimit()
    net = FlowNetwork("s", "t")
    chain = ["s", *range(n - 2), "t"]
    for i, (u, v) in enumerate(zip(chain, chain[1:])):
        net.add_arc(u, v, 2 if i == n // 2 else 5)
    assert max_flow(net) == (2, frozenset(chain[: n // 2 + 1]))


# -- probe contract -----------------------------------------------------------


def count_calls(monkeypatch, calls, fn):
    """Rebind every package-module global bound to fn, as the benchmark
    probes do, to a wrapper that counts calls in calls[fn.__name__]."""

    def wrapper(*args, **kwargs):
        calls[fn.__name__] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "ftkcenter" or name.startswith("ftkcenter."):
            for key, val in list(vars(module).items()):
                if val is fn:
                    monkeypatch.setattr(module, key, wrapper)


@pytest.mark.parametrize("solve, variant, caps_mode", [
    (solve_ft_general, "ft", "general"),
    (solve_ft_uniform, "ft", "uniform"),
    (solve_conservative_uniform, "conservative", "uniform"),
    (solve_conservative_general, "conservative", "general"),
], ids=["ft-general", "ft-0l", "cons-0l", "cons-general"])
def test_the_package_runs_no_max_flow(solve, variant, caps_mode):
    """Solves of seeded random instances, each followed by `verify()` and
    every size-alpha scenario, call `flow.max_flow` nowhere, and each
    transfer check is a `condition_b_flow` call, one `TransportNetwork`
    build and one `short` call for the single variant with nothing closed.
    The checks of `tree_transfer` are `condition_b_flow` calls too: it makes
    no flow of its own.  Calls are counted by code object, so a call that bypasses a
    module global is counted too."""
    check = rounding.condition_b_flow.__code__
    tree = rounding.tree_transfer.__code__
    tree_codes = {tree, *(c for c in tree.co_consts if isinstance(c, type(tree)))}
    counts = {"max_flow": 0, "condition_b_flow": 0, "from tree_transfer": 0}
    build, short = flow.TransportNetwork.__init__.__code__, flow.TransportNetwork.short.__code__
    flows = {"build": 0, "short": 0, "tree_transfer": 0}  # network calls by caller
    shapes = []  # (forced, closed) of the short calls of the checks

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        caller = frame.f_back.f_code
        if code is flow.max_flow.__code__:
            counts["max_flow"] += 1
        elif code is check:
            counts["condition_b_flow"] += 1
            counts["from tree_transfer"] += caller in tree_codes
        elif code is build or code is short:
            if caller is check:
                flows["build" if code is build else "short"] += 1
                if code is short:
                    shapes.append((frame.f_locals["forced"], frame.f_locals["closed"]))
            elif caller in tree_codes:
                flows["tree_transfer"] += 1

    rng = random.Random(f"single flow path/{variant}/{caps_mode}")
    solved = 0
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i in range(4):
            inst = random_point_instance(rng, 7, 3, 1, variant=variant,
                                         caps_mode=caps_mode, name=f"{variant}-{i}")
            res = solve(inst)
            if not res.feasible:
                continue
            solved += 1
            assert res.verify().ok
            for F in combinations(res.centers, inst.alpha):
                res.scenario(F)
    finally:
        sys.setprofile(previous)
    assert solved >= 2
    assert counts["max_flow"] == 0, counts
    checks = counts["condition_b_flow"]
    assert flows == {"build": checks, "short": checks, "tree_transfer": 0}, (counts, flows)
    assert shapes and all(forced is False and closed == [()] for forced, closed in shapes), shapes
    assert counts["condition_b_flow"] > 0, counts
    if solve is solve_ft_general:
        assert counts["from tree_transfer"] > 0, counts


@pytest.mark.parametrize("solve, variant, caps_mode", [
    (solve_ft_general, "ft", "general"),
    (solve_ft_uniform, "ft", "uniform"),
    (solve_conservative_uniform, "conservative", "uniform"),
    (solve_conservative_general, "conservative", "general"),
], ids=["ft-general", "ft-0l", "cons-0l", "cons-general"])
def test_one_network_per_threshold_and_one_short_call_per_pass(monkeypatch, solve, variant, caps_mode):
    """Solves of seeded random instances, each followed by `verify()`:
    every `solve_cutting_plane` call comes right after one `TransportNetwork`
    build by the connected solver, every separation pass is one `short` call
    on that network and builds no arrays, and every `verify_ft` call is one
    `TransportNetwork` build and one `short` call.  Calls are counted by code object, so a call that
    bypasses a module global is counted too; the separators are also
    counted through their module globals, as the benchmark probes them."""
    connected = {solvers.ft_general_connected.__code__, solvers.ft_uniform_connected.__code__}
    separators = {lp.separate_general.__code__, lp.separate_uniform.__code__}
    globals_seen = {"separate_general": 0, "separate_uniform": 0}
    count_calls(monkeypatch, globals_seen, lp.separate_general)
    count_calls(monkeypatch, globals_seen, lp.separate_uniform)
    build, short = TransportNetwork.__init__.__code__, TransportNetwork.short.__code__
    events = []  # b: a build in a connected solver, s: its solve, p: a pass
    counts = dict.fromkeys(["pass", "short in a pass", "arrays in a pass",
                            "verify_ft", "builds in verify_ft", "short in verify_ft"], 0)
    depth = [0]  # separator frames on the stack

    def caller(frame, levels):
        for _ in range(levels):
            frame = frame.f_back
        return frame.f_code

    def profile(frame, event, arg):
        code = frame.f_code
        if code in separators:
            if event == "call":
                depth[0] += 1
                counts["pass"] += 1
                events.append("p")
            elif event == "return":
                depth[0] -= 1
            return
        if event != "call":
            return
        if code is build and caller(frame, 2) in connected:  # via general_network or uniform_network
            events.append("b")
        elif code is lp.solve_cutting_plane.__code__ and caller(frame, 1) in connected:
            events.append("s")
        elif code is short and depth[0]:
            counts["short in a pass"] += caller(frame, 1) in separators
        elif code is flow._arrays.__code__ and depth[0]:
            counts["arrays in a pass"] += 1
        elif code is verify_ft.__code__:
            counts["verify_ft"] += 1
        elif code in (build, short) and caller(frame, 1) is verify_ft.__code__:
            counts["builds in verify_ft" if code is build else "short in verify_ft"] += 1

    rng = random.Random(f"one network per threshold/{variant}/{caps_mode}")
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for i in range(12):
            inst = random_point_instance(rng, 7, 3, 1, variant=variant,
                                         caps_mode=caps_mode, name=f"{variant}-{i}")
            res = solve(inst)
            if res.feasible:
                assert res.verify().ok
    finally:
        sys.setprofile(previous)
    trace = "".join(events)
    assert re.fullmatch("(bsp*)+", trace), trace
    assert "spp" in trace, trace  # some threshold reuses its network
    assert counts["short in a pass"] == counts["pass"], counts
    assert counts["arrays in a pass"] == 0, counts
    assert sum(globals_seen.values()) == counts["pass"], (globals_seen, counts)
    assert counts["builds in verify_ft"] == counts["short in verify_ft"] == counts["verify_ft"], counts
    assert (counts["verify_ft"] > 0) == (variant == "ft"), counts
