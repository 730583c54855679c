import ast
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
    transport_cuts,
)
from ftkcenter.instance import ContractViolation, InstanceError, Radius
from ftkcenter.lp import general_network, separate_general, separate_uniform, uniform_network
from ftkcenter.oracle import random_point_instance, verify_ft
from ftkcenter.solvers import solve_ft_general, solve_ft_uniform

from helpers import (
    assert_first_violated_row,
    brute_separate_general,
    brute_separate_uniform,
    cut_capacity,
    edmonds_karp_max_flow,
    flow_capacitated_assignment,
    full_pass_general,
    full_pass_uniform,
    per_cut_separate_general,
    per_cut_separate_uniform,
    random_separation_point,
    transport,
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

    for name in ("FlowNetwork", "max_flow", "TransportNetwork", "transport_cuts"):
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


def test_transport_fractional_demand_with_dead_end_center():
    # center 12 has no supply entry: client 1 gets only the 1/3 of center 11
    demand = {0: Fraction(1, 2), 1: Fraction(2, 3)}
    allowed = {0: [10], 1: [11, 12]}
    supply = {10: 1, 11: Fraction(1, 3)}
    [(value, blocked)] = transport_cuts(demand, allowed, supply, closed=[()])
    assert value == Fraction(5, 6)
    assert blocked == frozenset({1})


def test_transport_infinite_demand_is_always_blocked():
    """A forced client's demand is infinite, so it is on the source side
    of every min cut."""
    allowed = {0: [10], 1: [10, 11], 2: [11]}
    supply = {10: 5, 11: 5}
    demand = dict.fromkeys(allowed, 1)
    cuts = list(transport_cuts(demand, allowed, supply, forced=list(allowed)))
    assert [w in blocked for w, (_, blocked) in zip(allowed, cuts)] == [True] * 3
    assert [value for value, _ in cuts] == [7, 10, 7]


def test_transport_cuts_match_transport_per_variant():
    """Each forced variant is `transport` with that client's demand infinite
    and each closed variant `transport` without the closed centers, on
    random transport networks with Fraction, zero and infinite demands,
    Fraction and zero supplies, and dead-end centers."""
    rng = random.Random(1970)
    forced_total = closed_total = short = 0
    for _ in range(200):
        clients = rng.sample(range(20), rng.randint(0, 6))
        centers = list(range(20, 20 + rng.randint(0, 5)))

        def amount():
            roll = rng.random()
            if roll < 0.2:
                return 0
            if roll < 0.6:
                return Fraction(rng.randint(0, 9), rng.randint(1, 6))
            return rng.randint(0, 4)

        demand = {c: INF if rng.random() < 0.1 else amount() for c in clients}
        allowed = {c: rng.sample(centers, rng.randint(0, len(centers))) for c in clients}
        supply = {v: amount() for v in centers if rng.random() < 0.85}
        forced = rng.sample(clients, rng.randint(0, len(clients)))
        closed = [
            tuple(rng.sample(centers, rng.randint(0, len(centers))))
            for _ in range(rng.randint(0, 3))
        ]
        cuts = list(transport_cuts(demand, allowed, supply, forced=forced, closed=closed))
        assert len(cuts) == len(forced) + len(closed)
        expected = []
        for w in forced:
            value, blocked = transport({**demand, w: INF}, allowed, supply)
            expected.append((value, blocked))
            assert w in blocked
        for F in closed:
            value, blocked = transport(
                demand,
                {c: [v for v in allowed[c] if v not in F] for c in clients},
                {v: s for v, s in supply.items() if v not in F},
            )
            expected.append((value, blocked))
        assert cuts == expected
        assert all(isinstance(value, Fraction) for value, _ in cuts)
        forced_total += len(forced)
        closed_total += len(closed)
        short += sum(1 for value, _ in cuts[len(forced):] if value < sum(
            d for d in demand.values() if d is not INF))
    assert forced_total > 100 and closed_total > 100 and short > 20


def test_closed_chains_match_transport_per_variant():
    """Each closed variant starts from the maximum flow of the one before,
    so a long chain reopens, cancels and re-augments many times; every
    variant must still be `transport` without its closed centers.  Chains
    hold all C(m, a) center sets in shuffled order, the same set twice in a
    row, overlapping and empty sets, and names without a supply entry or
    without any arc; demands and supplies are ints, Fractions and zeros."""
    rng = random.Random(1982)
    variants = short = moved = 0
    for _ in range(150):
        clients = list(range(rng.randint(1, 7)))
        centers = list(range(20, 20 + rng.randint(1, 6)))

        def amount():
            roll = rng.random()
            if roll < 0.15:
                return 0
            if roll < 0.5:
                return Fraction(rng.randint(1, 9), rng.randint(1, 4))
            return rng.randint(1, 3)

        demand = {c: amount() for c in clients}
        allowed = {c: rng.sample(centers, rng.randint(1, len(centers))) for c in clients}
        supply = {v: amount() for v in centers if rng.random() < 0.9}
        closed = list(combinations(centers, rng.randint(0, min(3, len(centers)))))
        rng.shuffle(closed)
        for _ in range(rng.randint(2, 6)):
            i = rng.randrange(len(closed) + 1)
            extra = rng.choice([
                closed[i - 1] if i else (),  # the same set twice in a row
                (),
                (99, *rng.sample(centers, 1)),  # a name no arc touches
                tuple(rng.sample(centers, rng.randint(1, len(centers)))),
            ])
            closed.insert(i, extra)
        cuts = list(transport_cuts(demand, allowed, supply, closed=closed))
        full = transport(demand, allowed, supply)[0]
        expected = []
        for F in closed:
            value, blocked = transport(
                demand,
                {c: [v for v in allowed[c] if v not in F] for c in clients},
                {v: s for v, s in supply.items() if v not in F},
            )
            expected.append((value, blocked))
            short += value < sum(demand.values())
            moved += value < full
        assert cuts == expected
        variants += len(closed)
    assert variants > 1000 and short > 500 and moved > 400, (variants, short, moved)


def test_transport_cuts_rejects_infinite_supply_and_unknown_clients():
    """Bad input raises at the call, before any variant is asked for: no
    call here consumes the iterator it would return."""
    with pytest.raises(ContractViolation):
        transport_cuts({0: 1}, {0: [10]}, {10: INF}, forced=[0])
    with pytest.raises(ContractViolation):
        transport_cuts({0: 1}, {0: [10]}, {10: INF})
    with pytest.raises(InstanceError):
        transport_cuts({0: 1}, {0: [10]}, {10: 1}, forced=[1])
    with pytest.raises(InstanceError, match="forced client 2"):
        transport_cuts({0: 1, 1: 1}, {0: [10], 1: [10]}, {10: 1}, forced=[0, 2])
    with pytest.raises(InstanceError, match="negative capacity"):
        transport_cuts({0: 1}, {0: [10]}, {10: -1}, closed=[()])
    with pytest.raises(InstanceError, match="negative demand"):
        transport_cuts({0: 1, 1: -1}, {0: [10], 1: [10]}, {10: 1}, forced=[0])
    with pytest.raises(InstanceError, match="negative demand"):
        transport_cuts({0: Fraction(-1, 2)}, {0: [10]}, {10: 1}, closed=[()])


def test_a_reused_network_matches_a_fresh_build():
    """One `TransportNetwork` solved for a sequence of supply maps gives,
    for every forced and closed variant, what a fresh `transport_cuts` call
    gives.  The sequence changes denominators, zeroes supplies, leaves out
    some centers' supply entries, and repeats an earlier map, which must
    give the same cuts again: `cuts` never changes the network's residual
    template."""
    rng = random.Random(2025)
    calls = short = dropped = 0
    for _ in range(60):
        clients = rng.sample(range(20), rng.randint(1, 6))
        centers = list(range(20, 20 + rng.randint(1, 5)))
        allowed = {c: rng.sample(centers, rng.randint(0, len(centers))) for c in clients}
        network = TransportNetwork(clients, allowed, centers)
        template = network.template[:]
        demand = {c: rng.randint(0, 2) for c in clients}
        forced = rng.sample(clients, rng.randint(0, len(clients)))
        closed = [tuple(rng.sample(centers, rng.randint(0, min(2, len(centers))))) for _ in range(3)]
        maps = []
        for _ in range(4):
            den = rng.randint(1, 7)
            maps.append({
                v: Fraction(rng.randint(0, 9), den) if rng.random() < 0.7 else 0
                for v in centers if rng.random() < 0.85
            })
        maps.append(maps[0])
        for supply in maps:
            cuts = list(network.cuts(demand, supply, forced, closed))
            # the fresh network has a sink arc only for the centers supplied
            assert cuts == list(transport_cuts(demand, allowed, supply, forced, closed))
            assert network.template == template
            calls += 1
            short += any(value < sum(demand.values()) for value, _ in cuts)
            dropped += len(supply) < len(centers)
    assert calls == 300 and short > 50 and dropped > 50, (short, dropped)


def test_transport_network_rejects_names_it_was_not_built_with():
    """A demand or supply entry for a client or center the network was not
    built with is a caller bug, a `ContractViolation`, raised at the call;
    a center named only in an allowed list is a dead end, not a center."""
    network = TransportNetwork([0, 1], {0: [10], 1: [10, 11]}, [10])
    with pytest.raises(ContractViolation, match="client 2"):
        network.cuts({0: 1, 2: 1}, {10: 1})
    with pytest.raises(ContractViolation, match="center 11"):
        network.cuts({0: 1, 1: 1}, {10: 1, 11: 1})
    with pytest.raises(ContractViolation, match="center 12"):
        network.cuts({0: 1, 1: 1}, {12: 1})
    with pytest.raises(InstanceError, match="forced client 2"):
        network.cuts({0: 1, 1: 1}, {10: 1}, forced=[2])
    [(value, blocked)] = network.cuts({0: 1, 1: 1}, {10: 1}, closed=[()])
    assert (value, blocked) == (1, frozenset({0, 1}))


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


def test_transport_cuts_solves_each_variant_on_demand(monkeypatch):
    """The call solves nothing; the first forced variant solves the base
    flow and itself, and every later variant, forced or closed, one more."""
    calls = count_augments(monkeypatch)
    demand = dict.fromkeys(range(4), 1)
    allowed = {0: [10], 1: [10, 11], 2: [11], 3: [11, 12]}
    supply = {10: 1, 11: Fraction(3, 2), 12: 1}
    closed = [(10,), (11,), (10, 12)]
    cuts = transport_cuts(demand, allowed, supply, forced=range(4), closed=closed)
    assert calls[0] == 0
    seen = []
    for i, cut in enumerate(cuts):
        seen.append(cut)
        assert calls[0] == i + 2
    assert seen == list(transport_cuts(demand, allowed, supply, forced=range(4), closed=closed))
    calls[0] = 0
    cuts = transport_cuts(demand, allowed, supply, closed=closed)
    next(cuts)
    assert calls[0] == 1


def test_separate_uniform_stops_at_its_witness(monkeypatch):
    """A violated pass whose witness is forced vertex w runs the base flow
    and the variants of vertices 0..w, 1 + (w + 1) augments, and returns
    the row of the per-cut reference; a clean pass runs 1 + n."""
    calls = count_augments(monkeypatch)
    rng = random.Random(2016)
    seen = {"clean": 0, "stopped before the last vertex": 0}
    for _ in range(150):
        g, y, alpha = random_separation_point(rng)
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.75 else 0 for _ in range(g.n)]
        network = uniform_network(g, caps)
        values = full_pass_uniform(y, network, caps)
        w = next((i for i, val in enumerate(values) if val < alpha * L), None)
        ref = per_cut_separate_uniform(y, g, caps, alpha)
        calls[0] = 0
        row = separate_uniform(y, network, caps, alpha)
        assert_first_violated_row(row, y, brute_separate_uniform(y, g, caps, alpha), alpha * L, ref)
        assert (row is None) == (w is None)
        if w is None:
            assert calls[0] == 1 + g.n
            seen["clean"] += 1
        else:
            assert calls[0] == 1 + (w + 1)
            seen["stopped before the last vertex"] += w < g.n - 1
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
        values = full_pass_general(y, network, backups, alpha, caps)
        i = next((i for i, val in enumerate(values) if val < 0), None)
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
    arc saturated and adds nothing, in one BFS.  The base and every closed
    variant have all demand routed, so that BFS reaches only the source; a
    forced client's demand stays infinite, and its BFS stops at the full
    centers it fills and the clients seated there."""
    entries = watch_augments(monkeypatch)
    allowed = {0: [10, 11], 1: [10, 11], 2: [12, 13], 3: [13, 12]}
    supply = dict.fromkeys([10, 11, 12, 13], 2)
    demand = dict.fromkeys(allowed, 1)
    forced = [0, 3]
    closed = [(), (10,), (11,), (10, 12), (13,), (11, 12)]
    cuts = list(transport_cuts(demand, allowed, supply, forced=forced, closed=closed))
    assert len(entries) == 1 + len(forced) + len(closed)
    base, *rest = entries
    for sources, value, _ in entries:
        assert value == 0
        assert all(r == 0 for r in sources if r != INF)
    assert base[0] == [0] * 4 and base[2] == [0]
    for w, (sources, _, reached) in zip(forced, rest):
        assert [r == INF for r in sources] == [c == w for c in allowed]
        assert {u - 2 for u in reached if 2 <= u < 6} == ({0, 1} if w == 0 else {2, 3})
    for sources, _, reached in rest[len(forced):]:
        assert sources == [0] * 4 and reached == [0]
    assert [value for value, _ in cuts] == [6, 6] + [4] * len(closed)
    assert [blocked for _, blocked in cuts] == [
        frozenset({0, 1}), frozenset({2, 3}), *[frozenset()] * len(closed)
    ]


def test_dinic_finishes_what_seating_leaves(monkeypatch):
    """Client 0 is seated first at center 10, client 1's only center: the
    base flow needs the longer path source -> 1 -> 10 -> 0 -> 11 -> sink,
    which Dinic finds after the seating pass.  Every variant, forced and
    closed, equals the `transport` reference."""
    entries = watch_augments(monkeypatch)
    allowed = {0: [10, 11], 1: [10], 2: [11, 12]}
    supply = {10: 1, 11: 1, 12: Fraction(1, 2)}
    demand = {0: 1, 1: 1, 2: Fraction(1, 2)}
    forced = list(allowed)
    closed = [(), (12,), (11,), (10, 12)]
    cuts = list(transport_cuts(demand, allowed, supply, forced=forced, closed=closed))
    assert len(entries) == 1 + len(forced) + len(closed)
    # Dinic moves client 0 on to seat client 1: 2 in the scaled units of 1/2
    assert entries[0][1] == 2
    expected = [transport({**demand, w: INF}, allowed, supply) for w in forced]
    for F in closed:
        expected.append(transport(
            demand,
            {c: [v for v in allowed[c] if v not in F] for c in allowed},
            {v: s for v, s in supply.items() if v not in F},
        ))
    assert cuts == expected
    assert cuts[len(forced)] == (Fraction(5, 2), frozenset())


def test_transport_network_layout_is_what_cuts_reads():
    """`TransportNetwork` lists each arc at both of its ends, and `cuts`
    reads two facts of its layout: `adj[0]` is the source arcs in client
    order, and a supplied center's first arc is its sink arc, followed only
    by the reverses of the client arcs into it.  `template` is INF exactly
    on the client -> center arcs, one per distinct allowed center.  Random
    networks have repeated names in allowed lists and in `centers`,
    dead-end centers, centers no client may use and clients with no
    center."""
    rng = random.Random(1608)
    for _ in range(300):
        clients = rng.sample(range(20), rng.randint(0, 7))
        pool = list(range(20, 20 + rng.randint(1, 6)))
        allowed = {c: rng.choices(pool, k=rng.randint(0, len(pool) + 1)) for c in clients}
        centers = rng.choices(pool, k=rng.randint(0, len(pool)))
        network = TransportNetwork(clients, allowed, centers)
        head, adj, template = network.head, network.adj, network.template
        first = len(clients) + 2
        center_id = {}
        for v in [v for c in clients for v in allowed[c]] + centers:
            center_id.setdefault(v, first + len(center_id))
        assert len(adj) == first + len(center_id) and len(template) == len(head)
        # arc e runs from head[e ^ 1] to head[e], and each node lists exactly
        # the arcs out of it, every arc once
        assert sorted(e for arcs in adj for e in arcs) == list(range(len(head)))
        assert all(head[e ^ 1] == u for u, arcs in enumerate(adj) for e in arcs)
        assert adj[0] == [network.source_arc[c] for c in clients]
        assert [head[e] for e in adj[0]] == list(range(2, first))
        client_arcs = {e for e in range(0, len(head), 2) if 2 <= head[e ^ 1] < first <= head[e]}
        assert [e for e, c in enumerate(template) if c is INF] == sorted(client_arcs)
        assert not any(template[e] for e in range(len(head)) if e not in client_arcs)
        for i, c in enumerate(clients, 2):
            heads = [head[e] for e in client_arcs if head[e ^ 1] == i]
            assert sorted(heads) == sorted({center_id[v] for v in allowed[c]})
        for v in centers:
            j = center_id[v]
            assert adj[j][0] == network.sink_arc[v] and head[adj[j][0]] == 1
            assert sorted(e ^ 1 for e in adj[j][1:]) == sorted(e for e in client_arcs if head[e] == j)


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
    transfer check is a `condition_b_flow` call, one `transport_cuts` call
    for the single variant with nothing closed.  The checks of
    `tree_transfer` are `condition_b_flow` calls too: it makes no flow of
    its own.  Calls are counted by code object, so a call that bypasses a
    module global is counted too."""
    check = rounding.condition_b_flow.__code__
    tree = rounding.tree_transfer.__code__
    tree_codes = {tree, *(c for c in tree.co_consts if isinstance(c, type(tree)))}
    counts = {"max_flow": 0, "condition_b_flow": 0, "from tree_transfer": 0}
    flows = {"condition_b_flow": 0, "tree_transfer": 0}  # transport_cuts calls by caller
    shapes = []  # (forced, closed) of the transport_cuts calls of the checks

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
        elif code is flow.transport_cuts.__code__:
            if caller is check:
                flows["condition_b_flow"] += 1
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
    assert flows == {"condition_b_flow": counts["condition_b_flow"], "tree_transfer": 0}, (counts, flows)
    assert all(shape == ((), [()]) for shape in shapes)
    assert counts["condition_b_flow"] > 0, counts
    if solve is solve_ft_general:
        assert counts["from tree_transfer"] > 0, counts


@pytest.mark.parametrize("solve, variant, caps_mode", [
    (solve_ft_general, "ft", "general"),
    (solve_ft_uniform, "ft", "uniform"),
    (solve_conservative_uniform, "conservative", "uniform"),
    (solve_conservative_general, "conservative", "general"),
], ids=["ft-general", "ft-0l", "cons-0l", "cons-general"])
def test_one_network_per_threshold_and_one_cuts_call_per_pass(monkeypatch, solve, variant, caps_mode):
    """Solves of seeded random instances, each followed by `verify()`:
    every `solve_cutting_plane` call comes right after one `TransportNetwork`
    build by the connected solver, every separation pass is one `cuts` call
    on that network and builds no arrays, and every `verify_ft` call is one
    `transport_cuts` call.  Calls are counted by code object, so a call that
    bypasses a module global is counted too; the separators are also
    counted through their module globals, as the benchmark probes them."""
    connected = {solvers.ft_general_connected.__code__, solvers.ft_uniform_connected.__code__}
    separators = {lp.separate_general.__code__, lp.separate_uniform.__code__}
    globals_seen = {"separate_general": 0, "separate_uniform": 0}
    count_calls(monkeypatch, globals_seen, lp.separate_general)
    count_calls(monkeypatch, globals_seen, lp.separate_uniform)
    build, cuts = TransportNetwork.__init__.__code__, TransportNetwork.cuts.__code__
    events = []  # b: a build in a connected solver, s: its solve, p: a pass
    counts = dict.fromkeys(["pass", "cuts in a pass", "arrays in a pass",
                            "verify_ft", "transport_cuts in verify_ft"], 0)
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
        elif code is cuts and depth[0]:
            counts["cuts in a pass"] += caller(frame, 1) in separators
        elif code is flow._arrays.__code__ and depth[0]:
            counts["arrays in a pass"] += 1
        elif code is verify_ft.__code__:
            counts["verify_ft"] += 1
        elif code is flow.transport_cuts.__code__ and caller(frame, 1) is verify_ft.__code__:
            counts["transport_cuts in verify_ft"] += 1

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
    assert counts["cuts in a pass"] == counts["pass"], counts
    assert counts["arrays in a pass"] == 0, counts
    assert sum(globals_seen.values()) == counts["pass"], (globals_seen, counts)
    assert counts["transport_cuts in verify_ft"] == counts["verify_ft"], counts
    assert (counts["verify_ft"] > 0) == (variant == "ft"), counts
