"""Rounding layer: transfer certification, the tree step, the general
pipeline's three-step rounding, and the uniform-capacity transfer."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from ftkcenter.clustering import monarch_clustering, select_backups
from ftkcenter.instance import ContractViolation, InstanceError, ThresholdGraph
from ftkcenter.oracle import (
    condition_b_exhaustive,
    random_point_instance,
    verify_transfer,
)
from ftkcenter.rounding import (
    GeneralRounding,
    RoundResult,
    UniformRounding,
    assign_scenario_general,
    assign_scenario_uniform,
    build_augmented,
    condition_b_flow,
    round_general,
    round_uniform,
    tree_transfer,
)
from ftkcenter.solvers import solve_ft_general

from helpers import cycle_graph, path_graph, random_connected_graph

H = Fraction(1, 2)


def test_condition_b_hand_cases():
    g = path_graph(3)
    caps = [1, 1, 1]
    y = {1: Fraction(1)}
    y2 = {0: Fraction(1)}
    assert condition_b_exhaustive(y, y2, g, 1, frozenset(), caps)
    assert not condition_b_exhaustive(y, y2, g, 0, frozenset(), caps)
    assert condition_b_flow(y, y2, g, 1, frozenset(), caps)
    assert not condition_b_flow(y, y2, g, 0, frozenset(), caps)
    # demand and supply on excluded vertices are both ignored
    assert condition_b_flow(y, {2: Fraction(1)}, g, 0, frozenset({1}), caps)


def test_condition_b_exhaustive_size_guard():
    g = ThresholdGraph(23, [(i, i + 1) for i in range(22)])
    with pytest.raises(InstanceError):
        condition_b_exhaustive({}, {}, g, 1, frozenset(), [1] * 23)


def test_condition_b_flow_matches_exhaustive_random():
    rng = random.Random(91)
    agree_true = agree_false = 0
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_connected_graph(rng, n, rng.randint(0, 4))
        caps = [rng.randint(0, 3) for _ in range(n)]
        r = rng.randint(0, 5)
        B = frozenset(v for v in range(n) if rng.random() < 0.2)
        y = {v: Fraction(rng.randint(0, 3), 3) for v in range(n)}
        y2 = {v: Fraction(rng.randint(0, 3), 3) for v in range(n)}
        a = condition_b_exhaustive(y, y2, g, r, B, caps)
        b = condition_b_flow(y, y2, g, r, B, caps)
        assert a == b
        if a:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true and agree_false


def test_verify_transfer_gatekeeping():
    g = path_graph(3)
    caps = [1, 1, 1]
    y = {1: Fraction(1)}
    assert verify_transfer(y, {0: Fraction(1)}, g, 1, frozenset(), caps)
    # mass mismatch
    assert not verify_transfer(y, {0: Fraction(1, 2)}, g, 1, frozenset(), caps)
    # disagreement on a protected vertex
    assert not verify_transfer(y, {0: Fraction(1)}, g, 1, frozenset({1}), caps)


def test_tree_transfer_simple_path():
    tree = path_graph(3)
    y = {0: H, 1: Fraction(1), 2: H}
    y2 = tree_transfer(tree, [0, 1, 2], y, [1, 1, 1])
    assert y2 == {0: Fraction(1), 1: Fraction(1), 2: Fraction(0)}


def test_tree_transfer_may_close_an_internal_node():
    """Keeping both internal nodes open strands the heavy endpoint demands,
    so the search must fall through to candidates that close one of them."""
    tree = path_graph(4)
    caps = [8, 1, 1, 8]
    y = {0: H, 1: Fraction(1), 2: Fraction(1), 3: H}
    y2 = tree_transfer(tree, [0, 1, 2, 3], y, caps)
    assert y2 == {0: Fraction(1), 1: Fraction(1), 2: Fraction(0), 3: Fraction(1)}


def test_tree_transfer_failure_is_reported():
    tree = path_graph(5)
    y = {0: H, 4: H}
    with pytest.raises(ContractViolation):
        tree_transfer(tree, [0, 4], y, [1] * 5)


def test_tree_transfer_precondition_checks():
    tree = path_graph(3)
    with pytest.raises(ContractViolation):
        tree_transfer(tree, [0], {0: H}, [1, 1, 1])
    with pytest.raises(ContractViolation):
        tree_transfer(
            tree, [0, 1, 2], {0: Fraction(3, 4), 1: H, 2: Fraction(3, 4)}, [1, 1, 1]
        )


def random_transfer_tree(rng):
    """A tree for `tree_transfer`: a core of members at y = 1, fractional
    member leaves in pairs of mass a and 1 - a, so the member mass is
    integral, and non-members with mass.  A leaf hangs on a core member or
    on a non-member next to one; one more non-member hangs on a member or
    is isolated.  Returns (tree, members, y, caps)."""
    core = rng.randint(1, 3)
    pairs = rng.randint(0, 2)
    members = core + 2 * pairs
    n = members + 1
    edges = [(v, rng.randrange(v)) for v in range(1, core)]
    y = {v: Fraction(1) for v in range(core)}
    for p in range(pairs):
        a = Fraction(rng.randint(1, 3), 4)
        for leaf, mass in ((core + 2 * p, a), (core + 2 * p + 1, 1 - a)):
            if rng.random() < 0.5:
                edges += [(leaf, n), (n, rng.randrange(core))]
                n += 1
            else:
                edges.append((leaf, rng.randrange(core)))
            y[leaf] = mass
    for v in range(members, n):
        if not any(v in edge for edge in edges) and rng.random() < 0.8:
            edges.append((v, rng.randrange(members)))
        y[v] = Fraction(rng.randint(0, 4), 4)
    caps = [rng.randint(0, 4) for _ in range(n)]
    return ThresholdGraph(n, edges), list(range(members)), y, caps


def test_tree_transfer_checks_agree_with_the_exhaustive_reference():
    """On every candidate of seeded random trees, `condition_b_flow` with B
    the non-members, the check `tree_transfer` runs, gives the verdict of
    `condition_b_exhaustive` with the same B, and the answer of
    `tree_transfer` passes it.  The non-members carry mass and most sit
    next to a member, so a check that let them send or receive would
    differ."""
    rng = random.Random("tree transfer check")
    seen = Counter()
    for _ in range(60):
        tree, members, y, caps = random_transfer_tree(rng)
        outside = frozenset(range(tree.n)) - set(members)
        kappa = int(sum(y[w] for w in members))
        passing = []
        for opened in combinations(members, kappa):
            y2 = {**y, **{w: Fraction(w in opened) for w in members}}
            verdict = condition_b_exhaustive(y, y2, tree, 2, outside, caps)
            assert condition_b_flow(y, y2, tree, 2, outside, caps) == verdict
            seen[verdict] += 1
            if verdict:
                passing.append(y2)
        if not passing:
            with pytest.raises(ContractViolation):
                tree_transfer(tree, members, y, caps)
            seen["no transfer"] += 1
            continue
        y2 = tree_transfer(tree, members, y, caps)
        assert y2 in passing
        assert condition_b_exhaustive(y, y2, tree, 2, outside, caps)
        seen["transfer"] += 1
    assert min(seen[key] for key in (True, False, "transfer", "no transfer")) > 0, seen


def test_build_augmented_c6():
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    caps = [1, 2, 2, 1, 1, 1]
    aug = build_augmented(g, cl, frozenset({1, 2}), caps)
    assert aug.ext.n == 8
    assert aug.aux_of == {0: 6, 3: 7}
    assert aug.m_of == {0: 0, 3: 3}
    assert aug.caps_ext == (1, 2, 2, 1, 1, 1, 1, 1)
    assert set(aug.ext.closed(6)) - {6} == {0, 1, 5}
    assert set(aug.ext.closed(7)) - {7} == {2, 3, 4}


def test_build_augmented_needs_a_non_backup_neighbor():
    g = path_graph(2)
    cl = monarch_clustering(g)
    with pytest.raises(ContractViolation):
        build_augmented(g, cl, frozenset({0, 1}), [1, 1])


def test_round_general_c6_no_backups():
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    y = {0: Fraction(1), 3: Fraction(1)}
    rr = round_general(y, g, cl, {}, [1] * 6)
    assert rr.R == (0, 2)
    assert {v for v, val in rr.y3.items() if val} == {0, 2}  # auxiliaries 6 and 7 shifted
    assert sum(rr.y3[v] for v in range(6)) == 2


def test_round_general_c6_pinned_backups():
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    caps = [1, 2, 2, 1, 1, 1]
    backups, _ = select_backups(cl, caps, 1)
    assert backups == {0: (1,), 3: (2,)}
    y = {0: H, 1: Fraction(1), 2: Fraction(1), 3: H, 4: H, 5: H}
    rr = round_general(y, g, cl, backups, caps)
    assert rr.R == (0, 1, 2, 3)
    assert {v for v, val in rr.y3.items() if val} == {0, 1, 2, 3}
    assert rr.y3[6] == rr.y3[7] == 0
    assert {1, 2} <= set(rr.R)


def test_round_general_drain_needs_the_lp_row():
    """Without fractional mass outside the backups in a head's neighborhood
    the drain cannot fill the auxiliary; the guard has to fire."""
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    caps = [1, 2, 2, 1, 1, 1]
    backups, _ = select_backups(cl, caps, 1)
    y = {1: Fraction(1), 2: Fraction(1), 4: Fraction(1)}
    with pytest.raises(ContractViolation):
        round_general(y, g, cl, backups, caps)


def test_round_uniform_pads_with_zero_capacity_vertices():
    g = path_graph(2)
    R = round_uniform({0: Fraction(1), 1: Fraction(1)}, g, 2, [3, 0])
    assert R == (0, 1)


def test_round_uniform_reports_impossible_transfer():
    g = path_graph(2)
    with pytest.raises(ContractViolation):
        round_uniform({0: Fraction(1), 1: Fraction(1)}, g, 1, [1, 1])


def test_assign_scenario_uniform():
    g = path_graph(3)
    caps = [2, 2, 2]
    state = UniformRounding(g, caps, (0, 1, 2), {}, 1)
    phi = assign_scenario_uniform(state, {1})
    assert state({1}) == phi
    assert set(phi) == {0, 1, 2}
    assert set(phi.values()) <= {0, 2}
    loads = {}
    for c in phi.values():
        loads[c] = loads.get(c, 0) + 1
    assert all(l <= 2 for l in loads.values())
    with pytest.raises(InstanceError):
        assign_scenario_uniform(state, {1, 2})
    with pytest.raises(InstanceError):
        assign_scenario_uniform(UniformRounding(g, caps, (0, 2), {}, 1), {1})
    with pytest.raises(ContractViolation):
        assign_scenario_uniform(UniformRounding(g, [1, 1, 1], (0, 1, 2), {}, 1), {1})


def test_assign_scenario_general_hop_bound():
    """Nine hops when only backups fail (here none), ten otherwise: on an
    11-vertex path the only center with capacity is ten hops from the far
    end, so the empty set has no repair and failing the non-backup center 5
    (capacity 0) has one."""
    g = path_graph(11)
    rr = RoundResult((0, 5), {}, {}, None)  # the repair reads only R
    state = GeneralRounding(g, [11] + [0] * 10, {0: (0,)}, rr, 1)
    with pytest.raises(ContractViolation, match="within 9 hops"):
        assign_scenario_general(state, set())
    assert assign_scenario_general(state, {5}) == dict.fromkeys(range(11), 0)
    with pytest.raises(InstanceError):
        assign_scenario_general(state, {3})


def test_general_repairs_fit_capacities_and_hop_bounds():
    """On connected and merged ft-general records, every failure set of every
    size up to alpha is repaired: each client goes to a live center, loads
    fit the capacities, distances fit the radius, and on a connected record
    hops fit nine when only backups fail and ten otherwise.  The empty set
    gives the base assignment, and a fresh record gives the same repairs."""
    rng = random.Random("general-repairs")
    seen = Counter()
    attempts = 0
    while min(seen["connected"], seen["merged"]) < 15 and attempts < 400:
        attempts += 1
        n = rng.randint(5, 12)
        k = rng.randint(2, min(5, n - 1))
        alpha = rng.randint(0, min(2, k - 1))
        span = rng.choice((12, 60))
        inst = random_point_instance(rng, n, k, alpha, span=span, name=f"repair{attempts}")
        res = solve_ft_general(inst)
        if not res.feasible:
            continue
        record = res.outcome.solution.scenario
        connected = isinstance(record, GeneralRounding)
        seen["connected" if connected else "merged"] += 1
        fresh = replace(record)
        r2 = res.radius().value_sq()
        assert record(()) == res.assignment
        for size in range(alpha + 1):
            for F in combinations(res.centers, size):
                phi = record(F)
                assert fresh(F) == phi
                assert set(phi) == set(range(n))
                assert set(phi.values()) <= set(res.centers) - set(F)
                load = Counter(phi.values())
                assert all(load[c] <= inst.capacities[c] for c in load)
                assert all(inst.d2[u][c] <= r2 for u, c in phi.items())
                if connected:
                    hops = record.graph.hops()
                    bound = 9 if set(F) <= record.backup_set() else 10
                    assert all(hops[u][c] <= bound for u, c in phi.items())
    assert min(seen["connected"], seen["merged"]) >= 15, seen
