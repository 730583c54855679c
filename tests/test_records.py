"""Repair records and `SolveResult.verify`.

A solution's scenario is its pipeline's repair record.  The records and the
sweep reach the repair functions and the connected solvers through their
module globals at call time, so a wrapper bound on the defining module (as
the per-layer benchmark probes bind theirs) sees every call.  A record
builds each client's within-bound centers once, and its scenarios seat
exactly as the hop-matrix reference does without touching the graph.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from ftkcenter import conservative, rounding, solvers
from ftkcenter.bottleneck import MergedComponents, SweepSuccess
from ftkcenter.conservative import solve_conservative_general, solve_conservative_uniform
from ftkcenter.instance import InstanceError, MetricInstance, ThresholdGraph
from ftkcenter.oracle import (
    condition_b_exhaustive,
    exact_distance1,
    random_point_instance,
    relaxed_ilp_holds,
    verify_conservative,
    verify_ft,
)
from ftkcenter.rounding import GeneralRounding, centers_within, verify_transfer
from ftkcenter.solvers import solve_ft_general, solve_ft_uniform

from helpers import TWO_CLUSTERS, bfs_hops, hop_matrix_scenario

LINE4 = [(0, 0), (1, 0), (2, 0), (3, 0)]


def line4(variant="ft", caps=(4, 4, 4, 4)):
    return MetricInstance.from_points(LINE4, 2, 1, list(caps), variant=variant)


def verify_ft_direct(inst, res):
    return verify_ft(inst, res.centers, res.radius())


def verify_conservative_direct(inst, res):
    return verify_conservative(inst, res.centers, res.assignment, res.radius())


# (label, solve, variant, capacities, the verifier called directly)
PLANS = [
    ("ft-general", solve_ft_general, "ft", "general", verify_ft_direct),
    ("ft-0l", solve_ft_uniform, "ft", "uniform", verify_ft_direct),
    ("cons-0l", solve_conservative_uniform, "conservative", "uniform",
     verify_conservative_direct),
    ("cons-general", solve_conservative_general, "conservative", "general",
     verify_conservative_direct),
]

WRAPPED = [
    (solvers, "ft_general_connected"),
    (solvers, "ft_uniform_connected"),
    (rounding, "assign_scenario_general"),
    (rounding, "assign_scenario_uniform"),
    (conservative, "reassign_flow"),
    (conservative, "reassign_uniform"),
]


def test_solvers_and_repairs_are_reached_through_module_globals(monkeypatch):
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, name in WRAPPED:
        calls[name] = 0
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    repair_of = {
        "ft-general": "assign_scenario_general",
        "ft-0l": "assign_scenario_uniform",
        "cons-0l": "reassign_uniform",
        "cons-general": "reassign_flow",
    }
    for label, solve, variant, _, _ in PLANS[:4]:
        res = solve(line4(variant))
        before = calls[repair_of[label]]
        res.scenario({res.centers[1]})
        assert calls[repair_of[label]] == before + 1, label  # line4 solves are connected
    assert all(calls.values()), calls


@pytest.mark.parametrize("plan", PLANS[:4], ids=[p[0] for p in PLANS[:4]])
def test_repairs_reject_bools_as_failed_centers(plan):
    """True == 1 and False == 0, and both are centers of the line4 solve, so
    a bool would otherwise be repaired as that center failing."""
    label, solve, variant, _, _ = plan
    res = solve(line4(variant))
    assert res.centers == (0, 1)
    res.scenario([1])
    for bad in ([True], [False], (0, True)):
        with pytest.raises(InstanceError, match="integer vertex indices"):
            res.scenario(bad)


@pytest.mark.parametrize("plan", PLANS, ids=[p[0] for p in PLANS])
def test_verify_is_the_variant_verifier(plan):
    label, solve, variant, caps_mode, direct = plan
    rng = random.Random(label)
    feasible = 0
    for i in range(6):
        inst = random_point_instance(rng, rng.randint(5, 8), 3, 1, variant=variant,
                                     caps_mode=caps_mode, name=f"{label}-{i}")
        res = solve(inst)
        if not res.feasible:
            with pytest.raises(InstanceError):
                res.verify()
            continue
        feasible += 1
        assert res.verify() == direct(inst, res)
        assert res.verify().ok
        # at a smaller radius both reject, with the same report
        shrunk = replace(res, outcome=SweepSuccess(Fraction(res.tau2_star, 400),
                                                   res.outcome.solution, 1))
        assert shrunk.verify() == direct(inst, shrunk)
        assert not shrunk.verify().ok
    assert feasible >= 2


@pytest.mark.parametrize("solve, variant", [(solve_ft_general, "ft"),
                                            (solve_conservative_general, "conservative")])
def test_verify_raises_on_an_infeasible_result(solve, variant):
    res = solve(line4(variant, caps=(1, 1, 1, 1)))
    assert not res.feasible
    with pytest.raises(InstanceError, match="infeasible"):
        res.radius()
    with pytest.raises(InstanceError, match="infeasible"):
        res.verify()


def feasible_records(plan, wanted: int):
    """(alpha, record, centers) of seeded random solves of one pipeline,
    until `wanted` connected and `wanted` merged records turn up."""
    label, solve, variant, caps_mode, _ = plan
    rng = random.Random(f"records-{label}")
    seen = Counter()
    out = []
    for attempt in range(600):
        if min(seen["connected"], seen["merged"]) >= wanted:
            break
        n = rng.randint(5, 10)
        k = rng.randint(2, min(5, n - 1))
        alpha = rng.randint(variant == "conservative", min(2, k - 1))
        inst = random_point_instance(rng, n, k, alpha, variant=variant, caps_mode=caps_mode,
                                     span=rng.choice((12, 60)), name=f"{label}-{attempt}")
        res = solve(inst)
        if res.feasible:
            record = res.outcome.solution.scenario
            seen["merged" if isinstance(record, MergedComponents) else "connected"] += 1
            out.append((alpha, record, res.centers))
    assert min(seen["connected"], seen["merged"]) >= wanted, seen
    return out


@pytest.mark.parametrize("plan", PLANS, ids=[p[0] for p in PLANS])
def test_records_repair_as_the_hop_matrix_reference(plan):
    """On connected and merged records, every failure set of every size up
    to alpha: the record's kept lists, with its failed centers closed by
    zero room, give the assignment that lists rebuilt from the hop matrix
    over the live centers give, client for client."""
    for alpha, record, centers in feasible_records(plan, 6):
        for size in range(alpha + 1):
            for F in combinations(centers, size):
                assert record(F) == hop_matrix_scenario(record, F), (record, F)


@pytest.mark.parametrize("plan", PLANS, ids=[p[0] for p in PLANS])
def test_repairs_build_no_hops_or_balls(plan, monkeypatch):
    """Once a record is built, its scenarios neither build a hop matrix nor
    walk a ball, and a connected ft-general solve leaves its graph's hop
    matrix unbuilt."""
    records = feasible_records(plan, 3)
    for _, record, _ in records:
        if isinstance(record, GeneralRounding):
            assert record.graph._hops is None
    calls = Counter()

    def counted(name):
        original = getattr(ThresholdGraph, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("hops", "balls"):
        monkeypatch.setattr(ThresholdGraph, name, counted(name))
    repaired = 0
    for alpha, record, centers in records:
        for size in range(alpha + 1):
            for F in combinations(centers, size):
                record(F)
                repaired += 1
    assert repaired and not calls, calls


def test_no_package_path_builds_the_hop_matrix(monkeypatch):
    """With `ThresholdGraph.hops` raising, all four solvers solve seeded
    instances and the two-cluster split instance, every answer verifies
    and repairs every failure set up to alpha, each ft-general rounding
    certifies its distance-8 transfer, and the exhaustive oracles run: the
    all-pairs hop matrix is the tests' reference alone."""

    def refuse(self):
        raise AssertionError("a package path built the hop matrix")

    monkeypatch.setattr(ThresholdGraph, "hops", refuse)
    rng = random.Random("no hop matrix")
    seen = Counter()
    for label, solve, variant, caps_mode, _ in PLANS:
        instances = [MetricInstance.from_points(TWO_CLUSTERS, 5, 1, [3] * 6, variant=variant)]
        for i in range(12):
            alpha = rng.randint(1, 2)
            instances.append(random_point_instance(
                rng, rng.randint(5, 9), alpha + rng.randint(1, 2), alpha, variant=variant,
                caps_mode=caps_mode, name=f"{label}-{i}"))
        for inst in instances:
            res = solve(inst)
            if not res.feasible:
                continue
            seen[label] += 1
            assert res.verify().ok, inst.name
            for size in range(inst.alpha + 1):
                for F in combinations(res.centers, size):
                    res.scenario(F)
            graph = inst.threshold_graph(res.tau2_star)
            y = {c: Fraction(1) for c in res.centers}
            relaxed_ilp_holds(graph, y, inst.capacities, inst.k, inst.alpha)
            exact_distance1(graph, inst.k, inst.capacities)
            record = res.outcome.solution.scenario
            if isinstance(record, GeneralRounding):
                rr = record.rr
                args = (rr.y0, rr.y3, rr.aug.ext, 8, record.backup_set(), rr.aug.caps_ext)
                assert verify_transfer(*args) and condition_b_exhaustive(*args), inst.name
                seen["roundings"] += 1
    assert min(seen.values()) >= 3, seen


def test_centers_within_matches_bfs_hops():
    """On random graphs, connected or not, and every bound from 0 past the
    diameter: per bound, each vertex's list holds the centers within that
    many hops, ascending."""
    rng = random.Random("centers-within")
    for trial in range(60):
        n = rng.randint(1, 12)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = ThresholdGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        hops = bfs_hops(graph)
        centers = rng.sample(range(n), rng.randint(1, n))
        bounds = tuple(range(n + 1))
        got = centers_within(graph, centers, bounds)
        assert list(got) == list(bounds)
        for bound, lists in got.items():
            assert lists == [
                [c for c in sorted(centers) if hops[u][c] <= bound] for u in range(n)
            ], (trial, bound)
        # one bound on its own reads the same lists
        assert centers_within(graph, centers, (n,)) == {n: got[n]}
