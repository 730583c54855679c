"""Threshold sweep and per-component budget allocation, driven by scripted
solvers so every branch of the allocation logic is observable."""

import math

import pytest

from ftkcenter.bottleneck import (
    MergedComponents,
    PerTauInfeasible,
    PerTauSolution,
    SweepInfeasible,
    SweepSuccess,
    _least_budget,
    quick_infeasible,
    solve_components,
    sweep,
)
from ftkcenter.instance import ContractViolation, InstanceError, MetricInstance, ThresholdGraph
from ftkcenter.solvers import solve_ft_general, solve_ft_uniform

from helpers import edge_set, path_graph


def make_fake_solver(need, record=None):
    """Succeed iff budget >= need(sub); centers are the first `budget`
    local vertices, everyone assigned to local center 0."""

    def solver(sub, budget, caps):
        if record is not None:
            record.append((sub.n, budget))
        if budget < need(sub):
            return PerTauInfeasible(f"budget {budget} too small")
        centers = tuple(range(budget))
        assignment = {u: 0 for u in range(sub.n)}
        return PerTauSolution(centers, assignment, 1, lambda F: dict(assignment))

    return solver


def two_plus_four():
    return ThresholdGraph(6, [(0, 1), (2, 3), (3, 4), (4, 5)])


def test_quick_infeasible_certificates():
    g = path_graph(3)
    assert quick_infeasible(g, 3, [1, 1, 1], 1) == (
        "best 2 surviving capacities cover 2 < 3 clients"
    )
    assert quick_infeasible(g, 3, [1, 1, 1], 2) == (
        "vertex 0 has 2 positive-capacity neighbors, needs alpha+1=3"
    )
    assert quick_infeasible(g, 1, [3, 3, 3], 0) is None
    assert quick_infeasible(g, 1, [0, 1, 0], 0) is not None


def test_sweep_returns_first_success():
    inst = MetricInstance.from_points([(0, 0), (1, 0), (2, 0)], 2, 0, [3, 3, 3])
    assert inst.thresholds_sq() == (0, 1, 4)
    script = {0: "no", 1: "no", 4: "yes"}

    def per_tau(G):
        tau2 = [t for t in inst.thresholds_sq() if edge_set(inst.threshold_graph(t)) == edge_set(G)]
        verdict = script[tau2[0]]
        if verdict == "yes":
            return PerTauSolution((0,), {u: 0 for u in range(3)}, 1, lambda F: {})
        return PerTauInfeasible(f"scripted failure at {tau2[0]}")

    out = sweep(inst, per_tau)
    assert isinstance(out, SweepSuccess)
    assert out.tau2_star == 4
    assert out.thresholds_tried == 3
    assert out.radius().mult == 1


def test_sweep_collects_reasons_in_order():
    inst = MetricInstance.from_points([(0, 0), (1, 0), (2, 0)], 2, 0, [3, 3, 3])

    def per_tau(G):
        return PerTauInfeasible(f"fails with {len(edge_set(G))} edges")

    out = sweep(inst, per_tau)
    assert isinstance(out, SweepInfeasible)
    assert [r for _, r in out.reasons] == [
        "fails with 0 edges",
        "fails with 2 edges",
        "fails with 3 edges",
    ]
    assert out.final_reason == "fails with 3 edges"
    assert [t for t, _ in out.reasons] == [0, 1, 4]


def test_components_minimal_budgets():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 3, 0, [1] * 6, solver)
    assert isinstance(out, PerTauSolution)
    assert out.centers == (0, 2, 3)
    assert out.assignment == {0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 5: 2}


def test_components_surplus_spreads_left_to_right():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 5, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4)
    out = solve_components(g, 6, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4, 5)


def test_components_surplus_larger_than_first_component():
    """Three tiny components, k well above the sum of minimal budgets: the
    surplus has to spill across components instead of crowding into one."""
    g = ThresholdGraph(6, [(0, 1), (2, 3), (4, 5)])
    solver = make_fake_solver(lambda sub: 1)
    out = solve_components(g, 5, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4)


def test_components_budget_sum_exceeds_k():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 2, 0, [1] * 6, solver)
    assert isinstance(out, PerTauInfeasible)
    assert out.reason == "component budgets sum to 3 > k = 2"


def test_components_unsolvable_component():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: sub.n + 1)  # never enough
    out = solve_components(g, 6, 0, [1] * 6, solver)
    assert isinstance(out, PerTauInfeasible)
    assert "component containing vertex 0" in out.reason


def test_components_budget_monotonicity_guard():
    g = ThresholdGraph(4, [(0, 1), (2, 3)])

    def picky(sub, budget, caps):
        if budget != 1:
            return PerTauInfeasible("only exact budget 1 works")
        return PerTauSolution((0,), {u: 0 for u in range(sub.n)}, 1, lambda F: {})

    with pytest.raises(ContractViolation):
        solve_components(g, 3, 0, [1] * 4, picky)


def test_components_connected_shortcut_and_budget_search():
    g = path_graph(2)
    record = []
    solver = make_fake_solver(lambda sub: 1, record)
    out = solve_components(g, 2, 0, [1, 1], solver)
    assert record == [(2, 2)]  # one call, full k
    assert out.centers == (0, 1)

    record.clear()  # the per-component search on the connected graph
    budget, out = _least_budget(g, [1, 1], solver, 1, 2)
    assert record == [(2, 1)]  # search starts at alpha+1
    assert (budget, out.centers) == (1, (0,))
    assert _least_budget(g, [1, 1], make_fake_solver(lambda sub: 3), 1, 2) is None

    record.clear()  # two copies of g: the search, then the hand-out up to each copy's n
    out = solve_components(ThresholdGraph(4, [(0, 1), (2, 3)]), 4, 0, [1] * 4, solver)
    assert record == [(2, 1), (2, 1), (2, 2), (2, 2)]
    assert out.centers == (0, 1, 2, 3)


def test_merged_scenario_remaps_and_validates():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 4, 1, [1] * 6, solver)
    phi = out.scenario([2])
    assert phi == {0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 5: 2}
    with pytest.raises(InstanceError, match="failures must be centers"):
        out.scenario([4])  # vertex 4 is not a center
    with pytest.raises(InstanceError, match="too many failures"):
        out.scenario([0, 2])  # two centers, alpha = 1
    with pytest.raises(InstanceError, match="integer vertex indices"):
        out.scenario([False])  # False == 0, a center, but not a vertex index
    assert isinstance(out.scenario, MergedComponents)
    assert out.scenario.centers == {0, 1, 2, 3}
    assert out.scenario.alpha == 1
    assert [orig for orig, _ in out.scenario.parts] == [(0, 1), (2, 3, 4, 5)]
    assert [sol.centers for _, sol in out.scenario.parts] == [(0, 1), (0, 1)]


def test_merged_scenario_validates_like_a_connected_record():
    """A real solve split into two components rejects bad failure sets with
    the same `InstanceError` as a connected record."""
    inst = MetricInstance.from_points([(0, 0), (1, 0), (100, 0), (101, 0)], 4, 1, [2] * 4)
    res = solve_ft_general(inst)
    assert isinstance(res.outcome.solution.scenario, MergedComponents)
    with pytest.raises(InstanceError, match="failures must be centers"):
        res.scenario([7])
    with pytest.raises(InstanceError, match="too many failures"):
        res.scenario([0, 2])
    phi = res.scenario([0])  # center 1 is all that is left of the first component
    assert set(phi) == {0, 1, 2, 3}
    assert phi[0] == phi[1] == 1 and {phi[2], phi[3]} <= {2, 3}


def test_components_count_exit_skips_the_solver():
    """More than k // (alpha+1) components: every component needs alpha+1
    centers, so the graph is rejected before any solver call."""

    def never(sub, budget, caps):
        raise AssertionError("solver called on a graph with too many components")

    g = ThresholdGraph(6, [(0, 1), (2, 3), (4, 5)])  # 3 components
    for k, alpha in ((5, 1), (2, 0), (8, 2)):
        assert k // (alpha + 1) + 1 == 3
        out = solve_components(g, k, alpha, [2] * 6, never)
        assert isinstance(out, PerTauInfeasible)
        assert out.reason == f"3 components need alpha+1={alpha + 1} centers each, more than k = {k}"

    record = []  # at exactly k // (alpha+1) components the solver still runs
    out = solve_components(g, 6, 1, [2] * 6, make_fake_solver(lambda sub: 2, record))
    assert record == [(2, 2), (2, 2), (2, 2)]
    assert out.centers == (0, 1, 2, 3, 4, 5)


def test_all_zero_capacity_final_reason():
    """With every capacity zero, 0-0 stripping leaves even the last
    threshold graph edgeless, so the component count rejects it."""
    inst = MetricInstance.from_points([(0, 0), (1, 0), (3, 0), (7, 0)], 2, 1, [0] * 4)
    res = solve_ft_uniform(inst)
    assert not res.feasible
    assert [t for t, _ in res.outcome.reasons] == list(inst.thresholds_sq())
    assert res.outcome.final_reason == "4 components need alpha+1=2 centers each, more than k = 2"
