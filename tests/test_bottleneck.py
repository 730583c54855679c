"""Threshold sweep and per-component budget allocation, driven by scripted
solvers so every branch of the allocation logic is observable."""

import math
import random
from itertools import accumulate

import pytest

from ftkcenter.bottleneck import (
    MergedComponents,
    PerTauInfeasible,
    PerTauSolution,
    SweepInfeasible,
    SweepSuccess,
    certified_start,
    pad_centers,
    quick_infeasible,
    solve_components,
    solve_threshold,
    sweep,
)
from ftkcenter import instance
from ftkcenter.conservative import (
    conservative_general_connected,
    conservative_uniform_connected,
    solve_conservative_general,
    solve_conservative_uniform,
)
from ftkcenter.instance import (
    ContractViolation,
    InstanceError,
    MetricInstance,
    Radius,
    ThresholdGraph,
    strip_zero_zero_edges,
)
from ftkcenter.oracle import verify_ft
from ftkcenter.solvers import (
    ft_general_connected,
    ft_general_start,
    ft_uniform_connected,
    solve_ft_general,
    solve_ft_uniform,
)

from helpers import TWO_CLUSTERS, brute_threshold_pairs, edge_set, pair_masks, path_graph


def make_fake_solver(need, record=None):
    """Succeed iff budget >= need(sub); centers are the first `budget`
    local vertices, everyone assigned to local center 0."""

    def solver(sub, budget, caps, alpha):
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
    assert out.reasons[-1][1] == "fails with 3 edges"
    assert [t for t, _ in out.reasons] == [0, 1, 4]


def test_components_minimal_budgets():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 3, 0, [1] * 6, solver)
    assert isinstance(out, PerTauSolution)
    assert out.centers == (0, 2, 3)
    assert out.assignment == {0: 0, 1: 0, 2: 2, 3: 2, 4: 2, 5: 2}


def test_components_surplus_spreads_left_to_right():
    """Budget left over after the least budgets pads the merged set with the
    lowest-index vertices that are not centers yet."""
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 5, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4)
    out = solve_components(g, 6, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4, 5)


def test_components_surplus_larger_than_first_component():
    """Three tiny components, k well above the sum of least budgets: the
    padding spills across components instead of crowding into one."""
    g = ThresholdGraph(6, [(0, 1), (2, 3), (4, 5)])
    solver = make_fake_solver(lambda sub: 1)
    out = solve_components(g, 5, 0, [1] * 6, solver)
    assert out.centers == (0, 1, 2, 3, 4)


def test_components_budget_sum_exceeds_k():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: math.ceil(sub.n / 2))
    out = solve_components(g, 2, 0, [1] * 6, solver)
    assert isinstance(out, PerTauInfeasible)
    # spare = 0 caps the second component at alpha+1 = 1 center, below its 2
    assert out.reason == "component containing vertex 2: no distance-1 solution with budget <= 1"


def test_components_unsolvable_component():
    g = two_plus_four()
    solver = make_fake_solver(lambda sub: sub.n + 1)  # never enough
    out = solve_components(g, 6, 0, [1] * 6, solver)
    assert isinstance(out, PerTauInfeasible)
    assert "component containing vertex 0" in out.reason


def test_components_search_stops_at_the_spare_cap():
    """Each component is tried once per budget, from alpha+1 up to
    alpha+1+spare, where spare is what k leaves after alpha+1 centers per
    component and the earlier components' least budgets."""
    g = ThresholdGraph(9, [(0, 1), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])  # sizes 2, 3, 4
    record = []
    out = solve_components(g, 5, 0, [1] * 9, make_fake_solver(lambda sub: math.ceil(sub.n / 2), record))
    # spare 2: the first takes 1 (spare stays 2), the second 2 (spare 1), the last 2 (spare 0)
    assert record == [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]
    assert out.centers == (0, 2, 3, 5, 6)

    record.clear()  # each component needs all its vertices; k = 4 leaves spare 1
    out = solve_components(g, 4, 0, [1] * 9, make_fake_solver(lambda sub: sub.n, record))
    assert record == [(2, 1), (2, 2), (3, 1)]  # the second is capped at 1 + 0 after the first took 2
    assert out.reason == "component containing vertex 2: no distance-1 solution with budget <= 1"

    record.clear()  # alpha = 1: budgets start at 2, and k = 7 leaves spare 1 over 2 * 3
    out = solve_components(g, 7, 1, [1] * 9, make_fake_solver(lambda sub: sub.n, record))
    assert record == [(2, 2), (3, 2), (3, 3), (4, 2)]
    assert out.reason == "component containing vertex 5: no distance-1 solution with budget <= 2"


def test_components_connected_shortcut_and_budget_search():
    g = path_graph(2)
    record = []
    solver = make_fake_solver(lambda sub: 1, record)
    out = solve_components(g, 2, 0, [1, 1], solver)
    assert record == [(2, 2)]  # one call, full k
    assert out.centers == (0, 1)

    two = ThresholdGraph(4, [(0, 1), (2, 3)])
    record.clear()  # two copies of g: each searched from alpha+1, the rest padded
    out = solve_components(two, 4, 0, [1] * 4, solver)
    assert record == [(2, 1), (2, 1)]
    assert [sol.centers for _, sol in out.scenario.parts] == [(0,), (0,)]
    assert out.centers == (0, 1, 2, 3)

    record.clear()  # no budget up to the first copy's cap, min(1 + 2, 2), solves it
    out = solve_components(two, 4, 0, [1] * 4, make_fake_solver(lambda sub: 3, record))
    assert record == [(2, 1), (2, 2)]
    assert out.reason == "component containing vertex 0: no distance-1 solution with budget <= 2"


def test_pad_centers():
    assert pad_centers({2}, 3, 4) == (0, 1, 2)
    assert pad_centers({3, 1}, 2, 4) == (1, 3)
    with pytest.raises(ContractViolation):
        pad_centers({0, 1, 2}, 2, 4)
    with pytest.raises(ContractViolation):
        pad_centers({0}, 3, 2)


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

    def never(sub, budget, caps, alpha):
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
    """With every capacity zero the k-alpha largest capacities cover no
    client, so the capacity certificate rejects the whole sweep in one
    record at the largest threshold, and no graph is built."""
    inst = MetricInstance.from_points([(0, 0), (1, 0), (3, 0), (7, 0)], 2, 1, [0] * 4)
    res = solve_ft_uniform(inst)
    assert not res.feasible
    assert res.outcome.reasons == [(49, "best 1 surviving capacities cover 0 < 4 clients")]
    assert inst.thresholds_sq()[-1] == 49 and "_grown" not in vars(inst)


@pytest.mark.parametrize(
    "solve, variant",
    [
        (solve_ft_general, "ft"),
        (solve_ft_uniform, "ft"),
        (solve_conservative_uniform, "conservative"),
        (solve_conservative_general, "conservative"),
    ],
    ids=["ft-general", "ft-0l", "cons-0l", "cons-general"],
)
def test_failing_a_padding_center_moves_nobody(solve, variant):
    """Two clusters of three with k = 5, alpha = 1: each cluster's least
    budget is 2, so one center pads the merged set.  Failing it hands each
    component no failure at all, and the base assignment comes back."""
    inst = MetricInstance.from_points(TWO_CLUSTERS, 5, 1, [3] * 6, variant=variant)
    res = solve(inst)
    record = res.outcome.solution.scenario
    assert isinstance(record, MergedComponents)
    owned = {orig[c] for orig, sol in record.parts for c in sol.centers}
    padding = set(res.centers) - owned
    assert len(res.centers) == 5 and len(padding) == 1
    assert res.scenario(padding) == res.assignment
    assert res.verify().ok


@pytest.mark.parametrize(
    "connected, uniform",
    [(ft_general_connected, False), (ft_uniform_connected, True)],
    ids=["ft-general", "ft-0l"],
)
def test_capped_search_matches_an_uncapped_ascending_search(connected, uniform):
    """On random split threshold graphs the capped search gives the verdict
    and the least budgets of a search from alpha+1 up to min(k, n_i) per
    component, and each merged answer passes verification at its stretch."""
    rng = random.Random(f"split/{connected.__name__}")
    split = solved = padded = 0
    for _ in range(12):
        alpha = rng.randint(0, 1)
        clusters = rng.randint(2, 3)
        points = []
        for i in range(clusters):
            points += [(100 * i + rng.randint(0, 4), rng.randint(0, 4)) for _ in range(rng.randint(2, 3))]
        n = len(points)
        k = rng.randint(clusters * (alpha + 1), n)
        caps = [rng.choice((0, 3, 3)) for _ in range(n)] if uniform else [rng.randint(1, 3) for _ in range(n)]
        inst = MetricInstance.from_points(points, k, alpha, caps)
        for tau2 in inst.thresholds_sq():
            G = inst.threshold_graph(tau2)
            comps = (strip_zero_zero_edges(G, caps) if uniform else G).components()
            if not 2 <= len(comps) <= k // (alpha + 1):
                continue
            split += 1
            least = []  # the uncapped ascending search
            for comp in comps:
                sub, orig = G.induced(comp)
                sub = strip_zero_zero_edges(sub, [caps[v] for v in orig]) if uniform else sub
                budgets = range(alpha + 1, min(k, sub.n) + 1)
                least.append(next(
                    (b for b in budgets
                     if isinstance(connected(sub, b, [caps[v] for v in orig], alpha), PerTauSolution)),
                    None,
                ))
            calls = []

            def recording(sub, budget, sub_caps, a):
                out = connected(sub, budget, sub_caps, a)
                calls.append((budget, isinstance(out, PerTauSolution)))
                return out

            out = solve_threshold(G, k, alpha, caps, recording, uniform)
            ok = None not in least and sum(least) <= k
            assert isinstance(out, PerTauSolution) == ok, (points, k, alpha, caps, tau2)
            runs = []  # one ascending run of budgets per component searched
            for budget, won in calls:
                if budget == alpha + 1:
                    runs.append([])
                runs[-1].append((budget, won))
            for run in runs:
                assert [b for b, _ in run] == list(range(alpha + 1, alpha + 1 + len(run)))
                assert not any(won for _, won in run[:-1])
            if not ok:
                continue
            solved += 1
            assert [run[-1][0] for run in runs] == least
            assert len(out.centers) == k
            padded += sum(least) < k
            assert verify_ft(inst, out.centers, Radius(out.stretch, tau2)).ok
    assert split > 20 and solved > 10 and padded > 10, (split, solved, padded)


PIPELINES = [
    (solve_ft_general, ft_general_connected, False, "ft"),
    (solve_ft_uniform, ft_uniform_connected, True, "ft"),
    (solve_conservative_uniform, conservative_uniform_connected, True, "conservative"),
    (solve_conservative_general, conservative_general_connected, False, "conservative"),
]
PIPELINE_IDS = ["ft-general", "ft-0l", "cons-0l", "cons-general"]
STARTS = {"ft-general": ft_general_start}  # every other pipeline starts at certified_start
RECORD_KINDS = {"best": "capacity", "vertex": "vertex", "components": "components", "heads": "head walk"}


def certificate_instance(rng, shape: str, uniform: bool, variant: str) -> MetricInstance:
    """A small random instance of one shape: "few" has 1 to alpha
    positive-capacity vertices, "short" has k-alpha largest capacities
    below n, "split" is two clusters far apart, "walk" is a chain from
    vertex 0 with k // (alpha+1) = 1, and "plain" is random points with the
    usual capacities."""
    n = rng.randint(4, 8)
    alpha = rng.randint(1, 2) if shape == "few" else rng.randint(0, 1)
    top = {"short": max(alpha + 1, n // 2), "walk": 2 * alpha + 1}.get(shape, n)
    k = rng.randint(alpha + 1, top)
    level = rng.randint(1, n)
    if shape == "split":
        points = [(100 * (i % 2) + rng.randrange(4), rng.randrange(4)) for i in range(n)]
    elif shape == "walk":  # steps of 1 to 3: vertex 0 reaches the far end in two hops late
        xs = accumulate(rng.randint(1, 3) for _ in range(n - 1))
        points = [(0, 0)] + [(x, rng.randrange(2)) for x in xs]
    else:
        span = rng.choice((6, 50))
        points = [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]
    if shape == "few":  # one positive vertex covers everyone, so the capacity sum passes
        caps = [0] * n
        for v in rng.sample(range(n), rng.randint(1, alpha)):
            caps[v] = n
    elif shape == "short":
        level = (n - 1) // (k - alpha)
        caps = [level if uniform else rng.randint(0, level) for _ in range(n)]
    else:
        caps = [level if rng.random() < 0.85 else 0 for _ in range(n)] if uniform else [
            rng.randint(0, n) for _ in range(n)
        ]
    return MetricInstance.from_points(points, k, alpha, caps, variant=variant)


@pytest.mark.parametrize("solve, connected, uniform, variant", PIPELINES, ids=PIPELINE_IDS)
def test_certified_start_matches_the_unskipped_sweep(solve, connected, uniform, variant):
    """The certified solve gives the tau*, centers, verdict and last rejected
    threshold of a sweep from index 0 with the same per-threshold solver;
    every skipped index is one that solver rejects; the records are one per
    certificate that moved the start, in tau order, ending at the last
    skipped threshold, and the visits follow them.  Each pipeline is checked
    against its own start: ft-general's also skips the thresholds at which
    vertex 0 does not reach everyone in two hops when k // (alpha+1) = 1,
    and no other pipeline's does."""
    rng = random.Random(f"certified/{variant}/{uniform}")
    kinds = ("capacity", "components", "vertex", "head walk", "everything", "split", "feasible")
    seen = dict.fromkeys(kinds, 0)
    shapes = ("few", "short", "split", "walk", "plain")
    for t in range(40):
        inst = certificate_instance(rng, shapes[t % 5], uniform, variant)
        k, alpha, caps = inst.k, inst.alpha, inst.capacities
        thresholds = inst.thresholds_sq()

        def per_tau(G):
            return solve_threshold(G, k, alpha, caps, connected, uniform)

        ref = sweep(inst, per_tau)
        res = solve(inst)
        start, records = STARTS.get(res.algorithm, certified_start)(inst)
        for i in range(start):
            assert isinstance(per_tau(inst.threshold_graph_at(i)), PerTauInfeasible), (inst, i)
        taus = [tau2 for tau2, _ in records]
        assert taus == sorted(set(taus)) and (not records or taus[-1] == thresholds[start - 1])
        seen["everything"] += start == len(thresholds) and records[-1][1].startswith("vertex ")
        for _, reason in records:
            seen[next(RECORD_KINDS[w] for w in reason.split() if w in RECORD_KINDS)] += 1
        assert res.feasible == isinstance(ref, SweepSuccess), inst
        if res.feasible:
            seen["feasible"] += 1
            seen["split"] += isinstance(res.outcome.solution.scenario, MergedComponents)
            assert res.tau2_star == ref.tau2_star
            assert res.centers == ref.solution.centers
            assert res.outcome.thresholds_tried == ref.thresholds_tried - start
        else:
            assert res.outcome.reasons[-1][0] == ref.reasons[-1][0] == thresholds[-1]
            assert res.outcome.reasons == records + ref.reasons[start:]
    walks = seen.pop("head walk")
    assert walks > 0 if solve is solve_ft_general else walks == 0, walks
    assert all(seen.values()), seen


def test_threshold_graph_at_matches_threshold_graph_in_any_order():
    """Index and value queries share one growing prefix: in a random order
    that goes backwards as well as forwards, each index's graph equals the
    brute-force filter at its threshold and the graph of its threshold
    value, masks, tau2 and component count."""
    rng = random.Random("certified/graph-at")
    for n in (1, 5, 11):
        points = [(rng.randrange(6), rng.randrange(6)) for _ in range(n)]
        inst = MetricInstance.from_points(points, 1, 0, [1] * n)
        thresholds = inst.thresholds_sq()
        order = list(range(len(thresholds))) * 2
        rng.shuffle(order)
        for i in order + [len(thresholds) - 1, 0]:
            G = inst.threshold_graph_at(i)
            assert G.masks == pair_masks(n, brute_threshold_pairs(inst, thresholds[i]))
            H = inst.threshold_graph(thresholds[i])
            assert G.masks == H.masks and G.tau2 == H.tau2 == thresholds[i]
            assert G.component_count() == H.component_count() == len(H.components())


@pytest.mark.parametrize("solve, connected, uniform, variant", PIPELINES, ids=PIPELINE_IDS)
def test_a_solve_does_no_bisect(monkeypatch, solve, connected, uniform, variant):
    """The sweep walks threshold indices, so no solve bisects the Fraction
    thresholds, on a feasible or an infeasible instance."""

    def refuse(*args, **kwargs):
        raise AssertionError("bisect during a solve")

    monkeypatch.setattr(instance, "bisect_right", refuse)
    caps = [3, 3, 0, 3, 3, 3] if uniform else [3, 1, 2, 3, 2, 3]
    for k in (5, 1):
        inst = MetricInstance.from_points(TWO_CLUSTERS, k, k // 4, caps, variant=variant)
        res = solve(inst)
        assert res.feasible == (k == 5)
