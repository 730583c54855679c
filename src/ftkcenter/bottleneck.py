"""Threshold sweep and per-component budget allocation.

The sweep walks the sorted distinct distances from below and returns the
first threshold whose unweighted solver succeeds; success is not monotone in
the threshold, so no bisection here.  On a disconnected threshold graph each
component gets its own minimal budget (a component can never borrow service
across components), the leftovers go to the components in order, and the
per-component solutions merge into one.  All four solvers run through
`solve_bottleneck`; they differ only in the connected-graph solver.

A solution's `scenario` is its pipeline's repair record, called with a
failure set; a merged solution's is `MergedComponents`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .instance import (
    ContractViolation,
    InstanceError,
    MetricInstance,
    Radius,
    ThresholdGraph,
    failure_set,
    strip_zero_zero_edges,
    uniform_capacity_level,
)
from .oracle import verify_conservative, verify_ft


@dataclass
class PerTauSolution:
    """A distance-1 style solution of one threshold graph."""

    centers: tuple  # sorted vertex ids, exactly the budget many
    assignment: dict  # initial client -> center map
    stretch: int  # hop bound honored by assignments (7, 6, 10, or beta+6*alpha)
    scenario: Callable  # repair record: failure set -> full assignment avoiding it


@dataclass
class PerTauInfeasible:
    reason: str


def quick_infeasible(graph: ThresholdGraph, k: int, caps: Sequence[int], alpha: int):
    """Cheap sound certificates that no distance-1 solution exists.

    Every vertex needs more than alpha positive-capacity vertices in its
    closed neighborhood (an adversary removes alpha), and the k-alpha largest
    capacities must cover all n clients.  Neither the positive-capacity mask
    nor that sum depends on the threshold, so `_capacity_profile` computes
    them once for each capacity list and k-alpha that a sweep passes.
    """
    n = graph.n
    positive, top = _capacity_profile(tuple(caps), max(k - alpha, 0))
    for v, mask in enumerate(graph.masks):
        good = ((mask | 1 << v) & positive).bit_count()
        if good <= alpha:
            return (
                f"vertex {v} has {good} positive-capacity neighbors, needs alpha+1={alpha + 1}"
            )
    if top < n:
        return (
            f"best {k - alpha} surviving capacities cover {top} < {n} clients"
        )
    return None


@lru_cache(maxsize=64)
def _capacity_profile(caps: tuple, survivors: int) -> tuple[int, int]:
    """The bitmask of the positive-capacity vertices, and the sum of the
    `survivors` largest capacities."""
    positive = 0
    for u, c in enumerate(caps):
        if c > 0:
            positive |= 1 << u
    return positive, sum(sorted(caps, reverse=True)[:survivors])


def solve_components(
    graph: ThresholdGraph,
    k: int,
    alpha: int,
    caps: Sequence[int],
    solver: Callable,
):
    """Run a connected-graph solver per component with minimal budgets.

    `solver(subgraph, budget, caps)` must return PerTauSolution or
    PerTauInfeasible.  Each component must tolerate alpha failures on its
    own, so budgets below alpha+1 are never tried, and more than
    k // (alpha+1) components are rejected without calling the solver; any
    surplus goes to the components in order, where success is guaranteed
    by budget monotonicity.

    The component count comes from `graph.component_count()`, which a
    threshold graph reads off the instance's ranking: a connected graph
    goes straight to the solver with budget k, and the components are
    listed only when there are between 2 and k // (alpha+1) of them.
    """
    count = graph.component_count()
    if count == 1:
        return solver(graph, k, list(caps))
    if count > k // (alpha + 1):
        return PerTauInfeasible(
            f"{count} components need alpha+1={alpha + 1} centers each, more than k = {k}"
        )

    picked = []
    total = 0
    for comp in graph.components():
        sub, orig = graph.induced(comp)
        sub_caps = [caps[v] for v in orig]
        hi = min(k, sub.n)
        found = _least_budget(sub, sub_caps, solver, alpha + 1, hi)
        if found is None:
            return PerTauInfeasible(
                f"component containing vertex {comp[0]}: no distance-1 solution with budget <= {hi}"
            )
        picked.append([sub, sub_caps, orig, *found])
        total += found[0]
    if total > k:
        return PerTauInfeasible(
            f"component budgets sum to {total} > k = {k}"
        )
    surplus = k - total
    for entry in picked:
        if surplus == 0:
            break
        sub, sub_caps, _, budget, _ = entry
        extra = min(surplus, sub.n - budget)  # a component holds at most n centers
        if extra == 0:
            continue
        out = solver(sub, budget + extra, sub_caps)
        if not isinstance(out, PerTauSolution):
            raise ContractViolation(
                "solver succeeded at a budget but failed at a larger one"
            )
        entry[3:] = budget + extra, out
        surplus -= extra
    if surplus:
        raise ContractViolation("surplus centers exceed the total vertex count")
    return _merge(picked, alpha)


def _least_budget(sub: ThresholdGraph, sub_caps, solver: Callable, lo: int, hi: int):
    """(budget, solution) for the least budget in lo..hi at which `solver`
    succeeds on the component `sub`, or None.  `solve_components` calls it
    once per component to search the minimal budget."""
    for budget in range(lo, hi + 1):
        out = solver(sub, budget, sub_caps)
        if isinstance(out, PerTauSolution):
            return budget, out
    return None


@dataclass(frozen=True)
class MergedComponents:
    """Repair record of a threshold graph solved per component: a failure set
    is split by component and repaired by each component's own record."""

    centers: frozenset  # every component's centers, global ids
    parts: tuple  # (orig, PerTauSolution) per component; orig[local id] = global id
    alpha: int

    def __call__(self, F) -> dict:
        F = failure_set(F, self.alpha, self.centers)
        out = {}
        for orig, sol in self.parts:
            phi = sol.scenario([local for local, glob in enumerate(orig) if glob in F])
            out.update((orig[u], orig[c]) for u, c in phi.items())
        return out


def _merge(picked, alpha: int):
    centers = []
    assignment = {}
    stretch = 0
    parts = []
    for _, _, orig, _, sol in picked:
        centers.extend(orig[c] for c in sol.centers)
        assignment.update((orig[u], orig[c]) for u, c in sol.assignment.items())
        stretch = max(stretch, sol.stretch)
        parts.append((orig, sol))
    record = MergedComponents(frozenset(centers), tuple(parts), alpha)
    return PerTauSolution(tuple(sorted(centers)), assignment, stretch, record)


@dataclass
class SweepSuccess:
    tau2_star: Fraction
    solution: PerTauSolution
    thresholds_tried: int

    def radius(self) -> Radius:
        return Radius(self.solution.stretch, self.tau2_star)


@dataclass
class SweepInfeasible:
    """Every threshold failed; the instance is infeasible outright."""

    reasons: list  # (tau2, reason) per threshold, in sweep order

    @property
    def final_reason(self) -> str:
        return self.reasons[-1][1]


def sweep(inst: MetricInstance, per_tau_solver: Callable):
    """First threshold (in increasing order) whose solver succeeds.

    The winning threshold is a lower bound on the optimal radius: the solver
    only succeeds when a distance-1-style solution of the threshold graph
    exists, and it certifies infeasibility otherwise.
    """
    reasons = []
    for tau2 in inst.thresholds_sq():
        G = inst.threshold_graph(tau2)
        out = per_tau_solver(G)
        if isinstance(out, PerTauSolution):
            return SweepSuccess(tau2, out, len(reasons) + 1)
        reasons.append((tau2, out.reason))
    return SweepInfeasible(reasons)


def solve_threshold(
    graph: ThresholdGraph, k: int, alpha: int, caps, connected: Callable, uniform: bool
):
    """One threshold of a pipeline: `connected(sub, budget, caps, alpha)` per
    component, after stripping 0-0 edges for {0,L} pipelines."""
    if uniform:
        graph = strip_zero_zero_edges(graph, caps)
    return solve_components(
        graph, k, alpha, caps, lambda sub, budget, sub_caps: connected(sub, budget, sub_caps, alpha)
    )


@dataclass
class SolveResult:
    algorithm: str
    instance: MetricInstance
    outcome: object  # SweepSuccess | SweepInfeasible

    @property
    def feasible(self) -> bool:
        return isinstance(self.outcome, SweepSuccess)

    @property
    def tau2_star(self):
        return self.outcome.tau2_star if self.feasible else None

    @property
    def centers(self):
        return self.outcome.solution.centers if self.feasible else None

    @property
    def assignment(self):
        return self.outcome.solution.assignment if self.feasible else None

    @property
    def stretch(self):
        return self.outcome.solution.stretch if self.feasible else None

    def radius(self) -> Radius:
        if not self.feasible:
            raise InstanceError("no radius: instance certified infeasible")
        return self.outcome.radius()

    def verify(self):
        """The independent verifier's report at `radius()`: `verify_conservative`
        with the base assignment on conservative instances, else `verify_ft`."""
        radius = self.radius()
        if self.instance.variant == "conservative":
            return verify_conservative(self.instance, self.centers, self.assignment, radius)
        return verify_ft(self.instance, self.centers, radius)

    def scenario(self, F):
        if not self.feasible:
            raise InstanceError("no solution to fail centers in")
        return self.outcome.solution.scenario(F)


def solve_bottleneck(
    inst: MetricInstance, name: str, variant: str, connected: Callable, uniform: bool = False
) -> SolveResult:
    """Sweep `inst` with `connected(graph, budget, caps, alpha)` as the
    distance-1 solver of each threshold-graph component.

    `uniform` marks a {0,L} pipeline: the capacities must have that form, and
    0-0 edges are stripped at every threshold.
    """
    if inst.variant != variant:
        raise InstanceError(f"{name} solves the {variant!r} variant, instance is {inst.variant!r}")
    if uniform:
        uniform_capacity_level(inst.capacities)
    outcome = sweep(
        inst, lambda G: solve_threshold(G, inst.k, inst.alpha, inst.capacities, connected, uniform)
    )
    return SolveResult(name, inst, outcome)
