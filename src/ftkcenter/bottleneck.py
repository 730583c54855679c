"""Threshold sweep and per-component budget allocation.

The sweep walks the indices of the sorted distinct distances from below and
returns the first threshold whose unweighted solver succeeds; success is not
monotone in the threshold, so no bisection here.  A pipeline's sweep starts
at `certified_start`: three exact certificates (a capacity sum, the
component counts, and the reach to alpha+1 positive-capacity vertices),
computed once per solve, reject a prefix of the thresholds without a graph
or a solver call, and each adds one record to the reasons.  A pipeline
whose own solver rejects a longer prefix passes `solve_bottleneck` a start
of its own (`solvers.ft_general_start`).

On a disconnected threshold graph each component gets its own least budget
(a component can never borrow service across components), the
per-component solutions merge into one, and `pad_centers` fills the merged
center set up to k with centers that serve nobody.  All four solvers run
through `solve_bottleneck`; they differ only in the connected-graph solver.

A solution's `scenario` is its pipeline's repair record, called with a
failure set; a merged solution's is `MergedComponents`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
from .verify import verify_conservative, verify_ft


@dataclass
class PerTauSolution:
    """A distance-1 style solution of one threshold graph."""

    centers: tuple  # sorted vertex ids, exactly the budget many, padded ones included
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
    capacities must cover all n clients.
    """
    n = graph.n
    positive = sum(1 << u for u, c in enumerate(caps) if c > 0)
    for v, mask in enumerate(graph.masks):
        good = ((mask | 1 << v) & positive).bit_count()
        if good <= alpha:
            return (
                f"vertex {v} has {good} positive-capacity neighbors, needs alpha+1={alpha + 1}"
            )
    top = sum(sorted(caps, reverse=True)[: max(k - alpha, 0)])
    if top < n:
        return _short_capacity(k, alpha, top, n)
    return None


def _short_capacity(k: int, alpha: int, top: int, n: int) -> str:
    return f"best {k - alpha} surviving capacities cover {top} < {n} clients"


def _too_many_components(count: int, k: int, alpha: int) -> str:
    return f"{count} components need alpha+1={alpha + 1} centers each, more than k = {k}"


def solve_components(
    graph: ThresholdGraph,
    k: int,
    alpha: int,
    caps: Sequence[int],
    connected: Callable,
):
    """Run `connected(sub, budget, caps, alpha)` per component at its least
    budget, and pad the merged center set to k.

    `connected` must return PerTauSolution or PerTauInfeasible.  Each
    component must tolerate alpha failures on its own, so budgets below
    alpha+1 are never tried, and more than k // (alpha+1) components are
    rejected without calling the solver.  Of the k centers, alpha+1 per
    component are committed up front; the `spare` rest is what a component
    may add to alpha+1, so each is searched upwards to alpha+1+spare (and
    its vertex count), and its least budget takes its share off `spare`.
    Whatever is left over pads the merged set with centers that serve
    nobody: failing one is weaker than failing a center that serves clients.

    The component count comes from `graph.component_count()`, which a
    threshold graph reads off the instance's ranking: a connected graph
    goes straight to the solver with budget k, and the components are
    listed only when there are between 2 and k // (alpha+1) of them.
    """
    count = graph.component_count()
    if count == 1:
        return connected(graph, k, list(caps), alpha)
    if count > k // (alpha + 1):
        return PerTauInfeasible(_too_many_components(count, k, alpha))

    spare = k - (alpha + 1) * count
    parts = []
    for comp in graph.components():
        sub, orig = graph.induced(comp)
        sub_caps = [caps[v] for v in orig]
        cap = min(alpha + 1 + spare, sub.n)
        for budget in range(alpha + 1, cap + 1):
            out = connected(sub, budget, sub_caps, alpha)
            if isinstance(out, PerTauSolution):
                break
        else:
            return PerTauInfeasible(
                f"component containing vertex {comp[0]}: no distance-1 solution with budget <= {cap}"
            )
        spare -= budget - (alpha + 1)
        parts.append((orig, out))
    return _merge(parts, k, graph.n, alpha)


def pad_centers(centers, k: int, n: int) -> tuple:
    """Extend a center set to exactly k with lowest-index unused vertices."""
    have = set(centers)
    if len(have) > k:
        raise ContractViolation("more centers than the budget")
    free = [v for v in range(n) if v not in have]
    if len(have) + len(free) < k:
        raise ContractViolation("cannot pad centers to k")
    return tuple(sorted(have.union(free[: k - len(have)])))


@dataclass(frozen=True)
class MergedComponents:
    """Repair record of a threshold graph solved per component: each
    component's record repairs the failed centers it owns, and a failed
    padding center moves nobody."""

    centers: frozenset  # every component's centers and the padding, global ids
    parts: tuple  # (orig, PerTauSolution) per component; orig[local id] = global id
    alpha: int

    def __call__(self, F) -> dict:
        F = failure_set(F, self.alpha, self.centers)
        out = {}
        for orig, sol in self.parts:
            phi = sol.scenario([c for c in sol.centers if orig[c] in F])
            out.update((orig[u], orig[c]) for u, c in phi.items())
        return out


def _merge(parts, k: int, n: int, alpha: int):
    """One solution of all n vertices from the (orig, solution) parts, its
    centers padded to k."""
    centers = pad_centers((orig[c] for orig, sol in parts for c in sol.centers), k, n)
    assignment = {orig[u]: orig[c] for orig, sol in parts for u, c in sol.assignment.items()}
    stretch = max(sol.stretch for _, sol in parts)
    record = MergedComponents(frozenset(centers), tuple(parts), alpha)
    return PerTauSolution(centers, assignment, stretch, record)


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

    reasons: list  # (tau2, reason) per certified skip, then per threshold visited, in tau order


def sweep(inst: MetricInstance, per_tau_solver: Callable, certified=(0, ())):
    """First threshold (in increasing order) whose solver succeeds.

    The winning threshold is a lower bound on the optimal radius: the solver
    only succeeds when a distance-1-style solution of the threshold graph
    exists, and it certifies infeasibility otherwise.  The walk runs over
    threshold indices from `certified`'s start, the pipeline's certified
    start (`solve_bottleneck`) and index 0 by default, and the certificate
    records open the reasons.  `thresholds_tried` counts solver calls.
    """
    start, skipped = certified
    reasons = list(skipped)
    thresholds = inst.thresholds_sq()
    for i in range(start, len(thresholds)):
        out = per_tau_solver(inst.threshold_graph_at(i))
        if isinstance(out, PerTauSolution):
            return SweepSuccess(thresholds[i], out, i - start + 1)
        reasons.append((thresholds[i], out.reason))
    return SweepInfeasible(reasons)


def certified_start(inst: MetricInstance) -> tuple[int, list]:
    """The first threshold index that no certificate rejects, and one
    (tau2, reason) record per certificate that moves the start there: tau2
    is the last threshold the certificate skips, the reason the wording of
    the check it stands for.

    Each certificate rejects a threshold only where every pipeline's
    `solve_threshold` rejects it too, so the sweep's answer is unchanged:
    - Capacity.  When the k-alpha largest capacities sum to less than n,
      every threshold fails.  A connected graph fails the capacity check of
      `quick_infeasible`, which all four connected solvers run first (the
      general conservative one on capacities capped at n, which sum to no
      more).  On a split graph each component runs it at its budget b_i;
      the budgets sum to at most k, so the components' top b_i - alpha
      sets together have at most k - alpha members, cannot cover all n
      clients, and the components cannot all pass it.
    - Components.  `counts[i]` does not increase with i, and
      `solve_components` rejects more than k // (alpha+1) components.
      Stripping 0-0 edges, in the {0,L} pipelines, only adds components.
    - Positive neighbors.  `quick_infeasible` rejects a graph in which a
      vertex has at most alpha positive-capacity vertices in its closed
      neighborhood, and a component's closed neighborhoods are those of
      the whole graph.  Stripping keeps every edge to a positive vertex.
      So tau2 must reach the largest, over v, of the (alpha+1)-th smallest
      squared distance from v to a positive vertex (`reach_index`).
    Success is not monotone in tau, so nothing past the start is skipped.
    """
    thresholds = inst.thresholds_sq()
    n, k, alpha, caps = inst.n, inst.k, inst.alpha, inst.capacities
    top = sum(sorted(caps, reverse=True)[: k - alpha])
    if top < n:
        return len(thresholds), [(thresholds[-1], _short_capacity(k, alpha, top, n))]
    counts = inst.component_counts()
    start = next(i for i, count in enumerate(counts) if count <= k // (alpha + 1))
    records = []
    if start:
        records.append((thresholds[start - 1], _too_many_components(counts[start - 1], k, alpha)))
    reach = inst.reach_index([u for u, c in enumerate(caps) if c > 0], alpha + 1)
    if reach > start:
        start = reach
        why = quick_infeasible(inst.threshold_graph_at(start - 1), k, caps, alpha)
        if why is None:
            raise ContractViolation("the quick check passes a threshold below the positive reach")
        records.append((thresholds[start - 1], why))
    return start, records


def solve_threshold(
    graph: ThresholdGraph, k: int, alpha: int, caps, connected: Callable, uniform: bool
):
    """One threshold of a pipeline: `connected(sub, budget, caps, alpha)` per
    component, after stripping 0-0 edges for {0,L} pipelines."""
    if uniform:
        graph = strip_zero_zero_edges(graph, caps)
    return solve_components(graph, k, alpha, caps, connected)


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
    inst: MetricInstance,
    name: str,
    variant: str,
    connected: Callable,
    uniform: bool = False,
    certify: Callable = certified_start,
) -> SolveResult:
    """Sweep `inst` with `connected(graph, budget, caps, alpha)` as the
    distance-1 solver of each threshold-graph component.

    `uniform` marks a {0,L} pipeline: the capacities must have that form, and
    0-0 edges are stripped at every threshold.  The sweep starts at
    `certify(inst)`, a (start, records) pair: `certified_start` unless the
    pipeline's own solver rejects more.
    """
    if inst.variant != variant:
        raise InstanceError(f"{name} solves the {variant!r} variant, instance is {inst.variant!r}")
    if uniform:
        uniform_capacity_level(inst.capacities)
    outcome = sweep(
        inst,
        lambda G: solve_threshold(G, inst.k, inst.alpha, inst.capacities, connected, uniform),
        certify(inst),
    )
    return SolveResult(name, inst, outcome)
