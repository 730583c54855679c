"""Conservative solvers: failures only move the clients of failed centers.

Both algorithms pre-open backup sets sized for the failure budget and solve
a residual non-fault-tolerant instance on the remaining capacity.  A failure
scenario is repaired by one seat-keeping capacitated assignment
(`rounding.repair`, augmenting paths): every client of a live center keeps
its seat, and the orphans go to live centers with capacity left, within
seven hops for {0,L} capacities (six to an anchor, one more to its backups)
and within BETA + 6*alpha hops for general ones, where BETA = 9 is the
stretch of the failure-free LP residual solve
(`solvers.ft_general_connected` with alpha = 0).  The repair records
are `ConservativeUniform` and `ConservativeGeneral`; each builds its
clients' within-bound center lists once, from one ball per center, and a
scenario closes the failed centers by giving them no room.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .bottleneck import (
    PerTauInfeasible,
    PerTauSolution,
    SolveResult,
    pad_centers,
    quick_infeasible,
    solve_bottleneck,
    solve_threshold,
)
from .clustering import backup_union, greedy_independent, is_alpha_ell_independent
from .instance import (
    ContractViolation,
    MetricInstance,
    ThresholdGraph,
    failure_set,
    mask_bits,
    uniform_capacity_level,
)
from .rounding import Within, repair
from .solvers import ft_general_connected, ft_uniform_connected

# stretch of the residual solve: the failure-free (alpha = 0) ft-general
# pipeline's base assignment is within nine hops of its center
BETA = 9


# -- {0,L} conservative algorithm -------------------------------------------


def conservative_uniform_connected(graph: ThresholdGraph, k: int, caps, alpha: int):
    """Anchors pairwise seven hops apart, alpha backups near each anchor,
    then a failure-free uniform solve on what remains.

    An anchor's backups are the alpha lowest positive-capacity vertices of
    its closed neighborhood, where `quick_infeasible` leaves more than
    alpha."""
    uniform_capacity_level(caps)
    why = quick_infeasible(graph, k, caps, alpha)
    if why:
        return PerTauInfeasible(why)
    backups = {
        a: tuple(v for v in graph.closed(a) if caps[v] > 0)[:alpha]
        for a in greedy_independent(graph, 7)
    }
    bset = backup_union(backups)
    budget = k - len(bset)
    if budget < 1:
        return PerTauInfeasible(
            f"{len(bset)} backups leave no budget for the residual solve (k={k})"
        )
    inner_caps = [0 if v in bset else caps[v] for v in range(graph.n)]
    inner = solve_threshold(graph, budget, 0, inner_caps, ft_uniform_connected, uniform=True)
    if isinstance(inner, PerTauInfeasible):
        return PerTauInfeasible(f"residual uniform solve: {inner.reason}")
    phi0 = dict(inner.assignment)
    centers = pad_centers(set(inner.centers) | bset, k, graph.n)
    state = ConservativeUniform(graph, caps, phi0, alpha, centers)
    return PerTauSolution(centers, phi0, 7, state)


@dataclass(frozen=True)
class ConservativeUniform:
    """Repair record of the {0,L} conservative pipeline; its capacities
    must be of {0,L} form, checked once at construction."""

    graph: ThresholdGraph
    caps: Sequence[int]
    phi0: dict  # base assignment
    alpha: int
    centers: tuple
    within: Within = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        uniform_capacity_level(self.caps)
        object.__setattr__(self, "within", Within.build(self.graph, self.centers, (7,)))

    def __call__(self, F) -> dict:
        return reassign_uniform(self, F)


def reassign_uniform(state: ConservativeUniform, F) -> dict:
    """Keep every client of a live center in its seat and move the orphans,
    by one capacitated assignment, to live centers within seven hops.

    The analysis's repair is one the assignment may pick: each orphan's
    nearest anchor lies within six hops, and that anchor's backups, one hop
    further, have room for the orphans.
    """
    F = failure_set(F, state.alpha, state.within.centers)
    keep = {u: c for u, c in state.phi0.items() if c not in F}
    return repair(state.within.lists[7], state.caps, F, 7, keep)


def solve_conservative_uniform(inst: MetricInstance) -> SolveResult:
    """{0,L} conservative solver, radius at most 7 * tau*."""
    return solve_bottleneck(
        inst, "cons-0l", "conservative", conservative_uniform_connected, uniform=True
    )


# -- general conservative algorithm ------------------------------------------


def build_backup_set(graph: ThresholdGraph, caps, alpha: int):
    """Grow a backup set until no small vertex set outweighs the backups in
    its 6-hop neighborhood.

    Each candidate U of at most alpha vertices gets its cover, the union of
    its members' 6-ball masks, and its capacity once per call; a round
    scans the candidates in sorted order and takes the first of largest
    positive deficit, cap(U) minus the capacity of the backups in its
    cover.  B is a vertex mask.  Returns (B, trace); the trace records each
    chosen set and the running backup capacity, which strictly increases,
    bounding the loop.
    """
    n = graph.n
    n6 = [graph.balls(v, 6)[6] for v in range(n)]
    candidates = []  # (U, cap(U), cover of U)
    for U in sorted(U for size in range(1, alpha + 1) for U in combinations(range(n), size)):
        cover = 0
        for v in U:
            cover |= n6[v]
        candidates.append((U, sum(caps[v] for v in U), cover))
    B = 0
    trace = []
    cap_b = 0
    while True:
        best = None
        for U, cap_u, cover in candidates:
            deficit = cap_u - sum(caps[b] for b in mask_bits(B & cover))
            if deficit > 0 and (best is None or deficit > best[0]):
                best = (deficit, U, cover)
        if best is None:
            break
        _, U, cover = best
        B = B & ~cover | sum(1 << v for v in U)
        new_cap = sum(caps[b] for b in mask_bits(B))
        if new_cap <= cap_b:
            raise ContractViolation("backup capacity did not increase")
        cap_b = new_cap
        trace.append((U, new_cap))
        if len(trace) > n * n + 1:
            raise ContractViolation("backup loop exceeded its iteration bound")
    return frozenset(mask_bits(B)), trace


def conservative_general_connected(graph: ThresholdGraph, k: int, caps, alpha: int):
    """Backup loop plus a failure-free LP residual solve of stretch BETA."""
    capped = [min(c, graph.n) for c in caps]
    why = quick_infeasible(graph, k, capped, alpha)
    if why:
        return PerTauInfeasible(why)
    B, _ = build_backup_set(graph, capped, alpha)
    if not is_alpha_ell_independent(graph, B, alpha, 6):
        raise ContractViolation("backup set is not (alpha,6)-independent")
    budget = k - len(B)
    if budget < 1:
        return PerTauInfeasible(
            f"{len(B)} backups leave no budget for the residual solve (k={k})"
        )
    inner_caps = [0 if v in B else capped[v] for v in range(graph.n)]
    inner = ft_general_connected(graph, budget, inner_caps, 0)
    if isinstance(inner, PerTauInfeasible):
        return PerTauInfeasible(f"residual solve: {inner.reason}")
    phi0 = dict(inner.assignment)
    centers = pad_centers(set(inner.centers) | B, k, graph.n)
    state = ConservativeGeneral(graph, capped, B, phi0, alpha, centers)
    return PerTauSolution(centers, phi0, BETA + 6 * alpha, state)


@dataclass(frozen=True)
class ConservativeGeneral:
    """Repair record of the general conservative pipeline."""

    graph: ThresholdGraph
    caps: Sequence[int]  # capacities capped at n
    B: frozenset  # the pre-opened backup set
    phi0: dict  # base assignment
    alpha: int
    centers: tuple
    within: Within = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bound = BETA + 6 * self.alpha
        object.__setattr__(self, "within", Within.build(self.graph, self.centers, (bound,)))

    def __call__(self, F) -> dict:
        return reassign_flow(self, F)


def reassign_flow(state: ConservativeGeneral, F) -> dict:
    """Keep every client of a live center in its seat and move the orphans,
    by one capacitated assignment on the capped capacities, to live centers
    within BETA + 6*alpha hops.

    The analysis's repair is one the assignment may pick: each client sits
    within BETA hops of its base center, and the backup loop leaves the
    orphans room at live backups within 6*alpha hops of their failed
    centers, reached through chains of failed backups six hops per link.
    """
    F = failure_set(F, state.alpha, state.within.centers)
    keep = {u: c for u, c in state.phi0.items() if c not in F}
    bound = BETA + 6 * state.alpha
    return repair(state.within.lists[bound], state.caps, F, bound, keep)


def solve_conservative_general(inst: MetricInstance) -> SolveResult:
    """General conservative solver, radius at most (BETA + 6*alpha) * tau*."""
    return solve_bottleneck(
        inst, "cons-general", "conservative", conservative_general_connected
    )
