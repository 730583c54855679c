"""End-to-end fault-tolerant solvers built on the threshold sweep.

Two pipelines: the general-capacity one (clustered LP with scenario cuts,
distance-8 transfer rounding, nine- or ten-hop scenario assignments) and the
uniform-capacity one for {0,L} instances (direct LP with scenario-free
rows plus Hall cuts, distance-5 transfer, six-hop assignments for any
number of failures below k).  Their repair records are
`rounding.GeneralRounding` and `rounding.UniformRounding`.
"""

from __future__ import annotations

from functools import partial

from .bottleneck import (
    PerTauInfeasible,
    PerTauSolution,
    SolveResult,
    certified_start,
    quick_infeasible,
    solve_bottleneck,
)
from .clustering import backup_union, build_gprime, monarch_clustering, select_backups
from .instance import InstanceError, MetricInstance, ThresholdGraph
from .lp import (
    general_network,
    lp_general_static,
    lp_uniform_static,
    separate_general,
    separate_uniform,
    solve_cutting_plane,
    static_general_infeasible,
    uniform_network,
)
from .rounding import (
    GeneralRounding,
    UniformRounding,
    round_general,
    round_uniform,
)

DEFAULT_ALPHA_BOUND = 3


def ft_general_connected(graph: ThresholdGraph, k: int, caps, alpha: int):
    """Distance-1 solver for connected graphs with arbitrary capacities.

    The clustering stops once it has more than k // (alpha+1) heads.  The
    heads' closed neighborhoods are disjoint, and a distance-1 solution
    needs alpha+1 centers in each, so such a threshold is infeasible.
    Backup selection or the static count would reject it after a full
    clustering anyway (|B| = alpha * #heads whenever the backups exist), so
    the cap changes only the reason.

    The static rows of the clustered LP are decided by a count before G' is
    built or the simplex runs: the heads' closed neighborhoods are disjoint,
    so `static_general_infeasible` rejects exactly the thresholds whose
    static system is infeasible.  Cuts only add rows, so each threshold it
    rejects the cutting-plane LP would reject as well.
    """
    why = quick_infeasible(graph, k, caps, alpha)
    if why:
        return PerTauInfeasible(why)
    cl = monarch_clustering(graph, k // (alpha + 1))
    if cl is None:
        return PerTauInfeasible(_too_many_heads(k, alpha))
    backups, why = select_backups(cl, caps, alpha)
    if backups is None:
        return PerTauInfeasible(why)
    bset = backup_union(backups)
    why = static_general_infeasible(graph, k, cl, bset)
    if why:
        return PerTauInfeasible(why)
    gp = build_gprime(graph, cl, backups)
    lp = lp_general_static(graph, k, cl, bset)
    network = general_network(gp)  # one network for every round at this threshold
    y, _ = solve_cutting_plane(
        lp, partial(separate_general, network=network, backup_set=bset, alpha=alpha, capacities=caps)
    )
    if y is None:
        return PerTauInfeasible(
            "LP with scenario cuts is infeasible: no distance-1 solution"
        )
    rr = round_general(y, graph, cl, backups, caps)
    state = GeneralRounding(graph, list(caps), backups, rr, alpha)
    return PerTauSolution(tuple(rr.R), state(frozenset()), 10, state)


def _too_many_heads(k: int, alpha: int) -> str:
    cap = k // (alpha + 1)
    return (
        f"{cap + 1} heads exceed k // (alpha+1) = {k} // {alpha + 1} = {cap}: their "
        "closed neighborhoods are disjoint and need alpha+1 centers each"
    )


def ft_general_start(inst: MetricInstance) -> tuple[int, list]:
    """`certified_start`, moved on to `inst.two_hop_index(0)` when
    k // (alpha+1) = 1, with one record at the last threshold it skips.

    With one head allowed, every threshold below that index is rejected by
    the ft-general pipeline: some vertex there is three or more hops from
    vertex 0, or cannot reach it.  A split graph has more than
    k // (alpha+1) = 1 component, which `solve_components` rejects.  A
    connected graph goes to `ft_general_connected` at budget k, where
    `monarch_clustering(graph, 1)` starts at head 0, finds a vertex exactly
    three hops from it and returns None, unless `quick_infeasible` has
    rejected the graph first.  From `certified_start` on, every graph is
    connected (it has at most k // (alpha+1) = 1 component) and passes
    `quick_infeasible`, whose checks the capacity and reach certificates
    cover, so the head cap is the reason of every threshold skipped here.

    The other pipelines never run the capped walk and keep
    `certified_start`: the ft-0l LP, for one, can pass a threshold with two
    disjoint closed neighborhoods when k = 2*alpha + 1 and L >= 2.
    """
    start, records = certified_start(inst)
    if inst.k // (inst.alpha + 1) == 1:
        walk = inst.two_hop_index(0)
        if walk > start:
            records.append((inst.thresholds_sq()[walk - 1], _too_many_heads(inst.k, inst.alpha)))
            start = walk
    return start, records


def ft_uniform_connected(graph: ThresholdGraph, k: int, caps, alpha: int):
    """Distance-1 solver for connected {0,L} graphs (0-0 edges pre-stripped)."""
    why = quick_infeasible(graph, k, caps, alpha)
    if why:
        return PerTauInfeasible(why)
    lp = lp_uniform_static(graph, k, caps)
    network = uniform_network(graph, caps)  # one network for every round at this threshold
    y, _ = solve_cutting_plane(
        lp, partial(separate_uniform, network=network, capacities=caps, alpha=alpha)
    )
    if y is None:
        return PerTauInfeasible(
            "uniform LP with Hall cuts is infeasible: no distance-1 solution"
        )
    R = round_uniform(y, graph, k, caps)
    state = UniformRounding(graph, caps, R, y, alpha)
    return PerTauSolution(R, state(frozenset()), 6, state)


def solve_ft_general(
    inst: MetricInstance, alpha_bound: int = DEFAULT_ALPHA_BOUND
) -> SolveResult:
    """General-capacity fault-tolerant solver, radius at most 10 * tau*."""
    if inst.variant == "ft" and inst.alpha > alpha_bound:  # a variant error comes first
        raise InstanceError(
            f"alpha={inst.alpha} exceeds the scenario-enumeration bound {alpha_bound}; "
            "use the uniform-capacity path or a conservative algorithm, or raise the bound"
        )
    return solve_bottleneck(
        inst, "ft-general", "ft", ft_general_connected, certify=ft_general_start
    )


def solve_ft_uniform(inst: MetricInstance) -> SolveResult:
    """{0,L}-capacity fault-tolerant solver, radius at most 6 * tau*."""
    return solve_bottleneck(inst, "ft-0l", "ft", ft_uniform_connected, uniform=True)
