"""Ground-truth tools: exhaustive optimum search on small instances, the
exhaustive transfer-condition oracle, the relaxed-ILP check and the
unbounded integrality-gap family, and the random point instances that
`ftkc bench` draws.  The exhaustive searches check candidate solutions with
the verifiers of `verify`.

The exhaustive searches are exponential by design; they exist to certify the
approximation factors of the polynomial algorithms on small inputs, so they
refuse anything large unless explicitly overridden.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .flow import TransportNetwork, capacitated_assignment
from .instance import (
    InstanceError,
    MetricInstance,
    Radius,
    SizeLimitError,
    ThresholdGraph,
)
from .verify import verify_conservative, verify_ft


# -- exhaustive optima -------------------------------------------------------


def _covers_enough(inst: MetricInstance, S, tau2) -> bool:
    """Necessary: alpha+1 positive-capacity centers within tau of everyone."""
    need = inst.alpha + 1
    for u in range(inst.n):
        hits = 0
        for c in S:
            if inst.capacities[c] > 0 and inst.d2[u][c] <= tau2:
                hits += 1
                if hits >= need:
                    break
        if hits < need:
            return False
    return True


def _capacity_enough(inst: MetricInstance, S) -> bool:
    caps = sorted((inst.capacities[c] for c in S), reverse=True)
    return sum(caps[: len(S) - inst.alpha]) >= inst.n


def ft_feasible_at(inst: MetricInstance, tau2) -> Optional[tuple]:
    """Some size-k center set surviving every scenario at radius tau, or None."""
    r = Radius(1, tau2)
    for S in combinations(range(inst.n), inst.k):
        if not _capacity_enough(inst, S):
            continue
        if not _covers_enough(inst, S, tau2):
            continue
        if verify_ft(inst, S, r).ok:
            return S
    return None


def _phi_search(inst: MetricInstance, S, tau2):
    """Lowest-index-first search over base assignments, checking each complete
    one with `verify_conservative`.  Returns a working phi0 or None."""
    n = inst.n
    r = Radius(1, tau2)
    options = []
    for u in range(n):
        opts = [c for c in S if inst.d2[u][c] <= tau2]
        if not opts:
            return None
        options.append(opts)
    load = {c: 0 for c in S}
    phi = {}

    def rec(u: int):
        if u == n:
            return verify_conservative(inst, S, phi, r).ok
        for c in options[u]:
            if load[c] < inst.capacities[c]:
                phi[u] = c
                load[c] += 1
                if rec(u + 1):
                    return True
                load[c] -= 1
                del phi[u]
        return False

    if rec(0):
        return dict(phi)
    return None


def conservative_feasible_at(inst: MetricInstance, tau2) -> Optional[tuple]:
    """Some (centers, phi0) surviving every scenario conservatively, or None."""
    for S in combinations(range(inst.n), inst.k):
        if not _capacity_enough(inst, S):
            continue
        if not _covers_enough(inst, S, tau2):
            continue
        if verify_ft(inst, S, Radius(1, tau2)).ok is False:
            continue  # conservative solutions are in particular fault-tolerant
        phi0 = _phi_search(inst, S, tau2)
        if phi0 is not None:
            return S, phi0
    return None


def _binary_search_opt(inst: MetricInstance, feasible_at):
    taus = inst.thresholds_sq()
    best = feasible_at(inst, taus[-1])
    if best is None:
        return None, None
    lo, hi = 0, len(taus) - 1  # hi is feasible
    while lo < hi:
        mid = (lo + hi) // 2
        wit = feasible_at(inst, taus[mid])
        if wit is None:
            lo = mid + 1
        else:
            hi = mid
            best = wit
    return taus[hi], best


def exact_opt_ft(inst: MetricInstance, max_n: int = 10, max_alpha: int = 3):
    """Smallest threshold with a fault-tolerant solution, by exhaustive search.

    Feasibility is monotone in the threshold, so a binary search over the
    distinct distances is sound.  Returns (opt_sq, witness_centers) or
    (None, None) when no size-k set works even on the complete graph.
    """
    if inst.n > max_n:
        raise SizeLimitError(f"n={inst.n} exceeds max_n={max_n}")
    if inst.alpha > max_alpha:
        raise SizeLimitError(f"alpha={inst.alpha} exceeds max_alpha={max_alpha}")
    return _binary_search_opt(inst, ft_feasible_at)


def exact_opt_conservative(
    inst: MetricInstance, max_n: int = 8, max_k: int = 4, max_alpha: int = 2
):
    """Smallest threshold with a conservative solution, exhaustively.

    Returns (opt_sq, (centers, phi0)) or (None, None).
    """
    if inst.n > max_n:
        raise SizeLimitError(f"n={inst.n} exceeds max_n={max_n}")
    if inst.k > max_k:
        raise SizeLimitError(f"k={inst.k} exceeds max_k={max_k}")
    if inst.alpha > max_alpha:
        raise SizeLimitError(f"alpha={inst.alpha} exceeds max_alpha={max_alpha}")
    return _binary_search_opt(inst, conservative_feasible_at)


def exact_opt(inst: MetricInstance):
    """The exhaustive optimum of the instance's variant, at the default caps."""
    if inst.variant == "conservative":
        return exact_opt_conservative(inst)
    return exact_opt_ft(inst)


def exact_distance1(graph: ThresholdGraph, k: int, caps: Sequence[int]):
    """A size-k set serving every vertex from its closed neighborhood, or None.

    Exhaustive; a test oracle, the residual of the 1 + 6*alpha cross-check
    of the general conservative pipeline, and never run by a solver.
    """
    if k > graph.n:
        return None
    balls = [graph.closed(u) for u in range(graph.n)]
    for S in combinations(range(graph.n), k):
        sset = set(S)
        allowed = {u: [c for c in balls[u] if c in sset] for u in range(graph.n)}
        phi, _ = capacitated_assignment(
            list(range(graph.n)), list(S), allowed, {c: caps[c] for c in S}
        )
        if phi is not None:
            return S, phi
    return None


# -- exhaustive transfer condition, LP relaxation check and the gap family --


def condition_b_exhaustive(y, y2, graph: ThresholdGraph, r: int, B, caps) -> bool:
    """Coverage condition of a distance-r transfer checked over every vertex
    subset via bitmasks; the reference for `rounding.condition_b_flow`."""
    n = graph.n
    if n > 22:
        raise InstanceError(f"exhaustive subset check infeasible for n={n}")
    B = frozenset(B)
    nbr = [graph.balls(v, r)[r] for v in range(n)]
    zero = Fraction(0)
    demand = [Fraction(caps[v]) * Fraction(y.get(v, 0)) for v in range(n)]
    supply = [Fraction(caps[v]) * Fraction(y2.get(v, 0)) for v in range(n)]
    bmask = 0
    for v in B:
        bmask |= 1 << v
    dem = [zero] * (1 << n)
    cov = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & (-mask)
        v = low.bit_length() - 1
        rest = mask ^ low
        dem[mask] = dem[rest] + (zero if (low & bmask) else demand[v])
        cov[mask] = cov[rest] | nbr[v]
        need = dem[mask]
        if need == 0:
            continue
        have = zero
        avail = cov[mask] & ~bmask
        while avail:
            lw = avail & (-avail)
            have += supply[lw.bit_length() - 1]
            avail ^= lw
        if have < need:
            return False
    return True


def relaxed_ilp_holds(
    graph: ThresholdGraph, y, caps: Sequence[int], k: int, alpha: int
) -> bool:
    """Whether fractional y survives every failure scenario at distance 1.

    Checks mass k, bounds, and for each F (any alpha vertices, not only
    centers) a max-flow certifying that closed neighborhoods minus F hold
    enough capacity-weighted mass for all clients at once; the scenarios are
    the closed variants of one `TransportNetwork.short` call at bound n, and
    y survives iff none is short.
    """
    n = graph.n
    yv = {v: Fraction(y.get(v, 0)) for v in range(n)}
    if sum(yv.values()) != k:
        return False
    if any(val < 0 or val > 1 for val in yv.values()):
        return False
    # closing F's sink arcs makes F a dead end, as if F were removed
    network = TransportNetwork([graph.closed(u) for u in range(n)], range(n))
    supply = [yv[w] * caps[w] for w in range(n)]
    return network.short([1] * n, supply, n, closed=combinations(range(n), alpha)) is None


def gap_instance(s: int) -> MetricInstance:
    """Family with optimal radius s/2 whose distance-1 relaxation is feasible.

    s*s vertices on a cycle, distance = ceil(cyclic hops / s), k = s centers,
    alpha = s-1 failures, capacities never bind.  Even s >= 2.
    """
    if s < 2 or s % 2:
        raise InstanceError("s must be an even integer >= 2")
    n = s * s
    dist = [
        [Fraction(math.ceil(min(abs(i - j), n - abs(i - j)) / s)) for j in range(n)]
        for i in range(n)
    ]
    return MetricInstance.from_matrix(
        dist, s, s - 1, [n] * n, variant="ft", name=f"gap-{n}"
    )


# -- random instances --------------------------------------------------------


def random_points(rng, n: int, span: int = 12):
    return [(rng.randrange(span), rng.randrange(span)) for _ in range(n)]


def random_point_instance(
    rng,
    n: int,
    k: int,
    alpha: int,
    variant: str = "ft",
    caps_mode: str = "general",
    span: int = 12,
    name: str = "random",
) -> MetricInstance:
    """Random integer-grid instance; squared distances stay exact.

    caps_mode "general" draws each capacity from 1..n, "uniform" picks one
    level L and zeroes a few vertices, "unit" gives everyone capacity 1.
    """
    pts = random_points(rng, n, span)
    if caps_mode == "general":
        caps = [rng.randint(1, n) for _ in range(n)]
    elif caps_mode == "uniform":
        L = rng.randint(1, n)
        caps = [L if rng.random() < 0.85 else 0 for _ in range(n)]
        if all(c == 0 for c in caps):
            caps[rng.randrange(n)] = L
    elif caps_mode == "unit":
        caps = [1] * n
    else:
        raise InstanceError(f"unknown caps_mode {caps_mode!r}")
    return MetricInstance.from_points(pts, k, alpha, caps, variant=variant, name=name)
