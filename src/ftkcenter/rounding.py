"""Rounding fractional centers into integral ones, and scenario assignments.

A transfer of radius r moves fractional center mass so that every vertex
set keeps at least as much reachable capacity within r hops as it had at
distance zero, never touching pinned backups.  The general pipeline composes
a distance-1 aggregation onto auxiliary vertices, a distance-2 transfer on a
spanning tree of cluster heads (distance 6 on the base graph), and a final
distance-1 shift, for an integral distance-8 transfer; the uniform-capacity
pipeline finds an integral distance-5 transfer directly.

A scenario repair (`repair`) seats every client at a live center within the
pipeline's hop bound by one capacitated assignment, a unit-demand
b-matching by augmenting paths (`flow.capacitated_assignment`): six hops
for {0,L} capacities; nine for general capacities when only backups fail,
ten otherwise.  A repair record builds each client's within-bound centers
once (`centers_within`, one ball per center), and a scenario closes its
failed centers by giving them no room.  The conservative pipelines make
their repairs with the same assignment, keeping the clients of live
centers in their seats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

from .clustering import Clustering, backup_union
from .flow import TransportNetwork, capacitated_assignment
from .instance import (
    ContractViolation,
    ThresholdGraph,
    failure_set,
    mask_bits,
    uniform_capacity_level,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# -- transfer verification ------------------------------------------------


def _mass(y: Mapping[int, Fraction], verts) -> Fraction:
    return sum((Fraction(y.get(v, 0)) for v in verts), ZERO)


def condition_b_flow(y, y2, graph: ThresholdGraph, r: int, B, caps) -> bool:
    """Coverage condition of a distance-r transfer, by one transport flow:
    the capacity-weighted y-mass of every vertex set outside B fits into the
    y2-mass within r hops of it (Hall with fractional demands).  The flow is
    the single variant, nothing closed, of a `TransportNetwork.short` call
    at bound the total demand: the condition holds iff it routes all
    demand, that is iff the variant is not short.  The clients are the
    live vertices with demand, the centers those with positive supply, and
    a client may send to the centers within r hops, listed by
    `centers_within` from one r-ball per center: only the centers are
    expanded, at most k on a {0,L} candidate, and on a rounding tree only
    the opened members."""
    B = frozenset(B)
    live = [v for v in range(graph.n) if v not in B]
    demand = {v: d for v in live if (d := Fraction(caps[v]) * Fraction(y.get(v, 0))) != 0}
    total = sum(demand.values(), ZERO)
    supply = {w: s for w in live if (s := Fraction(caps[w]) * Fraction(y2.get(w, 0))) > 0}
    lists = centers_within(graph, supply, (r,))[r]
    network = TransportNetwork([lists[v] for v in demand], supply)
    return network.short(list(demand.values()), list(supply.values()), total, closed=[()]) is None


def verify_transfer(y, y2, graph: ThresholdGraph, r: int, B, caps) -> bool:
    """Certify that y2 is a distance-r transfer of y on graph avoiding B:
    (a) total mass preserved, (b) r-hop coverage dominates for every subset,
    by `condition_b_flow`, (c) y2 agrees with y on B."""
    B = frozenset(B)
    if _mass(y, range(graph.n)) != _mass(y2, range(graph.n)):
        return False
    if any(Fraction(y.get(v, 0)) != Fraction(y2.get(v, 0)) for v in B):
        return False
    return condition_b_flow(y, y2, graph, r, B, caps)


# -- tree transfer ---------------------------------------------------------


def tree_transfer(tree: ThresholdGraph, members, y, caps):
    """Integral distance-2 transfer on a tree with fractional leaves.

    Preconditions: the mass on `members` is integral and every internal tree
    node carries y=1.  Candidates keeping all internal nodes open are tried
    first (lexicographically), arbitrary subsets second, so the result favors
    the shape the analysis promises while never failing when any transfer
    exists.  A candidate opens its members and closes the other members;
    the first that passes `condition_b_flow` at r = 2, with B the tree
    vertices outside `members`, is the answer.  With that B the check routes
    the capacity-weighted y-mass of the members to the opened members
    within two hops on the tree, within their capacities.
    """
    members = sorted(set(members))
    member_mask = sum(1 << w for w in members)
    kappa = _mass(y, members)
    if kappa.denominator != 1:
        raise ContractViolation("tree transfer needs integral total mass")
    kappa = int(kappa)
    deg = {w: (tree.masks[w] & member_mask).bit_count() for w in members}
    internal = [w for w in members if deg[w] >= 2]
    for w in internal:
        if Fraction(y.get(w, 0)) != 1:
            raise ContractViolation("internal tree node with fractional mass")
    free = [w for w in members if deg[w] <= 1]
    outside = frozenset(range(tree.n)).difference(members)

    def transfer(opened):
        y2 = dict(y)
        opened = set(opened)
        for w in members:
            y2[w] = ONE if w in opened else ZERO
        return y2 if condition_b_flow(y, y2, tree, 2, outside, caps) else None

    want = kappa - len(internal)
    if 0 <= want <= len(free):
        for extra in combinations(free, want):
            if (y2 := transfer(internal + list(extra))) is not None:
                return y2
    for opened in combinations(members, kappa):
        if set(internal) <= set(opened):
            continue  # already tried above
        if (y2 := transfer(opened)) is not None:
            return y2
    raise ContractViolation("no distance-2 transfer exists on the tree")


# -- general pipeline rounding ---------------------------------------------


@dataclass
class Augmented:
    """Base graph plus one auxiliary vertex per cluster head.

    The auxiliary for head h sits on N(h) (adjacent to the whole closed
    neighborhood) and inherits the capacity of m_h, the largest-capacity
    non-backup neighbor of h.
    """

    ext: ThresholdGraph
    caps_ext: tuple
    aux_of: dict  # head -> aux vertex id
    m_of: dict  # head -> designated heavy neighbor


def build_augmented(
    graph: ThresholdGraph,
    clustering: Clustering,
    backup_set,
    caps: Sequence[int],
) -> Augmented:
    n = graph.n
    aux_of, m_of = {}, {}
    masks = list(graph.masks) + [0] * len(clustering.heads)
    caps_ext = list(caps)
    for i, h in enumerate(clustering.heads):
        closed = graph.closed(h)
        pool = sorted(
            (v for v in closed if v not in backup_set),
            key=lambda v: (-caps[v], v),
        )
        if not pool:
            raise ContractViolation(
                f"head {h} has no non-backup neighbor; the LP row should forbid this"
            )
        m = pool[0]
        a = n + i
        aux_of[h], m_of[h] = a, m
        for u in closed:
            masks[u] |= 1 << a
            masks[a] |= 1 << u
    ext = ThresholdGraph.from_masks(masks, None)
    caps_ext += [caps[m_of[h]] for h in clustering.heads]
    return Augmented(ext, tuple(caps_ext), aux_of, m_of)


@dataclass
class RoundResult:
    R: tuple  # sorted real centers, |R| = k
    y0: dict
    y3: dict
    aug: Augmented


def round_general(
    y: Mapping[int, Fraction],
    graph: ThresholdGraph,
    clustering: Clustering,
    backups: Mapping[int, tuple],
    caps: Sequence[int],
) -> RoundResult:
    """Round an LP point to k centers containing the backups.

    Step 1 drains each head's neighborhood onto its auxiliary (m_h first,
    then ascending capacity, ties by index).  Step 2 runs the tree transfer
    on the head tree with fractional cluster members as leaves.  Step 3 moves
    each opened auxiliary's unit onto m_h.
    """
    n = graph.n
    bset = frozenset(backup_union(backups))
    aug = build_augmented(graph, clustering, bset, caps)
    y0 = {v: Fraction(y.get(v, 0)) for v in range(n)}
    for h in clustering.heads:
        y0[aug.aux_of[h]] = ZERO

    y1 = dict(y0)
    for h in clustering.heads:
        a = aug.aux_of[h]
        m = aug.m_of[h]
        order = [m] + sorted(
            (v for v in graph.closed(h) if v not in bset and v != m),
            key=lambda v: (caps[v], v),
        )
        need = ONE
        for v in order:
            if need == 0:
                break
            take = min(need, y1[v])
            y1[v] -= take
            y1[a] += take
            need -= take
        if need != 0:
            raise ContractViolation(
                f"head {h}: fractional mass {ONE - need} < 1 despite the LP row"
            )

    members = set(aug.aux_of.values())
    members.update(
        v for v in range(n) if 0 < y1[v] < 1
    )
    tree_edges = []
    for (h1, h2) in clustering.tree_edges:
        tree_edges.append((aug.aux_of[h1], aug.aux_of[h2]))
    for v in range(n):
        if 0 < y1[v] < 1:
            tree_edges.append((aug.aux_of[clustering.cluster_of[v]], v))
    tree = ThresholdGraph(aug.ext.n, tree_edges)
    y2 = tree_transfer(tree, members, y1, aug.caps_ext)

    y3 = dict(y2)
    for h in clustering.heads:
        a = aug.aux_of[h]
        if y3[a] == 1:
            m = aug.m_of[h]
            if y3[m] != 0:
                raise ContractViolation("designated neighbor already open")
            y3[a] = ZERO
            y3[m] = ONE
    R = tuple(sorted(v for v in range(n) if y3[v] == 1))
    if any(y3[a] != 0 for a in aug.aux_of.values()):
        raise ContractViolation("auxiliary still open after the final shift")
    if not bset <= set(R):
        raise ContractViolation("a pinned backup was closed by rounding")
    if _mass(y3, range(n)) != _mass(y0, range(aug.ext.n)):
        raise ContractViolation("rounding changed the total mass")
    return RoundResult(R, y0, y3, aug)


# -- scenario assignments ---------------------------------------------------


def centers_within(graph: ThresholdGraph, centers, bounds) -> dict[int, list[list[int]]]:
    """Per bound in `bounds`, each vertex's centers within that many hops,
    ascending: one `graph.balls` call per center, of the largest bound,
    gives every bound's lists."""
    out = {bound: [[] for _ in range(graph.n)] for bound in bounds}
    for c in sorted(centers):
        balls = graph.balls(c, max(bounds))
        for bound, lists in out.items():
            for u in mask_bits(balls[bound]):
                lists[u].append(c)
    return out


class Within(NamedTuple):
    """What a repair record builds once, from its graph: its centers, the
    centers it may fail within its tighter bound (the general pipeline's
    backups, else empty), and per hop bound each client's centers within
    that bound."""

    centers: frozenset
    backups: frozenset
    lists: dict  # hop bound -> per-client ascending center lists

    @classmethod
    def build(cls, graph: ThresholdGraph, centers, bounds, backups=()) -> "Within":
        return cls(frozenset(centers), frozenset(backups), centers_within(graph, centers, bounds))


def repair(lists, caps, centers, F: frozenset, bound: int, keep=None) -> dict:
    """One capacitated assignment of every client not in `keep` (client ->
    the center it keeps) to its centers within `bound` hops, `lists[u]`,
    on the capacity that the kept clients leave free.  Every center takes
    part: a failed one, and one the kept clients fill, with no room.  When
    `keep` covers every client, nothing moves and the kept seats are the
    answer."""
    keep = keep or {}
    clients = [u for u in range(len(lists)) if u not in keep]
    if not clients:
        return dict(keep)
    room = {c: 0 if c in F else caps[c] for c in centers}
    for c in keep.values():
        room[c] -= 1
    phi, _ = capacitated_assignment(clients, centers, lists, room)
    if phi is None:
        raise ContractViolation(
            f"scenario {sorted(F)}: no assignment within {bound} hops despite the stretch guarantee"
        )
    phi.update(keep)
    return phi


@dataclass(frozen=True)
class GeneralRounding:
    """Repair record of the general pipeline: the rounding of one
    per-threshold solve and the backups it pinned."""

    graph: ThresholdGraph
    caps: Sequence[int]
    backups: Mapping[int, tuple]
    rr: RoundResult
    alpha: int
    within: Within = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        within = Within.build(self.graph, self.rr.R, (9, 10), backup_union(self.backups))
        object.__setattr__(self, "within", within)

    def __call__(self, F) -> dict:
        return assign_scenario_general(self, F)

    def backup_set(self) -> frozenset:
        return self.within.backups


def assign_scenario_general(state: GeneralRounding, F) -> dict:
    """Assignment avoiding up to alpha failed centers: nine hops when only
    backups fail, ten otherwise.

    The rounding's analysis reassigns the clients within those bounds
    (backups fail in place; a failed non-backup hands its clients to a
    same-cluster backup of no smaller capacity), so any capacitated
    assignment within them is a valid repair.
    """
    within = state.within
    F = failure_set(F, state.alpha, within.centers)
    bound = 9 if F <= within.backups else 10
    return repair(within.lists[bound], state.caps, state.rr.R, F, bound)


# -- uniform-capacity pipeline ----------------------------------------------


def round_uniform(y: Mapping[int, Fraction], graph: ThresholdGraph, k: int, caps) -> tuple:
    """Integral distance-5 transfer for {0,L} capacities.

    Only the positive-capacity part of R matters for coverage, so the search
    runs lexicographically over L-vertex subsets of size min(k, |V^L|) and
    pads with lowest-index zero-capacity vertices.
    """
    n = graph.n
    uniform_capacity_level(caps)
    lverts = [v for v in range(n) if caps[v] > 0]
    smax = min(k, len(lverts))
    for part in combinations(lverts, smax):
        chosen = set(part)
        rest = [v for v in range(n) if v not in chosen]
        padded = sorted(chosen | set(rest[: k - smax]))
        y2 = {v: (ONE if v in padded else ZERO) for v in range(n)}
        if condition_b_flow(y, y2, graph, 5, frozenset(), caps):
            return tuple(padded)
    raise ContractViolation("no distance-5 transfer despite LP feasibility")


@dataclass(frozen=True)
class UniformRounding:
    """Repair record of the {0,L} pipeline: centers R rounded from LP point y."""

    graph: ThresholdGraph
    caps: Sequence[int]
    R: tuple
    y: Mapping[int, Fraction]
    alpha: int
    within: Within = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "within", Within.build(self.graph, self.R, (6,)))

    def __call__(self, F) -> dict:
        return assign_scenario_uniform(self, F)


def assign_scenario_uniform(state: UniformRounding, F) -> dict:
    """Assignment within six hops avoiding up to alpha failed centers."""
    F = failure_set(F, state.alpha, state.within.centers)
    return repair(state.within.lists[6], state.caps, state.R, F, 6)
