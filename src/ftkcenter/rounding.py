"""Rounding fractional centers into integral ones, and scenario assignments.

A transfer of radius r moves fractional center mass so that every vertex
set keeps at least as much reachable capacity within r hops as it had at
distance zero, never touching pinned backups.  The general pipeline composes
a distance-1 aggregation onto auxiliary vertices, a distance-2 transfer on a
spanning tree of cluster heads (distance 6 on the base graph), and a final
distance-1 shift, for an integral distance-8 transfer; the uniform-capacity
pipeline finds an integral distance-5 transfer directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .clustering import Clustering, DirectedGraph, backup_union
from .flow import capacitated_assignment, transport
from .instance import (
    ContractViolation,
    InstanceError,
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
    y2-mass within r hops of it (Hall with fractional demands)."""
    hops = graph.hops()
    B = frozenset(B)
    live = [v for v in range(graph.n) if v not in B]
    demand = {v: d for v in live if (d := Fraction(caps[v]) * Fraction(y.get(v, 0))) != 0}
    total = sum(demand.values(), ZERO)
    if total == 0:
        return True
    allowed = {v: [w for w in live if hops[v][w] <= r] for v in demand}
    supply = {w: s for w in live if (s := Fraction(caps[w]) * Fraction(y2.get(w, 0))) > 0}
    return transport(demand, allowed, supply)[0] == total


# -- tree transfer ---------------------------------------------------------


def tree_transfer(tree: ThresholdGraph, members, y, caps):
    """Integral distance-2 transfer on a tree with fractional leaves.

    Preconditions: the mass on `members` is integral and every internal tree
    node carries y=1.  Candidates keeping all internal nodes open are tried
    first (lexicographically), arbitrary subsets second, so the result favors
    the shape the analysis promises while never failing when any transfer
    exists.
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
    demand = {w: d for w in members if (d := Fraction(caps[w]) * Fraction(y.get(w, 0))) != 0}
    total = sum(demand.values(), ZERO)
    within2 = {w: tree.balls(w, 2)[2] for w in demand}

    def feasible(opened) -> bool:
        allowed = {w: [x for x in opened if within2[w] >> x & 1] for w in demand}
        supply = {x: Fraction(caps[x]) for x in opened}
        return total == 0 or transport(demand, allowed, supply)[0] == total

    def result(opened):
        y2 = dict(y)
        opened = set(opened)
        for w in members:
            y2[w] = ONE if w in opened else ZERO
        return y2

    want = kappa - len(internal)
    if 0 <= want <= len(free):
        for extra in combinations(free, want):
            opened = sorted(internal) + list(extra)
            if feasible(opened):
                return result(opened)
    for opened in combinations(members, kappa):
        if set(internal) <= set(opened):
            continue  # already tried above
        if feasible(opened):
            return result(opened)
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
    head_of: dict  # aux vertex id -> head
    m_of: dict  # head -> designated heavy neighbor


def build_augmented(
    graph: ThresholdGraph,
    clustering: Clustering,
    backup_set,
    caps: Sequence[int],
) -> Augmented:
    n = graph.n
    aux_of, head_of, m_of = {}, {}, {}
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
        aux_of[h], head_of[a], m_of[h] = a, h, m
        for u in closed:
            masks[u] |= 1 << a
            masks[a] |= 1 << u
    ext = ThresholdGraph.from_masks(masks, None)
    caps_ext += [caps[m_of[h]] for h in clustering.heads]
    return Augmented(ext, tuple(caps_ext), aux_of, head_of, m_of)


@dataclass
class RoundResult:
    R: tuple  # sorted real centers, |R| = k
    support2: frozenset  # support after the tree step (real + aux ids)
    y0: dict
    y1: dict
    y3: dict
    aug: Augmented
    tree: ThresholdGraph
    tree_members: frozenset


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
    support2 = frozenset(v for v, val in y2.items() if val == 1)
    return RoundResult(R, support2, y0, y1, y3, aug, tree, frozenset(members))


# -- scenario assignments (general pipeline) --------------------------------


@dataclass(frozen=True)
class GeneralRounding:
    """Repair record of the general pipeline: everything scenario assignment
    needs from one per-threshold solve."""

    graph: ThresholdGraph
    caps: Sequence[int]
    clustering: Clustering
    backups: Mapping[int, tuple]
    gprime: DirectedGraph
    rr: RoundResult
    alpha: int

    def __call__(self, F) -> dict:
        return assign_scenario_general(self, F)

    def backup_set(self) -> frozenset:
        return frozenset(backup_union(self.backups))

    def delta(self, center: int) -> int:
        """Head of the cluster a (possibly auxiliary) center belongs to."""
        if center in self.rr.aug.head_of:
            return self.rr.aug.head_of[center]
        return self.clustering.cluster_of[center]

    @cached_property
    def reach(self) -> tuple[tuple[int, ...], ...]:
        """Per client, the opened centers (sorted) it may use before failures:
        backups granted by the arc-augmented digraph, plus everything within
        two tree hops of its 2-neighborhood in the extended graph (the one
        with auxiliary nodes, so drained mass stays reachable).  No scenario
        changes them, so they are built once per record."""
        B = self.backup_set()
        ext = self.rr.aug.ext
        T, members = self.rr.tree, self.rr.tree_members
        within2 = {w: T.balls(w, 2)[2] for w in members}
        out = []
        for u in range(self.graph.n):
            near = ext.neighborhood([u], 2)
            cover = set(self.gprime.closed_out(u) & B) | near
            for w in near & members:
                cover.update(mask_bits(within2[w]))
            out.append(tuple(sorted(cover & self.rr.support2)))
        return tuple(out)


def assign_scenario_backups(state: GeneralRounding, F) -> dict:
    """Assignment avoiding a failure set of backups (|F| <= alpha, F within B).

    Clients within nine hops of their center and eight hops of the center's
    cluster head; guaranteed feasible for LP-derived roundings.
    """
    F = frozenset(F)
    B = state.backup_set()
    if not F <= B:
        raise InstanceError("failure set must consist of backups")
    if len(F) > state.alpha:
        raise InstanceError("too many failures")
    rr = state.rr
    targets = sorted(rr.support2 - F)
    caps_ext = rr.aug.caps_ext
    n = state.graph.n
    allowed = {u: [c for c in reach if c not in F] for u, reach in enumerate(state.reach)}
    phi_bar, witness = capacitated_assignment(
        list(range(n)), targets, allowed, {t: caps_ext[t] for t in targets}
    )
    if phi_bar is None:
        raise ContractViolation(
            f"scenario {sorted(F)}: assignment infeasible despite the LP guarantee"
        )
    phi = {}
    for u, c in phi_bar.items():
        if c in rr.aug.head_of:
            c = rr.aug.m_of[rr.aug.head_of[c]]
        phi[u] = c
    hops = state.graph.hops()
    load = Counter(phi.values())
    for c, l in load.items():
        if l > state.caps[c]:
            raise ContractViolation("capacity exceeded after auxiliary substitution")
    for u, c in phi.items():
        if hops[u][c] > 9 or hops[u][state.delta(c)] > 8:
            raise ContractViolation("assignment exceeds its distance bound")
        if c not in rr.R or c in F:
            raise ContractViolation("assignment uses a closed or failed center")
    return phi


def assign_scenario_general(state: GeneralRounding, F) -> dict:
    """Assignment avoiding an arbitrary failure set F within the solution.

    Failed non-backups are routed through same-cluster backup stand-ins of no
    smaller capacity, then swapped back; clients stay within ten hops of
    their center.
    """
    F = failure_set(F, state.alpha, state.rr.R)
    B = state.backup_set()
    alpha = state.alpha
    if F <= B:
        F2 = set(F)
        for b in sorted(B - F):
            if len(F2) >= alpha:
                break
            F2.add(b)
        return assign_scenario_backups(state, F2)

    caps = state.caps
    by_head = {}
    for f in F:
        by_head.setdefault(state.clustering.cluster_of[f], []).append(f)
    stand_ins = {}
    for h, fs in by_head.items():
        ranked = sorted(state.backups[h], key=lambda v: (-caps[v], v))
        stand_ins[h] = (sorted(fs), ranked[: len(fs)])
    Fprime = set()
    for h, (_, reps) in stand_ins.items():
        Fprime.update(reps)
    F2 = set(Fprime)
    for b in sorted(B - Fprime - F):
        if len(F2) >= alpha:
            break
        F2.add(b)
    for b in sorted((B & F) - Fprime):
        if len(F2) >= alpha:
            break
        F2.add(b)
    phi_pre = assign_scenario_backups(state, F2)

    remap = {}
    for h, (fs, reps) in stand_ins.items():
        dead = sorted(set(fs) - set(reps))
        alive = sorted(set(reps) - set(fs))
        if len(dead) != len(alive):
            raise ContractViolation("stand-in bookkeeping out of balance")
        for d, a in zip(dead, alive):
            if caps[d] > caps[a]:
                raise ContractViolation("stand-in has smaller capacity than the center it replaces")
            remap[d] = a
    phi = {u: remap.get(c, c) for u, c in phi_pre.items()}

    hops = state.graph.hops()
    load = Counter(phi.values())
    for c, l in load.items():
        if l > caps[c]:
            raise ContractViolation("capacity exceeded after the stand-in swap")
    for u, c in phi.items():
        if c in F or c not in state.rr.R:
            raise ContractViolation("assignment uses a closed or failed center")
        if hops[u][c] > 10:
            raise ContractViolation("assignment exceeds the ten-hop bound")
    return phi


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

    def __call__(self, F) -> dict:
        return assign_scenario_uniform(self, F)


def assign_scenario_uniform(state: UniformRounding, F) -> dict:
    """Assignment within six hops avoiding up to alpha failed centers."""
    F = failure_set(F, state.alpha, state.R)
    graph, caps = state.graph, state.caps
    n = graph.n
    hops = graph.hops()
    targets = sorted(v for v in state.R if v not in F and caps[v] > 0)
    allowed = {
        u: [c for c in targets if hops[u][c] <= 6] for u in range(n)
    }
    phi, witness = capacitated_assignment(
        list(range(n)), targets, allowed, {c: caps[c] for c in targets}
    )
    if phi is None:
        raise ContractViolation(
            f"uniform scenario {sorted(F)} infeasible despite the transfer guarantee"
        )
    return phi
