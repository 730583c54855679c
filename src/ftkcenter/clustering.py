"""Cluster decomposition, backup selection, and scattered-set helpers.

The decomposition picks heads pairwise at least three hops apart, growing
deterministically from vertex 0, so that closed neighborhoods of heads are
disjoint while every vertex stays within two hops of its head.  It reads
only the heads' closed ball masks, never a hop matrix, and the same masks
decide connectivity: when the head walk ends, the heads' 2-balls cover
every vertex iff the graph is connected.  A caller that can use at most
some number of heads passes it as a cap, and the walk stops as soon as it
has more.  Backups are the alpha largest-capacity members of each cluster.

The far-apart sets of the conservative pipelines read ball masks too: the
greedy scan skips every vertex in a chosen vertex's (ell-1)-ball, and the
(alpha, ell)-independence check reads the components of a power graph
built from ell-balls.  No function here builds the all-pairs hop matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .instance import ContractViolation, InstanceError, ThresholdGraph, mask_bits


@dataclass(frozen=True)
class Clustering:
    heads: tuple[int, ...]  # creation order; heads[0] == 0
    cluster_of: tuple[int, ...]  # vertex -> its head
    clusters: Mapping[int, tuple[int, ...]]  # head -> sorted members
    tree_edges: frozenset  # unordered head pairs at hop distance exactly 3


def monarch_clustering(graph: ThresholdGraph, max_heads: int | None = None) -> Clustering | None:
    """Partition a connected graph into clusters around mutually far heads.

    Properties relied on downstream: tree edges join heads exactly three hops
    apart, N(head) is contained in its cluster, every cluster sits inside the
    closed 2-neighborhood of its head, and the clusters partition the vertex
    set.  Works on the closed 1-, 2- and 3-hop ball masks of the heads alone:
    the next head is the lowest vertex in the union of the 3-balls but in no
    2-ball, its parent the earliest head whose 3-ball but not 2-ball holds
    it, and a vertex outside every 1-ball joins the earliest head whose
    2-ball holds it.

    The walk ends when the 3-balls add nothing to the 2-balls; the union of
    the 2-balls is then closed under neighbors, so it is the component of
    vertex 0, and a graph it does not cover is disconnected (InstanceError).
    With `max_heads`, the walk returns None as soon as it has more heads
    than that, before the connectivity check and the clusters; otherwise
    the result is the uncapped one.
    """
    if graph.n == 0:
        raise InstanceError("empty graph")
    n = graph.n
    heads = []
    balls = []  # per head: its closed 0..3-hop balls
    parents = {}
    near = far = 0  # unions of the heads' 2- and 3-balls
    nxt = 0
    while True:
        if len(heads) == max_heads:
            return None
        heads.append(nxt)
        balls.append(graph.balls(nxt, 3))
        near |= balls[-1][2]
        far |= balls[-1][3]
        rim = far & ~near
        if not rim:
            break
        nxt = (rim & -rim).bit_length() - 1
        for h, ball in zip(heads, balls):  # earliest-created head at distance exactly 3
            if (ball[3] & ~ball[2]) >> nxt & 1:
                parents[nxt] = h
                break
    if near != (1 << n) - 1:
        raise InstanceError("clustering requires a connected graph")

    cluster_of = [-1] * n
    taken = 0
    for h, ball in zip(heads, balls):
        if ball[1] & taken:
            raise ContractViolation("head neighborhoods overlap")
        taken |= ball[1]
        for v in mask_bits(ball[1]):
            cluster_of[v] = h
    for v in range(n):
        if cluster_of[v] != -1:
            continue
        for h, ball in zip(heads, balls):  # earliest-created head within two hops
            if ball[2] >> v & 1:
                cluster_of[v] = h
                break
        else:
            raise ContractViolation(f"vertex {v} is more than two hops from every head")

    clusters = {h: [] for h in heads}
    for v in range(n):
        clusters[cluster_of[v]].append(v)
    tree_edges = frozenset(
        (min(c, p), max(c, p)) for c, p in parents.items()
    )
    return Clustering(
        tuple(heads),
        tuple(cluster_of),
        {h: tuple(sorted(vs)) for h, vs in clusters.items()},
        tree_edges,
    )


def select_backups(clustering: Clustering, capacities: Sequence[int], alpha: int):
    """Pick alpha largest-capacity members of each cluster (ties: lowest
    index), as a dict head -> ascending-index tuple.

    A cluster holds its head's closed neighborhood, to which
    `quick_infeasible` gives more than alpha vertices before any caller
    clusters, so every cluster has more than alpha members.  A cluster of
    fewer than alpha members is a ContractViolation.
    """
    backups = {}
    for h in clustering.heads:
        members = clustering.clusters[h]
        if len(members) < alpha:
            raise ContractViolation(
                f"cluster of head {h} has {len(members)} < alpha={alpha} members"
            )
        ranked = sorted(members, key=lambda v: (-capacities[v], v))
        backups[h] = tuple(sorted(ranked[:alpha]))
    return backups


def backup_union(backups: Mapping[int, tuple[int, ...]]) -> frozenset:
    out = set()
    for vs in backups.values():
        out.update(vs)
    return frozenset(out)


def build_gprime(
    graph: ThresholdGraph,
    clustering: Clustering,
    backups: Mapping[int, tuple[int, ...]],
) -> tuple[int, ...]:
    """Out-neighborhood bitmasks of the arc-augmented digraph G': bit w of
    the u-th mask is set iff u -> w is an arc.  Base edges go both ways,
    plus arcs into each cluster's backups from every vertex adjacent to the
    head's neighborhood."""
    out = list(graph.masks)
    for h in clustering.heads:
        B_h = sum(1 << w for w in backups.get(h, ()))
        if not B_h:
            continue
        zone = 0
        for t in graph.closed(h):
            zone |= graph.masks[t]
        for u in mask_bits(zone):
            out[u] |= B_h & ~(1 << u)
    return tuple(out)


def greedy_independent(graph: ThresholdGraph, ell: int) -> tuple[int, ...]:
    """Maximal set with pairwise hop distance >= ell, scanned by lowest index:
    a vertex is chosen iff no chosen vertex's (ell-1)-ball holds it.

    Maximality gives coverage: every vertex is within ell-1 hops of a member.
    """
    chosen: list[int] = []
    near = 0  # union of the chosen vertices' (ell-1)-balls
    for v in range(graph.n):
        if not near >> v & 1:
            chosen.append(v)
            near |= graph.balls(v, ell - 1)[-1]
    return tuple(chosen)


def is_alpha_ell_independent(
    graph: ThresholdGraph, S, alpha: int, ell: int
) -> bool:
    """True iff every component of the ell-th power restricted to S has <=
    alpha vertices.  The power is a graph on all n vertices whose edges join
    members of S within ell hops, read off their ell-balls; the vertices
    outside S are isolated there, so only the components in S count."""
    inside = sum(1 << v for v in set(S))
    masks = [0] * graph.n
    for v in mask_bits(inside):
        masks[v] = graph.balls(v, ell)[ell] & inside & ~(1 << v)
    power = ThresholdGraph.from_masks(masks, None)
    return all(len(comp) <= alpha for comp in power.components() if inside >> comp[0] & 1)
