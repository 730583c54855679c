"""Exact max-flow, the client -> center transport network, and capacitated
assignment.

Edmonds-Karp over rational capacities.  The number of augmentations is
bounded by O(V*E) independently of capacity values, so Fraction capacities
are safe.  Infinite capacity is math.inf, never a large surrogate number.

`transport` is the one network behind every Hall-type check in the package
(separation, transfer conditions, assignments, the conservative repair, the
relaxed ILP): client demand routed to allowed centers within their supply.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .instance import ContractViolation, InstanceError

INF = math.inf


class FlowNetwork:
    """Directed network with a single source and sink.

    Parallel arcs are merged by adding capacities.  Arcs into the source or
    out of the sink are rejected, as are negative capacities.
    """

    def __init__(self, source: Hashable, sink: Hashable):
        if source == sink:
            raise InstanceError("source and sink must differ")
        self.source = source
        self.sink = sink
        self.cap: dict = {source: {}, sink: {}}

    def add_arc(self, tail, head, capacity) -> None:
        if tail == head:
            raise InstanceError("self-loop arc")
        if head == self.source:
            raise InstanceError("arc into the source")
        if tail == self.sink:
            raise InstanceError("arc out of the sink")
        if capacity is not INF and capacity < 0:
            raise InstanceError("negative capacity")
        row = self.cap.setdefault(tail, {})
        self.cap.setdefault(head, {})
        old = row.get(head, 0)
        row[head] = INF if (old is INF or capacity is INF) else old + capacity


@dataclass
class FlowResult:
    value: object  # int | Fraction | math.inf
    flow: dict  # (tail, head) -> amount on original arcs; empty if value is infinite
    min_cut: frozenset | None  # source side; None if value is infinite


def _bfs_path(adj, residual, source, sink):
    prev = {source: None}
    q = deque([source])
    while q:
        u = q.popleft()
        if u == sink:
            break
        for v in adj[u]:
            if v not in prev and residual[u].get(v, 0) > 0:
                prev[v] = u
                q.append(v)
    if sink not in prev:
        return None
    path = [sink]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def max_flow(net: FlowNetwork) -> FlowResult:
    """Maximum flow value, a per-arc flow, and the minimal source-side min cut.

    If the source can reach the sink through infinite-capacity arcs alone the
    value is math.inf and no flow/cut is reported.
    """
    source, sink = net.source, net.sink
    # residual[u][v] > 0 means u->v is usable; seeded with original capacities
    residual = {u: dict(vs) for u, vs in net.cap.items()}
    # adjacency keeps arc insertion order so BFS (and hence the particular
    # optimal flow chosen) does not depend on hash randomization
    adj = {u: list(vs) for u, vs in net.cap.items()}
    members = {u: set(vs) for u, vs in net.cap.items()}
    for u, vs in net.cap.items():
        for v in vs:
            if u not in members[v]:
                members[v].add(u)
                adj[v].append(u)
            residual[v].setdefault(u, 0)

    # infinite value iff an all-infinite path exists
    seen = {source}
    q = deque([source])
    while q:
        u = q.popleft()
        for v, c in net.cap.get(u, {}).items():
            if c is INF and v not in seen:
                seen.add(v)
                q.append(v)
    if sink in seen:
        return FlowResult(INF, {}, None)

    flow: dict = {}
    value = 0
    while True:
        path = _bfs_path(adj, residual, source, sink)
        if path is None:
            break
        push = min(residual[u][v] for u, v in zip(path, path[1:]))
        if push is INF:  # cannot happen: some arc on any s-t path is finite
            raise ContractViolation("infinite bottleneck after the infinite-path check")
        for u, v in zip(path, path[1:]):
            if residual[u][v] is not INF:
                residual[u][v] -= push
            back = residual[v].get(u, 0)
            if back is not INF:
                residual[v][u] = back + push
            # account per original arc, cancelling opposite flow first
            cancel = min(push, flow.get((v, u), 0))
            if cancel:
                flow[(v, u)] -= cancel
            remainder = push - cancel
            if remainder:
                flow[(u, v)] = flow.get((u, v), 0) + remainder
        value += push

    reachable = {source}
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in reachable and residual[u].get(v, 0) > 0:
                reachable.add(v)
                q.append(v)

    for (u, v), f in flow.items():
        cap = net.cap.get(u, {}).get(v, 0)
        if f < 0 or (cap is not INF and f > cap):
            raise ContractViolation("flow outside arc capacity")
    return FlowResult(value, {a: f for a, f in flow.items() if f > 0}, frozenset(reachable))


def transport(demand: Mapping, allowed: Mapping, supply: Mapping):
    """Route client demand to allowed centers within their supply.

    The network is source -> client (capacity demand[c]) -> each center of
    allowed[c] (unbounded) -> sink (capacity supply[v]), with arcs added in
    the order given: client by client, then center by center.  A center
    without a supply entry is a dead end.  Returns (value, flow, blocked):
    the flow value, the positive client -> center flow keyed
    (client, center), and the clients on the source side of the minimal
    min cut, which violate Hall's condition together when value falls
    short of the total demand.
    """
    source, sink = ("s",), ("t",)
    net = FlowNetwork(source, sink)
    for c, d in demand.items():
        node = ("c", c)
        net.add_arc(source, node, d)
        for v in allowed[c]:
            net.add_arc(node, ("v", v), INF)
    for v, s in supply.items():
        net.add_arc(("v", v), sink, s)
    res = max_flow(net)
    if res.value is INF:
        raise ContractViolation("transport value is infinite")
    flow = {(u[1], v[1]): f for (u, v), f in res.flow.items() if u[0] == "c"}
    blocked = frozenset(node[1] for node in res.min_cut if node[0] == "c")
    return res.value, flow, blocked


@dataclass
class HallWitness:
    """A client set whose allowed centers cannot absorb it."""

    clients: frozenset
    capacity: object  # total capacity reachable from the witness
    demand: int


def capacitated_assignment(
    clients: Sequence[Hashable],
    centers: Sequence[Hashable],
    allowed: Mapping[Hashable, Iterable[Hashable]],
    capacities: Mapping[Hashable, int],
):
    """Assign each client a distinct slot at one of its allowed centers.

    Returns (assignment, None) on success, (None, HallWitness) when some
    client set overflows its joint allowed capacity.  Unit client demands and
    integer capacities keep the flow integral.
    """
    center_set = set(centers)
    for c in clients:
        if not center_set.issuperset(allowed[c]):
            v = next(v for v in allowed[c] if v not in center_set)
            raise InstanceError(f"allowed center {v!r} not in centers")
    value, flow, witness = transport(
        dict.fromkeys(clients, 1), allowed, {v: capacities[v] for v in centers}
    )
    if value == len(clients):
        phi = {}
        for (c, v), f in flow.items():
            if f != 1:
                raise ContractViolation("non-unit client flow")
            phi[c] = v
        if len(phi) != len(clients):
            raise ContractViolation("assignment misses a client")
        return phi, None
    reach = set()
    for c in witness:
        reach.update(allowed[c])
    cap = sum(capacities[v] for v in reach)
    if cap >= len(witness):
        raise ContractViolation("min-cut witness does not violate Hall's condition")
    return None, HallWitness(witness, cap, len(witness))
