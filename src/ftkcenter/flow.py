"""Exact max-flow, the client -> center transport network, and capacitated
assignment.

Dinic's algorithm on integer-indexed arrays: each phase builds a level graph
by BFS and saturates it with a blocking flow.  There are at most V phases of
O(VE) work each, O(V^2 E) in all, a bound that does not depend on capacity
values, so Fraction capacities are safe and stay exact.  Infinite capacity is
math.inf, never a large surrogate number.  `max_flow` and `transport_cuts`
run the same Dinic loop, `_augment`.

`transport` is the network behind the fractional Hall-type checks of the
rounding (transfer conditions): client demand routed to allowed centers
within their supply; it returns the flow value and the clients of the
minimal min cut.  `transport_cuts` serves the LP separators, `verify_ft` and
the relaxed ILP, which solve one transport network many times with one
client forced in or one center set closed and stop at the first variant
that falls short: it builds the integer arrays once per call, scales demands
and supplies to ints, and yields the variants on demand, every forced one
from one base flow and the closed ones as one chain, each from the maximum
flow of the one before with only the load of the newly closed centers
re-augmented.

`capacitated_assignment` seats unit-demand clients at centers of integer
capacity, the problem of every scenario repair and of `verify_conservative`.
It is a b-matching solved by BFS augmenting paths on the clients' allowed
lists and builds no flow network; when some client stays unseated, the
clients that alternating paths reach from the unseated ones are the Hall
witness, the same client set as the minimal min cut of the transport
network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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


def _arrays(cap, index):
    """Residual arrays of the dict-of-dicts network `cap`, whose node u has
    the id index[u], its position in `cap`.

    Arc 2k is the k-th arc of `cap` in insertion order and arc 2k+1 its
    reverse; a node lists its own arcs first, then the reverse arcs into it,
    so the flow chosen never depends on hash randomization.  Returns (head,
    res, adj, back), where back[j] lists the reverse arcs out of node j.
    """
    head, res = [], []
    adj = [[] for _ in cap]
    back = [[] for _ in cap]
    for i, row in enumerate(cap.values()):
        out = adj[i]
        for v, c in row.items():
            j = index[v]
            e = len(head)
            out.append(e)
            back[j].append(e + 1)
            head += (j, i)
            res += (c, 0)
    for out, rev in zip(adj, back):
        out += rev
    return head, res, adj, back


def _augment(head, res, adj, s, t):
    """Dinic from the flow that the residuals `res` hold to a maximum flow,
    updating `res` in place.  Returns the value added and the nodes the last
    BFS reached: the minimal source side of a min cut."""
    value = 0
    while True:
        # level graph: BFS over arcs with residual capacity
        level = [-1] * len(adj)
        level[s] = 0
        reached = [s]
        for u in reached:
            lv = level[u] + 1
            for e in adj[u]:
                if res[e] and level[head[e]] < 0:
                    level[head[e]] = lv
                    reached.append(head[e])
        if level[t] < 0:
            return value, reached
        # blocking flow: iterative DFS along level-increasing arcs, each node
        # resuming at its current arc
        pos = [0] * len(adj)
        path = []
        u = s
        while True:
            if u == t:
                push = min(res[e] for e in path)
                if push == INF:  # cannot happen: some arc on any s-t path is finite
                    raise ContractViolation("infinite bottleneck after the infinite-path check")
                value += push
                cut = None
                for k, e in enumerate(path):
                    res[e] -= push
                    res[e ^ 1] += push
                    if cut is None and not res[e]:
                        cut = k
                # resume at the tail of the first saturated arc
                u = head[path[cut] ^ 1]
                del path[cut:]
                continue
            arcs = adj[u]
            end = len(arcs)
            i = pos[u]
            lv = level[u] + 1
            while i < end:
                e = arcs[i]
                if res[e] and level[head[e]] == lv:
                    break
                i += 1
            pos[u] = i
            if i < end:
                path.append(arcs[i])
                u = head[arcs[i]]
            elif u == s:
                break
            else:  # dead end: retreat and skip the arc that led here
                level[u] = -1
                u = head[path.pop() ^ 1]
                pos[u] += 1


def max_flow(net: FlowNetwork) -> FlowResult:
    """Maximum flow value, a per-arc flow, and the minimal source-side min cut.

    If the source can reach the sink through infinite-capacity arcs alone the
    value is math.inf and no flow/cut is reported.
    """
    nodes = list(net.cap)
    index = {u: i for i, u in enumerate(nodes)}
    s, t = index[net.source], index[net.sink]
    head, res, adj, back = _arrays(net.cap, index)

    # infinite value iff an all-infinite path exists; its last arc enters t
    if any(res[e ^ 1] is INF for e in back[t]):
        seen = {s}
        stack = [s]
        while stack:
            for e in adj[stack.pop()]:
                if e & 1 == 0 and res[e] is INF and head[e] not in seen:
                    seen.add(head[e])
                    stack.append(head[e])
        if t in seen:
            return FlowResult(INF, {}, None)

    value, reached = _augment(head, res, adj, s, t)

    # flow on arc 2k is the residual of its reverse; opposite flows on
    # antiparallel arcs cancel
    flow: dict = {}
    e = 1
    for u, row in net.cap.items():
        for v, c in row.items():
            f = res[e]
            e += 2
            if f:
                if f < 0 or f > c:
                    raise ContractViolation("flow outside arc capacity")
                g = flow.pop((v, u), 0)
                if f > g:
                    flow[(u, v)] = f - g
                elif g > f:
                    flow[(v, u)] = g - f
    return FlowResult(value, flow, frozenset(nodes[i] for i in reached))


def _transport_network(cap, demand, allowed, supply):
    """Fill `cap`, a dict-of-dicts holding only the source 0 and the sink 1,
    with the transport network of `transport`; returns the center ids."""
    clients = list(demand)
    first = len(clients) + 2  # id of the first center
    center_id: dict = {}
    for c in clients:
        for v in allowed[c]:
            center_id.setdefault(v, first + len(center_id))
    for v in supply:
        center_id.setdefault(v, first + len(center_id))
    src = cap[0]
    for i, c in enumerate(clients, 2):
        d = demand[c]
        if d is not INF and d < 0:
            raise InstanceError("negative demand")
        src[i] = d
        cap[i] = dict.fromkeys([center_id[v] for v in allowed[c]], INF)
    for i in center_id.values():
        cap[i] = {}
    for v, s in supply.items():
        if s is not INF and s < 0:
            raise InstanceError("negative capacity")
        cap[center_id[v]][1] = s
    return center_id


def transport(demand: Mapping, allowed: Mapping, supply: Mapping):
    """Route client demand to allowed centers within their supply.

    The network is source -> client (capacity demand[c]) -> each center of
    allowed[c] (unbounded) -> sink (capacity supply[v]), on integer node ids:
    source 0, sink 1, the clients in the order given, then the centers in
    the order they are first named, allowed lists before supply.  A center
    without a supply entry is a dead end.  Returns (value, blocked): the
    flow value, and the clients on the source side of the minimal min cut,
    which violate Hall's condition together when value falls short of the
    total demand.
    """
    net = FlowNetwork(0, 1)
    _transport_network(net.cap, demand, allowed, supply)
    res = max_flow(net)
    if res.value is INF:
        raise ContractViolation("transport value is infinite")
    clients = list(demand)
    first = len(clients) + 2
    return res.value, frozenset(clients[u - 2] for u in res.min_cut if 2 <= u < first)


def transport_cuts(demand: Mapping, allowed: Mapping, supply: Mapping, forced=(), closed=()):
    """The network of `transport`, solved once per variant: first for each
    client w of `forced`, with w's demand made infinite, then for each center
    set of `closed`, with the supply of those centers made 0.

    Returns an iterator of one (value, blocked) pair per variant, in that
    order, with the value and blocked clients `transport` returns for that
    variant; the value is a Fraction.  Each variant is solved only when the
    iterator is asked for it, so a caller that stops at the first variant it
    needs solves no later one.  The input is checked at the call: every
    supply must be finite, every amount nonnegative and every forced client
    one of `demand`.  The arrays are built once, with every finite demand
    and supply scaled by the lcm of their denominators, so every residual is
    an int.  A forced variant starts from the base maximum flow, which stays
    feasible when a capacity rises.  The first closed variant starts from
    the zero flow and each later one from the maximum flow of the one
    before: the sink arcs closed there reopen, the flow through each newly
    closed center is cancelled back to the source, and only that displaced
    load is augmented again.  The value and the minimal min cut do not
    depend on the maximum flow reached.
    """
    if any(s is INF for s in supply.values()):
        raise ContractViolation("infinite supply in transport_cuts")
    cap: dict = {0: {}, 1: {}}
    center_id = _transport_network(cap, demand, allowed, supply)
    finite = [c for row in cap.values() for c in row.values() if c is not INF]
    scale = math.lcm(*(c.denominator for c in finite))
    for row in cap.values():
        for v, c in row.items():
            if c is not INF:
                row[v] = c.numerator * (scale // c.denominator)
    head, zero, adj, _ = _arrays(cap, range(len(cap)))
    clients = list(demand)
    first = len(clients) + 2
    position = {c: k for k, c in enumerate(clients)}
    forced_arcs = []  # the source arc of each forced client, listed first
    for w in forced:
        if w not in position:
            raise InstanceError(f"forced client {w!r} has no demand")
        forced_arcs.append(adj[0][position[w]])

    def cut(total, reached):
        blocked = frozenset(clients[u - 2] for u in reached if 2 <= u < first)
        return Fraction(total, scale), blocked

    def variants():
        if forced_arcs:
            base = zero[:]
            base_value, _ = _augment(head, base, adj, 0, 1)
            for a in forced_arcs:
                res = base[:]
                res[a] = INF
                more, reached = _augment(head, res, adj, 0, 1)
                yield cut(base_value + more, reached)
        # the closed variants form one chain: each starts from the maximum
        # flow of the one before, reopens that one's sink arcs, and cancels
        # the flow through each newly closed center
        res = zero[:]
        total = 0
        opened = []  # the sink arcs the previous variant closed
        for F in closed:
            for e in opened:
                res[e] = zero[e] - res[e ^ 1]  # raising a capacity keeps the flow feasible
            opened = []
            for v in F:
                if v not in supply:
                    continue
                arcs = adj[center_id[v]]
                e = arcs[0]  # the sink arc of v, its only own arc
                total -= res[e ^ 1]
                res[e ^ 1] = res[e] = 0
                for r in arcs[1:]:  # the reverse of each client -> v arc holds its flow
                    f = res[r]
                    if f:
                        res[r] = 0
                        a = adj[0][head[r] - 2]  # the client's source arc
                        res[a] += f
                        res[a ^ 1] -= f
                opened.append(e)
            more, reached = _augment(head, res, adj, 0, 1)
            total += more
            yield cut(total, reached)

    return variants()


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

    A unit-demand b-matching by augmenting paths, in the order `clients`
    lists them.  A client takes the first allowed center with room; when
    every one is full, `_seat_by_path` searches for an augmenting path.  A
    client without one stays unseated: by Berge's theorem it cannot gain one
    later, so the final matching is maximum.

    Returns (assignment, None) when every client is seated.  Otherwise
    returns (None, HallWitness): the clients that alternating paths reach
    from the unseated ones, through their allowed centers and the clients
    seated there.  They fill every center they may use and still leave some
    unseated, and they are exactly the clients on the source side of the
    minimal min cut of the client -> center transport network.
    """
    center_set = set(centers)
    room = {}
    for v in centers:
        if capacities[v] < 0:
            raise InstanceError("negative capacity")
        room[v] = capacities[v]
    for c in clients:
        if not center_set.issuperset(allowed[c]):
            v = next(v for v in allowed[c] if v not in center_set)
            raise InstanceError(f"allowed center {v!r} not in centers")
    seated = {v: [] for v in room}
    phi = {}
    unseated = []
    for c in clients:
        for v in allowed[c]:
            if room[v]:
                room[v] -= 1
                seated[v].append(c)
                phi[c] = v
                break
        else:
            if not _seat_by_path(c, allowed, room, seated, phi):
                unseated.append(c)
    if not unseated:
        return phi, None
    # multi-source alternating BFS: unseated clients, their allowed centers,
    # the clients seated there, and so on
    witness = set(unseated)
    reach = set()
    queue = list(unseated)
    for c in queue:
        for v in allowed[c]:
            if v not in reach:
                reach.add(v)
                for w in seated[v]:
                    if w not in witness:
                        witness.add(w)
                        queue.append(w)
    cap = sum(capacities[v] for v in reach)
    if cap >= len(witness):
        raise ContractViolation("alternating-path witness does not violate Hall's condition")
    return None, HallWitness(frozenset(witness), cap, len(witness))


def _seat_by_path(c, allowed, room, seated, phi) -> bool:
    """Seat client c, whose allowed centers are all full, by a BFS
    augmenting path: from full centers to the clients seated there, then to
    those clients' allowed centers, until a center with room turns up.  Each
    client on the path then moves one center along it, which frees a seat
    for c.  Returns False, changing nothing, when no such path exists."""
    parent = {}  # center -> (client moving into it, center that client leaves)
    queue = []
    for v in allowed[c]:
        if v not in parent:
            parent[v] = (c, None)
            queue.append(v)
    for v in queue:
        if room[v]:
            break
        for w in seated[v]:
            for x in allowed[w]:
                if x not in parent:
                    parent[x] = (w, v)
                    queue.append(x)
    else:
        return False
    room[v] -= 1
    while True:
        w, u = parent[v]
        seated[v].append(w)
        phi[w] = v
        if u is None:
            return True
        seated[u].remove(w)
        v = u
