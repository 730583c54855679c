"""Exact max-flow on integer residual arrays, the client -> center transport
network, and capacitated assignment.

Dinic's algorithm on integer-indexed arrays, `_augment`: each phase builds a
level graph by BFS and saturates it with a blocking flow.  There are at most
V phases of O(VE) work each, O(V^2 E) in all, a bound that does not depend
on capacity values.  Infinite capacity is math.inf, never a large surrogate
number.

The package solves every flow network on one path, `TransportNetwork`:
client demand routed to allowed centers within their supply, the Hall-type
condition behind the LP separators, `verify_ft`, the relaxed ILP and the
rounding's transfer checks.  The network builds its integer arrays once,
straight from the allowed lists; `cuts` reads two facts of their layout:
the source's arcs are the source arcs in client order, and a supplied
center lists its sink arc first, then only the reverses of the client arcs
into it.  Each `cuts` call scales one demand and supply map to ints,
writes them into a copy of the zero-flow residuals, and yields the flow
value and the clients of the minimal min cut for each variant on demand:
one client forced in or one center set closed, every forced one from one
base flow and the closed ones as one chain, each from the maximum flow of
the one before with only the load of the newly closed centers
re-augmented.  Before Dinic runs on a variant, a seating pass,
`_seat`, routes what it can along the one-step paths source -> client ->
allowed center -> sink, the clients in order, without a level graph; Dinic
then finishes the flow, and often its first BFS already finds no path to
the sink.  The seated flow is a feasible flow, Dinic takes any feasible
flow to a maximum one, and the value and the minimal min cut are the same
for every maximum flow, so the pass changes no result.  The LP separators
build one network per threshold and call `cuts` once per cutting-plane
round, with the supplies of that round's point; `transport_cuts` builds a
network for a single call.  A caller that needs the plain network asks for
the single variant closed=[()].

`FlowNetwork` and `max_flow`, a dict-of-dicts network and its value and
minimal min cut on the same `_augment`, have no caller in the package; they
are kept for the benchmark probe that wraps `flow.max_flow` and for the
tests' reference implementations.

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


def max_flow(net: FlowNetwork):
    """Maximum flow value and the minimal source-side min cut, as a pair.

    If the source can reach the sink through infinite-capacity arcs alone the
    value is math.inf and the cut None.
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
            return INF, None

    value, reached = _augment(head, res, adj, s, t)
    return value, frozenset(nodes[i] for i in reached)


class TransportNetwork:
    """The client -> center transport network on integer arrays, built once
    and solved for any number of demand and supply maps by `cuts`.

    The network is source -> client (capacity demand[c]) -> each center of
    allowed[c] (unbounded) -> sink (capacity supply[v]) for each center of
    `centers`, on integer node ids: source 0, sink 1, the clients in the
    order given, then the centers in the order they are first named,
    allowed lists before `centers`.  A center named only in an allowed list
    is a dead end.  The arrays are built here in one pass: the sink arcs,
    the source arcs in client order, then each client's arcs, one per
    distinct allowed center, each arc listed at both of its ends as it is
    made.  So `adj[0]` is the source arcs in client order, and a supplied
    center's first arc is its sink arc, followed only by the reverses of
    the client arcs into it: the two facts `cuts` reads.  Besides `head`
    and `adj` the network keeps the source arc of each client, the sink arc
    of each center, `direct`, each client's one-step paths to the sink for
    the seating pass, and `template`, the residuals of the zero flow with
    every client -> center arc unbounded and every source and sink arc at
    0.  `cuts` writes the capacities into a copy of `template`, which is
    never changed.
    """

    def __init__(self, clients: Iterable, allowed: Mapping, centers: Iterable):
        self.clients = list(clients)
        self.allowed = allowed
        self.centers = list(centers)
        first = len(self.clients) + 2  # id of the first center
        center_id: dict = {}
        for c in self.clients:
            for v in allowed[c]:
                center_id.setdefault(v, first + len(center_id))
        for v in self.centers:
            center_id.setdefault(v, first + len(center_id))
        head = []  # arc 2k+1 reverses arc 2k
        adj = [[] for _ in range(first + len(center_id))]
        sink = {}  # center id -> its sink arc
        for v in self.centers:
            j = center_id[v]
            if j not in sink:
                sink[j] = e = len(head)
                adj[j].append(e)
                adj[1].append(e + 1)
                head += (1, j)
        for i in range(2, first):
            e = len(head)
            adj[0].append(e)
            adj[i].append(e + 1)
            head += (i, 0)
        fixed = len(head)
        # per client: (reverse of its arc to a center, that center's sink
        # arc) for each allowed center with a sink arc, the one-step paths
        # of the seating pass
        self.direct = []
        for i, c in enumerate(self.clients, 2):
            paths = []
            for j in dict.fromkeys([center_id[v] for v in allowed[c]]):
                e = len(head)
                adj[i].append(e)
                adj[j].append(e + 1)
                head += (j, i)
                if j in sink:
                    paths.append((e + 1, sink[j]))
            self.direct.append(paths)
        self.head, self.adj = head, adj
        self.template = [0] * fixed + [INF, 0] * ((len(head) - fixed) // 2)
        self.source_arc = dict(zip(self.clients, adj[0]))
        self.sink_arc = {v: sink[center_id[v]] for v in self.centers}

    def cuts(self, demand: Mapping, supply: Mapping, forced=(), closed=()):
        """Route client demand to allowed centers within their supply,
        solved once per variant: first for each client w of `forced`, with
        w's demand made infinite, then for each center set of `closed`, with
        the supply of those centers made 0.  A caller that needs the plain
        network passes closed=[()].  A client without a demand entry has
        demand 0, and a center without a supply entry has supply 0.

        Returns an iterator of one (value, blocked) pair per variant, in
        that order: the flow value, a Fraction, and the clients on the
        source side of the minimal min cut, which violate Hall's condition
        together when the value falls short of the total demand.  Each
        variant is solved only when the iterator is asked for it, so a
        caller that stops at the first variant it needs solves no later
        one.  The input is checked at the call: every supply must be
        finite, every amount nonnegative, every forced client one of the
        network's clients, and every name in `demand` and `supply` one the
        network was built with.  Every finite demand and supply is scaled
        by the lcm of their denominators, so every residual is an int.  A
        forced variant starts from the base maximum flow, which stays
        feasible when a capacity rises.  The first closed variant starts
        from the zero flow and each later one from the maximum flow of the
        one before: the sink arcs closed there reopen, the flow through
        each newly closed center is cancelled back to the source, and only
        that displaced load is augmented again.  Each variant first runs
        the seating pass, `_seat`, which routes leftover demand straight to
        allowed centers with supply left, and then one Dinic call, which
        takes that feasible flow to a maximum one.  The value and the
        minimal min cut do not depend on the maximum flow reached, so the
        seated flow changes neither.
        """
        if any(s is INF for s in supply.values()):
            raise ContractViolation("infinite supply in a transport network")
        if any(d is not INF and d < 0 for d in demand.values()):
            raise InstanceError("negative demand")
        if any(s < 0 for s in supply.values()):
            raise InstanceError("negative capacity")
        clients, head, adj, direct = self.clients, self.head, self.adj, self.direct
        source_arc, sink_arc = self.source_arc, self.sink_arc
        for names, arcs, kind in ((demand, source_arc, "client"), (supply, sink_arc, "center")):
            for u in names:
                if u not in arcs:
                    raise ContractViolation(f"{kind} {u!r} is not in the transport network")
        forced_arcs = []  # the source arc of each forced client
        for w in forced:
            if w not in source_arc:
                raise InstanceError(f"forced client {w!r} is not a client of the network")
            forced_arcs.append(source_arc[w])
        finite = [d for d in demand.values() if d is not INF] + list(supply.values())
        scale = math.lcm(*(a.denominator for a in finite))
        zero = self.template[:]
        for c, d in demand.items():
            zero[source_arc[c]] = d if d is INF else d.numerator * (scale // d.denominator)
        for v, s in supply.items():
            zero[sink_arc[v]] = s.numerator * (scale // s.denominator)
        first = len(clients) + 2

        def cut(total, reached):
            blocked = frozenset(clients[u - 2] for u in reached if 2 <= u < first)
            return Fraction(total, scale), blocked

        def variants():
            if forced_arcs:
                base = zero[:]
                base_value = _seat(base, adj[0], direct) + _augment(head, base, adj, 0, 1)[0]
                for a in forced_arcs:
                    res = base[:]
                    res[a] = INF
                    more = _seat(res, adj[0], direct)
                    rest, reached = _augment(head, res, adj, 0, 1)
                    yield cut(base_value + more + rest, reached)
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
                    e = sink_arc.get(v)
                    if e is None:
                        continue
                    total -= res[e ^ 1]
                    res[e ^ 1] = res[e] = 0
                    for r in adj[head[e ^ 1]][1:]:  # the reverse of each client -> v arc holds its flow
                        f = res[r]
                        if f:
                            res[r] = 0
                            a = adj[0][head[r] - 2]  # the client's source arc
                            res[a] += f
                            res[a ^ 1] -= f
                    opened.append(e)
                total += _seat(res, adj[0], direct)
                more, reached = _augment(head, res, adj, 0, 1)
                total += more
                yield cut(total, reached)

        return variants()


def _seat(res, source_arcs, direct):
    """The seating pass: walk the clients in order and route each one's
    residual demand along its one-step paths, straight to each allowed
    center with residual supply, updating `res` in place.  Returns the value
    added.  `direct[k]` lists (reverse of the client -> center arc, sink
    arc) for the client of source arc `source_arcs[k]`.

    An infinite demand (a forced client) stays infinite and fills each of
    its centers.  A client -> center arc is unbounded and stays so; only
    its reverse records the flow.
    """
    value = 0
    for a, paths in zip(source_arcs, direct):
        left = res[a]
        if not left:
            continue
        sent = 0
        for r, s in paths:
            room = res[s]
            if room:
                push = room if room < left else left
                res[s] = room - push
                res[s ^ 1] += push
                res[r] += push
                sent += push
                left -= push
                if not left:
                    break
        if sent:
            res[a] = left
            res[a ^ 1] += sent
            value += sent
    return value


def transport_cuts(demand: Mapping, allowed: Mapping, supply: Mapping, forced=(), closed=()):
    """`TransportNetwork.cuts` on a network built for this one call: the
    clients of `demand`, their `allowed` lists and the centers of
    `supply`."""
    return TransportNetwork(demand, allowed, supply).cuts(demand, supply, forced, closed)


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
