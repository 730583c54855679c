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
rounding's transfer checks.  Every one of them asks one question of it,
which is the first variant whose flow value falls below a bound, and
`short` answers only that: the variant's index and the client positions
and center ids of its minimal min cut, or None.  The network is
positional: client i may use the center ids `allowed[i]`, and `short` takes
demand in client order and supply in center order.  Clients whose allowed
lists are equal are twins, and each class of twins is one flow node whose
demand is the sum of its members': at a verification radius most clients
see the same centers.  The positive-demand members of a class are on one
side of every min cut, since a member moved to its class-mates' side saves
its demand and adds nothing, its unbounded arcs going to the same centers;
a zero-demand client carries no flow and is on the minimal source side
only when forced.  So the class network has the value and, expanded to
members, the minimal min cut of the per-client one, and forcing any
member of a class gives the class's one forced value: a class that is not
short at its first member is short at none, and is solved once.  The
network builds its integer arrays once, and `short` reads two facts of
their layout: the source's arcs are the source arcs in class order, and a
center lists its sink arc first, then only the reverses of the class arcs
into it.  Each `short` call scales its demands, supplies and bound to ints,
writes each class's sum into a copy of the zero-flow residuals, and solves
the variants in order until one falls short: each client forced in, one
class at a time from one base flow, or one center set closed, the closed
ones as one chain, each from the maximum flow of the one before with only
the load of the newly closed centers re-augmented.  Before Dinic runs on a
variant, a seating pass, `_seat`, routes what it can along the one-step
paths source -> class -> allowed center -> sink, the classes in order,
without a level graph; Dinic then finishes the flow, and often its first
BFS already finds no path to the sink.  The seated flow is a feasible
flow, Dinic takes any feasible flow to a maximum one, and the value and
the minimal min cut are the same for every maximum flow, so the pass
changes no result.  The LP separators build one network per threshold and
call `short` once per cutting-plane round, with the supplies of that
round's point; the other callers build a network for a single call.  A
caller that needs the plain network asks for the single variant
closed=[()].

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
    and asked, for any number of demand and supply sequences, by `short`
    which variant falls below a bound first.

    Client i may use the centers `allowed[i]`, center vertex ids that must
    all be in `centers`, else the network is a `ContractViolation`, as is a
    repeated center.  The clients whose allowed lists are equal as tuples
    are twins, and each class of twins, in order of first appearance, is one
    node: `twin[i]` is the class of client i.  The network is source ->
    class c (capacity the demand of its members) -> each center of its
    allowed list (unbounded) -> sink (capacity supply[j] for centers[j]), on
    integer node ids: source 0, sink 1, the classes, then the centers.  The
    arrays are built here in one pass: the sink arcs in center order, so the
    sink arc of centers[j] is arc 2j, the source arcs in class order, then
    each class's arcs, one per allowed entry, each arc listed at both of its
    ends as it is made.  So `adj[0]` is the source arcs in class order, and
    a center's first arc is its sink arc, followed only by the reverses of
    the class arcs into it: the two facts `short` reads.  Besides `centers`,
    `twin`, `head` and `adj` the network keeps `direct`, each class's
    one-step paths to the sink for the seating pass, and `template`, the
    residuals of the zero flow with every class -> center arc unbounded and
    every source and sink arc at 0.  `short` writes the capacities into a
    copy of `template`, which is never changed.

    One node per class is exact: the clients of a class with positive
    demand are on one side of every min cut of the per-client network.  A
    member left outside while a class-mate is inside may move in: that
    saves its demand and adds nothing, since its unbounded arcs go to the
    class-mate's centers.  A client without demand carries no flow, so it
    is on the minimal source side only when it is forced.
    """

    def __init__(self, allowed: Sequence[Sequence], centers: Sequence):
        self.centers = centers = list(centers)
        classes = {}  # allowed tuple -> class, in order of first appearance
        self.twin = [classes.setdefault(tuple(near), len(classes)) for near in allowed]
        first = len(classes) + 2  # id of the first center
        node = {v: j for j, v in enumerate(centers, first)}
        if len(node) < len(centers):
            raise ContractViolation("repeated center in a transport network")
        head = []  # arc 2k+1 reverses arc 2k; the sink arc of center j is 2 * (j - first)
        adj = [[] for _ in range(first + len(centers))]
        for j in range(first, first + len(centers)):
            adj[j].append(len(head))
            adj[1].append(len(head) + 1)
            head += (1, j)
        for i in range(2, first):
            e = len(head)
            adj[0].append(e)
            adj[i].append(e + 1)
            head += (i, 0)
        fixed = len(head)
        # per class: (reverse of its arc to a center, that center's sink
        # arc) for each allowed center, the one-step paths of the seating pass
        self.direct = []
        for i, near in enumerate(classes, 2):
            paths = []
            for v in near:
                j = node.get(v)
                if j is None:
                    raise ContractViolation(
                        f"allowed center {v!r} of client {self.twin.index(i - 2)} "
                        "is not in the transport network"
                    )
                e = len(head)
                adj[i].append(e)
                adj[j].append(e + 1)
                head += (j, i)
                paths.append((e + 1, 2 * (j - first)))
            self.direct.append(paths)
        self.head, self.adj = head, adj
        self.template = [0] * fixed + [INF, 0] * ((len(head) - fixed) // 2)

    def short(self, demand: Sequence, supply: Sequence, bound, forced=False, closed=()):
        """The first variant whose flow value is below `bound`, as (index,
        clients, centers), or None when no variant falls short.  A value
        equal to `bound` is not short.  The variants are, if `forced`, one
        per client w in client order, with w's demand made infinite, index
        w; otherwise one per set of center ids in `closed`, with the supply
        of those centers made 0, index its position in `closed`.  One call
        asks for one kind, so `forced` with a nonempty `closed` is a
        `ContractViolation`.  A caller that needs the plain network passes
        closed=[()].  `demand` lists one amount per client, in client
        order, `supply` one per center, in `centers` order, and `bound` is
        an int or a Fraction.

        `clients` and `centers` are the client positions and the center ids
        on the source side of the short variant's minimal min cut, built
        for that variant alone.  At a bound of the total demand the clients
        violate Hall's condition together; every client -> center arc is
        unbounded, so the centers are exactly the union of their allowed
        lists, closed centers included.  A variant is solved only once every
        earlier one is found not short.  The input is checked before any
        is solved: every demand and supply must be finite and nonnegative,
        each sequence as long as the clients or centers, and every closed
        id one of `centers`.  The demands, the supplies and the bound are
        scaled by the lcm of their denominators, so every residual and
        every comparison is an int.

        The flows run on the class nodes: a class's demand is the sum of
        its members' scaled demands, and a class on the source side of a
        cut stands for its members of positive demand.  Forcing client w
        forces w's class, whose members of positive demand are on w's side
        of every min cut anyway, so every member of a class has one forced
        value.  A class is therefore solved once, at its first member in
        client order: if that member is not short, no later member is, and
        the class is never revisited; if it is, the first member is the one
        returned, with itself added to the clients.  A forced variant sets
        its class's source arc to INF on a copy of the base maximum flow,
        which stays feasible when a capacity rises.  The first closed
        variant starts from the zero flow and each later one from the
        maximum flow of the one before: the sink arcs closed there reopen,
        the flow through each newly closed center is cancelled back to the
        source, and only that displaced load is augmented again.  Each
        variant first runs the seating pass, `_seat`, which routes leftover
        demand straight to allowed centers with supply left, and then one
        Dinic call, which takes that feasible flow to a maximum one.  The
        value and the minimal min cut do not depend on the maximum flow
        reached, so the seated flow changes neither.
        """
        centers, head, adj, direct, twin = self.centers, self.head, self.adj, self.direct, self.twin
        if len(demand) != len(twin) or len(supply) != len(centers):
            raise ContractViolation(
                f"{len(demand)} demands and {len(supply)} supplies for a transport "
                f"network of {len(twin)} clients and {len(centers)} centers"
            )
        for amounts, kind in ((demand, "demand"), (supply, "supply")):
            if INF in amounts:
                raise ContractViolation(f"infinite {kind} in a transport network")
        if any(d < 0 for d in demand):
            raise InstanceError("negative demand")
        if any(s < 0 for s in supply):
            raise InstanceError("negative capacity")
        sink_arc = {v: 2 * j for j, v in enumerate(centers)}
        try:
            closed = [[sink_arc[v] for v in F] for F in closed]
        except KeyError as err:
            raise ContractViolation(
                f"closed center {err.args[0]!r} is not in the transport network"
            ) from None
        if forced and closed:
            raise ContractViolation("forced and closed variants in one transport network call")
        scale = math.lcm(*(a.denominator for a in (*demand, *supply, bound)))
        bound = bound.numerator * (scale // bound.denominator)
        zero = self.template[:]
        source = adj[0]
        for c, d in zip(twin, demand):
            if d:
                zero[source[c]] += d.numerator * (scale // d.denominator)
        for j, s in enumerate(supply):
            zero[2 * j] = s.numerator * (scale // s.denominator)
        if forced:
            base = zero[:]
            value = _seat(base, source, direct) + _augment(head, base, adj, 0, 1)[0]
            index = -1
            for c in range(len(source)):
                index = twin.index(c, index + 1)  # c's first member, after c - 1's
                res = base[:]
                res[source[c]] = INF
                more = _seat(res, source, direct)
                rest, reached = _augment(head, res, adj, 0, 1)
                if value + more + rest < bound:
                    break
            else:
                return None
        else:
            # the closed variants form one chain: each starts from the maximum
            # flow of the one before, reopens that one's sink arcs, and cancels
            # the flow through each newly closed center
            res = zero[:]
            value = 0
            opened = []  # the sink arcs the previous variant closed
            for index, arcs in enumerate(closed):
                for e in opened:
                    res[e] = zero[e] - res[e ^ 1]  # raising a capacity keeps the flow feasible
                for e in arcs:
                    value -= res[e ^ 1]
                    res[e ^ 1] = res[e] = 0
                    for r in adj[head[e ^ 1]][1:]:  # the reverse arc holds the class -> v flow
                        f = res[r]
                        if f:
                            res[r] = 0
                            a = source[head[r] - 2]  # the class's source arc
                            res[a] += f
                            res[a ^ 1] -= f
                opened = arcs
                value += _seat(res, source, direct)
                more, reached = _augment(head, res, adj, 0, 1)
                value += more
                if value < bound:
                    break
            else:
                return None
        first = len(source) + 2
        inside = {u - 2 for u in reached if 2 <= u < first}
        clients = {i for i, (c, d) in enumerate(zip(twin, demand)) if d and c in inside}
        near = frozenset(centers[u - first] for u in reached if u >= first)
        return index, frozenset(clients | {index} if forced else clients), near


def _seat(res, source_arcs, direct):
    """The seating pass: walk the class nodes in order and route each one's
    residual demand along its one-step paths, straight to each allowed
    center with residual supply, updating `res` in place.  Returns the value
    added.  `direct[k]` lists (reverse of the class -> center arc, sink
    arc) for the class of source arc `source_arcs[k]`.

    An infinite demand (a forced class) stays infinite and fills each of
    its centers.  A class -> center arc is unbounded and stays so; only
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
