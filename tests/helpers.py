"""Shared test utilities: random feasible instances and random connected
graphs, tiny graph builders, instances on a graph's hop metric, edge sets
and masks read
straight off the bits, the brute-force threshold filter, deque-BFS hop
matrices and the hop-matrix clustering, the uncapped general-capacity
front end with component counts from `components()`, closed
out-neighborhoods read off G' masks, `transport` (one `flow.max_flow` on a
`FlowNetwork` built arc by arc, the reference for each variant of
`transport_cuts`), exhaustive reference implementations of the separation
problems, the separators' full `TransportNetwork.cuts` passes and the separators
with one `transport` per cut, the verifier with one assignment per failure
scenario, the Fraction-tableau phase-1 and dual simplex, the from-scratch
cutting-plane loop, the Edmonds-Karp max-flow and the capacitated
assignment read off its flow, cut capacities, the conservative-repair
check, and the exhaustive residual solve that the general conservative
pipeline's 1 + 6*alpha cross-check runs in place of its LP residual."""

import math
from collections import deque
from fractions import Fraction
from itertools import combinations

from ftkcenter.bottleneck import PerTauInfeasible, PerTauSolution, quick_infeasible, solve_threshold
from ftkcenter.clustering import Clustering, backup_union, monarch_clustering, select_backups
from ftkcenter.flow import (
    INF,
    FlowNetwork,
    HallWitness,
    capacitated_assignment,
    max_flow,
)
from ftkcenter.instance import (
    ContractViolation,
    InstanceError,
    MetricInstance,
    ThresholdGraph,
    mask_bits,
    uniform_capacity_level,
)
from ftkcenter.lp import LinearProgram, Row, feasible_point, static_general_infeasible
from ftkcenter.oracle import exact_distance1, exact_opt, random_point_instance
from ftkcenter.solvers import ft_general_connected
from ftkcenter.verify import VerifyReport, _check_centers


def random_feasible_instance(
    rng,
    n: int,
    k: int,
    alpha: int,
    variant: str = "ft",
    caps_mode: str = "general",
    span: int = 12,
    max_tries: int = 200,
):
    """Draw random instances until the exhaustive oracle certifies one.

    Returns (instance, optimum_sq, witness); the caller gets the optimum for
    free instead of re-running the oracle.
    """
    for t in range(max_tries):
        inst = random_point_instance(
            rng, n, k, alpha, variant=variant, caps_mode=caps_mode, span=span,
            name=f"random-{variant}-{t}",
        )
        opt2, wit = exact_opt(inst)
        if opt2 is not None:
            return inst, opt2, wit
    raise RuntimeError("no feasible instance found; loosen the parameters")


def random_connected_graph(rng, n: int, extra: int = 0) -> ThresholdGraph:
    """Random spanning tree plus `extra` random non-tree edges."""
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a = order[i]
        b = order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < n - 1 + extra and tries < 50 * (extra + 1):
        a, b = rng.randrange(n), rng.randrange(n)
        tries += 1
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return ThresholdGraph(n, edges)


def path_graph(n: int) -> ThresholdGraph:
    return ThresholdGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> ThresholdGraph:
    return ThresholdGraph(n, [(i, (i + 1) % n) for i in range(n)])


def hop_metric_instance(
    graph: ThresholdGraph,
    k: int,
    alpha: int,
    capacities,
    variant: str = "ft",
    name: str = "hop-instance",
) -> MetricInstance:
    """Instance whose metric is the hop distance of a connected graph."""
    if not graph.is_connected():
        raise InstanceError("hop metric needs a connected graph")
    hops = graph.hops()
    dist = [[int(hops[i][j]) for j in range(graph.n)] for i in range(graph.n)]
    return MetricInstance.from_matrix(dist, k, alpha, capacities, variant, name)


def power(graph: ThresholdGraph, ell: int) -> ThresholdGraph:
    """Graph with an edge wherever the hop distance is between 1 and ell."""
    hops = graph.hops()
    edges = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if hops[u][v] <= ell
    ]
    return ThresholdGraph(graph.n, edges)


def edge_set(graph: ThresholdGraph) -> frozenset:
    """The edges of a graph as pairs (u, v), u < v, one bit test per pair."""
    return frozenset(
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if graph.masks[u] >> v & 1
    )


def pair_masks(n: int, pairs) -> tuple:
    """Adjacency bitmasks of an edge list on vertices 0..n-1."""
    masks = [0] * n
    for u, v in pairs:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return tuple(masks)


def brute_threshold_pairs(inst, tau2) -> list:
    """Every pair compared against tau2: the reference for
    `MetricInstance.threshold_graph`, which reads a prefix of ranked pairs."""
    return [
        (u, v)
        for u in range(inst.n)
        for v in range(u + 1, inst.n)
        if inst.d2[u][v] <= tau2
    ]


def per_pair_triangle_failure(d2):
    """The first (i, j, m), i < j, in lexicographic order with
    d(i,j) > d(i,m) + d(m,j), checking every pair against every vertex on
    squared distances: the reference for the once-per-triple check of
    `MetricInstance.from_matrix`."""
    n = len(d2)
    for i in range(n):
        for j in range(i + 1, n):
            for m in range(n):
                a2, b2, c2 = d2[i][j], d2[i][m], d2[m][j]
                diff = a2 - b2 - c2
                if diff > 0 and diff * diff > 4 * b2 * c2:
                    return i, j, m
    return None


def bfs_hops(graph: ThresholdGraph):
    """All-pairs hop matrix by a deque BFS from every vertex over the
    neighbor lists of `edge_set`: the reference for the bitset rows of
    `graph.hops()`."""
    nbrs = [[] for _ in range(graph.n)]
    for u, v in edge_set(graph):
        nbrs[u].append(v)
        nbrs[v].append(u)
    mat = []
    for s in range(graph.n):
        row = [math.inf] * graph.n
        row[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for w in nbrs[u]:
                if row[w] is math.inf:
                    row[w] = row[u] + 1
                    q.append(w)
        mat.append(row)
    return mat


def hop_matrix_clustering(graph: ThresholdGraph) -> Clustering:
    """The monarch decomposition read off a full hop matrix: the reference
    for `clustering.monarch_clustering`, which reads only head balls.
    Expects a connected graph."""
    n = graph.n
    hops = bfs_hops(graph)
    heads = [0]
    parents = {}
    while True:
        nxt = next((w for w in range(n) if min(hops[w][h] for h in heads) == 3), None)
        if nxt is None:
            break
        parents[nxt] = next(h for h in heads if hops[nxt][h] == 3)
        heads.append(nxt)
    cluster_of = [-1] * n
    for h in heads:
        for v in (w for w in range(n) if hops[h][w] <= 1):
            assert cluster_of[v] == -1, "head neighborhoods overlap"
            cluster_of[v] = h
    for v in range(n):
        if cluster_of[v] == -1:
            cluster_of[v] = next(h for h in heads if hops[v][h] <= 2)
    clusters = {h: tuple(v for v in range(n) if cluster_of[v] == h) for h in heads}
    tree_edges = frozenset((min(c, p), max(c, p)) for c, p in parents.items())
    return Clustering(tuple(heads), tuple(cluster_of), clusters, tree_edges)


def uncapped_ft_general_connected(graph: ThresholdGraph, k: int, caps, alpha: int):
    """The front end of `solvers.ft_general_connected` without its head cap:
    the full clustering, then backup selection and the static count.  A
    threshold that passes all three goes on to `ft_general_connected`
    itself, whose later stages it shares; the reference for the capped
    front end."""
    why = quick_infeasible(graph, k, caps, alpha)
    if why:
        return PerTauInfeasible(why)
    cl = monarch_clustering(graph)
    backups, why = select_backups(cl, caps, alpha)
    if backups is None:
        return PerTauInfeasible(why)
    why = static_general_infeasible(graph, k, cl, backup_union(backups))
    if why:
        return PerTauInfeasible(why)
    return ft_general_connected(graph, k, caps, alpha)


def uncounted_threshold(graph: ThresholdGraph, k: int, alpha: int, caps, connected):
    """`bottleneck.solve_threshold` on a copy of `graph` that carries no
    component count, so `solve_components` counts by `components()`."""
    fresh = ThresholdGraph.from_masks(graph.masks, graph.tau2)
    return solve_threshold(fresh, k, alpha, caps, connected, False)


def closed_out(gprime, U) -> frozenset:
    """The closed out-neighborhood of the vertex set U in G', given as the
    out-neighborhood bitmasks of `clustering.build_gprime`."""
    mask = 0
    for u in U:
        mask |= gprime[u] | 1 << u
    return frozenset(mask_bits(mask))


def transport(demand, allowed, supply):
    """One max flow on the client -> center transport network, built arc by
    arc on a `FlowNetwork`: source -> client (demand), client -> each
    allowed center (unbounded), center -> sink (supply); a center without a
    supply entry is a dead end.  Returns (value, blocked), the clients on
    the source side of the minimal min cut.  The reference for each variant
    of `flow.transport_cuts`, which builds its network on integer arrays."""
    net = FlowNetwork("s", "t")
    for c, d in demand.items():
        net.add_arc("s", ("client", c), d)
        for v in allowed[c]:
            net.add_arc(("client", c), ("center", v), INF)
    for v, s in supply.items():
        net.add_arc(("center", v), "t", s)
    value, cut = max_flow(net)
    if value is INF:
        raise ContractViolation("transport value is infinite")
    return value, frozenset(u[1] for u in cut if u[0] == "client")


def cut_capacity(net, source_side):
    """Total capacity of a FlowNetwork crossing from source_side to its
    complement."""
    side = set(source_side)
    total = 0
    for u in side:
        for v, c in net.cap.get(u, {}).items():
            if v not in side:
                if c is INF:
                    return INF
                total += c
    return total


def all_subsets(items, max_size=None):
    items = sorted(items)
    top = len(items) if max_size is None else min(max_size, len(items))
    for size in range(top + 1):
        yield from combinations(items, size)


def brute_separate_general(y, graph, gprime, backup_set, alpha, caps):
    """Minimal slack of the Hall rows over every (U, F), F an alpha-subset of
    the backups, U any vertex subset (the empty U contributes slack 0)."""
    n = graph.n
    best = Fraction(0)
    for F in combinations(sorted(backup_set), alpha):
        fset = set(F)
        for size in range(1, n + 1):
            for U in combinations(range(n), size):
                have = sum(
                    (Fraction(caps[w]) * Fraction(y.get(w, 0))
                     for w in closed_out(gprime, U) - fset),
                    Fraction(0),
                )
                best = min(best, have - size)
    return best


def brute_separate_uniform(y, graph, caps, alpha):
    """Minimal coverage of the uniform cut rows over every nonempty U,
    to be compared against the alpha*L threshold."""
    L = uniform_capacity_level(caps)
    n = graph.n
    best = None
    for size in range(1, n + 1):
        for U in combinations(range(n), size):
            cov = set().union(*(graph.closed(u) for u in U))
            have = sum(
                (Fraction(L) * Fraction(y.get(w, 0))
                 for w in cov if caps[w] > 0),
                Fraction(0),
            ) - size
            if best is None or have < best:
                best = have
    return best


def random_separation_point(rng):
    """(graph, y, alpha) for a separator: a graph on 1..7 vertices that may
    be disconnected, y with mixed denominators and zeros, alpha 0..2."""
    n = rng.randint(1, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = ThresholdGraph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
    y = {
        u: Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(0, 6), rng.randint(1, 7))
        for u in range(n)
    }
    return g, y, rng.randint(0, 2)


def full_pass_general(y, network, backup_set, alpha, capacities):
    """value - n of every closed variant of the `network.cuts` call that
    `lp.separate_general` makes, one per failure scenario, all solved: the
    minimum is the global minimum over (U, F)."""
    cuts = network.cuts(
        dict.fromkeys(network.clients, 1),
        {u: y[u] * capacities[u] for u in network.centers},
        closed=list(combinations(sorted(backup_set), alpha)),
    )
    return [value - len(network.clients) for value, _ in cuts]


def full_pass_uniform(y, network, capacities):
    """value - n of every forced variant of the `network.cuts` call that
    `lp.separate_uniform` makes, one per vertex, all solved: the minimum is
    the global minimum over nonempty U."""
    L = uniform_capacity_level(capacities)
    supply = {u: y[u] * L for u in network.centers}
    cuts = network.cuts(dict.fromkeys(network.clients, 1), supply, forced=network.clients)
    return [value - len(network.clients) for value, _ in cuts]


def assert_first_violated_row(row, y, minimum, threshold, ref):
    """`row`, a separator's answer at y, is None exactly when the brute
    `minimum` is at least `threshold`, cuts y when it is not None, and is
    the row of `ref`, the per-cut reference."""
    assert (row is None) == (minimum >= threshold)
    if row is not None:
        assert sum(c * y[v] for v, c in row.coeffs) < row.rhs
    assert row == ref


def per_cut_separate_general(y, graph, gprime, backup_set, alpha, capacities):
    """`lp.separate_general` with one `transport` per failure scenario F on
    the network rebuilt without F: the row of the first scenario whose cut
    is below n, or None.  The reference for the single `network.cuts` call
    of the separator."""
    n = graph.n
    demand = dict.fromkeys(range(n), 1)
    for F in combinations(sorted(backup_set), alpha):
        Fset = frozenset(F)
        allowed = {v: [u for u in closed_out(gprime, [v]) if u not in Fset] for v in range(n)}
        supply = {u: y[u] * capacities[u] for u in range(n) if u not in Fset}
        value, blocked = transport(demand, allowed, supply)
        if value < n:
            reach = closed_out(gprime, blocked) - Fset
            return Row.make({u: capacities[u] for u in reach}, ">=", len(blocked))
    return None


def per_cut_separate_uniform(y, graph, capacities, alpha):
    """`lp.separate_uniform` with one `transport` from scratch per forced
    vertex w, w's demand infinite: the row of the first w whose cut is
    below n + alpha * L, or None.  The reference for the warm-started
    `network.cuts` call of the separator."""
    n = graph.n
    L = uniform_capacity_level(capacities)
    allowed = {v: [u for u in graph.closed(v) if capacities[u] > 0] for v in range(n)}
    supply = {u: y[u] * L for u in range(n) if capacities[u] > 0}
    for w in range(n):
        demand = {v: INF if v == w else 1 for v in range(n)}
        value, blocked = transport(demand, allowed, supply)
        if value < n + alpha * L:
            reach = set()
            for v in blocked:
                reach.update(allowed[v])
            return Row.make({u: L for u in reach}, ">=", len(blocked) + alpha * L)
    return None


def scratch_verify_ft(inst, centers, radius):
    """`verify.verify_ft` with one `capacitated_assignment` per failure
    scenario, each on the network rebuilt without the failed centers: the
    reference for the single `transport_cuts` call of the verifier."""
    bad = _check_centers(inst, centers)
    if bad is not None:
        return bad
    S = sorted(centers)
    caps = {c: inst.capacities[c] for c in S}
    reach = radius.value_sq()
    near = [[c for c in S if row[c] <= reach] for row in inst.d2]
    for F in combinations(S, inst.alpha):
        live = [c for c in S if c not in F]
        allowed = {u: [c for c in cs if c not in F] for u, cs in enumerate(near)}
        phi, witness = capacitated_assignment(list(range(inst.n)), live, allowed, caps)
        if phi is None:
            return VerifyReport(
                False,
                f"failures {sorted(F)}: clients {sorted(witness.clients)} see "
                f"capacity {witness.capacity} < {witness.demand}",
            )
    return VerifyReport(True, "all scenarios served")


def fraction_feasible_point(lp):
    """Phase-1 primal simplex with Bland's rule and artificial columns over
    a dense Fraction tableau: an independent reference for the verdicts of
    `lp.feasible_point`, which reaches its vertex by dual simplex instead.
    A feasible assignment (dict var -> Fraction) or None if infeasible."""
    nvars = lp.num_vars
    norm = []
    for row in lp.rows:
        dense = [Fraction(0)] * nvars
        for v, c in row.coeffs:
            if not 0 <= v < nvars:
                raise InstanceError(f"variable {v} out of range")
            dense[v] += c
        rhs, rel = row.rhs, row.rel
        if rhs < 0:
            dense = [-c for c in dense]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((dense, rel, rhs))

    cols = nvars
    slack_col, art_col = {}, {}
    for i, (_, rel, _) in enumerate(norm):
        if rel != "==":
            slack_col[i] = cols
            cols += 1
    for i, (_, rel, _) in enumerate(norm):
        if rel != "<=":
            art_col[i] = cols
            cols += 1

    tableau = []
    basis = []
    for i, (dense, rel, rhs) in enumerate(norm):
        row = dense + [Fraction(0)] * (cols - nvars) + [rhs]
        if rel == "<=":
            row[slack_col[i]] = Fraction(1)
            basis.append(slack_col[i])
        elif rel == ">=":
            row[slack_col[i]] = Fraction(-1)
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            row[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        tableau.append(row)

    artificials = set(art_col.values())
    # reduced-cost row for minimizing the sum of artificials
    obj = [Fraction(0)] * (cols + 1)
    for i, b in enumerate(basis):
        if b in artificials:
            row = tableau[i]
            for j in range(cols + 1):
                obj[j] -= row[j]
    for j in artificials:
        obj[j] += Fraction(1)

    while True:
        enter = None
        for j in range(cols):
            if obj[j] < 0:
                enter = j  # Bland: lowest index
                break
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if leave is None or ratio < leave[0] or (
                    ratio == leave[0] and basis[i] < leave[1]
                ):
                    leave = (ratio, basis[i], i)
        if leave is None:
            raise ContractViolation("phase-1 objective unbounded below")
        pi = leave[2]
        pj = enter
        prow = tableau[pi]
        p = prow[pj]
        if p != 1:
            tableau[pi] = prow = [c / p for c in prow]
        nz = [j for j, c in enumerate(prow) if c != 0]
        for row in tableau:
            if row is prow:
                continue
            f = row[pj]
            if f != 0:
                for j in nz:
                    row[j] -= f * prow[j]
        f = obj[pj]
        if f != 0:
            for j in nz:
                obj[j] -= f * prow[j]
        basis[pi] = pj

    if obj[-1] != 0:  # optimum of the artificial sum is -obj[-1] > 0
        return None
    x = {j: Fraction(0) for j in range(nvars)}
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][-1]
    return x


def fraction_dual_simplex_point(lp):
    """Dual simplex with Bland's rule from the slack basis over a dense
    Fraction tableau, without gcd scaling: the twin of `lp.feasible_point`,
    which makes the same pivots on integer-scaled rows.  Every row enters as
    `<=` halves with slack columns in row order; the negative-rhs row with
    the lowest basic column leaves and the lowest column with a negative
    entry in it enters.  A feasible assignment (dict var -> Fraction) or
    None if infeasible."""
    nvars = lp.num_vars
    halves = []
    for row in lp.rows:
        dense = [Fraction(0)] * nvars
        for v, c in row.coeffs:
            if not 0 <= v < nvars:
                raise InstanceError(f"variable {v} out of range")
            dense[v] += c
        for sign in {"<=": (1,), ">=": (-1,), "==": (1, -1)}[row.rel]:
            halves.append(([sign * c for c in dense], sign * row.rhs))

    cols = nvars + len(halves)
    tableau = []
    basis = []
    for i, (dense, rhs) in enumerate(halves):
        row = dense + [Fraction(0)] * len(halves) + [rhs]
        row[nvars + i] = Fraction(1)
        tableau.append(row)
        basis.append(nvars + i)

    while True:
        leave = [i for i, row in enumerate(tableau) if row[-1] < 0]
        if not leave:
            break
        pi = min(leave, key=lambda i: basis[i])
        prow = tableau[pi]
        pj = next((j for j in range(cols) if prow[j] < 0), None)
        if pj is None:
            return None
        p = prow[pj]
        tableau[pi] = prow = [c / p for c in prow]
        for row in tableau:
            f = row[pj]
            if row is not prow and f != 0:
                for j in range(cols + 1):
                    row[j] -= f * prow[j]
        basis[pi] = pj

    x = {j: Fraction(0) for j in range(nvars)}
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][-1]
    return x


def scratch_cutting_plane(lp, separator):
    """The cutting-plane loop with a from-scratch `feasible_point` on all
    rows so far in every round: the reference for `lp.solve_cutting_plane`,
    which keeps its tableau and re-solves only from the last basis after
    each cut.  Returns (y, rows) with y None on infeasibility."""
    rows = list(lp.rows)
    seen = set(rows)
    cuts = []
    for _ in range(10_000):
        y = feasible_point(LinearProgram(lp.num_vars, rows))
        if y is None:
            return None, cuts
        row = separator(y)
        if row is None:
            return y, cuts
        if row in seen:
            raise ContractViolation("separator returned an already-satisfied row")
        seen.add(row)
        rows.append(row)
        cuts.append(row)
    raise ContractViolation("cutting plane did not converge")


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


def edmonds_karp_max_flow(net):
    """Edmonds-Karp over a dict-of-dicts residual network, one shortest
    augmenting path at a time: the reference for `flow.max_flow`.  Returns
    (value, flow, min_cut): the flow per original arc, opposite flows
    cancelled, and the minimal source side of a min cut; (inf, {}, None)
    when an all-infinite path exists."""
    source, sink = net.source, net.sink
    # residual[u][v] > 0 means u->v is usable; seeded with original capacities
    residual = {u: dict(vs) for u, vs in net.cap.items()}
    adj = {u: list(vs) for u, vs in net.cap.items()}
    members = {u: set(vs) for u, vs in net.cap.items()}
    for u, vs in net.cap.items():
        for v in vs:
            if u not in members[v]:
                members[v].add(u)
                adj[v].append(u)
            residual[v].setdefault(u, 0)

    seen = {source}
    q = deque([source])
    while q:
        u = q.popleft()
        for v, c in net.cap.get(u, {}).items():
            if c is INF and v not in seen:
                seen.add(v)
                q.append(v)
    if sink in seen:
        return INF, {}, None

    flow = {}
    value = 0
    while True:
        path = _bfs_path(adj, residual, source, sink)
        if path is None:
            break
        push = min(residual[u][v] for u, v in zip(path, path[1:]))
        assert push is not INF
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
    return value, {a: f for a, f in flow.items() if f > 0}, frozenset(reachable)


def flow_capacitated_assignment(clients, centers, allowed, capacities):
    """`flow.capacitated_assignment` by one Edmonds-Karp max flow on the
    client -> center transport network (source -> client 1, client ->
    allowed center unbounded, center -> sink its capacity): the assignment
    read off the flow, the Hall witness off the clients on the source side
    of the minimal min cut.  The reference for the augmenting-path engine,
    which must agree on feasibility and on the witness."""
    center_set = set(centers)
    for c in clients:
        if not center_set.issuperset(allowed[c]):
            v = next(v for v in allowed[c] if v not in center_set)
            raise InstanceError(f"allowed center {v!r} not in centers")
    net = FlowNetwork("s", "t")
    for c in clients:
        net.add_arc("s", ("client", c), 1)
        for v in allowed[c]:
            net.add_arc(("client", c), ("center", v), INF)
    for v in centers:
        net.add_arc(("center", v), "t", capacities[v])
    value, arc_flow, min_cut = edmonds_karp_max_flow(net)
    if value == len(clients):
        phi = {}
        for (tail, head), f in arc_flow.items():
            if tail != "s" and head != "t":
                if f != 1:
                    raise ContractViolation("non-unit client flow")
                phi[tail[1]] = head[1]
        if len(phi) != len(clients):
            raise ContractViolation("assignment misses a client")
        return phi, None
    witness = frozenset(u[1] for u in min_cut if u != "s" and u[0] == "client")
    reach = set()
    for c in witness:
        reach.update(allowed[c])
    cap = sum(capacities[v] for v in reach)
    if cap >= len(witness):
        raise ContractViolation("min-cut witness does not violate Hall's condition")
    return None, HallWitness(witness, cap, len(witness))


def conservative_consistent(phi0, phi, F):
    for u, c in phi0.items():
        if c not in F:
            assert phi[u] == c, f"client {u} of live center {c} was moved"


def exhaustive_residual(graph: ThresholdGraph, k: int, caps, alpha: int):
    """The stretch-1 residual solve by exhaustive search: a size-k set that
    serves every vertex from its closed neighborhood (`exact_distance1`).

    It has the signature of `solvers.ft_general_connected`, which
    `conservative_general_connected` calls with alpha = 0 for its residual;
    patched in as `conservative.ft_general_connected`, it turns the general
    conservative pipeline into the 1 + 6*alpha one."""
    if alpha:
        raise ContractViolation("the residual solve is failure-free")
    found = exact_distance1(graph, k, caps)
    if found is None:
        return PerTauInfeasible("no exact distance-1 residual solution")
    S, phi = found
    return PerTauSolution(tuple(sorted(S)), phi, 1, None)
