"""Shared test utilities: tiny graph builders, exhaustive reference
implementations of the separation problems, cut capacities, and assignment
checkers."""

from fractions import Fraction
from itertools import combinations

from ftkcenter.flow import INF
from ftkcenter.instance import ThresholdGraph, uniform_capacity_level


def path_graph(n: int) -> ThresholdGraph:
    return ThresholdGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> ThresholdGraph:
    return ThresholdGraph(n, [(i, (i + 1) % n) for i in range(n)])


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
                     for w in gprime.closed_out(U) - fset),
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
            cov = graph.neighborhood(U, 1)
            have = sum(
                (Fraction(L) * Fraction(y.get(w, 0))
                 for w in cov if caps[w] > 0),
                Fraction(0),
            ) - size
            if best is None or have < best:
                best = have
    return best


def check_assignment(graph_or_d2, phi, centers, caps, bound, squared=False):
    """Totality, membership, capacity, and distance bound of an assignment."""
    load = {}
    for u, c in phi.items():
        assert c in centers, f"vertex {u} assigned outside the solution"
        load[c] = load.get(c, 0) + 1
        if squared:
            assert graph_or_d2[u][c] <= bound, (u, c)
        else:
            assert graph_or_d2.hop(u, c) <= bound, (u, c)
    for c, l in load.items():
        assert l <= caps[c], f"center {c} overloaded: {l} > {caps[c]}"


def conservative_consistent(phi0, phi, F):
    for u, c in phi0.items():
        if c not in F:
            assert phi[u] == c, f"client {u} of live center {c} was moved"
