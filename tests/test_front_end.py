"""The sweep front end against its references: ranked-prefix threshold
graphs against the brute-force filter, bitset hop rows, balls and
components against the deque BFS, closed neighborhoods, induced subgraphs
and 0-0 strips against filters over the generated edge list, the
ball-based clustering against the hop-matrix one, and the mask popcount of
`quick_infeasible` against the closed neighborhoods."""

import math
import random
from fractions import Fraction

import pytest

from ftkcenter.bottleneck import quick_infeasible
from ftkcenter.clustering import monarch_clustering
from ftkcenter.instance import MetricInstance, ThresholdGraph, strip_zero_zero_edges
from ftkcenter.oracle import random_connected_graph

from helpers import (
    bfs_hops,
    brute_threshold_pairs,
    edge_set,
    hop_matrix_clustering,
    pair_masks,
)


def random_edges(rng, n, p):
    """Each pair an edge with probability p, in shuffled order."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    rng.shuffle(edges)
    return edges


def random_graph(rng, n, p):
    return ThresholdGraph(n, random_edges(rng, n, p))


def brute_neighborhood(edges, U, ell):
    """U grown ell times by every edge with an endpoint inside."""
    reach = set(U)
    for _ in range(ell):
        reach |= {b for a, b in edges if a in reach} | {a for a, b in edges if b in reach}
    return reach


def reference_components(graph):
    hops = bfs_hops(graph)
    comps = {tuple(v for v in range(graph.n) if hops[s][v] < math.inf) for s in range(graph.n)}
    return tuple(sorted(comps))


def grid_instance(cols, rows, k, alpha):
    points = [(x, y) for y in range(rows) for x in range(cols)]
    return MetricInstance.from_points(points, k, alpha, [2] * len(points), name="grid")


def probe_thresholds(inst):
    """Every threshold, one point between each two, one below 0 and one
    above the largest."""
    taus = inst.thresholds_sq()
    between = [(a + b) / 2 for a, b in zip(taus, taus[1:])]
    return [Fraction(-1), *taus, *between, taus[-1] + 1]


def assert_same_graph(got, n, tau2, pairs):
    assert got.n == n and got.tau2 == tau2
    assert got.masks == pair_masks(n, pairs)


def assert_same_clustering(graph):
    assert monarch_clustering(graph) == hop_matrix_clustering(graph)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14])
def test_random_graphs_hops_balls_components(n):
    rng = random.Random(f"front-end/{n}")
    for p in (0.0, 0.1, 0.25, 0.5, 0.9):
        for _ in range(4):
            edges = random_edges(rng, n, p)
            g = ThresholdGraph(n, edges)
            assert_same_graph(g, n, None, edges)
            want = bfs_hops(g)
            assert g.hops() == want
            assert g.components() == reference_components(g)
            assert g.is_connected() == (len(reference_components(g)) <= 1)
            for s in range(n):
                for r, ball in enumerate(g.balls(s, 4)):
                    assert ball == sum(1 << v for v in range(n) if want[s][v] <= r)
                assert g.closed(s) == sorted(brute_neighborhood(edges, [s], 1))
            U = [v for v in range(n) if rng.random() < 0.3]
            for ell in range(4):
                assert g.neighborhood(U, ell) == brute_neighborhood(edges, U, ell)
            for verts in (*g.components(), U):
                sub, orig = g.induced(verts)
                pos = {v: i for i, v in enumerate(orig)}
                kept = [(pos[a], pos[b]) for a, b in edges if a in pos and b in pos]
                assert orig == tuple(sorted(verts))
                assert_same_graph(sub, len(orig), None, kept)
            caps = [rng.choice((0, 0, 1, 3)) for _ in range(n)]
            kept = [(a, b) for a, b in edges if caps[a] > 0 or caps[b] > 0]
            assert_same_graph(strip_zero_zero_edges(g, caps), n, None, kept)


@pytest.mark.parametrize("n", [1, 2, 6, 11, 17])
def test_random_graphs_quick_infeasible(n):
    rng = random.Random(f"quick/{n}")
    for _ in range(20):
        g = random_graph(rng, n, rng.choice((0.1, 0.3, 0.6)))
        caps = [rng.choice((0, 0, 1, 3)) for _ in range(n)]
        alpha = rng.randrange(3)
        k = rng.randint(alpha + 1, alpha + 4)
        got = quick_infeasible(g, k, caps, alpha)
        thin = [
            (v, good)
            for v in range(n)
            for good in [sum(1 for u in g.closed(v) if caps[u] > 0)]
            if good <= alpha
        ]
        if thin:
            v, good = thin[0]
            assert got == f"vertex {v} has {good} positive-capacity neighbors, needs alpha+1={alpha + 1}"
        else:
            assert got is None or got.startswith("best ")


def test_random_connected_graphs_clustering():
    rng = random.Random("front-end/clustering")
    for n in (1, 2, 3, 7, 12, 20, 30):
        for extra in (0, 2, n):
            assert_same_clustering(random_connected_graph(rng, n, extra))


def test_disconnected_graphs_clustering_per_component():
    rng = random.Random("front-end/components")
    for n in (4, 9, 16):
        for _ in range(5):
            g = random_graph(rng, n, 0.2)
            for comp in g.components():
                sub, _ = g.induced(comp)
                assert_same_clustering(sub)


@pytest.mark.parametrize("shape", [(1, 1, 1, 0), (2, 1, 1, 0), (4, 4, 4, 1), (5, 3, 3, 1), (6, 6, 5, 2)])
def test_grid_threshold_graphs_match_brute_filter(shape):
    cols, rows, k, alpha = shape
    inst = grid_instance(cols, rows, k, alpha)
    for tau2 in probe_thresholds(inst):
        G = inst.threshold_graph(tau2)
        assert_same_graph(G, inst.n, tau2, brute_threshold_pairs(inst, tau2))
        assert G.hops() == bfs_hops(G)
        assert G.components() == reference_components(G)
        if G.is_connected():
            assert_same_clustering(G)


def test_threshold_graph_accepts_ints_and_ranks_lazily():
    inst = grid_instance(3, 3, 3, 1)
    assert "_ranked" not in vars(inst)  # parsing does not rank the pairs
    assert_same_graph(inst.threshold_graph(2), inst.n, 2, brute_threshold_pairs(inst, 2))
    assert "_ranked" in vars(inst)
    assert edge_set(inst.threshold_graph(-5)) == frozenset()
    assert len(edge_set(inst.threshold_graph(10**6))) == 9 * 8 // 2
    assert inst.thresholds_sq() == (0, 1, 2, 4, 5, 8)


def test_random_point_instances_match_brute_filter():
    rng = random.Random("front-end/points")
    for n in (1, 2, 7, 13):
        points = [(rng.randrange(6), Fraction(rng.randrange(12), 2)) for _ in range(n)]
        inst = MetricInstance.from_points(points, 1, 0, [1] * n)
        for tau2 in probe_thresholds(inst):
            assert_same_graph(inst.threshold_graph(tau2), inst.n, tau2, brute_threshold_pairs(inst, tau2))


@pytest.mark.parametrize("seed", range(4))
def test_threshold_graphs_in_any_query_order(seed):
    """Ascending, descending, repeated and shuffled queries, and two sweeps
    interleaved on one instance: every graph matches the brute-force
    filter, also after later queries have grown or restarted the prefix."""
    rng = random.Random(f"front-end/order/{seed}")
    n = 3 + 3 * seed
    points = [(rng.randrange(5), rng.randrange(5)) for _ in range(n)]
    inst = MetricInstance.from_points(points, 1, 0, [1] * n)
    taus = probe_thresholds(inst)
    shuffled = taus[:]
    rng.shuffle(shuffled)
    repeated = [t for t in taus for _ in range(2)]
    interleaved = [t for pair in zip(taus, reversed(taus)) for t in pair]
    built = []
    for order in (taus, taus[::-1], repeated, shuffled, interleaved):
        for tau2 in order:
            G = inst.threshold_graph(tau2)
            assert_same_graph(G, n, tau2, brute_threshold_pairs(inst, tau2))
            built.append((G, tau2))
    for G, tau2 in built:
        assert_same_graph(G, n, tau2, brute_threshold_pairs(inst, tau2))
