"""The sweep front end against its references: ranked-prefix threshold
graphs against the brute-force filter, bitset hop rows, balls and
components against the deque BFS, closed neighborhoods, induced subgraphs
and 0-0 strips against filters over the generated edge list, the
ball-based clustering against the hop-matrix one, the mask popcount of
`quick_infeasible` against the closed neighborhoods, the ranking's
component counts against the BFS, the capped clustering against the full
one, and the general-capacity sweeps against the uncapped front end."""

import math
import random
from fractions import Fraction

import pytest

from ftkcenter import clustering, conservative, solvers
from ftkcenter.bottleneck import PerTauSolution, SweepSuccess, quick_infeasible, solve_threshold, sweep
from ftkcenter.clustering import monarch_clustering
from ftkcenter.conservative import conservative_general_connected, solve_conservative_general
from ftkcenter.instance import (
    InstanceError,
    MetricInstance,
    ThresholdGraph,
    mask_bits,
    strip_zero_zero_edges,
)
from ftkcenter.oracle import random_point_instance
from ftkcenter.solvers import ft_general_connected, solve_ft_general

from helpers import (
    STATIC_ROWS_INFEASIBLE,
    bfs_hops,
    brute_threshold_pairs,
    edge_set,
    hop_matrix_clustering,
    pair_masks,
    random_connected_graph,
    uncapped_ft_general_connected,
    uncounted_threshold,
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
            assert g.component_count() == len(reference_components(g))
            for s in range(n):
                for r, ball in enumerate(g.balls(s, 4)):
                    assert ball == sum(1 << v for v in range(n) if want[s][v] <= r)
                assert g.closed(s) == sorted(brute_neighborhood(edges, [s], 1))
            U = [v for v in range(n) if rng.random() < 0.3]
            for ell in range(4):
                reach = 0
                for u in U:
                    reach |= g.balls(u, ell)[-1]
                assert set(mask_bits(reach)) == brute_neighborhood(edges, U, ell)
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
        if G.component_count() == 1:
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


def assert_counts_match(inst, order):
    for tau2 in order:
        G = inst.threshold_graph(tau2)
        want = len(reference_components(G))
        assert G.component_count() == want
        assert len(G.components()) == want


@pytest.mark.parametrize("seed", range(4))
def test_threshold_graph_component_counts_in_any_query_order(seed):
    """The ranking's union-find count equals the BFS count at every
    threshold, between thresholds and outside them, however the queries
    grow or restart the prefix, on random points and tie-heavy grids."""
    rng = random.Random(f"front-end/counts/{seed}")
    n = 2 + 4 * seed
    points = [(rng.randrange(6), Fraction(rng.randrange(12), 2)) for _ in range(n)]
    for inst in (
        MetricInstance.from_points(points, 1, 0, [1] * n),
        grid_instance(2 + seed, 1 + seed, 1, 0),
    ):
        taus = probe_thresholds(inst)
        shuffled = taus[:]
        rng.shuffle(shuffled)
        for order in (taus, taus[::-1], shuffled):
            assert_counts_match(inst, order)
    g = ThresholdGraph(5, [(0, 1), (3, 4)])  # built from edges: counted by components()
    assert g.component_count() == 3


def test_capped_clustering_stops_iff_the_heads_exceed_the_cap():
    rng = random.Random("front-end/cap")
    for n in (1, 2, 5, 9, 16, 30):
        for extra in (0, 2, n):
            g = random_connected_graph(rng, n, extra)
            full = monarch_clustering(g)
            for cap in range(len(full.heads) + 2):
                got = monarch_clustering(g, cap)
                if len(full.heads) > cap:
                    assert got is None
                else:
                    assert got == full


def test_head_cap_reason_names_k_alpha_and_the_cap():
    path = ThresholdGraph(7, [(i, i + 1) for i in range(6)])  # heads 0, 3, 6
    assert monarch_clustering(path).heads == (0, 3, 6)
    out = ft_general_connected(path, 3, [7] * 7, 1)
    assert out.reason == (
        "2 heads exceed k // (alpha+1) = 3 // 2 = 1: their "
        "closed neighborhoods are disjoint and need alpha+1 centers each"
    )


def test_clustering_decides_connectivity_from_its_balls():
    rng = random.Random("front-end/connectivity")
    for n in (1, 2, 5, 9, 14):
        for p in (0.1, 0.25, 0.5):
            for _ in range(4):
                g = random_graph(rng, n, p)
                if len(reference_components(g)) == 1:
                    assert monarch_clustering(g) == hop_matrix_clustering(g)
                else:
                    with pytest.raises(InstanceError, match="requires a connected graph"):
                        monarch_clustering(g)


def logged_sweep(inst, per_tau):
    """The sweep and its (tau2, reason or None) per threshold tried."""
    log = []

    def logged(G):
        out = per_tau(G)
        log.append((G.tau2, None if isinstance(out, PerTauSolution) else out.reason))
        return out

    return sweep(inst, logged), log


def cons_general(residual_connected):
    """`conservative_general_connected` with `residual_connected` as its
    residual solve."""

    def connected(graph, k, caps, alpha):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conservative, "ft_general_connected", residual_connected)
            return conservative_general_connected(graph, k, caps, alpha)

    return connected


HEAD_CAP = " heads exceed k // (alpha+1) = "


@pytest.mark.parametrize("variant", ["ft", "conservative"])
def test_sweeps_match_the_uncapped_front_end(variant):
    """Every threshold gets the verdict of the uncapped front end with BFS
    component counts, and the sweeps pick the same tau*, centers and
    assignment; a reason changes only where the head cap rejects what the
    full clustering's static rows rejected."""
    rng = random.Random(f"front-end/sweeps/{variant}")
    capped, uncapped = ft_general_connected, uncapped_ft_general_connected
    if variant == "conservative":
        capped, uncapped = conservative_general_connected, cons_general(uncapped)
    head_capped = 0
    for _ in range(40):
        n = rng.randint(5, 12)
        k = rng.randint(2, min(4, n))
        alpha = rng.randint(0, min(2, k - 1))
        inst = random_point_instance(rng, n, k, alpha, variant=variant, span=rng.choice((6, 12, 1000)))
        args = (inst.k, inst.alpha, inst.capacities)
        got, got_log = logged_sweep(inst, lambda G: solve_threshold(G, *args, capped, False))
        want, want_log = logged_sweep(inst, lambda G: uncounted_threshold(G, *args, uncapped))
        assert [(t, r is None) for t, r in got_log] == [(t, r is None) for t, r in want_log]
        for (_, r), (_, w) in zip(got_log, want_log):
            if r != w:
                assert HEAD_CAP in r and STATIC_ROWS_INFEASIBLE in w
                head_capped += 1
        if isinstance(want, SweepSuccess):
            public = (solve_ft_general if variant == "ft" else solve_conservative_general)(inst)
            for sol in (got, public.outcome):
                assert sol.tau2_star == want.tau2_star
                assert sol.solution.centers == want.solution.centers
                assert sol.solution.assignment == want.solution.assignment
    assert head_capped > 0


def test_rejected_thresholds_skip_backups_and_component_lists(monkeypatch):
    """k = 3, alpha = 1: at most one head fits, so backup selection sees
    only one-head clusterings, and with at most one component allowed
    the components of a threshold graph are never listed.  The ft-general
    start skips every threshold at which vertex 0 is three hops from some
    vertex, so no capped walk returns None there.  A connected threshold
    graph never lists its components, whatever k: with k = 5 and two
    clusters far apart, only the two-component thresholds list them, and
    k // (alpha+1) = 2 leaves the cap thresholds to reject."""
    heads_seen, capped, listed = [], [], []
    select_backups, cluster = clustering.select_backups, clustering.monarch_clustering
    components = ThresholdGraph.components

    def counting_select(cl, caps, alpha):
        heads_seen.append(len(cl.heads))
        return select_backups(cl, caps, alpha)

    def counting_cluster(graph, max_heads=None):
        out = cluster(graph, max_heads)
        capped.append(out is None)
        return out

    def counting_components(graph):
        listed.append(len(reference_components(graph)))
        return components(graph)

    monkeypatch.setattr(solvers, "select_backups", counting_select)
    monkeypatch.setattr(solvers, "monarch_clustering", counting_cluster)
    monkeypatch.setattr(ThresholdGraph, "components", counting_components)
    rng = random.Random("front-end/count")
    assert solve_ft_general(random_point_instance(rng, 16, 3, 1, span=1000)).feasible
    assert heads_seen and set(heads_seen) == {1}
    assert capped and not any(capped) and len(heads_seen) == len(capped)
    assert listed == []
    # k = 5: two components fit, and only then are they listed; the cap fires
    capped.clear()
    points = [(rng.randrange(30) + 1000 * (i >= 8), rng.randrange(30)) for i in range(16)]
    caps = [rng.randint(1, 16) for _ in range(16)]
    assert solve_ft_general(MetricInstance.from_points(points, 5, 1, caps)).feasible
    assert listed and set(listed) == {2}
    assert sum(capped) > 0
