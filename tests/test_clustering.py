"""Clustering layer: monarch partition, backup picks, arc-augmented digraph,
and the greedy far-apart sets."""

import random
from collections import Counter

import pytest

from ftkcenter.clustering import (
    backup_union,
    build_gprime,
    greedy_independent,
    is_alpha_ell_independent,
    monarch_clustering,
    select_backups,
)
from ftkcenter.instance import ContractViolation, InstanceError, ThresholdGraph

from helpers import (
    closed_out,
    cycle_graph,
    hop_matrix_greedy_independent,
    hop_matrix_is_alpha_ell_independent,
    path_graph,
    random_connected_graph,
    random_graph,
)


def test_monarch_path7():
    cl = monarch_clustering(path_graph(7))
    assert cl.heads == (0, 3, 6)
    assert cl.tree_edges == frozenset({(0, 3), (3, 6)})
    assert cl.clusters == {0: (0, 1), 3: (2, 3, 4), 6: (5, 6)}
    assert cl.cluster_of == (0, 0, 3, 3, 3, 6, 6)


def test_monarch_c6():
    cl = monarch_clustering(cycle_graph(6))
    assert cl.heads == (0, 3)
    assert cl.tree_edges == frozenset({(0, 3)})
    assert cl.clusters == {0: (0, 1, 5), 3: (2, 3, 4)}


def test_monarch_single_vertex_and_small():
    cl = monarch_clustering(ThresholdGraph(1, []))
    assert cl.heads == (0,)
    assert cl.clusters == {0: (0,)}
    assert cl.tree_edges == frozenset()
    # diameter < 3: one cluster swallows everything
    cl = monarch_clustering(path_graph(3))
    assert cl.heads == (0,)
    assert cl.clusters == {0: (0, 1, 2)}


def test_monarch_rejects_disconnected_and_empty():
    with pytest.raises(InstanceError):
        monarch_clustering(ThresholdGraph(2, []))
    with pytest.raises(InstanceError):
        monarch_clustering(ThresholdGraph(0, []))


def test_select_backups_capacity_rank_and_ties():
    cl = monarch_clustering(cycle_graph(6))
    backups = select_backups(cl, [1, 2, 2, 1, 1, 1], 1)
    assert backups == {0: (1,), 3: (2,)}
    # all-equal capacities fall back to lowest index
    backups = select_backups(cl, [1] * 6, 2)
    assert backups == {0: (0, 1), 3: (2, 3)}
    assert backup_union(backups) == frozenset({0, 1, 2, 3})


def test_select_backups_too_small_cluster_breaks_the_contract():
    """The quick check gives every cluster more than alpha members before
    any caller selects backups; a cluster of fewer than alpha is a bug."""
    cl = monarch_clustering(cycle_graph(6))
    with pytest.raises(ContractViolation, match="cluster of head 0 has 3 < alpha=4 members"):
        select_backups(cl, [1] * 6, 4)


def test_build_gprime_c6_arcs():
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    backups = select_backups(cl, [1, 2, 2, 1, 1, 1], 1)
    gp = build_gprime(g, cl, backups)
    assert len(gp) == 6
    # base edges survive in both directions
    assert gp[0] >> 1 & 1 and gp[1] >> 0 & 1
    # zone of head 0 is {0,1,2,4,5}; all of it gets an arc to backup 1
    assert gp[4] == 0b101110  # {1, 2, 3, 5}
    assert gp[5] == 0b010111  # {0, 1, 2, 4}
    # no self-arcs ever
    for u in range(6):
        assert not gp[u] >> u & 1
    assert closed_out(gp, [4]) == frozenset({1, 2, 3, 4, 5})
    assert closed_out(gp, [0]) == frozenset({0, 1, 5})
    assert closed_out(gp, [0, 4]) == frozenset(range(6))


def test_greedy_independent_path8():
    g = path_graph(8)
    assert greedy_independent(g, 7) == (0, 7)
    assert greedy_independent(g, 8) == (0,)
    assert greedy_independent(g, 1) == tuple(range(8))


def test_is_alpha_ell_independent():
    g = path_graph(8)
    assert is_alpha_ell_independent(g, {0, 7}, 1, 6)
    assert not is_alpha_ell_independent(g, {0, 6}, 1, 6)
    assert is_alpha_ell_independent(g, {0, 6}, 2, 6)
    # chain 0-3-6 collapses into one component of the 3rd power
    assert not is_alpha_ell_independent(g, {0, 3, 6}, 2, 3)
    assert is_alpha_ell_independent(g, set(), 0, 5)


def test_far_apart_sets_match_the_hop_matrix_references():
    """On seeded random graphs, connected or not, with n 1-14, ell 0-9 and
    alpha 0-3: the ball-mask greedy scan gives the hop-matrix reference's
    tuple, and the power-graph check gives its bool on the greedy set and
    on a random set."""
    rng = random.Random("far apart")
    seen = Counter()
    for trial in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n)
        ell = rng.randint(0, 9)
        alpha = rng.randint(0, 3)
        picked = greedy_independent(g, ell)
        assert picked == hop_matrix_greedy_independent(g, ell), (trial, ell)
        for S in (picked, rng.sample(range(n), rng.randint(0, n))):
            got = is_alpha_ell_independent(g, S, alpha, ell)
            assert got == hop_matrix_is_alpha_ell_independent(g, S, alpha, ell), (trial, S)
            seen[got] += 1
        seen["connected" if g.component_count() == 1 else "split"] += 1
    assert min(seen.values()) > 30, seen


def test_monarch_properties_random():
    rng = random.Random(7)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randint(1, 16), rng.randint(0, 6))
        hops = g.hops()
        cl = monarch_clustering(g)
        assert cl.heads[0] == 0
        seen = set()
        for h in cl.heads:
            members = set(cl.clusters[h])
            assert not (members & seen)
            seen |= members
            assert set(g.closed(h)) <= members
            assert all(hops[v][h] <= 2 for v in members)
        assert seen == set(range(g.n))
        for a, b in cl.tree_edges:
            assert hops[a][b] == 3
        # greedy maximality: everything within ell-1 of the chosen set
        for ell in (3, 7):
            picked = greedy_independent(g, ell)
            assert all(
                min(hops[v][a] for a in picked) <= ell - 1 for v in range(g.n)
            )
