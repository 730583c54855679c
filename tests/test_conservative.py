"""Conservative solvers: the {0,L} anchor/backup algorithm, the general
backup-loop algorithm with its LP residual and, as a cross-check, with the
exhaustive residual, and the seat-keeping assignment that repairs their
failure scenarios."""

import random
from collections import Counter
from itertools import combinations

import pytest

from ftkcenter import conservative
from ftkcenter.bottleneck import PerTauInfeasible, PerTauSolution
from ftkcenter.clustering import is_alpha_ell_independent
from ftkcenter.conservative import (
    BETA,
    ConservativeGeneral,
    ConservativeUniform,
    build_backup_set,
    conservative_general_connected,
    conservative_uniform_connected,
    reassign_flow,
    reassign_uniform,
    solve_conservative_general,
    solve_conservative_uniform,
)
from ftkcenter.instance import (
    ContractViolation,
    InstanceError,
    Radius,
)
from ftkcenter.oracle import exact_opt_conservative, random_point_instance, verify_conservative
from ftkcenter import rounding
from ftkcenter.rounding import centers_within, repair

from helpers import (
    cycle_graph,
    exhaustive_residual,
    hop_matrix_backup_set,
    hop_metric_instance,
    path_graph,
    power,
    random_graph,
)


def test_build_backup_set_single_heavy_end():
    g = path_graph(5)
    B, trace = build_backup_set(g, [5, 1, 1, 1, 5], 1)
    assert B == frozenset({0})
    assert trace == [((0,), 5)]


def test_build_backup_set_two_far_ends():
    g = path_graph(14)
    B, trace = build_backup_set(g, [1] * 14, 1)
    assert B == frozenset({0, 7})
    assert trace == [((0,), 1), ((7,), 2)]
    assert is_alpha_ell_independent(g, B, 1, 6)


def test_build_backup_set_pair_pick_and_alpha_zero():
    g = path_graph(5)
    B, trace = build_backup_set(g, [1] * 5, 2)
    assert B == frozenset({0, 1})
    assert trace == [((0, 1), 2)]
    B, trace = build_backup_set(g, [1] * 5, 0)
    assert B == frozenset() and trace == []


def test_build_backup_set_drops_a_covered_backup():
    """On the 9-path with alpha = 2, the pair {7, 8} outweighs backup 3, the
    only backup in its 6-hop cover, and replaces it; backup 0 lies outside
    that cover and stays."""
    B, trace = build_backup_set(path_graph(9), [2, 1, 0, 2, 1, 1, 1, 2, 2], 2)
    assert B == frozenset({0, 7, 8})
    assert trace == [((0, 3), 4), ((7, 8), 6)]


def test_build_backup_set_matches_the_hop_matrix_reference():
    """On seeded random graphs, connected or not, with n 1-14, alpha 0-3 and
    capacities with zeros, capped at n as the general conservative pipeline
    caps them: the backup loop on 6-ball masks, each candidate's cover and
    capacity built once per call, returns the (B, trace) of the hop-matrix
    loop that rebuilds them every round."""
    rng = random.Random("backup reference")
    rounds = Counter()
    for trial in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n)
        alpha = rng.randint(0, 3)
        caps = [min(rng.choice((0, rng.randint(1, 2 * n))), n) for _ in range(n)]
        got = build_backup_set(g, caps, alpha)
        assert got == hop_matrix_backup_set(g, caps, alpha), (trial, alpha, caps)
        rounds[min(len(got[1]), 3)] += 1
    assert min(rounds[size] for size in range(4)) > 5, rounds


def test_conservative_uniform_path4_frozen():
    """k=2, alpha=1, capacity 4 on the 4-path: anchors collapse to vertex 0,
    its backup is pinned, and one residual center suffices at hop 2."""
    inst = hop_metric_instance(path_graph(4), 2, 1, [4] * 4, variant="conservative")
    res = solve_conservative_uniform(inst)
    assert res.feasible
    assert res.tau2_star == 4
    assert res.centers == (0, 1)
    assert res.assignment == {u: 1 for u in range(4)}
    assert res.stretch == 7
    opt2, _ = exact_opt_conservative(inst)
    assert opt2 == 4 and res.tau2_star <= opt2

    phi = res.scenario({1})
    assert phi == {u: 0 for u in range(4)}
    assert res.scenario({0}) == res.assignment
    with pytest.raises(InstanceError):
        res.scenario({0, 1})
    with pytest.raises(InstanceError):
        res.scenario({3})


def test_conservative_uniform_c6_frozen():
    """The 6-cycle with k=2, alpha=1: no vertex has eccentricity 2, so no
    survivor covers a failure at radius 2; the sweep must land on the
    complete graph at tau = 3, matching the exact optimum."""
    inst = hop_metric_instance(cycle_graph(6), 2, 1, [6] * 6, variant="conservative")
    res = solve_conservative_uniform(inst)
    assert res.feasible
    assert res.tau2_star == 9
    assert res.centers == (0, 1)
    opt2, _ = exact_opt_conservative(inst)
    assert opt2 == 9


def test_conservative_uniform_connected_details():
    out = conservative_uniform_connected(power(path_graph(4), 3), 2, [4] * 4, 1)
    assert isinstance(out, PerTauSolution)
    assert isinstance(out.scenario, ConservativeUniform)
    assert out.scenario.phi0 == out.assignment
    assert out.centers == (0, 1)

    # two anchors pin two backups and eat the whole budget
    out = conservative_uniform_connected(path_graph(8), 2, [8] * 8, 1)
    assert isinstance(out, PerTauInfeasible)
    assert "no budget" in out.reason


def test_conservative_general_c6_both_residuals(monkeypatch):
    """The LP residual and, patched in for it, the exhaustive one; the
    record's stretch is BETA + 6*alpha either way, and the exhaustive
    residual's answer holds at 1 + 6*alpha."""
    inst = hop_metric_instance(cycle_graph(6), 2, 1, [6] * 6, variant="conservative")
    lp = solve_conservative_general(inst)
    assert lp.feasible and lp.tau2_star == 4
    assert lp.centers == (0, 1)
    assert lp.stretch == 15  # 9 + 6*alpha
    assert lp.algorithm == "cons-general"

    monkeypatch.setattr(conservative, "ft_general_connected", exhaustive_residual)
    exact = solve_conservative_general(inst)
    assert exact.feasible and exact.tau2_star == 9
    assert exact.centers == (0, 1)
    assert exact.stretch == 15
    assert verify_conservative(inst, exact.centers, exact.assignment, Radius(7, exact.tau2_star)).ok


def test_conservative_general_connected_detail(monkeypatch):
    monkeypatch.setattr(conservative, "ft_general_connected", exhaustive_residual)
    g = path_graph(5)
    out = conservative_general_connected(power(g, 4), 2, [5, 1, 1, 1, 5], 1)
    assert isinstance(out, PerTauSolution)
    assert isinstance(out.scenario, ConservativeGeneral)
    assert out.scenario.B == frozenset({0})
    assert out.stretch == BETA + 6
    assert 0 in out.centers


def test_reassign_uniform_direct_and_tripwire():
    g = path_graph(4)
    phi0 = {u: 1 for u in range(4)}
    state = ConservativeUniform(g, [4] * 4, phi0, 1, (0, 1))
    phi = reassign_uniform(state, {1})
    assert phi == {u: 0 for u in range(4)}
    assert state({1}) == phi
    # the clients of 0 fill it, so the orphans of 1 find no seat
    full = ConservativeUniform(g, [2] * 4, {0: 0, 1: 0, 2: 1, 3: 1}, 1, (0, 1))
    with pytest.raises(ContractViolation, match="no assignment within 7 hops"):
        reassign_uniform(full, {1})


def test_conservative_uniform_record_checks_its_capacities_once(monkeypatch):
    """A {0,L} record checks its capacities at construction: two positive
    levels raise InstanceError there, and a repair checks nothing again."""
    with pytest.raises(InstanceError, match="not of \\{0,L\\} form"):
        ConservativeUniform(path_graph(4), [4, 2, 4, 4], {u: 1 for u in range(4)}, 1, (0, 1))
    state = ConservativeUniform(path_graph(4), [4] * 4, {u: 1 for u in range(4)}, 1, (0, 1))

    def no_check(caps):
        raise AssertionError("a repair checked the capacity levels")

    monkeypatch.setattr(conservative, "uniform_capacity_level", no_check)
    assert reassign_uniform(state, {1}) == {u: 0 for u in range(4)}


def test_reassign_uniform_hop_bound():
    """Seven hops: on an 8-vertex path the only live center is seven hops
    from the orphan at the far end, so the same assignment within six fails."""
    g = path_graph(8)
    caps = [8] + [0] * 6 + [8]
    state = ConservativeUniform(g, caps, dict.fromkeys(range(8), 7), 1, (0, 7))
    assert reassign_uniform(state, {7}) == dict.fromkeys(range(8), 0)
    with pytest.raises(ContractViolation, match="no assignment within 6 hops"):
        repair(centers_within(g, (0, 7), (6,))[6], caps, frozenset({7}), 6, {})


# path 0..12 with centers 0, 6 and 12; the base assignment fills 6 and 12
PATH13_CENTERS = (0, 6, 12)
PATH13_PHI0 = {u: 0 if u < 4 else 6 if u < 9 else 12 for u in range(13)}


def path13(cap0: int, alpha: int) -> ConservativeGeneral:
    caps = [cap0] + [0] * 5 + [5] + [0] * 5 + [4]
    B = frozenset(PATH13_CENTERS)
    return ConservativeGeneral(path_graph(13), caps, B, PATH13_PHI0, alpha, PATH13_CENTERS)


def test_reassign_flow_chains_through_failed_backups():
    """With two failed backups, the orphans of both cross them to the last
    live one: 12 -> 0 is 12 hops, within BETA + 6*alpha = 21."""
    assert reassign_flow(path13(13, 2), {6, 12}) == dict.fromkeys(range(13), 0)


def test_reassign_flow_saturation_tripwire():
    """Path 0..20 with centers 0, 10 and 20: the orphans 16..20 of 20 reach
    only 10 within BETA + 6 = 15 hops, and 10 is full."""
    centers = (0, 10, 20)
    phi0 = {u: 0 if u < 4 else 10 if u < 16 else 20 for u in range(21)}
    caps = [21] + [0] * 9 + [12] + [0] * 9 + [5]
    state = ConservativeGeneral(path_graph(21), caps, frozenset(centers), phi0, 1, centers)
    with pytest.raises(ContractViolation, match="no assignment within 15 hops"):
        reassign_flow(state, {20})


def test_reassign_flow_withholds_no_live_backup_capacity():
    """|F| < alpha withholds no live backup: the orphans of 12 take the room
    left at 0, and every other client keeps its seat."""
    state = path13(8, 2)
    assert reassign_flow(state, {12}) == {**PATH13_PHI0, 9: 0, 10: 0, 11: 0, 12: 0}
    with pytest.raises(InstanceError):
        reassign_flow(state, {6, 12, 0})
    with pytest.raises(InstanceError):
        reassign_flow(state, {5})


def test_reassign_flow_hop_bound():
    """BETA + 6*alpha hops: on a 16-vertex path the only live center is 15
    hops from the orphan at the far end, so the same assignment within 14
    fails."""
    g = path_graph(16)
    caps = [16] + [0] * 14 + [16]
    state = ConservativeGeneral(g, caps, frozenset({0}), dict.fromkeys(range(16), 15), 1, (0, 15))
    assert reassign_flow(state, {15}) == dict.fromkeys(range(16), 0)
    with pytest.raises(ContractViolation, match="no assignment within 14 hops"):
        repair(centers_within(g, (0, 15), (14,))[14], caps, frozenset({15}), 14, {})


def test_repair_without_orphans_keeps_every_seat(monkeypatch):
    """F is a center that serves no client: both conservative records return
    the base assignment as it stands, and no assignment is searched."""

    def no_transport(*args):
        raise AssertionError("an assignment was searched with no client to move")

    monkeypatch.setattr(rounding, "capacitated_assignment", no_transport)
    phi0 = {u: 0 if u < 4 else 6 for u in range(13)}
    state = ConservativeGeneral(
        path_graph(13), [4] + [0] * 5 + [9] + [0] * 5 + [4], frozenset(PATH13_CENTERS), phi0, 1, PATH13_CENTERS
    )
    assert reassign_flow(state, {12}) == phi0
    assert state.graph._hops is None
    uniform = ConservativeUniform(path_graph(8), [8] + [0] * 6 + [8], dict.fromkeys(range(8), 0), 1, (0, 7))
    assert reassign_uniform(uniform, {7}) == dict.fromkeys(range(8), 0)
    assert uniform.graph._hops is None


@pytest.mark.parametrize(
    "solve, caps_mode, record_type",
    [
        (solve_conservative_uniform, "uniform", ConservativeUniform),
        (solve_conservative_general, "general", ConservativeGeneral),
    ],
    ids=["cons-0l", "cons-general"],
)
def test_conservative_repairs_keep_seats_and_fit_bounds(solve, caps_mode, record_type):
    """On connected and merged records with alpha >= 1, every failure set of
    every size up to alpha is repaired: clients of live centers keep their
    seats, orphans land on live centers, loads fit the capacities (a
    connected cons-general record's, capped at n), distances fit the radius,
    and on a connected record hops fit seven (cons-0l) or BETA + 6*alpha."""
    rng = random.Random(f"conservative-repairs-{caps_mode}")
    seen = Counter()
    attempts = 0
    while min(seen["connected"], seen["merged"]) < 10 and attempts < 600:
        attempts += 1
        n = rng.randint(5, 10)
        k = rng.randint(2, min(5, n - 1))
        alpha = rng.randint(1, min(2, k - 1))
        span = rng.choice((12, 60))
        inst = random_point_instance(rng, n, k, alpha, variant="conservative",
                                     caps_mode=caps_mode, span=span, name=f"cons{attempts}")
        res = solve(inst)
        if not res.feasible:
            continue
        record = res.outcome.solution.scenario
        connected = isinstance(record, record_type)
        seen["connected" if connected else "merged"] += 1
        caps = record.caps if connected else inst.capacities
        r2 = res.radius().value_sq()
        assert record(()) == res.assignment
        for size in range(alpha + 1):
            for F in combinations(res.centers, size):
                phi = record(F)
                assert set(phi) == set(range(n))
                assert all(phi[u] == c for u, c in res.assignment.items() if c not in F)
                assert set(phi.values()) <= set(res.centers) - set(F)
                load = Counter(phi.values())
                assert all(load[c] <= caps[c] for c in load)
                assert all(inst.d2[u][c] <= r2 for u, c in phi.items())
                if connected:
                    hops = record.graph.hops()
                    bound = 7 if record_type is ConservativeUniform else BETA + 6 * alpha
                    assert all(hops[u][c] <= bound for u, c in phi.items())
    assert min(seen["connected"], seen["merged"]) >= 10, seen


def test_variant_enforcement():
    ft = hop_metric_instance(path_graph(4), 2, 1, [4] * 4, variant="ft")
    with pytest.raises(InstanceError):
        solve_conservative_uniform(ft)
    with pytest.raises(InstanceError):
        solve_conservative_general(ft)
