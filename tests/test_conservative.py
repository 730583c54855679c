"""Conservative solvers: the {0,L} anchor/backup algorithm, the general
backup-loop algorithm with both residual solvers, and the transport-based
scenario repair."""

import pytest

from ftkcenter.bottleneck import PerTauInfeasible, PerTauSolution
from ftkcenter.clustering import is_alpha_ell_independent
from ftkcenter.conservative import (
    ConservativeGeneral,
    ConservativeUniform,
    _pad_centers,
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
    MetricInstance,
    SizeLimitError,
    ThresholdGraph,
    hop_metric_instance,
)
from ftkcenter.oracle import exact_opt_conservative

from helpers import cycle_graph, path_graph, power


def test_pad_centers():
    assert _pad_centers({2}, 3, 4) == (0, 1, 2)
    assert _pad_centers({3, 1}, 2, 4) == (1, 3)
    with pytest.raises(ContractViolation):
        _pad_centers({0, 1, 2}, 2, 4)
    with pytest.raises(ContractViolation):
        _pad_centers({0}, 3, 2)


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
    assert out.scenario.anchors == (0,)
    assert out.scenario.backups == {0: (0,)}
    assert out.centers == (0, 1)

    # two anchors pin two backups and eat the whole budget
    out = conservative_uniform_connected(path_graph(8), 2, [8] * 8, 1)
    assert isinstance(out, PerTauInfeasible)
    assert "no budget" in out.reason


def test_conservative_general_c6_both_residuals():
    inst = hop_metric_instance(cycle_graph(6), 2, 1, [6] * 6, variant="conservative")
    lp = solve_conservative_general(inst, residual="lp")
    assert lp.feasible and lp.tau2_star == 4
    assert lp.centers == (0, 1)
    assert lp.stretch == 15  # 9 + 6*alpha

    exact = solve_conservative_general(inst, residual="exact")
    assert exact.feasible and exact.tau2_star == 9
    assert exact.centers == (0, 1)
    assert exact.stretch == 7  # 1 + 6*alpha

    with pytest.raises(InstanceError):
        solve_conservative_general(inst, residual="bogus")


def test_exact_residual_size_cap():
    inst = MetricInstance.from_points(
        [(i, 0) for i in range(11)], 3, 1, [11] * 11, variant="conservative"
    )
    with pytest.raises(SizeLimitError, match="n=11 exceeds max_n=10"):
        solve_conservative_general(inst, residual="exact")


def test_conservative_general_connected_detail():
    def exactish(graph, budget, caps):
        from ftkcenter.oracle import exact_distance1

        found = exact_distance1(graph, budget, caps)
        if found is None:
            return PerTauInfeasible("no residual")
        S, phi = found
        return PerTauSolution(tuple(sorted(S)), phi, 1, lambda F: dict(phi))

    g = path_graph(5)
    out = conservative_general_connected(power(g, 4), 2, [5, 1, 1, 1, 5], 1, exactish, 1)
    assert isinstance(out, PerTauSolution)
    assert isinstance(out.scenario, ConservativeGeneral)
    assert out.scenario.B == frozenset({0})
    assert out.scenario.beta == 1
    assert 0 in out.centers


def test_reassign_uniform_direct_and_tripwire():
    g = path_graph(4)
    phi0 = {u: 1 for u in range(4)}
    state = ConservativeUniform(g, [4] * 4, (0,), {0: (0,)}, phi0, 1, (0, 1))
    phi = reassign_uniform(state, {1})
    assert phi == {u: 0 for u in range(4)}
    assert state({1}) == phi
    # backup capacity exhausted: the capacity argument tripwire fires
    with pytest.raises(ContractViolation):
        reassign_uniform(
            ConservativeUniform(g, [1, 1, 1, 1], (0,), {0: (0,)}, {0: 1, 1: 1}, 1, (0, 1)), {1}
        )


def test_reassign_flow_chains_through_failed_backups():
    """A failed backup passes its orphans on to the backups six hops further,
    letting an orphan cross two failures: 11 -> 12 -> 6 -> 0."""
    g = path_graph(13)
    caps = [1] + [0] * 5 + [1] + [0] * 5 + [1]
    B = frozenset({0, 6, 12})
    phi = reassign_flow(ConservativeGeneral(g, caps, B, {11: 12}, 2, 1, (0, 6, 12)), {6, 12})
    assert phi == {11: 0}


def test_reassign_flow_saturation_tripwire():
    """Two orphans of 12 reach only backup 6, of capacity 1."""
    g = path_graph(13)
    caps = [1] + [0] * 5 + [1] + [0] * 5 + [1]
    B = frozenset({0, 6, 12})
    with pytest.raises(ContractViolation, match="does not saturate"):
        reassign_flow(ConservativeGeneral(g, caps, B, {10: 12, 11: 12}, 1, 1, (0, 6, 12)), {12})


def test_reassign_flow_padding_withholds_backup_capacity():
    """|F| < alpha pads with the lowest live backups; the padded backup's
    capacity is withheld, so the orphan lands on the next one over."""
    g = path_graph(13)
    caps = [1] + [0] * 5 + [1] + [0] * 5 + [1]
    B = frozenset({0, 6, 12})
    state = ConservativeGeneral(g, caps, B, {11: 12}, 2, 1, (0, 6, 12))
    assert reassign_flow(state, {12}) == {11: 6}
    # nothing moves when the failed centers serve nobody
    assert reassign_flow(state, {6}) == {11: 12}
    with pytest.raises(InstanceError):
        reassign_flow(state, {6, 12, 0})
    with pytest.raises(InstanceError):
        reassign_flow(state, {5})


def test_variant_enforcement():
    ft = hop_metric_instance(path_graph(4), 2, 1, [4] * 4, variant="ft")
    with pytest.raises(InstanceError):
        solve_conservative_uniform(ft)
    with pytest.raises(InstanceError):
        solve_conservative_general(ft)
