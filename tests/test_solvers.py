"""End-to-end solver tests on small point instances.

Values frozen here were cross-checked against the exhaustive oracle
(exact_opt_ft / exact_opt_conservative) before being pinned.
"""

from dataclasses import fields

import pytest

from ftkcenter import conservative
from ftkcenter.conservative import solve_conservative_general, solve_conservative_uniform
from ftkcenter.instance import InstanceError, MetricInstance, Radius
from ftkcenter.oracle import (
    exact_opt_conservative,
    exact_opt_ft,
    verify_conservative,
    verify_ft,
)
from ftkcenter.rounding import GeneralRounding, RoundResult, UniformRounding
from ftkcenter.solvers import solve_ft_general, solve_ft_uniform

from helpers import exhaustive_residual

LINE4 = [(0, 0), (1, 0), (2, 0), (3, 0)]


def line4(variant="ft", caps=(4, 4, 4, 4)):
    return MetricInstance.from_points(LINE4, 2, 1, list(caps), variant=variant)


class TestFtGeneralLine4:
    def test_frozen_solution(self):
        res = solve_ft_general(line4())
        assert res.feasible
        assert res.tau2_star == 4
        assert res.centers == (0, 1)
        assert res.stretch == 10
        assert res.assignment == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_radius_covers_assignment(self):
        res = solve_ft_general(line4())
        r = res.radius()
        assert r == Radius(10, 4)
        assert verify_ft(line4(), res.centers, r).ok

    def test_scenarios(self):
        res = solve_ft_general(line4())
        # one center survives either failure and takes every client
        assert res.outcome.solution.scenario.backup_set() == {0}
        assert res.scenario({0}) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert res.scenario({1}) == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_repair_record(self):
        res = solve_ft_general(line4())
        state = res.outcome.solution.scenario
        assert isinstance(state, GeneralRounding)
        assert isinstance(state.rr, RoundResult) and state.rr.R == res.centers
        assert [f.name for f in fields(state)] == ["graph", "caps", "backups", "rr", "alpha", "within"]
        assert state.backup_set() <= set(res.centers)
        assert state.alpha == 1

    def test_never_beats_oracle_here(self):
        opt2, witness = exact_opt_ft(line4())
        assert opt2 == 4
        assert solve_ft_general(line4()).tau2_star <= opt2


class TestFtUniformLine4:
    def test_frozen_solution(self):
        res = solve_ft_uniform(line4())
        assert res.feasible
        assert res.tau2_star == 4
        assert res.centers == (0, 1)
        assert res.stretch == 6
        assert res.assignment == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_repair_record(self):
        res = solve_ft_uniform(line4())
        state = res.outcome.solution.scenario
        assert isinstance(state, UniformRounding)
        assert state.R == (0, 1)
        assert sum(state.y.values()) == 2  # the LP point has mass k

    def test_verifies(self):
        res = solve_ft_uniform(line4())
        assert verify_ft(line4(), res.centers, res.radius()).ok

    def test_rejects_mixed_capacities(self):
        with pytest.raises(InstanceError, match=r"\{0,L\} form"):
            solve_ft_uniform(line4(caps=(1, 2, 2, 1)))


class TestConservativeLine4:
    def test_uniform_frozen(self):
        inst = line4(variant="conservative")
        res = solve_conservative_uniform(inst)
        assert res.tau2_star == 4
        assert res.centers == (0, 1)
        assert res.stretch == 7
        assert res.assignment == {0: 1, 1: 1, 2: 1, 3: 1}
        assert verify_conservative(inst, res.centers, res.assignment, res.radius()).ok

    def test_general_lp_vs_exact_residual(self, monkeypatch):
        """The LP residual, then the exhaustive one patched in for it: the
        record's stretch stays 9 + 6*alpha, and the exhaustive residual's
        answer holds at 1 + 6*alpha."""
        inst = line4(variant="conservative")
        lp = solve_conservative_general(inst)
        monkeypatch.setattr(conservative, "ft_general_connected", exhaustive_residual)
        exact = solve_conservative_general(inst)
        assert (lp.tau2_star, lp.centers, lp.stretch) == (4, (0, 1), 15)
        assert (exact.tau2_star, exact.centers, exact.stretch) == (4, (0, 1), 15)
        for res in (lp, exact):
            assert verify_conservative(inst, res.centers, res.assignment, res.radius()).ok
        assert verify_conservative(inst, exact.centers, exact.assignment, Radius(7, 4)).ok

    def test_matches_oracle_optimum(self, monkeypatch):
        inst = line4(variant="conservative")
        opt2, _ = exact_opt_conservative(inst)
        assert opt2 == 4
        assert solve_conservative_general(inst).tau2_star <= opt2
        monkeypatch.setattr(conservative, "ft_general_connected", exhaustive_residual)
        assert solve_conservative_general(inst).tau2_star <= opt2


class TestVariantEnforcement:
    def test_ft_solvers_reject_conservative(self):
        inst = line4(variant="conservative")
        with pytest.raises(InstanceError, match="ft-general solves the 'ft' variant"):
            solve_ft_general(inst)
        with pytest.raises(InstanceError, match="ft-0l solves the 'ft' variant"):
            solve_ft_uniform(inst)

    def test_conservative_solvers_reject_ft(self):
        inst = line4()
        with pytest.raises(InstanceError, match="cons-0l solves the 'conservative' variant"):
            solve_conservative_uniform(inst)
        with pytest.raises(InstanceError, match="cons-general solves the 'conservative' variant"):
            solve_conservative_general(inst)

    def test_variant_checked_before_alpha_bound(self):
        inst = MetricInstance.from_points([(5, 5)] * 6, 5, 4, [6] * 6, variant="conservative")
        with pytest.raises(InstanceError, match="ft-general solves the 'ft' variant"):
            solve_ft_general(inst)

    def test_uniform_solvers_reject_non_0l_capacities(self):
        caps = [4, 2, 4, 4]
        with pytest.raises(InstanceError, match=r"not of \{0,L\} form"):
            solve_ft_uniform(line4(caps=caps))
        with pytest.raises(InstanceError, match=r"not of \{0,L\} form"):
            solve_conservative_uniform(line4(variant="conservative", caps=caps))


class TestAlphaBound:
    """Scenario enumeration is exponential in alpha, so the general solver
    refuses large alpha unless the caller raises the bound explicitly."""

    def test_default_bound_refuses(self):
        inst = MetricInstance.from_points([(5, 5)] * 6, 5, 4, [6] * 6)
        with pytest.raises(InstanceError, match="exceeds the scenario-enumeration bound 3"):
            solve_ft_general(inst)

    def test_raised_bound_runs(self):
        # six copies of one point: radius 0 works no matter what fails
        inst = MetricInstance.from_points([(5, 5)] * 6, 5, 4, [6] * 6)
        res = solve_ft_general(inst, alpha_bound=4)
        assert res.feasible
        assert res.tau2_star == 0
        assert res.centers == (0, 1, 2, 3, 4)


class TestInfeasibleResult:
    def test_properties_are_none(self):
        res = solve_ft_general(line4(caps=(1, 1, 1, 1)))
        assert not res.feasible
        assert res.tau2_star is None
        assert res.centers is None
        assert res.assignment is None
        assert res.stretch is None

    def test_reason_explains(self):
        res = solve_ft_general(line4(caps=(1, 1, 1, 1)))
        assert res.outcome.reasons[-1][1] == "best 1 surviving capacities cover 1 < 4 clients"

    def test_radius_and_scenario_raise(self):
        res = solve_ft_general(line4(caps=(1, 1, 1, 1)))
        with pytest.raises(InstanceError, match="no radius"):
            res.radius()
        with pytest.raises(InstanceError, match="no solution to fail centers in"):
            res.scenario({0})


class TestSoundnessNotExactness:
    def test_tau_star_can_undershoot_true_optimum(self):
        # Three collinear points, k=2, alpha=1. Surviving one center must
        # cover everything, so the true fault-tolerant radius is 2. The
        # sweep still certifies tau*=1 because the distance-1 relaxation is
        # feasible there; the guarantee is radius <= 10*tau*, not tau*=OPT.
        inst = MetricInstance.from_points([(0, 0), (1, 0), (2, 0)], 2, 1, [3, 3, 3])
        res = solve_ft_general(inst)
        opt2, _ = exact_opt_ft(inst)
        assert res.tau2_star == 1
        assert opt2 == 4
        assert res.tau2_star < opt2
        assert verify_ft(inst, res.centers, res.radius()).ok


class TestComponentsAndEdges:
    def test_disconnected_instance(self):
        inst = MetricInstance.from_points(
            [(0, 0), (1, 0), (100, 0), (101, 0)], 2, 0, [2, 2, 2, 2]
        )
        res = solve_ft_general(inst)
        assert res.feasible
        assert res.tau2_star == 1
        assert res.centers == (0, 2)
        assert res.assignment == {0: 0, 1: 0, 2: 2, 3: 2}

    def test_disconnected_uniform(self):
        inst = MetricInstance.from_points(
            [(0, 0), (1, 0), (100, 0), (101, 0)], 2, 0, [2, 2, 2, 2]
        )
        res = solve_ft_uniform(inst)
        assert res.feasible
        assert (res.tau2_star, res.centers) == (1, (0, 2))

    def test_single_vertex(self):
        inst = MetricInstance.from_points([(0, 0)], 1, 0, [1])
        res = solve_ft_general(inst)
        assert res.feasible
        assert res.tau2_star == 0
        assert res.centers == (0,)
        assert res.assignment == {0: 0}

    def test_alpha_zero_plain_clustering(self):
        inst = MetricInstance.from_points(LINE4, 2, 0, [2, 2, 2, 2])
        res = solve_ft_general(inst)
        assert res.feasible
        assert verify_ft(inst, res.centers, res.radius()).ok
