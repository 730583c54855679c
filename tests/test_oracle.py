"""Oracle and verify layers: scenario verifiers, exhaustive optima, the relaxation
check, the gap family, and the random-instance generators."""

import math
import random
from fractions import Fraction

import pytest

from ftkcenter import verify
from ftkcenter.instance import (
    InstanceError,
    MetricInstance,
    Radius,
    SizeLimitError,
    ThresholdGraph,
)
from ftkcenter.oracle import (
    exact_distance1,
    exact_opt_conservative,
    exact_opt_ft,
    ft_feasible_at,
    gap_instance,
    random_point_instance,
    relaxed_ilp_holds,
)
from ftkcenter.verify import VerifyReport, verify_conservative, verify_ft

from helpers import (
    cycle_graph,
    edge_set,
    flow_capacitated_assignment,
    path_graph,
    random_connected_graph,
    random_feasible_instance,
    scratch_verify_ft,
)

LINE4 = [(0, 0), (1, 0), (2, 0), (3, 0)]


def line4(variant="ft", caps=(4, 4, 4, 4)):
    return MetricInstance.from_points(LINE4, 2, 1, list(caps), variant=variant)


def test_verify_ft_accepts_and_rejects():
    inst = line4()
    assert verify_ft(inst, (1, 2), Radius(1, 4)).ok
    rep = verify_ft(inst, (1, 2), Radius(1, 1))
    assert not rep.ok and "failures" in rep.detail
    assert "expected 2 distinct centers" in verify_ft(inst, (1,), Radius(1, 4)).detail
    assert "expected 2 distinct centers" in verify_ft(inst, (1, 1), Radius(1, 4)).detail
    assert "out of range" in verify_ft(inst, (0, 9), Radius(1, 4)).detail
    assert "out of range" in verify_ft(inst, [True, 2], Radius(1, 100)).detail


def test_verify_ft_alpha_zero_checks_plain_assignment():
    inst = MetricInstance.from_points(LINE4, 1, 0, [4, 4, 4, 4])
    assert verify_ft(inst, (1,), Radius(1, 4)).ok
    assert not verify_ft(inst, (0,), Radius(1, 4)).ok  # vertex 3 at distance 3


def test_verify_ft_matches_the_per_scenario_loop():
    """The one warm-started `transport_cuts` chain of `verify_ft` reports
    what one assignment per failure scenario reports, detail string and
    all, on random instances, centers and radii, alpha = 0 included."""
    rng = random.Random(2016)
    verdicts = {True: 0, False: 0, "alpha 0": 0}
    for _ in range(300):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(n, 5))
        alpha = rng.randint(0, k - 1)
        inst = random_point_instance(
            rng, n, k, alpha, caps_mode=rng.choice(["general", "unit"]), span=6
        )
        centers = rng.sample(range(n), k)
        radius = Radius(rng.randint(1, 3), rng.choice((0, *inst.thresholds_sq())))
        got = verify_ft(inst, centers, radius)
        assert got == scratch_verify_ft(inst, centers, radius)
        verdicts[got.ok] += 1
        verdicts["alpha 0"] += alpha == 0
    assert verdicts[True] > 40 and verdicts[False] > 150 and verdicts["alpha 0"] > 60, verdicts


def test_verify_conservative_accepts():
    inst = line4("conservative")
    phi0 = {u: 1 for u in range(4)}
    assert verify_conservative(inst, (1, 2), phi0, Radius(1, 4)).ok


def test_verify_conservative_rejects():
    inst = line4("conservative")
    r = Radius(1, 4)
    assert "cover every vertex" in verify_conservative(inst, (1, 2), {0: 1}, r).detail
    phi0 = {u: 1 for u in range(4)}
    for centers in ([1, -1], [1, 9], [True, 2]):  # -1 would wrap, 9 would IndexError
        rep = verify_conservative(inst, centers, phi0, Radius(1, 100))
        assert not rep.ok and "out of range" in rep.detail
    # bools are not vertex or center indices, though True == 1
    for bad in ({u: True for u in range(4)}, {0: 1, True: 1, 2: 1, 3: 1}):
        rep = verify_conservative(inst, [1, 2], bad, r)
        assert not rep.ok and "must map vertex indices" in rep.detail
    bad = {**phi0, 0: 3}
    assert "non-center" in verify_conservative(inst, (1, 2), bad, r).detail
    assert "outside the radius" in verify_conservative(
        inst, (1, 2), phi0, Radius(1, 1)
    ).detail

    tight = MetricInstance.from_points(LINE4, 2, 1, [1, 2, 2, 1], variant="conservative")
    rep = verify_conservative(tight, (1, 2), {u: 1 for u in range(4)}, r)
    assert "capacity" in rep.detail and not rep.ok
    rep = verify_conservative(tight, (1, 2), {0: 1, 1: 1, 2: 2, 3: 2}, r)
    assert not rep.ok and "spare" in rep.detail


def test_verify_conservative_reports_the_max_flow_witness(monkeypatch):
    """A failing scenario's report names the Hall witness of the min cut:
    with failures [0, 5] the orphans are 0, 2 and 4, and 0 and 4 can only
    use the one seat left at center 2, while 2 has its own room.  The
    detail is the text the max-flow reference assignment gives."""
    pts = [(1, 0), (1, 2), (3, 2), (1, 1), (0, 1), (2, 1)]
    inst = MetricInstance.from_points(pts, 4, 2, [1, 1, 4, 4, 4, 4], variant="conservative")
    centers = [0, 2, 4, 5]
    phi0 = {0: 0, 1: 4, 2: 5, 3: 4, 4: 5, 5: 4}
    rep = verify_conservative(inst, centers, phi0, Radius(1, 4))
    assert rep == VerifyReport(False, "failures [0, 5]: orphans [0, 4] see spare capacity 1 < 2")
    monkeypatch.setattr(verify, "capacitated_assignment", flow_capacitated_assignment)
    assert verify_conservative(inst, centers, phi0, Radius(1, 4)) == rep


def random_bound_instances(rng):
    """Random point instances over mixed denominators, and random rational
    metrics (every distance in [1, 2]) given as a dist matrix, whose int
    squares are over the square of the matrix's scale."""
    for _ in range(25):
        n = rng.randint(1, 7)
        pts = [
            tuple(Fraction(rng.randrange(-30, 30), rng.choice((1, 2, 3, 4, 6, 10))) for _ in "xy")
            for _ in range(n)
        ]
        yield MetricInstance.from_points(pts, 1, 0, [1] * n), None
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                den = rng.choice((1, 2, 3, 7, 10))
                dist[i][j] = dist[j][i] = Fraction(rng.randint(den, 2 * den), den)
        yield MetricInstance.from_matrix(dist, 1, 0, [1] * n), dist


def test_covering_by_int_bound_matches_the_fraction_comparison():
    """`_covering` compares the int squares to the radius's int bound; it
    gives the cover lists of the per-pair `Fraction` comparison for
    Radius(m, t), m in 1..3, at every threshold t (0 among them), and for
    exact radii just below, at and just above each distance: the matrix
    entries themselves, and around the irrational distances of points the
    two 10**-6 steps that enclose them."""
    rng = random.Random("verify/int-bound")
    radii_seen = 0
    for inst, dist in random_bound_instances(rng):
        n = inst.n
        radii = [Radius(m, t) for m in (1, 2, 3) for t in (Fraction(0), *inst.thresholds_sq())]
        eps = Fraction(1, 10**9)
        if dist is not None:
            lengths = [d for i, row in enumerate(dist) for d in row[i + 1:]]
            radii += [Radius.exact(d + e) for d in lengths for e in (-eps, 0, eps)]
        else:
            N = 10**6
            for x in inst.thresholds_sq()[1:]:
                lo = Fraction(math.isqrt(x.numerator * N * N // x.denominator), N)
                radii += [Radius.exact(lo), Radius.exact(lo + Fraction(1, N))]
        S = rng.sample(range(n), n)
        for radius in radii:
            reach = radius.value_sq()
            want = [[c for c in S if inst.d2[u][c] <= reach] for u in range(n)]
            assert verify._covering(inst, S, radius) == want
            radii_seen += 1
    assert radii_seen > 2000, radii_seen


def test_verify_conservative_rejects_one_unit_outside_the_radius():
    """The base assignment's longest pair, as an int square X over the
    instance's scale, is inside a radius whose square is X / scale and
    outside one whose square is (X - 1) / scale, the next int below: on a
    point instance and on a dist matrix, whose scale is squared."""
    dist = [[abs(i - j) * Fraction(3, 2) for j in range(4)] for i in range(4)]
    points = [(Fraction(x, 3), 0) for x in (0, 1, 2, 5)]
    for inst in (
        MetricInstance.from_points(points, 2, 1, [4] * 4, variant="conservative"),
        MetricInstance.from_matrix(dist, 2, 1, [4] * 4, variant="conservative"),
    ):
        phi0 = {0: 1, 1: 1, 2: 2, 3: 2}
        ints, _ = inst.radius_bound(Radius(1, Fraction(0)))
        u = max(phi0, key=lambda u: inst.d2[u][phi0[u]])
        X = ints[u][phi0[u]]
        scale = X / inst.d2[u][phi0[u]]
        assert scale.denominator == 1 and scale > 1
        assert inst.radius_bound(Radius(1, X / scale))[1] == X
        rep = verify_conservative(inst, (1, 2), phi0, Radius(1, X / scale))
        assert "outside the radius" not in rep.detail
        rep = verify_conservative(inst, (1, 2), phi0, Radius(1, (X - 1) / scale))
        assert rep == VerifyReport(False, f"vertex {u} is outside the radius of its center {phi0[u]}")


def test_exact_opt_line4():
    opt2, wit = exact_opt_ft(line4())
    assert opt2 == 4
    assert verify_ft(line4(), wit, Radius(1, 4)).ok

    opt2, wit = exact_opt_conservative(line4("conservative"))
    assert opt2 == 4
    S, phi0 = wit
    assert verify_conservative(line4("conservative"), S, phi0, Radius(1, 4)).ok


def test_exact_opt_infeasible_returns_none():
    assert exact_opt_ft(line4(caps=(1, 1, 1, 1))) == (None, None)


def test_size_limits():
    pts = [(i, 0) for i in range(11)]
    big = MetricInstance.from_points(pts, 2, 1, [11] * 11)
    with pytest.raises(SizeLimitError):
        exact_opt_ft(big)
    pts9 = [(i, 0) for i in range(9)]
    cons9 = MetricInstance.from_points(pts9, 2, 1, [9] * 9, variant="conservative")
    with pytest.raises(SizeLimitError):
        exact_opt_conservative(cons9)


def test_binary_search_matches_linear_scan():
    rng = random.Random(5)
    for _ in range(12):
        inst = random_point_instance(rng, rng.randint(2, 6), 2, 1, span=6)
        opt2, _ = exact_opt_ft(inst)
        linear = None
        for t in inst.thresholds_sq():
            if ft_feasible_at(inst, t) is not None:
                linear = t
                break
        assert opt2 == linear


def test_exact_distance1():
    g = path_graph(4)
    found = exact_distance1(g, 2, [2, 2, 2, 2])
    assert found is not None
    S, phi = found
    assert S == (0, 2)
    assert phi[3] == 2
    loads = {}
    for c in phi.values():
        loads[c] = loads.get(c, 0) + 1
    assert all(loads[c] <= 2 for c in S if c in loads)
    assert exact_distance1(g, 5, [2] * 4) is None
    assert exact_distance1(g, 1, [4] * 4) is None  # no vertex covers the path


def test_relaxed_ilp_holds():
    k3 = cycle_graph(3)
    one = {0: 1, 1: 1}
    assert relaxed_ilp_holds(k3, one, [3, 3, 3], 2, 1)
    assert not relaxed_ilp_holds(k3, {0: 1}, [3, 3, 3], 2, 1)  # mass != k
    assert not relaxed_ilp_holds(k3, {0: 2}, [3, 3, 3], 2, 1)  # y > 1
    g = path_graph(3)
    assert not relaxed_ilp_holds(g, {0: 1, 2: 1}, [1, 1, 1], 2, 1)


def test_gap_instance_smallest():
    inst = gap_instance(2)
    assert (inst.n, inst.k, inst.alpha) == (4, 2, 1)
    assert inst.name == "gap-4"
    assert inst.capacities == (4, 4, 4, 4)
    # every pair sits at distance 1: the metric collapses to a clique
    assert inst.thresholds_sq() == (0, 1)
    assert exact_opt_ft(inst)[0] == 1
    for s in (1, 3, 0):
        with pytest.raises(InstanceError):
            gap_instance(s)


def test_random_point_instance_modes():
    a = random_point_instance(random.Random(7), 6, 2, 1, caps_mode="uniform")
    b = random_point_instance(random.Random(7), 6, 2, 1, caps_mode="uniform")
    assert a.to_json() == b.to_json()
    levels = {c for c in a.capacities if c > 0}
    assert len(levels) == 1
    unit = random_point_instance(random.Random(7), 5, 2, 1, caps_mode="unit")
    assert unit.capacities == (1, 1, 1, 1, 1)
    with pytest.raises(InstanceError):
        random_point_instance(random.Random(7), 5, 2, 1, caps_mode="nope")


def test_random_feasible_instance_is_feasible():
    rng = random.Random(13)
    inst, opt2, wit = random_feasible_instance(rng, 6, 2, 1)
    assert verify_ft(inst, wit, Radius(1, opt2)).ok
    inst, opt2, wit = random_feasible_instance(
        rng, 5, 2, 1, variant="conservative", caps_mode="uniform"
    )
    S, phi0 = wit
    assert verify_conservative(inst, S, phi0, Radius(1, opt2)).ok


def test_random_connected_graph():
    rng = random.Random(3)
    for n in (1, 2, 5, 12):
        g = random_connected_graph(rng, n, extra=2)
        assert isinstance(g, ThresholdGraph)
        assert g.is_connected()
        assert len(edge_set(g)) >= n - 1
