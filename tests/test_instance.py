import math
import random
import time
from fractions import Fraction

import pytest

from ftkcenter.instance import (
    InstanceError,
    MetricInstance,
    Radius,
    ThresholdGraph,
    canonical_json,
    decimal_str,
    exact_decimal,
    mask_bits,
    parse_exact_json,
    strip_zero_zero_edges,
    uniform_capacity_level,
)
from helpers import (
    cycle_graph,
    edge_set,
    hop_metric_instance,
    path_graph,
    per_pair_triangle_failure,
    power,
)

LINE3 = [(0, 0), (1, 0), (2, 0)]


def test_decimal_str_exact_values():
    assert decimal_str(Fraction(5, 2)) == "2.5"
    assert decimal_str(Fraction(-3, 4)) == "-0.75"
    assert decimal_str(Fraction(7)) == "7"
    assert decimal_str(Fraction(1, 10)) == "0.1"
    with pytest.raises(InstanceError):
        decimal_str(Fraction(1, 3))


def test_radius_exact_comparisons():
    r = Radius(10, Fraction(2))  # 10 * sqrt(2)
    assert r.value_sq() == 200
    assert r.covers(Fraction(200))
    assert not r.covers(Fraction(201))
    assert Radius(1, Fraction(4)).display() == "2"
    assert Radius(3, Fraction(4)).display() == "6"
    # irrational radii fall back to a float rendering, comparisons stay exact
    assert Radius(1, Fraction(2)).display() == repr(math.sqrt(2.0))


def test_radius_display_beyond_float_range():
    """An irrational radius that a float cannot hold prints 17 significant
    digits, truncated, from integer square roots: sqrt(2) is
    1.41421356237309504..., 3 * sqrt(2) is 4.24264068711928514... and
    sqrt(3) is 1.73205080756887729..."""
    # above the range: the float conversion would overflow
    assert Radius(1, Fraction(10**400 + 1)).display() == "1e+200"
    assert Radius(3, Fraction(2 * 10**400)).display() == "4.2426406871192851e+200"
    assert Radius(10**200, Fraction(2)).display() == "1.414213562373095e+200"
    # below it: the float would be 0.0, or a subnormal with few digits
    assert Radius(1, Fraction(2, 10**400)).display() == "1.414213562373095e-200"
    assert Radius(1, Fraction(3, 10**310)).display() == "1.7320508075688772e-155"
    # in range, the float repr stays, at both ends
    assert Radius(1, Fraction(2, 10**300)).display() == repr(math.sqrt(2e-300))
    assert Radius(1, Fraction(2 * 10**300)).display() == repr(math.sqrt(2e300))
    assert Radius(1, Fraction(1)) <= Radius(1, Fraction(2))


def test_radius_exact_constructor():
    r = Radius.exact(Fraction(5, 2))
    assert r.value_sq() == Fraction(25, 4)
    with pytest.raises(InstanceError):
        Radius.exact(Fraction(-1))


def test_line3_thresholds_and_graphs():
    inst = MetricInstance.from_points(LINE3, 2, 1, [3, 3, 3], name="line3")
    assert inst.thresholds_sq() == (Fraction(0), Fraction(1), Fraction(4))
    g1 = inst.threshold_graph(Fraction(1))
    assert edge_set(g1) == frozenset({(0, 1), (1, 2)})
    g4 = inst.threshold_graph(Fraction(4))
    assert edge_set(g4) == frozenset({(0, 1), (1, 2), (0, 2)})
    g0 = inst.threshold_graph(Fraction(0))
    assert edge_set(g0) == frozenset()


def test_from_matrix_checks_triangle():
    bad = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # 5 > 1 + 1
    with pytest.raises(InstanceError, match=r"^triangle inequality fails on \(0,2\) via 1$"):
        MetricInstance.from_matrix(bad, 1, 0, [3, 3, 3])
    ok = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    inst = MetricInstance.from_matrix(ok, 1, 0, [3, 3, 3])
    assert inst.d2[0][2] == 4


def test_from_matrix_triangle_check_matches_per_pair_scan():
    """Random symmetric matrices, metric or not: the once-per-triple check
    reports the same first failing (i, j) via m as the scan of every pair
    against every vertex."""
    rng = random.Random("triangle")
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        top = rng.choice((2, 4, 10))
        dist = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                dist[i][j] = dist[j][i] = Fraction(rng.randint(1, top), rng.choice((1, 2)))
        want = per_pair_triangle_failure([[x * x for x in row] for row in dist])
        outcomes.add(want is None)
        if want is None:
            MetricInstance.from_matrix(dist, 1, 0, [1] * n)
            continue
        i, j, m = want
        with pytest.raises(InstanceError, match=rf"^triangle inequality fails on \({i},{j}\) via {m}$"):
            MetricInstance.from_matrix(dist, 1, 0, [1] * n)
    assert outcomes == {True, False}


def test_from_payload_rejects_bad_dist_entries():
    """The entry checks run on the scaled distances, before squaring: a
    negative entry is rejected even though its square is not negative."""
    base = {"name": "pair", "n": 2, "k": 1, "alpha": 0, "variant": "ft", "capacities": [2, 2]}
    cases = [
        ([[0, -1], [-1, 0]], r"^negative distance$"),
        ([[0, Fraction(-1, 2)], [Fraction(-1, 2), 0]], r"^negative distance$"),
        ([[0, 1], [2, 0]], r"^asymmetric distances at \(0,1\)$"),
        ([[1, 1], [1, 0]], r"^nonzero self-distance at 0$"),
    ]
    for dist, message in cases:
        with pytest.raises(InstanceError, match=message):
            MetricInstance.from_payload({**base, "dist": dist})


def test_from_payload_rejects_dist_that_is_not_a_list_of_rows():
    base = {"name": "one", "n": 1, "k": 1, "alpha": 0, "variant": "ft", "capacities": [2]}
    for dist in ([5], 5, [[0], 5], None):
        with pytest.raises(InstanceError, match=r"^dist must be a list of rows$"):
            MetricInstance.from_payload({**base, "dist": dist})
    with pytest.raises(InstanceError, match=r"^dist must be a list of rows$"):
        MetricInstance.from_matrix([0], 1, 0, [2])


def test_from_points_rejects_a_point_that_is_not_a_pair():
    for bad in ([(0, 0), (1,)], [(0, 0), (1, 2, 3)], [(0, 0), 7], [(0, 0), "ab"]):
        with pytest.raises(InstanceError, match=r"^each point must be an \[x, y\] pair$"):
            MetricInstance.from_points(bad, 1, 0, [2, 2])
    base = {"name": "two", "n": 2, "k": 1, "alpha": 0, "variant": "ft", "capacities": [2, 2]}
    with pytest.raises(InstanceError, match=r"^each point must be an \[x, y\] pair$"):
        MetricInstance.from_payload({**base, "points": [[0, 0], [1]]})


def random_denominator_point(rng):
    return Fraction(rng.randrange(-30, 30), rng.choice((1, 2, 3, 4, 6, 10)))


def test_points_with_mixed_denominators_square_exactly():
    """Coordinates over mixed denominators, given as parsed decimals and as
    Fractions: every entry of d2 is the Fraction formula, the thresholds are
    its sorted distinct values with 0, and equal values are one object."""
    rng = random.Random("int-squares/points")
    for trial in range(40):
        n = rng.randint(1, 9)
        if trial % 2:
            pts = [(random_denominator_point(rng), random_denominator_point(rng)) for _ in range(n)]
            inst = MetricInstance.from_points(pts, 1, 0, [1] * n)
        else:
            pts = [(Fraction(rng.randrange(-40, 40), 4), Fraction(rng.randrange(-9, 9), 2)) for _ in range(n)]
            text = canonical_json(
                {"name": "p", "n": n, "k": 1, "alpha": 0, "variant": "ft", "capacities": [1] * n,
                 "points": [list(p) for p in pts]}
            )
            inst = MetricInstance.from_json(text)
        for i, (xi, yi) in enumerate(pts):
            for j, (xj, yj) in enumerate(pts):
                assert type(inst.d2[i][j]) is Fraction
                assert inst.d2[i][j] == (xi - xj) ** 2 + (yi - yj) ** 2
        values = {x for row in inst.d2 for x in row}
        assert inst.thresholds_sq() == tuple(sorted(values | {Fraction(0)}))
    assert any("." in x for x in text.split())  # the decimal path was taken


def test_rational_dist_matrices_square_exactly():
    """Random rational metrics (every distance in [1, 2]) over mixed
    denominators: every entry of d2 is the square of its dist entry, and the
    thresholds are the sorted distinct squares with 0."""
    rng = random.Random("int-squares/dist")
    for _ in range(40):
        n = rng.randint(1, 8)
        dist = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                den = rng.choice((1, 2, 3, 7, 10))
                dist[i][j] = dist[j][i] = Fraction(rng.randint(den, 2 * den), den)
        inst = MetricInstance.from_matrix(dist, 1, 0, [1] * n)
        assert inst.d2 == tuple(tuple(x * x for x in row) for row in dist)
        assert all(type(x) is Fraction for row in inst.d2 for x in row)
        values = {x * x for row in dist for x in row}
        assert inst.thresholds_sq() == tuple(sorted(values | {Fraction(0)}))


def test_grid_squares_are_interned():
    """A 12-span grid has at most 145 distinct squares, and d2 and the
    thresholds hold one object for each."""
    rng = random.Random("int-squares/grid")
    pts = [(rng.randrange(12), rng.randrange(12)) for _ in range(36)]
    inst = MetricInstance.from_points(pts, 1, 0, [1] * 36)
    entries = [x for row in inst.d2 for x in row]
    objects = {id(x): x for x in entries}
    assert len(objects) == len(set(entries)) <= 145
    assert {id(t) for t in inst.thresholds_sq()} == set(objects)


def test_validation_rejects_bad_parameters():
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 0, 0, [1, 1, 1])
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 4, 0, [1, 1, 1])
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 2, 2, [1, 1, 1])  # alpha >= k
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 2, 1, [1, -1, 1])
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 2, 1, [1, True, 1])
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 2, 1, [1, 1])  # wrong length
    with pytest.raises(InstanceError):
        MetricInstance.from_points(LINE3, 2, 1, [1, 1, 1], variant="nope")


def test_json_round_trip_and_canonical_form():
    inst = MetricInstance.from_points(
        [(0, 0), (Fraction(1, 2), 0)], 1, 0, [2, 2], name="half"
    )
    text = inst.to_json()
    again = MetricInstance.from_json(text)
    assert again == inst
    assert again.to_json() == text
    assert '"0.5"' not in text  # numbers are JSON numbers, not strings
    assert "0.5" in text


def test_parse_exact_json_keeps_decimals_exact():
    data = parse_exact_json('{"x": 0.1}')
    assert data["x"] == Fraction(1, 10)
    with pytest.raises(InstanceError):
        parse_exact_json('{"x": NaN}')
    with pytest.raises(InstanceError):
        parse_exact_json("{bad json")


def test_huge_numbers_are_rejected_before_they_are_built():
    """Fraction would build 10**e in full, minutes for an exponent near a
    billion, and the interpreter refuses to read a number of more than 4300
    digits; both are bad input, found at once, and the message names the
    limit."""
    assert exact_decimal("1.5e4300") == Fraction(15) * 10**4299
    assert exact_decimal("1E-4300") == Fraction(1, 10**4300)
    t0 = time.perf_counter()
    for number in ("1e999999999", "1e-2000000", "2.5E+4301"):
        with pytest.raises(InstanceError, match="decimal exponent beyond 4300"):
            exact_decimal(number)
        with pytest.raises(InstanceError, match="decimal exponent beyond 4300"):
            parse_exact_json(f'{{"dist": [[0, {number}], [{number}, 0]]}}')
    digits = "7" * 4300
    rest = digits[1:]
    assert parse_exact_json(f"[{digits}, -{digits}, {rest}.5, -0.{rest}]") == [
        int(digits), -int(digits), Fraction(int(rest + "5"), 10), -Fraction(int(rest), 10**4299)]
    assert exact_decimal(f"-{digits}") == -int(digits)
    for number in ("1" + "0" * 5000, f"-{digits}7", f"{digits}.5", f"-0.{digits}7",
                   f"{digits[:2150]}.{digits[:2151]}e-3"):
        with pytest.raises(InstanceError, match="number of more than 4300 digits: '"):
            parse_exact_json(f'{{"n": {number}}}')
        with pytest.raises(InstanceError, match="number of more than 4300 digits: '"):
            exact_decimal(number)
    assert time.perf_counter() - t0 < 1


def test_squares_too_long_to_print_are_rejected():
    """A distance of 10**2200 parses, but its square has 4401 digits, past
    what `decimal_str` can print; a square, and a stretch times it, must
    stay printable, so the parser refuses more than 2150 digits in a
    square and names the pair.  Tiny distances print as zeros and a point
    pair counts like a dist entry."""

    def payload(dist=None, points=None):
        data = {"name": "big", "n": 2, "k": 1, "alpha": 0, "variant": "ft", "capacities": [2, 2]}
        if points is None:
            return {**data, "dist": [[0, dist], [dist, 0]]}
        return {**data, "points": points}

    for text in ("1e2200", "1e1075", "3.2e1075"):
        with pytest.raises(InstanceError, match="between vertices 0 and 1 has more than 2150 digits"):
            MetricInstance.from_payload(payload(exact_decimal(text)))
    with pytest.raises(InstanceError, match="more than 2150 digits"):
        MetricInstance.from_payload(payload(points=[[0, 0], [10**1075, 0]]))
    for text in ("9.9e1074", "1e-4300", "123456789e-4300"):
        inst = MetricInstance.from_payload(payload(exact_decimal(text)))
        assert decimal_str(inst.d2[0][1]) and decimal_str(100 * inst.d2[0][1])
    inst = MetricInstance.from_payload(payload(points=[[0, 0], [10**1074, 0]]))
    assert len(decimal_str(100 * inst.d2[0][1])) == 2151


def test_payload_validation():
    inst = MetricInstance.from_points(LINE3, 2, 1, [3, 3, 3], name="line3")
    payload = parse_exact_json(inst.to_json())
    payload["extra"] = 1
    with pytest.raises(InstanceError):
        MetricInstance.from_payload(payload)
    payload = parse_exact_json(inst.to_json())
    del payload["capacities"]
    with pytest.raises(InstanceError):
        MetricInstance.from_payload(payload)
    payload = parse_exact_json(inst.to_json())
    payload["dist"] = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    with pytest.raises(InstanceError):  # points and dist are exclusive
        MetricInstance.from_payload(payload)


def test_canonical_json_rendering():
    out = canonical_json({"a": Fraction(1, 4), "b": [1, 2], "c": "x"})
    assert out == '{\n  "a": 0.25,\n  "b": [1, 2],\n  "c": "x"\n}\n'


def test_threshold_graph_hops_and_components():
    g = ThresholdGraph(5, [(0, 1), (3, 4)])
    hops = g.hops()
    assert hops[0][1] == 1
    assert hops[0][3] == math.inf
    assert g.components() == ((0, 1), (2,), (3, 4))
    sub, orig = g.induced((3, 4))
    assert sub.n == 2 and edge_set(sub) == frozenset({(0, 1)})
    assert orig == (3, 4)
    assert not g.is_connected()
    assert path_graph(4).is_connected()


def test_power_of_cycle():
    c6 = cycle_graph(6)
    p2 = power(c6, 2)
    assert all(len(p2.closed(v)) - 1 == 4 for v in range(6))  # everyone but the antipode
    p3 = power(c6, 3)
    assert all(len(p3.closed(v)) - 1 == 5 for v in range(6))  # complete graph


def test_neighborhood_closed():
    g = path_graph(5)
    assert mask_bits(g.balls(0, 2)[-1]) == [0, 1, 2]
    assert mask_bits(g.balls(0, 1)[-1] | g.balls(4, 1)[-1]) == [0, 1, 3, 4]
    assert mask_bits(g.balls(2, 0)[-1]) == [2]


def test_strip_zero_zero_edges():
    g = ThresholdGraph(3, [(0, 1), (1, 2), (0, 2)])
    stripped = strip_zero_zero_edges(g, [0, 0, 5])
    assert edge_set(stripped) == frozenset({(1, 2), (0, 2)})


def test_uniform_capacity_level():
    assert uniform_capacity_level([0, 3, 3, 0]) == 3
    assert uniform_capacity_level([2, 2]) == 2
    assert uniform_capacity_level([0, 0]) == 0  # degenerate but well-formed
    with pytest.raises(InstanceError):
        uniform_capacity_level([1, 2])


def test_hop_metric_instance():
    inst = hop_metric_instance(cycle_graph(6), 2, 1, [6] * 6)
    assert inst.d2[0][3] == 9
    assert inst.thresholds_sq() == (Fraction(0), Fraction(1), Fraction(4), Fraction(9))
    with pytest.raises(InstanceError):
        hop_metric_instance(ThresholdGraph(3, []), 1, 0, [1, 1, 1])


def test_two_hop_index_matches_the_first_graph_with_a_full_two_ball():
    """On random points with coincident ones (span 6) and on one point, the
    index is the first threshold whose graph has every vertex within two
    hops of s, for every s."""
    rng = random.Random("instance/two-hop")
    for t in range(120):
        n = 1 if t % 10 == 0 else rng.randint(2, 9)
        points = [(rng.randrange(6), rng.randrange(6)) for _ in range(n)]
        inst = MetricInstance.from_points(points, 1, 0, [1] * n)
        graphs = [inst.threshold_graph_at(i) for i in range(len(inst.thresholds_sq()))]
        full = (1 << n) - 1
        for s in range(n):
            want = next(i for i, G in enumerate(graphs) if G.balls(s, 2)[2] == full)
            assert inst.two_hop_index(s) == want, (points, s)
