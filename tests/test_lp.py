"""LP layer: the exact dual simplex from the slack basis against its
Fraction twin and the phase-1 reference, the static row systems, min-cut
separation against exhaustive enumeration, and the warm-started
cutting-plane loop against the from-scratch one."""

import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from ftkcenter import lp as lp_module
from ftkcenter.bottleneck import quick_infeasible
from ftkcenter.clustering import (
    backup_union,
    build_gprime,
    greedy_independent,
    monarch_clustering,
    select_backups,
)
from ftkcenter.instance import ContractViolation, InstanceError
from ftkcenter.lp import (
    LinearProgram,
    Row,
    feasible_point,
    general_network,
    lp_general_static,
    lp_uniform_static,
    separate_general,
    separate_uniform,
    solve_cutting_plane,
    uniform_network,
)

from helpers import (
    assert_first_violated_row,
    brute_separate_general,
    brute_separate_uniform,
    cycle_graph,
    fraction_dual_simplex_point,
    fraction_feasible_point,
    general_short,
    path_graph,
    per_cut_separate_general,
    per_cut_separate_uniform,
    random_connected_graph,
    random_separation_point,
    scratch_cutting_plane,
    uniform_short,
)

EPS = Fraction(1, 10**6)  # below the gap between any two cut values drawn here


def satisfies(rows, x):
    for row in rows:
        lhs = sum((c * x[v] for v, c in row.coeffs), Fraction(0))
        if row.rel == "==" and lhs != row.rhs:
            return False
        if row.rel == "<=" and lhs > row.rhs:
            return False
        if row.rel == ">=" and lhs < row.rhs:
            return False
    return True


def int_row(coeffs, rel, rhs) -> Row:
    """The row coeffs . y rel rhs, whose entries may be Fractions, times the
    lcm of its denominators: a row of ints with the same half-space."""
    scale = lcm(Fraction(rhs).denominator, *(Fraction(c).denominator for c in coeffs.values()))
    return Row.make({v: int(c * scale) for v, c in coeffs.items()}, rel, int(rhs * scale))


def test_row_make_normalizes():
    row = Row.make({2: 1, 0: -2, 1: 0}, ">=", 3)
    assert row.coeffs == ((0, -2), (2, 1))
    assert row.rhs == 3
    with pytest.raises(InstanceError):
        Row.make({0: 1}, "=", 1)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 0.1, 1.0, True, False])
def test_row_make_takes_only_ints(bad):
    """A Fraction, a float or a bool is refused as a coefficient and as a
    right-hand side, even where it equals an int: no float ever decides
    feasibility, and every row a solver builds is integral."""
    with pytest.raises(InstanceError, match="ints"):
        Row.make({0: bad, 1: 1}, ">=", 1)
    with pytest.raises(InstanceError, match="ints"):
        Row.make({0: 1}, "<=", bad)


def test_feasible_point_exact_third():
    lp = LinearProgram(1)
    lp.add({0: 3}, "==", 1)
    x = feasible_point(lp)
    assert x == {0: Fraction(1, 3)}


def test_feasible_point_small_systems():
    lp = LinearProgram(2)
    lp.add({0: 1, 1: 1}, "==", 1)
    lp.add({0: 1, 1: -1}, "==", 0)
    x = feasible_point(lp)
    assert x == {0: Fraction(1, 2), 1: Fraction(1, 2)}

    lp = LinearProgram(1)
    lp.add({0: 1}, "<=", 1)
    lp.add({0: 1}, ">=", 2)
    assert feasible_point(lp) is None

    # negative rhs is normalized, and variables stay >= 0
    lp = LinearProgram(1)
    lp.add({0: -1}, "==", -3)
    assert feasible_point(lp) == {0: Fraction(3)}
    lp = LinearProgram(1)
    lp.add({0: 1}, ">=", -5)
    assert feasible_point(lp) == {0: Fraction(0)}


def test_feasible_point_rejects_out_of_range_variable():
    lp = LinearProgram(1)
    lp.add({1: 1}, "==", 1)
    with pytest.raises(InstanceError):
        feasible_point(lp)


def test_feasible_point_satisfies_random_systems():
    rng = random.Random(11)
    feasible_seen = infeasible_seen = 0
    for _ in range(60):
        nvars = rng.randint(1, 4)
        lp = LinearProgram(nvars)
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                v: rng.randint(-3, 3)
                for v in range(nvars)
                if rng.random() < 0.8
            }
            lp.add(coeffs, rng.choice(["<=", ">=", "=="]), rng.randint(-4, 4))
        x = feasible_point(lp)
        if x is None:
            infeasible_seen += 1
            continue
        feasible_seen += 1
        assert all(v >= 0 for v in x.values())
        assert satisfies(lp.rows, x)
    assert feasible_seen and infeasible_seen


def cap_pivots(monkeypatch, cap=25):
    """Count `lp._pivot` calls in the returned list and fail once it holds
    more than `cap`, so that a cycling pivot rule or broken tableau
    arithmetic fails the test instead of hanging it.  The systems here need
    at most 9 pivots; the cap also stops early enough that entries left
    unreduced by a broken elimination (their bit length grows like the
    Fibonacci numbers, per pivot) stay small."""
    pivots = []
    pivot = lp_module._pivot

    def counted(tableau, basis, pi, pj):
        pivots.append(pj)
        if len(pivots) > cap:
            raise RuntimeError(f"more than {cap} pivots")
        return pivot(tableau, basis, pi, pj)

    monkeypatch.setattr(lp_module, "_pivot", counted)
    return pivots


def assert_same_point_as_fraction_tableau(lp, pivots):
    """The integer-row tableau makes the pivots of the Fraction dual
    simplex, so it returns the same point (or None); the verdict is the one
    of the phase-1 reference, and a point satisfies every row.  `pivots` is
    the list of `cap_pivots`, emptied first so that the cap holds per
    system.  Returns the point."""
    pivots.clear()
    x = feasible_point(lp)
    assert x == fraction_dual_simplex_point(lp)
    assert (x is None) == (fraction_feasible_point(lp) is None)
    if x is not None:
        assert satisfies(lp.rows, x)
    return x


def test_feasible_point_matches_fraction_tableau(monkeypatch):
    """Rows drawn with Fraction entries and scaled to ints by `int_row`,
    negative right-hand sides and all three relations."""
    pivots = cap_pivots(monkeypatch)
    rng = random.Random(2016)

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    verdicts = set()
    fractional_points = 0
    for _ in range(300):
        nvars = rng.randint(1, 5)
        lp = LinearProgram(nvars)
        for _ in range(rng.randint(1, 6)):
            coeffs = {v: frac() for v in range(nvars) if rng.random() < 0.7}
            lp.rows.append(int_row(coeffs, rng.choice(["<=", ">=", "=="]), frac()))
        x = assert_same_point_as_fraction_tableau(lp, pivots)
        verdicts.add(x is None)
        if x is not None:
            fractional_points += any(v.denominator != 1 for v in x.values())
    assert verdicts == {True, False}
    assert fractional_points


def test_feasible_point_matches_fraction_tableau_on_covering_systems(monkeypatch):
    """Degenerate systems shaped like the static LPs plus Hall cuts (total
    mass, 0/1 coverage rows, y <= 1, cuts drawn with a fractional rhs and
    scaled to ints), where degenerate pivots are common and the
    lowest-index rules pick the vertex."""
    pivots = cap_pivots(monkeypatch)
    rng = random.Random(2016)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(2, 7)
        lp = LinearProgram(n)
        lp.add({u: 1 for u in range(n)}, "==", rng.randint(1, n))
        for _ in range(rng.randint(1, n)):
            lp.add({u: 1 for u in rng.sample(range(n), rng.randint(1, n))}, ">=", 1)
        for _ in range(rng.randint(0, 2)):
            U = rng.sample(range(n), rng.randint(1, n))
            level = rng.randint(1, 3)
            lp.rows.append(
                int_row({u: level for u in U}, ">=", Fraction(rng.randint(1, 2 * n), rng.randint(1, 2)))
            )
        for u in range(n):
            lp.add({u: 1}, "<=", 1)
        verdicts.add(assert_same_point_as_fraction_tableau(lp, pivots) is None)
    assert verdicts == {True, False}


def test_general_static_c6_pinned_backups_overrun_k():
    """Two clusters each pin a backup and still demand coverage, which cannot
    fit in k=2; dropping the backups (alpha=0) makes the same system feasible."""
    g = cycle_graph(6)
    cl = monarch_clustering(g)
    caps = [1] * 6
    backups = select_backups(cl, caps, 1)
    lp = lp_general_static(g, 2, cl, backup_union(backups))
    assert feasible_point(lp) is None

    lp0 = lp_general_static(g, 2, cl, frozenset())
    x = feasible_point(lp0)
    assert x is not None and satisfies(lp0.rows, x)


def test_static_rows_are_feasible_past_the_quick_check_and_the_head_cap():
    """On graphs and capacities that pass `quick_infeasible`: (a) every
    cluster of the capped clustering has more than alpha members, (b) the
    static rows over its backups are feasible, and (d) every cons-0l
    anchor has more than alpha positive-capacity vertices within one hop.
    Without the cap the static rows can be infeasible, so (b) rests on
    it."""
    rng = random.Random("static-rows")
    checked = Counter()
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_connected_graph(rng, n, rng.choice((0, n // 2, n, 2 * n)))
        caps = [0 if rng.random() < 0.1 else rng.randint(1, n) for _ in range(n)]
        alpha = rng.randint(0, 2)
        k = rng.randint(1, n)
        if quick_infeasible(g, k, caps, alpha):
            continue
        for a in greedy_independent(g, 7):
            assert sum(caps[v] > 0 for v in g.closed(a)) > alpha
        full = monarch_clustering(g)
        static = lp_general_static(g, k, full, backup_union(select_backups(full, caps, alpha)))
        checked["uncapped infeasible"] += feasible_point(static) is None
        cl = monarch_clustering(g, k // (alpha + 1))
        if cl is None:
            continue
        assert all(len(members) > alpha for members in cl.clusters.values())
        bset = backup_union(select_backups(cl, caps, alpha))
        assert feasible_point(lp_general_static(g, k, cl, bset)) is not None
        checked["one head"] += len(cl.heads) == 1
        checked["several heads, alpha > 0"] += len(cl.heads) > 1 and alpha > 0
    assert min(checked.values()) >= 10, checked


def test_uniform_static_rows():
    g = path_graph(3)
    lp = lp_uniform_static(g, 1, [1, 1, 1])
    x = feasible_point(lp)
    assert x is not None and satisfies(lp.rows, x)
    with pytest.raises(InstanceError):
        lp_uniform_static(g, 1, [2, 1, 1])
    # zero-capacity vertices cannot cover anyone
    lp = lp_uniform_static(g, 1, [0, 1, 0])
    x = feasible_point(lp)
    assert x is not None and x[1] == 1


def test_separate_uniform_frozen_path3():
    g = path_graph(3)
    y = {0: Fraction(0), 1: Fraction(1), 2: Fraction(0)}
    row = separate_uniform(y, uniform_network(g, [1, 1, 1]), [1, 1, 1], 0)
    assert row == Row.make({0: 1, 1: 1, 2: 1}, ">=", 3)


def test_separate_uniform_matches_brute():
    rng = random.Random(23)
    checked = violated = 0
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_connected_graph(rng, n, rng.randint(0, 3))
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.8 else 0 for _ in range(n)]
        if not any(caps):
            caps[0] = L
        alpha = rng.randint(0, 1)
        y = {u: Fraction(rng.randint(0, 4), 4) for u in range(n)}
        network = uniform_network(g, caps)
        row = separate_uniform(y, network, caps, alpha)
        best = brute_separate_uniform(y, g, caps, alpha)
        # the minimum over the pass's variants of value - n is best
        assert uniform_short(y, network, caps, n + best) is None
        assert uniform_short(y, network, caps, n + best + EPS) is not None
        ref = per_cut_separate_uniform(y, g, caps, alpha)
        assert_first_violated_row(row, y, best, alpha * L, ref)
        checked += 1
        violated += row is not None
    assert checked == 40 and violated >= 5


def test_separate_general_matches_brute():
    rng = random.Random(37)
    checked = violated = 0
    while checked < 40:
        n = rng.randint(2, 6)
        g = random_connected_graph(rng, n, rng.randint(0, 3))
        caps = [rng.randint(0, 3) for _ in range(n)]
        alpha = rng.randint(0, 2)
        cl = monarch_clustering(g)
        if min(map(len, cl.clusters.values())) < alpha:
            continue
        backups = select_backups(cl, caps, alpha)
        bset = backup_union(backups)
        if len(bset) < alpha:
            continue
        gp = build_gprime(g, cl, backups)
        y = {u: Fraction(rng.randint(0, 4), 4) for u in range(n)}
        network = general_network(gp)
        row = separate_general(y, network, bset, alpha, caps)
        best = brute_separate_general(y, g, gp, bset, alpha, caps)
        # the minimum over the pass's variants of value - n is best
        assert general_short(y, network, bset, alpha, caps, n + best) is None
        assert general_short(y, network, bset, alpha, caps, n + best + EPS) is not None
        ref = per_cut_separate_general(y, g, gp, bset, alpha, caps)
        assert_first_violated_row(row, y, best, 0, ref)
        violated += row is not None
        checked += 1
    assert violated >= 5


def test_separate_general_no_scenarios_is_clean():
    g = path_graph(2)
    cl = monarch_clustering(g)
    network = general_network(build_gprime(g, cl, {}))
    assert separate_general({0: Fraction(1), 1: Fraction(0)}, network, frozenset(), 1, [1, 1]) is None


def test_separators_match_one_transport_per_cut():
    """One `short` call per pass on the separator's network, stopped at its
    first violated cut, returns the row of one `transport` per forced
    vertex or failure scenario on a rebuilt network, and None exactly when
    the brute-force minimum clears the threshold.  On graphs that may be
    disconnected, y with mixed denominators and zeros, {0,L} capacities
    with zeros, alpha 0..2 and backup sets too small for any scenario; a
    pass also stops at a violated cut above the minimum over its variants:
    the first variant at the minimum, short of n + minimum + 10**-6, comes
    after the first violated one."""
    rng = random.Random(1994)
    seen = {
        "uniform violated": 0,
        "uniform stopped above the minimum": 0,
        "general violated": 0,
        "general stopped above the minimum": 0,
        "no scenario": 0,
        "disconnected": 0,
    }
    for _ in range(150):
        g, y, alpha = random_separation_point(rng)
        n = g.n
        seen["disconnected"] += len(g.components()) > 1

        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.75 else 0 for _ in range(n)]
        network = uniform_network(g, caps)
        row = separate_uniform(y, network, caps, alpha)
        ref = per_cut_separate_uniform(y, g, caps, alpha)
        best = brute_separate_uniform(y, g, caps, alpha)
        assert_first_violated_row(row, y, best, alpha * L, ref)
        seen["uniform violated"] += row is not None
        if row is not None:
            first = uniform_short(y, network, caps, n + alpha * L)[0]
            at_minimum = uniform_short(y, network, caps, n + best + EPS)[0]
            seen["uniform stopped above the minimum"] += at_minimum > first

        gp = tuple(
            sum(1 << w for w in rng.sample(range(n), rng.randint(0, n)) if w != u)
            for u in range(n)
        )
        backups = frozenset(rng.sample(range(n), rng.randint(0, min(n, 3))))
        caps = [rng.randint(0, 3) for _ in range(n)]
        network = general_network(gp)
        row = separate_general(y, network, backups, alpha, caps)
        ref = per_cut_separate_general(y, g, gp, backups, alpha, caps)
        brute = brute_separate_general(y, g, gp, backups, alpha, caps)
        assert_first_violated_row(row, y, brute, 0, ref)
        if len(backups) < alpha:
            seen["no scenario"] += 1
            continue
        seen["general violated"] += row is not None
        if row is not None:
            first = general_short(y, network, backups, alpha, caps, n)[0]
            at_minimum = general_short(y, network, backups, alpha, caps, n + brute + EPS)[0]
            seen["general stopped above the minimum"] += at_minimum > first
    assert min(seen.values()) >= 5, seen


def test_cutting_plane_uniform_path5():
    """With capacity 2 and one failure, k=4 is feasible on the path but the
    static point needs a Hall cut first.  With unit capacities the full
    vertex set is a witness against every k <= n: a failure leaves k-1
    surviving units for 5 clients."""
    g = path_graph(5)
    caps = [2] * 5
    network = uniform_network(g, caps)

    def separator(y):
        return separate_uniform(y, network, caps, 1)

    y, cuts = solve_cutting_plane(lp_uniform_static(g, 4, caps), separator)
    assert y is not None
    assert len(cuts) >= 1
    assert separator(y) is None
    assert sum(y.values()) == 4

    unit = [1] * 5
    unit_network = uniform_network(g, unit)
    y2, cuts2 = solve_cutting_plane(
        lp_uniform_static(g, 4, unit), lambda y: separate_uniform(y, unit_network, unit, 1)
    )
    assert y2 is None
    assert len(cuts2) >= 1


def test_cutting_plane_round_cap(monkeypatch):
    g = path_graph(5)
    caps = [2] * 5
    monkeypatch.setattr(lp_module, "MAX_ROUNDS", 0)
    with pytest.raises(ContractViolation):
        solve_cutting_plane(
            lp_uniform_static(g, 4, caps),
            lambda y: separate_uniform(y, uniform_network(g, caps), caps, 1),
        )


def test_cutting_plane_clean_separator_returns_first_point():
    lp = LinearProgram(1)
    lp.add({0: 1}, "==", 1)
    y, cuts = solve_cutting_plane(lp, lambda y: None)
    assert y == {0: Fraction(1)} and cuts == []


def violated_cut(rng, y, nvars):
    """A random row that y violates: any relation, drawn with Fraction
    entries and scaled to ints by `int_row`, and sometimes no coefficients
    at all (then a contradiction like 0 >= 1)."""
    coeffs = {}
    if rng.random() < 0.9:
        coeffs = {
            v: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for v in range(nvars)
            if rng.random() < 0.6
        }
    lhs = sum((c * y[v] for v, c in coeffs.items()), Fraction(0))
    gap = Fraction(rng.randint(1, 6), rng.randint(1, 3))
    rel = rng.choice(["<=", ">=", "=="])
    if rel == "<=":
        return int_row(coeffs, rel, lhs - gap)
    if rel == ">=":
        return int_row(coeffs, rel, lhs + gap)
    return int_row(coeffs, rel, lhs + rng.choice((-gap, gap)))


def test_warm_cuts_match_from_scratch_verdicts():
    """Cuts go into the kept tableau and are re-solved by dual simplex.
    After every cut the verdict is the one `feasible_point` gives on all
    rows so far, and a point is nonnegative and satisfies every row.  A
    repeated `==` row gives a redundant pair of halves whose slacks may stay
    basic at level 0, and an `==` row with rhs 0 starts degenerate."""
    rng = random.Random("warm-cuts")

    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    seen = Counter()
    for _ in range(500):
        nvars = rng.randint(1, 5)
        lp = LinearProgram(nvars)
        for _ in range(rng.randint(0, 6)):
            coeffs = {v: frac() for v in range(nvars) if rng.random() < 0.7}
            lp.rows.append(int_row(coeffs, rng.choice(["<=", ">=", "=="]), frac()))
        if rng.random() < 0.3:
            coeffs = {v: frac() for v in range(nvars) if rng.random() < 0.7}
            rhs = rng.choice((0, frac()))
            lp.rows += [int_row(coeffs, "==", rhs)] * 2
            seen["repeated =="] += 1
        rows = list(lp.rows)
        length = rng.randint(1, 8)

        def separator(y):
            assert all(v >= 0 for v in y.values())
            assert satisfies(rows, y)
            assert feasible_point(LinearProgram(nvars, rows)) is not None
            seen["feasible"] += 1
            if len(rows) - len(lp.rows) == length:
                return None
            row = violated_cut(rng, y, nvars)
            seen[row.rel if row.coeffs else "empty"] += 1
            rows.append(row)
            return row

        y, cuts = solve_cutting_plane(lp, separator)
        assert len(cuts) == len(rows) - len(lp.rows)
        if y is None:
            assert feasible_point(LinearProgram(nvars, rows)) is None
            seen["infeasible after a cut" if cuts else "infeasible"] += 1
    assert min(seen.values()) >= 20, seen


def solve_with_pivot_cap(monkeypatch, lp, cuts):
    """`solve_cutting_plane` on lp with a separator that returns `cuts` in
    order, under `cap_pivots`.  Returns (y, cuts)."""
    cap_pivots(monkeypatch)
    rows = iter(cuts)
    return solve_cutting_plane(lp, lambda y: next(rows))


def test_dual_simplex_leaves_on_the_lowest_basic_column(monkeypatch):
    """A degenerate system on which the dual simplex cycles when the
    negative-rhs row with the highest basic column leaves: after the second
    cut it walks through a ring of bases forever.  The lowest-basic-column
    rule (Bland's rule on the dual) proves the system infeasible in a few
    pivots."""
    lp = LinearProgram(6)
    lp.add({1: 2, 3: -2, 4: 2, 5: 2}, ">=", 0)
    lp.add({0: -1, 1: 3, 4: -2, 5: -1}, "<=", 0)
    lp.add({0: -2, 1: 2, 2: 3, 4: 3, 5: 3}, ">=", 0)
    lp.add({0: 3, 3: 3, 5: 3}, ">=", 0)
    cuts = [Row.make({1: 1, 2: 3}, ">=", 1), Row.make({0: -1, 1: -2, 3: -1}, ">=", 3)]
    y, added = solve_with_pivot_cap(monkeypatch, lp, cuts)
    assert y is None and len(added) == 2


def test_dual_simplex_enters_on_the_lowest_column(monkeypatch):
    """An infeasible system on which the dual simplex cycles from the slack
    basis when the highest column with a negative entry enters.  The
    lowest-column rule proves it infeasible in two pivots: the first row
    needs 2 y1 >= y0 + 3 y3 + 2, the cut 2 y1 <= 1."""
    lp = LinearProgram(4)
    lp.add({0: 1, 1: -2, 3: 3}, "<=", -2)
    lp.add({0: 3, 1: 1, 2: 1, 3: 2}, ">=", 2)
    cuts = [Row.make({1: 2, 2: 3, 3: 2}, "<=", 1)]
    y, added = solve_with_pivot_cap(monkeypatch, lp, cuts)
    assert y is None and len(added) == 1


def test_cutting_plane_rejects_a_satisfied_cut():
    """A separator whose row the point already satisfies breaks the
    contract, whichever the relation; a cut on an unknown variable is bad
    input."""
    lp = LinearProgram(2)
    lp.add({0: 1, 1: 1}, "==", 1)
    y = feasible_point(lp)
    for row in (
        Row.make({0: 1, 1: 1}, ">=", 1),
        int_row({0: 1}, "<=", y[0]),
        int_row({1: 2}, "==", 2 * y[1]),
        Row.make({}, "<=", 0),
    ):
        with pytest.raises(ContractViolation, match="satisfies"):
            solve_cutting_plane(lp, lambda y: row)
    with pytest.raises(InstanceError):
        solve_cutting_plane(lp, lambda y: Row.make({2: 1}, ">=", 1))


def test_cutting_plane_matches_from_scratch_loop_uniform():
    """Same verdict as the from-scratch loop on random {0,L} graphs with the
    uniform Hall separator, and a clean point that satisfies the static
    rows."""
    rng = random.Random("warm-uniform")
    seen = Counter()
    for _ in range(120):
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.8 else 0 for _ in range(n)]
        if not any(caps):
            caps[0] = L
        alpha = rng.randint(0, 2)
        lp = lp_uniform_static(g, rng.randint(1, n), caps)
        network = uniform_network(g, caps)

        def separator(y):
            return separate_uniform(y, network, caps, alpha)

        y, cuts = solve_cutting_plane(lp, separator)
        ref, _ = scratch_cutting_plane(lp, separator)
        assert (y is None) == (ref is None)
        if y is not None:
            assert satisfies(lp.rows, y) and separator(y) is None
        seen[(y is None, bool(cuts))] += 1
    assert len(seen) == 4, seen


def test_cutting_plane_matches_from_scratch_loop_general():
    """Same verdict as the from-scratch loop on random clustered instances
    with the scenario separator, and a clean point that satisfies the
    static rows."""
    rng = random.Random("warm-general")
    seen = Counter()
    while sum(seen.values()) < 120:
        n = rng.randint(2, 8)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        caps = [rng.randint(0, 4) for _ in range(n)]
        alpha = rng.randint(0, 2)
        cl = monarch_clustering(g)
        if min(map(len, cl.clusters.values())) < alpha:
            continue
        backups = select_backups(cl, caps, alpha)
        bset = backup_union(backups)
        gp = build_gprime(g, cl, backups)
        lp = lp_general_static(g, rng.randint(1, n), cl, bset)
        network = general_network(gp)

        def separator(y):
            return separate_general(y, network, bset, alpha, caps)

        y, cuts = solve_cutting_plane(lp, separator)
        ref, _ = scratch_cutting_plane(lp, separator)
        assert (y is None) == (ref is None)
        if y is not None:
            assert satisfies(lp.rows, y) and separator(y) is None
        seen[(y is None, bool(cuts))] += 1
    assert len(seen) == 4, seen
