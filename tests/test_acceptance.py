"""Acceptance suite: every advertised guarantee exercised end to end.

Each test covers one guarantee, checks it with exact rational arithmetic
(zero tolerance), and prints a single PASS/FAIL summary line.  Random draws
are seeded, so failures reproduce.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from ftkcenter import conservative
from ftkcenter.bottleneck import PerTauSolution, solve_components
from ftkcenter.clustering import (
    build_gprime,
    greedy_independent,
    is_alpha_ell_independent,
    monarch_clustering,
    select_backups,
)
from ftkcenter.conservative import (
    BETA,
    build_backup_set,
    conservative_general_connected,
    reassign_flow,
    solve_conservative_general,
    solve_conservative_uniform,
)
from ftkcenter.instance import (
    ContractViolation,
    Radius,
    ThresholdGraph,
    strip_zero_zero_edges,
    uniform_capacity_level,
)
from ftkcenter.lp import general_network, separate_general, separate_uniform, uniform_network
from ftkcenter.oracle import (
    condition_b_exhaustive,
    exact_distance1,
    exact_opt_ft,
    conservative_feasible_at,
    gap_instance,
    random_point_instance,
    relaxed_ilp_holds,
    verify_conservative,
    verify_ft,
    verify_transfer,
)
from ftkcenter.rounding import GeneralRounding, UniformRounding, condition_b_flow
from ftkcenter.solvers import (
    ft_general_connected,
    solve_ft_general,
    solve_ft_uniform,
)

from helpers import (
    closed_out,
    edge_set,
    exhaustive_residual,
    full_pass_general,
    full_pass_uniform,
    hop_metric_instance,
    per_cut_separate_general,
    per_cut_separate_uniform,
    random_connected_graph,
    random_feasible_instance,
)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_lines(capfd):
    # the PASS/FAIL summary lines should reach the terminal even under
    # pytest's default output capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name: str, violations: list, summary: str):
    verdict = "FAIL" if violations else "PASS"
    line = f"{verdict} {name}: {summary}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line)
    else:
        print(line)
    assert not violations, "\n".join(str(v) for v in violations[:10])


def _rand_frac(rng, denom=4):
    return Fraction(rng.randint(0, denom), denom)


# -- 1. approximation factors against the exhaustive optimum -----------------


def _solve_with(label, inst):
    if label == "ft-general":
        return solve_ft_general(inst)
    if label == "ft-0l":
        return solve_ft_uniform(inst)
    if label == "cons-0l":
        return solve_conservative_uniform(inst)
    if label == "cons-general":
        return solve_conservative_general(inst)
    # the general conservative pipeline with the exhaustive residual in place
    # of its LP one
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conservative, "ft_general_connected", exhaustive_residual)
        return solve_conservative_general(inst)


def _expected_stretch(label, alpha):
    return {
        "ft-general": 10,
        "ft-0l": 6,
        "cons-0l": 7,
        "cons-general": 9 + 6 * alpha,
        "cons-general-exact": 9 + 6 * alpha,  # the record's, sized for the LP residual
    }[label]


def test_factor_bounds_vs_oracle():
    """Every pipeline stays within its stretch factor of the exact optimum
    on 200 random feasible instances, certified by the independent verifier;
    with the exhaustive residual, the general conservative answer holds at
    1 + 6*alpha."""
    plans = (
        ("ft-general", "ft", "general", 50, 101),
        ("ft-0l", "ft", "uniform", 50, 102),
        ("cons-0l", "conservative", "uniform", 50, 103),
        ("cons-general", "conservative", "general", 25, 104),
        ("cons-general-exact", "conservative", "general", 25, 105),
    )
    violations = []
    total = 0
    for label, variant, caps_mode, count, seed in plans:
        rng = random.Random(seed)
        for i in range(count):
            if variant == "ft":
                n = rng.randint(5, 9)
                k = rng.randint(2, 4)
            else:
                n = rng.randint(5, 8)
                k = rng.randint(2, 4)
            if label == "ft-0l":
                alpha = rng.randint(0, k - 1)
            else:
                alpha = rng.randint(0, min(2, k - 1))
            inst, opt2, _ = random_feasible_instance(
                rng, n, k, alpha, variant=variant, caps_mode=caps_mode
            )
            total += 1
            tag = f"{label} #{i} ({inst.name}, n={n}, k={k}, a={alpha})"
            res = _solve_with(label, inst)
            if not res.feasible:
                violations.append(f"{tag}: solver infeasible but optimum is {opt2}")
                continue
            if res.stretch != _expected_stretch(label, alpha):
                violations.append(f"{tag}: stretch {res.stretch}")
            if res.tau2_star > opt2:
                violations.append(f"{tag}: tau*^2 {res.tau2_star} > opt^2 {opt2}")
            if label == "cons-general-exact":
                radius = Radius(1 + 6 * alpha, res.tau2_star)
                rep = verify_conservative(inst, res.centers, res.assignment, radius)
            else:
                rep = res.verify()
            if not rep.ok:
                violations.append(f"{tag}: verifier says {rep.detail}")
    _report(
        "factor bounds",
        violations,
        f"{total} random feasible instances within stretch of the exact optimum",
    )


# -- 2. the unbounded-gap family ----------------------------------------------


def test_gap_reproduction():
    """On the 16-vertex gap instance the distance-1 relaxation is feasible
    while the true optimum is radius 2, and the whole check is fast."""
    t0 = time.perf_counter()
    inst = gap_instance(4)
    violations = []
    if inst.n != 16 or inst.k != 4 or inst.alpha != 3:
        violations.append(f"unexpected shape: n={inst.n} k={inst.k} alpha={inst.alpha}")
    G = inst.threshold_graph(Fraction(1))
    y = {v: Fraction(1, 4) for v in range(inst.n)}
    if not relaxed_ilp_holds(G, y, inst.capacities, inst.k, inst.alpha):
        violations.append("y = 1/4 rejected by the distance-1 relaxation")
    opt2, witness = exact_opt_ft(inst, max_n=16)
    if opt2 != 4:
        violations.append(f"exact optimum squared is {opt2}, expected 4")
    elif not verify_ft(inst, witness, Radius(1, opt2)).ok:
        violations.append("oracle witness fails its own radius")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        violations.append(f"took {elapsed:.1f}s, budget 10s")
    _report(
        "gap reproduction",
        violations,
        f"fractional radius 1 vs integral radius 2 on gap-16 in {elapsed:.2f}s",
    )


# -- 3. transfer certificates --------------------------------------------------


def test_transfer_certificates():
    """Roundings harvested from real solves are certified distance-8 (general)
    and distance-5 (uniform) transfers; the flow and exhaustive subset
    implementations of the coverage condition agree on 1000 random pairs."""
    violations = []
    rng = random.Random(331)
    got_general = 0
    attempts = 0
    while got_general < 25 and attempts < 300:
        attempts += 1
        n = rng.randint(5, 12)
        k = rng.randint(2, min(4, n - 1))
        alpha = rng.randint(0, min(2, k - 1))
        inst = random_point_instance(rng, n, k, alpha, name=f"tg{attempts}")
        res = solve_ft_general(inst)
        if not res.feasible:
            continue
        state = res.outcome.solution.scenario
        if not isinstance(state, GeneralRounding):
            continue  # threshold graph split into components; rounding is per part
        rr = state.rr
        got_general += 1
        if not verify_transfer(rr.y0, rr.y3, rr.aug.ext, 8, state.backup_set(), rr.aug.caps_ext):
            violations.append(f"general rounding #{attempts}: transfer check failed")
    if got_general < 25:
        violations.append(f"only {got_general} general roundings harvested")

    got_uniform = 0
    attempts = 0
    while got_uniform < 25 and attempts < 300:
        attempts += 1
        n = rng.randint(5, 12)
        k = rng.randint(2, min(4, n - 1))
        alpha = rng.randint(0, k - 1)
        inst = random_point_instance(rng, n, k, alpha, caps_mode="uniform", name=f"tu{attempts}")
        res = solve_ft_uniform(inst)
        if not res.feasible:
            continue
        state = res.outcome.solution.scenario
        if not isinstance(state, UniformRounding):
            continue
        G = strip_zero_zero_edges(inst.threshold_graph(res.tau2_star), inst.capacities)
        y = {v: Fraction(state.y.get(v, 0)) for v in range(n)}
        y2 = {v: Fraction(1 if v in state.R else 0) for v in range(n)}
        got_uniform += 1
        if not verify_transfer(y, y2, G, 5, frozenset(), inst.capacities):
            violations.append(f"uniform rounding #{attempts}: transfer check failed")
    if got_uniform < 25:
        violations.append(f"only {got_uniform} uniform roundings harvested")

    rng2 = random.Random(77)
    pairs = 0
    for i in range(1000):
        n = rng2.randint(3, 12)
        G = random_connected_graph(rng2, n, extra=rng2.randint(0, n))
        caps = [rng2.randint(0, 3) for _ in range(n)]
        B = frozenset(v for v in range(n) if rng2.random() < 0.15)
        r = rng2.randint(0, 4)
        y = {v: _rand_frac(rng2) for v in range(n)}
        y2 = {v: _rand_frac(rng2) for v in range(n)}
        flow = condition_b_flow(y, y2, G, r, B, caps)
        brute = condition_b_exhaustive(y, y2, G, r, B, caps)
        pairs += 1
        if flow != brute:
            violations.append(f"pair #{i} (n={n}, r={r}): flow {flow} vs exhaustive {brute}")
    _report(
        "transfer certificates",
        violations,
        f"{got_general} general + {got_uniform} uniform roundings certified; "
        f"{pairs} flow/exhaustive pairs agree",
    )


# -- 4. separation oracles vs brute force --------------------------------------


def _brute_general(y, graph, gprime, bset, alpha, caps):
    n = graph.n
    best = None
    for F in combinations(sorted(bset), alpha):
        fset = set(F)
        for size in range(0, n + 1):
            for U in combinations(range(n), size):
                reach = closed_out(gprime, U) - fset
                val = sum(Fraction(caps[u]) * y[u] for u in reach) - len(U)
                if best is None or val < best:
                    best = val
    return best


def _brute_uniform(y, graph, caps):
    n = graph.n
    L = uniform_capacity_level(caps)
    best = None
    for size in range(1, n + 1):
        for U in combinations(range(n), size):
            reach = set()
            for v in U:
                reach |= {u for u in graph.closed(v) if caps[u] > 0}
            val = sum(Fraction(L) * y[u] for u in reach) - len(U)
            if best is None or val < best:
                best = val
    return best


def test_separation_equivalence():
    """Min-cut separation matches exhaustive enumeration over all (U, F) on
    100 random fractional points: the minimum of a full `cuts` pass on the
    separator's network equals the brute-force minimum, the separator
    returns no row exactly when that minimum clears the threshold, a
    returned row cuts the point, and it is the row of one `transport` per
    cut on a rebuilt network."""
    rng = random.Random(441)
    violations = []
    checked_general = 0
    checked_uniform = 0
    while checked_general < 50:
        n = rng.randint(3, 7)
        alpha = rng.randint(1, 2)
        G = random_connected_graph(rng, n, extra=rng.randint(0, 3))
        caps = [rng.randint(0, n) for _ in range(n)]
        clustering = monarch_clustering(G)
        backups, reason = select_backups(clustering, caps, alpha)
        if backups is None:
            continue
        gprime = build_gprime(G, clustering, backups)
        bset = set()
        for vs in backups.values():
            bset.update(vs)
        if len(bset) < alpha:
            continue
        y = {v: _rand_frac(rng) for v in range(n)}
        network = general_network(gprime)
        row = separate_general(y, network, bset, alpha, caps)
        brute = _brute_general(y, G, gprime, bset, alpha, caps)
        full = min(full_pass_general(y, network, bset, alpha, caps))
        checked_general += 1
        if full != brute:
            violations.append(f"general n={n} a={alpha}: cut {full} vs brute {brute}")
        if (row is None) != (brute >= 0):
            violations.append(f"general n={n} a={alpha}: verdict mismatch")
        if row is not None:
            lhs = sum(Fraction(c) * y[u] for u, c in row.coeffs)
            if lhs >= row.rhs:
                violations.append(f"general n={n}: returned row does not cut the point")
        if row != per_cut_separate_general(y, G, gprime, bset, alpha, caps):
            violations.append(f"general n={n} a={alpha}: row differs from the per-cut reference")
    while checked_uniform < 50:
        n = rng.randint(3, 7)
        alpha = rng.randint(1, 2)
        G = random_connected_graph(rng, n, extra=rng.randint(0, 3))
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.8 else 0 for _ in range(n)]
        if all(c == 0 for c in caps):
            caps[0] = L
        y = {v: _rand_frac(rng) for v in range(n)}
        network = uniform_network(G, caps)
        row = separate_uniform(y, network, caps, alpha)
        brute = _brute_uniform(y, G, caps)
        full = min(full_pass_uniform(y, network, caps))
        checked_uniform += 1
        if full != brute:
            violations.append(f"uniform n={n} a={alpha}: cut {full} vs brute {brute}")
        if (row is None) != (brute >= alpha * L):
            violations.append(f"uniform n={n} a={alpha}: verdict mismatch")
        if row is not None:
            lhs = sum(Fraction(c) * y[u] for u, c in row.coeffs)
            if lhs >= row.rhs:
                violations.append(f"uniform n={n}: returned row does not cut the point")
        if row != per_cut_separate_uniform(y, G, caps, alpha):
            violations.append(f"uniform n={n} a={alpha}: row differs from the per-cut reference")
    _report(
        "separation equivalence",
        violations,
        f"{checked_general} general + {checked_uniform} uniform points match brute force",
    )


# -- 5. the conservative reassignment network -----------------------------------


def test_conservative_flow_saturation():
    """On real general-conservative runs, the repair reroutes every orphaned
    client in every maximal scenario, and each rerouted client stays within
    BETA + 6*alpha hops."""
    rng = random.Random(551)
    violations = []
    runs = 0
    scenarios = 0
    attempts = 0
    while runs < 15 and attempts < 200:
        attempts += 1
        n = rng.randint(5, 8)
        alpha = rng.randint(1, 2)
        k = rng.randint(alpha + 2, min(n - 1, 5))
        G = random_connected_graph(rng, n, extra=rng.randint(0, n // 2))
        caps = [rng.randint(1, n) for _ in range(n)]
        out = conservative_general_connected(G, k, caps, alpha)
        if not isinstance(out, PerTauSolution):
            continue
        runs += 1
        capped = [min(c, n) for c in caps]
        phi0 = out.assignment
        hops = G.hops()
        for F in combinations(out.centers, alpha):
            scenarios += 1
            try:
                phi = reassign_flow(out.scenario, frozenset(F))
            except ContractViolation as e:  # no transport of the orphans within the bound
                violations.append(f"run {runs} F={F}: {e}")
                continue
            load = {}
            for u, c in phi.items():
                load[c] = load.get(c, 0) + 1
                if c in F:
                    violations.append(f"run {runs} F={F}: client {u} still on a failed center")
            for c, l in load.items():
                if l > capped[c]:
                    violations.append(f"run {runs} F={F}: center {c} over capacity")
            for u in range(G.n):
                if phi[u] != phi0[u]:
                    if phi0[u] not in F:
                        violations.append(
                            f"run {runs} F={F}: non-orphan {u} moved (not conservative)"
                        )
                    if hops[u][phi[u]] > BETA + 6 * alpha:
                        violations.append(
                            f"run {runs} F={F}: client {u} lands {hops[u][phi[u]]} hops away"
                        )
    if runs < 15:
        violations.append(f"only {runs} conservative runs harvested")
    _report(
        "conservative flow saturation",
        violations,
        f"{runs} runs, {scenarios} maximal scenarios, every orphan rerouted in range",
    )


# -- 6. structural invariants ---------------------------------------------------


def test_structural_invariants():
    """Clustering, backup-loop, and greedy-independence invariants hold on
    100 random connected graphs up to 30 vertices."""
    rng = random.Random(661)
    violations = []
    graphs = 0
    for i in range(100):
        n = rng.randint(2, 30)
        G = random_connected_graph(rng, n, extra=rng.randint(0, n))
        graphs += 1
        tag = f"graph #{i} (n={n})"
        hops = G.hops()

        cl = monarch_clustering(G)
        seen = set()
        for h in cl.heads:
            members = set(cl.clusters[h])
            if members & seen:
                violations.append(f"{tag}: clusters overlap")
            seen |= members
            if not set(G.closed(h)) <= members:
                violations.append(f"{tag}: head {h} does not own its neighborhood")
            if any(hops[h][v] > 2 for v in members):
                violations.append(f"{tag}: cluster of {h} leaves the 2-ball")
        if seen != set(range(n)):
            violations.append(f"{tag}: clusters miss vertices")
        for h1, h2 in cl.tree_edges:
            if hops[h1][h2] != 3:
                violations.append(f"{tag}: tree edge at hop {hops[h1][h2]}")

        alpha = rng.randint(1, 2)
        caps = [rng.randint(1, n) for _ in range(n)]
        B, trace = build_backup_set(G, caps, alpha)
        if not is_alpha_ell_independent(G, B, alpha, 6):
            violations.append(f"{tag}: backup set not ({alpha},6)-independent")
        running = [c for _, c in trace]
        if any(b <= a for a, b in zip(running, running[1:])):
            violations.append(f"{tag}: backup capacity not strictly increasing")

        A = greedy_independent(G, 7)
        for a, b in combinations(A, 2):
            if hops[a][b] < 7:
                violations.append(f"{tag}: independent pair {a},{b} at hop {hops[a][b]}")
        for v in range(n):
            if min(hops[v][a] for a in A) > 6:
                violations.append(f"{tag}: vertex {v} uncovered by the 7-independent set")
    _report(
        "structural invariants",
        violations,
        f"{graphs} random connected graphs, all invariants hold",
    )


# -- 7. residual feasibility after zeroing backups -------------------------------


def test_residual_feasibility_lemmas():
    """Zeroing an independent set of centers keeps the one-less-budget
    residual instance feasible, exhaustively over small graphs: (a) any
    (alpha,4)-independent subset of a conservative solution's centers;
    (b) the anchor-backup set chosen by the {0,L} algorithm."""
    rng = random.Random(771)
    violations = []
    general_cases = 0
    subsets = 0
    while general_cases < 25:
        n = rng.randint(4, 7)
        alpha = rng.randint(1, 2)
        k = rng.randint(alpha + 1, min(n - 1, 4))
        G = random_connected_graph(rng, n, extra=rng.randint(0, 2))
        caps = [rng.randint(1, n) for _ in range(n)]
        inst = hop_metric_instance(G, k, alpha, caps, variant="conservative")
        wit = conservative_feasible_at(inst, Fraction(1))
        if wit is None:
            continue
        general_cases += 1
        S, _ = wit
        for size in range(1, k + 1):
            for W in combinations(S, size):
                if not is_alpha_ell_independent(G, W, alpha, 4):
                    continue
                subsets += 1
                caps2 = [0 if v in W else caps[v] for v in range(n)]
                if exact_distance1(G, k - len(W), caps2) is None:
                    violations.append(
                        f"lemma (a): zeroing W={W} on n={n} k={k} a={alpha} kills feasibility"
                    )

    uniform_cases = 0
    while uniform_cases < 25:
        n = rng.randint(4, 7)
        alpha = rng.randint(1, 2)
        k = rng.randint(alpha + 1, min(n - 1, 4))
        G = random_connected_graph(rng, n, extra=rng.randint(0, 2))
        L = rng.randint(1, 3)
        caps = [L if rng.random() < 0.85 else 0 for _ in range(n)]
        if all(c == 0 for c in caps):
            caps[0] = L
        inst = hop_metric_instance(G, k, alpha, caps, variant="conservative")
        if conservative_feasible_at(inst, Fraction(1)) is None:
            continue
        uniform_cases += 1
        A = greedy_independent(G, 7)
        B = set()
        for a in A:
            pool = sorted(v for v in G.closed(a) if caps[v] > 0)
            if len(pool) < alpha:
                violations.append(
                    f"lemma (b): anchor {a} has {len(pool)} positive neighbors < alpha={alpha} "
                    f"despite feasibility (n={n}, k={k})"
                )
                break
            B.update(pool[:alpha])
        else:
            caps2 = [0 if v in B else caps[v] for v in range(n)]
            if exact_distance1(G, k - len(B), caps2) is None:
                violations.append(
                    f"lemma (b): zeroing B={sorted(B)} on n={n} k={k} a={alpha} kills feasibility"
                )
    _report(
        "residual feasibility",
        violations,
        f"{general_cases} conservative witnesses ({subsets} independent subsets) "
        f"and {uniform_cases} anchor-backup sets stay feasible",
    )


# -- 8. bottleneck soundness ------------------------------------------------------


def test_bottleneck_soundness():
    """tau* never exceeds the exact optimum, and the per-component driver
    agrees with a direct connected solve."""
    violations = []
    rng = random.Random(881)
    checked = 0
    for i in range(20):
        n = rng.randint(5, 8)
        k = rng.randint(2, 4)
        alpha = rng.randint(0, min(2, k - 1))
        inst, opt2, _ = random_feasible_instance(rng, n, k, alpha)
        res = solve_ft_general(inst)
        checked += 1
        if not res.feasible or res.tau2_star > opt2:
            violations.append(f"ft #{i}: tau*^2 {res.tau2_star} vs opt^2 {opt2}")
        inst_u, opt2_u, _ = random_feasible_instance(
            rng, n, k, alpha, caps_mode="uniform"
        )
        res_u = solve_ft_uniform(inst_u)
        checked += 1
        if not res_u.feasible or res_u.tau2_star > opt2_u:
            violations.append(f"ft-0l #{i}: tau*^2 {res_u.tau2_star} vs opt^2 {opt2_u}")
    for i in range(10):
        n = rng.randint(5, 7)
        k = rng.randint(2, 4)
        alpha = rng.randint(0, min(2, k - 1))
        inst, opt2, _ = random_feasible_instance(
            rng, n, k, alpha, variant="conservative"
        )
        for res in (
            solve_conservative_uniform(
                random_feasible_instance(
                    rng, n, k, alpha, variant="conservative", caps_mode="uniform"
                )[0]
            ),
            solve_conservative_general(inst),
        ):
            checked += 1
            if not res.feasible:
                violations.append(f"cons #{i}: {res.algorithm} infeasible")
        if solve_conservative_general(inst).tau2_star > opt2:
            violations.append(f"cons #{i}: tau* above the optimum")

    agreements = 0
    for i in range(25):
        n = rng.randint(4, 9)
        k = rng.randint(2, min(4, n))
        alpha = rng.randint(0, min(2, k - 1))
        G = random_connected_graph(rng, n, extra=rng.randint(0, n // 2))
        caps = [rng.randint(1, n) for _ in range(n)]

        direct = ft_general_connected(G, k, caps, alpha)
        # G beside a clique of alpha+1 vertices that needs every one of them:
        # with k + alpha + 1 centers, solve_components searches G from
        # alpha+1 up to k, the budget of the direct solve
        clique = [(n + a, n + b) for a, b in combinations(range(alpha + 1), 2)]
        H = ThresholdGraph(n + alpha + 1, [*edge_set(G), *clique])
        split = solve_components(
            H, k + alpha + 1, alpha, caps + [alpha + 1] * (alpha + 1), ft_general_connected
        )
        agreements += 1
        if isinstance(direct, PerTauSolution) != isinstance(split, PerTauSolution):
            violations.append(f"agreement #{i}: verdicts differ (n={n}, k={k}, a={alpha})")
            continue
        if not isinstance(split, PerTauSolution):
            continue
        (orig, part), (_, rest) = split.scenario.parts
        least = len(part.centers)
        again = ft_general_connected(G, least, caps, alpha)  # G alone at its least budget
        if orig != tuple(range(n)) or rest.centers != tuple(range(alpha + 1)):
            violations.append(f"agreement #{i}: components cut wrong (n={n}, k={k})")
        elif (
            not isinstance(again, PerTauSolution)
            or again.centers != part.centers
            or again.assignment != part.assignment
        ):
            violations.append(f"agreement #{i}: solutions differ (n={n}, k={k})")
        elif any(
            isinstance(ft_general_connected(G, b, caps, alpha), PerTauSolution)
            for b in range(alpha + 1, least)
        ):
            violations.append(f"agreement #{i}: budget {least} is not the least (n={n}, k={k})")
    _report(
        "bottleneck soundness",
        violations,
        f"{checked} sweeps below the optimum, {agreements} component/direct agreements",
    )
