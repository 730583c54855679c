"""Conservative repairs: only clients of failed centers ever move.

Solves a conservative instance with the general-capacity algorithm, prints
the backup set it pre-opened, then fails center sets and diffs each repaired
assignment against the initial one.

Run:  python3 demos/conservative_repair.py
"""

from itertools import combinations

from ftkcenter.bottleneck import MergedComponents
from ftkcenter.conservative import solve_conservative_general
from ftkcenter.oracle import exact_opt_conservative

from ftkcenter.instance import MetricInstance

POINTS = [(0, 0), (1, 0), (2, 0), (3, 0), (10, 0), (11, 0), (12, 0), (13, 0)]
CAPS = [4, 1, 1, 4, 4, 1, 1, 4]


def main():
    inst = MetricInstance.from_points(
        POINTS, k=4, alpha=1, capacities=CAPS, variant="conservative", name="two-blocks"
    )
    res = solve_conservative_general(inst)
    print(f"instance: two blocks of four, k={inst.k}, alpha={inst.alpha}")
    print(f"tau*^2 = {res.tau2_star}, centers {res.centers}, "
          f"radius bound {res.radius().display()} (stretch {res.stretch})")
    phi0 = res.assignment
    print(f"initial assignment phi0: {phi0}")

    record = res.outcome.solution.scenario
    if isinstance(record, MergedComponents):
        for orig, sol in record.parts:  # orig maps component ids to instance ids
            print(f"  component with centers {[orig[c] for c in sol.centers]}: "
                  f"backups {sorted(orig[b] for b in sol.scenario.B)}")
    else:
        print(f"  backups: {sorted(record.B)}")

    print("\nfailing each center in turn:")
    for F in combinations(res.centers, inst.alpha):
        phi = res.scenario(F)
        moved = {u: (phi0[u], phi[u]) for u in phi if phi[u] != phi0[u]}
        orphans = {u for u, c in phi0.items() if c in F}
        print(f"  F={F}: orphans {sorted(orphans)}, moved {moved or 'nobody'}")
        assert set(moved) <= orphans, "a non-orphan moved; repair is not conservative"

    ok = res.verify()  # verify_conservative at the solution's radius
    print(f"\nindependent verifier: ok={ok.ok} ({ok.detail})")
    opt2, _ = exact_opt_conservative(inst)
    print(f"exact conservative optimum squared: {opt2}; tau*^2 = {res.tau2_star} <= {opt2}")


if __name__ == "__main__":
    main()
