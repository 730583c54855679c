"""Walk through one bottleneck sweep, threshold by threshold.

Builds a small point instance, prints the thresholds that the general
fault-tolerant pipeline's certificates skip, probes each later threshold
index with the per-threshold solver to show why the early ones fail, then
solves the instance with that pipeline and compares the result against the
exhaustive optimum.  The script raises if the sweep it narrates visits a
different number of thresholds than the solver did.

Run:  python3 demos/sweep_walkthrough.py
"""

from ftkcenter.bottleneck import PerTauSolution, solve_components
from ftkcenter.instance import MetricInstance
from ftkcenter.oracle import exact_opt_ft
from ftkcenter.solvers import ft_general_connected, ft_general_start, solve_ft_general
from ftkcenter.verify import verify_ft

POINTS = [(0, 0), (1, 0), (2, 0), (5, 0), (6, 0), (7, 1)]


def probe(inst):
    """Re-run the sweep by hand to narrate it: the certified skip records
    first, then the per-threshold solver at each index from the start.
    Returns the number of thresholds visited."""
    start, records = ft_general_start(inst)
    for tau2, reason in records:
        print(f"  tau^2 <= {tau2}: skipped by certificate, {reason}")
    thresholds = inst.thresholds_sq()
    for i in range(start, len(thresholds)):
        G = inst.threshold_graph_at(i)
        out = solve_components(G, inst.k, inst.alpha, inst.capacities, ft_general_connected)
        if isinstance(out, PerTauSolution):
            print(f"  tau^2 = {thresholds[i]} (index {i}): workable, centers {out.centers}")
            return i - start + 1
        print(f"  tau^2 = {thresholds[i]} (index {i}): {out.reason}")
    return len(thresholds) - start


def main():
    inst = MetricInstance.from_points(
        POINTS, k=3, alpha=1, capacities=[3, 2, 3, 3, 2, 3], name="walkthrough"
    )
    print(f"instance: {inst.n} points, k={inst.k}, alpha={inst.alpha}")
    print(f"squared thresholds to sweep: {[str(t) for t in inst.thresholds_sq()]}")
    print("\nsweep, certified skips and then threshold by threshold:")
    visits = probe(inst)

    res = solve_ft_general(inst)
    if visits != res.outcome.thresholds_tried:
        raise RuntimeError(
            f"narrated {visits} visits, the solver made {res.outcome.thresholds_tried}"
        )
    print(f"\nsolver result: tau*^2 = {res.tau2_star} "
          f"after visiting {res.outcome.thresholds_tried} thresholds")
    print(f"centers: {res.centers}")
    print(f"initial assignment: {res.assignment}")
    print(f"radius bound: {res.radius().display()}  (stretch {res.stretch} times tau*)")

    report = verify_ft(inst, res.centers, res.radius())
    print(f"independent verifier: ok={report.ok} ({report.detail})")

    opt2, witness = exact_opt_ft(inst)
    print(f"exhaustive optimum squared: {opt2} (witness centers {witness})")
    print(f"tau*^2 <= opt^2 holds: {res.tau2_star <= opt2}")

    # fail the center serving client 0 and watch the assignment adapt
    failed = res.assignment[0]
    phi = res.scenario({failed})
    moved = {u for u in phi if phi[u] != res.assignment[u]}
    print(f"\nfailing center {failed}: {len(moved)} clients move -> {phi}")


if __name__ == "__main__":
    main()
