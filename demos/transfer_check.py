"""Transfer certificates: what the rounding promises and how it is checked.

A distance-r transfer moves fractional opening mass so that, for every
vertex subset, the capacity-weighted mass reachable within r hops still
covers the subset's demand.  The rounding steps of the general pipeline
produce such a transfer at radius 8; this script pulls one out of a real
solve, certifies it, then breaks it on purpose to show the check has teeth.

Run:  python3 demos/transfer_check.py
"""

from fractions import Fraction

from ftkcenter.instance import MetricInstance
from ftkcenter.oracle import condition_b_exhaustive
from ftkcenter.rounding import GeneralRounding, condition_b_flow, verify_transfer
from ftkcenter.solvers import solve_ft_general

POINTS = [(0, 0), (1, 0), (1, 1), (2, 1), (6, 0), (6, 1), (7, 0)]


def main():
    inst = MetricInstance.from_points(
        POINTS, k=3, alpha=1, capacities=[4, 2, 2, 4, 4, 2, 4], name="transfer-demo"
    )
    res = solve_ft_general(inst)
    state = res.outcome.solution.scenario
    if not isinstance(state, GeneralRounding):
        raise SystemExit("threshold graph split into components; pick other points")

    rr = state.rr
    B = state.backup_set()
    n = inst.n
    print(f"tau*^2 = {res.tau2_star}, centers {res.centers}, backups {sorted(B)}")
    print(f"LP opening y (real vertices): "
          f"{ {v: str(rr.y0[v]) for v in range(n) if rr.y0[v]} }")
    print(f"integral opening after rounding: "
          f"{ {v: str(rr.y3[v]) for v in range(n) if rr.y3[v]} }")

    ok = verify_transfer(rr.y0, rr.y3, rr.aug.ext, 8, B, rr.aug.caps_ext)
    print(f"distance-8 transfer certificate (backups pinned): {ok}")

    # the same condition, checked both ways
    flow = condition_b_flow(rr.y0, rr.y3, rr.aug.ext, 8, B, rr.aug.caps_ext)
    brute = condition_b_exhaustive(rr.y0, rr.y3, rr.aug.ext, 8, B, rr.aug.caps_ext)
    print(f"flow check {flow}, exhaustive subset check {brute}")

    # the radius is load-bearing: the same vectors at radius 0 are no transfer
    at_zero = verify_transfer(rr.y0, rr.y3, rr.aug.ext, 0, B, rr.aug.caps_ext)
    print(f"\nsame vectors checked at radius 0 instead of 8: {at_zero}")

    # and so is the pinning: close a backup, open something else
    bad = dict(rr.y3)
    b = sorted(B)[0]
    swap = next(v for v in range(n) if bad[v] == 0)
    bad[b], bad[swap] = Fraction(0), Fraction(1)
    print(f"close pinned backup {b}, open {swap} instead: "
          f"{verify_transfer(rr.y0, bad, rr.aug.ext, 8, B, rr.aug.caps_ext)}")


if __name__ == "__main__":
    main()
