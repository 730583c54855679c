"""Solution verifiers: an independent check that a center set (and, for the
conservative variant, a base assignment) survives every failure scenario
within a radius.  The solvers report through them, `ftkc verify` runs them
on a solution file, and the exhaustive searches of `oracle` use them to
test candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .flow import TransportNetwork, capacitated_assignment
from .instance import ContractViolation, MetricInstance, Radius, is_plain_int


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    detail: str = ""


def _check_centers(inst: MetricInstance, centers) -> Optional[VerifyReport]:
    """None when centers are exactly k distinct plain ints in 0..n-1, else the
    rejecting report (bools are not vertex indices)."""
    centers = list(centers)
    if not all(is_plain_int(c) and 0 <= c < inst.n for c in centers):
        return VerifyReport(False, f"centers out of range 0..{inst.n - 1}: {centers!r}")
    if len(centers) != inst.k or len(set(centers)) != inst.k:
        return VerifyReport(False, f"expected {inst.k} distinct centers, got {centers!r}")
    return None


def _covering(inst: MetricInstance, S, radius: Radius) -> list[list]:
    """For every vertex, the centers of S (in order) within the radius,
    found on the instance's int squares."""
    ints, bound = inst.radius_bound(radius)
    return [[c for c in S if row[c] <= bound] for row in ints]


def verify_ft(inst: MetricInstance, centers, radius: Radius) -> VerifyReport:
    """Check that every failure scenario leaves a capacity-respecting
    assignment within the radius.

    Only scenarios of size exactly alpha are tried: an assignment that avoids
    a failure set also serves every subset of it.  S survives every alpha
    failures iff cap(N(U)) - top(N(U)) >= |U| for every nonempty client set
    U, where N(U) is the centers of S within the radius of some client of U
    and top(X) the sum of the alpha largest capacities in X.

    One forced pass accepts first, in polynomial time.  For any t >= 0 and
    any X, sum over x in X of min(c_x, t) - alpha*t <= cap(X) - top(X): each
    of the alpha largest terms gives min(c, t) - t <= 0, each other term
    min(c, t) <= c, and when |X| < alpha the left side is at most
    (|X| - alpha)*t <= 0 (the LP form of the sum of the alpha largest
    values, Ogryczak and Tamir, IPL 2003).  The forced variants of the
    network with supplies min(c, t) and bound n + alpha*t are short exactly
    when some nonempty U has sum min(c_x, t) - alpha*t < |U| over N(U), so
    a pass with none short proves every scenario served.  t is the alpha-th
    largest capacity in S, the largest when alpha = 0; then equality holds
    when every positive capacity in S is equal, and the pass is exact.

    A short pass falls back to the closed variants of one
    `TransportNetwork.short` call at bound n on the same network, each
    re-augmenting only the load its failures displace; the first one short
    of n is reported with the clients of its minimal min cut and the
    capacity of the live centers on its source side.
    """
    bad = _check_centers(inst, centers)
    if bad is not None:
        return bad
    n = inst.n
    S = sorted(centers)
    network = TransportNetwork(_covering(inst, S, radius), S)
    caps = [inst.capacities[c] for c in S]
    t = sorted(caps, reverse=True)[max(inst.alpha, 1) - 1]
    capped = [min(c, t) for c in caps]
    if network.short([1] * n, capped, n + inst.alpha * t, forced=True) is None:
        return VerifyReport(True, "all scenarios served")
    scenarios = list(combinations(S, inst.alpha))
    hit = network.short([1] * n, caps, n, closed=scenarios)
    if hit is None:
        return VerifyReport(True, "all scenarios served")
    index, blocked, reach = hit
    F = scenarios[index]
    capacity = sum(inst.capacities[c] for c in reach.difference(F))
    if capacity >= len(blocked):
        raise ContractViolation("min-cut witness does not violate Hall's condition")
    return VerifyReport(
        False,
        f"failures {sorted(F)}: clients {sorted(blocked)} see "
        f"capacity {capacity} < {len(blocked)}",
    )


def verify_conservative(
    inst: MetricInstance, centers, phi0, radius: Radius
) -> VerifyReport:
    """Check the base assignment plus every scenario's local repair.

    A scenario passes when the orphans, the clients of its failed centers
    and only those, fit into the spare room of the live centers that the
    untouched clients leave.  Each center's clients, in `phi0` order, and
    one spare list indexed by vertex id are built once; a failure set F
    takes its orphans from its centers' client lists, closes its centers by
    zero room on a copy of the spare list, and runs one capacitated
    assignment on the cover lists as they are.
    """
    bad = _check_centers(inst, centers)
    if bad is not None:
        return bad
    S = sorted(centers)
    if not all(is_plain_int(u) and is_plain_int(c) for u, c in phi0.items()):
        return VerifyReport(False, "base assignment must map vertex indices to center indices")
    if set(phi0) != set(range(inst.n)):
        return VerifyReport(False, "base assignment must cover every vertex")
    served = {c: [] for c in S}
    ints, bound = inst.radius_bound(radius)
    for u, c in phi0.items():
        if c not in served:
            return VerifyReport(False, f"vertex {u} assigned to non-center {c}")
        if ints[u][c] > bound:
            return VerifyReport(False, f"vertex {u} is outside the radius of its center {c}")
        served[c].append(u)
    spare = list(inst.capacities)
    for c, clients in served.items():
        spare[c] -= len(clients)
        if spare[c] < 0:
            return VerifyReport(
                False, f"center {c} carries {len(clients)} > capacity {inst.capacities[c]}"
            )
    near = _covering(inst, S, radius)
    for F in combinations(S, inst.alpha):
        moved = sorted(u for c in F for u in served[c])
        if not moved:
            continue
        room = spare[:]
        for c in F:
            room[c] = 0
        phi, witness = capacitated_assignment(moved, near, room)
        if phi is None:
            return VerifyReport(
                False,
                f"failures {sorted(F)}: orphans {sorted(witness.clients)} see spare "
                f"capacity {witness.capacity} < {witness.demand}",
            )
    return VerifyReport(True, "base assignment and all repairs served")
