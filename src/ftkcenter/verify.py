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
    a failure set also serves every subset of it.  The scenarios are the
    closed variants of one `TransportNetwork.short` call at bound n, each
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
    scenarios = list(combinations(S, inst.alpha))
    hit = network.short([1] * n, [inst.capacities[c] for c in S], n, closed=scenarios)
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

    A scenario passes when the orphaned clients (and only those) can be
    rerouted to surviving centers whose spare capacity, after the untouched
    clients keep their seats, suffices.
    """
    bad = _check_centers(inst, centers)
    if bad is not None:
        return bad
    S = sorted(centers)
    if not all(is_plain_int(u) and is_plain_int(c) for u, c in phi0.items()):
        return VerifyReport(False, "base assignment must map vertex indices to center indices")
    if set(phi0) != set(range(inst.n)):
        return VerifyReport(False, "base assignment must cover every vertex")
    load = {c: 0 for c in S}
    ints, bound = inst.radius_bound(radius)
    for u, c in phi0.items():
        if c not in load:
            return VerifyReport(False, f"vertex {u} assigned to non-center {c}")
        if ints[u][c] > bound:
            return VerifyReport(False, f"vertex {u} is outside the radius of its center {c}")
        load[c] += 1
    for c, l in load.items():
        if l > inst.capacities[c]:
            return VerifyReport(False, f"center {c} carries {l} > capacity {inst.capacities[c]}")
    near = _covering(inst, S, radius)
    for F in combinations(S, inst.alpha):
        moved = sorted(u for u in range(inst.n) if phi0[u] in F)
        if not moved:
            continue
        live = [c for c in S if c not in F]
        spare = {c: inst.capacities[c] - load[c] for c in live}
        allowed = {u: [c for c in near[u] if c not in F] for u in moved}
        phi, witness = capacitated_assignment(moved, live, allowed, spare)
        if phi is None:
            return VerifyReport(
                False,
                f"failures {sorted(F)}: orphans {sorted(witness.clients)} see spare "
                f"capacity {witness.capacity} < {witness.demand}",
            )
    return VerifyReport(True, "base assignment and all repairs served")
