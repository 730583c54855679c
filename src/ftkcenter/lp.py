"""Exact rational LP feasibility and the cutting-plane separation oracles.

Phase-1 simplex with Bland's rule over Fractions: no floats, no cycling.
The two separators turn the exponential Hall-style constraint families into
polynomially many min-cut computations; generated rows live for one
threshold's solve and are discarded afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .clustering import Clustering, DirectedGraph
from .flow import INF, transport
from .instance import (
    ContractViolation,
    InstanceError,
    ThresholdGraph,
    uniform_capacity_level,
)

ZERO = Fraction(0)
ONE = Fraction(1)

_RELS = ("<=", ">=", "==")


@dataclass(frozen=True)
class Row:
    coeffs: tuple  # sorted ((var, coef), ...) pairs, coefs nonzero
    rel: str
    rhs: Fraction

    @classmethod
    def make(cls, coeffs: Mapping[int, object], rel: str, rhs) -> "Row":
        if rel not in _RELS:
            raise InstanceError(f"bad relation {rel!r}")
        items = tuple(
            sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0)
        )
        return cls(items, rel, Fraction(rhs))


@dataclass
class LinearProgram:
    """Feasibility system over variables y_0..y_{n-1} >= 0."""

    num_vars: int
    rows: list = field(default_factory=list)

    def add(self, coeffs, rel, rhs):
        self.rows.append(Row.make(coeffs, rel, rhs))


def feasible_point(lp: LinearProgram):
    """A feasible assignment (dict var -> Fraction) or None if infeasible."""
    nvars = lp.num_vars
    norm = []
    for row in lp.rows:
        dense = [ZERO] * nvars
        for v, c in row.coeffs:
            if not 0 <= v < nvars:
                raise InstanceError(f"variable {v} out of range")
            dense[v] += c
        rhs, rel = row.rhs, row.rel
        if rhs < 0:
            dense = [-c for c in dense]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        norm.append((dense, rel, rhs))

    cols = nvars
    slack_col, art_col = {}, {}
    for i, (_, rel, _) in enumerate(norm):
        if rel != "==":
            slack_col[i] = cols
            cols += 1
    for i, (_, rel, _) in enumerate(norm):
        if rel != "<=":
            art_col[i] = cols
            cols += 1

    tableau = []
    basis = []
    for i, (dense, rel, rhs) in enumerate(norm):
        row = dense + [ZERO] * (cols - nvars) + [rhs]
        if rel == "<=":
            row[slack_col[i]] = ONE
            basis.append(slack_col[i])
        elif rel == ">=":
            row[slack_col[i]] = -ONE
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        else:
            row[art_col[i]] = ONE
            basis.append(art_col[i])
        tableau.append(row)

    artificials = set(art_col.values())
    # reduced-cost row for minimizing the sum of artificials
    obj = [ZERO] * (cols + 1)
    for i, b in enumerate(basis):
        if b in artificials:
            row = tableau[i]
            for j in range(cols + 1):
                obj[j] -= row[j]
    for j in artificials:
        obj[j] += ONE

    while True:
        enter = None
        for j in range(cols):
            if obj[j] < 0:
                enter = j  # Bland: lowest index
                break
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if leave is None or ratio < leave[0] or (
                    ratio == leave[0] and basis[i] < leave[1]
                ):
                    leave = (ratio, basis[i], i)
        if leave is None:
            raise ContractViolation("phase-1 objective unbounded below")
        pi = leave[2]
        pj = enter
        prow = tableau[pi]
        p = prow[pj]
        if p != 1:
            tableau[pi] = prow = [c / p for c in prow]
        nz = [j for j, c in enumerate(prow) if c != 0]
        for row in tableau:
            if row is prow:
                continue
            f = row[pj]
            if f != 0:
                for j in nz:
                    row[j] -= f * prow[j]
        f = obj[pj]
        if f != 0:
            for j in nz:
                obj[j] -= f * prow[j]
        basis[pi] = pj

    if obj[-1] != 0:  # optimum of the artificial sum is -obj[-1] > 0
        return None
    x = {j: ZERO for j in range(nvars)}
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[i][-1]
    return x


# -- static systems ------------------------------------------------------


def lp_general_static(
    graph: ThresholdGraph,
    k: int,
    capacities: Sequence[int],
    clustering: Clustering,
    backup_set,
) -> LinearProgram:
    """Static rows of the clustered LP: total mass k, backups pinned open,
    one fractional center in each head's neighborhood outside the backups,
    and y <= 1."""
    n = graph.n
    lp = LinearProgram(n)
    lp.add({u: 1 for u in range(n)}, "==", k)
    for u in sorted(backup_set):
        lp.add({u: 1}, "==", 1)
    for h in clustering.heads:
        cov = {u: 1 for u in (graph.adj[h] | {h}) if u not in backup_set}
        lp.add(cov, ">=", 1)
    for u in range(n):
        lp.add({u: 1}, "<=", 1)
    return lp


def lp_uniform_static(graph: ThresholdGraph, k: int, capacities: Sequence[int]) -> LinearProgram:
    """Static rows of the uniform-capacity LP: total mass k, every vertex
    covered by positive-capacity mass in its closed neighborhood, y <= 1."""
    uniform_capacity_level(capacities)  # validates {0,L}
    n = graph.n
    lp = LinearProgram(n)
    lp.add({u: 1 for u in range(n)}, "==", k)
    for v in range(n):
        cov = {u: 1 for u in (graph.adj[v] | {v}) if capacities[u] > 0}
        lp.add(cov, ">=", 1)
    for u in range(n):
        lp.add({u: 1}, "<=", 1)
    return lp


# -- separation ----------------------------------------------------------


@dataclass
class Separation:
    """Outcome of one separation pass.

    `value` is the minimum of (reachable capacity - demand) over the
    quantified family; the candidate point is violated iff value < threshold.
    """

    value: Fraction
    threshold: Fraction
    witness_U: tuple[int, ...] | None
    witness_F: tuple[int, ...] | None
    row: Row | None

    @property
    def violated(self) -> bool:
        return self.value < self.threshold


def separate_general(
    y: Mapping[int, Fraction],
    graph: ThresholdGraph,
    gprime: DirectedGraph,
    backup_set,
    alpha: int,
    capacities: Sequence[int],
) -> Separation:
    """Min-cut separation for the Hall rows over (U, F): one cut per failure
    scenario F (alpha backups).  Returns the global minimum value and the
    lowest-indexed violated witness."""
    n = graph.n
    B = sorted(backup_set)
    demand = dict.fromkeys(range(n), 1)
    best = None
    witness = None
    for F in combinations(B, alpha):
        Fset = frozenset(F)
        allowed = {v: [u for u in gprime.closed_out(v) if u not in Fset] for v in range(n)}
        supply = {u: y[u] * capacities[u] for u in range(n) if u not in Fset}
        value, _, blocked = transport(demand, allowed, supply)
        val = value - n
        if best is None or val < best:
            best = val
        if val < 0 and witness is None:
            witness = (tuple(sorted(blocked)), F)
    if best is None:  # no scenario to separate over
        return Separation(ZERO, ZERO, None, None, None)
    row = None
    U = F = None
    if witness is not None:
        U, F = witness
        reach = gprime.closed_out(U) - set(F)
        row = Row.make({u: capacities[u] for u in reach}, ">=", len(U))
    return Separation(best, ZERO, U, F, row)


def separate_uniform(
    y: Mapping[int, Fraction],
    graph: ThresholdGraph,
    capacities: Sequence[int],
    alpha: int,
) -> Separation:
    """Min-cut separation for the uniform-capacity Hall rows over nonempty U.

    A single cut cannot rule out the empty set, so one cut is run per forced
    vertex (an infinite source arc pins it inside U); the minimum over all n
    cuts is the true minimum over nonempty U.
    """
    n = graph.n
    L = uniform_capacity_level(capacities)
    threshold = Fraction(alpha * L)
    allowed = {
        v: [u for u in (graph.adj[v] | {v}) if capacities[u] > 0] for v in range(n)
    }
    supply = {u: y[u] * L for u in range(n) if capacities[u] > 0}
    best = None
    witness = None
    for w in range(n):
        demand = {v: INF if v == w else 1 for v in range(n)}
        value, _, blocked = transport(demand, allowed, supply)
        val = value - n
        if best is None or val < best:
            best = val
        if val < threshold and witness is None:
            witness = tuple(sorted(blocked))
    row = None
    if witness is not None:
        reach = set()
        for v in witness:
            reach.update(allowed[v])
        row = Row.make(
            {u: L for u in reach}, ">=", len(witness) + alpha * L
        )
    return Separation(best, threshold, witness, None, row)


def solve_cutting_plane(
    lp: LinearProgram,
    separator: Callable[[Mapping[int, Fraction]], Separation],
    max_rounds: int = 10_000,
):
    """Iterate solve/separate until a separation-clean point or infeasibility.

    Returns (y, cuts) where y is None on infeasibility; the returned y has
    passed a full final separation pass.  Cuts are not reused across calls.
    """
    rows = list(lp.rows)
    seen = set(rows)
    cuts = []
    for _ in range(max_rounds):
        y = feasible_point(LinearProgram(lp.num_vars, rows))
        if y is None:
            return None, cuts
        sep = separator(y)
        if sep is None or not sep.violated:
            return y, cuts
        if sep.row is None:
            raise ContractViolation("violated separation without a row")
        if sep.row in seen:
            raise ContractViolation("separator returned an already-satisfied row")
        seen.add(sep.row)
        rows.append(sep.row)
        cuts.append(sep)
    raise ContractViolation("cutting plane did not converge")
