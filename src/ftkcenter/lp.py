"""Exact rational LP feasibility and the cutting-plane separation oracles.

One simplex: Lemke's dual simplex with Bland's rule on an integer-row
tableau, exact, and it cannot cycle.  Every row enters as `<=` rows (an
`==` row as its two halves), each with a new basic slack, so the start is
the slack basis at y = 0.  Every reduced cost of a feasibility LP is 0, so
every basis is dual feasible and no phase 1 is needed: the row with a
negative rhs and the lowest basic column leaves, and the lowest column with
a negative entry in it enters.  The dual ratio test always ties, so this is
Bland's rule applied to the dual; a negative-rhs row with no negative entry
proves infeasibility.

Each tableau row is a list of Python ints, a positive integer multiple of
the rational row it stands for (scaled by the lcm of its denominators when
it enters, then fraction-free: a pivot replaces a row by
p * row - f * pivot_row and divides out the gcd of its entries).  Signs do
not change under positive row scaling, so the pivots are the ones the same
dual simplex makes over Fractions; points are returned as Fractions, rhs
over the basic coefficient.

`feasible_point` solves a system once.  `solve_cutting_plane` keeps the
tableau between rounds: each cut enters the same way, reduced to basis
coordinates, and the dual simplex re-solves from the last basis.

The two separators turn the exponential Hall-style constraint families into
polynomially many min-cut computations.  Their client -> center network
does not depend on the point, so a solver builds it once per threshold
(`general_network`, `uniform_network`) and each pass is one
`TransportNetwork.cuts` call on it with that round's supplies y * capacity,
on integer residuals.  A pass solves its cuts in order and returns the
row of the first violated one, the cut the loop adds, or None; only a
clean point costs the whole family.  Generated rows live for one
threshold's solve and are discarded afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Mapping, Sequence

from .clustering import Clustering
from .flow import TransportNetwork
from .instance import (
    ContractViolation,
    InstanceError,
    ThresholdGraph,
    mask_bits,
    uniform_capacity_level,
)

ZERO = Fraction(0)

_RELS = ("<=", ">=", "==")
_LE_SIGNS = {"<=": (1,), ">=": (-1,), "==": (1, -1)}  # a row as sign * row <= ...


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
    """A feasible assignment (dict var -> Fraction) or None if infeasible:
    the vertex the dual simplex reaches from the slack basis at y = 0."""
    tab = _solve(lp)
    return None if tab is None else tab.point()


def _int_row(row: Row, nvars: int, sign: int):
    """(int coefficients, int rhs, scale > 0) of sign * row times the lcm
    `scale` of its denominators."""
    num, den = row.rhs.numerator, row.rhs.denominator
    scale = lcm(den, *(c.denominator for _, c in row.coeffs))
    coeffs = []
    for v, c in row.coeffs:
        if not 0 <= v < nvars:
            raise InstanceError(f"variable {v} out of range")
        coeffs.append((v, sign * c.numerator * (scale // c.denominator)))
    return coeffs, sign * num * (scale // den), scale


def _solve(lp: LinearProgram) -> "_Tableau | None":
    """A feasible basis of lp's rows, or None if they are infeasible."""
    tab = _Tableau(lp.num_vars, lp.num_vars, [], [])
    tab.append(lp.rows)
    return tab if tab._dual_simplex() else None


@dataclass
class _Tableau:
    """A basis of a system over nvars variables: int rows over the variables
    and one slack column per `<=` half of a row, rhs last.  basis[i] is the
    basic column of row i and its entry there is positive.  Every reduced
    cost is 0, so every basis is dual feasible; the basis is feasible once
    `_dual_simplex` has made every rhs nonnegative."""

    nvars: int
    cols: int  # columns before the rhs
    rows: list
    basis: list

    def point(self) -> dict:
        x = {j: ZERO for j in range(self.nvars)}
        for row, b in zip(self.rows, self.basis):
            if b < self.nvars:
                x[b] = Fraction(row[-1], row[b])
        return x

    def append(self, rows) -> bool:
        """Append `rows` as `<=` rows (an `==` row as its two halves), each
        with a new basic slack, reduced against every basic column where it
        has a nonzero entry; the multipliers are positive, so the slack's
        entry stays positive.  True if the current point violates one of
        them, that is, some new rhs is negative."""
        halves = [
            _int_row(row, self.nvars, s) for row in rows for s in _LE_SIGNS[row.rel]
        ]
        tableau, basis = self.rows, self.basis
        old = list(zip(tableau, basis))
        for r in tableau:
            r[-1:-1] = [0] * len(halves)
        first = self.cols  # the new slack columns are first, first + 1, ...
        self.cols += len(halves)
        violated = False
        for i, (coeffs, rhs, scale) in enumerate(halves):
            col = first + i
            new = [0] * (self.cols + 1)
            for v, c in coeffs:
                new[v] += c
            new[col] = scale
            new[-1] = rhs
            for r, b in old:
                if new[b] != 0:
                    _eliminate(new, [(j, c) for j, c in enumerate(r) if c != 0], r[b], b)
            tableau.append(new)
            basis.append(col)
            violated |= new[-1] < 0
        return violated

    def cut(self, row: Row) -> bool:
        """Append `row`, which the current point must violate, and re-solve
        by dual simplex; False if the system is now infeasible."""
        if not self.append([row]):
            raise ContractViolation("separator returned a row the current point satisfies")
        return self._dual_simplex()

    def _dual_simplex(self) -> bool:
        """Pivot until every rhs is nonnegative (True) or a negative-rhs row
        with no negative entry proves infeasibility (False)."""
        tableau, basis = self.rows, self.basis
        while True:
            pi = None
            for i, row in enumerate(tableau):
                if row[-1] < 0 and (pi is None or basis[i] < basis[pi]):
                    pi = i
            if pi is None:
                return True
            prow = tableau[pi]
            pj = next((j for j in range(self.cols) if prow[j] < 0), None)
            if pj is None:
                return False
            prow[:] = [-a for a in prow]  # a positive pivot keeps rows positive multiples
            _pivot(tableau, basis, pi, pj)


def _pivot(tableau, basis, pi, pj):
    """Make column pj basic in row pi, whose entry there must be positive."""
    prow = tableau[pi]
    p = prow[pj]  # > 0, so every row stays a positive multiple
    pivots = [(j, c) for j, c in enumerate(prow) if c != 0]
    for row in tableau:
        if row is not prow and row[pj] != 0:
            _eliminate(row, pivots, p, pj)
    basis[pi] = pj


def _eliminate(row, pivots, p, pj):
    """Replace row, in place, by p * row - row[pj] * prow divided by the gcd
    of its entries, where `pivots` lists the (column, entry) pairs of the
    nonzero entries of the pivot row prow and p = prow[pj] > 0."""
    f = row[pj]
    if p != 1:
        row[:] = [p * a for a in row]
    for j, c in pivots:
        row[j] -= f * c
    g = 0  # folded, not gcd(*row): no argument tuple per row, and it stops at 1
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                break
    if g > 1:
        row[:] = [a // g for a in row]


# -- static systems ------------------------------------------------------


def lp_general_static(
    graph: ThresholdGraph, k: int, clustering: Clustering, backup_set
) -> LinearProgram:
    """Static rows of the clustered LP: total mass k, backups pinned open,
    one fractional center in each head's neighborhood outside the backups,
    and y <= 1.

    The heads of a monarch clustering are at least three hops apart, so
    their closed neighborhoods are disjoint and the system is a count:
    `static_general_infeasible` decides it without a simplex, and this LP
    is its reference in the tests."""
    n = graph.n
    lp = LinearProgram(n)
    lp.add({u: 1 for u in range(n)}, "==", k)
    for u in sorted(backup_set):
        lp.add({u: 1}, "==", 1)
    for h in clustering.heads:
        cov = {u: 1 for u in graph.closed(h) if u not in backup_set}
        lp.add(cov, ">=", 1)
    for u in range(n):
        lp.add({u: 1}, "<=", 1)
    return lp


def static_general_infeasible(
    graph: ThresholdGraph, k: int, clustering: Clustering, backup_set
) -> str | None:
    """Why the rows of `lp_general_static` are infeasible, or None if they
    are feasible.

    The sets closed(h) minus B are pairwise disjoint (heads are at least
    three hops apart) and disjoint from the backups B, so every feasible y
    has mass at least |B| + #heads, and mass k needs k <= n.  Conversely,
    if every such set is nonempty and |B| + #heads <= k <= n, then opening
    B, one vertex of each set and any further k - |B| - #heads vertices is
    an integral feasible point.
    """
    pinned = 0
    for b in backup_set:
        pinned |= 1 << b
    masks = graph.masks
    for h in clustering.heads:
        if not (masks[h] | 1 << h) & ~pinned:
            return f"the closed neighborhood of head {h} holds only pinned backups"
    pins, heads = len(backup_set), len(clustering.heads)
    if pins + heads > k:
        return (
            f"{pins} pinned backups and one center near each of {heads} heads "
            f"exceed the budget {k}"
        )
    if k > graph.n:
        return f"budget k = {k} exceeds the {graph.n} vertices"
    return None


def lp_uniform_static(graph: ThresholdGraph, k: int, capacities: Sequence[int]) -> LinearProgram:
    """Static rows of the uniform-capacity LP: total mass k, every vertex
    covered by positive-capacity mass in its closed neighborhood, y <= 1."""
    uniform_capacity_level(capacities)  # validates {0,L}
    n = graph.n
    lp = LinearProgram(n)
    lp.add({u: 1 for u in range(n)}, "==", k)
    for v in range(n):
        cov = {u: 1 for u in graph.closed(v) if capacities[u] > 0}
        lp.add(cov, ">=", 1)
    for u in range(n):
        lp.add({u: 1}, "<=", 1)
    return lp


# -- separation ----------------------------------------------------------


def general_network(gprime: Sequence[int]) -> TransportNetwork:
    """The network of `separate_general`: every vertex is a client and a
    center, and a client may use its closed out-neighborhood in G', whose
    out-neighborhood bitmasks `gprime` holds (`clustering.build_gprime`)."""
    n = len(gprime)
    allowed = {v: mask_bits(out | 1 << v) for v, out in enumerate(gprime)}
    return TransportNetwork(range(n), allowed, range(n))


def uniform_network(graph: ThresholdGraph, capacities: Sequence[int]) -> TransportNetwork:
    """The network of `separate_uniform`: every vertex is a client, the
    positive-capacity vertices are the centers, and a client may use the
    centers of its closed neighborhood."""
    n = graph.n
    allowed = {v: [u for u in graph.closed(v) if capacities[u] > 0] for v in range(n)}
    return TransportNetwork(range(n), allowed, [u for u in range(n) if capacities[u] > 0])


def separate_general(
    y: Mapping[int, Fraction],
    network: TransportNetwork,
    backup_set,
    alpha: int,
    capacities: Sequence[int],
) -> Row | None:
    """Min-cut separation for the Hall rows over (U, F): one cut per failure
    scenario F (alpha backups), each the network of supplies y * capacity
    over G' with F closed, the closed variants of one `network.cuts` call
    on the `general_network` of G'.  Returns the row of the lowest-indexed
    violated scenario, whose cut is below n, or None if y is clean."""
    scenarios = list(combinations(sorted(backup_set), alpha))
    if not scenarios:  # no scenario to separate over
        return None
    n = len(network.clients)
    cuts = network.cuts(
        dict.fromkeys(network.clients, 1),
        {u: y[u] * capacities[u] for u in network.centers},
        closed=scenarios,
    )
    for F, (value, blocked) in zip(scenarios, cuts):
        if value < n:
            reach = set()
            for u in blocked:
                reach.update(network.allowed[u])
            reach.difference_update(F)
            return Row.make({u: capacities[u] for u in reach}, ">=", len(blocked))
    return None


def separate_uniform(
    y: Mapping[int, Fraction],
    network: TransportNetwork,
    capacities: Sequence[int],
    alpha: int,
) -> Row | None:
    """Min-cut separation for the uniform-capacity Hall rows over nonempty U,
    on the `uniform_network` of the threshold graph.

    A single cut cannot rule out the empty set, so one cut is run per forced
    vertex (an infinite source arc pins it inside U); the minimum over all n
    cuts is the true minimum over nonempty U.  The n cuts are the forced
    variants of one `network.cuts` call, each warm-started from the
    maximum flow of the unforced network.  Returns the row of the lowest
    forced vertex whose cut is below n + alpha * L, or None if y is clean.
    """
    n = len(network.clients)
    L = uniform_capacity_level(capacities)
    supply = {u: y[u] * L for u in network.centers}
    for value, blocked in network.cuts(
        dict.fromkeys(network.clients, 1), supply, forced=network.clients
    ):
        if value < n + alpha * L:
            reach = set()
            for v in blocked:
                reach.update(network.allowed[v])
            return Row.make({u: L for u in reach}, ">=", len(blocked) + alpha * L)
    return None


MAX_ROUNDS = 10_000


def solve_cutting_plane(
    lp: LinearProgram, separator: Callable[[Mapping[int, Fraction]], Row | None]
):
    """Iterate solve/separate until a separation-clean point or infeasibility.

    Returns (y, rows) where y is None on infeasibility and rows are the cuts
    added, in order; the returned y has passed a full final separation pass.
    The static rows are solved once; each cut is added to the kept tableau
    and re-solved by dual simplex.  Cuts are not reused across calls.  A
    loop that has not ended after MAX_ROUNDS separator calls breaks the
    contract.
    """
    tab = _solve(lp)
    rows = []
    for _ in range(MAX_ROUNDS):
        if tab is None:
            return None, rows
        y = tab.point()
        row = separator(y)
        if row is None:
            return y, rows
        rows.append(row)
        if not tab.cut(row):
            tab = None
    raise ContractViolation("cutting plane did not converge")
