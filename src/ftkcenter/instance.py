"""Problem instances, exact rational metrics, and threshold graphs.

Distances are kept as exact squared values so that every comparison made
anywhere in the package is exact.  Parsing scales the input to ints by the
lcm of its denominators: 2-D rational points become int points whose
squared distances are ints over the scale squared, and a distance matrix
becomes an int matrix that is squared on load.  Each instance keeps that
int matrix of squares; validation, the triangle check and the threshold
ranking run on it, and `d2` and the thresholds hold one interned
`Fraction` per distinct square.  Nothing downstream ever takes a square
root.

The sweep compares each distance once per instance: the first threshold
graph ranks the vertex pairs by squared distance, and every threshold graph
is the prefix of that ranking up to its threshold, grown from the last
prefix built.  A threshold graph is addressed by its index in the ranking
(`threshold_graph_at`), which is what the sweep walks; `threshold_graph`
finds the index of a given tau2 by one bisection and wraps it.  The same
ranking is walked once by a union-find, so each threshold graph knows its
component count without a search, and the counts and the ranked int
squares give the sweep its certified start without building a graph
(`component_counts`, `reach_index`, `two_hop_index`).  A graph is its int
adjacency bitmasks alone: closed neighborhoods, hop rows, balls and
components are read off them by bitset frontier expansion.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from typing import Iterable, Sequence


class InstanceError(ValueError):
    """Malformed instance data or an operation precondition violated by input."""


class SizeLimitError(RuntimeError):
    """An exact oracle was asked to run above its configured size cap."""


class ContractViolation(RuntimeError):
    """An internal guarantee failed; indicates a bug, not bad input."""


VARIANTS = ("ft", "conservative")


def is_plain_int(x) -> bool:
    """An int and not a bool: true and false are not counts or vertex indices."""
    return type(x) is int


def vertex_set(F) -> frozenset:
    """F as a frozenset, checked to hold only plain int vertex indices: True
    equals 1, so a bool would otherwise fail center 1."""
    F = tuple(F)
    if not all(map(is_plain_int, F)):
        raise InstanceError("failures must be integer vertex indices")
    return frozenset(F)


def failure_set(F, alpha: int, centers) -> frozenset:
    """F as a frozenset, checked to fail at most alpha of `centers`."""
    F = vertex_set(F)
    if len(F) > alpha:
        raise InstanceError("too many failures")
    if not F.issubset(centers):
        raise InstanceError("failures must be centers")
    return F


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if is_plain_int(x):
        return Fraction(x)
    raise InstanceError(f"expected an exact number, got {type(x).__name__}")


def _decimal_scaled(x: Fraction):
    """(x * 10**shift, shift) for the least shift that makes it an int, or
    None when x has no exact decimal form."""
    den = x.denominator
    twos = (den & -den).bit_length() - 1
    den >>= twos
    # den must now be 5**fives, and 5**fives has bit length b with
    # fives * log2(5) >= b - 1: start from that bound, not from 5**0
    fives = int((den.bit_length() - 1) / math.log2(5))
    power = 5**fives
    while power < den:
        power *= 5
        fives += 1
    if power != den:
        return None
    shift = max(twos, fives)
    return x.numerator * 10**shift // x.denominator, shift


def decimal_str(x: Fraction) -> str:
    """Exact decimal rendering of a rational with terminating expansion.

    Raises InstanceError for non-terminating rationals; values parsed from
    JSON numbers always terminate.
    """
    found = _decimal_scaled(x)
    if found is None:
        raise InstanceError(f"{x} has no exact decimal form")
    scaled, shift = found
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if x < 0 else ""
    if shift == 0:
        return sign + digits
    head, tail = digits[:-shift], digits[-shift:]
    tail = tail.rstrip("0")
    return sign + head + ("." + tail if tail else "")


@dataclass(frozen=True)
class Radius:
    """An exact length of the form mult * sqrt(base2).

    Sweep radii are integer stretch factors times a threshold tau = sqrt(tau2),
    which is irrational for general point instances.  Comparisons against
    squared distances stay exact.
    """

    mult: int
    base2: Fraction

    @classmethod
    def exact(cls, value: Fraction) -> "Radius":
        value = _to_fraction(value)
        if value < 0:
            raise InstanceError("radius must be non-negative")
        return cls(1, value * value)

    def value_sq(self) -> Fraction:
        return self.mult * self.mult * self.base2

    def covers(self, d2: Fraction) -> bool:
        return d2 <= self.value_sq()

    def __le__(self, other: "Radius") -> bool:
        return self.value_sq() <= other.value_sq()

    def display(self) -> str:
        """Exact decimal string when the value is rational, float repr
        otherwise.  An irrational value outside the range of normal floats
        gets 17 significant digits by integer square roots instead: the
        float would overflow, or print 0.0 or a subnormal's few digits."""
        sq = self.value_sq()
        p, q = sq.numerator, sq.denominator
        rp, rq = math.isqrt(p), math.isqrt(q)
        if rp * rp == p and rq * rq == q:
            try:
                return decimal_str(Fraction(rp, rq))
            except InstanceError:
                return f"{rp}/{rq}"
        try:
            value = self.mult * math.sqrt(self.base2)
        except OverflowError:
            value = math.inf
        if value < math.inf and self.base2 >= sys.float_info.min:
            return repr(value)
        return _sqrt_scientific(p, q)


def _sqrt_scientific(p: int, q: int) -> str:
    """sqrt(p/q) > 0 in scientific notation, truncated to 17 significant
    digits: m = floor(sqrt(p/q) * 10**(16 - e)) by one integer square root,
    with the exponent e (first estimated from the bit lengths) moved until
    m has exactly 17 digits."""
    e = (p.bit_length() - q.bit_length()) * 3 // 20  # about log10(sqrt(p/q))
    while True:
        shift = 2 * (16 - e)
        if shift >= 0:
            m = math.isqrt(p * 10**shift // q)
        else:
            m = math.isqrt(p // (q * 10**-shift))
        if m < 10**16:
            e -= 1
        elif m >= 10**17:
            e += 1
        else:
            break
    digits = str(m)
    rest = digits[1:].rstrip("0")
    return f"{digits[0]}.{rest}e{e:+d}" if rest else f"{digits[0]}e{e:+d}"


def _expand(masks: Sequence[int], frontier: int) -> int:
    """Union of the adjacency masks of the vertices in `frontier`."""
    reach = 0
    while frontier:
        low = frontier & -frontier
        reach |= masks[low.bit_length() - 1]
        frontier ^= low
    return reach


def mask_bits(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class ThresholdGraph:
    """Immutable unweighted graph on vertices 0..n-1.

    Built by thresholding a metric (edge iff distance <= tau, u != v) but also
    used for derived graphs (strips, induced subgraphs, trees over augmented
    vertex sets).  Adjacency is held only as int bitmasks: bit w of
    `masks[u]` is set iff uw is an edge.  Closed neighborhoods, balls and
    components are read off the masks by bitset frontier expansion, and
    every package caller reads hop reach from `balls`.  The components are
    computed lazily and cached.  `hops()`, the all-pairs hop matrix, has no
    package caller: it is the tests' reference and the benchmark probe's
    target.  A threshold graph also carries its component count from the
    instance's ranking.
    """

    __slots__ = ("n", "tau2", "masks", "_hops", "_components", "_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], tau2: Fraction | None = None):
        if n < 0:
            raise InstanceError("vertex count must be non-negative")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InstanceError(f"self-loop at {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.tau2 = tau2
        self.masks = tuple(masks)
        self._hops = None
        self._components = None
        self._count = None

    @classmethod
    def from_masks(cls, masks: Sequence[int], tau2: Fraction | None) -> "ThresholdGraph":
        """Graph with adjacency `masks` as given: symmetric, no self bits."""
        graph = cls(len(masks), (), tau2)
        graph.masks = tuple(masks)
        return graph

    def closed(self, v: int) -> list[int]:
        """v and its neighbors, ascending."""
        return mask_bits(self.masks[v] | 1 << v)

    def hops(self):
        """All-pairs hop distance matrix (list of lists; math.inf if
        unreachable), cached.  No package caller: the tests' reference for
        the ball masks, and the target of the benchmark's `instance.hops`
        probe."""
        if self._hops is None:
            n, masks = self.n, self.masks
            mat = []
            for s in range(n):
                row = [math.inf] * n
                row[s] = 0
                seen = frontier = 1 << s
                d = 0
                while frontier:
                    d += 1
                    frontier = _expand(masks, frontier) & ~seen
                    seen |= frontier
                    for w in mask_bits(frontier):
                        row[w] = d
                mat.append(row)
            self._hops = mat
        return self._hops

    def balls(self, s: int, radius: int) -> list[int]:
        """Closed balls around s as bitmasks: entry r holds every vertex
        within r hops of s, for r = 0..radius."""
        seen = frontier = 1 << s
        out = [seen]
        for _ in range(radius):
            frontier = _expand(self.masks, frontier) & ~seen
            seen |= frontier
            out.append(seen)
        return out

    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        if self._components is None:
            masks = self.masks
            left = (1 << self.n) - 1
            comps = []
            while left:
                seen = frontier = left & -left
                while frontier:
                    frontier = _expand(masks, frontier) & ~seen
                    seen |= frontier
                comps.append(tuple(mask_bits(seen)))
                left &= ~seen
            self._components = tuple(comps)
        return self._components

    def component_count(self) -> int:
        """The number of connected components: read off the instance's
        ranking for a graph from `MetricInstance.threshold_graph_at`, else
        counted by `components()`."""
        if self._count is None:
            self._count = len(self.components())
        return self._count

    def induced(self, vertices: Sequence[int]) -> tuple["ThresholdGraph", tuple[int, ...]]:
        """Induced subgraph with vertices relabeled 0..m-1; returns (graph, orig_ids)."""
        orig = tuple(sorted(set(vertices)))
        pos = {v: i for i, v in enumerate(orig)}
        keep = sum(1 << v for v in orig)
        masks = [sum(1 << pos[w] for w in mask_bits(self.masks[v] & keep)) for v in orig]
        return ThresholdGraph.from_masks(masks, self.tau2), orig

    def __repr__(self):
        m = sum(mask.bit_count() for mask in self.masks) // 2
        return f"ThresholdGraph(n={self.n}, m={m}, tau2={self.tau2})"


def strip_zero_zero_edges(graph: ThresholdGraph, capacities: Sequence[int]) -> ThresholdGraph:
    """Drop every edge whose two endpoints both have capacity zero.

    Used by the uniform-capacity pipelines: no assignment ever crosses such an
    edge (a serving center has positive capacity), so distance-1 feasibility is
    unchanged while hop distances can only grow.
    """
    if len(capacities) != graph.n:
        raise InstanceError("capacity vector length mismatch")
    positive = sum(1 << v for v, c in enumerate(capacities) if c > 0)
    masks = [m if capacities[v] > 0 else m & positive for v, m in enumerate(graph.masks)]
    return ThresholdGraph.from_masks(masks, graph.tau2)


def uniform_capacity_level(capacities: Sequence[int]) -> int:
    """The L of a {0,L} capacity vector; raises InstanceError otherwise."""
    levels = sorted({c for c in capacities if c != 0})
    if len(levels) > 1:
        raise InstanceError(f"capacities are not of {{0,L}} form: levels {levels}")
    return levels[0] if levels else 0


def _point(p) -> tuple[Fraction, Fraction]:
    if not isinstance(p, (list, tuple)) or len(p) != 2:
        raise InstanceError("each point must be an [x, y] pair")
    return _to_fraction(p[0]), _to_fraction(p[1])


def _validate_square(rows, n, what):
    if len(rows) != n:
        raise InstanceError(f"{what} must have {n} rows")
    for r in rows:
        if len(r) != n:
            raise InstanceError(f"{what} must be {n}x{n}")


def _scaled(values) -> tuple[list[int], int]:
    """The rationals `values` as ints over one scale, the lcm of their
    denominators: (ints, scale)."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _validate_parameters(name, n, k, alpha, variant, capacities):
    if not isinstance(name, str):
        raise InstanceError("name must be a string")
    if variant not in VARIANTS:
        raise InstanceError(f"variant must be one of {VARIANTS}")
    if n < 1:
        raise InstanceError("need at least one vertex")
    if not (is_plain_int(k) and is_plain_int(alpha)):
        raise InstanceError("k and alpha must be integers")
    if not 1 <= k <= n:
        raise InstanceError(f"k={k} out of range 1..{n}")
    if not 0 <= alpha < k:
        raise InstanceError(f"alpha={alpha} must satisfy 0 <= alpha < k")
    if len(capacities) != n:
        raise InstanceError("capacities length mismatch")
    for c in capacities:
        if not is_plain_int(c) or c < 0:
            raise InstanceError("capacities must be non-negative integers")


def _check_printable(ints, fracs, scale) -> None:
    """InstanceError naming the first pair whose squared distance, the
    Fraction fracs[ints[i][j]], has more than MAX_SQUARE_DIGITS digits
    before its decimal point is placed.

    `ftkc solve` prints such a square and the square of a radius bound, a
    stretch times it, with `decimal_str`, which cannot print an int of more
    than MAX_DECIMAL_EXPONENT digits; half that for the square leaves the
    stretch ample room.  The form of m / scale has at most
    digits(m) + bit_length(scale) digits, so the exact check runs only when
    the largest square (the largest key of `fracs`) and the scale reach that
    bound.  A value without an
    exact decimal form is left to `decimal_str`, which rejects it when it is
    printed.
    """
    top = max(fracs)
    if top.bit_length() * 0.302 + 1 + scale.bit_length() <= MAX_SQUARE_DIGITS:
        return  # 0.302 > log10(2)
    limit = 10**MAX_SQUARE_DIGITS
    long = set()
    for x, value in fracs.items():
        found = _decimal_scaled(value)
        if found is not None and abs(found[0]) >= limit:
            long.add(x)
    if long:
        i, j = next((i, j) for i, row in enumerate(ints) for j, x in enumerate(row) if x in long)
        raise InstanceError(
            f"squared distance between vertices {i} and {j} has more than "
            f"{MAX_SQUARE_DIGITS} digits"
        )


def _triangle_sq_ok(a2: int, b2: int, c2: int) -> bool:
    # sqrt(a2) <= sqrt(b2) + sqrt(c2), decided without square roots
    diff = a2 - b2 - c2
    return diff <= 0 or diff * diff <= 4 * b2 * c2


def _triangle_failure(d2) -> tuple[int, int, int] | None:
    """The lexicographically smallest (i, j, m), i < j, with d(i,j) > d(i,m)
    + d(m,j), or None for a metric.

    `d2` is the instance's int matrix of scaled squares.  Only the longest
    side of a triangle can exceed the sum of the other two, so each
    unordered triple a < b < c is checked once, on its longest side.
    """
    n = len(d2)
    bad = None
    for a in range(n):
        row_a = d2[a]
        for b in range(a + 1, n):
            ab, row_b = row_a[b], d2[b]
            for c in range(b + 1, n):
                ac, bc = row_a[c], row_b[c]
                if ab >= ac and ab >= bc:
                    fail = (a, b, c) if not _triangle_sq_ok(ab, ac, bc) else None
                elif ac >= bc:
                    fail = (a, c, b) if not _triangle_sq_ok(ac, ab, bc) else None
                else:
                    fail = (b, c, a) if not _triangle_sq_ok(bc, ab, ac) else None
                if fail and (bad is None or fail < bad):
                    bad = fail
    return bad


def _component_counts(n: int, buckets) -> array:
    """Entry i: the connected components of the graph on vertices 0..n-1
    whose edges are the pair ids u*n + v of buckets 0..i.  One union-find
    (path halving, no ranks) takes the buckets in order; once a single
    component is left, every later entry is 1."""
    parent = list(range(n))
    count = n
    counts = array("L")
    for bucket in buckets:
        if count == 1:
            break
        for p in bucket:
            u, v = divmod(p, n)
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                count -= 1
        counts.append(count)
    counts.extend([1] * (len(buckets) - len(counts)))
    return counts


@dataclass(frozen=True)
class MetricInstance:
    """A capacitated fault-tolerant k-center instance.

    `d2` holds exact squared distances.  Exactly one of `points` / `dist`
    reflects how the instance was specified and drives serialization.
    """

    name: str
    n: int
    k: int
    alpha: int
    variant: str
    capacities: tuple[int, ...]
    d2: tuple[tuple[Fraction, ...], ...]
    points: tuple[tuple[Fraction, Fraction], ...] | None = None
    dist: tuple[tuple[Fraction, ...], ...] | None = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_points(cls, points, k, alpha, capacities, variant="ft", name="instance"):
        pts = tuple(map(_point, points))
        flat, scale = _scaled([c for p in pts for c in p])
        xy = tuple(zip(flat[::2], flat[1::2]))
        # each pair once: row i is its pairs j < i, 0, then the pairs j > i
        # read off the later rows, which share the int objects
        sq = [[(x - u) ** 2 + (y - v) ** 2 for u, v in xy[:i]] for i, (x, y) in enumerate(xy)]
        for i, row in enumerate(sq):
            row.append(0)
            row.extend([sq[j][i] for j in range(i + 1, len(sq))])
        return cls._from_ints(sq, scale * scale, False, name, k, alpha, variant, capacities, points=pts)

    @classmethod
    def from_matrix(cls, dist, k, alpha, capacities, variant="ft", name="instance"):
        if not isinstance(dist, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in dist):
            raise InstanceError("dist must be a list of rows")
        rows = tuple(tuple(_to_fraction(x) for x in row) for row in dist)
        n = len(rows)
        _validate_square(rows, n, "dist")
        flat, scale = _scaled([x for row in rows for x in row])
        ints = [flat[i * n : (i + 1) * n] for i in range(n)]
        return cls._from_ints(ints, scale, True, name, k, alpha, variant, capacities, dist=rows)

    @classmethod
    def _from_ints(cls, ints, scale, lengths, name, k, alpha, variant, capacities, **given):
        """The instance on the n x n int matrix `ints` over `scale`: its
        entries are the distances when `lengths` (a `dist` matrix, whose
        triangle inequality is checked), else the squared distances
        (Euclidean points, a metric by construction).

        The entry checks run on `ints`.  The int matrix of squares is kept
        with the `Fraction` of each distinct square, and `d2` holds those
        interned `Fraction`s; the scale of the squares is kept beside them.
        """
        capacities = tuple(capacities)
        n = len(ints)
        _validate_parameters(name, n, k, alpha, variant, capacities)
        for i, (row, col) in enumerate(zip(ints, zip(*ints))):
            if row[i]:
                raise InstanceError(f"nonzero self-distance at {i}")
            if min(row) < 0 or tuple(row) != col:
                j = next(j for j, x in enumerate(row) if x < 0 or x != col[j])
                if row[j] < 0:
                    raise InstanceError("negative distance")
                raise InstanceError(f"asymmetric distances at ({i},{j})")
        if lengths:
            ints = [[x * x for x in row] for row in ints]
            scale *= scale
        fracs = {x: Fraction(x, scale) for x in set().union(*ints)}
        _check_printable(ints, fracs, scale)
        d2 = tuple(tuple(map(fracs.__getitem__, row)) for row in ints)
        inst = cls(name, n, k, alpha, variant, capacities, d2, **given)
        object.__setattr__(inst, "_ints", (ints, fracs))
        object.__setattr__(inst, "_scale", scale)
        if lengths:
            bad = _triangle_failure(ints)
            if bad:
                i, j, m = bad
                raise InstanceError(f"triangle inequality fails on ({i},{j}) via {m}")
        return inst

    # -- thresholds ------------------------------------------------------

    def _ranking(self):
        """(thresholds, pairs, prefix, counts, rank), computed on first use
        and kept.

        The distinct int squares are sorted and ranked: `rank` maps each to
        its index, and `thresholds` holds the interned `Fraction` of each,
        the sorted distinct squared distances, 0 among them.  `pairs` holds
        every pair u < v as the id u*n + v, ranked by squared distance, ties
        by id.  `prefix[i]` counts the pairs within `thresholds[i]`, and
        `counts[i]` the connected components of the graph they form.  The
        counts come from one union-find pass over the ranked pairs that
        stops once everything is connected.
        """
        ranking = self.__dict__.get("_ranked")
        if ranking is None:
            n = self.n
            ints, fracs = self.__dict__["_ints"]
            keys = sorted(fracs)
            rank = {x: i for i, x in enumerate(keys)}
            buckets = [[] for _ in keys]
            for u in range(n):
                row = ints[u]
                for v in range(u + 1, n):
                    buckets[rank[row[v]]].append(u * n + v)
            thresholds = tuple(map(fracs.__getitem__, keys))
            pairs = array("H" if n <= 256 else "L", chain.from_iterable(buckets))
            prefix = array("L", accumulate(map(len, buckets)))
            ranking = (thresholds, pairs, prefix, _component_counts(n, buckets), rank)
            object.__setattr__(self, "_ranked", ranking)
        return ranking

    def thresholds_sq(self) -> tuple[Fraction, ...]:
        """Sorted distinct squared distances, always including 0."""
        return self._ranking()[0]

    def component_counts(self) -> array:
        """Entry i: the number of connected components of
        `threshold_graph_at(i)`; it does not increase with i."""
        return self._ranking()[3]

    def reach_index(self, targets: Sequence[int], m: int) -> int:
        """The first threshold index whose graph gives every vertex at least
        m >= 1 of `targets` in its closed neighborhood, or the number of
        thresholds when there are fewer than m targets.

        A vertex has m targets within the m-th smallest of its int squares
        to them, itself at 0 if it is one.  The largest of those over the
        vertices is looked up in the ranking's int keys, so no `Fraction` is
        compared.
        """
        rank = self._ranking()[4]
        if len(targets) < m:
            return len(rank)
        ints, _ = self.__dict__["_ints"]
        return rank[max(sorted(row[w] for w in targets)[m - 1] for row in ints)]

    def radius_bound(self, radius: Radius) -> tuple[list[list[int]], int]:
        """The int matrix of squares and its bound for `radius`: (ints,
        bound), where d(u, v) is within the radius iff ints[u][v] <= bound.

        The square of d(u, v) is ints[u][v] / scale and the radius's square
        is p / q, so d(u, v) is within the radius iff ints[u][v] <= p * scale
        / q, which for an int is iff ints[u][v] <= floor(p * scale / q); no
        `Fraction` is compared.
        """
        ints, _ = self.__dict__["_ints"]
        sq = radius.value_sq()
        return ints, sq.numerator * self.__dict__["_scale"] // sq.denominator

    def two_hop_index(self, s: int) -> int:
        """The first threshold index whose graph puts every vertex within
        two hops of s.

        v is within two hops of s at tau2 iff some m has both d2(s, m) and
        d2(m, v) at most tau2; m = s and m = v stand for the direct pair.
        The largest over v of the least such bound is looked up in the
        ranking's int keys, so no `Fraction` is compared.
        """
        rank = self._ranking()[4]
        ints, _ = self.__dict__["_ints"]
        row = ints[s]
        return rank[max(min(map(max, row, col)) for col in ints)]

    def threshold_graph_at(self, i: int) -> ThresholdGraph:
        """The threshold graph of `thresholds_sq()[i]`: the ranked pairs up
        to `prefix[i]`, with `counts[i]` components.

        The masks of the last prefix built are kept, so a sweep adds each
        ranked pair once; a shorter prefix is grown again from no edges.
        """
        thresholds, pairs, prefix, counts, _ = self._ranking()
        end = prefix[i]
        n = self.n
        start, masks = self.__dict__.get("_grown", (0, None))
        if masks is None or end < start:
            start, masks = 0, [0] * n
        for p in pairs[start:end]:
            u, v = divmod(p, n)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "_grown", (end, masks))
        graph = ThresholdGraph.from_masks(masks, thresholds[i])
        graph._count = counts[i]
        return graph

    def threshold_graph(self, tau2: Fraction) -> ThresholdGraph:
        """Unweighted graph with an edge iff the squared distance is <= tau2:
        `threshold_graph_at` the last threshold not above tau2, found by one
        bisection, and carrying tau2 as given.  Below 0 it has no edges."""
        tau2 = _to_fraction(tau2)
        i = bisect_right(self.thresholds_sq(), tau2) - 1
        if i < 0:
            return ThresholdGraph(self.n, (), tau2)
        graph = self.threshold_graph_at(i)
        graph.tau2 = tau2
        return graph

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "alpha": self.alpha,
            "variant": self.variant,
            "capacities": list(self.capacities),
        }
        if self.points is not None:
            out["points"] = [list(p) for p in self.points]
        else:
            out["dist"] = [list(r) for r in self.dist]
        return out

    def to_json(self) -> str:
        return canonical_json(self.to_payload())

    @classmethod
    def from_payload(cls, data) -> "MetricInstance":
        if not isinstance(data, dict):
            raise InstanceError("instance JSON must be an object")
        keys = set(data)
        required = {"name", "n", "k", "alpha", "variant", "capacities"}
        missing = required - keys
        if missing:
            raise InstanceError(f"missing keys: {sorted(missing)}")
        has_dist = "dist" in keys
        has_points = "points" in keys
        if has_dist == has_points:
            raise InstanceError("exactly one of 'dist' or 'points' is required")
        extra = keys - required - {"dist", "points"}
        if extra:
            raise InstanceError(f"unknown keys: {sorted(extra)}")
        n = data["n"]
        if not is_plain_int(n):
            raise InstanceError("n must be an integer")
        caps = data["capacities"]
        if not isinstance(caps, list):
            raise InstanceError("capacities must be a list")
        common = dict(
            k=data["k"],
            alpha=data["alpha"],
            capacities=caps,
            variant=data["variant"],
            name=data["name"],
        )
        if has_points:
            pts = data["points"]
            if not isinstance(pts, list) or len(pts) != n:
                raise InstanceError("points must be a list of n pairs")
            inst = cls.from_points(pts, **common)
        else:
            inst = cls.from_matrix(data["dist"], **common)
        if inst.n != n:
            raise InstanceError("n does not match data size")
        return inst

    @classmethod
    def from_json(cls, text: str) -> "MetricInstance":
        return cls.from_payload(parse_exact_json(text))


# the interpreter's default limit on the digits of an int read from or
# written to a string: `canonical_json` cannot print a number past it
MAX_DECIMAL_EXPONENT = 4300
# the most digits a squared distance may have (see `_check_printable`)
MAX_SQUARE_DIGITS = MAX_DECIMAL_EXPONENT // 2


def exact_decimal(text: str) -> Fraction:
    """`text` as an exact Fraction, for JSON floats and `ftkc verify --radius`.

    Fraction builds 10**e in full, which takes minutes for an exponent near
    a billion, so an exponent beyond MAX_DECIMAL_EXPONENT in magnitude is
    an InstanceError first, as is a number of more digits than that, which
    the interpreter refuses to read.  Other bad text raises what Fraction
    raises.
    """
    mantissa, e, exponent = text.upper().partition("E")
    if sum(map(str.isdigit, mantissa)) > MAX_DECIMAL_EXPONENT:
        raise InstanceError(f"number of more than {MAX_DECIMAL_EXPONENT} digits: {text[:40]!r}")
    if e and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
        raise InstanceError(
            f"decimal exponent beyond {MAX_DECIMAL_EXPONENT} in magnitude: {text[:40]!r}"
        )
    return Fraction(text)


def parse_exact_json(text: str):
    """json.loads with floats parsed as exact Fractions (no binary rounding),
    and a number of more than MAX_DECIMAL_EXPONENT digits an InstanceError."""

    def exact_int(text):  # a long one goes through exact_decimal's digit check
        return int(text) if len(text) <= MAX_DECIMAL_EXPONENT else int(exact_decimal(text))

    def bad_constant(name):
        raise InstanceError(f"non-finite number {name!r} not allowed")

    try:
        return json.loads(text, parse_float=exact_decimal, parse_int=exact_int,
                          parse_constant=bad_constant)
    except InstanceError:
        raise
    except ValueError as exc:  # malformed JSON
        raise InstanceError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise InstanceError("invalid JSON: nested too deeply") from None


def _render_json(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f'{inner}{json.dumps(key)}: {_render_json(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_render_json(x, indent + 1) for x in obj]
        flat = "[" + ", ".join(items) + "]"
        if len(flat) + len(pad) <= 100 and "\n" not in flat:
            return flat
        return "[\n" + ",\n".join(inner + x for x in items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return decimal_str(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InstanceError(f"cannot serialize {type(obj).__name__}")


def canonical_json(payload) -> str:
    """Two-space indented JSON with exact decimal numbers and a trailing newline.

    Key order is whatever the payload dict carries; builders emit the fixed
    canonical order, so serialize(parse(x)) is a canonical form of x.
    """
    return _render_json(payload, 0) + "\n"


def load_instance(path) -> MetricInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return MetricInstance.from_json(fh.read())


def save_instance(inst: MetricInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_json())
