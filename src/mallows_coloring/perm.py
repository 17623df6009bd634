"""Permutations of finite integer intervals and their combinatorics.

Conventions used throughout: a permutation sigma of the interval [a, b] maps
positions to arrival times, so sigma(i) is read as the time at which position
i arrives.  The Lehmer code counts, per position, the later positions with
smaller arrival time; the insertion code is the Lehmer code read in arrival
order and equals the distance from the right at which each arriving character
is inserted.  The constraint graph joins two positions when both arrive
before every position strictly between them; a word is buildable by sigma
exactly when it properly colors this graph.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from typing import Iterable, Literal

import numpy as np

from .words import Word, word_columns

#: Largest vertex count accepted by the exhaustive coloring counters.
BRUTE_COLORING_CAP = 10
#: Most words the batched coloring counter lays out at once; its arrays
#: grow as q^n.
BRUTE_COLORING_WORDS = 5**8

#: Largest length accepted by exhaustive permutation enumerations.
BRUTE_PERM_CAP = 8


@dataclasses.dataclass(frozen=True)
class Perm:
    """Bijection of the interval [start, start+n-1] onto itself.

    image[i] is the value at position start + i.
    """

    start: int
    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(v) for v in self.image))
        n = len(self.image)
        if sorted(self.image) != list(range(self.start, self.start + n)):
            raise ValueError("image is not a bijection of the interval onto itself")

    @classmethod
    def identity(cls, start: int, n: int) -> Perm:
        return cls(start, tuple(range(start, start + n)))

    @classmethod
    def from_one_line(cls, values: Iterable[int], start: int = 1) -> Perm:
        return cls(start, tuple(values))

    @property
    def end(self) -> int:
        return self.start + len(self.image) - 1

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __call__(self, i: int) -> int:
        return self.image[i - self.start]

    @functools.cached_property
    def inverse(self) -> Perm:
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v - self.start] = self.start + i
        return Perm(self.start, tuple(inv))

    def inv_count(self) -> int:
        """Number of inversions: pairs i < j with sigma(i) > sigma(j)."""
        return sum(lehmer_code(self).entries)

    def swap_times(self, k: int) -> Perm:
        """Compose with the transposition of arrival times k and k+1 on the left."""
        if not (self.start <= k < self.end):
            raise ValueError(f"times {k}, {k + 1} not both inside the interval")
        img = list(self.image)
        for i, v in enumerate(img):
            if v == k:
                img[i] = k + 1
            elif v == k + 1:
                img[i] = k
        return Perm(self.start, tuple(img))


@dataclasses.dataclass(frozen=True)
class LehmerSeq:
    """Code sequence for a permutation of [start, start+n-1].

    kind "lehmer": entry i counts later positions with smaller arrival time,
    bounded by the distance to the right endpoint.  kind "insertion": entries
    indexed by arrival time, bounded by the distance to the left endpoint.
    """

    start: int
    entries: tuple[int, ...]
    kind: Literal["lehmer", "insertion"]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(v) for v in self.entries))
        n = len(self.entries)
        for off, e in enumerate(self.entries):
            bound = (n - 1 - off) if self.kind == "lehmer" else off
            if not 0 <= e <= bound:
                raise ValueError(
                    f"{self.kind} entry {e} at index {self.start + off} "
                    f"violates bound {bound}")


@dataclasses.dataclass(frozen=True)
class ConstraintGraph:
    """Arc set over the interval [start, start+n-1], arcs stored with i < j.

    Every consecutive pair is an arc.  For constraint graphs of permutations
    the arcs never cross, though that is a property of the source, not a
    validated invariant here.
    """

    start: int
    n: int
    arcs: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        end = self.start + self.n - 1
        for i, j in self.arcs:
            if not (self.start <= i < j <= end):
                raise ValueError(f"arc ({i},{j}) outside interval or misordered")
        for i in range(self.start, end):
            if (i, i + 1) not in self.arcs:
                raise ValueError(f"missing consecutive arc ({i},{i + 1})")

    def bubble_endpoints(self) -> list[int]:
        """Vertices not strictly covered by any arc, in increasing order."""
        covered = [False] * self.n
        for i, j in self.arcs:
            for v in range(i + 1, j):
                covered[v - self.start] = True
        return [self.start + v for v in range(self.n) if not covered[v]]


def lehmer_code(sigma: Perm) -> LehmerSeq:
    """entry_i = #{j > i : sigma(j) < sigma(i)}; entries sum to inv(sigma)."""
    img = sigma.image
    n = len(img)
    entries = [0] * n
    for i in range(n):
        vi = img[i]
        entries[i] = sum(1 for j in range(i + 1, n) if img[j] < vi)
    return LehmerSeq(sigma.start, tuple(entries), "lehmer")


def insertion_code(sigma: Perm) -> LehmerSeq:
    """Lehmer code read in arrival order: entry at time i is the Lehmer entry
    of the position arriving at time i.  Entries are a permutation of the
    Lehmer code's entries."""
    lc = lehmer_code(sigma).entries
    inv = sigma.inverse
    entries = tuple(lc[inv(time) - sigma.start]
                    for time in range(sigma.start, sigma.end + 1))
    return LehmerSeq(sigma.start, entries, "insertion")


def decrement_cycle_values(entries: Iterable[int], start: int,
                           kind: Literal["lehmer", "insertion"] = "lehmer") -> list[int]:
    """Values at block positions of the composition of cyclic decrements.

    For kind "lehmer" the factor at index i cyclically decrements the
    interval [i, i + entry_i]; for kind "insertion" it decrements
    [i - entry_i, i].  Factors compose left to right (leftmost applied last).
    Entries need not respect the code bounds; values can then leave the
    block, but their relative order on the block is still meaningful.
    """
    entries = list(entries)
    n = len(entries)
    cycles = []
    for off, e in enumerate(entries):
        i = start + off
        if kind == "lehmer":
            cycles.append((i, i + e))
        else:
            cycles.append((i - e, i))
    values = []
    for off in range(n):
        v = start + off
        for lo, hi in reversed(cycles):
            if lo < v <= hi:
                v -= 1
            elif v == lo:
                v = hi
        values.append(v)
    return values


def decode_lehmer(seq: LehmerSeq) -> Perm:
    """Inverse of lehmer_code on finite intervals.

    Scanning left to right, the value at position i is the (entry_i + 1)-th
    smallest arrival time not yet used.
    """
    if seq.kind != "lehmer":
        raise ValueError("decode_lehmer needs a lehmer-kind sequence")
    n = len(seq.entries)
    remaining = list(range(seq.start, seq.start + n))
    image = []
    for e in seq.entries:
        image.append(remaining.pop(e))
    return Perm(seq.start, tuple(image))


def decode_insertion(seq: LehmerSeq) -> Perm:
    """Inverse of insertion_code on finite intervals.

    Processing arrival times backwards, the position arriving at the last
    time sits at distance entry from the right of the full interval; remove
    it and recurse.
    """
    if seq.kind != "insertion":
        raise ValueError("decode_insertion needs an insertion-kind sequence")
    n = len(seq.entries)
    positions = list(range(seq.start, seq.start + n))
    image = [0] * n
    for time in range(seq.start + n - 1, seq.start - 1, -1):
        e = seq.entries[time - seq.start]
        pos = positions.pop(len(positions) - 1 - e)
        image[pos - seq.start] = time
    return Perm(seq.start, tuple(image))


def founders(sigma: Perm) -> frozenset[int]:
    """Positions that arrive before all smaller positions or before all
    larger positions.  Always contains both interval endpoints, and equals
    the set of bubble endpoints of the constraint graph."""
    img = sigma.image
    n = len(img)
    out = []
    suffix_min = [0] * (n + 1)
    suffix_min[n] = float("inf")
    for i in range(n - 1, -1, -1):
        suffix_min[i] = min(img[i], suffix_min[i + 1])
    prefix_min = float("inf")
    for i in range(n):
        if img[i] < prefix_min or img[i] < suffix_min[i + 1]:
            out.append(sigma.start + i)
        prefix_min = min(prefix_min, img[i])
    return frozenset(out)


def constraint_graph(sigma: Perm) -> ConstraintGraph:
    """Arc (i, j) present iff both i and j arrive before every position
    strictly between them."""
    img = sigma.image
    n = len(img)
    arcs = set()
    for i in range(n - 1):
        arcs.add((sigma.start + i, sigma.start + i + 1))
        gap_min = None
        for j in range(i + 2, n):
            gap_min = img[j - 1] if gap_min is None else min(gap_min, img[j - 1])
            if gap_min > img[i] and gap_min > img[j]:
                arcs.add((sigma.start + i, sigma.start + j))
    return ConstraintGraph(sigma.start, n, frozenset(arcs))


def bubbles(graph: ConstraintGraph) -> list[tuple[int, int]]:
    """Consecutive pairs of bubble endpoints, in increasing order."""
    eps = graph.bubble_endpoints()
    return list(zip(eps, eps[1:]))


def color_count(graph: ConstraintGraph, q: int) -> int:
    """Number of proper q-colorings of a permutation's constraint graph.

    Closed form q * (q-2)^(n-1) * ((q-1)/(q-2))^b where b is the bubble
    count; always an integer because b <= n - 1.
    """
    if q < 3:
        raise ValueError("coloring count needs q >= 3")
    n = graph.n
    b = len(bubbles(graph))
    return q * (q - 2) ** (n - 1 - b) * (q - 1) ** b


def color_count_brute(graph: ConstraintGraph, q: int) -> int:
    """Exhaustive proper-coloring count.

    Every proper coloring of vertices 0..v-1 is a row of a small-int array;
    vertex v extends each row by all q colors, and the rows whose new color
    repeats one at the far end of a back arc of v are dropped.
    """
    if graph.n > BRUTE_COLORING_CAP:
        raise ValueError(f"vertex count {graph.n} above brute-force cap "
                         f"{BRUTE_COLORING_CAP}")
    back_arcs: list[list[int]] = [[] for _ in range(graph.n)]
    for i, j in graph.arcs:
        back_arcs[j - graph.start].append(i - graph.start)
    palette = np.arange(1, q + 1, dtype=np.min_scalar_type(q))
    rows = np.zeros((1, 0), dtype=palette.dtype)
    for v, back in enumerate(back_arcs):
        rows = np.column_stack((np.repeat(rows, q, axis=0),
                                np.tile(palette, len(rows))))
        keep = np.ones(len(rows), dtype=bool)
        for u in back:
            keep &= rows[:, u] != rows[:, v]
        rows = rows[keep]
    return len(rows)


def color_counts_brute(cases: Iterable[tuple[ConstraintGraph, int]]) -> list[int]:
    """Exhaustive proper-coloring counts of many (graph, q) cases at once;
    entry i counts the proper q-colorings of the i-th case's graph.

    Per (q, n), all q^n words are the columns of one int8 array, and a word
    colors a graph properly iff it differs at the two ends of every arc: one
    comparison per arc, then a count over the words.
    """
    words: dict[tuple[int, int], np.ndarray] = {}
    counts = []
    for graph, q in cases:
        if graph.n > BRUTE_COLORING_CAP:
            raise ValueError(f"vertex count {graph.n} above brute-force cap "
                             f"{BRUTE_COLORING_CAP}")
        if (q, graph.n) not in words:
            words[q, graph.n] = word_columns(q, graph.n, BRUTE_COLORING_WORDS)
        columns = words[q, graph.n]
        proper = np.ones(columns.shape[1], dtype=bool)
        for u, v in graph.arcs:
            proper &= columns[u - graph.start] != columns[v - graph.start]
        counts.append(int(np.count_nonzero(proper)))
    return counts


def is_proper_building(sigma: Perm, x: Word) -> bool:
    """True iff every arrival-prefix subword of x is proper.

    Equivalent to x being a proper coloring of the constraint graph: each
    arriving character must differ from its nearest already-arrived
    neighbors on both sides.
    """
    if sigma.start != x.start or len(sigma.image) != len(x.chars):
        raise ValueError(f"interval mismatch: {sigma.interval} vs {x.interval}")
    start, chars = x.start, x.chars
    arrived: list[int] = []
    for pos in sigma.inverse.image:  # positions in arrival order
        at = bisect.bisect_left(arrived, pos)
        c = chars[pos - start]
        if at > 0 and chars[arrived[at - 1] - start] == c:
            return False
        if at < len(arrived) and chars[arrived[at] - start] == c:
            return False
        arrived.insert(at, pos)
    return True


def all_perms(start: int, n: int):
    """Yield every permutation of [start, start+n-1]; n is at most
    BRUTE_PERM_CAP."""
    if n > BRUTE_PERM_CAP:
        raise ValueError(f"length {n} above enumeration cap {BRUTE_PERM_CAP}")
    import itertools
    for img in itertools.permutations(range(start, start + n)):
        yield Perm(start, img)
