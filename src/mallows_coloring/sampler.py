"""Samplers for the stationary k-dependent q-coloring and its ingredients.

Three independent pipelines produce windows of the same process and are
cross-validated against each other and against exact cylinder probabilities:

  * painting_sample: lays down a Bernoulli field of anchor sites (density
    (q-1)(1-t)/(q-1-t)) colored by a stationary walk on the complete graph,
    then fills each gap by a recursive geometric split.
  * lehmer_pipeline_sample: draws an iid field of zero-weighted geometric
    code entries, decodes each block between consecutive zeros into a
    bubble of the induced constraint graph, and colors the graph uniformly.
  * ffiid_sample: a finitary-factor construction; every site carries an iid
    triple (color pair, seed word, code entry) and the output at a site is
    computed by examining a finite, exponentially-tailed neighborhood.
    Per-site coding radii are returned.

All pipelines are pure functions of (parameters, seed): every variate is
derived from the seed and a site index through the documented splitting rule
in `streams`, so extending a window never changes already-drawn sites and
runs reproduce bit for bit.

Every gap between two colored sites is filled along the Cartesian tree of
its arrival times (Vuillemin 1980): `_splits` walks the tree, and `_fill`
colors each site uniformly among the q - 2 colors differing from its two
nearest earlier arrivals.  The draws are keyed by what they decide, never
by when they are made, so the order in which the walk visits the tree can
change without changing any output.  These keys are part of the stable
seed interface:

  * painting: the split site of gap (a, b) from u01(seed, a, b,
    S_PAINT_SPLIT), the color of a site from u01(seed, site, S_PAINT_COLOR);
  * lehmer: the color of a bubble site from u01(seed, site, S_BUBBLE);
  * ffiid: the color of a bubble site from u01_from_word(word, rank), where
    word = mix(seed, a, S_FFIID_U) for the block's left zero a and rank is
    the site's place in the block's arrival order (the endpoints have
    ranks 0 and 1).
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math

import numpy as np

from . import dist
from .perm import (ConstraintGraph, LehmerSeq, Perm, decode_insertion,
                   decode_lehmer, decrement_cycle_values)
from .streams import mix, u01, u01_array, u01_from_word
from .tpoly import solve_tuning
from .words import Word

# Stream identifiers; part of the stable seed-splitting interface.
S_LEHMER_ZERO = 1
S_LEHMER_TAIL = 2
S_WALK_FIRST = 3
S_WALK_STEP = 4
S_BUBBLE = 5
S_PAINT_BERN = 6
S_PAINT_FIRST = 7
S_PAINT_STEP = 8
S_PAINT_SPLIT = 9
S_PAINT_COLOR = 10
S_FFIID_Z = 11
S_FFIID_U = 12
S_FFIID_ZERO = 13
S_FFIID_TAIL = 14

#: Hard cap on window extension, in sites per side; extension overshoot is
#: geometric so hitting this indicates a parameter or implementation fault.
EXTENSION_CAP = 10**6

_CHUNK = 256


@dataclasses.dataclass(frozen=True)
class SampleParams:
    q: int
    k: int
    t: float
    s: float


@dataclasses.dataclass(frozen=True)
class ColoringSample:
    """A window of the coloring on [start, start + len - 1].

    colors holds values in 1..q and always forms a proper word.  radii, when
    present, gives per-site coding radii (ffiid pipeline).  endpoint_mask
    marks anchor sites (Bernoulli field / code zeros); colors at consecutive
    marked sites are pairwise distinct.
    """

    start: int
    colors: np.ndarray
    params: SampleParams
    seed: int
    radii: np.ndarray | None = None
    endpoint_mask: np.ndarray | None = None

    def __post_init__(self):
        colors = np.asarray(self.colors, dtype=np.uint8)
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)
        if colors.min(initial=1) < 1 or colors.max(initial=1) > self.params.q:
            raise ValueError("colors outside 1..q")
        if len(colors) > 1 and (colors[1:] == colors[:-1]).any():
            raise ValueError("sample is not a proper coloring")
        if self.radii is not None:
            radii = np.asarray(self.radii, dtype=np.int64)
            radii.setflags(write=False)
            if len(radii) != len(colors) or radii.min(initial=0) < 0:
                raise ValueError("radii must be per-site nonnegative integers")
            object.__setattr__(self, "radii", radii)
        if self.endpoint_mask is not None:
            mask = np.asarray(self.endpoint_mask, dtype=bool)
            mask.setflags(write=False)
            if len(mask) != len(colors):
                raise ValueError("endpoint mask length mismatch")
            marked = colors[mask]
            if len(marked) > 1 and (marked[1:] == marked[:-1]).any():
                raise ValueError("consecutive anchor sites share a color")
            object.__setattr__(self, "endpoint_mask", mask)

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.start + len(self.colors) - 1)


@functools.lru_cache(maxsize=None)
def tuned_parameters(q: int, k: int) -> tuple[float, float]:
    """(t, s) at double precision; t isolated to width 1e-15."""
    from fractions import Fraction
    t = solve_tuning(q, k, Fraction(1, 10**15)).to_float()
    return t, t * (q - 2) / (q - 1 - t)


def _resolve(q: int, k: int, t_override: float | None) -> tuple[float, float]:
    if q < 3 or k < 1:
        raise ValueError("need q >= 3 and k >= 1")
    if t_override is None:
        return tuned_parameters(q, k)
    t = float(t_override)
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    return t, t * (q - 2) / (q - 1 - t)


# ---------------------------------------------------------------------------
# Permutation samplers


def sample_mallows(n: int, t: float, rng: np.random.Generator) -> Perm:
    """Mallows permutation of [1, n]: mass proportional to t^inversions.

    Drawn as the decode of independent truncated geometric code entries,
    entry i truncated at n - i.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    entries = [dist.sample(dist.GeomSpec(dist.GeomVariant.TRUNCATED, t,
                                         trunc=n - 1 - off), rng)
               for off in range(n)]
    return decode_lehmer(LehmerSeq(1, tuple(entries), "lehmer"))


def sample_bubble_mallows(start: int, end: int, t: float, u: float,
                          rng: np.random.Generator) -> Perm:
    """Bubble-biased Mallows permutation of [start, end]: mass proportional
    to u^bubbles * t^inversions.

    Drawn as the insertion decode of independent end-weighted truncated
    geometric entries, the entry at position p truncated at p - start.
    """
    if end < start:
        raise ValueError("empty interval")
    entries = [dist.sample(dist.GeomSpec(dist.GeomVariant.END_WEIGHTED, t, u,
                                         trunc=off), rng)
               for off in range(end - start + 1)]
    return decode_insertion(LehmerSeq(start, tuple(entries), "insertion"))


def lehmer_marginal_at_origin(n: int, t: float, u: float,
                              rng: np.random.Generator,
                              draws: int) -> np.ndarray:
    """Samples of the Lehmer-code entry at 0 for bubble-biased Mallows
    permutations of [-n, n].

    As the interval grows this marginal converges to the zero-weighted
    geometric law with weight u at zero; drawn via the insertion decode.
    """
    size = 2 * n + 1
    entries = np.empty((draws, size), dtype=np.int64)
    for off in range(size):
        spec = dist.GeomSpec(dist.GeomVariant.END_WEIGHTED, t, u, trunc=off)
        entries[:, off] = dist.sample(spec, rng, size=draws)
    out = np.empty(draws, dtype=np.int64)
    for row in range(draws):
        sigma = decode_insertion(LehmerSeq(-n, tuple(entries[row]), "insertion"))
        img = np.asarray(sigma.image)
        out[row] = int((img[n + 1:] < img[n]).sum())
    return out


# ---------------------------------------------------------------------------
# Cartesian-tree gap filling


def _splits(gaps, first):
    """Walk the Cartesian trees of arrival times over the gaps (a, b).

    Yields (v, lo, hi) once for every site v strictly inside a gap: lo and
    hi are v's nearest earlier arrivals, and `first(lo, hi)` names v, the
    first arrival strictly between them.
    """
    for a, b in gaps:
        stack = [(a, b)] if b - a >= 2 else []
        while stack:
            lo, hi = stack.pop()
            v = first(lo, hi)
            yield v, lo, hi
            if v - lo >= 2:
                stack.append((lo, v))
            if hi - v >= 2:
                stack.append((v, hi))


def _fill(colors: np.ndarray, base: int, splits, q: int, draw) -> None:
    """Color each split site v uniformly among the q - 2 colors differing
    from both its flanks lo and hi, which must already be colored in
    `colors` (offset by `base`); draw(v) supplies the uniform."""
    for v, lo, hi in splits:
        cl, ch = colors[lo - base], colors[hi - base]
        if cl > ch:
            cl, ch = ch, cl
        c = int(draw(v) * (q - 2)) + 1
        if c >= cl:
            c += 1
        if c >= ch:
            c += 1
        colors[v - base] = c


def _earliest(values: list[int], a: int):
    """first(lo, hi) for the block starting at site a whose arrival times
    are `values`: the site strictly between lo and hi arriving first."""
    def first(lo, hi):
        inner = values[lo + 1 - a:hi - a]
        return lo + 1 + inner.index(min(inner))
    return first


def _joined(arcs):
    """first(lo, hi) read off a constraint graph's arcs: the one site
    strictly between lo and hi joined by arcs to both.  Raises ValueError
    when there is no such site, as for arcs that do not form bubbles."""
    nbrs = collections.defaultdict(set)
    for i, j in arcs:
        nbrs[i].add(j)
        nbrs[j].add(i)

    def first(lo, hi):
        both = [v for v in nbrs[lo] & nbrs[hi] if lo < v < hi]
        if len(both) != 1:
            raise ValueError("arc set is not a single bubble of a constraint graph")
        return both[0]
    return first


# ---------------------------------------------------------------------------
# Constraint graphs from code fields


def _block_arc_list(entries, a: int) -> list[tuple[int, int]]:
    """Non-consecutive arcs of the bubble spanned by one zero-delimited block.

    entries runs over [a, b] with zeros at both ends.  Interior entries may
    exceed the in-block code bounds; only the relative arrival order on the
    block matters, and that is read off the decrement-cycle composition.
    The arcs are exactly the gaps the Cartesian tree of that order splits.
    """
    if len(entries) < 3:
        return []
    values = decrement_cycle_values(entries, a, "lehmer")
    return [(lo, hi) for _, lo, hi in
            _splits([(a, a + len(values) - 1)], _earliest(values, a))]


def gamma_from_lehmer(entries, start: int) -> ConstraintGraph:
    """Constraint graph induced by a window of code entries.

    The window must begin and end with zeros.  Consecutive zeros delimit
    bubbles; each block decodes independently, and arcs never span a zero,
    so the graph restricted to any sub-window is unchanged when the window
    grows.
    """
    entries = [int(e) for e in entries]
    if len(entries) < 2:
        raise ValueError("need a window of at least two sites")
    if entries[0] != 0 or entries[-1] != 0:
        raise ValueError("window endpoints must be zeros of the code field")
    n = len(entries)
    arcs = {(start + i, start + i + 1) for i in range(n - 1)}
    zeros = [i for i, e in enumerate(entries) if e == 0]
    for za, zb in zip(zeros, zeros[1:]):
        arcs.update(_block_arc_list(entries[za:zb + 1], start + za))
    return ConstraintGraph(start, n, frozenset(arcs))


def uniform_coloring(graph: ConstraintGraph, q: int,
                     rng: np.random.Generator) -> Word:
    """Uniform proper q-coloring of a good window graph.

    Bubble-endpoint colors follow a stationary walk on the complete graph
    (first endpoint uniform, each next uniform over the other q - 1 colors);
    each bubble is then filled conditionally uniformly given its endpoint
    colors, along an arrival order read off its arcs.
    """
    if q < 3:
        raise ValueError("need q >= 3")
    eps = graph.bubble_endpoints()
    colors = np.zeros(graph.n, dtype=np.int64)
    c = int(rng.random() * q) + 1
    colors[eps[0] - graph.start] = c
    for e in eps[1:]:
        step = int(rng.random() * (q - 1)) + 1
        c = (c - 1 + step) % q + 1
        colors[e - graph.start] = c
    splits = _splits(zip(eps, eps[1:]), _joined(graph.arcs))
    _fill(colors, graph.start, splits, q, lambda v: rng.random())
    return Word(graph.start, tuple(int(c) for c in colors), q)


# ---------------------------------------------------------------------------
# Site fields and window extension


def _code_field(seed: int, lo: int, hi: int, t: float, p_zero: float,
                zero_stream: int, tail_stream: int) -> np.ndarray:
    """Zero-weighted geometric code entries on sites lo..hi inclusive."""
    sites = np.arange(lo, hi + 1, dtype=np.int64)
    uz = u01_array(seed, sites, zero_stream)
    out = np.zeros(len(sites), dtype=np.int64)
    positive = uz >= p_zero
    if t > 0 and positive.any():
        ut = u01_array(seed, sites[positive], tail_stream)
        out[positive] = 1 + np.floor(np.log(ut) / math.log(t)).astype(np.int64)
    return out


def _hits(seed: int, stream: int, p: float):
    """hit(lo, hi): the sites of [lo, hi], increasing, whose uniform on
    `stream` falls below p."""
    def hit(lo, hi):
        sites = np.arange(lo, hi + 1, dtype=np.int64)
        return sites[u01_array(seed, sites, stream) < p]
    return hit


def _nearest(hit, first: int, step: int) -> int:
    """Nearest hit at or beyond `first` in direction `step` (-1 leftward,
    +1 rightward), scanned in _CHUNK-site windows.  Raises after
    EXTENSION_CAP sites."""
    for near in range(first, first + step * (EXTENSION_CAP + 1), step * _CHUNK):
        far = near + step * (_CHUNK - 1)
        hits = hit(min(near, far), max(near, far))
        if len(hits):
            return int(hits[0] if step > 0 else hits[-1])
    raise RuntimeError("window extension exceeded cap; parameters degenerate")


def _walk_colors(seed: int, sites: np.ndarray, q: int, first_stream: int,
                 step_stream: int) -> np.ndarray:
    """Stationary complete-graph walk sampled at the given anchor sites.

    The first color is uniform; each subsequent color is the previous one
    advanced by a uniform nonzero shift mod q, which is exactly a uniform
    choice among the other q - 1 colors.
    """
    if len(sites) == 0:
        return np.zeros(0, dtype=np.int64)
    first = int(u01(seed, int(sites[0]), first_stream) * q)
    steps = (u01_array(seed, sites[1:], step_stream) * (q - 1)).astype(np.int64) + 1
    shifts = np.concatenate(([first], steps)).cumsum()
    return (shifts % q + 1).astype(np.int64)


# ---------------------------------------------------------------------------
# Pipeline 1: painting


def painting_sample(q: int, k: int, length: int, seed: int,
                    t: float | None = None) -> ColoringSample:
    """Window of the coloring via the two-stage painting construction.

    Stage 0 solves the tuning equation for t and sets s = t(q-2)/(q-1-t).
    Stage 1 marks anchor sites by an iid Bernoulli field of density
    1 - s = (q-1)(1-t)/(q-1-t), extends beyond the window until a marked
    site exists on each side, and colors the marked sites by a stationary
    complete-graph walk.  (s is the density of unmarked, gap-interior
    sites: it matches the density of positive entries in the code-field
    construction, whose zeros are the anchors.)  Stage 2 fills each gap
    recursively: a split site K is chosen in the gap interior with
    probability proportional to t^(offset), colored uniformly among the
    colors differing from both gap endpoints, and the two sub-gaps recurse.
    Pass t to override the tuned value (the output is then the stationary
    coloring at that parameter, without the k-dependence property).
    """
    if length < 1:
        raise ValueError("need length >= 1")
    tv, s = _resolve(q, k, t)
    anchor_density = 1.0 - s
    logt = math.log(tv)

    marked = _hits(seed, S_PAINT_BERN, anchor_density)
    left = _nearest(marked, 0, -1)
    right = _nearest(marked, length - 1, 1)
    sites = np.arange(left, right + 1, dtype=np.int64)
    bern = u01_array(seed, sites, S_PAINT_BERN) < anchor_density
    anchors = sites[bern]
    colors = np.zeros(len(sites), dtype=np.int64)
    colors[anchors - left] = _walk_colors(seed, anchors, q,
                                          S_PAINT_FIRST, S_PAINT_STEP)

    def split(a, b):
        g = b - a - 1
        if g == 1:
            return a + 1
        u = u01(seed, a, b, S_PAINT_SPLIT)
        m = int(math.floor(math.log1p(-u * (1.0 - tv**g)) / logt))
        return a + 1 + min(max(m, 0), g - 1)

    def draw(v):
        return u01(seed, v, S_PAINT_COLOR)

    # Listing only the gaps with interior sites keeps peak memory down.
    wide = np.diff(anchors) >= 2
    gaps = zip(anchors[:-1][wide].tolist(), anchors[1:][wide].tolist())
    _fill(colors, left, _splits(gaps, split), q, draw)

    lo_off = -left
    window_colors = colors[lo_off:lo_off + length]
    mask = bern[lo_off:lo_off + length]
    return ColoringSample(0, window_colors, SampleParams(q, k, tv, s), seed,
                          endpoint_mask=mask)


# ---------------------------------------------------------------------------
# Pipeline 2: code-field decoding


def _zero_field_params(q: int, tv: float) -> tuple[float, float]:
    u = (q - 1) / (q - 2)
    p_zero = u / (u + tv / (1 - tv))
    return u, p_zero


def _lehmer_common(q: int, k: int, length: int, seed: int,
                   t: float | None, zero_stream: int, tail_stream: int):
    """Code field on an extended window with zeros at both ends, and the
    zero-site hit test that found them."""
    if length < 1:
        raise ValueError("need length >= 1")
    tv, s = _resolve(q, k, t)
    _, p_zero = _zero_field_params(q, tv)
    zeros_of = _hits(seed, zero_stream, p_zero)
    left = _nearest(zeros_of, 0, -1)
    right = _nearest(zeros_of, length - 1, 1)
    entries = _code_field(seed, left, right, tv, p_zero, zero_stream,
                          tail_stream)
    return tv, s, left, entries, zeros_of


def _fill_blocks(colors: np.ndarray, left: int, entries: np.ndarray, q: int,
                 block_draw) -> None:
    """Fill every bubble of a code field along its arrival order.

    entries is the code field from site `left` on; its zeros, which delimit
    the blocks, must already be colored in `colors`.  block_draw(a, values)
    returns the draw of the block whose left zero is site a and whose
    arrival times are `values`.
    """
    zeros = np.flatnonzero(entries == 0).tolist()
    for za, zb in zip(zeros, zeros[1:]):
        if zb - za < 2:
            continue
        a = za + left
        values = decrement_cycle_values(entries[za:zb + 1].tolist(), a,
                                        "lehmer")
        _fill(colors, left, _splits([(a, zb + left)], _earliest(values, a)),
              q, block_draw(a, values))


def lehmer_pipeline_detail(q: int, k: int, length: int, seed: int,
                           t: float | None = None):
    """As lehmer_pipeline_sample, also returning the window's code entries."""
    tv, s, left, entries, _ = _lehmer_common(
        q, k, length, seed, t, S_LEHMER_ZERO, S_LEHMER_TAIL)
    zero_offs = np.flatnonzero(entries == 0)
    colors = np.zeros(len(entries), dtype=np.int64)
    colors[zero_offs] = _walk_colors(seed, zero_offs + left, q,
                                     S_WALK_FIRST, S_WALK_STEP)

    def block_draw(a, values):
        return lambda v: u01(seed, v, S_BUBBLE)

    _fill_blocks(colors, left, entries, q, block_draw)

    lo_off = -left
    window = slice(lo_off, lo_off + length)
    sample = ColoringSample(0, colors[window], SampleParams(q, k, tv, s),
                            seed, endpoint_mask=(entries == 0)[window])
    return sample, entries[window]


def lehmer_pipeline_sample(q: int, k: int, length: int, seed: int,
                           t: float | None = None) -> ColoringSample:
    """Window of the coloring via code-field decoding.

    Draws iid zero-weighted geometric code entries with zero weight
    u = (q-1)/(q-2), extends the window to the nearest zeros on each side,
    builds the induced constraint graph bubble by bubble, and colors it
    uniformly (anchor walk on the zeros, conditional-uniform bubble fills).
    """
    return lehmer_pipeline_detail(q, k, length, seed, t)[0]


# ---------------------------------------------------------------------------
# Pipeline 3: finitary factor with coding radii


def ffiid_detail(q: int, k: int, length: int, seed: int,
                 t: float | None = None) -> tuple[ColoringSample, dict]:
    """As ffiid_sample, also returning construction internals.

    The extras dict holds the window code entries ("entries"), the window
    zero sites ("zeros"), and the per-zero-site lookback hop counts
    ("hops"): the number of steps through the zero set back to the
    resolving site, whose tail is exactly (2/q)^n.
    """
    tv, s, left, entries, zeros_of = _lehmer_common(
        q, k, length, seed, t, S_FFIID_ZERO, S_FFIID_TAIL)

    # Walk left through the zero set from the window's left anchor until a
    # zero site whose first candidate color escapes its predecessor's pair;
    # the forward pass from that site is exact.
    chain = []
    cur = left
    while True:
        prev = _nearest(zeros_of, cur - 1, -1)
        if _color_pair(seed, cur, q)[0] not in _color_pair(seed, prev, q):
            break
        chain.append(prev)
        cur = prev
        if left - cur > EXTENSION_CAP:
            raise RuntimeError("resolving-site search exceeded cap")
    zs = np.array(chain[::-1] + (np.flatnonzero(entries == 0) + left).tolist(),
                  dtype=np.int64)

    r = (u01_array(seed, zs, S_FFIID_Z) * (q * (q - 1))).astype(np.int64)
    z1 = r // (q - 1) + 1
    z2 = r % (q - 1) + 1
    z2 = np.where(z2 >= z1, z2 + 1, z2)
    escape = np.zeros(len(zs), dtype=bool)
    escape[0] = True
    escape[1:] = (z1[1:] != z1[:-1]) & (z1[1:] != z2[:-1])

    # Forward pass; the start site is an escape so no earlier state matters.
    zcolors = np.zeros(len(zs), dtype=np.int64)
    c_prev = 0
    z1l, z2l = z1.tolist(), z2.tolist()
    for m in range(len(zs)):
        c = z1l[m] if z1l[m] != c_prev else z2l[m]
        zcolors[m] = c
        c_prev = c

    idx = np.arange(len(zs))
    esc_idx = np.maximum.accumulate(np.where(escape, idx, 0))
    hops = idx - esc_idx
    reset_site = zs[esc_idx]

    colors = np.zeros(len(entries), dtype=np.int64)
    in_win = zs >= left
    colors[zs[in_win] - left] = zcolors[in_win]

    def block_draw(a, values):
        # Uniforms are indexed by the block's arrival order, not by the
        # order in which _splits visits it: the rank is a draw key.
        word = mix(seed, a, S_FFIID_U)
        order = sorted(range(len(values)), key=values.__getitem__)
        rank = {off: r for r, off in enumerate(order)}
        return lambda v: u01_from_word(word, rank[v - a])

    _fill_blocks(colors, left, entries, q, block_draw)

    # Coding radii on the window: distance to the farthest site examined.
    window_sites = np.arange(0, length, dtype=np.int64)
    pos = np.searchsorted(zs, window_sites, side="right") - 1
    f_plus_idx = np.minimum(pos + 1, len(zs) - 1)
    f_plus = zs[f_plus_idx]
    is_zero = entries[window_sites - left] == 0
    left_reach = window_sites - reset_site[pos]
    radii = np.where(is_zero, left_reach,
                     np.maximum(left_reach, f_plus - window_sites))

    window = slice(-left, -left + length)
    sample = ColoringSample(0, colors[window], SampleParams(q, k, tv, s),
                            seed, radii=radii,
                            endpoint_mask=(entries == 0)[window])
    zmask = (zs >= 0) & (zs <= length - 1)
    extras = {
        "entries": entries[window],
        "zeros": zs[zmask],
        "hops": hops[zmask],
    }
    return sample, extras


def _color_pair(seed: int, site: int, q: int) -> tuple[int, int]:
    """Uniform ordered pair of distinct colors attached to a site."""
    r = int(u01(seed, site, S_FFIID_Z) * q * (q - 1))
    first = r // (q - 1) + 1
    second = r % (q - 1) + 1
    if second >= first:
        second += 1
    return first, second


def ffiid_sample(q: int, k: int, length: int, seed: int,
                 t: float | None = None) -> ColoringSample:
    """Window of the coloring as a finitary factor of iid per-site triples.

    Zero sites of the code field are colored by scanning back through the
    zero set to the most recent site whose first candidate color escapes its
    predecessor's pair, then rolling forward; gaps are filled from the gap's
    left-endpoint seed word.  The returned radii bound, per site, the
    distance to every site examined, and have exponential tails.
    """
    return ffiid_detail(q, k, length, seed, t)[0]


# ---------------------------------------------------------------------------
# Markov-state extraction


@dataclasses.dataclass(frozen=True)
class MarkovState:
    """Local renewal state at a site: offsets of the flanking code zeros,
    the bubble graph between them, and its colors, all in site-relative
    coordinates.  The color at offset 0 reproduces the process."""

    f_minus: int
    f_plus: int
    graph: ConstraintGraph
    colors: Word

    def __post_init__(self):
        if self.f_minus > 0 or self.f_plus < 1:
            raise ValueError("state offsets must satisfy f_minus <= 0 < f_plus")
        for (i, j) in self.graph.arcs:
            ci = self.colors.chars[i - self.colors.start]
            cj = self.colors.chars[j - self.colors.start]
            if ci == cj:
                raise ValueError("state colors do not properly color the graph")

    def h(self) -> int:
        """Color at offset 0."""
        return self.colors.chars[-self.f_minus]

    def key(self) -> tuple:
        return (self.f_minus, self.f_plus, tuple(sorted(self.graph.arcs)),
                self.colors.chars)


def iter_markov_states(sample: ColoringSample, entries, as_keys: bool = False):
    """Yield (site, MarkovState) for every window site with a code zero at
    or before it and another strictly after it, left to right.

    With as_keys=True, hashable key tuples (f_minus, f_plus, sorted arcs,
    colors) are yielded instead of state objects; return-time statistics
    over long windows only need the keys.
    """
    entries = np.asarray(entries)
    if len(entries) != len(sample):
        raise ValueError("entries must align with the sample window")
    q = sample.params.q
    zero_offs = np.flatnonzero(entries == 0)
    if len(zero_offs) < 2:
        return
    elist = entries.tolist()
    colors = sample.colors
    for za, zb in zip(zero_offs.tolist(), zero_offs.tolist()[1:]):
        arcs_abs = _block_arc_list(elist[za:zb + 1], za)
        block_colors = tuple(int(c) for c in colors[za:zb + 1])
        for i in range(za, zb):
            rel_arcs = {(x - i, y - i) for x, y in arcs_abs}
            rel_arcs.update((o, o + 1) for o in range(za - i, zb - i))
            if as_keys:
                yield sample.start + i, (za - i, zb - i,
                                         tuple(sorted(rel_arcs)), block_colors)
                continue
            graph = ConstraintGraph(za - i, zb - za + 1, frozenset(rel_arcs))
            word = Word(za - i, block_colors, q)
            yield sample.start + i, MarkovState(za - i, zb - i, graph, word)


def markov_states(sample: ColoringSample, entries,
                  sites=None) -> list[tuple[int, "MarkovState"]]:
    """Materialized states; with `sites`, restrict to those and reject any
    site lacking a flanking zero on either side within the window."""
    out = list(iter_markov_states(sample, entries))
    if sites is None:
        return out
    by_site = dict(out)
    missing = [s for s in sites if s not in by_site]
    if missing:
        raise ValueError(f"sites too close to the window boundary: {missing}")
    return [(s, by_site[s]) for s in sites]
