"""Samplers for the stationary k-dependent q-coloring.

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
    Per-site radii of that neighborhood are returned (see ffiid_sample).

All pipelines are pure functions of (parameters, seed): every variate is
derived from the seed and a site index through the documented splitting rule
in `streams`, so extending a window never changes already-drawn sites and
runs reproduce bit for bit.

Every selection from a site-length array (keys, picks, anchors, gap
endpoints) goes through an index array from nonzero(), never a boolean
mask: at 10^5 sites a mask gather or scatter costs about 1-2 ms in numpy,
the index array plus an integer take or put about 0.3 ms.

Every gap between two colored sites is filled along the Cartesian tree of
its arrival times (Vuillemin 1980).  `_splits` walks the trees of all gaps
in a window together, one tree level at a time, with numpy arrays of gap
endpoints; `first(lo, hi)` names each gap's first arrival.  Painting draws
its geometric split.  In a code field the first arrival is the gap's
leftmost least entry, which `_leftmost_least` finds from the entries alone
for lehmer; ffiid orders its blocks anyway for its draw keys (`_arrival`),
so it takes the first arrival from that one ordering.  Gaps with one
interior site skip `first` and are filled in one last pass.  `_fill`
colors each level's sites uniformly among the q - 2 colors differing from
their two nearest earlier arrivals, from one pick per site hashed before
the walk.  The draws are keyed by what they decide, never by when they are
made, so the level-by-level walk gives the same output as a site-by-site
one.  These keys are part of the stable seed interface:

  * painting: the split site of gap (a, b) from u01(seed, a, b,
    S_PAINT_SPLIT), the color of a site from u01(seed, site, S_PAINT_COLOR);
  * lehmer: the color of a bubble site from u01(seed, site, S_BUBBLE);
  * ffiid: the color of a bubble site from u01_from_word(word, rank), where
    word = mix(seed, a, S_FFIID_U) for the block's left zero a and rank is
    the site's place in the block's arrival order, which `_arrival`
    computes for every block at once (the endpoints have ranks 0 and 1).
    The words are taken from the zeros' site keys, mix(seed, a), with one
    more finalize each (`mix_next`).  The ordered color pair of a zero
    site is entry r = floor(u01(seed, site, S_FFIID_Z) * (q (q - 1))) of
    `_pair_tables`, one rounding for the lookback and the forward pass.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

# perfbench/tracer.py times u01, mix, u01_from_word, u01_array and
# decrement_cycle_values by patching them on this module, and
# tests/test_trace_hooks.py requires its streams.u01 and streams.u01_array
# wrappers to be called.  No pipeline calls mix, u01_from_word or
# decrement_cycle_values: they are imported for the tracer alone, and can go
# once it wraps what the pipelines call (ROADMAP item 10).
from .perm import ConstraintGraph, decrement_cycle_values  # noqa: F401
from .streams import (mix, mix_keys, mix_next, u01, u01_array,  # noqa: F401
                      u01_from_word, u01_from_words, u01_keys, u01_next)
from .tpoly import solve_tuning

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

#: Hard cap on the tree work of one code window, the sum over its blocks
#: of (interior sites)^2.  It bounds both _arrival's per-cycle loop (ffiid's
#: one ordering of its blocks; some 3 ns an element step on a 2-core Xeon,
#: so about three seconds at the cap) and the level-by-level walk of a
#: block's Cartesian tree, which is as deep as the block in the worst case.
#: _block_sizes checks it once per code-field walk: in _arrival for ffiid,
#: in _leftmost_least for lehmer and _bubble_arcs.  At the tuned parameters
#: a window does about one step per site; a t override near 1 puts a short
#: window inside one block of 10^5 sites or more, and hitting this
#: indicates such degenerate parameters.
ARRIVAL_WORK_CAP = 10**9

#: Largest q the samplers accept: colors are stored as uint8.
MAX_Q = 255


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
            marked = colors[mask.nonzero()]
            if len(marked) > 1 and (marked[1:] == marked[:-1]).any():
                raise ValueError("consecutive anchor sites share a color")
            object.__setattr__(self, "endpoint_mask", mask)

    def __len__(self) -> int:
        return len(self.colors)


def _with_gap_density(q: int, t: float) -> tuple[float, float]:
    """(t, s), s = t(q-2)/(q-1-t) being the density of gap-interior sites."""
    return t, t * (q - 2) / (q - 1 - t)


@functools.lru_cache(maxsize=None)
def tuned_parameters(q: int, k: int) -> tuple[float, float]:
    """(t, s) at double precision; t isolated to width 1e-15."""
    from fractions import Fraction
    return _with_gap_density(q, solve_tuning(q, k, Fraction(1, 10**15)).to_float())


def check_q(q: int) -> None:
    """Raise ValueError unless 3 <= q <= MAX_Q."""
    if not 3 <= q <= MAX_Q:
        raise ValueError(f"need 3 <= q <= {MAX_Q}: colors are stored as uint8")


def _resolve(q: int, k: int, t_override: float | None) -> tuple[float, float]:
    check_q(q)
    if k < 1:
        raise ValueError("need k >= 1")
    if t_override is None:
        return tuned_parameters(q, k)
    t = float(t_override)
    if not 0 < t < 1:
        raise ValueError("t must lie in (0, 1)")
    return _with_gap_density(q, t)


# ---------------------------------------------------------------------------
# Cartesian-tree gap filling


def _splits(lo: np.ndarray, hi: np.ndarray, first):
    """Walk the Cartesian trees of arrival times over the disjoint,
    increasing gaps (lo[j], hi[j]) one tree level at a time.

    Yields arrays (v, lo, hi), v[j] strictly inside the gap with nearest
    earlier arrivals lo[j] and hi[j]; first(lo, hi) names the first arrival
    strictly inside each gap of a level.  Gaps with one interior site skip
    `first` and are yielded last, all at once.  Each site is yielded once,
    so raises once the levels yield more sites than the gaps span: a site
    outside its gap never shrinks the gap, and the walk would not end.
    """
    leaves = [lo[:0]]
    budget = int(hi[-1] - lo[0]) if len(lo) else 0
    while len(lo):
        width = hi - lo
        leaves.append(lo[(width == 2).nonzero()[0]])
        wide = (width > 2).nonzero()[0]
        lo, hi = lo[wide], hi[wide]
        if not len(lo):
            break
        v = first(lo, hi)
        budget -= len(v)
        if budget < 0:
            raise RuntimeError("first(lo, hi) named a site outside its gap")
        yield v, lo, hi
        lo, hi = np.array((lo, v)).T.ravel(), np.array((v, hi)).T.ravel()
    leaf = np.concatenate(leaves)
    yield leaf + 1, leaf, leaf + 2


def _fill(colors: np.ndarray, splits) -> None:
    """Color the split sites level by level, in place.  Until then
    colors[v] holds v's pick, uniform in 1..q-2; raising it past each flank
    color it reaches makes it uniform among the q - 2 others."""
    for v, lo, hi in splits:
        cl, ch = colors[lo], colors[hi]
        c = colors[v]
        c += c >= np.minimum(cl, ch)
        c += c >= np.maximum(cl, ch)
        colors[v] = c


def _picks(u: np.ndarray, q: int) -> np.ndarray:
    """Color picks in 1..q-2 from uniforms (consumes u)."""
    u *= q - 2
    return u.astype(np.uint8) + 1


def _split_offset(u: float, g: int, t: float) -> int:
    """Offset in 0..g-1 of the split site of a painting gap with g interior
    sites: P(offset m) is proportional to t^m, drawn by inversion of u."""
    m = int(math.floor(math.log1p(-u * (1.0 - t**g)) / math.log(t)))
    return min(max(m, 0), g - 1)


@functools.lru_cache(maxsize=64)
def _split_scales(t: float, gmax: int) -> np.ndarray:
    """-(1 - t^g) for g = 0..gmax, computed as _split_offset computes it."""
    scales = np.array([-(1.0 - t**g) for g in range(gmax + 1)])
    scales.setflags(write=False)
    return scales


def _split_offsets(u: np.ndarray, g: np.ndarray, t: float) -> np.ndarray:
    """_split_offset over arrays, bit for bit.  numpy's log1p may differ
    from math's in the last bits, so a quotient within 1e-9 g of an integer
    (rare; it includes the quotient g, which the clamp lowers) is
    recomputed by the scalar formula."""
    gmax = int(g.max())
    ratio = u * _split_scales(t, gmax)[g]
    np.log1p(ratio, out=ratio)
    ratio /= math.log(t)
    m = np.floor(ratio)
    ratio -= m
    tol = 1e-9 * gmax
    close = ((ratio < tol) | (ratio > 1.0 - tol)).nonzero()[0]
    m = m.astype(np.int64)
    for j in close.tolist():
        m[j] = _split_offset(float(u[j]), int(g[j]), t)
    return m


def _block_sizes(zeros: np.ndarray) -> np.ndarray:
    """Interior sizes g of the blocks between consecutive `zeros` of a code
    field.  Raises when the work of walking them, the sum of g^2, passes
    ARRIVAL_WORK_CAP."""
    g = zeros[1:] - zeros[:-1]
    g -= 1
    if int(g @ g) > ARRIVAL_WORK_CAP:
        raise RuntimeError("arrival work exceeded cap; parameters degenerate")
    return g


def _gap_minima(key: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The least key strictly inside each of the disjoint, increasing gaps
    (lo[j], hi[j]), each holding at least one site."""
    bounds = np.array((lo + 1, hi)).T.ravel()[:-1]
    return np.minimum.reduceat(key[:int(hi[-1])], bounds)[::2]


def _leftmost_least(entries: np.ndarray, zeros: np.ndarray):
    """first(lo, hi) for the gaps inside the blocks between consecutive
    `zeros` of a code field, whose entries may exceed the in-block bounds:
    the interior site with the least entry, the leftmost of those.

    That site arrives first.  The first arrival m of a gap has an entry
    that counts only arrivals at or past the gap's right end; every site
    left of m also counts m, and every site right of m counts at least
    what m counts.  Each site's key is its entry above its index, b bits
    for the indices, so one minimum per gap finds it: int32 while the
    largest entry fits, int64 otherwise.  Raises as _block_sizes does, and
    when an entry is too large for an int64 key.
    """
    _block_sizes(zeros)
    n = len(entries)
    b = n.bit_length()
    top = int(entries.max())
    if top >= 1 << (63 - b):
        raise RuntimeError("code entry exceeded key width; parameters degenerate")
    dtype = np.int32 if top < 1 << (31 - b) else np.int64
    key = entries.astype(dtype)
    key <<= b
    key |= np.arange(n, dtype=dtype)
    index = (1 << b) - 1
    return lambda lo, hi: _gap_minima(key, lo, hi) & index


def _arrival(entries: np.ndarray, zeros: np.ndarray):
    """Arrival order in every block between consecutive `zeros` of a code
    field, whose entries may exceed the in-block bounds.  It is ffiid's one
    ordering of its blocks: its bubble draws are keyed by a site's rank in
    its block's order, and its Cartesian-tree walk splits each gap at the
    gap's first arrival.

    The arrival times of a block a..b are decrement_cycle_values of
    entries[a..b] (a and b come first).  A block with one interior site
    has nothing to order; only the blocks with two or more are ordered.
    Their cycles act on the interior sites of those blocks together, one
    cycle index per numpy step, longest blocks first so the active prefix
    shrinks; one stable sort then orders each block.  So the cost follows
    the sites of multi-site blocks, not the window.

    Returns (first, order, blk, rank).  order holds the interior sites
    block by block, each in arrival order: the multi-site blocks first,
    longest first, then the one-site blocks left to right.  For each entry
    of order, blk is the index in `zeros` of its block's left zero, and
    rank its place in its block's arrival order, from 2 (the endpoints
    have ranks 0 and 1).  first(lo, hi) serves _splits: the interior site
    of each gap arriving first, whose place in order is the least in the
    gap, found by one minimum per gap over the sites' int32 places.  order
    is int32.  Raises before the loop when its work, the sum of g^2 over
    the blocks' interior sizes g, passes ARRIVAL_WORK_CAP (_block_sizes).
    """
    g = _block_sizes(zeros)
    multi = (g > 1).nonzero()[0]
    multi = multi[np.argsort(-g[multi])]
    gm = g[multi]
    single = (g == 1).nonzero()[0]
    del g
    blk = np.concatenate((np.repeat(multi, gm), single))
    sites = len(blk) - len(single)
    del multi, single
    order = np.add(zeros.take(blk), 1, dtype=np.int32)
    rank = np.full(len(blk), 2)
    if sites:
        _order_blocks(entries, order[:sites], rank[:sites], gm)
    place = np.zeros(len(entries), dtype=np.int32)
    place[order] = np.arange(len(order), dtype=np.int32)
    return (lambda lo, hi: order[_gap_minima(place, lo, hi)]), order, blk, rank


def _order_blocks(entries: np.ndarray, head: np.ndarray, rank: np.ndarray,
                  gm: np.ndarray) -> None:
    """_arrival's multi-site blocks, of interior sizes gm (non-increasing),
    laid out one after another in `head`, which holds each block's left
    zero plus one: sorts each block of `head` into arrival order and adds
    each position's offset in its block to `rank`, in place."""
    # Values relative to the cycle: y = value - c - 1 before the cycle at
    # c = b - d, for the block's right zero b and d = 1, 2, ..., so at
    # first y = site - b.  That cycle moves the values in (c, c + e],
    # e = entries[c], down by one and the value c up to c + e: y stays for
    # the moved values (0 <= y < e, compared unsigned), becomes e at the
    # value c (y = -1) and grows by one elsewhere.  at holds c; the active
    # prefix, the sites of the blocks of d or more sites, only shrinks, so
    # one decrement per step keeps it.  y is int64, as large entries push
    # it far up; at is int32.
    y = np.arange(len(head), dtype=np.int64)
    y -= np.repeat(np.cumsum(gm), gm)
    off = np.repeat(gm, gm)
    off += y
    head += off
    rank += off
    at = np.subtract(head, y, dtype=np.int32)
    at -= 1
    del off
    yu = y.view(np.uint64)
    active = np.bincount(gm, weights=gm)[:0:-1].cumsum()[::-1].astype(np.intp)
    for m in active.tolist():
        low = entries.take(at[:m])
        at[:m] -= 1
        yy = y[:m]
        top = yy == -1
        yy += yu[:m] >= low.view(np.uint64)
        np.copyto(yy, low, where=top)
    del at, yu, active, low, yy, top
    # By block, then by value (y ascending).  The keys are distinct and
    # already grouped by block, which the stable sort exploits; each
    # position stays in its block.
    y -= int(y.min())
    span = int(y.max()) + 1
    if span * len(gm) < 2**31:
        key = np.repeat(np.arange(0, span * len(gm), span, dtype=np.int32), gm)
        key += y
        within = np.argsort(key, kind="stable")
    else:
        within = np.lexsort((y, np.repeat(np.arange(len(gm)), gm)))
    head[:] = head.take(within)


# ---------------------------------------------------------------------------
# Constraint graphs from code fields


def _bubble_arcs(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-consecutive arcs (lo, hi), as offsets, of every bubble between
    consecutive zeros of a code field.

    Interior entries may exceed the in-block code bounds; only the relative
    arrival order in each block matters.  The arcs are exactly the gaps the
    Cartesian trees of those orders split, each gap at its leftmost least
    entry (_leftmost_least).
    """
    zeros = (entries == 0).nonzero()[0]
    gaps = [(lo, hi) for _, lo, hi in
            _splits(zeros[:-1], zeros[1:], _leftmost_least(entries, zeros))]
    return (np.concatenate([lo for lo, _ in gaps]),
            np.concatenate([hi for _, hi in gaps]))


def gamma_from_lehmer(entries, start: int) -> ConstraintGraph:
    """Constraint graph induced by a window of code entries.

    The window must begin and end with zeros.  Consecutive zeros delimit
    bubbles; each block decodes independently, and arcs never span a zero,
    so the graph restricted to any sub-window is unchanged when the window
    grows.
    """
    entries = np.array([int(e) for e in entries], dtype=np.int64)
    if len(entries) < 2:
        raise ValueError("need a window of at least two sites")
    if entries[0] != 0 or entries[-1] != 0:
        raise ValueError("window endpoints must be zeros of the code field")
    n = len(entries)
    arcs = {(start + i, start + i + 1) for i in range(n - 1)}
    lo, hi = _bubble_arcs(entries)
    arcs.update(zip((lo + start).tolist(), (hi + start).tolist()))
    return ConstraintGraph(start, n, frozenset(arcs))


# ---------------------------------------------------------------------------
# Site fields and window extension

#: Sites hashed beyond each end of the window to find the nearest anchors.
_MARGIN = 32
#: Painting draws the splits of a tree level with at most this many gaps by
#: the scalar rule, which is cheaper there than a numpy pass.
_FEW_GAPS = 6


def _hash(seed: int, stream: int, p: float, lo: int, hi: int):
    """Site keys mix_keys(seed, site) of the sites lo..hi, and whether the
    uniform on `stream` of each falls below p."""
    keys = mix_keys(seed, np.arange(lo, hi + 1, dtype=np.int64))
    return keys, u01_next(keys, stream) < p


def _grow(reach: int) -> int:
    """Sites to hash next past a side already hashed `reach` sites beyond
    the window: doubles the reach, by at least _MARGIN sites.  Raises once
    the reach has passed EXTENSION_CAP."""
    if reach > EXTENSION_CAP:
        raise RuntimeError("window extension exceeded cap; parameters degenerate")
    return max(reach, _MARGIN)


def _field(seed: int, stream: int, p: float, length: int):
    """(lo, left, right, hit, keys): the hits nearest the window
    [0, length - 1], left <= 0 and right >= length - 1, and the hits and
    the site keys mix_keys(seed, site) of lo..right, lo <= min(left,
    -_MARGIN) being the left end hashed.  One _hash covers the window and
    _MARGIN sites each side.  A side with no hit grows by hashing only the
    sites past it, each step doubling that side's reach (_grow), and the new
    keys and hits are joined onto the old ones.  The pipelines draw their
    other per-site uniforms from `keys` with u01_next."""
    lo, hi = -_MARGIN, length - 1 + _MARGIN
    keys, hit = _hash(seed, stream, p, lo, hi)
    while not hit[:1 - lo].any():
        n = _grow(-lo)
        more = _hash(seed, stream, p, lo - n, lo - 1)
        keys, hit = (np.concatenate(pair) for pair in zip(more, (keys, hit)))
        lo -= n
    while not hit[length - 1 - lo:].any():
        n = _grow(hi - length + 1)
        more = _hash(seed, stream, p, hi + 1, hi + n)
        keys, hit = (np.concatenate(pair) for pair in zip((keys, hit), more))
        hi += n
    left = lo + int(hit[:1 - lo].nonzero()[0][-1])
    right = length - 1 + int(hit[length - 1 - lo:].argmax())
    end = right - lo + 1
    return lo, left, right, hit[:end], keys[:end]


def _code_field(keys: np.ndarray, zero: np.ndarray, t: float,
                tail_stream: int) -> np.ndarray:
    """Zero-weighted geometric code entries on the sites of `keys`: zero
    where `zero` marks, positive geometric entries elsewhere."""
    out = np.zeros(len(zero), dtype=np.int64)
    positive = (~zero).nonzero()[0]
    ut = u01_next(keys[positive], tail_stream)
    np.log(ut, out=ut)
    ut /= math.log(t)
    np.floor(ut, out=ut)
    ut += 1
    out[positive] = ut
    return out


def _walk_colors(seed: int, site: int, keys: np.ndarray, q: int,
                 first_stream: int, step_stream: int) -> np.ndarray:
    """Stationary complete-graph walk sampled at a run of anchor sites: the
    first at `site`, the others given by their site keys `keys`.

    The first color is uniform; each subsequent color is the previous one
    advanced by a uniform nonzero shift mod q, which is exactly a uniform
    choice among the other q - 1 colors.
    """
    u = u01_next(keys, step_stream)
    u *= q - 1
    shifts = np.empty(len(u) + 1, dtype=np.int64)
    shifts[0] = int(u01(seed, site, first_stream) * q)
    shifts[1:] = u
    shifts[1:] += 1
    np.cumsum(shifts, out=shifts)
    shifts %= q
    shifts += 1
    return shifts


def _anchored_colors(seed: int, q: int, left: int, keys: np.ndarray,
                     anchor: np.ndarray, pick_stream: int, first_stream: int,
                     step_stream: int) -> tuple[np.ndarray, np.ndarray]:
    """(colors, anchors) of the sites left, left + 1, ... with site keys
    `keys`: the sites `anchor` marks, at offsets `anchors`, take the
    stationary walk (_walk_colors), and every other site its pick in
    1..q-2 (_picks), which _fill then raises past the flank colors."""
    colors = np.empty(len(anchor), dtype=np.uint8)
    inner = (~anchor).nonzero()[0]
    colors[inner] = _picks(u01_next(keys[inner], pick_stream), q)
    del inner
    anchors = anchor.nonzero()[0]
    colors[anchors] = _walk_colors(seed, int(anchors[0]) + left,
                                   keys[anchors[1:]], q, first_stream,
                                   step_stream)
    return colors, anchors


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
    lo, left, _, hit, keys = _field(seed, S_PAINT_BERN, 1.0 - s, length)
    bern, keys = hit[left - lo:], keys[left - lo:]
    colors, anchors = _anchored_colors(seed, q, left, keys, bern, S_PAINT_COLOR,
                                       S_PAINT_FIRST, S_PAINT_STEP)
    del keys

    def split(lo, hi):
        if len(lo) <= _FEW_GAPS:
            return np.array([a + 1 + _split_offset(
                u01(seed, a + left, b + left, S_PAINT_SPLIT), b - a - 1, tv)
                for a, b in zip(lo.tolist(), hi.tolist())], dtype=np.int64)
        u = u01_keys(seed, lo + left, hi + left, S_PAINT_SPLIT)
        return lo + 1 + _split_offsets(u, hi - lo - 1, tv)

    _fill(colors, _splits(anchors[:-1], anchors[1:], split))

    window = slice(-left, -left + length)
    return ColoringSample(0, colors[window], SampleParams(q, k, tv, s), seed,
                          endpoint_mask=bern[window])


# ---------------------------------------------------------------------------
# Pipeline 2: code-field decoding


def _zero_field_params(q: int, tv: float) -> float:
    """Density of code zeros: zero weight u = (q-1)/(q-2) against t/(1-t)."""
    u = (q - 1) / (q - 2)
    return u / (u + tv / (1 - tv))


def _code_window(q: int, k: int, length: int, seed: int, t: float | None,
                 zero_stream: int, tail_stream: int):
    """Parameters, _field's lo, left and mask, and the site keys, code
    field and zero mask from left to the nearest zero past the window."""
    if length < 1:
        raise ValueError("need length >= 1")
    tv, s = _resolve(q, k, t)
    p_zero = _zero_field_params(q, tv)
    lo, left, _, hit, keys = _field(seed, zero_stream, p_zero, length)
    zero, keys = hit[left - lo:], keys[left - lo:]
    entries = _code_field(keys, zero, tv, tail_stream)
    return tv, s, lo, left, hit, keys, entries, zero


def lehmer_pipeline_detail(q: int, k: int, length: int, seed: int,
                           t: float | None = None):
    """As lehmer_pipeline_sample, also returning the window's code entries."""
    tv, s, _, left, _, keys, entries, zero = _code_window(
        q, k, length, seed, t, S_LEHMER_ZERO, S_LEHMER_TAIL)
    colors, zeros = _anchored_colors(seed, q, left, keys, zero, S_BUBBLE,
                                     S_WALK_FIRST, S_WALK_STEP)
    del keys, zero
    _fill(colors, _splits(zeros[:-1], zeros[1:],
                          _leftmost_least(entries, zeros)))

    window = slice(-left, -left + length)
    sample = ColoringSample(0, colors[window], SampleParams(q, k, tv, s),
                            seed, endpoint_mask=entries[window] == 0)
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


@functools.lru_cache(maxsize=None)
def _pair_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, second), uint8 tables over r = 0..q(q-1)-1 of the ordered
    pairs of distinct colors: first = r // (q-1) + 1, second the
    (r % (q-1) + 1)-th of the other colors."""
    r = np.arange(q * (q - 1))
    first = r // (q - 1) + 1
    second = r % (q - 1) + 1
    second += second >= first
    tables = first.astype(np.uint8), second.astype(np.uint8)
    for table in tables:
        table.setflags(write=False)
    return tables


def _color_pairs(x: np.ndarray, q: int):
    """Ordered pairs (first, second) of distinct colors from x = u (q (q-1))
    for the zero sites' uniforms u, and whether each site's first escapes
    its predecessor's pair (the first site counts as escaping)."""
    r = x.astype(np.intp)
    first, second = (table[r] for table in _pair_tables(q))
    escape = np.ones(len(r), dtype=bool)
    escape[1:] = (first[1:] != first[:-1]) & (first[1:] != second[:-1])
    return first, second, escape


def ffiid_detail(q: int, k: int, length: int, seed: int,
                 t: float | None = None) -> tuple[ColoringSample, dict]:
    """As ffiid_sample, also returning construction internals.

    The extras dict holds the window code entries ("entries"), the window
    zero sites ("zeros"), and the per-zero-site lookback hop counts
    ("hops"): the number of steps through the zero set back to the
    resolving site, whose tail is exactly (2/q)^n.

    Past the code field, every step works on the zero sites or on the
    blocks between them; only the colors and the radii are per site.
    """
    tv, s, lo, left, hit, keys, entries, zero = _code_window(
        q, k, length, seed, t, S_FFIID_ZERO, S_FFIID_TAIL)
    zeros = zero.nonzero()[0]
    window = slice(-left, -left + length)
    is_zero = zero[window]
    zkeys = keys.take(zeros)
    del keys, zero

    # The bubble picks come first, so that _arrival's temporaries never sit
    # on top of the lookback's arrays.  Uniforms are indexed by the block's
    # arrival order, not by the order in which _splits visits it: the rank
    # is a draw key, and the block's word is its left zero's site key
    # extended by S_FFIID_U.  `first` keeps the order and the sites' places
    # in it for the tree walk, and frees them after _fill.
    first, order, blk, rank = _arrival(entries, zeros)
    colors = np.empty(len(entries), dtype=np.uint8)
    words = mix_next(zkeys.take(blk), S_FFIID_U)
    del zkeys, blk
    colors[order] = _picks(u01_from_words(words, rank), q)
    del order, words, rank

    # Pairs and escapes of every zero site from _field's left end.  The
    # window's left anchor zs[j0] needs an escape at or before it other
    # than zero 0, which escapes by fiat; the forward pass from that
    # escape is exact.  The sites _field hashed usually hold it; else the
    # zero mask grows leftward from _field's left end, as _field grows a
    # side.
    zs = hit.nonzero()[0]
    zs += lo
    u = u01_array(seed, zs, S_FFIID_Z)
    while True:
        j0 = len(zs) - len(zeros)
        z1, z2, escape = _color_pairs(u * (q * (q - 1)), q)
        # esc_idx[j]: the last escape at or before zero j, a running
        # maximum over the escapes' indices.
        esc_idx = np.arange(len(zs))
        esc_idx *= escape
        np.maximum.accumulate(esc_idx, out=esc_idx)
        if esc_idx[j0] >= 1:
            break
        n = _grow(-lo)
        more = lo - n + _hash(seed, S_FFIID_ZERO, _zero_field_params(q, tv),
                              lo - n, lo - 1)[1].nonzero()[0]
        zs = np.concatenate((more, zs))
        u = np.concatenate((u01_array(seed, more, S_FFIID_Z), u))
        lo -= n
    del u
    # Forward pass, all zero sites at once: each takes its first candidate
    # unless that is its predecessor's color.  An escape takes its first;
    # after it, the choice flips at each site whose first candidate is its
    # predecessor's first.
    flip = escape  # its buffer, no longer needed
    flip[0] = False
    np.equal(z1[1:], z1[:-1], out=flip[1:])
    np.logical_xor.accumulate(flip, out=flip)
    flip ^= flip[esc_idx]
    # zs[j0:] are the zero sites left, ..., right; zs[i0:i1] those inside
    # the window
    i0, i1 = j0 + (left < 0), len(zs) - (int(zs[-1]) >= length)
    colors[zeros] = np.where(flip[j0:], z2[j0:], z1[j0:])
    del z1, z2, flip, escape
    _fill(colors, _splits(zeros[:-1], zeros[1:], first))
    del first

    # Radii, block by block: the block of zero a runs up to the next zero
    # b, and a's reset site is R.  At a the radius is a - R; at each site i
    # inside it, max(i - R, b - i), b - i being (b - R) - (i - R).  They
    # are laid out over the sites left..right and cut to the window.
    zw = zs[j0:]
    reset = zs[esc_idx[j0:]]
    hops = np.arange(i0, i1) - esc_idx[i0:i1]
    del esc_idx
    gaps = zw[1:] - zw[:-1]
    radii = np.arange(left, int(zw[-1]) + 1, dtype=np.int64)
    inner = radii[:-1]
    inner -= np.repeat(reset[:-1], gaps)
    reach = np.subtract(zw, reset, out=reset)
    far = np.repeat(gaps + reach[:-1], gaps)
    far -= inner
    np.maximum(inner, far, out=inner)
    del far
    radii[zeros] = reach
    radii = radii[window]

    sample = ColoringSample(0, colors[window], SampleParams(q, k, tv, s),
                            seed, radii=radii, endpoint_mask=is_zero)
    extras = {
        "entries": entries[window],
        "zeros": zs[i0:i1],
        "hops": hops,
    }
    return sample, extras


def ffiid_sample(q: int, k: int, length: int, seed: int,
                 t: float | None = None) -> ColoringSample:
    """Window of the coloring as a finitary factor of iid per-site triples.

    Zero sites of the code field are colored by scanning back through the
    zero set to the most recent site whose first candidate color escapes its
    predecessor's pair, then rolling forward; gaps are filled from the gap's
    left-endpoint seed word.  The returned radius of a site reaches back to
    the reset site of the last zero at or before it (where that zero's
    walk stopped) and, off the zeros, forward to the next zero; the radii
    have exponential tails.  They are not yet coding radii: the escape test
    that stops a walk also reads the pair of the zero before the reset
    site, left of the reach (ROADMAP item 11).
    """
    return ffiid_detail(q, k, length, seed, t)[0]


# ---------------------------------------------------------------------------
# Markov states


def markov_states(sample: ColoringSample, entries):
    """Renewal states of the window sites with a code zero at or before
    them and another after them, as arrays (sites, ids, offsets) and a
    list `contents`.

    The state at a site is the block between those zeros, with its bubble
    graph and colors, and the site's offset from the block's left zero.
    Blocks with equal colors and arcs share a content id; contents[id] is
    their (ConstraintGraph, colors), indexed from 0 at the left zero, so
    the color at sites[j] is contents[ids[j]][1][offsets[j]].  A window
    with fewer than two zeros has no states.
    """
    entries = np.asarray(entries)
    if len(entries) != len(sample):
        raise ValueError("entries must align with the sample window")
    zeros = (entries == 0).nonzero()[0]
    if len(zeros) < 2:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none, []
    za, width = zeros[:-1], np.diff(zeros)
    lo, hi = _bubble_arcs(entries)
    by_site = np.lexsort((hi, lo))
    lo, hi = lo[by_site], hi[by_site]
    # A block's key is the bytes of its colors and of its arcs relative to
    # its left zero, in site order, 8 bytes an arc.  The arcs of a block
    # start at or after its left zero and before its right one.
    first = np.searchsorted(lo, zeros)
    shift = np.repeat(za, np.diff(first))
    arcs = np.array((lo - shift, hi - shift), dtype=np.int32).T.tobytes()
    bounds = (8 * first).tolist()
    colors = sample.colors.tobytes()
    ids: dict[tuple[bytes, bytes], int] = {}
    block_ids = [ids.setdefault((colors[a:b + 1], arcs[i:j]), len(ids))
                 for a, b, i, j in zip(za.tolist(), zeros[1:].tolist(),
                                       bounds, bounds[1:])]
    contents = []
    for block_colors, block_arcs in ids:
        n = len(block_colors)
        rel = np.frombuffer(block_arcs, dtype=np.int32).tolist()
        graph_arcs = {(i, i + 1) for i in range(n - 1)}
        graph_arcs.update(zip(rel[::2], rel[1::2]))
        contents.append((ConstraintGraph(0, n, frozenset(graph_arcs)),
                         np.frombuffer(block_colors, dtype=np.uint8)))
    sites = np.arange(zeros[0], zeros[-1])
    offsets = sites - np.repeat(za, width)
    return sample.start + sites, np.repeat(block_ids, width), offsets, contents
