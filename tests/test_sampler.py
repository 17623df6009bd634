import functools
import itertools
import math
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from mallows_coloring import dist
from mallows_coloring.perm import (LehmerSeq, all_perms, bubbles,
                                   color_counts_brute, constraint_graph,
                                   decode_insertion, decode_lehmer, founders,
                                   lehmer_code)
from mallows_coloring.sampler import (ColoringSample, SampleParams,
                                      ffiid_detail, ffiid_sample,
                                      gamma_from_lehmer,
                                      lehmer_pipeline_detail,
                                      lehmer_pipeline_sample, markov_states,
                                      painting_sample, tuned_parameters)
from mallows_coloring.tpoly import NoSolutionError
from mallows_coloring.words import Word
from oracles import origin_entry_law


def _pushforward(specs, decode):
    """Exact law of decode(code) over codes with independent entries, entry
    i drawn from specs[i]: the mass of each image, as Fractions."""
    pmfs = [[dist.pmf(spec, e) for e in range(spec.trunc + 1)]
            for spec in specs]
    mass = defaultdict(Fraction)
    for code in itertools.product(*(range(len(p)) for p in pmfs)):
        mass[decode(code).image] += math.prod(p[e] for p, e in zip(pmfs, code))
    return dict(mass)


def _mallows_code_law(n, t):
    """Exact law of decode_lehmer of n independent truncated geometric code
    entries, entry off truncated at n - 1 - off."""
    specs = [dist.GeomSpec(dist.GeomVariant.TRUNCATED, t, trunc=n - 1 - off)
             for off in range(n)]
    return _pushforward(specs, lambda code: decode_lehmer(
        LehmerSeq(1, code, "lehmer")))


def _bubble_biased_law(n, t, u):
    """(exact law of decode_insertion of n independent end-weighted entries,
    entry off truncated at off; the law u^bubbles t^inv / Z it should be)."""
    specs = [dist.GeomSpec(dist.GeomVariant.END_WEIGHTED, t, u, trunc=off)
             for off in range(n)]
    mass = _pushforward(specs, lambda code: decode_insertion(
        LehmerSeq(0, code, "insertion")))
    weights = {s.image: u ** len(bubbles(constraint_graph(s)))
               * t ** s.inv_count() for s in all_perms(0, n)}
    z = sum(weights.values())
    return mass, {image: w / z for image, w in weights.items()}


class TestMallowsSampler:
    """The Mallows code lemma, exactly: independent truncated geometric code
    entries decode to the Mallows law t^inv / Z."""

    def test_t_zero_gives_identity(self):
        for n in range(1, 7):
            mass = _mallows_code_law(n, Fraction(0))
            assert {image: w for image, w in mass.items() if w} == {
                tuple(range(1, n + 1)): 1}

    def test_law_matches_inversion_weights(self):
        t = Fraction(2, 5)
        for n in range(1, 7):
            weights = {s.image: t ** s.inv_count() for s in all_perms(1, n)}
            z = sum(weights.values())
            assert _mallows_code_law(n, t) == {
                image: w / z for image, w in weights.items()}

    def test_mean_inversions(self):
        # inv is the sum of the code entries, so its Mallows mean is the sum
        # of the truncated geometric means
        t = Fraction(2, 5)
        for n in range(1, 7):
            weights = {s: t ** s.inv_count() for s in all_perms(1, n)}
            mean = sum(s.inv_count() * w for s, w in weights.items()) \
                / sum(weights.values())
            assert mean == sum(
                sum(j * dist.pmf(dist.GeomSpec(dist.GeomVariant.TRUNCATED, t,
                                               trunc=n - i), j)
                    for j in range(n - i + 1))
                for i in range(1, n + 1))


class TestBubbleMallows:
    def test_unit_weight_reduces_to_mallows(self):
        t = Fraction(2, 5)
        for n in range(1, 7):
            mass, _ = _bubble_biased_law(n, t, Fraction(1))
            weights = {s.image: t ** s.inv_count() for s in all_perms(0, n)}
            z = sum(weights.values())
            assert mass == {image: w / z for image, w in weights.items()}

    def test_bubble_biased_law(self):
        for n in range(1, 7):
            mass, law = _bubble_biased_law(n, Fraction(2, 5), Fraction(4, 3))
            assert mass == law

    def test_conditional_code_entries_exact(self):
        # conditional on the minimum arriving before position i, the code
        # entries at i.. are independent zero-weighted truncated geometrics;
        # criterion 11 checks t = 2/5, u = 4/3, so this takes other weights
        t = Fraction(1, 3)
        m, n = 0, 5
        for u, i in itertools.product((Fraction(1, 2), Fraction(1)),
                                      (1, 2, 3, 4)):
            cond: dict[tuple, Fraction] = {}
            total = Fraction(0)
            for sigma in all_perms(m, n - m + 1):
                if sigma.inverse(0) >= i:
                    continue
                b = len(founders(sigma)) - 1
                w = u**b * t ** sigma.inv_count()
                key = tuple(lehmer_code(sigma).entries[i - m:])
                cond[key] = cond.get(key, Fraction(0)) + w
                total += w
            for key, w in cond.items():
                expect = Fraction(1)
                for off, e in enumerate(key):
                    spec = dist.GeomSpec(dist.GeomVariant.ZERO_WEIGHTED, t, u,
                                         trunc=n - (i + off))
                    expect *= dist.pmf(spec, e)
                assert w / total == expect


class TestGammaFromLehmer:
    def test_all_zero_is_path(self):
        g = gamma_from_lehmer([0, 0, 0, 0], 5)
        assert g.arcs == frozenset({(5, 6), (6, 7), (7, 8)})

    def test_single_block_matches_decoded_graph(self):
        entries = [0, 2, 1, 1, 0]
        g = gamma_from_lehmer(entries, 0)
        sigma = decode_lehmer(LehmerSeq(0, tuple(entries), "lehmer"))
        assert g.arcs == constraint_graph(sigma).arcs

    def test_out_of_bounds_entries_allowed(self):
        # entries larger than the block admits still define the graph
        g = gamma_from_lehmer([0, 5, 0], 0)
        assert g.arcs == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_window_extension_locality(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            inner = [0] + [int(e) for e in rng.integers(0, 5, size=8)] + [0]
            outer = [0] + [int(e) for e in rng.integers(0, 5, size=3)] \
                + inner + [int(e) for e in rng.integers(0, 5, size=3)] + [0]
            gi = gamma_from_lehmer(inner, 0)
            go = gamma_from_lehmer(outer, -4)
            span = set(range(0, len(inner)))
            inner_arcs = {a for a in go.arcs if a[0] in span and a[1] in span}
            assert inner_arcs == set(gi.arcs)

    def test_rejects_bad_windows(self):
        with pytest.raises(ValueError):
            gamma_from_lehmer([1, 0, 0], 0)
        with pytest.raises(ValueError):
            gamma_from_lehmer([0], 0)


def _single_bubble_graphs():
    """{code: graph} over every block code [0, e_1..e_m, 0] with e_i in
    1..m+1-i and m <= 5: 154 codes giving the 65 single-bubble graphs on
    2..7 sites."""
    codes = [(0,) + inner + (0,) for m in range(6)
             for inner in itertools.product(*(range(1, m + 2 - i)
                                              for i in range(1, m + 1)))]
    return {code: gamma_from_lehmer(code, 0) for code in codes}


def _run_fill(entries, colors):
    """The pipelines' bubble-fill kernel on one code field, in place:
    colors holds the zeros' colors and the other sites' picks."""
    from mallows_coloring.sampler import _fill, _leftmost_least, _splits
    zeros = (entries == 0).nonzero()[0]
    _fill(colors, _splits(zeros[:-1], zeros[1:],
                          _leftmost_least(entries, zeros)))


class TestArrivalPeeling:
    def test_peel_completes_on_every_single_bubble(self):
        # the block codes' graphs are the decoded permutations' and are all
        # the single-bubble graphs on 2..7 sites; on each, the pipelines'
        # level-by-level walk visits each interior site exactly once, and
        # its gaps and splits reproduce the graph's arcs
        from mallows_coloring.sampler import _leftmost_least, _splits
        graph_of = _single_bubble_graphs()
        assert len(graph_of) == 154 and len(set(graph_of.values())) == 65
        for n in range(2, 8):
            bubble_graphs = {constraint_graph(s) for s in all_perms(0, n)
                             if len(founders(s)) == 2}
            assert bubble_graphs == {g for g in graph_of.values() if g.n == n}
        for code, graph in graph_of.items():
            assert graph == constraint_graph(
                decode_lehmer(LehmerSeq(0, code, "lehmer")))
            entries = np.array(code, dtype=np.int64)
            zeros = (entries == 0).nonzero()[0]
            splits = [(v, lo, hi) for level in _splits(
                          zeros[:-1], zeros[1:],
                          _leftmost_least(entries, zeros))
                      for v, lo, hi in zip(*(a.tolist() for a in level))]
            assert sorted(v for v, _, _ in splits) == list(
                range(1, len(code) - 1)), code
            arcs = {(0, len(code) - 1)}
            for v, lo, hi in splits:
                arcs.update({(lo, v), (v, hi)})
            assert arcs == graph.arcs, code


def _proper(graph, q):
    """All proper q-colorings of graph, as tuples of sites 0..n-1."""
    return {chars for chars in itertools.product(range(1, q + 1),
                                                 repeat=graph.n)
            if all(chars[i] != chars[j] for i, j in graph.arcs)}


class TestUniformColoring:
    def test_path_graph_walk_law(self, monkeypatch):
        # the anchor walk maps the q (q-1)^(n-1) equal cells of its
        # uniforms one to one onto the proper colorings of a path
        from mallows_coloring import sampler
        for q, n in itertools.product((3, 4, 5), (2, 3, 4)):
            rows = []
            for first, *steps in itertools.product(
                    range(q), *[range(q - 1)] * (n - 1)):
                monkeypatch.setattr(sampler, "u01",
                                    lambda *words: (first + 0.5) / q)
                monkeypatch.setattr(
                    sampler, "u01_next",
                    lambda keys, *words: (np.array(steps, dtype=float)
                                          + 0.5) / (q - 1))
                rows.append(tuple(sampler._walk_colors(
                    0, 0, np.zeros(n - 1, dtype=np.uint64), q,
                    sampler.S_WALK_FIRST, sampler.S_WALK_STEP).tolist()))
            path = gamma_from_lehmer([0] * n, 0)
            assert len(set(rows)) == len(rows), (q, n)
            assert set(rows) == _proper(path, q), (q, n)

    def test_single_bubble_conditional_uniform(self):
        # per q, each of the (q-2)^m pick vectors colors one copy of a
        # single-bubble block through the pipelines' kernel, flanks (1, 2):
        # the rows must be the distinct proper colorings with those flanks,
        # (q-2)^m of the q(q-1)(q-2)^m by color symmetry
        cases = []
        for q, (code, graph) in itertools.product(
                (3, 4, 5), _single_bubble_graphs().items()):
            m = graph.n - 2
            picks = list(itertools.product(range(1, q - 1), repeat=m))
            colors = np.empty((len(picks), m + 2), dtype=np.uint8)
            colors[:, 0], colors[:, -1] = 1, 2
            colors[:, 1:-1] = picks
            colors = colors.ravel()
            _run_fill(np.tile(np.array(code, dtype=np.int64), len(picks)),
                      colors)
            rows = colors.reshape(len(picks), m + 2)
            for i, j in graph.arcs:
                assert (rows[:, i] != rows[:, j]).all(), (code, q)
            assert len(np.unique(rows, axis=0)) == len(rows), (code, q)
            cases.append((graph, q))
        assert color_counts_brute(cases) == [
            q * (q - 1) * (q - 2) ** (g.n - 2) for g, q in cases]

    def test_restriction_uniform_over_induced_subgraph(self):
        # across several bubbles, the zeros' proper path colorings times the
        # interior picks map one to one onto the graph's proper colorings
        entries = [0, 1, 0, 2, 1, 0]
        g = gamma_from_lehmer(entries, 0)
        zeros = [i for i, e in enumerate(entries) if e == 0]
        inner = [i for i, e in enumerate(entries) if e != 0]
        for q in (3, 4, 5):
            walks = [w for w in itertools.product(range(1, q + 1),
                                                  repeat=len(zeros))
                     if all(a != b for a, b in zip(w, w[1:]))]
            picks = list(itertools.product(range(1, q - 1),
                                           repeat=len(inner)))
            rows = np.empty((len(walks), len(picks), len(entries)),
                            dtype=np.uint8)
            rows[:, :, zeros] = np.array(walks)[:, None, :]
            rows[:, :, inner] = np.array(picks)[None, :, :]
            colors = rows.ravel()
            _run_fill(np.tile(np.array(entries, dtype=np.int64),
                              len(walks) * len(picks)), colors)
            got = [tuple(r) for r in colors.reshape(-1, len(entries)).tolist()]
            assert len(set(got)) == len(got), q
            assert set(got) == _proper(g, q), q
            assert len(got) == color_counts_brute([(g, q)])[0]


def _decrement_tree_levels(field):
    """Levels of the Cartesian trees of every block of a code field, by the
    decrement oracle's arrival times and recursion: [(v, lo, hi), ...] per
    level of gaps with two or more interior sites, in site order, then all
    one-site gaps by depth and site, as _splits yields them."""
    from mallows_coloring.perm import decrement_cycle_values
    zeros = [i for i, e in enumerate(field) if e == 0]
    arrival = {}
    for a, b in zip(zeros, zeros[1:]):
        arrival.update(zip(range(a, b + 1),
                           decrement_cycle_values(field[a:b + 1], a, "lehmer")))
    wide, leaves = defaultdict(list), []

    def tree(a, b, depth):
        if b - a == 2:
            leaves.append((depth, a + 1, a, b))
        elif b - a > 2:
            v = min(range(a + 1, b), key=arrival.__getitem__)
            wide[depth].append((v, a, b))
            tree(a, v, depth + 1)
            tree(v, b, depth + 1)
    for a, b in zip(zeros, zeros[1:]):
        tree(a, b, 0)
    return [sorted(wide[d], key=lambda s: s[1]) for d in range(len(wide))] + [
        [s[1:] for s in sorted(leaves)]]


def _arrival_first(entries, zeros):
    """ffiid's first(lo, hi): the least place in _arrival's order."""
    from mallows_coloring.sampler import _arrival
    return _arrival(entries, zeros)[0]


def _leftmost_least_levels(field, make_first=None):
    """(levels, dtype): _splits' levels over a code field, each gap split
    at its leftmost least entry, or at the site first(lo, hi) names for
    first = make_first(entries, zeros), as lists of (v, lo, hi), and the
    dtype of the sites `first` returns, which is _leftmost_least's key's
    (None if no gap needed `first`)."""
    from mallows_coloring.sampler import _leftmost_least, _splits
    entries = np.array(field, dtype=np.int64)
    zeros = np.flatnonzero(entries == 0)
    first = (make_first or _leftmost_least)(entries, zeros)
    dtypes = set()

    def traced(lo, hi):
        v = first(lo, hi)
        dtypes.add(v.dtype)
        return v
    levels = [list(zip(*(x.tolist() for x in level)))
              for level in _splits(zeros[:-1], zeros[1:], traced)]
    assert len(dtypes) <= 1
    return levels, next(iter(dtypes), None)


class TestArrayKernel:
    @pytest.mark.parametrize("huge", [False, True])
    def test_arrival_matches_decrement_oracle(self, huge):
        # 20,000 random blocks in one code field, interior entries up to
        # twice past the in-block bound, and some empty blocks; with `huge`,
        # some entries near 2^40, whose value range needs the wide sort.
        # Without it, also the layouts in which little or nothing needs
        # ordering: no interior sites, one-site blocks only, and one
        # multi-site block among many one-site blocks.  ffiid's split key,
        # the least place in that order, gives the same trees, level by
        # level, as the leftmost least entry
        from mallows_coloring.perm import decrement_cycle_values
        from mallows_coloring.sampler import _arrival
        rng = np.random.default_rng(40 + huge)
        field = [0]
        for _ in range(20_000):
            g = int(rng.geometric(0.3)) - 1
            for off in range(1, g + 1):
                bound = g + 1 - off
                field.append(int(rng.integers(1, 2 * bound + 3)))
                if huge and rng.random() < 0.01:
                    field[-1] += 2**40 + int(rng.integers(0, 100))
            field.append(0)
        fields = [field]
        if huge:
            # every multi-site entry near 2^40, so that all the sort keys
            # sit far from zero
            fields += [[0, 2**40, 2**40 + 1, 0],
                       [0, 2**40 + 7, 2**40 + 1, 2**40 + 3, 0, 2**40 + 2,
                        2**40 + 9, 0, 5, 0]]
        else:
            singles = [0] + [x for e in rng.integers(1, 4, size=200).tolist()
                             for x in (e, 0)]
            fields += [[0], [0] * 50, singles,
                       singles[:201] + [3, 7, 1, 2, 5, 0] + singles[1:]]
        for field in fields:
            entries = np.array(field, dtype=np.int64)
            zeros = np.flatnonzero(entries == 0)
            first, order, blk, rank = _arrival(entries, zeros)
            assert order.dtype == np.int32
            assert len(order) == len(blk) == len(rank)
            assert len(order) == len(entries) - len(zeros)
            # blk runs block by block, each block once, sizes non-increasing
            heads = np.flatnonzero(np.diff(blk, prepend=-1))
            g = np.diff(heads, append=len(blk))
            assert len(set(blk[heads].tolist())) == len(heads)
            assert (np.diff(g) <= 0).all()
            pos = 0
            for j, size in zip(blk[heads].tolist(), g.tolist()):
                a = int(zeros[j])
                assert zeros[j + 1] == a + size + 1
                values = decrement_cycle_values(field[a:a + size + 2], a,
                                                "lehmer")
                ranks = sorted(range(size + 2), key=values.__getitem__)
                # the endpoints arrive first, so interior ranks start at 2
                assert ranks[:2] == [0, size + 1]
                assert order[pos:pos + size].tolist() == [
                    a + r for r in ranks[2:]]
                assert rank[pos:pos + size].tolist() == list(
                    range(2, size + 2))
                pos += size
            assert pos == len(order)
            assert (_leftmost_least_levels(field, _arrival_first)[0]
                    == _leftmost_least_levels(field)[0])

    @pytest.mark.parametrize("q,k", [(5, 1), (3, 3), (6, 2), (8, 1)])
    def test_vector_split_matches_scalar(self, q, k, monkeypatch):
        from mallows_coloring import sampler
        t, _ = tuned_parameters(q, k)
        rng = np.random.default_rng(q * 10 + k)
        n = 1_000_000
        u = rng.random(n)
        u[u == 0.0] = 0.5
        g = rng.integers(1, 48, size=n)
        vec = sampler._split_offsets(u, g, t)
        ref = [sampler._split_offset(a, b, t)
               for a, b in zip(u.tolist(), g.tolist())]
        assert vec.tolist() == ref
        # keys whose quotient lies within a few ulps of an integer j, where
        # numpy's and math's log1p may round apart; the guard must catch them
        cu, cg = [], []
        for size in range(2, 41):
            for j in range(1, size + 1):
                exact = (1.0 - t**j) / (1.0 - t**size)
                for step in range(-3, 4):
                    near = exact
                    for _ in range(abs(step)):
                        near = np.nextafter(near, 2.0 if step > 0 else 0.0)
                    if 0.0 < near < 1.0:
                        cu.append(float(near))
                        cg.append(size)
        scalar = sampler._split_offset
        guarded = []

        def counting(u, g, t):
            guarded.append(g)
            return scalar(u, g, t)
        monkeypatch.setattr(sampler, "_split_offset", counting)
        vec = sampler._split_offsets(np.array(cu), np.array(cg), t)
        monkeypatch.undo()
        assert vec.tolist() == [scalar(a, b, t) for a, b in zip(cu, cg)]
        assert len(guarded) > len(cu) // 2

    def test_field_finds_nearest_hits_beyond_the_margin(self):
        # sparse fields, so the nearest hit often lies past the hashed margin
        from mallows_coloring.sampler import _field
        from mallows_coloring.streams import mix, u01_array
        for seed in range(40):
            for length in (1, 5, 60):
                lo, left, right, hit, keys = _field(seed, 3, 0.04, length)
                wide = u01_array(seed, np.arange(-3000, length + 3001), 3) < 0.04
                sites = np.flatnonzero(wide) - 3000
                assert left == sites[sites <= 0].max()
                assert right == sites[sites >= length - 1].min()
                # lo is the left end hashed: the margin, doubled until it
                # reaches the nearest hit
                reach = 32
                while -reach > left:
                    reach *= 2
                assert lo == -reach
                assert (hit == wide[lo + 3000:right + 3001]).all()
                assert len(keys) == len(hit)
                for off in (0, len(keys) // 2, len(keys) - 1):
                    assert int(keys[off]) == mix(seed, lo + off)

    def test_ffiid_hashes_each_site_once(self, monkeypatch):
        # on sparse zero fields the lookback often grows past what _field
        # hashed; it must hash only the sites past _field's left end
        from mallows_coloring import sampler
        ranges = []
        hash_ = sampler._hash

        def recording(seed, stream, p, lo, hi):
            ranges.append((lo, hi))
            return hash_(seed, stream, p, lo, hi)
        monkeypatch.setattr(sampler, "_hash", recording)
        grown = 0
        for (q, t), seed in itertools.product(
                ((5, 0.97), (5, 0.995), (3, 0.99)), range(30)):
            ranges.clear()
            ffiid_detail(q, 1, 40, seed, t=t)
            sites = np.concatenate([np.arange(lo, hi + 1) for lo, hi in ranges])
            assert len(np.unique(sites)) == len(sites), (q, t, seed, ranges)
            grown += len(ranges) > 1
        assert grown > 30

    def test_splits_over_many_gaps(self):
        # random code fields with blocks of widths 1, 2 and wide ones, each
        # gap split at its leftmost least entry: every level matches a
        # recursive per-gap Cartesian tree of the decrement oracle's
        # arrival times, and so does ffiid's split at the least place in
        # _arrival's order
        from mallows_coloring.sampler import _splits
        empty = np.zeros(0, dtype=np.int64)
        levels = list(_splits(empty, empty, None))
        assert len(levels) == 1 and all(len(a) == 0 for a in levels[0])
        rng = np.random.default_rng(7)
        for _ in range(20):
            field = [0]
            for _ in range(int(rng.integers(1, 60))):
                g = int(rng.choice([0, 1, rng.geometric(0.15) + 1]))
                field += [int(rng.integers(1, 2 * (g - off) + 3))
                          for off in range(g)] + [0]
            levels, _ = _leftmost_least_levels(field)
            assert levels == _decrement_tree_levels(field)
            assert _leftmost_least_levels(field, _arrival_first)[0] == levels
            sites = [v for level in levels for v, _, _ in level]
            assert sorted(sites) == np.flatnonzero(field).tolist()

    def test_splits_refuse_a_site_outside_its_gap(self):
        # a first(lo, hi) naming a site outside its gap never shrinks the
        # gap, so the walk would run without end; it must raise before it
        # has yielded more levels than the gaps span sites
        from mallows_coloring.sampler import _splits
        lo, hi = np.array([0, 6, 40]), np.array([6, 30, 43])
        for bad in (lambda lo, hi: lo, lambda lo, hi: hi,
                    lambda lo, hi: lo - 1, lambda lo, hi: hi + 3):
            start = time.perf_counter()
            with pytest.raises(RuntimeError, match="outside its gap"):
                for level, _ in enumerate(_splits(lo, hi, bad)):
                    assert level <= 43, "the walk ran on"
            assert time.perf_counter() - start < 1.0

    def test_leftmost_least_entry_arrives_first(self):
        # the lemma lehmer and gamma_from_lehmer stand on: in every gap of
        # a block's Cartesian tree the first arrival is the leftmost least
        # entry.  All 7,704 blocks of m = 1..5 interior sites with entry i
        # in 1..m+4-i (two past m+2-i), then 4,000 random blocks of up to
        # 40 interior sites with some entries near 2^40, which take the
        # int64 key
        blocks = [inner for m in range(1, 6)
                  for inner in itertools.product(*(range(1, m + 5 - i)
                                                   for i in range(1, m + 1)))]
        assert len(blocks) == 7704
        field = [0] + [x for inner in blocks for x in inner + (0,)]
        levels, dtype = _leftmost_least_levels(field)
        assert dtype == np.int32
        assert levels == _decrement_tree_levels(field)
        assert _leftmost_least_levels(field, _arrival_first)[0] == levels
        rng = np.random.default_rng(20)
        field = [0]
        for _ in range(4000):
            g = int(rng.integers(0, 41))
            for off in range(1, g + 1):
                field.append(int(rng.integers(1, 2 * (g + 1 - off) + 3)))
                if rng.random() < 0.05:
                    field[-1] += 2**40 - int(rng.integers(0, 3))
            field.append(0)
        levels, dtype = _leftmost_least_levels(field)
        assert dtype == np.int64
        assert levels == _decrement_tree_levels(field)
        assert _leftmost_least_levels(field, _arrival_first)[0] == levels

    def test_key_width_follows_the_largest_entry(self):
        # the keys pack each entry above b = n.bit_length() index bits: the
        # largest entry that fits an int32 key keeps it, one past takes an
        # int64 key, and an entry past the int64 key raises, never wraps
        n = 13
        b = n.bit_length()
        for top, dtype in ((2**(31 - b) - 1, np.int32),
                           (2**(31 - b), np.int64),
                           (2**(63 - b) - 1, np.int64)):
            field = [0, top, 1, top, 0, 2, top, top, 1, 0, top, 3, 0]
            assert len(field) == n
            levels, got = _leftmost_least_levels(field)
            assert got == dtype, top
            assert levels == _decrement_tree_levels(field), top
            arcs = {(lo, hi) for level in levels for _, lo, hi in level}
            arcs.update((i, i + 1) for i in range(n - 1))
            assert gamma_from_lehmer(field, 0).arcs == arcs, top
        for field in ([0, 2**61, 0], [0, 1, 2**63 - 1, 0],
                      [0, 1, 0, 2**(63 - b), 2, 0, 0, 0, 0, 0, 0, 0, 0]):
            with pytest.raises(RuntimeError, match="degenerate"):
                gamma_from_lehmer(field, 0)

    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    def test_extension_invariance_on_sparse_fields(self, fn):
        # at t = 0.97 anchors and zeros are some 25 sites apart, so window
        # ends and the ffiid lookback often reach past the hashed margin; at
        # t = 0.995 some 150, so a side grows by several doublings
        for t, seed in itertools.product((0.97, 0.995), range(6)):
            full = fn(5, 1, 400, seed, t=t)
            for m in (1, 30, 399):
                part = fn(5, 1, m, seed, t=t)
                assert (part.colors == full.colors[:m]).all()
                assert (part.endpoint_mask == full.endpoint_mask[:m]).all()
                if full.radii is not None:
                    assert (part.radii == full.radii[:m]).all()

    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    def test_extension_past_the_cap_raises(self, fn, monkeypatch):
        # anchors and zeros some 1500 sites apart: the nearest ones lie
        # past a cap of 100 sites
        from mallows_coloring import sampler
        monkeypatch.setattr(sampler, "EXTENSION_CAP", 100)
        for seed in range(3):
            with pytest.raises(RuntimeError):
                fn(5, 1, 1, seed, t=0.9995)

    @pytest.mark.parametrize("fn,args,t", [
        (ffiid_sample, (4, 2, 5, 3), 0.999999),
        (lehmer_pipeline_sample, (4, 2, 5, 1), 0.99999)])
    def test_arrival_work_past_the_cap_raises(self, fn, args, t):
        # a short window inside one block of some 10^5 sites or more: the
        # per-cycle arrival loop would run for minutes, so it refuses first
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="degenerate"):
            fn(*args, t=t)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("q,t", [(5, 0.97), (3, 0.99), (6, 0.97)])
    def test_lookback_matches_scalar_walk(self, q, t):
        # the zero-site walk of the finitary factor, one site at a time:
        # hops back to the first zero whose first candidate escapes its
        # predecessor's pair; sparse zeros take it past the hashed margin
        from mallows_coloring import sampler
        from mallows_coloring.streams import u01
        p_zero = sampler._zero_field_params(q, t)

        def pair(seed, site):
            r = int(u01(seed, site, sampler.S_FFIID_Z) * (q * (q - 1)))
            first, second = r // (q - 1) + 1, r % (q - 1) + 1
            return first, second + (second >= first)

        def hops(seed, cur):
            n = 0
            while True:
                prev = cur - 1
                while u01(seed, prev, sampler.S_FFIID_ZERO) >= p_zero:
                    prev -= 1
                if pair(seed, cur)[0] not in pair(seed, prev):
                    return n
                cur, n = prev, n + 1
        for seed in range(200):
            _, extras = ffiid_detail(q, 1, 40, seed, t=t)
            for site, n in zip(extras["zeros"][:2].tolist(),
                               extras["hops"][:2].tolist()):
                assert n == hops(seed, site)


class TestPipelines:
    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    def test_deterministic(self, fn):
        a = fn(5, 1, 300, seed=42)
        b = fn(5, 1, 300, seed=42)
        assert (a.colors == b.colors).all()
        assert (a.endpoint_mask == b.endpoint_mask).all()
        c = fn(5, 1, 300, seed=43)
        assert (a.colors != c.colors).any()

    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    @pytest.mark.parametrize("k,q", [(1, 5), (2, 4), (3, 3)])
    def test_output_is_proper_with_valid_mask(self, fn, k, q):
        s = fn(q, k, 2000, seed=9)
        assert len(s) == 2000
        assert s.colors.min() >= 1 and s.colors.max() <= q
        assert (s.colors[1:] != s.colors[:-1]).all()
        marked = s.colors[s.endpoint_mask]
        assert (marked[1:] != marked[:-1]).all()

    def test_rejects_inadmissible(self):
        with pytest.raises(NoSolutionError):
            painting_sample(4, 1, 10, seed=0)

    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    def test_colors_up_to_the_uint8_limit(self, fn):
        s = fn(255, 1, 5000, seed=2)
        assert s.colors.min() >= 1 and s.colors.max() <= 255
        assert (s.colors[1:] != s.colors[:-1]).all()
        marked = s.colors[s.endpoint_mask]
        assert (marked[1:] != marked[:-1]).all()
        with pytest.raises(ValueError, match="uint8"):
            fn(256, 1, 10, seed=0)

    def test_anchor_density(self):
        # anchors sit at the code-field zero density (q-1)(1-t)/(q-1-t)
        q, k = 5, 1
        t, s = tuned_parameters(q, k)
        expect = (q - 1) * (1 - t) / (q - 1 - t)
        assert abs(expect - (1 - s)) < 1e-12
        n = 400_000
        for fn in (painting_sample, lehmer_pipeline_sample, ffiid_sample):
            samp = fn(q, k, n, seed=11)
            dens = samp.endpoint_mask.mean()
            assert abs(dens - expect) < 4 * math.sqrt(expect * (1 - expect) / n)

    @pytest.mark.parametrize("fn", [painting_sample, lehmer_pipeline_sample,
                                    ffiid_sample])
    @pytest.mark.parametrize("k,q", [(1, 5), (2, 4), (3, 3)])
    def test_extension_invariance(self, fn, k, q):
        # growing the window never changes the sites already drawn
        n = 300
        for seed in (0, 1, 2):
            full = fn(q, k, n, seed)
            for m in (1, 2, 17, n - 1):
                part = fn(q, k, m, seed)
                assert (part.colors == full.colors[:m]).all()
                assert (part.endpoint_mask == full.endpoint_mask[:m]).all()
                if full.radii is None:
                    assert part.radii is None
                else:
                    assert (part.radii == full.radii[:m]).all()

    def test_single_site_window(self):
        s = painting_sample(5, 1, 1, seed=3)
        assert len(s) == 1

    def test_sample_validation(self):
        params = SampleParams(5, 1, 0.38, 0.32)
        with pytest.raises(ValueError):
            ColoringSample(0, np.array([1, 1, 2]), params, 0)
        with pytest.raises(ValueError):
            ColoringSample(0, np.array([1, 2, 6]), params, 0)
        with pytest.raises(ValueError):
            ColoringSample(0, np.array([1, 2, 1]), params, 0,
                           endpoint_mask=np.array([True, False, True]))
        # masks at the edges: none marked, all marked on a proper word, a
        # one-site window, and a mask one site short
        word = np.array([1, 2, 1, 3])
        ColoringSample(0, word, params, 0, endpoint_mask=np.zeros(4, bool))
        ColoringSample(0, word, params, 0, endpoint_mask=np.ones(4, bool))
        for mask in (np.zeros(1, bool), np.ones(1, bool)):
            sample = ColoringSample(0, np.array([4]), params, 0,
                                    endpoint_mask=mask)
            assert sample.endpoint_mask.tolist() == mask.tolist()
        with pytest.raises(ValueError):
            ColoringSample(0, word, params, 0, endpoint_mask=np.ones(3, bool))

    def test_pipelines_agree_two_sample(self, pipeline_runs):
        # pairwise agreement of 2- and 3-cylinder frequencies at a million
        # independent windows per pipeline, all three parameter pairs
        from mallows_coloring.verify import (estimate_cylinders,
                                             two_sample_chi_square)
        runs, _ = pipeline_runs
        for k, q in ((1, 5), (2, 4), (3, 3)):
            tables = {name: estimate_cylinders(runs[(name, k, q)], 3)
                      for name in ("painting", "lehmer", "ffiid")}
            for m in (2, 3):
                for a, b in (("painting", "lehmer"), ("lehmer", "ffiid"),
                             ("painting", "ffiid")):
                    rep = two_sample_chi_square(tables[a][m], tables[b][m])
                    assert rep.sample_size >= 2_000_000
                    assert rep.passed, (k, q, m, a, b, rep)


class TestFfiidInternals:
    def test_radii_present_and_deterministic(self):
        a = ffiid_sample(5, 1, 500, seed=12)
        b = ffiid_sample(5, 1, 500, seed=12)
        assert a.radii is not None and (a.radii == b.radii).all()
        assert a.radii.min() >= 0

    def test_lookback_law(self):
        # P(hops >= n) = (2/q)^n
        _, extras = ffiid_detail(5, 1, 300_000, seed=13)
        hops = extras["hops"]
        n = len(hops)
        for j in (1, 2, 3, 4):
            p = (2 / 5) ** j
            emp = (hops >= j).mean()
            assert abs(emp - p) < 4 * math.sqrt(p * (1 - p) / n)

    @pytest.mark.parametrize("q,k,t", [(5, 1, None), (4, 2, None),
                                       (3, 3, None), (6, 1, None),
                                       (5, 1, 0.97), (5, 1, 0.995)])
    def test_radii_match_scalar_reference(self, q, k, t):
        # one site at a time: a the last zero at or before site i, b the
        # next zero after it, R the reset site of a (walking back through
        # the zero set, the first zero whose first candidate escapes its
        # predecessor's pair); the radius is a - R at a zero and
        # max(i - R, b - i) elsewhere.  Sparse t makes the lookback grow.
        from mallows_coloring import sampler
        from mallows_coloring.streams import u01
        tv = tuned_parameters(q, k)[0] if t is None else t
        p_zero = sampler._zero_field_params(q, tv)
        ends = Counter()
        for seed in range(12):
            @functools.lru_cache(maxsize=None)
            def zero(site):
                return u01(seed, site, sampler.S_FFIID_ZERO) < p_zero

            def pair(site):
                r = int(u01(seed, site, sampler.S_FFIID_Z) * (q * (q - 1)))
                first, second = r // (q - 1) + 1, r % (q - 1) + 1
                return first, second + (second >= first)

            def step(site, by):
                site += by
                while not zero(site):
                    site += by
                return site

            def reset(a):
                while pair(a)[0] in pair(step(a, -1)):
                    a = step(a, -1)
                return a
            for length in (1, 2, 3, 40):
                want = []
                for i in range(length):
                    if zero(i):
                        want.append(i - reset(i))
                    else:
                        want.append(max(i - reset(step(i, -1)),
                                        step(i, 1) - i))
                sample = ffiid_sample(q, k, length, seed, t=t)
                assert sample.radii.tolist() == want, (seed, length)
                ends["first"] += zero(0)
                ends["last"] += zero(length - 1)
        if t is None:
            assert ends["first"] and ends["last"]

    def test_lookback_and_forward_pass_share_one_pair_rule(self, monkeypatch):
        # at q = 6, u = 0.7 gives the pair (5, 2) from u (q (q - 1)) = 21.0
        # but (5, 1) from (u q)(q - 1) = 20.999...  With it on the zero
        # before the window's left anchor and u = 0.2, pair (2, 3), on the
        # anchor, the anchor does not escape: the zero colors, hops and
        # radii follow the scalar walk back past it
        from mallows_coloring import sampler
        from mallows_coloring.streams import u01
        q, k, length = 6, 1, 12
        assert int(0.7 * q * (q - 1)) != int(0.7 * (q * (q - 1)))
        p_zero = sampler._zero_field_params(q, tuned_parameters(q, k)[0])
        real = sampler.u01_array
        for seed in range(20):
            @functools.lru_cache(maxsize=None)
            def zero(site):
                return u01(seed, site, sampler.S_FFIID_ZERO) < p_zero

            def step(site, by):
                site += by
                while not zero(site):
                    site += by
                return site
            anchor = 0 if zero(0) else step(0, -1)
            fixed = {anchor: 0.2, step(anchor, -1): 0.7}

            def pair(site):
                u = fixed.get(site, u01(seed, site, sampler.S_FFIID_Z))
                r = int(u * (q * (q - 1)))
                first, second = r // (q - 1) + 1, r % (q - 1) + 1
                return first, second + (second >= first)

            def walk(a):
                # (reset site, hops) of zero a
                n = 0
                while pair(a)[0] in pair(step(a, -1)):
                    a, n = step(a, -1), n + 1
                return a, n

            def color(a):
                site = walk(a)[0]
                c = pair(site)[0]
                while site < a:
                    site = step(site, 1)
                    first, second = pair(site)
                    c = second if first == c else first
                return c

            def patched(s, words, stream):
                u = real(s, words, stream)
                for site, v in fixed.items():
                    u[words == site] = v
                return u
            monkeypatch.setattr(sampler, "u01_array", patched)
            try:
                sample, extras = ffiid_detail(q, k, length, seed)
            finally:
                monkeypatch.undo()
            assert walk(anchor)[0] < anchor
            zs = extras["zeros"].tolist()
            assert extras["hops"].tolist() == [walk(a)[1] for a in zs]
            assert sample.colors[zs].tolist() == [color(a) for a in zs]
            want = []
            for i in range(length):
                if zero(i):
                    want.append(i - walk(i)[0])
                else:
                    want.append(max(i - walk(step(i, -1))[0], step(i, 1) - i))
            assert sample.radii.tolist() == want, seed

    @pytest.mark.parametrize("q", [3, 4, 5, 255])
    def test_pair_tables_match_scalar_rule(self, q):
        from mallows_coloring.sampler import _pair_tables
        first, second = _pair_tables(q)
        assert first.dtype == second.dtype == np.uint8
        assert len(first) == len(second) == q * (q - 1)
        got = list(zip(first.tolist(), second.tolist()))
        want = []
        for r in range(q * (q - 1)):
            f, s = r // (q - 1) + 1, r % (q - 1) + 1
            want.append((f, s + (s >= f)))
        assert got == want

    @pytest.mark.xfail(strict=True,
                       reason="item 11: left reach stops at the resolving zero")
    def test_color_depends_only_on_sites_within_radius(self, monkeypatch):
        # re-key the zero sites' pair uniforms left of i - r_i with another
        # seed: the color at i must not change.  The escape test that makes
        # a zero resolving reads the pair of the zero before it, which lies
        # left of that reach.
        from mallows_coloring import sampler
        real = sampler.u01_array
        changed = []
        for (q, k), seed in itertools.product(((5, 1), (4, 2), (3, 3)),
                                              range(2)):
            base = ffiid_sample(q, k, 120, seed)
            for i in range(40, 80):
                reach = i - int(base.radii[i])

                def rekeyed(s, words, stream, reach=reach):
                    u = real(s, words, stream)
                    far = (words < reach).nonzero()[0]
                    u[far] = real(s + 1, words[far], stream)
                    return u
                monkeypatch.setattr(sampler, "u01_array", rekeyed)
                try:
                    color = ffiid_sample(q, k, 120, seed).colors[i]
                finally:
                    monkeypatch.undo()
                if color != base.colors[i]:
                    changed.append((q, k, seed, i))
        assert not changed

    def test_radius_dominates_gap_geometry(self):
        sample, extras = ffiid_detail(5, 1, 5000, seed=14)
        entries = extras["entries"]
        zeros = np.flatnonzero(entries == 0)
        # at interior sites the radius reaches at least the next zero
        for i in range(int(zeros[0]), int(zeros[-1])):
            if entries[i] != 0:
                nxt = zeros[np.searchsorted(zeros, i)]
                assert sample.radii[i] >= nxt - i


class TestMemory:
    @pytest.mark.parametrize("fn,bound", [(painting_sample, 32),
                                          (lehmer_pipeline_sample, 48),
                                          (ffiid_sample, 57)])
    def test_peak_bytes_per_site(self, fn, bound):
        # the tracemalloc peak per returned site at (3,3) and 20,000 sites,
        # as the benchmark's memory pass measures it (about 29, 37 and 54;
        # ffiid read 116 while its lookback and radii built site-length
        # int64 arrays)
        length = 20_000
        fn(3, 3, 32, 0)  # tuned root and lookup tables, cached once
        peaks = []
        for seed in (1, 2, 3):
            tracemalloc.start()
            try:
                fn(3, 3, length, seed)
                peaks.append(tracemalloc.get_traced_memory()[1] / length)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= bound, peaks


class TestCodingConvergence:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_origin_marginal_matches_insertion_decode(self, n):
        # the backward walk over insertion-code entries against every
        # permutation of [-n, n] weighted u^founders t^inv, read at the
        # origin's Lehmer entry
        t, u = Fraction(3, 5), Fraction(4, 3)
        mass = [Fraction(0)] * (n + 1)
        for sigma in all_perms(-n, 2 * n + 1):
            weight = u ** len(founders(sigma)) * t ** sigma.inv_count()
            mass[lehmer_code(sigma).entries[n]] += weight
        total = sum(mass)
        assert origin_entry_law(n, t, u) == [m / total for m in mass]

    def test_origin_marginal_matches_limit_law(self):
        # the law at [-n, n] dominates the limit's pmf at every j <= n, so
        # its total-variation distance to the limit is exactly the limit's
        # mass above n
        for t, u in itertools.product(
                (Fraction(2, 5), Fraction(2584, 6765), Fraction(3, 5),
                 Fraction(1, 10)),
                (Fraction(4, 3), Fraction(3, 2), Fraction(2))):
            limit = dist.GeomSpec(dist.GeomVariant.ZERO_WEIGHTED_INFINITE,
                                  t, u)
            for n in range(12):
                law = origin_entry_law(n, t, u)
                assert sum(law) == 1
                tail = 1 - dist.cdf(limit, n)
                gaps = sum(abs(p - dist.pmf(limit, j))
                           for j, p in enumerate(law))
                assert (gaps + tail) / 2 == tail


class TestMarkovStates:
    def test_projection_reproduces_colors(self):
        sample, entries = lehmer_pipeline_detail(5, 1, 400, seed=16)
        sites, ids, offsets, contents = markov_states(sample, entries)
        assert len(sites) > 0
        colors = [contents[i][1][off] for i, off in zip(ids, offsets)]
        assert colors == sample.colors[sites - sample.start].tolist()

    def test_adjacent_zeros_give_unit_state(self):
        sample, entries = lehmer_pipeline_detail(5, 1, 400, seed=17)
        zeros = np.flatnonzero(np.asarray(entries) == 0)
        pairs = [(a, b) for a, b in zip(zeros, zeros[1:]) if b == a + 1]
        assert pairs, "no adjacent zero pair in this window"
        sites, ids, offsets, contents = markov_states(sample, entries)
        for a, _ in pairs[:5]:
            j = int(np.searchsorted(sites, sample.start + a))
            assert offsets[j] == 0
            graph = contents[ids[j]][0]
            assert graph.n == 2
            assert graph.arcs == frozenset({(0, 1)})

    def test_rejects_boundary_sites(self):
        # the states run from the first zero to the site before the last
        sample, entries = lehmer_pipeline_detail(5, 1, 400, seed=18)
        zeros = np.flatnonzero(np.asarray(entries) == 0)
        sites = markov_states(sample, entries)[0]
        assert sites.tolist() == list(range(sample.start + zeros[0],
                                            sample.start + zeros[-1]))

    def test_state_key_hashable(self):
        # two blocks share an id if and only if their colors and arcs agree
        sample, entries = lehmer_pipeline_detail(3, 3, 300, seed=19)
        sites, ids, offsets, contents = markov_states(sample, entries)
        zeros = np.flatnonzero(np.asarray(entries) == 0)
        graph = gamma_from_lehmer(entries[zeros[0]:zeros[-1] + 1],
                                  int(zeros[0]))
        block_ids = ids[offsets == 0].tolist()
        keys = []
        for a, b in zip(zeros.tolist(), zeros[1:].tolist()):
            arcs = frozenset((i - a, j - a) for i, j in graph.arcs
                             if a <= i and j <= b)
            keys.append((tuple(sample.colors[a:b + 1].tolist()), arcs))
        pairs = set(zip(keys, block_ids))
        assert len(pairs) == len(set(keys)) == len(set(block_ids)) > 1
        assert len(contents) == len(pairs)
        for key, i in zip(keys, block_ids):
            content_graph, content_colors = contents[i]
            assert key == (tuple(content_colors.tolist()), content_graph.arcs)

    def test_contents_are_proper_and_offsets_inside_blocks(self):
        # what each state checked of itself: its colors properly color its
        # graph, and the site lies in the block, left zero included
        for q, k, seed in ((5, 1, 16), (3, 3, 19)):
            sample, entries = lehmer_pipeline_detail(q, k, 2000, seed)
            sites, ids, offsets, contents = markov_states(sample, entries)
            for graph, colors in contents:
                assert len(colors) == graph.n
                assert all(colors[i] != colors[j] for i, j in graph.arcs)
            sizes = np.array([graph.n for graph, _ in contents])
            assert (offsets >= 0).all()
            assert (offsets < sizes[ids] - 1).all()

    def test_window_without_two_zeros_has_no_states(self):
        sample = lehmer_pipeline_sample(5, 1, 3, seed=0)
        for entries in ([1, 2, 1], [1, 0, 2]):
            sites, ids, offsets, contents = markov_states(sample, entries)
            assert len(sites) == len(ids) == len(offsets) == 0
            assert contents == []
        with pytest.raises(ValueError):
            markov_states(sample, [0, 0])


class TestEmpiricalSymmetries:
    def test_reversal_symmetry_of_windows(self):
        # each length-3 window and its reversal are equally frequent
        s = lehmer_pipeline_sample(5, 1, 2_000_000, seed=23)
        from mallows_coloring.verify import estimate_cylinders
        t3 = estimate_cylinders(s, 3)[3]
        stat, dof = 0.0, 0
        for w, c in t3.counts.items():
            r = w[::-1]
            if w < r:
                cr = t3.counts.get(r, 0)
                stat += (c - cr) ** 2 / (c + cr)
                dof += 1
        assert stats.chi2.sf(stat, dof) > 1e-3

    def test_color_symmetry_of_windows(self):
        # counts within a color-relabeling orbit are homogeneous
        s = painting_sample(5, 1, 2_000_000, seed=24)
        from mallows_coloring.verify import estimate_cylinders
        t3 = estimate_cylinders(s, 3)[3]
        orbits: dict[tuple, list[int]] = {}
        for w, c in t3.counts.items():
            pat = Word(1, w, 5).pattern()
            orbits.setdefault(pat, []).append(c)
        stat, dof = 0.0, 0
        for members in orbits.values():
            mean = sum(members) / len(members)
            stat += sum((c - mean) ** 2 / mean for c in members)
            dof += len(members) - 1
        assert stats.chi2.sf(stat, dof) > 1e-3

    def test_stationarity_across_offsets(self):
        # window laws at start offsets 0 and 17 agree
        from mallows_coloring.verify import count_windows, two_sample_chi_square
        s = ffiid_sample(5, 1, 2_000_000, seed=25)
        a = count_windows(s.colors, 5, 3, stride=40, offset=0)
        b = count_windows(s.colors, 5, 3, stride=40, offset=17)
        assert two_sample_chi_square(a, b).passed


class TestMarkovReturnTimes:
    def test_return_time_exponential_tail(self):
        from mallows_coloring.verify import tail_fit
        sample, entries = lehmer_pipeline_detail(5, 1, 1_000_000, seed=26)
        sites, ids, offsets, _ = markov_states(sample, entries)
        state = ids * (int(offsets.max()) + 1) + offsets
        values, counts = np.unique(state, return_counts=True)
        visits = sites[state == values[counts.argmax()]]
        gaps = Counter(np.diff(visits).tolist())
        fit = tail_fit(gaps, min_count=20)
        assert fit.slope < 0
        assert fit.r2 > 0.95


class TestOverrideParameter:
    def test_explicit_t_changes_law(self):
        a = painting_sample(5, 1, 1000, seed=30, t=0.5)
        assert abs(a.params.t - 0.5) < 1e-15
        with pytest.raises(ValueError):
            painting_sample(5, 1, 10, seed=0, t=1.5)

    def test_inadmissible_pair_allowed_with_override(self):
        s = painting_sample(4, 1, 200, seed=1, t=0.4)
        assert (s.colors[1:] != s.colors[:-1]).all()
