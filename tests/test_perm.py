import itertools

import numpy as np
import pytest

from mallows_coloring.perm import (BRUTE_PERM_CAP, ConstraintGraph, LehmerSeq,
                                   Perm, all_perms, bubbles, color_count,
                                   color_count_brute, color_counts_brute,
                                   constraint_graph,
                                   decode_insertion, decode_lehmer,
                                   decrement_cycle_values, founders,
                                   insertion_code, is_proper_building,
                                   lehmer_code)
from mallows_coloring.words import Word

WIRE = Perm.from_one_line((6, 8, 7, 1, 9, 2, 4, 3, 5))  # one-line 687192435


class TestCodes:
    def test_identity_codes_are_zero(self):
        for n in (1, 3, 6):
            sigma = Perm.identity(1, n)
            assert all(e == 0 for e in lehmer_code(sigma).entries)
            assert all(e == 0 for e in insertion_code(sigma).entries)

    def test_wire_example_lehmer(self):
        code = lehmer_code(WIRE)
        assert code.entries == (5, 6, 5, 0, 4, 0, 1, 0, 0)
        assert code.entries[7 - 1] == 1
        assert sum(code.entries) == 21 == WIRE.inv_count()

    def test_wire_example_insertion(self):
        code = insertion_code(WIRE)
        assert code.entries[7 - 1] == 5
        assert sum(code.entries) == 21
        assert sorted(code.entries) == sorted(lehmer_code(WIRE).entries)

    def test_decode_wire(self):
        seq = LehmerSeq(1, (5, 6, 5, 0, 4, 0, 1, 0, 0), "lehmer")
        assert decode_lehmer(seq) == WIRE

    def test_decode_all_zero_is_identity(self):
        seq = LehmerSeq(3, (0, 0, 0, 0), "lehmer")
        assert decode_lehmer(seq) == Perm.identity(3, 4)
        seq = LehmerSeq(3, (0, 0, 0, 0), "insertion")
        assert decode_insertion(seq) == Perm.identity(3, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_roundtrip_all_sn(self, n):
        for sigma in all_perms(1, n):
            assert decode_lehmer(lehmer_code(sigma)) == sigma
            assert decode_insertion(insertion_code(sigma)) == sigma

    def test_roundtrip_s6(self):
        for sigma in all_perms(0, 6):
            assert decode_lehmer(lehmer_code(sigma)) == sigma
            assert decode_insertion(insertion_code(sigma)) == sigma

    def test_codes_cover_their_ranges(self):
        # insertion decode inverts encode on every admissible sequence
        for entries in itertools.product(*(range(off + 1) for off in range(4))):
            seq = LehmerSeq(1, entries, "insertion")
            assert insertion_code(decode_insertion(seq)) == seq
        for entries in itertools.product(*(range(4 - off) for off in range(4))):
            seq = LehmerSeq(1, entries, "lehmer")
            assert lehmer_code(decode_lehmer(seq)) == seq

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            LehmerSeq(1, (3, 0, 0), "insertion")  # first entry must be 0
        with pytest.raises(ValueError):
            LehmerSeq(1, (0, 0, 1), "lehmer")  # last entry must be 0

    def test_decode_matches_cycle_composition(self):
        # the classical decoders agree with the cyclic-decrement formula
        for sigma in all_perms(1, 5):
            lc = lehmer_code(sigma)
            vals = decrement_cycle_values(lc.entries, 1, "lehmer")
            assert tuple(vals) == sigma.image
            ic = insertion_code(sigma)
            vals = decrement_cycle_values(ic.entries, 1, "insertion")
            assert tuple(vals) == sigma.image


class TestFounders:
    def test_identity_all_founders(self):
        sigma = Perm.identity(1, 6)
        assert founders(sigma) == frozenset(range(1, 7))

    def test_wire_founders(self):
        assert founders(WIRE) == frozenset({1, 4, 6, 8, 9})

    def test_endpoints_always_founders(self):
        for sigma in all_perms(2, 5):
            f = founders(sigma)
            assert 2 in f and 6 in f

    def test_founder_count_from_insertion_code(self):
        # founders are counted by insertion entries hitting either bound
        for sigma in all_perms(1, 6):
            code = insertion_code(sigma).entries
            hits = sum(1 for off, e in enumerate(code) if e in (0, off))
            assert len(founders(sigma)) == hits

    def test_founders_equal_bubble_endpoints(self):
        for sigma in all_perms(1, 7):
            g = constraint_graph(sigma)
            assert sorted(founders(sigma)) == g.bubble_endpoints()


class TestConstraintGraph:
    def test_identity_is_path(self):
        g = constraint_graph(Perm.identity(1, 5))
        assert g.arcs == frozenset({(i, i + 1) for i in range(1, 5)})

    def test_reversal_is_path(self):
        sigma = Perm.from_one_line((5, 4, 3, 2, 1))
        g = constraint_graph(sigma)
        assert g.arcs == frozenset({(i, i + 1) for i in range(1, 5)})

    def test_wire_bubbles(self):
        g = constraint_graph(WIRE)
        assert bubbles(g) == [(1, 4), (4, 6), (6, 8), (8, 9)]

    def test_path_bubble_count(self):
        g = constraint_graph(Perm.identity(1, 6))
        assert len(bubbles(g)) == 5

    def test_single_bubble_construction(self):
        # left endpoint arrives first, right endpoint second: one bubble
        sigma = Perm.from_one_line((1, 3, 4, 5, 2))
        assert bubbles(constraint_graph(sigma)) == [(1, 5)]

    def test_triangle_from_132(self):
        g = constraint_graph(Perm.from_one_line((1, 3, 2)))
        assert g.arcs == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_arcs_never_cross(self):
        # exploratory: arcs of a constraint graph are nested, not crossing
        for sigma in all_perms(1, 6):
            arcs = sorted(constraint_graph(sigma).arcs)
            for (a, b), (c, d) in itertools.combinations(arcs, 2):
                assert not (a < c < b < d)

    def test_requires_consecutive_arcs(self):
        with pytest.raises(ValueError):
            ConstraintGraph(1, 3, frozenset({(1, 2)}))


class TestColorCount:
    def test_path(self):
        for n in (1, 2, 5):
            g = constraint_graph(Perm.identity(1, n))
            for q in (3, 5):
                assert color_count(g, q) == q * (q - 1) ** (n - 1)

    def test_two_vertices(self):
        g = constraint_graph(Perm.identity(1, 2))
        assert color_count(g, 7) == 42

    def test_wire_value(self):
        g = constraint_graph(WIRE)
        assert color_count(g, 5) == 103680

    def test_rejects_small_q(self):
        g = constraint_graph(Perm.identity(1, 3))
        with pytest.raises(ValueError):
            color_count(g, 2)

    def test_brute_path3(self):
        g = constraint_graph(Perm.identity(1, 3))
        assert color_count_brute(g, 3) == 12

    def test_brute_triangle(self):
        g = constraint_graph(Perm.from_one_line((1, 3, 2)))
        assert color_count_brute(g, 3) == 6

    def test_brute_wire(self):
        g = constraint_graph(WIRE)
        assert color_count_brute(g, 5) == 103680

    def test_brute_cap(self):
        g = constraint_graph(Perm.identity(1, 11))
        with pytest.raises(ValueError):
            color_count_brute(g, 3)

    def test_brute_matches_product_count(self):
        # every colouring of every permutation's graph, n <= 4, q in 3..5
        for n in range(1, 5):
            for sigma in all_perms(1, n):
                g = constraint_graph(sigma)
                arcs = [(i - 1, j - 1) for i, j in g.arcs]
                for q in (3, 4, 5):
                    proper = sum(
                        all(c[i] != c[j] for i, j in arcs)
                        for c in itertools.product(range(q), repeat=n))
                    assert color_count_brute(g, q) == proper

    def test_batched_brute_matches_scalar(self):
        # every permutation graph of S_1..S_6 at q = 3, 4, 5 in one call,
        # and graphs off the origin
        cases = [(constraint_graph(sigma), q) for n in range(1, 7)
                 for sigma in all_perms(1, n) for q in (3, 4, 5)]
        cases += [(constraint_graph(sigma), 4) for sigma in all_perms(3, 4)]
        assert (color_counts_brute(cases)
                == [color_count_brute(g, q) for g, q in cases])

    def test_batched_brute_cap(self):
        with pytest.raises(ValueError):  # 11 vertices
            color_counts_brute([(constraint_graph(Perm.identity(1, 11)), 3)])
        with pytest.raises(ValueError):  # 5^9 words
            color_counts_brute([(constraint_graph(WIRE), 5)])
        with pytest.raises(ValueError):  # 127^7 words: refused before any array
            color_counts_brute([(constraint_graph(Perm.identity(1, 7)), 127)])
        with pytest.raises(ValueError):
            color_counts_brute([(constraint_graph(Perm.identity(1, 1)), 128)])

    def test_formula_matches_brute_random(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            img = rng.permutation(n) + 1
            g = constraint_graph(Perm.from_one_line(img))
            q = int(rng.choice([3, 4, 5]))
            assert color_count(g, q) == color_count_brute(g, q)


class TestProperBuilding:
    def test_identity_builds_any_proper_word(self):
        w = Word.from_string("1213", 3)
        assert is_proper_building(Perm.identity(1, 4), w)

    def test_arrival_conflict(self):
        sigma = Perm.from_one_line((1, 3, 2))
        w = Word.from_string("121", 3)
        # at time 2 the arrived subword is the two equal outer characters
        assert not is_proper_building(sigma, w)

    def test_builders_of_121(self):
        w = Word.from_string("121", 3)
        builders = [s for s in all_perms(1, 3) if is_proper_building(s, w)]
        assert len(builders) == 4

    def test_interval_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_proper_building(Perm.identity(0, 3), Word.from_string("121", 3))

    def test_equivalent_to_graph_coloring(self):
        rng = np.random.default_rng(11)
        for sigma in all_perms(1, 6):
            g = constraint_graph(sigma)
            words = rng.integers(1, 4, size=(30, 6))
            for chars in words:
                w = Word(1, tuple(int(c) for c in chars), 3)
                proper = all(w.chars[i - 1] != w.chars[j - 1] for i, j in g.arcs)
                assert is_proper_building(sigma, w) == proper

    def test_nonproper_word_never_buildable(self):
        w = Word.from_string("1123", 3)
        assert not any(is_proper_building(s, w) for s in all_perms(1, 4))


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm(1, (1, 1, 3))
    with pytest.raises(ValueError):
        Perm(0, (1, 2, 3))
    assert all_perms(1, 3) is not None
    with pytest.raises(ValueError):
        list(all_perms(1, BRUTE_PERM_CAP + 1))


def test_perm_inverse_and_swap():
    sigma = Perm.from_one_line((2, 3, 1))
    assert sigma.inverse.image == (3, 1, 2)
    swapped = sigma.swap_times(2)
    assert swapped.image == (3, 2, 1)
