import itertools
from fractions import Fraction

import pytest

from mallows_coloring import building
from mallows_coloring.building import (CylinderProb, building_number,
                                       building_number_alt,
                                       building_number_brute,
                                       building_numbers_brute,
                                       converse_scan, cylinder_masses,
                                       cylinder_prob, defect_vanishes,
                                       k_dependence_defect, normalizer,
                                       star_sum, z_closed_form_defect)
from mallows_coloring.tpoly import (ONE, NoSolutionError, RatPoly, ZERO,
                                    poly_remainder, solve_tuning, t_factorial,
                                    t_int, tuning_poly)
from mallows_coloring.words import Word


def w(text, q=5):
    return Word.from_string(text, q)


def poly(*coeffs):
    return RatPoly(tuple(Fraction(c) for c in coeffs))


def all_words(q, n, start=1):
    for chars in itertools.product(range(1, q + 1), repeat=n):
        yield Word(start, chars, q)


class TestBuildingNumber:
    def test_empty_word(self):
        assert building_number(Word(1, (), 5)) == ONE

    def test_repeated_pair_vanishes(self):
        assert building_number(w("11")) == ZERO

    def test_proper_pair(self):
        assert building_number(w("12")) == poly(1, 1)

    def test_aba(self):
        assert building_number(w("121")) == poly(1, 1, 1, 1)

    def test_rainbow_is_t_factorial(self):
        assert building_number_brute(w("123")) == t_factorial(3)
        assert building_number(w("1234")) == t_factorial(4)

    def test_brute_agrees_on_1212(self):
        assert building_number(w("1212")) == building_number_brute(w("1212"))

    def test_depends_only_on_pattern(self):
        assert building_number(w("232", 3)) == building_number(w("121"))

    def test_brute_cap(self):
        with pytest.raises(ValueError):
            building_number_brute(Word(1, (1, 2) * 4, 5))

    def test_brute_off_origin_start(self):
        # the builders of a word depend on its characters, not on where
        # its interval starts
        for start in (-3, 0, 7):
            for text in ("121", "1213", "12", "11", ""):
                word = Word(start, tuple(int(c) for c in text), 3)
                assert building_number_brute(word) == building_number(word)
        assert building_number_brute(Word(5, (1, 2, 1), 3)) == poly(1, 1, 1, 1)

    def test_clear_caches_empties_permutation_list(self):
        building_number_brute(w("1213"))
        assert building._perms_with_inversions.cache_info().currsize > 0
        building.clear_caches()
        assert building._perms_with_inversions.cache_info().currsize == 0
        # the benchmark empties every module-level cache_clear it finds
        assert callable(vars(building)["_perms_with_inversions"].cache_clear)

    def test_oracle_equivalence_short(self):
        for q in (3, 5):
            for n in range(6):
                for word in all_words(q, n):
                    assert building_number(word) == building_number_brute(word)

    def test_batched_oracle_equals_scalar_oracle(self):
        for q in (3, 4):
            for n in range(6):
                batch = building_numbers_brute(q, n)
                assert len(batch) == q**n
                assert batch == [building_number_brute(word)
                                 for word in all_words(q, n)]
        assert building_numbers_brute(5, 0) == [ONE]

    def test_batched_oracle_cap(self):
        with pytest.raises(ValueError):
            building_numbers_brute(3, 8)
        with pytest.raises(ValueError):  # 127^7 words: refused before any array
            building_numbers_brute(127, 7)
        with pytest.raises(ValueError):
            building_numbers_brute(6, 7)
        with pytest.raises(ValueError):
            building_numbers_brute(128, 1)

    def test_alt_recurrence_agrees(self):
        # the signed variant is an independent implementation; equality on
        # every word of length up to 6
        for q in (3, 4):
            for n in range(7):
                for word in all_words(q, n):
                    assert building_number(word) == building_number_alt(word)


class TestNormalizer:
    def test_small_values(self):
        assert normalizer(5, 0) == ONE
        assert normalizer(5, 1) == poly(5)
        assert normalizer(5, 2) == 20 * t_int(2)

    def test_equals_total_building_mass(self):
        for q in (3, 4, 5):
            for n in range(5):
                total = ZERO
                for word in all_words(q, n):
                    total = total + building_number(word)
                assert total == normalizer(q, n)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            normalizer(2, 3)
        with pytest.raises(ValueError):
            normalizer(5, -1)


class TestConsistency:
    def test_prepend_matches_append(self):
        q = 4
        for n in range(5):
            for word in all_words(q, n):
                ap = ZERO
                pre = ZERO
                for a in range(1, q + 1):
                    ap = ap + building_number(word.append(a))
                    pre = pre + building_number(word.prepend(a))
                assert ap == pre


class TestCylinderProb:
    def test_wrong_value_rejected(self):
        root = solve_tuning(5, 1)
        assert not cylinder_prob(w("121"), root).equals_fraction(Fraction(1, 99))

    def test_alphabet_mismatch(self):
        root = solve_tuning(5, 1)
        with pytest.raises(ValueError):
            cylinder_prob(w("121", 4), root)

    def test_rational_parameter_evaluation(self):
        prob = cylinder_prob(w("12", 3), Fraction(1, 2))
        assert prob.value_at(Fraction(1, 2)) == Fraction(1, 6)

    def test_masses_sum_to_one(self):
        root = solve_tuning(4, 2)
        for n in (1, 2, 3):
            masses = cylinder_masses(4, n, root)
            assert sum(masses.values()) == 1
            assert all(len(k) == n for k in masses)

    def test_decimal_value(self):
        root = solve_tuning(5, 1)
        assert abs(cylinder_prob(w("121"), root).to_float() - 0.01) < 1e-12


class TestKDependence:
    def test_empty_words_vanish_identically(self):
        e = k_dependence_defect(Word(1, (), 5), Word(1, (), 5), 5, 1)
        assert e == ZERO

    def test_worked_example(self):
        e = k_dependence_defect(w("1"), w("2"), 5, 1)
        assert e == 2 * t_int(3) * tuning_poly(5, 1)
        assert poly_remainder(e, tuning_poly(5, 1)) == ZERO

    def test_equal_singletons(self):
        e = k_dependence_defect(w("1"), w("1"), 5, 1)
        assert poly_remainder(e, tuning_poly(5, 1)) == ZERO

    def test_star_sum_matches_definition(self):
        total = star_sum(w("1"), w("2"), 5, 1)
        expect = ZERO
        for a in range(1, 6):
            expect = expect + building_number(Word(1, (1, a, 2), 5))
        assert total == expect

    @pytest.mark.parametrize("k,q", [(1, 5), (2, 4), (3, 3)])
    def test_defect_reduces_to_zero_short(self, k, q):
        root = solve_tuning(q, k)
        for m in range(3):
            for n in range(3 - m):
                for x in all_words(q, m):
                    for y in all_words(q, n):
                        e = k_dependence_defect(x, y, q, k)
                        assert poly_remainder(e, root.poly).is_zero()
                        assert defect_vanishes(e, root)


class TestZClosedForm:
    def test_zero_length_identity(self):
        assert z_closed_form_defect(5, 1, 0) == ZERO

    def test_5_1_2_explicit(self):
        defect = z_closed_form_defect(5, 1, 2)
        assert poly_remainder(defect, tuning_poly(5, 1)) == ZERO
        assert defect == -5 * t_int(2) * poly(1, -3, 1)

    @pytest.mark.parametrize("k,q", [(1, 5), (2, 4), (3, 3)])
    def test_reduces_to_zero(self, k, q):
        root = solve_tuning(q, k)
        for n in range(6):
            assert defect_vanishes(z_closed_form_defect(q, k, n), root)

    def test_rejects_inadmissible(self):
        with pytest.raises(NoSolutionError):
            z_closed_form_defect(4, 1, 2)


class TestConverseScan:
    def test_tuned_root_detected(self):
        root = solve_tuning(5, 1)
        assert converse_scan(5, root, 6) == [1]

    def test_tuned_root_4_2(self):
        assert converse_scan(4, solve_tuning(4, 2), 6) == [2]

    def test_tuned_root_3_3(self):
        assert converse_scan(3, solve_tuning(3, 3), 6) == [3]

    def test_rational_point_empty(self):
        assert converse_scan(5, Fraction(1, 2), 6) == []

    def test_at_most_one_hit_on_grid(self):
        for q in (3, 4, 5, 6):
            for num in range(1, 20):
                t = Fraction(num, 20)
                if 0 < t < 1:
                    assert len(converse_scan(q, t, 8)) <= 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            converse_scan(5, Fraction(3, 2), 4)


class TestDefectVanishes:
    @pytest.mark.parametrize("q,k", [(5, 1), (4, 2)])
    def test_tiny_offset_rejected(self, q, k):
        # the value at t* is 1e-40: nonzero, so the answer is no
        near = tuning_poly(5, 1) + Fraction(1, 10**40)
        assert not defect_vanishes(near, solve_tuning(q, k))

    def test_vanishes_through_a_factor(self):
        # p(5,1) divides p(4,2) = (1+t) p(5,1), so its remainder modulo
        # p(4,2) is itself, yet it vanishes at t(4,2)
        root = solve_tuning(4, 2)
        assert not poly_remainder(tuning_poly(5, 1), root.poly).is_zero()
        assert defect_vanishes(tuning_poly(5, 1), root)

    def test_other_factor_does_not_vanish(self):
        # the cofactor 1 + t of p(4,2) vanishes only at -1
        assert not defect_vanishes(t_int(2), solve_tuning(4, 2))


def test_cylinder_prob_denominator_guard():
    with pytest.raises(ValueError):
        CylinderProb(ONE, ZERO, None)
