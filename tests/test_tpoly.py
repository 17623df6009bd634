import itertools
import math
import random
from fractions import Fraction

import pytest

from mallows_coloring import tpoly
from mallows_coloring.building import defect_vanishes
from mallows_coloring.tpoly import (ONE, AlgebraicT, NoSolutionError, RatPoly,
                                    T, ZERO, interval_enclosure,
                                    poly_remainder, solve_tuning, t_binomial,
                                    t_factorial, t_int, tuning_poly)


def poly(*coeffs):
    return RatPoly(tuple(Fraction(c) for c in coeffs))


class TestTInt:
    def test_zero_is_empty_sum(self):
        assert t_int(0) == ZERO

    def test_one(self):
        assert t_int(1) == ONE

    def test_three(self):
        assert t_int(3) == poly(1, 1, 1)

    def test_evaluates_to_n_at_one(self):
        assert t_int(3).evaluate(Fraction(1)) == 3


class TestTFactorial:
    def test_empty_product(self):
        assert t_factorial(0) == ONE

    def test_two(self):
        assert t_factorial(2) == poly(1, 1)

    def test_three(self):
        assert t_factorial(3) == poly(1, 2, 2, 1)

    def test_inversion_generating_function(self):
        # sum over S_n of t^inv equals the t-factorial
        for n in range(8):
            counts = [0] * (n * (n - 1) // 2 + 1)
            for sigma in itertools.permutations(range(n)):
                inv = sum(1 for i in range(n) for j in range(i + 1, n)
                          if sigma[i] > sigma[j])
                counts[inv] += 1
            assert RatPoly(tuple(Fraction(c) for c in counts)) == t_factorial(n)


class TestTBinomial:
    def test_basic(self):
        assert t_binomial(2, 1) == poly(1, 1)
        assert t_binomial(4, 2) == poly(1, 1, 2, 1, 1)

    def test_edge_is_one(self):
        for n in range(8):
            assert t_binomial(n, 0) == ONE
            assert t_binomial(n, n) == ONE

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            t_binomial(3, -1)
        with pytest.raises(ValueError):
            t_binomial(3, 4)

    def test_pascal_recurrence(self):
        for r in range(1, 13):
            for s in range(1, r + 1):
                lhs = t_binomial(r, s)
                rhs = (t_binomial(r - 1, s) if s <= r - 1 else ZERO) \
                    + T ** (r - s) * t_binomial(r - 1, s - 1)
                assert lhs == rhs


class TestTuningPoly:
    def test_5_1(self):
        assert tuning_poly(5, 1) == poly(-1, 3, -1)

    def test_4_2_factors(self):
        assert tuning_poly(4, 2) == poly(1, 1) * poly(-1, 3, -1)

    def test_value_at_one(self):
        for q in range(1, 10):
            for k in range(1, 6):
                assert tuning_poly(q, k).evaluate(Fraction(1)) \
                    == q * k - 2 * (k + 1)

    def test_order_one_to_order_two_shift(self):
        # multiplying the order-1 polynomial at q by (1+t) gives order 2 at q-1
        for q in range(4, 13):
            assert t_int(2) * tuning_poly(q, 1) == tuning_poly(q - 1, 2)

    def test_rational_evaluation(self):
        assert tuning_poly(3, 1).evaluate(Fraction(1, 2)) == Fraction(-3, 4)


class TestPolyRemainder:
    def test_self_is_zero(self):
        p = poly(-1, 3, -1)
        assert poly_remainder(p, p) == ZERO

    def test_multiple_reduces_to_zero(self):
        diff = 25 * t_int(3) - 20 * t_int(2) ** 2
        assert diff == 5 * poly(1, -3, 1)
        assert poly_remainder(diff, poly(1, -3, 1)) == ZERO

    def test_lower_degree_unchanged(self):
        a = poly(2, 7)
        assert poly_remainder(a, poly(1, 0, 1)) == a

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            poly_remainder(ONE, ZERO)

    def test_divmod_roundtrip(self):
        a = poly(3, -2, 0, 5, 1)
        p = poly(1, 1, 2)
        quot, rem = divmod(a, p)
        assert quot * p + rem == a
        assert rem.degree < p.degree


class TestSolveTuning:
    def test_3_3_value(self):
        # the root itself is certify.tuning_roots' (criterion 5)
        assert abs(solve_tuning(3, 3).to_float() - 0.5806918319929524) < 1e-12

    def test_rejects_inadmissible(self):
        for q, k in ((4, 1), (3, 1), (3, 2), (2, 5), (1, 1)):
            with pytest.raises(NoSolutionError):
                solve_tuning(q, k)

    def test_boundary_pair_rejected(self):
        # qk == 2(k+1) exactly
        with pytest.raises(NoSolutionError):
            solve_tuning(4, 1)
        with pytest.raises(NoSolutionError):
            solve_tuning(3, 2)

    def test_interval_invariants(self):
        root = solve_tuning(3, 4, Fraction(1, 10**12))
        assert 0 < root.lo < root.hi < 1
        assert root.hi - root.lo <= Fraction(1, 10**12)
        slo = root.poly.evaluate(root.lo)
        shi = root.poly.evaluate(root.hi)
        assert (slo < 0) != (shi < 0)

    def test_root_above_reciprocal_bound(self):
        # tuned parameter always exceeds 1/(q-1), checked at the low endpoint
        for q, k in ((5, 1), (4, 2), (3, 3), (6, 1), (3, 5), (7, 2)):
            root = solve_tuning(q, k)
            assert root.lo > Fraction(1, q - 1)

    def test_refine_halves_width(self):
        root = solve_tuning(5, 1, Fraction(1, 2**10))
        tighter = root.refine(Fraction(1, 2**40))
        assert tighter.hi - tighter.lo <= Fraction(1, 2**40)
        assert root.lo <= tighter.lo < tighter.hi <= root.hi
        # a string precision is read as solve_tuning reads it
        coarse = solve_tuning(5, 1, "1e-10")
        assert coarse.precision == Fraction(1, 10**10)
        assert coarse.refine("1e-20") == coarse.refine(Fraction(1, 10**20))

    def test_refine_continues_solve_bisection(self):
        # one bisection loop: refining a coarse bracket lands on the bracket
        # a direct solve at the finer precision returns
        for q, k in ((5, 1), (4, 2), (3, 3)):
            coarse = solve_tuning(q, k, Fraction(1, 2**10))
            fine = solve_tuning(q, k)
            assert coarse.refine(fine.precision) == fine

    def test_memo_returns_the_uncached_root(self):
        solve_tuning.cache_clear()
        for q, k in ((5, 1), (4, 2), (3, 3)):
            cold = solve_tuning(q, k)
            assert solve_tuning(q, k) is cold
            assert solve_tuning(q, k, "1e-30") == cold
            solve_tuning.cache_clear()
            assert solve_tuning(q, k) == cold
            assert tpoly._solve_tuning.__wrapped__(
                q, k, Fraction(1, 10**30)) == cold

    def test_memo_cleared_through_any_module_cache_clear(self, monkeypatch):
        # a cold start empties every cache_clear among a module's names;
        # the memo must go even when the public name is wrapped
        solve_tuning(5, 1)
        monkeypatch.setattr(tpoly, "solve_tuning",
                            lambda *args: solve_tuning(*args))
        for value in vars(tpoly).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
        assert tpoly._solve_tuning.cache_info().currsize == 0


def reference_bisect(p, lo, hi, precision):
    """The bracket a Fraction bisection with Horner evaluation reaches."""
    def value(x):
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    slo = value(lo)
    while hi - lo > precision or lo == 0 or hi == 1:
        mid = (lo + hi) / 2
        if (value(mid) < 0) == (slo < 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestIntegerBisection:
    PAIRS = ((5, 1), (4, 2), (3, 3), (3, 4), (7, 2), (10, 5))
    PRECISIONS = (Fraction(1, 2**10), Fraction(1, 10**15), Fraction(1, 10**30))

    @pytest.mark.parametrize("q,k", PAIRS)
    def test_solve_matches_fraction_bisection(self, q, k):
        p = tuning_poly(q, k)
        for precision in self.PRECISIONS:
            root = solve_tuning(q, k, precision)
            assert (root.lo, root.hi) == reference_bisect(
                p, Fraction(0), Fraction(1), precision)

    @pytest.mark.parametrize("q,k", PAIRS)
    def test_refine_matches_fraction_bisection(self, q, k):
        p = tuning_poly(q, k)
        coarse = solve_tuning(q, k, Fraction(1, 2**10))
        for precision in self.PRECISIONS[1:]:
            root = coarse.refine(precision)
            assert (root.lo, root.hi) == reference_bisect(
                p, coarse.lo, coarse.hi, precision)
        # a bracket whose endpoints are not dyadic
        fine = solve_tuning(q, k)
        lo = Fraction(math.floor(fine.lo * 999), 999)
        hi = Fraction(math.ceil(fine.hi * 999), 999)
        bracket = AlgebraicT(q, k, p, lo, hi, hi - lo)
        root = bracket.refine(Fraction(1, 10**30))
        assert (root.lo, root.hi) == reference_bisect(
            p, lo, hi, Fraction(1, 10**30))

    def test_sign_at_matches_evaluate(self):
        rng = random.Random(7)
        for _ in range(500):
            coeffs = [rng.choice((rng.randint(-9, 9),
                                  Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 12))))
                      for _ in range(rng.randint(0, 7))]
            p = RatPoly(tuple(coeffs))
            for x in (Fraction(rng.randint(-60, 60), rng.randint(1, 40)),
                      rng.randint(-3, 3)):
                value = p.evaluate(x)
                assert p.sign_at(x) == (value > 0) - (value < 0)

    def test_sign_at_exact_roots(self):
        third, minus_five_halves = Fraction(1, 3), Fraction(-5, 2)
        integral = poly(-1, 3) * poly(5, 2) * t_int(3)
        rational = poly(Fraction(-1, 3), 1) * poly(Fraction(5, 7), Fraction(2, 7))
        eps = Fraction(1, 10**40)
        # simple roots of the factors, double roots of the product
        for p, flips in ((integral, True), (rational, True),
                         (integral * rational, False)):
            for root in (third, minus_five_halves):
                assert p.evaluate(root) == 0
                assert p.sign_at(root) == 0
                assert (p.sign_at(root - eps) == -p.sign_at(root + eps)) == flips
        assert ZERO.sign_at(third) == 0

    def test_root_and_vanishing_checks_never_evaluate(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("evaluate called for a sign")

        monkeypatch.setattr(RatPoly, "evaluate", refuse)
        solve_tuning.cache_clear()
        root = solve_tuning(5, 1)
        p = tuning_poly(5, 1)
        assert defect_vanishes(t_int(3) * p, root)
        assert not defect_vanishes(t_int(3), root)
        assert defect_vanishes(tuning_poly(4, 2), root)
        solve_tuning.cache_clear()


class TestGcd:
    def test_common_factor_is_monic(self):
        a = poly(2, 4, 2)              # 2 (1+t)^2
        b = poly(3, 9, 6)              # 3 (1+t)(1+2t)
        assert a.gcd(b) == poly(1, 1)
        assert b.gcd(a) == poly(1, 1)

    def test_coprime_gives_one(self):
        assert tuning_poly(5, 1).gcd(tuning_poly(5, 1) + 1) == ONE

    def test_zero_operands(self):
        assert poly(4, -2).gcd(ZERO) == poly(-2, 1)
        assert ZERO.gcd(poly(3)) == ONE
        assert ZERO.gcd(ZERO) == ZERO

    def test_reducible_tuning_polynomial(self):
        # p(4,2) = (1+t) p(5,1), and p(5,1) is monic up to sign
        assert tuning_poly(4, 2).gcd(tuning_poly(5, 1)) == -tuning_poly(5, 1)


class TestAlgebraicT:
    def test_validates_sign_change(self):
        p = tuning_poly(5, 1)
        with pytest.raises(ValueError):
            AlgebraicT(5, 1, p, Fraction(1, 10), Fraction(2, 10), Fraction(1))

    def test_enclosure_contains_values(self):
        p = poly(-1, 3, -1)
        lo, hi = interval_enclosure(p, Fraction(1, 4), Fraction(1, 2))
        for x in (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
            assert lo <= p.evaluate(x) <= hi


class TestIntegerCoefficients:
    def test_integral_coefficients_are_ints(self):
        p = RatPoly((Fraction(4, 2), 3, Fraction(-6, 3)))
        assert p.coeffs == (2, 3, -2)
        assert all(type(c) is int for c in p.coeffs)
        for q, k in ((5, 1), (4, 2), (3, 3)):
            assert all(type(c) is int for c in tuning_poly(q, k).coeffs)
        assert all(type(c) is int for c in t_binomial(7, 3).coeffs)

    def test_non_integral_coefficients_stay_fractions(self):
        p = RatPoly((Fraction(1, 2), 1))
        assert p.coeffs == (Fraction(1, 2), 1)
        assert type(p.coeffs[0]) is Fraction and type(p.coeffs[1]) is int
        assert all(type(c) is int for c in (p * 2).coeffs)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError):
            RatPoly((0.5,))

    def test_divmod_by_non_unit_lead(self):
        a = poly(3, -2, 0, 5, 1)
        d = poly(1, 2)                 # 2t + 1
        quot, rem = divmod(a, d)
        assert any(type(c) is Fraction for c in quot.coeffs)
        assert quot * d + rem == a
        assert rem.degree < d.degree

    def test_divmod_by_tuning_polynomial_stays_integral(self):
        a = t_factorial(6) * 7 + poly(1, 0, 3)
        for q, k in ((5, 1), (4, 2), (3, 3)):
            p = tuning_poly(q, k)
            assert p.coeffs[-1] == -1
            quot, rem = divmod(a, p)
            assert all(type(c) is int for c in quot.coeffs + rem.coeffs)
            assert quot * p + rem == a

    def test_gcd_is_monic(self):
        for a, b in ((poly(2, 4, 2), poly(3, 9, 6)),
                     (poly(3, 5, 2), poly(3, 2)),
                     (tuning_poly(4, 2), 3 * tuning_poly(5, 1))):
            g = a.gcd(b)
            assert g.coeffs[-1] == 1 and type(g.coeffs[-1]) is int

    def test_evaluate_returns_fraction(self):
        half = Fraction(1, 2)
        for p in (ZERO, ONE, tuning_poly(5, 1), poly(Fraction(1, 3), 2)):
            assert type(p.evaluate(half)) is Fraction
            assert type(p.evaluate(3)) is Fraction
        assert ZERO.evaluate(half) == 0
