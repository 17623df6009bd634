from fractions import Fraction

import pytest

from mallows_coloring.dist import (DominanceReport, GeomSpec, GeomVariant, cdf,
                                   dominance_check, pmf, weights)

F = Fraction


class TestPmf:
    def test_truncated_example(self):
        spec = GeomSpec(GeomVariant.TRUNCATED, F(1, 2), trunc=2)
        assert pmf(spec, 1) == F(2, 7)

    def test_zero_weighted_infinite_at_zero(self):
        spec = GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, F(2, 5), u=F(4, 3))
        assert pmf(spec, 0) == F(4, 3) / (F(4, 3) + F(2, 5) / (1 - F(2, 5)))

    def test_end_weighted_with_unit_weight_is_truncated(self):
        a = GeomSpec(GeomVariant.END_WEIGHTED, F(1, 3), u=1, trunc=5)
        b = GeomSpec(GeomVariant.TRUNCATED, F(1, 3), trunc=5)
        for j in range(6):
            assert pmf(a, j) == pmf(b, j)

    def test_max_weighted_display(self):
        spec = GeomSpec(GeomVariant.MAX_WEIGHTED, F(1, 2), u=F(3), trunc=2)
        denom = 1 + F(1, 2) + 3 * F(1, 4)
        assert pmf(spec, 2) == 3 * F(1, 4) / denom
        assert pmf(spec, 0) == 1 / denom

    def test_sums_to_one_across_grid(self):
        for variant in (GeomVariant.TRUNCATED, GeomVariant.ZERO_WEIGHTED,
                        GeomVariant.MAX_WEIGHTED, GeomVariant.END_WEIGHTED):
            for t in (F(1, 4), F(2, 5)):
                for u in (F(1), F(4, 3), F(2)):
                    for trunc in (0, 1, 5, 20):
                        spec = GeomSpec(variant, t, u, trunc)
                        assert sum(pmf(spec, j) for j in range(trunc + 1)) == 1

    def test_infinite_variant_total_mass(self):
        # partial sum plus the exact geometric tail equals one
        t, u = F(2, 5), F(4, 3)
        spec = GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, t, u)
        head = sum(pmf(spec, j) for j in range(40))
        tail = (t**40 / (1 - t)) / (u + t / (1 - t))
        assert head + tail == 1

    def test_conditional_positive_mass_independent_of_u(self):
        # conditioned on being positive, zero-weighted mass is geometric in t
        t = F(2, 5)
        for variant in (GeomVariant.ZERO_WEIGHTED,
                        GeomVariant.ZERO_WEIGHTED_INFINITE):
            trunc = 10
            for u in (F(4, 3), F(7, 2)):
                spec = GeomSpec(variant, t, u, trunc)
                p1 = pmf(spec, 1)
                for j in range(2, 8):
                    assert pmf(spec, j) / p1 == t ** (j - 1)

    def test_end_weighted_converges_to_infinite(self):
        t, u = 0.4, 4 / 3
        finite = GeomSpec(GeomVariant.END_WEIGHTED, F(2, 5), F(4, 3), trunc=60)
        limit = GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, F(2, 5), F(4, 3))
        for j in range(10):
            assert abs(float(pmf(finite, j)) - float(pmf(limit, j))) < 1e-12

    def test_out_of_range_rejected(self):
        spec = GeomSpec(GeomVariant.TRUNCATED, F(1, 2), trunc=2)
        with pytest.raises(ValueError):
            pmf(spec, 3)
        with pytest.raises(ValueError):
            pmf(spec, -1)

    def test_spec_validation(self):
        # the finite variants take t in [0, 1], t = 1 giving the uniform
        # law; the infinite one needs t < 1 to normalize
        for variant in (GeomVariant.TRUNCATED, GeomVariant.ZERO_WEIGHTED,
                        GeomVariant.MAX_WEIGHTED, GeomVariant.END_WEIGHTED):
            spec = GeomSpec(variant, 1, trunc=3)
            assert [pmf(spec, j) for j in range(4)] == [F(1, 4)] * 4
            with pytest.raises(ValueError, match=r"\[0, 1\] for the finite"):
                GeomSpec(variant, F(3, 2), trunc=3)
        with pytest.raises(ValueError):
            GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, 1.0)
        with pytest.raises(ValueError):
            GeomSpec(GeomVariant.TRUNCATED, F(1, 2), u=0)


class TestCdf:
    def test_monotone_and_complete(self):
        spec = GeomSpec(GeomVariant.END_WEIGHTED, F(1, 3), F(4, 3), trunc=6)
        values = [cdf(spec, j) for j in range(7)]
        assert values == sorted(values)
        assert values[-1] == 1

    def test_infinite_matches_partial_sums(self):
        spec = GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, F(1, 4), F(4, 3))
        acc = F(0)
        for j in range(12):
            acc += pmf(spec, j)
            assert cdf(spec, j) == acc


class TestDominance:
    def test_reference_case(self):
        report = dominance_check(0.5, 0.3, 4 / 3, 50)
        assert abs(report.n0 - 1.2220) < 1e-3
        assert report.all_pass
        assert set(report.checked) == set(range(2, 51))
        assert report.checked == {n: True for n in range(2, 51)}
        assert report.holds_from == 1

    @pytest.mark.parametrize("s,t,u,n_max", [(0.5, 0.3, 4 / 3, 12),
                                             (0.5, 0.3, 4 / 3, 30),
                                             (0.4, 0.39, 2.0, 14),
                                             (0.9, 0.5, 30.0, 10),
                                             # fails at n = 2, 3
                                             (0.5, 0.45, 3.0, 30)])
    def test_verdicts_match_cdf_definition(self, s, t, u, n_max):
        def dominates(n):
            upper = GeomSpec(GeomVariant.TRUNCATED, F(s), trunc=n)
            lower = GeomSpec(GeomVariant.END_WEIGHTED, F(t), F(u), trunc=n)
            return all(cdf(upper, r) <= cdf(lower, r) for r in range(n + 1))

        report = dominance_check(s, t, u, n_max)
        verdicts = {n: dominates(n) for n in range(1, n_max + 1)}
        assert report.checked == {n: v for n, v in verdicts.items()
                                  if n in report.checked}
        tail = [n for n in range(1, n_max + 1)
                if all(verdicts[m] for m in range(n, n_max + 1))]
        assert report.holds_from == min(tail, default=None)

    def test_unit_weight_dominates_everywhere(self):
        report = dominance_check(0.5, 0.3, 1.0, 30)
        assert report.all_pass
        assert report.holds_from == 1

    def test_rejects_equal_rates(self):
        with pytest.raises(ValueError):
            dominance_check(0.3, 0.3, 1.5, 10)
        with pytest.raises(ValueError):
            dominance_check(0.5, 0.3, 0.5, 10)

    def test_report_type(self):
        report = dominance_check(0.6, 0.2, 2.0, 10)
        assert isinstance(report, DominanceReport)


def test_weights_finite_only():
    with pytest.raises(ValueError):
        weights(GeomSpec(GeomVariant.ZERO_WEIGHTED_INFINITE, F(1, 2), F(2)))
