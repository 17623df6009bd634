import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mallows_coloring.building import cylinder_masses
from mallows_coloring.sampler import ColoringSample, SampleParams, painting_sample
from mallows_coloring.tpoly import solve_tuning
from mallows_coloring.verify import (CylinderTable, InsufficientDataError,
                                     _chi2_sf, chi_square_against_exact,
                                     count_windows, estimate_cylinders,
                                     independence_defect, pair_counts,
                                     synthetic_table, tail_fit,
                                     two_sample_chi_square)


class TestCylinderTable:
    def test_counting_and_stride(self):
        colors = np.array([1, 2, 1, 2, 1, 2, 1, 2], dtype=np.uint8)
        t = count_windows(colors, 2, 2, stride=3)
        assert t.total == 3
        assert t.counts == {(1, 2): 2, (1, 2)[::-1]: 1} or t.counts[(1, 2)] == 2

    def test_offset_counts_match_a_plain_loop(self):
        colors = np.random.default_rng(0).integers(1, 4, size=50, dtype=np.uint8)
        for length, stride, offset in ((1, 2, 3), (2, 3, 1), (3, 5, 4), (4, 1, 7)):
            starts = range(offset, len(colors) - length + 1, stride)
            expect = Counter(tuple(colors[i:i + length].tolist()) for i in starts)
            table = count_windows(colors, 3, length, stride, offset)
            assert table.counts == expect
            assert list(table.counts) == sorted(expect)
            assert table.total == len(starts)

    def test_no_improper_windows_in_samples(self):
        s = painting_sample(5, 1, 20_000, seed=1)
        tables = estimate_cylinders(s, 3)
        for t in tables.values():
            for w in t.counts:
                assert all(a != b for a, b in zip(w, w[1:]))

    def test_thinned_windows_non_overlapping(self):
        s = painting_sample(5, 1, 5000, seed=2)
        tables = estimate_cylinders(s, 3)
        stride = 3 + 1 + 1
        # windows start every `stride` sites and have length <= 3 < stride
        assert tables[3].total == (5000 - 3) // stride + 1
        assert tables[3].total * stride >= 5000 - stride

    def test_merge(self):
        a = CylinderTable(2, {(1, 2): 3}, 4)
        b = CylinderTable(2, {(1, 2): 1, (2, 1): 2}, 3)
        m = a.merge(b)
        assert m.total == 7 and m.counts == {(1, 2): 4, (2, 1): 2}
        with pytest.raises(ValueError):
            a.merge(CylinderTable(3, {}, 0))

    def test_length_one_near_uniform(self):
        s = painting_sample(5, 1, 200_000, seed=3)
        t = estimate_cylinders(s, 1)[1]
        for c in range(1, 6):
            assert abs(t.counts[(c,)] / t.total - 0.2) < 4 * math.sqrt(
                0.2 * 0.8 / t.total)


class TestChiSquare:
    def test_null_calibration(self):
        # synthetic draws from the exact law reject at close to nominal rate
        root = solve_tuning(5, 1)
        exact = cylinder_masses(5, 3, root)
        rng = np.random.default_rng(4)
        rejections = 0
        for _ in range(100):
            table = synthetic_table(exact, 50_000, rng)
            rep = chi_square_against_exact(table, exact, threshold=0.05)
            rejections += not rep.passed
        assert rejections <= 10  # at most twice the nominal 5 percent

    def test_rejects_mass_outside_support(self):
        exact = {(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)}
        table = CylinderTable(2, {(1, 2): 5, (1, 1): 1}, 6)
        rep = chi_square_against_exact(table, exact)
        assert not rep.passed and rep.statistic == math.inf

    def test_rejects_empty_table(self):
        with pytest.raises(ValueError):
            chi_square_against_exact(CylinderTable(2, {}, 0), {(1, 2): 1.0})

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError):
            chi_square_against_exact(CylinderTable(1, {(1,): 1}, 1),
                                     {(1,): 0.5})

    def test_power_against_wrong_parameter(self):
        # a million windows at a detuned parameter must fail decisively
        root = solve_tuning(5, 1)
        exact = cylinder_masses(5, 3, root)
        s = painting_sample(5, 1, 5_000_003, seed=5, t=0.5)
        table = estimate_cylinders(s, 3)[3]
        rep = chi_square_against_exact(table, exact)
        assert table.total >= 1_000_000
        assert rep.p_value < 1e-6

    def test_two_sample_same_law_passes(self):
        root = solve_tuning(5, 1)
        exact = cylinder_masses(5, 3, root)
        rng = np.random.default_rng(6)
        a = synthetic_table(exact, 100_000, rng)
        b = synthetic_table(exact, 150_000, rng)
        assert two_sample_chi_square(a, b).passed

    def test_two_sample_different_laws_fail(self):
        root = solve_tuning(5, 1)
        exact = cylinder_masses(5, 3, root)
        skew = {w: float(p) for w, p in exact.items()}
        boost = {w: (p * 1.3 if w[0] == w[2] else p) for w, p in skew.items()}
        z = sum(boost.values())
        boost = {w: p / z for w, p in boost.items()}
        rng = np.random.default_rng(7)
        a = synthetic_table(exact, 200_000, rng)
        b = synthetic_table(boost, 200_000, rng)
        assert not two_sample_chi_square(a, b).passed


class TestChi2Sf:
    def test_matches_scipy_stats(self):
        # the p-values must not move: equal to chi2.sf everywhere on the
        # grid, nan where scipy.stats gives nan (fewer than one dof)
        from scipy import stats
        rng = np.random.default_rng(11)
        dofs = [*range(9), 24, 80, 624, *rng.integers(0, 701, 2000).tolist()]
        fixed = [0.0, 1e-300, 1e-9, 0.5, 1.0, 10.0, 1e3, 1e5, math.inf]
        for d in dofs:
            xs = np.array(fixed + rng.exponential(max(d, 1), 8).tolist())
            got = np.array([_chi2_sf(float(x), d) for x in xs])
            np.testing.assert_array_equal(got, stats.chi2.sf(xs, d),
                                          err_msg=f"dof={d}")

    def test_two_sample_on_one_word_has_no_verdict(self):
        a = CylinderTable(2, {(1, 2): 7}, 7)
        b = CylinderTable(2, {(1, 2): 4}, 4)
        rep = two_sample_chi_square(a, b)
        assert math.isnan(rep.p_value)
        assert rep.passed is False


class TestIndependenceDefect:
    def test_pass_beyond_range(self):
        s = painting_sample(5, 1, 600_000, seed=8)
        rep = independence_defect(s, gap=2)
        assert rep.passed and rep.sigma_distance <= 4

    def test_required_fail_adjacent(self):
        s = painting_sample(5, 1, 200_000, seed=9)
        rep = independence_defect(s, gap=1)
        assert rep.passed  # required-fail mode: exceedance expected
        assert rep.sigma_distance > 4

    def test_explicit_expectation_flag(self):
        s = painting_sample(5, 1, 200_000, seed=10)
        rep = independence_defect(s, gap=1, expect_dependent=False)
        assert not rep.passed

    def test_pair_counts_match_a_plain_loop(self):
        rng = np.random.default_rng(1)
        colors = [1]
        for step in rng.integers(1, 4, size=60).tolist():  # proper over 1..4
            colors.append((colors[-1] - 1 + step) % 4 + 1)
        sample = ColoringSample(0, np.array(colors), SampleParams(4, 2, 0.5, 0.5), 0)
        # default stride gap + k + 1, and an explicit one
        for gap, stride, used in ((1, None, 4), (3, None, 6), (2, 5, 5)):
            starts = range(0, len(colors) - gap, used)
            expect = np.zeros((4, 4), dtype=np.int64)
            for i in starts:
                expect[colors[i] - 1, colors[i + gap] - 1] += 1
            joint, n = pair_counts(sample, gap, stride)
            assert n == len(starts)
            assert (joint == expect).all()

    def test_pair_counts_shape(self):
        s = painting_sample(4, 2, 10_000, seed=11)
        joint, n = pair_counts(s, gap=3)
        assert joint.shape == (4, 4) and joint.sum() == n


class TestTailFit:
    def test_geometric_slope_recovered(self):
        rng = np.random.default_rng(12)
        p = 0.35
        draws = rng.geometric(p, size=200_000) - 1
        counts = {int(v): int(c) for v, c in
                  zip(*np.unique(draws, return_counts=True))}
        fit = tail_fit(counts, lo=1, hi=20, min_count=10)
        assert abs(fit.slope - math.log(1 - p)) < 0.05 * abs(math.log(1 - p))
        assert fit.r2 > 0.99

    def test_heavy_tail_flagged_by_low_r2(self):
        # inverse-square tail is visibly non-exponential
        counts = {n: max(int(1e7 / n**2), 1) for n in range(1, 200)}
        fit = tail_fit(counts, lo=2, hi=150)
        assert fit.r2 < 0.95

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            tail_fit({1: 5, 2: 3}, lo=1, hi=4)
        with pytest.raises(InsufficientDataError):
            tail_fit({})

    def test_report_serializes(self):
        s = painting_sample(5, 1, 50_000, seed=13)
        rep = independence_defect(s, gap=2)
        d = rep.to_dict()
        assert set(d) >= {"name", "statistic", "passed", "threshold",
                          "sample_size"}
