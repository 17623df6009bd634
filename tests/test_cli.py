import concurrent.futures
import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import jsonschema
import pytest

from mallows_coloring import building, certify, cli, sampler, tpoly
from mallows_coloring.cli import (_constant_ratio, _emit_json, build_parser,
                                  decimal_str, main)
from mallows_coloring.words import Word

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
SCHEMA = json.loads(
    (SRC / "mallows_coloring" / "schemas" / "result-v1.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


class TestSolveTuning:
    def test_reports_isolated_root(self, capsys):
        code, payload = run_json(capsys, "solve-tuning", "--q", "5", "--k", "1",
                                 "--precision", "1e-30")
        assert code == 0
        assert payload["command"] == "solve-tuning"
        assert payload["results"]["midpoint"].startswith("0.381966011250")
        assert payload["results"]["polynomial"] == ["-1", "3", "-1"]
        lo = payload["results"]["interval"]["lo"]
        assert "/" in lo

    def test_inadmissible_pair_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve-tuning", "--q", "4", "--k", "1"])
        assert exc.value.code == 2
        assert "qk>2(k+1)" in capsys.readouterr().err


class TestExact:
    def test_cylinder_121(self, capsys):
        code, payload = run_json(capsys, "exact", "--word", "121",
                                 "--q", "5", "--k", "1")
        assert code == 0
        assert payload["results"]["exact_fraction"] == "1/100"
        assert payload["results"]["decimal"].rstrip("0") in ("0.01", "0.01")

    @pytest.mark.parametrize("precision", ["0.1", "1e-3", "1e-6", "1e-30"])
    def test_decimal_shows_only_fixed_digits(self, capsys, precision):
        # the isolating interval of t fixes only some digits of the value;
        # at 0.1 the midpoint's 12 digits were 0.00990863787375
        import decimal
        code, payload = run_json(capsys, "exact", "--word", "121", "--q", "5",
                                 "--k", "1", "--precision", precision)
        assert code == 0
        text = payload["results"]["decimal"]
        assert text != "0.00990863787375"
        digits = len(decimal.Decimal(text).as_tuple().digits)
        assert decimal.Decimal(text) == decimal.Decimal(
            decimal_str(Fraction(1, 100), digits))
        if precision == "0.1":
            assert text == "0.01"
        if precision == "1e-30":
            assert text == "0.0100000000000"

    def test_cylinder_123(self, capsys):
        _, payload = run_json(capsys, "exact", "--word", "123",
                              "--q", "5", "--k", "1")
        assert payload["results"]["exact_fraction"] == "1/75"

    def test_bad_word_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--word", "191", "--q", "5", "--k", "1"])
        assert exc.value.code == 2

    def test_constant_ratio_is_never_a_float(self):
        p = tpoly.tuning_poly(5, 1)
        ratio = _constant_ratio(tpoly.RatPoly((3,)), tpoly.RatPoly((2,)), p)
        assert type(ratio) is Fraction and ratio == Fraction(3, 2)
        for q, k in ((5, 1), (4, 2), (3, 3)):
            p = tpoly.tuning_poly(q, k)
            for text in ("1", "12", "121", "123", "1213", "11"):
                word = Word.from_string(text, q)
                ratio = _constant_ratio(building.building_number(word),
                                        building.normalizer(q, len(word)), p)
                assert ratio is None or type(ratio) is Fraction


class TestSample:
    def test_csv_deterministic(self, capsys):
        args = ["sample", "--q", "5", "--k", "1", "--length", "100",
                "--seed", "7", "--method", "painting"]
        code1, out1 = run(capsys, *args)
        code2, out2 = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "index,color,endpoint"
        assert len(lines) == 101

    def test_csv_ffiid_has_radius_column(self, capsys):
        _, out = run(capsys, "sample", "--q", "5", "--k", "1", "--length", "20",
                     "--seed", "3", "--method", "ffiid")
        assert out.startswith("index,color,radius,endpoint\n")

    @pytest.mark.parametrize("method", ["painting", "lehmer", "ffiid"])
    def test_csv_chunks_match_one_string(self, capsys, method):
        # lengths around the number of rows written at a time: the output
        # is the whole window's CSV text, formatted as one string
        rows = cli._CSV_ROWS
        for length in (1, rows - 1, rows, rows + 1):
            code, out = run(capsys, "sample", "--q", "3", "--k", "3",
                            "--length", str(length), "--seed", "6",
                            "--method", method)
            sample = cli._PIPELINES[method](3, 3, length, 6)
            named = [(name, a) for name, a in (
                ("color", sample.colors), ("radius", sample.radii),
                ("endpoint", sample.endpoint_mask)) if a is not None]
            values = [a.astype(int).tolist() for _, a in named]
            index = range(sample.start, sample.start + length)
            want = ",".join(["index"] + [name for name, _ in named]) + "\n"
            want += "".join(",".join(map(str, row)) + "\n"
                            for row in zip(index, *values))
            assert code == 0 and out == want, length

    def test_json_mode(self, capsys):
        code, payload = run_json(capsys, "sample", "--q", "3", "--k", "3",
                                 "--length", "50", "--seed", "1",
                                 "--format", "json")
        assert code == 0
        colors = payload["results"]["colors"]
        assert len(colors) == 50
        assert all(a != b for a, b in zip(colors, colors[1:]))

    def test_json_text_matches_json_dumps(self, capsys):
        payloads = [
            {"results": {"colors": [1, 2, 1], "radii": [0], "endpoints": [],
                         "flags": [True, False], "t": 0.5, "start": 0},
             "params": {"method": "ffiid"}, "seed": None},
            {"results": {"checks": [{"name": "a", "pass": True}],
                         "nested": {"deep": {"values": [-3, 10**20, 0]}}},
             "list_of_lists": [[1, 2], [3]], "version": "1"},
        ]
        for payload in payloads:
            _emit_json(payload, None)
            out = capsys.readouterr().out
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_json_sample_matches_json_dumps(self, capsys):
        # arrays are written _CSV_ROWS elements at a time
        rows = cli._CSV_ROWS
        for method, length in itertools.product(
                ("painting", "lehmer", "ffiid"), (40, rows - 1, rows, rows + 1)):
            _, out = run(capsys, "sample", "--q", "4", "--k", "2", "--length",
                         str(length), "--seed", "5", "--method", method,
                         "--format", "json")
            assert out == json.dumps(json.loads(out), indent=2,
                                     sort_keys=True) + "\n"
            assert len(json.loads(out)["results"]["colors"]) == length

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sample.csv"
        code, _ = run(capsys, "sample", "--q", "5", "--k", "1", "--length",
                      "10", "--seed", "2", "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("index,color")

    def test_unknown_method_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--q", "5", "--k", "1", "--length", "5",
                  "--method", "bogus"])
        assert exc.value.code == 2


class TestVerifyExact:
    def test_quick_suite_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "exact", "--level", "quick")
        assert code == 0
        assert payload["results"]["all_pass"]
        names = {c["name"] for c in payload["results"]["checks"]}
        assert "k-dependence-defect" in names
        assert "tuning-roots" in names

    def test_check_names_at_both_levels(self):
        # the names and their order are the JSON report's; listing the
        # checks runs none of them
        names = ["building-oracle-equivalence", "consistency-recurrence",
                 "reversibility", "tuning-roots", "exact-cylinder-values",
                 "k-dependence-defect", "normalizer-closed-form",
                 "coloring-count-formula", "converse-tuning-scan",
                 "truncated-geometric-domination"]
        for level in ("quick", "full"):
            assert [name for name, _ in cli._exact_checks(level)] == names

    def test_corrupted_memo_fails(self, capsys):
        # the recurrence reads a wrong building number from its memo; the
        # definition-level oracle must catch it
        building.clear_caches()
        building._memo[(1, 2, 1)] = tpoly.t_factorial(3)
        try:
            code, payload = run_json(capsys, "verify", "exact", "--level",
                                     "quick")
            verdict = certify.oracle_equivalence("quick")
        finally:
            building.clear_caches()
        assert code == 1
        verdicts = {c["name"]: c["pass"] for c in payload["results"]["checks"]}
        assert not verdicts["building-oracle-equivalence"]
        assert not payload["results"]["all_pass"]
        assert not verdict and "(1, 2, 1)" in verdict.failure
        # a clean run covers every word of length <= 4 at q = 3, 4, 5
        clean = certify.oracle_equivalence("quick")
        assert clean and clean.failure is None
        assert clean.cases == sum(q**n for q in (3, 4, 5) for n in range(5))
        assert clean.cases == 1243

    def test_corrupted_class_fails_on_its_first_word(self):
        # a wrong building number on a length-5 pattern, which the quick
        # oracle check never reads: the checks that decide each colour
        # pattern class once still fail at the first word whose case reads it
        building.clear_caches()
        building._memo[(1, 2, 1, 2, 1)] = tpoly.t_factorial(5)
        try:
            consistency = certify.consistency_recurrence("quick")
            dependence = certify.k_dependence("quick")
        finally:
            building.clear_caches()
        assert (consistency.failure
                == "consistency-recurrence fails at (3, (1, 2, 1, 2))")
        assert (dependence.failure
                == "k-dependence-defect fails at (3, 3, (), (1, 2))")
        assert (consistency.cases, dependence.cases) == (51, 149)
        # clean runs still count one case per word, per (k, q, x, y) and
        # per (q, permutation)
        assert certify.consistency_recurrence("quick").cases == 1243
        assert certify.k_dependence("quick").cases == 177
        assert certify.coloring_counts("quick").cases == 361


class TestVerifyStat:
    def test_small_stat_run_passes(self, capsys):
        code, payload = run_json(capsys, "verify", "stat", "--q", "5",
                                 "--k", "1", "--method", "painting",
                                 "--windows", "30000", "--seed", "5")
        assert code == 0
        assert payload["results"]["all_pass"]
        assert len(payload["results"]["reports"]) == 5


class SerialPool:
    """A stand-in for concurrent.futures.ProcessPoolExecutor that runs every
    task in process; `pools` records each pool's worker count and `tasks`
    the (method, windows, seed) of each task."""
    pools: list[int] = []
    tasks: list[tuple] = []

    def __init__(self, max_workers):
        self.pools.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        items = list(zip(*iterables))
        self.tasks.extend(items)
        return itertools.starmap(fn, items)


class TestStatChunks:
    # 7000-window chunks keep the runs small
    STAT = ("verify", "stat", "--q", "5", "--k", "1", "--seed", "5")

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_STAT_CHUNK", 7000)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(SerialPool, "pools", [])
        monkeypatch.setattr(SerialPool, "tasks", [])

    def test_chunks_count_exactly_the_windows(self, capsys):
        # two full chunks and a remainder chunk of 1000
        code, payload = run_json(capsys, *self.STAT, "--method", "lehmer",
                                 "--windows", "15000")
        assert code == 0
        assert SerialPool.tasks == [("lehmer", 7000, 5),
                                    ("lehmer", 7000, 5 + 7919),
                                    ("lehmer", 1000, 5 + 2 * 7919)]
        assert "threads" not in payload["params"]
        for rep in payload["results"]["reports"][:3]:  # lengths 1-3
            assert rep["sample_size"] == 15000

    def test_report_does_not_depend_on_cpu_count(self, capsys, monkeypatch):
        outs = []
        for cpus in (1, 3):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            outs.append(run(capsys, *self.STAT, "--method", "lehmer",
                            "--windows", "15000"))
        assert outs[0] == outs[1]
        # three chunks, so min(3, cpu_count) workers
        assert SerialPool.pools == [1, 3]

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch):
        # four chunks of every method run on one pool of two workers
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, payload = run_json(capsys, *self.STAT, "--windows", "28000")
        assert SerialPool.pools == [2]
        assert [(m, w) for m, w, _ in SerialPool.tasks] == [
            (m, 7000) for m in cli._PIPELINES for _ in range(4)]
        assert len(payload["results"]["reports"]) == 15

    def test_one_chunk_starts_no_pool(self, capsys):
        code, payload = run_json(capsys, *self.STAT, "--method", "lehmer",
                                 "--windows", "7000")
        assert code == 0
        assert SerialPool.pools == []
        for rep in payload["results"]["reports"][:3]:
            assert rep["sample_size"] == 7000


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["verify", "stat", "--q", "5", "--k", "1", "--maxlen", "5"],
        ["sample", "--q", "5", "--k", "1", "--length", "0"],
        ["radius", "--q", "5", "--k", "1", "--length", "0"],
        ["solve-tuning", "--q", "5", "--k", "1", "--precision", "abc"],
        ["exact", "--q", "5", "--k", "1", "--word", "12", "--precision", "0"],
        ["verify", "stat", "--q", "5", "--k", "1", "--windows", "0"],
    ])
    def test_exit_two_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sample", "--q", "300", "--k", "1", "--length", "10"],
        ["verify", "stat", "--q", "300", "--k", "1"],
        ["radius", "--q", "300", "--k", "1"],
    ])
    def test_q_above_uint8_colors_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: argument --q: need 3 <= q <= 255" in err
        assert "uint8" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "exact", "--level", "quick"],
        ["solve-tuning", "--q", "5", "--k", "1"],
        ["exact", "--q", "5", "--k", "1", "--word", "121"],
        ["sample", "--q", "5", "--k", "1", "--length", "10"],
        ["verify", "stat", "--q", "5", "--k", "1", "--method", "painting",
         "--windows", "10", "--maxlen", "1"],
        ["radius", "--q", "5", "--k", "1", "--length", "100"],
    ])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv):
        out = str(tmp_path / "missing" / "x.json")
        assert main(argv + ["--out", out]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: argument --out: cannot write {out}: "
                       "No such file or directory\n")

    @pytest.mark.parametrize("q, k", [(3, 1), (3, 2), (4, 1)])
    def test_inadmissible_pair_everywhere(self, capsys, q, k):
        qk = ["--q", str(q), "--k", str(k)]
        for argv in (["solve-tuning"], ["exact", "--word", "12"],
                     ["sample", "--length", "10"], ["verify", "stat"],
                     ["radius"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + qk)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "qk>2(k+1)" in err and "Traceback" not in err
        for call in (lambda: tpoly.solve_tuning(q, k),
                     lambda: building.z_closed_form_defect(q, k, 2),
                     lambda: sampler.painting_sample(q, k, 10, 0)):
            with pytest.raises(tpoly.NoSolutionError, match=r"qk>2\(k\+1\)"):
                call()

    @pytest.mark.parametrize("argv", [
        ["sample", "--q", "5", "--k", "1", "--length", "10"],
        ["radius", "--q", "5", "--k", "1"],
        ["verify", "stat", "--q", "5", "--k", "1", "--method", "lehmer"],
    ])
    def test_out_of_memory_is_usage_error(self, capsys, monkeypatch, argv):
        # stands in for numpy refusing an oversized request; no real
        # allocation is attempted
        def exhausted(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        for name in cli._PIPELINES:
            monkeypatch.setitem(cli._PIPELINES, name, exhausted)
        monkeypatch.setattr(sampler, "ffiid_detail", exhausted)
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: not enough memory for this request: "
            "Unable to allocate 7.28 TiB for an array\n")


class TestRadius:
    def test_radius_report(self, capsys):
        code, payload = run_json(capsys, "radius", "--q", "5", "--k", "1",
                                 "--length", "150000", "--seed", "9")
        assert code == 0
        res = payload["results"]
        assert res["lookback_tail"]["slope"] < 0
        assert abs(res["expected_lookback_slope"] - res["lookback_tail"]["slope"]) \
            < 0.1 * abs(res["expected_lookback_slope"])
        assert res["radius_tail"]["r2"] > 0.95


class TestStartup:
    # After each step the script prints a line "scipy-modules: [...]" naming
    # the scipy modules loaded so far.
    SCRIPT = textwrap.dedent('''
        import json, sys
        def report():
            names = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            print("scipy-modules:", json.dumps(names))
        import mallows_coloring
        import mallows_coloring.cli as cli
        report()
        cli.main(["sample", "--q", "5", "--k", "1", "--length", "32",
                  "--out", sys.argv[1]])
        cli.main(["exact", "--q", "5", "--k", "1", "--word", "121"])
        report()
        from mallows_coloring import verify
        table = verify.CylinderTable(1, {(1,): 3, (2,): 5}, 8)
        verify.chi_square_against_exact(table, {(1,): 0.5, (2,): 0.5})
        report()
    ''')

    def test_scipy_loads_only_for_a_statistical_test(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "s.json")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        imported, ran, tested = [
            json.loads(line.split(":", 1)[1]) for line in proc.stdout.splitlines()
            if line.startswith("scipy-modules:")]
        assert imported == []
        assert ran == []
        assert "scipy.special" in tested
        assert "scipy.stats" not in tested


def test_decimal_str():
    from fractions import Fraction
    assert decimal_str(Fraction(1, 100)) == "0.01"
    assert decimal_str(Fraction(1, 3), 5) == "0.33333"


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
