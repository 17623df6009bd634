"""The benchmark's traced run (`perfbench/run.py --trace 1`) times layers by
replacing program functions with wrappers at the names their callers look
them up (`perfbench/tracer.py`).  These tests install that tracer on the
package and take it off again, so a refactor that drops or stops calling a
wrapped name fails here rather than in the benchmark."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from mallows_coloring import building, cli, dist, perm, sampler, tpoly, verify
from mallows_coloring.words import Word

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module.Tracer()
    finally:
        del sys.modules[spec.name]


def test_install_wraps_and_uninstall_restores(tracer):
    mc = SimpleNamespace(building=building, cli=cli, dist=dist, perm=perm,
                         sampler=sampler, tpoly=tpoly, verify=verify)
    tracer.install(mc)
    try:
        wrapped = list(tracer.patched)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr) is not original
        root = tpoly.solve_tuning(5, 1)
        assert building.defect_vanishes(tpoly.tuning_poly(5, 1), root)
        pair = building.cylinder_prob(Word.from_string("12", 5), root)
        assert pair.equals_fraction(Fraction(1, 20))
        sampler.painting_sample(5, 1, 32, 0)
        sampler.lehmer_pipeline_sample(5, 1, 32, 0)
        sampler.ffiid_detail(5, 1, 32, 0)
        checks = dict(cli._exact_checks("quick"))
        assert checks["converse-tuning-scan"]()
        assert checks["truncated-geometric-domination"]()
    finally:
        tracer.uninstall()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original
    for name in ("tpoly.solve_tuning", "tpoly.poly_remainder",
                 "tpoly.interval_enclosure", "building.certify",
                 "building.number", "streams.u01", "streams.u01_array",
                 "sampler.validate",
                 "dist.dominance_check", "cli.check.converse-tuning-scan"):
        assert tracer.calls(name) > 0, name
