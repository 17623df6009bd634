"""Golden outputs of the three sampling pipelines.

Sampler output is a stable interface: for a fixed (q, k, length, seed) the
colors, coding radii and endpoint mask must not change from one version to
the next.  The digests in golden_samples.json pin them.  Regenerate the file
only for a deliberate change of the seed interface:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from mallows_coloring.sampler import (ffiid_sample, lehmer_pipeline_sample,
                                      painting_sample)

GOLDEN = pathlib.Path(__file__).with_name("golden_samples.json")
PIPELINES = {"painting": painting_sample, "lehmer": lehmer_pipeline_sample,
             "ffiid": ffiid_sample}
PAIRS = ((5, 1), (4, 2), (3, 3))
LENGTHS = (1, 32, 5000)
SEEDS = (0, 77)
CASES = [f"{name}/q{q}k{k}/n{n}/seed{seed}" for name in PIPELINES
         for q, k in PAIRS for n in LENGTHS for seed in SEEDS]


def _sha(values, dtype) -> str | None:
    if values is None:
        return None
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype)
                          .tobytes()).hexdigest()


def digests(case: str) -> dict:
    name, qk, n, seed = case.split("/")
    q, k = (int(v) for v in qk[1:].split("k"))
    sample = PIPELINES[name](q, k, int(n[1:]), int(seed[4:]))
    return {"colors": _sha(sample.colors, np.uint8),
            "radii": _sha(sample.radii, np.int64),
            "endpoint_mask": _sha(sample.endpoint_mask, np.uint8)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_sample_matches_golden(golden, case):
    assert digests(case) == golden[case]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: digests(c) for c in CASES}, indent=1,
                                 sort_keys=True) + "\n")
