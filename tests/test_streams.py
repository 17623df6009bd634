import numpy as np

from mallows_coloring import sampler, streams
from mallows_coloring.streams import (MASK64, mix, mix_keys, mix_next, u01,
                                      u01_array, u01_from_word,
                                      u01_from_words, u01_keys, u01_next)


def test_scalar_vector_agreement():
    rng = np.random.default_rng(0)
    for seed in (0, 1, 9_007_199_254_740_993, 2**63 - 1):
        sites = rng.integers(-10**12, 10**12, size=64)
        for stream in (0, 3, 255):
            vec = mix_keys(seed, sites, stream)
            uv = u01_array(seed, sites, stream)
            for i in range(0, 64, 7):
                assert int(vec[i]) == mix(seed, int(sites[i]), stream)
                assert uv[i] == u01(seed, int(sites[i]), stream)


def test_uniforms_open_interval():
    u = u01_array(7, np.arange(200_000), 1)
    assert u.min() > 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.var(u) - 1 / 12) < 0.001


def test_distinct_keys_decorrelate():
    sites = np.arange(100_000)
    a = u01_array(1, sites, 2)
    b = u01_array(1, sites, 3)
    c = u01_array(2, sites, 2)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01


def test_word_substream_deterministic():
    w = mix(5, 123, 9)
    seq1 = [u01_from_word(w, j) for j in range(10)]
    seq2 = [u01_from_word(w, j) for j in range(10)]
    assert seq1 == seq2
    assert len(set(seq1)) == 10


def test_multiword_keys():
    assert mix(1, 2, 3) != mix(1, 3, 2)
    assert mix(1, 2, 3) != mix(1, 2, 4)
    assert u01(1, 2, 3, 4) != u01(1, 2, 3, 5)


def test_multiword_array_hash_matches_scalar():
    rng = np.random.default_rng(3)
    big = rng.integers(-2**63, 2**63 - 1, size=40, dtype=np.int64)
    small = rng.integers(-10**6, 10**6, size=40)
    for seed in (0, 2**63 - 1, 2**64 - 1, -5):
        bits = mix_keys(seed, big, small, 9)
        u = u01_keys(seed, small, big, 2**40)
        for i in range(40):
            a, b = int(big[i]), int(small[i])
            assert int(bits[i]) == mix(seed, a, b, 9)
            assert u[i] == u01(seed, b, a, 2**40)
        keys = mix_keys(seed, small)
        chained = u01_next(keys, big, 2**40)
        for i in range(40):
            assert chained[i] == u01(seed, int(small[i]), int(big[i]), 2**40)
        assert (u01_next(keys, 9) == u01_keys(seed, small, 9)).all()
        assert (mix_next(keys, big, 12) == mix_keys(seed, small, big, 12)).all()
        assert (keys == mix_keys(seed, small)).all()
        words = mix_keys(seed, big, 12)
        ranks = np.arange(40) + 2**33
        uw = u01_from_words(words, ranks)
        for i in range(40):
            assert uw[i] == u01_from_word(int(words[i]), int(ranks[i]))


def test_array_hash_leaves_inputs_alone():
    sites = np.arange(-5, 5, dtype=np.int64)
    keep = sites.copy()
    u01_keys(1, sites, sites, 3)
    assert (sites == keep).all()


def test_all_ones_hash_stays_below_one(monkeypatch):
    # (2^53 - 1) + 0.5 rounds to 2^53, so the all-ones hash would give 1.0;
    # a pick from 1.0 would be q - 1 and a colour pair index past its table
    below = np.nextafter(1.0, 0.0)
    bits = np.array([MASK64, MASK64 - (1 << 11), 0], dtype=np.uint64)
    u = streams._u01_bits(bits)
    assert u[0] == below
    assert u[1:].tolist() == [(2**53 - 2 + 0.5) * 2.0**-53, 2.0**-54]
    monkeypatch.setattr(streams, "mix", lambda seed, *words: MASK64)
    monkeypatch.setattr(streams, "_finalize", lambda z: MASK64)
    assert streams.u01(1, 2) == below
    assert streams.u01_from_word(1, 2) == below
    for q in (3, 5, 255):
        assert sampler._picks(np.array([below]), q)[0] == q - 2
        x = np.array([below * q * (q - 1)])
        first, second, _ = sampler._color_pairs(x, q)
        assert (int(first[0]), int(second[0])) == (q, q - 1)



def test_u01_next_without_words_leaves_keys_alone():
    keys = mix_keys(1, np.arange(4))
    keep = keys.copy()
    assert (u01_next(keys) == u01_keys(1, np.arange(4))).all()
    assert (keys == keep).all()
