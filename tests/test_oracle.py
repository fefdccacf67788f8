from collections import Counter

import numpy as np
import pytest

from halftimehash import analysis, ehc, oracle
from halftimehash.oracle import (
    ehc_delta_distribution,
    nh_delta_distribution,
    worst_probability,
)

import reference


def test_identical_inputs_refused():
    # Identical inputs have no differing position to enumerate.
    with pytest.raises(ValueError, match="inputs are identical"):
        nh_delta_distribution((1, 2), (1, 2), 4)
    toy = oracle.toy_ehc_params()
    with pytest.raises(ValueError, match="fewer than k positions"):
        ehc_delta_distribution(toy, oracle.TOY_X, oracle.TOY_X, 4)


@pytest.mark.parametrize("salt", [0, 7, 2**40 + 3, 2**64 - 1, -1])
def test_fixed_seeds_are_the_salted_splitmix_stream(salt):
    # The pinned seed constants are the masked splitmix words; a salt is
    # taken mod 2^64, so -1 and 2^64 - 1 pin the same constants.
    want = reference.splitmix_stream(salt % 2**64, 12)
    for bits in (4, 8):
        assert oracle._fixed_seeds(salt, 12, bits) == [w % 2**bits for w in want]


def test_enumeration_refuses_seed_spaces_past_2_32():
    # 33 enumerated bits are refused before the first seed is tried.
    def diff(seed):
        raise AssertionError("enumerated a seed space past the limit")

    with pytest.raises(ValueError, match="too large"):
        oracle._enumerate([0], [0], 33, diff)


@pytest.mark.parametrize("quick, probes", [(False, 100), (True, 10)])
def test_verify_runs_its_stated_nh_probe_count(monkeypatch, quick, probes):
    # The printed line shows only the worst probe, so count the probes;
    # the distance and leaf-stage checks are stubbed to keep this fast.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return nh_delta_distribution(*args, **kwargs)

    monkeypatch.setattr(oracle, "nh_delta_distribution", counted)
    monkeypatch.setattr(analysis, "verify_min_distance", lambda code, trials: code.min_distance)
    monkeypatch.setattr(oracle, "ehc_delta_distribution", lambda *args, **kwargs: Counter([0]))
    list(oracle.verify_properties(quick))
    assert len(calls) == probes


def test_nh_width4_bound_random_probes():
    rng = np.random.default_rng(40)
    bound = 2**-4
    for i in range(30):
        x = tuple(int(v) for v in rng.integers(0, 16, size=4))
        y = tuple(int(v) for v in rng.integers(0, 16, size=4))
        if x == y:
            y = (y[0] ^ 3,) + y[1:]
        dist = nh_delta_distribution(x, y, 4, salt=i)
        assert dist.total() == 256
        assert worst_probability(dist) <= bound


def test_nh_width4_delta_probabilities_are_the_distribution():
    # The distribution holds only 8-bit deltas, its per-delta probabilities
    # over the 256 seeds add up to 1, and their peak is worst_probability.
    x = (3, 7, 1, 2)
    y = (9, 7, 1, 2)
    dist = nh_delta_distribution(x, y, 4)
    assert set(dist) <= set(range(256))
    probs = [dist[delta] / 256 for delta in range(256)]
    assert sum(probs) == 1
    assert max(probs) == worst_probability(dist)


def test_ehc_toy_meets_scaled_adu_bound():
    toy = oracle.toy_ehc_params()
    dist = ehc_delta_distribution(toy, oracle.TOY_X, oracle.TOY_Y, 4, salt=oracle.TOY_SALT)
    bound = 2.0 ** (toy.output_words * (toy.max_det_valuation - 4))
    assert dist.total() == 2**16
    assert worst_probability(dist) <= bound
    # 256 of the 65,536 enumerated seeds hit the worst delta
    assert worst_probability(dist) == 2**-8


def test_ehc_probe_runs_the_reference_leaf_stage(monkeypatch):
    # A leaf stage that forgets its input collides on every seed; the probe
    # must see that, so it has to hash through ehc.compress_instance.
    monkeypatch.setattr(
        ehc, "compress_instance", lambda items, ent, params, h: [(0,), (0,)]
    )
    toy = oracle.toy_ehc_params()
    dist = ehc_delta_distribution(toy, oracle.TOY_X, oracle.TOY_Y, 4, salt=oracle.TOY_SALT)
    assert worst_probability(dist) > 2.0 ** (toy.output_words * (toy.max_det_valuation - 4))


def test_ehc_toy_with_even_determinants():
    # the (1,1,0),(1,3,2) matrix has p=1; the scaled bound doubles per output
    toy = oracle.toy_ehc_params(((1, 1, 0), (1, 3, 2)))
    assert toy.max_det_valuation == 1
    dist = ehc_delta_distribution(toy, oracle.TOY_X, oracle.TOY_Y, 4, salt=oracle.TOY_SALT)
    assert worst_probability(dist) <= 2.0 ** (2 * (1 - 4))


def test_scaled_pipeline_is_production_path():
    # the oracle drives the very same function objects the 32-bit hasher
    # uses, just at a smaller width; there is no parallel rewrite
    import halftimehash.ehc as prod_ehc
    import halftimehash.nh as prod_nh

    assert oracle.nh_full is prod_nh.nh_full
    assert oracle.ehc_mod is prod_ehc

