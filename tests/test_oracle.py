import numpy as np
import pytest

from halftimehash import ehc, oracle, tree
from halftimehash.oracle import (
    ehc_delta_distribution,
    nh_delta_distribution,
    tree_collision_estimate,
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


def test_tree_collision_constant_tree_always_collides_and_fails(monkeypatch):
    # A tree that ignores its blocks makes every pair collide: the estimator
    # must count each such trial and judge the rate far above the bound.
    monkeypatch.setattr(tree, "tree_reduce", lambda levels, blocks, seeds, fanout, half_bits: [[(7,)]])
    res = tree_collision_estimate(8, 4, 1, 1, trials=200)
    assert res.collisions == res.trials == 200
    assert res.estimate == 1.0
    assert res.status == "fail"


def test_tree_collision_h1_k1_width8():
    res = tree_collision_estimate(8, 4, 1, 1, trials=10**4)
    assert res.bound == 2**-8
    assert res.status in ("consistent", "inconclusive")
    assert res.estimate <= res.bound + (res.upper99 - res.estimate)


def test_tree_collision_k2_h2_width4():
    res = tree_collision_estimate(4, 4, 2, 2, trials=3000)
    assert res.bound == 4 * 2**-8
    assert res.status in ("consistent", "inconclusive")


@pytest.mark.parametrize("trials", [0, -1])
def test_tree_collision_needs_a_trial(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        tree_collision_estimate(4, 4, 1, 1, trials=trials)


def test_scaled_pipeline_is_production_path():
    # the oracle drives the very same function objects the 32-bit hasher
    # uses, just at a smaller width; there is no parallel rewrite
    import halftimehash.ehc as prod_ehc
    import halftimehash.nh as prod_nh
    import halftimehash.tree as prod_tree

    assert oracle.nh_full is prod_nh.nh_full
    assert oracle.ehc_mod is prod_ehc
    assert oracle.tree_mod is prod_tree


def test_wilson_upper_monotone():
    from halftimehash.oracle import _wilson_upper

    assert _wilson_upper(0, 1000) < _wilson_upper(5, 1000) < _wilson_upper(50, 1000)
    assert _wilson_upper(0, 100) > _wilson_upper(0, 10000)
