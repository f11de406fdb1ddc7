import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtalab import RandomnessContract, WtaLabError


def test_scalar_matches_block():
    # a one-draw block is the entry of any block that holds its triple
    rng = RandomnessContract(42)
    block = rng.uniform_block([3, 9], 17, [0, 5, 6])
    assert rng.uniform_block([3], 17, [5])[0, 0] == block[0, 1]
    assert rng.uniform_block([9], 17, [6])[0, 0] == block[1, 2]


@pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True, "1"])
def test_out_of_range_seed_rejected_when_built(seed):
    # as a 64-bit hash word, -1 would draw what 2^64 - 1 draws
    with pytest.raises(WtaLabError, match="seed must be an int in 0..2\\^64-1"):
        RandomnessContract(seed)


def test_order_independence():
    rng = RandomnessContract(7)
    trials = np.arange(100)
    neurons = np.arange(12)
    full = rng.uniform_block(trials, 5, neurons)
    perm_t = np.random.default_rng(0).permutation(100)
    perm_u = np.random.default_rng(1).permutation(12)
    shuffled = rng.uniform_block(trials[perm_t], 5, neurons[perm_u])
    assert np.array_equal(full[np.ix_(perm_t, perm_u)], shuffled)


def test_distinct_triples_give_distinct_draws():
    rng = RandomnessContract(123)
    a = rng.uniform_block(np.arange(2000), 3, np.arange(8))
    assert np.unique(a).size == a.size  # 64-bit hash collisions would repeat


def test_range_and_moments():
    rng = RandomnessContract(9)
    a = rng.uniform_block(np.arange(20000), 0, np.arange(10))
    assert a.min() >= 0.0 and a.max() < 1.0
    assert abs(a.mean() - 0.5) < 0.005
    assert abs(a.var() - 1.0 / 12.0) < 0.005


def test_seed_changes_stream():
    a = RandomnessContract(1).uniform_block(np.arange(100), 2, np.arange(4))
    b = RandomnessContract(2).uniform_block(np.arange(100), 2, np.arange(4))
    assert not np.array_equal(a, b)


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    trial=st.integers(min_value=0, max_value=2**31),
    time=st.integers(min_value=0, max_value=2**31),
    neuron=st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=50, deadline=None)
def test_pure_function_of_triple(seed, trial, time, neuron):
    rng = RandomnessContract(seed)
    u1 = rng.uniform_block([trial], time, [neuron])[0, 0]
    u2 = RandomnessContract(seed).uniform_block([trial], time, [neuron])[0, 0]
    assert u1 == u2
    assert 0.0 <= u1 < 1.0


# Draws recorded from the allocating implementation, before the hash ran in
# place: trials (2**40 + 3, 0, 17) by neurons (2049, 5, 0), ids deliberately
# out of order and far apart. Any change to the derivation shows here.
_GOLDEN_TRIALS = [2**40 + 3, 0, 17]
_GOLDEN_NEURONS = [2049, 5, 0]
_GOLDEN = {
    (0, 0): [[0.7713486179820532, 0.3019131823997562, 0.882773433325146],
             [0.306425196300931, 0.5841807255255006, 0.9336827781604518],
             [0.8525727564627219, 0.3441715746922476, 0.4478067827297565]],
    (0, 10**9): [[0.8367344514202777, 0.9088447461517765, 0.18180844335998814],
                 [0.9740858047107017, 0.3025719364085333, 0.8397474124030079],
                 [0.5088956974266347, 0.4761578460097351, 0.7094863249957963]],
    (2**63 + 5, 0): [[0.8249674064611398, 0.39655815972039643, 0.8639319587319156],
                     [0.39125753898463556, 0.060817748366559954, 0.31749491191777324],
                     [0.13478581260383093, 0.5753128576055757, 0.6671486357388028]],
    (2**63 + 5, 10**9): [[0.23485044856321435, 0.8221659225378326, 0.11730994331584532],
                         [0.025135743742631056, 0.023196883556424464, 0.8825979784914663],
                         [0.6024375788829787, 0.9398275457506393, 0.037815797868866574]],
    (2**64 - 1, 0): [[0.07766668298654344, 0.25915602601092325, 0.8708774207490444],
                     [0.674927128197369, 0.19103481870297956, 0.24612051713556027],
                     [0.8931249402961479, 0.4551586734938332, 0.9181586079036931]],
    (2**64 - 1, 10**9): [[0.558687549585241, 0.17043886282170628, 0.6509005779371362],
                         [0.8546758698925674, 0.6692552210145875, 0.008717013998693846],
                         [0.5867794633109257, 0.0447905510984592, 0.8748146826543954]],
}


@pytest.mark.parametrize("seed, time", sorted(_GOLDEN))
def test_golden_draws(seed, time):
    rng = RandomnessContract(seed)
    got = rng.uniform_block(_GOLDEN_TRIALS, time, _GOLDEN_NEURONS)
    assert got.dtype == np.float64
    assert got.tolist() == _GOLDEN[(seed, time)]


# The draw contract inverted: every step of the hash is a bijection on 64-bit
# words (xorshifts, odd multipliers, xors with fixed words), so a trial id can
# be solved for from the word a draw should hash to.
_MASK = (1 << 64) - 1
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_K_SEED, _K_TRIAL = 0x9E3779B97F4A7C15, 0xD1B54A32D192ED03
_K_TIME, _K_NEURON = 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9
LARGEST_DRAW = 1.0 - 2.0 ** -53


def _mix(z: int) -> int:
    """The splitmix64 finalizer on one word."""
    z ^= z >> 30
    z = z * _M1 & _MASK
    z ^= z >> 27
    z = z * _M2 & _MASK
    return z ^ (z >> 31)


def _unshift(z: int, s: int) -> int:
    """The x with ``x ^ (x >> s) == z``."""
    x = z
    for _ in range(64 // s):
        x = z ^ (x >> s)
    return x


def _unmix(z: int) -> int:
    """The inverse of ``_mix``."""
    z = _unshift(z, 31) * pow(_M2, -1, 1 << 64) & _MASK
    z = _unshift(z, 27) * pow(_M1, -1, 1 << 64) & _MASK
    return _unshift(z, 30)


def trial_drawing(seed: int, time: int, neuron: int, draw: float) -> int:
    """A trial id whose draw at ``(seed, time, neuron)`` is ``draw``, either
    0.0 (hash word 0) or ``LARGEST_DRAW`` (hash word 2^64 - 1)."""
    word = {0.0: 0, LARGEST_DRAW: _MASK}[draw]
    b = _unmix(word) ^ (neuron * _K_NEURON & _MASK)
    a = _unmix(b) ^ (time * _K_TIME & _MASK)
    return (_unmix(a) ^ _mix(seed * _K_SEED + _M2 & _MASK)) * pow(_K_TRIAL, -1, 1 << 64) & _MASK


@given(st.integers(0, _MASK))
def test_unmix_inverts_mix(z):
    assert _unmix(_mix(z)) == z and _mix(_unmix(z)) == z


@pytest.mark.parametrize("draw", [0.0, LARGEST_DRAW], ids=["zero", "largest"])
@pytest.mark.parametrize("seed, time, neuron", [(1, 5, 7), (0, 0, 0), (_MASK, 10**9, 1023)])
def test_both_edges_of_the_unit_interval_are_drawn(seed, time, neuron, draw):
    trial = trial_drawing(seed, time, neuron, draw)
    got = RandomnessContract(seed).uniform_block(np.uint64([trial]), time, [neuron])
    assert got[0, 0] == draw


def test_a_trial_that_draws_zero():
    assert trial_drawing(1, 5, 7, 0.0) == 9080191146802024021
    draws = RandomnessContract(1).uniform_block(np.uint64([9080191146802024021]), 5, [7])
    assert draws[0, 0] == 0.0
