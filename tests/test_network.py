import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wtalab import (
    DalesPrincipleViolation,
    InputNeuronPotential,
    InputTargeted,
    InvalidNetwork,
    LagOutOfRange,
    NetworkSpec,
    NonpositiveTemperature,
    RandomnessContract,
    WtaLabError,
    build_log_inhibitor,
    build_two_inhibitor,
    potential,
    rescale_temperature,
    run,
    sigmoid,
    spike_probability,
    Synapses,
    validate_network,
)
from wtalab.network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT
from wtalab.simulate import BatchRunner

from conftest import random_network


def make_window(spec, firing):
    frames = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
    for t, idx in firing.items():
        frames[t, list(idx)] = 1
    return frames


class TestValidate:
    def test_builder_output_accepted(self):
        spec = build_two_inhibitor(4, 10.0)
        assert validate_network(spec) is spec

    def test_edge_into_input_rejected(self):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 4, 0] = 1.0  # a_s -> x_0 is forbidden regardless of sign rules
        with pytest.raises(InputTargeted):
            validate_network(
                NetworkSpec.from_dense(spec.kind, spec.polarity, np.abs(w), spec.biases)
            )

    def test_mixed_sign_out_weights_rejected(self):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 2, 4] = -1.0  # excitatory y_0 -> a_s with negative weight
        with pytest.raises(DalesPrincipleViolation):
            validate_network(NetworkSpec.from_dense(
                spec.kind, spec.polarity, w, spec.biases, spec.lam, spec.history
            ))

    @pytest.mark.parametrize("edge, error", [
        ((1, 0, 1, 5.0), InputTargeted),  # y_0 -> x_0
        ((2, 1, 1, 1.0), DalesPrincipleViolation),  # positive weight out of a_c
    ])
    def test_rejected_when_built(self, edge, error):
        roles = [INPUT, OUTPUT, AUXILIARY], [EXCITATORY, EXCITATORY, INHIBITORY]
        with pytest.raises(error):
            NetworkSpec.from_edges(*roles, [(0, 1, 1, 2.0), edge], {1: 0.5})
        data = NetworkSpec.from_edges(*roles, [(0, 1, 1, 2.0)], {1: 0.5}).to_json_dict()
        data["edges"].append(dict(zip(("pre", "post", "lag", "weight"), edge)))
        with pytest.raises(error):
            NetworkSpec.from_json_dict(data)

    def test_lag_out_of_range(self):
        with pytest.raises(LagOutOfRange):
            NetworkSpec.from_edges(
                [INPUT, OUTPUT], [EXCITATORY] * 2, [(0, 1, 2, 1.0)], {}, history=1
            )

    def test_inputs_must_be_excitatory(self):
        kind = [INPUT, OUTPUT, AUXILIARY]
        for u, name in ((0, "input"), (1, "output")):
            polarity = [EXCITATORY] * 3
            polarity[u] = INHIBITORY
            with pytest.raises(InvalidNetwork, match=f"^{name} neuron {u} must be excitatory$"):
                NetworkSpec.from_edges(kind, polarity, [], {})
        # an inhibitory auxiliary is legal
        NetworkSpec.from_edges(kind, [EXCITATORY, EXCITATORY, INHIBITORY], [], {})

    def test_violations_name_the_neuron(self):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 4, 1] = 1.0
        with pytest.raises(InputTargeted, match="input neuron 1"):
            validate_network(
                NetworkSpec.from_dense(spec.kind, spec.polarity, np.abs(w), spec.biases)
            )
        w = spec.weights.copy()
        w[0, 3, 5] = -1.0  # excitatory y_1; inhibitory a_s -> y_0 stays legal
        with pytest.raises(DalesPrincipleViolation, match="excitatory neuron 3 "):
            validate_network(NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases))
        w = spec.weights.copy()
        w[0, 5, 2] = 1.0  # inhibitory a_c
        with pytest.raises(DalesPrincipleViolation, match="inhibitory neuron 5 "):
            validate_network(NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases))


class TestSynapses:
    def test_matches_nonzero_scan_in_weight_order(self, nprng):
        for _ in range(10):
            spec = random_network(nprng)
            syn = spec.synapses
            lag0, pre, post = np.nonzero(spec.weights)
            assert np.array_equal(syn.lag0, lag0)
            assert np.array_equal(syn.pre, pre)
            assert np.array_equal(syn.post, post)
            assert np.array_equal(syn.weight, spec.weights[lag0, pre, post])
            assert list(spec.edges()) == [
                (p, q, lag + 1, float(v))
                for lag, p, q, v in zip(lag0.tolist(), pre.tolist(), post.tolist(),
                                        syn.weight.tolist())
            ]

    def test_never_equal_to_a_non_spec(self):
        spec = build_two_inhibitor(2, 5.0)
        assert (spec == 3) is False
        assert spec != spec.to_json_dict()

    def test_cached_and_read_only(self):
        spec = build_two_inhibitor(3, 5.0)
        assert spec.synapses is spec.synapses
        for a in spec.synapses:
            assert not a.flags.writeable

    def test_negative_zero_is_no_synapse(self):
        spec = NetworkSpec.from_edges([INPUT, OUTPUT], [EXCITATORY] * 2, [(0, 1, 1, -0.0)], {})
        assert spec.synapses.weight.size == 0
        assert validate_network(spec) is spec

    def test_role_indices_are_cached_read_only(self):
        spec = build_log_inhibitor(5, 4.0)
        want = {
            "input_indices": [0, 1, 2, 3, 4],
            "output_indices": [5, 6, 7, 8, 9],
            "auxiliary_indices": [10, 11, 12, 13],
            "non_input_indices": list(range(5, 14)),
        }
        for name, indices in want.items():
            a = getattr(spec, name)
            assert getattr(spec, name) is a
            assert not a.flags.writeable
            assert a.dtype == np.intp and a.tolist() == indices

    def test_dense_weights_are_a_view_built_on_demand(self, nprng):
        for _ in range(5):
            spec = random_network(nprng)
            assert "weights" not in vars(spec)
            w = spec.weights
            assert spec.weights is w and not w.flags.writeable
            assert w.shape == (spec.history, spec.n_neurons, spec.n_neurons)
            syn = spec.synapses
            assert np.count_nonzero(w) == syn.weight.size
            assert np.array_equal(w[syn.lag0, syn.pre, syn.post], syn.weight)
            same = NetworkSpec.from_dense(
                spec.kind, spec.polarity, w, spec.biases, spec.lam, spec.history
            )
            assert same == spec


def _three_neurons():
    """``kind`` and ``polarity`` of an input and two outputs."""
    return [INPUT, OUTPUT, OUTPUT], [EXCITATORY] * 3


class TestSynapseChecks:
    """The constructor takes synapse arrays only in scan order, each key once,
    in range and with nonzero finite weights."""

    @pytest.mark.parametrize(
        "lag0, pre, post, weight, match",
        [
            ([0, 0], [0, 0], [1], [1.0, 2.0], "1-D of one length"),
            ([[0]], [[0]], [[1]], [[1.0]], "1-D of one length"),
            ([1], [0], [1], [1.0], "outside"),  # lag 2 at history 1
            ([-1], [0], [1], [1.0], "outside"),
            ([0], [3], [1], [1.0], "outside"),
            ([0], [-1], [1], [1.0], "outside"),
            ([0], [0], [3], [1.0], "outside"),
            ([0, 0], [0, 0], [1, 1], [1.0, 2.0], "repeats"),
            ([0, 0], [0, 0], [2, 1], [1.0, 1.0], "scan order"),
            ([0, 0], [1, 0], [2, 1], [1.0, 1.0], "scan order"),
            ([0], [0], [1], [0.0], "zero weight"),
            ([0], [0], [1], [-0.0], "zero weight"),
            ([0], [0.7], [1], [1.0], "synapse pre must be integers"),  # not truncated to 0
            ([0.0], [0], [1], [1.0], "synapse lag0 must be integers"),
            ([0], [True], [1], [1.0], "synapse pre must be integers"),
            ([0], [0], [1], ["2.5"], "synapse weight must be numbers"),  # not parsed
            ([0], [0], [1], [True], "synapse weight must be numbers"),
        ],
    )
    def test_rejected(self, lag0, pre, post, weight, match):
        with pytest.raises(InvalidNetwork, match=match):
            NetworkSpec(*_three_neurons(), Synapses(lag0, pre, post, weight), np.zeros(3))

    def test_accepted_in_scan_order(self):
        syn = Synapses([0, 0, 1], [0, 1, 0], [2, 2, 1], [1.0, 2.0, 3.0])
        spec = NetworkSpec(*_three_neurons(), syn, np.zeros(3), history=2)
        assert spec.weight(1, 2) == 2.0 and spec.weight(0, 1, lag=2) == 3.0
        assert spec.weight(0, 1) == 0.0

    def test_from_edges_sorts_keeps_the_last_repeat_and_drops_zeros(self):
        edges = [(0, 2, 1, 1.0), (0, 1, 1, 2.0), (0, 1, 1, 3.0), (0, 2, 1, 0.0), (1, 2, 1, 4.0)]
        spec = NetworkSpec.from_edges(*_three_neurons(), edges, {})
        assert list(spec.edges()) == [(0, 1, 1, 3.0), (1, 2, 1, 4.0)]

    def test_from_edges_rejects_a_neuron_outside_the_network(self):
        with pytest.raises(InvalidNetwork, match="outside"):
            NetworkSpec.from_edges(*_three_neurons(), [(0, 3, 1, 1.0)], {})

    @pytest.mark.parametrize("edge", [
        (0, 1.7, 1, 1.0), (0.0, 1, 1, 1.0), (0, 1, 1.0, 1.0), (True, 2, 1, 1.0), (0, 1, True, 1.0),
    ])
    def test_from_edges_rejects_a_non_integer_index(self, edge):
        with pytest.raises(InvalidNetwork, match="non-integer"):
            NetworkSpec.from_edges(*_three_neurons(), [edge], {})

    def test_rescale_drops_a_weight_that_underflows(self):
        spec = NetworkSpec.from_edges(*_three_neurons(), [(0, 1, 1, 1e-300), (0, 2, 1, 1.0)], {})
        scaled = rescale_temperature(spec, 1e-30)
        assert list(scaled.edges()) == [(0, 2, 1, 1e-30)]
        dense = NetworkSpec.from_dense(*_three_neurons(), spec.weights * 1e-30, np.zeros(3), 1e-30)
        assert scaled == dense


class TestRoleArrays:
    """``kind`` and ``polarity`` are read-only uint8 code arrays, one code per
    neuron; the JSON rows carry the names."""

    def test_builder_arrays(self):
        spec = build_log_inhibitor(5, 4.0)
        assert spec.kind.tolist() == [INPUT] * 5 + [OUTPUT] * 5 + [AUXILIARY] * 4
        assert spec.polarity.tolist() == [EXCITATORY] * 10 + [INHIBITORY] * 4
        for a in (spec.kind, spec.polarity):
            assert a.dtype == np.uint8 and not a.flags.writeable
        assert (INPUT, OUTPUT, AUXILIARY, EXCITATORY, INHIBITORY) == (0, 1, 2, 0, 1)

    @pytest.mark.parametrize("kind, polarity, match", [
        ([[0, 1, 1]], [0, 0, 0], "kind must be a 1-D integer array"),
        (0, [0], "kind must be a 1-D integer array"),
        ([0.0, 1.0, 1.0], [0, 0, 0], "kind must be a 1-D integer array"),
        ([0, 1, 1], [0, 0], "polarity shape"),
        ([0, 1, 1, 1], [0, 0, 0, 0], "biases shape"),
        ([0, 1, 3], [0, 0, 0], "kind code 3 of neuron 2 is not one of 0..2"),
        ([0, -1, 1], [0, 0, 0], "kind code -1 of neuron 1 is not one of 0..2"),
        ([0, 1, 257], [0, 0, 0], "kind code 257 of neuron 2"),  # not wrapped to 1
        ([0, 1, 1], [0, 2, 0], "polarity code 2 of neuron 1 is not one of 0..1"),
        ([0, 1, 1], ["excitatory"] * 3, "polarity must be a 1-D integer array"),
    ])
    def test_constructor_rejects(self, kind, polarity, match):
        with pytest.raises(InvalidNetwork, match=match):
            NetworkSpec(kind, polarity, Synapses([], [], [], []), np.zeros(3))

    def test_one_code_apart_is_unequal(self):
        edges, biases = [(0, 1, 1, 2.0)], {1: 0.5}
        spec = NetworkSpec.from_edges([INPUT, OUTPUT, AUXILIARY], [0, 0, 0], edges, biases)
        assert NetworkSpec.from_edges(np.uint8([0, 1, 2]), [0, 0, 0], edges, biases) == spec
        for kind, polarity in (([0, 1, 1], [0, 0, 0]), ([0, 1, 2], [0, 0, 1])):
            other = NetworkSpec.from_edges(kind, polarity, edges, biases)
            assert other != spec and spec != other

    @pytest.mark.parametrize("field, name, match", [
        ("kind", "hidden", "unknown neuron kind 'hidden'"),
        ("kind", 1, "unknown neuron kind 1"),  # a code is no JSON name
        ("polarity", "inhibitory_typo", "unknown polarity 'inhibitory_typo'"),
    ])
    def test_json_rejects_an_unknown_name(self, field, name, match):
        data = build_two_inhibitor(2, 5.0).to_json_dict()
        data["neurons"][3][field] = name
        with pytest.raises(InvalidNetwork, match=match):
            NetworkSpec.from_json_dict(data)

    @pytest.mark.parametrize("ids", [
        [0, 1, 2, 3, 4, 4],  # duplicate
        [0, 1, 2, 3, 4, 6],  # missing 5
        [1, 2, 3, 4, 5, 6],  # missing 0
        [-1, 0, 1, 2, 3, 4],
    ])
    def test_json_rejects_ids_that_are_not_0_to_n(self, ids):
        data = build_two_inhibitor(2, 5.0).to_json_dict()
        for row, i in zip(data["neurons"], ids):
            row["id"] = i
        with pytest.raises(InvalidNetwork, match="neuron ids must be 0..N-1, each once"):
            NetworkSpec.from_json_dict(data)

    def test_json_rows_in_any_order(self):
        spec = build_two_inhibitor(2, 5.0)
        data = spec.to_json_dict()
        data["neurons"].reverse()
        assert NetworkSpec.from_json_dict(data) == spec

    @pytest.mark.parametrize("i, match", [
        (-1, "bias of neuron -1 is outside the network"),
        (6, "bias of neuron 6 is outside the network"),
        (1.5, "bias id 1.5 is not an integer index"),
    ])
    def test_json_rejects_a_bias_outside_the_network(self, i, match):
        # two-inhibitor n=2 has neurons 0..5; id -1 must not land on a_c
        data = build_two_inhibitor(2, 3.0).to_json_dict()
        data["biases"].append({"id": i, "bias": 7.0})
        with pytest.raises(InvalidNetwork, match=match):
            NetworkSpec.from_json_dict(data)

    def test_seeded_random_network_is_unchanged(self):
        # recorded when neurons were objects: random_network still draws its
        # polarity coins before the weights
        spec = random_network(np.random.default_rng(20240817), 3, 4, 5)
        assert set(spec.polarity[7:].tolist()) == {EXCITATORY, INHIBITORY}
        digest = hashlib.sha256(spec.to_json().encode()).hexdigest()
        assert digest == "610dea8f9426493fdf7aa92a6f793689bab0898eadfb57f04d185c6a6489c889"


class TestNeuronIndex:
    """``bias``, ``weight`` and ``potential`` take only a neuron 0..N-1."""

    @pytest.mark.parametrize("i", [-1, 6, 1.5, True])
    def test_outside_the_network_rejected(self, i):
        # two-inhibitor n=2 has neurons 0..5; -1 once read a_c's bias 4.5,
        # 6 raised a bare IndexError
        spec = build_two_inhibitor(2, 3.0)
        calls = [lambda: spec.bias(i), lambda: spec.weight(i, 3), lambda: spec.weight(5, i),
                 lambda: potential(spec, make_window(spec, {}), i)]
        for call in calls:
            with pytest.raises(WtaLabError, match="must be a neuron of 0..5"):
                call()

    def test_inside_the_network_accepted(self):
        spec = build_two_inhibitor(2, 3.0)
        assert spec.bias(5) == spec.bias(np.int64(5)) == 4.5
        assert spec.weight(5, 3) == spec.weight(np.int64(5), np.uint8(3)) == -3.0
        assert spec.weight(0, 1) == 0.0


class TestWeightLag:
    """``weight`` takes only an integer lag in 1..h."""

    @pytest.mark.parametrize("lag", [0, 3, -1, 1.5, 1.0, "1", None, True, False, np.True_])
    def test_rejected(self, lag):
        # log-inhibitor n=2 has history 2; 1.5 once read as a lag of no
        # synapse and returned 0.0, "1" raised a bare TypeError, and True
        # passed as an integer and read the lag-1 weight
        spec = build_log_inhibitor(2, 8.0)
        with pytest.raises(LagOutOfRange, match=r"lag must be an integer in 1\.\.2"):
            spec.weight(0, 2, lag)

    def test_accepted(self):
        spec = build_log_inhibitor(2, 8.0)
        want = spec.weights[0, 0, 2]
        assert want != 0.0
        assert spec.weight(0, 2) == spec.weight(0, 2, 1) == spec.weight(0, 2, np.int64(1)) == want
        assert spec.weight(0, 2, np.uint8(2)) == spec.weights[1, 0, 2]


class TestCallerArrays:
    """The constructor keeps its own read-only arrays and leaves the
    caller's writeable."""

    def test_callers_arrays_stay_writeable_and_apart(self):
        spec = build_two_inhibitor(2, 3.0)
        kind, polarity = spec.kind.copy(), spec.polarity.copy()
        syn = Synapses(*(a.copy() for a in spec.synapses))
        biases = spec.biases.copy()
        built = NetworkSpec(kind, polarity, syn, biases)
        mine = [kind, polarity, *syn, biases]
        assert all(a.flags.writeable for a in mine)
        for a in mine:
            a[...] = 0
        assert built == spec
        for a in (built.kind, built.polarity, *built.synapses, built.biases):
            assert not a.flags.writeable


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_weight(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 2, 4] = bad  # excitatory y_0 -> a_s: a NaN must not pass for positive
        with pytest.raises(InvalidNetwork, match="neuron 2 to neuron 4"):
            NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bias(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        b = spec.biases.copy()
        b[3] = bad
        with pytest.raises(InvalidNetwork, match="neuron 3"):
            NetworkSpec.from_dense(spec.kind, spec.polarity, spec.weights, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lam(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        with pytest.raises(InvalidNetwork):
            NetworkSpec.from_dense(spec.kind, spec.polarity, spec.weights, spec.biases, lam=bad)

    def test_from_json(self):
        data = build_two_inhibitor(2, 5.0).to_json_dict()
        data["edges"][0]["weight"] = math.inf
        with pytest.raises(InvalidNetwork):
            NetworkSpec.from_json_dict(data)

    def test_rescale_overflow(self):
        with pytest.raises(InvalidNetwork):
            rescale_temperature(build_two_inhibitor(2, 5.0), 1e308)


class TestPotential:
    def test_two_inhibitor_winner_under_stability(self):
        # x_i = 1, y_i = 1, a_s = 1, a_c = 0 -> 3g + 2g - g - 3g = g
        g = 10.0
        spec = build_two_inhibitor(3, g)
        win = make_window(spec, {0: [0, 3, 6]})
        assert potential(spec, win, 3) == pytest.approx(g, rel=1e-12)

    def test_two_inhibitor_winner_under_both(self):
        g = 10.0
        spec = build_two_inhibitor(3, g)
        win = make_window(spec, {0: [0, 3, 6, 7]})
        assert potential(spec, win, 3) == pytest.approx(0.0, abs=1e-9)

    def test_inhibitor_potentials_single_output(self):
        g = 10.0
        spec = build_two_inhibitor(3, g)
        win = make_window(spec, {0: [0, 3]})
        assert potential(spec, win, 6) == pytest.approx(g / 2, rel=1e-12)
        assert potential(spec, win, 7) == pytest.approx(-g / 2, rel=1e-12)

    def test_log_inhibitor_matched_level(self):
        g = 20.0
        spec = build_log_inhibitor(8, g)
        for level in (1, 2, 3):
            firing = [0, 8, 16] + [16 + j for j in range(1, level + 1)]
            win = make_window(spec, {0: [0, 8], 1: firing})
            assert potential(spec, win, 8) == pytest.approx(
                -level * math.log(2), rel=1e-9
            )

    def test_input_neuron_rejected(self):
        spec = build_two_inhibitor(2, 5.0)
        with pytest.raises(InputNeuronPotential):
            potential(spec, make_window(spec, {}), 0)

    @pytest.mark.parametrize("u", [-1, 6, 2.0, 1.5])
    def test_neuron_outside_the_network_rejected(self, u):
        # -1 once read the first output's potential, not a_c's
        spec = build_two_inhibitor(2, 3.0)
        with pytest.raises(WtaLabError) as err:
            potential(spec, make_window(spec, {}), u)
        assert not isinstance(err.value, InputNeuronPotential)
        assert potential(spec, make_window(spec, {}), 5) == -4.5
        assert potential(spec, make_window(spec, {}), np.int64(5)) == -4.5


class TestSpikeProbability:
    def test_zero_potential_is_half(self):
        spec = build_two_inhibitor(2, 5.0)
        assert spike_probability(spec, 0.0) == 0.5

    def test_level_weighted_survival(self):
        spec = build_log_inhibitor(4, 8.0)
        for level in (1, 2, 3):
            p = spike_probability(spec, -level * math.log(2))
            assert p == pytest.approx(1.0 / (1.0 + 2.0 ** level), rel=1e-12)

    def test_high_drive_bound(self):
        g = 20.0
        spec = build_two_inhibitor(2, g)
        assert spike_probability(spec, g / 2) >= 1.0 - math.exp(-g / 2)

    def test_saturation_without_overflow(self):
        spec = build_two_inhibitor(2, 5.0)
        assert spike_probability(spec, 1e6) == 1.0
        assert spike_probability(spec, -1e6) == 0.0

    def test_sigmoid_equals_two_branch_form(self, nprng):
        z = np.concatenate([
            nprng.standard_normal(10_000) * 40.0,
            np.round(nprng.standard_normal(1000) * 4.0) * 2.5,
            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
             math.inf, -math.inf, math.nan],
        ])
        e = np.exp(-np.abs(z))
        branch = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert np.array_equal(sigmoid(z), branch, equal_nan=True)
        assert sigmoid(-0.0) == 0.5 and isinstance(sigmoid(3.0), float)

    @given(st.floats(min_value=-700, max_value=700))
    @settings(max_examples=100, deadline=None)
    def test_range_and_symmetry(self, z):
        p = sigmoid(z)
        assert 0.0 <= p <= 1.0
        assert p + sigmoid(-z) == pytest.approx(1.0, abs=1e-12)


class TestMonotoneResponse:
    def test_silent_input_bound_over_all_local_states(self):
        # the potential of y_i depends only on (x_i, y_i, a_s, a_c); sweep
        # all 16 local states and check the bound whenever x_i is silent
        g = 14.0
        spec = build_two_inhibitor(2, g)
        for code in range(16):
            x_i, y_i, a_s, a_c = (code >> np.arange(4)) & 1
            win = np.zeros((1, 6), dtype=np.uint8)
            win[0, [0, 2, 4, 5]] = [x_i, y_i, a_s, a_c]
            p = spike_probability(spec, potential(spec, win, 2))
            if x_i == 0:
                assert p <= np.exp(-g / 2)


class TestGammaLattice:
    def test_all_potentials_on_half_gamma_grid(self, nprng):
        g = 14.0
        spec = build_two_inhibitor(3, g)
        for _ in range(200):
            bits = (nprng.random(spec.n_neurons) < 0.5).astype(np.uint8)
            win = bits[None, :]
            for u in spec.non_input_indices:
                pot = potential(spec, win, int(u))
                steps = pot / (g / 2)
                assert abs(steps - round(steps)) < 1e-9 * max(1.0, abs(steps))

    def test_firing_probability_trichotomy(self):
        # on the half-gamma lattice every probability is exactly 1/2,
        # vanishing, or overwhelming
        g = 12.0
        spec = build_two_inhibitor(2, g)
        n_all = spec.n_neurons
        codes = np.arange(1 << n_all)
        for code in codes:
            bits = ((code >> np.arange(n_all)) & 1).astype(np.uint8)
            for u in spec.non_input_indices:
                p = spike_probability(spec, potential(spec, bits[None, :], int(u)))
                assert (
                    abs(p - 0.5) < 1e-12
                    or p <= math.exp(-g / 2)
                    or p >= 1.0 - math.exp(-g / 2)
                )


class TestRescale:
    def test_identity_scale(self):
        spec = build_two_inhibitor(4, 10.0)
        assert rescale_temperature(spec, 1.0) == spec

    def test_probabilities_unchanged_all_windows(self):
        spec = build_two_inhibitor(4, 10.0)
        scaled = rescale_temperature(spec, 2.0)
        runner = BatchRunner(spec, RandomnessContract(0))
        runner2 = BatchRunner(scaled, RandomnessContract(0))
        n_all = spec.n_neurons
        codes = np.arange(1 << n_all, dtype=np.int64)
        frames = ((codes[:, None] >> np.arange(n_all)[None, :]) & 1).astype(float)
        p1 = runner.probabilities(frames[:, None, :])
        p2 = runner2.probabilities(frames[:, None, :])
        assert np.max(np.abs(p1 - p2)) < 1e-12

    @pytest.mark.parametrize("lam", ["2", True, None, -1.0, math.inf, math.nan])
    def test_rescale_takes_only_a_positive_finite_real(self, lam):
        with pytest.raises(NonpositiveTemperature, match="new_lambda"):
            rescale_temperature(build_two_inhibitor(2, 5.0), lam)

    def test_nonpositive_temperature(self):
        spec = build_two_inhibitor(2, 5.0)
        with pytest.raises(NonpositiveTemperature):
            rescale_temperature(spec, 0.0)

    def test_constructor_rejects_zero_temperature(self):
        with pytest.raises(NonpositiveTemperature):
            _constructed(lam=0.0)()

    def test_probabilities_invariant_on_random_networks(self, nprng):
        for _ in range(100):
            spec = random_network(nprng)
            lam_hat = float(nprng.uniform(0.2, 8.0))
            scaled = rescale_temperature(spec, lam_hat)
            r1 = BatchRunner(spec, RandomnessContract(0))
            r2 = BatchRunner(scaled, RandomnessContract(0))
            windows = (
                nprng.random((100, spec.history, spec.n_neurons)) < 0.5
            ).astype(np.float64)
            assert np.max(np.abs(r1.probabilities(windows) - r2.probabilities(windows))) < 1e-12

    def test_shared_draws_give_identical_executions(self, nprng):
        for _ in range(10):
            spec = random_network(nprng)
            for lam_hat in (0.5, 2.0, 10.0):
                scaled = rescale_temperature(spec, lam_hat)
                x = (nprng.random(2) < 0.5).astype(np.uint8)
                init = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
                rng = RandomnessContract(555)
                e1 = run(spec, init, x, 20, rng, trial=1)
                e2 = run(scaled, init, x, 20, rng, trial=1)
                assert np.array_equal(e1.frames, e2.frames)


class TestJsonRoundTrip:
    def test_two_inhibitor(self):
        spec = build_two_inhibitor(3, 7.5)
        assert NetworkSpec.from_json(spec.to_json()) == spec

    def test_log_inhibitor_keeps_full_precision(self):
        spec = build_log_inhibitor(4, 2.0)
        back = NetworkSpec.from_json(spec.to_json())
        assert back == spec
        assert back.weight(9, 4, 1) == -7 * 2.0 / 2 - math.log(2.0)

    def test_random_networks(self, nprng):
        for _ in range(10):
            spec = random_network(nprng)
            assert NetworkSpec.from_json(spec.to_json()) == spec


_DROP = object()


def _loaded(*path, value=_DROP):
    """A call of ``from_json_dict`` on two-inhibitor n=2 with the entry at
    ``path`` set to ``value``, or removed."""
    def load():
        data = build_two_inhibitor(2, 5.0).to_json_dict()
        *parents, last = path
        node = data
        for key in parents:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
        return NetworkSpec.from_json_dict(data)
    return load


def _constructed(**kwargs):
    """A call of the constructor on two-inhibitor n=2's arrays with ``kwargs``."""
    def construct():
        spec = build_two_inhibitor(2, 5.0)
        return NetworkSpec(spec.kind, spec.polarity, spec.synapses, spec.biases, **kwargs)
    return construct


def _from_edges(**kwargs):
    """A call of ``from_edges`` on two-inhibitor n=2's roles and first edge with ``kwargs``."""
    def construct():
        spec = build_two_inhibitor(2, 5.0)
        return NetworkSpec.from_edges(spec.kind, spec.polarity, list(spec.edges())[:1], {}, **kwargs)
    return construct


class TestMalformedInput:
    @pytest.mark.parametrize("call", [
        pytest.param(_loaded("edges", 0, "lag", value="1"), id="json-lag-string"),
        pytest.param(_loaded("edges", 0, "lag", value=None), id="json-lag-null"),
        pytest.param(_loaded("neurons"), id="json-no-neurons"),
        pytest.param(_loaded("edges"), id="json-no-edges"),
        pytest.param(_loaded("biases"), id="json-no-biases"),
        pytest.param(_loaded("neurons", 0, "id"), id="json-neuron-without-id"),
        pytest.param(_loaded("biases", 0, "id"), id="json-bias-without-id"),
        pytest.param(_loaded("edges", 0, "weight"), id="json-edge-without-weight"),
        pytest.param(_loaded("edges", 0, "weight", value="x"), id="json-weight-string"),
        pytest.param(_loaded("history", value="1"), id="json-history-string"),
        pytest.param(_loaded("lambda", value="a"), id="json-lambda-string"),
        pytest.param(lambda: NetworkSpec.from_json_dict([build_two_inhibitor(2, 5.0).to_json_dict()]),
                     id="json-top-level-list"),
        pytest.param(_constructed(history=1.5), id="history-float"),
        pytest.param(_constructed(history="1"), id="history-string"),
        pytest.param(_constructed(history=None), id="history-none"),
        pytest.param(_constructed(lam="a"), id="lam-string"),
        pytest.param(_constructed(lam=None), id="lam-none"),
        pytest.param(lambda: NetworkSpec.from_dense(*_three_neurons(), np.zeros((1, 2, 2)),
                                                    np.zeros(3)), id="from-dense-wrong-shape"),
        pytest.param(_constructed(history=True), id="history-bool"),
        pytest.param(_constructed(lam=True), id="lam-bool"),
        pytest.param(_from_edges(history="1"), id="from-edges-history-string"),
        pytest.param(_from_edges(history=None), id="from-edges-history-none"),
        pytest.param(_loaded("edges", 0, "weight", value="2.5"), id="json-weight-numeric-string"),
        pytest.param(_loaded("biases", 0, "bias", value="7"), id="json-bias-numeric-string"),
        pytest.param(_loaded("edges", 0, "weight", value=True), id="json-weight-bool"),
        pytest.param(_loaded("lambda", value=True), id="json-lambda-bool"),
        pytest.param(_loaded("edges", 0, "pre", value=True), id="json-pre-bool"),
        pytest.param(_loaded("edges", 0, "lag", value=True), id="json-lag-bool"),
        pytest.param(_loaded("neurons", 1, "id", value=True), id="json-neuron-id-bool"),
        pytest.param(_loaded("biases", 0, "id", value=True), id="json-bias-id-bool"),
        pytest.param(lambda: NetworkSpec.from_edges(*_three_neurons(), [(0, 1, 1, "2.5")], {}),
                     id="from-edges-weight-string"),
        pytest.param(lambda: NetworkSpec.from_edges(*_three_neurons(), [], {1: "7"}),
                     id="from-edges-bias-string"),
        pytest.param(lambda: NetworkSpec.from_edges(*_three_neurons(), [], {True: 7.0}),
                     id="from-edges-bias-id-bool"),
        pytest.param(lambda: NetworkSpec(*_three_neurons(), Synapses([], [], [], []),
                                         ["0", "0", "7"]), id="biases-string"),
        pytest.param(lambda: NetworkSpec(*_three_neurons(), Synapses([], [], [], []),
                                         [False, True, False]), id="biases-bool"),
        pytest.param(lambda: NetworkSpec.from_dense(*_three_neurons(),
                                                    np.array([[["0", "2.5", "0"]] * 3]),
                                                    np.zeros(3)), id="from-dense-strings"),
        # bool role arrays once built kind [0, 1, 1] from [False, True, True]
        pytest.param(lambda: NetworkSpec([False, True, True], [EXCITATORY] * 3,
                                         Synapses([], [], [], []), np.zeros(3)),
                     id="kind-bool"),
        pytest.param(lambda: NetworkSpec(*_three_neurons()[:1], np.zeros(3, dtype=bool),
                                         Synapses([], [], [], []), np.zeros(3)),
                     id="polarity-bool"),
    ])
    def test_raises_invalid_network(self, call):
        # never a bare KeyError, TypeError or ValueError
        with pytest.raises(InvalidNetwork):
            call()
