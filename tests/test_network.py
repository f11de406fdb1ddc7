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
    Neuron,
    RandomnessContract,
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
            validate_network(NetworkSpec.from_dense(spec.neurons, np.abs(w), spec.biases))

    def test_mixed_sign_out_weights_rejected(self):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 2, 4] = -1.0  # excitatory y_0 -> a_s with negative weight
        with pytest.raises(DalesPrincipleViolation):
            validate_network(
                NetworkSpec.from_dense(spec.neurons, w, spec.biases, spec.lam, spec.history)
            )

    @pytest.mark.parametrize("edge, error", [
        ((1, 0, 1, 5.0), InputTargeted),  # y_0 -> x_0
        ((2, 1, 1, 1.0), DalesPrincipleViolation),  # positive weight out of a_c
    ])
    def test_rejected_when_built(self, edge, error):
        neurons = (
            Neuron(0, INPUT, EXCITATORY),
            Neuron(1, OUTPUT, EXCITATORY),
            Neuron(2, AUXILIARY, INHIBITORY),
        )
        with pytest.raises(error):
            NetworkSpec.from_edges(neurons, [(0, 1, 1, 2.0), edge], {1: 0.5})
        data = NetworkSpec.from_edges(neurons, [(0, 1, 1, 2.0)], {1: 0.5}).to_json_dict()
        data["edges"].append(dict(zip(("pre", "post", "lag", "weight"), edge)))
        with pytest.raises(error):
            NetworkSpec.from_json_dict(data)

    def test_lag_out_of_range(self):
        neurons = (
            Neuron(0, INPUT, EXCITATORY),
            Neuron(1, OUTPUT, EXCITATORY),
        )
        with pytest.raises(LagOutOfRange):
            NetworkSpec.from_edges(neurons, [(0, 1, 2, 1.0)], {}, history=1)

    def test_inputs_must_be_excitatory(self):
        with pytest.raises(Exception):
            Neuron(0, INPUT, "inhibitory_typo")

    def test_violations_name_the_neuron(self):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 4, 1] = 1.0
        with pytest.raises(InputTargeted, match="input neuron 1"):
            validate_network(NetworkSpec.from_dense(spec.neurons, np.abs(w), spec.biases))
        w = spec.weights.copy()
        w[0, 3, 5] = -1.0  # excitatory y_1; inhibitory a_s -> y_0 stays legal
        with pytest.raises(DalesPrincipleViolation, match="excitatory neuron 3 "):
            validate_network(NetworkSpec.from_dense(spec.neurons, w, spec.biases))
        w = spec.weights.copy()
        w[0, 5, 2] = 1.0  # inhibitory a_c
        with pytest.raises(DalesPrincipleViolation, match="inhibitory neuron 5 "):
            validate_network(NetworkSpec.from_dense(spec.neurons, w, spec.biases))


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

    def test_cached_and_read_only(self):
        spec = build_two_inhibitor(3, 5.0)
        assert spec.synapses is spec.synapses
        for a in spec.synapses:
            assert not a.flags.writeable

    def test_negative_zero_is_no_synapse(self):
        neurons = (Neuron(0, INPUT, EXCITATORY), Neuron(1, OUTPUT, EXCITATORY))
        spec = NetworkSpec.from_edges(neurons, [(0, 1, 1, -0.0)], {})
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
            same = NetworkSpec.from_dense(spec.neurons, w, spec.biases, spec.lam, spec.history)
            assert same == spec


def _three_neurons():
    return (Neuron(0, INPUT, EXCITATORY), Neuron(1, OUTPUT, EXCITATORY),
            Neuron(2, OUTPUT, EXCITATORY))


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
        ],
    )
    def test_rejected(self, lag0, pre, post, weight, match):
        with pytest.raises(InvalidNetwork, match=match):
            NetworkSpec(_three_neurons(), Synapses(lag0, pre, post, weight), np.zeros(3))

    def test_accepted_in_scan_order(self):
        syn = Synapses([0, 0, 1], [0, 1, 0], [2, 2, 1], [1.0, 2.0, 3.0])
        spec = NetworkSpec(_three_neurons(), syn, np.zeros(3), history=2)
        assert spec.weight(1, 2) == 2.0 and spec.weight(0, 1, lag=2) == 3.0
        assert spec.weight(0, 1) == 0.0

    def test_from_edges_sorts_keeps_the_last_repeat_and_drops_zeros(self):
        edges = [(0, 2, 1, 1.0), (0, 1, 1, 2.0), (0, 1, 1, 3.0), (0, 2, 1, 0.0), (1, 2, 1, 4.0)]
        spec = NetworkSpec.from_edges(_three_neurons(), edges, {})
        assert list(spec.edges()) == [(0, 1, 1, 3.0), (1, 2, 1, 4.0)]
        mapping = {(1, 2, 1): 4.0, (0, 1, 1): 3.0, (0, 2, 1): -0.0}
        assert NetworkSpec.from_edges(_three_neurons(), mapping, {}) == spec

    def test_from_edges_rejects_a_neuron_outside_the_network(self):
        with pytest.raises(InvalidNetwork, match="outside"):
            NetworkSpec.from_edges(_three_neurons(), [(0, 3, 1, 1.0)], {})

    @pytest.mark.parametrize("edge", [(0, 1.7, 1, 1.0), (0.0, 1, 1, 1.0), (0, 1, 1.0, 1.0)])
    def test_from_edges_rejects_a_non_integer_index(self, edge):
        with pytest.raises(InvalidNetwork, match="non-integer"):
            NetworkSpec.from_edges(_three_neurons(), [edge], {})

    def test_rescale_drops_a_weight_that_underflows(self):
        spec = NetworkSpec.from_edges(_three_neurons(), [(0, 1, 1, 1e-300), (0, 2, 1, 1.0)], {})
        scaled = rescale_temperature(spec, 1e-30)
        assert list(scaled.edges()) == [(0, 2, 1, 1e-30)]
        dense = NetworkSpec.from_dense(_three_neurons(), spec.weights * 1e-30, np.zeros(3), 1e-30)
        assert scaled == dense


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_weight(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        w = spec.weights.copy()
        w[0, 2, 4] = bad  # excitatory y_0 -> a_s: a NaN must not pass for positive
        with pytest.raises(InvalidNetwork, match="neuron 2 to neuron 4"):
            NetworkSpec.from_dense(spec.neurons, w, spec.biases)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bias(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        b = spec.biases.copy()
        b[3] = bad
        with pytest.raises(InvalidNetwork, match="neuron 3"):
            NetworkSpec.from_dense(spec.neurons, spec.weights, b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_lam(self, bad):
        spec = build_two_inhibitor(2, 5.0)
        with pytest.raises(InvalidNetwork):
            NetworkSpec.from_dense(spec.neurons, spec.weights, spec.biases, lam=bad)

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

    def test_out_is_bit_identical(self, nprng):
        z = np.concatenate([
            nprng.standard_normal(5000) * 40.0,
            nprng.standard_normal(502),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, -5e-324],
        ]).reshape(-1, 11)
        want = sigmoid(z)
        out = np.full_like(z, 7.0)
        assert sigmoid(z, out=out) is out
        assert out.tobytes() == want.tobytes()
        # in place, as the stepper uses it, and into a row slice of a buffer
        same = z.copy()
        assert sigmoid(same, out=same) is same
        assert same.tobytes() == want.tobytes()
        buf = np.zeros((z.shape[0] + 4, 11))
        sigmoid(z, out=buf[:-4])
        assert buf[:-4].tobytes() == want.tobytes() and not buf[-4:].any()
        # a 0-d array given as out stays an array
        cell = np.empty(())
        assert sigmoid(np.float64(-0.0), out=cell) is cell and cell == 0.5

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

    def test_nonpositive_temperature(self):
        spec = build_two_inhibitor(2, 5.0)
        with pytest.raises(NonpositiveTemperature):
            rescale_temperature(spec, 0.0)

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
