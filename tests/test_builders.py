import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wtalab import (
    InvalidGamma,
    InvalidSize,
    MissingDelta,
    NetworkSpec,
    TrialPlan,
    WtaInstance,
    WtaLabError,
    WtaVariant,
    build,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    ceil_log2,
    gamma_for,
    potential,
    run_trials,
    tc_bound,
    validate_network,
)

DATA = Path(__file__).parent / "data"


class TestTwoInhibitor:
    def test_bias_examples(self):
        spec = build_two_inhibitor(1, 10.0)
        assert spec.bias(3) == 15.0  # convergence inhibitor at 3g/2
        assert spec.bias(2) == 5.0

    def test_edge_count(self):
        spec = build_two_inhibitor(4, 2.0)
        assert len(list(spec.edges())) == 24

    def test_validates(self):
        validate_network(build_two_inhibitor(5, 3.5))

    def test_inhibitors_have_identical_outgoing_rows(self):
        spec = build_two_inhibitor(6, 4.0)
        a_s, a_c = 12, 13
        assert np.array_equal(spec.weights[0, a_s, :], spec.weights[0, a_c, :])

    def test_golden_table(self):
        spec = build_two_inhibitor(3, 2.0)
        golden = json.loads((DATA / "golden_two_inhibitor_n3_gamma2.json").read_text())
        assert spec.to_json_dict() == golden
        assert NetworkSpec.from_json_dict(golden) == spec

    def test_invalid_args(self):
        with pytest.raises(InvalidSize):
            build_two_inhibitor(0, 2.0)
        with pytest.raises(InvalidGamma):
            build_two_inhibitor(2, 0.0)

    @pytest.mark.parametrize("gamma", [True, "5", None, -1.0, np.float64(0.0)])
    def test_gamma_must_be_a_positive_real(self, gamma):
        # a bool passed as 1; a str or None raised TypeError
        for build in (build_two_inhibitor, build_single_inhibitor, build_log_inhibitor):
            with pytest.raises(InvalidGamma, match="gamma"):
                build(4, gamma)
        with pytest.raises(InvalidGamma, match="gamma"):
            WtaInstance(n=4, gamma=gamma, t_s=3, delta=None, t_c=20)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_non_finite_gamma(self, gamma):
        for build in (build_two_inhibitor, build_single_inhibitor, build_log_inhibitor):
            with pytest.raises(InvalidGamma):
                build(4, gamma)
        with pytest.raises(InvalidGamma):
            WtaInstance(n=4, gamma=gamma, t_s=3, delta=None, t_c=20)


class TestSingleInhibitor:
    def test_neuron_count(self):
        assert build_single_inhibitor(3, 8.0).n_neurons == 7

    def test_winner_under_inhibitor_sits_at_zero(self):
        g = 8.0
        spec = build_single_inhibitor(3, g)
        win = np.zeros((1, 7), dtype=np.uint8)
        win[0, [0, 3, 6]] = 1  # x_0, y_0, a_c
        assert potential(spec, win, 3) == pytest.approx(0.0, abs=1e-9)

    def test_validates(self):
        validate_network(build_single_inhibitor(4, 6.0))

    def test_matches_two_inhibitor_with_both_active(self):
        # with its inhibitor firing, the single-inhibitor network reproduces
        # the two-inhibitor firing probabilities under both inhibitors
        import itertools

        from wtalab import spike_probability

        n, g = 3, 8.0
        one = build_single_inhibitor(n, g)
        two = build_two_inhibitor(n, g)
        for bits in itertools.product([0, 1], repeat=2 * n):
            w1 = np.array(list(bits) + [1], dtype=np.uint8)[None, :]
            w2 = np.array(list(bits) + [1, 1], dtype=np.uint8)[None, :]
            for i in range(n):
                p1 = spike_probability(one, potential(one, w1, n + i))
                p2 = spike_probability(two, potential(two, w2, n + i))
                assert p1 == pytest.approx(p2, abs=1e-12)

    def test_golden_table(self):
        spec = build_single_inhibitor(2, 2.0)
        golden = json.loads(
            (DATA / "golden_single_inhibitor_n2_gamma2.json").read_text()
        )
        assert spec.to_json_dict() == golden


class TestLogInhibitor:
    def test_inhibitor_count(self):
        spec = build_log_inhibitor(8, 20.0)
        assert spec.auxiliary_indices.size == ceil_log2(8) + 1 == 4

    def test_bias_example(self):
        spec = build_log_inhibitor(8, 20.0)
        assert spec.bias(18) == 4 * 20.0 - 10.0  # a_2

    def test_graded_thresholds_at_five_outputs(self):
        g = 20.0
        spec = build_log_inhibitor(8, g)
        win = np.zeros((2, spec.n_neurons), dtype=np.uint8)
        win[1, 8:13] = 1  # five outputs fired in the latest frame
        a_2, a_3 = 18, 19
        assert potential(spec, win, a_2) == pytest.approx(3 * g / 2, rel=1e-12)
        assert potential(spec, win, a_3) == pytest.approx(
            5 * g - 8 * g + g / 2, rel=1e-12
        )
        assert potential(spec, win, a_3) < 0

    def test_minimum_size(self):
        with pytest.raises(InvalidSize):
            build_log_inhibitor(1, 5.0)

    def test_validates(self):
        validate_network(build_log_inhibitor(6, 9.0))

    def test_golden_table(self):
        spec = build_log_inhibitor(4, 2.0)
        golden = json.loads((DATA / "golden_log_inhibitor_n4_gamma2.json").read_text())
        assert spec.to_json_dict() == golden

    def test_deterministic(self):
        assert build_log_inhibitor(5, 3.0) == build_log_inhibitor(5, 3.0)


class TestCeilLog2:
    @pytest.mark.parametrize(
        "n,expect", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10)]
    )
    def test_values(self, n, expect):
        assert ceil_log2(n) == expect

    def test_zero_rejected(self):
        with pytest.raises(InvalidSize):
            ceil_log2(0)


class TestParameterHelpers:
    def test_gamma_two_inhibitor_high(self):
        v = WtaVariant("two_inhibitor", "high_probability")
        got = gamma_for(v, 8, 10, 0.1)
        assert got == 4.0 * math.log(1000.0) + 10.0
        assert got == pytest.approx(37.631, abs=1e-3)

    def test_tc_two_inhibitor_high(self):
        v = WtaVariant("two_inhibitor", "high_probability")
        assert tc_bound(v, 8, 0.1) == 1245

    def test_tc_log_expected_constant(self):
        v = WtaVariant("log_inhibitor", "expected_time")
        assert tc_bound(v, 1024) == 4001

    def test_gamma_log_high(self):
        v = WtaVariant("log_inhibitor", "high_probability")
        assert gamma_for(v, 8, 10, 0.1) == 12.0 * math.log(39.0 * 10 * 8 / 0.1)

    def test_gamma_log_expected(self):
        v = WtaVariant("log_inhibitor", "expected_time")
        got = gamma_for(v, 8, 10)
        assert got == 12.0 * math.log(39.0 * 10 * 8)
        assert got == pytest.approx(96.547, abs=1e-3)

    def test_missing_delta(self):
        v = WtaVariant("two_inhibitor", "high_probability")
        with pytest.raises(MissingDelta):
            gamma_for(v, 8, 10)
        with pytest.raises(MissingDelta):
            tc_bound(v, 8)

    def test_expected_mode_needs_no_delta(self):
        v = WtaVariant("two_inhibitor", "expected_time")
        assert gamma_for(v, 16, 10) == 4.0 * math.log(18 * 10) + 10.0
        assert tc_bound(v, 16) == math.ceil(108.0 * 7)


class TestWtaInstance:
    def test_theorem_constructor(self):
        inst = WtaInstance.for_theorem(
            "two_inhibitor", "high_probability", 8, t_s=10, delta=0.1
        )
        assert inst.t_c == 1245
        assert inst.input_bits == (1,) * 8

    def test_below_threshold_rejected(self):
        v = WtaVariant("two_inhibitor", "high_probability")
        with pytest.raises(InvalidGamma):
            WtaInstance(n=8, gamma=5.0, t_s=10, delta=0.1, t_c=2000, variant=v)

    def test_free_mode_accepts_small_gamma(self):
        inst = WtaInstance(
            n=3, gamma=6.0, t_s=3, delta=None, t_c=20,
            variant=WtaVariant("two_inhibitor"),
        )
        assert inst.gamma == 6.0

    @pytest.mark.parametrize("delta", [1.5, 1.0, 0.0, -0.1, float("nan"), "0.1", True])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(WtaLabError):
            WtaInstance(n=3, gamma=6.0, t_s=3, delta=delta, t_c=20)
        v = WtaVariant("two_inhibitor", "high_probability")
        with pytest.raises(WtaLabError):
            gamma_for(v, 3, 3, delta)
        with pytest.raises(WtaLabError):
            tc_bound(v, 3, delta)

    @pytest.mark.parametrize("field, value, error", [
        ("n", 8.5, InvalidSize), ("n", 0, InvalidSize), ("n", "8", InvalidSize),
        ("t_s", 2.5, WtaLabError), ("t_s", 0, WtaLabError),
        ("t_c", 20.5, WtaLabError), ("t_c", 0, WtaLabError),
        ("input_bits", (1, 2), WtaLabError), ("t_s", True, WtaLabError),
    ])
    def test_integer_fields_rejected_when_built(self, field, value, error):
        kwargs = dict(n=8, gamma=6.0, t_s=3, delta=None, t_c=20)
        with pytest.raises(error, match=field):
            WtaInstance(**{**kwargs, field: value})

    def test_t_c_below_regime_bound_rejected(self):
        v = WtaVariant("two_inhibitor", "expected_time")
        with pytest.raises(WtaLabError, match="t_c 10 below the regime bound 432"):
            WtaInstance(n=2, gamma=30.0, t_s=3, delta=None, t_c=10, variant=v)

    @pytest.mark.parametrize("call", [
        lambda: build("nope", 2, 1.0),
        lambda: WtaVariant("nope"),
        lambda: WtaVariant("two_inhibitor", "nope"),
    ], ids=["build-tag", "variant-tag", "variant-mode"])
    def test_unknown_names_rejected(self, call):
        with pytest.raises(WtaLabError, match="unknown"):
            call()

    @pytest.mark.parametrize("tag", ["two_inhibitor", "log_inhibitor"])
    @pytest.mark.parametrize("mode, delta", [("high_probability", 0.1), ("expected_time", None)])
    def test_sizes_below_one_rejected(self, tag, mode, delta):
        # the thresholds take logarithms of n and t_s
        v = WtaVariant(tag, mode)
        for n, t_s in ((0, 3), (-2, 3), (3, 0), (3, -1)):
            with pytest.raises(WtaLabError):
                gamma_for(v, n, t_s, delta)
        for n in (0, -2):
            with pytest.raises(WtaLabError):
                tc_bound(v, n, delta)


# sha256 of build(tag, n, 13.7).to_json(), recorded from the dense-tensor
# builders: the edge-list builders must emit the same networks bit for bit
PINNED_JSON_SHA256 = {
    ("two_inhibitor", 1): "e724cef34391c04374d0ffc560ea5fcf9a663b964b87be0a095ff78b549518eb",
    ("two_inhibitor", 2): "3e4172774e0e7d7b84ec652fa39ff6a28b6a1f481239816d49bbb1de2d3298da",
    ("two_inhibitor", 3): "9f6cfe8f5f6f9add78d0e694051de8f61857879cabe174bf8ef249c4c2fc87f0",
    ("two_inhibitor", 8): "1d5ede69e2c90c371758f53acd3f81af881b79c1bc718801c3a9df976022e957",
    ("two_inhibitor", 37): "fad73f85800eb562972afddbec6322c8a5b10111839c44c584423c696d983447",
    ("two_inhibitor", 1024): "5888361866940d40500d2e20e1416c4d37e8aa6ef70c3a84b6e7b4f66574a15f",
    ("single_inhibitor", 1): "66beae627effb1fb52f394948d380f85836ddb11a2315e02ed8198102eded7b8",
    ("single_inhibitor", 2): "5fe39caa5ae0373cf9427ef17669556b6784594a2a538d437cb746a1d084b630",
    ("single_inhibitor", 3): "a570f5b544f581bc5bddb6285fab16ab4c84588ba76d333a3534ed7a2c63b3c5",
    ("single_inhibitor", 8): "1f26c7de61250952da994c231656a9b008b78f3bb3cb85ea7311b5915b53f4c8",
    ("single_inhibitor", 37): "a73c05228e0d77691b5b4e42b5c01c2805e647d58b5c3b41b0d14254d4151d02",
    ("single_inhibitor", 1024): "d9ab177cc2e04b7713f736ee49e2f67e402f8ac403397cb378fb7f32fad00dec",
    ("log_inhibitor", 2): "c8f6c479b3cee32f26a2d4dbdf16b83c1ffa8fe16cb682a8dcc993582575377b",
    ("log_inhibitor", 3): "3c8f4e713ef418477644c12e557e1ca27adc3a727bbe814e189b882209954912",
    ("log_inhibitor", 8): "cdc5c612688af84aeb9864ae998ce040ae59830f220d3866b619d978283a25f6",
    ("log_inhibitor", 37): "cd830717a18e4c7b0055f6472c7a7613461aca0e14f84a8607fb3f50eff298ee",
    ("log_inhibitor", 1024): "5005b266903405feb0eb7ff2b5d29e51ae06fd9bf895df211f8859ff18a114f4",
}


class TestSparseBuilders:
    @pytest.mark.parametrize("tag, n", sorted(PINNED_JSON_SHA256))
    def test_json_pinned(self, tag, n):
        text = build(tag, n, 13.7).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_JSON_SHA256[tag, n]

    # A dense (h, N, N) float64 tensor at n = 2^14 would take 8.6 GB for the
    # two-inhibitor family (N = 2n + 2, h = 1) and 17.2 GB for the graded one
    # (h = 2); the synapse arrays take a few MB.
    @pytest.mark.parametrize("tag, limit", [("two_inhibitor", 50e6), ("log_inhibitor", 100e6)])
    def test_large_n_builds_in_little_memory(self, tag, limit):
        tracemalloc.start()
        try:
            spec = build(tag, 1 << 14, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        assert "weights" not in vars(spec)

    def test_monte_carlo_never_builds_the_dense_weights(self):
        inst = WtaInstance.for_theorem("two_inhibitor", "expected_time", 1024, t_s=10)
        spec = inst.build()
        run_trials(TrialPlan(instance=inst, trials=8, seed=1), spec=spec)
        assert "weights" not in vars(spec)
