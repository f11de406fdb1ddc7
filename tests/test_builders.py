import json
import math
from pathlib import Path

import numpy as np
import pytest

from wtalab import (
    InvalidGamma,
    InvalidSize,
    MissingDelta,
    NetworkSpec,
    WtaInstance,
    WtaVariant,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    ceil_log2,
    gamma_for,
    potential,
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
