import math

import numpy as np
import pytest

from wtalab import (
    LengthMismatch,
    NetworkSpec,
    Neuron,
    NotValidConfiguration,
    RandomnessContract,
    StateSpaceTooLarge,
    WindowStateSpace,
    WtaLabError,
    build,
    build_log_inhibitor,
    build_two_inhibitor,
    convergence_cdf,
    exact_step_distribution,
    hold_probability,
    sigmoid,
    truncated_expectation,
    wilson_interval,
)
from wtalab.experiments import batch_convergence_times, initial_windows_batch
from wtalab.network import AUXILIARY, EXCITATORY, INPUT, OUTPUT
from wtalab.simulate import BatchRunner

from conftest import random_network
from test_simulate import dense_potentials


class TestStepDistribution:
    def test_uniform_when_all_potentials_zero(self):
        neurons = (
            Neuron(0, INPUT, EXCITATORY),
            Neuron(1, OUTPUT, EXCITATORY),
            Neuron(2, AUXILIARY, EXCITATORY),
            Neuron(3, AUXILIARY, EXCITATORY),
        )
        spec = NetworkSpec.from_edges(neurons, [], {})
        d = exact_step_distribution(spec, np.zeros((1, 4), np.uint8), [0])
        assert np.allclose(d.probs, 1.0 / 8.0)

    def test_driven_competition_from_silence(self):
        g = 12.0
        spec = build_two_inhibitor(1, g)
        win = np.zeros((1, 4), dtype=np.uint8)
        win[0, 0] = 1
        d = exact_step_distribution(spec, win, [1])
        marg = {u: 0.0 for u in (1, 2, 3)}
        for cfg, p in d.items():
            for u in marg:
                if cfg[u]:
                    marg[u] += p
        assert marg[1] == pytest.approx(0.5, abs=1e-12)
        assert marg[2] == pytest.approx(sigmoid(-g / 2), rel=1e-12)
        assert marg[3] == pytest.approx(sigmoid(-3 * g / 2), rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda g: build("two_inhibitor", 3, 7.3),
        lambda g: build("single_inhibitor", 3, 7.3),
        lambda g: build("log_inhibitor", 3, 7.3),
        lambda g: random_network(g, 2, 3, 2, history=1, lam=0.37),
        lambda g: random_network(g, 2, 2, 2, history=2, lam=2.9),
        # windows wider than 2^m float64s: the probabilities go in row blocks
        lambda g: random_network(g, 40, 1, 1, history=2, lam=0.8),
    ], ids=[
        "two_inhibitor", "single_inhibitor", "log_inhibitor", "random_h1", "random_h2",
        "random_wide",
    ])
    def test_step_probabilities_match_the_dense_reference(self, nprng, make):
        spec = make(nprng)
        h, ni = spec.history, spec.non_input_indices
        m = ni.size
        x = (nprng.random(spec.input_indices.size) < 0.6).astype(np.uint8)
        space = WindowStateSpace(spec, x)
        # state s holds the frame `a` lags back in bits m*a .. m*a+m-1
        s = np.arange(space.n_states)
        bits = (s[:, None] >> np.arange(m * h)) & 1
        windows = np.zeros((s.size, h, spec.n_neurons), dtype=np.uint8)
        windows[:, :, spec.input_indices] = x
        windows[:, :, ni] = bits.reshape(s.size, h, m)[:, ::-1]
        pot, _ = dense_potentials(spec, windows)
        assert np.max(np.abs(space.step_probabilities - sigmoid(pot / spec.lam))) <= 1e-12
        for k in nprng.integers(0, s.size, 5).tolist():
            assert space.window_index(windows[k]) == k

    def test_rows_sum_to_one(self):
        spec = build_two_inhibitor(3, 7.0)
        space = WindowStateSpace(spec, [1, 0, 1])
        sums = space.kernel.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12

    def test_matches_monte_carlo(self):
        spec = build_two_inhibitor(2, 6.0)
        x = np.array([1, 1], dtype=np.uint8)
        win = np.zeros((1, 6), dtype=np.uint8)
        win[0, [0, 1, 2, 3]] = 1
        d = exact_step_distribution(spec, win, x)
        rng = RandomnessContract(41)
        runner = BatchRunner(spec, rng)
        trials = 1_000_000
        ids = np.arange(trials, dtype=np.int64)
        frames = np.broadcast_to(
            win.astype(np.float64), (trials, 1, 6)
        )
        new = runner.step_bits(frames, 1, ids, x)
        codes = new[:, spec.non_input_indices].astype(np.int64) @ (
            1 << np.arange(4, dtype=np.int64)
        )
        counts = np.bincount(codes, minlength=16)
        for code in range(16):
            p = d.probs[code]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(counts[code] / trials - p) < max(4 * sigma, 1e-5)

    def test_size_guard(self):
        spec = build_two_inhibitor(30, 5.0)
        with pytest.raises(StateSpaceTooLarge):
            WindowStateSpace(spec, [1] * 30)

    @pytest.mark.parametrize("tag, n_max", [
        ("two_inhibitor", 9), ("single_inhibitor", 10), ("log_inhibitor", 4),
    ])
    def test_cap_counts_kernel_entries(self, tag, n_max):
        # the kernel holds 2^(m*h) states x 2^m outcomes; the cap is 2^22 of them
        WindowStateSpace(build(tag, n_max, 5.0), [1] * n_max)
        with pytest.raises(StateSpaceTooLarge):
            WindowStateSpace(build(tag, n_max + 1, 5.0), [1] * (n_max + 1))

    def test_refused_before_allocating(self):
        import tracemalloc

        spec = build_two_inhibitor(20, 5.0)  # 2^22 states, 2^44 kernel entries
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge):
                WindowStateSpace(spec, [1] * 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_input_length_mismatch_checked_before_the_cap(self):
        with pytest.raises(LengthMismatch):
            WindowStateSpace(build_two_inhibitor(2, 5.0), [1] * 3)
        with pytest.raises(LengthMismatch):
            WindowStateSpace(build_two_inhibitor(30, 5.0), [1] * 3)


class TestConvergenceCdf:
    @pytest.mark.parametrize("t_s, t_max", [(0, 5), (-1, 5), (3, -1)])
    def test_rejects_out_of_range_times(self, t_s, t_max):
        spec = build_two_inhibitor(2, 8.0)
        init = np.zeros((1, 6), dtype=np.uint8)
        init[0, :2] = 1
        with pytest.raises(WtaLabError):
            convergence_cdf(spec, [1, 1], init, t_s=t_s, t_max=t_max)

    def test_short_horizon_all_zero(self):
        spec = build_two_inhibitor(2, 8.0)
        init = np.zeros((1, 6), dtype=np.uint8)
        init[0, :2] = 1
        cdf = convergence_cdf(spec, [1, 1], init, t_s=3, t_max=2)
        assert np.all(cdf == 0.0)

    def test_nondecreasing_and_bounded(self):
        spec = build_two_inhibitor(2, 6.0)
        init = np.zeros((1, 6), dtype=np.uint8)
        init[0, :2] = 1
        cdf = convergence_cdf(spec, [1, 1], init, t_s=3, t_max=40)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] <= 1.0 + 1e-12

    def test_monte_carlo_agreement(self):
        g, t_s = 12.0, 3
        spec = build_two_inhibitor(1, g)
        x = np.array([1], dtype=np.uint8)
        init = np.zeros((1, 4), dtype=np.uint8)
        init[0, 0] = 1
        cdf = convergence_cdf(spec, x, init, t_s, 20)
        rng = RandomnessContract(5)
        trials = 100_000
        ids = np.arange(trials, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "all_zero", x, ids, rng)
        conv = batch_convergence_times(spec, x, windows0, ids, t_s, 24, rng)
        for t in (5, 10, 20):
            hits = int(((conv >= 0) & (conv + t_s <= t)).sum())
            lo, hi = wilson_interval(hits, trials, 0.999)
            assert lo <= cdf[t] <= hi

    def test_quiescent_input_lower_bounds(self):
        g, n, t_s = 12.0, 2, 6
        spec = build_two_inhibitor(n, g)
        x = np.zeros(n, dtype=np.uint8)
        init = np.zeros((1, 2 * n + 2), dtype=np.uint8)
        cdf = convergence_cdf(spec, x, init, t_s, t_s)
        # the all-silent path is one way to realize the hold
        space = WindowStateSpace(spec, x)
        p_stay = space.kernel[0, 0]
        assert cdf[t_s] >= p_stay ** t_s - 1e-12
        assert cdf[t_s] >= 1.0 - t_s * (n + 2) * math.exp(-g / 2)

    def test_truncated_expectation(self):
        spec = build_two_inhibitor(2, 10.0)
        init = np.zeros((1, 6), dtype=np.uint8)
        init[0, :2] = 1
        t_s = 3
        cdf = convergence_cdf(spec, [1, 1], init, t_s, 60)
        exp, residual = truncated_expectation(cdf, t_s)
        assert residual < 0.05
        rng = RandomnessContract(13)
        ids = np.arange(50_000, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "all_zero", [1, 1], ids, rng)
        conv = batch_convergence_times(spec, [1, 1], windows0, ids, t_s, 64, rng)
        mc_mean = conv[conv >= 0].mean()
        assert abs(exp / cdf[-1] - mc_mean) < 0.2

    def test_history_two_family(self):
        spec = build_log_inhibitor(2, 8.0)
        x = np.array([1, 1], dtype=np.uint8)
        init = np.zeros((2, spec.n_neurons), dtype=np.uint8)
        init[:, :2] = 1
        cdf = convergence_cdf(spec, x, init, t_s=2, t_max=12)
        rng = RandomnessContract(23)
        trials = 50_000
        ids = np.arange(trials, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "all_zero", x, ids, rng)
        conv = batch_convergence_times(spec, x, windows0, ids, 2, 15, rng)
        for t in (4, 8, 12):
            hits = int(((conv >= 0) & (conv + 2 <= t)).sum())
            lo, hi = wilson_interval(hits, trials, 0.999)
            assert lo <= cdf[t] <= hi


class TestHoldProbability:
    def make_valid(self, spec, winner=0):
        cfg = np.zeros(spec.n_neurons, dtype=np.uint8)
        cfg[:2] = 1
        cfg[2 + winner] = 1
        cfg[4] = 1  # a_s
        return cfg

    def test_zero_steps(self):
        spec = build_two_inhibitor(2, 12.0)
        assert hold_probability(spec, [1, 1], self.make_valid(spec), 0) == 1.0

    def test_bound_and_product_form(self):
        g, t_s = 12.0, 10
        spec = build_two_inhibitor(2, g)
        cfg = self.make_valid(spec)
        hp = hold_probability(spec, [1, 1], cfg, t_s)
        assert hp >= 1.0 - t_s * 4 * math.exp(-g / 2)
        one = hold_probability(spec, [1, 1], cfg, 1)
        assert hp == pytest.approx(one ** t_s, rel=1e-12)

    def test_invalid_window_rejected(self):
        spec = build_two_inhibitor(2, 12.0)
        cfg = self.make_valid(spec)
        cfg[5] = 1  # convergence inhibitor active: not the valid class
        with pytest.raises(NotValidConfiguration):
            hold_probability(spec, [1, 1], cfg, 3)

    def test_single_inhibitor_variant_steady_state(self):
        g = 12.0
        from wtalab import build_single_inhibitor

        spec = build_single_inhibitor(2, g)
        cfg = np.zeros(5, dtype=np.uint8)
        cfg[[0, 1, 2, 4]] = 1  # winner plus the lone inhibitor
        hp = hold_probability(spec, [1, 1], cfg, 1, variant_tag="single_inhibitor")
        # under a_c alone the winner survives with probability exactly 1/2
        assert hp < 0.55

    def test_time_homogeneous_kernel(self):
        spec = build_two_inhibitor(2, 9.0)
        space = WindowStateSpace(spec, [1, 0])
        k1 = space.kernel
        k2 = WindowStateSpace(spec, [1, 0]).kernel
        assert np.array_equal(k1, k2)
