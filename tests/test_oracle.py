import itertools
import math
import warnings

import numpy as np
import pytest

from wtalab import (
    LengthMismatch,
    LumpedChain,
    NetworkSpec,
    NotValidConfiguration,
    RandomnessContract,
    StateSpaceTooLarge,
    TopologyMismatch,
    WindowStateSpace,
    WtaLabError,
    build,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    convergence_cdf,
    hold_probability,
    sigmoid,
    truncated_expectation,
    wilson_interval,
)
from wtalab.classify import ConvergenceScan
from wtalab.experiments import batch_convergence_times, initial_windows_batch
from wtalab.oracle import _exchangeable, binomial_pmf
from wtalab.network import AUXILIARY, EXCITATORY, INPUT, OUTPUT
from wtalab.simulate import BatchRunner, initial_window, window_frames

from conftest import random_network
from test_simulate import dense_potentials


class TestStepDistribution:
    def test_uniform_when_all_potentials_zero(self):
        kind = [INPUT, OUTPUT, AUXILIARY, AUXILIARY]
        spec = NetworkSpec.from_edges(kind, [EXCITATORY] * 4, [], {})
        space = WindowStateSpace(spec, [0])
        probs = space.kernel[space.state_index(np.zeros((1, 4), np.uint8))]
        assert np.allclose(probs, 1.0 / 8.0)

    def test_driven_competition_from_silence(self):
        g = 12.0
        spec = build_two_inhibitor(1, g)
        win = np.zeros((1, 4), dtype=np.uint8)
        win[0, 0] = 1
        space = WindowStateSpace(spec, [1])
        marg = {u: 0.0 for u in (1, 2, 3)}
        for cfg, p in zip(space.full_frames, space.kernel[space.state_index(win)]):
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
        # 40 inputs: windows much wider than the 2^m next frames, one row block
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
            assert space.state_index(windows[k]) == k

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
        space = WindowStateSpace(spec, x)
        probs = space.kernel[space.state_index(win)]
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
            p = probs[code]
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
    @pytest.mark.parametrize("t_s, t_max", [(0, 5), (-1, 5), (3, -1), (2.5, 5), (3, 5.0)])
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

    # The CDFs at n=2, gamma=5, X = 11 and t_max = 5, as the full walk gave
    # them before a horizon short of the hold returned early. From either
    # start the counter is 0 at frame 0, so the hold of t_s completes at
    # frame 1 + t_s at the earliest: t_s >= 5 reads all zero.
    _SHORT_HORIZON = {
        "all_zero": [
            [0.0, 0.0, 0.2685621537305344, 0.33087306042778974, 0.41780197679108266,
             0.5122176156770136],
            [0.0, 0.0, 0.0, 0.24665357504624852, 0.3038813254487575, 0.3837282600167975],
            [0.0, 0.0, 0.0, 0.0, 0.22653223932713162, 0.27909150366337215],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.20805234809567522],
        ],
        "all_fire": [
            [0.0, 0.0, 0.2685621537305344, 0.33087306042778974, 0.4178019767910826,
             0.5122176156770136],
            [0.0, 0.0, 0.0, 0.24665357504624852, 0.3038813254487575, 0.3837282600167975],
            [0.0, 0.0, 0.0, 0.0, 0.22653223932713162, 0.27909150366337215],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.20805234809567522],
        ],
    }

    @pytest.mark.parametrize("t_s", range(1, 9))
    @pytest.mark.parametrize("start", sorted(_SHORT_HORIZON))
    def test_pinned_around_the_first_reachable_hold(self, start, t_s):
        spec = build_two_inhibitor(2, 5.0)
        x = np.ones(2, dtype=np.uint8)
        cdf = convergence_cdf(spec, x, initial_window(spec, start, x), t_s, 5)
        rows = self._SHORT_HORIZON[start]
        assert cdf.tolist() == (rows[t_s - 1] if t_s <= len(rows) else [0.0] * 6)

    @pytest.mark.parametrize("t_s", [2, 3, 5])
    @pytest.mark.parametrize("build_spec", [build_two_inhibitor, build_log_inhibitor],
                             ids=["lumped_chain", "window_chain"])
    def test_valid_start_first_completes_at_t_s(self, build_spec, t_s):
        # a start window whose h frames repeat one valid output begins at
        # counter h, so the hold first completes at frame h + t_s - h = t_s
        spec = build_spec(2, 8.0)
        x = np.ones(2, dtype=np.uint8)
        window = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
        window[:, spec.input_indices] = 1
        window[:, spec.output_indices[0]] = 1
        window[:, spec.auxiliary_indices[0]] = 1
        reached = convergence_cdf(spec, x, window, t_s, t_s)
        assert np.all(reached[:t_s] == 0.0) and reached[t_s] > 0.0
        assert convergence_cdf(spec, x, window, t_s, t_s - 1).tolist() == [0.0] * t_s

    @pytest.mark.parametrize("build_spec", [build_two_inhibitor, build_log_inhibitor],
                             ids=["lumped_chain", "window_chain"])
    def test_hold_past_the_horizon_builds_no_counter_rows(self, build_spec):
        # 2^62 counter rows of held mass could never be allocated
        spec = build_spec(2, 5.0)
        x = np.ones(2, dtype=np.uint8)
        cdf = convergence_cdf(spec, x, initial_window(spec, "all_zero", x), 1 << 62, 5)
        assert cdf.tolist() == [0.0] * 6

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


def _path_cdf(spec, x, window, t_s, t_max):
    """``convergence_cdf`` by enumerating every outcome path: each path is
    weighted by the product of its ``WindowStateSpace.kernel`` entries and
    scanned by ``ConvergenceScan``; a path leaves the batch, its weight added
    to the CDF, at the frame its hold completes."""
    space = WindowStateSpace(spec, x)
    outs = window_frames(spec, window)[:, spec.output_indices]
    scan = ConvergenceScan(x, t_s)
    cdf = np.zeros(t_max + 1)
    for t in range(spec.history):
        if scan.update(t, outs[t : t + 1])[0]:
            cdf[t:] = 1.0
            return cdf
    code_outs = space.frame_bits[:, space.out_positions]
    n_codes = 1 << space.m
    older = (1 << (space.m * (spec.history - 1))) - 1  # the codes a step keeps
    states, weight = np.array([space.state_index(window)]), np.ones(1)
    for t in range(spec.history, t_max + 1):
        parent = np.repeat(np.arange(states.size), n_codes)
        code = np.tile(np.arange(n_codes), states.size)
        weight = weight[parent] * space.kernel[states[parent], code]
        states = ((states[parent] & older) << space.m) + code
        scan.drop(parent)
        hit = scan.update(t, code_outs[code])
        cdf[t:] += weight[hit].sum()
        scan.drop(~hit)
        states, weight = states[~hit], weight[~hit]
    return cdf


class TestAgainstEveryPath:
    """The walk against ``_path_cdf``, which shares no step with it: no
    counter, no valid-state bookkeeping, no next-state table."""

    @pytest.mark.parametrize("tag, n, t_max", [
        ("two_inhibitor", 1, 6), ("two_inhibitor", 2, 5), ("single_inhibitor", 2, 6),
        ("log_inhibitor", 2, 6),
    ])
    @pytest.mark.parametrize("start", ["all_zero", "all_fire"])
    @pytest.mark.parametrize("t_s", [1, 2])
    def test_every_path(self, tag, n, t_max, start, t_s):
        spec = build(tag, n, 4.0)
        for x in dict.fromkeys([(1,) * n, (0,) * n, (1,) + (0,) * (n - 1)]):
            x = np.array(x, dtype=np.uint8)
            window = initial_window(spec, start, x)
            want = _path_cdf(spec, x, window, t_s, t_max)
            assert np.max(np.abs(convergence_cdf(spec, x, window, t_s, t_max) - want)) <= 1e-14
            assert np.max(np.abs(WindowStateSpace(spec, x).cdf(window, t_s, t_max) - want)) <= 1e-14

    def test_window_that_already_holds(self):
        # both frames of the window show the same valid output, so with
        # t_s = 1 the hold is complete at frame 1, before any step
        spec = build_log_inhibitor(2, 4.0)
        x = np.array([1, 1], dtype=np.uint8)
        window = np.zeros((2, spec.n_neurons), dtype=np.uint8)
        window[:, spec.input_indices] = x
        window[:, spec.output_indices[0]] = 1
        cdf = convergence_cdf(spec, x, window, 1, 6)
        assert np.array_equal(cdf, _path_cdf(spec, x, window, 1, 6))
        assert np.array_equal(cdf, [0, 1, 1, 1, 1, 1, 1])
        assert np.array_equal(convergence_cdf(spec, x, window, 1, 0), [0])


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

    @pytest.mark.parametrize("t_s", [-3, 2.5])
    def test_bad_step_counts_rejected(self, t_s):
        spec = build_two_inhibitor(2, 12.0)
        with pytest.raises(WtaLabError, match="t_s"):
            hold_probability(spec, [1, 1], self.make_valid(spec), t_s)

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
        hp = hold_probability(spec, [1, 1], cfg, 1)
        # under a_c alone the winner survives with probability exactly 1/2
        assert hp < 0.55

    def test_network_without_auxiliaries_rejected(self):
        spec = random_network(np.random.default_rng(1), n_aux=0, history=1)
        window = np.zeros((1, spec.n_neurons), dtype=np.uint8)
        window[0, :3] = 1  # both inputs and the first output
        with pytest.raises(TopologyMismatch):
            hold_probability(spec, [1, 1], window, 2)

    @pytest.mark.parametrize("build, n", [
        (build_two_inhibitor, 2), (build_two_inhibitor, 3),
        (build_single_inhibitor, 2), (build_single_inhibitor, 3),
        (build_log_inhibitor, 2), (build_log_inhibitor, 3),
    ])
    def test_factors_are_the_kernel_entries(self, build, n):
        # the product form over two windows, against the full kernel's rows:
        # bit for bit, over every window whose latest frame is steady
        spec = build(n, 7.0)
        x = np.ones(n, dtype=np.uint8)
        space = WindowStateSpace(spec, x)
        latest = np.zeros(spec.n_neurons, dtype=np.uint8)
        latest[spec.input_indices] = 1
        latest[spec.auxiliary_indices[0]] = 1
        for winner in range(n):
            last = latest.copy()
            last[spec.output_indices[winner]] = 1
            d = int(last[spec.non_input_indices] @ (1 << np.arange(space.m)))
            steady = np.repeat(last[None, :], spec.history, axis=0)
            q_steady = space.kernel[space.state_index(steady), d]
            for older in space.full_frames[:: max(1, space.full_frames.shape[0] // 16)]:
                window = np.vstack([older[None, :], last[None, :]])[-spec.history :]
                q_first = space.kernel[space.state_index(window), d]
                for t_s in (1, 2, 7):
                    assert hold_probability(spec, x, window, t_s) == q_first * q_steady ** (t_s - 1)

    def test_paper_scale_two_inhibitor(self):
        # criterion 6's two-inhibitor cell, far beyond the window state space
        n, t_s, delta = 64, 100, 0.1
        g = 4.0 * math.log((n + 2) * t_s / delta) + 10.0
        spec = build_two_inhibitor(n, g)
        window = np.zeros((1, spec.n_neurons), dtype=np.uint8)
        window[0, :n] = 1
        window[0, n] = 1  # winner y_0
        window[0, 2 * n] = 1  # stability inhibitor
        hp = hold_probability(spec, np.ones(n), window, t_s)
        assert 1.0 - t_s * (n + 2) * math.exp(-g / 2) <= hp <= 1.0
        with pytest.raises(StateSpaceTooLarge):
            WindowStateSpace(spec, np.ones(n))

    def test_time_homogeneous_kernel(self):
        spec = build_two_inhibitor(2, 9.0)
        space = WindowStateSpace(spec, [1, 0])
        k1 = space.kernel
        k2 = WindowStateSpace(spec, [1, 0]).kernel
        assert np.array_equal(k1, k2)


class TestBinomialPmf:
    PS = [0.0, 5e-324, 1e-300, 1e-9, 0.013, 0.3, 0.5, 0.77, 1.0 - 1e-9, 1.0 - 2.0**-53, 1.0]

    @pytest.mark.parametrize("p", PS)
    def test_sums_to_one_at_paper_scale_without_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                pmf = binomial_pmf(2048, p)
        assert pmf.shape == (2049,)
        assert np.all(pmf >= 0.0)
        assert abs(pmf.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 60])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.25, 0.5, 0.9, 1.0])
    def test_matches_the_closed_form(self, n, p):
        exact = [math.comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]
        assert np.max(np.abs(binomial_pmf(n, p) - exact)) <= 1e-15

    def test_matches_log_space_at_large_n(self):
        n, p = 2048, 0.37
        got = binomial_pmf(n, p)
        k = np.arange(n + 1)
        log = [math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
               + j * math.log(p) + (n - j) * math.log1p(-p) for j in k.tolist()]
        ref = np.exp(log)
        big = ref > 1e-200
        assert np.max(np.abs(got[big] / ref[big] - 1.0)) <= 1e-9


def _window_chain_cases(n):
    """(gamma, X, start, t_s) cases the lumped chain is checked on: every
    gamma, X pattern, start and t_s up to n=5; above that every X pattern
    once, with gamma, start and t_s rotating with n, so that the window
    chain's cost at n=9 and n=10 stays a few seconds."""
    patterns = [np.ones(n), np.eye(n)[0], np.zeros(n), np.arange(n) % 2]
    combos = [(g, s, t) for g in (3.7, 10.0) for s in ("all_zero", "all_fire", "uniform_random")
              for t in (1, 3)]
    for i, x in enumerate(patterns):
        for gamma, start, t_s in combos if n <= 5 else [combos[(3 * n + i) % len(combos)]]:
            yield gamma, x.astype(np.uint8), start, t_s


def _lateral(spec, weight, pairs):
    """``spec`` plus output-to-output synapses of ``weight`` on ``pairs``."""
    w = spec.weights.copy()
    outs = spec.output_indices
    for i, j in pairs:
        w[0, outs[i], outs[j]] = weight
    return NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases)


class TestLumpedChain:
    @pytest.mark.parametrize("tag, n", [
        *(("two_inhibitor", n) for n in range(1, 10)),
        *(("single_inhibitor", n) for n in range(1, 11)),
    ])
    def test_equals_the_window_chain(self, tag, n):
        # every n the window chain reaches
        for gamma, x, start, t_s in _window_chain_cases(n):
            spec = build(tag, n, gamma)
            window = initial_window(spec, start, x, RandomnessContract(n))
            want = WindowStateSpace(spec, x).cdf(window, t_s, 8)
            got = LumpedChain(spec, x).cdf(window, t_s, 8)
            assert np.max(np.abs(got - want)) <= 1e-13, (gamma, x, start, t_s)
            assert np.array_equal(convergence_cdf(spec, x, window, t_s, 8), got)

    @pytest.mark.parametrize("x", [[1, 1, 1], [1, 0, 1], [0, 0, 0]])
    def test_lateral_weights_shared_by_class_pairs_lump(self, x):
        spec = _lateral(build_two_inhibitor(3, 7.0), 0.8,
                        [(i, j) for i in range(3) for j in range(3) if i != j])
        window = initial_window(spec, "all_fire", x)
        want = WindowStateSpace(spec, x).cdf(window, 2, 15)
        assert np.max(np.abs(LumpedChain(spec, x).cdf(window, 2, 15) - want)) <= 1e-13

    def _not_exchangeable(self):
        spec = build_two_inhibitor(3, 7.0)
        y0 = spec.output_indices[0]
        w = spec.weights.copy()
        w[0, y0, y0] += 1.0  # one output's self-loop changed
        return [
            NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases),
            _lateral(spec, 0.8, [(0, 1)]),  # one lateral synapse of six
            random_network(np.random.default_rng(5), 3, 3, 2, history=1),
        ]

    def test_spec_that_does_not_lump_runs_on_the_window_chain(self):
        x = np.array([1, 1, 1], dtype=np.uint8)
        for spec in self._not_exchangeable():
            with pytest.raises(TopologyMismatch):
                LumpedChain(spec, x)
            window = initial_window(spec, "all_zero", x)
            want = WindowStateSpace(spec, x).cdf(window, 2, 12)
            assert np.array_equal(convergence_cdf(spec, x, window, 2, 12), want)

    def test_history_two_does_not_lump(self):
        with pytest.raises(TopologyMismatch):
            LumpedChain(build_log_inhibitor(2, 8.0), [1, 1])

    def test_benchmark_cell_never_builds_the_window_chain(self, monkeypatch):
        import json
        from pathlib import Path

        from wtalab import oracle

        def refuse(*args):
            raise AssertionError("the window chain was built")

        monkeypatch.setattr(oracle, "WindowStateSpace", refuse)
        spec = build_two_inhibitor(8, 10.0)
        x = np.ones(8, dtype=np.uint8)
        init = np.zeros((1, spec.n_neurons), dtype=np.uint8)
        init[0, :8] = 1
        cdf = convergence_cdf(spec, x, init, 3, 30)
        ref = Path(__file__).resolve().parents[1] / "perfbench/reference/oracle_two_n8.json"
        want = np.asarray(json.loads(ref.read_text())["cdf"])
        assert np.max(np.abs(cdf - want)) <= 1e-12

    @pytest.mark.parametrize("tag", ["two_inhibitor", "single_inhibitor"])
    @pytest.mark.parametrize("x", [[1] * 5, [0, 1, 0, 1, 1], [0] * 5])
    def test_valid_states_are_one_per_aux_code(self, tag, x):
        chain = LumpedChain(build(tag, 5, 7.0), x)
        want = min(1, sum(x))
        d, u, a = chain.decode(chain.valid_states)
        assert chain.valid_states.size == 1 << chain.n_aux
        assert np.all(d == want) and np.all(u == 0)
        assert np.array_equal(a, np.arange(1 << chain.n_aux))

    def test_row_blocks_match_one_unblocked_pass(self):
        spec = build_two_inhibitor(400, 10.0)
        chain = LumpedChain(spec, np.ones(400, dtype=np.uint8))
        # 1,604 states of 802 neurons: two row blocks of 2^20 neuron slots
        assert (1 << 20) // spec.n_neurons < chain.n_states
        windows = chain.windows(np.arange(chain.n_states))
        want = BatchRunner(spec, RandomnessContract(0)).probabilities(windows)
        assert np.array_equal(chain.step_probabilities, want[:, chain.columns])

    @pytest.mark.parametrize("n, trials", [(64, 20_000), (256, 5_000)])
    def test_monte_carlo_inside_wilson_of_lumped(self, n, trials):
        spec = build_two_inhibitor(n, 10.0)
        x = np.ones(n, dtype=np.uint8)
        t_s, probes = 3, (10, 20, 30, 40)
        init = initial_window(spec, "all_zero", x)
        cdf = convergence_cdf(spec, x, init, t_s, max(probes))
        rng = RandomnessContract(n)
        ids = np.arange(trials, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "all_zero", x, ids, rng)
        conv = batch_convergence_times(spec, x, windows0, ids, t_s, max(probes) + 1, rng)
        for t in probes:
            hits = int(((conv >= 0) & (conv + t_s <= t)).sum())
            lo, hi = wilson_interval(hits, trials, 0.999)
            assert lo <= cdf[t] <= hi

    def test_cap_counts_lumped_transitions(self):
        # all inputs firing: L = (n+1) * 4 states, and L^2 <= 2^25 up to n=1447
        LumpedChain(build_two_inhibitor(1447, 10.0), np.ones(1447))
        with pytest.raises(StateSpaceTooLarge):
            LumpedChain(build_two_inhibitor(1448, 10.0), np.ones(1448))

    def test_paper_scale_refused_before_allocating(self):
        import tracemalloc

        n = 1 << 16
        spec = build_two_inhibitor(n, 10.0)
        x = np.ones(n, dtype=np.uint8)
        init = initial_window(spec, "all_zero", x)
        spec.output_indices, spec.auxiliary_indices  # the spec's own arrays, cached on first read
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge):
                convergence_cdf(spec, x, init, 3, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _with(spec, w=None, b=None):
    """``spec`` with dense weights ``w`` and biases ``b`` where given."""
    w = spec.weights if w is None else w
    b = spec.biases if b is None else b
    return NetworkSpec.from_dense(spec.kind, spec.polarity, w, b, spec.lam, spec.history)


def _variants(spec):
    """``spec``, then copies with one change each: the first output's
    self-loop at each lag, one lateral synapse, every lateral synapse at
    0.8, the first output's bias."""
    outs = spec.output_indices
    y0 = outs[0]
    yield spec
    for lag0 in range(spec.history):
        w = spec.weights.copy()
        w[lag0, y0, y0] += 1.0
        yield _with(spec, w=w)
    if outs.size > 1:
        w = spec.weights.copy()
        w[0, outs[0], outs[1]] = 0.8
        yield _with(spec, w=w)
        w = spec.weights.copy()
        lateral = ~np.eye(outs.size, dtype=bool)
        w[0, outs[:, None], outs] = np.where(lateral, 0.8, w[0, outs[:, None], outs])
        yield _with(spec, w=w)
    b = spec.biases.copy()
    b[y0] += 1.0
    yield _with(spec, b=b)


def _lumping_cases():
    """(spec, X) pairs: the builder families at n <= 4 and their variants
    under every X, then seeded random networks with as many inputs as
    outputs."""
    specs = [build(tag, n, 7.0) for tag in ("two_inhibitor", "single_inhibitor")
             for n in range(1, 5)]
    specs += [build_log_inhibitor(n, 7.0) for n in range(2, 5)]
    for base in specs:
        for spec in _variants(base):
            for x in itertools.product((0, 1), repeat=base.output_indices.size):
                yield spec, np.array(x, dtype=np.uint8)
    for seed in range(200):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 5))
        spec = random_network(g, n, n, int(g.integers(0, 3)))
        yield spec, (g.random(n) < 0.5).astype(np.uint8)


def _invariant_under_every_within_class_permutation(spec, x):
    """The lumping rule by brute force: the dense weights with the input
    rows zeroed, and the biases less the input drive under X, are unchanged
    by every permutation of the outputs within their input class."""
    x_of = np.zeros(spec.n_neurons)
    x_of[spec.input_indices] = x
    w = spec.weights.copy()
    bias = spec.biases - np.einsum("lij,i->j", w, x_of)
    w[:, spec.input_indices, :] = 0.0
    driven, undriven = (spec.output_indices[x == c] for c in (1, 0))
    for d, u in itertools.product(itertools.permutations(driven), itertools.permutations(undriven)):
        perm = np.arange(spec.n_neurons)
        perm[driven], perm[undriven] = d, u
        if not (np.array_equal(w[:, perm][:, :, perm], w) and np.array_equal(bias[perm], bias)):
            return False
    return True


class TestExchangeable:
    def test_agrees_with_every_within_class_permutation(self):
        verdicts = []
        for spec, x in _lumping_cases():
            want = _invariant_under_every_within_class_permutation(spec, x)
            assert _exchangeable(spec, x) == want, (spec.to_json_dict(), x)
            verdicts.append(want)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("x", [[1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]])
    def test_history_two_checks_every_lag(self, x):
        spec = build_log_inhibitor(4, 8.0)
        x = np.array(x, dtype=np.uint8)
        assert _exchangeable(spec, x)
        y0, a_s = spec.output_indices[0], spec.auxiliary_indices[0]
        # the first output's self-loop at lag 1 and at lag 2, and its lag-2
        # synapse onto a_s
        for lag0, post in [(0, y0), (1, y0), (1, a_s)]:
            w = spec.weights.copy()
            w[lag0, y0, post] += 1.0
            assert not _exchangeable(_with(spec, w=w), x), (lag0, post)
