import tracemalloc

import numpy as np
import pytest

from wtalab import (
    BernoulliInputTrace,
    ExecutionWindow,
    HorizonTooShort,
    InputTargeted,
    InvalidNetwork,
    MissingDraw,
    NetworkSpec,
    Neuron,
    RandomnessContract,
    TrialPlan,
    WtaInstance,
    WtaVariant,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    convergence_cdf,
    convergence_time,
    exact_step_distribution,
    hold_probability,
    initial_window,
    potential,
    run,
    run_trials,
    spike_probability,
    step,
)
from wtalab.experiments import batch_convergence_times, initial_windows_batch
from wtalab.network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT
from wtalab import simulate
from wtalab.simulate import BatchRunner

from conftest import brute_convergence_time, random_network


def zero_window(spec, x=None):
    frames = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
    if x is not None:
        frames[:, spec.input_indices] = x
    return ExecutionWindow(frames)


class TestStep:
    def test_huge_bias_means_silence(self):
        neurons = (
            Neuron(0, INPUT, EXCITATORY),
            Neuron(1, OUTPUT, EXCITATORY),
            Neuron(2, AUXILIARY, EXCITATORY),
        )
        spec = NetworkSpec.from_edges(neurons, [], {1: 1e9, 2: 1e9})
        out = step(spec, zero_window(spec), [1], {1: 0.0, 2: 0.0})
        assert out.tolist() == [1, 0, 0]  # p saturates to 0, draws irrelevant

    def test_threshold_at_half(self):
        # reset configuration with a driven input puts the output at potential 0
        spec = build_two_inhibitor(1, 12.0)
        win = zero_window(spec, [1])
        assert potential(spec, win.frames, 1) == 0.0
        fired = step(spec, win, [1], {1: 0.49, 2: 0.9, 3: 0.9})
        assert fired[1] == 1
        silent = step(spec, win, [1], {1: 0.51, 2: 0.9, 3: 0.9})
        assert silent[1] == 0

    def test_valid_configuration_step_derived_probabilities(self):
        # winner y_0 with both inputs on; check each neuron against its own
        # exact probability rather than a blanket draw threshold
        spec = build_two_inhibitor(2, 12.0)
        cfg = np.zeros(6, dtype=np.uint8)
        cfg[[0, 1, 2, 4]] = 1  # x_0, x_1, y_0, a_s
        win = ExecutionWindow(cfg)
        pots = {u: potential(spec, win.frames, u) for u in (2, 3, 4, 5)}
        assert pots == {2: 12.0, 3: -12.0, 4: 6.0, 5: -6.0}
        probs = {u: spike_probability(spec, p) for u, p in pots.items()}
        # a_c's firing probability is ~0.00247, so a draw of 0.001 fires it
        out = step(spec, win, [1, 1], {u: 0.001 for u in (2, 3, 4, 5)})
        assert out.tolist() == [1, 1, 1, 0, 1, 1]
        # draws above every wrong-event probability reproduce the configuration
        out2 = step(spec, win, [1, 1], {u: 0.005 for u in (2, 3, 4, 5)})
        assert np.array_equal(out2, cfg)
        assert 0.001 < probs[5] < 0.005

    def test_missing_draw(self):
        spec = build_two_inhibitor(1, 5.0)
        with pytest.raises(MissingDraw):
            step(spec, zero_window(spec), [1], {1: 0.5, 2: 0.5})


class TestRun:
    def test_horizon_equals_history_returns_initial(self):
        spec = build_two_inhibitor(2, 8.0)
        init = zero_window(spec, [1, 0])
        ex = run(spec, init, [1, 0], 1, RandomnessContract(0))
        assert np.array_equal(ex.frames, init.frames)

    def test_horizon_below_history(self):
        spec = build_two_inhibitor(2, 8.0)
        with pytest.raises(HorizonTooShort):
            run(spec, zero_window(spec), [1, 0], 0, RandomnessContract(0))

    def test_same_seed_same_execution(self):
        spec = build_two_inhibitor(3, 9.0)
        init = zero_window(spec, [1, 1, 1])
        a = run(spec, init, [1, 1, 1], 50, RandomnessContract(4), trial=2)
        b = run(spec, init, [1, 1, 1], 50, RandomnessContract(4), trial=2)
        assert np.array_equal(a.frames, b.frames)

    def test_trial_executions_independent_of_batching(self):
        spec = build_two_inhibitor(2, 6.0)
        x = np.array([1, 1], dtype=np.uint8)
        rng = RandomnessContract(99)
        runner = BatchRunner(spec, rng)
        ids = np.arange(8, dtype=np.int64)
        frames = np.zeros((8, 1, spec.n_neurons))
        frames[:, :, :2] = 1
        for t in range(1, 30):
            frames = runner.advance(frames, t, ids, x)
        # same trials stepped one at a time
        for trial in range(8):
            init = zero_window(spec, x)
            ex = run(spec, init, x, 30, rng, trial=trial)
            assert np.array_equal(ex.frames[-1], frames[trial, -1].astype(np.uint8))

    def test_bernoulli_input_trace(self):
        spec = build_two_inhibitor(2, 6.0)
        trace = BernoulliInputTrace([0.3, 0.9])
        init = zero_window(spec)
        ex = run(spec, init, trace, 400, RandomnessContract(12), trial=0)
        rates = ex.frames[1:, :2].mean(axis=0)
        assert abs(rates[0] - 0.3) < 0.08
        assert abs(rates[1] - 0.9) < 0.08
        ex2 = run(spec, init, trace, 400, RandomnessContract(12), trial=0)
        assert np.array_equal(ex.frames, ex2.frames)


class TestMarkovProperty:
    def test_step_reads_only_last_h_frames(self, nprng):
        for _ in range(10):
            spec = random_network(nprng, history=2)
            x = (nprng.random(2) < 0.5).astype(np.uint8)
            frames = (nprng.random((5, spec.n_neurons)) < 0.5).astype(np.uint8)
            frames[:, :2] = x
            draws = {int(u): float(nprng.random()) for u in spec.non_input_indices}
            full = step(spec, ExecutionWindow(frames[-2:]), x, draws)
            mutated = frames.copy()
            mutated[0] = 1 - mutated[0]  # touch a frame older than the window
            again = step(spec, ExecutionWindow(mutated[-2:]), x, draws)
            assert np.array_equal(full, again)


class TestSymmetry:
    def test_output_permutation_commutes_with_step(self, nprng):
        n, g = 4, 9.0
        spec = build_two_inhibitor(n, g)
        for _ in range(20):
            perm = nprng.permutation(n)
            bits = (nprng.random(spec.n_neurons) < 0.5).astype(np.uint8)
            draws = nprng.random(spec.n_neurons)
            permuted = bits.copy()
            permuted[:n] = bits[:n][perm]
            permuted[n : 2 * n] = bits[n : 2 * n][perm]
            draw_map = {n + i: draws[n + i] for i in range(n)}
            draw_map.update({2 * n: draws[2 * n], 2 * n + 1: draws[2 * n + 1]})
            perm_draws = {n + i: draws[n + int(perm[i])] for i in range(n)}
            perm_draws.update({2 * n: draws[2 * n], 2 * n + 1: draws[2 * n + 1]})
            out = step(spec, ExecutionWindow(bits), bits[:n], draw_map)
            out_p = step(
                spec, ExecutionWindow(permuted), permuted[:n], perm_draws
            )
            assert np.array_equal(out_p[n : 2 * n], out[n : 2 * n][perm])
            assert np.array_equal(out_p[2 * n :], out[2 * n :])


class TestInitialPolicies:
    def test_policies(self):
        spec = build_two_inhibitor(2, 6.0)
        x = [1, 0]
        rng = RandomnessContract(3)
        zero = initial_window(spec, "all_zero", x, rng)
        assert zero.frames[0].tolist() == [1, 0, 0, 0, 0, 0]
        fire = initial_window(spec, "all_fire", x, rng)
        assert fire.frames[0].tolist() == [1, 0, 1, 1, 1, 1]
        rand1 = initial_window(spec, "uniform_random", x, rng, trial=5)
        rand2 = initial_window(spec, "uniform_random", x, rng, trial=5)
        assert np.array_equal(rand1.frames, rand2.frames)

    def test_batch_matches_single(self):
        x = np.array([1, 1, 0], dtype=np.uint8)
        rng = RandomnessContract(8)
        for build in (build_two_inhibitor, build_log_inhibitor):  # h = 1 and h = 2
            spec = build(3, 6.0)
            explicit = np.random.default_rng(4).integers(0, 2, (spec.history, spec.n_neurons))
            explicit[:, spec.input_indices] = x
            explicit = ExecutionWindow(explicit)
            for policy in ("all_zero", "all_fire", "uniform_random", "explicit"):
                batch = initial_windows_batch(
                    spec, policy, x, np.arange(6), rng, explicit=explicit
                )
                assert batch.shape == (6, spec.history, spec.n_neurons)
                for trial in range(6):
                    single = initial_window(
                        spec, policy, x, rng, trial=trial, explicit=explicit
                    )
                    assert single.frames.dtype == np.uint8
                    assert np.array_equal(batch[trial], single.frames)

    def test_explicit_window_must_fit_the_network(self):
        spec = build_two_inhibitor(2, 6.0)
        with pytest.raises(InvalidNetwork):
            initial_windows_batch(
                spec, "explicit", [1, 1], np.arange(2), RandomnessContract(0),
                explicit=ExecutionWindow(np.ones((1, 5), dtype=np.uint8)),
            )


def permuted(spec, order):
    """The same network with neuron ``order[k]`` moved to index ``k``."""
    order = np.asarray(order)
    neurons = tuple(
        Neuron(k, spec.neurons[i].kind, spec.neurons[i].polarity)
        for k, i in enumerate(order.tolist())
    )
    w = spec.weights[:, order][:, :, order]
    return NetworkSpec.from_dense(neurons, w, spec.biases[order], spec.lam, spec.history)


class TestBatchScanner:
    def test_matches_reference_runs(self):
        spec = build_two_inhibitor(2, 10.0)
        x = np.array([1, 1], dtype=np.uint8)
        rng = RandomnessContract(77)
        ids = np.arange(64, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "uniform_random", x, ids, rng)
        got = batch_convergence_times(spec, x, windows0, ids, 4, 60, rng)
        from wtalab import convergence_time

        for trial in ids:
            init = ExecutionWindow(windows0[trial])
            ex = run(spec, init, x, 60, rng, trial=int(trial))
            ref = convergence_time(ex, x, 4)
            expected = -1 if ref.converged_at is None else ref.converged_at
            assert got[trial] == expected

    def test_outputs_outside_the_canonical_slots(self):
        # outputs first, then inputs, then a_s and a_c: the canonical slice
        # n..2n-1 would hold the inputs here
        n, t_s, horizon = 3, 3, 40
        spec = permuted(build_two_inhibitor(n, 10.0), [3, 4, 5, 0, 1, 2, 6, 7])
        assert spec.output_indices.tolist() == [0, 1, 2]
        x = np.array([1, 1, 0], dtype=np.uint8)
        rng = RandomnessContract(21)
        ids = np.arange(32, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "uniform_random", x, ids, rng)
        got = batch_convergence_times(spec, x, windows0, ids, t_s, horizon, rng)
        assert np.any(got >= 0)
        for trial in ids.tolist():
            ex = run(spec, ExecutionWindow(windows0[trial]), x, horizon, rng, trial=trial)
            ref = brute_convergence_time(ex.frames[:, spec.output_indices], x, t_s)
            assert got[trial] == (-1 if ref is None else ref)
            assert convergence_time(ex, x, t_s).converged_at == ref


def dense_potentials(spec, frames):
    """Reference sum over lags of ``frames[:, h-lag] @ weights[lag-1][:, non_input]``
    minus the biases, and the sum of the absolute terms, which bounds the
    rounding of any summation order."""
    ni = spec.non_input_indices
    h = spec.history
    f = np.asarray(frames, dtype=np.float64)
    pot = -spec.biases[ni][None, :]
    scale = np.abs(spec.biases[ni])[None, :]
    for lag in range(1, h + 1):
        w = spec.weights[lag - 1][:, ni]
        pot = pot + f[:, h - lag] @ w
        scale = scale + np.abs(f[:, h - lag]) @ np.abs(w)
    return pot, scale


def hubs(runner):
    """(dense columns, dense rows, gather slots) of the runner's kernel."""
    return runner.col_block.shape[1], runner.row_block.shape[0], len(runner.slots)


def random_frames(rng, spec, rows, dtype):
    return (rng.random((rows, spec.history, spec.n_neurons)) < 0.5).astype(dtype)


class TestKernel:
    def assert_matches_dense(self, spec, frames):
        runner = BatchRunner(spec, RandomnessContract(0))
        got = runner.potentials(frames)
        want, scale = dense_potentials(spec, frames)
        assert got.shape == (frames.shape[0], spec.non_input_indices.size)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 1e-9 * scale)
        return runner

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_random_networks(self, nprng, dtype):
        shapes = []
        for density, sizes in [(0.6, (2, 2, 2)), (0.02, (20, 100, 80)), (0.1, (10, 40, 30))]:
            for _ in range(6):
                spec = random_network(nprng, *sizes, density=density)
                runner = self.assert_matches_dense(spec, random_frames(nprng, spec, 40, dtype))
                shapes.append((spec, hubs(runner)))
        m = [spec.non_input_indices.size for spec, _ in shapes]
        cols = [h[0] for _, h in shapes]
        assert any(c == k for c, k in zip(cols, m))  # every column a hub
        assert any(h[:2] == (0, 0) for _, h in shapes)  # no hubs
        assert any(0 < c < k for c, k in zip(cols, m))  # some columns hubs

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("n", [2, 8, 64, 1024])
    @pytest.mark.parametrize(
        "build", [build_two_inhibitor, build_single_inhibitor, build_log_inhibitor]
    )
    def test_builder_families(self, nprng, build, n, dtype):
        spec = build(n, 7.3)
        self.assert_matches_dense(spec, random_frames(nprng, spec, 16, dtype))

    def test_split_of_the_builder_networks(self):
        # at n=1024 only the auxiliaries are hubs; each output keeps its input
        # and self-loop (and its lag-2 self-loop) in the gather
        two = BatchRunner(build_two_inhibitor(1024, 7.3), RandomnessContract(0))
        log = BatchRunner(build_log_inhibitor(1024, 7.3), RandomnessContract(0))
        assert hubs(two) == (2, 2, 2)
        assert hubs(log) == (11, 11, 3)
        # at n=8 every column is dense
        small = BatchRunner(build_log_inhibitor(8, 7.3), RandomnessContract(0))
        assert hubs(small) == (12, 0, 0)

    def test_synapse_into_input_is_rejected(self):
        # the constructor rejects it, so the kernel never sees one
        neurons = (
            Neuron(0, INPUT, EXCITATORY),
            Neuron(1, OUTPUT, EXCITATORY),
            Neuron(2, AUXILIARY, INHIBITORY),
        )
        with pytest.raises(InputTargeted):
            NetworkSpec.from_edges(
                neurons, [(1, 0, 1, 5.0), (0, 1, 1, 2.0), (2, 1, 1, -1.0)], {1: 0.5}
            )

    @pytest.mark.parametrize("history", [1, 2])
    def test_scalar_potential_is_the_batch_entry(self, nprng, history):
        # potential is a batch of one of the kernel, for every non-input neuron
        # (a batch of more rows may round differently: BLAS picks its dense
        # kernel by shape)
        for sizes, density in [((2, 2, 2), 0.6), ((10, 40, 30), 0.1)]:
            spec = random_network(nprng, *sizes, history=history, density=density)
            runner = BatchRunner(spec, RandomnessContract(0))
            for frames in random_frames(nprng, spec, 4, np.uint8):
                batch = runner.potentials(frames[None])[0]
                scalar = [potential(spec, frames, u) for u in spec.non_input_indices.tolist()]
                assert np.asarray(scalar).tobytes() == batch.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    @pytest.mark.parametrize("history", [1, 2])
    def test_advance_returns_uint8_windows(self, nprng, dtype, history):
        spec = random_network(nprng, history=history)
        runner = BatchRunner(spec, RandomnessContract(3))
        frames = random_frames(nprng, spec, 12, dtype)
        x = np.array([1, 0], dtype=np.uint8)
        out = runner.advance(frames, 7, np.arange(12), x)
        assert out.dtype == np.uint8
        assert out.shape == (12, history, spec.n_neurons)
        assert set(np.unique(out).tolist()) <= {0, 1}
        assert np.all(out[:, -1, spec.input_indices] == x)
        assert np.array_equal(out[:, :-1], frames[:, 1:].astype(np.uint8))

    def test_w_cols_is_the_dense_column_block_built_on_demand(self, nprng):
        spec = random_network(nprng, history=2)
        runner = BatchRunner(spec, RandomnessContract(0))
        runner.advance(random_frames(nprng, spec, 4, np.uint8), 2, np.arange(4), [1, 1])
        assert "w_cols" not in vars(runner)  # stepping never builds it
        ni = spec.non_input_indices
        assert len(runner.w_cols) == 2
        for lag in (1, 2):
            assert np.array_equal(runner.w_cols[lag - 1], spec.weights[lag - 1][:, ni])


def _tile_rows(monkeypatch, spec, rows):
    """Make every step tile ``rows`` rows (None: one tile for any batch)."""
    m = spec.non_input_indices.size
    monkeypatch.setattr(simulate, "_TILE_ELEMS", 10**12 if rows is None else rows * m)


class TestTiles:
    """A step makes its non-input bits one row tile at a time, in buffers
    the runner reuses; where the tiles fall must not change a bit."""

    @pytest.mark.parametrize("build, n", [
        (build_two_inhibitor, 5), (build_single_inhibitor, 5), (build_log_inhibitor, 4),
    ])
    def test_step_and_advance_match_untiled(self, monkeypatch, nprng, build, n):
        spec = build(n, 9.0)
        rng = RandomnessContract(2**63 + 11)
        batch = 23  # a multiple of no tile below
        x_rows = (nprng.random((batch, n)) < 0.7).astype(np.uint8)
        frames = random_frames(nprng, spec, batch, np.uint8)
        frames[:, :, spec.input_indices] = x_rows[:, None, :]
        trials = nprng.permutation(10_000)[:batch]

        def steps(runner):
            # per-row inputs (the lemma path) and one shared input vector
            return [
                runner.step_bits(frames, 5, trials, x_rows),
                runner.advance(frames, 6, trials, x_rows),
                runner.advance(frames, 7, trials, x_rows[0]),
            ]

        _tile_rows(monkeypatch, spec, None)
        want = steps(BatchRunner(spec, rng))
        for rows in (1, 3, 7):
            _tile_rows(monkeypatch, spec, rows)
            runner = BatchRunner(spec, rng)
            # a small batch first, so the workspace grows between calls
            small = runner.step_bits(frames[:2], 5, trials[:2], x_rows[:2])
            assert np.array_equal(small, want[0][:2])
            for got, ref in zip(steps(runner), want):
                assert got.dtype == np.uint8 and np.array_equal(got, ref)

    def test_run_trials_under_tiles_and_chunks(self, monkeypatch):
        inst = WtaInstance(n=3, gamma=10.0, t_s=3, delta=None, t_c=20,
                           input_bits=(1, 0, 1), variant=WtaVariant("two_inhibitor"))
        spec = inst.build()

        def converged(chunk):
            plan = TrialPlan(instance=inst, trials=60, seed=4, horizon=40, chunk_size=chunk)
            return run_trials(plan, spec=spec).converged_at

        _tile_rows(monkeypatch, spec, None)
        want = converged(None)
        assert (want >= 0).any()
        for rows in (1, 3, 7):
            _tile_rows(monkeypatch, spec, rows)
            for chunk in (1, 7, None):
                assert np.array_equal(converged(chunk), want)

    def test_warm_advance_allocates_no_batch_sized_temporaries(self):
        # One (250 x 1026) float64 array is 2 MB: a step that allocated one per
        # operation peaked above 8 MB here. The new (250 x 2050) uint8 frame
        # is 0.5 MB and the tile buffers are reused.
        spec = build_two_inhibitor(1024, 10.0)
        rng = RandomnessContract(3)
        runner = BatchRunner(spec, rng)
        trials = np.arange(250)
        x = np.ones(1024, dtype=np.uint8)
        frames = initial_windows_batch(spec, "uniform_random", x, trials, rng)
        frames = runner.advance(frames, 1, trials, x)  # allocates the workspace
        tracemalloc.start()
        try:
            runner.advance(frames, 2, trials, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


# every public call that takes a window, as call(spec, x, window)
_WINDOW_CALLS = {
    "exact_step_distribution": lambda spec, x, w: exact_step_distribution(spec, w, x),
    "convergence_cdf": lambda spec, x, w: convergence_cdf(spec, x, w, 2, 5),
    "hold_probability": lambda spec, x, w: hold_probability(spec, x, w, 2),
    "potential": lambda spec, x, w: potential(spec, w, int(spec.output_indices[0])),
    "run": lambda spec, x, w: run(spec, w, x, 4, RandomnessContract(0)),
}


class TestWindowShape:
    """Every call that takes a window accepts only the network's (h, N)."""

    @pytest.mark.parametrize("build", [build_two_inhibitor, build_log_inhibitor])
    @pytest.mark.parametrize("extra_frames, extra_neurons", [(1, 0), (0, 3), (0, -1)])
    @pytest.mark.parametrize("name", list(_WINDOW_CALLS))
    def test_wrong_shape_is_rejected(self, build, extra_frames, extra_neurons, name):
        spec = build(2, 8.0)
        x = np.ones(2, dtype=np.uint8)
        window = np.zeros(
            (spec.history + extra_frames, spec.n_neurons + extra_neurons), dtype=np.uint8
        )
        window[:, :2] = 1
        with pytest.raises(InvalidNetwork, match="window shape"):
            _WINDOW_CALLS[name](spec, x, window)

    @pytest.mark.parametrize("build", [build_two_inhibitor, build_log_inhibitor])
    @pytest.mark.parametrize("name", list(_WINDOW_CALLS))
    def test_right_shape_is_accepted(self, build, name):
        spec = build(2, 8.0)
        x = np.ones(2, dtype=np.uint8)
        window = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
        window[:, [0, 1, 2, 4]] = 1  # x, y_0 and a_s: valid for both families
        _WINDOW_CALLS[name](spec, x, window)
        _WINDOW_CALLS[name](spec, x, ExecutionWindow(window))
