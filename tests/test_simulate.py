import tracemalloc

import numpy as np
import pytest

from wtalab import (
    HorizonTooShort,
    InputTargeted,
    InvalidNetwork,
    NetworkSpec,
    RandomnessContract,
    TrialPlan,
    WindowStateSpace,
    WtaInstance,
    WtaLabError,
    WtaVariant,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    convergence_cdf,
    convergence_time,
    hold_probability,
    initial_window,
    potential,
    rescale_temperature,
    run,
    run_trials,
    sigmoid,
    spike_probability,
)
from wtalab.experiments import batch_convergence_times, initial_windows_batch
from wtalab.network import AUXILIARY, EXCITATORY, INHIBITORY, INPUT, OUTPUT
from wtalab import oracle, simulate
from wtalab.simulate import BatchRunner

from conftest import brute_convergence_time, plan_in_batches, random_network
from test_randomness import LARGEST_DRAW, trial_drawing


def zero_window(spec, x=None):
    frames = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
    if x is not None:
        frames[:, spec.input_indices] = x
    return frames


class _Draws:
    """Stands in for a ``RandomnessContract``: every block holds the chosen
    draws, one per non-input neuron in ``spec.non_input_indices`` order."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=float)

    def uniform_block(self, trials, time, neurons):
        return np.broadcast_to(self.draws, (len(trials), len(neurons)))


def batch_step(spec, window, x, draws):
    """One step of ``window`` under ``x`` with the chosen draws, through
    ``BatchRunner.step_bits`` over a batch of one."""
    frames = simulate.window_frames(spec, window)
    return BatchRunner(spec, _Draws(draws)).step_bits(frames[None], spec.history, [0], x)[0]


class TestStep:
    def test_huge_bias_means_silence(self):
        kind = [INPUT, OUTPUT, AUXILIARY]
        spec = NetworkSpec.from_edges(kind, [EXCITATORY] * 3, [], {1: 1e9, 2: 1e9})
        out = batch_step(spec, zero_window(spec), [1], [0.0, 0.0])
        assert out.tolist() == [1, 0, 0]  # p saturates to 0, draws irrelevant

    def test_threshold_at_half(self):
        # reset configuration with a driven input puts the output at potential 0
        spec = build_two_inhibitor(1, 12.0)
        win = zero_window(spec, [1])
        assert potential(spec, win, 1) == 0.0
        fired = batch_step(spec, win, [1], [0.49, 0.9, 0.9])  # draws of neurons 1, 2, 3
        assert fired[1] == 1
        silent = batch_step(spec, win, [1], [0.51, 0.9, 0.9])
        assert silent[1] == 0

    def test_valid_configuration_step_derived_probabilities(self):
        # winner y_0 with both inputs on; check each neuron against its own
        # exact probability rather than a blanket draw threshold
        spec = build_two_inhibitor(2, 12.0)
        cfg = np.zeros(6, dtype=np.uint8)
        cfg[[0, 1, 2, 4]] = 1  # x_0, x_1, y_0, a_s
        win = cfg
        pots = {u: potential(spec, win, u) for u in (2, 3, 4, 5)}
        assert pots == {2: 12.0, 3: -12.0, 4: 6.0, 5: -6.0}
        probs = {u: spike_probability(spec, p) for u, p in pots.items()}
        # a_c's firing probability is ~0.00247, so a draw of 0.001 fires it
        out = batch_step(spec, win, [1, 1], np.full(4, 0.001))
        assert out.tolist() == [1, 1, 1, 0, 1, 1]
        # draws above every wrong-event probability reproduce the configuration
        out2 = batch_step(spec, win, [1, 1], np.full(4, 0.005))
        assert np.array_equal(out2, cfg)
        assert 0.001 < probs[5] < 0.005


class TestRun:
    def test_horizon_equals_history_returns_initial(self):
        spec = build_two_inhibitor(2, 8.0)
        init = zero_window(spec, [1, 0])
        ex = run(spec, init, [1, 0], 1, RandomnessContract(0))
        assert np.array_equal(ex.frames, init)

    def test_horizon_below_history(self):
        spec = build_two_inhibitor(2, 8.0)
        with pytest.raises(HorizonTooShort):
            run(spec, zero_window(spec), [1, 0], 0, RandomnessContract(0))

    @pytest.mark.parametrize("horizon", ["9", 9.0, True, None])
    def test_horizon_must_be_an_int(self, horizon):
        spec = build_two_inhibitor(2, 8.0)
        with pytest.raises(WtaLabError, match="horizon"):
            run(spec, zero_window(spec), [1, 0], horizon, RandomnessContract(0))

    def test_start_window_holds_the_input(self):
        # the explicit window leaves its input bits silent; as on the batch
        # path, every start frame holds X
        spec = build_two_inhibitor(2, 8.0)
        x = np.array([1, 1], dtype=np.uint8)
        rng = RandomnessContract(5)
        trial = np.array([3])
        bare = run(spec, zero_window(spec), x, 6, rng, trial=3)
        pinned = run(spec, zero_window(spec, x), x, 6, rng, trial=3)
        assert np.array_equal(bare.frames, pinned.frames)
        assert bare.frames[0].tolist() == [1, 1, 0, 0, 0, 0]
        start = initial_windows_batch(spec, zero_window(spec), x, trial, rng)
        after = BatchRunner(spec, rng).advance(start, 1, trial, x)
        assert np.array_equal(bare.frames[:2], np.concatenate([start[0], after[0]]))

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


# every public call that takes trial ids, as call(spec, x, ids)
_TRIAL_CALLS = {
    "run": lambda spec, x, ids: run(spec, "uniform_random", x, 4, RandomnessContract(1),
                                    trial=ids[0]),
    "initial_window": lambda spec, x, ids: initial_window(
        spec, "uniform_random", x, RandomnessContract(1), trial=ids[0]
    ),
    "initial_windows_batch": lambda spec, x, ids: initial_windows_batch(
        spec, "uniform_random", x, ids, RandomnessContract(1)
    ),
    "batch_convergence_times": lambda spec, x, ids: batch_convergence_times(
        spec, x, initial_windows_batch(spec, "all_zero", x, np.arange(len(ids)),
                                       RandomnessContract(1)),
        ids, 2, 6, RandomnessContract(1),
    ),
}


class TestTrialIds:
    """A trial id is the draws' 64-bit trial word: every call that takes one
    accepts exactly the ints 0..2^64-1."""

    @pytest.mark.parametrize("trial", [-1, 2**64, 2**70, True, 1.5], ids=str)
    @pytest.mark.parametrize("name", list(_TRIAL_CALLS))
    def test_out_of_range_rejected(self, name, trial):
        # -1 wrapped to 2^64-1's draws; -1 in a list and 2^70 raised OverflowError
        spec = build_two_inhibitor(2, 8.0)
        with pytest.raises(WtaLabError, match="trial id must be an int in 0..2\\^64-1"):
            _TRIAL_CALLS[name](spec, np.ones(2, dtype=np.uint8), [trial])

    @pytest.mark.parametrize("name", list(_TRIAL_CALLS))
    def test_full_range_accepted(self, name):
        # batch_convergence_times made int64 ids and raised OverflowError from 2^63 on
        spec = build_two_inhibitor(2, 8.0)
        x = np.ones(2, dtype=np.uint8)
        for ids in ([0], [2**64 - 1], [2**63], np.array([2**64 - 1], dtype=np.uint64)):
            _TRIAL_CALLS[name](spec, x, ids)


class TestMarkovProperty:
    def test_step_reads_only_last_h_frames(self, nprng):
        for _ in range(10):
            spec = random_network(nprng, history=2)
            x = (nprng.random(2) < 0.5).astype(np.uint8)
            frames = (nprng.random((5, spec.n_neurons)) < 0.5).astype(np.uint8)
            frames[:, :2] = x
            draws = nprng.random(spec.non_input_indices.size)
            full = batch_step(spec, frames[-2:], x, draws)
            mutated = frames.copy()
            mutated[0] = 1 - mutated[0]  # touch a frame older than the window
            again = batch_step(spec, mutated[-2:], x, draws)
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
            # the non-input neurons are n..2n+1: outputs, then a_s and a_c
            perm_draws = np.concatenate([draws[n + perm], draws[2 * n :]])
            out = batch_step(spec, bits, bits[:n], draws[n:])
            out_p = batch_step(spec, permuted, permuted[:n], perm_draws)
            assert np.array_equal(out_p[n : 2 * n], out[n : 2 * n][perm])
            assert np.array_equal(out_p[2 * n :], out[2 * n :])


class TestInitialPolicies:
    def test_policies(self):
        spec = build_two_inhibitor(2, 6.0)
        x = [1, 0]
        rng = RandomnessContract(3)
        zero = initial_window(spec, "all_zero", x, rng)
        assert zero[0].tolist() == [1, 0, 0, 0, 0, 0]
        fire = initial_window(spec, "all_fire", x, rng)
        assert fire[0].tolist() == [1, 0, 1, 1, 1, 1]
        rand1 = initial_window(spec, "uniform_random", x, rng, trial=5)
        rand2 = initial_window(spec, "uniform_random", x, rng, trial=5)
        assert np.array_equal(rand1, rand2)

    def test_batch_matches_single(self):
        x = np.array([1, 1, 0], dtype=np.uint8)
        rng = RandomnessContract(8)
        for build in (build_two_inhibitor, build_log_inhibitor):  # h = 1 and h = 2
            spec = build(3, 6.0)
            explicit = np.random.default_rng(4).integers(0, 2, (spec.history, spec.n_neurons))
            explicit[:, spec.input_indices] = x
            for policy in ("all_zero", "all_fire", "uniform_random", explicit):
                batch = initial_windows_batch(spec, policy, x, np.arange(6), rng)
                assert batch.shape == (6, spec.history, spec.n_neurons)
                for trial in range(6):
                    single = initial_window(spec, policy, x, rng, trial=trial)
                    assert single.dtype == np.uint8
                    assert np.array_equal(batch[trial], single)

    def test_unknown_policy_and_random_without_contract_rejected(self):
        spec = build_two_inhibitor(2, 6.0)
        with pytest.raises(InvalidNetwork, match="unknown initial policy"):
            initial_windows_batch(spec, "nope", [1, 1], np.arange(2), RandomnessContract(0))
        with pytest.raises(InvalidNetwork, match="needs a randomness contract"):
            initial_window(spec, "uniform_random", [1, 1])

    def test_explicit_window_must_fit_the_network(self):
        spec = build_two_inhibitor(2, 6.0)
        with pytest.raises(InvalidNetwork):
            initial_windows_batch(
                spec, np.ones((1, 5), dtype=np.uint8), [1, 1], np.arange(2),
                RandomnessContract(0),
            )


def permuted(spec, order):
    """The same network with neuron ``order[k]`` moved to index ``k``."""
    order = np.asarray(order)
    w = spec.weights[:, order][:, :, order]
    return NetworkSpec.from_dense(
        spec.kind[order], spec.polarity[order], w, spec.biases[order], spec.lam, spec.history
    )


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
            init = windows0[trial]
            ex = run(spec, init, x, 60, rng, trial=int(trial))
            ref = convergence_time(ex, x, 4)
            expected = -1 if ref.converged_at is None else ref.converged_at
            assert got[trial] == expected

    @pytest.mark.parametrize("t_s", [0, 1, 2])
    @pytest.mark.parametrize("build, x", [
        (build_log_inhibitor, [1, 0]), (build_log_inhibitor, [0, 0, 0]),
        (build_two_inhibitor, [0, 1]),
    ])
    def test_resolved_inside_the_start_window(self, build, x, t_s):
        spec = build(len(x), 10.0)
        x = np.array(x, dtype=np.uint8)
        h, horizon = spec.history, 30
        rng = RandomnessContract(5)
        ids = np.arange(300, dtype=np.int64)
        windows0 = initial_windows_batch(spec, "uniform_random", x, ids, rng)
        got, finals = batch_convergence_times(spec, x, windows0, ids, t_s, horizon, rng,
                                              capture_final=True)
        for trial in ids.tolist():
            ex = run(spec, windows0[trial], x, horizon, rng, trial=trial)
            ref = convergence_time(ex, x, t_s).converged_at
            assert got[trial] == (-1 if ref is None else ref)
            end = horizon - 1 if ref is None else max(ref + t_s, h - 1)
            assert np.array_equal(finals[trial], ex.frames[end - h + 1 : end + 1])
        if t_s < h:  # some trials resolve inside the start window
            assert np.count_nonzero((got >= 0) & (got + t_s < h))

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
            ex = run(spec, windows0[trial], x, horizon, rng, trial=trial)
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
    """The split of the runner's kernel: its dense columns, their runs as
    (start, stop) sources and their single sources, its dense rows and its
    gather slots."""
    k = runner._kernel
    return {"cols": k.col_block.shape[1], "runs": [(r.start, r.stop) for r in k.runs],
            "singles": k.col_block.shape[0], "rows": k.row_block.shape[0],
            "slots": len(k.slots)}


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
        cols = [h["cols"] for _, h in shapes]
        assert any(c == k for c, k in zip(cols, m))  # every column a hub
        assert any(h["cols"] == h["rows"] == 0 for _, h in shapes)  # no hubs
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
        # and self-loop (and its lag-2 self-loop) in the gather. The outputs
        # reach the hubs alike, so the dense columns read each frame's
        # outputs as one run: flat sources 1024..2047 of the one frame at
        # h=1; at h=2 those of the older frame, then, from N = 2059 on,
        # those of the latest
        two = BatchRunner(build_two_inhibitor(1024, 7.3), RandomnessContract(0))
        log = BatchRunner(build_log_inhibitor(1024, 7.3), RandomnessContract(0))
        assert hubs(two) == {"cols": 2, "runs": [(1024, 2048)], "singles": 0, "rows": 2,
                             "slots": 2}
        assert hubs(log) == {"cols": 11, "runs": [(1024, 2048), (3083, 4107)], "singles": 0,
                             "rows": 11, "slots": 3}
        # at n=8 every column is dense, and every source reads the hubs its
        # own way (self-loops), so there are no runs
        small = BatchRunner(build_log_inhibitor(8, 7.3), RandomnessContract(0))
        assert hubs(small) == {"cols": 12, "runs": [], "singles": 28, "rows": 0, "slots": 0}
        for build in (build_two_inhibitor, build_single_inhibitor, build_log_inhibitor):
            assert hubs(BatchRunner(build(8, 7.3), RandomnessContract(0)))["runs"] == []

    def test_runs_meet_single_sources_in_one_column(self, nprng):
        for _ in range(4):
            spec = _runs_network(nprng)
            runner = self.assert_matches_dense(spec, random_frames(nprng, spec, 40, np.uint8))
            k = runner._kernel
            split = hubs(runner)
            assert len(split["runs"]) >= 2 and split["singles"] > 0
            # a dense column that reads a run and single sources
            assert np.any(k.run_block.any(axis=0) & k.col_block.any(axis=0))
            # the runs' sources and the singles are apart
            singles = np.arange(spec.history * spec.n_neurons)[k.col_src]
            for start, stop in split["runs"]:
                assert stop - start >= 16
                assert not np.any((singles >= start) & (singles < stop))

    def test_synapse_into_input_is_rejected(self):
        # the constructor rejects it, so the kernel never sees one
        kind, polarity = [INPUT, OUTPUT, AUXILIARY], [EXCITATORY, EXCITATORY, INHIBITORY]
        with pytest.raises(InputTargeted):
            NetworkSpec.from_edges(
                kind, polarity, [(1, 0, 1, 5.0), (0, 1, 1, 2.0), (2, 1, 1, -1.0)], {1: 0.5}
            )

    @pytest.mark.parametrize("history", [1, 2])
    def test_scalar_potential_is_the_batch_entry(self, nprng, history):
        # potential is an entry of the kernel, bit for bit, for every
        # non-input neuron and whatever the number of rows in the call
        for sizes, density in [((2, 2, 2), 0.6), ((10, 40, 30), 0.1)]:
            spec = random_network(nprng, *sizes, history=history, density=density)
            runner = BatchRunner(spec, RandomnessContract(0))
            windows = random_frames(nprng, spec, 4, np.uint8)
            for frames, batch in zip(windows, runner.potentials(windows)):
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


def _wide_network(nprng, lam=1.0):
    """A random network whose 8 non-input columns each read 24 synapses of
    distinct weights: 2^24 count codes, so every column has digit groups."""
    return random_network(nprng, 4, 4, 4, history=2, lam=lam, density=1.0)


def _runs_network(nprng):
    """A random history-2 network whose first two auxiliaries read outputs
    0..29 at lag 1 with one weight each (so every such output reaches the
    hub columns alike) and outputs 30..47 with one weight for the first
    auxiliary only, beside scattered synapses of distinct weights: the hub
    columns read two runs of sources and single sources."""
    spec = random_network(nprng, 3, 48, 4, history=2, density=0.05)
    w = spec.weights.copy()
    outs, aux = spec.output_indices, spec.auxiliary_indices
    w[0, outs] = 0.0  # the outputs' lag-1 synapses are the runs alone
    w[0, outs[:30], aux[0]] = 1.25
    w[0, outs[:30], aux[1]] = 0.5
    w[0, outs[30:], aux[0]] = 2.0
    return NetworkSpec.from_dense(spec.kind, spec.polarity, w, spec.biases, spec.lam, history=2)


_FAMILIES = {"two": build_two_inhibitor, "single": build_single_inhibitor,
             "log": build_log_inhibitor}
_RANDOM = {
    "h1": lambda g: random_network(g, history=1),
    "h2": lambda g: random_network(g, history=2),
    "sparse": lambda g: random_network(g, 10, 40, 30, history=2, density=0.1),
    "wide": _wide_network,
    "runs": _runs_network,
}


class TestBatchInvariance:
    """A row's potentials and probabilities are the same bits whatever the
    number of rows in the call: codes are sums of integers, and every value
    comes from one table."""

    @pytest.mark.parametrize("method", ["potentials", "probabilities"])
    @pytest.mark.parametrize(
        "case",
        [f"{f}-{n}" for f in _FAMILIES for n in (8, 1024)] + [f"random-{k}" for k in _RANDOM],
    )
    def test_every_split_of_a_batch_gives_the_same_bits(self, nprng, case, method):
        family, size = case.split("-")
        spec = _FAMILIES[family](int(size), 7.3) if family in _FAMILIES else _RANDOM[size](nprng)
        frames = random_frames(nprng, spec, 62, np.uint8)
        call = getattr(BatchRunner(spec, RandomnessContract(0)), method)
        whole = call(frames)
        for k in (1, 2, 3, 8, 31, 62):
            parts = [call(frames[lo : lo + k]) for lo in range(0, 62, k)]
            assert np.array_equal(np.vstack(parts), whole), k

    @pytest.mark.parametrize("spec_at", range(4))
    def test_window_chain_probabilities_under_two_row_blocks(self, monkeypatch, nprng, spec_at):
        spec = [build_two_inhibitor(3, 7.3), build_single_inhibitor(4, 7.3),
                build_log_inhibitor(2, 7.3), random_network(nprng, history=2)][spec_at]
        x = np.ones(spec.input_indices.size, dtype=np.uint8)
        want = WindowStateSpace(spec, x).step_probabilities

        class Blocks(BatchRunner):
            """``probabilities`` in calls of ``block`` rows."""

            def probabilities(self, frames):
                return np.vstack([super(Blocks, self).probabilities(frames[lo : lo + block])
                                  for lo in range(0, frames.shape[0], block)])

        for block in (1, 7):
            monkeypatch.setattr(oracle, "BatchRunner", Blocks)
            assert np.array_equal(WindowStateSpace(spec, x).step_probabilities, want)


def _reference_potential(spec, frames, u):
    """Minus the bias of ``u``, then, for each distinct weight of its synapses
    in the order of its first synapse, the weight times how many of its
    synapses read a firing bit: summed per digit group (classes in order; a
    class opens a new group, which starts from 0, when it would take a
    nonempty group's product of degree + 1 past 2^16 or past 32 per synapse
    the group would hold) and the groups added in order. Plain Python floats
    over ``spec.edges()``."""
    h = spec.history
    counts = {}
    for pre, post, lag, w in spec.edges():
        if post == u:
            counts[w] = counts.get(w, 0) + int(frames[h - lag][pre])
    degree = {}
    for pre, post, lag, w in spec.edges():
        if post == u:
            degree[w] = degree.get(w, 0) + 1
    groups, size, held = [-float(spec.biases[u])], 1, 0
    for w, count in counts.items():  # dicts keep first-synapse order
        held += degree[w]
        if size > 1 and size * (degree[w] + 1) > min(1 << 16, 32 * held):
            groups.append(0.0)
            size, held = 1, degree[w]
        groups[-1] = groups[-1] + w * count
        size *= degree[w] + 1
    total = groups[0]
    for part in groups[1:]:
        total = total + part
    return total


class TestCountCodes:
    """The tables against an independent per-synapse sum."""

    def test_wide_network_has_digit_groups(self, nprng):
        # 2^8 codes are 32 per synapse: each column's 24 classes of one
        # synapse fall into three groups of eight
        k = BatchRunner(_wide_network(nprng), RandomnessContract(0))._kernel
        assert len(k.levels) == 2 and k.offsets.size == 24
        # each column's later groups follow the 8 real columns in turn
        for level, (cols, code_cols) in enumerate(k.levels):
            assert np.array_equal(cols, np.arange(8))
            assert np.array_equal(code_cols, 8 + 2 * np.arange(8) + level)
        assert k.pot.size == 24 * 256

    def test_tables_hold_at_most_32_entries_per_synapse(self, nprng):
        # 200 neurons at the default density: about 240 synapses of distinct
        # weights per column; one table per column would need 2^240 entries
        spec = random_network(nprng, 10, 100, 90, history=2)
        runner = BatchRunner(spec, RandomnessContract(0))
        frames = random_frames(nprng, spec, 3, np.uint8)
        got = runner.potentials(frames)
        k = runner._kernel
        assert k.pot.size <= 32 * spec.synapses.weight.size + runner.m
        assert k.prob.size == k.pot.size
        want, scale = dense_potentials(spec, frames)
        assert np.all(np.abs(got - want) <= 1e-9 * scale)

    @pytest.mark.parametrize("n", [8, 1024])
    @pytest.mark.parametrize("build", [build_two_inhibitor, build_single_inhibitor,
                                       build_log_inhibitor])
    def test_builder_columns_keep_one_table(self, build, n):
        runner = BatchRunner(build(n, 7.3), RandomnessContract(0))
        k = runner._kernel
        assert not k.levels and k.offsets.size == runner.m

    @pytest.mark.parametrize("lam", [1.0, 0.37])
    def test_probabilities_equal_a_per_synapse_sum(self, nprng, lam):
        specs = [random_network(nprng, history=2, lam=lam), _wide_network(nprng, lam),
                 rescale_temperature(build_log_inhibitor(5, 7.3), lam),
                 rescale_temperature(build_two_inhibitor(6, 7.3), lam),
                 rescale_temperature(_runs_network(np.random.default_rng(77)), lam)]
        for spec in specs:
            frames = random_frames(nprng, spec, 6, np.uint8)
            runner = BatchRunner(spec, RandomnessContract(0))
            pot, prob = runner.potentials(frames), runner.probabilities(frames)
            ni = spec.non_input_indices.tolist()
            want = np.array([[_reference_potential(spec, f, u) for u in ni] for f in frames])
            assert np.array_equal(pot, want)
            assert np.array_equal(prob, sigmoid(want / lam))
            for f in frames[:2]:
                dense, scale = dense_potentials(spec, f[None])
                got = [potential(spec, f, u) for u in ni]
                assert np.all(np.abs(got - dense[0]) <= 1e-9 * scale[0])

    @pytest.mark.parametrize("build", [build_two_inhibitor, build_log_inhibitor])
    def test_a_class_of_more_than_two_to_the_16_synapses_keeps_one_table(self, nprng, build):
        # each inhibitor reads 2^16 (2^17) outputs of one weight: one class,
        # one table of degree + 1 entries and int32 codes
        spec = build(1 << 16, 10.0)
        runner = BatchRunner(spec, RandomnessContract(0))
        frames = random_frames(nprng, spec, 3, np.uint8)
        frames[2] = 1
        pot = runner.potentials(frames)
        k = runner._kernel
        assert not k.levels and k.offsets.dtype == np.int32
        syn, ni, h = spec.synapses, spec.non_input_indices, spec.history
        for f, row in zip(frames, pot):
            fired = syn.weight * f[h - 1 - syn.lag0, syn.pre]
            want = (np.bincount(syn.post, fired, spec.n_neurons) - spec.biases)[ni]
            scale = (np.bincount(syn.post, np.abs(fired), spec.n_neurons)
                     + np.abs(spec.biases))[ni]
            assert np.all(np.abs(row - want) <= 1e-12 * scale)

    def test_tables_are_built_on_first_use(self, nprng):
        spec = random_network(nprng, history=2)
        runner = BatchRunner(spec, RandomnessContract(0))
        assert "_kernel" not in vars(runner)
        runner.potentials(random_frames(nprng, spec, 2, np.uint8))
        assert "_kernel" in vars(runner)


def _tile_rows(monkeypatch, spec, rows):
    """Make every step tile ``rows`` rows (None: one tile for any batch)."""
    m = spec.non_input_indices.size
    monkeypatch.setattr(simulate, "_TILE_ELEMS", 10**12 if rows is None else rows * m)


class TestTiles:
    """A step makes its non-input bits one row tile at a time; where the
    tiles fall must not change a bit."""

    @pytest.mark.parametrize("build, n", [
        (build_two_inhibitor, 5), (build_single_inhibitor, 5), (build_log_inhibitor, 4),
        pytest.param(None, 4, id="wide"),  # digit groups
    ])
    def test_step_and_advance_match_untiled(self, monkeypatch, nprng, build, n):
        spec = build(n, 9.0) if build else _wide_network(nprng)
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
            # a small batch first, then the full ones
            small = runner.step_bits(frames[:2], 5, trials[:2], x_rows[:2])
            assert np.array_equal(small, want[0][:2])
            for got, ref in zip(steps(runner), want):
                assert got.dtype == np.uint8 and np.array_equal(got, ref)

    def test_run_trials_under_tiles_and_chunks(self, monkeypatch):
        inst = WtaInstance(n=3, gamma=10.0, t_s=3, delta=None, t_c=20,
                           input_bits=(1, 0, 1), variant=WtaVariant("two_inhibitor"))
        spec = inst.build()
        plan = TrialPlan(instance=inst, trials=60, seed=4, horizon=40)

        _tile_rows(monkeypatch, spec, None)
        want = run_trials(plan, spec=spec).converged_at
        assert (want >= 0).any()
        for rows in (1, 3, 7):
            _tile_rows(monkeypatch, spec, rows)
            assert np.array_equal(run_trials(plan, spec=spec).converged_at, want)
            for size in (1, 7):
                assert np.array_equal(plan_in_batches(plan, spec, size), want)

    def test_warm_advance_allocates_no_batch_sized_temporaries(self):
        # One (250 x 1026) float64 array is 2 MB: a step that allocated one per
        # operation peaked above 8 MB here. The new (250 x 2050) uint8 frame
        # is 0.5 MB, and a tile's arrays are 256 KiB each.
        spec = build_two_inhibitor(1024, 10.0)
        rng = RandomnessContract(3)
        runner = BatchRunner(spec, rng)
        trials = np.arange(250)
        x = np.ones(1024, dtype=np.uint8)
        frames = initial_windows_batch(spec, "uniform_random", x, trials, rng)
        frames = runner.advance(frames, 1, trials, x)  # builds the kernel
        tracemalloc.start()
        try:
            runner.advance(frames, 2, trials, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6


# every public call that takes a window, as call(spec, x, window)
_WINDOW_CALLS = {
    "state_index": lambda spec, x, w: WindowStateSpace(spec, x).state_index(w),
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

    def test_explicit_start_window_is_checked(self):
        spec = build_two_inhibitor(2, 8.0)
        x = np.ones(2, dtype=np.uint8)
        with pytest.raises(InvalidNetwork, match="window shape"):
            initial_window(spec, np.zeros((3, 3), dtype=np.uint8), x)
        window = np.array([[1, 1, 1, 0, 1, 0]], dtype=np.uint8)
        got = initial_window(spec, window, x)
        assert np.array_equal(got, window)


# every public call that takes the fixed input vector, as call(spec, x, window)
_INPUT_CALLS = {
    "run": lambda spec, x, w: run(spec, w, x, 4, RandomnessContract(0)),
    "initial_window": lambda spec, x, w: initial_window(spec, "all_fire", x),
    "initial_windows_batch": lambda spec, x, w: initial_windows_batch(
        spec, "uniform_random", x, np.arange(3), RandomnessContract(0)
    ),
    "WindowStateSpace": lambda spec, x, w: WindowStateSpace(spec, x),
    "convergence_cdf": lambda spec, x, w: convergence_cdf(spec, x, w, 2, 5),
    "hold_probability": lambda spec, x, w: hold_probability(spec, x, w, 2),
}


class TestInputVector:
    """Every call that takes X accepts only one 0/1 bit per input neuron."""

    @pytest.mark.parametrize("build", [build_two_inhibitor, build_log_inhibitor])
    @pytest.mark.parametrize("x", [[1], [1, 1, 1], [2, 1], [1, -1]])
    @pytest.mark.parametrize("name", list(_INPUT_CALLS))
    def test_bad_input_is_rejected(self, build, x, name):
        spec = build(2, 8.0)
        window = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
        window[:, [0, 1, 2, 4]] = 1  # x, y_0 and a_s: valid for both families
        with pytest.raises(WtaLabError, match="input vector"):
            _INPUT_CALLS[name](spec, x, window)

    @pytest.mark.parametrize("build", [build_two_inhibitor, build_log_inhibitor])
    @pytest.mark.parametrize("name", list(_INPUT_CALLS))
    def test_bits_of_any_dtype_are_accepted(self, build, name):
        spec = build(2, 8.0)
        window = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
        window[:, [0, 1, 2, 4]] = 1
        for x in ([1, 1], (1, 1), np.ones(2, dtype=bool), np.ones(2)):
            _INPUT_CALLS[name](spec, x, window)

    def test_every_start_frame_holds_the_input(self):
        # the explicit window's own input bits disagree with X
        x = np.array([1, 0, 1], dtype=np.uint8)
        rng = RandomnessContract(2)
        for build in (build_two_inhibitor, build_log_inhibitor):
            spec = build(3, 6.0)
            explicit = np.zeros((spec.history, spec.n_neurons), dtype=np.uint8)
            explicit[:, spec.input_indices] = 1 - x
            for policy in ("all_zero", "all_fire", "uniform_random", explicit):
                frames = initial_windows_batch(spec, policy, x, np.arange(4), rng)
                assert (frames[:, :, spec.input_indices] == x).all()
                single = initial_window(spec, policy, x, rng, trial=3)
                assert np.array_equal(single, frames[3])


class _ZeroFirstDraw(RandomnessContract):
    """The contract's draws, except that each block's first draw is 0."""

    def uniform_block(self, trials, time, neurons):
        draws = super().uniform_block(trials, time, neurons)
        draws[0, 0] = 0.0
        return draws


class TestSaturatedStep:
    """Potentials far below -708, where ``exp`` makes subnormal results, go
    through the same tables as any other; no fired bit may differ from
    ``d < sigmoid(z)``, a zero draw included."""

    @pytest.mark.parametrize("rng", [RandomnessContract(3), _ZeroFirstDraw(3)],
                             ids=["draws", "forced_zero_draw"])
    def test_step_bits_match_the_exact_probabilities(self, rng):
        # gamma as at criterion 5's n=1024 cell: potentials reach below -745
        spec = build_log_inhibitor(16, 182.0)
        x = (np.arange(16) % 3 > 0).astype(np.uint8)
        trials = np.arange(5_000)
        frames = initial_windows_batch(spec, "uniform_random", x, trials, RandomnessContract(9))
        runner = BatchRunner(spec, rng)
        new = runner.step_bits(frames, 2, trials, x)
        pot = BatchRunner(spec, rng).potentials(frames)
        assert np.any(pot < -745.0) and np.any((pot > -745.0) & (pot < -708.0))
        tile = simulate._TILE_ELEMS // spec.non_input_indices.size
        want = np.vstack([
            rng.uniform_block(trials[lo : lo + tile], 2, spec.non_input_indices)
            < BatchRunner(spec, rng).probabilities(frames[lo : lo + tile])
            for lo in range(0, trials.size, tile)
        ])
        assert np.array_equal(new[:, spec.non_input_indices], want)

    def test_zero_draw_keeps_a_zero_probability_silent(self):
        spec = build_two_inhibitor(2, 300.0)  # y_0 with x_0 = 0: potential -900
        x = np.array([0, 1], dtype=np.uint8)
        frames = initial_windows_batch(spec, "all_zero", x, np.arange(4), RandomnessContract(0))
        new = BatchRunner(spec, _ZeroFirstDraw(1)).step_bits(frames, 1, np.arange(4), x)
        assert new[0, spec.output_indices[0]] == 0


class TestDrawEdges:
    """A neuron fires iff its draw ``u`` is below its probability ``p``, at
    both ends of the draws: ``u = 0`` fires any ``p > 0``, even one below
    2^-53, and no ``p == 0``; the largest draw ``1 - 2^-53`` fires ``p == 1``
    but not the largest ``p`` below 1 that a potential of 30 gives."""

    # potential -b of each output: p in (0, 2^-53], p == 0, p == 1, p < 1 - 2^-53
    BIASES = {1: 40.0, 2: 800.0, 3: -40.0, 4: -30.0}
    SEED, TIME = 1, 5

    def spec(self):
        kind = [INPUT] + [OUTPUT] * 4
        return NetworkSpec.from_edges(kind, [EXCITATORY] * 5, [], self.BIASES)

    def test_probabilities_sit_at_the_edges(self):
        p = BatchRunner(self.spec(), RandomnessContract(self.SEED)).probabilities(
            np.zeros((1, 1, 5), dtype=np.uint8))[0]
        assert 0.0 < p[0] <= 2.0 ** -53 and p[1] == 0.0
        assert p[2] == 1.0 and sigmoid(30.0) == p[3] < LARGEST_DRAW

    @pytest.mark.parametrize("draw, fires", [
        (0.0, [1, 0, 1, 1]),
        (LARGEST_DRAW, [0, 0, 1, 0]),
    ], ids=["zero_draw", "largest_draw"])
    def test_step_bits_fire_iff_draw_below_p(self, draw, fires):
        spec = self.spec()
        outputs = spec.output_indices
        # row i draws ``draw`` for output i
        trials = np.uint64([trial_drawing(self.SEED, self.TIME, int(u), draw) for u in outputs])
        rng = RandomnessContract(self.SEED)
        assert np.all(np.diag(rng.uniform_block(trials, self.TIME, outputs)) == draw)
        frames = np.zeros((trials.size, 1, spec.n_neurons), dtype=np.uint8)
        new = BatchRunner(spec, rng).step_bits(frames, self.TIME, trials, [0])
        assert np.diag(new[:, outputs]).tolist() == fires
