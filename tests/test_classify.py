import itertools

import numpy as np
import pytest

from wtalab import (
    LengthMismatch,
    RandomnessContract,
    TopologyMismatch,
    Execution,
    WtaLabError,
    build_log_inhibitor,
    build_two_inhibitor,
    convergence_time,
    initial_window,
    run,
)

from wtalab.classify import (
    ConvergenceScan,
    near_stable,
    steady_state,
    two_inhibitor_classes,
    typical,
    valid_outputs,
    window_labels,
)

from conftest import brute_convergence_time


def two_output_execution(frames):
    """``frames`` of a network with inputs 0..1 and outputs 2..3, recorded
    as an ``Execution``."""
    return Execution(frames, np.arange(2, 4))


def labels_of(tag, x, window):
    """``window_labels`` of one window (or one frame), a batch of one."""
    w = np.asarray(window, dtype=np.uint8)
    return window_labels(tag, x, w.reshape((1, -1, w.shape[-1])))[0]


def slow_two_inhibitor_labels(x, c):
    """Clause-by-clause re-evaluation of each configuration class,
    written independently of the classifier."""
    n = len(x)
    y = c[n : 2 * n]
    a_s, a_c = c[2 * n], c[2 * n + 1]
    backed = all(y[i] <= x[i] for i in range(n))
    norm_y, norm_x = sum(y), sum(x)
    out_valid = backed and norm_y == min(1, norm_x)
    labels = set()
    if out_valid and a_c == 0 and a_s == min(1, norm_x):
        labels.add("valid_wta")
    if out_valid and a_s == 1 and a_c == 1:
        labels.add("near_valid")
    if backed and norm_y >= 2 and a_s == 1 and a_c == 1:
        labels.add(f"k_wta({norm_y})")
    if a_s == 0 and a_c == 0:
        labels.add("reset")
    active = bool(
        labels & {"valid_wta", "near_valid"}
        or any(l.startswith("k_wta") for l in labels)
    )
    if active:
        labels.add("active")
    if labels:
        labels.add("good")
    if "near_valid" in labels or norm_y == 0:
        labels.add("terminal")
    return labels


class TestValidOutput:
    def test_all_silent(self):
        assert valid_outputs([0, 0, 0, 0], [0, 0, 0, 0])

    def test_backed_winner(self):
        assert valid_outputs([1, 1, 0, 1], [0, 1, 0, 0])
        assert not valid_outputs([1, 1, 0, 1], [0, 0, 1, 0])

    def test_two_winners(self):
        assert not valid_outputs([1, 1, 0, 0], [1, 1, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            valid_outputs([1, 0], [1, 0, 0])


class TestClassifyTwoInhibitor:
    def test_valid(self):
        got = labels_of("two_inhibitor", [1, 1], [1, 1, 1, 0, 1, 0])
        assert got == {"valid_wta", "good", "active"}

    def test_k_wta(self):
        got = labels_of("two_inhibitor", [1, 1], [1, 1, 1, 1, 1, 1])
        assert got == {"k_wta(2)", "good", "active"}

    def test_silent_input_overlap(self):
        got = labels_of("two_inhibitor", [0, 0], [0, 0, 0, 0, 0, 0])
        assert got == {"valid_wta", "reset", "good", "active", "terminal"}

    def test_near_valid_is_terminal(self):
        got = labels_of("two_inhibitor", [1, 1], [1, 1, 1, 0, 1, 1])
        assert got == {"near_valid", "good", "active", "terminal"}

    def test_topology_mismatch(self):
        with pytest.raises(TopologyMismatch):
            labels_of("two_inhibitor", [1, 1], [1, 1, 0, 0, 0])

    def test_input_bits_disagree_with_x(self):
        with pytest.raises(TopologyMismatch, match="disagree with X"):
            labels_of("two_inhibitor", [1, 1], [0, 1, 0, 0, 0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_slow_checker(self, n):
        # every configuration at once, each row with its own input bits
        configs = np.array(list(itertools.product([0, 1], repeat=2 * n + 2)), dtype=np.uint8)
        masks = two_inhibitor_classes(configs[:, :n], configs)
        out_valid = valid_outputs(configs[:, :n], configs[:, n : 2 * n])
        labels = window_labels("two_inhibitor", configs[:, :n], configs[:, None])
        for row, c in enumerate(configs.tolist()):
            x = c[:n]
            slow = slow_two_inhibitor_labels(x, c)
            assert labels_of("two_inhibitor", x, c) == slow
            assert labels[row] == slow
            assert masks.valid[row] == ("valid_wta" in slow)
            assert masks.near_valid[row] == ("near_valid" in slow)
            assert masks.k_wta[row] == any(l.startswith("k_wta(") for l in slow)
            assert masks.reset[row] == ("reset" in slow)
            assert masks.k[row] == sum(c[n : 2 * n])
            backed = all(y <= xi for y, xi in zip(c[n : 2 * n], x))
            assert out_valid[row] == (backed and sum(c[n : 2 * n]) == min(1, sum(x)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_label_algebra(self, n):
        for x in itertools.product([0, 1], repeat=n):
            for rest in itertools.product([0, 1], repeat=n + 2):
                labels = labels_of("two_inhibitor", list(x), list(x) + list(rest))
                if "active" in labels:
                    assert "good" in labels
                if "reset" in labels and sum(x) >= 1:
                    assert "active" not in labels
                has_kwta = any(l.startswith("k_wta(") for l in labels)
                assert ("terminal" in labels) == (
                    "near_valid" in labels or sum(rest[:n]) == 0
                )
                if "valid_wta" in labels:
                    assert "near_valid" not in labels  # a_c differs
                    assert not has_kwta  # output count differs


class TestClassifyLogInhibitor:
    def test_near_stable_winner_in_older_frame(self):
        # winner fired only in the older frame; the stability inhibitor fired
        # in both frames and the graded chain is quiet in the latest
        x = [1, 0]
        older = [1, 0, 1, 0, 1, 0]
        latest = [1, 0, 0, 0, 1, 0]
        assert near_stable(x, [older, latest])
        labels = labels_of("log_inhibitor", x, np.array([older, latest]))
        assert "near_stable_pair" in labels

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_typical_batch_against_clauses(self, n):
        levels = 1 + (n - 1).bit_length()  # a_s plus the graded chain
        configs = np.array(list(itertools.product([0, 1], repeat=2 * n + levels)), dtype=np.uint8)
        mask = typical(configs[:, :n], configs)
        for row, c in enumerate(configs.tolist()):
            x, y, chain = c[:n], c[n : 2 * n], c[2 * n :]
            backed = all(yi <= xi for yi, xi in zip(y, x))
            closed = all(chain[j] >= chain[j + 1] for j in range(levels - 1))
            assert mask[row] == (backed and closed)
            assert typical(x, c) == (backed and closed)

    def test_chain_gap_is_not_typical(self):
        x = [1, 1, 1, 1]
        cfg = [1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1]  # a_2 without a_1
        assert not typical(x, cfg)
        cfg_ok = [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0]
        assert typical(x, cfg_ok)

    def test_two_outputs_across_frames_not_near_stable(self):
        x = [1, 1]
        older = [1, 1, 1, 0, 1, 0]
        latest = [1, 1, 0, 1, 1, 0]
        assert not near_stable(x, [older, latest])

    def test_silent_input_not_applicable(self):
        x = [0, 0]
        frame = [0, 0, 0, 0, 1, 0]
        assert not near_stable(x, [frame, frame])
        labels = labels_of("log_inhibitor", x, np.array([frame, frame]))
        assert "near_stable_pair" not in labels

    def test_stability_inhibitor_must_fire_in_both_frames(self):
        x = [1, 0]
        older = [1, 0, 1, 0, 0, 0]  # a_s silent in the older frame
        latest = [1, 0, 0, 0, 1, 0]
        assert not near_stable(x, [older, latest])


def slow_steady(tag, x, c):
    """Clause-by-clause steady-state test of each family, written out per
    family rather than through the shared auxiliary rule."""
    n = len(x)
    y = c[n : 2 * n]
    want = min(1, sum(x))
    out_valid = all(yi <= xi for yi, xi in zip(y, x)) and sum(y) == want
    if tag == "two_inhibitor":
        a_s, a_c = c[2 * n], c[2 * n + 1]
        return out_valid and a_s == want and a_c == 0
    if tag == "single_inhibitor":
        return out_valid and c[2 * n] == want  # a_c stands in for a_s
    a_s, chain = c[2 * n], c[2 * n + 1 :]
    return out_valid and a_s == want and not any(chain)


def slow_near_stable(x, older, latest):
    """Clause-by-clause near-stable test of one graded window."""
    n = len(x)
    if sum(x) == 0:
        return False
    y_old, y_new = older[n : 2 * n], latest[n : 2 * n]
    one_winner = sum(max(a, b) for a, b in zip(y_old, y_new)) == 1
    inhibitor_both = older[2 * n] == 1 and latest[2 * n] == 1
    chain_quiet = not any(latest[2 * n + 1 :])
    backed = all(a <= xi and b <= xi for a, b, xi in zip(y_old, y_new, x))
    return one_winner and inhibitor_both and chain_quiet and backed


def steady(x, c):
    """``steady_state`` of one canonical configuration, a batch of one."""
    n = len(x)
    return steady_state(x, c[n : 2 * n], c[2 * n :])


def canonical_configs(tag, n):
    """Every configuration of family ``tag`` whose inputs match its own X."""
    aux = {"two_inhibitor": 2, "single_inhibitor": 1, "log_inhibitor": 1 + (n - 1).bit_length()}
    return np.array(list(itertools.product([0, 1], repeat=2 * n + aux[tag])), dtype=np.uint8)


class TestBatchMasks:
    @pytest.mark.parametrize("tag", ["two_inhibitor", "single_inhibitor", "log_inhibitor"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_steady_state_exhaustive(self, tag, n):
        configs = canonical_configs(tag, n)
        x = configs[:, :n]
        mask = steady_state(x, configs[:, n : 2 * n], configs[:, 2 * n :])
        ref = [slow_steady(tag, c[:n], c) for c in configs.tolist()]
        assert mask.tolist() == ref
        assert [bool(steady(c[:n], c)) for c in configs.tolist()] == ref

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_inhibitor_labels_exhaustive(self, n):
        configs = canonical_configs("single_inhibitor", n)
        for bits in itertools.product([0, 1], repeat=n):
            rows = configs[(configs[:, :n] == bits).all(axis=1)]
            got = window_labels("single_inhibitor", bits, rows[:, None, :])
            ref = [{"valid"} if slow_steady("single_inhibitor", bits, c) else set()
                   for c in rows.tolist()]
            assert [set(g) for g in got] == ref

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_graded_windows_exhaustive(self, n):
        configs = canonical_configs("log_inhibitor", n)
        for bits in itertools.product([0, 1], repeat=n):
            frames = configs[(configs[:, :n] == bits).all(axis=1)]
            older = np.repeat(frames, len(frames), axis=0)
            latest = np.tile(frames, (len(frames), 1))
            windows = np.stack([older, latest], axis=1)
            mask = near_stable(bits, windows)
            labels = window_labels("log_inhibitor", bits, windows)
            typ = typical(bits, frames)
            for row, (o, l) in enumerate(zip(older.tolist(), latest.tolist())):
                ref = slow_near_stable(bits, o, l)
                assert mask[row] == ref
                want = {"near_stable_pair"} if ref else set()
                if typ[row % len(frames)]:
                    want.add("typical")
                assert labels[row] == want
            for row in range(0, len(windows), 7):  # a batch of one, on a sample
                assert near_stable(bits, windows[row]) == mask[row]

    def test_window_batch_shape_checked(self):
        with pytest.raises(TopologyMismatch):
            window_labels("two_inhibitor", [1, 1], np.zeros((2, 6), dtype=np.uint8))
        with pytest.raises(TopologyMismatch):
            near_stable([1, 1], np.zeros((3, 6), dtype=np.uint8))
        with pytest.raises(WtaLabError):
            window_labels("no_such_family", [1, 1], np.zeros((1, 1, 6), dtype=np.uint8))
        with pytest.raises(TopologyMismatch):
            near_stable([1, 0], np.zeros((2, 5), dtype=np.uint8))
        with pytest.raises(TopologyMismatch):
            steady_state([1, 0], [1, 0], np.zeros(0, dtype=np.uint8))


class TestValidConfigurationByVariant:
    def test_single_inhibitor_uses_convergence_inhibitor(self):
        x = [1, 1]
        assert steady(x, [1, 1, 1, 0, 1])
        assert not steady(x, [1, 1, 1, 0, 0])

    def test_log_requires_quiet_chain(self):
        x = [1, 0]
        assert steady(x, [1, 0, 1, 0, 1, 0])
        assert not steady(x, [1, 0, 1, 0, 1, 1])


class TestConvergenceTime:
    def test_constant_valid_from_start(self):
        x = [1, 0]
        frames = np.zeros((8, 6), dtype=np.uint8)
        frames[:, 0] = 1
        frames[:, 2] = 1  # y_0 fires in every frame
        out = convergence_time(two_output_execution(frames), x, 3)
        assert out.converged_at == 0 and not out.timed_out

    def test_break_before_hold_keeps_scanning(self):
        x = [1, 1]
        frames = np.zeros((15, 6), dtype=np.uint8)
        frames[:, :2] = 1
        frames[3:8, 2] = 1   # valid at frames 3..7
        frames[8, 3] = 1     # changes at frame 8 before a 5-step hold
        frames[9:, 2] = 1    # settles again from frame 9
        out = convergence_time(two_output_execution(frames), x, 5)
        assert out.converged_at == 9

    def test_against_independent_scanner(self):
        x = np.array([1, 1], dtype=np.uint8)
        rng = RandomnessContract(7)
        cases = itertools.product([build_two_inhibitor, build_log_inhibitor], [1, 5], range(20))
        for build, t_s, trial in cases:
            spec = build(2, 12.0)
            init = initial_window(spec, "uniform_random", x, rng, trial=trial)
            ex = run(spec, init, x, 60, rng, trial=trial)
            got = convergence_time(ex, x, t_s)
            outs = ex.frames[:, 2:4]
            ref = brute_convergence_time(outs, x, t_s)
            assert got.converged_at == ref
            assert got.timed_out == (ref is None)

    def test_monotone_under_extension(self):
        spec = build_two_inhibitor(3, 10.0)
        x = np.array([1, 1, 1], dtype=np.uint8)
        rng = RandomnessContract(31)
        init = initial_window(spec, "all_fire", x, rng)
        long = run(spec, init, x, 80, rng, trial=4)
        t_prev = None
        for horizon in (20, 40, 60, 80):
            out = convergence_time(Execution(long.frames[:horizon], long.output_indices), x, 5)
            if t_prev is not None and t_prev.converged_at is not None:
                assert out.converged_at == t_prev.converged_at
            t_prev = out

    def test_bare_frames_are_rejected(self):
        # a frame array does not say where its outputs are
        frames = np.zeros((4, 6), dtype=np.uint8)
        with pytest.raises(WtaLabError, match="takes an Execution, got ndarray"):
            convergence_time(frames, [1, 1], 2)

    def test_timeout(self):
        x = [1, 1]
        frames = np.zeros((4, 6), dtype=np.uint8)
        frames[:, :2] = 1
        out = convergence_time(two_output_execution(frames), x, 10)
        assert out.timed_out and out.converged_at is None


def _output_runs(g, x, batch, frames):
    """(batch, frames, n) output sequences that mostly repeat, drawn from
    valid outputs, winners whose input is silent, silence and many winners."""
    n = x.size
    backed, silent = np.flatnonzero(x), np.flatnonzero(x == 0)
    outs = np.zeros((batch, frames, n), dtype=np.uint8)
    for b in range(batch):
        y = np.zeros(n, dtype=np.uint8)
        for t in range(frames):
            if t == 0 or g.random() > 0.75:
                y = np.zeros(n, dtype=np.uint8)
                kind = g.integers(4)
                if kind == 0 and backed.size:
                    y[g.choice(backed)] = 1
                elif kind == 1 and silent.size:
                    y[g.choice(silent)] = 1
                elif kind == 2:
                    y[:] = g.random(n) < 0.5
            outs[b, t] = y
    return outs


class TestPackedScan:
    """``ConvergenceScan`` keeps its previous frame bit-packed; it must agree
    with the literal scanner wherever n leaves padding bits in the last byte."""

    @pytest.mark.parametrize("n", [1, 7, 9, 64, 65])
    @pytest.mark.parametrize("t_s", [1, 4])
    def test_against_independent_scanner(self, n, t_s):
        g = np.random.default_rng(1000 * n + t_s)
        frames = 40
        for x in (g.random(n) < 0.5, np.ones(n), np.zeros(n), np.eye(1, n, n - 1)[0]):
            x = x.astype(np.uint8)
            outs = _output_runs(g, x, 30, frames)
            scan = ConvergenceScan(x, t_s)
            alive = np.arange(outs.shape[0])
            got = {}
            for t in range(frames):
                hit = scan.update(t, outs[alive, t])
                got.update(zip(alive[hit].tolist(), scan.converged_at[hit].tolist()))
                # drop the converged rows, and now and then some running ones
                keep = scan.converged_at < 0
                if t % 9 == 4:
                    keep &= g.random(alive.size) < 0.8
                scan.drop(keep)
                alive = alive[keep]
            for b in range(outs.shape[0]):
                ref = brute_convergence_time(outs[b], x, t_s)
                if b in got or b in alive:
                    assert got.get(b) == ref, (x.tolist(), b)
            assert len(got) > 0

    def test_unbacked_winner_never_converges(self):
        x = np.array([1] * 8 + [0], dtype=np.uint8)  # the silent input sits in a padded byte
        y = np.zeros((3, 9), dtype=np.uint8)
        y[0, 8] = 1  # winner without input
        y[1, 3] = 1  # backed winner
        y[2, [3, 8]] = 1
        scan = ConvergenceScan(x, 0)
        assert scan.update(0, y).tolist() == [False, True, False]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ConvergenceScan(np.ones(3), 1).update(0, np.zeros((2, 4), dtype=np.uint8))

    def test_negative_hold_rejected(self):
        frames = np.zeros((6, 6), dtype=np.uint8)
        frames[:, [0, 1, 2, 4]] = 1  # valid from frame 0
        with pytest.raises(WtaLabError):
            convergence_time(two_output_execution(frames), [1, 1], -5)
        with pytest.raises(WtaLabError):
            ConvergenceScan(np.ones(2), -1)
        assert convergence_time(two_output_execution(frames), [1, 1], 0).converged_at == 0


# every public classify call that takes the input vector X (n = 2 here), with
# configurations of the right shape, so only X can be at fault
_ZEROS = np.zeros(6, dtype=np.uint8)
_PAIR = np.zeros((2, 6), dtype=np.uint8)
_X_CALLS = {
    "valid_outputs": lambda x: valid_outputs(x, [0, 0]),
    "steady_state": lambda x: steady_state(x, [0, 0], [0, 0]),
    "two_inhibitor_classes": lambda x: two_inhibitor_classes(x, _ZEROS),
    "typical": lambda x: typical(x, _ZEROS),
    "near_stable": lambda x: near_stable(x, _PAIR),
    "window_labels": lambda x: window_labels("two_inhibitor", x, _ZEROS[None, None]),
    "window_labels(single_inhibitor)": lambda x: window_labels(
        "single_inhibitor", x, _ZEROS[None, None, :5]
    ),
    "window_labels(log_inhibitor)": lambda x: window_labels("log_inhibitor", x, _PAIR[None]),
    "ConvergenceScan": lambda x: ConvergenceScan(x, 2),
    "convergence_time": lambda x: convergence_time(
        two_output_execution(np.tile(_ZEROS, (4, 1))), x, 2
    ),
}


class TestInputVector:
    """Every public classify call takes X only as 0/1 bits."""

    @pytest.mark.parametrize("x", [[2, 1], [1, -1]])
    @pytest.mark.parametrize("name", list(_X_CALLS))
    def test_non_bits_rejected(self, name, x):
        with pytest.raises(WtaLabError, match="input vector must hold 0/1 bits"):
            _X_CALLS[name](x)

    @pytest.mark.parametrize("name", list(_X_CALLS))
    def test_bits_accepted(self, name):
        for x in ([0, 0], np.zeros(2, dtype=bool), np.zeros(2)):
            _X_CALLS[name](x)
