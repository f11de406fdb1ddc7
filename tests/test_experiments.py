import math

import numpy as np
import pytest

from wtalab import (
    HorizonTooShort,
    TrialPlan,
    WtaInstance,
    WtaLabError,
    WtaVariant,
    build_two_inhibitor,
    convergence_cdf,
    run_trials,
    self_stabilization_probe,
    sweep,
    wilson_interval,
)
from wtalab.experiments import CSV_FIELDS

from conftest import plan_in_batches


def small_instance(**kw):
    args = dict(
        n=2, gamma=12.0, t_s=3, delta=None, t_c=20,
        variant=WtaVariant("two_inhibitor"),
    )
    args.update(kw)
    return WtaInstance(**args)


class TestWilson:
    def test_contains_point_estimate(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (999, 1000)]:
            lo, hi = wilson_interval(k, n, 0.99)
            assert lo <= k / n <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_no_trials_is_the_unit_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("successes, trials, confidence", [
        (5, 3, 0.99), (-1, 3, 0.99), (1.0, 3, 0.99), (True, 3, 0.99), (1, "3", 0.99),
        (1, 3, 1.0), (1, 3, 0.0), (1, 3, "0.9"), (1, 3, math.nan),
    ])
    def test_arguments_checked(self, successes, trials, confidence):
        # 5 of 3 was a math domain error, a confidence of 1 a StatisticsError
        with pytest.raises(WtaLabError):
            wilson_interval(successes, trials, confidence)

    def test_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(50, 100)
        lo2, hi2 = wilson_interval(5000, 10000)
        assert hi2 - lo2 < hi1 - lo1


class TestRunTrials:
    def test_all_zero_input_succeeds_immediately(self):
        inst = small_instance(input_bits=(0, 0))
        plan = TrialPlan(instance=inst, initial_policy="all_zero",
                         trials=2000, seed=1, horizon=30)
        s = run_trials(plan)
        assert s.success_frac > 0.99
        assert s.mean_tconv == 0.0

    def test_reproducible_and_chunk_invariant(self):
        inst = small_instance()
        base = TrialPlan(instance=inst, trials=500, seed=9, horizon=40)
        a = run_trials(base)
        assert np.array_equal(run_trials(base).converged_at, a.converged_at)
        for size in (7, 1):  # a trial's result does not depend on its batch
            assert np.array_equal(plan_in_batches(base, inst.build(), size), a.converged_at)

    def test_matches_exact_oracle(self):
        inst = small_instance()
        plan = TrialPlan(instance=inst, initial_policy="all_zero",
                         trials=40000, seed=12, horizon=30)
        s = run_trials(plan)
        spec = build_two_inhibitor(2, 12.0)
        init = np.zeros((1, 6), dtype=np.uint8)
        init[0, :2] = 1
        cdf = convergence_cdf(spec, [1, 1], init, inst.t_s, inst.t_c + inst.t_s)
        exact = cdf[-1]
        lo, hi = wilson_interval(s.successes, s.trials, 0.999)
        assert lo <= exact <= hi

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("horizon", 40.5), ("trials", True), ("horizon", True),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(WtaLabError, match=field):
            TrialPlan(instance=small_instance(), **{"trials": 10, "horizon": 40, field: value})

    @pytest.mark.parametrize("start", ["explicit", "bogus"])
    def test_unknown_policy_rejected_when_built(self, start):
        with pytest.raises(WtaLabError, match="initial policy"):
            TrialPlan(instance=small_instance(), initial_policy=start, horizon=40)

    def test_window_start_of_wrong_shape_rejected_when_built(self):
        with pytest.raises(WtaLabError, match="window shape"):
            TrialPlan(instance=small_instance(), initial_policy=np.ones((2, 6)), horizon=40)

    def test_window_start_is_a_read_only_copy(self):
        window = np.array([[1, 1, 1, 0, 1, 0]], dtype=np.uint8)  # winner y_0 plus a_s
        plan = TrialPlan(instance=small_instance(), initial_policy=window,
                         trials=50, seed=4, horizon=40)
        window[0, 2:] = 0  # the caller's array no longer fixes the plan's start
        assert plan.initial_policy.tolist() == [[1, 1, 1, 0, 1, 0]]
        with pytest.raises(ValueError):
            plan.initial_policy[0, 3] = 1
        assert run_trials(plan).mean_tconv == 0.0  # converged at frame 0

    @pytest.mark.parametrize("seed", [1.5, -1, 1 << 64, True])
    def test_seed_rejected_when_built(self, seed):
        with pytest.raises(WtaLabError, match="seed"):
            TrialPlan(instance=small_instance(), trials=10, seed=seed, horizon=40)

    def test_horizon_guard(self):
        inst = small_instance()
        with pytest.raises(HorizonTooShort):
            TrialPlan(instance=inst, trials=10, seed=0, horizon=20)

    def test_success_monotone_in_gamma(self):
        fracs = []
        for gamma in (2.0, 4.0, 8.0):
            inst = small_instance(n=4, gamma=gamma, t_c=15, input_bits=(1, 1, 1, 1))
            plan = TrialPlan(instance=inst, trials=4000, seed=3, horizon=40)
            fracs.append(run_trials(plan).success_frac)
        noise = 3 * math.sqrt(0.25 / 4000)
        assert fracs[1] >= fracs[0] - noise
        assert fracs[2] >= fracs[1] - noise

    def test_row_schema(self):
        inst = small_instance()
        s = run_trials(TrialPlan(instance=inst, trials=50, seed=2, horizon=40))
        row = s.row()
        assert list(row) == CSV_FIELDS
        lo, hi = s.wilson
        assert lo <= s.success_frac <= hi


class TestEstimatorSoundness:
    def test_frequencies_track_exact_values(self):
        # many (instance, time) checkpoints; nearly all must fall inside the
        # 99.9% interval around the measured frequency
        from wtalab.experiments import batch_convergence_times, initial_windows_batch
        from wtalab import RandomnessContract

        trials, t_s = 30_000, 3
        inside = total = 0
        for n in (1, 2):
            for gamma in (6.0, 10.0):
                spec = build_two_inhibitor(n, gamma)
                x = np.ones(n, dtype=np.uint8)
                init = np.zeros((1, 2 * n + 2), dtype=np.uint8)
                init[0, :n] = 1
                cdf = convergence_cdf(spec, x, init, t_s, 14)
                rng = RandomnessContract(140 + n + int(gamma))
                ids = np.arange(trials, dtype=np.int64)
                w0 = initial_windows_batch(spec, "all_zero", x, ids, rng)
                conv = batch_convergence_times(spec, x, w0, ids, t_s, 18, rng)
                for t in range(4, 15, 2):
                    hits = int(((conv >= 0) & (conv + t_s <= t)).sum())
                    lo, hi = wilson_interval(hits, trials, 0.999)
                    total += 1
                    inside += lo - 1e-12 <= cdf[t] <= hi + 1e-12
        assert inside >= total - 1
        assert total == 24


class TestSweep:
    def test_empty_grid(self):
        assert sweep([]) == []

    def test_rows_per_cell(self):
        plans = [
            TrialPlan(instance=small_instance(n=n, input_bits=(1,) * n),
                      trials=200, seed=4, horizon=40)
            for n in (2, 3)
        ]
        rows = [s.row() for s in sweep(plans)]
        assert [r["n"] for r in rows] == [2, 3]


class TestProbe:
    def test_zero_perturbations_equals_run_trials(self):
        inst = small_instance()
        plan = TrialPlan(instance=inst, trials=300, seed=6, horizon=40)
        probe = self_stabilization_probe(plan, perturbations=0)
        direct = run_trials(plan)
        assert np.array_equal(probe.initial.converged_at, direct.converged_at)
        assert probe.reconvergence_fractions() == []

    def test_negative_perturbations_rejected_before_any_trial(self, monkeypatch):
        from wtalab import experiments

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trials", no_trials)
        plan = TrialPlan(instance=small_instance(), trials=10, seed=6, horizon=40)
        with pytest.raises(WtaLabError, match="perturbations"):
            self_stabilization_probe(plan, perturbations=-1)

    def test_adversarial_reconvergence(self):
        inst = WtaInstance.for_theorem(
            "two_inhibitor", "high_probability", 8, t_s=5, delta=0.1
        )
        plan = TrialPlan(instance=inst, trials=200, seed=8,
                         horizon=inst.t_c + inst.t_s + 1)
        probe = self_stabilization_probe(plan, perturbations=2)
        for frac in probe.reconvergence_fractions():
            assert frac >= 1.0 - inst.delta

    def test_single_inhibitor_cannot_hold_long(self):
        # comparative ordering only: with one inhibitor the winner must keep
        # surviving fair coins, so a long hold collapses versus two inhibitors
        t_s, t_c, n = 100, 200, 4
        two = WtaInstance(n=n, gamma=20.0, t_s=t_s, delta=None, t_c=t_c,
                          variant=WtaVariant("two_inhibitor"))
        one = WtaInstance(n=n, gamma=20.0, t_s=t_s, delta=None, t_c=t_c,
                          variant=WtaVariant("single_inhibitor"))
        horizon = 2 * t_c + t_s
        frac = {}
        for name, inst in (("two", two), ("one", one)):
            plan = TrialPlan(instance=inst, trials=400, seed=10, horizon=horizon)
            frac[name] = run_trials(plan).success_frac
        assert frac["two"] > 0.9
        assert frac["one"] < frac["two"] - 0.5
