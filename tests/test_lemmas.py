"""Catalog behavior plus exact certification of every transition bound.

The sampled checks are exercised at small sample counts here (the full-size
run lives in the acceptance suite). The certification classes then verify
each bound as a true inequality against exact transition probabilities, by
enumerating every member of the conditioning class on small instances.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from wtalab import (
    GROUP_IDS,
    InvalidGamma,
    InvalidSize,
    LemmaParams,
    WtaLabError,
    UnknownLemma,
    WindowStateSpace,
    build_log_inhibitor,
    build_two_inhibitor,
    lemma_check,
)
from wtalab.lemmas import case_ids
from wtalab.simulate import BatchRunner


class TestCatalogApi:
    def test_group_ids_cover_both_families(self):
        assert GROUP_IDS == (
            "3.4", "3.5", "3.6", "3.7", "3.8", "3.9", "3.10", "3.11", "3.12",
            "5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.8", "5.9", "5.10",
            "5.11", "5.12",
        )

    def test_group_expansion(self):
        reports = lemma_check("3.5", samples=2000, seed=0)
        assert [r.lemma_id for r in reports] == ["3.5.1", "3.5.2", "3.5.3"]

    @pytest.mark.parametrize("field, value, error", [
        ("n", 1, InvalidSize), ("n", 0, InvalidSize), ("n", 8.5, InvalidSize),
        ("samples", 0, WtaLabError), ("samples", -5, WtaLabError),
        ("samples", 2.5, WtaLabError), ("t_s", -1, WtaLabError), ("t_s", 2.5, WtaLabError),
        ("seed", -1, WtaLabError), ("seed", 1.5, WtaLabError), ("seed", 1 << 64, WtaLabError),
        ("seed", True, WtaLabError),
        ("level", 0, WtaLabError), ("level", 2.5, WtaLabError),
        ("gamma", "5", InvalidGamma), ("gamma", True, InvalidGamma),
        ("gamma", 0.0, InvalidGamma), ("gamma", float("nan"), InvalidGamma),
        ("samples", 2**62, MemoryError), ("samples", 2**63 - 1, MemoryError),
    ])
    def test_params_rejected_when_built(self, field, value, error):
        # n = 1 leaves the k >= 2 samplers no range; zero samples leave the
        # verdict nothing to divide by; a negative t_s steps 5.12 no times;
        # the graded levels count from 1; every count is an int
        with pytest.raises(error):
            LemmaParams(**{field: value})
        with pytest.raises(error):
            lemma_check("3.4", **{field: value})

    def test_unknown_id(self):
        with pytest.raises(UnknownLemma):
            lemma_check("3.99", samples=100)

    @pytest.mark.parametrize("params", [{"bogus": 1}, {"params": LemmaParams()},
                                        {"samples": 100, "spec": None}])
    def test_unknown_keyword_is_a_wtalab_error(self, params):
        with pytest.raises(WtaLabError, match="takes no parameter"):
            lemma_check("3.4", **params)

    def test_memory_does_not_grow_with_steps(self):
        # 5.12 steps t_s + 1 times; its event reads each frame as the step
        # yields it, so the check holds its batch and one window at any t_s
        lemma_check("5.12", samples=5_000, t_s=1)  # first-call caches, untraced
        peaks = []
        for t_s in (1, 200):
            tracemalloc.start()
            try:
                lemma_check("5.12", samples=5_000, t_s=t_s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    @pytest.mark.parametrize("t_s", [0, 4])
    def test_each_event_takes_the_steps_it_reads(self, monkeypatch, t_s):
        # the steps are made as the event reads their frames: 3.7 reads two,
        # 3.12 three, 5.12 t_s + 1 and every other check one
        calls = []
        advance = BatchRunner.advance

        def counted(self, *args):
            calls.append(1)
            return advance(self, *args)

        monkeypatch.setattr(BatchRunner, "advance", counted)
        want = {"3.7": 2, "3.12": 3, "5.12": t_s + 1}
        for gid in GROUP_IDS:
            for cid in case_ids(gid):
                calls.clear()
                lemma_check(cid, samples=100, t_s=t_s)
                assert len(calls) == want.get(cid, 1), cid

    def test_reports_deterministic(self):
        a = lemma_check("3.9.2", samples=5000, seed=3)[0]
        b = lemma_check("3.9.2", samples=5000, seed=3)[0]
        assert a.frequency == b.frequency

    def test_all_groups_pass_smoke(self):
        for gid in GROUP_IDS:
            for r in lemma_check(gid, samples=20000, seed=2):
                assert r.passed, f"{r.lemma_id}: freq={r.frequency} bound={r.bound}"

    def test_exact_entries(self):
        r = lemma_check("3.9.2", samples=50000, seed=5)[0]
        assert abs(r.frequency - 0.5) < 0.01
        r = lemma_check("5.8.2", samples=50000, seed=5, level=3)[0]
        assert abs(r.frequency - 1.0 / 9.0) < 0.01

    def test_quiescence_example_bound(self):
        r = lemma_check("3.7", n=4, gamma=12.0, samples=50000, seed=1)[0]
        assert r.bound == 1.0 - 10.0 * math.exp(-6.0)
        assert r.frequency >= r.bound - 0.01


# Every report at two parameter sets, recorded from the hand-written checks
# that preceded the check table: (frequency, bound, passed[, extra details]).
_PINNED_N8 = {
    "3.4": (0.0, 0.0009118819655545162, True),
    "3.5.1": (0.999, 0.9981762360688909, True),
    "3.5.2": (0.99825, 0.9981762360688909, True),
    "3.5.3": (1.0, 0.9981762360688909, True),
    "3.6": (0.99825, 0.9908811803444548, True),
    "3.7": (0.999, 0.9835861246200187, True),
    "3.8": (1.0, 0.9927049442755639, True),
    "3.9.1": (1.0, 0.9927049442755639, True),
    "3.9.2": (0.49725, 0.5, True),
    "3.10": (0.563, 0.4908811803444548, True),
    "3.11.1": (1.0, 0.9908811803444548, True),
    "3.11.2": (0.74525, 0.4908811803444548, True),
    "3.11.3": (-0.14, 0.009118819655545162, True,
               {"freq_zero": 0.06625, "freq_near_valid": 0.20625}),
    "3.12": (0.9825, 0.47264354103336453, True),
    "5.2": (0.0, 7.582560427911907e-10, True),
    "5.3.1": (0.999, 0.9990881180344455, True),
    "5.3.2": (1.0, 0.9990881180344455, True),
    "5.4.1": (1.0, 0.9972643541033365, True),
    "5.4.2": (0.99875, 0.9972643541033365, True),
    "5.5": (1.0, 0.9890574164133458, True),
    "5.6": (0.99925, 0.9927049442755639, True),
    "5.7": (0.9985, 0.9927049442755639, True),
    "5.8.1": (1.0, 0.9999999999944684, True),
    "5.8.2": (0.10625, 0.1111111111111111, True, {'level': 3}),
    "5.9": (0.4085, 0.06249999999446848, True),
    "5.10": (0.59525, 0.12499999999446848, True),
    "5.11": (0.99625, 0.9890574164133458, True),
    "5.12": (0.9645, 0.781148328266916, True),
}
_PINNED_N3 = {
    "3.4": (0.0, 0.0009118819655545162, True),
    "3.5.1": (0.9996666666666667, 0.9981762360688909, True),
    "3.5.2": (0.9983333333333333, 0.9981762360688909, True),
    "3.5.3": (0.9996666666666667, 0.9981762360688909, True),
    "3.6": (0.9986666666666667, 0.9954405901722274, True),
    "3.7": (0.9996666666666667, 0.9927049442755639, True),
    "3.8": (1.0, 0.9972643541033365, True),
    "3.9.1": (1.0, 0.9972643541033365, True),
    "3.9.2": (0.5103333333333333, 0.5, True),
    "3.10": (0.5646666666666667, 0.4954405901722274, True),
    "3.11.1": (1.0, 0.9954405901722274, True),
    "3.11.2": (0.8093333333333333, 0.4954405901722274, True),
    "3.11.3": (-0.26266666666666666, 0.004559409827772581, True,
               {"freq_zero": 0.17933333333333334, "freq_near_valid": 0.442}),
    "3.12": (0.892, 0.48632177051668224, True),
    "5.2": (0.0, 7.582560427911907e-10, True),
    "5.3.1": (0.9996666666666667, 0.9990881180344455, True),
    "5.3.2": (1.0, 0.9990881180344455, True),
    "5.4.1": (0.9993333333333333, 0.9981762360688909, True),
    "5.4.2": (0.998, 0.9981762360688909, True),
    "5.5": (1.0, 0.9945287082066729, True),
    "5.6": (0.9996666666666667, 0.9972643541033365, True),
    "5.7": (1.0, 0.9972643541033365, True),
    "5.8.1": (1.0, 0.9999999999979257, True),
    "5.8.2": (0.205, 0.2, True, {'level': 2}),
    "5.9": (0.45, 0.06249999999792568, True),
    "5.10": (0.6263333333333333, 0.12499999999792567, True),
    "5.11": (0.9983333333333333, 0.9945287082066729, True),
    "5.12": (0.99, 0.9179306231000935, True),
}
# (kind, description) at the default level 3 and t_s 10
_DESCRIPTIONS = {
    "3.4": ("upper", "output with silent input fires anyway"),
    "3.5.1": ("lower", "no firing outputs: both inhibitors go silent"),
    "3.5.2": ("lower", "one firing output: stability fires, convergence stays silent"),
    "3.5.3": ("lower", "two or more firing outputs: both inhibitors fire"),
    "3.6": ("lower", "a valid configuration repeats unchanged"),
    "3.7": ("lower", "silent input: the whole network is quiet within two steps"),
    "3.8": ("lower", "exactly one inhibitor active: outputs repeat verbatim"),
    "3.9.1": ("lower", "both inhibitors active: no silent output starts firing"),
    "3.9.2": ("exact", "both inhibitors active: a firing winner survives a fair coin"),
    "3.10": ("lower", "near-valid configuration settles into the valid one"),
    "3.11.1": ("lower", "competition only shrinks: fewer winners or a terminal state"),
    "3.11.2": ("lower", "the firing-output count halves with a fair coin's odds"),
    "3.11.3": ("upper_diff", "overshooting to zero outputs is no likelier than landing near-valid"),
    "3.12": ("lower", "a reset restarts the competition into an active state"),
    "5.2": ("upper", "output with silent input fires anyway"),
    "5.3.1": ("lower", "no output fired in either frame: stability inhibitor silent"),
    "5.3.2": ("lower", "an output fired recently: stability inhibitor fires"),
    "5.4.1": ("lower", "at most one firing output: the graded chain stays silent"),
    "5.4.2": ("lower", "the graded chain fires exactly up to its matching level"),
    "5.5": ("lower", "one step from anywhere lands in a typical configuration"),
    "5.6": ("lower", "stability inhibitor alone: outputs replay their recent union"),
    "5.7": ("lower", "no inhibition: every driven output fires, nothing else does"),
    "5.8.1": ("lower", "graded inhibition: only twice-firing outputs can survive"),
    "5.8.2": ("exact", "a twice-firing winner survives with probability 1/(1+2^3)"),
    "5.9": ("lower", "matched inhibition level: one step to a valid output"),
    "5.10": ("lower", "excess inhibition level: one step to zero firing outputs"),
    "5.11": ("lower", "a near-stable window advances to the next near-stable window"),
    "5.12": ("lower", "from a near-stable window the winner holds for t_s=10 steps"),
}
_PIN_SETS = {
    "n8": (dict(n=8, samples=4000, seed=7), _PINNED_N8, _DESCRIPTIONS),
    "n3": (dict(n=3, samples=3000, seed=5, level=2), _PINNED_N3, {
        **_DESCRIPTIONS,
        "5.8.2": ("exact", "a twice-firing winner survives with probability 1/(1+2^2)"),
    }),
}


@pytest.mark.parametrize("case_id", list(_DESCRIPTIONS))
@pytest.mark.parametrize("pin_set", list(_PIN_SETS))
def test_report_pinned(pin_set, case_id):
    params, pinned, descriptions = _PIN_SETS[pin_set]
    kind, description = descriptions[case_id]
    frequency, bound, passed, *extra = pinned[case_id]
    (report,) = lemma_check(case_id, **params)
    assert report.as_dict() == {
        "lemma": case_id, "description": description, "frequency": frequency,
        "bound": bound, "kind": kind, "samples": params["samples"],
        "passed": passed, **(extra[0] if extra else {}),
    }


@pytest.fixture(scope="module")
def t_spaces():
    spec = build_two_inhibitor(3, 12.0)
    return {
        x: WindowStateSpace(spec, np.array(x, dtype=np.uint8))
        for x in itertools.product([0, 1], repeat=3)
    }


@pytest.fixture(scope="module")
def l_spaces():
    spec = build_log_inhibitor(2, 10.0)
    return {
        x: WindowStateSpace(spec, np.array(x, dtype=np.uint8))
        for x in itertools.product([0, 1], repeat=2)
    }


class TestExactCertificationTwoInhibitor:
    """Every class member of the 3.x catalog checked against exact kernels."""

    N = 3
    GAMMA = 12.0

    def _decode(self, space, code):
        bits = space.frame_bits[code]
        return bits[: self.N], int(bits[self.N]), int(bits[self.N + 1])

    def test_silent_input_outputs(self, t_spaces):
        eps = math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            p = space.step_probabilities
            for i in range(self.N):
                if x[i] == 0:
                    assert np.all(p[:, i] <= eps + 1e-15)

    def test_inhibitor_response(self, t_spaces):
        bound = 1.0 - 2.0 * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            p = space.step_probabilities
            for code in range(space.n_states):
                y, _, _ = self._decode(space, code)
                k = int(y.sum())
                p_s, p_c = p[code, self.N], p[code, self.N + 1]
                if k == 0:
                    assert (1 - p_s) * (1 - p_c) >= bound
                elif k == 1:
                    assert p_s * (1 - p_c) >= bound
                else:
                    assert p_s * p_c >= bound

    def test_valid_configuration_holds(self, t_spaces):
        bound = 1.0 - (self.N + 2) * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            want = min(1, int(sum(x)))
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                valid = (
                    not np.any(y > np.array(x))
                    and int(y.sum()) == want
                    and a_c == 0
                    and a_s == want
                )
                if valid:
                    assert space.kernel[code, code] >= bound

    def test_quiescence_two_steps(self, t_spaces):
        x = (0,) * self.N
        space = t_spaces[x]
        bound = 1.0 - 2.0 * (self.N + 1) * math.exp(-self.GAMMA / 2)
        two_step_to_zero = space.kernel @ space.kernel[:, 0]
        assert np.all(two_step_to_zero >= bound)

    def test_single_inhibitor_stability(self, t_spaces):
        bound = 1.0 - self.N * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            p = space.step_probabilities
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                if a_s + a_c != 1 or np.any(y > np.array(x)):
                    continue
                stay = np.prod(np.where(y == 1, p[code, : self.N], 1 - p[code, : self.N]))
                assert stay >= bound

    def test_both_inhibitors_effect(self, t_spaces):
        for x, space in t_spaces.items():
            p = space.step_probabilities
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                if not (a_s == 1 and a_c == 1) or np.any(y > np.array(x)):
                    continue
                silent = 1 - p[code, : self.N][y == 0]
                assert np.prod(silent) >= 1.0 - self.N * math.exp(-self.GAMMA / 2)
                for i in range(self.N):
                    if y[i] == 1:
                        assert p[code, i] == pytest.approx(0.5, abs=1e-12)

    def _next_masks(self, space, x):
        bits = space.frame_bits
        y_next = bits[:, : self.N]
        a_s_next = bits[:, self.N].astype(bool)
        a_c_next = bits[:, self.N + 1].astype(bool)
        backed = ~np.any(y_next > np.array(x)[None, :], axis=1)
        k_next = y_next.sum(axis=1)
        want = min(1, int(sum(x)))
        valid = backed & (k_next == want) & ~a_c_next & (a_s_next == bool(want))
        near = backed & (k_next == want) & a_s_next & a_c_next
        kwta = backed & (k_next >= 2) & a_s_next & a_c_next
        return valid, near, kwta, k_next

    def test_near_valid_settles(self, t_spaces):
        bound = 0.5 - (self.N + 2) * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            valid, near, _, _ = self._next_masks(space, x)
            want = min(1, int(sum(x)))
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                is_near = (
                    not np.any(y > np.array(x))
                    and int(y.sum()) == want
                    and a_s == 1
                    and a_c == 1
                )
                if is_near:
                    assert space.kernel[code] @ valid >= bound

    def test_progress_from_k_winner_states(self, t_spaces):
        slack = (self.N + 2) * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            valid, near, kwta, k_next = self._next_masks(space, x)
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                k = int(y.sum())
                if k < 2 or a_s != 1 or a_c != 1 or np.any(y > np.array(x)):
                    continue
                row = space.kernel[code]
                keeps = near | (kwta & (k_next <= k)) | (k_next == 0)
                assert row @ keeps >= 1.0 - slack
                assert row @ (k_next <= math.ceil(k / 2)) >= 0.5 - slack
                assert row @ (k_next == 0) - slack <= row @ near

    def test_reset_reaches_active_in_three_steps(self, t_spaces):
        slack = 3.0 * (self.N + 2) * math.exp(-self.GAMMA / 2)
        for x, space in t_spaces.items():
            valid, near, kwta, _ = self._next_masks(space, x)
            active = valid | near | kwta
            stay = space.kernel * (~active)[None, :]
            for code in range(space.n_states):
                y, a_s, a_c = self._decode(space, code)
                if a_s != 0 or a_c != 0:
                    continue
                v = np.zeros(space.n_states)
                v[code] = 1.0
                for _ in range(3):
                    v = v @ stay
                assert 1.0 - v.sum() >= 0.5 - slack


class TestExactCertificationGraded:
    """The 5.x catalog certified on the two-competitor graded network."""

    N = 2
    GAMMA = 10.0
    LEVELS = 1

    def _frame(self, space, code):
        bits = space.frame_bits[code]
        return bits[: self.N], int(bits[self.N]), bits[self.N + 1 :]

    def _state_frames(self, space, s):
        m = space.m
        return s & ((1 << m) - 1), s >> m  # latest, older

    def test_silent_input_outputs(self, l_spaces):
        eps = math.exp(-3.0 * self.GAMMA / 2)
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for i in range(self.N):
                if x[i] == 0:
                    assert np.all(p[:, i] <= eps + 1e-15)

    def test_stability_inhibitor_threshold(self, l_spaces):
        bound = 1.0 - math.exp(-self.GAMMA / 2)
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for s in range(space.n_states):
                latest, older = self._state_frames(space, s)
                y_new, _, _ = self._frame(space, latest)
                y_old, _, _ = self._frame(space, older)
                p_s = p[s, self.N]
                if y_new.sum() + y_old.sum() == 0:
                    assert 1 - p_s >= bound
                else:
                    assert p_s >= bound

    def test_graded_chain_thresholds(self, l_spaces):
        bound = 1.0 - self.LEVELS * math.exp(-self.GAMMA / 2)
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for s in range(space.n_states):
                latest, _ = self._state_frames(space, s)
                y_new, _, _ = self._frame(space, latest)
                k = int(y_new.sum())
                p_chain = p[s, self.N + 1 :]
                if k <= 1:
                    assert np.prod(1 - p_chain) >= bound
                else:
                    level = int(math.floor(math.log2(k)))
                    fire = np.prod(p_chain[:level])
                    quiet = np.prod(1 - p_chain[level:])
                    assert fire * quiet >= bound

    def test_stability_inhibitor_effect(self, l_spaces):
        bound = 1.0 - self.N * math.exp(-self.GAMMA / 2)
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for s in range(space.n_states):
                latest, older = self._state_frames(space, s)
                y_new, a_s, chain = self._frame(space, latest)
                y_old, _, _ = self._frame(space, older)
                if a_s != 1 or chain.sum() != 0:
                    continue
                if np.any(y_new > np.array(x)) or np.any(y_old > np.array(x)):
                    continue
                union = np.maximum(y_new, y_old)
                py = p[s, : self.N]
                replay = np.prod(np.where(union == 1, py, 1 - py))
                assert replay >= bound

    def test_no_inhibition_copies_input(self, l_spaces):
        bound = 1.0 - self.N * math.exp(-self.GAMMA / 2)
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for s in range(space.n_states):
                latest, _ = self._state_frames(space, s)
                _, a_s, chain = self._frame(space, latest)
                if a_s != 0 or chain.sum() != 0:
                    continue
                py = p[s, : self.N]
                copy = np.prod(np.where(np.array(x) == 1, py, 1 - py))
                assert copy >= bound

    def _graded_member(self, space, x, s, need_level):
        latest, older = self._state_frames(space, s)
        y_new, a_s, chain = self._frame(space, latest)
        y_old, _, _ = self._frame(space, older)
        if a_s != 1:
            return None
        level = int(chain[:1].sum())
        if chain.sum() != level or level != need_level:
            return None
        if np.any(y_new > np.array(x)) or np.any(y_old > np.array(x)):
            return None
        return np.minimum(y_new, y_old)

    def test_winner_survival_probability_exact(self, l_spaces):
        for x, space in l_spaces.items():
            p = space.step_probabilities
            for s in range(space.n_states):
                twice = self._graded_member(space, x, s, need_level=1)
                if twice is None:
                    continue
                for i in range(self.N):
                    if twice[i] == 1:
                        assert p[s, i] == pytest.approx(1.0 / 3.0, abs=1e-12)
                silent = 1 - p[s, : self.N][twice == 0]
                assert np.prod(silent) >= 1.0 - self.N * math.exp(-2 * self.GAMMA)

    def test_matched_level_reaches_valid_output(self, l_spaces):
        for x, space in l_spaces.items():
            bits = space.frame_bits
            y_next = bits[:, : self.N]
            backed = ~np.any(y_next > np.array(x)[None, :], axis=1)
            valid_out = backed & (y_next.sum(axis=1) == min(1, int(sum(x))))
            for s in range(space.n_states):
                twice = self._graded_member(space, x, s, need_level=1)
                if twice is None:
                    continue
                k = int(twice.sum())
                row = space.kernel[s]
                if k == 2:  # matched: k in [2^1, 2^2)
                    assert row @ valid_out >= 1.0 / 16.0 - self.N * math.exp(
                        -2 * self.GAMMA
                    )
                if k <= 2:  # excess or matched: k in [0, 2^2)
                    zero = y_next.sum(axis=1) == 0
                    assert row @ zero >= 1.0 / 8.0 - self.N * math.exp(
                        -2 * self.GAMMA
                    )

    def test_near_stable_advances_and_holds(self, l_spaces):
        slack = (self.N + self.LEVELS + 1) * math.exp(-self.GAMMA / 2)
        t_s = 4
        for x, space in l_spaces.items():
            if sum(x) == 0:
                continue
            bits = space.frame_bits
            for s in range(space.n_states):
                latest, older = self._state_frames(space, s)
                y_new, a_s_new, chain_new = self._frame(space, latest)
                y_old, a_s_old, _ = self._frame(space, older)
                union = np.maximum(y_new, y_old)
                near_stable = (
                    union.sum() == 1
                    and a_s_new == 1
                    and a_s_old == 1
                    and chain_new.sum() == 0
                    and not np.any(y_new > np.array(x))
                    and not np.any(y_old > np.array(x))
                )
                if not near_stable:
                    continue
                w = int(union.argmax())
                good_code = (
                    (bits[:, : self.N] == np.eye(self.N, dtype=np.uint8)[w]).all(1)
                    & (bits[:, self.N] == 1)
                    & (bits[:, self.N + 1 :].sum(axis=1) == 0)
                )
                assert space.kernel[s] @ good_code >= 1.0 - slack
                # winner held for t_s further frames, via masked propagation
                keep_out = (bits[:, : self.N] == np.eye(self.N, dtype=np.uint8)[w]).all(1)
                v = np.zeros(space.n_states)
                v[s] = 1.0
                total = None
                for _ in range(t_s + 1):
                    flow = (v[:, None] * space.kernel) * keep_out[None, :]
                    nxt = np.zeros(space.n_states)
                    for d in range(1 << space.m):
                        np.add.at(nxt, space.next_states[:, d], flow[:, d])
                    v = nxt
                    total = v.sum()
                assert total >= 1.0 - 3.0 * t_s * self.N * math.exp(-self.GAMMA / 2)
