"""Catalog behavior plus exact certification of every transition bound.

The sampled checks are exercised at small sample counts here (the full-size
run lives in the acceptance suite). The certification classes then verify
each bound as a true inequality against exact transition probabilities, by
enumerating every member of the conditioning class on small instances.
"""

import itertools
import math

import numpy as np
import pytest

from wtalab import (
    GROUP_IDS,
    InvalidSize,
    LemmaParams,
    WtaLabError,
    UnknownLemma,
    VariantMismatch,
    WindowStateSpace,
    build_log_inhibitor,
    build_two_inhibitor,
    lemma_check,
)


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
        ("n", 1, InvalidSize), ("n", 0, InvalidSize),
        ("samples", 0, WtaLabError), ("samples", -5, WtaLabError),
        ("t_s", -1, WtaLabError),
    ])
    def test_params_rejected_when_built(self, field, value, error):
        # n = 1 leaves the k >= 2 samplers no range; zero samples leave the
        # verdict nothing to divide by; a negative t_s steps 5.12 no times
        with pytest.raises(error):
            LemmaParams(**{field: value})
        with pytest.raises(error):
            lemma_check("3.4", **{field: value})

    def test_unknown_id(self):
        with pytest.raises(UnknownLemma):
            lemma_check("3.99", samples=100)

    def test_variant_mismatch(self):
        wrong = build_log_inhibitor(8, 14.0)
        with pytest.raises(VariantMismatch):
            lemma_check("3.4", spec=wrong, samples=100)

    def test_matching_spec_accepted(self):
        right = build_two_inhibitor(8, 14.0)
        reports = lemma_check("3.4", spec=right, samples=2000)
        assert reports[0].samples == 2000

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
                    shifted = space.next_state_indices()
                    for d in range(1 << space.m):
                        np.add.at(nxt, shifted + d, flow[:, d])
                    v = nxt
                    total = v.sum()
                assert total >= 1.0 - 3.0 * t_s * self.N * math.exp(-self.GAMMA / 2)
