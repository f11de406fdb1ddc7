"""The verdict column of ``tools/paired.py``: the benchmark rules for a gain,
a regression and an unresolved metric, on hand-made paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "paired.py"
_SPEC = importlib.util.spec_from_file_location("paired", _PATH)
paired = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(paired)

BASE = [10.0, 10.2, 10.4, 10.1, 9.9, 10.3, 9.8, 10.0, 10.1, 10.2]  # IQR 0.2, median 10.1


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_gain_needs_nine_of_ten_and_a_gap_past_the_iqr(better):
    sign = -1.0 if better == "lower" else 1.0
    head = [b + sign * 1.0 for b in BASE]
    assert paired.verdict(BASE, head, better, 0.25) == "gain"
    # eight pairs won, two tied: ties count for neither side
    tied = head[:8] + BASE[8:]
    assert paired.verdict(BASE, tied, better, 0.25) == "no regression"
    # every pair won, but by less than the base's spread
    close = [b + sign * 0.1 for b in BASE]
    assert paired.verdict(BASE, close, better, 0.25) == "no regression"


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_regression_is_a_median_worse_past_the_bound(better):
    sign = 1.0 if better == "lower" else -1.0
    worse = [b * (1.0 + sign * 0.3) for b in BASE]
    assert paired.verdict(BASE, worse, better, 0.25) == "regression"
    within = [b * (1.0 + sign * 0.2) for b in BASE]
    assert paired.verdict(BASE, within, better, 0.25) == "no regression"


def test_wide_base_spread_is_unresolved_unless_every_head_run_wins():
    base = [10.0, 10.0, 10.0, 11.0, 20.0, 30.0, 30.0, 30.0, 30.0, 30.0]  # IQR/median 0.79
    overlapping = [b - 1.0 for b in base]
    assert paired.verdict(base, overlapping, "lower", 0.25) == "unresolved"
    # every head run below every base run, by less than the base's spread
    assert paired.verdict(base, [9.0] * 10, "lower", 0.25) == "no regression"
    # a regression past the bound is reported as one, however wide the spread
    assert paired.verdict(base, [b * 2.0 for b in base], "lower", 0.25) == "regression"
