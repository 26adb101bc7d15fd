"""Tests for the machine-scaled throughput floors of the bench guards."""

import pytest

from repro.bench import concordia_ml_run, scaled_floor


class TestScaledFloor:
    def test_same_machine_applies_tolerance_only(self):
        baseline = {"slots_per_s": 300.0, "machine_reference": 7.8}
        assert scaled_floor(300.0, baseline, 7.8, 0.15) == \
            pytest.approx(255.0)

    def test_slower_host_lowers_the_floor(self):
        # The unchanged tree measured 164 slots/s at reference 3.7
        # against a 289 slots/s baseline recorded at 7.86: a pass.
        baseline = {"slots_per_s": 289.0, "machine_reference": 7.86}
        floor = scaled_floor(289.0, baseline, 3.7, 0.15)
        assert floor == pytest.approx(289.0 * 3.7 / 7.86 * 0.85)
        assert 164.0 >= floor

    def test_faster_host_raises_the_floor(self):
        baseline = {"cell_slots_per_s": 1000.0, "machine_reference": 4.0}
        assert scaled_floor(1000.0, baseline, 8.0, 0.1) == \
            pytest.approx(1800.0)

    def test_real_regression_still_fails_on_slower_host(self):
        baseline = {"slots_per_s": 289.0, "machine_reference": 7.86}
        floor = scaled_floor(289.0, baseline, 3.7, 0.15)
        assert 0.5 * 289.0 * 3.7 / 7.86 < floor

    @pytest.mark.parametrize("reference", [None, 0.0])
    def test_baseline_without_reference_is_unscaled(self, reference):
        baseline = {"slots_per_s": 200.0}
        if reference is not None:
            baseline["machine_reference"] = reference
        assert scaled_floor(200.0, baseline, 3.0, 0.25) == \
            pytest.approx(150.0)


class TestConcordiaMlRow:
    def test_reports_throughput_and_predictor_cost(self):
        row = concordia_ml_run(slots=10, rounds=2)
        assert row["slots"] == 10
        assert row["slots_per_s"] > 0
        assert row["predictions"] > 0
        assert row["predictor_us_per_tti"] > 0
