"""The overload campaign at test scale: bounded, deterministic, correct."""

import copy
import json
import os

import pytest

from repro.resilience.overload import (SCALE_METRICS, backpressure_probe,
                                       check_artifact, run_comparison,
                                       run_overload, run_surge)

BASELINES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "benchmarks", "baselines")


@pytest.fixture(scope="module")
def pop3_surge():
    """One shared small surge (the campaign is deterministic anyway)."""
    return run_surge("pop3", clients=12, backlog=3, seed=5)


class TestSurge:
    def test_surge_passes_at_test_scale(self, pop3_surge):
        assert pop3_surge.passed, pop3_surge.violations

    def test_backlog_is_bounded(self, pop3_surge):
        assert pop3_surge.peak_backlog <= 3

    def test_shed_count_is_exact(self, pop3_surge):
        assert pop3_surge.shed == 12 - 3
        assert pop3_surge.shed_rate == pytest.approx(9 / 12)

    def test_every_admitted_request_is_answered(self, pop3_surge):
        assert pop3_surge.admitted_ok == 3
        assert pop3_surge.errors == []
        assert pop3_surge.goodput == pytest.approx(3 / 12)

    def test_stream_buffers_stay_under_high_water(self, pop3_surge):
        assert 0 < pop3_surge.peak_stream_buffer <= pop3_surge.high_water

    def test_shed_counts_are_deterministic_across_runs(self, pop3_surge):
        again = run_surge("pop3", clients=12, backlog=3, seed=5)
        assert again.shed == pop3_surge.shed
        assert again.admitted_ok == pop3_surge.admitted_ok
        assert again.peak_backlog == pop3_surge.peak_backlog

    def test_no_shedding_below_the_backlog(self):
        result = run_surge("pop3", clients=3, backlog=8, seed=5)
        assert result.passed, result.violations
        assert result.shed == 0
        assert result.admitted_ok == 3


class TestComparison:
    def test_resilience_on_and_off_answer_byte_identically(self):
        cmp = run_comparison("pop3", surge=4, seed=5, backlog=8)
        assert cmp["identical"], (cmp["on"], cmp["off"])


class TestBackpressureProbe:
    def test_probe_blocks_bounds_and_delivers(self):
        probe = backpressure_probe(high_water=2048, payload=16 * 1024)
        assert probe["engaged"], "the sender never had to wait"
        assert probe["bounded"], probe["peak_buffered"]
        assert probe["intact"]
        assert probe["sent"] == 16 * 1024


class TestCampaignAndArtifact:
    def test_full_campaign_report_and_artifact(self):
        report = run_overload(["pop3"], clients=10, backlog=2, seed=5,
                              compare=False)
        assert report.passed, report.format()
        art = report.artifact()
        assert art["artifact"] == "overload"
        assert art["metrics"]["pop3_goodput"] == pytest.approx(0.2)
        assert art["metrics"]["pop3_shed_rate"] == pytest.approx(0.8)
        assert art["info"]["shed"]["pop3"] == 8
        assert "PASS" in report.format()

    def test_check_flags_a_goodput_drop(self):
        baseline = {"metrics": {"pop3_goodput": 0.5,
                                "pop3_shed_rate": 0.5}}
        bad = {"metrics": {"pop3_goodput": 0.3, "pop3_shed_rate": 0.5}}
        problems = check_artifact(bad, baseline)
        assert len(problems) == 1
        assert "goodput regression" in problems[0]

    def test_check_accepts_better_or_equal_goodput(self):
        baseline = {"metrics": {"pop3_goodput": 0.5,
                                "pop3_shed_rate": 0.5}}
        good = {"metrics": {"pop3_goodput": 0.6, "pop3_shed_rate": 0.4}}
        assert check_artifact(good, baseline) == []
        assert check_artifact(baseline, baseline) == []

    def test_check_flags_a_shed_rate_rise(self):
        baseline = {"metrics": {"pop3_shed_rate": 0.5}}
        bad = {"metrics": {"pop3_shed_rate": 0.9}}
        problems = check_artifact(bad, baseline)
        assert len(problems) == 1
        assert "shed rate" in problems[0]

    def test_check_flags_a_missing_metric(self):
        baseline = {"metrics": {"pop3_goodput": 0.5}}
        problems = check_artifact({"metrics": {}}, baseline)
        assert problems and "missing" in problems[0]

    def test_check_flags_a_missing_cycles_metric(self):
        with open(os.path.join(BASELINES, "BENCH_kv.json")) as fh:
            baseline = json.load(fh)
        fresh = copy.deepcopy(baseline)
        del fresh["metrics"]["kv_hit_cycles"]
        assert check_artifact(baseline, baseline) == []
        assert check_artifact(fresh, baseline) == [
            "kv_hit_cycles: missing from new run"]

    def test_only_the_opt_in_scale_leg_may_be_absent(self):
        baseline = {"metrics": {"pop3_goodput": 0.5,
                                **dict.fromkeys(SCALE_METRICS, 1000)}}
        fresh = {"metrics": {"pop3_goodput": 0.5}}
        assert check_artifact(fresh, baseline,
                              optional=SCALE_METRICS) == []
        problems = check_artifact(fresh, baseline)
        assert len(problems) == len(SCALE_METRICS)
        assert all("missing" in problem for problem in problems)
