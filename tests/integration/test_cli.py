"""Tests for the ``python -m repro`` command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["fig7"], ["fig8"], ["fig9", "--scale", "quick"],
                     ["table2-apache", "-n", "3"], ["table2-ssh"],
                     ["metrics"], ["trace", "mcf"],
                     ["lint", "--strict", "--no-trace"],
                     ["lint", "--app", "pop3"],
                     ["attack", "mitm"],
                     ["chaos", "--app", "pop3", "--flight-dump"],
                     ["observe", "--app", "httpd", "-n", "2",
                      "--export", "t.json", "--tlb-events"],
                     ["observe", "--validate", "t.json"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)


class TestCommands:
    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        out = capsys.readouterr().out
        assert "pthread" in out and "sthread" in out
        assert "Figure 7" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "tag_new (reused)" in out

    def test_metrics(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "httpd" in out and "sshd" in out

    def test_trace(self, capsys):
        assert main(["trace", "mcf"]) == 0
        out = capsys.readouterr().out
        assert "traced mcf" in out
        assert "alloc_words" in out

    def test_trace_unknown_workload(self, capsys):
        assert main(["trace", "nope"]) == 2

    def test_trace_with_procedure(self, capsys):
        assert main(["trace", "bzip2", "--procedure", "bzip2"]) == 0

    def test_lint_one_app(self, capsys):
        assert main(["lint", "--app", "pop3", "--no-trace",
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "pop3.partitioned/handler" in out
        assert "compartments analyzed: 0 errors, 0 warnings" in out

    def test_lint_unknown_app(self, capsys):
        assert main(["lint", "--app", "nope"]) == 2

    @pytest.mark.slow
    def test_lint_all_with_traces(self, capsys):
        assert main(["lint", "--strict"]) == 0
        out = capsys.readouterr().out
        assert "25 compartments analyzed: 0 errors, 0 warnings" in out

    def test_attack_unknown_scenario(self, capsys):
        assert main(["attack", "nothing"]) == 2

    @pytest.mark.slow
    def test_attack_mitm(self, capsys):
        assert main(["attack", "mitm"]) == 0
        out = capsys.readouterr().out
        assert "STOLEN" in out and "safe" in out

    @pytest.mark.slow
    def test_table2_ssh(self, capsys):
        assert main(["table2-ssh"]) == 0
        out = capsys.readouterr().out
        assert "vanilla" in out and "wedge" in out


class TestEmitAndCheck:
    """The artifact write and baseline gate every campaign command shares."""

    BASELINES = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "baselines")

    def _recovery(self, out, check):
        return main(["recovery", "--seed", "1", "--stride", "50",
                     "--out", str(out), "--check", str(check)])

    def test_writes_and_passes_against_the_baseline(self, tmp_path,
                                                     capsys):
        assert self._recovery(tmp_path, self.BASELINES) == 0
        out = capsys.readouterr().out
        assert f"wrote {tmp_path / 'BENCH_recovery.json'}" in out
        assert "model cycles within tolerance of" in out
        with open(tmp_path / "BENCH_recovery.json") as fh:
            assert json.load(fh)["artifact"] == "recovery"

    def test_regression_and_missing_baseline_exit_codes(self, tmp_path,
                                                        capsys):
        with open(os.path.join(self.BASELINES,
                               "BENCH_recovery.json")) as fh:
            baseline = json.load(fh)
        baseline["metrics"]["recovery_ckpt_cycles"] //= 2
        strict = tmp_path / "strict"
        strict.mkdir()
        with open(strict / "BENCH_recovery.json", "w") as fh:
            json.dump(baseline, fh)
        assert self._recovery(tmp_path / "out", strict) == 1
        assert "REGRESSION vs" in capsys.readouterr().out
        assert self._recovery(tmp_path / "out", tmp_path / "none") == 2
        assert "no baseline at" in capsys.readouterr().err
