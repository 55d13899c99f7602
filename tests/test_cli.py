"""CLI commands (run in-process through main())."""

import argparse

import pytest

from repro.cli import _build_parser, main


def _commands_with_scale():
    parser = _build_parser()
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sorted(
        name
        for name, sub in commands.choices.items()
        if any("--scale" in action.option_strings for action in sub._actions)
    )


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "grit" in output
        assert "gemm" in output
        assert "fig17" in output


class TestRun:
    def test_run_prints_summary(self, capsys):
        assert main(["run", "fir", "grit", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "total_cycles" in output
        assert "local_page_faults" in output

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["run", "nope", "grit"])


class TestBadInput:
    """Bad configuration exits 2 with one line, not a traceback."""

    def test_invalid_page_size(self, capsys):
        argv = ["run", "fir", "on_touch", "--page-size", "3000"]
        assert main([*argv, "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "page size" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_contention_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GRIT_CONTENTION", "bogus")
        assert main(["run", "fir", "on_touch", "--scale", "0.05"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: GRIT_CONTENTION='bogus' is not one of none/queued\n"
        )

    def test_scale_commands_cover_the_cli(self):
        assert set(_commands_with_scale()) >= {
            "bench", "characterize", "dump-trace", "figure", "inspect",
            "profile", "report", "run", "sweep", "trace",
        }

    @pytest.mark.parametrize("command", _commands_with_scale())
    @pytest.mark.parametrize("scale", ["0", "-1", "nan"])
    def test_non_positive_scale_is_rejected(self, command, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--scale", scale])
        assert excinfo.value.code == 2
        assert "--scale: must be positive" in capsys.readouterr().err


class TestFigure:
    def test_single_figure(self, capsys):
        assert main(["figure", "fig04", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "fig04" in output
        assert "private_pages" in output

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestCharacterize:
    def test_characterize_prints_fractions(self, capsys):
        assert main(["characterize", "gemm", "--scale", "0.05"]) == 0
        output = capsys.readouterr().out
        assert "shared_page_fraction" in output


class TestFigureFormats:
    def test_json_output(self, capsys):
        args = ["figure", "fig04", "--scale", "0.05"]
        assert main([*args, "--format", "json"]) == 0
        import json

        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "fig04"
        assert "rows" in data

    def test_csv_output(self, capsys):
        args = ["figure", "fig04", "--scale", "0.05"]
        assert main([*args, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("row,")
        assert len(lines) > 2


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys, monkeypatch):
        # Use a figure subset for speed by patching the registry copy
        # the CLI iterates — full-report generation is covered by the
        # benchmark harness.
        from repro.harness import reproduce

        output = tmp_path / "REPORT.md"
        text = reproduce.write_report(output, scale=0.05, figures=["fig09"])
        assert output.exists()
        assert "fig09" in text


class TestDumpTrace:
    def test_dump_and_reload(self, tmp_path, capsys):
        output = tmp_path / "fir.npz"
        assert (
            main(["dump-trace", "fir", str(output), "--scale", "0.05"]) == 0
        )
        assert output.exists()
        from repro.workloads.trace_io import load_trace

        assert load_trace(output).name == "fir"


class TestSweep:
    def test_sweep_prints_matrix(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "fir,st",
                    "--policies",
                    "grit",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "fir" in output and "st" in output
        assert "grit" in output and "on_touch" in output

    def test_sweep_metric_faults(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "fir",
                    "--policies",
                    "on_touch",
                    "--metric",
                    "faults",
                    "--scale",
                    "0.05",
                ]
            )
            == 0
        )
        assert "faults" in capsys.readouterr().out


class TestSweepTelemetry:
    def test_trace_and_metrics_merge_across_workers(
        self, tmp_path, capsys
    ):
        import json

        from repro.obs.trace_schema import validate_trace_file

        trace = tmp_path / "sweep.trace.json"
        metrics = tmp_path / "sweep.metrics.jsonl"
        assert (
            main(
                [
                    "sweep",
                    "--workloads",
                    "fir",
                    "--policies",
                    "grit",
                    "--scale",
                    "0.05",
                    "--workers",
                    "2",
                    "--trace",
                    str(trace),
                    "--metrics",
                    str(metrics),
                ]
            )
            == 0
        )
        assert validate_trace_file(str(trace)) == []
        document = json.loads(trace.read_text())
        # One process row per task: fir under grit and the implied
        # on_touch baseline.
        assert document["otherData"]["tasks"] == 2
        pids = {
            event["pid"] for event in document["traceEvents"]
        }
        assert pids == {1, 2}
        rows = [
            json.loads(line)
            for line in metrics.read_text().splitlines()
        ]
        assert any(
            row["metric"] == "sim.accesses.total" and row["value"] > 0
            for row in rows
        )


class TestProfileJson:
    def test_json_export_parses(self, tmp_path, capsys):
        import json

        output = tmp_path / "profile.jsonl"
        assert (
            main(
                [
                    "profile",
                    "fir",
                    "on_touch",
                    "--gpus",
                    "2",
                    "--scale",
                    "0.05",
                    "--json",
                    str(output),
                ]
            )
            == 0
        )
        metrics = {
            row["metric"]
            for row in map(
                json.loads, output.read_text().splitlines()
            )
        }
        assert "profile.total" in metrics
        assert "profile.phase.replay" in metrics


class TestBench:
    def test_write_then_compare_passes_and_slowdown_fails(
        self, tmp_path, capsys
    ):
        import json

        baselines = tmp_path / "baselines"
        common = [
            "bench",
            "--cases",
            "fir-grit",
            "--scale",
            "0.05",
            "--repeats",
            "1",
        ]
        assert main([*common, "--output", str(baselines)]) == 0
        baseline_path = baselines / "BENCH_fir-grit.json"
        assert baseline_path.is_file()
        document = json.loads(baseline_path.read_text())
        assert document["counters"]["total_cycles"] > 0
        # A bit-identical rerun passes the gate (counters match
        # exactly; wall time is compared in counters-only mode to
        # stay deterministic under test-runner noise).
        assert (
            main(
                [
                    *common,
                    "--compare",
                    str(baselines),
                    "--counters-only",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # An injected slowdown must trip the wall-time gate.
        assert (
            main(
                [
                    *common,
                    "--compare",
                    str(baselines),
                    "--inject-slowdown",
                    "30",
                ]
            )
            == 1
        )
        assert "regression [wall]" in capsys.readouterr().err

    def test_unknown_case_is_an_error(self, capsys):
        assert main(["bench", "--cases", "nope"]) == 2
        assert "unknown bench case" in capsys.readouterr().err


class TestLint:
    def test_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_violating_fixture_exits_nonzero(self, tmp_path, capsys):
        fixture = tmp_path / "fixture.py"
        fixture.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(fixture)]) == 1
        output = capsys.readouterr().out
        assert "GRIT-H001" in output
        assert "fixture.py:1" in output

    def test_json_format(self, tmp_path, capsys):
        import json

        fixture = tmp_path / "fixture.py"
        fixture.write_text("def f(x=[]):\n    return x\n")
        assert main(["lint", str(fixture), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["errors"] >= 1
        assert data["findings"][0]["rule"] == "GRIT-H001"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        output = capsys.readouterr().out
        assert "GRIT-D003" in output
        assert "GRIT-C001" in output
