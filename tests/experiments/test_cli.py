"""End-to-end tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def taskset_file(tmp_path):
    path = tmp_path / "ts.json"
    code = main(
        [
            "generate",
            "--m",
            "1",
            "--uhh",
            "0.5",
            "--ulh",
            "0.25",
            "--ull",
            "0.3",
            "--seed",
            "cli-test",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_json(self, taskset_file):
        rows = json.loads(taskset_file.read_text())
        assert isinstance(rows, list) and rows
        assert {"period", "criticality", "wcet_lo", "wcet_hi"} <= set(rows[0])

    def test_stdout_mode(self, capsys):
        code = main(
            [
                "generate", "--m", "1",
                "--uhh", "0.4", "--ulh", "0.2", "--ull", "0.2",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows

    def test_infeasible_targets_exit_1(self, capsys):
        # m*U_HH = 7.92 cannot be carved into <= 4 HC tasks of u <= 0.99.
        code = main(
            [
                "generate", "--m", "8",
                "--uhh", "0.99", "--ulh", "0.5", "--ull", "0.3",
                "--nmin", "8", "--nmax", "8",
            ]
        )
        assert code == 1

    def test_count_range_respected(self, capsys):
        code = main(
            [
                "generate", "--m", "1",
                "--uhh", "0.4", "--ulh", "0.2", "--ull", "0.2",
                "--nmin", "4", "--nmax", "4",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 4


class TestCheck:
    def test_schedulable_exit_0(self, taskset_file, capsys):
        code = main(["check", str(taskset_file), "--test", "ecdf"])
        assert code == 0
        assert "SCHEDULABLE" in capsys.readouterr().out

    def test_all_tests_run(self, taskset_file):
        for test in ("edf-vd", "ey", "amc-max", "amc-rtb", "edf-lo"):
            code = main(["check", str(taskset_file), "--test", test])
            assert code in (0, 2)


class TestPartition:
    def test_partition_success(self, taskset_file, capsys):
        code = main(
            [
                "partition", str(taskset_file),
                "--m", "2", "--strategy", "cu-udp", "--test", "edf-vd",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SUCCESS" in out and "cu-udp" in out


class TestSimulate:
    def test_validates_accepted_set(self, taskset_file, capsys):
        code = main(
            [
                "simulate", str(taskset_file),
                "--test", "ecdf", "--horizon", "3000",
            ]
        )
        assert code == 0
        assert "validated" in capsys.readouterr().out


class TestFigure:
    def test_tiny_figure_run(self, capsys, tmp_path, monkeypatch):
        # run in tmp so an ambient REPRO_OBS=trace writes its default
        # BENCH_obs.json/repro-trace.json here, not over committed files
        monkeypatch.chdir(tmp_path)
        code = main(["figure", "fig3", "--samples", "1", "--m", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cu-udp-edf-vd" in out

    def test_parallel_run_with_cache_and_output(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        args = [
            "figure", "fig3", "--samples", "2", "--m", "2",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "-o", str(tmp_path / "fig3.json"),
        ]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert (tmp_path / "fig3.json").exists()
        # rerun answers from cache and renders the same tables
        assert main(args) == 0
        assert capsys.readouterr().out == serial_out


class TestTrace:
    def test_trace_writes_snapshot_and_chrome_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro import obs

        monkeypatch.chdir(tmp_path)
        code = main(["trace", "fig3", "--samples", "1", "--m", "2"])
        obs.clear()  # the forced recorder fed the process-global registry
        assert code == 0
        out = capsys.readouterr().out
        assert "obs counters" in out and "obs spans" in out

        snapshot = json.loads((tmp_path / "BENCH_obs.json").read_text())
        assert snapshot["schema"].startswith("repro-obs-snapshot/")
        assert snapshot["mode"] == "trace"
        # a batched fig3 settles via the prefilter ledger; every shard
        # also lands one latency observation
        assert any(k.startswith("prefilter.") for k in snapshot["counters"])
        assert "runner.shard-seconds" in snapshot["histograms"]
        assert snapshot["spans"]["count"] > 0

        trace = json.loads((tmp_path / "repro-trace.json").read_text())
        names = {event["name"] for event in trace["traceEvents"]}
        assert {"sweep", "shard"} <= names

    def test_explicit_output_paths(self, capsys, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "trace", "fig3", "--samples", "1", "--m", "2",
                "--trace-out", str(tmp_path / "t.json"),
                "--obs-out", str(tmp_path / "o.json"),
            ]
        )
        obs.clear()
        assert code == 0
        capsys.readouterr()
        assert (tmp_path / "t.json").exists()
        assert (tmp_path / "o.json").exists()
        assert not (tmp_path / "BENCH_obs.json").exists()


class TestCampaign:
    def test_campaign_runs_and_resumes(self, capsys, tmp_path):
        args = [
            "campaign", "--figures", "fig3", "--samples", "2",
            "--out", str(tmp_path / "out"), "--no-progress",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 from cache" in first
        assert (tmp_path / "out" / "fig3.json").exists()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 shards computed" in second

    def test_spec_file_campaign(self, capsys, tmp_path):
        spec = {
            "name": "from-file",
            "figures": [{"figure": "fig3", "samples": 1, "m_values": [2]}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code = main(
            [
                "campaign", str(spec_path),
                "--out", str(tmp_path / "out"), "--no-progress",
            ]
        )
        assert code == 0
        assert "from-file" in capsys.readouterr().out

    def test_spec_and_figures_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign", "spec.json", "--figures", "fig3",
                    "--out", str(tmp_path), "--no-progress",
                ]
            )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9"])

    @pytest.mark.parametrize("command", ["figure", "trace"])
    @pytest.mark.parametrize("bad", ["2,x", "0", "2,-4", ""])
    def test_bad_m_is_a_usage_error(self, command, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "fig3", "--samples", "1", "--m", bad])
        assert excinfo.value.code == 2
        assert "argument --m" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure", "trace"])
    def test_m_parses_to_processor_counts(self, command):
        args = build_parser().parse_args([command, "fig3", "--m", "2, 4"])
        assert args.m == (2, 4)

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_non_positive_samples_is_a_usage_error(self, command, bad, capsys):
        argv = [command, "fig3"] if command != "campaign" else [command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--samples", bad])
        assert excinfo.value.code == 2
        assert "argument --samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "partition", "sensitivity"])
    @pytest.mark.parametrize("bad", ["0", "-1", "x"])
    def test_non_positive_core_count_is_a_usage_error(self, command, bad, capsys):
        argv = {
            "generate": ["generate", "--uhh", "0.5", "--ulh", "0.2", "--ull", "0.3"],
            "partition": ["partition", "ts.json"],
            "sensitivity": ["sensitivity"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--m", bad])
        assert excinfo.value.code == 2
        assert "argument --m" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1"])
    def test_sensitivity_non_positive_samples_is_a_usage_error(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sensitivity", "--samples", bad])
        assert excinfo.value.code == 2
        assert "argument --samples" in capsys.readouterr().err

    def test_spec_file_with_zero_samples_is_rejected(self, tmp_path):
        spec = {"name": "bad", "figures": [{"figure": "fig3", "samples": 0}]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        with pytest.raises(SystemExit, match="invalid campaign"):
            main(["campaign", str(spec_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    @pytest.mark.parametrize(
        "flag", [["--pipeline", "scalar"], ["--store", "object"]]
    )
    def test_fabric_knobs_are_gone(self, command, flag, capsys):
        """One sweep pipeline and one shard store: no command offers a
        switch for either."""
        argv = [command, "fig3"] if command != "campaign" else [command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + flag)
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_pool_backend_is_gone(self, command, capsys):
        argv = [command, "fig3"] if command != "campaign" else [command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--backend", "pool"])
        assert "serial" in capsys.readouterr().err
        args = build_parser().parse_args(argv + ["--backend", "cluster"])
        assert args.backend == "cluster"

    def test_figure_names_come_from_the_planners(self):
        from repro.experiments.figures import FIGURES

        for name in FIGURES:
            assert build_parser().parse_args(["figure", name]).name == name

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    def test_kernel_switch_flag_is_gone(self, command, capsys):
        """There is one demand kernel: no command offers a switch."""
        argv = [command, "fig4"] if command != "campaign" else [command]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--demand-kernel", "qpa"])
        assert "--demand-kernel" in capsys.readouterr().err


class TestInputErrors:
    """Bad input ends in a usage error or a one-line message, never a
    traceback or a silently different run."""

    @pytest.mark.parametrize("command", ["check", "partition", "simulate"])
    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "cannot read task set"),
            ("not json at all", "invalid task set"),
            ('{"period": 10}', "expected a JSON list of task objects"),
            ("[1, 2]", "expected a JSON list of task objects"),
            (
                '[{"criticality": "HC", "wcet_lo": 1, "wcet_hi": 2}]',
                "missing field 'period'",
            ),
            (
                '[{"period": -5, "criticality": "HC", "wcet_lo": 1, '
                '"wcet_hi": 2}]',
                "period must be positive",
            ),
        ],
        ids=["missing", "not-json", "object", "not-tasks", "no-period",
             "bad-period"],
    )
    def test_bad_taskset_file_is_a_one_line_error(
        self, command, content, message, tmp_path
    ):
        path = tmp_path / "ts.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(path)])
        assert message in str(excinfo.value.code)
        assert "\n" not in str(excinfo.value.code)

    @pytest.mark.parametrize("command", ["check", "partition", "simulate"])
    @pytest.mark.parametrize("bad", ["bogus", "imprecise:abc", "imprecise:2"])
    def test_bad_service_is_a_usage_error(
        self, command, bad, taskset_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(taskset_file), "--service", bad])
        assert excinfo.value.code == 2
        assert "argument --service" in capsys.readouterr().err

    def test_service_parses_to_a_model(self):
        args = build_parser().parse_args(
            ["check", "ts.json", "--service", "imprecise:0.5"]
        )
        assert args.service.spec() == "imprecise:0.5"
        default = build_parser().parse_args(["check", "ts.json"])
        assert default.service.is_full_drop

    @pytest.mark.parametrize("bad", ["0", "-5", "x"])
    def test_non_positive_horizon_is_a_usage_error(
        self, bad, taskset_file, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", str(taskset_file), "--horizon", bad])
        assert excinfo.value.code == 2
        assert "argument --horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--uhh", "--ulh", "--ull"])
    @pytest.mark.parametrize("bad", ["-0.5", "nan", "x"])
    def test_negative_utilization_is_a_usage_error(self, flag, bad, capsys):
        argv = {"--uhh": "0.5", "--ulh": "0.2", "--ull": "0.3"}
        argv[flag] = bad
        flat = [part for pair in argv.items() for part in pair]
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", *flat])
        assert excinfo.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["figure", "campaign", "trace"])
    @pytest.mark.parametrize("bad", ["-3", "x"])
    def test_negative_jobs_is_a_usage_error(self, command, bad, capsys):
        argv = [command, "fig3"] if command != "campaign" else [command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", bad])
        assert excinfo.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("figures", ["", ","])
    def test_empty_figure_list_is_rejected(self, figures, tmp_path):
        """An empty ``--figures`` must not fall through to the full paper
        evaluation."""
        with pytest.raises(SystemExit, match="at least one figure"):
            main(
                [
                    "campaign", "--figures", figures,
                    "--out", str(tmp_path / "out"), "--no-progress",
                ]
            )
        assert not (tmp_path / "out").exists()

    def test_empty_figure_list_with_spec_is_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="not both"):
            main(
                [
                    "campaign", "spec.json", "--figures", "",
                    "--out", str(tmp_path), "--no-progress",
                ]
            )
