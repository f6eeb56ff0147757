"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "pixlr"])
        assert args.app == "pixlr"
        assert args.config == "esp_nl"
        assert args.scale == 1.0

    def test_unknown_command(self, capsys):
        # the retired remote backend's ``worker`` subcommand is an
        # unknown name like any other, and the retired ``--backend``
        # flag an unknown option
        for argv in (["frobnicate"], ["worker"]):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
            assert "invalid choice" in capsys.readouterr().err
        for argv in (["run", "bing", "--backend", "remote"],
                     ["run", "bing", "--backend", "process"]):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args(argv)
            assert info.value.code == 2
            assert "unrecognized arguments: --backend" \
                in capsys.readouterr().err

    def test_optional_name_lists_may_be_empty(self):
        parser = build_parser()
        assert parser.parse_args(["figures"]).names == []
        assert parser.parse_args(["run", "--resume"]).apps == []
        assert parser.parse_args(["calibrate"]).apps == []


class TestCommands:
    def test_simulate(self, capsys):
        assert main(["simulate", "pixlr", "--config", "nl",
                     "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "app=pixlr config=NL" in out
        assert "IPC" in out

    def test_simulate_esp_shows_preexecution(self, capsys):
        assert main(["simulate", "pixlr", "--config", "esp_nl",
                     "--scale", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "pre-executed" in out

    def test_simulate_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "pixlr", "--config", "bogus"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "esp_nl" in err  # the valid names are listed

    def test_run_unknown_preset(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", "bing", "--config", "baseline",
                  "--config", "bogus"])
        assert info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["simulate", "nosuch"],
                                      ["run", "bing", "nosuch"],
                                      ["inspect", "nosuch"]])
    def test_unknown_app(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "pixlr" in capsys.readouterr().err

    def test_figures_unknown_name(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["figures", "figure7", "nosuch"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nosuch'" in err
        assert "headline" in err

    def test_apps(self, capsys):
        assert main(["apps", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        for app in ("amazon", "pixlr", "gmaps"):
            assert app in out

    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "esp_nl" in out
        assert "runahead" in out

    def test_inspect_single_event(self, capsys):
        assert main(["inspect", "pixlr", "--event", "1",
                     "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "event   1" in out
        assert out.count("event ") == 1

    def test_inspect_all_events(self, capsys):
        assert main(["inspect", "pixlr", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert out.count("event ") >= 3

    def test_figures_static(self, capsys):
        assert main(["figures", "figure7", "figure8"]) == 0
        out = capsys.readouterr().out
        assert "Pentium M" in out
        assert "12.6" in out

    def test_figures_json(self, capsys):
        assert main(["figures", "--json", "figure7"]) == 0
        figure = json.loads(capsys.readouterr().out)
        assert figure["figure_id"] == "Figure 7"


class TestStats:
    def _seed_log(self, log_dir):
        log_dir.mkdir(parents=True, exist_ok=True)
        records = [
            {"kind": "run", "app": "bing", "cache": "simulated",
             "trace_load_s": 0.1, "simulate_s": 2.0, "store_s": 0.01},
            {"kind": "run", "app": "bing", "cache": "disk"},
            {"kind": "run", "app": "pixlr", "cache": "memory"},
            {"kind": "retry", "app": "pixlr", "reason": "worker-died"},
        ]
        (log_dir / "runs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))

    def test_stats_table(self, tmp_path, capsys):
        self._seed_log(tmp_path)
        assert main(["stats", "--log-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "bing" in out
        assert "pixlr" in out
        assert "total" in out
        assert str(tmp_path) in out

    def test_stats_json(self, tmp_path, capsys):
        self._seed_log(tmp_path)
        assert main(["stats", "--log-dir", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 3
        assert summary["cache_hits"] == 2
        assert summary["retries"] == 1
        assert summary["apps"]["bing"]["simulate_s"] == 2.0

    def test_stats_legacy_records_summarise(self, tmp_path, capsys):
        """Logs written before the vector kernel and the sampling plane
        were removed carry ``kernel`` / ``memo_*`` / ``fidelity`` fields,
        logs of the retired remote backend carry ``worker-join`` /
        ``steal`` / ``remote-degraded`` / ``fetch`` records, and logs of
        the retired mid-simulation checkpointing and worker watchdog
        carry ``checkpoint`` / ``resume`` / ``stalled`` records, and
        logs of the retired backend picker carry ``backend-choice`` and
        ``fanout-disabled`` records; they still summarise, and the
        fields and record kinds are ignored."""
        records = [
            {"kind": "run", "app": "bing", "cache": "simulated",
             "backend": "thread", "kernel": "vector", "memo_replayed": 7,
             "memo_recorded": 3, "fidelity": "sampled",
             "sampled_events": 90, "detailed_events": 10,
             "max_error_bound": 0.012, "trace_load_s": 0.1,
             "simulate_s": 2.0, "store_s": 0.01},
            {"kind": "run", "app": "bing", "cache": "disk",
             "kernel": "", "memo_replayed": 0, "memo_recorded": 0,
             "fidelity": "full"},
            {"kind": "worker-join", "worker": 1, "worker_pid": 42,
             "host": "h", "peer": "127.0.0.1:5000"},
            {"kind": "steal", "key": "k", "app": "bing", "worker": 1,
             "age_s": 3.0, "reason": "lease-expired"},
            {"kind": "remote-degraded", "reason": "no workers",
             "remaining": 2},
            {"kind": "fetch", "digest": "d", "artifact": "trace",
             "bytes": 1024, "chunks": 2},
            {"kind": "checkpoint", "key": "k", "app": "bing",
             "position": 3},
            {"kind": "resume", "key": "k", "app": "bing", "position": 3,
             "fallbacks": 1},
            {"kind": "stalled", "key": "k", "app": "bing",
             "worker_pid": 42, "age_s": 3.0},
            {"kind": "retry", "key": "k", "app": "bing",
             "reason": "requeued"},
            {"kind": "backend-choice", "backend": "process", "cpus": 2,
             "spin_score": 41234567.8, "process_roundtrip_s": 0.0312,
             "reason": "2 usable CPUs and a 31ms worker round-trip"},
            {"kind": "fanout-disabled", "cpus": 1, "pid": 42},
        ]
        (tmp_path / "runs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records))
        assert main(["stats", "--log-dir", str(tmp_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == 2
        assert summary["simulated"] == 1
        assert summary["cache_hits"] == 1
        assert summary["apps"]["bing"]["simulate_s"] == 2.0
        assert "backend_choices" not in summary
        assert not any(key.startswith(("kernel", "memo", "sampled",
                                       "remote", "store"))
                       for key in summary)
        checkpoint_keys = {"checkpoints", "resumes", "resume_fallbacks",
                           "stalled_kills"}
        assert not checkpoint_keys & set(summary)
        assert not checkpoint_keys & set(summary["apps"]["bing"])
        assert main(["stats", "--log-dir", str(tmp_path)]) == 0
        table = capsys.readouterr().out
        assert "bing" in table
        assert "sampling" not in table and "kernels" not in table
        assert "remote —" not in table and "store —" not in table
        assert "auto picked" not in table
        header = table.splitlines()[0].split()
        assert "ckpt" not in header and "res" not in header
        assert "resilience — tasks requeued: 1" in table.splitlines()

    def test_stats_empty_log_dir(self, tmp_path, capsys):
        assert main(["stats", "--log-dir", str(tmp_path)]) == 0
        assert "no run records found" in capsys.readouterr().out

    def test_stats_respects_env_log_dir(self, tmp_path, capsys,
                                        monkeypatch):
        self._seed_log(tmp_path / "env-logs")
        monkeypatch.setenv("REPRO_LOG_DIR", str(tmp_path / "env-logs"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "bing" in out
