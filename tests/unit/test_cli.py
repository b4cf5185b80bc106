"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.serialize import process_to_json, schedule_to_dict
from repro.scenarios.paper import (
    process_p1,
    schedule_fig4a,
    schedule_fig7,
)


@pytest.fixture
def fig7_file(tmp_path):
    path = tmp_path / "fig7.json"
    path.write_text(json.dumps(schedule_to_dict(schedule_fig7().schedule)))
    return str(path)


@pytest.fixture
def fig4a_file(tmp_path):
    path = tmp_path / "fig4a.json"
    path.write_text(json.dumps(schedule_to_dict(schedule_fig4a().schedule)))
    return str(path)


@pytest.fixture
def p1_file(tmp_path):
    path = tmp_path / "p1.json"
    path.write_text(process_to_json(process_p1()))
    return str(path)


class TestCheck:
    def test_pred_schedule_exits_zero(self, fig7_file, capsys):
        assert main(["check", fig7_file]) == 0
        out = capsys.readouterr().out
        assert "prefix-reducible (PRED)" in out
        assert "Classification" in out

    def test_non_pred_schedule_exits_one(self, fig4a_file, capsys):
        assert main(["check", fig4a_file]) == 1
        out = capsys.readouterr().out
        assert "irreducible" in out

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "/nonexistent/schedule.json"]) == 2
        assert "error" in capsys.readouterr().err


class TestRender:
    def test_renders_structure(self, p1_file, capsys):
        assert main(["render", p1_file]) == 0
        out = capsys.readouterr().out
        assert "Process P1" in out
        assert "alternative 1" in out

    def test_renders_executions(self, p1_file, capsys):
        assert main(["render", p1_file, "--executions"]) == 0
        out = capsys.readouterr().out
        assert "valid executions:" in out
        assert "[abort]" in out


class TestWorkload:
    def test_pred_workload_runs(self, capsys):
        code = main(
            [
                "workload",
                "--processes",
                "3",
                "--conflicts",
                "0.1",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pred" in out and "makespan" in out

    def test_serial_discipline_selectable(self, capsys):
        code = main(
            ["workload", "--processes", "2", "--scheduler", "serial"]
        )
        assert code == 0
        assert "serial" in capsys.readouterr().out

    def test_show_history_prints_swimlanes(self, capsys):
        code = main(
            ["workload", "--processes", "2", "--show-history", "--seed", "4"]
        )
        assert code == 0
        assert "time →" in capsys.readouterr().out

    def test_weak_order_flag(self, capsys):
        code = main(
            ["workload", "--processes", "2", "--order", "weak", "--seed", "2"]
        )
        assert code == 0


class TestDemo:
    def test_demo_success(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "parts produced: 1" in out

    def test_demo_with_failing_test(self, capsys):
        assert main(["demo", "--fail-test"]) == 0
        out = capsys.readouterr().out
        assert "parts produced: 0" in out


class TestDot:
    def test_process_dot(self, p1_file, capsys):
        assert main(["dot", p1_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "P1"')

    def test_schedule_dot(self, fig7_file, capsys):
        assert main(["dot", fig7_file]) == 0
        out = capsys.readouterr().out
        assert "subgraph cluster_0" in out

    def test_unknown_format(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "other"}')
        assert main(["dot", str(path)]) == 2


class _FakeChaosResult:
    def __init__(self, certified):
        self.certified = certified
        self.counters = {"degradations": 0}

    def chaos_row(self):
        return {"mix": "fake", "certified": self.certified}


class _FakeCrashSweep:
    class _Spec:
        seed = 0

    def __init__(self, certified):
        self.all_certified = certified
        self.results = [object()]
        self.file_faults = []
        self.failures = [] if certified else ["lsn 3: history not PRED"]
        self.spec = self._Spec()

    def row(self):
        return {"seed": 0, "certified": self.all_certified}


class _FakeOverloadResult:
    def __init__(self, certified, committed=1, frec_sheds=0):
        self.certified = certified
        self.frec_sheds = frec_sheds

        class _Metrics:
            processes_committed = committed

        self.metrics = _Metrics()

    def load_row(self):
        return {"load": 1.0, "certified": self.certified}


class TestChaosExitCodes:
    def test_certified_run_exits_zero(self, capsys):
        rc = main(["chaos", "--mix", "aborts", "--processes", "3",
                   "--seeds", "0"])
        assert rc == 0
        assert "1/1 runs certified" in capsys.readouterr().out

    def test_uncertified_run_exits_one(self, monkeypatch, capsys):
        import repro.sim.harness as harness

        monkeypatch.setattr(
            harness,
            "harness_sweep",
            lambda specs, **kwargs: [
                _FakeChaosResult(True),
                _FakeChaosResult(False),
            ],
        )
        rc = main(["chaos", "--no-certify"])
        assert rc == 1
        assert "1/2 runs certified" in capsys.readouterr().out


class TestCrashpointsExitCodes:
    def test_certified_sweep_exits_zero(self, capsys):
        rc = main(["crashpoints", "--processes", "2", "--seeds", "0",
                   "--no-file-faults", "--stride", "8",
                   "--recovery-stride", "0"])
        assert rc == 0
        assert "all certified" in capsys.readouterr().out

    def test_uncertified_sweep_exits_one(self, monkeypatch, capsys):
        import repro.sim.crashpoints as crashpoints

        monkeypatch.setattr(
            crashpoints,
            "run_crashpoints",
            lambda spec, file_faults=True, **kwargs: _FakeCrashSweep(False),
        )
        rc = main(["crashpoints", "--seeds", "0"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "CERTIFICATION FAILURES" in out
        assert "history not PRED" in out


class TestOverloadExitCodes:
    def test_healthy_sweep_exits_zero(self, capsys):
        rc = main(["overload", "--processes", "6", "--loads", "0.4",
                   "--seeds", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 F-REC sheds" in out
        assert "1/1 runs committed work" in out

    def test_uncertified_run_exits_one(self, monkeypatch, capsys):
        import repro.sim.harness as harness

        monkeypatch.setattr(
            harness,
            "harness_sweep",
            lambda specs, seeds=(0,), certify=True, **kwargs: [
                _FakeOverloadResult(False)
            ],
        )
        rc = main(["overload", "--loads", "1.0", "--no-certify"])
        assert rc == 1

    def test_frec_shed_exits_one(self, monkeypatch):
        import repro.sim.harness as harness

        monkeypatch.setattr(
            harness,
            "harness_sweep",
            lambda specs, seeds=(0,), certify=True, **kwargs: [
                _FakeOverloadResult(True, frec_sheds=1)
            ],
        )
        assert main(["overload", "--loads", "1.0"]) == 1

    def test_zero_goodput_exits_one(self, monkeypatch):
        import repro.sim.harness as harness

        monkeypatch.setattr(
            harness,
            "harness_sweep",
            lambda specs, seeds=(0,), certify=True, **kwargs: [
                _FakeOverloadResult(True, committed=0)
            ],
        )
        assert main(["overload", "--loads", "1.0"]) == 1

    def test_certification_error_exits_one(self, monkeypatch, capsys):
        import repro.sim.harness as harness
        from repro.errors import CorrectnessViolation

        def boom(specs, seeds=(0,), certify=True, **kwargs):
            raise CorrectnessViolation("history not PRED")

        monkeypatch.setattr(harness, "harness_sweep", boom)
        rc = main(["overload", "--loads", "1.0"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


@pytest.fixture
def traced_workload(tmp_path):
    """Run a traced workload once; returns the obs artefact paths."""
    trace = tmp_path / "trace.jsonl"
    chrome = tmp_path / "chrome.json"
    metrics = tmp_path / "metrics.prom"
    rc = main([
        "workload", "--processes", "4", "--conflicts", "0.3",
        "--failures", "0.3", "--seed", "5",
        "--trace", str(trace),
        "--chrome-trace", str(chrome),
        "--metrics", str(metrics),
    ])
    assert rc == 0
    return trace, chrome, metrics


class TestObservabilityFlags:
    def test_workload_trace_exports_all_three_artefacts(self, traced_workload):
        trace, chrome, metrics = traced_workload
        assert trace.exists() and chrome.exists() and metrics.exists()
        assert trace.stat().st_size > 0

    def test_trace_file_passes_schema_validation(self, traced_workload):
        from repro.obs import read_trace, validate_stream

        trace, _, _ = traced_workload
        records = read_trace(str(trace))
        assert records
        assert validate_stream(records) == []
        kinds = {record["kind"] for record in records}
        assert "run_begin" in kinds and "run_end" in kinds
        assert "activity" in kinds and "exec" in kinds

    def test_chrome_file_is_valid_trace_event_json(self, traced_workload):
        from repro.obs import validate_chrome_trace

        _, chrome, _ = traced_workload
        document = json.loads(chrome.read_text())
        assert validate_chrome_trace(document) == []

    def test_metrics_file_is_prometheus_text(self, traced_workload):
        _, _, metrics = traced_workload
        text = metrics.read_text()
        assert "# TYPE repro_perf_index_lookups counter" in text
        assert "repro_sim_activity_duration_count" in text

    def test_baseline_discipline_warns_but_runs(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "workload", "--processes", "3", "--scheduler", "serial",
            "--trace", str(trace),
        ])
        assert rc == 0
        assert "baseline disciplines emit no events" in capsys.readouterr().err

    def test_chaos_accepts_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "chaos.jsonl"
        rc = main([
            "chaos", "--mix", "aborts", "--processes", "3",
            "--seeds", "0", "--trace", str(trace),
        ])
        assert rc == 0
        assert trace.exists()
        content = trace.read_text()
        assert '"fault"' in content  # chaos injections traced


class TestExplainCommand:
    def _trace_with_block(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "workload", "--processes", "4", "--conflicts", "0.5",
            "--seed", "1", "--trace", str(trace),
        ])
        assert rc == 0
        return str(trace)

    def test_explain_blocked_process_exits_zero(self, tmp_path, capsys):
        path = self._trace_with_block(tmp_path)
        capsys.readouterr()
        rc = main(["explain", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rule:" in out and "reason:" in out

    def test_check_validates_schema(self, tmp_path, capsys):
        path = self._trace_with_block(tmp_path)
        capsys.readouterr()
        rc = main(["explain", path, "--check"])
        assert rc == 0
        assert "trace OK" in capsys.readouterr().out

    def test_unknown_target_exits_one(self, tmp_path, capsys):
        path = self._trace_with_block(tmp_path)
        capsys.readouterr()
        rc = main(["explain", path, "no-such-process"])
        assert rc == 1
        assert "no blocking" in capsys.readouterr().err

    def test_malformed_trace_is_a_typed_error_not_a_stack_trace(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        rc = main(["explain", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "not valid JSON" in err
        assert "Traceback" not in err

    def test_schema_violation_with_check_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"seq":0,"ts":0,"kind":"bogus","cat":"sched",'
            '"process":null,"activity":null,"data":{}}\n'
        )
        rc = main(["explain", str(bad), "--check"])
        assert rc == 1
        assert "invalid" in capsys.readouterr().err

    def test_missing_trace_file_exits_two(self, capsys):
        rc = main(["explain", "/nonexistent/trace.jsonl"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestTopAndSlow:
    @pytest.fixture
    def traced_run(self, tmp_path):
        trace = str(tmp_path / "run.jsonl")
        code = main(
            [
                "workload",
                "--processes",
                "4",
                "--conflicts",
                "0.3",
                "--seed",
                "3",
                "--trace",
                trace,
            ]
        )
        assert code == 0
        return trace

    def test_top_replays_a_trace(self, traced_run, capsys):
        assert main(["top", traced_run, "--interval", "2"]) == 0
        out = capsys.readouterr().out
        assert "thru=" in out and "p95" in out

    def test_slow_names_a_dominant_phase(self, traced_run, capsys):
        assert main(["slow", traced_run, "--fleet"]) == 0
        out = capsys.readouterr().out
        assert "dominant phase:" in out
        assert "fleet attribution" in out

    def test_slow_unknown_process_exits_one(self, traced_run, capsys):
        assert main(["slow", traced_run, "NO-SUCH-PROCESS"]) == 1

    def test_slow_malformed_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n", encoding="utf-8")
        assert main(["slow", str(bad)]) == 2

    def test_live_interval_renders_to_stderr(self, tmp_path, capsys):
        code = main(
            [
                "workload",
                "--processes",
                "4",
                "--seed",
                "3",
                "--live-interval",
                "2",
            ]
        )
        assert code == 0
        assert "thru=" in capsys.readouterr().err
