"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_run_single_point(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "m2paxos",
                "--nodes",
                "3",
                "--duration",
                "0.05",
                "--warmup",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "m2paxos" in out
        assert "throughput" in out

    def test_run_prints_final_telemetry_frame(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "m2paxos",
                "--nodes",
                "3",
                "--duration",
                "0.05",
                "--warmup",
                "0.05",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry (final interval frame)" in out
        assert "fast%" in out

    def test_run_tpcc(self, capsys):
        code = main(
            [
                "run",
                "--protocol",
                "multipaxos",
                "--workload",
                "tpcc",
                "--nodes",
                "3",
                "--duration",
                "0.05",
                "--warmup",
                "0.05",
            ]
        )
        assert code == 0
        assert "tpcc" in capsys.readouterr().out

    def test_trace_exports_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        code = main(
            [
                "trace",
                "--protocol",
                "m2paxos",
                "--nodes",
                "3",
                "--duration",
                "0.05",
                "--warmup",
                "0.05",
                "--out",
                str(out),
                "--jsonl",
                str(jsonl),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        command_spans = [
            e for e in payload["traceEvents"] if e.get("cat") == "command"
        ]
        assert any(e["args"]["path"] == "fast" for e in command_spans)
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(r["kind"] == "summary" for r in records)
        stdout = capsys.readouterr().out
        assert "decision paths" in stdout
        assert "perfetto" in stdout

    def test_modelcheck(self, capsys):
        code = main(["modelcheck", "--ballots", "1"])
        assert code == 0
        assert "no violation" in capsys.readouterr().out

    def test_modelcheck_bounded(self, capsys):
        code = main(["modelcheck", "--ballots", "1", "--max-states", "50"])
        assert code == 0
        assert "bounded" in capsys.readouterr().out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--protocol", "raft"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_compare_refuses_a_per_protocol_flag_before_any_run(self, monkeypatch, capsys):
        """``--zone-affinity`` is an m2paxos policy: ``compare`` refuses it
        with one line before the first point, instead of dying on the
        second protocol after running the first."""
        ran = []
        monkeypatch.setattr("repro.cli.run_point", lambda *a, **k: ran.append(a))
        code = main(["compare", "--zones", "0,0,1,1,2", "--zone-affinity"])
        assert code != 0
        assert ran == []
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "zone-affinity" in err
