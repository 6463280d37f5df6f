"""Tests for the flowdns CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def mapping_file(tmp_path):
    config = {
        "dns": {
            "ts": "ts",
            "query": "qname",
            "rtype": "rtype",
            "ttl": "ttl",
            "answer": "answer",
        },
        "flow": {
            "ts": "ts",
            "src_ip": "src",
            "dst_ip": "dst",
            "bytes": {"field": "bytes", "default": 0},
        },
    }
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.fixture()
def csv_inputs(tmp_path):
    dns = tmp_path / "dns.csv"
    dns.write_text(
        "ts,qname,rtype,ttl,answer\n"
        "1.0,svc.example,CNAME,600,edge.cdn.net\n"
        "1.0,edge.cdn.net,A,60,10.1.1.1\n"
        "2.0,plain.example,A,120,10.2.2.2\n"
    )
    flows = tmp_path / "flows.csv"
    flows.write_text(
        "ts,src,dst,bytes\n"
        "10.0,10.1.1.1,100.64.0.1,1000\n"
        "11.0,10.2.2.2,100.64.0.2,600\n"
        "12.0,172.16.0.1,100.64.0.3,400\n"
    )
    return str(dns), str(flows)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--hours", "1"],
            ["ablation", "--hours", "1"],
            ["analyze", "out.tsv"],
            ["mapping-template"],
            ["serve", "--duration", "1", "--flow-port", "0", "--dns-port", "0"],
        ],
    )
    def test_known_subcommands_parse(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)

    def test_serve_bind_conflict_fails_fast(self, capsys):
        """A port already in use must exit with an error, not hang the
        address-poll loop forever."""
        import socket

        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main([
                "serve", "--duration", "5", "--flow-port", "0",
                "--dns-port", str(port),
            ])
        assert rc == 2
        assert "failed to bind" in capsys.readouterr().err

    def test_serve_bounded_duration_runs(self, tmp_path, capsys):
        """`flowdns serve` binds ephemeral sockets, serves for the bounded
        duration, drains, and reports."""
        output = tmp_path / "live.tsv"
        rc = main([
            "serve", "--duration", "0.3", "--flow-port", "0",
            "--dns-port", "0", "--output", str(output),
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "NetFlow/IPFIX (UDP)" in err
        assert "flows correlated" in err
        assert output.read_text().startswith("#")


class TestMappingTemplate:
    def test_template_is_valid_config(self, capsys):
        assert main(["mapping-template"]) == 0
        printed = capsys.readouterr().out
        config = json.loads(printed)
        from repro.core.adapter import load_mapping

        dns, flow = load_mapping(config)
        assert dns is not None and flow is not None


class TestCorrelate:
    def test_correlate_csv_files(self, mapping_file, csv_inputs, tmp_path, capsys):
        dns, flows = csv_inputs
        output = tmp_path / "out.tsv"
        rc = main([
            "correlate", "--dns", dns, "--flows", flows,
            "--mapping", mapping_file, "--output", str(output),
        ])
        assert rc == 0
        lines = [line for line in output.read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 3
        assert any("svc.example" in line for line in lines)
        stderr = capsys.readouterr().err
        assert "correlated 2/3 flows" in stderr

    def test_correlate_jsonl(self, mapping_file, tmp_path, capsys):
        dns = tmp_path / "dns.jsonl"
        dns.write_text(
            '{"ts": 1.0, "qname": "a.example", "rtype": "A", "ttl": 60, "answer": "10.5.5.5"}\n'
        )
        flows = tmp_path / "flows.jsonl"
        flows.write_text('{"ts": 5.0, "src": "10.5.5.5", "dst": "100.64.0.1", "bytes": 42}\n')
        output = tmp_path / "out.tsv"
        rc = main([
            "correlate", "--dns", str(dns), "--flows", str(flows),
            "--mapping", mapping_file, "--output", str(output),
        ])
        assert rc == 0
        assert "a.example" in output.read_text()

    def test_correlate_rejects_unknown_engine(self, mapping_file, csv_inputs,
                                             capsys):
        """correlate runs the simulation only: --engine is no flag of it."""
        dns, flows = csv_inputs
        with pytest.raises(SystemExit):
            main([
                "correlate", "--dns", dns, "--flows", flows,
                "--mapping", mapping_file, "--engine", "async",
            ])
        assert "unrecognized arguments: --engine async" in capsys.readouterr().err

    def test_mapping_without_flow_section_fails(self, tmp_path, csv_inputs, capsys):
        dns, flows = csv_inputs
        mapping = tmp_path / "partial.json"
        mapping.write_text(json.dumps({
            "dns": {"ts": "ts", "query": "qname", "rtype": "rtype",
                    "ttl": "ttl", "answer": "answer"},
        }))
        rc = main([
            "correlate", "--dns", dns, "--flows", flows, "--mapping", str(mapping),
        ])
        assert rc == 2


class TestAnalyze:
    def test_analyze_output_file(self, mapping_file, csv_inputs, tmp_path, capsys):
        dns, flows = csv_inputs
        output = tmp_path / "out.tsv"
        main(["correlate", "--dns", dns, "--flows", flows,
              "--mapping", mapping_file, "--output", str(output)])
        capsys.readouterr()
        rc = main(["analyze", str(output), "--top", "5"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "correlation rate" in printed
        assert "svc.example" in printed

    def test_analyze_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# header only\n")
        assert main(["analyze", str(empty)]) == 1


class TestSimulate:
    def test_simulate_small_run(self, tmp_path, capsys):
        output = tmp_path / "run.tsv"
        rc = main([
            "simulate", "--preset", "small", "--hours", "0.3",
            "--seed", "3", "--output", str(output),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "correlation rate" in printed
        assert output.exists()

    def test_simulate_variant(self, capsys):
        rc = main([
            "simulate", "--preset", "small", "--hours", "0.2",
            "--variant", "no-rotation",
        ])
        assert rc == 0
        assert "no-rotation" in capsys.readouterr().out

    def test_simulate_dashboard_and_metrics(self, capsys):
        rc = main([
            "simulate", "--preset", "small", "--hours", "0.2",
            "--dashboard", "--metrics",
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "small ISP / main" in printed
        assert "flowdns_correlation_rate" in printed


class TestFigures:
    def test_figures_writes_tsvs(self, tmp_path, capsys, monkeypatch):
        # Patch the preset to a tiny universe so the run stays fast.
        from repro.workloads import isp
        from repro.workloads.isp import large_isp as real_large

        def tiny_large(seed=7, duration=3600.0, **kw):
            kw.setdefault("n_benign", 120)
            return real_large(seed=seed, duration=min(duration, 1800.0), **kw)

        monkeypatch.setattr(isp, "large_isp", tiny_large)
        rc = main(["figures", "--out-dir", str(tmp_path), "--hours", "0.4"])
        assert rc == 0
        for name in ("fig2_week_usage.tsv", "fig3_variant_usage.tsv",
                     "fig7_variant_correlation.tsv"):
            content = (tmp_path / name).read_text()
            assert content.startswith("#")
            assert len(content.splitlines()) > 1


class TestCaptureReplay:
    def _rows(self, path):
        return sorted(line for line in path.read_text().splitlines()
                      if not line.startswith("#"))

    def test_capture_scenario_then_replay(self, tmp_path, capsys):
        capture = tmp_path / "two-site.fdc"
        rc = main(["capture", str(capture), "--scenario", "two-site"])
        assert rc == 0
        assert "scenario 'two-site'" in capsys.readouterr().err
        from repro.replay import read_capture

        assert len(list(read_capture(str(capture)))) > 0

        output = tmp_path / "replayed.tsv"
        rc = main(["replay", str(capture), "--engine", "async",
                   "--output", str(output)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "replayed" in err and "engine=async" in err
        assert self._rows(output)

    def test_replay_engines_agree_via_cli(self, tmp_path, monkeypatch):
        """The differential contract holds end-to-end through the CLI:
        `flowdns replay` rows equal the library's replay at batch sizes
        1 and 7. Both sides run with memoisation off (the identity
        condition; the CLI has no flag for it, so the test patches it
        into the config the CLI builds)."""
        from repro.core.config import EngineConfig, FlowDNSConfig
        from repro.replay import replay_capture

        from_args = EngineConfig.from_args

        def without_memoisation(args, command):
            config = from_args(args, command)
            return config.replace(
                flowdns=config.flowdns.replace(memoize_cname_chains=False)
            )

        monkeypatch.setattr(EngineConfig, "from_args", without_memoisation)
        capture = tmp_path / "churn.fdc"
        assert main(["capture", str(capture), "--scenario", "cname-churn"]) == 0
        output = tmp_path / "cli.tsv"
        assert main(["replay", str(capture), "--engine", "async",
                     "--output", str(output)]) == 0
        cli_rows = self._rows(output)
        assert cli_rows
        for batch_size in (1, 7):
            layout = tmp_path / f"batch{batch_size}.tsv"
            with open(layout, "w", encoding="utf-8") as sink:
                replay_capture(str(capture), config=FlowDNSConfig(
                    engine_batch_size=batch_size, memoize_cname_chains=False,
                ), sink=sink)
            assert self._rows(layout) == cli_rows, batch_size

    def test_replay_exact_ttl_variant(self, tmp_path, capsys):
        capture = tmp_path / "ttl.fdc"
        assert main(["capture", str(capture), "--scenario", "ttl-expiry"]) == 0
        capsys.readouterr()
        assert main(["replay", str(capture), "--exact-ttl",
                     "--output", str(tmp_path / "t.tsv")]) == 0
        assert "flows correlated" in capsys.readouterr().err

    def test_replay_rejects_unknown_engine(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "x.fdc", "--engine", "warp"])

    def test_capture_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["capture", "x.fdc", "--scenario", "nope"])

    def test_replay_missing_capture_fails_cleanly(self, tmp_path, capsys):
        """A bad capture path exits 2 with a message — it must neither
        hang the engine nor truncate an existing --output file."""
        output = tmp_path / "results.tsv"
        output.write_text("precious previous results\n")
        rc = main(["replay", str(tmp_path / "missing.fdc"),
                   "--output", str(output)])
        assert rc == 2
        assert "cannot replay" in capsys.readouterr().err
        assert output.read_text() == "precious previous results\n"

    def test_replay_non_capture_file_fails_cleanly(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.fdc"
        bogus.write_bytes(b"not a capture at all")
        rc = main(["replay", str(bogus), "--output",
                   str(tmp_path / "out.tsv")])
        assert rc == 2
        assert "cannot replay" in capsys.readouterr().err

    def test_replay_bad_speed_rejected_before_sink_opens(self, tmp_path, capsys):
        capture = tmp_path / "ok.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        output = tmp_path / "results.tsv"
        output.write_text("keep me\n")
        rc = main(["replay", str(capture), "--realtime", "--speed", "-1",
                   "--output", str(output)])
        assert rc == 2
        assert "--speed" in capsys.readouterr().err
        assert output.read_text() == "keep me\n"

    def test_capture_rejects_mixed_mode_flags(self, tmp_path, capsys):
        """Flags belonging to the other capture mode error out instead of
        being silently ignored."""
        rc = main(["capture", str(tmp_path / "s.fdc"), "--scenario", "bursts",
                   "--duration", "5"])
        assert rc == 2
        assert "--scenario" in capsys.readouterr().err
        # Presence-based: even a live flag set to its default value is an
        # explicit request and gets rejected with --scenario.
        rc = main(["capture", str(tmp_path / "s.fdc"), "--scenario", "bursts",
                   "--flow-port", "2055"])
        assert rc == 2
        assert "--flow-port" in capsys.readouterr().err
        rc = main(["capture", str(tmp_path / "l.fdc"), "--seed", "42",
                   "--duration", "0.2", "--flow-port", "0", "--dns-port", "0"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_replay_speed_requires_realtime(self, tmp_path, capsys):
        capture = tmp_path / "ok.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        rc = main(["replay", str(capture), "--speed", "2",
                   "--output", str(tmp_path / "o.tsv")])
        assert rc == 2
        assert "--realtime" in capsys.readouterr().err

    def test_serve_bind_failure_preserves_output_file(self, tmp_path, capsys):
        """serve's --output sink opens lazily: a bind failure exits 2
        without truncating prior results (same contract as --capture)."""
        import socket

        output = tmp_path / "results.tsv"
        output.write_text("prior results\n")
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["serve", "--duration", "5", "--flow-port", "0",
                       "--dns-port", str(port), "--output", str(output)])
        assert rc == 2
        assert "failed to bind" in capsys.readouterr().err
        assert output.read_text() == "prior results\n"

    def test_capture_live_bounded_duration(self, tmp_path, capsys):
        """Live capture mode: bind ephemeral sockets, record (nothing) for
        the bounded duration, and leave a valid, empty capture file."""
        capture = tmp_path / "live.fdc"
        rc = main(["capture", str(capture), "--duration", "0.3",
                   "--flow-port", "0", "--dns-port", "0"])
        assert rc == 0
        assert "capture written" in capsys.readouterr().err
        from repro.replay import read_capture

        assert list(read_capture(str(capture))) == []

    def test_capture_bind_failure_preserves_existing_file(self, tmp_path,
                                                          capsys):
        """A bind failure must exit 2 without truncating whatever already
        lives at the capture path (the writer opens lazily)."""
        import socket

        target = tmp_path / "precious.fdc"
        target.write_bytes(b"earlier capture bytes")
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["capture", str(target), "--duration", "5",
                       "--flow-port", "0", "--dns-port", str(port)])
        assert rc == 2
        assert "failed to bind" in capsys.readouterr().err
        assert target.read_bytes() == b"earlier capture bytes"

    def test_serve_capture_tee(self, tmp_path, capsys):
        """`serve --capture` tees into a replayable file alongside the
        normal correlation output."""
        capture = tmp_path / "tee.fdc"
        rc = main(["serve", "--duration", "0.3", "--flow-port", "0",
                   "--dns-port", "0", "--capture", str(capture)])
        assert rc == 0
        assert "capture written" in capsys.readouterr().err
        from repro.replay import read_capture

        assert list(read_capture(str(capture))) == []


class TestFaultCli:
    """The PR-8 fault-injection surface: list modes, flag validation
    before any sink opens, and seed-reproducible faulted replay."""

    def _rows(self, path):
        return sorted(line for line in path.read_text().splitlines()
                      if not line.startswith("#"))

    def test_list_fault_profiles(self, capsys):
        rc = main(["replay", "--list-fault-profiles"])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.replay import FAULT_PROFILES

        for name in FAULT_PROFILES:
            assert name in out

    def test_list_scenarios(self, capsys):
        rc = main(["capture", "--list-scenarios"])
        assert rc == 0
        out = capsys.readouterr().out
        from repro.replay.scenarios import SCENARIOS

        for name in SCENARIOS:
            assert name in out

    def test_replay_requires_capture_without_list_flag(self, capsys):
        rc = main(["replay"])
        assert rc == 2
        assert "capture path is required" in capsys.readouterr().err

    def test_capture_requires_output_without_list_flag(self, capsys):
        rc = main(["capture"])
        assert rc == 2
        assert "output path is required" in capsys.readouterr().err

    def test_fault_seed_alone_rejected_before_sink_opens(self, tmp_path,
                                                         capsys):
        """--fault-seed without a fault plan is a flag mistake: reject it
        with exit 2 and never truncate an existing output file."""
        capture = tmp_path / "ok.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        output = tmp_path / "results.tsv"
        output.write_text("keep me\n")
        rc = main(["replay", str(capture), "--fault-seed", "3",
                   "--output", str(output)])
        assert rc == 2
        assert "--fault-seed" in capsys.readouterr().err
        assert output.read_text() == "keep me\n"

    def test_unknown_fault_spec_rejected(self, tmp_path, capsys):
        capture = tmp_path / "ok.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        output = tmp_path / "results.tsv"
        output.write_text("keep me\n")
        rc = main(["replay", str(capture), "--fault", "gremlins=0.5",
                   "--output", str(output)])
        assert rc == 2
        assert "gremlins" in capsys.readouterr().err
        assert output.read_text() == "keep me\n"

    def test_unknown_fault_profile_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["replay", "x.fdc", "--fault-profile", "apocalypse"])

    def test_faulted_replay_prints_seed_line(self, tmp_path, capsys):
        capture = tmp_path / "two-site.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        capsys.readouterr()
        rc = main(["replay", str(capture), "--fault-profile", "lossy-udp",
                   "--fault-seed", "7", "--output", str(tmp_path / "o.tsv")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "faults injected" in err
        assert "profile=lossy-udp" in err and "seed=7" in err

    def test_faulted_replay_is_seed_reproducible(self, tmp_path):
        """Same capture + profile + seed through the CLI twice: identical
        output rows — the whole point of deterministic injection."""
        capture = tmp_path / "churn.fdc"
        assert main(["capture", str(capture), "--scenario", "cname-churn"]) == 0
        rows = []
        for run in range(2):
            output = tmp_path / f"run{run}.tsv"
            rc = main(["replay", str(capture), "--fault-profile", "everything",
                       "--fault-seed", "11", "--output", str(output)])
            assert rc == 0
            rows.append(self._rows(output))
        assert rows[0] == rows[1]

    def test_custom_fault_rates_report_custom_profile(self, tmp_path, capsys):
        capture = tmp_path / "two-site.fdc"
        assert main(["capture", str(capture), "--scenario", "two-site"]) == 0
        capsys.readouterr()
        rc = main(["replay", str(capture), "--fault", "drop=0.1",
                   "--fault", "duplicate=0.05",
                   "--output", str(tmp_path / "o.tsv")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "profile=custom" in err and "seed=0" in err


_REPLAY_IMPORTS = """
import json, sys
import repro.cli
repro.cli.build_parser().parse_args(["replay", "X.fdc"])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("repro"))))
"""

#: What a replay child never runs: the analysis and BGP use cases, the
#: test-side reference codecs, the simulation engine, the ISP presets,
#: the sweep harness and the scenario library.
_NOT_ON_THE_REPLAY_PATH = (
    "repro.analysis",
    "repro.bgp",
    "repro.reference",
    "repro.core.simulation",
    "repro.workloads.isp",
    "repro.workloads.sweep",
    "repro.replay.scenarios",
)


class TestReplayImports:
    def test_parsing_a_replay_loads_only_the_replay_path(self):
        """A fresh interpreter that builds the parser and parses
        ``replay X.fdc`` has imported none of what replay never runs."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run(
            [sys.executable, "-c", _REPLAY_IMPORTS],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        loaded = json.loads(result.stdout)
        assert "repro.cli" in loaded
        assert [
            name for name in loaded
            if any(name == banned or name.startswith(banned + ".")
                   for banned in _NOT_ON_THE_REPLAY_PATH)
        ] == []

    def test_package_exports_still_resolve(self):
        import repro
        import repro.core
        from repro import FlowDNSConfig, SimulationEngine
        from repro.core.config import FlowDNSConfig as config_class
        from repro.core.simulation import SimulationEngine as engine_class

        assert FlowDNSConfig is config_class
        assert SimulationEngine is engine_class
        assert "SimulationEngine" in repro.__all__ and "__version__" in repro.__all__
        for package in (repro, repro.core):
            for name in package.__all__:
                getattr(package, name)
        with pytest.raises(AttributeError):
            repro.core.NoSuchName
