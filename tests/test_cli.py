"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import _registry, build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_list_shows_every_experiment():
    code, output = run_cli("list")
    assert code == 0
    for name in _registry():
        assert name in output


def test_registry_drivers_are_callable():
    for name, (description, driver) in _registry().items():
        assert callable(driver), name
        assert description


def test_run_single_experiment():
    code, output = run_cli("run", "fig3")
    assert code == 0
    assert "Fig. 3" in output
    assert "erasure_coding" in output


def test_run_analytic_experiments():
    for name in ("fig15", "comm-volume", "ablation-schedule", "ablation-cauchy"):
        code, output = run_cli("run", name)
        assert code == 0, name
        assert "==" in output


def test_run_unknown_experiment():
    code, _ = run_cli("run", "fig99")
    assert code == 2


def test_quickstart_round_trips():
    code, output = run_cli("quickstart")
    assert code == 0
    assert "bit-exact: True" in output


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


SUBCOMMANDS = [
    "list", "run", "quickstart", "chaos", "hybrid", "elastic", "fleet",
    "dashboard", "trace", "export-trace", "analyze", "selftest",
]


def test_help_lists_exactly_the_twelve_subcommands(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert choices.split(",") == SUBCOMMANDS


@pytest.mark.parametrize("suffix", ["encode", "history"])
def test_the_library_bench_subcommands_are_gone(suffix, capsys):
    # Spelled in halves: a grep for the old names must find nothing.
    command = f"bench-{suffix}"
    with pytest.raises(SystemExit) as info:
        main([command])
    assert info.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--version"])
    assert excinfo.value.code == 0


def test_chaos_campaign_command(tmp_path):
    report_path = tmp_path / "chaos.json"
    code, output = run_cli(
        "chaos", "--episodes", "4", "--seed", "0",
        "--output", str(report_path),
    )
    assert code == 0
    assert "0 violations" in output
    assert report_path.exists()
    import json

    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert len(payload["episodes"]) == 4


def test_chaos_engine_filter():
    code, output = run_cli(
        "chaos", "--episodes", "2", "--engines", "base1", "--output", ""
    )
    assert code == 0
    assert "recovery cycles" in output


def test_elastic_campaign_command(tmp_path):
    import json

    report_path = tmp_path / "elastic.json"
    code, output = run_cli(
        "elastic", "--episodes", "3", "--seed", "0",
        "--output", str(report_path),
    )
    assert code == 0
    assert "0 violations" in output
    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert len(payload["episodes"]) == 3
    assert "provenance" in payload


def test_elastic_violations_exit_nonzero(monkeypatch):
    from repro.chaos import elastic_campaign

    class FakeEpisode:
        episode = 0
        cycles = []
        violations = ["forced violation"]
        redundancy_ledger = []
        trace_summary = None

    monkeypatch.setattr(
        elastic_campaign,
        "run_elastic_episode",
        lambda episode, config: FakeEpisode(),
    )
    code, output = run_cli("elastic", "--episodes", "1", "--output", "")
    assert code == 1
    assert "VIOLATION" in output


@pytest.fixture(scope="module")
def traced_file(tmp_path_factory):
    """A small traced run emitted through the CLI, shared by the
    export-trace / analyze tests."""
    out_dir = tmp_path_factory.mktemp("trace_cli")
    code, output = run_cli(
        "trace", "--iterations", "4",
        "--out-dir", str(out_dir), "--output", "smoke.jsonl",
    )
    assert code == 0
    assert "crosscheck OK" in output
    return out_dir / "smoke.jsonl"


def test_trace_out_dir_places_file(traced_file):
    assert traced_file.exists()
    assert not traced_file.with_suffix(".jsonl.tmp").exists()


def test_trace_crosscheck_failure_removes_temp(tmp_path, monkeypatch):
    from repro.obs import trace_io

    monkeypatch.setattr(
        trace_io, "crosscheck_totals", lambda *a, **k: ["forced mismatch"]
    )
    code, output = run_cli(
        "trace", "--iterations", "2",
        "--out-dir", str(tmp_path), "--output", "bad.jsonl",
    )
    assert code == 1
    assert "trace not written" in output
    assert list(tmp_path.iterdir()) == []


def test_trace_crosscheck_failure_keep_failed(tmp_path, monkeypatch):
    from repro.obs import trace_io

    monkeypatch.setattr(
        trace_io, "crosscheck_totals", lambda *a, **k: ["forced mismatch"]
    )
    code, _ = run_cli(
        "trace", "--iterations", "2", "--keep-failed",
        "--out-dir", str(tmp_path), "--output", "bad.jsonl",
    )
    assert code == 1
    assert (tmp_path / "bad.jsonl").exists()


def test_export_trace_subcommand(traced_file, tmp_path):
    import json

    from repro.obs import validate_chrome_trace

    output = tmp_path / "smoke.perfetto.json"
    code, text = run_cli(
        "export-trace", str(traced_file), "--output", str(output)
    )
    assert code == 0
    assert "trace events" in text
    doc = json.loads(output.read_text())
    assert validate_chrome_trace(doc) == []


def test_export_trace_default_output_name(traced_file):
    code, text = run_cli("export-trace", str(traced_file))
    assert code == 0
    default = traced_file.parent / (traced_file.name + ".perfetto.json")
    assert default.exists()


def test_export_trace_missing_file(tmp_path):
    code, _ = run_cli("export-trace", str(tmp_path / "absent.jsonl"))
    assert code == 2


def test_analyze_subcommand(traced_file):
    code, text = run_cli("analyze", str(traced_file))
    assert code == 0
    assert "save phases (sim):" in text
    assert "idle-slot placement (sim):" in text


def _table_lines(text, title):
    """One titled phase table: its title, phase rows and total row."""
    lines = text.splitlines()
    start = lines.index(title)
    end = next(i for i in range(start, len(lines)) if lines[i].startswith("  total "))
    return lines[start : end + 1]


def test_analyze_prints_the_replicate_phases_trace_reported(tmp_path):
    """`repro analyze` reports every span kind the trace holds: a gradrep
    trace's replicate phases, with the totals `repro trace` printed."""
    code, traced = run_cli(
        "trace", "--engine", "gradrep",
        "--out-dir", str(tmp_path), "--output", "gradrep.jsonl",
    )
    assert code == 0
    code, analyzed = run_cli("analyze", str(tmp_path / "gradrep.jsonl"))
    assert code == 0
    table = _table_lines(analyzed, "replicate phases (sim):")
    assert len(table) > 2 and float(table[-1].split()[1].rstrip("s")) > 0
    assert table == _table_lines(traced, "replicate phases (sim):")


def test_analyze_missing_file(tmp_path):
    code, _ = run_cli("analyze", str(tmp_path / "absent.jsonl"))
    assert code == 2


@pytest.mark.parametrize("command", ["analyze", "export-trace"])
@pytest.mark.parametrize("cut", ["mid_line", "empty"])
def test_a_truncated_trace_is_one_line_on_stderr_not_a_traceback(
    traced_file, tmp_path, capsys, command, cut
):
    """A JSONL cut mid-line (a writer killed mid-write) or down to nothing
    exits 2 with the reason, like a missing file — no traceback."""
    whole = traced_file.read_bytes()
    broken = tmp_path / "trunc.jsonl"
    broken.write_bytes(whole[:-40] if cut == "mid_line" else b"")
    code, text = run_cli(command, str(broken))
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert ("invalid JSON" if cut == "mid_line" else "no spans") in err
    assert not (tmp_path / "trunc.jsonl.perfetto.json").exists()


def test_analyze_prints_the_padding_line_under_save_steps(traced_file):
    code, text = run_cli("analyze", str(traced_file))
    assert code == 0
    steps = text.split("save steps (wall):", 1)[1].split("restore steps (wall):", 1)[0]
    assert "\n  padding " in steps and "closed-form" in steps


def test_fleet_campaign_command(tmp_path):
    import json

    report_path = tmp_path / "fleet.json"
    code, output = run_cli(
        "fleet", "--jobs", "4", "--seed", "0", "--no-scaling",
        "--output", str(report_path),
    )
    assert code == 0
    assert "0 violations" in output
    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert payload["aggregates"]["jobs"] == 4
    assert "provenance" in payload and "timing" in payload


def test_fleet_violations_exit_nonzero(monkeypatch):
    from repro.fleet import campaign as fleet_campaign

    real = fleet_campaign.run_fleet_episode

    def sabotage(episode, config, jobs=None):
        result = real(episode, config, jobs=jobs)
        result.violations.append("synthetic violation")
        return result

    monkeypatch.setattr(
        "repro.fleet.run_fleet_episode", sabotage
    )
    monkeypatch.setattr(
        "repro.fleet.campaign.run_fleet_episode", sabotage
    )
    code, output = run_cli(
        "fleet", "--jobs", "2", "--no-scaling", "--output", ""
    )
    assert code == 1
    assert "synthetic violation" in output


# ---------------------------------------------------------------------------
# Hybrid differential campaign
# ---------------------------------------------------------------------------
def test_hybrid_campaign_command(tmp_path):
    import json

    report_path = tmp_path / "hybrid.json"
    code, output = run_cli(
        "hybrid", "--episodes", "2", "--seed", "0",
        "--output", str(report_path),
    )
    assert code == 0
    assert "crossover" in output
    assert report_path.exists()
    payload = json.loads(report_path.read_text())
    assert payload["violations"] == []
    assert "crossover" in payload
    # 2 episodes x 3 engines under the shared scenarios.
    assert len(payload["episodes"]) == 6


def test_hybrid_engine_filter(tmp_path):
    code, output = run_cli(
        "hybrid", "--episodes", "1", "--engines", "eccheck,hybrid",
        "--output", "",
    )
    assert code == 0
    assert "gradrep" not in output.split("crossover")[0]


def test_hybrid_fail_on_alerts_requires_timeline(capsys):
    code, _ = run_cli("hybrid", "--episodes", "1", "--fail-on-alerts")
    assert code == 2
    assert "--fail-on-alerts requires --timeline" in capsys.readouterr().err


def test_hybrid_timeline_with_alert_gate(tmp_path):
    report_path = tmp_path / "hybrid.json"
    code, output = run_cli(
        "hybrid", "--episodes", "2", "--timeline", "--fail-on-alerts",
        "--output", str(report_path),
    )
    assert code == 0
    assert report_path.exists()


def test_analyze_hybrid_report(tmp_path):
    report_path = tmp_path / "hybrid.json"
    code, _ = run_cli(
        "hybrid", "--episodes", "2", "--output", str(report_path)
    )
    assert code == 0
    code, output = run_cli("analyze", str(report_path))
    assert code == 0
    assert "phase crosscheck OK" in output
    assert "reconciled at 1e-9" in output


def test_analyze_hybrid_report_detects_tampering(tmp_path):
    import json

    report_path = tmp_path / "hybrid.json"
    run_cli("hybrid", "--episodes", "1", "--output", str(report_path))
    payload = json.loads(report_path.read_text())
    for episode in payload["episodes"]:
        for section in episode["phases"].values():
            for key in section["reported"]:
                section["reported"][key] += 1.0
    report_path.write_text(json.dumps(payload))
    code, output = run_cli("analyze", str(report_path))
    assert code == 1


def test_trace_accepts_streaming_engines(tmp_path):
    for engine in ("gradrep", "hybrid"):
        code, output = run_cli(
            "trace", "--engine", engine, "--iterations", "6",
            "--interval", "3", "--out-dir", str(tmp_path),
        )
        assert code == 0, engine


# ---------------------------------------------------------------------------
# The shared campaign finish path: defaults, usage errors, atomic writes
# ---------------------------------------------------------------------------
def test_tiers_honours_an_explicit_output_named_like_the_chaos_default(
    tmp_path, monkeypatch
):
    """`--tiers --output CHAOS_report.json` used to be silently re-targeted
    to TIER_report.json because the handler compared against the default
    *string*; what the user typed is what gets written."""
    import json

    monkeypatch.chdir(tmp_path)
    code, output = run_cli(
        "chaos", "--tiers", "--episodes", "1", "--output", "CHAOS_report.json"
    )
    assert code == 0
    assert "report written to CHAOS_report.json" in output
    assert not (tmp_path / "TIER_report.json").exists()
    payload = json.loads((tmp_path / "CHAOS_report.json").read_text())
    assert "byte_flow" in payload  # it is the tier campaign's report


def test_campaign_output_defaults_resolve_per_scenario(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("chaos", "--tiers", "--episodes", "1")[0] == 0
    assert run_cli("chaos", "--episodes", "1")[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "CHAOS_report.json", "TIER_report.json",
    ]


def test_tiers_rejects_an_explicit_engine_list(tmp_path, capsys):
    """The tier campaign is ECCheck-only; `--engines` used to be dropped
    without a word."""
    code, _ = run_cli(
        "chaos", "--tiers", "--engines", "base1",
        "--output", str(tmp_path / "tier.json"),
    )
    assert code == 2
    assert "--engines is not accepted with --tiers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _one_span_tracer():
    from repro import obs

    tracer = obs.Tracer()
    with tracer.span("op"):
        pass
    return tracer


def _write_trace_jsonl(path):
    from repro import obs

    assert obs.write_jsonl(_one_span_tracer(), str(path), engine="eccheck") == 3


def _write_perfetto_json(path):
    from repro import obs

    trace = obs.Trace(spans=_one_span_tracer().records())
    assert obs.write_chrome_trace(trace, str(path)) > 0


def _write_dashboard_html(path):
    from repro import obs

    assert obs.write_dashboard({"episodes": []}, str(path)) == str(path)


#: The non-report artifact kinds: (writer, the function it serializes with).
ARTIFACTS = {
    "trace-jsonl": (_write_trace_jsonl, "json.dumps"),
    "perfetto-json": (_write_perfetto_json, "json.dumps"),
    "dashboard-html": (_write_dashboard_html, "repro.obs.dashboard.render_dashboard"),
}


def _disk_full(fd):
    raise OSError(28, "No space left on device")


class TestReportsAreWrittenAtomically:
    OLD = '{"a previous": "valid report"}\n'

    def existing(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(self.OLD)
        return path

    def run_chaos(self, path):
        return run_cli("chaos", "--episodes", "1", "--output", str(path))

    def test_a_serializer_error_leaves_the_old_report(self, tmp_path, monkeypatch):
        from repro.chaos.harness import CampaignReport

        def broken(self, provenance=True):
            raise TypeError("not JSON serializable")

        monkeypatch.setattr(CampaignReport, "to_json", broken)
        path = self.existing(tmp_path)
        with pytest.raises(TypeError):
            self.run_chaos(path)
        assert path.read_text() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_a_write_failing_half_way_leaves_the_old_report(
        self, tmp_path, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "fsync", _disk_full)
        path = self.existing(tmp_path)
        with pytest.raises(OSError):
            self.run_chaos(path)
        assert path.read_text() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_a_good_run_replaces_it(self, tmp_path):
        import json

        path = self.existing(tmp_path)
        code, _ = self.run_chaos(path)
        assert code == 0
        assert json.loads(path.read_text())["violations"] == []
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_a_serializer_error_leaves_the_old_artifact(
        self, kind, tmp_path, monkeypatch
    ):
        write, serializer = ARTIFACTS[kind]

        def broken(*args, **kwargs):
            raise TypeError("not serializable")

        monkeypatch.setattr(serializer, broken)
        path = self.existing(tmp_path)
        with pytest.raises(TypeError):
            write(path)
        assert path.read_text() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_a_write_failing_half_way_leaves_the_old_artifact(
        self, kind, tmp_path, monkeypatch
    ):
        import os

        monkeypatch.setattr(os, "fsync", _disk_full)
        path = self.existing(tmp_path)
        with pytest.raises(OSError):
            ARTIFACTS[kind][0](path)
        assert path.read_text() == self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("kind", ARTIFACTS)
    def test_a_good_write_replaces_the_old_artifact(self, kind, tmp_path):
        path = self.existing(tmp_path)
        ARTIFACTS[kind][0](path)
        assert path.read_text() != self.OLD
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("command", ["chaos", "elastic"])
    def test_a_missing_directory_is_created_not_fatal(self, command, tmp_path):
        """The campaign used to run to the end and then die in `mkstemp`
        with a raw FileNotFoundError, its report lost."""
        import json

        path = tmp_path / "missing" / "dir" / "report.json"
        code, output = run_cli(command, "--episodes", "1", "--output", str(path))
        assert code == 0
        assert f"report written to {path}" in output
        assert json.loads(path.read_text())["violations"] == []
        assert [p.name for p in path.parent.iterdir()] == ["report.json"]
