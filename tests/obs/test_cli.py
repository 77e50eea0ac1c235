"""``python -m repro profile``: end-to-end runs over real examples."""

import json

import pytest

from repro.obs.chrome import validate_trace
from repro.obs.cli import main, profile_script


def test_profile_quickstart_emits_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["quickstart", "--chrome", str(out)]) == 0
    obj = json.loads(out.read_text())
    validate_trace(obj)
    names = {e["name"] for e in obj["traceEvents"]}
    assert names & {"launch", "put", "mem_map"}
    stdout = capsys.readouterr().out
    assert "profile:" in stdout and "trace events" in stdout


def test_profile_second_example_emits_valid_chrome_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["jacobi_halo", "--chrome", str(out)]) == 0
    obj = json.loads(out.read_text())
    validate_trace(obj)
    assert len(obj["traceEvents"]) > 0


def test_util_and_critical_path_reports_print(capsys):
    assert main(["quickstart", "--util", "--critical-path"]) == 0
    out = capsys.readouterr().out
    assert "utilization over" in out
    assert "critical path:" in out
    assert "gpu0.sm" in out


def test_steps_flag_includes_engine_instants(tmp_path):
    out = tmp_path / "trace.json"
    assert main(["quickstart", "--chrome", str(out), "--steps"]) == 0
    obj = json.loads(out.read_text())
    assert any(e.get("cat") == "engine" for e in obj["traceEvents"])


def test_missing_target_exits_2(capsys):
    assert main(["no_such_example"]) == 2
    assert "profile:" in capsys.readouterr().err


def test_crashing_target_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    assert main([str(bad)]) == 2
    assert "boom" in capsys.readouterr().err


def test_profile_script_uninstalls_bus_on_crash(tmp_path):
    from repro.sim.context import current

    bad = tmp_path / "bad.py"
    bad.write_text("raise RuntimeError('boom')\n")
    with pytest.raises(RuntimeError):
        profile_script(str(bad))
    assert current().bus is None
