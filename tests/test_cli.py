import json

import pytest

from graphilp.cli import main
from graphilp.vne_model import TWO_LINKS_MODEL, TWO_LINKS_SPEC, VNE_SCHEMA

from conftest import TASK_DOC, TASK_SPEC


@pytest.fixture
def two_links(tmp_path):
    model = tmp_path / "two-links.model"
    spec = tmp_path / "two-links.gipsl"
    model.write_text(TWO_LINKS_MODEL)
    spec.write_text(TWO_LINKS_SPEC)
    return model, spec


def test_check_ok_on_shipped_fixture(two_links, capsys):
    model, spec = two_links
    assert main(["check", "--model", str(model), "--spec", str(spec)]) == 0
    assert "ok" in capsys.readouterr().out


def test_check_reports_unknown_attribute(two_links, tmp_path, capsys):
    model, _ = two_links
    bad = tmp_path / "bad.gipsl"
    bad.write_text(TWO_LINKS_SPEC.replace("self.resBw", "self.resBandwidth"))
    assert main(["check", "--model", str(model), "--spec", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "resBandwidth" in err


def test_check_empty_spec_mentions_global_objective(two_links, tmp_path, capsys):
    model, _ = two_links
    empty = tmp_path / "empty.gipsl"
    empty.write_text("")
    assert main(["check", "--model", str(model), "--spec", str(empty)]) == 1
    assert "missing global objective" in capsys.readouterr().err


def test_generate_dumps_rows(two_links, capsys):
    model, spec = two_links
    assert main(["generate", "--model", str(model), "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "m_lnk2lnk_0" in out and "<= 1000" in out


def test_solve_applies_one_host_edge(two_links, tmp_path, capsys):
    model, spec = two_links
    out_model = tmp_path / "applied.model"
    report = tmp_path / "report.json"
    before = model.read_text()
    rc = main(["solve", "--model", str(model), "--spec", str(spec),
               "--out", str(out_model), "--report", str(report)])
    assert rc == 0
    assert model.read_text() == before, "input model untouched"
    applied = out_model.read_text()
    assert applied.count("type: host") == 1
    assert "v11" in applied
    payload = json.loads(report.read_text())
    assert payload["format"].startswith("graphilp-solve-report")
    assert payload["applied_matches"] == 1


def test_solve_without_out_flag_writes_nothing(two_links, tmp_path):
    model, spec = two_links
    listing = set(tmp_path.iterdir())
    assert main(["solve", "--model", str(model), "--spec", str(spec)]) == 0
    assert set(tmp_path.iterdir()) == listing


def test_solve_on_applied_model_is_a_noop(two_links, tmp_path, capsys):
    model, spec = two_links
    out_model = tmp_path / "applied.model"
    main(["solve", "--model", str(model), "--spec", str(spec),
          "--out", str(out_model)])
    rc = main(["solve", "--model", str(out_model), "--spec", str(spec)])
    assert rc == 0
    assert "0 match(es)" in capsys.readouterr().out


def test_solve_infeasible_exit_code(tmp_path):
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text(TASK_DOC)
    spec.write_text(TASK_SPEC.replace(
        "constraint -> class::Server {",
        "constraint -> class::Element { false }\nconstraint -> class::Server {"))
    assert main(["solve", "--model", str(model), "--spec", str(spec)]) == 2
    assert model.read_text() == TASK_DOC


def test_solve_timeout_exit_code(tmp_path, capsys):
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text(TASK_DOC)
    spec.write_text(TASK_SPEC)
    rc = main(["solve", "--model", str(model), "--spec", str(spec),
               "--time-limit", "0"])
    assert rc == 3
    assert "timeout" in capsys.readouterr().err


def test_export_lp_subcommand(two_links, tmp_path):
    model, spec = two_links
    lp = tmp_path / "out.lp"
    rc = main(["export-lp", "--model", str(model), "--spec", str(spec),
               "--out", str(lp)])
    assert rc == 0
    text = lp.read_text()
    assert text.startswith("Minimize")
    assert "Binary" in text and text.rstrip().endswith("End")
    from graphilp import import_lp
    p = import_lp(text)
    assert len(p.constraints) == 3


@pytest.mark.parametrize("command", ["check", "generate", "solve", "export-lp"])
def test_typecheck_errors_one_line_each(command, two_links, tmp_path, capsys):
    model, _ = two_links
    bad = tmp_path / "bad.gipsl"
    bad.write_text(TWO_LINKS_SPEC.replace("sl.resBw", "sl.resBandwidth"))
    argv = [command, "--model", str(model), "--spec", str(bad)]
    if command == "export-lp":
        argv += ["--out", str(tmp_path / "out.lp")]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) > 1
    assert all(line.startswith(f"error: {bad}:") for line in lines)


TINY_SCENARIO = "racks = 1\nservers_per_rack = 1\nvnr_count = 0\n"


@pytest.mark.parametrize("argv", [
    ["generate", "--model", "{not_utf8}", "--spec", "{spec}"],
    ["solve", "--model", "{model}", "--spec", "{not_utf8}"],
    ["vne", "--config", "{not_utf8}"],
    ["generate", "--model", "{model}", "--spec", "{spec}", "--out", "{unwritable}"],
    ["solve", "--model", "{model}", "--spec", "{spec}", "--out", "{unwritable}"],
    ["solve", "--model", "{model}", "--spec", "{spec}", "--report", "{unwritable}"],
    ["vne", "--config", "{tiny}", "--out", "{unwritable}"],
], ids=["generate-model-not-utf8", "solve-spec-not-utf8", "vne-config-not-utf8",
        "generate-out", "solve-out", "solve-report", "vne-out"])
def test_bad_input_exits_1_with_error_line(argv, two_links, tmp_path, capsys):
    model, spec = two_links
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes("r\u00e9sum\u00e9 = 1\n".encode("latin-1"))
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(TINY_SCENARIO)
    paths = {"model": model, "spec": spec, "not_utf8": not_utf8, "tiny": tiny,
             "unwritable": tmp_path / "no-such-dir" / "out"}
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_missing_file_is_spec_error(tmp_path):
    assert main(["check", "--model", str(tmp_path / "nope.model"),
                 "--spec", str(tmp_path / "nope.gipsl")]) == 1


def test_vne_run_writes_report(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("""
racks = 1
servers_per_rack = 2
vnr_count = 3
vnr_servers = 1..2
vnr_cpu = 1..4
vnr_mem = 1..16
vnr_storage = 10..20
vnr_bw = 100..200
seed = 2
""")
    report = tmp_path / "report.json"
    out_model = tmp_path / "final.model"
    rc = main(["vne", "--config", str(config), "--report", str(report),
               "--out", str(out_model)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["format"].startswith("graphilp-vne-report")
    assert len(payload["records"]) == 3
    assert "residuals" in payload
    assert out_model.exists()
    out = capsys.readouterr().out
    assert "requests: 3" in out


def test_vne_zero_requests(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("racks = 1\nservers_per_rack = 1\nvnr_count = 0\n")
    report = tmp_path / "report.json"
    rc = main(["vne", "--config", str(config), "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["records"] == []


def test_vne_seed_flag_overrides_config(tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text("racks = 1\nservers_per_rack = 1\nvnr_count = 1\n"
                      "vnr_servers = 1..1\nseed = 1\n")
    assert main(["vne", "--config", str(config), "--seed", "4"]) == 0
