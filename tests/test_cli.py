import json

import pytest

import graphilp.cli as cli
from graphilp.cli import build_parser, main
from graphilp.lang.parser import MAX_DEPTH, DslSyntaxError, parse
from graphilp.vne_model import TWO_LINKS_MODEL, TWO_LINKS_SPEC

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


def test_check_prints_each_warning_then_ok(tmp_path, capsys):
    model, spec = tmp_path / "t.model", tmp_path / "t.gipsl"
    model.write_text(TASK_DOC)
    decls = ["objective load -> class::Server { self.resCpu }",
             "objective size -> pattern::place { self.nodes().t.cpu }"]
    text = TASK_SPEC.replace("global objective : min { packObj }",
                             "\n".join([*decls, "global objective : min { packObj + load + size }"]))
    spec.write_text(text)
    assert main(["check", "--model", str(model), "--spec", str(spec)]) == 0
    out = capsys.readouterr()
    assert out.out == "ok\n"
    lines = [text.splitlines().index(decl) + 1 for decl in decls]
    assert out.err.splitlines() == [
        f"warning: {spec}:{lines[0]}:1: objective 'load' contributes only generation-time "
        f"constants (a class context carries no decision variable)",
        f"warning: {spec}:{lines[1]}:1: objective 'size' contributes only generation-time "
        f"constants (a pattern context carries no decision variable)"]


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


@pytest.mark.parametrize("literal, message", [
    ("\u00b23", "unexpected character '\u00b2'"),
    ("7" * 5000, "integer literal too long"),
], ids=["superscript-digit", "5000-digit-int"])
def test_check_bad_numeral_is_one_located_error(literal, message, two_links, tmp_path, capsys):
    model, _ = two_links
    bad = tmp_path / "bad.gipsl"
    bad.write_text(f"global objective : min {{ {literal} }}\n")
    assert main(["check", "--model", str(model), "--spec", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}:1:26: {message}"]


REAL_DOC = """
nodetypes { nodetype { name: N  attrs { x: real } } }
nodes { node { id: n  type: N  attrs { x: 1e300 } } }
"""


def test_non_finite_real_exits_1(tmp_path, capsys):
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text(REAL_DOC.replace("1e300", "1e999"))
    spec.write_text("global objective : min { 0 }\n")
    assert main(["check", "--model", str(model), "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {model}: node 'n' attribute 'x' is not a real\n"
    # an action that overflows the attribute ends the same way, but is not the file's fault
    model.write_text(REAL_DOC)
    spec.write_text("rule grow { nodes { a: N }  actions { set a.x := a.x * 1e300 } }\n"
                    "mapping g with grow;\n"
                    "objective o -> mapping::g { -1 }\n"
                    "global objective : min { o }\n")
    out = tmp_path / "out.model"
    assert main(["solve", "--model", str(model), "--spec", str(spec), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: node 'n' attribute 'x' is not a real\n"
    assert not out.exists()


def test_solve_out_of_an_unwritable_integer_exits_1(tmp_path, capsys):
    # 3,000 digits read back; squared, 6,000 are more than the writer converts
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text("nodetypes { nodetype { name: N  attrs { x: int } } }\n"
                     f"nodes {{ node {{ id: a  type: N  attrs {{ x: {'9' * 3000} }} }} }}\n")
    spec.write_text("rule grow { nodes { a: N }  actions { set a.x := a.x * a.x } }\n"
                    "mapping g with grow;\n"
                    "objective o -> mapping::g { -1 }\n"
                    "global objective : min { o }\n")
    out = tmp_path / "out.model"
    assert main(["solve", "--model", str(model), "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: node 'a' attribute 'x' is an integer too long to write\n"
    assert "Traceback" not in err and not out.exists()


GROW_DOC = """
nodetypes { nodetype { name: N  attrs { r: real } } }
nodes { node { id: a  type: N  attrs { r: 1.0 } } }
"""


@pytest.mark.parametrize("actions, nodes", [
    # a later action reads a created node's creation values
    ("create node b: N { r := a.r + 1 }  set a.r := b.r * 2",
     ["node { id: a  type: N  attrs { r: 4.0 } }",
      "node { id: grow_b  type: N  attrs { r: 2.0 } }"]),
    # `set` on a created node stores an int in a real attribute as a float
    ("create node b: N { r := 3 }  set b.r := 2",
     ["node { id: a  type: N  attrs { r: 1.0 } }",
      "node { id: grow_b  type: N  attrs { r: 2.0 } }"]),
], ids=["reads-created-node", "set-on-created-node"])
def test_actions_on_a_created_node(actions, nodes, tmp_path, capsys):
    model, spec, out = tmp_path / "m.model", tmp_path / "s.gipsl", tmp_path / "out.model"
    model.write_text(GROW_DOC)
    spec.write_text(f"rule grow {{ nodes {{ a: N }}  actions {{ {actions} }} }}\n"
                    "mapping g with grow;\n"
                    "objective o -> mapping::g { -1 }\n"
                    "global objective : min { o }\n")
    code = main(["solve", "--model", str(model), "--spec", str(spec), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert [line.strip() for line in out.read_text().splitlines() if "node {" in line] == nodes


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("actions, col", [
    ("delete node a  set a.r := 2", 54),
    ("delete node a  create node b: N { r := a.r }", 78),
    ("delete node a  delete node a", 54),
], ids=["set", "read", "delete-twice"])
def test_action_on_a_deleted_node_is_a_located_error(command, actions, col, tmp_path,
                                                      capsys):
    model, spec, out = tmp_path / "m.model", tmp_path / "s.gipsl", tmp_path / "out.model"
    model.write_text(GROW_DOC)
    spec.write_text(f"rule grow {{ nodes {{ a: N }}  actions {{ {actions} }} }}\n"
                    "mapping g with grow;\n"
                    "objective o -> mapping::g { -1 }\n"
                    "global objective : min { o }\n")
    args = ["--model", str(model), "--spec", str(spec)]
    assert main([command, *args] + (["--out", str(out)] if command == "solve" else [])) == 1
    assert capsys.readouterr().err == (f"error: {spec}:1:{col}: node 'a' is used after "
                                       "an action deletes it\n")
    assert not out.exists()


CUT_DOC = """
nodetypes { nodetype { name: N  attrs { r: real } } }
edgetypes { edgetype { name: link  src: N  tgt: N } }
nodes {
  node { id: a  type: N  attrs { r: 1.0 } }
  node { id: b  type: N  attrs { r: 2.0 } }
}
edges {
  edge { id: ab  type: link  src: a  tgt: b }
  edge { id: ba  type: link  src: b  tgt: a }
}
"""


def cut_spec(actions: str) -> str:
    return (f"rule cut {{ nodes {{ x: N  y: N }}  edges {{ e: link(x -> y) }}  "
            f"actions {{ {actions} }} }}\n"
            "mapping c with cut;\n"
            "constraint -> class::N { mappings.c->sum(m | 1) <= 1 }\n"
            "objective o -> mapping::c { self.nodes().x.r }\n"
            "global objective : max { o }\n")


def test_solve_deletes_a_matched_edge(tmp_path, capsys):
    # the chosen match is x=b, y=a: its edge `ba` goes, and `ab` stays
    model, spec, out = tmp_path / "m.model", tmp_path / "s.gipsl", tmp_path / "out.model"
    model.write_text(CUT_DOC)
    spec.write_text(cut_spec("delete edge e"))
    code = main(["solve", "--model", str(model), "--spec", str(spec), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert [line.strip() for line in out.read_text().splitlines() if "edge {" in line] == [
        "edge { id: ab  type: link  src: a  tgt: b }"]


@pytest.mark.parametrize("parallel", [True, False], ids=["two-edges", "one-edge"])
def test_solve_deletes_parallel_edges_only_where_there_are_two(parallel, tmp_path, capsys):
    # two pattern edges a -> b need two graph edges a -> b: with `ab2` the
    # match x=a, y=b deletes both; without it nothing matches, where once
    # the match passed `check` and failed at apply time
    model, spec, out = tmp_path / "m.model", tmp_path / "s.gipsl", tmp_path / "out.model"
    model.write_text(CUT_DOC.replace("edges {\n", "edges {\n  edge { id: ab2  type: link  "
                                     "src: a  tgt: b }\n") if parallel else CUT_DOC)
    spec.write_text(cut_spec("delete edge e  delete edge f").replace(
        "e: link(x -> y)", "e: link(x -> y)  f: link(x -> y)"))
    code = main(["solve", "--model", str(model), "--spec", str(spec), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert capsys.readouterr().out.startswith(
        f"optimal objective {1 if parallel else 0}, {int(parallel)} match(es) applied")
    assert [line.split()[3] for line in out.read_text().splitlines() if "edge {" in line] == \
        (["ba"] if parallel else ["ab", "ba"])


@pytest.mark.parametrize("command", ["check", "solve"])
def test_deleting_an_edge_twice_is_a_located_error(command, tmp_path, capsys):
    model, spec, out = tmp_path / "m.model", tmp_path / "s.gipsl", tmp_path / "out.model"
    model.write_text(CUT_DOC)
    spec.write_text(cut_spec("delete edge e  delete edge e"))
    args = ["--model", str(model), "--spec", str(spec)]
    assert main([command, *args] + (["--out", str(out)] if command == "solve" else [])) == 1
    assert capsys.readouterr().err == f"error: {spec}:1:86: edge 'e' is deleted twice\n"
    assert not out.exists()


def test_check_model_ending_inside_a_record_names_the_end(two_links, tmp_path, capsys):
    _, spec = two_links
    model = tmp_path / "cut.model"
    model.write_text("nodes { node { id: a")
    assert main(["check", "--model", str(model), "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {model}:1:21: unexpected end of input in node\n"


@pytest.mark.parametrize("command", ["check", "solve"])
def test_nonconforming_model_names_the_file(command, two_links, tmp_path, capsys):
    _, spec = two_links
    model = tmp_path / "bad.model"
    model.write_text(TWO_LINKS_MODEL.replace("id: sl1  type: SubstrateLink ",
                                             "id: sl1  type: SubstrateLinkX "))
    assert main([command, "--model", str(model), "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == (f"error: {model}: node 'sl1' has undeclared "
                                       "type 'SubstrateLinkX'\n")


def test_check_spec_ending_inside_a_body_names_the_end(two_links, tmp_path, capsys):
    model, _ = two_links
    spec = tmp_path / "cut.gipsl"
    spec.write_text("global objective : min {\n")
    assert main(["check", "--model", str(model), "--spec", str(spec)]) == 1
    assert capsys.readouterr().err == (f"error: {spec}:2:1: expected an expression, "
                                       "got end of input\n")


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


PLACED_ONCE = "self.placed | mappings.put->filter(m | m.nodes().t == self)->sum(m | 1) == 1"
DEEP_BODIES = {
    "parentheses": lambda k: "(" * k + PLACED_ONCE + ")" * k,
    "not": lambda k: "!" * (2 * k) + f"({PLACED_ONCE})",
    "minus": lambda k: PLACED_ONCE.replace("mappings", "- - " * k + "mappings"),
    "plus": lambda k: PLACED_ONCE.replace(" == 1", " + 0" * k + " == 1"),
    "and": lambda k: PLACED_ONCE + " & true" * k,
}


@pytest.mark.parametrize("kind", DEEP_BODIES)
def test_solve_takes_the_deepest_spec_and_refuses_deeper(kind, tmp_path, capsys):
    model, spec = tmp_path / "m.model", tmp_path / "s.gipsl"
    model.write_text(TASK_DOC)

    def deep(k):
        return TASK_SPEC.replace(PLACED_ONCE, DEEP_BODIES[kind](k))

    deepest = MAX_DEPTH
    while True:  # the largest k the parser takes
        try:
            parse(deep(deepest))
            break
        except DslSyntaxError:
            deepest -= 1
    spec.write_text(deep(deepest))
    assert main(["solve", "--model", str(model), "--spec", str(spec)]) == 0
    capsys.readouterr()
    for k in (deepest + 1, 3000):
        spec.write_text(deep(k))
        assert main(["solve", "--model", str(model), "--spec", str(spec)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {spec}:16:"), err
        assert err[0].endswith(f": expression nests more than {MAX_DEPTH} levels deep")


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


def test_export_lp_of_unwritable_program_names_the_row(tmp_path, capsys):
    # no match, so no variables, and every server's `>= 1` row reads 0 >= 1
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text(TASK_DOC)
    spec.write_text(TASK_SPEC.replace("condition { !t.placed & s.resCpu >= t.cpu }",
                                      "condition { false }")
                    .replace("->sum(m | m.nodes().t.cpu) <= self.resCpu",
                             "->sum(m | 1) >= 1"))
    lp = tmp_path / "out.lp"
    assert main(["export-lp", "--model", str(model), "--spec", str(spec),
                 "--out", str(lp)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cannot export constraint c0")
    assert not lp.exists()


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


@pytest.mark.parametrize("objective, message", [
    ("lnkObj + sqrt(-1)", "{line}:35: sqrt of -1.0 is undefined in global objective"),
    ("lnkObj * 1e308 * 10", "{line}:1: global objective folds to a non-finite weight or "
                            "constant"),
    (f"lnkObj + 1{'0' * 400}", "{line}:35: number overflows the float range in global "
                               "objective"),
], ids=["sqrt-of-negative", "overflow", "huge-int"])
def test_global_objective_domain_error_is_one_diagnostic(objective, message, two_links,
                                                         tmp_path, capsys):
    model, _ = two_links
    assert "global objective : min {\n  lnkObj\n}" in TWO_LINKS_SPEC
    text = TWO_LINKS_SPEC.replace("global objective : min {\n  lnkObj\n}",
                                  f"global objective : min {{ {objective} }}")
    line = text.splitlines().index(f"global objective : min {{ {objective} }}") + 1
    bad = tmp_path / "bad.gipsl"
    bad.write_text(text)
    assert main(["check", "--model", str(model), "--spec", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == \
        [f"error: {bad}:" + message.format(line=line)]


@pytest.mark.parametrize("body, message", [
    ("sin(self.nodes().sl.resBw * 1e308 * 10)",
     "objective 'lnkObj', match 0 of link2link: sin of inf is undefined"),
    ("cos(self.nodes().sl.resBw * 1e308 * 10)",
     "objective 'lnkObj', match 0 of link2link: cos of inf is undefined"),
    ("self.nodes().sl.resBw * 1e308 * 10",
     "objective 'lnkObj': non-finite coefficient or constant"),
], ids=["sin", "cos", "non-finite-term"])
def test_solve_objective_value_error_exits_1(body, message, two_links, tmp_path, capsys):
    model, _ = two_links
    old = "self.nodes().sl.resBw / self.nodes().sl.bw"
    assert old in TWO_LINKS_SPEC
    bad = tmp_path / "bad.gipsl"
    bad.write_text(TWO_LINKS_SPEC.replace(old, body))
    assert main(["solve", "--model", str(model), "--spec", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


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


@pytest.mark.parametrize("flag", ["--model", "--spec"])
def test_non_utf8_input_error_names_the_file(flag, two_links, tmp_path, capsys):
    model, spec = two_links
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    paths = {"--model": model, "--spec": spec, flag: bad}
    assert main(["check", "--model", str(paths["--model"]),
                 "--spec", str(paths["--spec"])]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid UTF-8 (")
    assert err.count("\n") == 1


def test_non_utf8_config_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    assert main(["vne", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid UTF-8 (")


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
    assert payload["format"] == "graphilp-vne-report/2"
    assert len(payload["records"]) == 3
    for record in payload["records"]:
        assert record["generate_ms"] > 0 and record["solve_ms"] > 0
    assert "residuals" in payload
    assert out_model.exists()
    out = capsys.readouterr().out
    assert "requests: 3" in out
    assert "generate_ms=" in out and "solve_ms=" in out


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


@pytest.mark.parametrize("key", ["validate", "__class__"])
def test_vne_config_non_field_key_is_unknown(key, tmp_path, capsys):
    config = tmp_path / "scenario.cfg"
    config.write_text(f"{key} = 3\n")
    assert main(["vne", "--config", str(config)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {config}: line 1: unknown key {key!r}"]


@pytest.mark.parametrize("line, message", [
    ("vnr_cpu = 5..3", "empty range 5..3"),
    ("vnr_cpu = 5..x", "bad range '5..x'"),
], ids=["empty", "not-a-number"])
def test_vne_config_bad_range_names_its_line(line, message, tmp_path, capsys):
    config = tmp_path / "range.cfg"
    config.write_text(f"{line}\n")
    assert main(["vne", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {config}: line 1: {message}\n"


@pytest.mark.parametrize("argv", [
    ["solve", "--model", "{model}"],
    ["solve", "--model", "{model}", "--spec", "{spec}", "--time-limit", "abc"],
    ["solve", "--model", "{model}", "--spec", "{spec}", "--time-limit", "-1"],
    ["solve", "--model", "{model}", "--spec", "{spec}", "--time-limit", "nan"],
    ["vne", "--time-limit", "inf"],
    ["no-such-command"],
], ids=["missing-spec", "time-limit-abc", "time-limit-negative", "time-limit-nan",
        "vne-time-limit-inf", "unknown-command"])
def test_usage_error_exits_1(argv, two_links, capsys):
    model, spec = two_links
    with pytest.raises(SystemExit) as exc:
        main([arg.format(model=model, spec=spec) for arg in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "-h"])
    assert exc.value.code == 0
    assert "--time-limit" in capsys.readouterr().out


def test_one_parser_serves_every_call(two_links, monkeypatch, capsys):
    assert build_parser() is build_parser()
    model, spec = two_links
    limits = []
    real_solve = cli.solve

    def spy(problem, time_limit):
        limits.append(time_limit)
        return real_solve(problem, time_limit=time_limit)
    monkeypatch.setattr(cli, "solve", spy)
    argv = ["solve", "--model", str(model), "--spec", str(spec)]
    assert main(argv + ["--time-limit", "5"]) == 0
    assert main(argv) == 0
    assert limits == [5.0, None]  # the first call's value does not stay behind
    with pytest.raises(SystemExit) as exc:
        main(argv[:3])
    assert exc.value.code == 1
    assert main(["check"] + argv[1:]) == 0
    assert capsys.readouterr().out.endswith("ok\n")


# a runtime error in a rule's condition or action names the rule and the
# binding, and exits 1 with one line (it used to end in an EvalError traceback)
REAL_TASK_DOC = TASK_DOC.replace("cpu: int", "cpu: real").replace("resCpu: int", "resCpu: real")


@pytest.mark.parametrize("doc, old, new, message", [
    (TASK_DOC.replace("cpu: 4  placed", "cpu: 2  placed"),
     "condition { !t.placed & s.resCpu >= t.cpu }",
     "condition { !t.placed & s.cpu / (t.cpu - 2) >= 0 }",
     "rule 'place', condition on s=s1 t=t1: division by zero"),
    (REAL_TASK_DOC.replace("cpu: 4  placed", "cpu: 2  placed"),
     "set t.placed := true", "set t.placed := true  set t.cpu := t.cpu / (t.cpu - 2)",
     "rule 'place', action 'set t.cpu' on s=s2 t=t1: division by zero"),
    (TASK_DOC.replace("cpu: 32  resCpu: 10", f"cpu: {'9' * 400}  resCpu: 10"),
     "condition { !t.placed & s.resCpu >= t.cpu }",
     "condition { !t.placed & s.cpu * 0.5 >= t.cpu }",
     "rule 'place', condition on s=s1 t=t1: '*' overflows the float range"),
    (TASK_DOC.replace("cpu: 32  resCpu: 10", f"cpu: {'9' * 400}  resCpu: 10"),
     "self.nodes().s.resCpu / self.nodes().s.cpu", "self.nodes().s.cpu / 7",
     "objective 'packObj', match 0 of place: '/' overflows the float range"),
    (TASK_DOC.replace("cpu: 32  resCpu: 10", f"cpu: {'9' * 400}  resCpu: 10"),
     "self.nodes().s.resCpu / self.nodes().s.cpu", "self.nodes().s.cpu",
     "objective 'packObj', match 0 of place: non-finite coefficient or constant"),
    (TASK_DOC.replace("cpu: 32  resCpu: 10", f"cpu: {'9' * 400}  resCpu: 10"),
     "->sum(m | m.nodes().t.cpu) <= self.resCpu",
     "->sum(m | m.nodes().s.cpu) * 0.5 <= self.resCpu",
     "constraint 1 (class::Server), s1: non-finite coefficient or constant"),
    (REAL_TASK_DOC, "set t.placed := true", f"set t.placed := true  set t.cpu := 1{'0' * 400}",
     "rule 'place', action 'set t.cpu' on s=s1 t=t2: value overflows the float range of "
     "real attribute 'cpu'"),
    (REAL_TASK_DOC, "set t.placed := true",
     f"set t.placed := true  create node n: Task {{ cpu := 1{'0' * 400}  placed := true }}",
     "rule 'place', action 'create node n, cpu' on s=s1 t=t2: value overflows the float "
     "range of real attribute 'cpu'"),
], ids=["condition-division-by-zero", "action-division-by-zero", "condition-overflow",
        "objective-overflow", "objective-weight-overflow", "lowered-term-overflow",
        "set-value-overflow", "create-value-overflow"])
def test_solve_evaluation_error_exits_1(doc, old, new, message, tmp_path, capsys):
    assert old in TASK_SPEC
    model = tmp_path / "m.model"
    spec = tmp_path / "s.gipsl"
    model.write_text(doc)
    spec.write_text(TASK_SPEC.replace(old, new))
    assert main(["solve", "--model", str(model), "--spec", str(spec)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
