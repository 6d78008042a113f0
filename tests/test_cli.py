import json
import os
import pkgutil
import random
import subprocess
import sys
import time
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

import braidcover
from braidcover.braid import (BraidWord, classify_baldwin, expand_fulltwist,
                              format_braid, parse_braid)
from braidcover.cli import main, run_pipeline, run_batch, PipelineFailure, _diagram_block
from braidcover.diagram import (CheckerboardGraph, DecoratedCycleGraph,
                                closure_white_graph, cycle_names, goeritz_matrix,
                                graph_dot)
from braidcover.ordercheck import (WITNESS_MAX_GENERATORS, SoundnessError,
                                   verify_certificate)
from braidcover.presentation import (cycle_presentation, greene_presentation,
                                     tietze_simplify)
from braidcover.rewrite import FreeWord
from b3oracle import burau_determinant
from support import certified, workload_lines

# the child process imports the same braidcover as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(braidcover.__file__)))


def run_python(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


def run_cli(*args):
    return run_python("-m", "braidcover.cli", *args)


def test_import_loads_every_module_and_no_heavy_stdlib():
    # dataclasses (with inspect, ast and dis) and argparse cost about a
    # third of a fresh import; only main() may load argparse
    code, out, err = run_python("-c", "import sys, braidcover.cli; print(*sys.modules)")
    assert code == 0, err
    loaded = set(out.split())
    assert not loaded & {"dataclasses", "inspect", "argparse"}
    package = {"braidcover." + m.name for m in pkgutil.iter_modules(braidcover.__path__)}
    assert len(package) == 6 and package <= loaded


def test_classify_json():
    code, out, _ = run_cli("classify", "h s2^5")
    assert code == 0
    assert json.loads(out) == {"type": 2, "d": 1, "m": 5}
    code, out, _ = run_cli("classify", "s1 s2^-1")
    assert json.loads(out) == {"type": 1, "d": 0, "a": [1]}


def test_classify_parse_error_exit_2():
    code, _, err = run_cli("classify", "zzz")
    assert code == 2
    assert "parse error" in err


def test_pipeline_certified():
    code, out, _ = run_cli("pipeline", "h s1 s2^-2 s1 s2^-2",
                           "--json", "--canonical")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["verdict"] == "NonLO_Certified"
    assert report["certificate"]["case"] == 1
    assert report["recheck"]["ok"]


def test_pipeline_case2():
    report, code = run_pipeline("h^-1 s1 s2^-1 s1 s2^-2", canonical=True)
    assert code == 0
    assert report["certificate"]["case"] == 2


def test_pipeline_checks_the_certificate_against_its_own_diagram():
    # the cycle presentation reported, and rechecked against, is the Greene
    # presentation of the normal form's own graph with the cycle names
    for line in ("h s1 s2^-2 s1 s2^-2", "h^-1 s1 s2^-1 s1 s2^-2",
                 "h s1 s2^-2 s1 s2^-2 s1 s2^-2"):
        report, code = run_pipeline(line, canonical=True)
        assert code == 0 and report["recheck"]["ok"], line
        word = expand_fulltwist(parse_braid(report["normalization"]["word"]))
        g = cycle_names(closure_white_graph(word), report["decorated"]["m"])
        assert report["cycle_presentation"] == cycle_presentation(g).to_json(), line


def test_pipeline_dm1_n1_reports_the_derived_branch_set():
    # d = -1, n = 1, a1 = 3: the branch set is T(2, a1+4), whose determinant
    # must equal the diagram's; the source's T(2, a1) is an erratum note
    report, code = run_pipeline("h^-1 s1 s2^-3", canonical=True)
    assert code == 0
    assert report["determinant"] == report["normalization"]["q"] == 7
    assert "T(2, 3)" in report["normalization"]["notes"][0]
    assert "branch_set_discrepancy" not in report
    assert report["verdict"] == {
        "verdict": "NonLO_Torsion", "machine_checked": True,
        "justification": "branch set T(2,7) has a finite cyclic (or connected "
                         "sum of finite cyclic) cover group"}


def test_pipeline_alternating_flagged_external():
    report, code = run_pipeline("s1 s2^-1", canonical=True)
    assert code == 0
    assert report["verdict"]["verdict"] == "NonLO_Alternating"
    assert report["verdict"]["machine_checked"] is False


def test_pipeline_not_in_family():
    report, code = run_pipeline("s1 s2", canonical=True)
    assert code == 1
    assert report["verdict"]["verdict"] == "Inconclusive"


def test_pipeline_truncated_twist_search(monkeypatch):
    from braidcover import braid
    text = "s1 s2 " * 54 + "s1 s2^-2"
    report, _ = run_pipeline(text, canonical=True)
    assert report["verdict"]["justification"].startswith("not in any")
    monkeypatch.setattr(braid, "MAX_TWIST_STATES", 5)   # of its 19
    report, code = run_pipeline(text, canonical=True)
    assert code == 1
    assert report["class"] == {"type": None, "stopped_at": 5}
    assert report["verdict"]["verdict"] == "Inconclusive"
    assert report["verdict"]["justification"].startswith(
        "the twist search stopped at its cap of 5 states")


def test_many_spelled_out_twists_are_decided():
    # h^-40, then 41 spelled-out twists (s2 s1)^3, then a rotation of the
    # member s1 s2^-1 s1 s2^-2: 19 cyclic classes, where 4,096 exact
    # spellings did not reach the member
    text = "h^-40 " + "s2 s1 " * 123 + "s2^-1 s1 s2^-2 s1"
    best = inf
    for _ in range(3):
        t0 = time.perf_counter()
        report, code = run_pipeline(text, canonical=True)
        best = min(best, time.perf_counter() - t0)
    assert (code, report["verdict"]["verdict"]) == (0, "NonLO_Certified")
    assert report["class"] == {"type": 1, "d": 1, "a": [1, 2]}
    assert best < 1.0


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(((1, 1), (1, -1), (2, 1), (2, -1))), max_size=40),
       st.integers(min_value=-2, max_value=2))
def test_random_words_classify_by_cyclic_word_and_never_fail(letters, d):
    # every rotation of a cyclically reduced word gets one class; rotations
    # of other words need not (the twist search sees no braid relations)
    w = BraidWord(tuple(letters), d)
    core = FreeWord(w.letters).cyclic_reduce().letters
    c = classify_baldwin(BraidWord(core, d))
    for k in range(1, len(core)):
        assert classify_baldwin(BraidWord(core[k:] + core[:k], d)) == c
    report, code = run_pipeline(format_braid(w), canonical=True)
    assert code != 3
    if "determinant" in report:
        assert report["determinant"] == burau_determinant(w)


def test_pipeline_parse_error():
    with pytest.raises(PipelineFailure):
        run_pipeline("bogus")


def test_pipeline_deterministic_json():
    r1, _ = run_pipeline("h s1 s2^-3 s1 s2^-1", canonical=True)
    r2, _ = run_pipeline("h s1 s2^-3 s1 s2^-1", canonical=True)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_pipeline_determinant_consistency_enforced():
    # the report always carries determinant == |H1| when both are finite
    for text in ["h s2^3", "h^2 s1^-1 s2^-1", "h s1 s2^-2"]:
        report, code = run_pipeline(text, canonical=True)
        assert code == 0
        inv = report["abelian"]
        if inv["rank"] == 0:
            order = 1
            for t in inv["torsion"]:
                order *= t
            assert order == report["determinant"]


def test_pipeline_dot_export(tmp_path):
    dot = tmp_path / "graph.dot"
    code, _, _ = run_cli("pipeline", "h s1 s2^-1", "--dot", str(dot), "--canonical")
    assert code == 0
    assert dot.read_text().startswith("graph")


def test_batch(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "# demo grid\n"
        "h s1 s2^-2 s1 s2^-2\n"
        "(3; 1,1,1; 1,1)\n"
        "(1; 1,1; 1)\n"          # hypothesis fails, recorded not failed
        "h s2^4\n"
        "\n")
    results, counts = run_batch(grid.read_text().splitlines())
    assert counts["ok"] == 3
    assert counts["hypothesis_not_met"] == 1
    assert counts["soundness_failure"] == 0
    code, out, _ = run_cli("batch", str(grid), "--json")
    assert code == 0
    assert json.loads(out)["counts"]["hypothesis_not_met"] == 1


def count_calls(monkeypatch, names):
    """Counts of calls to the named functions, kept up to date in the
    returned dict.  Every braidcover namespace that holds one gets a
    counting wrapper, so calls inside a module are counted too."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("braidcover."):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


# the builder writes the right rules into the certificate and its check
# reads them from there; no lemma word is expanded
CERTIFIED = {"verify_certificate": 1, "verify_lemma_left": 1, "left_elimination": 0,
             "right_elimination": 0, "verify_lemma_right": 1,
             "verify_product_relation": 1, "left_rules": 1, "right_rules": 1,
             "check_rules": 2, "verify_lemma_y": 1}
# a braid line builds one graph, that of its normal form, which it reports,
# presents and certifies on; one Smith form of its presentation gives H1 and
# the determinant.  The recheck builds its parameters' graph once, and for
# m = 1 also the graph of (2, a, b) that the lemmas read (rewrite.LEFT_X).
# Every cycle graph gets one Greene presentation.
FAMILY1 = dict(CERTIFIED, twist_search=2, classify_baldwin=2, expand_fulltwist=1,
               greene_presentation=3, closure_white_graph=2, cycle_graph_from_params=1,
               replay_moves=1, smith_normal_form=1, parse_braid=1)
# the finite route replays the class moves once and builds one graph, that of
# the member or its exchange, never the input's; it builds both words from
# the class, so it parses only the input and mirrors nothing.  Besides the
# diagram's one Smith form, it takes one per kernel infinite_witness
# abelianizes and one for the |H| that todd_coxeter reads off its table.
FINITE = {"twist_search": 1, "classify_baldwin": 1, "expand_fulltwist": 1,
          "greene_presentation": 1, "infinite_witness": 1, "todd_coxeter": 1,
          "closure_white_graph": 1, "replay_moves": 1, "parse_braid": 1,
          "tietze_simplify": 1}
COUNTED = tuple(FAMILY1) + ("infinite_witness", "todd_coxeter", "mirror",
                            "tietze_simplify")
# line, verdict, calls per counted function (0 where absent); the second
# classification of a family (1) line is the normalizer's check of the word
# the class moves reach, a unit form whose search lists one state
COUNT_TABLE = [
    ("h s1 s2^-2 s1 s2^-2", "NonLO_Certified", FAMILY1),
    ("h^-1 s1 s2^-1 s1 s2^-2", "NonLO_Certified",
     dict(FAMILY1, greene_presentation=4, closure_white_graph=3, cycle_graph_from_params=2)),
    ("h s2^4", "NonLO_FiniteGroup", dict(FINITE, smith_normal_form=1 + 3 + 1)),
    ("h s1^-2 s2^-1", "NonLO_FiniteGroup", dict(FINITE, smith_normal_form=1 + 1 + 1)),
    # the infinite dihedral group: proved infinite, never enumerated
    ("h^-1 s2^2", "Inconclusive", dict(FINITE, todd_coxeter=0, smith_normal_form=1 + 1)),
    # the tuple's graph is built for the certificate, and again by the recheck
    ("(3; 1,1,1; 1,1)", "NonLO_Certified",
     dict(CERTIFIED, greene_presentation=2, closure_white_graph=2, cycle_graph_from_params=2)),
]


def test_batch_contains_a_crash_to_its_line(monkeypatch):
    import braidcover.cli as cli

    def crash(pres):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "tietze_simplify", crash)   # finite route only
    lines = ["h s1 s2^-2 s1 s2^-2", "h s2^4", "(3; 1,1,1; 1,1)"]
    # the fanned-out workers are forked after the patch, so they crash too
    for workers in (1, 2):
        results, counts = run_batch(lines, workers=workers)
        assert [r["input"] for r in results] == lines
        assert results[0]["verdict"]["verdict"] == "NonLO_Certified"
        assert results[1] == {"input": "h s2^4", "error":
                              "internal error: RuntimeError in crash: boom"}
        assert results[2]["verdict"] == "NonLO_Certified"
        assert counts == {"ok": 2, "inconclusive": 0, "hypothesis_not_met": 0,
                          "input_error": 0, "soundness_failure": 1}


def test_batch_verifies_each_certificate_once(monkeypatch):
    calls = count_calls(monkeypatch, COUNTED)
    for line, verdict, want in COUNT_TABLE:
        calls.update(dict.fromkeys(COUNTED, 0))
        results, _ = run_batch([line])
        # a braid line's verdict is a report block, a tuple line's a string
        got = results[0]["verdict"]
        if isinstance(got, dict):
            got = got["verdict"]
        assert got == verdict, line
        assert calls == dict(dict.fromkeys(COUNTED, 0), **want), (line, calls)


def test_a_tampered_graph_fails_the_determinant_check(monkeypatch):
    # one edge sign flipped in the pipeline's graph: the determinant no
    # longer matches the input's SL2(Z) trace, on every route that draws one
    import braidcover.cli as cli

    def flipped(w):
        g = closure_white_graph(w)
        (u, v, s), *rest = g.edges
        return CheckerboardGraph(g.vertices, [(u, v, -s)] + rest, g.rotations, g.root)
    monkeypatch.setattr(cli, "closure_white_graph", flipped)
    for line, want in [("h s1 s2^-2 s1 s2^-2", "determinant 0 != |2 - trace| = 16"),
                       ("h s2^4", "determinant 12 != |2 - trace| = 4"),
                       ("s1 s2^-1 s1 s2^-2", "determinant 2 != |2 - trace| = 8")]:
        report, code = run_pipeline(line, canonical=True)
        assert code == 3, line
        assert report["soundness_error"] == want + " of the input's SL2(Z) image"


def test_split_closures_meet_the_trace_check():
    # s2^k leaves the hub region isolated: determinant 0, as the trace says.
    # s1^k closes as T(2,k) beside a loose strand, whose graph gives |k|
    # against the split link's 0, so it is refused as unsound
    for text in ("s2^3", "s2^-1"):
        report = {}
        w = parse_braid(text)
        _diagram_block(report, w, w)
        assert report["determinant"] == burau_determinant(w) == 0, text
    for text, k in (("s1^3", 3), ("s1^-2", 2)):
        w = parse_braid(text)
        with pytest.raises(SoundnessError, match="determinant %d != " % k):
            _diagram_block({}, w, w)


def test_certificate_check_formats_no_words(monkeypatch):
    # a passing check compares words; it prints none of them
    for params in [(3, (2, 1, 2), (1, 2)), (1, (3, 4), (1,))]:
        d = DecoratedCycleGraph(*params)
        cert, pres = certified(d)
        calls = count_calls(monkeypatch, ("format_word",))
        assert verify_certificate(cert, pres) == (True, [])
        assert calls == {"format_word": 0}, params
        monkeypatch.undo()


DOT_COUNTED = ("parse_braid", "expand_fulltwist", "closure_white_graph")


def test_dot_reuses_the_pipeline_graph(monkeypatch, tmp_path, capsys):
    # the cycle route draws its normal form, not the input
    dot = tmp_path / "graph.dot"
    report, _ = run_pipeline("h s1 s2^-1", canonical=True)
    graph = lambda text: closure_white_graph(expand_fulltwist(parse_braid(text))).to_json()
    assert report["normalization"]["word"] == "s2 s1^5"
    assert graph("s2 s1^5") != graph("h s1 s2^-1")
    want = graph_dot(graph("s2 s1^5"))
    calls = count_calls(monkeypatch, DOT_COUNTED)
    assert main(["pipeline", "h s1 s2^-1", "--dot", str(dot), "--canonical"]) == 0
    assert calls == dict.fromkeys(DOT_COUNTED, 1)
    assert dot.read_text() == want


def test_dot_of_unclassified_word(tmp_path, capsys):
    # no family, so no diagram block: --dot builds the graph itself
    dot = tmp_path / "graph.dot"
    assert main(["pipeline", "h^2 s2^5", "--dot", str(dot)]) == 1
    g = closure_white_graph(expand_fulltwist(parse_braid("h^2 s2^5")))
    assert dot.read_text() == graph_dot(g.to_json())


def test_dot_export_exit_codes(monkeypatch, tmp_path, capsys):
    # an empty word or a path that cannot be written is an input error; a
    # failed soundness check in the drawing of an unclassified word is
    # exit 3, as it is for a classified word, whose graph the pipeline draws
    dot = str(tmp_path / "graph.dot")
    assert main(["pipeline", "1", "--dot", dot]) == 2
    assert main(["pipeline", "s1 s2", "--dot", str(tmp_path / "no" / "x.dot")]) == 2
    assert capsys.readouterr().err.count("dot export failed") == 2
    monkeypatch.setattr(CheckerboardGraph, "euler_check", lambda self: False)
    assert main(["pipeline", "s1 s2", "--dot", dot]) == 3
    assert capsys.readouterr().err == ("dot export failed: soundness error: "
                                       "the white graph fails the Euler check\n")
    assert main(["pipeline", "h s1 s2^-1", "--dot", dot]) == 3
    assert not os.path.exists(dot)


def test_oversized_word_is_an_input_error(tmp_path):
    dot = tmp_path / "graph.dot"
    with pytest.raises(PipelineFailure) as err:
        run_pipeline("h^200000")
    assert err.value.code == 2
    assert main(["pipeline", "h^200000", "--dot", str(dot)]) == 2
    assert not dot.exists()


def test_oversized_grid_line_is_an_input_error():
    # s2^3 s1^999999 s2^-1 s1^2 has more letters than a braid line may
    line = "(3; 999999,2; 1)"
    t0 = time.perf_counter()
    results, counts = run_batch([line])
    assert time.perf_counter() - t0 < 0.5
    assert results == [{"input": line, "error": "cycle word has 1000005 letters, "
                        "more than MAX_LETTERS = 1000000"}]
    assert counts["input_error"] == 1
    results, counts = run_batch(["(3; 1,1,1; 1,1)"])
    assert results[0]["verdict"] == "NonLO_Certified" and counts["ok"] == 1


def test_out_of_range_grid_parameters_are_input_errors():
    lines = {"(0; 1,1; 1)": "need m >= 1 and len(a) == len(b) + 1",
             "(-5; 1,1; 1)": "need m >= 1 and len(a) == len(b) + 1",
             "(3; 1,0; 1)": "all a_i and b_i must be positive",
             "(3; 1,1; -1)": "all a_i and b_i must be positive",
             "(3; 1,1; 1,1)": "need m >= 1 and len(a) == len(b) + 1"}
    results, counts = run_batch(list(lines))
    assert results == [{"input": k, "error": v} for k, v in lines.items()]
    assert counts["input_error"] == 5 and counts["soundness_failure"] == 0
    results, counts = run_batch(["(3; 1; )"])
    assert counts["hypothesis_not_met"] == 1
    assert results[0]["reason"] == "degenerate cycle (n = 0)"


def test_empty_grid_fields_are_input_errors():
    # an empty field is not dropped: (3; 1,,1; 1) is not (3; 1,1; 1)
    lines = ["(3; 1,,1; 1)", "(3; 1,1,; 1)", "(3; 1,1; ,1)", "(3; 1, ,1; 1)"]
    results, counts = run_batch(lines)
    assert results == [{"input": k, "error": "unparseable grid line"} for k in lines]
    assert counts["input_error"] == 4 and counts["ok"] == 0


def test_long_segment_certifies_fast():
    t0 = time.perf_counter()
    report, code = run_pipeline("h s1 s2^-201 s1 s2^-2", canonical=True)
    assert time.perf_counter() - t0 < 0.5
    assert (code, report["verdict"]["verdict"]) == (0, "NonLO_Certified")


def test_batch_empty(tmp_path):
    grid = tmp_path / "empty.txt"
    grid.write_text("# nothing here\n")
    code, out, _ = run_cli("batch", str(grid), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"] == []


def test_main_entry():
    assert main(["classify", "h s2^5"]) == 0


def test_batch_exit_codes(monkeypatch, tmp_path, capsys):
    import braidcover.cli as cli

    assert main(["batch", str(tmp_path / "missing.txt")]) == 2
    assert "cannot read grid file" in capsys.readouterr().err
    lines = ["h s1 s2^-2 s1 s2^-2", "h s2^4", "(3; 1,1,1; 1,1)"]
    grid = tmp_path / "grid.txt"
    grid.write_text("\n".join(lines) + "\n")

    def crash(pres):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "tietze_simplify", crash)   # finite route only
    assert main(["batch", str(grid), "--json"]) == 3
    data = json.loads(capsys.readouterr().out)
    assert [r["input"] for r in data["results"]] == lines
    assert data["counts"]["ok"] == 2 and data["counts"]["soundness_failure"] == 1


def test_soundness_checks_survive_python_O():
    # -O strips assert statements; the white graph's Euler check must stay
    code, out, err = run_python("-O", "-c", """if True:
        import braidcover.diagram as diagram
        from braidcover.braid import parse_braid
        from braidcover.cli import PipelineFailure, run_pipeline
        diagram.CheckerboardGraph.euler_check = lambda self: False
        print(__debug__)
        try:
            diagram.closure_white_graph(parse_braid("s1 s2^-1 s1 s2^-2"))
        except diagram.DiagramError as e:
            print(e)
        try:
            run_pipeline("s1 s2^-1 s1 s2^-2")
        except PipelineFailure as e:
            print(e.code, e)
        """)
    assert code == 0, err
    assert out.splitlines() == [
        "False", "the white graph fails the Euler check",
        "3 internal error: DiagramError in closure_white_graph: "
        "the white graph fails the Euler check"]


def test_batch_workers_deterministic(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("h s1 s2^-2 s1 s2^-2\n(3; 1,1,1; 1,1)\nh s2^4\nh^-1 s1 s2^-2\n")
    lines = grid.read_text().splitlines()
    # a mixed batch long enough that each worker takes chunks of lines
    for k in range(1, 7):
        lines += ["h" + " s1 s2^-2" * k, "h^-1" + " s1 s2^-2" * k,
                  "h s2^%d" % k, "h^-1 s2^%d" % (k + 2),
                  "(%d; %s; %s)" % (k % 3 + 1, ",".join(["2"] * (k + 1)),
                                    ",".join(["1"] * k)),
                  "s1 s2^%d" % k, "bogus %d" % k, "(1; 1,1; 1)"]
    seq = run_batch(lines, workers=1)
    assert seq[1]["ok"] > 20 and seq[1]["input_error"] == 6
    par = run_batch(lines, workers=2)
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_pipeline_contains_a_crash(monkeypatch, capsys):
    import braidcover.cli as cli

    def crash(pres):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "tietze_simplify", crash)
    assert main(["pipeline", "h s2^3"]) == 3
    assert capsys.readouterr().err == \
        "error: internal error: RuntimeError in crash: boom\n"
    with pytest.raises(PipelineFailure) as err:
        run_pipeline("h s2^3")
    assert err.value.code == 3


def test_infinite_subgroup_is_inconclusive(monkeypatch):
    # without the index-2 test, the infinite dihedral group is caught by
    # its infinite cyclic subgroup of index 2
    import braidcover.cli as cli
    monkeypatch.setattr(cli, "infinite_witness", lambda pres: None)
    report, code = run_pipeline("h^-1 s2^2", canonical=True)
    assert code == 1
    assert report["verdict"]["verdict"] == "Inconclusive"
    assert "has index 2 and infinite abelianization" in \
        report["verdict"]["justification"]


# ---------------------------------------------------------------------------
# The finite route presents the family member its class names, in the
# colouring with fewer regions.
# ---------------------------------------------------------------------------

def random_reduced(rng, n):
    """A freely reduced word of n random letters."""
    letters = []
    while len(letters) < n:
        x = rng.choice(((1, 1), (1, -1), (2, 1), (2, -1)))
        if not letters or letters[-1] != (x[0], -x[1]):
            letters.append(x)
    return tuple(letters)


def conjugate(u, text):
    """The braid line u w u^-1 for the member w spelled by text."""
    w = parse_braid(text)
    inverse = tuple((g, -s) for g, s in reversed(u))
    return format_braid(BraidWord(u + w.letters + inverse, w.fulltwist))


def test_finite_route_presents_the_member_in_fewer_regions():
    report, code = run_pipeline("s1 h s2^5 s1^-1", canonical=True)
    assert (code, report["group_order"]) == (0, 28)
    assert report["presented"] == {"word": "h s1^5", "exchange": True}
    assert report["presentation"]["generators"] == ["w0", "w1", "w2"]
    # family (3) keeps the member: one s2 letter against |m|, a tie at m = -1
    for line, word in [("s2 h^2 s1^-3 s2^-1 s2^-1", "h^2 s2^-1 s1^-3"),
                       ("h s2^-1 s1^-1", "h s2^-1 s1^-1")]:
        report, code = run_pipeline(line, canonical=True)
        assert report["presented"] == {"word": word, "exchange": False}, line


def test_disguised_h_s2_7_keeps_its_order():
    rng = random.Random(5)
    for n in (70, 100, 400):
        line = conjugate(random_reduced(rng, n), "h s2^7")
        best = inf
        for _ in range(3):
            t0 = time.perf_counter()
            report, code = run_pipeline(line, canonical=True)
            best = min(best, time.perf_counter() - t0)
        assert (code, report["group_order"]) == (0, 36), n
        assert best < 0.5, (n, best)


def test_disguised_members_keep_their_verdicts():
    # family (2) has d = +-1, family (3) d in -1..2 and m in -3..-1
    members = ["h^%d s2^%d" % (d, m) for d in (1, -1) for m in range(-9, 10)]
    members += ["h^%d s2^-1 s1^%d" % (d, m) for d in range(-1, 3) for m in (-1, -2, -3)]
    rng = random.Random(17)
    for text in members:
        bare, _ = run_pipeline(text, canonical=True)
        line = conjugate(random_reduced(rng, rng.randint(1, 400)), text)
        report, _ = run_pipeline(line, canonical=True)
        assert report["class"] == bare["class"], line
        assert report["verdict"]["verdict"] == bare["verdict"]["verdict"], line
        assert report.get("group_order") == bare.get("group_order"), line
        d, m = bare["class"]["d"], bare["class"]["m"]
        if bare["class"]["type"] == 2 and m != -2 * d:
            # the family (2) closed form, used here only as an oracle
            assert report["group_order"] == 4 * abs(m + 2 * d), line


def test_finite_route_moves_must_reach_the_member(monkeypatch, capsys):
    # the twist is spelled out, so only the class's extraction reaches h s2^5
    import braidcover.cli as cli
    line = "s2 s1 s2 s1 s2 s1 s2^5"
    cls = classify_baldwin(parse_braid(line))
    assert run_pipeline(line, canonical=True)[0]["presented"]["word"] == "h s1^5"
    monkeypatch.setattr(cli, "classify_baldwin", lambda w: cls._replace(moves=()))
    report, code = run_pipeline(line, canonical=True)
    assert code == 3
    assert report["soundness_error"] == "the class moves do not replay to h s2^5"
    assert main(["pipeline", line]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "soundness error: the class moves do not replay to h s2^5"


def test_cycle_route_class_must_reach_its_unit_form(monkeypatch):
    # the normalizer replays the class it is handed and checks what that
    # reaches: a class short of its last extraction, or with another a,
    # fails the line with exit 3
    import braidcover.cli as cli
    line = "s2 s1 s2 s1 s2 s1 s1 s2^-2 s1 s2^-2"
    cls = classify_baldwin(parse_braid(line))
    assert run_pipeline(line, canonical=True)[1] == 0
    last = max(i for i, move in enumerate(cls.moves) if move[0] == "extract_h")
    for bad in (cls._replace(moves=cls.moves[:last] + cls.moves[last + 1:]),
                cls._replace(a=(2, 3))):
        monkeypatch.setattr(cli, "classify_baldwin", lambda w: bad)
        report, code = run_pipeline(line, canonical=True)
        assert code == 3
        assert report["soundness_error"].startswith(
            "normalization failed: the class moves reach"), report["soundness_error"]


def test_finite_route_lines_present_at_most_7_generators():
    # on every workload line the finite route takes, the presented graph has
    # the determinant of the input's own graph, and what Tietze leaves of its
    # presentation is small enough for every map onto Z/2 to be tried
    finite = 0
    for line in workload_lines():
        w = parse_braid(line)
        if classify_baldwin(w).kind not in (2, 3):
            continue
        report, _ = run_pipeline(line, canonical=True)
        assert len(report["presentation"]["generators"]) <= 7, line
        word = expand_fulltwist(parse_braid(report["presented"]["word"]))
        pres = tietze_simplify(greene_presentation(closure_white_graph(word)))
        assert len(pres.generators) <= WITNESS_MAX_GENERATORS, line
        g = closure_white_graph(expand_fulltwist(w))
        assert report["determinant"] == abs(goeritz_matrix(g).determinant()), line
        finite += 1
    assert finite > 300


def test_family2_chains_run_fast():
    # the member's exchange has three regions whatever m is
    for line in ("h s2^4000", "h^-1 s2^-4000"):
        best = inf
        for _ in range(3):
            t0 = time.perf_counter()
            report, code = run_pipeline(line, canonical=True)
            best = min(best, time.perf_counter() - t0)
        assert (code, report["group_order"]) == (0, 16008), line
        assert best < 0.5, (line, best)


def test_family2_long_runs_run_fast():
    # the member is built, drawn and rewritten a run at a time, so |m| = 10^5
    # takes about 0.25 s (best of 3 on a 2-core host); the bound is twice that
    for line in ("h s2^100000", "h^-1 s2^-100000"):
        best = inf
        for _ in range(3):
            t0 = time.perf_counter()
            report, code = run_pipeline(line, canonical=True)
            best = min(best, time.perf_counter() - t0)
        assert (code, report["verdict"]["verdict"]) == (0, "NonLO_FiniteGroup"), line
        assert report["group_order"] == 400008 == 4 * abs(100000 + 2), line
        assert best < 0.5, (line, best)


def test_long_alternating_closure_runs_fast():
    # 8,000 Goeritz rows and a determinant of 3,344 digits: the Smith form
    # pivots on least entries, so entries stay small until the last pivots
    text = "s1 s2^-1 " * 8000
    best = inf
    for _ in range(3):
        t0 = time.perf_counter()
        report, code = run_pipeline(text, canonical=True)
        best = min(best, time.perf_counter() - t0)
    assert (code, report["verdict"]["verdict"]) == (0, "NonLO_Alternating")
    assert report["determinant"] == burau_determinant(parse_braid(text))
    assert best < 2.0, best


def test_dot_of_the_finite_route_is_the_presented_graph(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    assert main(["pipeline", "h s2^5", "--dot", str(dot), "--json", "--canonical"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["presentation"]["generators"]) == 3
    assert dot.read_text() == graph_dot(report["graph"])
    g = closure_white_graph(expand_fulltwist(parse_braid("h s1^5")))
    assert report["graph"] == g.to_json()


def test_text_report_names_the_presented_word(capsys):
    assert main(["pipeline", "s1 h s2^5 s1^-1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2] == "presented: h s1^5 (s1 <-> s2 exchanged)"
    assert main(["pipeline", "h s1 s2^-2 s1 s2^-2"]) == 0
    assert "presented:" not in capsys.readouterr().out
