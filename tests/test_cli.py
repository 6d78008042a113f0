import json
import os
import subprocess
import sys

import pytest

import braidcover
from braidcover.cli import main, run_pipeline, run_batch, PipelineFailure

# the child process imports the same braidcover as the tests, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(braidcover.__file__)))


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "braidcover.cli", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    return proc.returncode, proc.stdout, proc.stderr


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


def test_pipeline_alternating_flagged_external():
    report, code = run_pipeline("s1 s2^-1", canonical=True)
    assert code == 0
    assert report["verdict"]["verdict"] == "NonLO_Alternating"
    assert report["verdict"]["machine_checked"] is False


def test_pipeline_not_in_family():
    report, code = run_pipeline("s1 s2", canonical=True)
    assert code == 1
    assert report["verdict"]["verdict"] == "Inconclusive"


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


CERTIFIED = {"verify_certificate": 1, "verify_lemma_left": 1, "left_elimination": 1,
             "verify_lemma_right": 1, "verify_product_relation": 1}
FAMILY1 = dict(CERTIFIED, twist_search=2, classify_baldwin=2, expand_fulltwist=2,
               greene_presentation=1, cycle_relators=2)
FINITE = {"twist_search": 1, "classify_baldwin": 1, "expand_fulltwist": 1,
          "greene_presentation": 1}
COUNTED = tuple(FAMILY1)
# line, verdict, calls per counted function (0 where absent); the second
# classification of a family (1) line is the normalizer's own
COUNT_TABLE = [
    ("h s1 s2^-2 s1 s2^-2", "NonLO_Certified", FAMILY1),
    ("h^-1 s1 s2^-1 s1 s2^-2", "NonLO_Certified", FAMILY1),
    ("h s2^4", "NonLO_FiniteGroup", FINITE),
    ("h s1^-2 s2^-1", "NonLO_FiniteGroup", FINITE),
    ("(3; 1,1,1; 1,1)", "NonLO_Certified", dict(CERTIFIED, cycle_relators=2)),
]


def test_batch_verifies_each_certificate_once(monkeypatch):
    # every braidcover namespace that holds a counted function gets a
    # counting wrapper, so calls inside a module are counted too
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("braidcover."):
            for name in COUNTED:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    for line, verdict, want in COUNT_TABLE:
        calls.update(dict.fromkeys(COUNTED, 0))
        results, _ = run_batch([line])
        # a braid line's verdict is a report block, a tuple line's a string
        got = results[0]["verdict"]
        if isinstance(got, dict):
            got = got["verdict"]
        assert got == verdict, line
        assert calls == dict(dict.fromkeys(COUNTED, 0), **want), (line, calls)


def test_oversized_word_is_an_input_error(tmp_path):
    dot = tmp_path / "graph.dot"
    with pytest.raises(PipelineFailure) as err:
        run_pipeline("h^200000")
    assert err.value.code == 2
    assert main(["pipeline", "h^200000", "--dot", str(dot)]) == 2
    assert not dot.exists()


def test_batch_empty(tmp_path):
    grid = tmp_path / "empty.txt"
    grid.write_text("# nothing here\n")
    code, out, _ = run_cli("batch", str(grid), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["results"] == []


def test_main_entry():
    assert main(["classify", "h s2^5"]) == 0


def test_batch_workers_deterministic(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("h s1 s2^-2 s1 s2^-2\n(3; 1,1,1; 1,1)\nh s2^4\nh^-1 s1 s2^-2\n")
    lines = grid.read_text().splitlines()
    seq = run_batch(lines, workers=1)
    par = run_batch(lines, workers=2)
    assert json.dumps(seq, sort_keys=True) == json.dumps(par, sort_keys=True)


def test_pipeline_cone_depth():
    report, code = run_pipeline("h s1^-2 s2^-1", canonical=True, cone_depth=6)
    assert code == 0
    assert "derivations" in report["positive_cone"]
