"""Command-line surface: exit codes, envelopes, round-trips, golden files.

Golden outputs live in tests/golden/expected/ and are compared byte-for-byte.
The CROSS_ORDER cases emit only constant/monomial polynomial strings, so the
bytes must also survive any --order setting; order-sensitive outputs are only
pinned under the default order.
"""

import copy
import json
import string
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given
from hypothesis import strategies as st

from koszul_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
runner = CliRunner()


def run(*args, env=None):
    result = runner.invoke(main, list(args), env=env)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result.output, result.exit_code


def write_doc(tmp_path, doc, name="in.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


RING_Q2 = {"field": "Q", "vars": ["x", "y"], "order": "grevlex"}

TYP_XY = {
    "ring": RING_Q2,
    "cube": {
        "S": ["1", "2"],
        "vertices": {"": 1, "1": 1, "2": 1, "1,2": 1},
        "boundaries": {"1|1": [["x"]], "2|2": [["y"]],
                       "1,2|1": [["x"]], "1,2|2": [["y"]]},
    },
    "sequence": ["x", "y"],
}


# --------------------------------------------------------------------------
# exit-code contract
# --------------------------------------------------------------------------

def test_exit_codes(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    assert run("koszul-check", "--input", doc)[1] == 0
    assert run("regseq", "--input", write_doc(tmp_path, {
        "ring": RING_Q2, "sequence": ["x", "x"]}, "r.json"))[1] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out, code = run("validate", "--input", str(bad))
    assert code == 2
    env = json.loads(out)
    assert env["error"]["type"] == "input"
    assert "line 1" in env["error"]["message"]
    out, code = run("aseq", "--perm-cap", "2", "--input", write_doc(tmp_path, {
        "ring": {"field": "Q", "vars": ["x", "y", "z"], "order": "grevlex"},
        "sequence": ["x", "y", "z"]}, "a.json"))
    assert code == 3
    assert json.loads(out)["error"]["type"] == "cap"


def test_exponent_beyond_the_term_keys_is_a_cap_error(tmp_path):
    # the Groebner engine packs a term into one int with 32-bit fields, so it
    # refuses an exponent or total degree of 2^31 or more rather than wrap it
    out, code = run("aseq", "--input", write_doc(tmp_path, {
        "ring": RING_Q2, "sequence": ["x^2147483648", "y"]}))
    assert code == 3
    env = json.loads(out)
    assert env["error"]["type"] == "cap"
    assert "2^31" in env["error"]["message"]
    # x^(2^31 - 2)·y, the largest term the check forms, is still below the bound
    assert run("aseq", "--input", write_doc(tmp_path, {
        "ring": RING_Q2, "sequence": ["x^2147483646", "y"]}, "b.json"))[1] == 0


def test_document_nested_too_deeply_is_input_error(tmp_path):
    # the JSON decoder's recursion error used to exit 4, "internal"
    deep = tmp_path / "deep.json"
    deep.write_text('{"ring": ' + "[" * 1000 + "]" * 1000 + "}")
    out, code = run("regseq", "--input", str(deep))
    assert code == 2
    assert json.loads(out)["error"] == {"type": "input",
                                        "message": "malformed JSON: nested too deeply"}


def test_missing_file_is_input_error(tmp_path):
    out, code = run("validate", "--input", str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


def test_parse_error_carries_position(tmp_path):
    doc = write_doc(tmp_path, {"ring": RING_Q2, "sequence": ["x +"]})
    out, code = run("regseq", "--input", doc)
    assert code == 2
    assert "position" in json.loads(out)["error"]["message"]


def test_precondition_failure_is_input_error(tmp_path):
    # reduced-check on a non-Koszul cube: precondition, not a false verdict
    doc = dict(TYP_XY)
    doc = json.loads(json.dumps(TYP_XY))
    doc["cube"]["boundaries"]["1|1"] = [["y"]]
    doc["cube"]["boundaries"]["1,2|1"] = [["y"]]
    out, code = run("reduced-check", "--input", write_doc(tmp_path, doc))
    assert code == 2


ONE_CUBE = {"S": ["1"], "vertices": {"": 1, "1": 1}, "boundaries": {"1|1": [["x"]]}}

# each of these used to be accepted or end in a traceback with exit 1, which
# reads as "verdict false"
MALFORMED_CASES = [
    ("cube_not_object", "validate", {"ring": RING_Q2, "cube": []}),
    ("rank_not_integer", "validate",
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "vertices": {"": 1, "1": [1]}}}),
    ("rank_not_whole", "validate",
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "vertices": {"": 1.7, "1": 1}}}),
    ("complex_rank_not_integer", "be-check",
     {"ring": RING_Q2, "complex": {"ranks": [1, [1]], "differentials": [[["x"]]]}}),
    ("fs_not_object", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": [], "targets": []}}),
    ("relations_not_rows", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": 5}}}]}}),
    ("resolve_labels_not_list", "resolve",
     {"ring": RING_Q2, "resolution": {"U": "1", "V": [], "fs": {"1": "x"}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [["x"]]}}}]}}),
    ("connecting_not_object", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "connecting": [5],
                                      "targets": [{"S": [], "vertices": {"": {"rank": 1}}}] * 2}}),
    ("target_unknown_vertex_key", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [["x"]]}, "zzz": {"rank": 7}}}]}}),
    ("typical_label_not_string", "typical",
     {"ring": RING_Q2, "sequence": ["x"], "labels": [1]}),
    ("label_collides_with_subset_key", "validate",
     {"ring": RING_Q2, "cube": {"S": ["a,b"], "vertices": {"": 1, "a,b": 1},
                                "boundaries": {"a,b|a,b": [["x"]]}}}),
    ("order_list", "regseq", {"ring": {**RING_Q2, "order": ["lex"]}, "sequence": ["x"]}),
    ("order_object", "regseq", {"ring": {**RING_Q2, "order": {"a": 1}}, "sequence": ["x"]}),
    ("complex_not_object", "be-check", {"ring": RING_Q2, "complex": [1, 2]}),
    ("differentials_not_list", "be-check",
     {"ring": RING_Q2, "complex": {"ranks": [1, 1], "differentials": 5}}),
    # a misspelt key used to fall back to its default: the free module A,
    # the field Q, the order grevlex
    ("vertex_misspelt_relations", "validate",
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "vertices": {"": {"rank": 1, "relation": [["y"]]},
                                                         "1": 1}}}),
    ("ring_misspelt_field", "regseq",
     {"ring": {"feild": {"Fp": 7}, "vars": ["x"]}, "sequence": ["7*x"]}),
    ("ring_misspelt_order", "regseq", {"ring": {**RING_Q2, "ordr": "lex"}, "sequence": ["x"]}),
    # a sequence entry for a label outside U ∪ V used to be ignored
    ("fs_label_outside_u_v", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": ["1"], "fs": {"1": "x", "l": "y"},
                                      "targets": [ONE_CUBE]}}),
    # a characteristic this large used to overflow the primality test's
    # square root, a traceback with exit 1
    ("field_beyond_two_to_the_64", "regseq",
     {"ring": {"field": {"Fp": 10 ** 400}, "vars": ["x"]}, "sequence": ["x"]}),
    ("field_below_two", "regseq",
     {"ring": {"field": {"Fp": -7}, "vars": ["x"]}, "sequence": ["x"]}),
    # parentheses nested past the recursion limit used to exit 4, "internal"
    ("polynomial_nested_too_deeply", "regseq",
     {"ring": RING_Q2, "sequence": ["(" * 250 + "x" + ")" * 250]}),
]


@pytest.mark.parametrize("command,doc", [c[1:] for c in MALFORMED_CASES],
                         ids=[c[0] for c in MALFORMED_CASES])
def test_malformed_document_is_input_error(tmp_path, command, doc):
    out, code = run(command, "--input", write_doc(tmp_path, doc))
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


# a non-string where a polynomial, a variable name or a label belongs used to
# be read through str(): null became the text "None", which is a variable of
# the sequence case's ring and the label of the V case's target
NON_STRING_CASES = [
    ("matrix", "validate",
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "boundaries": {"1|1": [[None]]}}},
     'cube.boundaries["1|1"][0][0]'),
    ("sequence", "regseq",
     {"ring": {"field": "Q", "vars": ["x", "None"]}, "sequence": ["x", None]},
     "sequence[1]"),
    ("relations", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [[True]]}}}]}},
     'resolution.targets[0].vertices[""].relations[0][0]'),
    ("fs", "resolve",
     {"ring": RING_Q2, "resolution": {"U": ["1"], "V": [], "fs": {"1": 1}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [["x"]]}}}]}},
     'resolution.fs["1"]'),
    ("vars", "regseq",
     {"ring": {"field": "Q", "vars": [1, 2]}, "sequence": ["1"]},
     "ring.vars[0]"),
    ("cube_label", "validate",
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "S": [1]}},
     "cube.S[0]"),
    ("target_label", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": ["1"], "fs": {"1": "x"}, "targets": [
         {"S": [1], "vertices": {"": {"rank": 1}, "1": {"rank": 1}},
          "boundaries": {"1|1": [["x"]]}}]}},
     "resolution.targets[0].S[0]"),
    ("U_label", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [1], "V": [], "fs": {"1": "x"}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [["x"]]}}}]}},
     "resolution.U[0]"),
    ("V_label", "resolve",
     {"ring": RING_Q2, "resolution": {"U": [], "V": [None], "fs": {"None": "x"}, "targets": [
         {"S": ["None"], "vertices": {"": {"rank": 1}, "None": {"rank": 1}},
          "boundaries": {"None|None": [["x"]]}}]}},
     "resolution.V[0]"),
    ("typical_label", "typical",
     {"ring": RING_Q2, "sequence": ["x"], "labels": [1]},
     "labels[0]"),
]


@pytest.mark.parametrize("command,doc,path", [c[1:] for c in NON_STRING_CASES],
                         ids=[c[0] for c in NON_STRING_CASES])
def test_non_string_polynomial_is_input_error(tmp_path, command, doc, path):
    out, code = run(command, "--input", write_doc(tmp_path, doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert err["message"].startswith(f"{path} must be a string")


@pytest.mark.parametrize("p", [2.5, "7", True], ids=["float", "string", "bool"])
def test_field_characteristic_must_be_json_integer(tmp_path, p):
    # int() used to read 2.5 as GF(2) and "7" as GF(7), each with verdict true
    doc = {"ring": {"field": {"Fp": p}, "vars": ["x"]}, "sequence": ["x"]}
    out, code = run("regseq", "--input", write_doc(tmp_path, doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert "Fp" in err["message"]


def test_resolve_non_admissible_target_is_input_error(tmp_path):
    # Typ(x, y, x+y) is injective one H_0 level down, but not two: on
    # H_0^1 H_0^2 = A/(x, y) the third boundary x+y is zero
    labels = ["1", "2", "3"]
    f = {"1": "x", "2": "y", "3": "x + y"}
    subsets = [[lab for i, lab in enumerate(labels) if n >> i & 1] for n in range(8)]
    target = {"S": labels,
              "vertices": {",".join(T): {"rank": 1} for T in subsets},
              "boundaries": {f"{','.join(T)}|{k}": [[f[k]]] for T in subsets for k in T}}
    doc = {"ring": {"field": "Q", "vars": ["x", "y", "z"]},
           "resolution": {"U": [], "V": labels, "fs": {"1": "x", "2": "y", "3": "z"},
                          "targets": [target]}}
    out, code = run("resolve", "--input", write_doc(tmp_path, doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert "target 0: H0^1·H0^2·boundary d^3_{3} is not injective" in err["message"]


def test_failed_reverification_is_internal_error(monkeypatch):
    # koszul_resolve raises RuntimeError when its own check of the result fails
    import koszul_lab.resolve
    from koszul_lab.cube import Report
    monkeypatch.setattr(koszul_lab.resolve, "check_resolution",
                        lambda out, inp: Report(False, ("(a) forced failure",)))
    out, code = run("resolve", "--input", golden_in("resolve_onecube.json"))
    assert code == 4
    err = json.loads(out)["error"]
    assert err["type"] == "internal"
    assert "failed verification" in err["message"]


COMMANDS = ["admissible", "aseq", "be-check", "det", "factor-lemma", "fitting", "generators",
            "grade", "h0", "homology", "koszul-check", "random-koszul", "reduced-check",
            "regseq", "resolve", "tot", "typical", "validate", "weight-decomp"]


def test_every_command_has_the_common_options():
    assert sorted(main.commands) == COMMANDS
    for name, command in main.commands.items():
        params = {opt: p for p in command.params for opt in p.opts}
        assert params["--input"].required, name
        assert params["--json"].name == params["--text"].name == "fmt", name
        defaults = {opt: params[opt].default
                    for opt in ("--order", "--seed", "--max-power", "--perm-cap", "--json")}
        assert defaults == {"--order": None, "--seed": 0, "--max-power": 64, "--perm-cap": 6,
                            "--json": True}, name


# one vertex carries relations: A --x--> A/(y), whose kernel (y) is not zero
MODULE_VERTEX_CUBE = {"ring": RING_Q2, "cube": {
    "S": ["1"], "vertices": {"": {"rank": 1, "relations": [["y"]]}, "1": 1},
    "boundaries": {"1|1": [["x"]]}}}


def test_cube_document_accepts_module_vertices(tmp_path):
    doc = write_doc(tmp_path, MODULE_VERTEX_CUBE)
    assert run("validate", "--input", doc)[1] == 0
    out, code = run("admissible", "--strategy", "inductive", "--input", doc)
    assert code == 1
    assert "boundary d^1_{1} is not injective" in json.loads(out)["details"]["failures"][0]
    # a command that needs a free cube rejects it as input, not as a verdict
    out, code = run("tot", "--input", doc)
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert "expected a cube of free modules" in err["message"]


@pytest.mark.parametrize("command,doc,where,allowed", [
    ("admissible", {"ring": RING_Q2, "cube": {**ONE_CUBE, "vertices": {
        "": {"rank": 1, "relation": [["y"]]}, "1": 1}}},
     'cube.vertices[""]', ["rank", "relations"]),
    ("regseq", {"ring": {"feild": {"Fp": 7}, "vars": ["x"]}, "sequence": ["7*x"]},
     "ring", ["field", "vars", "order"]),
    ("regseq", {"ring": {**RING_Q2, "ordr": "lex"}, "sequence": ["x"]},
     "ring", ["field", "vars", "order"]),
    ("validate", {"ring": RING_Q2, "cube": {**ONE_CUBE, "boundary": {}}},
     "cube", ["S", "vertices", "boundaries"]),
    ("resolve", {"ring": RING_Q2, "resolution": {"u": ["1"], "V": [], "fs": {"1": "x"},
                                                 "targets": [ONE_CUBE]}},
     "resolution", ["U", "V", "fs", "targets", "connecting"]),
    ("resolve", {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "targets": [
        {"S": [], "vertices": {"": 1}, "S ": ["1"]}]}},
     "resolution.targets[0]", ["S", "vertices", "boundaries"]),
    ("be-check", {"ring": RING_Q2, "complex": {"ranks": [1], "differential": []}},
     "complex", ["ranks", "differentials"]),
    ("resolve", {"ring": RING_Q2, "resolution": {"U": ["2"], "V": ["1"],
                                                 "fs": {"1": "x", "2": "y", "3": "x"},
                                                 "targets": [ONE_CUBE]}},
     "resolution.fs", ["2", "1"]),
], ids=["vertex", "field", "order", "cube", "resolution", "target", "complex", "fs"])
def test_unknown_keys_name_their_json_path_and_the_allowed_keys(tmp_path, command, doc, where,
                                                                allowed):
    out, code = run(command, "--input", write_doc(tmp_path, doc))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "input"
    assert f"'{where}'" in error["message"]
    assert str(allowed) in error["message"]


def test_document_keys_are_closed(tmp_path):
    # "labls" used to be ignored, so typical fell back to its default labels
    doc = write_doc(tmp_path, {"ring": RING_Q2, "sequence": ["x"], "labls": ["a"]})
    out, code = run("typical", "--input", doc)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "input"
    assert "unknown keys ['labls'] in the input document" in error["message"]


@pytest.mark.parametrize("key", [",", "9"])
def test_connecting_keys_are_subset_keys(tmp_path, key):
    # "," used to split into the empty subset, and "9" failed naming no path
    target = {"S": [], "vertices": {"": {"rank": 1}}}
    doc = write_doc(tmp_path, {"ring": RING_Q2, "resolution": {
        "U": [], "V": [], "fs": {}, "targets": [target, target],
        "connecting": [{key: [["1"]]}]}})
    out, code = run("resolve", "--input", doc)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "input"
    assert f"resolution.connecting[0][{json.dumps(key)}]" in error["message"]


def test_target_errors_name_their_json_path(tmp_path):
    doc = write_doc(tmp_path, {"ring": RING_Q2, "resolution": {
        "U": [], "V": [], "fs": {}, "targets": [{"S": [], "vertices": [1]}]}})
    out, code = run("resolve", "--input", doc)
    assert code == 2
    assert "resolution.targets[0].vertices" in json.loads(out)["error"]["message"]


ONE_TARGET = {"S": [], "vertices": {"": {"rank": 1}}}

# a value of the wrong shape: the error names its JSON path, the missing or
# unknown key as where["key"] and a row of a matrix as where[i]
SHAPE_ERROR_CASES = [
    ("missing_target_boundary", ["resolve"],
     {"ring": RING_Q2, "resolution": {"U": [], "V": ["1"], "fs": {"1": "x"},
                                      "targets": [ONE_CUBE, {**ONE_CUBE, "boundaries": {}}],
                                      "connecting": [{"": [["1"]], "1": [["1"]]}]}},
     'resolution.targets[1].boundaries["1|1"]'),
    ("boundary_too_many_rows", ["validate"],
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "boundaries": {"1|1": [["x"], ["y"]]}}},
     'cube.boundaries["1|1"]'),
    ("ragged_differential", ["be-check"],
     {"ring": RING_Q2, "complex": {"ranks": [2, 1], "differentials": [[["x"], ["y", "x"]]]}},
     "complex.differentials[0][1]"),
    ("ragged_fitting_matrix", ["fitting", "--size", "1"],
     {"ring": RING_Q2, "matrix": [["x", "y"], ["x"]]},
     "matrix[1]"),
    ("missing_connecting_key", ["resolve"],
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {},
                                      "targets": [ONE_TARGET, ONE_TARGET], "connecting": [{}]}},
     'resolution.connecting[0][""]'),
    ("negative_complex_rank", ["be-check"],
     {"ring": RING_Q2, "complex": {"ranks": [1, -1], "differentials": [[]]}},
     "complex.ranks[1]"),
    ("missing_vertex", ["validate"],
     {"ring": RING_Q2, "cube": {**ONE_CUBE, "vertices": {"": 1}}},
     'cube.vertices["1"]'),
    ("unknown_boundary_key", ["validate"],
     {"ring": RING_Q2, "cube": {**TYP_XY["cube"], "boundaries": {**TYP_XY["cube"]["boundaries"],
                                                                 "2|1": [["x"]]}}},
     'cube.boundaries["2|1"]'),
    ("connecting_row_too_long", ["resolve"],
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {},
                                      "targets": [ONE_TARGET, ONE_TARGET],
                                      "connecting": [{"": [["1", "1"]]}]}},
     'resolution.connecting[0][""][0]'),
    ("relations_row_too_long", ["resolve"],
     {"ring": RING_Q2, "resolution": {"U": [], "V": [], "fs": {}, "targets": [
         {"S": [], "vertices": {"": {"rank": 1, "relations": [["x", "y"]]}}}]}},
     'resolution.targets[0].vertices[""].relations[0]'),
]


@pytest.mark.parametrize("args,doc,path", [c[1:] for c in SHAPE_ERROR_CASES],
                         ids=[c[0] for c in SHAPE_ERROR_CASES])
def test_shape_errors_name_their_json_path(tmp_path, args, doc, path):
    out, code = run(*args, "--input", write_doc(tmp_path, doc))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["type"] == "input"
    assert path in err["message"]


# --------------------------------------------------------------------------
# envelope and reproducibility header
# --------------------------------------------------------------------------

def test_envelope_fields(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    out, _ = run("koszul-check", "--input", doc, "--seed", "9", "--max-power", "32")
    env = json.loads(out)
    assert env["schema"] == "koszul-lab/report/v1"
    assert env["command"] == "koszul-check"
    assert env["options"] == {"seed": 9, "max_power": 32, "perm_cap": 6}
    assert env["verdict"] is True
    assert env["details"]["diagnostics"]["1|1"]["injective"] is True


def test_text_mode(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    out, code = run("validate", "--input", doc, "--text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: validate"
    assert lines[1].startswith("options: ")
    assert "verdict: pass" in lines
    # an error envelope has an error line in place of verdict and details
    out, code = run("validate", "--input", str(tmp_path / "absent.json"), "--text")
    assert code == 2
    assert [line.split(": ")[0] for line in out.splitlines()] == ["command", "options",
                                                                  "error[input]"]


def test_determinism_two_runs(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    a = run("homology", "--input", doc)
    b = run("homology", "--input", doc)
    assert a == b
    c = run("random-koszul", "--input", doc, "--seed", "5")
    d = run("random-koszul", "--input", doc, "--seed", "5")
    assert c == d
    e = run("random-koszul", "--input", doc, "--seed", "6")
    assert e[0] != c[0]


# --------------------------------------------------------------------------
# round-trips
# --------------------------------------------------------------------------

def test_emitted_cube_reparses_equal(tmp_path):
    doc = write_doc(tmp_path, {"ring": RING_Q2, "sequence": ["x", "y"]})
    out, code = run("typical", "--input", doc)
    assert code == 0
    cube_doc = json.loads(out)["details"]["cube"]
    assert cube_doc == TYP_XY["cube"]
    # feed it straight back in
    doc2 = write_doc(tmp_path, {"ring": RING_Q2, "cube": cube_doc,
                                "sequence": ["x", "y"]}, "back.json")
    out2, code2 = run("koszul-check", "--input", doc2)
    assert code2 == 0 and json.loads(out2)["verdict"] is True


def test_emitted_complex_reparses(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    out, _ = run("tot", "--input", doc)
    complex_doc = json.loads(out)["details"]["complex"]
    doc2 = write_doc(tmp_path, {"ring": RING_Q2, "complex": complex_doc}, "c.json")
    out2, code2 = run("be-check", "--input", doc2)
    assert code2 == 0
    # and tot of the emitted random cube re-parses too
    out3, _ = run("random-koszul", "--input", doc, "--seed", "3")
    cube_doc = json.loads(out3)["details"]["cube"]
    doc3 = write_doc(tmp_path, {"ring": {"field": RING_Q2["field"],
                                         "vars": RING_Q2["vars"],
                                         "order": "grevlex"},
                                "cube": cube_doc, "sequence": ["x", "y"]}, "r.json")
    assert run("validate", "--input", doc3)[1] == 0


def test_resolve_command(tmp_path):
    doc = write_doc(tmp_path, {
        "ring": RING_Q2,
        "resolution": {
            "U": [], "V": ["1"], "fs": {"1": "x"},
            "targets": [{"S": ["1"],
                         "vertices": {"": {"rank": 1}, "1": {"rank": 1}},
                         "boundaries": {"1|1": [["x^2"]]}}],
        }})
    out, code = run("resolve", "--input", doc)
    assert code == 0
    details = json.loads(out)["details"]
    assert details["exponents"] == {"1": 2}
    assert details["g"] == {"1": "x^2"}
    assert details["stages"][0]["multiplicities"] == {"": 1, "1": 1}
    # cap plumbing: --max-power bounds the exponent search
    assert run("resolve", "--input", doc, "--max-power", "1")[1] == 3


def test_h0_directions_flag(tmp_path):
    doc = write_doc(tmp_path, TYP_XY)
    out, code = run("h0", "--input", doc, "--directions", "1")
    assert code == 0
    env = json.loads(out)
    assert env["details"]["directions"] == ["1"]
    assert set(env["details"]["vertices"]) == {"", "2"}


@pytest.mark.parametrize("directions,want_code,want", [
    ("2,1", 0, ["1", "2"]),
    # a repeated label used to be echoed although H_0 is taken once per
    # direction, and an empty one used to be dropped
    ("1,1", 2, "repeats a label"),
    ("1,,2", 2, "has an empty label"),
    (",", 2, "has an empty label"),
    ("1,", 2, "has an empty label"),
])
def test_h0_directions_are_what_is_computed(tmp_path, directions, want_code, want):
    out, code = run("h0", "--input", write_doc(tmp_path, TYP_XY), "--directions", directions)
    assert code == want_code
    env = json.loads(out)
    if want_code:
        assert env["error"]["type"] == "input"
        assert env["error"]["message"].startswith("--directions ")
        assert want in env["error"]["message"]
    else:
        assert env["details"]["directions"] == want


def test_fitting_and_grade_and_generators(tmp_path):
    mdoc = write_doc(tmp_path, {"ring": RING_Q2,
                                "matrix": [["x", "0"], ["0", "y"]]}, "m.json")
    out, code = run("fitting", "--input", mdoc, "--size", "2")
    assert code == 0
    assert json.loads(out)["details"]["generators"] == ["x*y"]
    gdoc = write_doc(tmp_path, {"ring": RING_Q2, "ideal": ["x", "y"]}, "g.json")
    out, code = run("grade", "--input", gdoc)
    assert json.loads(out)["details"]["grade"] == 2
    udoc = write_doc(tmp_path, {"ring": RING_Q2, "ideal": ["1"]}, "u.json")
    out, _ = run("grade", "--input", udoc)
    assert json.loads(out)["details"]["grade"] == "infinity"
    out, code = run("generators", "--input", write_doc(tmp_path, TYP_XY, "t.json"))
    assert code == 0
    env = json.loads(out)
    assert env["details"]["det_sequence"] == ["x", "y"]
    assert env["details"]["rank"] == 1


def test_weight_decomp_and_factor_lemma(tmp_path):
    out, code = run("weight-decomp", "--input", write_doc(tmp_path, TYP_XY))
    assert code == 0
    assert json.loads(out)["details"]["pairs_checked"] == 9
    fdoc = write_doc(tmp_path, {"ring": RING_Q2, "sequence": ["x^2", "y^3"],
                                "cofactors": ["x", "y"]}, "f.json")
    out, code = run("factor-lemma", "--input", fdoc)
    assert code == 0
    assert json.loads(out)["details"]["applicable"] is True


def test_order_flag_overrides_document(tmp_path):
    # the reduced GB of (x + y^2) leads with x under lex, with y^2 under grevlex
    doc = write_doc(tmp_path, {"ring": {"field": "Q", "vars": ["x", "y"],
                                        "order": "grevlex"},
                               "matrix": [["x + y^2"]]})
    out_g, _ = run("fitting", "--input", doc, "--size", "1")
    out_l, _ = run("fitting", "--input", doc, "--size", "1", "--order", "lex")
    assert json.loads(out_g)["details"]["generators"] == ["y^2 + x"]
    assert json.loads(out_l)["details"]["generators"] == ["x + y^2"]


def test_unknown_keys_rejected(tmp_path):
    doc = json.loads(json.dumps(TYP_XY))
    doc["cube"]["vertices"]["3"] = 1
    assert run("validate", "--input", write_doc(tmp_path, doc))[1] == 2
    doc2 = json.loads(json.dumps(TYP_XY))
    doc2["cube"]["boundaries"]["2|1"] = [["x"]]
    assert run("validate", "--input", write_doc(tmp_path, doc2))[1] == 2


# --------------------------------------------------------------------------
# golden corpus
# --------------------------------------------------------------------------

CROSS_ORDER_CASES = [
    ("koszul_check_typ_xy", ["koszul-check"], "typ_xy.json", 0),
    ("tot_typ_xy", ["tot"], "typ_xy.json", 0),
    ("det_typ_xy", ["det"], "typ_xy.json", 0),
    ("h0_typ_xy", ["h0"], "typ_xy.json", 0),
    # rank-2 relations with a zero entry: the dense view of the relations
    ("h0_rank2", ["h0"], "h0_rank2.json", 0),
    ("h0_repeated_direction", ["h0", "--directions", "1,1"], "typ_xy.json", 2),
    ("homology_typ_xy", ["homology"], "typ_xy.json", 0),
    ("admissible_typ_xy", ["admissible", "--strategy", "inductive"], "typ_xy.json", 0),
    ("admissible_spherical_typ_xy", ["admissible", "--strategy", "spherical_faces"],
     "typ_xy.json", 0),
    ("admissible_bothx", ["admissible", "--strategy", "spherical_faces"],
     "bothx_square.json", 1),
    ("aseq_xx", ["aseq"], "aseq_xx.json", 1),
    ("regseq_xy_xz", ["regseq"], "regseq_xy_xz.json", 1),
    ("be_check_koszul_xy", ["be-check"], "koszul_xy_complex.json", 0),
    # an ideal printed as its reduced basis: the 2x2 minors of [[x, y, 0], [0, x, y]]
    ("fitting_minors", ["fitting", "--size", "2"], "minors_xy.json", 0),
    ("grade_minors", ["grade"], "minors_xy.json", 0),
    ("resolve_onecube", ["resolve"], "resolve_onecube.json", 0),
    ("resolve_typ_x2yz", ["resolve"], "resolve_typ_x2yz.json", 0),
    ("resolve_chain", ["resolve"], "resolve_chain.json", 0),
    ("resolve_chain_broken_square", ["resolve"], "resolve_chain_broken_square.json", 2),
    # x^(2^31) is beyond the packed monomial keys of every polynomial, so even
    # a command that never reaches the Groebner engine ends in a cap error
    ("typical_overflow", ["typical"], "typical_overflow.json", 3),
]

FIXED_ORDER_CASES = [
    ("random_koszul_seed5", ["random-koszul", "--seed", "5"], "typ_xy_f101.json", 0),
    ("generators_typ_xy", ["generators"], "typ_xy.json", 0),
    ("weight_decomp_typ_xy", ["weight-decomp"], "typ_xy.json", 0),
]


def golden_in(name):
    return str(GOLDEN / "inputs" / name)


def golden_out(name):
    return (GOLDEN / "expected" / f"{name}.out").read_text()


@pytest.mark.parametrize("name,args,infile,want_code",
                         CROSS_ORDER_CASES + FIXED_ORDER_CASES,
                         ids=[c[0] for c in CROSS_ORDER_CASES + FIXED_ORDER_CASES])
def test_golden(name, args, infile, want_code):
    out, code = run(*args, "--input", golden_in(infile))
    assert code == want_code
    assert out == golden_out(name)


@pytest.mark.parametrize("name,args,infile,want_code", CROSS_ORDER_CASES,
                         ids=[c[0] for c in CROSS_ORDER_CASES])
def test_golden_cross_order(name, args, infile, want_code):
    reference = golden_out(name)
    for order in ("grevlex", "lex", "grlex"):
        out, code = run(*args, "--input", golden_in(infile), "--order", order)
        assert code == want_code
        assert out == reference, f"output drifted under --order {order}"


# --------------------------------------------------------------------------
# document fuzzer
# --------------------------------------------------------------------------

SMALL_VALUES = [None, True, False, *range(-2, 6), 2.5, "", "x", "1", "a,b", "x|",
                [], [1], {}, {"a": 1}]


def _node_paths(doc, path=()):
    """The path (keys and indices) of every node of a JSON document, root first."""
    yield path
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# the keys allowed in each object whose keys are fixed names; subset keys
# (vertices, boundaries, connecting maps) and the labels of resolution.fs
# are not fixed names
FIXED_KEYS = {
    "document": ("ring", "cube", "sequence", "cofactors", "labels", "matrix", "ideal",
                 "complex", "resolution"),
    "ring": ("field", "vars", "order"),
    "field": ("Fp",),
    "cube": ("S", "vertices", "boundaries"),
    "vertex": ("rank", "relations"),
    "resolution": ("U", "V", "fs", "targets", "connecting"),
    "complex": ("ranks", "differentials"),
}


def _fixed_key_objects(doc):
    """(path, allowed keys) of every object of a document whose keys are
    fixed names."""
    for path in _node_paths(doc):
        if not isinstance(_node_at(doc, path), dict):
            continue
        if not path:
            yield path, FIXED_KEYS["document"]
        elif len(path) == 1 and path[0] in FIXED_KEYS:
            yield path, FIXED_KEYS[path[0]]
        elif path == ("ring", "field"):
            yield path, FIXED_KEYS["field"]
        elif len(path) == 3 and path[:2] == ("resolution", "targets"):
            yield path, FIXED_KEYS["cube"]
        elif len(path) >= 2 and path[-2] == "vertices":
            yield path, FIXED_KEYS["vertex"]


def _replace_node(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("name,args,infile",
                         [c[:3] for c in CROSS_ORDER_CASES + FIXED_ORDER_CASES],
                         ids=[c[0] for c in CROSS_ORDER_CASES + FIXED_ORDER_CASES])
@given(data=st.data())
def test_mutated_golden_input_keeps_the_exit_contract(tmp_path_factory, data, name, args, infile):
    # one node of a golden input replaced by a small JSON value: whatever the
    # verdict, the run ends in an exit code of the contract and an envelope,
    # never in a traceback.  Or one character of a fixed-name key edited into
    # a key its object does not allow: that is always an input error.
    doc = json.loads(Path(golden_in(infile)).read_text())
    rename = data.draw(st.booleans(), label="rename")
    if rename:
        path, allowed = data.draw(st.sampled_from(list(_fixed_key_objects(doc))), label="object")
        obj = _node_at(doc, path)
        key = data.draw(st.sampled_from(sorted(obj)), label="key")
        i = data.draw(st.integers(0, len(key)), label="position")
        char = data.draw(st.sampled_from(["", *string.ascii_letters, *string.digits, "_"]),
                         label="char")
        new = key[:i] + char + key[i + 1:]  # "" deletes key[i]; i == len(key) appends
        assume(new not in allowed)
        doc = _replace_node(doc, path, {(new if k == key else k): v for k, v in obj.items()})
    else:
        path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
        value = data.draw(st.sampled_from(SMALL_VALUES), label="value")
        doc = _replace_node(doc, path, value)
    mutated = tmp_path_factory.getbasetemp() / f"fuzz_{name}.json"
    mutated.write_text(json.dumps(doc))
    result = runner.invoke(main, [*args, "--input", str(mutated)])
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        repr(result.exception)
    assert 0 <= result.exit_code <= 4
    env = json.loads(result.output)
    assert env["schema"] == "koszul-lab/report/v1"
    if rename:
        assert result.exit_code == 2
    if result.exit_code == 2:
        assert env["error"]["type"] == "input"
