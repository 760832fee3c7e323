"""End-to-end runs of the command line front end."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pairpack import cli
from pairpack.algebra import ZZ
from pairpack.dyson import DEFAULT_DEGREE_BUDGET
from pairpack.poly import MultiPoly
from pairpack.sumsets import DEFAULT_TIGHT_CAP


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_partition_inline(capsys):
    code, out, _ = run(capsys, ["partition", "--n", "5", "--d", "1,2"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"result": "feasible", "pairs": [[2, 3], [4, 1]]}


def test_partition_infeasible(capsys):
    code, out, _ = run(capsys, ["partition", "--n", "9", "--d", "3,3,3,3"])
    assert code == 2
    assert json.loads(out) == {"result": "infeasible", "nodes": 11}


def test_partition_full_universe_inferred(capsys):
    code, out, _ = run(capsys, ["partition", "--n", "4", "--d", "1,1"])
    assert code == 0
    assert json.loads(out)["pairs"] == [[0, 1], [2, 3]]


def test_partition_vector_file(capsys, tmp_path):
    doc = {"p": 3, "k": 2, "bases": [[[1, 0], [0, 1]]] * 4}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["partition", "--file", str(path)])
    assert code == 0
    res = json.loads(out)
    assert res["result"] == "feasible"
    assert res["g"] == [0, 0, 0, 1]
    assert res["pairs"][0] == [[0, 1], [1, 1]]


def test_partition_missing_args(capsys):
    code, _, err = run(capsys, ["partition"])
    assert code == 1
    assert err.startswith("error:")


def test_partition_invalid_instance(capsys):
    code, _, err = run(capsys, ["partition", "--n", "9", "--d", "1,2"])
    assert code == 1
    assert "error:" in err


def test_pack_inline(capsys):
    code, out, _ = run(capsys, ["pack", "--n", "7", "--X", "0;0,1",
                                "--T", "0,1;0,1", "--d", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"] == "feasible"
    assert doc["t"] == [0, 1]
    assert doc["hypotheses"]["factorial_nonzero"] is True


def test_pack_infeasible_keeps_hypotheses(capsys):
    code, out, _ = run(capsys, ["pack", "--n", "3", "--X", "0,1;0,1",
                                "--T", "0,1,2;0,1,2", "--d", "1"])
    assert code == 2
    doc = json.loads(out)
    assert doc["result"] == "infeasible"
    assert doc["nodes"] > 0
    assert "hypotheses" in doc


def test_pack_huge_modulus_without_full_translates(capsys):
    """No T_i is the whole ring, so the squares bound is null at once,
    without a primality test of the 18-digit prime modulus."""
    code, out, _ = run(capsys, ["pack", "--n", "1000000000000000003",
                                "--X", "0;0", "--T", "0,1;2,3", "--d", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == [0, 2]
    assert doc["hypotheses"]["squares_bound"] is None


def test_pack_file(capsys, tmp_path):
    path = tmp_path / "pack.json"
    path.write_text(json.dumps({"n": "integers", "X": [[0, 2], [0, 1]],
                                "T": [[0, 1, 4], [0, 2, 3]], "d": 2}))
    code, out, _ = run(capsys, ["pack", "--file", str(path)])
    assert code == 0
    assert json.loads(out)["t"] == [0, 3]


def test_dyson(capsys):
    code, out, _ = run(capsys, ["dyson", "--a", "2,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == doc["bruteforce"] == doc["evaluation"] == 3


def test_dyson_budget_error(capsys):
    code, _, err = run(capsys, ["dyson", "--a", "5,5,5"])
    assert code == 1
    assert "error:" in err
    code, out, _ = run(capsys, ["dyson", "--a", "5,5,5",
                                "--max-degree", "30"])
    assert code == 0
    assert json.loads(out)["formula"] == 756756


def test_budget_exceeded_is_one_error_line(capsys):
    # the handler maps BudgetExceeded, a RuntimeError, to the error line;
    # main itself catches no RuntimeError
    assert run(capsys, ["dyson", "--a", "2,2", "--max-degree", "-5"]) == (
        1, "", "error: expansion degree 4 exceeds budget -5\n")
    assert run(capsys, ["dyson", "--a", "5,5,5"]) == (
        1, "", "error: expansion degree 30 exceeds budget "
               f"{DEFAULT_DEGREE_BUDGET}\n")


def test_help_names_the_library_defaults(capsys):
    with pytest.raises(SystemExit):
        cli.main(["sumset", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert f"(default {DEFAULT_TIGHT_CAP})" in out


def test_cn_coeff(capsys, tmp_path):
    path = tmp_path / "poly.json"
    poly = MultiPoly(ZZ, 2, [((1, 1), 4), ((0, 0), -1)])
    path.write_text(json.dumps(poly.to_json()))
    code, out, _ = run(capsys, ["cn-coeff", "--file", str(path),
                                "--grid", "0,1;0,1"])
    assert code == 0
    assert json.loads(out) == {"coefficient": 4, "nonzero": True}
    code, out, _ = run(capsys, ["cn-coeff", "--file", str(path),
                                "--grid", "0,1;0,1", "--mod", "2"])
    assert code == 2
    assert json.loads(out)["coefficient"] == 0
    for mod in ("0", "1"):
        code, out, err = run(capsys, ["cn-coeff", "--file", str(path),
                                      "--grid", "0,1;0,1", "--mod", mod])
        assert (code, out) == (1, "")
        assert err == "error: modulus must be an integer >= 2\n"


def test_cn_coeff_witness(capsys, tmp_path):
    path = tmp_path / "poly.json"
    poly = MultiPoly(ZZ, 2, [((2, 0), 1)])
    path.write_text(json.dumps(poly.to_json()))
    code, out, _ = run(capsys, ["cn-coeff", "--file", str(path),
                                "--grid", "0,1;0,1", "--witness"])
    assert code == 2
    doc = json.loads(out)
    assert doc["coefficient"] == 0
    assert doc["witness"] == [1, 0]


def test_conjecture_scan_json(capsys):
    code, out, _ = run(capsys, ["conjecture-scan", "--n", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 5, "universe": "nonzero", "total": 16,
                   "feasible": 16, "failures": []}


def test_conjecture_scan_deterministic_bytes(capsys):
    args = ["conjecture-scan", "--n", "9", "--sample", "50", "--seed", "3"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second
    assert "seconds" not in first


def test_conjecture_scan_tsv_and_timing(capsys):
    code, out, _ = run(capsys, ["conjecture-scan", "--n", "5",
                                "--format", "tsv", "--timing"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split("\t") == ["n", "universe", "total", "feasible",
                                  "failures", "seconds"]
    assert row.split("\t")[:5] == ["5", "nonzero", "16", "16", "-"]


def test_sumset_pair(capsys):
    code, out, _ = run(capsys, ["sumset", "--p", "5", "--A", "0,1",
                                "--B", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cardinality"] == 3 and doc["beta"] == 3
    assert doc["holds"] and doc["tight"]
    assert doc["sum"] == [0, 1, 2]


def test_sumset_pair_mod_18_digit_prime(capsys):
    """An 18-digit prime modulus passes the primality test at once."""
    code, out, _ = run(capsys, ["sumset", "--A", "1", "--B", "1",
                                "--p", "1000000000000000003"])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] and doc["sum"] == [2]


def test_sumset_pair_in_a_huge_group_is_one_error_line(capsys):
    """Z/(p^alpha) past MAX_MODULUS_BITS is refused before p^alpha is
    built; 2^(2^20 - 1), just inside, is still answered."""
    for p, alpha in (("5", "1000000000"), ("5", "10000000"), ("2", "1048576")):
        code, out, err = run(capsys, ["sumset", "--p", p, "--alpha", alpha,
                                      "--A", "1", "--B", "1"])
        assert (code, out) == (1, "")
        assert err == f"error: Z/({p}^{alpha}) is too big (it must have " \
            "fewer than 2^1048576 elements)\n"
    code, out, _ = run(capsys, ["sumset", "--p", "2", "--alpha", "1048575",
                                "--A", "1", "--B", "1"])
    assert code == 0 and json.loads(out)["sum"] == [2]


def test_sumset_pair_too_long_to_print_is_one_error_line(capsys):
    """-1 in Z/(3^1048575) has some 500,000 digits, past what Python
    prints: the error names the group and the limit."""
    code, out, err = run(capsys, ["sumset", "--p", "3", "--alpha", "1048575",
                                  "--A", "-1", "--B", "1"])
    assert (code, out) == (1, "")
    assert err == "error: Z/(3^1048575): an element of A, B or A+B is past " \
        f"the {sys.get_int_max_str_digits():,}-digit output limit " \
        "(PYTHONINTMAXSTRDIGITS)\n"


def test_sumset_sweep(capsys):
    code, out, _ = run(capsys, ["sumset", "--p", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pairs"] == 9
    assert doc["violations"] == []
    code, out, _ = run(capsys, ["sumset", "--p", "2", "--timing"])
    assert code == 0
    timed = json.loads(out)
    assert isinstance(timed.pop("seconds"), float)
    assert timed == doc


def test_sumset_sample_needs_seed(capsys):
    code, _, err = run(capsys, ["sumset", "--p", "3", "--alpha", "2",
                                "--sample", "10"])
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["conjecture-scan", "--n", "9", "--sample", "-5", "--seed", "1"],
    ["conjecture-scan", "--n", "9", "--sample", "0", "--seed", "1"],
    ["sumset", "--p", "3", "--sample", "-4", "--seed", "1"],
])
def test_sample_below_one_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


def test_sumset_sweep_too_big_is_one_error_line(capsys):
    for flags, hint in [
            (["--p", "31"], "use sample mode"),
            (["--p", "2", "--alpha", "40"], "use sample mode"),
            (["--p", "2", "--alpha", "20000"], "use sample mode"),
            (["--p", "2", "--alpha", "40", "--sample", "2", "--seed", "1"],
             "sampled sweep"),
            # an 18-digit prime: refused before a primality test of it
            (["--p", "1000000000000000003"], "use sample mode"),
            (["--p", "1000000000000000003", "--sample", "5", "--seed", "1"],
             "sampled sweep")]:
        code, out, err = run(capsys, ["sumset", *flags])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert hint in err


@pytest.mark.parametrize("flags", [
    ["--sample", "3"], ["--seed", "1"], ["--tight-cap", "0"], ["--timing"],
])
def test_sumset_pair_rejects_sweep_flags(capsys, flags):
    code, out, err = run(capsys, ["sumset", "--p", "5", "--A", "0,1",
                                  "--B", "0,1"] + flags)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert flags[0] in err


@pytest.mark.parametrize("argv", [
    ["conjecture-scan", "--n", "7", "--seed", "5"],
    ["sumset", "--p", "3", "--seed", "5"],
])
def test_seed_without_sample_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("record", [
    "[1, 2]",
    '{"n": 7, "universe": "nonzero"}',
    '{"failures": [], "feasible": 36, "n": 7, "shard": 1, "total": "x", '
    '"universe": "nonzero"}',
    '{"garbage": 1}',
])
def test_malformed_checkpoint_record_is_one_error_line(capsys, tmp_path,
                                                       record):
    path = tmp_path / "scan.jsonl"
    path.write_text(record + "\n")
    code, out, err = run(capsys, ["conjecture-scan", "--n", "7",
                                  "--checkpoint", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err


def test_unparsable_last_checkpoint_line_is_one_error_line(capsys, tmp_path):
    """A last line that keeps its newline was not torn by an append, so
    when it does not parse the scan stops and leaves the file alone."""
    path = tmp_path / "scan.jsonl"
    argv = ["conjecture-scan", "--n", "7", "--checkpoint", str(path)]
    assert run(capsys, argv)[0] == 0
    lines = path.read_text().splitlines(keepends=True)
    broken = "".join(lines[:-1]) + lines[-1][:20] + "\n"
    path.write_text(broken)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.read_text() == broken


@pytest.mark.parametrize("edit", [
    {"feasible": 96},               # 5 more than shard 1's total of 91
    {"failures": [[99, 98]]},
])
def test_inconsistent_checkpoint_record_is_one_error_line(capsys, tmp_path,
                                                          edit):
    """Edited records that a scan once merged into a report of 221
    feasible out of 216 and a failure [99, 98]."""
    path = tmp_path / "scan.jsonl"
    code, _, _ = run(capsys, ["conjecture-scan", "--n", "7",
                              "--checkpoint", str(path)])
    assert code == 0
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = json.dumps({**json.loads(lines[0]), **edit},
                          sort_keys=True) + "\n"
    path.write_text("".join(lines))
    code, out, err = run(capsys, ["conjecture-scan", "--n", "7",
                                  "--checkpoint", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1" in err


def test_readme_transcripts(capsys):
    """Every `$ pairpack ...` block in README.md prints the JSON shown
    under it."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^\$ pairpack ([^\n]*)\n(.*?)^```",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for command, shown in blocks:
        _, out, _ = run(capsys, shlex.split(command))
        assert json.loads(out) == json.loads(shown), command


def test_verify_round_trip(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 5, "universe": "nonzero", "d": [1, 2]}))
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"result": "feasible",
                               "pairs": [[2, 3], [4, 1]]}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--solution", str(sol)])
    assert code == 0
    assert json.loads(out) == {"verified": True}

    sol.write_text(json.dumps({"result": "feasible",
                               "pairs": [[2, 3], [4, 2]]}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--solution", str(sol)])
    assert code == 2
    assert json.loads(out) == {"verified": False}

    sol.write_text(json.dumps({"result": "infeasible", "nodes": 11}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--solution", str(sol)])
    assert code == 2
    assert json.loads(out) == {"verified": False}


def test_verify_packing_and_vector(capsys, tmp_path):
    inst = tmp_path / "inst.json"
    sol = tmp_path / "sol.json"
    inst.write_text(json.dumps({"n": 7, "X": [[0], [0, 1]],
                                "T": [[0, 1], [0, 1]], "d": 1}))
    sol.write_text(json.dumps({"result": "feasible", "t": [0, 1]}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--solution", str(sol)])
    assert code == 0 and json.loads(out)["verified"]

    inst.write_text(json.dumps({"p": 3, "k": 2,
                                "bases": [[[1, 0], [0, 1]]] * 4}))
    sol.write_text(json.dumps({
        "result": "feasible",
        "pairs": [[[0, 1], [1, 1]], [[0, 2], [1, 2]],
                  [[1, 0], [2, 0]], [[2, 1], [2, 2]]],
        "g": [0, 0, 0, 1]}))
    code, out, _ = run(capsys, ["verify", "--instance", str(inst),
                                "--solution", str(sol)])
    assert code == 0 and json.loads(out)["verified"]


def test_bad_subcommand_and_bad_file(capsys, tmp_path):
    code, _, err = run(capsys, ["no-such-command"])
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, ["partition", "--file",
                                str(tmp_path / "absent.json")])
    assert code == 1 and "error:" in err


INSTANCE = {"n": 5, "d": [1, 2]}
SOLUTION = {"result": "feasible", "pairs": [[2, 3], [4, 1]]}
PACKING = {"n": 7, "X": [[0, 1], [0, 2]], "T": [[0, 1, 2], [3, 4]], "d": 1}


@pytest.mark.parametrize("command, doc, solution", [
    ("partition", {"n": 5}, None),
    ("partition", {"n": 5, "d": 5}, None),
    ("partition", [5, [1, 2]], None),
    ("partition", {"p": 3, "k": 2, "bases": 4}, None),
    ("pack", {"n": 7, "X": [[0]]}, None),
    ("pack", {"n": 7, "X": 0, "T": 0, "d": 1}, None),
    ("cn-coeff", {"arity": 2}, None),
    ("verify", INSTANCE, {"result": "feasible"}),
    ("verify", INSTANCE, {"result": "feasible", "pairs": [[2, "3"], [4, 1]]}),
    ("verify", {"n": 7, "X": [[0]], "T": [[0]], "d": 1},
     {"result": "feasible"}),
])
def test_malformed_json_is_one_error_line(capsys, tmp_path, command, doc,
                                          solution):
    if solution is not None:
        (tmp_path / "sol.json").write_text(json.dumps(solution))
    code, out, err = run(capsys, _doc_argv(command, doc, tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


VECTOR = {"p": 3, "k": 1, "bases": [[[1]]]}


@pytest.mark.parametrize("instance, solution", [
    (INSTANCE, {"result": "feasible", "pairs": [[2, 3, 9], [4, 1]]}),
    (INSTANCE, {"result": "feasible", "pairs": [[2, 3], [4]]}),
    (INSTANCE, {"result": "feasible", "pairs": [[2, 3], 4]}),
    (INSTANCE, {"result": "feasible", "pairs": {"a": 1}}),
    (VECTOR, {"result": "feasible", "pairs": [[[1], [2], [0]]], "g": [0]}),
    (VECTOR, {"result": "feasible", "pairs": [[[1]]], "g": [0]}),
    (VECTOR, {"result": "feasible", "pairs": "ab", "g": [0]}),
])
def test_malformed_solution_pair_is_one_error_line(capsys, tmp_path,
                                                   instance, solution):
    """A pair that is not two ends is malformed solution JSON, not an
    unpacking error."""
    (tmp_path / "sol.json").write_text(json.dumps(solution))
    code, out, err = run(capsys, _doc_argv("verify", instance, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed solution JSON (")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, doc, flags, named", [
    ("partition", INSTANCE, ["--n", "5", "--d", "1,2"], "--n, --d"),
    ("partition", INSTANCE, ["--d", "1,2"], "--d"),
    ("pack", PACKING, ["--n", "7", "--X", "0;0,1", "--T", "0,1;0,1",
                       "--d", "1"], "--n, --X, --T, --d"),
    ("pack", PACKING, ["--T", "0,1;0,1"], "--T"),
])
def test_file_excludes_instance_flags(capsys, tmp_path, command, doc, flags,
                                      named):
    code, out, err = run(capsys, _doc_argv(command, doc, tmp_path) + flags)
    assert (code, out) == (1, "")
    assert err == f"error: --file with instance flags: {named}\n"


def _doc_argv(command, doc, tmp_path):
    """argv that makes command read doc from a file in tmp_path; verify
    reads its solution from sol.json there."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return {"partition": ["partition", "--file", str(path)],
            "pack": ["pack", "--file", str(path)],
            "cn-coeff": ["cn-coeff", "--file", str(path), "--grid", "0,1;0,1"],
            "verify": ["verify", "--instance", str(path),
                       "--solution", str(tmp_path / "sol.json")]}[command]


@pytest.mark.parametrize("command, doc, field", [
    ("partition", {"n": 5, "d": [1, 2.5]}, "d"),
    ("partition", {"n": "5", "d": "12"}, "n"),
    ("partition", {"n": 5.9, "d": [1, 2]}, "n"),
    ("partition", {"p": 3, "k": 1.5, "bases": [[[1]]]}, "k"),
    ("partition", {"p": 3, "k": 1, "bases": [[[1]]], "check": 1}, "check"),
    ("pack", {"n": 7, "X": [[0], [0, 1]], "T": [[0, 1], [0, 1]], "d": 1.7},
     "d"),
    ("pack", {"n": "7", "X": [[0]], "T": [[0]], "d": 1}, "n"),
    ("verify", {"n": 5, "d": [1, 2.5]}, "d"),
    ("verify", {"n": 7, "X": [[0]], "T": [[0]], "d": 1.7}, "d"),
    ("verify", {"p": 3, "k": 1.5, "bases": [[[1]]]}, "k"),
    ("cn-coeff", {"arity": 2, "terms": [{"e": [1, 1], "c": 2.7}]}, "c"),
    # an (instance, solution) pair: the solution's field is at fault
    ("verify", (INSTANCE, {"result": "feasible", "pairs": [[2, 3], [4, True]]}),
     "pairs"),
    ("verify", (PACKING, {"result": "feasible", "t": [0, 3.0]}), "t"),
    ("verify", (PACKING, {"result": "feasible", "t": [False, 3]}), "t"),
    ("verify", ({"p": 3, "k": 1, "bases": [[[1]]]},
                {"result": "feasible", "pairs": [[[1], [2]]], "g": [0.0]}),
     "g"),
    ("partition", {"n": 9, "d": [1, 2, 3, 4], "universe": 0}, "universe"),
    ("verify", {"n": 5, "d": [1, 2], "universe": False}, "universe"),
])
def test_non_integer_json_field_is_one_error_line(capsys, tmp_path, command,
                                                  doc, field):
    doc, solution = doc if isinstance(doc, tuple) else (doc, SOLUTION)
    (tmp_path / "sol.json").write_text(json.dumps(solution))
    code, out, err = run(capsys, _doc_argv(command, doc, tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{field} must be a JSON" in err


NOT_FOR_SOLVES = {"conjectures", "sumsets", "nullstellensatz", "dyson", "poly"}


@pytest.mark.parametrize("argv, needed, unneeded", [
    (["dyson", "--a", "2,2,2"], "dyson",
     {"solvers", "conjectures", "sumsets", "nullstellensatz"}),
    (["sumset", "--p", "3", "--alpha", "2"], "sumsets",
     {"solvers", "conjectures", "dyson", "poly", "nullstellensatz"}),
    (["partition", "--file", "{inst}"], "solvers", NOT_FOR_SOLVES),
    (["verify", "--instance", "{inst}", "--solution", "{sol}"], "solvers",
     NOT_FOR_SOLVES),
    (["pack", "--file", "{pack}"], "solvers", NOT_FOR_SOLVES),
    (["cn-coeff", "--file", "{poly}", "--grid", "0,1;0,1"], "nullstellensatz",
     {"solvers", "conjectures", "sumsets", "dyson"}),
    (["conjecture-scan", "--n", "5"], "conjectures",
     {"sumsets", "nullstellensatz", "dyson", "poly"}),
])
def test_subcommand_loads_only_its_modules(tmp_path, argv, needed, unneeded):
    """Also: no subcommand imports dataclasses, whose import alone pulls
    in inspect, ast, dis and tokenize."""
    paths = {name: tmp_path / f"{name}.json" for name in
             ("inst", "sol", "pack", "poly")}
    for name, doc in (("inst", INSTANCE), ("sol", SOLUTION), ("pack", PACKING),
                      ("poly", {"arity": 2,
                                "terms": [{"e": [1, 1], "c": 1}]})):
        paths[name].write_text(json.dumps(doc))
    argv = [a.format(**paths) for a in argv]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "pairpack.cli", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr[-500:]
    loaded = set(re.findall(r"\|\s+pairpack\.(\w+)\s*$", proc.stderr,
                            re.MULTILINE))
    assert needed in loaded
    assert not loaded & unneeded, sorted(loaded)
    assert not re.search(r"\|\s+dataclasses\s*$", proc.stderr, re.MULTILINE)


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "pairpack.cli",
                           "partition", "--n", "3", "--d", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"result": "feasible",
                                       "pairs": [[1, 2]]}
