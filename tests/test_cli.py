import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import brute_average, brute_count, brute_energy
import uniformity
from uniformity import cli, counting, leibman, relations
from uniformity.binpoly import parse_polymap
from uniformity.counting import SetF
from uniformity.field import PrimeField
from uniformity.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _must_not_run(*args, **kwargs):
    raise AssertionError("the work started before the input was validated")


def test_energy_full_field(capsys):
    code, out = run(capsys, "energy", "--p", "7", "--set", "interval:0:6")
    assert code == 0
    rep = json.loads(out)
    assert rep["energy"] == 343
    assert rep["config"]["command"] == "energy"
    assert rep["config"]["p"] == 7


def test_json_deterministic_modulo_timestamp(capsys):
    _, a = run(capsys, "norm", "--p", "31", "--seed", "9")
    _, b = run(capsys, "norm", "--p", "31", "--seed", "9")
    da, db = json.loads(a), json.loads(b)
    da.pop("timestamp")
    db.pop("timestamp")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_norm_csv_schema(capsys):
    code, out = run(capsys, "norm", "--p", "31", "--seed", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,degree,method,value"
    p, degree, method, value = lines[1].split(",")
    assert p == "31" and degree == "2" and method == "fourier"
    assert 0.0 <= float(value) <= 1.0


def test_norm_bias_method(capsys):
    code, out = run(capsys, "norm", "--p", "31", "--set", "residues:2", "--method", "bias", "--norm-degree", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["kind"] == "bias"
    assert len(rep["coeffs"]) == 1


def test_count_csv(capsys):
    code, out = run(
        capsys, "count", "--p", "13", "--progression", "x, x+y, x+2*y",
        "--set", "interval:0:12", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,count,normalized,lambda_re,lambda_im"
    assert lines[1].split(",")[1] == "169"


@pytest.mark.parametrize(
    "p, progression",
    [
        (4001, "x, x+y, x+y^2, x+y+y^2"),
        (3001, "x, x+y, x^2+y"),
        (211, "x, x+y, x+z, x+y+z"),
        (1009, "x, x+y, x^2+y^2"),
    ],
)
def test_count_lambda_is_the_count_over_the_grid(capsys, monkeypatch, p, progression):
    spec = "random:9:0.5"
    P = parse_polymap(progression)
    A = SetF.from_spec(PrimeField(p), spec)
    want = counting.lambda_P(P, [A.indicator()] * P.t)
    scans = []
    real_scan = counting._scan_blocks

    def spy(P, p, tables):
        result = real_scan(P, p, tables)
        scans.append(({t.dtype for t in tables}, type(result)))
        return result

    monkeypatch.setattr(counting, "_scan_blocks", spy)
    code, out = run(capsys, "count", "--p", str(p), "--progression", progression, "--set", spec)
    assert code == 0
    # a nonlinear map takes one scan, of bool tables, and it returns the exact count;
    # the cube, which is linear, is contracted with no scan
    assert scans == ([({np.dtype(bool)}, int)] if P.degree > 1 else [])
    n = json.loads(out)["count"]
    assert n == round(want.real * p**P.nvars)
    lam = json.loads(out)["lambda"]
    assert float(lam["re"]).hex() == (n / p**P.nvars).hex()
    assert float(lam["im"]).hex() == (0.0).hex()


def test_count_of_a_linear_map_in_four_parameters_is_contracted(capsys):
    p, progression = 7, "x, y, z, w, x+y+z+w"
    A = SetF.from_spec(PrimeField(p), "random:5:0.5")
    code, out = run(capsys, "count", "--p", str(p), "--progression", progression, "--set", "random:5:0.5")
    assert code == 0
    comps = [lambda *v, comp=comp: int(comp(*v)) for comp in parse_polymap(progression).components]
    assert json.loads(out)["count"] == brute_count(A.members, comps, p, 4)


def test_count_of_a_linear_map_in_four_parameters_that_does_not_contract_is_a_cost_error(capsys):
    # W has codimension 3, which no contraction takes, and the scan stops at three parameters
    code, out = run(capsys, "count", "--p", "7", "--progression", "x, y, z, w, x+y, x+z, x+w", "--set", "random:5:0.5")
    assert code == 3 and out == ""


def test_asymptotic_rows(capsys):
    code, out = run(
        capsys, "asymptotic", "--p-list", "101,199",
        "--progression", "x, x+y, x+y^2, x+y+y^2", "--set", "random:7:0.5",
    )
    assert code == 0
    rep = json.loads(out)
    assert [r["p"] for r in rep["rows"]] == [101, 199]
    for r in rep["rows"]:
        assert abs(r["residual"]) < 0.05


def test_asymptotic_model_is_the_cube_when_the_lattice_has_index_2(capsys):
    # the linear model's lattice has index 2 in the cube's, so its image mod an odd p is the cube's
    code, out = run(
        capsys, "asymptotic", "--p-list", "101,2003",
        "--progression", "x, x+2*y, x+y^2, x+2*y+y^2", "--set", "random:1:0.5",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["p"] for r in rows] == [101, 2003]
    for r in rows:
        A = SetF.from_spec(PrimeField(r["p"]), "random:1:0.5")
        assert r["rhs_model"] == pytest.approx(counting.additive_energy(A), rel=1e-9)
    A = SetF.from_spec(PrimeField(101), "random:1:0.5")
    assert rows[0]["rhs_model"] == pytest.approx(brute_energy(A.members, 101), rel=1e-9)



def test_asymptotic_runs_the_papers_second_progression(capsys):
    # its linear model is a 3-term progression beside a free coordinate, so
    # rhs_model = (number of 3-APs in A) * |A|, with the 3-APs counted by the exact scan
    P3 = parse_polymap("x, x+y, x+2*y")
    argv = ["asymptotic", "--progression", "x, x+y, x+2*y, x+y^2", "--set", "random:1:0.5"]
    code, out = run(capsys, *argv, "--p-list", "2003,4001")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["p"] for r in rows] == [2003, 4001]
    for r in rows:
        A = SetF.from_spec(PrimeField(r["p"]), "random:1:0.5")
        assert r["rhs_model"] == pytest.approx(counting.count_in_set(P3, A) * len(A), rel=1e-9)
    assert rows[0]["rhs_model"] == pytest.approx(550811425, rel=1e-9)
    code, out = run(capsys, *argv, "--p-list", "101")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    A = SetF.from_spec(PrimeField(101), "random:1:0.5")
    ind = A.bool_table().astype(float)
    aps = brute_average([ind] * 3, [lambda x, y: x, lambda x, y: x + y, lambda x, y: x + 2 * y], 101, 2)
    assert row["rhs_model"] == pytest.approx(aps.real * 101**2 * len(A), rel=1e-9)

def test_asymptotic_reports_the_model_as_an_exact_integer(capsys):
    argv = ["asymptotic", "--progression", "x, x+y, x+2*y, x+y^2", "--set", "random:1:0.5", "--p-list", "2003,8009"]
    code, out = run(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["rhs_model"] for r in rows] == [550811425, 33802184832]
    assert all(type(r["rhs_model"]) is int for r in rows)
    code, out = run(capsys, *argv, "--format", "csv")
    assert code == 0
    models = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert models == ["550811425", "33802184832"]


def test_relations_output(capsys):
    code, out = run(capsys, "relations", "--progression", "x, x+y, x+y^2, x+y+y^2", "--cap", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["n_relations"] == 1
    assert rep["independence"]["max_degrees"] == [1, 1, 1, 1]


def test_relations_with_witness(capsys):
    code, out = run(
        capsys, "relations", "--progression", "x, x+y, x+y^2, x+y+y^2",
        "--cap", "2", "--p", "101", "--norm-degree", "2",
    )
    assert code == 0
    rep = json.loads(out)
    (wit,) = rep["witnesses"]
    assert wit["lam"]["re"] == pytest.approx(1.0, abs=1e-9)


def test_relations_of_a_constant_map_default_to_cap_one(capsys):
    # the default cap 2*deg is 0 for a constant map; it is raised to 1, the least valid cap
    code, out = run(capsys, "relations", "--progression", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["independence"]["cap"] == 1 and rep["n_relations"] == 0
    assert relations.independence_report(parse_polymap("5")).cap == 1


def test_leibman_golden_diff(tmp_path, capsys):
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y")
    assert code == 0
    ladder = json.loads(out)["ladder"]
    golden = tmp_path / "ladder.json"
    golden.write_text(json.dumps(ladder))
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y", "--golden", str(golden))
    assert code == 0
    rep = json.loads(out)
    assert rep["golden_match"] is True
    assert rep["golden_first_mismatch"] is None



def test_leibman_golden_without_p_cells_is_invalid_input(tmp_path, capsys, monkeypatch):
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y")
    assert code == 0
    golden = tmp_path / "report.json"
    golden.write_text(out)  # the whole report, not its "ladder" object
    monkeypatch.setattr(cli, "SpaceLadder", _must_not_run)
    for text in (out, json.dumps({"p_cells": [1, 2]}), json.dumps({"p_cells": {"1;1": {}}})):
        golden.write_text(text)
        code, out2 = run(capsys, "leibman", "--progression", "x, x+y, x+2*y", "--golden", str(golden))
        assert code == 2 and out2 == ""


def test_leibman_golden_reports_the_first_mismatch_by_row_then_column(tmp_path, capsys):
    argv = ["leibman", "--progression", "x, x+y, x+2*y", "--cap", "2", "--jmax", "12"]
    code, out = run(capsys, *argv)
    assert code == 0
    ladder = json.loads(out)["ladder"]
    ladder["p_cells"]["1,3"] = ladder["p_cells"]["1,10"] = {"changed": True}
    golden = tmp_path / "ladder.json"
    golden.write_text(json.dumps(ladder))
    code, out = run(capsys, *argv, "--golden", str(golden))
    assert code == 0
    rep = json.loads(out)
    assert rep["golden_match"] is False
    assert rep["golden_first_mismatch"] == "1,3"


def test_leibman_builds_the_ladder_json_once(tmp_path, capsys, monkeypatch):
    calls = []
    to_json = leibman.SpaceLadder.to_json_dict

    def counted(self):
        calls.append(1)
        return to_json(self)

    monkeypatch.setattr(leibman.SpaceLadder, "to_json_dict", counted)
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y")
    golden = tmp_path / "ladder.json"
    golden.write_text(json.dumps(json.loads(out)["ladder"]))
    calls.clear()
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y", "--golden", str(golden))
    assert code == 0 and json.loads(out)["golden_match"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
def test_leibman_golden_file_missing_or_not_json_is_invalid_input(tmp_path, capsys, content):
    golden = tmp_path / "ladder.json"
    if content is not None:
        golden.write_text(content)
    code, out = run(capsys, "leibman", "--progression", "x, x+y, x+2*y", "--golden", str(golden))
    assert code == 2
    assert out == ""

def test_leibman_witness_surface(capsys):
    code, out = run(
        capsys, "leibman", "--progression",
        "x, x+y+y^2+y^3, x+y^2+2*y^3, x+y^2+3*y^3, x+y^2+4*y^3",
        "--cap", "2", "--jmax", "6",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["filtration"]["passed"] is False
    assert rep["filtration"]["witness"]["vw"] == [0, 1, 0, 0, 0]


def test_relations_and_leibman_do_their_exact_work_once(capsys, monkeypatch):
    calls = []
    find = relations.find_relations
    init = leibman.SpaceLadder.__init__

    def counted_find(*args, **kwargs):
        calls.append("find_relations")
        return find(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        calls.append("SpaceLadder")
        init(self, *args, **kwargs)

    monkeypatch.setattr(relations, "find_relations", counted_find)
    monkeypatch.setattr(cli, "find_relations", counted_find)
    monkeypatch.setattr(leibman.SpaceLadder, "__init__", counted_init)
    assert run(capsys, "relations", "--progression", "x, x+y, x+y^2, x+y+y^2", "--cap", "2")[0] == 0
    assert run(capsys, "leibman", "--progression", "x, x+y, x+2*y")[0] == 0
    assert calls == ["find_relations", "SpaceLadder"]


def test_encoder_keeps_leaves_and_converts_the_rest():
    from fractions import Fraction

    from uniformity.relations import IndependenceReport

    rep = IndependenceReport(4, 1, (1, 0), (1, 0))
    doc = {
        "leaves": ["s", 3, 0.5, True, None],
        "nested": ({"k": (1, [2])},),
        "numpy": [np.int64(7), np.float64(0.25), np.bool_(False)],
        "exact": [Fraction(-3, 4), 1 + 2j, np.complex128(1 + 2j)],
        "report": rep,
        "poly": parse_polymap("x, x+y"),
        # sort_keys compares the keys before json turns them into text, so an int key gets its own dict
        "keyed": {7: "int key"},
    }
    out = json.loads(json.dumps(doc, sort_keys=True, default=cli._encode))
    assert out == {
        "leaves": ["s", 3, 0.5, True, None],
        "nested": [{"k": [1, [2]]}],
        "numpy": [7, 0.25, False],
        "exact": ["-3/4", {"im": 2.0, "re": 1.0}, {"im": 2.0, "re": 1.0}],
        "report": {"cap": 4, "n_relations": 1, "max_degrees": [1, 0], "lower_bounds": [1, 0]},
        "poly": parse_polymap("x, x+y").to_json_dict(),
        "keyed": {"7": "int key"},
    }
    assert [type(v) for v in out["numpy"]] == [int, float, bool]
    with pytest.raises(TypeError):
        json.dumps(object(), default=cli._encode)


def test_torus_command(capsys):
    code, out = run(capsys, "torus", "--p", "101", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,passed,defect"
    assert lines[1].startswith("101,True,")


def test_validation_exit_code(capsys):
    code, _ = run(capsys, "norm", "--p", "9", "--seed", "1")
    assert code == 2
    code, _ = run(capsys, "norm", "--p", "11")
    assert code == 2  # no function source given
    code, _ = run(capsys, "count", "--p", "13", "--progression", "x, x+y", "--set", "bogus")
    assert code == 2
    for text in ("await x", "(yield x)"):  # ast.parse accepts these, compile rejects them
        code, _ = run(capsys, "count", "--p", "13", "--progression", text, "--set", "random:1:0.5")
        assert code == 2


def test_members_set_spec(capsys):
    code, out = run(capsys, "energy", "--p", "7", "--set", "members:0,1,3")
    assert code == 0
    rep = json.loads(out)
    assert rep["set_size"] == 3
    # sums of ordered pairs from {0, 1, 3} mod 7: 0,1,3,1,2,4,3,4,6 -> r = 1,2,1,2,2,0,1
    assert rep["energy"] == 1 + 4 + 1 + 4 + 4 + 0 + 1
    code, out = run(capsys, "count", "--p", "7", "--progression", "x, x+y", "--set", "members:0,1,3", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[1] == "9"


@pytest.mark.parametrize("spec", ["random:x:0.5", "random:1:half", "random:-1:0.5", "interval:a:3", "residues:z", "members:1,x", "members:"])
def test_malformed_set_spec_is_a_validation_error(capsys, spec):
    assert main(["energy", "--p", "7", "--set", spec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_integrity_failure_exits_4_without_a_traceback(capsys, monkeypatch):
    # one r(s) off by exactly 1 passes the rounding guard but not the sum check
    convolve = counting._convolution

    def skewed(x, y):
        out = convolve(x, y)
        out[3] += 1
        return out

    monkeypatch.setattr(counting, "_convolution", skewed)
    assert main(["energy", "--p", "31", "--set", "random:1:0.3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("integrity error: ") and "add up" in captured.err
    assert "Traceback" not in captured.err


def test_cost_exit_code(capsys):
    code, _ = run(
        capsys, "norm", "--p", "20011", "--seed", "1", "--method", "naive", "--norm-degree", "4"
    )
    assert code == 3


def _parse_error(capsys, *argv) -> int:
    """The exit code of an argument rejected while parsing, with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert capsys.readouterr().out == ""
    return exc.value.code


def test_a_negative_seed_is_rejected_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PrimeField", _must_not_run)
    assert _parse_error(capsys, "norm", "--p", "101", "--seed", "-1") == 2


def test_set_and_seed_are_mutually_exclusive(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PrimeField", _must_not_run)
    assert _parse_error(capsys, "norm", "--p", "31", "--set", "residues:2", "--seed", "3") == 2


def test_a_norm_degree_below_one_is_rejected_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "PrimeField", _must_not_run)
    monkeypatch.setattr(cli, "find_relations", _must_not_run)
    for degree in ("0", "-2"):
        assert _parse_error(capsys, "norm", "--p", "31", "--seed", "1", "--norm-degree", degree) == 2
        # x, y has no relations, so only a check at parse time can reject the flag
        argv = ["relations", "--progression", "x, y", "--p", "101", "--norm-degree", degree]
        assert _parse_error(capsys, *argv) == 2


def test_tables_longer_than_the_budget_are_rejected_before_allocation(capsys, monkeypatch):
    p = str(1_000_000_000_039)  # prime
    for name in ("_function", "find_relations", "verify_asymptotic", "count_in_set", "additive_energy"):
        monkeypatch.setattr(cli, name, _must_not_run)
    monkeypatch.setattr(SetF, "from_spec", _must_not_run)
    for argv in (
        ["norm", "--p", p, "--seed", "1"],
        ["norm", "--p", "100000007", "--set", "members:1", "--method", "bias", "--norm-degree", "2"],
        ["count", "--p", p, "--progression", "x, x+y", "--set", "members:1"],
        ["energy", "--p", p, "--set", "members:1"],
        ["asymptotic", "--p-list", f"101,{p}", "--progression", "x, x+y, x+2*y", "--set", "members:1"],
        ["relations", "--progression", "x, x+y^2", "--p", p],
    ):
        assert main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and "table" in err
    assert cli._TABLE_BUDGET >= 1_000_003  # the largest prime the benchmark runs


def test_relations_checks_the_prime_before_the_search(capsys, monkeypatch):
    monkeypatch.setattr(cli, "find_relations", _must_not_run)
    code, out = run(capsys, "relations", "--progression", "x, x+y, x+y^2, x+y+y^2", "--p", "100")
    assert code == 2 and out == ""


def test_asymptotic_checks_every_prime_before_the_first_row(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_asymptotic", _must_not_run)
    argv = ["asymptotic", "--progression", "x, x+y, x+2*y", "--set", "random:0:0.5"]
    code, out = run(capsys, *argv, "--p-list", "101,100")
    assert code == 2 and out == ""
    for p_list in (",", "", " , ", "101,x"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--p-list", p_list])
        assert exc.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--p", "7", "--set", "interval:0:6", "--bogus"])
    assert exc.value.code == 2


def test_importing_the_cli_does_not_load_the_thread_pool_module():
    # the norms build their pool on first use; the import alone would add to every CLI start
    src = str(Path(uniformity.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, uniformity.cli; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def _readme_commands() -> list[list[str]]:
    """The ``uniformity ...`` lines of README.md's sh blocks, continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["uniformity"]:
                commands.append(words[1:])
    return commands


def test_the_readme_examples_run(tmp_path, capsys, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 8 and {c[0] for c in commands} >= {"norm", "count", "leibman", "torus"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if "--golden" in argv:  # the golden file is the "ladder" object of an earlier run
            i = argv.index("--golden")
            code, out = run(capsys, *argv[:i], *argv[i + 2:])
            assert code == 0
            Path(argv[i + 1]).write_text(json.dumps(json.loads(out)["ladder"]))
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if "--golden" in argv:
            assert json.loads(out)["golden_match"] is True
