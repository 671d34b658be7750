"""CLI behaviour: exit codes, JSON stability, sweeps."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from branchpolar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_row1(capsys):
    code, out = run_cli(capsys, "analyze", "x=t^5; y=t^12", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["semigroup"]["generators"] == [5, 12]
    assert payload["differential_values"] == []
    assert payload["zariski_invariant"] is None
    assert payload["polar"]["type"]["branches"] == [[4, 11]]
    assert payload["polar"]["genericity"]["certified"] is True


def test_analyze_row5(capsys):
    code, out = run_cli(
        capsys, "analyze", "x=t^5; y=t^12+t^26+c t^28 where c=1", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["differential_values"] == [31, 38, 43]
    assert payload["zariski_invariant"] == 26


def test_analyze_malformed_exits_2(capsys):
    code, out = run_cli(capsys, "analyze", "x=t^5; y=")
    assert code == 2
    assert "error" in json.loads(out)


def test_analyze_nonprimitive_reports_stage(capsys):
    code, out = run_cli(capsys, "analyze", "x=t^4; y=t^6")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["stage"] == "semigroup"


def test_analyze_one_direction_is_a_usage_error(capsys):
    code, out = run_cli(capsys, "analyze", "x=t^5; y=t^12", "--directions", "1")
    assert code == 2
    assert out == ""


def test_sweep_one_sample_is_a_usage_error(capsys):
    code, out = run_cli(capsys, "sweep", "gamma-5-12/11", "--trials", "1", "--samples", "1")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("exc_type", [AssertionError, RecursionError, MemoryError])
def test_analyze_internal_failure_exits_1(monkeypatch, capsys, exc_type):
    import branchpolar.report as report

    def fail(*args, **kwargs):
        raise exc_type("injected")

    monkeypatch.setattr(report, "sample_polars", fail)
    code, out = run_cli(capsys, "analyze", "x=t^5; y=t^12")
    assert code == 1
    err = json.loads(out)["error"]
    assert err == {"stage": "polar", "kind": exc_type.__name__, "message": "injected"}


@pytest.mark.parametrize("patched, stage", [("implicitize", "implicitize"), ("milnor_number", "milnor")])
def test_analyze_error_names_its_stage(monkeypatch, capsys, patched, stage):
    import branchpolar.report as report

    def fail(*args, **kwargs):
        raise ArithmeticError("injected")

    monkeypatch.setattr(report, patched, fail)
    code, out = run_cli(capsys, "analyze", "x=t^5; y=t^12")
    assert code == 1
    err = json.loads(out)["error"]
    assert err == {"stage": stage, "kind": "ArithmeticError", "message": "injected"}


def test_analyze_milnor_conductor_mismatch_is_a_polar_failure(monkeypatch, capsys):
    # <5,12> has conductor 44; a resultant that says 45 fails Milnor's formula
    import branchpolar.report as report

    monkeypatch.setattr(report, "milnor_number", lambda f: 45)
    code, out = run_cli(capsys, "analyze", "x=t^5; y=t^12")
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["stage"], err["kind"]) == ("polar", "AssertionError")


def test_analyze_tower_branch_reports_input_stage():
    # a branch on a sqrt6 wall has no DSL text: an error entry, no traceback
    from branchpolar.dsl import BranchSpec
    from branchpolar.report import analyze
    from oracles import mult4_g1_wall

    payload = json.loads(analyze(BranchSpec("sqrt6 wall", mult4_g1_wall(29, 13))).to_json())
    assert payload["error"]["stage"] == "input"
    assert payload["error"]["kind"] == "ValueError"
    assert payload["input"]["canonical"] is None
    assert payload["input"]["branch"]["n"] == 4


def test_analyze_smooth_branch_has_empty_polar(capsys):
    # the general polar of a smooth branch misses the origin
    code, out = run_cli(capsys, "analyze", "x=t^1; y=t^2")
    assert code == 0
    payload = json.loads(out)
    assert "error" not in payload
    assert payload["milnor"] == 0
    polar = payload["polar"]
    assert polar["type"] == {"branches": [], "intersections": [], "milnor": 0}
    # Teissier: I(f, polar) = 0 = mu + n - 1
    assert polar["genericity"]["teissier_identity"] is True
    assert polar["genericity"]["certified"] is True


def test_analyze_x_axis_is_a_smooth_branch(capsys):
    # y = 0 is smooth (conductor 0, no differential values), like y = t
    reports = []
    for spec in ("x=t^1; y=0 t^2", "x=t^1; y=t^1"):
        code, out = run_cli(capsys, "analyze", spec)
        assert code == 0
        reports.append(json.loads(out))
    axis, line = reports
    assert "error" not in axis
    assert axis["milnor"] == 0 and axis["differential_values"] == []
    assert axis["polar"]["type"] == {"branches": [], "intersections": [], "milnor": 0}
    assert {k: v for k, v in axis.items() if k != "input"} == {
        k: v for k, v in line.items() if k != "input"
    }


def test_analyze_large_exponent_tail(capsys):
    # the Weierstrass check evaluates f at a branch with t^4001: no
    # recursion or cache sized by the exponent
    code, out = run_cli(capsys, "analyze", "x=t^2; y=t^3+t^4001", "--directions", "2")
    assert code == 0
    payload = json.loads(out)
    assert "error" not in payload
    assert payload["milnor"] == 2
    assert payload["polar"]["type"]["branches"] == [[1]]


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "branchpolar", "analyze", "x=t^2; y=t^3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["semigroup"]["generators"] == [2, 3]


def test_json_byte_stability(capsys):
    _, out1 = run_cli(capsys, "analyze", "x=t^5; y=t^12+t^21", "--seed", "9")
    _, out2 = run_cli(capsys, "analyze", "x=t^5; y=t^12+t^21", "--seed", "9")
    assert out1 == out2


def test_analyze_file_input(tmp_path, capsys):
    p = tmp_path / "branch.txt"
    p.write_text("x=t^2; y=t^3\n", encoding="utf-8")
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 0
    assert json.loads(out)["semigroup"]["generators"] == [2, 3]


def test_analyze_unreadable_spec_file_is_a_parse_error(tmp_path, monkeypatch, capsys):
    p = tmp_path / "branch.txt"
    p.write_bytes(b"x=t^2; y=t^3 \xff\n")
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["stage"] == "parse" and "utf-8" in err["message"]

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    code, out = run_cli(capsys, "analyze", str(p))
    assert code == 2
    assert json.loads(out)["error"] == {
        "stage": "parse", "message": f"[Errno 13] Permission denied: '{p}'"
    }


def test_analyze_unwritable_json_path_is_an_output_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out = run_cli(capsys, "analyze", "x=t^2; y=t^3", "--json", str(target))
    assert code == 2
    err = json.loads(out)["error"]
    assert set(err) == {"stage", "message"} and err["stage"] == "output"
    assert str(target) in err["message"]
    assert not target.exists()


def test_analyze_spec_longer_than_a_file_name(capsys):
    spec = "x=t^5; y=t^12" + "".join(f" + 0 t^{e}" for e in range(26, 162, 2))
    assert len(spec) > 255
    code, out = run_cli(capsys, "analyze", spec)
    assert code == 0
    assert json.loads(out)["semigroup"]["generators"] == [5, 12]


def test_family_command(capsys):
    code, out = run_cli(capsys, "family", "gamma-5-12/10", "--params", "c=7", "--seed", "1")
    assert code == 0
    inst = json.loads(out)["instances"][0]
    assert inst["parameters"]["c"] == "7"
    assert "t^16" in inst["spec"]


def test_family_rejects_bad_params(capsys):
    code, out = run_cli(capsys, "family", "gamma-5-12/5", "--params", "c=0")
    assert code == 2


def test_family_unknown(capsys):
    code, _ = run_cli(capsys, "family", "no-such-family")
    assert code == 2


@pytest.mark.parametrize("name", ["gamma-5-12/x", "mult4-g1/1.5", "gamma-5-12/19", "mult4-g1/ 2"])
def test_sweep_malformed_family_name_exits_2(capsys, name):
    code, out = run_cli(capsys, "sweep", name, "--trials", "1")
    assert code == 2
    assert json.loads(out)["error"] == {"stage": "sweep", "message": f"unknown family {name!r}"}


def test_sweep_stratum_11(capsys):
    code, out = run_cli(capsys, "sweep", "gamma-5-12/11", "--trials", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["teissier_failures"] == 0
    groups = payload["report"]["groups"]
    assert len(groups) == 1
    assert groups[0]["type"]["branches"] == [[2, 5], [2, 5]]
    assert groups[0]["type"]["intersections"][0][1] == 10


def test_sweep_no_walls_keeps_the_generic_type(capsys):
    # row 18's three walls each take one of the four trials; without them
    # every draw has the generic row-18 polar: two <2,5> branches meeting at 10
    _, walled = run_cli(capsys, "sweep", "gamma-5-12/18", "--trials", "4", "--seed", "1")
    code, out = run_cli(capsys, "sweep", "gamma-5-12/18", "--trials", "4", "--seed", "1", "--no-walls")
    assert code == 0
    payload = json.loads(out)
    assert json.loads(walled)["walls_injected"] and not payload["walls_injected"]
    assert len(json.loads(walled)["report"]["groups"]) == 4
    (group,) = payload["report"]["groups"]
    assert group["count"] == 4
    assert group["type"] == {"branches": [[2, 5], [2, 5]], "intersections": [[None, 10], [10, None]], "milnor": 27}


@pytest.mark.parametrize("patched", ["intersection_multiplicity", "milnor_number"])
def test_sweep_verification_failure_exits_1(monkeypatch, capsys, patched):
    import branchpolar.equising as equising

    monkeypatch.setattr(equising, patched, lambda *args: 0)
    code, out = run_cli(capsys, "sweep", "gamma-5-12/11", "--trials", "1", "--seed", "1")
    assert code == 1
    assert json.loads(out)["error"]["stage"] == "verify"


def test_sweep_zero_trials_rejected(capsys):
    code, _ = run_cli(capsys, "sweep", "gamma-5-12/11", "--trials", "0")
    assert code == 2


def test_sweep_worker_independence(capsys):
    _, out1 = run_cli(capsys, "sweep", "gamma-5-12/10", "--trials", "3", "--seed", "4")
    _, out2 = run_cli(
        capsys, "sweep", "gamma-5-12/10", "--trials", "3", "--seed", "4",
        "--workers", "2",
    )
    assert out1 == out2


def test_families_listing(capsys):
    code, out = run_cli(capsys, "families")
    assert code == 0
    names = json.loads(out)["families"]
    assert "gamma-5-12/18" in names and "mult4-g2" in names
    assert "mult4-g1/3" in names
    assert "mult4-g1/4" not in names and "mult4-g1/5" not in names
