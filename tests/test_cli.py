"""Command-line contract: exit codes, report shape, reproducibility."""

import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from disknorms.cli import FUNCTION_TAGS, THEOREM_IDS, main

OK, THEOREM_FAIL, PRECONDITION, USAGE = 0, 2, 3, 64
SMALL = ["--radial", "16", "--angular", "32"]
SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "schema"
                     / "report_schema.json").read_text())


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(args, tmp_path, name="out.json"):
    code, text = run(args, tmp_path, name)
    return code, (json.loads(text) if text else None)


def test_norm_extremal_alpha0_pre(tmp_path):
    code, doc = run_json(["norm", "--fn", "robertson-extremal", "--alpha", "0",
                          "--which", "pre"], tmp_path)
    assert code == OK
    assert abs(doc["results"]["pre"]["value"] - 2.0) < 1e-3
    assert doc["tool"] == "disknorms"
    assert doc["version"]
    assert doc["config"]["r_cap"] == 0.995
    assert doc["results"]["pre"]["converged"] is True


def test_norm_koebe_schwarzian(tmp_path):
    code, doc = run_json(["norm", "--fn", "koebe", "--which", "schwarzian"], tmp_path)
    assert code == OK
    assert abs(doc["results"]["schwarzian"]["value"] - 6.0) < 1e-3


def test_norm_identity_pre_is_zero(tmp_path):
    code, doc = run_json(["norm", "--fn", "identity", "--which", "pre"], tmp_path)
    assert code == OK
    assert doc["results"]["pre"]["value"] == 0.0


def test_norm_both_defaults(tmp_path):
    code, doc = run_json(["norm", "--fn", "halfplane"], tmp_path)
    assert code == OK
    assert abs(doc["results"]["pre"]["value"] - 4.0) < 1e-3
    assert "schwarzian" in doc["results"]


def test_verify_t44_extremal_alpha0_passes(tmp_path):
    code, doc = run_json(["verify", "T44", "--fn", "robertson-extremal",
                          "--alpha", "0"], tmp_path)
    assert code == OK
    assert doc["results"]["status"] == "pass"
    assert abs(doc["results"]["estimate"] - 2.0) < 1e-3


def test_verify_t44_extremal_quarter_pi_reports_nonmembership(tmp_path):
    # the sharpness family leaves the class for alpha != 0; the verifier
    # reports precondition_unmet with the norm estimate as a side report
    code, doc = run_json(["verify", "T44", "--fn", "robertson-extremal",
                          "--alpha", "0.7854"], tmp_path)
    assert code == PRECONDITION
    c = math.cos(0.7854)
    assert abs(doc["results"]["estimate"] - 2 * c * (2 - c)) < 1e-3


def test_verify_t43_halfplane_precondition(tmp_path):
    code, doc = run_json(["verify", "T43", "--fn", "halfplane", "--alpha", "0"],
                         tmp_path)
    assert code == PRECONDITION
    assert doc["results"]["status"] == "precondition_unmet"
    assert abs(doc["results"]["estimate"] - 4.0) < 1e-3
    assert doc["results"]["bound"] == 2.0


def test_verify_t41_random_member(tmp_path):
    code, doc = run_json(["verify", "T41", "--fn", "random", "--seed", "7",
                          "--alpha", "0.5"], tmp_path)
    assert code == OK
    assert doc["results"]["status"] == "pass"


def test_verify_lemma_schur(tmp_path):
    code, doc = run_json(["verify", "LemA", "--fn", "random", "--seed", "3",
                          "--alpha", "0.4"], tmp_path)
    assert code == OK


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_verify_dispatches_every_theorem(theorem, tmp_path):
    code, doc = run_json(["verify", theorem, "--fn", "random", "--seed", "7",
                          "--degree", "1", "--zero-f2", "--alpha", "0.5", "--radial", "8",
                          "--angular", "16", "--points", "5"], tmp_path)
    assert doc["results"]["theorem_id"] == theorem
    exit_codes = {"pass": OK, "fail": THEOREM_FAIL, "precondition_unmet": PRECONDITION}
    assert code == exit_codes[doc["results"]["status"]]


def test_verify_unknown_theorem_is_usage_error(tmp_path):
    code, _ = run(["verify", "T99", "--fn", "koebe"], tmp_path)
    assert code == USAGE


def test_unknown_function_rejected_before_compute(tmp_path):
    code, _ = run(["norm", "--fn", "zhukovsky"], tmp_path)
    assert code == USAGE


def test_alpha_out_of_range_is_usage_error(tmp_path):
    code, _ = run(["norm", "--fn", "koebe", "--alpha", "1.6"], tmp_path)
    assert code == USAGE


def test_bad_flag_is_usage_error(tmp_path):
    assert main(["norm", "--no-such-flag"]) == USAGE


@pytest.mark.parametrize("args", [["norm", "--fn", "random", "--degree", "5"],
                                  ["sample", "--degree", "0"]])
def test_degree_out_of_range_is_usage_error(args, tmp_path, capsys):
    code, _ = run(args, tmp_path)
    assert code == USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "usage error" in err and "degree" in err


@pytest.mark.parametrize("args", [
    ["verify", "T42d", "--fn", "random", "--zero-f2", "--points", "0"],
    ["verify", "LemA", "--points", "-2"]])
def test_points_below_one_is_usage_error(args, tmp_path, capsys):
    code, text = run(args, tmp_path)
    assert code == USAGE and text == ""
    assert "usage error: points must be >= 1" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"points": 0}))
    code, _ = run(["verify", "LemA", "--config", str(path)], tmp_path)
    assert code == USAGE


def test_sweep_rows(tmp_path):
    code, text = run(["sweep", "--alphas", "0,1.0471975511965976"], tmp_path,
                     name="sweep.csv")
    assert code == OK
    lines = text.strip().splitlines()
    assert lines[0] == "alpha,pre_bound,pre_estimate,schwarzian_bound,schwarzian_estimate"
    row0 = [float(tok) for tok in lines[1].split(",")]
    assert row0[0] == 0.0 and row0[1] == 2.0 and row0[3] == 2.0
    assert abs(row0[2] - 2.0) < 1e-3 and abs(row0[4] - 2.0) < 1e-3
    row1 = [float(tok) for tok in lines[2].split(",")]
    assert abs(row1[1] - 1.0) < 1e-12 and abs(row1[3] - 1.5) < 1e-12
    assert abs(row1[2] - 1.0) < 1e-3 and abs(row1[4] - 1.5) < 1e-3


def test_sweep_sign_symmetry(tmp_path):
    _, text_p = run(["sweep", "--alphas", "0.6"], tmp_path, "p.csv")
    _, text_m = run(["sweep", "--alphas", "-0.6"], tmp_path, "m.csv")
    row_p = text_p.strip().splitlines()[1].split(",")[1:]
    row_m = text_m.strip().splitlines()[1].split(",")[1:]
    assert row_p == row_m


def test_sample_deterministic_bytes(tmp_path):
    args = ["sample", "--alpha", "0.5", "--seed", "11", "--degree", "3"]
    _, text1 = run(args, tmp_path, "s1.json")
    _, text2 = run(args, tmp_path, "s2.json")
    assert text1 == text2
    doc = json.loads(text1)
    assert doc["results"]["margin"]["inf_value"] >= -1e-6


def test_sample_zero_f2(tmp_path):
    code, doc = run_json(["sample", "--alpha", "0.3", "--seed", "2", "--zero-f2"],
                         tmp_path)
    assert code == OK
    c2 = doc["results"]["coefficients"][2]
    assert c2["re"] == 0.0 and c2["im"] == 0.0
    assert doc["results"]["gamma"] == 0.0


def test_reproducible_across_workers(tmp_path):
    base = ["norm", "--fn", "random", "--seed", "5", "--alpha", "0.4"]
    _, t1 = run(base + ["--workers", "1"], tmp_path, "w1.json")
    _, t4 = run(base + ["--workers", "4"], tmp_path, "w4.json")
    assert t1 == t4


def test_reproducible_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "disknorms.cli", "verify", "T41", "--fn", "random",
           "--seed", "7", "--alpha", "0.5"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout  # report went to stdout


def test_config_file_roundtrip(tmp_path):
    cfg = {"fn": "koebe", "which": "schwarzian", "refine_depth": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, doc = run_json(["norm", "--config", str(path)], tmp_path)
    assert code == OK
    assert doc["config"]["fn"] == "koebe"
    assert doc["config"]["refine_depth"] == 2
    assert "schwarzian" in doc["results"] and "pre" not in doc["results"]


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nonsense": 1}))
    code, _ = run(["norm", "--config", str(path)], tmp_path)
    assert code == USAGE


@pytest.mark.parametrize("cfg", [{"points": "5"}, {"degree": "2"}, {"seed": "x"},
                                 {"points": True}, {"alpha": None}, {"which": "foo"},
                                 {"format": "xml"}])
def test_config_value_of_wrong_type_is_usage_error(cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, text = run(["verify", "LemA", "--fn", "random", "--config", str(path)], tmp_path)
    assert code == USAGE and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"config key {next(iter(cfg))!r}" in err


def test_config_file_not_an_object_is_usage_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("5")
    code, _ = run(["norm", "--config", str(path)], tmp_path)
    assert code == USAGE


def test_config_integer_accepted_for_number(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"fn": "koebe", "alpha": 0, "r_cap": 1, "out": None}))
    code, doc = run_json(["norm", "--which", "pre", "--r-cap", "0.99", "--config", str(path)],
                         tmp_path)
    assert code == OK and doc["config"]["alpha"] == 0


@pytest.mark.parametrize("args,fmt,head", [
    (["norm", "--fn", "koebe", "--which", "pre"], "json", "{"),
    (["norm", "--fn", "koebe", "--which", "pre"], "csv", "which,value,"),
    (["norm", "--fn", "koebe", "--which", "pre"], "text", "pre norm estimate: "),
    (["norm", "--fn", "koebe", "--which", "pre"], "xml", None),
    (["verify", "T44", "--fn", "robertson-extremal"], "json", "{"),
    (["verify", "T44", "--fn", "robertson-extremal"], "text", "T44: pass "),
    (["verify", "T44", "--fn", "robertson-extremal"], "csv", None),
    (["sweep", "--alphas", "0"], "csv", "alpha,pre_bound,"),
    (["sweep", "--alphas", "0"], "json", "{"),
    (["sweep", "--alphas", "0"], "text", None),
    (["sample", "--degree", "1"], "json", "{"),
    (["sample", "--degree", "1"], "text", None),
    (["sample", "--degree", "1"], "csv", None)])
@pytest.mark.parametrize("via_config", [False, True])
def test_each_command_writes_only_its_formats(args, fmt, head, via_config, tmp_path, capsys):
    if via_config:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"format": fmt}))
        args = args + ["--config", str(path)]
    else:
        args = args + ["--format", fmt]
    code, text = run(args + SMALL, tmp_path)
    if head is None:
        assert code == USAGE and text == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "usage error" in err and repr(fmt) in err
    else:
        assert code == OK and text.startswith(head)


@pytest.mark.parametrize("value,token", [("inf", "Infinity"), ("-inf", "-Infinity"),
                                         ("nan", "NaN")])
@pytest.mark.parametrize("fn", FUNCTION_TAGS)
def test_non_finite_zeta_arg_is_usage_error(fn, value, token, tmp_path, capsys):
    code, text = run(["norm", "--fn", fn, f"--zeta-arg={value}"], tmp_path)
    assert code == USAGE and text == ""
    path = tmp_path / "cfg.json"
    path.write_text('{"zeta_arg": %s}' % token)  # JSON as Python writes a non-finite float
    code, text = run(["norm", "--fn", fn, "--config", str(path)], tmp_path)
    assert code == USAGE and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.count("zeta_arg must be finite") == 2


def test_negative_float_literal_is_a_flag_value(tmp_path, capsys):
    """A separate value that starts with '-' reads as a number in every
    float spelling, not as a flag."""
    base = ["norm", "--fn", "koebe", "--which", "pre"]
    code, spaced = run(base + ["--alpha", "-1e-3"], tmp_path, "spaced.json")
    _, joined = run(base + ["--alpha=-1e-3"], tmp_path, "joined.json")
    assert code == OK and spaced == joined and '"alpha": -0.001' in spaced
    code, text = run(base + ["--zeta-arg", "-inf"], tmp_path, "inf.json")
    assert code == USAGE and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "zeta_arg must be finite" in err


def test_parser_is_built_once():
    from disknorms.cli import build_parser
    assert build_parser() is build_parser()


def test_deg_alpha_grid_parses_like_radians(tmp_path, capsys):
    code, text = run(["sweep", "--alphas", "0,x", "--deg"], tmp_path)
    assert code == USAGE and text == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "could not convert string to float: 'x'" in err
    base = ["sweep", "--deg", "--format", "json"] + SMALL
    code, skipped = run_json(base + ["--alphas", "0,,30"], tmp_path, "skipped.json")
    _, plain = run_json(base + ["--alphas", "0,30"], tmp_path, "plain.json")
    assert code == OK and skipped == plain
    assert skipped["config"]["alphas"] == f"0.0,{math.radians(30)!r}"


@pytest.mark.parametrize("args", [
    ["norm", "--fn", "random", "--seed", "3"],
    ["sweep", "--format", "json"],
    ["sample", "--seed", "5"],
    *[["verify", theorem, "--fn", "random", "--seed", "7", "--degree", "1", "--zero-f2",
       "--alpha", "0.5", "--points", "5"] for theorem in THEOREM_IDS]])
def test_json_reports_match_schema(args, tmp_path):
    code, doc = run_json(args + SMALL, tmp_path)
    assert code in (OK, THEOREM_FAIL, PRECONDITION)
    jsonschema.validate(doc, SCHEMA)


def test_deg_flag_converts(tmp_path):
    code, doc = run_json(["norm", "--fn", "robertson-extremal", "--alpha", "60",
                          "--deg", "--which", "pre"], tmp_path)
    assert code == OK
    assert abs(doc["config"]["alpha"] - math.pi / 3) < 1e-12
    assert abs(doc["results"]["pre"]["value"] - 1.0) < 1e-3


def test_text_format(tmp_path):
    code, text = run(["norm", "--fn", "koebe", "--format", "text",
                      "--which", "pre"], tmp_path, "out.txt")
    assert code == OK
    assert "norm estimate" in text


def test_csv_format_norm(tmp_path):
    code, text = run(["norm", "--fn", "identity", "--format", "csv"], tmp_path,
                     "out.csv")
    assert code == OK
    assert text.splitlines()[0].startswith("which,value")


def test_evaluation_error_exit_code(monkeypatch, tmp_path):
    import disknorms.cli as cli
    from disknorms.errors import MaxSubdivisions

    def boom(*args, **kwargs):
        raise MaxSubdivisions("injected")

    monkeypatch.setattr(cli, "verify_T41", boom)
    code = main(["verify", "T41", "--fn", "random", "--seed", "1",
                 "--alpha", "0.1", "--out", str(tmp_path / "x.json")])
    assert code == 65


def test_verify_t45_honest_failure_exit_code(tmp_path):
    # seed 4, degree 2 at alpha 0.5 violates the printed refined bound
    code, doc = run_json(["verify", "T45", "--fn", "random", "--seed", "4",
                          "--degree", "2", "--alpha", "0.5"], tmp_path)
    assert code == THEOREM_FAIL
    assert doc["results"]["status"] == "fail"
    assert doc["results"]["estimate"] > doc["results"]["bound"]
