import json

import numpy as np
import pytest

from picknorm.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


HARDY_DOC = {
    "backend": "hardy",
    "sites": [[0.0, 0.0], [0.5, 0.0]],
    "targets": [[0.0, 0.0], [0.25, 0.0]],
    "tolerance": 1e-9,
}


def test_compute_hardy_json(tmp_path, capsys):
    path = write(tmp_path, "p.json", HARDY_DOC)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_lower"] == pytest.approx(0.5, abs=1e-9)
    assert doc["norm_upper"] == pytest.approx(0.5, abs=1e-9)
    assert doc["sup_floor"] == 0.25
    assert doc["backend_echo"] == "hardy"
    assert doc["timing_ms"] is None
    # round-trip: the emitted document re-validates
    assert doc["norm_lower"] >= doc["sup_floor"] - 1e-9
    assert doc["norm_upper"] >= doc["norm_lower"]


def test_compute_prints_the_exact_certificate(tmp_path, capsys):
    doc = {"backend": "l1_torus", "sites": [-1, 2], "targets": [[0.0, 1.0], [0.5, 0.0]]}
    code, out, _ = run_cli(capsys, "compute", write(tmp_path, "p.json", doc))
    assert code == 0
    doc = json.loads(out)
    assert doc["norm_lower"] <= 1.0 <= doc["norm_upper"]
    assert doc["iterations"] == 0
    cert = doc["certificate"]
    assert cert["method"] == "two_site_torus"
    assert len(cert["atoms"]["angles"]) == len(cert["atoms"]["weights"]) == 2


def test_compute_byte_deterministic(tmp_path, capsys):
    path = write(tmp_path, "p.json", HARDY_DOC)
    _, out1, _ = run_cli(capsys, "compute", path)
    _, out2, _ = run_cli(capsys, "compute", path)
    assert out1 == out2


def test_compute_duplicate_sites_exit_2(tmp_path, capsys):
    doc = dict(HARDY_DOC, sites=[[0.3, 0.0], [0.3, 0.0]])
    path = write(tmp_path, "p.json", doc)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "0 and 1" in err


def test_compute_missing_file_exit_1(capsys):
    code, _, err = run_cli(capsys, "compute", "/nonexistent/p.json")
    assert code == 1


def test_compute_parse_error_names_field(tmp_path, capsys):
    doc = dict(HARDY_DOC, targets=[[0.0, 0.0], "bad"])
    path = write(tmp_path, "p.json", doc)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "targets[1]" in err


@pytest.mark.parametrize("doc, field", [
    ({"backend": "l1_torus", "sites": [True, 3], "targets": [1, 2],
      "tolerance": 1e-3}, "sites[0]"),
    ({"backend": "wiener", "sites": [0.5, False], "targets": [1, 2]}, "sites[1]"),
    ({"backend": "hardy", "sites": [True, 0.5], "targets": [1, 2]}, "sites[0]"),
    (dict(HARDY_DOC, targets=[1, True]), "targets[1]"),
    (dict(HARDY_DOC, targets=[[0.0, 0.0], [False, 0.25]]), "targets[1]"),
    (dict(HARDY_DOC, tolerance=True), "tolerance"),
    ({"backend": "finite_sup", "sites": [1, 2], "targets": [1, -1],
      "backend_params": {"basis": [[1, 0], [0, True]]}}, "backend_params.basis[1][1]"),
    ({"backend": "finite_lp", "sites": [1, 2], "targets": [1, -1],
      "backend_params": {"p": True}}, "backend_params.p"),
    ({"backend": "finite_sup", "sites": [1, 2], "targets": [1, -1],
      "backend_params": {"weights": [True, 2]}}, "backend_params.weights[0]"),
    ({"backend": "finite_l1", "sites": [1, 2], "targets": [1, -1],
      "backend_params": {"weights": [2, False]}}, "backend_params.weights[1]"),
], ids=["integer-site", "angle-site", "disc-site", "target", "target-pair",
        "tolerance", "basis", "p", "weights", "weights-false"])
def test_compute_rejects_json_booleans_as_numbers(tmp_path, capsys, doc, field):
    # JSON true/false parse to Python bools, which are ints
    code, _, err = run_cli(capsys, "compute", write(tmp_path, "p.json", doc))
    assert code == 2
    assert field in err


@pytest.mark.parametrize("text, field", [
    ("[1, 2]", "$"),
    (json.dumps({"backend": "nope", "sites": [0.0], "targets": [1]}), "backend"),
    (json.dumps({"backend": "hardy", "sites": [], "targets": []}), "sites"),
    (json.dumps({"backend": "hardy", "sites": [0.0], "targets": 1}), "targets"),
    (json.dumps({"backend": "finite_sup", "sites": [1], "targets": [1],
                 "backend_params": [1]}), "backend_params"),
    (json.dumps({"backend": "finite_sup", "sites": [1, 2], "targets": [1, -1],
                 "backend_params": {"basis": 3}}), "backend_params.basis"),
    ('{"backend": "hardy",', "not valid JSON"),
], ids=["not-an-object", "unknown-backend", "empty-sites", "targets-not-array",
        "params-not-object", "basis-not-array", "invalid-json"])
def test_compute_malformed_file_exit_2(tmp_path, capsys, text, field):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "compute", str(path))
    assert code == 2
    assert field in err


def test_compute_finite_sup_csv(tmp_path, capsys):
    doc = {
        "backend": "finite_sup",
        "sites": [1, 2],
        "targets": [[1.0, 0.0], [-1.0, 0.0]],
        "backend_params": {"weights": [1.0, 1.0]},
    }
    path = write(tmp_path, "p.json", doc)
    code, out, _ = run_cli(capsys, "compute", path, "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "norm_lower,norm_upper,sup_floor,backend,iterations"
    vals = row.split(",")
    assert float(vals[0]) == 1.0 and float(vals[1]) == 1.0
    assert vals[3] == "finite_sup"


def test_compute_tol_override(tmp_path, capsys):
    path = write(tmp_path, "p.json", HARDY_DOC)
    code, out, _ = run_cli(capsys, "compute", path, "--tol", "1e-3")
    assert code == 0
    doc = json.loads(out)
    assert doc["config_echo"]["tolerance"] == 1e-3
    assert doc["norm_upper"] - doc["norm_lower"] <= 1e-3


def test_compute_solver_stall_exit_3(tmp_path, capsys):
    doc = {
        "backend": "analytic_wiener",
        "sites": [[1.0, 0.0], [-1.0, 0.0]],
        "targets": [[1.0, 0.0], [0.0, 1.0]],
        "tolerance": 1e-6,
    }
    path = write(tmp_path, "p.json", doc)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 3


def test_compute_analytic_wiener_writes_complex_sites(tmp_path, capsys):
    # the dual certificate keeps its disc sites as complex numbers; the
    # JSON output writes them as [re, im]
    doc = {"backend": "analytic_wiener", "sites": [0, 0.5], "targets": [0, 0.25]}
    path = write(tmp_path, "p.json", doc)
    code, out, _ = run_cli(capsys, "compute", path)
    assert code == 0
    dual = json.loads(out)["certificate"]["dual"]
    assert dual["meta"]["sites"] == [[0.0, 0.0], [0.5, 0.0]]


def test_compute_non_integer_dimension_exit_2(tmp_path, capsys):
    doc = {"backend": "finite_sup", "sites": [1, 2], "targets": [1, -1],
           "backend_params": {"dimension": 2.7}}
    path = write(tmp_path, "p.json", doc)
    code, _, err = run_cli(capsys, "compute", path)
    assert code == 2
    assert "dimension" in err


@pytest.mark.parametrize("slack", ["x", -0.1, 2.0, float("nan"), [1e-6]],
                         ids=["string", "negative", "two", "nan", "list"])
def test_gleason_bad_part_slack_exit_2(tmp_path, capsys, slack):
    doc = {"backend": "hardy", "sites": [0.0, 0.5], "part_slack": slack}
    path = write(tmp_path, "p.json", doc)
    code, _, err = run_cli(capsys, "gleason", path)
    assert code == 2
    assert "part_slack" in err


def test_gleason_disc_pair(tmp_path, capsys):
    doc = {"backend": "hardy", "sites": [[0.0, 0.0], [0.5, 0.0]]}
    path = write(tmp_path, "g.json", doc)
    code, out, _ = run_cli(capsys, "gleason", path)
    assert code == 0
    rep = json.loads(out)
    lo, hi = rep["distances"][0][1]
    assert lo == pytest.approx(4 - 2 * np.sqrt(3), abs=1e-4)
    assert rep["partition"] == [[0, 1]]


def test_gleason_finite_with_trivial_report(tmp_path, capsys):
    doc = {
        "backend": "finite_sup",
        "sites": [1, 2],
        "backend_params": {"weights": [1.0, 1.0]},
    }
    path = write(tmp_path, "g.json", doc)
    code, out, _ = run_cli(capsys, "gleason", path, "--theorem4")
    assert code == 0
    rep = json.loads(out)
    assert rep["distances"][0][1] == [2.0, 2.0]
    assert rep["partition"] == [[0], [1]]
    assert rep["theorem4"]["claimed_np_infty"]
    assert rep["theorem4"]["consistent"]


def test_gleason_finite_honours_basis(tmp_path, capsys):
    doc = {
        "backend": "finite_sup",
        "sites": [1, 2, 3],
        "backend_params": {"basis": [[1, 1, 0], [[0, 0], [0, 0], [1, 0]]]},
    }
    path = write(tmp_path, "g.json", doc)
    code, out, _ = run_cli(capsys, "gleason", path, "--theorem4")
    assert code == 0
    rep = json.loads(out)
    assert rep["distances"][0][1] == [0.0, 0.0]
    assert rep["distances"][0][2] == [2.0, 2.0]
    assert rep["partition"] == [[0, 1], [2]]
    same = rep["theorem4"]["pairs"][0]
    assert same["same_character"] and same["np_value"] is None
    assert rep["theorem4"]["all_pairs_certified_trivial"]


def test_gleason_single_site_exit_2(tmp_path, capsys):
    doc = {"backend": "hardy", "sites": [[0.0, 0.0]]}
    path = write(tmp_path, "g.json", doc)
    code, _, _ = run_cli(capsys, "gleason", path)
    assert code == 2


def test_gleason_wiener_exit_2(tmp_path, capsys):
    # only the disc and the finite models have part diagnostics
    doc = {"backend": "wiener", "sites": [0.0, 1.0]}
    code, _, err = run_cli(capsys, "gleason", write(tmp_path, "g.json", doc))
    assert code == 2
    assert "no part diagnostics" in err


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_verify_negative_seed_exit_2(capsys):
    # numpy's generators reject negative seeds; the parser does first
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kernels", "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_gleason_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "gleason", "--seed", "3")
    assert code == 0
    assert "suite gleason: PASS" in out
    assert out.strip().endswith("overall: PASS")


def test_verify_np_infty_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "verify", "np_infty", "--seed", "2")
    _, out2, _ = run_cli(capsys, "verify", "np_infty", "--seed", "2")
    assert out1 == out2


def test_kernel_probe_csv(capsys):
    code, out, _ = run_cli(capsys, "kernel-probe", "--lmax", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "order,dlvp_l1_norm,fejer_l1_norm"
    orders = [int(line.split(",")[0]) for line in lines[1:]]
    assert orders == [1, 2, 4]
    for line in lines[1:]:
        _, v, f = line.split(",")
        assert float(v) >= 1.0
        assert float(f) == pytest.approx(1.0, abs=1e-10)
