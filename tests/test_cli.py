"""End-to-end command-line runs: artifacts, pipelines, determinism."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from saext import cli, jsonio
from saext.potential import Potential


@pytest.fixture()
def zero_potential_file(tmp_path):
    path = tmp_path / "zero.json"
    jsonio.write(path, {"kind": "zero", "a": 1.0, "params": {}})
    return str(path)


def write_matrix(path, m):
    jsonio.write(path, jsonio.matrix_to_json(np.asarray(m, dtype=complex)))
    return str(path)


def test_deficiency_writes_basis(tmp_path, zero_potential_file):
    out = tmp_path / "basis.json"
    assert cli.main(["deficiency", "--potential", zero_potential_file,
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["mode"] == "even-potential"
    assert "mat_A" in data and "boundary_table" in data
    assert data["potential"]["kind"] == "zero"


def test_pipeline_basis_feeds_map(tmp_path, zero_potential_file):
    basis_path = tmp_path / "basis.json"
    assert cli.main(["deficiency", "--potential", zero_potential_file,
                     "--out", str(basis_path)]) == 0
    # Dirichlet parameter from the emitted basis
    data = json.loads(basis_path.read_text())
    mat_a = jsonio.matrix_from_json(data["mat_A"])
    u = -mat_a @ np.linalg.inv(np.conj(mat_a))
    matrix_path = write_matrix(tmp_path / "u.json", u)
    out = tmp_path / "mapped.json"
    assert cli.main(["map", "--potential", str(basis_path), "--matrix", matrix_path,
                     "--direction", "u-to-bc", "--out", str(out)]) == 0
    mapped = jsonio.matrix_from_json(json.loads(out.read_text())["output"])
    assert np.abs(mapped - np.eye(2)).max() < 1e-8


def test_map_rejects_basis_whose_matrices_contradict_its_table(tmp_path):
    potential = tmp_path / "harmonic.json"
    jsonio.write(potential, Potential.harmonic(2.0, 1.0).to_json())
    basis_path = tmp_path / "basis.json"
    assert cli.main(["deficiency", "--potential", str(potential),
                     "--out", str(basis_path)]) == 0
    data = json.loads(basis_path.read_text())
    for key in ("mat_A", "mat_B"):
        data[key] = jsonio.matrix_to_json(np.exp(0.7j) * jsonio.matrix_from_json(data[key]))
    jsonio.write(basis_path, data)
    out = tmp_path / "mapped.json"
    assert cli.main(["map", "--potential", str(basis_path),
                     "--matrix", write_matrix(tmp_path / "u.json", 1j * np.eye(2)),
                     "--direction", "u-to-bc", "--out", str(out)]) == cli.USAGE_ERROR
    assert not out.exists()


def test_map_inverse_direction(tmp_path, zero_potential_file):
    matrix_path = write_matrix(tmp_path / "ucal.json", np.eye(2))
    out = tmp_path / "u.json"
    assert cli.main(["map", "--potential", zero_potential_file, "--matrix", matrix_path,
                     "--direction", "bc-to-u", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["diagnostics"]["roundtrip_error"] < 1e-8


def test_classify_periodic_matrix(tmp_path):
    matrix_path = write_matrix(tmp_path / "m.json", np.array([[0, 1], [1, 0]]))
    out = tmp_path / "bc.json"
    assert cli.main(["classify", "--matrix", matrix_path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["name"] == "periodic" and report["case"] == "IV"


def test_classify_from_family_flags(tmp_path):
    out = tmp_path / "bc.json"
    assert cli.main(["classify", "--family", "robin", "--alpha", "-1", "--gamma", "1",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["name"] == "robin"


def test_spectrum_json_and_values(tmp_path, zero_potential_file):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--potential", zero_potential_file,
                     "--family", "dirichlet", "--emin", "0.1", "--emax", "30",
                     "--grid", "600", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    want = [(np.pi / 2) ** 2, np.pi ** 2, (3 * np.pi / 2) ** 2]
    assert len(data["eigenvalues"]) == 3
    for e, w in zip(data["eigenvalues"], want):
        assert abs(e - w) <= 1e-6 * w


def test_spectrum_csv_output(tmp_path, zero_potential_file):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--potential", zero_potential_file,
                     "--family", "dirichlet", "--emin", "0.1", "--emax", "12",
                     "--grid", "200", "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eigenvalue,degeneracy,residual"
    assert len(lines) == 3


def test_config_file_with_flag_override(tmp_path, zero_potential_file):
    config = tmp_path / "run.json"
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet",
                          "emin": 0.1, "emax": 12.0, "grid": 200})
    out = tmp_path / "spec.json"
    # --emax overrides the config value
    assert cli.main(["spectrum", "--config", str(config), "--emax", "5",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["eigenvalues"]) == 1


def test_output_is_deterministic(tmp_path, zero_potential_file):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert cli.main(["spectrum", "--potential", zero_potential_file,
                         "--family", "dirichlet", "--emin", "0.1", "--emax", "12",
                         "--grid", "200", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eigenfunction_dump_via_config(tmp_path, zero_potential_file):
    config = tmp_path / "run.json"
    prefix = tmp_path / "mode"
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet",
                          "emin": 1.0, "emax": 4.0, "grid": 64,
                          "eigenfunctions_out": str(prefix)})
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    dump = (tmp_path / "mode_0_0.csv").read_text().splitlines()
    assert dump[0] == "x,re_f,im_f"
    assert len(dump) > 500


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert cli.main(["verify", "--samples", "25", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["checks"]["extension_map"]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "0"],                         # sigma_min of no samples is inf, not JSON
    ["classify", "--family", "periodic", "--tol", "0"],   # outside classify's (0, 1e-4]
], ids=["verify-samples-0", "classify-tol-0"])
def test_zero_is_used_not_replaced_by_the_default(tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == cli.USAGE_ERROR
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # spectrum classifies with --tol, and classify rejects 0
    ["spectrum", "--family", "dirichlet", "--emax", "5", "--tol", "0"],
    # map uses --tol only to certify a --matrix, so with --family it is an error
    ["map", "--family", "periodic", "--direction", "bc-to-u", "--tol", "1e-8"],
], ids=["spectrum-tol-0", "map-family-tol"])
def test_tol_is_used_or_rejected(tmp_path, zero_potential_file, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--potential", zero_potential_file,
                     "--out", str(out)]) == cli.USAGE_ERROR
    assert not out.exists()


def test_spectrum_classifies_with_tol(tmp_path, zero_potential_file):
    # (1 - 1e-6) I + 1e-6 i sigma_x, within 1e-6 of Dirichlet's I: Dirichlet at
    # tol 1e-5, but a coupled Case I condition at the default 1e-8
    theta = 1e-6
    matrix = write_matrix(tmp_path / "m.json", np.cos(theta) * np.eye(2)
                          + 1j * np.sin(theta) * np.array([[0, 1], [1, 0]]))
    names = []
    for tol in ([], ["--tol", "1e-5"]):
        out = tmp_path / "spec.json"
        assert cli.main(["spectrum", "--potential", zero_potential_file, "--matrix", matrix,
                         "--emax", "5", *tol, "--out", str(out)]) == 0
        names.append(json.loads(out.read_text())["bc"]["name"])
    assert names == ["general-coupled", "dirichlet"]


def test_usage_errors_exit_2(tmp_path, zero_potential_file):
    assert cli.main(["classify"]) == cli.USAGE_ERROR                      # no matrix
    assert cli.main(["map", "--potential", zero_potential_file]) == cli.USAGE_ERROR
    assert cli.main(["spectrum", "--potential", str(tmp_path / "nope.json"),
                     "--family", "dirichlet"]) == cli.USAGE_ERROR         # missing file
    bad = write_matrix(tmp_path / "bad.json", np.diag([2.0, 1.0]))
    assert cli.main(["classify", "--matrix", bad]) == cli.USAGE_ERROR     # not unitary
    with pytest.raises(SystemExit) as exc:                                # not a classify flag
        cli.main(["classify", "--emax", "5"])
    assert exc.value.code == cli.USAGE_ERROR
    empty = tmp_path / "empty.json"                                       # no coefficients
    jsonio.write(empty, {"kind": "piecewise", "a": 1.0, "params": {"pieces": [
        {"interval": [-1.0, 1.0], "coefficients": []}]}})
    assert cli.main(["deficiency", "--potential", str(empty)]) == cli.USAGE_ERROR


@pytest.mark.parametrize("command, entry", [
    ("spectrum", {"grid": 20.5}),        # not an int
    ("spectrum", {"emax": "twelve"}),    # not a float
    ("spectrum", {"fmt": "xml"}),        # not one of the --format choices
    ("spectrum", {"e_max": 5}),          # no subcommand has this key
    ("deficiency", {"mode": "evn"}),     # not one of the basis modes
], ids=["grid-float", "emax-text", "fmt-xml", "typo-key", "mode-typo"])
def test_config_values_checked_like_flags(tmp_path, zero_potential_file, command, entry):
    config = tmp_path / "run.json"
    # deficiency ignores "family", a key of other subcommands
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet", **entry})
    out = tmp_path / "out.json"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == cli.USAGE_ERROR
    assert not out.exists()


def test_config_null_leaves_default(tmp_path, zero_potential_file):
    config = tmp_path / "run.json"
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet",
                          "emin": 0.1, "emax": None, "grid": 400})
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    want = [((n * np.pi) / 2) ** 2 for n in range(1, 5)]  # Dirichlet levels below 40
    assert json.loads(out.read_text())["eigenvalues"] == pytest.approx(want, rel=1e-6)


def readme_commands():
    """The example commands of the README's command-line section, in order."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_pipeline_runs(tmp_path, monkeypatch):
    # the two inputs the examples start from: a finite well and U = i I
    monkeypatch.chdir(tmp_path)
    jsonio.write("well.json", Potential.finite_well(-10.0, 0.5, 1.0).to_json())
    write_matrix("u.json", 1j * np.eye(2))
    commands = readme_commands()
    assert len(commands) == 8
    for argv in commands:
        assert argv[0] == "saext"
        assert cli.main(argv[1:]) == 0, argv
    mapped = json.loads((tmp_path / "ucal.json").read_text())
    assert json.loads((tmp_path / "bc.json").read_text())["matrix"] == mapped["output"]
