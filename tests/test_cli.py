"""End-to-end command-line runs: artifacts, pipelines, determinism."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from saext import bcclassify, cli, deficiency, jsonio, odesolve, spectrum
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


@pytest.mark.parametrize("family, flags, params", [
    ("general-coupled", ["--alpha", "1", "--beta", "[0.5, 0.5]", "--gamma", "-2"],
     {"alpha": 1.0, "beta": 0.5 + 0.5j, "gamma": -2.0}),
    ("automorphic", ["--K", "[2, 1]"], {"K": 2.0 + 1.0j}),
], ids=["beta", "K"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_complex_family_parameters(tmp_path, family, flags, params, source):
    # --beta and --K read a number or [re, im], as flags and as config keys
    if source == "config":
        config = tmp_path / "run.json"
        jsonio.write(config, {key: [value.real, value.imag] if isinstance(value, complex)
                              else value for key, value in params.items()})
        flags = ["--config", str(config)]
    out = tmp_path / "bc.json"
    assert cli.main(["classify", "--family", family, *flags, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["name"] == family
    want = bcclassify.synthesize(family, **params).matrix
    assert np.array_equal(jsonio.matrix_from_json(report["matrix"]), want)


def test_family_flags_are_the_family_parameters():
    assert set(cli._FAMILY_PARAMETERS) == {
        name for names in bcclassify.FAMILIES.values() for name in names}


@pytest.mark.parametrize("argv", [
    ["--family", "dirichlet", "--alpha", "1"],             # dirichlet takes no parameter
    ["--matrix", "m.json", "--family", "periodic"],        # the matrix is the condition
    ["--matrix", "m.json", "--alpha", "1"],
], ids=["family-extra-parameter", "matrix-and-family", "matrix-and-parameter"])
def test_unused_boundary_condition_input_exits_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    write_matrix("m.json", np.eye(2))
    assert cli.main(["classify", *argv, "--out", "out.json"]) == cli.USAGE_ERROR
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["--family", "automorphic", "--K", "true"],
    ["--family", "automorphic", "--K", "[2, true]"],
    ["--family", "general-coupled", "--alpha", "1", "--gamma", "1", "--beta", "[true, 0]"],
], ids=["K-bool", "K-bool-imag", "beta-bool-real"])
def test_complex_flags_reject_json_booleans(argv):
    # complex(True) is 1: a boolean must not pass for a number
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", *argv])
    assert exc.value.code == cli.USAGE_ERROR


@pytest.mark.parametrize("argv, message", [
    (["--family", "robin", "--alpha", "inf", "--gamma", "1"], "alpha must be finite"),
    (["--family", "general-coupled", "--alpha", "nan", "--gamma", "1"], "alpha must be finite"),
    (["--family", "general-case-II", "--alpha", "1", "--gamma", "-1", "--beta", "1e200"],
     "|beta|^2 = 0"),
], ids=["robin-alpha-inf", "coupled-alpha-nan", "case-ii-huge-beta"])
def test_out_of_range_family_parameters_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "bc.json"
    assert cli.main(["classify", *argv, "--out", str(out)]) == cli.USAGE_ERROR
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_spectrum_json_and_values(tmp_path, zero_potential_file):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--potential", zero_potential_file,
                     "--family", "dirichlet", "--emin", "0.1", "--emax", "30",
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    want = [(np.pi / 2) ** 2, np.pi ** 2, (3 * np.pi / 2) ** 2]
    assert len(data["eigenvalues"]) == 3
    for e, w in zip(data["eigenvalues"], want):
        assert abs(e - w) <= 1e-6 * w


def test_spectrum_csv_output(tmp_path, zero_potential_file):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--potential", zero_potential_file,
                     "--family", "dirichlet", "--emin", "0.1", "--emax", "12",
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eigenvalue,degeneracy,residual"
    assert len(lines) == 3


def test_config_file_with_flag_override(tmp_path, zero_potential_file):
    config = tmp_path / "run.json"
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet",
                          "emin": 0.1, "emax": 12.0})
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
                         "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_eigenfunction_dump_via_config(tmp_path, zero_potential_file):
    config = tmp_path / "run.json"
    prefix = tmp_path / "mode"
    jsonio.write(config, {"potential": zero_potential_file, "family": "dirichlet",
                          "emin": 1.0, "emax": 4.0,
                          "eigenfunctions_out": str(prefix)})
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    dump = (tmp_path / "mode_0_0.csv").read_text().splitlines()
    assert dump[0] == "x,re_f,im_f"
    assert len(dump) > 500


def test_spectrum_runs_a_dense_pass_only_for_the_dump(tmp_path, zero_potential_file,
                                                     monkeypatch):
    # without eigenfunctions_out no eigenfunction is built; with it, each CSV
    # holds the samples of result.eigenfunctions, sample for sample
    starts = []
    fundamental = odesolve.fundamental_solutions

    def counting(p, lam, x0, *args):
        starts.append(x0)
        return fundamental(p, lam, x0, *args)

    monkeypatch.setattr(odesolve, "fundamental_solutions", counting)
    argv = ["spectrum", "--potential", zero_potential_file, "--family", "periodic",
            "--emin", "-1", "--emax", "40"]
    assert cli.main([*argv, "--out", str(tmp_path / "plain.json")]) == 0
    assert starts == []
    config = tmp_path / "run.json"
    jsonio.write(config, {"eigenfunctions_out": str(tmp_path / "mode")})
    assert cli.main([*argv, "--config", str(config), "--out", str(tmp_path / "dump.json")]) == 0
    assert starts == [-1.0]
    result = spectrum.find_eigenvalues(Potential.zero(1.0),
                                       bcclassify.classify(bcclassify.synthesize("periodic")),
                                       e_min=-1.0, e_max=40.0)
    assert result.degeneracies == [1, 2, 2]
    for i, funcs in enumerate(result.eigenfunctions):
        for j, f in enumerate(funcs):
            rows = (tmp_path / f"mode_{i}_{j}.csv").read_text().splitlines()
            assert rows[0] == "x,re_f,im_f"
            got = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
            assert np.array_equal(got, np.column_stack([f.x, f.f.real, f.f.imag]))


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
    for argv in (["classify", "--emax", "5"],                            # not a classify flag
                 ["spectrum", "--potential", zero_potential_file,         # no scan-size flag
                  "--family", "dirichlet", "--grid", "10"],
                 ["classify", "--family", "automorphic", "--theta", "1"],  # automorphic takes --K
                 ["classify", "--family", "general-coupled", "--alpha", "1", "--gamma", "1",
                  "--beta-re", "1"],                                      # --beta takes [re, im]
                 ["map", "--potential", zero_potential_file, "--family", "periodic",
                  "--direction", "bc-to-u", "--a", "3"]):                 # no half-width override
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.USAGE_ERROR
    empty = tmp_path / "empty.json"                                       # no coefficients
    jsonio.write(empty, {"kind": "piecewise", "a": 1.0, "params": {"pieces": [
        {"interval": [-1.0, 1.0], "coefficients": []}]}})
    assert cli.main(["deficiency", "--potential", str(empty)]) == cli.USAGE_ERROR


@pytest.mark.parametrize("bound", [["--emax", "inf"], ["--emax", "nan"], ["--emin", "nan"]],
                         ids=["emax-inf", "emax-nan", "emin-nan"])
def test_non_finite_energy_bounds_exit_2(tmp_path, zero_potential_file, capsys, bound):
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--potential", zero_potential_file, "--family", "dirichlet",
                     *bound, "--out", str(out)]) == cli.USAGE_ERROR
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["deficiency", "--potential", "five.json"],
    ["map", "--potential", "five.json", "--family", "periodic", "--direction", "bc-to-u"],
    ["spectrum", "--potential", "five.json", "--family", "dirichlet"],
    ["classify", "--matrix", "five.json"],
    ["map", "--potential", "zero.json", "--matrix", "pair.json", "--direction", "u-to-bc"],
    ["spectrum", "--potential", "zero.json", "--matrix", "pair.json"],
    ["map", "--potential", "table5.json", "--family", "periodic", "--direction", "bc-to-u"],
    ["map", "--potential", "table1x1.json", "--family", "periodic", "--direction", "bc-to-u"],
    ["deficiency", "--potential", "a-bool.json"],
    ["deficiency", "--potential", "params-strings.json"],
    ["deficiency", "--potential", "unknown-param.json"],
    ["deficiency", "--potential", "wide-well.json"],
    ["classify", "--matrix", "matrix-bool.json"],
    ["map", "--potential", "table-bool.json", "--family", "periodic", "--direction", "bc-to-u"],
], ids=["deficiency-potential", "map-potential", "spectrum-potential", "classify-matrix",
        "map-matrix", "spectrum-matrix", "map-basis-table-int", "map-basis-table-1x1",
        "potential-a-bool", "potential-params-strings", "potential-unknown-param",
        "potential-well-wider-than-a", "matrix-bool", "map-basis-table-bool"])
def test_malformed_input_files_exit_2(tmp_path, monkeypatch, argv):
    # JSON that parses but is not a potential (an object), a 2x2 matrix or
    # a basis whose boundary table is 2x4 [re, im] pairs; true is not 1,
    # "2" is not 2, and a parameter its kind does not take is no parameter
    monkeypatch.chdir(tmp_path)
    jsonio.write("zero.json", Potential.zero(1.0).to_json())
    jsonio.write("five.json", 5)
    jsonio.write("pair.json", [1, 2])
    basis = deficiency.solve_even_odd(Potential.zero(1.0)).to_json()
    jsonio.write("table5.json", dict(basis, boundary_table=5))
    jsonio.write("table1x1.json", dict(basis, boundary_table=[[[1, 0]]]))
    jsonio.write("a-bool.json", {"kind": "zero", "a": True})
    jsonio.write("params-strings.json", {"kind": "finite-well", "a": 2.0,
                                         "params": {"depth": "-10", "half_width": "0.5"}})
    jsonio.write("unknown-param.json", {"kind": "zero", "a": 1.0, "params": {"bogus": 3.0}})
    jsonio.write("wide-well.json", {"kind": "finite-well", "a": 1.0,
                                    "params": {"depth": -10.0, "half_width": 1.5}})
    matrix = jsonio.matrix_to_json(np.eye(2))
    matrix["rows"][0][0] = [True, 0.0]
    jsonio.write("matrix-bool.json", matrix)
    basis["boundary_table"][1][1] = [True, 0.0]
    jsonio.write("table-bool.json", basis)
    assert cli.main([*argv, "--out", "out.json"]) == cli.USAGE_ERROR
    assert not (tmp_path / "out.json").exists()


def test_huge_coupled_parameters_classify_as_dirichlet(tmp_path):
    out = tmp_path / "bc.json"
    assert cli.main(["classify", "--family", "general-coupled", "--alpha", "1e200",
                     "--gamma", "1", "--beta", "1e200", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["case"], report["name"]) == ("III", "dirichlet")


def test_huge_coupled_parameters_report_the_singular_values_of_i_minus_u(tmp_path):
    # I - Ucal has entries of 2e-200, whose squares underflow unless the
    # matrix is scaled first; LAPACK on it scaled by 1e200 is the reference
    out = tmp_path / "bc.json"
    assert cli.main(["classify", "--family", "general-coupled", "--alpha", "1e200",
                     "--gamma", "1", "--beta", "1e200", "--out", str(out)]) == 0
    ucal = bcclassify.synthesize("general-coupled", alpha=1e200, beta=1e200, gamma=1.0)
    want = np.linalg.svd(1e200 * (np.eye(2) - ucal.matrix), compute_uv=False) / 1e200
    got = json.loads(out.read_text())["singular_values"]["I_minus_U"]
    assert want[1] > 1e-200
    assert np.abs(np.array(got) - want).max() <= 1e-14 * want[0]


@pytest.mark.parametrize("argv, files, message", [
    (["spectrum", "--config", "list.json"], {"list.json": "list"},
     "a config file holds one JSON object"),
    (["spectrum", "--family", "dirichlet"], {}, "--potential is required"),
    (["map", "--potential", "general.json", "--family", "periodic", "--direction", "bc-to-u"],
     {"general.json": "general"}, "bc-to-u is defined for even-potential bases only"),
    (["spectrum", "--potential", "zero.json", "--family", "dirichlet", "--emax", "5",
      "--format", "csv"], {"zero.json": "zero"}, "csv output needs --out"),
], ids=["config-list", "spectrum-no-potential", "bc-to-u-general", "csv-no-out"])
def test_usage_errors_name_the_missing_or_wrong_input(tmp_path, monkeypatch, capsys,
                                                      argv, files, message):
    monkeypatch.chdir(tmp_path)
    contents = {"list": [1, 2], "zero": Potential.zero(1.0).to_json(),
                "general": deficiency.solve_orthonormal_pair(Potential.zero(1.0)).to_json()}
    for name, value in files.items():
        jsonio.write(name, contents[value])
    assert cli.main(argv) == cli.USAGE_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, entry", [
    ("verify", {"samples": 2.5}),        # not an int
    ("spectrum", {"emax": "twelve"}),    # not a float
    ("spectrum", {"fmt": "xml"}),        # not one of the --format choices
    ("spectrum", {"e_max": 5}),          # no subcommand has this key
    ("spectrum", {"grid": 200}),         # the scan is sized by the level count
    ("deficiency", {"mode": "evn"}),     # not one of the basis modes
    ("classify", {"theta": 1.0}),        # automorphic takes K, and dirichlet nothing
    ("classify", {"beta_re": 0.5}),      # beta is one key, a number or [re, im]
    ("spectrum", {"a": 2.0}),            # the half-width is the potential file's
], ids=["samples-float", "emax-text", "fmt-xml", "typo-key", "grid-key", "mode-typo",
        "theta-key", "beta-re-key", "a-key"])
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
                          "emin": 0.1, "emax": None})
    out = tmp_path / "spec.json"
    assert cli.main(["spectrum", "--config", str(config), "--out", str(out)]) == 0
    want = [((n * np.pi) / 2) ** 2 for n in range(1, 5)]  # Dirichlet levels below 40
    assert json.loads(out.read_text())["eigenvalues"] == pytest.approx(want, rel=1e-6)


def test_every_output_file_re_encodes_to_its_own_bytes(tmp_path, monkeypatch):
    # floats are written as their shortest round-trip text and keys sorted,
    # so encoding what a file reads back as reproduces the file
    monkeypatch.chdir(tmp_path)
    jsonio.write("well.json", Potential.finite_well(-10.0, 0.5, 1.0).to_json())
    jsonio.write("general-mode.json", {"mode": deficiency.GENERAL_MODE})
    write_matrix("u.json", 1j * np.eye(2))
    for argv in (["deficiency", "--potential", "well.json", "--out", "basis.json"],
                 ["deficiency", "--potential", "well.json", "--config", "general-mode.json",
                  "--out", "general.json"],
                 ["map", "--potential", "basis.json", "--matrix", "u.json",
                  "--direction", "u-to-bc", "--out", "ucal.json"],
                 ["map", "--potential", "general.json", "--matrix", "u.json",
                  "--direction", "u-to-bc", "--out", "ucal-general.json"],
                 ["map", "--potential", "well.json", "--matrix", "ucal.json",
                  "--direction", "bc-to-u", "--out", "u-back.json"],
                 ["classify", "--matrix", "ucal.json", "--out", "bc.json"],
                 ["spectrum", "--potential", "well.json", "--matrix", "ucal.json",
                  "--emax", "40", "--out", "spec.json"],
                 ["verify", "--samples", "3", "--out", "report.json"]):
        assert cli.main(argv) == 0, argv
        text = Path(argv[-1]).read_text(encoding="ascii")
        assert jsonio.dumps(jsonio.read(argv[-1])) + "\n" == text, argv


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
    assert len(commands) == 9
    for argv in commands:
        assert argv[0] == "saext"
        assert cli.main(argv[1:]) == 0, argv
    mapped = json.loads((tmp_path / "ucal.json").read_text())
    assert json.loads((tmp_path / "bc.json").read_text())["matrix"] == mapped["output"]
