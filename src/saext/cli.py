"""Command-line front end: saext deficiency|map|classify|spectrum|verify.

Configuration comes from flags, from a JSON file passed with --config, or
both (flags win).  All emitted files use the canonical JSON writer, so a
repeated run with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import bcclassify, deficiency, extmap, jsonio, odesolve, spectrum
from .errors import SaextError
from .extmap import Unitary2
from .potential import Potential

USAGE_ERROR = 2


def _build_parser():
    parser = argparse.ArgumentParser(prog="saext",
                                     description="self-adjoint extensions of -d2/dx2 + V on [-a, a]")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("deficiency", "build and store a deficiency basis"),
                       ("map", "map between the von Neumann unitary and the boundary unitary"),
                       ("classify", "classify a boundary-condition unitary"),
                       ("spectrum", "compute the spectrum of one extension"),
                       ("verify", "run the numerical property suites")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="JSON config file; flags override its values")
        cmd.add_argument("--out", help="output file path")
        if name in ("deficiency", "map", "spectrum"):
            cmd.add_argument("--potential", help="potential descriptor file (or basis.json for map)")
            cmd.add_argument("--a", type=float, help="half-width override for the potential")
        if name in ("map", "classify", "spectrum"):
            cmd.add_argument("--matrix", help="2x2 complex matrix file {\"rows\": ...}")
            cmd.add_argument("--family", help="named BC family instead of a matrix")
            cmd.add_argument("--alpha", type=float)
            cmd.add_argument("--beta-re", type=float, dest="beta_re")
            cmd.add_argument("--beta-im", type=float, dest="beta_im")
            cmd.add_argument("--gamma", type=float)
            cmd.add_argument("--theta", type=float)
            cmd.add_argument("--phi", type=float)
            cmd.add_argument("--tol", type=float)
        if name == "map":
            cmd.add_argument("--direction", choices=("u-to-bc", "bc-to-u"))
        if name == "spectrum":
            cmd.add_argument("--emin", type=float)
            cmd.add_argument("--emax", type=float)
            cmd.add_argument("--grid", type=int)
            cmd.add_argument("--format", choices=("json", "csv"), dest="fmt")
        if name == "verify":
            cmd.add_argument("--samples", type=int)
    return parser


def _merge_config(args):
    """Flags override config-file values; returns a plain dict."""
    config = {}
    if args.config:
        config.update(jsonio.read(args.config))
    for key in ("potential", "a", "matrix", "family", "alpha", "beta_re", "beta_im",
                "gamma", "theta", "phi", "direction", "emin", "emax", "grid", "out",
                "fmt", "tol", "samples"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    config.setdefault("fmt", "json")
    return config


class UsageError(SaextError):
    pass


def _load_potential(config):
    path = config.get("potential")
    if path is None:
        raise UsageError("--potential is required for this command")
    data = jsonio.read(path)
    if "mode" in data:  # a basis.json embeds its potential descriptor
        data = data["potential"]
    if config.get("a") is not None:
        data = dict(data, a=config["a"])
    return Potential.from_json(data)


def _load_basis(config):
    """Basis from a basis.json file, or rebuilt from a potential descriptor."""
    path = config.get("potential")
    if path is None:
        raise UsageError("map needs --potential (a basis.json or a potential descriptor)")
    data = jsonio.read(path)
    if "mode" in data:
        return deficiency.DeficiencyBasis.from_json(data)
    p = Potential.from_json(data if config.get("a") is None else dict(data, a=config["a"]))
    if p.is_even(1e-12):
        return deficiency.solve_even_odd(p)
    return deficiency.solve_orthonormal_pair(p)


def _load_unitary(config):
    if config.get("matrix"):
        m = jsonio.matrix_from_json(jsonio.read(config["matrix"]))
        return Unitary2.certify(m, tol=config.get("tol") or extmap.INPUT_UNITARITY_TOL)
    if config.get("family"):
        beta = None
        if config.get("beta_re") is not None or config.get("beta_im") is not None:
            beta = complex(config.get("beta_re") or 0.0, config.get("beta_im") or 0.0)
        kval = None
        if config.get("K") is not None:
            kre, kim = config["K"] if isinstance(config["K"], (list, tuple)) else (config["K"], 0.0)
            kval = complex(kre, kim)
        return bcclassify.synthesize(config["family"], alpha=config.get("alpha"),
                                     beta=beta, gamma=config.get("gamma"),
                                     theta=config.get("theta"), phi=config.get("phi"),
                                     K=kval)
    raise UsageError("need --matrix or --family")


def _write_out(config, payload):
    out = config.get("out")
    if out is None:
        sys.stdout.write(jsonio.dumps(payload) + "\n")
    else:
        jsonio.write(out, payload)


def _cmd_deficiency(config):
    p = _load_potential(config)
    mode = config.get("mode")
    if mode is None:
        mode = deficiency.EVEN_MODE if p.is_even(1e-12) else deficiency.GENERAL_MODE
    if mode == deficiency.EVEN_MODE:
        basis = deficiency.solve_even_odd(p)
    else:
        basis = deficiency.solve_orthonormal_pair(p)
    _write_out(config, basis.to_json())
    return 0


def _cmd_map(config):
    basis = _load_basis(config)
    direction = config.get("direction")
    if direction is None:
        raise UsageError("map needs --direction u-to-bc|bc-to-u")
    u = _load_unitary(config)
    if direction == "u-to-bc":
        if basis.parity_mode == deficiency.GENERAL_MODE:
            ucal = extmap.forward_map_general(basis, u)
            payload = {"direction": direction, "input": jsonio.matrix_to_json(u.matrix),
                       "output": jsonio.matrix_to_json(ucal.matrix),
                       "diagnostics": {"unitarity_defect": ucal.defect}}
        else:
            pair = extmap.forward_map(basis, u)
            back = extmap.inverse_map(basis, pair.Ucal)
            payload = {"direction": direction, "input": jsonio.matrix_to_json(u.matrix),
                       "output": jsonio.matrix_to_json(pair.Ucal.matrix),
                       "diagnostics": {
                           "V": jsonio.matrix_to_json(pair.V),
                           "Vtilde": jsonio.matrix_to_json(pair.Vtilde),
                           "Utilde": jsonio.matrix_to_json(pair.Utilde.matrix),
                           "unitarity_defect": pair.Ucal.defect,
                           "roundtrip_error": float(np.abs(back.matrix - u.matrix).max()),
                       }}
    else:
        if basis.parity_mode == deficiency.GENERAL_MODE:
            raise UsageError("bc-to-u is defined for even-potential bases only")
        von_neumann = extmap.inverse_map(basis, u)
        pair = extmap.forward_map(basis, von_neumann)
        payload = {"direction": direction, "input": jsonio.matrix_to_json(u.matrix),
                   "output": jsonio.matrix_to_json(von_neumann.matrix),
                   "diagnostics": {
                       "unitarity_defect": von_neumann.defect,
                       "roundtrip_error": float(np.abs(pair.Ucal.matrix - u.matrix).max()),
                   }}
    _write_out(config, payload)
    return 0


def _cmd_classify(config):
    u = _load_unitary(config)
    bc = bcclassify.classify(u, tol=config.get("tol") or bcclassify.DEFAULT_TOL)
    _write_out(config, bc.to_json())
    return 0


def _write_spectrum_csv(path, result):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue", "degeneracy", "residual"])
        for e, d, r in zip(result.eigenvalues, result.degeneracies, result.residuals):
            writer.writerow([format(e, ".17g"), d, format(r, ".17g")])


def _write_eigenfunction_csv(prefix, result):
    for i, funcs in enumerate(result.eigenfunctions):
        for j, f in enumerate(funcs):
            with open(f"{prefix}_{i}_{j}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["x", "re_f", "im_f"])
                for x, value in zip(f.x, f.f):
                    writer.writerow([format(x, ".17g"), format(value.real, ".17g"),
                                     format(value.imag, ".17g")])


def _cmd_spectrum(config):
    p = _load_potential(config)
    bc = bcclassify.classify(_load_unitary(config))
    result = spectrum.find_eigenvalues(
        p, bc, e_min=config.get("emin"), e_max=config.get("emax", 40.0),
        grid=config.get("grid"))
    if config.get("fmt") == "csv":
        if config.get("out") is None:
            raise UsageError("csv output needs --out")
        _write_spectrum_csv(config["out"], result)
    else:
        _write_out(config, result.to_json())
    if config.get("eigenfunctions_out"):
        _write_eigenfunction_csv(config["eigenfunctions_out"], result)
    return 0


def _verify_report(samples):
    """Run the cross-module invariant suites at a reduced sample count."""
    checks = {}

    canonical = [Potential.zero(1.0), Potential.harmonic(1.0, 1.0),
                 Potential.cosine(1.0, np.pi, 1.0), Potential.finite_well(-10.0, 0.5, 1.0)]
    worst = 0.0
    for p in canonical:
        if not p.is_even(1e-12):
            worst = np.inf
        basis = deficiency.solve_even_odd(p)
        for j in range(2):
            worst = max(worst, abs(deficiency.wronskian_identity(basis.boundary_table, j) - 1j))
    checks["deficiency_wronskian"] = {"worst": worst, "threshold": 1e-8, "passed": worst <= 1e-8}

    oracle = odesolve.integrate(Potential.zero(1.0), -1.0, -1.0, 1.0, 1.0, 0.0)
    err = abs(oracle.f1 - np.cosh(2.0))
    checks["ode_oracle_cosh"] = {"worst": err, "threshold": 1e-9, "passed": err <= 1e-9}

    basis = deficiency.solve_even_odd(Potential.zero(1.0))
    identity_report = extmap.check_identities(basis, samples)
    checks["extension_map"] = {"passed": identity_report["passed"],
                               "detail": identity_report["checks"]}

    rng = np.random.default_rng(11)
    worst_rt = 0.0
    for _ in range(samples):
        u = Unitary2.certify(extmap.haar_unitary(rng))
        pair = extmap.forward_map(basis, u)
        back = extmap.inverse_map(basis, pair.Ucal)
        worst_rt = max(worst_rt, float(np.abs(back.matrix - u.matrix).max()))
    checks["map_roundtrip"] = {"worst": worst_rt, "threshold": 1e-8, "passed": worst_rt <= 1e-8}

    worst_cls = 0.0
    for _ in range(samples):
        u = Unitary2.certify(extmap.haar_unitary(rng))
        bc = bcclassify.classify(u)
        if bc.case in (bcclassify.CASE_I, bcclassify.CASE_IV):
            rebuilt = bcclassify.synthesize_from(bc)
            worst_cls = max(worst_cls, float(np.abs(rebuilt.matrix - u.matrix).max()))
    checks["classify_roundtrip"] = {"worst": worst_cls, "threshold": 1e-7,
                                    "passed": worst_cls <= 1e-7}

    box = spectrum.find_eigenvalues(Potential.zero(1.0), bcclassify.classify(
        bcclassify.synthesize("dirichlet")), e_min=0.1, e_max=12.0, grid=200)
    expected = [(np.pi / 2) ** 2, np.pi ** 2]
    ok = (len(box.eigenvalues) >= 2
          and all(abs(e - w) <= 1e-6 * w for e, w in zip(box.eigenvalues, expected)))
    checks["box_spectrum"] = {"eigenvalues": box.eigenvalues[:2], "passed": bool(ok)}

    passed = all(c["passed"] for c in checks.values())
    return {"samples": samples, "passed": passed, "checks": checks}


def _cmd_verify(config):
    report = _verify_report(config.get("samples") or 100)
    _write_out(config, report)
    return 0 if report["passed"] else 1


_COMMANDS = {"deficiency": _cmd_deficiency, "map": _cmd_map, "classify": _cmd_classify,
             "spectrum": _cmd_spectrum, "verify": _cmd_verify}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"saext: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SaextError, OSError, KeyError, ValueError) as exc:
        print(f"saext: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
