"""Command-line front end: saext deficiency|map|classify|spectrum|verify.

Configuration comes from flags, from a JSON file passed with --config, or
both (flags win).  A config key is a flag's dest and its value goes through
the flag's own type and choices.  All emitted files use the canonical JSON
writer, so a repeated run with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import bcclassify, checks, deficiency, extmap, jsonio, spectrum
from .errors import SaextError
from .extmap import Unitary2
from .potential import Potential

USAGE_ERROR = 2


def _complex(text):
    """A complex number from JSON text: a real number or an [re, im] pair."""
    value = json.loads(text)
    real, imag = value if isinstance(value, list) else (value, 0.0)
    return complex(real, imag)


def _build_parser():
    """The parser and, per subcommand, {dest: Action} of its flags and config-only keys."""
    parser = argparse.ArgumentParser(prog="saext",
                                     description="self-adjoint extensions of -d2/dx2 + V on [-a, a]")
    sub = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for name, text in (("deficiency", "build and store a deficiency basis"),
                       ("map", "map between the von Neumann unitary and the boundary unitary"),
                       ("classify", "classify a boundary-condition unitary"),
                       ("spectrum", "compute the spectrum of one extension"),
                       ("verify", "run the numerical property suites")):
        cmd = sub.add_parser(name, help=text)
        own = [cmd.add_argument("--config", help="JSON config file; flags override its values"),
               cmd.add_argument("--out", help="output file path")]
        if name in ("deficiency", "map", "spectrum"):
            own += [cmd.add_argument("--potential",
                                     help="potential descriptor file (or basis.json for map)"),
                    cmd.add_argument("--a", type=float, help="half-width override for the potential")]
        if name in ("map", "classify", "spectrum"):
            own += [cmd.add_argument("--matrix",
                                     help="2x2 complex matrix file {\"rows\": ...} or a map output"),
                    cmd.add_argument("--family", help="named BC family instead of a matrix"),
                    argparse.Action([], "K", type=_complex)]
            own += [cmd.add_argument(f"--{flag}", type=float)
                    for flag in ("alpha", "beta-re", "beta-im", "gamma", "theta", "phi", "tol")]
        if name == "deficiency":
            own.append(argparse.Action([], "mode", choices=(deficiency.EVEN_MODE,
                                                            deficiency.GENERAL_MODE)))
        if name == "map":
            own.append(cmd.add_argument("--direction", choices=("u-to-bc", "bc-to-u")))
        if name == "spectrum":
            own += [cmd.add_argument("--emin", type=float),
                    cmd.add_argument("--emax", type=float),
                    cmd.add_argument("--grid", type=int),
                    cmd.add_argument("--format", choices=("json", "csv"), dest="fmt"),
                    argparse.Action([], "eigenfunctions_out")]
        if name == "verify":
            own.append(cmd.add_argument("--samples", type=int))
        actions[name] = {action.dest: action for action in own}
    return parser, actions


class UsageError(SaextError):
    pass


def _admit(action, value):
    """A config value converted and checked as the flag's text would be."""
    try:
        value = (action.type or str)(str(value))
    except (TypeError, ValueError):
        raise UsageError(f"config {action.dest!r}: invalid value {value!r}") from None
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config {action.dest!r}: {value!r} is not one of "
                         f"{', '.join(action.choices)}")
    return value


def _merge_config(args, actions):
    """Config-file values admitted through the subcommand's actions, then
    the flags, which win; JSON null leaves a value unset."""
    own = actions[args.command]
    data = jsonio.read(args.config) if args.config else {}
    if not isinstance(data, dict):
        raise UsageError("a config file holds one JSON object")
    config = {}
    for key, value in data.items():
        if key in own:
            if value is not None:
                config[key] = _admit(own[key], value)
        elif not any(key in other for other in actions.values()):
            raise UsageError(f"config key {key!r} is not an option of any subcommand")
    for key in own:
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _read_potential(config):
    """The JSON of the --potential file: a potential descriptor or a basis.json."""
    path = config.get("potential")
    if path is None:
        raise UsageError("--potential is required (a potential descriptor or a basis.json)")
    return jsonio.read(path)


def _load_potential(config, data=None):
    """The potential of the --potential file, --a overriding its half-width."""
    data = _read_potential(config) if data is None else data
    if "mode" in data:  # a basis.json embeds its potential descriptor
        data = data["potential"]
    if config.get("a") is not None:
        data = dict(data, a=config["a"])
    return Potential.from_json(data)


def _solve_basis(p, mode=None):
    """The even/odd basis for an even potential, else the orthonormal pair, unless mode says."""
    even = p.is_even() if mode is None else mode == deficiency.EVEN_MODE
    return deficiency.solve_even_odd(p) if even else deficiency.solve_orthonormal_pair(p)


def _load_basis(config):
    """Basis from a basis.json file, or rebuilt from a potential descriptor."""
    data = _read_potential(config)
    if "mode" in data:
        return deficiency.DeficiencyBasis.from_json(data)
    return _solve_basis(_load_potential(config, data))


def _load_unitary(config):
    if config.get("matrix"):
        data = jsonio.read(config["matrix"])
        if isinstance(data, dict) and "output" in data:  # a map payload carries its matrix
            data = data["output"]
        m = jsonio.matrix_from_json(data)
        return Unitary2.certify(m, tol=config.get("tol", extmap.INPUT_UNITARITY_TOL))
    if config.get("family"):
        b_re, b_im = config.get("beta_re"), config.get("beta_im")
        beta = None if b_re is None and b_im is None else complex(b_re or 0.0, b_im or 0.0)
        return bcclassify.synthesize(config["family"], alpha=config.get("alpha"),
                                     beta=beta, gamma=config.get("gamma"),
                                     theta=config.get("theta"), phi=config.get("phi"),
                                     K=config.get("K"))
    raise UsageError("need --matrix or --family")


def _write_out(config, payload):
    out = config.get("out")
    if out is None:
        sys.stdout.write(jsonio.dumps(payload) + "\n")
    else:
        jsonio.write(out, payload)


def _cmd_deficiency(config):
    basis = _solve_basis(_load_potential(config), config.get("mode"))
    _write_out(config, basis.to_json())
    return 0


def _max_error(got, want):
    return float(np.abs(got.matrix - want.matrix).max())


def _cmd_map(config):
    if config.get("tol") is not None and not config.get("matrix"):
        raise UsageError("map uses --tol only to certify a --matrix")
    basis = _load_basis(config)
    direction = config.get("direction")
    if direction is None:
        raise UsageError("map needs --direction u-to-bc|bc-to-u")
    u = _load_unitary(config)
    general = basis.parity_mode == deficiency.GENERAL_MODE
    if direction == "u-to-bc" and general:
        out = extmap.forward_map_general(basis, u)
        diagnostics = {"unitarity_defect": out.defect}
    elif direction == "u-to-bc":
        pair = extmap.forward_map(basis, u)
        out = pair.Ucal
        diagnostics = {"V": jsonio.matrix_to_json(pair.V),
                       "Vtilde": jsonio.matrix_to_json(pair.Vtilde),
                       "Utilde": jsonio.matrix_to_json(pair.Utilde.matrix),
                       "unitarity_defect": out.defect,
                       "roundtrip_error": _max_error(extmap.inverse_map(basis, out), u)}
    elif general:
        raise UsageError("bc-to-u is defined for even-potential bases only")
    else:
        out = extmap.inverse_map(basis, u)
        diagnostics = {"unitarity_defect": out.defect,
                       "roundtrip_error": _max_error(extmap.forward_map(basis, out).Ucal, u)}
    _write_out(config, {"direction": direction, "input": jsonio.matrix_to_json(u.matrix),
                        "output": jsonio.matrix_to_json(out.matrix), "diagnostics": diagnostics})
    return 0


def _classify(config):
    return bcclassify.classify(_load_unitary(config),
                               tol=config.get("tol", bcclassify.DEFAULT_TOL))


def _cmd_classify(config):
    _write_out(config, _classify(config).to_json())
    return 0


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_spectrum(config):
    p = _load_potential(config)
    bc = _classify(config)
    result = spectrum.find_eigenvalues(
        p, bc, e_min=config.get("emin"), e_max=config.get("emax", 40.0),
        grid=config.get("grid"))
    if config.get("fmt") == "csv":
        if config.get("out") is None:
            raise UsageError("csv output needs --out")
        _write_csv(config["out"], ["eigenvalue", "degeneracy", "residual"],
                   ([format(e, ".17g"), d, format(r, ".17g")] for e, d, r
                    in zip(result.eigenvalues, result.degeneracies, result.residuals)))
    else:
        _write_out(config, result.to_json())
    prefix = config.get("eigenfunctions_out")
    if prefix:
        for i, funcs in enumerate(result.eigenfunctions):
            for j, f in enumerate(funcs):
                _write_csv(f"{prefix}_{i}_{j}.csv", ["x", "re_f", "im_f"],
                           ([format(x, ".17g"), format(v.real, ".17g"), format(v.imag, ".17g")]
                            for x, v in zip(f.x, f.f)))
    return 0


def _cmd_verify(config):
    samples = config.get("samples", 100)
    if samples < 1:  # sigma_min over no samples is inf, which JSON cannot hold
        raise UsageError(f"--samples must be at least 1, got {samples}")
    basis = deficiency.solve_even_odd(Potential.zero(1.0))
    rng = np.random.default_rng(11)  # map_roundtrip draws first, classify_roundtrip after
    report = {"deficiency_wronskian": checks.deficiency_wronskian(),
              "ode_oracle_cosh": checks.ode_oracle_cosh(),
              "extension_map": checks.extension_map(basis, samples),
              "map_roundtrip": checks.map_roundtrip(basis, samples, rng),
              "classify_roundtrip": checks.classify_roundtrip(samples, rng),
              "box_spectrum": checks.box_spectrum()}
    passed = all(c["passed"] for c in report.values())
    _write_out(config, {"samples": samples, "passed": passed, "checks": report})
    return 0 if passed else 1


_COMMANDS = {"deficiency": _cmd_deficiency, "map": _cmd_map, "classify": _cmd_classify,
             "spectrum": _cmd_spectrum, "verify": _cmd_verify}


def main(argv=None):
    parser, actions = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args, actions)
        return _COMMANDS[args.command](config)
    except UsageError as exc:
        print(f"saext: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (SaextError, OSError, KeyError, ValueError) as exc:
        print(f"saext: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
