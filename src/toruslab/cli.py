"""Command-line entry point: config, dispatch, and report persistence.

One JSON config document drives every command; CLI flags override config
fields by dotted path (``--set kernel.cutoff=0.01``), with dedicated flags
for the common ones.  Reports are wrapped in an envelope carrying the tool
version, a timestamp, the fully resolved config and provenance notes, and
are byte-identical across reruns with the same config and seed except for
the timestamp field.

Exit codes: 0 success, 1 validation error (bad config, bad expression),
2 numerical failure (guard violation, non-convergence, empty domain).
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import ClassParams, fit_order
from .errors import NumericalError, ToruslabError, ValidationError
from .experiments import (
    admissible_order,
    h1_l1_experiment,
    linf_bmo_experiment,
    lp_lq_admissibility,
    lp_threshold,
    threshold_sweep,
    weak11_experiment,
)
from .grid import GridFunction, GridSpec
from .kernels import decay_scan, log_bound_check, sigma_estimates, synthesize_kernel
from .operators import (AdjointOperator, PdoOperator, compose_bessel, resolve_family,
                        resolve_symbol)
from .spaces import bmo_norm, cz_decompose, lp_norm, weak_lp
from .symbols import eval_expr, parse

DEFAULT_CONFIG = {
    "grid": [128],
    "symbol": "bessel(-1)",
    "class": None,  # {"m":, "rho":, "delta":} for raw expressions
    "seed": 0,
    "out": ".",
    "compose": None,  # {"s": float, "side": "left"|"right"}
    "adjoint": False,
    "symbol_class": {"shell_lo": 8.0, "shell_hi": 512.0, "max_order": None, "x_resolution": 64},
    "quantize": {"input": None, "generator": "exp(2*pi*i*x1)", "output": "quantized.csv"},
    "kernel": {
        "checks": ["decay"],
        "decay_exponent": 0,
        "cutoff": None,
        "truncations": None,
        "variant": "b",
        "sigma_grid": [0.03125, 0.0625, 0.125, 0.25],
        "samples": 64,
        "dump_rows": [],
    },
    "norms": {"input": None, "generator": "exp(2*pi*i*x1)", "p_values": [1, 2, "inf"]},
    "cz": {"input": None, "generator": "2+cos(2*pi*x1)", "level": 1.5},
    "sweep": {
        "family": "wainger",
        "family_params": {"a": 0.5},
        "p": 2.0,
        "m_grid": [-0.25, 0.25],
        "n_grid": [64, 128, 256],
        "trials": 9,
    },
    "weak11": {"trials": 60, "truncations": None, "lam_lo": 1e-3, "lam_hi": 1e3, "lam_count": 61},
    "bmo": {"trials": 40, "truncations": None},
    "h1l1": {"trials": 12, "truncations": None, "radii": [0.25, 0.125, 0.0625, 0.03125]},
    "admissible": {"p": 2.0, "q": 2.0},
}


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message, field="cli")


def _deep_update(base: dict, override: dict, path=""):
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ValidationError(f"unknown config field", field=here)
        # family_params is a free-form map: a config file replaces it whole
        if (isinstance(base[key], dict) and isinstance(value, dict)
                and here != "sweep.family_params"):
            _deep_update(base[key], value, here)
        else:
            base[key] = value


def _set_dotted(config: dict, dotted: str, raw: str):
    keys = dotted.split(".")
    target = config
    for key in keys[:-1]:
        if not isinstance(target, dict) or key not in target:
            raise ValidationError("unknown config field", field=dotted)
        target = target[key]
    if not isinstance(target, dict) or keys[-1] not in target:
        raise ValidationError("unknown config field", field=dotted)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    target[keys[-1]] = value


def resolve_config(args) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {args.config}", field="config")
        except json.JSONDecodeError as err:
            raise ValidationError(f"config is not valid JSON: {err}", field="config")
        _deep_update(config, loaded)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out"] = args.out
    if args.grid is not None:
        try:
            config["grid"] = [int(part) for part in args.grid.split(",")]
        except ValueError:
            raise ValidationError(f"bad grid spec {args.grid!r}", field="grid")
    if args.symbol is not None:
        config["symbol"] = args.symbol
    for item in args.set or []:
        if "=" not in item:
            raise ValidationError(f"--set expects path=value, got {item!r}", field="cli.set")
        dotted, raw = item.split("=", 1)
        _set_dotted(config, dotted, raw)
    validate_config(config)
    return config


def _is_number(value) -> bool:
    return type(value) in (int, float)


_TYPE_CHECKS = {
    "true or false": lambda value: isinstance(value, bool),
    "a number": _is_number,
    "a list of numbers": lambda value: isinstance(value, list) and all(map(_is_number, value)),
    "a string": lambda value: isinstance(value, str),
    "an object": lambda value: isinstance(value, dict),
    "a number > 0": lambda value: _is_number(value) and value > 0,
    "a number >= 1": lambda value: _is_number(value) and value >= 1,
    "an integer": lambda value: type(value) is int,
    "an integer >= 0": lambda value: type(value) is int and value >= 0,
    'a list of numbers or "inf"': lambda value: isinstance(value, list) and all(
        _is_number(p) or p in ("inf", "Inf") for p in value),
}
# the type a field must have where its default does not tell: a set field
# whose default is null or that sits in one, a number with a bound, a list
# that may hold "inf", and each field of the free-form family_params
_FIELD_TYPES = {
    "class": "an object",
    **{f"class.{key}": "a number" for key in ("m", "rho", "delta")},
    "compose": "an object",
    "compose.s": "a number",
    "symbol_class.max_order": "an integer",
    "symbol_class.x_resolution": "an integer",
    "quantize.input": "a string",
    "kernel.cutoff": "a number",
    "norms.input": "a string",
    "cz.input": "a string",
    **{f"{section}.truncations": "a list of numbers" for section in ("kernel", "weak11", "bmo", "h1l1")},
    "weak11.lam_lo": "a number > 0",
    "weak11.lam_hi": "a number > 0",
    "weak11.lam_count": "a number >= 1",
    "kernel.samples": "a number >= 1",
    "kernel.decay_exponent": "an integer >= 0",
    "norms.p_values": 'a list of numbers or "inf"',
    "sweep.family_params.*": "a number",
}


def _default_kind(default):
    """The type a field must hold by its default: a bool, a number, a list of
    numbers or an object; None where the default does not tell."""
    if isinstance(default, bool):
        return "true or false"
    if _is_number(default):
        return "a number"
    if isinstance(default, list) and all(map(_is_number, default)):
        return "a list of numbers"
    return "an object" if isinstance(default, dict) else None


def _check_types(config: dict, defaults: dict, path=""):
    """A set field must hold the type _FIELD_TYPES names (``section.*`` for
    every field of a section), else the type of its default (_default_kind);
    the fields of an object that replaces a null default are checked too."""
    for key, value in config.items():
        default, here = defaults.get(key), f"{path}.{key}" if path else key
        if isinstance(default, dict) and isinstance(value, dict):
            _check_types(value, default, here)
            continue
        if value is None and key in defaults and default is None:
            continue  # a null default left unset
        kind = _FIELD_TYPES.get(here, _FIELD_TYPES.get(f"{path}.*")) or _default_kind(default)
        if kind is not None and not _TYPE_CHECKS[kind](value):
            raise ValidationError(f"must be {kind}, got {value!r}", field=here)
        if default is None and isinstance(value, dict):
            _check_types(value, {}, here)


KERNEL_CHECKS = ("decay", "log", "sigma")


def validate_config(config: dict):
    _check_types(config, DEFAULT_CONFIG)
    grid = config["grid"]
    if not isinstance(grid, list) or not grid:
        raise ValidationError("must be a non-empty list", field="grid")
    G = GridSpec(tuple(grid)).npoints  # validates sizes/dim
    checks, rows = config["kernel"]["checks"], config["kernel"]["dump_rows"]
    if not isinstance(checks, list) or not all(c in KERNEL_CHECKS for c in checks):
        raise ValidationError(f"must be a list of checks from {KERNEL_CHECKS}, got {checks!r}",
                              field="kernel.checks")
    if not isinstance(rows, list) or not all(type(r) is int and 0 <= r < G for r in rows):
        raise ValidationError(f"must be a list of grid indices in [0, {G}), got {rows!r}",
                              field="kernel.dump_rows")
    if not isinstance(config["seed"], int) or config["seed"] < 0:
        raise ValidationError("must be a non-negative integer", field="seed")
    if config["class"] is not None:
        cls = config["class"]
        for key in ("m", "rho", "delta"):
            if key not in cls:
                raise ValidationError(f"missing {key}", field="class")
        resolve_family(config["symbol"], config_class(config))
    if config["compose"] is not None:
        comp = config["compose"]
        if "s" not in comp:
            raise ValidationError("missing s", field="compose")
        if comp.get("side", "left") not in ("left", "right"):
            raise ValidationError("side must be left or right", field="compose.side")


# ---------------------------------------------------------------------------
# Shared builders
# ---------------------------------------------------------------------------


def config_class(config: dict):
    """The nominal class a raw expression is given in ``class``, or None."""
    cls = config["class"]
    return ClassParams(cls["m"], cls["rho"], cls["delta"]) if cls else None


def build_operator(config: dict):
    spec = GridSpec(tuple(config["grid"]))
    op = PdoOperator.from_text(config["symbol"], spec, class_params=config_class(config))
    if config["compose"]:
        op = compose_bessel(op, float(config["compose"]["s"]), config["compose"].get("side", "left"))
    if config["adjoint"]:
        op = AdjointOperator(op)
    return op


def load_grid_function(config: dict, section: str) -> GridFunction:
    spec = GridSpec(tuple(config["grid"]))
    sub = config[section]
    if sub.get("input"):
        return read_function_csv(Path(sub["input"]), spec)
    expr = parse(sub["generator"])
    mesh = spec.mesh()
    values = eval_expr(expr, tuple(mesh), tuple(np.zeros(()) for _ in range(spec.dim)))
    return GridFunction(spec, np.array(np.broadcast_to(np.asarray(values), spec.sizes)))


def read_function_csv(path: Path, spec: GridSpec) -> GridFunction:
    if not path.exists():
        raise ValidationError(f"input file not found: {path}", field="input")
    G = spec.npoints
    values = np.zeros(G, dtype=np.complex128)
    seen = set()
    with path.open() as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"empty CSV {path}", field="input")
        for row in reader:
            try:
                index, real, imag = row
                idx, value = int(index), float(real) + 1j * float(imag)
            except ValueError:
                raise ValidationError(f"row {row!r} of {path} is not index,real,imag",
                                      field="input") from None
            if not 0 <= idx < G:
                raise ValidationError(f"index {idx} out of range", field="input")
            if idx in seen:
                raise ValidationError(f"index {idx} repeated", field="input")
            values[idx] = value
            seen.add(idx)
    if len(seen) != G:
        raise ValidationError(f"CSV has {len(seen)} rows, grid needs {G}", field="input")
    return GridFunction(spec, values)


def write_function_csv(path: Path, f: GridFunction):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "real", "imag"])
        for idx, value in enumerate(f.values.ravel()):
            writer.writerow([idx, f"{value.real:.17g}", f"{value.imag:.17g}"])


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def output_dir(config: dict) -> Path:
    """The configured output directory, made if missing."""
    path = Path(config["out"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_report(config: dict, command: str, payload: dict, notes=None) -> Path:
    envelope = {
        "tool": "toruslab",
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
        "config": config,
        "payload": payload,
        "provenance": list(notes or []),
    }
    path = output_dir(config) / f"{command.replace('-', '_')}_report.json"
    path.write_text(json.dumps(envelope, sort_keys=True, indent=2, default=_json_default) + "\n")
    return path


def write_plot_data(out_dir: Path, name: str, columns, manifest: dict):
    path = out_dir / name
    with path.open("w") as fh:
        for row in columns:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    manifest.setdefault("files", []).append(name)
    return path


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def cmd_symbol_class(config):
    sub = config["symbol_class"]
    expr, params, nominal, _ = resolve_symbol(config["symbol"], config_class(config))
    with _config_fields("symbol_class"):
        est = fit_order(
            expr,
            dim=len(config["grid"]),
            params=params,
            nominal=nominal,
            max_order=sub["max_order"],
            shell_range=(float(sub["shell_lo"]), float(sub["shell_hi"])),
            x_resolution=sub["x_resolution"],
        )
    payload = est.to_dict()
    print(
        f"fitted m={est.fitted_m:.4f} rho={est.fitted_rho:.4f} delta={est.fitted_delta:.4f}"
    )
    return payload, ["class estimates are finite-shell evidence, not certificates"]


def cmd_quantize(config):
    op = build_operator(config)
    f = load_grid_function(config, "quantize")
    out = op.apply(f)
    out_path = output_dir(config) / config["quantize"]["output"]
    write_function_csv(out_path, out)
    print(f"wrote {out_path}")
    payload = {
        "output": str(out_path),
        "input_l2": lp_norm(f, 2).value,
        "output_l2": lp_norm(out, 2).value,
    }
    return payload, []


def cmd_kernel(config):
    op = build_operator(config)
    sub = config["kernel"]
    base_n = min(op.spec.sizes)
    cutoff = sub["cutoff"] if sub["cutoff"] is not None else 4.0 / base_n
    truncations = sub["truncations"]
    if truncations is None:
        truncations = [base_n // 4, base_n // 2, base_n]
    kernel = synthesize_kernel(op)
    payload, notes = {"max_abs": kernel.max_abs()}, []
    checks = sub["checks"]
    if "decay" in checks:
        with _config_fields("kernel"):
            rep = decay_scan(kernel, int(sub["decay_exponent"]), float(cutoff), truncations)
        payload["decay"] = rep.to_dict()
    if "log" in checks:
        payload["log_bound"] = log_bound_check(kernel, float(cutoff)).to_dict()
    if "sigma" in checks:
        rep = sigma_estimates(
            kernel,
            sub["variant"],
            [float(s) for s in sub["sigma_grid"]],
            sample_count=int(sub["samples"]),
            seed=int(config["seed"]),
        )
        payload["sigma"] = rep.to_dict()
        notes.extend(rep.warnings)
    for row in sub["dump_rows"]:
        write_function_csv(output_dir(config) / f"kernel_row_{row}.csv",
                           GridFunction(op.spec, kernel.row(row)))
    print(f"kernel checks done: {', '.join(checks)}")
    return payload, notes


def cmd_norms(config):
    f = load_grid_function(config, "norms")
    payload = {}
    for p in config["norms"]["p_values"]:
        pv = math.inf if p in ("inf", "Inf") else float(p)
        key = "inf" if math.isinf(pv) else f"{pv:g}"
        payload[f"L{key}"] = lp_norm(f, pv).value
        if not math.isinf(pv):
            payload[f"weak_L{key}"] = weak_lp(f, pv).value
    payload["BMO"] = bmo_norm(f).value
    print(" ".join(f"{k}={v:.6g}" for k, v in payload.items()))
    return payload, ["BMO ball family: grid centers x dyadic radii, median centering"]


def cmd_cz(config):
    f = load_grid_function(config, "cz")
    level = float(config["cz"]["level"])
    dec = cz_decompose(f, level)
    out = output_dir(config)
    good_path, bad_path = out / "cz_good.csv", out / "cz_bad.csv"
    write_function_csv(good_path, dec.good)
    write_function_csv(bad_path, dec.bad_sum())
    payload = {
        "level": level,
        "flagged": dec.flagged,
        "omega_measure": dec.omega_measure,
        "cube_count": len(dec.bad_parts),
        "cubes": [cube.to_dict() for cube, _ in dec.bad_parts],
        "good_values": str(good_path),
        "bad_values": str(bad_path),
    }
    print(f"cubes={len(dec.bad_parts)} omega={dec.omega_measure:.4f} flagged={dec.flagged}")
    return payload, []


def _sweep_family_builder(config):
    sub = config["sweep"]
    name = sub["family"]
    params = sub.get("family_params") or {}
    from .symbols import bessel, exotic, wainger

    if name == "bessel":
        return lambda m: bessel(m)
    if name == "wainger":
        a = float(params.get("a", 0.5))
        return lambda m: wainger(a, -m)
    if name == "exotic":
        d = float(params.get("d", 0.75))
        c = float(params.get("c", 1.0))
        return lambda m: exotic(m, d, c)
    raise ValidationError(f"unknown family {name!r}", field="sweep.family")


def cmd_sweep(config):
    sub = config["sweep"]
    builder = _sweep_family_builder(config)
    record = threshold_sweep(
        builder,
        float(sub["p"]),
        [float(m) for m in sub["m_grid"]],
        [int(n) for n in sub["n_grid"]],
        trials=int(sub["trials"]),
        seed=int(config["seed"]),
        dim=len(config["grid"]),
    )
    payload = record.to_dict()
    out = output_dir(config)
    manifest = {"kind": "sweep", "files": []}
    # CSV matrix: rows m, columns N
    matrix_path = out / "sweep_matrix.csv"
    with matrix_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m"] + [str(N) for N in record.n_grid])
        for m in record.m_grid:
            writer.writerow(
                [f"{m:.17g}"]
                + [f"{record.estimates[(m, N)].value:.17g}" for N in record.n_grid]
            )
    for m in record.m_grid:
        rows = [(N, record.estimates[(m, N)].value) for N in record.n_grid]
        write_plot_data(out, f"sweep_m{m:+g}.dat", rows, manifest)
    (out / "sweep_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )
    for m, cls in record.classifications.items():
        print(f"m={m:+.4f}: slope={record.slopes[m]:+.4f} {cls}")
    notes = [record.calibration_note]
    if record.p == 2:  # at any other p every cell is a battery+ascent lower bound
        methods = ", ".join(sorted({est.method for est in record.estimates.values()}))
        notes.append(f"p = 2 cells are exact L2 norms (method: {methods})")
    return payload, notes


# the config field, in the command's section, behind each library parameter
_LIBRARY_FIELDS = {"truncations": "truncations", "atom_radii": "radii", "box": "truncations",
                   "max_order": "max_order", "x_resolution": "x_resolution",
                   "lo": "shell_lo", "hi": "shell_hi"}


@contextlib.contextmanager
def _config_fields(section: str):
    """A ValidationError on a library parameter names its config field instead."""
    try:
        yield
    except ValidationError as err:
        if err.field not in _LIBRARY_FIELDS:
            raise
        raise ValidationError(err.reason, field=f"{section}.{_LIBRARY_FIELDS[err.field]}") from None


def cmd_endpoint(config, command):
    """weak11, bmo and h1l1: one endpoint experiment on the configured operator."""
    sub = config[command]
    kwargs = {"trials": int(sub["trials"]), "seed": int(config["seed"]),
              "truncations": sub["truncations"]}
    if command == "weak11":
        kwargs["lam_grid"] = list(
            np.geomspace(float(sub["lam_lo"]), float(sub["lam_hi"]), int(sub["lam_count"]))
        )
    if command == "h1l1":
        kwargs["atom_radii"] = [float(r) for r in sub["radii"]]
    experiment = {"weak11": weak11_experiment, "bmo": linf_bmo_experiment,
                  "h1l1": h1_l1_experiment}[command]
    op = build_operator(config)
    with _config_fields(command):
        rep = experiment(op, **kwargs)
    print(f"max ratio={rep['max_ratio']:.6g} stability={rep['stability']:.4f}")
    notes = [] if rep["hypothesis_satisfied"] else ["operator order above the endpoint threshold"]
    return rep, notes


def cmd_admissible(config):
    sub = config["admissible"]
    params = resolve_symbol(config["symbol"], config_class(config))[2]
    if params is None:
        raise ValidationError("admissible needs class parameters or a family", field="class")
    dim = len(config["grid"])
    p, q = float(sub["p"]), float(sub["q"])
    out = lp_lq_admissibility(params, p, q)
    out["threshold"] = admissible_order(params, p, q, dim)
    out["dim"] = dim
    if p == q:
        out["diagonal_threshold"] = lp_threshold(params, p, dim)
    print(f"case {out['case']}: m* = {out['threshold']:g}")
    return out, []


HANDLERS = {
    "symbol-class": cmd_symbol_class,
    "quantize": cmd_quantize,
    "kernel": cmd_kernel,
    "norms": cmd_norms,
    "cz": cmd_cz,
    "sweep": cmd_sweep,
    **{name: functools.partial(cmd_endpoint, command=name) for name in ("weak11", "bmo", "h1l1")},
    "admissible": cmd_admissible,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="toruslab", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=HANDLERS)
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--grid", help="per-axis sizes, e.g. 256 or 64,64")
    parser.add_argument("--symbol", help="expression or family(args)")
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override any config field by dotted path",
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = resolve_config(args)
        payload, notes = HANDLERS[args.command](config)
        report_path = write_report(config, args.command, payload, notes)
        print(f"report: {report_path}")
        return 0
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except ToruslabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
