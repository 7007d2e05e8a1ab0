"""The four benchmark workloads as seeded task lists.

A task is one CLI command run in-process through ``toruslab.cli.main`` or,
where the CLI has no command, one call into a public toruslab function.
``build(name, seed, out_dir)`` is the set-up step: it resolves every config
and draws every seeded input, writing both under ``out_dir``, so the timed
tasks see only generated files and values.

Each task carries two checks, both run outside the timed region: ``check``
inspects the task's own output after every pass, and ``oracle`` compares
each distinct operator the task applies against direct summation, once per
run.  Checks come from truths (closed forms, class nominals, exact
invariants) and exact oracles, never from a snapshot of earlier output.

Sizes are trimmed from the full experiments so that one pass takes a few
seconds; each workload keeps its layer mix (see BENCHMARK.json).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import toruslab.cli
import toruslab.experiments
from toruslab.calculus import ClassParams
from toruslab.experiments import lp_threshold
from toruslab.grid import GridFunction, GridSpec
from toruslab.operators import AdjointOperator, PdoOperator, compose_bessel
from toruslab.symbols import bessel, exotic, parse, wainger

import oracle
from oracle import require, require_close

# l2_norm's iteration count swings tenfold with its start vector (0.08 s to
# 0.78 s at N=64), so its start is pinned to the endpoint acceptance seed
# instead of following the workload seed; with it the N=128 near-tie
# failure shows on every run.
L2_START_SEED = 3

SLOPE_SUBCRITICAL = 0.1  # c09: slope at m* - 0.25 stays below this
ENDPOINT_STABILITY = 0.25  # c08
CLASS_TOLERANCE = 0.1  # c03
L2_TOLERANCE = 1e-6  # c06


class TaskFailed(Exception):
    """A task finished without a usable result (non-zero CLI exit code)."""


@dataclass(frozen=True)
class KnownDefect:
    """A failure the program is known to have: how its error starts, and why."""

    error: str
    why: str


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    oracle: Optional[Callable[[], None]] = None
    known_defect: Optional[KnownDefect] = None


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _cli_task(out_dir: Path, name: str, command: str, config: dict, check, sets=None,
              **extra) -> Task:
    """Task running ``toruslab <command> --config <file> [--set path=value]``.

    ``sets`` replaces whole config values, which a config file cannot do for
    dict fields (it merges them key by key against the defaults); ``check``
    sees the report's payload and the task's output directory.
    """
    task_dir = out_dir / name
    task_dir.mkdir(parents=True, exist_ok=True)
    config = dict(config, out=str(task_dir))
    config_path = task_dir / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True))
    argv = [command, "--config", str(config_path)]
    for path, value in (sets or {}).items():
        argv += ["--set", f"{path}={json.dumps(value)}"]
    report = task_dir / f"{command.replace('-', '_')}_report.json"

    def run():
        code = toruslab.cli.main(argv)  # module attribute, so the traced pass sees it
        if code != 0:
            raise TaskFailed(f"toruslab {command} exited with code {code}")
        return report

    def check_report(path):
        check(json.loads(path.read_text())["payload"], task_dir)

    return Task(name, run, check_report, **extra)


def _write_csv(path: Path, values: np.ndarray):
    flat = np.asarray(values, dtype=np.complex128).ravel()
    lines = ["index,real,imag"]
    lines += [f"{i},{v.real:.17g},{v.imag:.17g}" for i, v in enumerate(flat)]
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path) -> np.ndarray:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1] + 1j * data[:, 2]


def _random_values(seed_key, sizes) -> np.ndarray:
    rng = np.random.default_rng(seed_key)
    return rng.standard_normal(sizes) + 1j * rng.standard_normal(sizes)


@dataclass
class OperatorCase:
    """An operator as the workload builds it, with its direct-summation oracle."""

    label: str
    build: Callable[[], object]
    want_apply: Callable[[np.ndarray], np.ndarray]
    want_adjoint: Callable[[np.ndarray], np.ndarray]


def _pdo_case(family, sizes) -> OperatorCase:
    spec = GridSpec(tuple(sizes))
    expr, params = family.expr, family.parameters
    return OperatorCase(
        f"{family.label()} on {spec.sizes}",
        lambda: PdoOperator.from_family(family, spec),
        lambda f: oracle.apply(expr, params, spec, f),
        lambda g: oracle.apply_adjoint(expr, params, spec, g),
    )


def _oracle_check(cases, seed: int):
    """Apply and adjoint of every case against direct summation at 1e-10."""

    def run():
        for k, case in enumerate(cases):
            op = case.build()
            f = _random_values([seed, k, 0], op.spec.sizes)
            g = _random_values([seed, k, 1], op.spec.sizes)
            require_close(op.apply(GridFunction(op.spec, f)).values, case.want_apply(f),
                          f"{case.label} apply")
            require_close(op.apply_adjoint(GridFunction(op.spec, g)).values,
                          case.want_adjoint(g), f"{case.label} adjoint")

    return run


def _sweep_config(seed, family, p, m_grid, n_grid) -> dict:
    return {
        "seed": seed,
        "sweep": {
            "family": family,
            "p": p,
            "m_grid": list(m_grid),
            "n_grid": list(n_grid),
            "trials": SWEEP_TRIALS,
        },
    }


def _slope_check(below: float, above: Optional[float]):
    """c09: sub-critical slope below 0.1, and below the super-critical slope."""

    def check(payload, _dir):
        slopes = payload["slopes"]
        low = slopes[f"{below:g}"]
        require(low < SLOPE_SUBCRITICAL, f"slope {low:.4f} at m={below:g} is not below 0.1")
        if above is not None:
            high = slopes[f"{above:g}"]
            require(low < high, f"slope at m={below:g} ({low:.4f}) >= at m={above:g} ({high:.4f})")

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SWEEP_TRIALS = 12
EXOTIC_N = [64, 128, 256]
WAINGER_N = [64, 128, 256, 512, 1024, 2048]


def sweep_exotic(seed: int, out_dir: Path) -> list:
    """CLI sweep of exotic(m, 0.75, 1) at p=4, one order m* - 0.25."""
    d, c, p = 0.75, 1.0, 4.0
    m = lp_threshold(ClassParams(0.0, 1.0 - d, d), p, 1) - 0.25  # -0.6875
    config = _sweep_config(seed, "exotic", p, [m], EXOTIC_N)
    cases = [_pdo_case(exotic(m, d, c), (N,)) for N in EXOTIC_N]
    return [
        _cli_task(out_dir, "sweep-p4", "sweep", config, _slope_check(m, None),
                  sets={"sweep.family_params": {"d": d, "c": c}},
                  oracle=_oracle_check(cases, seed))
    ]


def sweep_wainger(seed: int, out_dir: Path) -> list:
    """CLI sweeps of wainger(0.5, -m) at p in {2, 4}, orders m* -/+ 0.25 (c09)."""
    a = 0.5
    tasks = []
    for p in (2.0, 4.0):
        m_star = lp_threshold(ClassParams(0.0, 1.0 - a, 0.0), p, 1)
        below, above = m_star - 0.25, m_star + 0.25
        config = _sweep_config(seed, "wainger", p, [below, above], WAINGER_N)
        cases = [_pdo_case(wainger(a, -m), (N,)) for m in (below, above) for N in WAINGER_N]
        tasks.append(
            _cli_task(out_dir, f"sweep-p{p:g}", "sweep", config, _slope_check(below, above),
                      sets={"sweep.family_params": {"a": a}},
                      oracle=_oracle_check(cases, seed))
        )
    return tasks


def _composed_case(family, s: float, N: int, adjoint: bool) -> OperatorCase:
    """J^s o Op(p), or its adjoint, exactly as the CLI's build_operator makes it."""
    spec = GridSpec((N,))
    expr, params = family.expr, family.parameters
    js = parse(f"bracket(xi)^({s!r})")

    def build():
        op = compose_bessel(PdoOperator.from_family(family, spec), s, "left")
        return AdjointOperator(op) if adjoint else op

    def forward(f):  # J^s T f
        return oracle.apply(js, {}, spec, oracle.apply(expr, params, spec, f))

    def backward(g):  # T* J^s g, J^s being real and self-adjoint
        return oracle.apply_adjoint(expr, params, spec, oracle.apply(js, {}, spec, g))

    label = f"{'adjoint ' if adjoint else ''}J^{s:g} o {family.label()} on {spec.sizes}"
    if adjoint:
        return OperatorCase(label, build, backward, forward)
    return OperatorCase(label, build, forward, backward)


def _endpoint_check(payload, _dir):
    require(payload["hypothesis_satisfied"] is True, "endpoint hypothesis not satisfied")
    stability = payload["stability"]
    require(stability <= ENDPOINT_STABILITY, f"stability {stability:.4f} > 0.25")


def endpoint(seed: int, out_dir: Path) -> list:
    """c08 battery on J^-0.625 o Op(exotic(0,0.75,1)), 2D BMO, and l2_norm."""
    family = exotic(0.0, 0.75, 1.0)
    s_star = -0.625  # -n[(1 - rho)/2 + lambda] at rho = 0.25, delta = 0.75
    truncations = [128, 256]
    base = {
        "symbol": "exotic(0, 0.75, 1)",
        "grid": [truncations[0]],
        "seed": seed,
        "compose": {"s": s_star, "side": "left"},
    }
    trials = {"weak11": 30, "bmo": 20, "h1l1": 6}  # half the CLI defaults
    tasks = []
    for command in ("weak11", "bmo", "h1l1"):
        for adjoint in (False, True):
            sub = {"trials": trials[command], "truncations": truncations}
            config = dict(base, adjoint=adjoint, **{command: sub})
            extra = {}
            if command == "weak11":  # first task to apply each distinct operator
                cases = [_composed_case(family, s_star, N, adjoint) for N in truncations]
                extra["oracle"] = _oracle_check(cases, seed)
            name = f"{command}-{'adjoint' if adjoint else 'forward'}"
            tasks.append(_cli_task(out_dir, name, command, config, _endpoint_check, **extra))

    config = {"symbol": "bessel(-1)", "grid": [32, 32], "seed": seed,
              "bmo": {"trials": 1, "truncations": [32, 64]}}
    cases = [_pdo_case(bessel(-1.0), (N, N)) for N in (32, 64)]
    tasks.append(_cli_task(out_dir, "bmo-2d", "bmo", config, _endpoint_check,
                           oracle=_oracle_check(cases, seed)))

    for N in (64, 128):
        tasks.append(_l2_task(family, N, seed))
    tasks[-1].known_defect = KnownDefect(
        "ConvergenceError: power iteration did not converge",
        "l2_norm power iteration stalls on the near-tied top singular values "
        "(1.38115, 1.37485) of exotic(0,0.75,1) at N=128",
    )
    return tasks


def _l2_task(family, N: int, seed: int) -> Task:
    spec = GridSpec((N,))
    truth = {}

    def run():
        op = PdoOperator.from_family(family, spec)
        return toruslab.experiments.l2_norm(op, seed=L2_START_SEED)

    def check(estimate):
        if "sigma" not in truth:
            truth["sigma"] = oracle.top_singular_value(family.expr, family.parameters, spec)
        sigma = truth["sigma"]
        err = abs(estimate.value - sigma) / sigma
        require(err <= L2_TOLERANCE, f"l2_norm {estimate.value:.8f} vs dense SVD {sigma:.8f}")

    return Task(f"l2-N{N}", run, check, oracle=_oracle_check([_pdo_case(family, (N,))], seed))


def _class_check(payload, _dir):
    fitted, nominal = payload["fitted"], payload["nominal"]
    for key in ("m", "rho", "delta"):
        err = abs(fitted[key] - nominal[key])
        require(err <= CLASS_TOLERANCE,
                f"fitted {key}={fitted[key]:.4f} vs nominal {nominal[key]:g} (off by {err:.3f})")


def _kernel_row_oracle(task_dir: Path, family, sizes, row: int):
    spec = GridSpec(tuple(sizes))

    def run():
        got = _read_csv(task_dir / f"kernel_row_{row}.csv")
        want = oracle.kernel_row(family.expr, family.parameters, spec, row)
        require_close(got, want, f"kernel row {row} of {family.label()} on {spec.sizes}")

    return run


def analysis(seed: int, out_dir: Path) -> list:
    """symbol-class, kernel, norms, cz, quantize and admissible commands."""
    rng = np.random.default_rng(seed)
    tasks = []
    for k, family in enumerate(
        [bessel(-1.0), wainger(0.5, 1.0), exotic(0.0, 0.75, 1.0), exotic(-0.5, 0.5, 2.0)]
    ):
        config = {"symbol": family.label(), "grid": [128]}
        tasks.append(_cli_task(out_dir, f"class-{k}-{family.name}", "symbol-class", config,
                               _class_check))
    config = {
        "symbol": "exotic(0, 0.75, 1)",
        "grid": [32, 32],
        "symbol_class": {"shell_lo": 8.0, "shell_hi": 128.0, "x_resolution": 4},
    }
    tasks.append(_cli_task(
        out_dir, "class-exotic-2d", "symbol-class", config, _class_check,
        known_defect=KnownDefect(
            "check: fitted delta=",
            "fit_order averages the |beta|=1 slopes; the x2-derivative of exotic "
            "vanishes, so 2D delta reads 0.375 against the nominal 0.75",
        ),
    ))

    # kernel: bounded Bessel kernel (decay + log), sigma sweep at the critical
    # order (c05), and the 2D exotic kernel per truncation
    fam = bessel(-2.0)
    row = int(rng.integers(1024))
    config = {"symbol": fam.label(), "grid": [1024],
              "kernel": {"checks": ["decay", "log"], "truncations": [128, 256, 512],
                         "dump_rows": [row]}}
    xi = np.arange(-512, 512, dtype=float)
    k_origin = float(np.sum((1.0 + xi * xi) ** -1.0))  # k(x, x) = sum <xi>^-2, the max

    def check_bessel(payload, _dir):
        ratio = payload["decay"]["stability_ratio"]
        require(0.5 <= ratio <= 2.0, f"decay stability ratio {ratio:.4f} outside [0.5, 2]")
        require(payload["log_bound"]["degenerate"] is True,
                "bounded kernel (order -2 < -n) not flagged as saturating")
        require(abs(payload["max_abs"] - k_origin) <= 1e-12 * k_origin,
                f"max |k| {payload['max_abs']!r} != sum <xi>^-2 = {k_origin!r}")

    task_dir = out_dir / "kernel-bessel"
    tasks.append(_cli_task(out_dir, "kernel-bessel", "kernel", config, check_bessel,
                           oracle=_kernel_row_oracle(task_dir, fam, (1024,), row)))

    fam = exotic(-0.625, 0.75, 1.0)
    row = int(rng.integers(256))
    config = {"symbol": "exotic(-0.625, 0.75, 1)", "grid": [256], "seed": seed,
              "kernel": {"checks": ["sigma"], "variant": "b", "dump_rows": [row]}}

    def check_sigma(payload, _dir):
        rep = payload["sigma"]
        require(rep["hypothesis_satisfied"] is True, "variant-b hypothesis not satisfied")
        lo, hi = min(rep["per_sigma"]), max(rep["per_sigma"])
        require(hi < 2.0 * lo, f"sigma sweep not flat: max {hi:.4f} >= 2 x min {lo:.4f}")

    task_dir = out_dir / "kernel-sigma"
    tasks.append(_cli_task(
        out_dir, "kernel-sigma", "kernel", config, check_sigma,
        oracle=_kernel_row_oracle(task_dir, fam, (256,), row),
        known_defect=KnownDefect(
            "check: sigma sweep not flat",
            "c05's factor-2 flatness holds for its sample seed 11 but not for every "
            "seed: 64 sampled suprema undershoot at small sigma (8 of seeds 0-399 fail "
            "at N=256, e.g. seed 23 with max/min 2.04)",
        ),
    ))

    fam = exotic(0.0, 0.75, 1.0)
    row = int(rng.integers(32 * 32))
    config = {"symbol": "exotic(0, 0.75, 1)", "grid": [32, 32],
              "kernel": {"checks": ["decay"], "dump_rows": [row]}}

    def check_kernel_2d(payload, _dir):
        # |k(x, x)| <= sum |p(x, .)| = L, with equality on the row x1 = 0
        require(abs(payload["max_abs"] - 1024.0) <= 1e-9, f"max |k| {payload['max_abs']!r} != L")
        sups = payload["decay"]["suprema"].values()
        require(all(math.isfinite(v) and v > 0 for v in sups), "non-positive decay suprema")

    task_dir = out_dir / "kernel-2d"
    tasks.append(_cli_task(out_dir, "kernel-2d", "kernel", config, check_kernel_2d,
                           oracle=_kernel_row_oracle(task_dir, fam, (32, 32), row)))

    # norms of a modulated constant: |f| = A everywhere, so every L^p and
    # weak-L^p norm is A and 0 < BMO <= (1 + sqrt 2) A (median centering)
    spec = GridSpec((64, 64))
    amp = float(rng.uniform(0.5, 2.0))
    k1, k2 = (int(v) for v in rng.integers(1, 8, size=2))
    x1, x2 = spec.mesh()
    wave = amp * np.exp(2j * np.pi * (k1 * x1 + k2 * x2))
    _write_csv(out_dir / "norms_input.csv", wave)
    config = {"grid": [64, 64], "norms": {"input": str(out_dir / "norms_input.csv"),
                                          "p_values": [1, 2, "inf"]}}

    def check_norms(payload, _dir):
        for key in ("L1", "L2", "Linf", "weak_L1", "weak_L2"):
            require(abs(payload[key] - amp) <= 1e-12 * amp, f"{key}={payload[key]!r} != {amp!r}")
        require(0.0 < payload["BMO"] <= (1.0 + math.sqrt(2.0)) * amp * (1 + 1e-12),
                f"BMO {payload['BMO']!r} outside (0, (1+sqrt 2) A]")

    tasks.append(_cli_task(out_dir, "norms", "norms", config, check_norms))

    # Calderon-Zygmund decomposition: c07 invariants
    cz_input = rng.standard_normal((64, 64)) * rng.uniform(0.5, 2.0)
    _write_csv(out_dir / "cz_input.csv", cz_input)
    norm1 = float(np.mean(np.abs(cz_input)))
    level = 1.6 * norm1
    config = {"grid": [64, 64], "cz": {"input": str(out_dir / "cz_input.csv"), "level": level}}

    def check_cz(payload, task_dir):
        good = _read_csv(task_dir / "cz_good.csv").reshape(64, 64)
        bad = _read_csv(task_dir / "cz_bad.csv").reshape(64, 64)
        scale = float(np.max(np.abs(cz_input)))
        require(np.max(np.abs(good + bad - cz_input)) <= 1e-12 * scale, "good + bad != f")
        require(np.max(np.abs(good)) <= 4 * level * (1 + 1e-12), "|good| > 2^n level")
        require(payload["omega_measure"] <= 4 * norm1 / level + 1e-12, "|Omega| > 2^n |f|_1/level")
        covered = np.zeros((64, 64), dtype=int)
        for cube in payload["cubes"]:
            sl = tuple(slice(s, s + e) for s, e in zip(cube["starts"], cube["extents"]))
            covered[sl] += 1
            block = bad[sl]
            require(abs(block.mean()) <= 1e-12 * max(1.0, float(np.max(np.abs(block)))),
                    "bad part has non-zero mean")
        require(covered.max(initial=0) <= 1, "selected cubes overlap")
        require(abs(covered.mean() - payload["omega_measure"]) <= 1e-12, "|Omega| != cube union")

    tasks.append(_cli_task(out_dir, "cz", "cz", config, check_cz))

    # quantize on the general path; output against direct summation
    fam = exotic(0.0, 0.75, 1.0)
    spec = GridSpec((1024,))
    q_input = _random_values([seed, 99], spec.sizes)
    _write_csv(out_dir / "quantize_input.csv", q_input)
    config = {"symbol": "exotic(0, 0.75, 1)", "grid": [1024],
              "quantize": {"input": str(out_dir / "quantize_input.csv"), "output": "quantized.csv"}}
    task_dir = out_dir / "quantize"

    def check_quantize(payload, _dir):
        want = float(np.sqrt(np.mean(np.abs(q_input) ** 2)))
        require(abs(payload["input_l2"] - want) <= 1e-12 * want, "input L2 norm mismatch")

    def quantize_oracle():
        got = _read_csv(task_dir / "quantized.csv")
        require_close(got, oracle.apply(fam.expr, fam.parameters, spec, q_input),
                      "quantize output of exotic(0, 0.75, 1) on (1024,)")

    tasks.append(_cli_task(out_dir, "quantize", "quantize", config, check_quantize,
                           oracle=quantize_oracle))

    # admissible at p = q: every case formula reduces to the diagonal
    # threshold -n[(1 - rho)|1/p - 1/2| + lambda] (c10)
    p = float(rng.uniform(1.1, 8.0))
    config = {"symbol": "exotic(0, 0.75, 1)", "grid": [128], "admissible": {"p": p, "q": p}}
    want = -((1 - 0.25) * abs(1 / p - 0.5) + 0.25)

    def check_admissible(payload, _dir):
        for key in ("threshold", "diagonal_threshold"):
            require(abs(payload[key] - want) <= 1e-12, f"{key}={payload[key]!r} != {want!r}")

    tasks.append(_cli_task(out_dir, "admissible", "admissible", config, check_admissible))
    return tasks


WORKLOADS = {
    "sweep-exotic": sweep_exotic,
    "sweep-wainger": sweep_wainger,
    "endpoint": endpoint,
    "analysis": analysis,
}


def build(name: str, seed: int, out_dir: Path) -> list:
    """Resolve configs and draw inputs for one workload; returns its tasks."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)

