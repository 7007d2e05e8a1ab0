"""Empirical boundedness experiments across truncations.

Exact L^p -> L^q norms of the discretized operators are intractable for
general exponents, so every estimate here is a certified lower bound: a
concrete witness function together with its achieved ratio.  What a
boundedness claim means at desk scale is that those bounds stay put as the
truncation grows, so each experiment reports values at two or more
truncations with a stability figure, and the threshold sweep classifies
each order by the slope of log(norm) against log(N):

    slope < 0.05   bounded-consistent
    slope > 0.15   growth
    otherwise      inconclusive

The classification thresholds are calibrated on two anchors with known
truth: the identity (slope 0) and the full Dirichlet sum, whose L^1 mass
grows like log N (slope about 0.2 over the desk range 64..512).

The endpoint experiments (weak-(1,1), L^inf -> BMO, H^1 -> L^1) share one
truncation scan: the operator is rebuilt with ``op.on`` at each truncation
in ascending order, one rebuilt operator alive at a time, and the trial
draws are made once, independent of the grid.  They report the same
common fields (operator, per-truncation maxima, max ratio, stability,
trials, seed, whether the order meets the endpoint threshold).

All randomness is seeded; sweep cells derive their seed from (master seed,
cell index), so results are independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .calculus import ClassParams
from .errors import ConvergenceError, ValidationError
from .grid import GridFunction, GridSpec, pure_wave
from .operators import PdoOperator
from .spaces import bmo_norm, dyadic_radii, make_atom

SLOPE_BOUNDED = 0.05
SLOPE_GROWTH = 0.15
ASCENT_STEPS = 50
H1_UNIT_SCALE = 0.125  # h1_l1_experiment: atom radii below it count as small scale
WEAK11_FINEST_BUMP = 5  # weak11 bump radii are 2^-2 ... 2^-WEAK11_FINEST_BUMP
EFFECTIVE_ORDER_SHELL_LO = 2.0  # effective_order: lower edge of the first dyadic shell


def _norms(stack: np.ndarray, p: float, G: int) -> list:
    """The L^p norm of each row of a stack, each summed and powered on its own."""
    a = np.abs(stack)
    if math.isinf(p):
        return [float(row.max()) for row in a]
    return [float((np.sum(row) / G) ** (1.0 / p)) for row in a**p]


def _norm(values: np.ndarray, p: float, G: int) -> float:
    return _norms(values[None], p, G)[0]


@dataclass
class NormEstimate:
    """Certified lower bound on an operator norm, with its witness."""

    p: float
    q: float
    value: float
    method: str
    trials: int
    seed: int
    truncation: tuple
    witness: GridFunction = field(repr=False, default=None)
    label: str = ""

    def verify(self, op) -> float:
        """Re-achieve the stored ratio from the stored witness."""
        G = self.witness.spec.npoints
        out = op.apply(self.witness)
        return _norm(out.values, self.q, G) / _norm(self.witness.values, self.p, G)

    def to_dict(self):
        return {
            "p": self.p,
            "q": self.q,
            "value": self.value,
            "method": self.method,
            "trials": self.trials,
            "seed": self.seed,
            "truncation": list(self.truncation),
            "label": self.label,
        }


# ---------------------------------------------------------------------------
# L2 operator norm by power iteration
# ---------------------------------------------------------------------------


def l2_norm(op, seed: int = 0, tol: float = 1e-9, max_iter: int = 500) -> NormEstimate:
    """Power iteration on T*T from a seeded random start.

    Stops when successive Rayleigh quotients agree to ``tol`` relative;
    raises ConvergenceError with the final gap if the budget runs out.
    """
    spec = op.spec
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes)
    x /= np.linalg.norm(x)
    f = GridFunction(spec, x)
    rayleigh, gap = None, math.inf
    for _ in range(max_iter):
        Tf = op.apply(f)
        r = float(np.vdot(Tf.values, Tf.values).real / np.vdot(f.values, f.values).real)
        if rayleigh is not None:
            gap = abs(r - rayleigh) / max(r, 1e-300)
        rayleigh = r
        if gap <= tol:
            break
        nxt = op.apply_adjoint(Tf)
        scale = np.linalg.norm(nxt.values)
        if scale == 0:
            rayleigh = 0.0
            break
        f = GridFunction(spec, nxt.values / scale)
    else:
        raise ConvergenceError("power iteration did not converge", final_gap=gap)
    return NormEstimate(
        p=2.0,
        q=2.0,
        value=math.sqrt(max(rayleigh, 0.0)),
        method="power-iteration",
        trials=1,
        seed=seed,
        truncation=spec.sizes,
        witness=f,
        label=op.label,
    )


# ---------------------------------------------------------------------------
# Witness battery and ascent for general (p, q)
# ---------------------------------------------------------------------------


def _dual_map(stack: np.ndarray, q: float) -> np.ndarray:
    """Holder-extremal pairing element for the L^q norm of each row of ``stack``."""
    if math.isinf(q):
        flat = stack.reshape(len(stack), -1)
        at = (np.arange(len(stack)), np.abs(flat).argmax(axis=1))
        out = np.zeros(flat.shape, dtype=stack.dtype)
        out[at] = flat[at] / np.maximum(np.abs(flat[at]), 1e-300)
        return out.reshape(stack.shape)
    a = np.abs(stack)
    sign = np.where(a > 0, stack / np.where(a == 0, 1.0, a), 0.0)
    return a ** (q - 1.0) * sign


def _witness_battery(spec: GridSpec, rng, trials: int):
    """Gaussian fields, sign patterns and atoms at dyadic radii."""
    out = []
    for _ in range(max(1, trials // 3)):
        out.append(rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes))
    for _ in range(max(1, trials // 3)):
        out.append(rng.choice([-1.0, 1.0], size=spec.sizes).astype(complex))
    radii = [r for r in dyadic_radii(spec) if r < math.sqrt(spec.dim) / 2]
    for radius in radii[: max(1, trials - 2 * (trials // 3))]:
        profile = GridFunction(spec, rng.standard_normal(spec.sizes))
        center = tuple(rng.random(spec.dim))
        try:
            out.append(make_atom(center, radius, profile).values.values)
        except ValidationError:
            continue
    return out


def lp_lq_lower_bound(op, p: float, q: float, trials: int = 12, seed: int = 0) -> NormEstimate:
    """Best ratio ||Tf||_q / ||f||_p over the witness battery plus ascent.

    The ascent reweights by the dual exponents: h is the L^q-pairing
    extremizer of Tf, and the next iterate is the L^p-pairing extremizer of
    T*h.  The battery is one stacked apply; its four best start four chains
    of fifty steps in lockstep, one adjoint and one apply per step serving
    every live chain.  A chain stops when its iterate vanishes.  The witness
    is the first best ratio in battery order, then chain by chain, step by step.
    """
    if not (1 <= p) or not (1 <= q):
        raise ValidationError(f"exponents ({p:g}, {q:g}) must be >= 1")
    spec = op.spec
    G = spec.npoints
    rng = np.random.default_rng(seed)
    pp = math.inf if p == 1 else (p / (p - 1.0) if not math.isinf(p) else 1.0)

    def scored(stack):
        """(ratios, images) of a value stack; a row of norm 0 scores 0, with image 0."""
        norms = _norms(stack, p, G)
        images = op.apply(stack)
        images[np.array(norms) == 0] = 0
        return [r / nv if nv else 0.0 for r, nv in zip(_norms(images, q, G), norms)], images

    best = [(0.0, None)] * 5  # (ratio, witness): the battery's best, then each chain's

    def keep(slots, ratios, stack):
        for slot, ratio, row in zip(slots, ratios, stack):
            if ratio > best[slot][0]:
                best[slot] = ratio, row.copy()

    battery = np.array(_witness_battery(spec, rng, trials))
    ratios, g = scored(battery)
    keep([0] * len(battery), ratios, battery)
    starts = np.argsort(ratios)[::-1][:4]
    g, chains = g[starts], 1 + np.arange(len(starts))  # the live chains: images, best slots
    for _ in range(ASCENT_STEPS):
        # h = _dual_map(g, q); a chain whose h is 0 gets an iterate of 0 and stops
        f = _dual_map(op.apply_adjoint(_dual_map(g, q)), pp)
        scale = np.abs(f).reshape(len(f), -1).max(axis=1)
        f, scale, chains = f[scale != 0], scale[scale != 0], chains[scale != 0]
        if len(chains) == 0:
            break
        f /= scale.reshape((-1,) + (1,) * spec.dim)
        ratios, g = scored(f)
        keep(chains, ratios, f)
    best_ratio, best_witness = max(best, key=lambda b: b[0])  # the first of the best

    if best_witness is None:
        best_witness = np.ones(spec.sizes, dtype=complex)
        best_ratio = scored(best_witness[None])[0][0]
    return NormEstimate(
        p=float(p),
        q=float(q),
        value=best_ratio,
        method="battery+ascent",
        trials=trials,
        seed=seed,
        truncation=spec.sizes,
        witness=GridFunction(spec, best_witness),
        label=op.label,
    )


# ---------------------------------------------------------------------------
# Threshold sweep
# ---------------------------------------------------------------------------


def lp_threshold(params: ClassParams, p: float, dim: int) -> float:
    """Critical order -n[(1-rho)|1/p - 1/2| + lam] for boundedness on L^p."""
    return -dim * ((1 - params.rho) * abs(1.0 / p - 0.5) + params.lam)


@dataclass
class ThresholdSweepRecord:
    family: str
    rho: float
    delta: float
    p: float
    m_grid: list
    n_grid: list
    estimates: dict  # (m, N) -> NormEstimate
    slopes: dict  # m -> fitted slope of log norm vs log N
    classifications: dict  # m -> bounded-consistent | growth | inconclusive
    seed: int
    dim: int = 1
    slope_thresholds: tuple = (SLOPE_BOUNDED, SLOPE_GROWTH)
    calibration_note: str = (
        "slope thresholds calibrated on the identity (slope 0) and the "
        "Dirichlet L1 mass (slope ~0.2 over N=64..512)"
    )

    def threshold_order(self) -> float:
        return lp_threshold(ClassParams(0.0, self.rho, self.delta), self.p, self.dim)

    def to_dict(self):
        return {
            "family": self.family,
            "rho": self.rho,
            "delta": self.delta,
            "p": self.p,
            "m_grid": list(self.m_grid),
            "n_grid": list(self.n_grid),
            "threshold_order": self.threshold_order(),
            "values": {
                f"{m:g}|{N}": self.estimates[(m, N)].value
                for m in self.m_grid
                for N in self.n_grid
            },
            "slopes": {f"{m:g}": v for m, v in self.slopes.items()},
            "classifications": {f"{m:g}": v for m, v in self.classifications.items()},
            "seed": self.seed,
            "slope_thresholds": list(self.slope_thresholds),
            "calibration_note": self.calibration_note,
        }


def threshold_sweep(
    family_builder,
    p: float,
    m_grid,
    n_grid,
    trials: int = 12,
    seed: int = 0,
    dim: int = 1,
) -> ThresholdSweepRecord:
    """Lower-bound norms on a (order, truncation) grid with slope classification.

    ``family_builder`` maps an order m to a SymbolFamily; per-cell seeds are
    derived from (seed, cell index) so the sweep is order-independent.
    """
    n_grid = sorted(int(N) for N in n_grid)
    if len(n_grid) < 3:
        raise ValidationError("need at least 3 truncations for a slope")
    m_grid = [float(m) for m in m_grid]
    probe = family_builder(m_grid[0])
    estimates, slopes, classifications = {}, {}, {}
    for i, m in enumerate(m_grid):
        fam = family_builder(m)
        values = []
        for j, N in enumerate(n_grid):
            spec = GridSpec((N,) * dim)
            op = PdoOperator.from_family(fam, spec)
            cell_seed = int(np.random.default_rng([seed, i, j]).integers(2**31))
            est = lp_lq_lower_bound(op, p, p, trials=trials, seed=cell_seed)
            estimates[(m, N)] = est
            values.append(est.value)
        slope = float(
            np.polyfit(np.log(np.asarray(n_grid, float)), np.log(np.maximum(values, 1e-300)), 1)[0]
        )
        slopes[m] = slope
        if slope < SLOPE_BOUNDED:
            classifications[m] = "bounded-consistent"
        elif slope > SLOPE_GROWTH:
            classifications[m] = "growth"
        else:
            classifications[m] = "inconclusive"
    return ThresholdSweepRecord(
        family=probe.name,
        rho=probe.rho,
        delta=probe.delta,
        p=float(p),
        m_grid=m_grid,
        n_grid=n_grid,
        estimates=estimates,
        slopes=slopes,
        classifications=classifications,
        seed=seed,
        dim=dim,
    )


# ---------------------------------------------------------------------------
# Endpoint experiments (weak-(1,1), L^inf -> BMO, H^1 -> L^1)
# ---------------------------------------------------------------------------


def weak11_hypothesis(rho: float, dim: int) -> dict:
    """Exponent bookkeeping for the weak-(1,1) reduction.

    With alpha = rho and beta = n(1-rho)/2 the pairing exponent is
    q = 2/(2-rho), and 1/q = 1/2 + beta/n holds identically.
    """
    alpha = rho
    beta = dim * (1 - rho) / 2.0
    q = 2.0 / (2.0 - rho)
    residual = abs(1.0 / q - (0.5 + beta / dim))
    return {"alpha": alpha, "beta": beta, "q": q, "identity_residual": residual}


@dataclass
class WeakTypeReport:
    operator: str
    lam_grid: list
    per_lam: list  # max over trials of lam |{|Tf| > lam}|, finest truncation
    per_truncation: dict  # str(N) -> max ratio over trials
    max_ratio: float
    stability: float  # relative change across the truncation pair
    input_norms: list  # ||f||_1 per trial at the finest truncation
    trials: int
    seed: int
    hypothesis_satisfied: bool

    def to_dict(self):
        return asdict(self)


def _truncations(op, truncations=None) -> list:
    """The truncations to scan, ascending: N and 2N by default, N the smallest
    axis of op's grid.  Checked before any work, like a grid axis size."""
    if truncations is None:
        base = min(op.spec.sizes)
        return [base, 2 * base]
    if not isinstance(truncations, (list, tuple)) or len(truncations) == 0:
        raise ValidationError("needs at least one truncation", field="truncations")
    for N in truncations:
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 4 or N & (N - 1):
            raise ValidationError(f"{N!r} must be a power of two >= 4", field="truncations")
    return sorted(truncations)


def _check_radius(radius: float, truncations: list, dim: int, field: str):
    """Raise before any work if a ball of ``radius`` can miss every point of the
    coarsest grid: below half its spacing times sqrt(n)."""
    N, reach = truncations[0], math.sqrt(dim) / (2 * truncations[0])
    if radius < reach:
        raise ValidationError(f"a ball of radius {radius:g} can miss every point of the {N}^{dim} "
                              f"grid (half its spacing x sqrt({dim}) is {reach:g})", field=field)


def _rebuilt(op, truncations: list):
    """(N, op rebuilt on the N^n grid) for each N of ``_truncations``.  Each
    operator is built when the previous one is done with, so one rebuilt
    table is alive at a time."""
    for N in truncations:
        yield N, op.on(GridSpec((N,) * op.spec.dim))


def _endpoint_fields(op, per_truncation: dict, trials: int, seed: int) -> dict:
    """The report fields every endpoint experiment carries.

    ``stability`` is the relative change from the coarsest to the finest
    truncation; the hypothesis holds when the order is at most the L^1
    threshold of the operator's class.
    """
    sizes = sorted(per_truncation)
    lo, hi = per_truncation[sizes[0]], per_truncation[sizes[-1]]
    cls = op.class_params
    hypothesis = cls is not None and cls.m <= lp_threshold(cls, 1, op.spec.dim) + 1e-12
    return {
        "operator": op.label,
        "per_truncation": {str(N): v for N, v in per_truncation.items()},
        "max_ratio": max(per_truncation.values()),
        "stability": abs(hi - lo) / max(lo, 1e-300),
        "trials": trials,
        "seed": seed,
        "hypothesis_satisfied": hypothesis,
    }


def _snap_index(point, spec: GridSpec):
    return tuple(int(round(point[ax] * n)) % n for ax, n in enumerate(spec.sizes))


def _trig_profile(coeffs, spec: GridSpec) -> np.ndarray:
    """Fixed-band random trigonometric field, identical across grid sizes."""
    x1 = spec.mesh()[0]
    out = np.full(spec.sizes, coeffs[0], dtype=np.complex128)
    half = (len(coeffs) - 1) // 2
    for k in range(1, half + 1):
        out += coeffs[2 * k - 1] * np.cos(2 * np.pi * k * x1)
        out += coeffs[2 * k] * np.sin(2 * np.pi * k * x1)
    return out


def _weak11_trial_params(rng, trials: int, dim: int):
    """Trial descriptions drawn independently of the grid size.

    Spikes of unit L^1 mass, atom bumps with the cancellation broken, and
    sparse sign combs; the same drawn parameters are realized on every
    truncation so that cross-truncation changes measure the operator alone.
    """
    params = []
    for t in range(trials):
        kind = t % 3
        if kind == 0:
            params.append(("spike", rng.random(dim)))
        elif kind == 1:
            radius = 2.0 ** -int(rng.integers(2, WEAK11_FINEST_BUMP + 1))
            center = rng.random(dim)
            coeffs = rng.standard_normal(17)
            params.append(("bump", (center, radius, coeffs)))
        else:
            k = 16
            positions = rng.random((k, dim))
            signs = rng.choice([-1.0, 1.0], size=k)
            params.append(("comb", (positions, signs)))
    return params


def _realize_weak11_trial(param, spec: GridSpec):
    kind, data = param
    G = spec.npoints
    if kind == "spike":
        v = np.zeros(spec.sizes, dtype=complex)
        v[_snap_index(data, spec)] = G
        return v
    if kind == "bump":
        center, radius, coeffs = data
        try:
            atom = make_atom(tuple(center), radius, GridFunction(spec, _trig_profile(coeffs, spec)))
        except ValidationError:
            return None
        v = atom.values.values + np.where(
            np.abs(atom.values.values) > 0, 0.5 / atom.measure, 0.0
        )
        return v
    positions, signs = data
    v = np.zeros(spec.sizes, dtype=complex)
    for pos, s in zip(positions, signs):
        v[_snap_index(pos, spec)] += s * G / len(signs)
    return v


def weak11_experiment(
    op,
    trials: int = 100,
    lam_grid=None,
    seed: int = 0,
    truncations=None,
) -> WeakTypeReport:
    """max over trial f and levels of lam |{|Tf| > lam}| / ||f||_1.

    Trial functions have unit L^1 mass; the experiment repeats at two
    truncations (N and 2N by default) and reports the relative change.
    """
    truncations = _truncations(op, truncations)
    _check_radius(2.0**-WEAK11_FINEST_BUMP, truncations, op.spec.dim, "truncations")
    if lam_grid is None:
        lam_grid = list(np.geomspace(1e-3, 1e3, 61))
    params = _weak11_trial_params(np.random.default_rng(seed), trials, op.spec.dim)
    per_truncation = {}
    for N, op_N in _rebuilt(op, truncations):
        spec = op_N.spec
        G = spec.npoints
        best = 0.0
        # the finest truncation comes last: its level maxima and norms are kept
        per_lam, input_norms = [0.0] * len(lam_grid), []
        for param in params:
            v = _realize_weak11_trial(param, spec)
            if v is None:
                continue
            f = GridFunction(spec, v)
            norm1 = _norm(f.values, 1.0, G)
            input_norms.append(norm1)
            Tf = np.abs(op_N.apply(f).values)
            for k, lam in enumerate(lam_grid):
                value = lam * float(np.count_nonzero(Tf > lam)) / G
                best = max(best, value / norm1)
                per_lam[k] = max(per_lam[k], value)
        per_truncation[N] = best
    return WeakTypeReport(lam_grid=lam_grid, per_lam=per_lam, input_norms=input_norms,
                          **_endpoint_fields(op, per_truncation, trials, seed))


def linf_bmo_experiment(op, trials: int = 100, seed: int = 0, truncations=None) -> dict:
    """max over sup-normalized trial f of ||Tf||_BMO, with truncation stability.

    Trials are random sign patterns and lacunary cosine sums normalized in
    the sup norm.  The coarsest of the grid and the truncations must be at
    least 8.
    """
    dim = op.spec.dim
    truncations = _truncations(op, truncations)
    coarse = min([*op.spec.sizes, *truncations])
    if coarse < 8:  # a lacunary trial has log2(coarse) - 2 terms
        raise ValidationError(f"coarsest size {coarse} is below 8, where a lacunary trial "
                              "has no term", field="truncations")
    # trial draws are grid-independent: sign patterns live on the coarse
    # cells and get replicated, lacunary frequencies stop at a fixed depth
    rng = np.random.default_rng(seed)
    depth = int(math.log2(coarse)) - 2
    trial_params = []
    for t in range(trials):
        if t % 2 == 0:
            trial_params.append(("signs", rng.choice([-1.0, 1.0], size=(coarse,) * dim)))
        else:
            trial_params.append(("lacunary", rng.choice([-1.0, 1.0], size=depth)))
    per_truncation = {}
    for N, op_N in _rebuilt(op, truncations):
        spec = op_N.spec
        best = 0.0
        x1 = spec.mesh()[0]
        for kind, data in trial_params:
            if kind == "signs":
                reps = N // coarse
                v = data.astype(complex)
                for ax in range(dim):
                    v = np.repeat(v, reps, axis=ax)
            else:
                v = np.zeros(spec.sizes)
                for k, c in enumerate(data):
                    v = v + c * np.cos(2 * np.pi * (2**k) * x1)
                v = v / np.max(np.abs(v))
            f = GridFunction(spec, v)
            best = max(best, bmo_norm(op_N.apply(f)).value / np.max(np.abs(v)))
        per_truncation[N] = best
    return _endpoint_fields(op, per_truncation, trials, seed)


def h1_l1_experiment(op, atom_radii=None, trials: int = 20, seed: int = 0,
                     truncations=None) -> dict:
    """max of ||Ta||_1 over atoms at dyadic radii with random profiles.

    Atoms carry H^1 norm at most 1 by construction, so every ratio is an
    H^1 -> L^1 witness.  The per-radius breakdown, at the finest
    truncation, separates radii below and above the unit scale
    H1_UNIT_SCALE (the desk-scale stand-in for the sigma < 1 / sigma >= 1
    dichotomy).
    """
    truncations = _truncations(op, truncations)
    if atom_radii is None:
        atom_radii = [2.0**-k for k in range(2, 7)]
    if len(atom_radii) == 0:
        raise ValidationError("needs at least one radius", field="atom_radii")
    _check_radius(min(atom_radii), truncations, op.spec.dim, "atom_radii")
    rng = np.random.default_rng(seed)
    draws = {
        radius: [(rng.random(op.spec.dim), rng.standard_normal(33)) for _ in range(trials)]
        for radius in atom_radii
    }
    per_truncation = {}
    for N, op_N in _rebuilt(op, truncations):
        spec = op_N.spec
        per_radius = {}
        for radius in atom_radii:
            best = 0.0
            for center, coeffs in draws[radius]:
                # amplify so the sup normalization saturates: every witness
                # then carries the full 1/|B| peak its radius allows
                profile = GridFunction(spec, 1e9 * _trig_profile(coeffs, spec))
                try:
                    atom = make_atom(tuple(center), radius, profile)
                except ValidationError:
                    continue
                out = op_N.apply(atom.values)
                best = max(best, _norm(out.values, 1.0, spec.npoints))
            per_radius[radius] = best
        per_truncation[N] = max(per_radius.values())
    return {
        **_endpoint_fields(op, per_truncation, trials, seed),
        "per_radius": {f"{r:g}": v for r, v in per_radius.items()},
        "small_scale_max": max(
            (v for r, v in per_radius.items() if r < H1_UNIT_SCALE), default=0.0
        ),
        "large_scale_max": max(
            (v for r, v in per_radius.items() if r >= H1_UNIT_SCALE), default=0.0
        ),
    }


# ---------------------------------------------------------------------------
# Exponent algebra for L^p -> L^q admissibility
# ---------------------------------------------------------------------------


def lp_lq_admissibility(params: ClassParams, p: float, q: float) -> dict:
    """Applicable case and threshold order for boundedness L^p -> L^q.

    Cases: (a) p <= 2 <= q, (b) 2 <= p <= q, (c) p <= q <= 2, for
    1 < p <= q < infinity.  The case formulas agree on their shared
    boundaries and all reduce to the diagonal threshold at p = q.
    """
    if not (1 < p <= q < math.inf):
        raise ValidationError(f"need 1 < p <= q < inf, got ({p:g}, {q:g})")
    n = 1  # thresholds scale linearly in the dimension; returned per unit n
    lam = params.lam
    rho = params.rho
    if p <= 2 <= q:
        case = "a"
        threshold = -(1.0 / p - 1.0 / q + lam)
    elif p >= 2:
        case = "b"
        threshold = -(1.0 / p - 1.0 / q + (1 - rho) * (0.5 - 1.0 / p) + lam)
    else:
        case = "c"
        threshold = -(1.0 / p - 1.0 / q + (1 - rho) * (1.0 / q - 0.5) + lam)
    return {"case": case, "threshold_per_dim": threshold, "p": p, "q": q,
            "rho": rho, "delta": params.delta, "lam": lam}


def admissible_order(params: ClassParams, p: float, q: float, dim: int) -> float:
    return dim * lp_lq_admissibility(params, p, q)["threshold_per_dim"]


# ---------------------------------------------------------------------------
# Effective order of a composed operator from its action on pure waves
# ---------------------------------------------------------------------------


def effective_order(op) -> dict:
    """Slope of log ||T e_xi||_2 against log <xi> over dyadic shells.

    The shells run from EFFECTIVE_ORDER_SHELL_LO up to half the smallest
    axis.  Pure waves are L^2-normalized, so the shell suprema of the
    response norms trace the effective multiplier profile of the operator.
    """
    spec = op.spec
    hi = min(spec.sizes) / 2.0
    shells = []
    r = EFFECTIVE_ORDER_SHELL_LO
    while 2 * r <= hi:
        shells.append((r, 2 * r))
        r *= 2
    if len(shells) < 2:
        raise ValidationError("need at least 2 dyadic shells for an effective order")
    centers, sups = [], []
    G = spec.npoints
    for s_lo, s_hi in shells:
        best = 0.0
        for mag in sorted({int(s_lo), int(math.sqrt(s_lo * s_hi)), int(s_hi) - 1}):
            for signed in (mag, -mag):
                xi0 = (signed,) + (0,) * (spec.dim - 1)
                br = math.sqrt(1.0 + mag * mag)
                if not (s_lo <= br < s_hi):
                    continue
                wave = pure_wave(spec, xi0)
                best = max(best, _norm(op.apply(wave).values, 2.0, G))
        if best > 0:
            centers.append(math.sqrt(s_lo * s_hi))
            sups.append(best)
    slope = float(np.polyfit(np.log(centers), np.log(sups), 1)[0])
    return {"order": slope, "shells": shells, "responses": sups}
