"""Empirical boundedness experiments across truncations.

Exact L^p -> L^q norms of the discretized operators are intractable for
general exponents, so away from p = q = 2, where the L^2 norm is computed
exactly, every estimate here is a certified lower bound: a concrete witness
function together with its achieved ratio.  What a boundedness claim means
at desk scale is that those bounds stay put as the truncation grows, so each
experiment reports values at two or more truncations with a stability
figure, and the threshold sweep classifies each order by the slope of
log(norm) against log(N):

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
trials, seed, whether the order meets the endpoint threshold); weak-(1,1)
and H^1 -> L^1, which drop a trial that makes no atom, also report the
inputs ``applied`` at each truncation.

All randomness is seeded; sweep cells derive their seed from (master seed,
cell index), so results are independent of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import ClassParams, loglog_fit
from .errors import ConvergenceError, ValidationError
from .grid import GridFunction, GridSpec, half_diameter, pure_wave
from .operators import PdoOperator
from .spaces import bmo_sup, dyadic_radii, lp_norm, lp_norms, make_atom

SLOPE_BOUNDED = 0.05
SLOPE_GROWTH = 0.15
ASCENT_STEPS = 50
H1_UNIT_SCALE = 0.125  # h1_l1_experiment: atom radii below it count as small scale
WEAK11_FINEST_BUMP = 5  # weak11 bump radii are 2^-2 ... 2^-WEAK11_FINEST_BUMP
WEAK11_LEVELS = (1e-3, 1e3, 61)  # weak11 levels lam: geomspace(lo, hi, count)


@dataclass
class NormEstimate:
    """Certified lower bound on an operator norm, with its witness."""

    p: float
    q: float
    value: float
    method: str
    witness: GridFunction = field(repr=False, default=None)

    def verify(self, op) -> float:
        """Re-achieve the stored ratio from the stored witness."""
        return lp_norm(op.apply(self.witness), self.q).value / lp_norm(self.witness, self.p).value


# ---------------------------------------------------------------------------
# L2 operator norm by Golub-Kahan bidiagonalization
# ---------------------------------------------------------------------------

L2_MAX_STEPS = 200  # l2_norm: Golub-Kahan steps before it gives up
L2_RESIDUAL = 1e-10  # l2_norm: stop once the residual is at most this times sigma


def l2_norm(op, seed: int = 0) -> NormEstimate:
    """Largest singular value sigma by Golub-Kahan bidiagonalization (Golub &
    Kahan 1965) from a seeded random start, with full reorthogonalization.

    Step k applies T and T* once each to a stack of one and extends
    T V = U B, with B upper bidiagonal (alphas on the diagonal, betas above
    it).  B's top singular triplet (sigma, a, b) gives the witness V b, whose
    residual |T* U a - sigma V b| = beta_k |a_k|; the iteration stops once
    that is at most L2_RESIDUAL sigma, and raises ConvergenceError carrying
    it after L2_MAX_STEPS steps.  A clustered top spectrum can exhaust that
    budget: on Op(bessel(0.25)) from seed 0 it takes 33, 59, 89, 131 and 189
    steps at N = 64 ... 1024 and raises ConvergenceError at N = 2048.  That
    is why threshold sweeps read a multiplier's norm as max |sigma| instead.
    """
    spec = op.spec
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes)
    V, U = [v / np.linalg.norm(v)], []
    alphas, betas = [], []
    for _ in range(L2_MAX_STEPS):
        u = op.apply(V[-1][None])[0] - (betas[-1] * U[-1] if U else 0)
        alphas.append(_orthonormalize(u, U))
        U.append(u)
        v = op.apply_adjoint(U[-1][None])[0] - alphas[-1] * V[-1]
        betas.append(_orthonormalize(v, V))
        B = np.diag(alphas) + np.diag(betas[:-1], 1)
        a, sigmas, bh = np.linalg.svd(B)
        sigma, residual = float(sigmas[0]), betas[-1] * abs(a[-1, 0])
        if residual <= L2_RESIDUAL * sigma:
            break
        V.append(v)
    else:
        raise ConvergenceError(
            f"Golub-Kahan bidiagonalization did not converge in {L2_MAX_STEPS} steps",
            final_gap=residual,
        )
    witness = np.tensordot(bh[0].conj(), np.array(V), axes=1)
    return NormEstimate(2.0, 2.0, sigma, "golub-kahan", GridFunction(spec, witness))


def _orthonormalize(w: np.ndarray, basis: list) -> float:
    """Orthogonalize w in place against the orthonormal ``basis``, twice, as
    once is not enough in floating point, and scale it to norm 1; returns its
    norm before scaling (a zero w stays zero)."""
    if basis:
        Q = np.array(basis).reshape(len(basis), -1)
        flat = w.reshape(-1)
        for _ in range(2):
            flat -= Q.T @ (Q.conj() @ flat)
    norm = float(np.linalg.norm(w))
    if norm > 0:
        w /= norm
    return norm


# ---------------------------------------------------------------------------
# Witness battery and ascent for general (p, q)
# ---------------------------------------------------------------------------


def _dual_map(stack: np.ndarray, q: float, a: np.ndarray = None) -> np.ndarray:
    """Holder-extremal pairing element for the L^q norm of each row of
    ``stack``, given its modulus ``a`` or not."""
    a = np.abs(stack) if a is None else a
    if math.isinf(q):
        flat, a = stack.reshape(len(stack), -1), a.reshape(len(stack), -1)
        at = (np.arange(len(stack)), a.argmax(axis=1))
        out = np.zeros(flat.shape, dtype=stack.dtype)
        out[at] = flat[at] / np.maximum(a[at], 1e-300)
        return out.reshape(stack.shape)
    if a.all():
        sign = stack / a
    else:  # a zero modulus has sign 0
        sign = np.where(a > 0, stack / np.where(a == 0, 1.0, a), 0.0)
    return (a if q == 2 else a ** (q - 1.0)) * sign


def _witness_battery(spec: GridSpec, rng, trials: int):
    """Gaussian fields, sign patterns and atoms at dyadic radii."""
    out = []
    for _ in range(max(1, trials // 3)):
        out.append(rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes))
    for _ in range(max(1, trials // 3)):
        out.append(rng.choice([-1.0, 1.0], size=spec.sizes).astype(complex))
    radii = [r for r in dyadic_radii(spec) if r < half_diameter(spec.dim)]
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
    every live chain.  Each image's modulus is taken once, for its L^q norm
    and the next step's dual map.  A chain stops when its iterate vanishes.
    The witness is the first best ratio in battery order, then chain by
    chain, step by step.
    """
    if not (1 <= p) or not (1 <= q):
        raise ValidationError(f"exponents ({p:g}, {q:g}) must be >= 1")
    spec = op.spec
    G = spec.npoints
    rng = np.random.default_rng(seed)
    pp = math.inf if p == 1 else (p / (p - 1.0) if not math.isinf(p) else 1.0)

    def scored(stack):
        """(ratios, images, |images|) of a value stack; a row of norm 0 scores
        0, with image 0."""
        norms = lp_norms(stack, p)
        images = op.apply(stack)
        if 0 in norms:
            images[np.array(norms) == 0] = 0
        a = np.abs(images)
        return [r / nv if nv else 0.0 for r, nv in zip(lp_norms(images, q, a), norms)], images, a

    best = [(0.0, None)] * 5  # (ratio, witness): the battery's best, then each chain's

    def keep(slots, ratios, stack):
        for slot, ratio, row in zip(slots, ratios, stack):
            if ratio > best[slot][0]:
                best[slot] = ratio, row.copy()

    battery = np.array(_witness_battery(spec, rng, trials))
    ratios, g, a = scored(battery)
    keep([0] * len(battery), ratios, battery)
    starts = np.argsort(ratios)[::-1][:4]
    # the live chains: images, their moduli, best slots
    g, a, chains = g[starts], a[starts], 1 + np.arange(len(starts))
    for _ in range(ASCENT_STEPS):
        # h = _dual_map(g, q); a chain whose h is 0 gets an iterate of 0 and stops
        f = _dual_map(op.apply_adjoint(_dual_map(g, q, a)), pp)
        scale = np.abs(f).reshape(len(f), G).max(axis=1)
        live = scale != 0
        if not live.all():
            f, scale, chains = f[live], scale[live], chains[live]
            if len(chains) == 0:
                break
        f /= scale.reshape((-1,) + (1,) * spec.dim)
        ratios, g, a = scored(f)
        keep(chains, ratios, f)
    best_ratio, best_witness = max(best, key=lambda b: b[0])  # the first of the best

    if best_witness is None:
        best_witness = np.ones(spec.sizes, dtype=complex)
        best_ratio = scored(best_witness[None])[0][0]
    return NormEstimate(float(p), float(q), best_ratio, "battery+ascent",
                        GridFunction(spec, best_witness))


# ---------------------------------------------------------------------------
# Threshold sweep
# ---------------------------------------------------------------------------


def lp_threshold(params: ClassParams, p: float, dim: int) -> float:
    """Critical order -n[(1-rho)|1/p - 1/2| + lam] for boundedness on L^p."""
    return -dim * ((1 - params.rho) * abs(1.0 / p - 0.5) + params.lam)


@dataclass
class ThresholdSweepRecord:
    """A threshold sweep's cells and slopes.  At p = 2 every estimate is the
    exact L^2 norm of its cell; at any other p it is a battery+ascent lower
    bound from the sweep's ``trials`` witnesses."""

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


def _exact_l2_norm(op, seed: int) -> NormEstimate:
    """A p = 2 sweep cell: the exact L^2 norm of ``op``.

    A multiplier's norm is max |sigma| over the lattice, read from its
    profile with no apply; the witness is the plane wave at the first argmax
    in lattice order.  Any other operator gets ``l2_norm`` from ``seed``.
    Golub-Kahan is not used on multipliers, whose clustered top spectra can
    exhaust its step budget.
    """
    if not op.is_multiplier:
        return l2_norm(op, seed=seed)
    moduli = np.abs(op.multiplier_profile()).ravel()
    at = int(np.argmax(moduli))
    return NormEstimate(2.0, 2.0, float(moduli[at]), "multiplier-max",
                        pure_wave(op.spec, op.lattice.points()[at]))


def _powers_of_two(sizes, field: str) -> list:
    """``sizes`` in ascending order, once each is checked to be a power of two >= 4."""
    for N in sizes:
        if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 4 or N & (N - 1):
            raise ValidationError(f"{N!r} must be a power of two >= 4", field=field)
    return sorted(sizes)


def threshold_sweep(
    family_builder,
    p: float,
    m_grid,
    n_grid,
    trials: int = 12,
    seed: int = 0,
    dim: int = 1,
) -> ThresholdSweepRecord:
    """Norms on a (order, truncation) grid with slope classification.

    At p = 2 each cell is the exact L^2 norm (``_exact_l2_norm``: max |sigma|
    for a multiplier, ``l2_norm`` otherwise) and ``trials`` is not read; at
    any other p each cell is the battery+ascent lower bound of
    ``lp_lq_lower_bound`` with ``trials`` witnesses.  ``family_builder`` maps
    an order m to a SymbolFamily; per-cell seeds are derived from (seed, cell
    index) so the sweep is order-independent.  Before any work, ``m_grid``
    must hold an order and ``n_grid`` three or more distinct powers of two >= 4.
    """
    m_grid = [float(m) for m in m_grid]
    if not m_grid:
        raise ValidationError("needs at least one order", field="m_grid")
    n_grid = [int(N) for N in _powers_of_two(n_grid, "n_grid")]
    if len(set(n_grid)) < 3:
        raise ValidationError("need at least 3 distinct truncations for a slope", field="n_grid")
    probe = family_builder(m_grid[0])
    estimates, slopes, classifications = {}, {}, {}
    for i, m in enumerate(m_grid):
        fam = family_builder(m)
        values = []
        for j, N in enumerate(n_grid):
            spec = GridSpec((N,) * dim)
            op = PdoOperator.from_family(fam, spec)
            cell_seed = int(np.random.default_rng([seed, i, j]).integers(2**31))
            if p == 2:
                est = _exact_l2_norm(op, cell_seed)
            else:
                est = lp_lq_lower_bound(op, p, p, trials=trials, seed=cell_seed)
            estimates[(m, N)] = est
            values.append(est.value)
        slope = loglog_fit(n_grid, np.maximum(values, 1e-300))["slope"]
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


class EndpointReport(dict):
    """An endpoint experiment's report: a JSON-ready dict whose keys read as attributes too."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def _truncations(op, truncations=None) -> list:
    """The truncations to scan, ascending: N and 2N by default, N the smallest
    axis of op's grid.  Checked before any work, like a grid axis size."""
    if truncations is None:
        base = min(op.spec.sizes)
        return [base, 2 * base]
    if not isinstance(truncations, (list, tuple)) or len(truncations) == 0:
        raise ValidationError("needs at least one truncation", field="truncations")
    return _powers_of_two(truncations, "truncations")


def _check_trials(trials: int):
    """Raise before any work if there is no trial: the maxima would read 0, as if bounded."""
    if trials < 1:
        raise ValidationError(f"must be >= 1, got {trials}", field="trials")


def _check_radii(radii, truncations: list, dim: int, field: str):
    """Raise before any work if a ball of one of ``radii`` can miss every point
    of the coarsest grid, below half its spacing times sqrt(n), or is no
    proper ball, at sqrt(n)/2 or above, where a ball is the whole torus."""
    N, reach = truncations[0], half_diameter(dim) / truncations[0]
    if min(radii) < reach:
        raise ValidationError(f"a ball of radius {min(radii):g} can miss every point of the "
                              f"{N}^{dim} grid (half its spacing x sqrt({dim}) is {reach:g})",
                              field=field)
    if max(radii) >= half_diameter(dim):
        raise ValidationError(f"a ball of radius {max(radii):g} is the whole torus, not a proper "
                              f"ball (sqrt({dim})/2 is {half_diameter(dim):g})", field=field)


def _rebuilt(op, truncations: list):
    """(N, op rebuilt on the N^n grid) for each N of ``_truncations``.  Each
    operator is built when the previous one is done with, so one rebuilt
    table is alive at a time."""
    for N in truncations:
        yield N, op.on(GridSpec((N,) * op.spec.dim))


def _endpoint_report(op, per_truncation: dict, trials: int, seed: int, **fields) -> EndpointReport:
    """The fields every endpoint experiment reports, and the experiment's own ``fields``.

    ``stability`` is the relative change from the coarsest to the finest
    truncation; the hypothesis holds when the order is at most the L^1
    threshold of the operator's class.
    """
    sizes = sorted(per_truncation)
    lo, hi = per_truncation[sizes[0]], per_truncation[sizes[-1]]
    cls = op.class_params
    hypothesis = cls is not None and cls.m <= lp_threshold(cls, 1, op.spec.dim) + 1e-12
    return EndpointReport(
        operator=op.label,
        per_truncation={str(N): v for N, v in per_truncation.items()},
        max_ratio=max(per_truncation.values()),
        stability=abs(hi - lo) / max(lo, 1e-300),
        trials=trials,
        seed=seed,
        hypothesis_satisfied=hypothesis,
        **fields,
    )


def _snap_index(point, spec: GridSpec):
    return tuple(int(round(point[ax] * n)) % n for ax, n in enumerate(spec.sizes))


def _trig_profile(coeffs, spec: GridSpec) -> np.ndarray:
    """Fixed-band random trigonometric fields, identical across grid sizes:
    one per row of ``coeffs``, shape (..., 2K + 1), in one array of shape
    (...) + sizes, each wave evaluated once for every row."""
    coeffs = np.asarray(coeffs, dtype=float)
    c = coeffs.reshape(coeffs.shape[:-1] + (1,) * spec.dim + coeffs.shape[-1:])
    x1 = spec.mesh()[0]
    out = np.broadcast_to(c[..., 0], coeffs.shape[:-1] + spec.sizes).astype(np.complex128)
    for k in range(1, (coeffs.shape[-1] - 1) // 2 + 1):
        out += c[..., 2 * k - 1] * np.cos(2 * np.pi * k * x1)
        out += c[..., 2 * k] * np.sin(2 * np.pi * k * x1)
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


def _realize_weak11_trial(param, spec: GridSpec, bump_profiles):
    """The trial's values on ``spec``, or None for a bump that makes no atom;
    ``bump_profiles`` iterates over the bump trials' profiles in order."""
    kind, data = param
    G = spec.npoints
    if kind == "spike":
        v = np.zeros(spec.sizes, dtype=complex)
        v[_snap_index(data, spec)] = G
        return v
    if kind == "bump":
        center, radius, _ = data
        try:
            atom = make_atom(tuple(center), radius, GridFunction(spec, next(bump_profiles)))
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
) -> EndpointReport:
    """max over trial f and levels of lam |{|Tf| > lam}| / ||f||_1.

    Trial functions have unit L^1 mass; the experiment repeats at two
    truncations (N and 2N by default) and reports the relative change.
    At the finest truncation it also reports ``per_lam``, the max over
    trials of lam |{|Tf| > lam}| at each level of ``lam_grid``, and
    ``input_norms``, the trials' ||f||_1.  A bump trial whose profile is
    constant on its ball makes no atom and is dropped at that truncation, so
    ``applied`` counts the trials applied at each truncation; ``trials`` is
    the count requested.
    """
    _check_trials(trials)
    truncations = _truncations(op, truncations)
    _check_radii([2.0**-WEAK11_FINEST_BUMP], truncations, op.spec.dim, "truncations")
    if lam_grid is None:
        lam_grid = list(np.geomspace(*WEAK11_LEVELS))
    lams = np.asarray(lam_grid, dtype=float)
    params = _weak11_trial_params(np.random.default_rng(seed), trials, op.spec.dim)
    per_truncation, applied = {}, {}
    for N, op_N in _rebuilt(op, truncations):
        spec = op_N.spec
        G = spec.npoints
        best = 0.0
        # the finest truncation comes last: its level maxima and norms are kept
        per_lam = np.zeros(len(lams))
        bump_coeffs = [data[2] for kind, data in params if kind == "bump"]
        bumps = iter(_trig_profile(bump_coeffs, spec) if bump_coeffs else ())
        realized = [v for param in params
                    if (v := _realize_weak11_trial(param, spec, bumps)) is not None]
        stack = np.array(realized).reshape((-1,) + spec.sizes)
        applied[str(N)] = len(stack)
        input_norms = lp_norms(stack, 1.0)
        magnitudes = np.sort(np.abs(op_N.apply(stack)).reshape(len(stack), G), axis=1)
        for norm1, Tf in zip(input_norms, magnitudes):
            # |{|Tf| > lam}| for every level, from the one sorted |Tf|
            values = lams * (G - np.searchsorted(Tf, lams, side="right")) / G
            best = float(np.max(values / norm1, initial=best))
            np.maximum(per_lam, values, out=per_lam)
        per_truncation[N] = best
    return _endpoint_report(op, per_truncation, trials, seed, applied=applied, lam_grid=lam_grid,
                            per_lam=per_lam.tolist(), input_norms=input_norms)


def linf_bmo_experiment(op, trials: int = 100, seed: int = 0, truncations=None) -> EndpointReport:
    """max over sup-normalized trial f of ||Tf||_BMO, with truncation stability.

    Trials are random sign patterns and lacunary cosine sums normalized in
    the sup norm.  Each truncation's trials are one apply and one exact
    ``bmo_sup`` search over every trial's balls, scaled by the trial's sup
    norm, so the trials share one ball geometry and prune each other.  The
    coarsest of the grid and the truncations must be at least 8.
    """
    dim = op.spec.dim
    _check_trials(trials)
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
        x1 = spec.mesh()[0]
        stack = np.empty((trials,) + spec.sizes, dtype=complex)
        for v, (kind, data) in zip(stack, trial_params):
            if kind == "signs":
                signs = data
                for ax in range(dim):
                    signs = np.repeat(signs, N // coarse, axis=ax)
                v[...] = signs
            else:
                wave = np.zeros(spec.sizes)
                for k, c in enumerate(data):
                    wave = wave + c * np.cos(2 * np.pi * (2**k) * x1)
                v[...] = wave / np.max(np.abs(wave))
        scales = np.max(np.abs(stack), axis=tuple(range(1, dim + 1)))
        per_truncation[N] = bmo_sup(spec, op_N.apply(stack), scales).value
    return _endpoint_report(op, per_truncation, trials, seed)


def h1_l1_experiment(op, atom_radii=None, trials: int = 20, seed: int = 0,
                     truncations=None) -> EndpointReport:
    """max of ||Ta||_1 over atoms at dyadic radii with random profiles.

    Atoms carry H^1 norm at most 1 by construction, so every ratio is an
    H^1 -> L^1 witness.  The per-radius breakdown, at the finest
    truncation, separates radii below and above the unit scale
    H1_UNIT_SCALE (the desk-scale stand-in for the sigma < 1 / sigma >= 1
    dichotomy).  ``trials`` atoms are drawn per radius; one whose profile is
    constant on its ball is dropped at that truncation, so ``applied``
    counts the atoms applied at each truncation.
    """
    _check_trials(trials)
    truncations = _truncations(op, truncations)
    if atom_radii is None:
        atom_radii = [2.0**-k for k in range(2, 7)]
    if len(atom_radii) == 0:
        raise ValidationError("needs at least one radius", field="atom_radii")
    _check_radii(atom_radii, truncations, op.spec.dim, "atom_radii")
    rng = np.random.default_rng(seed)
    draws = [(radius, rng.random(op.spec.dim), rng.standard_normal(33))
             for radius in atom_radii for _ in range(trials)]
    per_truncation, applied = {}, {}
    for N, op_N in _rebuilt(op, truncations):
        spec = op_N.spec
        profiles = _trig_profile([coeffs for *_, coeffs in draws], spec) if draws else ()
        atoms = []  # (radius, values) of every atom made
        for (radius, center, _), profile in zip(draws, profiles):
            # amplify so the sup normalization saturates: every witness then
            # carries the full 1/|B| peak its radius allows
            try:
                atom = make_atom(tuple(center), radius, GridFunction(spec, 1e9 * profile))
            except ValidationError:
                continue
            atoms.append((radius, atom.values.values))
        stack = np.array([values for _, values in atoms]).reshape((-1,) + spec.sizes)
        applied[str(N)] = len(stack)
        per_radius = dict.fromkeys(atom_radii, 0.0)
        for (radius, _), norm1 in zip(atoms, lp_norms(op_N.apply(stack), 1.0)):
            per_radius[radius] = max(per_radius[radius], norm1)
        per_truncation[N] = max(per_radius.values())
    return _endpoint_report(
        op, per_truncation, trials, seed, applied=applied,
        per_radius={f"{r:g}": v for r, v in per_radius.items()},
        small_scale_max=max(
            (v for r, v in per_radius.items() if r < H1_UNIT_SCALE), default=0.0
        ),
        large_scale_max=max(
            (v for r, v in per_radius.items() if r >= H1_UNIT_SCALE), default=0.0
        ),
    )


# ---------------------------------------------------------------------------
# Exponent algebra for L^p -> L^q admissibility
# ---------------------------------------------------------------------------


def lp_lq_admissibility(params: ClassParams, p: float, q: float) -> dict:
    """Applicable case and threshold order for boundedness L^p -> L^q.

    Cases: (a) p <= 2 <= q, (b) 2 <= p <= q, (c) p <= q <= 2, for
    1 < p <= q < infinity.  The case formulas agree on their shared
    boundaries and all reduce to the diagonal threshold at p = q.
    Thresholds scale linearly in the dimension n, so the one returned is
    per unit n.
    """
    if not (1 < p <= q < math.inf):
        raise ValidationError(f"need 1 < p <= q < inf, got ({p:g}, {q:g})")
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
