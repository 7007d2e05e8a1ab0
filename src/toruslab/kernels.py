"""Schwartz kernels of quantized symbols and their off-diagonal estimates.

The kernel of Op(p) on the truncated lattice is

    k(x, y) = sum_xi e^{2 pi i (x-y).xi} p(x, xi),

synthesized row by row with inverse FFTs.  Three estimate families are
probed empirically, always with finite-truncation stability diagnostics
(never as certificates):

  * polynomial off-diagonal decay: sup_{d(x,y) >= cutoff} d^N |k| stays
    bounded as the truncation grows, once N is large enough relative to the
    symbol order;
  * a logarithmic bound at the critical order -n, checked as the quality of
    a straight-line fit of |k| against |log d|;
  * integral continuity in each argument: for sampled pairs y near z, the
    quadrature integral of |k(., y) - k(., z)| outside a ball around z stays
    uniformly bounded over a sigma sweep.

On the unit torus the classical "sigma >= 1" regime is empty (diameters top
out at sqrt(n)/2), so a fixed unit scale s0 stands in for 1: all
excluded-ball radii carry an s0 factor.  Without it the excluded ball at
rho < 1/2 swallows the whole torus and every integral would be vacuously
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .calculus import mi_abs, mi_validate
from .errors import EmptyDomainError, ValidationError
from .grid import GridSpec, _center_distance_grid, offset_distance_grid
from .experiments import lp_threshold
from .operators import PdoOperator, kernel_offset_rows, offsets_to_full, to_matrix
from .symbols import BinOp, Const, XiVar, diff_x_multi

DEFAULT_UNIT_SCALE = 0.125  # desk-scale stand-in for the sigma >= 1 threshold
DEFAULT_SUB_UNIT_SCALE = 0.03125  # excluded-ball scale in the sigma < 1 regime
MAX_KERNEL_DERIVATIVE = 2


@dataclass
class KernelMatrix:
    """Kernel samples in offset form plus provenance for re-synthesis."""

    spec: GridSpec
    offset_rows: np.ndarray  # shape (G,) + sizes; K[r, z] = k(x_r, x_r - z)
    label: str = "kernel"
    source: object = None  # operator the kernel came from
    _full: np.ndarray = field(default=None, repr=False)

    def full(self) -> np.ndarray:
        """Dense k(x, y), materialized once."""
        if self._full is None:
            self._full = offsets_to_full(self.offset_rows, self.spec)
        return self._full

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.offset_rows)))

    def circulant_defect(self) -> float:
        """max over rows of |K[r] - K[0]|; zero for x-independent symbols."""
        return float(np.max(np.abs(self.offset_rows - self.offset_rows[0])))

    def supremum_per_offset(self) -> np.ndarray:
        """sup over x of |k(x, x - z)| for each offset z, shape ``sizes``."""
        G = self.spec.npoints
        return np.max(np.abs(self.offset_rows.reshape(G, -1)), axis=0).reshape(self.spec.sizes)


def synthesize_kernel(op, lattice_box: int = None) -> KernelMatrix:
    """Kernel of the operator on its own grid (dense size guard applies).

    ``lattice_box`` truncates the frequency sum to the centered sub-box of
    that per-axis size, and an axis no larger than the box stays whole; the
    default keeps the grid's full FFT box.
    """
    rows = kernel_offset_rows(op, lattice_box)
    return KernelMatrix(op.spec, rows, label=op.label, source=op)


# ---------------------------------------------------------------------------
# Derivative kernels via the order-shifted symbol
# ---------------------------------------------------------------------------


def _monomial_2pi_xi(nu, sign: float):
    """Expression for prod_j (sign * 2 pi i xi_j)^{nu_j}."""
    factors = []
    for ax, power in enumerate(nu):
        for _ in range(power):
            factors.append(BinOp("*", Const(sign * 2j * math.pi), XiVar(ax)))
    if not factors:
        return Const(1.0 + 0j)
    out = factors[0]
    for f in factors[1:]:
        out = BinOp("*", out, f)
    return out


def derivative_kernel(op: PdoOperator, alpha, beta) -> KernelMatrix:
    """Kernel of d^alpha_x d^beta_y k, synthesized from the shifted symbol.

    The mixed derivative of the kernel is itself the kernel of the symbol

        sum_{w <= alpha} C(alpha, w) (2 pi i xi)^{alpha - w} d^w_x p(x, xi)
        * (-2 pi i xi)^beta,

    of order m + |alpha + beta|.  Orders beyond |alpha + beta| = 2 amplify
    truncation noise beyond usefulness and are rejected.
    """
    if not isinstance(op, PdoOperator) or op.expr is None:
        raise ValidationError("derivative kernels need an expression-backed operator")
    dim = op.spec.dim
    alpha = mi_validate(alpha, dim)
    beta = mi_validate(beta, dim)
    if mi_abs(alpha) + mi_abs(beta) > MAX_KERNEL_DERIVATIVE:
        raise ValidationError(
            f"kernel derivative order {mi_abs(alpha) + mi_abs(beta)} exceeds "
            f"{MAX_KERNEL_DERIVATIVE}"
        )
    terms = []
    for omega in product(*[range(a + 1) for a in alpha]):
        coef = 1.0
        for a, w in zip(alpha, omega):
            coef *= math.comb(a, w)
        residual = tuple(a - w for a, w in zip(alpha, omega))
        piece = BinOp("*", Const(complex(coef)), _monomial_2pi_xi(residual, +1.0))
        piece = BinOp("*", piece, diff_x_multi(op.expr, omega))
        terms.append(piece)
    total = terms[0]
    for t in terms[1:]:
        total = BinOp("+", total, t)
    total = BinOp("*", total, _monomial_2pi_xi(beta, -1.0))
    shifted = PdoOperator(
        total,
        op.spec,
        params=op.params,
        class_params=None,
        label=f"d^{list(alpha)}_x d^{list(beta)}_y {op.label}",
    )
    return synthesize_kernel(shifted)


# ---------------------------------------------------------------------------
# Off-diagonal decay
# ---------------------------------------------------------------------------


@dataclass
class KernelDecayReport:
    exponent: int
    cutoff: float
    suprema: dict  # truncation size -> sup of d^N |k| over d >= effective cutoff
    effective_cutoffs: dict
    stability_ratio: float

    def to_dict(self):
        return {
            "exponent": self.exponent,
            "cutoff": self.cutoff,
            "suprema": {str(k): v for k, v in self.suprema.items()},
            "effective_cutoffs": {str(k): v for k, v in self.effective_cutoffs.items()},
            "stability_ratio": self.stability_ratio,
        }


def _masked_decay_sup(kernel: KernelMatrix, exponent: int, cutoff: float) -> float:
    dist = offset_distance_grid(kernel.spec)
    mask = dist >= cutoff
    if not np.any(mask):
        raise EmptyDomainError(f"cutoff {cutoff:g} excludes all grid pairs")
    sup_off = kernel.supremum_per_offset()
    return float(np.max(dist[mask] ** exponent * sup_off[mask]))


def decay_scan(kernel: KernelMatrix, exponent: int, cutoff: float, truncations) -> KernelDecayReport:
    """sup of d(x,y)^N |k(x,y)| off the diagonal, recomputed per lattice truncation.

    The grid stays fixed (the kernel's own); each truncation L restricts the
    frequency sum to the centered L-per-axis sub-box, and the supremum runs
    over d >= max(cutoff, 4/L), at least four cells at the truncation scale.
    The stability ratio compares the largest truncation to the smallest: a
    ratio near 1 is finite-truncation evidence for the decay estimate, while
    unsmoothed symbols (the full Dirichlet sum) grow roughly linearly.
    """
    if exponent < 0:
        raise ValidationError("decay exponent must be >= 0")
    if kernel.source is None:
        raise ValidationError("kernel lacks provenance; cannot rescan truncations")
    base_n = min(kernel.spec.sizes)
    if cutoff < 4.0 / base_n - 1e-12:
        raise ValidationError(f"cutoff {cutoff:g} is below four grid cells (4/{base_n})")
    truncs = sorted(int(t) for t in truncations)
    if truncs[-1] > base_n:
        raise ValidationError(
            f"truncation {truncs[-1]} exceeds the kernel grid size {base_n}"
        )
    suprema, eff = {}, {}
    for L in truncs:
        kern_L = synthesize_kernel(kernel.source, lattice_box=L)
        cut_L = max(cutoff, 4.0 / L)
        suprema[L] = _masked_decay_sup(kern_L, exponent, cut_L)
        eff[L] = cut_L
    smallest, largest = suprema[truncs[0]], suprema[truncs[-1]]
    ratio = largest / smallest if smallest > 0 else math.inf
    return KernelDecayReport(exponent, cutoff, suprema, eff, float(ratio))


# ---------------------------------------------------------------------------
# Logarithmic bound at the critical order
# ---------------------------------------------------------------------------


@dataclass
class LogBoundReport:
    slope: float
    intercept: float
    residual_ratio: float
    degenerate: bool
    npoints: int
    max_abs_kernel: float
    near_slope: float
    far_slope: float

    def to_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "residual_ratio": self.residual_ratio,
            "degenerate": self.degenerate,
            "npoints": self.npoints,
            "max_abs_kernel": self.max_abs_kernel,
            "near_slope": self.near_slope,
            "far_slope": self.far_slope,
        }


def log_bound_check(kernel: KernelMatrix, cutoff: float) -> LogBoundReport:
    """Fit sup_d |k| against |log d| over cutoff <= d <= 1/4.

    For symbols of the critical order the kernel grows like C |log d|
    toward the diagonal; the fitted slope is the empirical C.  The residual
    ratio is the worst multiplicative deviation from the fit over the inner
    half of the window (d below the geometric midpoint of cutoff and 1/4):
    near the outer edge the kernel oscillates through zero and
    multiplicative comparison carries no information.

    A bounded kernel saturates toward the diagonal instead of growing, so
    the fit is flagged degenerate when the near-diagonal half-window slope
    falls below 0.8 of the far half-window slope.
    """
    dist = offset_distance_grid(kernel.spec)
    sup_off = kernel.supremum_per_offset()
    mask = (dist >= cutoff) & (dist <= 0.25)
    if np.count_nonzero(mask) < 4:
        raise EmptyDomainError("fewer than 4 sample distances in [cutoff, 1/4]")
    d = dist[mask].ravel()
    v = sup_off[mask].ravel()
    # one point per distinct distance: the estimate bounds a supremum
    uniq, inverse = np.unique(np.round(d, 12), return_inverse=True)
    sup_v = np.zeros_like(uniq)
    np.maximum.at(sup_v, inverse, v)
    u = np.abs(np.log(uniq))
    slope, intercept = np.polyfit(u, sup_v, 1)
    pred = slope * u + intercept
    near = u >= 0.5 * (u.min() + u.max())  # small d, large |log d|
    floor = 1e-12 * max(float(np.max(sup_v)), 1e-300)
    ratios = np.maximum(
        (sup_v[near] + floor) / np.maximum(pred[near], floor),
        np.maximum(pred[near], floor) / (sup_v[near] + floor),
    )
    near_slope = float(np.polyfit(u[near], sup_v[near], 1)[0]) if near.sum() >= 2 else 0.0
    far_slope = float(np.polyfit(u[~near], sup_v[~near], 1)[0]) if (~near).sum() >= 2 else 0.0
    if far_slope > 0:
        degenerate = near_slope < 0.8 * far_slope
    else:
        degenerate = near_slope <= 0
    return LogBoundReport(
        slope=float(slope),
        intercept=float(intercept),
        residual_ratio=float(np.max(ratios)),
        degenerate=bool(degenerate),
        npoints=int(uniq.size),
        max_abs_kernel=float(np.max(sup_v)),
        near_slope=near_slope,
        far_slope=far_slope,
    )


# ---------------------------------------------------------------------------
# Sigma-integral estimates
# ---------------------------------------------------------------------------

_VARIANTS = ("a1", "a2", "b", "c")


@dataclass
class SigmaEstimateReport:
    variant: str
    sigma_grid: list
    per_sigma: list  # max over sampled (y, z) of the excluded-ball integral
    unit_scale: float
    sample_count: int
    seed: int
    rho: float
    order: float
    hypothesis_satisfied: bool
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "variant": self.variant,
            "sigma_grid": list(self.sigma_grid),
            "per_sigma": list(self.per_sigma),
            "unit_scale": self.unit_scale,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "rho": self.rho,
            "order": self.order,
            "hypothesis_satisfied": self.hypothesis_satisfied,
            "warnings": list(self.warnings),
            "note": "sampled suprema are lower bounds for the true suprema",
        }


def sigma_estimates(
    op,
    variant: str,
    sigma_grid,
    sample_count: int = 64,
    seed: int = 0,
) -> SigmaEstimateReport:
    """Excluded-ball integrals of kernel differences over a sigma sweep.

    For each sigma, sample_count centers z and offsets y with d(y, z) <=
    sigma are drawn (seeded); the quadrature integral of the kernel
    difference runs over {x : d(x, z) > r} with

        r = 2 * s0 * sigma        (variants a1, a2; s0 = 1/8)
        r = 2 * s0 * sigma^rho    (variants b, c;   s0 = 1/32)

    The s0 factors are forced by the unit torus: with the literal radius
    2 sigma^rho the excluded ball swallows the whole torus whenever
    rho < 1/2, and with too large an s0 the integral sees only the far
    Lipschitz tail where it scales linearly in sigma.  The b/c scale puts
    the excluded ball at the kernel's spreading scale, where the
    uniform-in-sigma behavior is visible.

    Variants a1 and b compare columns k(., y) - k(., z); a2 and c compare
    rows k(y, .) - k(z, .).  The per-sigma maximum over samples is reported.
    """
    if variant not in _VARIANTS:
        raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    unit_scale = DEFAULT_UNIT_SCALE if variant in ("a1", "a2") else DEFAULT_SUB_UNIT_SCALE
    spec = op.spec
    spacing = 1.0 / min(spec.sizes)
    sigma_grid = sorted(float(s) for s in sigma_grid)
    for s in sigma_grid:
        if not spacing < s <= 0.25:
            raise ValidationError(
                f"sigma {s:g} outside (grid spacing {spacing:g}, 1/4]", field="sigma_grid"
            )
    cls = op.class_params
    if cls is None:
        raise ValidationError("operator needs class parameters for sigma estimates")
    rho = cls.rho
    n = spec.dim
    warnings = []
    ok = True
    if variant in ("b", "c"):
        threshold = lp_threshold(cls, 1, n) if variant == "b" else -n * (1 - rho) / 2
        ok = cls.m <= threshold + 1e-12
        if not ok:
            warnings.append(
                f"order {cls.m:g} above variant-{variant} threshold {threshold:g}; "
                "uniform bound not guaranteed"
            )

    G = spec.npoints
    kernel = to_matrix(op).matrix * G  # k(x, y)
    points = spec.points()
    rng = np.random.default_rng(seed)

    per_sigma = []
    for s in sigma_grid:
        r = 2.0 * unit_scale * (s if variant in ("a1", "a2") else s**rho)
        best = 0.0
        for _ in range(sample_count):
            z = int(rng.integers(0, G))
            dz = _center_distance_grid(points[z], spec).ravel()
            near = np.flatnonzero(dz <= s)
            y = int(near[rng.integers(0, near.size)])
            outside = dz > r
            if not np.any(outside):
                raise EmptyDomainError(
                    f"excluded ball of radius {r:g} covers the whole torus at sigma={s:g}"
                )
            if variant in ("a1", "b"):
                diff = np.abs(kernel[:, y] - kernel[:, z])
            else:
                diff = np.abs(kernel[y, :] - kernel[z, :])
            best = max(best, float(np.sum(diff[outside]) / G))
        per_sigma.append(best)

    return SigmaEstimateReport(
        variant=variant,
        sigma_grid=sigma_grid,
        per_sigma=per_sigma,
        unit_scale=unit_scale,
        sample_count=sample_count,
        seed=seed,
        rho=rho,
        order=cls.m,
        hypothesis_satisfied=bool(ok),
        warnings=warnings,
    )


def dirichlet_kernel_closed_form(spec: GridSpec) -> np.ndarray:
    """Closed form of sum over the full lattice box of e^{2 pi i z.xi}, per axis.

    The geometric series over {-N/2, ..., N/2 - 1} evaluates to
    e^{-pi i N z} (e^{2 pi i N z} - 1) / (e^{2 pi i z} - 1), with the limit N
    at z = 0; the product over axes gives the n-dimensional kernel on grid
    offsets.
    """
    out = np.ones(spec.sizes, dtype=np.complex128)
    for ax, N in enumerate(spec.sizes):
        z = np.arange(N) / N
        with np.errstate(divide="ignore", invalid="ignore"):
            num = np.exp(-1j * np.pi * N * z) * (np.exp(2j * np.pi * N * z) - 1.0)
            den = np.exp(2j * np.pi * z) - 1.0
            vals = np.where(np.abs(den) < 1e-15, N + 0j, num / np.where(den == 0, 1, den))
        shape = [1] * spec.dim
        shape[ax] = N
        out = out * vals.reshape(shape)
    return out
