"""Discrete symbol calculus: difference operators, seminorms, class fitting.

The regularity of a symbol p(x, xi) is measured through iterated forward
differences in xi and exact symbolic derivatives in x.  The quantities

    sup_x | d^beta_x D^alpha_xi p(x, xi) |

collected over dyadic frequency shells decay like powers of <xi>; the
exponents recover the order m, the frequency-smoothing exponent rho (from
first differences) and the spatial-loss exponent delta (from first
x-derivatives).  Fits are least squares in log-log coordinates with the two
innermost shells excluded.

fit_order reads one evaluation, in which each x-derivative d^beta_x p is
evaluated once, on the union of the shifted shells and at the x-samples
along the axes it reads, and every difference D^alpha reads offset views of
that one lattice box; a fit's constants, the seminorm constants at its
reference class, come from the same evaluation.  A fit above the size guard
is refused before any lattice point is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import EmptyDomainError, NumericalError, SizeGuardError, ValidationError
from .grid import MATRIX_GUARD, bracket
from .symbols import Const, depends_on_x, diff_x_multi, eval_expr, read_axes


@dataclass(frozen=True)
class ClassParams:
    """Order/smoothness triple (m, rho, delta) with the derived loss exponent."""

    m: float
    rho: float
    delta: float

    def __post_init__(self):
        if not 0 < self.rho <= 1:
            raise ValidationError(f"rho={self.rho:g} must lie in (0, 1]", field="class.rho")
        if not 0 <= self.delta < 1:
            raise ValidationError(f"delta={self.delta:g} must lie in [0, 1)", field="class.delta")

    @property
    def lam(self) -> float:
        """max(0, (delta - rho)/2), the loss exponent in every threshold."""
        return max(0.0, (self.delta - self.rho) / 2.0)

    def seminorm_exponent(self, alpha, beta) -> float:
        """m - rho |alpha| + delta |beta|."""
        return self.m - self.rho * mi_abs(alpha) + self.delta * mi_abs(beta)


def mi_abs(alpha) -> int:
    return int(sum(alpha))


def difference_terms(alpha):
    """Expansion coefficients of the iterated forward difference.

    D^alpha p(xi) = sum_{gamma <= alpha} (-1)^{|alpha - gamma|} C(alpha, gamma)
                    p(xi + gamma), exactly.
    """
    ranges = [range(a + 1) for a in alpha]
    for gamma in product(*ranges):
        coef = 1.0
        for a, g in zip(alpha, gamma):
            coef *= math.comb(a, g)
        sign = (-1) ** (mi_abs(alpha) - mi_abs(gamma))
        yield gamma, sign * coef


# ---------------------------------------------------------------------------
# Frequency shells
# ---------------------------------------------------------------------------


def dyadic_shells(lo: float, hi: float):
    """Dyadic shells [2^k, 2^{k+1}) covering [lo, hi] in bracket values."""
    if not (1.0 <= lo < hi):
        raise ValidationError(f"shell range ({lo:g}, {hi:g}) must satisfy 1 <= lo < hi",
                              field="lo" if not 1.0 <= lo else "hi")
    shells = []
    k = math.floor(math.log2(lo) + 1e-12)
    if 2.0**k < lo - 1e-12:
        k += 1
    while 2.0 ** (k + 1) <= hi * (1 + 1e-12):
        shells.append((2.0**k, 2.0 ** (k + 1)))
        k += 1
    if not shells:
        raise EmptyDomainError(f"no dyadic shells inside ({lo:g}, {hi:g})")
    return shells


def box_radius(hi: float) -> int:
    """The largest |xi_j| of a lattice point with <xi> < hi, floor(sqrt(hi^2 - 1))."""
    return math.floor(math.sqrt(max(hi**2 - 1.0, 0.0)))


def shell_lattice_points(lo: float, hi: float, dim: int) -> np.ndarray:
    """All xi in Z^dim with lo <= <xi> < hi, as an (S, dim) integer array."""
    rmax = box_radius(hi)
    if dim == 1:
        xi = np.arange(-rmax, rmax + 1)[:, None]
    else:
        axes = [np.arange(-rmax, rmax + 1)] * dim
        xi = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    br = bracket(xi)
    pts = xi[(br >= lo) & (br < hi)]
    if pts.size == 0:
        raise EmptyDomainError(f"shell [{lo:g}, {hi:g}) contains no lattice points")
    return pts


def _fit_guard(expr, shells, reach: int, dim: int, x_resolution: int):
    """Refuse a class fit before any lattice point is built: x_resolution^dim
    x-samples (one for an x-independent symbol) times the cells of the
    lattice box [-R, R + reach]^dim of the outer shell, R = box_radius, above
    MATRIX_GUARD^2, the element budget of the largest dense matrix, raise
    SizeGuardError."""
    if x_resolution < 1:
        raise ValidationError(f"must be >= 1, got {x_resolution}", field="x_resolution")
    samples = (x_resolution if depends_on_x(expr) else 1) ** dim
    cells = (2 * box_radius(shells[-1][1]) + 1 + reach) ** dim
    if samples * cells > MATRIX_GUARD**2:
        raise SizeGuardError(
            f"class fit needs {samples} x-samples (x_resolution={x_resolution}) on "
            f"{cells} lattice cells for shells ({shells[0][0]:g}, {shells[-1][1]:g}), "
            f"above the guard of {MATRIX_GUARD}^2 elements")


def _shell_maxima(expr, beta, alphas, points, params, x_resolution, zeros):
    """max over the x-sample of |d^beta_x D^alpha_xi p(x, xi)| at each shell point.

    ``points`` are the shells' ``shell_lattice_points`` and ``zeros`` one
    zero array per shell, both built once per fit.  Returns, per alpha, a
    list of per-shell maxima.  d^beta_x p is evaluated once per derivative, on the
    union of the shifted shells (xi + gamma for every shell point xi and every
    gamma of every alpha), and x is sampled at x_resolution points per axis
    along the axes the derivative reads only, with 0 on the others: the rest
    of the x_resolution^dim grid repeats those values.  One x-sample at a
    time, its values are scattered into a zeroed lattice box
    [-R, R + reach]^dim, and each D^alpha is the difference_terms sum of box
    views offset by gamma, accumulated in place in that order, so it matches
    the pointwise sum bit for bit.  Points outside the union are never
    evaluated: the inner hole may hold a singularity (1/abs(xi) at xi = 0).
    A derivative that is the constant 0 is not evaluated at all: every
    maximum is 0, and every alpha shares ``zeros``.  The callers run
    _fit_guard first.
    """
    tree = diff_x_multi(expr, beta)
    if tree == Const(0j):
        return dict.fromkeys(alphas, zeros)
    dim = points[0].shape[1]
    axes = read_axes(tree, dim)
    grids = [np.arange(x_resolution) / x_resolution if ax in axes else np.zeros(1)
             for ax in range(dim)]
    xs = tuple(m.reshape(-1, 1) for m in np.meshgrid(*grids, indexing="ij"))
    terms = {alpha: list(difference_terms(alpha)) for alpha in alphas}
    rad = max(int(np.max(np.abs(p))) for p in points)
    core = (2 * rad + 1,) * dim
    shape = tuple(n + max(map(max, alphas)) for n in core)  # [-R, R + reach]^dim
    cells = [tuple((p + rad).T) for p in points]  # each shell's box indices, in its order

    def offset(arr, gamma):
        """The core-shaped view of a box-shaped array at xi + gamma."""
        return arr[(...,) + tuple(slice(g, g + n) for g, n in zip(gamma, core))]

    inside = np.zeros(core, dtype=bool)
    for cell in cells:
        inside[cell] = True
    union = np.zeros(shape, dtype=bool)
    for gamma in {g for ts in terms.values() for g, _ in ts}:
        offset(union, gamma)[...] |= inside
    xi = tuple(axis[None, :] - float(rad) for axis in np.nonzero(union))
    values = np.broadcast_to(eval_expr(tree, xs, xi, params), (xs[0].size, xi[0].size))

    # one x-sample at a time, so every buffer is one box or one core
    box = np.zeros(shape, dtype=np.complex128)
    total, modulus, scratch = np.empty(core, dtype=np.complex128), np.empty(core), None
    peaks = {alpha: np.zeros(core) for alpha in alphas}  # every |D^alpha| is >= 0
    for sample in values:
        box[union] = sample
        for alpha, ((gamma0, coef0), *rest) in terms.items():
            np.multiply(coef0, offset(box, gamma0), out=total)
            for gamma, coef in rest:
                # a +-1 term adds or subtracts its view: the same number as coef * view
                if coef == 1:
                    total += offset(box, gamma)
                elif coef == -1:
                    total -= offset(box, gamma)
                else:
                    scratch = np.multiply(coef, offset(box, gamma), out=scratch)
                    total += scratch
            np.maximum(peaks[alpha], np.abs(total, out=modulus), out=peaks[alpha])
    return {alpha: [peak[cell] for cell in cells] for alpha, peak in peaks.items()}


def _shell_points(shells, dim: int):
    """(points, brackets, zeros) per shell, built once per fit: the lattice
    points, their brackets <xi>, and a zero array of their count."""
    points = [shell_lattice_points(lo, hi, dim) for lo, hi in shells]
    return points, [bracket(p) for p in points], [np.zeros(len(p)) for p in points]


def _weighted_max(brackets, maxima, exponent) -> float:
    """max over shells and points of maxima * <xi>^(-exponent), the seminorm constant."""
    return max(float(np.max(m * br ** (-exponent))) for br, m in zip(brackets, maxima))


@dataclass
class ClassEstimate:
    """Fitted class parameters with per-(alpha, beta) diagnostics.

    ``params`` is the reference class: the nominal one when given, else the
    fitted one.  ``constants[(alpha, beta)]`` is the seminorm constant at that
    class over the fit's whole shell range, max over the x-sample and the
    shell points of |d^beta_x D^alpha_xi p| <xi>^{-(m - rho|alpha| +
    delta|beta|)}, floored at 1e-300.
    """

    params: ClassParams
    constants: dict
    fitted_m: float
    fitted_rho: float
    fitted_delta: float
    residuals: dict
    shells: list
    slopes: dict = field(default_factory=dict)

    def to_dict(self):
        key = lambda ab: f"{list(ab[0])}|{list(ab[1])}"
        return {
            "nominal": {"m": self.params.m, "rho": self.params.rho, "delta": self.params.delta},
            "fitted": {"m": self.fitted_m, "rho": self.fitted_rho, "delta": self.fitted_delta},
            "constants": {key(ab): v for ab, v in self.constants.items()},
            "slopes": {key(ab): v for ab, v in self.slopes.items()},
            "residuals": {key(ab): v for ab, v in self.residuals.items()},
            "shells": [list(s) for s in self.shells],
            "note": "finite-shell evidence only, not a membership certificate",
        }


def loglog_fit(radii, values):
    """Least-squares slope of log(values) vs log(radii) with residual report."""
    u = np.log(np.asarray(radii, dtype=float))
    v = np.log(np.asarray(values, dtype=float))
    if u.size < 2 or np.ptp(u) == 0:
        raise NumericalError("degenerate fit: zero variance in abscissa")
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    return {
        "slope": float(slope),
        "intercept": float(intercept),
        "max_abs_residual": float(np.max(np.abs(resid))),
        "npoints": int(u.size),
    }


def fit_order(
    expr,
    dim: int = 1,
    params=None,
    nominal: ClassParams = None,
    max_order: int = None,
    shell_range=(8.0, 512.0),
    x_resolution: int = 64,
) -> ClassEstimate:
    """Recover (m, rho, delta) from dyadic-shell suprema of difference/derivative data.

    fitted_m is the slope at alpha = beta = 0; rho comes from first
    differences only, delta from first x-derivatives only (higher orders
    amplify noise).  The class bound must hold in every direction, so rho
    is the worst (smallest) of the |alpha| = 1 terms and delta the worst
    (largest) of the |beta| = 1 terms.  Differences are evaluated exactly at
    any lattice point, so there is no truncation edge; the contaminated
    shells are the two innermost (preasymptotic radii where subleading terms
    still compete) and those are dropped from every fit.  A derivative that
    vanishes identically contributes the best possible exponent of its kind
    (rho = 1, delta = 0), which never masks a worse direction.  The constants
    are the seminorm constants at the reference class (nominal, else fitted),
    each from the same evaluation as the slopes: each x-derivative is
    evaluated once, on the union of the shifted shells, and serves every
    alpha.
    """
    if max_order is None:
        max_order = math.ceil(dim / 2) + 1
    if max_order < 1:
        raise ValidationError(f"must be >= 1, got {max_order}", field="max_order")
    shells = dyadic_shells(*shell_range)
    if len(shells) < 4:
        raise ValidationError(f"need >= 4 dyadic shells, got {len(shells)}", field="hi")
    fit_shells = shells[2:]
    centers = [math.sqrt(lo * hi) for lo, hi in fit_shells]

    indices = [mi for mi in product(range(max_order + 1), repeat=dim) if mi_abs(mi) <= max_order]
    zero = tuple([0] * dim)
    _fit_guard(expr, shells, max_order, dim, x_resolution)
    points, brackets, zeros = _shell_points(shells, dim)
    by_beta = {b: _shell_maxima(expr, b, indices, points, params, x_resolution, zeros)
               for b in indices}
    maxima = {(a, b): by_beta[b][a] for a in indices for b in indices}
    sups = {key: [float(np.max(m)) for m in ms] for key, ms in maxima.items()}

    floor = 1e-14 * max(max(sups[(zero, zero)]), 1e-300)
    slopes, residuals = {}, {}
    for key, values in sups.items():
        fit_values = values[len(shells) - len(fit_shells) :]
        if max(fit_values) <= floor:
            slopes[key] = None
            residuals[key] = {"slope": None, "note": "vanishing derivative"}
            continue
        report = loglog_fit(centers, np.maximum(fit_values, 1e-300))
        slopes[key] = report["slope"]
        residuals[key] = report

    fitted_m = slopes[(zero, zero)]
    if fitted_m is None:
        raise NumericalError("symbol vanishes identically on the fitted shells")

    rho_terms = []
    for alpha in indices:
        if mi_abs(alpha) == 1:
            s = slopes.get((alpha, zero))
            rho_terms.append(1.0 if s is None else fitted_m - s)
    delta_terms = []
    for beta in indices:
        if mi_abs(beta) == 1:
            s = slopes.get((zero, beta))
            delta_terms.append(0.0 if s is None else s - fitted_m)
    fitted_rho = float(min(rho_terms)) if rho_terms else 1.0
    fitted_delta = float(max(delta_terms)) if delta_terms else 0.0

    ref = nominal if nominal is not None else ClassParams(
        fitted_m, min(max(fitted_rho, 1e-6), 1.0), min(max(fitted_delta, 0.0), 1.0 - 1e-9)
    )
    constants = {
        key: max(_weighted_max(brackets, ms, ref.seminorm_exponent(*key)), 1e-300)
        for key, ms in maxima.items()
    }

    return ClassEstimate(
        params=ref,
        constants=constants,
        fitted_m=float(fitted_m),
        fitted_rho=fitted_rho,
        fitted_delta=fitted_delta,
        residuals=residuals,
        shells=shells,
        slopes=slopes,
    )
