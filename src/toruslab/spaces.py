"""Function-space norms and decompositions on the discrete torus.

Everything is quadrature-exact on the grid: L^p norms with the 1/G weight,
the weak-L^p seminorm through the sorted rearrangement, BMO over the family
of geodesic balls with all grid centers and dyadic radii, mean-zero atoms
on balls, the Hardy-Littlewood maximal function over the same ball family,
and the Calderon-Zygmund decomposition on the dyadic cube tree (the natural
tree on a power-of-two grid; balls and cubes are both kept, balls for
atoms/BMO and cubes for the stopping-time argument).

The BMO inner infimum over the centering constant is attained at the median
for real data; complex data uses the coordinatewise median (real and
imaginary parts separately), which is within a fixed factor of the true
minimizer and keeps the norm computable in closed form.  BMO is the exact
sup over the whole family, found by branch and bound: two FFT correlations
per radius bound every ball's oscillation by the standard deviations of its
real and imaginary parts, and only the balls whose bound exceeds the best
oscillation found so far are read, through one periodic window view of f
a slab of centers at a time.  Its memory is bounded by one slab of balls,
not by all G x |B| values.  The maximal function reads its ball means of |f|
through the same FFT correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .grid import GridFunction, GridSpec, ball

MIN_BALL_CELLS = 2  # smallest dyadic ball radius, in grid cells
_SLAB_CENTERS = 256  # BMO ball centers gathered at once

# ---------------------------------------------------------------------------
# Scalar norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormValue:
    kind: str  # Lp | weakLp | BMO | operator-lower-bound
    exponent: object
    value: float
    method: str = ""

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0):
            raise ValidationError(f"norm value {self.value!r} must be finite and >= 0")


def lp_norm(f: GridFunction, p: float) -> NormValue:
    """((1/G) sum |f|^p)^(1/p); p = inf gives max |f|."""
    if p < 1:
        raise ValidationError(f"exponent p={p:g} must be >= 1")
    a = np.abs(f.values)
    if math.isinf(p):
        return NormValue("Lp", math.inf, float(a.max()), "max of samples")
    G = f.spec.npoints
    return NormValue("Lp", p, float((np.sum(a**p) / G) ** (1.0 / p)), "grid quadrature")


def weak_lp(f: GridFunction, p: float) -> NormValue:
    """sup_t t |{|f| > t}|^(1/p), exact on the grid via the rearrangement."""
    if p < 1:
        raise ValidationError(f"exponent p={p:g} must be >= 1")
    a = np.sort(np.abs(f.values).ravel())[::-1]
    G = a.size
    ranks = (np.arange(1, G + 1) / G) ** (1.0 / p)
    return NormValue("weakLp", p, float(np.max(a * ranks)), "sorted rearrangement")


# ---------------------------------------------------------------------------
# Ball families
# ---------------------------------------------------------------------------


def dyadic_radii(spec: GridSpec):
    """Radii 2^-k from 1/2 down to MIN_BALL_CELLS grid cells."""
    out = []
    k = 1
    while 2.0**-k * min(spec.sizes) >= MIN_BALL_CELLS - 1e-12:
        out.append(2.0**-k)
        k += 1
    return out


def bmo_norm(f: GridFunction) -> NormValue:
    """sup over balls of the median-centered mean oscillation, computed exactly.

    The family runs over every grid center and dyadic radii down to
    MIN_BALL_CELLS cells; the centering constant minimizing the L^1
    deviation is the median of the ball values.  Ball values are read
    through one periodic window view, windows[c][o] = f[(c + o) mod N], at
    most _SLAB_CENTERS centers at a time, and only for balls that could
    still hold the maximum: ``_oscillation_bounds`` bounds every ball's
    oscillation from above, radii are visited by their largest bound and
    centers in descending bound order, and a radius stops at the first
    slab whose bounds are all at most the best oscillation found.  The
    balls skipped cannot exceed it, and every ball evaluated goes through
    the same contiguous median and mean, so the result is the exact sup,
    to the last bit, of the full family.  A constant f reads no ball.
    """
    method = "grid centers x dyadic radii, median centering"
    values = f.values
    if np.all(values == values.flat[0]):
        return NormValue("BMO", None, 0.0, method)
    spec = f.spec
    sizes = spec.sizes
    windows = sliding_window_view(np.pad(values, [(0, n - 1) for n in sizes], mode="wrap"), sizes)
    centers = np.unravel_index(np.arange(spec.npoints), sizes)
    balls = _ball_offsets(spec)
    bounds = _oscillation_bounds(f, balls)
    best = 0.0
    for k in np.argsort([-b.max() for b in bounds], kind="stable"):
        offsets, bound = balls[k], bounds[k]
        order = np.argsort(-bound, kind="stable")
        for start in range(0, order.size, _SLAB_CENTERS):
            slab = order[start:start + _SLAB_CENTERS]
            if bound[slab[0]] <= best:
                break  # the rest of this radius cannot exceed the best
            # broadcast indices give contiguous (center, offset) rows, so
            # np.mean sums each row in the order the full gather does
            vals = windows[(*(c[slab, None] for c in centers), *(o[None, :] for o in offsets))]
            med = np.median(vals.real, axis=1) + 1j * np.median(vals.imag, axis=1)
            osc = np.mean(np.abs(vals - med[:, None]), axis=1)
            best = max(best, float(osc.max()))
    return NormValue("BMO", None, best, method)


def _ball_offsets(spec: GridSpec) -> list:
    """Per dyadic radius, the offsets o of the origin ball, one index array per
    axis; the ball of that radius at flat center c is {c + o mod N}."""
    return [np.unravel_index(ball(np.zeros(spec.dim), radius, spec), spec.sizes)
            for radius in dyadic_radii(spec)]


def _ball_means(spectra, offsets) -> list:
    """For each fftn spectrum of a grid function g in ``spectra``, the mean of g
    over the ball {c + o : o in offsets} at every center c, by one FFT
    correlation with the ball mask."""
    mask = np.zeros(spectra[0].shape)
    mask[offsets] = 1.0
    kernel = np.conj(np.fft.fftn(mask)) / offsets[0].size
    return [np.fft.ifftn(spectrum * kernel) for spectrum in spectra]


def _oscillation_bounds(f: GridFunction, balls) -> list:
    """For each ball offset set in ``balls``, an upper bound per flat center c
    on the median-centered oscillation of f over the ball {c + o : o in offsets}.

    With m the coordinatewise median and mu the mean of the ball values,
        mean |f - m| <= mean |Re f - Re m| + mean |Im f - Im m|    (|z| <= |Re z| + |Im z|)
                     <= mean |Re f - Re mu| + mean |Im f - Im mu|  (the median minimizes L^1)
                     <= sd(Re f) + sd(Im f)                       (mean abs deviation <= sd).
    The ball means of f and of (Re f)^2 + i (Im f)^2 come from two FFT
    correlations with the ball mask.  Their rounding moves a variance by
    about eps max|f|^2 (at most 8e-16 max|f|^2 measured up to 32^3, offset
    data included); the slack 1e-8 max|f|^2 added to each variance covers
    it and lifts the bound at least 5e-9 max|f| above the exact value, far
    more than the rounding of the oscillation itself, so a ball whose bound
    is below a computed oscillation cannot exceed it when computed.
    """
    values = f.values
    spectra = np.fft.fftn(values), np.fft.fftn(values.real**2 + 1j * values.imag**2)
    slack = 1e-8 * float(np.max(np.abs(values))) ** 2
    out = []
    for offsets in balls:
        mean, square = _ball_means(spectra, offsets)
        bound = (np.sqrt(square.real - mean.real**2 + slack)
                 + np.sqrt(square.imag - mean.imag**2 + slack))
        out.append(bound.ravel())
    return out


def maximal_function(f: GridFunction) -> GridFunction:
    """Hardy-Littlewood maximal function over the dyadic-radius ball family.

    Mf(x) is the largest ball average of |f| over family balls containing x.
    Radii go all the way down to a single cell, so Mf >= |f| pointwise.  The
    ball means come from the FFT correlation the BMO bounds use; the balls
    of one radius that contain x are centered at x - o for its offsets o, so
    their largest mean is the maximum of the means rolled by each offset.
    """
    a = np.abs(f.values)
    out = np.array(a)  # the single-cell ball contributes |f| itself
    spectrum = np.fft.fftn(a)
    axes = tuple(range(a.ndim))
    for offsets in _ball_offsets(f.spec):
        means = _ball_means([spectrum], offsets)[0].real
        for shift in zip(*offsets):
            np.maximum(out, np.roll(means, shift, axis=axes), out=out)
    return GridFunction(f.spec, out)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@dataclass
class Atom:
    """Mean-zero profile supported on a ball with the H^1 normalization."""

    center: tuple
    radius: float
    values: GridFunction
    indices: np.ndarray = field(repr=False, default=None)

    @property
    def measure(self) -> float:
        return self.indices.size / self.values.spec.npoints

    def check(self, tol: float = 1e-12):
        spec = self.values.spec
        v = self.values.values.ravel()
        outside = np.setdiff1d(np.arange(spec.npoints), self.indices)
        if outside.size and np.max(np.abs(v[outside])) > tol:
            raise ValidationError("atom has mass outside its ball")
        if np.abs(v.sum() / spec.npoints) > tol:
            raise ValidationError("atom mean is not zero")
        if np.max(np.abs(v)) > 1.0 / self.measure + tol:
            raise ValidationError("atom sup exceeds 1/|B|")


def make_atom(center, radius: float, profile: GridFunction) -> Atom:
    """Mean-zero, sup-normalized atom from a profile restricted to a ball.

    Subtracts the ball mean, then scales down (never up) so that
    max |a| <= 1/|B|.  Rejects the whole torus as a support (no proper ball)
    and profiles that are constant on the ball (zero atom).
    """
    spec = profile.spec
    if radius >= math.sqrt(spec.dim) / 2:
        raise ValidationError("atom support must be a proper ball, not the whole torus")
    idx = ball(center, radius, spec)
    flat = np.zeros(spec.npoints, dtype=np.complex128)
    flat[idx] = profile.values.ravel()[idx]
    mean = flat[idx].mean()
    flat[idx] -= mean
    peak = np.max(np.abs(flat[idx]))
    if peak < 1e-14 * max(1.0, abs(mean)):
        raise ValidationError("profile is constant on the ball: zero atom")
    measure = idx.size / spec.npoints
    bound = 1.0 / measure
    if peak > bound:
        flat[idx] *= bound / peak
    atom = Atom(tuple(np.atleast_1d(center)), float(radius), GridFunction(spec, flat), idx)
    atom.check()
    return atom


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


@dataclass
class DyadicCube:
    """Axis-aligned dyadic cube: per-axis cell start and extent."""

    starts: tuple
    extents: tuple

    def slices(self):
        return tuple(slice(s, s + e) for s, e in zip(self.starts, self.extents))

    def to_dict(self):
        return {"starts": list(self.starts), "extents": list(self.extents)}


@dataclass
class CZDecomposition:
    level: float
    good: GridFunction
    bad_parts: list  # (DyadicCube, restricted values ndarray)
    omega_mask: np.ndarray
    flagged: bool

    @property
    def omega_measure(self) -> float:
        return float(np.count_nonzero(self.omega_mask) / self.omega_mask.size)

    def bad_sum(self) -> GridFunction:
        spec = self.good.spec
        out = np.zeros(spec.sizes, dtype=np.complex128)
        for cube, vals in self.bad_parts:
            out[cube.slices()] += vals
        return GridFunction(spec, out)

    def reconstruct(self) -> GridFunction:
        return GridFunction(
            self.good.spec, self.good.values + self.bad_sum().values
        )


def _abs_mean_pyramid(a: np.ndarray, levels: int):
    """Per-level cube means of ``a``: pyramid[l] has cubes of side N/2^l cells."""
    pyramid = [a]
    cur = a
    for _ in range(levels):
        for ax in range(cur.ndim):
            shape = list(cur.shape)
            shape[ax] //= 2
            shape.insert(ax + 1, 2)
            cur = cur.reshape(shape).mean(axis=ax + 1)
        pyramid.append(cur)
    return pyramid[::-1]  # root first


def cz_decompose(f: GridFunction, level: float) -> CZDecomposition:
    """Stopping-time decomposition f = g + sum b_j at the given level.

    Maximal dyadic cubes with mean |f| > level become the bad cubes Q_j;
    b_j = (f - mean_Q_j f) 1_{Q_j} and g agrees with f off their union and
    with the cube mean on each Q_j.  When level <= mean |f| the root itself
    is selected (the decomposition degenerates, flagged but not fatal).
    """
    if level <= 0:
        raise ValidationError(f"level must be positive, got {level:g}")
    spec = f.spec
    a = np.abs(f.values)
    max_level = int(math.log2(min(spec.sizes)))
    pyramid = _abs_mean_pyramid(a, max_level)
    flagged = float(pyramid[0].ravel()[0]) > level  # root mean |f| vs level
    selected = []

    def descend(depth, coords):
        mean_here = pyramid[depth][coords]
        scale = tuple(n // pyramid[depth].shape[ax] for ax, n in enumerate(spec.sizes))
        if mean_here > level:
            starts = tuple(c * s for c, s in zip(coords, scale))
            selected.append(DyadicCube(starts, scale))
            return
        if depth == len(pyramid) - 1:
            return
        for child in np.ndindex(*([2] * spec.dim)):
            descend(depth + 1, tuple(2 * c + d for c, d in zip(coords, child)))

    if flagged:
        selected.append(DyadicCube((0,) * spec.dim, spec.sizes))
    else:
        descend(0, (0,) * spec.dim)

    good = np.array(f.values)
    omega = np.zeros(spec.sizes, dtype=bool)
    bad_parts = []
    for cube in selected:
        sl = cube.slices()
        block = f.values[sl]
        mean = block.mean()
        bad_parts.append((cube, block - mean))
        good[sl] = mean
        omega[sl] = True
    return CZDecomposition(float(level), GridFunction(spec, good), bad_parts, omega, flagged)
