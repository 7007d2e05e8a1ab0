"""Function-space norms and decompositions on the discrete torus.

Everything is quadrature-exact on the grid: L^p norms with the 1/G weight
(``lp_norms`` of a stack of rows in one reduction, ``lp_norm`` its one-row case),
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
sup over the whole family, found by branch and bound: FFT correlations
with each radius's ball mask bound every ball's oscillation by the
standard deviations of its real and imaginary parts, and only the balls
whose bound exceeds the best oscillation found so far are read, a slab of
centers at a time, by one flat gather from the wrap-padded f.  Every ball
of the family has an odd number of points, so its coordinatewise median is
one middle-rank select.  The search runs jointly over a stack of rows,
each with its own scale (``bmo_sup``): it returns the max of osc / scale
over every row's balls and the ball attaining it, builds the ball geometry
once for all rows, bounds a group of rows by one batched correlation per
radius, and orders their (row, center) pairs by bound / scale, so a row
with a large ratio spares the reads of the others.  ``bmo_norm`` is its
one-row case.  Memory is bounded by one slab of balls and one group of
wrap-padded rows, not by all G x |B| values.  The maximal function reads
its ball means of |f| through the same FFT correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grid import GridFunction, GridSpec, ball, offset_distance_grid

MIN_BALL_CELLS = 2  # smallest dyadic ball radius, in grid cells
_SLAB_CENTERS = 256  # BMO ball centers whose bounds are tested at once
_SELECT_VALUES = 2**15  # BMO ball values gathered and partitioned at once
_PADDED_VALUES = 2**20  # wrap-padded BMO values held at once, 16 MiB

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
    """((1/G) sum |f|^p)^(1/p); p = inf gives max |f|.  The one-row case of
    ``lp_norms``."""
    if p < 1:
        raise ValidationError(f"exponent p={p:g} must be >= 1")
    value = lp_norms(f.values[None], p)[0]
    return NormValue("Lp", p, value, "max of samples" if math.isinf(p) else "grid quadrature")


def lp_norms(stack: np.ndarray, p: float, a: np.ndarray = None) -> list:
    """The L^p norm of each row of a stack (B,) + sizes, given its modulus
    ``a`` or not: the rows summed in one reduction, each sum powered on its
    own, as the array power can differ from the scalar one in the last bit."""
    G = math.prod(stack.shape[1:])
    a = (np.abs(stack) if a is None else a).reshape(len(stack), G)
    if math.isinf(p):
        return a.max(axis=1).tolist()
    return [float((total / G) ** (1.0 / p)) for total in (a**p).sum(axis=1)]


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


@dataclass(frozen=True)
class BmoBall:
    """Where the scaled BMO sup of a stack is attained: ``value`` is the
    oscillation of row ``row`` over the family ball of ``radius`` at flat grid
    index ``center``, divided by that row's scale.  Row, center and radius
    are None when no ball oscillates (no row, or every row constant)."""

    value: float
    row: int | None = None
    center: int | None = None
    radius: float | None = None


def bmo_norm(f: GridFunction) -> NormValue:
    """sup over balls of the median-centered mean oscillation, computed exactly.

    The family runs over every grid center and dyadic radii down to
    MIN_BALL_CELLS cells; the centering constant minimizing the L^1
    deviation is the median of the ball values.  This is ``bmo_sup`` of the
    one-row stack with scale 1.0, which divides nothing away: the result is
    the exact sup, to the last bit, of the full family.
    """
    value = bmo_sup(f.spec, f.values[None], [1.0]).value
    return NormValue("BMO", None, value, "grid centers x dyadic radii, median centering")


def bmo_sup(spec: GridSpec, stack, scales) -> BmoBall:
    """max over rows t of a stack (B,) + sizes and over family balls of
    osc_t(ball) / scales[t], with the ball where it is attained.

    osc_t is the median-centered mean oscillation ``bmo_norm`` takes the sup
    of.  The ball geometry is built once per call: each radius's offsets,
    and the flat index of every center and offset in a row of the
    wrap-padded stack P[t, k] = f_t[k mod N], where the ball of center c is
    P[t, c + o] over its offsets o in [0, N)^n.  Rows are searched in
    groups whose padded values fit in _PADDED_VALUES (20 rows are one group
    in 1D and up to 64^2 and 16^3 grids), the best carried from group to
    group.  Per group, ``_oscillation_bounds`` bounds every ball of every
    row from above by one batched FFT correlation with each radius's mask
    spectrum.  Radii are visited by their largest bound / scale, and
    (row, center) pairs in descending bound / scale, _SLAB_CENTERS at a
    time; a radius stops at the first slab whose values are all at most the
    best ratio found.  Division by a positive scale is monotone in floating
    point, so a skipped ball has fl(osc / s) <= fl(bound / s) <= best: the
    result is the exact maximum, to the last bit, of fl(osc_t(ball) /
    scales[t]) over the whole family and every row.  A constant row reads
    no ball.
    """
    sizes, G = spec.sizes, spec.npoints
    stack = np.asarray(stack, dtype=np.complex128).reshape((-1,) + sizes)
    scales = np.asarray(scales, dtype=float)
    if scales.shape != stack.shape[:1] or not np.all(scales > 0):
        raise ValidationError(f"needs one positive scale per row for {len(stack)} rows, "
                              f"got {scales.tolist()}")
    flat_rows = stack.reshape(len(stack), G)
    live = np.flatnonzero(np.any(flat_rows != flat_rows[:, :1], axis=1))
    balls, radii = _ball_offsets(spec), dyadic_radii(spec)
    shape = tuple(2 * n - 1 for n in sizes)
    row_size = math.prod(shape)
    centers = np.ravel_multi_index(np.unravel_index(np.arange(G), sizes), shape)
    offsets = [np.ravel_multi_index(ball_offsets, shape) for ball_offsets in balls]
    best = BmoBall(0.0)
    group = max(1, _PADDED_VALUES // row_size)
    for first in range(0, live.size, group):
        rows = live[first:first + group]
        part, part_scales = stack[rows], scales[rows]
        ratios = _oscillation_bounds(part, balls)
        for ratio in ratios:
            ratio /= part_scales[:, None]
        flat = np.pad(part, [(0, 0)] + [(0, n - 1) for n in sizes], mode="wrap").ravel()
        for k in np.argsort([-ratio.max() for ratio in ratios], kind="stable"):
            ratio = ratios[k].ravel()
            order = np.argsort(-ratio, kind="stable")
            for start in range(0, order.size, _SLAB_CENTERS):
                slab = order[start:start + _SLAB_CENTERS]
                if ratio[slab[0]] <= best.value:
                    break  # the rest of this radius cannot exceed the best
                row, center = np.divmod(slab, G)
                value = (_oscillations(flat, row * row_size + centers[center], offsets[k])
                         / part_scales[row])
                i = int(value.argmax())
                if value[i] > best.value:
                    best = BmoBall(float(value[i]), int(rows[row[i]]), int(center[i]), radii[k])
    return best


def _oscillations(flat: np.ndarray, centers: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per center c, the median-centered mean oscillation of flat[c + offsets].

    Every family ball has an odd size: o -> -o pairs its offsets, and only
    o = 0 pairs with itself, as a coordinate N/2 puts an offset at distance
    >= 1/2, outside every ball (radius <= 1/2, strict inequality).  So the
    coordinatewise median is the middle rank, one partition of a float copy
    of the real and imaginary parts.
    Each contiguous row is centered in place and averaged in the order of a
    full gather, _SELECT_VALUES values at a time so the rows stay in cache.
    """
    out = np.empty(centers.size)
    mid = offsets.size // 2
    rows = max(1, _SELECT_VALUES // offsets.size)
    for start in range(0, centers.size, rows):
        vals = flat[centers[start:start + rows, None] + offsets]
        parts = np.stack((vals.real, vals.imag))
        parts.partition(mid, axis=-1)
        vals -= parts[0, :, mid, None] + 1j * parts[1, :, mid, None]
        out[start:start + rows] = np.mean(np.abs(vals), axis=1)
    return out


def _ball_offsets(spec: GridSpec) -> list:
    """Per dyadic radius, the offsets o of the origin ball, one index array per
    axis; the ball of that radius at flat center c is {c + o mod N}.  Every
    radius reads the one origin distance grid."""
    distance = offset_distance_grid(spec)
    return [np.nonzero(distance < radius) for radius in dyadic_radii(spec)]


def _mask_spectrum(offsets, sizes) -> np.ndarray:
    """The spectrum that turns fftn(g) into the mean of g over the ball
    {c + o : o in offsets} at every center c, by one FFT correlation."""
    mask = np.zeros(sizes)
    mask[offsets] = 1.0
    return np.conj(np.fft.fftn(mask)) / offsets[0].size


def _oscillation_bounds(f, balls) -> list:
    """For each ball offset set in ``balls``, an upper bound per row t and flat
    center c on the median-centered oscillation of f_t over the ball
    {c + o : o in offsets}, as a (B, G) array; ``f`` is a stack (B,) + sizes
    of grid values, or a GridFunction (B = 1).

    With m the coordinatewise median and mu the mean of the ball values,
        mean |f - m| <= mean |Re f - Re m| + mean |Im f - Im m|    (|z| <= |Re z| + |Im z|)
                     <= mean |Re f - Re mu| + mean |Im f - Im mu|  (the median minimizes L^1)
                     <= sd(Re f) + sd(Im f)                       (mean abs deviation <= sd).
    The ball means of f and of (Re f)^2 + i (Im f)^2 come from FFT
    correlations with the ball mask, over all rows at once.  Their rounding
    moves a variance by about eps max|f_t|^2 (at most 8e-16 max|f_t|^2
    measured up to 32^3, offset data included); the slack 1e-8 max|f_t|^2
    added to each of row t's variances covers it and lifts the bound at
    least 5e-9 max|f_t| above the exact value, far more than the rounding of
    the oscillation itself, so a ball whose bound is below a computed
    oscillation cannot exceed it when computed.
    """
    values = f.values[None] if isinstance(f, GridFunction) else f
    axes = tuple(range(1, values.ndim))
    spectra = (np.fft.fftn(values, axes=axes),
               np.fft.fftn(values.real**2 + 1j * values.imag**2, axes=axes))
    slack = 1e-8 * np.max(np.abs(values), axis=axes, keepdims=True) ** 2
    out = []
    for offsets in balls:
        kernel = _mask_spectrum(offsets, values.shape[1:])
        mean, square = (np.fft.ifftn(spectrum * kernel, axes=axes) for spectrum in spectra)
        bound = (np.sqrt(square.real - mean.real**2 + slack)
                 + np.sqrt(square.imag - mean.imag**2 + slack))
        out.append(bound.reshape(len(values), -1))
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
        means = np.fft.ifftn(spectrum * _mask_spectrum(offsets, a.shape)).real
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
        outside = np.ones(spec.npoints, dtype=bool)
        outside[self.indices] = False
        if outside.any() and np.max(np.abs(v[outside])) > tol:
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
