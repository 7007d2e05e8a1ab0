"""Periodic grids, frequency lattices and discrete Fourier transforms on T^n.

The torus is parameterized as [0,1)^n with the uniform grid

    x = (k_1/N_1, ..., k_n/N_n),   k_j = 0, ..., N_j - 1,

and the frequency lattice is the FFT box

    xi_j in {-N_j/2, ..., N_j/2 - 1},

enumerated in row-major order with xi_j ascending.  Transform conventions:

    forward:  fhat(xi) = (1/G) sum_x exp(-2 pi i x.xi) f(x)
    inverse:  f(x)     =       sum_xi exp(+2 pi i x.xi) fhat(xi)

The forward transform carries the quadrature weight 1/G (G = prod N_j) so
that fhat approximates the integral of f against the character; the inverse
carries no weight, matching the Fourier series.  Both are exact inverses of
each other on the truncated lattice, and Plancherel reads

    (1/G) sum_x |f(x)|^2 = sum_xi |fhat(xi)|^2.

All values are complex128; grid sizes are powers of two (>= 4) so FFT fast
paths always apply, and n <= 3 keeps dense constructions within memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBallError, ValidationError


MATRIX_GUARD = 4096  # largest G of a dense matrix; squared, the element budget of a class fit


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class _Box:
    """A box of points, one ``axes()`` array of values per axis; ``noun``
    names the box in messages."""

    sizes: tuple

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def npoints(self) -> int:
        return math.prod(self.sizes)

    def mesh(self):
        """Coordinate arrays of shape ``sizes``, one per axis."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def points(self) -> np.ndarray:
        """All points as an (npoints, dim) array in flat C order."""
        return np.stack([m.ravel() for m in self.mesh()], axis=-1)


@dataclass(frozen=True)
class GridSpec(_Box):
    """Uniform periodic grid on [0,1)^n."""

    noun = "grid"

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not 1 <= len(sizes) <= 3:
            raise ValidationError("grid dimension must be 1, 2 or 3", field="grid.sizes")
        for n in sizes:
            if n < 4 or not _is_pow2(n):
                raise ValidationError(
                    f"axis size {n} must be a power of two >= 4", field="grid.sizes"
                )

    def axes(self):
        """Per-axis coordinate arrays k/N."""
        return [np.arange(n) / n for n in self.sizes]

    def fft_frequencies(self):
        """Per-axis integer frequencies in FFT order (np.fft.fftfreq), each
        shaped to broadcast over ``sizes``."""
        return np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in self.sizes],
                           indexing="ij", sparse=True)

    def lattice(self) -> "FrequencyLattice":
        return FrequencyLattice(self.sizes)


@dataclass(frozen=True)
class FrequencyLattice(_Box):
    """Truncated frequency box {-N_j/2, ..., N_j/2 - 1} per axis."""

    noun = "lattice"

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    def axes(self):
        """Per-axis frequency values in enumeration order (ascending)."""
        return [np.arange(-(n // 2), n // 2) for n in self.sizes]

    def bracket_grid(self) -> np.ndarray:
        """<xi> evaluated on the whole lattice, shape ``sizes``."""
        return bracket(np.stack(self.mesh(), axis=-1))


def finite_values(values: np.ndarray) -> np.ndarray:
    """``values``, unless some are non-finite."""
    if not np.isfinite(values).all():
        raise ValidationError("grid function contains non-finite values")
    return values


def _checked(values, box: _Box, counted: str, kind: str) -> np.ndarray:
    """``values`` as complex128 of shape ``box.sizes``: a flat array of
    ``box.npoints`` is reshaped, any other count or a non-finite value raises."""
    v = np.asarray(values, dtype=np.complex128)
    if v.shape != box.sizes:
        if v.size != box.npoints:
            raise ValidationError(f"{counted} count {v.size} != {box.noun} size {box.npoints}")
        v = v.reshape(box.sizes)
    if not np.isfinite(v).all():
        raise ValidationError(f"{kind} function contains non-finite values")
    return v


@dataclass
class GridFunction:
    """Complex samples of a function on a GridSpec."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _checked(self.values, self.spec, "value", "grid")

    def copy(self) -> "GridFunction":
        return GridFunction(self.spec, self.values.copy())


@dataclass
class SpectralFunction:
    """Fourier coefficients on a FrequencyLattice, stored in lattice order."""

    lattice: FrequencyLattice
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = _checked(self.coefficients, self.lattice, "coefficient", "spectral")


def bracket(xi) -> float:
    """Japanese bracket <xi> = (1 + |xi|^2)^(1/2).

    Accepts a scalar, a sequence of integers, or broadcastable arrays of
    per-axis components.
    """
    arr = np.asarray(xi, dtype=float)
    if arr.ndim == 0:
        return float(np.sqrt(1.0 + arr * arr))
    return np.sqrt(1.0 + np.sum(arr * arr, axis=-1))


def forward_dft(f: GridFunction) -> SpectralFunction:
    """Toroidal Fourier transform: fhat(xi) = (1/G) sum_x e^{-2 pi i x.xi} f(x).

    Exact (up to rounding) for any grid function; equals the continuum
    transform for functions band-limited to the lattice.
    """
    G = f.spec.npoints
    coeffs = np.fft.fftshift(np.fft.fftn(f.values)) / G
    return SpectralFunction(f.spec.lattice(), coeffs)


def inverse_dft(phi: SpectralFunction) -> GridFunction:
    """Fourier series evaluation: f(x) = sum_xi e^{2 pi i x.xi} phi(xi)."""
    G = phi.lattice.npoints
    values = np.fft.ifftn(np.fft.ifftshift(phi.coefficients)) * G
    return GridFunction(GridSpec(phi.lattice.sizes), values)


def torus_distance(x, y) -> float:
    """Geodesic distance on T^n: min over k in Z^n of |x - y - k|.

    Broadcasts over leading axes when x, y are arrays whose last axis holds
    the n coordinates (or are scalars in n = 1).
    """
    dx = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    dx = dx - np.floor(dx)  # into [0, 1)
    dx = np.minimum(dx, 1.0 - dx)
    if dx.ndim == 0:
        return float(dx)
    return np.sqrt(np.sum(dx * dx, axis=-1))


def offset_distance_grid(spec: GridSpec) -> np.ndarray:
    """Distance from the origin to every grid point, shape ``sizes``.

    Since the grid is translation invariant, d(x_a, x_b) = D[(a - b) mod N]
    with D the array returned here.
    """
    return _center_distance_grid(np.zeros(spec.dim), spec)


def _max_radius(dim: int) -> float:
    return float(np.sqrt(dim) / 2.0)


def ball(center, radius: float, spec: GridSpec) -> np.ndarray:
    """Flat indices of grid points within geodesic distance ``radius`` of center.

    Radii above the torus half-diameter sqrt(n)/2 are clamped.  Raises
    DegenerateBallError when no grid point falls inside (radius below the
    grid spacing at an off-grid center).
    """
    if radius <= 0:
        raise ValidationError("ball radius must be positive", field="radius")
    radius = min(float(radius), _max_radius(spec.dim))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (spec.dim,):
        raise ValidationError(
            f"center has {center.shape[0]} coordinates, expected {spec.dim}",
            field="center",
        )
    dist = _center_distance_grid(center, spec)
    mask = dist < radius
    idx = np.flatnonzero(mask.ravel())
    if idx.size == 0:
        raise DegenerateBallError(
            f"ball of radius {radius:g} at {tuple(center)} contains no grid points"
        )
    return idx


def _center_distance_grid(center, spec: GridSpec) -> np.ndarray:
    """Geodesic distance from ``center`` to every grid point, shape ``sizes``."""
    return torus_distance(np.stack(spec.mesh(), axis=-1), center)


def pure_wave(spec: GridSpec, xi0) -> GridFunction:
    """The character e^{2 pi i x.xi0} sampled on the grid."""
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    phase = np.zeros(spec.sizes)
    for ax, m in enumerate(spec.mesh()):
        phase = phase + m * xi0[ax]
    return GridFunction(spec, np.exp(2j * np.pi * phase))
