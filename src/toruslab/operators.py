"""Quantization: turning symbols into operators on grid functions.

The operator attached to a symbol p acts by

    (T f)(x) = sum_xi e^{2 pi i x.xi} p(x, xi) fhat(xi),

summed over the truncated lattice, so on the discrete torus T is exactly a
G x G matrix and boundedness questions become questions about how matrix
norms depend on the truncation.  x-independent symbols take an FFT
multiplier fast path.  The general path works from the phase-symbol table
A[x, xi] = e^{2 pi i x.xi} p(x, xi) of shape G x L: apply is A @ fhat and
the adjoint is conj(conj(g) @ A) / G followed by the inverse DFT.

Cost model of the general path: the first call builds the table (16 G L
bytes, complex128) in blocks of grid rows at about the cost of one direct
evaluation of the sum, and every later apply or adjoint is one mat-vec.
Above MATRIX_GUARD grid points no table is stored; each call recomputes
the same row blocks and discards them.

The dense matrix in the grid basis carries the quadrature weight:
M[x, y] = (1/G) k(x, y) with k the Schwartz kernel, so that M @ f equals
apply(T, f) for plain matrix-vector products.  Adjoints are numerical
conjugate transposes; with the uniform 1/G inner product weight on both
sides that is the exact adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calculus import ClassParams
from .errors import SizeGuardError, ValidationError
from .grid import (
    GridFunction,
    GridSpec,
    SpectralFunction,
    forward_dft,
    inverse_dft,
)
from .symbols import depends_on_x, eval_expr, family_from_text, parse

MATRIX_GUARD = 4096  # largest G for dense constructions and stored symbol tables
# Grid rows per block of the phase-symbol table, whether the block is stored
# or streamed: the transient memory of a block is a few times 16 * _CHUNK * L
# bytes, independent of G.
_CHUNK = 256


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Quadrature inner product (1/G) sum f conj(g)."""
    return complex(np.sum(f.values * np.conj(g.values)) / f.spec.npoints)


@dataclass
class PdoOperator:
    """Operator Op(p) for a symbol given as an expression tree."""

    expr: object
    spec: GridSpec
    params: dict = None
    class_params: ClassParams = None
    label: str = "symbol"

    def __post_init__(self):
        if self.params is None:
            self.params = {}
        self.lattice = self.spec.lattice()
        self._table = None
        # probe evaluability on grid x lattice once, cheaply
        eval_expr(self.expr, tuple(0.0 for _ in range(self.spec.dim)),
                  tuple(0 for _ in range(self.spec.dim)), self.params)

    @classmethod
    def from_family(cls, family, spec: GridSpec) -> "PdoOperator":
        return cls(
            expr=family.expr,
            spec=spec,
            params=family.parameters,
            class_params=ClassParams(family.order, family.rho, family.delta),
            label=family.label(),
        )

    @classmethod
    def from_text(cls, text: str, spec: GridSpec, class_params=None) -> "PdoOperator":
        family = family_from_text(text)
        if family is not None:
            return cls.from_family(family, spec)
        return cls(expr=parse(text), spec=spec, class_params=class_params, label=text)

    @property
    def is_multiplier(self) -> bool:
        return not depends_on_x(self.expr)

    def multiplier_profile(self) -> np.ndarray:
        """sigma(xi) on the lattice for x-independent symbols."""
        if not self.is_multiplier:
            raise ValidationError(f"symbol {self.label!r} depends on x")
        xi = tuple(m.astype(float) for m in self.lattice.mesh())
        x = tuple(np.zeros(()) for _ in range(self.spec.dim))
        vals = eval_expr(self.expr, x, xi, self.params)
        return np.broadcast_to(np.asarray(vals, dtype=np.complex128), self.lattice.sizes)

    def symbol_rows(self, flat_rows: np.ndarray) -> np.ndarray:
        """p(x, xi) for the given flat grid rows, shape (rows, L)."""
        pts = self.spec.points()[flat_rows]
        xi = self.lattice.points().astype(float)
        xs = tuple(pts[:, j][:, None] for j in range(self.spec.dim))
        xis = tuple(xi[:, j][None, :] for j in range(self.spec.dim))
        vals = eval_expr(self.expr, xs, xis, self.params)
        return np.asarray(vals, dtype=np.complex128)

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise ValidationError(
                f"grid mismatch: function on {f.spec.sizes}, operator on {self.spec.sizes}"
            )
        if self.is_multiplier:
            coeffs = forward_dft(f).coefficients * self.multiplier_profile()
            return inverse_dft(SpectralFunction(self.lattice, coeffs))
        return self._apply_general(f)

    def _table_rows(self):
        """Successive blocks (rows, A[rows]) of the phase-symbol table."""
        x = self.spec.points()
        xi = self.lattice.points().astype(float)
        G = self.spec.npoints
        for start in range(0, G, _CHUNK):
            rows = np.arange(start, min(start + _CHUNK, G))
            block = np.exp(2j * np.pi * (x[rows] @ xi.T))
            block *= self.symbol_rows(rows)
            yield rows, block

    def phase_symbol_table(self) -> np.ndarray:
        """A[x, xi] = e^{2 pi i x.xi} p(x, xi), shape (G, L), built once on first use."""
        _guard(self.spec)
        if self._table is None:
            table = np.empty((self.spec.npoints, self.lattice.npoints), dtype=np.complex128)
            for rows, block in self._table_rows():
                table[rows] = block
            self._table = table
        return self._table

    def _table_blocks(self):
        """The table as (rows, block) pairs covering all grid rows.

        Up to MATRIX_GUARD grid points this is the cached table as one block;
        above it the blocks are recomputed on every call and nothing is stored.
        """
        if self.spec.npoints > MATRIX_GUARD:
            return self._table_rows()
        return [(slice(None), self.phase_symbol_table())]

    def _apply_general(self, f: GridFunction) -> GridFunction:
        fhat = forward_dft(f).coefficients.ravel()
        out = np.empty(self.spec.npoints, dtype=np.complex128)
        for rows, block in self._table_blocks():
            out[rows] = block @ fhat
        return GridFunction(self.spec, out.reshape(self.spec.sizes))

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        """Action of the adjoint operator, matrix-free."""
        if self.is_multiplier:
            coeffs = forward_dft(g).coefficients * np.conj(self.multiplier_profile())
            return inverse_dft(SpectralFunction(self.lattice, coeffs))
        gbar = np.conj(g.values.ravel())
        acc = np.zeros(self.lattice.npoints, dtype=np.complex128)
        for rows, block in self._table_blocks():
            acc += gbar[rows] @ block
        coeffs = (np.conj(acc) / self.spec.npoints).reshape(self.lattice.sizes)
        return inverse_dft(SpectralFunction(self.lattice, coeffs))

    def to_matrix(self) -> "DenseOperatorMatrix":
        return to_matrix(self)


@dataclass
class DenseOperatorMatrix:
    """G x G action in the grid basis, quadrature weight included."""

    spec: GridSpec
    matrix: np.ndarray
    label: str = "matrix"
    class_params: ClassParams = None

    def apply(self, f: GridFunction) -> GridFunction:
        if f.spec != self.spec:
            raise ValidationError("grid mismatch in matrix application")
        return GridFunction(self.spec, (self.matrix @ f.values.ravel()).reshape(self.spec.sizes))

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return GridFunction(
            self.spec, (self.matrix.conj().T @ g.values.ravel()).reshape(self.spec.sizes)
        )

    def to_matrix(self) -> "DenseOperatorMatrix":
        return self


def _guard(spec: GridSpec):
    if spec.npoints > MATRIX_GUARD:
        raise SizeGuardError(
            f"dense construction needs G={spec.npoints} > guard {MATRIX_GUARD}"
        )


def to_matrix(op) -> DenseOperatorMatrix:
    """Dense grid-basis matrix with rows = output points.

    Column y is the image of the unit-mass discrete delta at y divided by G,
    i.e. M[x, y] = (1/G) k(x, y); M @ f then reproduces apply(T, f).
    """
    _guard(op.spec)
    if isinstance(op, DenseOperatorMatrix):
        return op
    spec = op.spec
    G = spec.npoints
    if isinstance(op, PdoOperator) or getattr(op, "is_multiplier", False):
        matrix = offsets_to_full(kernel_offset_rows(op), spec) / G
    else:
        # generic fallback: columns by application to basis vectors
        matrix = np.empty((G, G), dtype=np.complex128)
        basis = np.zeros(spec.sizes, dtype=np.complex128)
        flat = basis.ravel()
        for y in range(G):
            flat[y] = 1.0
            matrix[:, y] = op.apply(GridFunction(spec, basis.copy())).values.ravel()
            flat[y] = 0.0
    return DenseOperatorMatrix(spec, matrix, label=getattr(op, "label", "operator"),
                               class_params=getattr(op, "class_params", None))


def kernel_offset_rows(op) -> np.ndarray:
    """Kernel rows in offset form: K[r, z] = k(x_r, x_r - z), shape (G,) + sizes.

    Row r is the inverse transform of xi -> p(x_r, xi); for multipliers all
    rows coincide.  Falls back to the dense matrix for generic operators.
    """
    spec = op.spec
    G = spec.npoints
    if isinstance(op, PdoOperator) and not op.is_multiplier:
        rows = np.arange(G)
        P = op.symbol_rows(rows).reshape((G,) + op.lattice.sizes)
        axes = tuple(range(1, 1 + spec.dim))
        K = np.fft.ifftn(np.fft.ifftshift(P, axes=axes), axes=axes) * op.lattice.npoints
        return K.reshape((G,) + spec.sizes)
    if getattr(op, "is_multiplier", False):
        coeffs = op.multiplier_profile()
        k0 = np.fft.ifftn(np.fft.ifftshift(coeffs)) * G
        return np.broadcast_to(k0.reshape((1,) + spec.sizes), (G,) + spec.sizes).copy()
    return full_to_offsets(to_matrix(op).matrix * G, spec)


def _swap_offset_axes(values: np.ndarray, spec: GridSpec) -> np.ndarray:
    """out[r, w] = values[r, (x_r - w) mod N] for multi-indices r, w.

    The map w -> (x_r - w) mod N is its own inverse, so one gather serves
    both directions between dense rows k(x_r, y) and offset rows
    k(x_r, x_r - z).  The index arrays broadcast per axis and hold
    sum_j N_j^2 entries; axis sizes are powers of two, so the reduction
    mod N is a bit mask.
    """
    sizes, dim = spec.sizes, spec.dim
    rows, offsets = [], []
    for ax, n in enumerate(sizes):
        k = np.arange(n, dtype=np.int32)
        shape = [1] * (2 * dim)
        shape[ax] = n
        rows.append(k.reshape(shape))
        shape[dim + ax] = n
        offsets.append(((k[:, None] - k[None, :]) & (n - 1)).reshape(shape))
    values = np.asarray(values, dtype=np.complex128).reshape(sizes + sizes)
    return values[tuple(rows + offsets)]


def offsets_to_full(K_offsets: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Dense k(x, y) matrix from offset rows."""
    G = spec.npoints
    return _swap_offset_axes(K_offsets, spec).reshape(G, G)


def full_to_offsets(kernel: np.ndarray, spec: GridSpec) -> np.ndarray:
    """Offset rows from the dense k(x, y) matrix."""
    return _swap_offset_axes(kernel, spec).reshape((spec.npoints,) + spec.sizes)


def adjoint(op) -> DenseOperatorMatrix:
    """Numerical adjoint: conjugate transpose of the dense matrix."""
    M = to_matrix(op)
    return DenseOperatorMatrix(
        M.spec,
        M.matrix.conj().T,
        label=f"adjoint({M.label})",
        class_params=M.class_params,
    )


@dataclass
class BesselOperator:
    """The Fourier multiplier <xi>^s (order-shifting potential)."""

    s: float
    spec: GridSpec

    def __post_init__(self):
        self.lattice = self.spec.lattice()
        self.label = f"bessel_potential({self.s:g})"
        self.class_params = ClassParams(self.s, 1.0, 0.0)

    def multiplier_profile(self) -> np.ndarray:
        return self.lattice.bracket_grid().astype(np.complex128) ** self.s

    @property
    def is_multiplier(self) -> bool:
        return True

    def apply(self, f: GridFunction) -> GridFunction:
        return bessel_apply(self.s, f)

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return bessel_apply(self.s, g)  # real symbol: self-adjoint

    def to_matrix(self) -> DenseOperatorMatrix:
        return to_matrix(self)


@dataclass
class MultiplierOperator:
    """Fourier multiplier with a stored profile on the lattice."""

    profile: np.ndarray
    spec: GridSpec
    label: str = "multiplier"
    class_params: ClassParams = None

    def __post_init__(self):
        self.lattice = self.spec.lattice()
        self.profile = np.asarray(self.profile, dtype=np.complex128).reshape(self.lattice.sizes)

    @property
    def is_multiplier(self) -> bool:
        return True

    def multiplier_profile(self) -> np.ndarray:
        return self.profile

    def apply(self, f: GridFunction) -> GridFunction:
        coeffs = forward_dft(f).coefficients * self.profile
        return inverse_dft(SpectralFunction(self.lattice, coeffs))

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        coeffs = forward_dft(g).coefficients * np.conj(self.profile)
        return inverse_dft(SpectralFunction(self.lattice, coeffs))

    def to_matrix(self) -> "DenseOperatorMatrix":
        return to_matrix(self)


def bessel_apply(s: float, f: GridFunction) -> GridFunction:
    """Apply the multiplier <xi>^s through the FFT path."""
    lattice = f.spec.lattice()
    coeffs = forward_dft(f).coefficients * lattice.bracket_grid() ** s
    return inverse_dft(SpectralFunction(lattice, coeffs))


@dataclass
class ComposedOperator:
    """Composition with a potential: f -> J^s(Tf) (left) or T(J^s f) (right)."""

    inner: object
    s: float
    side: str = "left"

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValidationError(f"side must be 'left' or 'right', got {self.side!r}")
        self.spec = self.inner.spec
        base = getattr(self.inner, "class_params", None)
        if base is not None:
            self.class_params = ClassParams(base.m + self.s, base.rho, base.delta)
        else:
            self.class_params = None
        self.label = (
            f"J^{self.s:g} o {getattr(self.inner, 'label', 'T')}"
            if self.side == "left"
            else f"{getattr(self.inner, 'label', 'T')} o J^{self.s:g}"
        )

    def apply(self, f: GridFunction) -> GridFunction:
        if self.side == "left":
            return bessel_apply(self.s, self.inner.apply(f))
        return self.inner.apply(bessel_apply(self.s, f))

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        # (J^s T)* = T* J^s and (T J^s)* = J^s T*
        if self.side == "left":
            return self.inner.apply_adjoint(bessel_apply(self.s, g))
        return bessel_apply(self.s, self.inner.apply_adjoint(g))

    def to_matrix(self) -> DenseOperatorMatrix:
        _guard(self.spec)
        J = BesselOperator(self.s, self.spec).to_matrix().matrix
        T = to_matrix(self.inner).matrix
        M = J @ T if self.side == "left" else T @ J
        return DenseOperatorMatrix(self.spec, M, label=self.label,
                                   class_params=self.class_params)


def compose_bessel(op, s: float, side: str = "left") -> ComposedOperator:
    return ComposedOperator(op, s, side)


@dataclass
class AdjointOperator:
    """Adjoint as a first-class operator, so the full battery runs on T*."""

    inner: object

    def __post_init__(self):
        self.spec = self.inner.spec
        self.class_params = getattr(self.inner, "class_params", None)
        self.label = f"adjoint({getattr(self.inner, 'label', 'T')})"

    def apply(self, f: GridFunction) -> GridFunction:
        return self.inner.apply_adjoint(f)

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return self.inner.apply(g)

    def to_matrix(self) -> DenseOperatorMatrix:
        return adjoint(self.inner)


def rebuild_on(op, spec: GridSpec):
    """The same operator instantiated on another grid (per-truncation scans)."""
    if isinstance(op, PdoOperator):
        return PdoOperator(op.expr, spec, params=op.params,
                           class_params=op.class_params, label=op.label)
    if isinstance(op, BesselOperator):
        return BesselOperator(op.s, spec)
    if isinstance(op, ComposedOperator):
        return ComposedOperator(rebuild_on(op.inner, spec), op.s, op.side)
    if isinstance(op, AdjointOperator):
        return AdjointOperator(rebuild_on(op.inner, spec))
    raise ValidationError(f"cannot rebuild {type(op).__name__} on a new grid")
