"""Quantization: turning symbols into operators on grid functions.

The operator attached to a symbol p acts by

    (T f)(x) = sum_xi e^{2 pi i x.xi} p(x, xi) fhat(xi),

summed over the truncated lattice, so on the discrete torus T is exactly a
G x G matrix and boundedness questions become questions about how matrix
norms depend on the truncation.  Each operator works from one read-only
table, built once.  A Fourier multiplier (x-independent symbol) keeps its
profile sigma(xi) and a copy in FFT order, L = G complex entries from one
evaluation of the symbol, or given outright (MultiplierOperator, and the
J^s of a left composition); apply is two FFTs, ifftn(fftn(f) * table), the
adjoint uses the conjugate table and the kernel rows one inverse FFT of
it.  A non-finite table is rejected when built.

Every other PdoOperator's table is its grid-basis matrix
M[x, y] = (1/G) sum_xi e^{2 pi i (x-y).xi} p(x, xi), 16 G^2 bytes, built in
blocks of grid rows (the phase-symbol rows e^{2 pi i x.xi} p(x, xi), then
one FFT over the lattice axes) at about the cost of one direct evaluation
of the sum.  apply is M @ f and the adjoint conj(conj(g) @ M), with no DFT
and no transposed copy (DenseOperatorMatrix shares both); to_matrix returns
M and the kernel rows (any lattice sub-box included) are G M regathered by
offset.  Above MATRIX_GUARD grid points nothing is stored; apply and
adjoint recompute the row blocks on every call.

``apply`` and ``apply_adjoint`` take a GridFunction, or a stack of values of
shape (B,) + spec.sizes in one call (FFTs over the grid axes, one gemv per
function, a streamed block built once), each function bit for bit as alone.
Every operator also carries ``spec``, ``label``, ``class_params`` and
``on(spec)``, the same operator on another grid.  The
types are PdoOperator (Op(p) for a symbol expression), MultiplierOperator
(a PdoOperator with a given profile), ComposedOperator (J^s o T),
AdjointOperator (T*) and DenseOperatorMatrix; a given table cannot be
rebuilt, so ``on`` raises for the last and MultiplierOperator.  Right
composition folds into the symbol, Op(p) o J^s = Op(p <xi>^s), so it stays
a PdoOperator with kernel synthesis and the calculus; left composition
stays a composition.

The dense matrix in the grid basis carries the quadrature weight:
M[x, y] = (1/G) k(x, y) with k the Schwartz kernel, so that M @ f equals
apply(T, f) for plain matrix-vector products.  Adjoints are numerical
conjugate transposes; with the uniform 1/G inner product weight on both
sides that is the exact adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calculus import ClassParams
from .errors import SizeGuardError, ValidationError
from .grid import GridFunction, GridSpec, finite_values
from .symbols import BinOp, Call, Const, XiVec, depends_on_x, eval_expr, family_from_text, parse

MATRIX_GUARD = 4096  # largest G for dense constructions and stored grid-basis matrices
# Grid rows per block of the grid-basis matrix, whether the block is stored
# or streamed: the transient memory of a block is a few times 16 * _CHUNK * G
# bytes.
_CHUNK = 256


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """Quadrature inner product (1/G) sum f conj(g)."""
    return complex(np.sum(f.values * np.conj(g.values)) / f.spec.npoints)


def _stacked(act):
    """Lift ``act(spec, F, table)`` on a value stack F, shape (B,) + spec.sizes,
    to a GridFunction (the stack of one) or to a stack, checked on both ends."""

    def lifted(spec: GridSpec, f, table):
        one = isinstance(f, GridFunction)  # a GridFunction's values are checked when built
        stack = f.values[None] if one else np.asarray(f, dtype=np.complex128)
        if stack.shape[1:] != spec.sizes:
            sizes = stack.shape[1:]
            raise ValidationError(f"grid mismatch: function on {sizes}, operator on {spec.sizes}")
        out = act(spec, stack if one else finite_values(stack), table)
        return GridFunction(spec, out[0]) if one else finite_values(out)

    return lifted


@_stacked
def _multiply(spec: GridSpec, F: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Fourier multiplier, table in FFT order: ifftn(fftn(f) * table), as 1/G and G cancel."""
    axes = tuple(range(1, 1 + spec.dim))  # with the sizes given, numpy skips a shape lookup
    return np.fft.ifftn(np.fft.fftn(F, spec.sizes, axes) * table, spec.sizes, axes)


def _fft_table(profile, label: str):
    """(profile, profile in FFT order), both read-only; non-finite values are rejected."""
    profile = np.array(profile, dtype=np.complex128)
    if not np.all(np.isfinite(profile)):
        raise ValidationError(f"multiplier {label!r} has non-finite values on the lattice")
    table = np.fft.ifftshift(profile)
    profile.flags.writeable = table.flags.writeable = False
    return profile, table


@_stacked
def _dense_apply(spec: GridSpec, F: np.ndarray, blocks) -> np.ndarray:
    """M @ f, M given as (rows, M[rows]) pairs; one gemv per function of the stack."""
    fvals = F.reshape(len(F), spec.npoints, 1)
    out = np.empty(fvals.shape, dtype=np.complex128)
    for rows, block in blocks:
        out[:, rows] = block @ fvals
    return out.reshape(F.shape)


@_stacked
def _dense_adjoint(spec: GridSpec, F: np.ndarray, blocks) -> np.ndarray:
    """conj(conj(g) @ M), M given as (rows, M[rows]) pairs; no transposed copy."""
    gbar = np.conj(F.reshape(len(F), 1, spec.npoints))
    acc = np.zeros(gbar.shape, dtype=np.complex128)
    for rows, block in blocks:
        acc += gbar[..., rows] @ block
    return np.conj(acc).reshape(F.shape)


def resolve_family(text: str, class_params=None):
    """The built-in family ``text`` names, or None; a family takes no second class."""
    family = family_from_text(text)
    if family is not None and class_params is not None:
        raise ValidationError(f"the family {family.label()} carries its own class; "
                              "class is for raw expressions", field="class")
    return family


@dataclass(eq=False)
class PdoOperator:
    """Operator Op(p) for a symbol given as an expression tree.

    Operators compare by identity, as each holds its own table.
    """

    expr: object
    spec: GridSpec
    params: dict = None
    class_params: ClassParams = None
    label: str = "symbol"

    def __post_init__(self):
        if self.params is None:
            self.params = {}
        self.lattice = self.spec.lattice()
        self.is_multiplier = not depends_on_x(self.expr)
        self._matrix = self._profile = self._table = None
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
        """Op of a built-in family, or of a raw expression with the nominal ``class_params``."""
        family = resolve_family(text, class_params)
        if family is not None:
            return cls.from_family(family, spec)
        return cls(expr=parse(text), spec=spec, class_params=class_params, label=text)

    def on(self, spec: GridSpec) -> "PdoOperator":
        """The same symbol quantized on the grid ``spec``."""
        return replace(self, spec=spec)

    def multiplier_profile(self) -> np.ndarray:
        """sigma(xi) on the lattice for x-independent symbols, evaluated once, read-only."""
        if not self.is_multiplier:
            raise ValidationError(f"symbol {self.label!r} depends on x")
        if self._profile is None:
            xi = tuple(m.astype(float) for m in self.lattice.mesh())
            x = tuple(np.zeros(()) for _ in range(self.spec.dim))
            vals = np.broadcast_to(eval_expr(self.expr, x, xi, self.params), self.lattice.sizes)
            self._profile, self._table = _fft_table(vals, self.label)
        return self._profile

    def _multiplier_table(self) -> np.ndarray:
        """The profile in FFT order, the multiplier's one table."""
        if self._table is None:
            self.multiplier_profile()
        return self._table

    def symbol_rows(self, flat_rows: np.ndarray) -> np.ndarray:
        """p(x, xi) for the given flat grid rows, shape (rows, L)."""
        pts = self.spec.points()[flat_rows]
        xi = self.lattice.points().astype(float)
        xs = tuple(pts[:, j][:, None] for j in range(self.spec.dim))
        xis = tuple(xi[:, j][None, :] for j in range(self.spec.dim))
        vals = eval_expr(self.expr, xs, xis, self.params)
        return np.asarray(vals, dtype=np.complex128)

    def apply(self, f: GridFunction) -> GridFunction:
        if self.is_multiplier:
            return _multiply(self.spec, f, self._multiplier_table())
        return _dense_apply(self.spec, f, self._matrix_blocks())

    def _matrix_rows(self):
        """Successive blocks (rows, M[rows]) of the grid-basis matrix.

        Each block is the phase-symbol rows e^{2 pi i x.xi} p(x, xi) followed
        by one FFT over the lattice axes, which sums against e^{-2 pi i y.xi}.
        """
        x = self.spec.points()
        xi = self.lattice.points().astype(float)
        G = self.spec.npoints
        axes = tuple(range(1, 1 + self.spec.dim))
        for start in range(0, G, _CHUNK):
            rows = np.arange(start, min(start + _CHUNK, G))
            block = np.exp(2j * np.pi * (x[rows] @ xi.T)) * self.symbol_rows(rows)
            block = np.fft.ifftshift(block.reshape((rows.size,) + self.lattice.sizes), axes=axes)
            yield rows, np.fft.fftn(block, axes=axes).reshape(rows.size, G) / G

    def _grid_matrix(self) -> np.ndarray:
        """M[x, y] = (1/G) sum_xi e^{2 pi i (x-y).xi} p(x, xi), built once, read-only."""
        _guard(self.spec)
        if self._matrix is None:
            matrix = np.empty((self.spec.npoints, self.spec.npoints), dtype=np.complex128)
            for rows, block in self._matrix_rows():
                matrix[rows] = block
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def _matrix_blocks(self):
        """M as (rows, block) pairs, lazily: the cached matrix as one block up
        to MATRIX_GUARD grid points, above it blocks recomputed on every call."""
        if self.spec.npoints > MATRIX_GUARD:
            yield from self._matrix_rows()
        else:
            yield slice(None), self._grid_matrix()

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        """Action of the adjoint operator, conj(conj(g) @ M)."""
        if self.is_multiplier:
            return _multiply(self.spec, g, np.conj(self._multiplier_table()))
        return _dense_adjoint(self.spec, g, self._matrix_blocks())


@dataclass
class DenseOperatorMatrix:
    """G x G action in the grid basis, quadrature weight included."""

    spec: GridSpec
    matrix: np.ndarray
    label: str = "matrix"
    class_params: ClassParams = None

    def apply(self, f: GridFunction) -> GridFunction:
        return _dense_apply(self.spec, f, [(slice(None), self.matrix)])

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return _dense_adjoint(self.spec, g, [(slice(None), self.matrix)])

    def on(self, spec: GridSpec):
        raise ValidationError(f"{type(self).__name__} cannot be rebuilt: its table is given")


def _guard(spec: GridSpec):
    if spec.npoints > MATRIX_GUARD:
        raise SizeGuardError(
            f"dense construction needs G={spec.npoints} > guard {MATRIX_GUARD}"
        )


def to_matrix(op) -> DenseOperatorMatrix:
    """Dense grid-basis matrix with rows = output points.

    Column y is the image of the unit-mass discrete delta at y divided by G,
    i.e. M[x, y] = (1/G) k(x, y); M @ f then reproduces apply(T, f).  A
    general PdoOperator returns its cached, read-only matrix.
    """
    _guard(op.spec)
    if isinstance(op, DenseOperatorMatrix):
        return op
    spec = op.spec
    G = spec.npoints
    if isinstance(op, PdoOperator) and op.is_multiplier:
        matrix = offsets_to_full(kernel_offset_rows(op), spec) / G
    elif isinstance(op, PdoOperator):
        matrix = op._grid_matrix()
    else:
        # generic fallback: column y is the image of the y-th basis vector
        matrix = np.empty((G, G), dtype=np.complex128)
        for start in range(0, G, _CHUNK):
            basis = np.eye(min(_CHUNK, G - start), G, start).reshape((-1,) + spec.sizes)
            matrix[:, start:start + _CHUNK] = op.apply(basis).reshape(-1, G).T
    return DenseOperatorMatrix(spec, matrix, label=op.label, class_params=op.class_params)


def kernel_offset_rows(op, box: int = None) -> np.ndarray:
    """Kernel rows in offset form: K[r, z] = k(x_r, x_r - z), shape (G,) + sizes.

    The rows are G times the dense matrix regathered by offset; a multiplier
    transforms its one profile row and repeats it.  ``box`` keeps only the
    frequencies of the centered sub-box of that per-axis size, an even
    integer >= 2, one Fourier filter along the offset axes; an axis no
    larger than the box stays whole.  The dense size guard applies.
    """
    _guard(op.spec)
    if box is not None and (box < 2 or box % 2):
        raise ValidationError(f"lattice box {box!r} must be an even integer >= 2", field="box")
    spec = op.spec
    G = spec.npoints
    axes = tuple(range(1, 1 + spec.dim))
    if isinstance(op, PdoOperator) and op.is_multiplier:
        K = np.fft.ifftn(op._multiplier_table())[None] * G
    else:
        K = full_to_offsets(to_matrix(op).matrix * G, spec)
    if box is not None:
        xis = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in spec.sizes], indexing="ij")
        inside = np.all([(xi >= -(box // 2)) & (xi < box // 2) for xi in xis], axis=0)
        K = np.fft.ifftn(np.fft.fftn(K, axes=axes) * inside, axes=axes)
    if K.shape[0] < G:
        K = np.repeat(K, G, axis=0)
    return K.reshape((G,) + spec.sizes)


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


class MultiplierOperator(PdoOperator):
    """Fourier multiplier whose lattice profile is given rather than evaluated.

    It has no symbol expression, so it cannot be rebuilt on another grid.
    """

    def __init__(self, profile, spec: GridSpec, label: str = "multiplier",
                 class_params: ClassParams = None):
        self.expr, self.spec, self.params = None, spec, {}
        self.class_params, self.label = class_params, label
        self.lattice = spec.lattice()
        self.is_multiplier = True
        self._profile, self._table = _fft_table(np.reshape(profile, self.lattice.sizes), label)

    def on(self, spec: GridSpec):
        raise ValidationError(f"{type(self).__name__} cannot be rebuilt: its table is given")


def _bessel_potential(spec: GridSpec, s: float) -> MultiplierOperator:
    """J^s with the given table <xi>^s = bracket_grid() ** s; Op(bessel(s))
    would evaluate a complex power, which differs in the last bits."""
    return MultiplierOperator(spec.lattice().bracket_grid() ** s, spec, label=f"J^{s:g}")


def bessel_apply(s: float, f: GridFunction) -> GridFunction:
    """Apply the multiplier <xi>^s through the FFT path."""
    return _bessel_potential(f.spec, s).apply(f)


def _shifted(cls: ClassParams, s: float) -> ClassParams:
    """Class (m + s, rho, delta) of a composition with J^s."""
    return None if cls is None else ClassParams(cls.m + s, cls.rho, cls.delta)


@dataclass
class ComposedOperator:
    """Left composition with the potential: f -> J^s(T f)."""

    inner: object
    s: float

    def __post_init__(self):
        self.spec = self.inner.spec
        self.class_params = _shifted(self.inner.class_params, self.s)
        self.label = f"J^{self.s:g} o {self.inner.label}"
        self._bessel = _bessel_potential(self.spec, self.s)

    def apply(self, f: GridFunction) -> GridFunction:
        return self._bessel.apply(self.inner.apply(f))

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        # (J^s T)* = T* J^s, J^s being real
        return self.inner.apply_adjoint(self._bessel.apply(g))

    def on(self, spec: GridSpec) -> "ComposedOperator":
        return ComposedOperator(self.inner.on(spec), self.s)


def compose_bessel(op, s: float, side: str = "left"):
    """J^s o op (left) or op o J^s (right).

    Right composition is exact in the symbol, Op(p) o J^s = Op(p <xi>^s), so
    it returns a PdoOperator of class (m + s, rho, delta); left composition
    stays a ComposedOperator.
    """
    if side == "left":
        return ComposedOperator(op, s)
    if side != "right":
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    if not isinstance(op, PdoOperator) or op.expr is None:
        raise ValidationError(
            f"right composition folds into the symbol of a PdoOperator, got {type(op).__name__}"
        )
    return PdoOperator(
        BinOp("*", op.expr, BinOp("^", Call("bracket", XiVec()), Const(complex(s)))),
        op.spec,
        params=op.params,
        class_params=_shifted(op.class_params, s),
        label=f"{op.label} o J^{s:g}",
    )


@dataclass
class AdjointOperator:
    """Adjoint as a first-class operator, so the full battery runs on T*."""

    inner: object

    def __post_init__(self):
        self.spec = self.inner.spec
        self.class_params = self.inner.class_params
        self.label = f"adjoint({self.inner.label})"

    def apply(self, f: GridFunction) -> GridFunction:
        return self.inner.apply_adjoint(f)

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return self.inner.apply(g)

    def on(self, spec: GridSpec) -> "AdjointOperator":
        return AdjointOperator(self.inner.on(spec))

