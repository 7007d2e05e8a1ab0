"""Quantization: turning symbols into operators on grid functions.

The operator attached to a symbol p acts by

    (T f)(x) = sum_xi e^{2 pi i x.xi} p(x, xi) fhat(xi),

summed over the truncated lattice, so on the discrete torus T is exactly a
G x G matrix and boundedness questions become questions about how matrix
norms depend on the truncation.  Each operator works from one read-only
table, built once.  A Fourier multiplier (x-independent symbol) keeps its
profile sigma(xi) and a copy in FFT order, L = G complex entries from one
evaluation of the symbol, or given outright (MultiplierOperator, and the
J^s of a left composition); apply is two FFTs, ifftn(fftn(f) * table), run
axis by axis in place in one fresh stack, and the adjoint uses the conjugate
table, built once per operator.  A non-finite table is rejected when built.

One transform turns a symbol into kernel values, the kernel rows
K[r] = G ifftn(ifftshift p(x_r, .)), i.e. K[r, z] = k(x_r, x_r - z) for the
Schwartz kernel k(x, y) = sum_xi e^{2 pi i (x-y).xi} p(x, xi).  A
PdoOperator's ``x_axes`` are the grid axes its symbol reads, and it has one
kernel row per distinct x over them: grid row r shares the row of its
representative, the grid point with r's coordinates on x_axes and 0 on every
other axis (representatives).  A multiplier reads no axis and has one row,
for every x; a symbol that reads every axis has G.  Every other
PdoOperator's table is its grid-basis matrix M, 16 G^2 bytes, filled in
place box by box (_boxes): each box of at most _BLOCK_BYTES of kernel rows
makes the rows of its distinct representatives only and copies every grid
row of the box from them by offset, M[r, y] = K[rep(r), (x_r - y) mod N] / G,
through one strided view (_offset_view).  apply is M @ f and the adjoint
conj(conj(g) @ M), with no DFT and no transposed copy.  Above MATRIX_GUARD
grid points nothing is stored; apply and adjoint recompute blocks of at most
_CHUNK grid rows on every call.

``apply`` and ``apply_adjoint`` take a GridFunction, or a stack of values of
shape (B,) + spec.sizes in one call (FFTs over the grid axes, one gemv per
function, a streamed block built once), each function bit for bit as alone.
Every operator also carries ``spec``, ``label``, ``class_params``,
``x_axes`` and ``on(spec)``, the same operator on another grid.  The four
types are PdoOperator (Op(p) for a symbol expression), MultiplierOperator
(a PdoOperator with a given profile, which ``on`` cannot rebuild),
ComposedOperator (J^s o T) and AdjointOperator (T*).  Right composition
folds into the symbol, Op(p) o J^s = Op(p <xi>^s), so it stays a
PdoOperator with kernel synthesis and the calculus; left composition stays a
composition.  J^s o T and T* commute with every translation that T commutes
with, so they take T's x_axes.

to_matrix returns the grid-basis matrix with its spec (DenseOperatorMatrix),
made by one recursion through the wrappers: a PdoOperator gives its cached M
or a multiplier's one kernel row gathered, J^s o T maps the columns of T's
matrix through J^s, and T* conjugate-transposes T's matrix (in place by
tiles when that matrix is fresh).  Every operator's kernel rows are one per
distinct x over its x_axes: a PdoOperator makes them straight from its
symbol, R G entries for R rows, by the same boxes as M; a wrapper that reads
no axis takes its one row as its image of a unit-mass delta, one apply; any
other wrapper takes G times its dense matrix's representative rows
regathered by offset.  box_filter cuts them to a lattice sub-box in place.

The weight 1/G in M makes M @ f equal apply(T, f), and the numerical
conjugate transpose is the exact adjoint under the uniform 1/G inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product

import numpy as np

from .calculus import ClassParams
from .errors import SizeGuardError, ValidationError
from .grid import MATRIX_GUARD, GridFunction, GridSpec, finite_values
from .symbols import BinOp, Call, Const, XiVec, eval_expr, family_from_text, parse, read_axes

# Grid rows per streamed block of the grid-basis matrix and per block of a
# kernel-row box filter, columns per stack of a composition's matrix and the
# side of a tile of an in-place transpose: the transient memory of a block is
# a few times 16 * _CHUNK * G bytes.
_CHUNK = 256
# Bytes of the kernel rows that one block of a stored matrix or of kernel
# synthesis makes: its transient memory is a few times that.
_BLOCK_BYTES = 2**20


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
    """Fourier multiplier, table in FFT order: ifftn(fftn(f) * table), as 1/G and G cancel.

    The transforms run axis by axis in one fresh stack, in place, in the
    reversed axis order fftn and ifftn take, so every value is theirs bit for bit.
    """
    axes = range(spec.dim, 0, -1)
    X = np.fft.fft(F, axis=spec.dim)
    for ax in axes[1:]:
        np.fft.fft(X, axis=ax, out=X)
    X *= table
    for ax in axes:
        np.fft.ifft(X, axis=ax, out=X)
    return X


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


def resolve_symbol(text: str, class_params=None) -> tuple:
    """(expr, params, class_params, label) of ``text``: a built-in family with
    its own class, or the raw expression with the nominal ``class_params``."""
    family = resolve_family(text, class_params)
    if family is None:
        return parse(text), None, class_params, text
    return (family.expr, family.parameters, ClassParams(family.order, family.rho, family.delta),
            family.label())


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
        self.x_axes = read_axes(self.expr, self.spec.dim)
        self._matrix = self._profile = self._table = self._adjoint_table = None
        # probe evaluability on grid x lattice once, cheaply
        eval_expr(self.expr, tuple(0.0 for _ in range(self.spec.dim)),
                  tuple(0 for _ in range(self.spec.dim)), self.params)

    @classmethod
    def from_family(cls, family, spec: GridSpec) -> "PdoOperator":
        return cls(family.expr, spec, family.parameters,
                   ClassParams(family.order, family.rho, family.delta), family.label())

    @classmethod
    def from_text(cls, text: str, spec: GridSpec, class_params=None) -> "PdoOperator":
        """Op of a built-in family, or of a raw expression with the nominal ``class_params``."""
        expr, params, class_params, label = resolve_symbol(text, class_params)
        return cls(expr, spec, params, class_params, label)

    @property
    def is_multiplier(self) -> bool:
        """True when the symbol reads no x axis."""
        return not self.x_axes

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

    def _multiplier_table(self, adjoint: bool = False) -> np.ndarray:
        """The profile in FFT order, the multiplier's one table, or for the
        adjoint its conjugate; each is built once, read-only."""
        if self._table is None:
            self.multiplier_profile()
        if not adjoint:
            return self._table
        if self._adjoint_table is None:
            self._adjoint_table = np.conj(self._table)
            self._adjoint_table.flags.writeable = False
        return self._adjoint_table

    def symbol_rows(self, flat_rows: np.ndarray) -> np.ndarray:
        """p(x, xi) for the given flat grid rows, shape (rows, L)."""
        pts = self.spec.points()[flat_rows]
        xi = self.lattice.points().astype(float)
        xs = tuple(pts[:, j][:, None] for j in range(self.spec.dim))
        xis = tuple(xi[:, j][None, :] for j in range(self.spec.dim))
        vals = eval_expr(self.expr, xs, xis, self.params)
        return np.broadcast_to(np.asarray(vals, dtype=np.complex128), (len(pts), len(xi)))

    def kernel_rows(self, flat_rows=slice(None)) -> np.ndarray:
        """Kernel rows in offset form, K[r] = G ifftn(ifftshift p(x_r, .)), so
        K[r, z] = k(x_r, x_r - z), shape (rows,) + sizes for the given flat
        grid rows (all by default); a multiplier's one row serves every x."""
        axes = tuple(range(1, 1 + self.spec.dim))
        if self.is_multiplier:
            table = self._multiplier_table()[None]
        else:  # the symbol rows live only until shifted
            table = np.fft.ifftshift(self.symbol_rows(flat_rows).reshape((-1,) + self.lattice.sizes),
                                     axes=axes)
        return np.fft.ifftn(table, axes=axes, norm="forward")  # the unweighted sum, G ifftn

    def apply(self, f: GridFunction) -> GridFunction:
        if self.is_multiplier:
            return _multiply(self.spec, f, self._multiplier_table())
        return _dense_apply(self.spec, f, self._matrix_blocks())

    def _kernel_boxes(self, axes, most: int):
        """(box, K) over the boxes of _boxes that cut ``axes`` into at most
        ``most`` points (at least one): K the kernel rows of the box's
        distinct representatives, in C order over x_axes."""
        for box in _boxes(self.spec.sizes, tuple(axes), most):
            yield box, self.kernel_rows(_box_reps(box, self.spec, self.x_axes))

    def _matrix_rows(self):
        """Successive blocks (rows, M[rows]) of the grid-basis matrix, over
        boxes of at most _CHUNK grid rows, M[r, y] = K[rep(r), (x_r - y) mod N] / G."""
        G = self.spec.npoints
        flat = np.arange(G).reshape(self.spec.sizes)
        for box, K in self._kernel_boxes(range(self.spec.dim), _CHUNK):
            K /= G  # fresh, weighted in place
            yield flat[box].ravel(), _offset_view(K, box, self.spec, self.x_axes).copy().reshape(-1, G)

    def _build_matrix(self) -> np.ndarray:
        """M[x, y] = (1/G) k(x, y), a fresh array filled in place: each box of
        at most _BLOCK_BYTES of kernel rows makes the rows of its distinct
        representatives and copies every grid row of the box from them."""
        G = self.spec.npoints
        matrix = np.empty((G, G), dtype=np.complex128)
        grid = matrix.reshape(self.spec.sizes * 2)
        for box, K in self._kernel_boxes(self.x_axes, _BLOCK_BYTES // (16 * G)):
            K /= G
            grid[box] = _offset_view(K, box, self.spec, self.x_axes)
        return matrix

    def _grid_matrix(self) -> np.ndarray:
        """The grid-basis matrix M, built once, read-only."""
        _guard(self.spec)
        if self._matrix is None:
            self._matrix = self._build_matrix()
            self._matrix.flags.writeable = False
        return self._matrix

    def _dense(self):
        """(M, fresh): a multiplier's one kernel row gathered into a fresh
        array, or the cached, read-only M."""
        if self.is_multiplier:
            return self._build_matrix(), True
        return self._grid_matrix(), False

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
            return _multiply(self.spec, g, self._multiplier_table(adjoint=True))
        return _dense_adjoint(self.spec, g, self._matrix_blocks())


@dataclass
class DenseOperatorMatrix:
    """The G x G grid-basis matrix of an operator on ``spec``, quadrature weight included."""

    spec: GridSpec
    matrix: np.ndarray


def _guard(spec: GridSpec):
    if spec.npoints > MATRIX_GUARD:
        raise SizeGuardError(
            f"dense construction needs G={spec.npoints} > guard {MATRIX_GUARD}"
        )


def to_matrix(op) -> DenseOperatorMatrix:
    """Dense grid-basis matrix with rows = output points.

    Column y is the image of the unit-mass discrete delta at y divided by G,
    i.e. M[x, y] = (1/G) k(x, y); M @ f then reproduces apply(T, f).  Each
    operator's ``_dense`` gives (M, fresh), recursing through the wrappers: a
    PdoOperator its cached M or a multiplier's one row gathered, J^s o T
    J^s of the columns of T's matrix (in place when that is fresh) and T*
    the conjugate transpose of T's matrix.
    """
    _guard(op.spec)
    return DenseOperatorMatrix(op.spec, op._dense()[0])


def kernel_offset_rows(op, box: int = None) -> np.ndarray:
    """Kernel rows in offset form, K[r, z] = k(x_r, x_r - z), shape (rows,) + sizes.

    Every operator has one row per distinct x over its x_axes, in C order
    over those axes (representatives): a PdoOperator makes them from its
    symbol, by boxes of at most _BLOCK_BYTES of rows (a multiplier its one kernel
    row).  A wrapper that reads no axis commutes with every translation, so
    its one row is its image of a unit-mass delta at 0, K[0] = T(G delta_0);
    any other wrapper takes G times its dense matrix's representative rows
    regathered by offset.  ``box`` truncates them to a centered lattice
    sub-box (box_filter).  The dense size guard applies.
    """
    _guard(op.spec)
    spec = op.spec
    if isinstance(op, PdoOperator):
        K = np.empty((math.prod(spec.sizes[ax] for ax in op.x_axes),) + spec.sizes, dtype=complex)
        start = 0
        for _, rows in op._kernel_boxes(op.x_axes, _BLOCK_BYTES // (16 * spec.npoints)):
            K[start:start + len(rows)] = rows
            start += len(rows)
    elif not op.x_axes:
        delta = np.zeros((1,) + spec.sizes, dtype=complex)
        delta.flat[0] = spec.npoints
        K = op.apply(delta)
    else:
        reps_box = tuple(slice(None) if ax in op.x_axes else slice(0, 1) for ax in range(spec.dim))
        rows = to_matrix(op).matrix[_box_reps(reps_box, spec, op.x_axes)]
        K = _offset_view(rows, reps_box, spec, op.x_axes).copy().reshape((-1,) + spec.sizes)
        K *= spec.npoints  # fresh, scaled in place
    return K if box is None else box_filter(K, box, spec)


def box_filter(K: np.ndarray, box: int, spec: GridSpec) -> np.ndarray:
    """K with each offset row cut to the frequencies of the centered sub-box of
    per-axis size ``box``, an even integer >= 2 (an axis no larger than it
    stays whole), in place by row blocks, so no G^2 temporary is made."""
    if box < 2 or box % 2:
        raise ValidationError(f"lattice box {box!r} must be an even integer >= 2", field="box")
    axes = tuple(range(1, 1 + spec.dim))
    inside = reduce(np.logical_and,
                    [(xi >= -(box // 2)) & (xi < box // 2) for xi in spec.fft_frequencies()])
    for block in np.split(K, range(_CHUNK, len(K), _CHUNK)):  # views
        np.fft.fftn(block, axes=axes, out=block)
        block *= inside
        np.fft.ifftn(block, axes=axes, out=block)
    return K


def representatives(flat_rows, spec: GridSpec, axes):
    """(index, rep) of each flat grid row: its representative among the
    distinct x over ``axes`` is the grid point rep with the row's coordinates
    on ``axes`` and 0 on every other axis, and index its position among
    them in C order over ``axes``.  Over every axis each row represents
    itself; over none both are 0, one row for every x."""
    index = rep = 0
    for ax, (c, n) in enumerate(zip(np.unravel_index(flat_rows, spec.sizes), spec.sizes)):
        rep = rep * n
        if ax in axes:
            index, rep = index * n + c, rep + c
    return index, rep


def _boxes(sizes: tuple, axes: tuple, most: int) -> list:
    """Boxes of the grid, tuples of one slice per axis, in C order, that cut
    only ``axes`` and hold at most ``most`` points over them (at least one):
    the first of ``axes`` is cut into ranges, into single values if the rest
    of ``axes`` hold more than ``most``, which are then cut the same way."""
    if math.prod(sizes[ax] for ax in axes) <= most:
        return [(slice(None),) * len(sizes)]
    first, step = axes[0], max(1, most // math.prod(sizes[ax] for ax in axes[1:]))
    return [box[:first] + (slice(lo, min(lo + step, sizes[first])),) + box[first + 1:]
            for lo in range(0, sizes[first], step) for box in _boxes(sizes, axes[1:], most)]


def _box_reps(box: tuple, spec: GridSpec, axes) -> np.ndarray:
    """The flat representatives of the grid rows of ``box`` over ``axes``,
    distinct and in C order: the box's coordinates on ``axes``, 0 elsewhere."""
    on_axes = tuple(s if ax in axes else slice(0, 1) for ax, s in enumerate(box))
    return np.arange(spec.npoints).reshape(spec.sizes)[on_axes].ravel()


def _offset_view(values: np.ndarray, box: tuple, spec: GridSpec, axes) -> np.ndarray:
    """out[x, w] = values[i(x), (x - w) mod N] for the grid points x of
    ``box``, shape (box extents) + sizes, where i(x) is the C-order position
    of x's coordinates on ``axes`` within the box: one value row per
    distinct x over ``axes``.

    The map w -> (x - w) mod N is its own inverse, so one view serves both
    directions between dense rows k(x, y) and offset rows k(x, x - z).  It
    is a read-only strided view of one fresh array W, the value rows
    repeated twice along every axis, so out[x, w] = W[i(x), N + x - w] is
    affine in (x, w) and every entry a copy.  A view may repeat entries of
    W: copy it before writing.
    """
    sizes = spec.sizes
    values = np.asarray(values, dtype=np.complex128).reshape((-1,) + sizes)
    W = np.empty((len(values),) + tuple(2 * n for n in sizes), dtype=np.complex128)
    for corner in product(*((0, n) for n in sizes)):
        W[(slice(None),) + tuple(slice(c, c + n) for c, n in zip(corner, sizes))] = values
    row_stride, *strides = W.strides
    bounds = [s.indices(n)[:2] for s, n in zip(box, sizes)]
    x_strides = [0] * spec.dim
    for ax in reversed(range(spec.dim)):  # i(x) in C order over the box's extents on axes
        x_strides[ax] = (row_stride if ax in axes else 0) + strides[ax]
        row_stride *= bounds[ax][1] - bounds[ax][0] if ax in axes else 1
    base = W[(slice(None),) + tuple(slice(n + lo, None) for n, (lo, _) in zip(sizes, bounds))]
    return np.lib.stride_tricks.as_strided(base, tuple(hi - lo for lo, hi in bounds) + sizes,
                                           x_strides + [-s for s in strides], writeable=False)


def offsets_to_full(K_offsets: np.ndarray, spec: GridSpec, x_axes=None) -> np.ndarray:
    """Dense k(x, y) matrix from offset rows, one per distinct x over
    ``x_axes`` (by default every axis)."""
    axes = range(spec.dim) if x_axes is None else x_axes
    G = spec.npoints
    return _offset_view(K_offsets, (slice(None),) * spec.dim, spec, axes).copy().reshape(G, G)


class MultiplierOperator(PdoOperator):
    """Fourier multiplier whose lattice profile is given rather than evaluated.

    It has no symbol expression, so it cannot be rebuilt on another grid.
    """

    def __init__(self, profile, spec: GridSpec, label: str = "multiplier",
                 class_params: ClassParams = None):
        self.expr, self.spec, self.params = None, spec, {}
        self.class_params, self.label = class_params, label
        self.lattice, self.x_axes = spec.lattice(), ()
        self._profile, self._table = _fft_table(np.reshape(profile, self.lattice.sizes), label)
        self._adjoint_table = None

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
        self.spec, self.x_axes = self.inner.spec, self.inner.x_axes
        self.class_params = _shifted(self.inner.class_params, self.s)
        self.label = f"J^{self.s:g} o {self.inner.label}"
        self._bessel = _bessel_potential(self.spec, self.s)

    def _dense(self):
        """J^s of the inner matrix's columns, by stacks of _CHUNK columns, in
        place when that matrix is fresh (a cached M is not)."""
        M, fresh = self.inner._dense()
        out = M if fresh else np.empty(M.shape, dtype=np.complex128)
        for start in range(0, len(M), _CHUNK):
            images = self._bessel.apply(M[:, start:start + _CHUNK].T.reshape((-1,) + self.spec.sizes))
            out[:, start:start + _CHUNK] = images.reshape(-1, len(M)).T
        return out, True

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
        self.spec, self.x_axes = self.inner.spec, self.inner.x_axes
        self.class_params = self.inner.class_params
        self.label = f"adjoint({self.inner.label})"

    def _dense(self):
        """The conjugate transpose of the inner matrix, in C order as every
        other: in place by square tiles when that matrix is fresh, else (a
        cached M) new."""
        M, fresh = self.inner._dense()
        if not fresh:
            return np.conj(M.T, out=np.empty(M.shape, dtype=np.complex128)), True
        for i in range(0, len(M), _CHUNK):
            for j in range(i, len(M), _CHUNK):
                upper = np.conj(M[i:i + _CHUNK, j:j + _CHUNK].T)  # fresh
                if j > i:
                    np.conj(M[j:j + _CHUNK, i:i + _CHUNK].T, out=M[i:i + _CHUNK, j:j + _CHUNK])
                M[j:j + _CHUNK, i:i + _CHUNK] = upper
        return M, True

    def apply(self, f: GridFunction) -> GridFunction:
        return self.inner.apply_adjoint(f)

    def apply_adjoint(self, g: GridFunction) -> GridFunction:
        return self.inner.apply(g)

    def on(self, spec: GridSpec) -> "AdjointOperator":
        return AdjointOperator(self.inner.on(spec))

