import importlib
import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from toruslab import operators
from toruslab.calculus import ClassParams
from toruslab.errors import DslError, SizeGuardError, ValidationError
from toruslab.grid import GridFunction, GridSpec, pure_wave
from toruslab.kernels import derivative_kernel, synthesize_kernel
from toruslab.operators import (
    AdjointOperator,
    MultiplierOperator,
    ComposedOperator,
    PdoOperator,
    bessel_apply,
    compose_bessel,
    kernel_offset_rows,
    offsets_to_full,
    to_matrix,
)
from toruslab.symbols import bessel, eval_expr, exotic, parse, wainger

from helpers import full_to_offsets, gather_offsets, inner_product

FOUR_FAMILIES = [bessel(-1.0), wainger(0.5, 1.0), exotic(0.0, 0.75, 1.0), exotic(-0.5, 0.5, 2.0)]


def random_function(spec, seed):
    rng = np.random.default_rng(seed)
    return GridFunction(spec, rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes))


class TestApply:
    def test_unit_symbol_is_identity(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_text("1", spec)
        f = random_function(spec, 0)
        out = T.apply(f)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_x_only_symbol_multiplies_pointwise(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_text("2+sin(2*pi*x1)", spec)
        f = random_function(spec, 1)
        out = T.apply(f)
        a = 2 + np.sin(2 * np.pi * spec.axes()[0])
        want = a * f.values
        assert np.max(np.abs(out.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_dense_matrix(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-1.0, 0.75, 1.0), spec)
        M = to_matrix(T)
        for seed in range(3):
            f = random_function(spec, seed)
            direct = T.apply(f).values.ravel()
            via_matrix = M.matrix @ f.values.ravel()
            assert np.max(np.abs(direct - via_matrix)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize("fam", FOUR_FAMILIES, ids=lambda f: f.label())
    def test_multiplier_fast_path_equals_general(self, fam):
        spec = GridSpec((64,))
        T = PdoOperator.from_family(fam, spec)
        f = random_function(spec, 42)
        got = T.apply(f)
        general = operators._dense_apply(spec, f, T._matrix_blocks())
        assert np.max(np.abs(got.values - general.values)) <= 1e-12 * np.max(
            np.abs(general.values)
        )

    def test_linearity(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(0.0, 0.5, 1.0), spec)
        f, g = random_function(spec, 5), random_function(spec, 6)
        a, b = 1.7 - 0.3j, -0.8 + 2.1j
        combo = GridFunction(spec, a * f.values + b * g.values)
        lhs = T.apply(combo).values
        rhs = a * T.apply(f).values + b * T.apply(g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_grid_mismatch(self):
        T = PdoOperator.from_text("1", GridSpec((32,)))
        with pytest.raises(ValidationError):
            T.apply(random_function(GridSpec((16,)), 0))

    def test_truncation_stability_for_low_order(self):
        # band-limited input, smooth symbol of order <= -n-1: doubling the
        # lattice leaves the result unchanged on the common grid points
        expr = parse("(1+0.5*sin(2*pi*x1))*bracket(xi1)^(-2)")
        coarse, fine = GridSpec((64,)), GridSpec((128,))
        rng = np.random.default_rng(9)
        coeffs = np.zeros(64, dtype=complex)
        band = slice(32 - 8, 32 + 8)
        coeffs[band] = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        from toruslab.grid import SpectralFunction, inverse_dft

        f64 = inverse_dft(SpectralFunction(coarse.lattice(), coeffs))
        f128 = GridFunction(fine, np.zeros(128, dtype=complex))
        pad = np.zeros(128, dtype=complex)
        pad[64 - 32 : 64 + 32] = coeffs
        f128 = inverse_dft(SpectralFunction(fine.lattice(), pad))
        out64 = PdoOperator.from_text("(1+0.5*sin(2*pi*x1))*bracket(xi1)^(-2)", coarse).apply(f64)
        out128 = PdoOperator.from_text("(1+0.5*sin(2*pi*x1))*bracket(xi1)^(-2)", fine).apply(f128)
        common = out128.values[::2]
        rel = np.max(np.abs(out64.values - common)) / np.max(np.abs(common))
        assert rel <= 1e-8


class TestBessel:
    def test_zero_order_is_identity(self):
        spec = GridSpec((32,))
        f = random_function(spec, 2)
        out = bessel_apply(0.0, f)
        assert np.max(np.abs(out.values - f.values)) <= 1e-13 * np.max(np.abs(f.values))

    def test_inverse_pair(self):
        spec = GridSpec((64,))
        f = random_function(spec, 3)
        out = bessel_apply(-1.5, bessel_apply(1.5, f))
        assert np.max(np.abs(out.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_wave_is_eigenfunction(self):
        spec = GridSpec((32,))
        xi0 = (5,)
        f = pure_wave(spec, xi0)
        out = bessel_apply(-2.0, f)
        lam = (1 + 5.0**2) ** (-1.0)
        assert np.max(np.abs(out.values - lam * f.values)) <= 1e-12


class TestToMatrix:
    def test_identity_matrix(self):
        spec = GridSpec((16,))
        M = to_matrix(PdoOperator.from_text("1", spec))
        assert np.max(np.abs(M.matrix - np.eye(16))) < 1e-12

    def test_multiplier_is_circulant(self):
        spec = GridSpec((16,))
        M = to_matrix(PdoOperator.from_family(bessel(-1.0), spec)).matrix
        for shift in (1, 5):
            rolled = np.roll(np.roll(M, shift, axis=0), shift, axis=1)
            assert np.max(np.abs(M - rolled)) < 1e-12

    def test_matches_apply_on_random_vectors(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-1.0, 0.75, 1.0), spec)
        M = to_matrix(T).matrix
        for seed in range(20):
            f = random_function(spec, 100 + seed)
            lhs = M @ f.values.ravel()
            rhs = T.apply(f).values.ravel()
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    def test_column_is_scaled_delta_image(self):
        spec = GridSpec((16,))
        T = PdoOperator.from_family(wainger(0.5, 1.0), spec)
        M = to_matrix(T).matrix
        y = 5
        delta = np.zeros(16, dtype=complex)
        delta[y] = 16.0  # unit quadrature mass
        img = T.apply(GridFunction(spec, delta)).values.ravel()
        assert np.max(np.abs(M[:, y] * 16.0 - img)) <= 1e-10 * np.max(np.abs(img))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            to_matrix(PdoOperator.from_text("1", GridSpec((128, 64))))

    @pytest.mark.parametrize("sizes", [(64,), (16, 16), (8, 16)])
    @pytest.mark.parametrize("wrap", ["composed", "adjoint"])
    def test_wrapped_general_reuses_its_matrix(self, monkeypatch, sizes, wrap):
        # J^s o T maps M's columns, and T* is M's conjugate transpose, with no
        # basis apply through T: the basis images bit for bit, in C order
        spec = GridSpec(sizes)
        G = spec.npoints
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), spec)
        op = compose_bessel(T, -0.5, "left") if wrap == "composed" else AdjointOperator(T)
        want = op.apply(np.eye(G).reshape((G,) + sizes)).reshape(G, G).T
        for name in ("apply", "apply_adjoint"):
            monkeypatch.setattr(T, name, None)
        got = to_matrix(op).matrix
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    def test_2d_kernel_matches_apply(self):
        spec = GridSpec((8, 8))
        T = PdoOperator.from_family(exotic(-1.0, 0.5, 1.0), spec)
        M = to_matrix(T).matrix
        f = random_function(spec, 11)
        lhs = M @ f.values.ravel()
        rhs = T.apply(f).values.ravel()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


class TestAdjoint:
    def test_real_multiplier_self_adjoint(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(bessel(-1.0), spec)
        A = to_matrix(AdjointOperator(T))
        assert np.max(np.abs(A.matrix - to_matrix(T).matrix)) < 1e-12

    def test_skew_multiplier(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_text("i*bracket(xi1)^(-1)", spec)
        A = to_matrix(AdjointOperator(T))
        assert np.max(np.abs(A.matrix + to_matrix(T).matrix)) < 1e-12

    def test_duality_identity(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), spec)
        A = to_matrix(AdjointOperator(T))
        for seed in range(50):
            f = random_function(spec, 200 + seed)
            g = random_function(spec, 300 + seed)
            lhs = inner_product(T.apply(f), g)
            rhs = inner_product(f, A.apply(g))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_matrix_free_adjoint_action(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        A = to_matrix(AdjointOperator(T))
        g = random_function(spec, 17)
        lhs = T.apply_adjoint(g).values
        rhs = A.apply(g).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    # fresh inner matrices: a multiplier's gathered row and a composition's
    FRESH = {
        "multiplier": lambda spec: PdoOperator.from_text("i*bracket(xi)^(-1) + xi1", spec),
        "composed": lambda spec: ComposedOperator(PdoOperator.from_family(bessel(-1.0), spec), 0.5),
        "composed-general": lambda spec: ComposedOperator(_general(spec), -0.5),
    }

    @pytest.mark.parametrize("sizes, tile", [((64,), 24), ((8, 16), 24), ((32, 32), None)])
    @pytest.mark.parametrize("kind", list(FRESH))
    def test_fresh_matrix_transposed_in_place(self, monkeypatch, sizes, tile, kind):
        # tiles that do not divide G leave partial ones on the edges
        if tile is not None:
            monkeypatch.setattr(operators, "_CHUNK", tile)
        inner = self.FRESH[kind](GridSpec(sizes))
        want = np.conj(to_matrix(inner).matrix.T)
        got = to_matrix(AdjointOperator(inner)).matrix
        assert got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    def test_fresh_matrix_adjoint_memory(self):
        # the multiplier's gathered matrix (16 MiB at G = 1024) transposed in
        # place by 256 x 256 tiles; a second array would be 16 MiB more
        J = PdoOperator.from_family(bessel(-1.0), GridSpec((32, 32)))
        tracemalloc.start()
        try:
            to_matrix(AdjointOperator(J))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 19 * 2**20  # 18.1 MiB measured, 32.1 with a new array


class TestCompose:
    def test_zero_shift_is_same_operator(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(bessel(-1.0), spec)
        C = compose_bessel(T, 0.0, "left")
        f = random_function(spec, 4)
        assert np.max(np.abs(C.apply(f).values - T.apply(f).values)) < 1e-12

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_potential_semigroup(self, side):
        spec = GridSpec((32,))
        J_t = PdoOperator.from_family(bessel(-0.7), spec)
        C = compose_bessel(J_t, -0.5, side)
        f = random_function(spec, 5)
        want = bessel_apply(-1.2, f)
        assert np.max(np.abs(C.apply(f).values - want.values)) <= 1e-12 * np.max(
            np.abs(want.values)
        )

    def test_matrix_matches_product(self):
        spec = GridSpec((16,))
        T = PdoOperator.from_family(exotic(-1.0, 0.5, 1.0), spec)
        C = compose_bessel(T, 0.5, "right")
        M = to_matrix(C).matrix
        f = random_function(spec, 6)
        lhs = M @ f.values.ravel()
        rhs = C.apply(f).values.ravel()
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_right_composition_is_a_symbol(self, sizes):
        # Op(p) o J^s = Op(p <xi>^s): kernel synthesis, lattice truncation and
        # derivative kernels work on it, and its kernel is the matrix product
        spec = GridSpec(sizes)
        T = PdoOperator.from_family(exotic(-1.0, 0.5, 1.0), spec)
        C = compose_bessel(T, 0.5, "right")
        assert isinstance(C, PdoOperator)
        assert C.label == "exotic(-1, 0.5, 1) o J^0.5"
        assert (C.class_params.m, C.class_params.rho, C.class_params.delta) == (-0.5, 0.5, 0.5)
        J = PdoOperator.from_family(bessel(0.5), spec)
        product_kernel = (to_matrix(T).matrix @ to_matrix(J).matrix) * spec.npoints
        want = full_to_offsets(product_kernel, spec)
        G = spec.npoints
        assert max_rel_diff(every_row(synthesize_kernel(C).offset_rows, G), want) <= 1e-12
        assert max_rel_diff(full_to_offsets(to_matrix(C).matrix * spec.npoints, spec), want) <= 1e-12
        # an axis no larger than the box stays whole on its own; the others
        # are truncated
        truncated = every_row(synthesize_kernel(C, lattice_box=4).offset_rows, G)
        assert max_rel_diff(truncated, offset_rows_by_definition(C, 4)) <= 1e-12
        dx = derivative_kernel(C, (1,) + (0,) * (spec.dim - 1), (0,) * spec.dim)
        assert every_row(dx.offset_rows, G).shape == (spec.npoints,) + sizes
        assert np.all(np.isfinite(dx.offset_rows))

    def test_invalid_compositions_and_rebuilds_raise(self):
        spec = GridSpec((16,))
        T = PdoOperator.from_family(exotic(-1.0, 0.5, 1.0), spec)
        with pytest.raises(ValidationError, match="AdjointOperator"):
            compose_bessel(AdjointOperator(T), 0.5, "right")
        with pytest.raises(ValidationError, match="'up'"):
            compose_bessel(T, 0.5, "up")
        with pytest.raises(ValidationError, match="MultiplierOperator"):
            MultiplierOperator(np.ones(16), spec).on(GridSpec((32,)))

    def test_composed_class_order_shifts(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-1.0, 0.75, 1.0), spec)
        C = compose_bessel(T, 0.25, "left")
        assert C.class_params.m == pytest.approx(-0.75)
        assert C.class_params.rho == pytest.approx(0.25)
        assert C.class_params.delta == pytest.approx(0.75)


def max_rel_diff(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def every_row(offset_rows, G):
    """Offset rows of a symbol that reads x1 only (or every axis of a 1D
    grid, or none), repeated to one per grid row in C order."""
    return np.repeat(offset_rows, G // len(offset_rows), axis=0)


def direct_sums(op, f, g):
    """T f and T* g summed directly over the lattice, with explicit phases.

    (T f)(x) = sum_xi e^{2 pi i x.xi} p(x, xi) fhat(xi) with
    fhat(xi) = (1/G) sum_y e^{-2 pi i y.xi} f(y); T* is its conjugate
    transpose under the 1/G inner product.
    """
    x, xi = op.spec.points(), op.lattice.points().astype(float)
    G = op.spec.npoints
    p = eval_expr(op.expr, tuple(x.T[:, :, None]), tuple(xi.T[:, None, :]), op.params)
    phase = np.exp(2j * np.pi * x @ xi.T)
    A = phase * np.broadcast_to(p, phase.shape)
    Tf = A @ (phase.conj().T @ f.values.ravel()) / G
    Tg = phase @ (A.conj().T @ g.values.ravel()) / G
    return Tf.reshape(op.spec.sizes), Tg.reshape(op.spec.sizes)


class TestPhaseSymbolTable:
    def test_symbol_evaluated_once_per_operator(self, monkeypatch):
        calls = []
        original = PdoOperator.symbol_rows

        def counted(self, rows):
            calls.append(len(rows))
            return original(self, rows)

        monkeypatch.setattr(PdoOperator, "symbol_rows", counted)
        spec = GridSpec((64,))
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), spec)
        for seed in range(5):
            T.apply(random_function(spec, seed))
            T.apply_adjoint(random_function(spec, 10 + seed))
        to_matrix(T)
        assert calls == [spec.npoints]  # one table for apply, adjoint and the matrix
        kernel_offset_rows(T)
        kernel_offset_rows(T, 4)
        assert calls == [spec.npoints] * 3  # each kernel made from the symbol, in one block

    def test_multiplier_profile_evaluated_once(self, monkeypatch):
        calls = []
        spec = GridSpec((64,))
        T = PdoOperator.from_family(wainger(0.5, 1.0), spec)
        original = operators.eval_expr

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(operators, "eval_expr", counted)
        for seed in range(5):
            T.apply(random_function(spec, seed))
            T.apply_adjoint(random_function(spec, 10 + seed))
        to_matrix(T)
        kernel_offset_rows(T, 4)
        assert len(calls) == 1

    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (4, 8, 4)])
    def test_streamed_blocks_match_table(self, monkeypatch, sizes):
        spec = GridSpec(sizes)
        family = exotic(-0.5, 0.75, 1.0)
        f, g = random_function(spec, 1), random_function(spec, 2)
        cached = PdoOperator.from_family(family, spec)
        want_apply, want_adjoint = direct_sums(cached, f, g)
        assert max_rel_diff(cached.apply(f).values, want_apply) <= 1e-12
        assert max_rel_diff(cached.apply_adjoint(g).values, want_adjoint) <= 1e-12
        assert cached._matrix is not None
        # above the guard nothing is stored; a block size that does not divide
        # G leaves a partial last block
        monkeypatch.setattr(operators, "MATRIX_GUARD", 16)
        monkeypatch.setattr(operators, "_CHUNK", 24)
        streamed = PdoOperator.from_family(family, spec)
        assert max_rel_diff(streamed.apply(f).values, want_apply) <= 1e-12
        assert max_rel_diff(streamed.apply_adjoint(g).values, want_adjoint) <= 1e-12
        assert streamed._matrix is None

    def test_adjoint_identity_2d(self):
        spec = GridSpec((16, 8))
        T = PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), spec)
        for seed in range(5):
            f, g = random_function(spec, 400 + seed), random_function(spec, 500 + seed)
            lhs = inner_product(T.apply(f), g)
            rhs = inner_product(f, T.apply_adjoint(g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def direct_matrix(op):
    """M[x, y] = (1/G) sum_xi e^{2 pi i (x-y).xi} p(x, xi) summed directly, each
    phase e^{2 pi i x.xi} taken from x.xi = sum_j k_j xi_j / N_j reduced exactly mod 1."""
    spec = op.spec
    k = np.stack(np.unravel_index(np.arange(spec.npoints), spec.sizes), axis=-1)
    xi = op.lattice.points()
    turns = sum(np.mod(np.outer(k[:, j], xi[:, j]), n) / n for j, n in enumerate(spec.sizes))
    phase = np.exp(2j * np.pi * turns)
    x = spec.points()
    p = eval_expr(op.expr, tuple(x.T[:, :, None]), tuple(xi.T[:, None, :].astype(float)), op.params)
    return (phase * np.broadcast_to(p, phase.shape)) @ phase.conj().T / spec.npoints


class TestKernelRows:
    @pytest.mark.parametrize("sizes", [(64,), (16, 8), (4, 8, 4)])
    def test_multiplier_matrix_equals_general_path(self, sizes):
        # the same symbol made formally x-dependent takes the general path
        spec = GridSpec(sizes)
        multiplier = PdoOperator.from_text("bracket(xi)^(-1)", spec)
        general = PdoOperator.from_text("bracket(xi)^(-1) + 0*x1", spec)
        assert multiplier.is_multiplier and not general.is_multiplier
        assert max_rel_diff(to_matrix(multiplier).matrix, to_matrix(general).matrix) <= 1e-12

    @pytest.mark.parametrize("sizes", [(1024,), (32, 32)])
    def test_stored_matrix_matches_direct_sum(self, sizes):
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec(sizes))
        assert max_rel_diff(to_matrix(T).matrix, direct_matrix(T)) <= 1e-12

    def test_stored_matrix_build_memory(self):
        # M (16 MiB at G = 1024), filled in place from blocks of 64 kernel
        # rows (1 MiB each), their evaluation and their doubled copy
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((1024,)))
        tracemalloc.start()
        try:
            T._grid_matrix()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20  # M and 3.3 MiB measured

    def test_multiplier_matrix_memory(self):
        # the one kernel row, weighted by 1/G, copied to G x G (16 MiB at
        # G = 1024); a weighted copy of the matrix would be a second 16 MiB
        J = PdoOperator.from_family(bessel(-1.0), GridSpec((32, 32)))
        tracemalloc.start()
        try:
            to_matrix(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20  # 16.2 MiB measured, 32.0 with a copy


# symbols that read some of the grid axes, on grids where they skip others
PARTIAL_SYMBOLS = [
    ("exotic(-0.5, 0.75, 1)", (16, 8), (0,)),
    ("exp(i*sin(2*pi*x2)*bracket(xi)^0.5)*bracket(xi)^-1", (8, 16), (1,)),
    ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)*bracket(xi)^-1", (8, 4, 8), (0, 2)),
]


def every_row_blocks(op):
    """Blocks (rows, M[rows]) over the streamed boxes of at most _CHUNK grid
    rows, with kernel rows made for every grid row, each gathered by offset,
    M[r, y] = K[r, (x_r - y) mod N] / G."""
    G = op.spec.npoints
    flat = np.arange(G).reshape(op.spec.sizes)
    for box in operators._boxes(op.spec.sizes, tuple(range(op.spec.dim)), operators._CHUNK):
        rows = flat[box].ravel()
        block = gather_offsets(op.kernel_rows(rows), rows, op.spec)
        yield rows, block.reshape(rows.size, G) / G


def representative_points(rows, spec, axes):
    """The grid points of the flat ``rows`` with 0 on every axis but ``axes``."""
    points = spec.points()[rows]
    points[:, [ax for ax in range(spec.dim) if ax not in axes]] = 0.0
    return points


class TestDistinctX:
    """A symbol that skips grid axes is evaluated and transformed once per
    distinct x over the axes it reads; every value stays bit-identical."""

    @pytest.mark.parametrize("text, sizes, axes", PARTIAL_SYMBOLS)
    def test_reads_its_axes(self, text, sizes, axes):
        op = PdoOperator.from_text(text, GridSpec(sizes))
        assert op.x_axes == axes and not op.is_multiplier

    @pytest.mark.parametrize("text, sizes, axes", PARTIAL_SYMBOLS)
    def test_cached_matrix_apply_and_adjoint_are_bit_identical(self, text, sizes, axes):
        spec = GridSpec(sizes)
        op = PdoOperator.from_text(text, spec)
        want = np.concatenate([block for _, block in every_row_blocks(op)])
        assert np.array_equal(to_matrix(op).matrix, want)
        F, H = random_stack(spec, 3, 1), random_stack(spec, 3, 2)
        blocks = [(slice(None), want)]
        assert np.array_equal(op.apply(F), operators._dense_apply(spec, F, blocks))
        assert np.array_equal(op.apply_adjoint(H), operators._dense_adjoint(spec, H, blocks))

    @pytest.mark.parametrize("text, sizes, axes", PARTIAL_SYMBOLS)
    def test_streamed_apply_and_adjoint_are_bit_identical(self, monkeypatch, text, sizes, axes):
        # a block size that does not divide G leaves a partial last block
        monkeypatch.setattr(operators, "MATRIX_GUARD", 16)
        monkeypatch.setattr(operators, "_CHUNK", 24)
        spec = GridSpec(sizes)
        op = PdoOperator.from_text(text, spec)
        F, H = random_stack(spec, 3, 1), random_stack(spec, 3, 2)
        assert np.array_equal(op.apply(F), operators._dense_apply(spec, F, every_row_blocks(op)))
        want = operators._dense_adjoint(spec, H, every_row_blocks(op))
        assert np.array_equal(op.apply_adjoint(H), want)
        assert op._matrix is None

    @pytest.mark.parametrize("text, sizes, axes", PARTIAL_SYMBOLS)
    def test_each_block_evaluates_its_distinct_rows(self, monkeypatch, text, sizes, axes):
        spec = GridSpec(sizes)
        monkeypatch.setattr(operators, "_BLOCK_BYTES", 3 * 16 * spec.npoints)  # 3 rows a block
        op = PdoOperator.from_text(text, spec)
        calls = []
        original = operators.eval_expr
        monkeypatch.setattr(operators, "eval_expr", lambda *a: calls.append(a) or original(*a))
        for build in (to_matrix, kernel_offset_rows):
            calls.clear()
            build(op)
            boxes = list(operators._boxes(sizes, axes, 3))
            assert len(calls) == len(boxes) > 1
            flat = np.arange(spec.npoints).reshape(sizes)
            for box, (_, x, xi, _) in zip(boxes, calls):
                want = np.unique(representative_points(flat[box].ravel(), spec, axes), axis=0)
                got = np.stack([c.ravel() for c in x], axis=-1)
                assert np.array_equal(got, want)  # each distinct x of the box once, in order
                assert len(want) <= 3
                assert np.broadcast(*x, *xi).size == len(want) * spec.npoints
            every = np.concatenate([np.stack([c.ravel() for c in x], axis=-1) for _, x, _, _ in calls])
            assert np.array_equal(every, np.unique(every, axis=0))  # each distinct x once overall

    def test_a_symbol_that_reads_every_axis_makes_every_row(self, monkeypatch):
        spec = GridSpec((8, 16))
        op = PdoOperator.from_text("exp(i*sin(2*pi*(x1+x2))*bracket(xi)^0.5)", spec)
        assert op.x_axes == (0, 1)
        calls = []
        monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a))
        assert np.array_equal(to_matrix(op).matrix,
                              np.concatenate([block for _, block in every_row_blocks(op)]))
        kernel_offset_rows(op)
        assert calls == []

    def test_a_symbol_of_x2_alone_on_a_1d_grid_raises(self):
        with pytest.raises(DslError, match="x2 out of range"):
            PdoOperator.from_text("exp(i*x2)", GridSpec((16,)))

    def test_on_recomputes_the_axes(self):
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), GridSpec((16,)))
        moved = T.on(GridSpec((16, 8)))
        assert T.x_axes == moved.x_axes == (0,)
        assert kernel_offset_rows(T).shape == (16, 16)
        assert kernel_offset_rows(moved).shape == (16, 16, 8)
        J = PdoOperator.from_family(bessel(-1.0), GridSpec((16,)))
        assert J.on(GridSpec((8, 8))).x_axes == ()

    def test_a_given_profile_reads_no_axis(self):
        M = MultiplierOperator(np.ones((8, 4)), GridSpec((8, 4)))
        assert M.x_axes == () and M.is_multiplier


def previous_block_build(op):
    """M built as blocks of _CHUNK grid rows: kernel rows of each block's
    distinct representatives, every grid row gathered from its own by an
    index array per axis, then weighted by 1/G."""
    G, spec = op.spec.npoints, op.spec
    blocks = []
    for start in range(0, G, operators._CHUNK):
        rows = np.arange(start, min(start + operators._CHUNK, G))
        reps, value_rows = np.unique(operators.representatives(rows, spec, op.x_axes)[1],
                                     return_inverse=True)
        block = gather_offsets(op.kernel_rows(reps), rows, spec, value_rows)
        block /= G
        blocks.append(block.reshape(rows.size, G))
    return np.concatenate(blocks)


def dense_route_kernel(op, box):
    """G times the representative rows of the dense matrix, regathered by offset."""
    spec = op.spec
    reps = np.unique(operators.representatives(np.arange(spec.npoints), spec, op.x_axes)[1])
    K = gather_offsets(to_matrix(op).matrix[reps], reps, spec) * spec.npoints
    return K if box is None else operators.box_filter(K, box, spec)


# symbols and grids of the bit-for-bit checks of the table builds
TABLE_CASES = [
    ("exotic(0, 0.75, 1)", (256,)),
    ("exotic(0, 0.75, 1)", (32, 32)),
    ("exp(i*sin(2*pi*x2)*bracket(xi)^0.5)*bracket(xi)^-1", (16, 32)),
    ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)*bracket(xi)^-1", (8, 4, 8)),
    ("exp(i*sin(2*pi*(x1+x2))*bracket(xi)^0.5)*bracket(xi)^-0.5", (16, 16)),
]


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


class TestTableBuilds:
    """Every table is made from the symbol in blocks of bounded size, with
    the same bits as the previous builds."""

    @pytest.mark.parametrize("text, sizes", TABLE_CASES)
    @pytest.mark.parametrize("box", [None, 4, 8])
    def test_direct_kernel_rows_equal_the_dense_route(self, text, sizes, box):
        op = PdoOperator.from_text(text, GridSpec(sizes))
        assert np.array_equal(bits(kernel_offset_rows(op, box)), bits(dense_route_kernel(op, box)))

    @pytest.mark.parametrize("text, sizes", TABLE_CASES)
    def test_small_blocks_change_no_bit(self, monkeypatch, text, sizes):
        op = PdoOperator.from_text(text, GridSpec(sizes))
        K, M = kernel_offset_rows(op), to_matrix(op).matrix
        monkeypatch.setattr(operators, "_BLOCK_BYTES", 3 * 16 * op.spec.npoints)  # 3 rows a block
        again = PdoOperator.from_text(text, GridSpec(sizes))
        assert np.array_equal(bits(kernel_offset_rows(again)), bits(K))
        assert np.array_equal(bits(to_matrix(again).matrix), bits(M))

    @pytest.mark.parametrize("sizes", [(1024,), (32, 32), (8, 4, 8)])
    def test_matrix_in_place_equals_the_previous_block_build(self, sizes):
        text = ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)*bracket(xi)^-1"
                if len(sizes) == 3 else "exotic(0, 0.75, 1)")
        op = PdoOperator.from_text(text, GridSpec(sizes))
        assert np.array_equal(bits(to_matrix(op).matrix), bits(previous_block_build(op)))

    @pytest.mark.parametrize("sizes, axes, most", [
        ((64,), (0,), 24), ((16, 8), (0, 1), 24), ((16, 8), (1,), 3), ((8, 4, 8), (0, 2), 5),
        ((8, 4, 8), (0, 1, 2), 256), ((8, 4, 8), (), 1), ((8, 4, 8), (1, 2), 16)])
    def test_boxes_tile_the_grid_in_c_order(self, sizes, axes, most):
        boxes = list(operators._boxes(sizes, axes, most))
        flat = np.arange(math.prod(sizes)).reshape(sizes)
        rows = np.concatenate([flat[box].ravel() for box in boxes])
        assert np.array_equal(np.sort(rows), np.arange(flat.size))  # each grid row once
        for box in boxes:
            assert all(box[ax] == slice(None) for ax in range(len(sizes)) if ax not in axes)
            assert math.prod(flat[box].shape[ax] for ax in axes) <= max(most, 1)
        if axes == tuple(range(len(sizes))):  # over every axis, successive row ranges
            assert np.array_equal(rows, np.arange(flat.size))

    def test_kernel_synthesis_memory_64x64(self):
        # the 64 distinct x1 rows (4 MiB), made in blocks of 16 from the
        # symbol; regathered from the dense matrix they would cost its 256 MiB
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((64, 64)))
        tracemalloc.start()
        try:
            synthesize_kernel(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20  # 8.0 MiB measured


def random_kernel(spec, seed):
    rng = np.random.default_rng(seed)
    shape = (spec.npoints, spec.npoints)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def offsets_by_definition(kernel, sizes):
    """K[r, z] = k(x_r, x_r - z), one entry at a time."""
    G = kernel.shape[0]
    out = np.empty((G,) + sizes, dtype=np.complex128)
    for r, z in product(range(G), np.ndindex(*sizes)):
        xr = np.unravel_index(r, sizes)
        y = np.ravel_multi_index(tuple((a - b) % n for a, b, n in zip(xr, z, sizes)), sizes)
        out[(r,) + z] = kernel[r, y]
    return out


def offset_rows_by_definition(op, box):
    """K[r, z] = sum over xi in the centered box of e^{2 pi i z.xi} p(x_r, xi).

    Both the grid points x_r and the offsets z run over the grid points.
    """
    spec = op.spec
    points = spec.points()
    xi = op.lattice.points()
    xi = xi[np.all((xi >= -(box // 2)) & (xi < box // 2), axis=1)]
    phase = np.exp(2j * np.pi * points @ xi.T)
    out = np.empty((spec.npoints, spec.npoints), dtype=np.complex128)
    for r in range(spec.npoints):
        p_r = eval_expr(op.expr, tuple(points[r]), tuple(xi.T.astype(float)), op.params)
        out[r] = phase @ np.broadcast_to(p_r, xi.shape[:1])
    return out.reshape((spec.npoints,) + spec.sizes)


def offset_rows_by_toroidal_symbol(op, box):
    """K[r, z] = sum over xi in the centered box of e^{2 pi i z.xi} sigma(x_r, xi),

    with the toroidal symbol sigma(x, xi) = e^{-2 pi i x.xi} (T e_xi)(x) read
    off the operator's action on each character e_xi.
    """
    spec = op.spec
    points = spec.points()
    xi = spec.lattice().points()
    xi = xi[np.all((xi >= -(box // 2)) & (xi < box // 2), axis=1)]
    sigma = np.empty((spec.npoints, len(xi)), dtype=np.complex128)
    for j, xi_j in enumerate(xi):
        wave = pure_wave(spec, xi_j)
        sigma[:, j] = (np.conj(wave.values) * op.apply(wave).values).ravel()
    out = sigma @ np.exp(2j * np.pi * points @ xi.T).T
    return out.reshape((spec.npoints,) + spec.sizes)


def _general(spec):
    return PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)


# wrappers over a symbol that reads x1 only, and over a multiplier
WRAPPERS = {
    "left": lambda spec: compose_bessel(_general(spec), -0.5, "left"),
    "adjoint": lambda spec: AdjointOperator(_general(spec)),
    "adjoint-left": lambda spec: AdjointOperator(compose_bessel(_general(spec), -0.5, "left")),
    "left-adjoint": lambda spec: ComposedOperator(AdjointOperator(_general(spec)), -0.5),
    "left-multiplier": lambda spec: ComposedOperator(
        PdoOperator.from_family(bessel(-1.0), spec), 0.5),
}


class TestOffsetRows:
    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_matches_definition(self, sizes):
        spec = GridSpec(sizes)
        kernel = random_kernel(spec, 7)
        offsets = offsets_by_definition(kernel, sizes)
        assert np.array_equal(full_to_offsets(kernel, spec), offsets)
        assert np.array_equal(offsets_to_full(offsets, spec), kernel)

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_inverse_pair(self, sizes):
        spec = GridSpec(sizes)
        kernel = random_kernel(spec, 8)
        offsets = random_kernel(spec, 9).reshape((spec.npoints,) + sizes)
        assert np.array_equal(offsets_to_full(full_to_offsets(kernel, spec), spec), kernel)
        assert np.array_equal(full_to_offsets(offsets_to_full(offsets, spec), spec), offsets)

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    @pytest.mark.parametrize("fam", [wainger(0.5, 1.0), exotic(-0.5, 0.75, 1.0)],
                             ids=lambda f: f.label())
    @pytest.mark.parametrize("box", [None, 4])
    def test_kernel_rows_match_definition(self, sizes, fam, box):
        spec = GridSpec(sizes)
        T = PdoOperator.from_family(fam, spec)
        want = offset_rows_by_definition(T, max(sizes) if box is None else box)
        assert max_rel_diff(every_row(kernel_offset_rows(T, box), spec.npoints), want) <= 1e-12

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_box_filter_by_row_blocks(self, monkeypatch, sizes):
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), GridSpec(sizes))
        whole = kernel_offset_rows(T, 4)  # one block: G <= _CHUNK
        monkeypatch.setattr(operators, "_CHUNK", 5)  # blocks of 5 rows, the last one partial
        assert np.array_equal(kernel_offset_rows(T, 4), whole)

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    @pytest.mark.parametrize("wrap", list(WRAPPERS))
    def test_any_operator_can_be_truncated(self, sizes, wrap):
        # a wrapper commutes with the translations its inner operator commutes
        # with, so it has one row per distinct x over the inner x_axes
        spec = GridSpec(sizes)
        op = WRAPPERS[wrap](spec)
        K = kernel_offset_rows(op, 4)
        assert len(K) == math.prod(sizes[ax] for ax in op.x_axes)
        want = offset_rows_by_toroidal_symbol(op, 4)
        assert max_rel_diff(every_row(K, spec.npoints), want) <= 1e-12

    @pytest.mark.parametrize("box", [0, -8, 1, 3, 2.5])
    def test_box_must_be_even_integer(self, box):
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), GridSpec((16,)))
        with pytest.raises(ValidationError, match="box"):
            kernel_offset_rows(T, box)

    def test_size_guard_covers_multipliers(self, monkeypatch):
        monkeypatch.setattr(operators, "MATRIX_GUARD", 16)
        T = PdoOperator.from_family(bessel(-1.0), GridSpec((32,)))
        assert T.is_multiplier
        with pytest.raises(SizeGuardError):
            kernel_offset_rows(T)


def shifted_multiply(values, profile):
    """The multiplier through the shifted spectrum, (1/G)-weighted DFT and G-weighted series."""
    G = values.size
    coeffs = np.fft.fftshift(np.fft.fftn(values)) / G * profile
    return np.fft.ifftn(np.fft.ifftshift(coeffs)) * G


class TestMultiplierTable:
    @pytest.mark.parametrize("sizes", [(64,), (16, 32), (8, 4, 16)])
    def test_bit_identical_to_shifted_formula(self, sizes):
        spec = GridSpec(sizes)
        f, g = random_function(spec, 1), random_function(spec, 2)
        rng = np.random.default_rng(3)
        stored = rng.standard_normal(sizes) + 1j * rng.standard_normal(sizes)
        T = PdoOperator.from_family(wainger(0.5, 1.0), spec)
        js = spec.lattice().bracket_grid() ** -0.75
        cases = [(T, T.multiplier_profile()), (MultiplierOperator(stored, spec), stored)]
        for op, profile in cases:
            assert np.array_equal(op.apply(f).values, shifted_multiply(f.values, profile))
            want = shifted_multiply(g.values, np.conj(profile))
            assert np.array_equal(op.apply_adjoint(g).values, want)
        C = compose_bessel(T, -0.75, "left")
        want = shifted_multiply(shifted_multiply(f.values, T.multiplier_profile()), js)
        assert np.array_equal(C.apply(f).values, want)
        want = shifted_multiply(shifted_multiply(g.values, js), np.conj(T.multiplier_profile()))
        assert np.array_equal(C.apply_adjoint(g).values, want)
        assert np.array_equal(bessel_apply(-0.75, f).values, shifted_multiply(f.values, js))

    @pytest.mark.parametrize("sizes", [(64,), (16, 32), (8, 4, 16)])
    def test_stack_is_the_fftn_formula(self, sizes):
        # the axis-by-axis transforms in place are fftn and ifftn bit for bit,
        # and the input stack is left as it was
        spec = GridSpec(sizes)
        axes = tuple(range(1, 1 + spec.dim))
        F = random_stack(spec, 4, 5)
        before = F.copy()
        stored = random_stack(spec, 1, 6)[0]
        for op in (PdoOperator.from_family(wainger(0.5, 1.0), spec), MultiplierOperator(stored, spec)):
            table = np.fft.ifftshift(op.multiplier_profile())
            for act, t in ((op.apply, table), (op.apply_adjoint, np.conj(table))):
                assert np.array_equal(act(F), np.fft.ifftn(np.fft.fftn(F, axes=axes) * t, axes=axes))
            assert np.array_equal(F, before)

    def test_adjoint_table_is_built_once(self):
        # also for a MultiplierOperator, whose table is given, not evaluated
        spec = GridSpec((16,))
        g = random_stack(spec, 2, 0)
        for op in (PdoOperator.from_family(bessel(-1.0), spec), MultiplierOperator(g[0], spec)):
            op.apply_adjoint(g)
            table = op._adjoint_table
            op.apply_adjoint(g)
            assert op._adjoint_table is table
            assert np.array_equal(table, np.conj(np.fft.ifftshift(op.multiplier_profile())))
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @pytest.mark.parametrize("sizes", [(2048,), (32, 64)])
    def test_apply_holds_two_stacks(self, sizes):
        # one fresh stack transformed in place and numpy's copy of an
        # in-place input; the finite checks add masks of 1/16 stack each
        spec = GridSpec(sizes)
        op = PdoOperator.from_family(wainger(0.5, 1.0), spec)
        F = random_stack(spec, 4, 0)
        op.apply(F), op.apply_adjoint(F)  # both tables built
        for act in (op.apply, op.apply_adjoint):
            tracemalloc.start()
            try:
                act(F)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.25 * F.nbytes  # 2.01 measured

    def test_tables_are_read_only(self):
        spec = GridSpec((16,))
        T = PdoOperator.from_family(bessel(-1.0), spec)
        M = MultiplierOperator(np.ones(16), spec)
        for table in (T.multiplier_profile(), M.multiplier_profile()):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0

    @pytest.mark.parametrize("use", ["apply", "adjoint", "to_matrix", "kernel_rows"])
    def test_non_finite_symbol_rejected(self, use):
        spec = GridSpec((2048,))
        T = PdoOperator.from_text("exp(xi1)", spec)
        f = random_function(spec, 0)
        calls = {
            "apply": lambda: T.apply(f),
            "adjoint": lambda: T.apply_adjoint(f),
            "to_matrix": lambda: to_matrix(T),
            "kernel_rows": lambda: kernel_offset_rows(T, 4),
        }
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match=r"'exp\(xi1\)'"):
            calls[use]()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_profile_rejected(self, bad):
        profile = np.ones(16, dtype=complex)
        profile[3] = bad
        with pytest.raises(ValidationError, match="'stored' has non-finite"):
            MultiplierOperator(profile, GridSpec((16,)), label="stored")


def operator_cases(spec=GridSpec((16,))):
    """One operator of every type on ``spec``."""
    general = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
    multiplier = PdoOperator.from_family(bessel(-1.0), spec)
    return {
        "general": general,
        "multiplier": multiplier,
        "stored": MultiplierOperator(np.random.default_rng(4).standard_normal(spec.sizes), spec),
        "composed": compose_bessel(general, -0.5, "left"),
        "composed-multiplier": ComposedOperator(multiplier, 0.5),
        "adjoint": AdjointOperator(multiplier),
        "dense": to_matrix(general),
    }


def basis_images(op):
    """The dense matrix column by column: op applied to the grid basis, by
    stacks of _CHUNK basis vectors."""
    G = op.spec.npoints
    matrix = np.empty((G, G), dtype=np.complex128)
    for start in range(0, G, operators._CHUNK):
        basis = np.eye(min(operators._CHUNK, G - start), G, start).reshape((-1,) + op.spec.sizes)
        matrix[:, start:start + operators._CHUNK] = op.apply(basis).reshape(-1, G).T
    return matrix


class TestProtocol:
    """Every operator carries x_axes, and to_matrix recurses through the wrappers."""

    AXES = {"general": (0,), "multiplier": (), "stored": (), "composed": (0,),
            "composed-multiplier": (), "adjoint": (), "dense": (0, 1)}

    @pytest.mark.parametrize("kind", list(operator_cases()))
    def test_every_operator_carries_its_axes(self, kind):
        assert operator_cases(GridSpec((8, 4)))[kind].x_axes == self.AXES[kind]

    @pytest.mark.parametrize("text, sizes, axes", PARTIAL_SYMBOLS)
    def test_nested_wrappers_take_the_inner_axes(self, text, sizes, axes):
        T = PdoOperator.from_text(text, GridSpec(sizes))
        nested = AdjointOperator(ComposedOperator(AdjointOperator(T), -0.5))
        assert nested.x_axes == nested.inner.x_axes == axes
        assert nested.on(GridSpec(sizes)).x_axes == axes
        assert ComposedOperator(AdjointOperator(to_matrix(T)), 0.5).x_axes == tuple(range(len(sizes)))

    @staticmethod
    def cases(spec):
        general = _general(spec)
        return {
            **operator_cases(spec),
            "adjoint-general": AdjointOperator(general),
            "adjoint-left": AdjointOperator(compose_bessel(general, -0.5, "left")),
            "left-adjoint": ComposedOperator(AdjointOperator(general), -0.5),
            "left-dense": ComposedOperator(to_matrix(general), -0.5),
            "adjoint-dense": AdjointOperator(to_matrix(general)),
        }

    # the matrices built from a general operator's M or a given one, which
    # are the basis images bit for bit; a multiplier's gathered row differs
    # from its FFT apply in the last bits
    EXACT = {"general", "composed", "dense", "adjoint-general", "left-adjoint", "left-dense",
             "adjoint-dense"}

    @pytest.mark.parametrize("sizes", [(64,), (8, 16), (4, 8, 4)])
    @pytest.mark.parametrize("kind", list(cases(GridSpec((16,)))))
    def test_matrix_is_the_basis_images(self, monkeypatch, sizes, kind):
        monkeypatch.setattr(operators, "_CHUNK", 24)  # stacks of columns, the last one partial
        op = self.cases(GridSpec(sizes))[kind]
        want = basis_images(op)
        chain = [op]  # no apply through the operator or the operators it wraps
        while hasattr(chain[-1], "inner"):
            chain.append(chain[-1].inner)
        for link, name in product(chain, ("apply", "apply_adjoint")):
            monkeypatch.setattr(link, name, None)
        got = to_matrix(op).matrix
        assert got.flags.c_contiguous
        if kind in self.EXACT:
            assert np.array_equal(got, want)
        else:
            assert max_rel_diff(got, want) <= 1e-13

    def test_a_wrapper_leaves_a_given_matrix_alone(self):
        spec = GridSpec((16,))
        D = to_matrix(_general(spec))
        D.matrix = D.matrix.copy()  # writeable, and the caller's
        before = D.matrix.copy()
        for op in (ComposedOperator(D, -0.5), AdjointOperator(ComposedOperator(D, 0.5)),
                   ComposedOperator(AdjointOperator(D), 0.5)):
            to_matrix(op)
            kernel_offset_rows(op)
        assert np.array_equal(D.matrix, before)
        T = _general(spec)
        to_matrix(ComposedOperator(T, -0.5))
        assert np.array_equal(T._matrix, before) and not T._matrix.flags.writeable


class TestGridMismatch:
    @pytest.mark.parametrize("kind", list(operator_cases()))
    @pytest.mark.parametrize("sizes", [(16, 16), (32,)])
    def test_every_operator_checks_the_grid(self, kind, sizes):
        op = operator_cases()[kind]
        f = random_function(GridSpec(sizes), 0)
        with pytest.raises(ValidationError, match="grid mismatch"):
            op.apply(f)
        with pytest.raises(ValidationError, match="grid mismatch"):
            op.apply_adjoint(f)


def random_stack(spec, count, seed):
    rng = np.random.default_rng(seed)
    shape = (count,) + spec.sizes
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStacks:
    """A value stack of shape (B,) + sizes is applied in one call; each of its
    functions comes out as the single-function apply gives it, bit for bit."""

    SIZES = [(64,), (8, 16), (4, 8, 4)]

    @staticmethod
    def assert_stack_equals_single(op, spec):
        F, H = random_stack(spec, 5, 1), random_stack(spec, 5, 2)
        TF, TH = op.apply(F), op.apply_adjoint(H)
        assert TF.shape == TH.shape == F.shape
        for b in range(len(F)):
            assert np.array_equal(TF[b], op.apply(GridFunction(spec, F[b])).values)
            assert np.array_equal(TH[b], op.apply_adjoint(GridFunction(spec, H[b])).values)

    @pytest.mark.parametrize("sizes", SIZES)
    def test_stack_equals_single(self, sizes):
        spec = GridSpec(sizes)
        for op in operator_cases(spec).values():
            self.assert_stack_equals_single(op, spec)

    @pytest.mark.parametrize("sizes", SIZES)
    def test_streamed_stack_equals_single(self, monkeypatch, sizes):
        # as in test_streamed_blocks_match_table: nothing stored, a partial last block
        monkeypatch.setattr(operators, "MATRIX_GUARD", 16)
        monkeypatch.setattr(operators, "_CHUNK", 24)
        spec = GridSpec(sizes)
        general = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        for op in (general, ComposedOperator(general, -0.5), AdjointOperator(general)):
            self.assert_stack_equals_single(op, spec)
        assert general._matrix is None

    def test_streamed_blocks_are_built_once_per_stack(self, monkeypatch):
        monkeypatch.setattr(operators, "MATRIX_GUARD", 16)
        spec = GridSpec((64,))
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        calls = []
        rows = T.symbol_rows
        monkeypatch.setattr(T, "symbol_rows", lambda flat: calls.append(flat.size) or rows(flat))
        T.apply(random_stack(spec, 6, 0))
        T.apply_adjoint(random_stack(spec, 6, 1))
        assert sum(calls) == 2 * spec.npoints

    @pytest.mark.parametrize("kind", list(operator_cases()))
    def test_stack_on_another_grid_raises(self, kind):
        op = operator_cases()[kind]
        for stack in (random_stack(GridSpec((32,)), 3, 0), random_stack(GridSpec((16,)), 1, 0)[0]):
            with pytest.raises(ValidationError, match="grid mismatch: function on"):
                op.apply(stack)
            with pytest.raises(ValidationError, match="grid mismatch: function on"):
                op.apply_adjoint(stack)

    @pytest.mark.filterwarnings("error")  # rejected before any arithmetic on it
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", list(operator_cases()))
    def test_non_finite_stack_raises(self, kind, bad):
        op = operator_cases()[kind]
        stack = random_stack(op.spec, 3, 0)
        stack[1, 5] = bad
        with pytest.raises(ValidationError, match="grid function contains non-finite values"):
            op.apply(stack)
        with pytest.raises(ValidationError, match="grid function contains non-finite values"):
            op.apply_adjoint(stack)

    @pytest.mark.parametrize("sizes", [(16,), (4, 8)])
    @pytest.mark.parametrize("kind", list(operator_cases()))
    def test_empty_stack(self, kind, sizes):
        op = operator_cases(GridSpec(sizes))[kind]
        empty = np.zeros((0,) + sizes, dtype=complex)
        assert op.apply(empty).shape == op.apply_adjoint(empty).shape == empty.shape

    def test_non_finite_output_raises(self):
        spec = GridSpec((16,))
        huge = MultiplierOperator(np.full(16, 1e300), spec)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValidationError, match="non-finite"):
            huge.apply(np.full((2, 16), 1e300))


class TestFromText:
    def test_family_with_a_second_class_raises(self):
        # a built-in family carries its own class; a nominal class beside it
        # would contradict it, so neither silently wins
        with pytest.raises(ValidationError, match=r"bessel\(-1\) carries its own class"):
            PdoOperator.from_text("bessel(-1)", GridSpec((16,)), class_params=ClassParams(5, 1, 0))

    def test_raw_expression_takes_the_nominal_class(self):
        cls = ClassParams(-1, 1, 0)
        op = PdoOperator.from_text("bracket(xi)^(-1)", GridSpec((16,)), class_params=cls)
        assert op.class_params == cls
        assert PdoOperator.from_text("bessel(-1)", GridSpec((16,))).class_params == ClassParams(-1, 1, 0)


class TestOn:
    """op.on(spec) is the same operator on another grid; a given table cannot move."""

    @staticmethod
    def general(spec):
        return PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)

    @pytest.mark.parametrize(
        "build",
        [
            lambda spec: TestOn.general(spec),
            lambda spec: PdoOperator.from_family(wainger(0.5, 1.0), spec),
            lambda spec: ComposedOperator(AdjointOperator(TestOn.general(spec)), -0.5),
            lambda spec: AdjointOperator(ComposedOperator(TestOn.general(spec), -0.5)),
        ],
        ids=["general", "multiplier", "composed-adjoint", "adjoint-composed"],
    )
    @pytest.mark.parametrize("sizes", [(32,), (8, 16)])
    def test_equals_a_fresh_build(self, build, sizes):
        spec = GridSpec(sizes)
        rebuilt = build(GridSpec((16,) * len(sizes))).on(spec)
        fresh = build(spec)
        assert type(rebuilt) is type(fresh) and rebuilt.spec == spec
        assert rebuilt.label == fresh.label and rebuilt.class_params == fresh.class_params
        f, g = random_function(spec, 1), random_function(spec, 2)
        assert np.array_equal(rebuilt.apply(f).values, fresh.apply(f).values)
        assert np.array_equal(rebuilt.apply_adjoint(g).values, fresh.apply_adjoint(g).values)

    def test_given_tables_cannot_be_rebuilt(self):
        spec = GridSpec((16,))
        cases = [
            (MultiplierOperator(np.ones(16), spec), "MultiplierOperator"),
            (to_matrix(self.general(spec)), "DenseOperatorMatrix"),
            # a composition is rebuilt through its inner operator
            (ComposedOperator(MultiplierOperator(np.ones(16), spec), 0.5), "MultiplierOperator"),
        ]
        for op, name in cases:
            with pytest.raises(ValidationError, match=name):
                op.on(GridSpec((32,)))

    def test_multiplier_operator_is_a_given_table_pdo(self):
        spec = GridSpec((16,))
        M = MultiplierOperator(np.arange(16.0), spec, label="ramp")
        assert isinstance(M, PdoOperator) and M.is_multiplier and M.lattice == spec.lattice()
        methods = {name for name, value in vars(MultiplierOperator).items() if callable(value)}
        assert methods == {"__init__", "on"}
        # there is no symbol to fold J^s into or to differentiate
        with pytest.raises(ValidationError, match="MultiplierOperator"):
            compose_bessel(M, 0.5, "right")
        with pytest.raises(ValidationError, match="expression-backed"):
            derivative_kernel(M, (1,), (0,))

    def test_different_profiles_are_different_operators(self):
        spec = GridSpec((16,))
        a = MultiplierOperator(np.ones(16), spec)
        b = MultiplierOperator(2 * np.ones(16), spec)
        assert a != b and a == a

    def test_dense_adjoint_makes_no_matrix_copy(self):
        spec = GridSpec((1024,))
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
        D = operators.DenseOperatorMatrix(spec, matrix)
        g = random_function(spec, 3)
        tracemalloc.start()
        try:
            got = D.apply_adjoint(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a G x G copy would be 16 MiB
        want = matrix.conj().T @ g.values
        assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_perfbench_tracer_hooks_resolve(monkeypatch):
    # the benchmark's tracer wraps operator and module functions by name and
    # raises on a missing one; uninstall restores every original
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracing = importlib.import_module("tracing")
    original = operators.kernel_offset_rows
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert operators.kernel_offset_rows is not original
    finally:
        tracer.uninstall()
    assert operators.kernel_offset_rows is original
