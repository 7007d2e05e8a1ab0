import importlib
import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from toruslab import operators
from toruslab.calculus import ClassParams
from toruslab.errors import SizeGuardError, ValidationError
from toruslab.grid import GridFunction, GridSpec, pure_wave
from toruslab.kernels import derivative_kernel, synthesize_kernel
from toruslab.operators import (
    AdjointOperator,
    MultiplierOperator,
    ComposedOperator,
    PdoOperator,
    bessel_apply,
    compose_bessel,
    full_to_offsets,
    inner_product,
    kernel_offset_rows,
    offsets_to_full,
    to_matrix,
)
from toruslab.symbols import bessel, eval_expr, exotic, parse, wainger

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
        assert max_rel_diff(synthesize_kernel(C).offset_rows, want) <= 1e-12
        assert max_rel_diff(full_to_offsets(to_matrix(C).matrix * spec.npoints, spec), want) <= 1e-12
        # an axis no larger than the box stays whole on its own; the others
        # are truncated
        truncated = synthesize_kernel(C, lattice_box=4).offset_rows
        assert max_rel_diff(truncated, offset_rows_by_definition(C, 4)) <= 1e-12
        dx = derivative_kernel(C, (1,) + (0,) * (spec.dim - 1), (0,) * spec.dim)
        assert dx.offset_rows.shape == (spec.npoints,) + sizes
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
        kernel_offset_rows(T)
        kernel_offset_rows(T, 4)
        assert len(calls) == math.ceil(spec.npoints / operators._CHUNK)

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

    @pytest.mark.parametrize("sizes", [(64,), (16, 8)])
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
        assert max_rel_diff(kernel_offset_rows(T, box), want) <= 1e-12

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    @pytest.mark.parametrize("wrap", ["left", "adjoint"])
    def test_any_operator_can_be_truncated(self, sizes, wrap):
        spec = GridSpec(sizes)
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        op = compose_bessel(T, -0.5, "left") if wrap == "left" else AdjointOperator(T)
        want = offset_rows_by_toroidal_symbol(op, 4)
        assert max_rel_diff(kernel_offset_rows(op, 4), want) <= 1e-12

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
