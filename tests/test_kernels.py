import math
import tracemalloc

import numpy as np
import pytest

from toruslab import kernels
from toruslab.calculus import ClassParams
from toruslab.errors import EmptyDomainError, SizeGuardError, ValidationError
from toruslab.grid import GridSpec, _center_distance_grid, offset_distance_grid, torus_distance
from toruslab.kernels import (
    KernelMatrix,
    decay_scan,
    derivative_kernel,
    log_bound_check,
    sigma_estimates,
    synthesize_kernel,
)
from toruslab.operators import AdjointOperator, PdoOperator, compose_bessel, to_matrix
from toruslab.symbols import bessel, exotic, wainger

from helpers import constant_function, dirichlet_kernel_closed_form

FOUR_FAMILIES = [bessel(-1.0), wainger(0.5, 1.0), exotic(0.0, 0.75, 1.0), exotic(-0.5, 0.5, 2.0)]


class TestSynthesize:
    def test_dirichlet_closed_form(self):
        spec = GridSpec((32,))
        k = synthesize_kernel(PdoOperator.from_text("1", spec))
        want = dirichlet_kernel_closed_form(spec)
        assert np.max(np.abs(k.offset_rows[0] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_dirichlet_closed_form_truncated(self):
        # the sub-box sum is the closed form of the smaller lattice
        spec = GridSpec((64,))
        k = synthesize_kernel(PdoOperator.from_text("1", spec), lattice_box=16)
        want = dirichlet_kernel_closed_form(GridSpec((16,)))
        z16 = np.arange(16) / 16
        got = k.offset_rows[0][np.isin(np.round(np.arange(64) / 64, 12), np.round(z16, 12))]
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("family", [bessel(-1.0), exotic(0.0, 0.75, 1.0)],
                             ids=["multiplier", "general"])
    def test_dense_kernel_is_the_scaled_matrix(self, family):
        # k(x, y) = G M[x, y] exactly: the offset rows are a regathering of G M
        spec = GridSpec((16, 8))
        op = PdoOperator.from_family(family, spec)
        assert np.array_equal(synthesize_kernel(op).full(), to_matrix(op).matrix * spec.npoints)

    def test_multiplier_kernel_is_translation_invariant(self):
        spec = GridSpec((32,))
        k = synthesize_kernel(PdoOperator.from_family(bessel(-1.0), spec))
        assert k.circulant_defect() == 0.0
        full = k.full()
        rolled = np.roll(np.roll(full, 3, axis=0), 3, axis=1)
        assert np.max(np.abs(full - rolled)) < 1e-12

    def test_low_order_kernel_bounded_by_symbol_mass(self):
        spec = GridSpec((64,))
        T = PdoOperator.from_family(bessel(-2.0), spec)
        k = synthesize_kernel(T)
        mass = float(np.sum(spec.lattice().bracket_grid() ** -2.0))
        assert k.max_abs() <= mass + 1e-12

    @pytest.mark.parametrize("fam", FOUR_FAMILIES, ids=lambda f: f.label())
    def test_matches_dense_matrix_scaled(self, fam):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(fam, spec)
        k = synthesize_kernel(T).full()
        M = to_matrix(T).matrix
        assert np.max(np.abs(k - 32 * M)) <= 1e-10 * np.max(np.abs(k))

    def test_row_sums_equal_action_on_constants(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-1.0, 0.75, 1.0), spec)
        k = synthesize_kernel(T).full()
        lhs = T.apply(constant_function(spec)).values.ravel()
        rhs = k.sum(axis=1) / spec.npoints
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            synthesize_kernel(PdoOperator.from_text("1", GridSpec((128, 64))))

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_rows_and_suprema_without_dense_arrays(self, monkeypatch, sizes):
        # row(r) gathers one offset row; the suprema take moduli by row blocks
        k = synthesize_kernel(PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), GridSpec(sizes)))
        G = k.spec.npoints
        rows = np.repeat(k.offset_rows, G // len(k.offset_rows), axis=0)  # x1 only: one per row
        want = np.max(np.abs(rows.reshape(G, -1)), axis=0).reshape(sizes)
        monkeypatch.setattr(kernels, "_CHUNK", 5)  # blocks of 5 rows, the last one partial
        assert np.array_equal(k.supremum_per_offset(), want)
        assert all(np.array_equal(k.row(r), k.full()[r]) for r in range(G))
        assert np.array_equal(k.entries(np.arange(G)[:, None], np.arange(G)), k.full())

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    @pytest.mark.parametrize("box", [None, 4])
    def test_multiplier_kernel_is_one_row(self, sizes, box):
        # one offset row serves every x; each reader equals that of the row
        # repeated G times
        spec = GridSpec(sizes)
        k = synthesize_kernel(PdoOperator.from_family(wainger(0.5, 1.0), spec), lattice_box=box)
        assert k.offset_rows.shape == (1,) + sizes
        repeated = KernelMatrix(spec, np.repeat(k.offset_rows, spec.npoints, axis=0))
        assert k.max_abs() == repeated.max_abs()
        assert k.circulant_defect() == repeated.circulant_defect() == 0.0
        assert all(np.array_equal(k.row(r), repeated.row(r)) for r in range(spec.npoints))
        G = spec.npoints
        assert np.array_equal(k.entries(np.arange(G)[:, None], np.arange(G)), k.full())
        assert np.array_equal(k.full(), repeated.full())
        for trunc in (None, 2, 4):
            assert np.array_equal(k.supremum_per_offset(trunc), repeated.supremum_per_offset(trunc))

    @pytest.mark.parametrize("text, sizes, axes", [
        ("exotic(-0.5, 0.75, 1)", (16, 8), (0,)),
        ("exp(i*sin(2*pi*x2)*bracket(xi)^0.5)*bracket(xi)^-1", (8, 16), (1,)),
        ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)*bracket(xi)^-1", (8, 4, 8), (0, 2)),
    ])
    @pytest.mark.parametrize("box", [None, 4])
    def test_kernel_has_one_row_per_distinct_x(self, text, sizes, axes, box):
        # grid row r reads the row of its coordinates on the axes the symbol
        # reads; each reader equals that of the rows expanded to every grid row
        spec = GridSpec(sizes)
        k = synthesize_kernel(PdoOperator.from_text(text, spec), lattice_box=box)
        read = tuple(sizes[ax] for ax in axes)
        assert k.x_axes == axes and k.offset_rows.shape == (math.prod(read),) + sizes
        coords = np.unravel_index(np.arange(spec.npoints), sizes)
        expanded = KernelMatrix(spec, k.offset_rows[np.ravel_multi_index(
            [coords[ax] for ax in axes], read)])
        assert k.max_abs() == expanded.max_abs()
        assert k.circulant_defect() == expanded.circulant_defect() > 0.0
        assert all(np.array_equal(k.row(r), expanded.row(r)) for r in range(spec.npoints))
        G = spec.npoints
        assert np.array_equal(k.entries(np.arange(G)[:, None], np.arange(G)), k.full())
        assert np.array_equal(k.full(), expanded.full())
        for trunc in (None, 2, 4):
            assert np.array_equal(k.supremum_per_offset(trunc), expanded.supremum_per_offset(trunc))

    def test_row_count_must_match_the_axes(self):
        with pytest.raises(ValidationError, match="8 offset rows for x axes"):
            KernelMatrix(GridSpec((16, 8)), np.zeros((8, 16, 8)), x_axes=(0,))

    @pytest.mark.parametrize("sizes", [(4096,), (64, 64)])
    def test_multiplier_kernel_memory(self, sizes):
        # G = 4096: the repeated row would be 256 MiB, the one row is 64 KiB
        J = PdoOperator.from_family(bessel(-1.0), GridSpec(sizes))
        tracemalloc.start()
        try:
            synthesize_kernel(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDerivativeKernel:
    def test_zero_orders_reproduce_kernel(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(wainger(0.5, 1.0), spec)
        base = synthesize_kernel(T)
        derived = derivative_kernel(T, (0,), (0,))
        assert np.max(np.abs(base.offset_rows - derived.offset_rows)) <= 1e-12 * base.max_abs()

    def test_multiplier_y_derivative_matches_spectral(self):
        # kernel rows are functions of the offset; d/dy = -d/dz on k0(z)
        spec = GridSpec((64,))
        T = PdoOperator.from_family(bessel(-3.0), spec)
        derived = derivative_kernel(T, (0,), (1,)).offset_rows[0]
        k0 = synthesize_kernel(T).offset_rows[0]
        freqs = np.fft.fftfreq(64, d=1.0 / 64)
        oracle = -np.fft.ifft(np.fft.fft(k0) * 2j * np.pi * freqs)
        assert np.max(np.abs(derived - oracle)) <= 1e-8 * np.max(np.abs(oracle))

    def test_x_independent_alpha_term(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(bessel(-2.0), spec)
        derived = derivative_kernel(T, (1,), (0,))
        oracle = synthesize_kernel(
            PdoOperator.from_text("2*pi*i*xi1*bracket(xi1)^(-2)", spec)
        )
        assert np.max(np.abs(derived.offset_rows - oracle.offset_rows)) <= 1e-10 * max(
            oracle.max_abs(), 1e-30
        )

    def test_order_cap(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(bessel(-2.0), spec)
        with pytest.raises(ValidationError):
            derivative_kernel(T, (2,), (1,))


class TestDecayScan:
    BASE = GridSpec((1024,))

    def test_low_order_stability(self):
        for m in (-2.0, -3.0):
            T = PdoOperator.from_family(bessel(m), self.BASE)
            rep = decay_scan(synthesize_kernel(T), 0, cutoff=4 / 1024, truncations=[128, 256, 512])
            assert 0.5 <= rep.stability_ratio <= 2.0

    def test_log_order_with_one_power_of_distance(self):
        T = PdoOperator.from_family(bessel(-1.0), self.BASE)
        rep = decay_scan(synthesize_kernel(T), 1, cutoff=4 / 1024, truncations=[128, 256, 512])
        assert all(np.isfinite(v) for v in rep.suprema.values())
        assert 0.5 <= rep.stability_ratio <= 2.0

    def test_dirichlet_negative_control_grows_linearly(self):
        T = PdoOperator.from_text("1", self.BASE)
        rep = decay_scan(synthesize_kernel(T), 0, cutoff=4 / 1024, truncations=[128, 256, 512])
        assert rep.stability_ratio > 1.8
        sizes = sorted(rep.suprema)
        slope = (math.log(rep.suprema[sizes[-1]]) - math.log(rep.suprema[sizes[0]])) / (
            math.log(sizes[-1]) - math.log(sizes[0])
        )
        assert 0.7 <= slope <= 1.3

    def test_cutoff_validation(self):
        T = PdoOperator.from_family(bessel(-2.0), GridSpec((128,)))
        with pytest.raises(ValidationError):
            decay_scan(synthesize_kernel(T), 0, cutoff=1 / 128, truncations=[64, 128])

    def test_truncation_above_grid_rejected(self):
        T = PdoOperator.from_family(bessel(-2.0), GridSpec((128,)))
        with pytest.raises(ValidationError):
            decay_scan(synthesize_kernel(T), 0, cutoff=4 / 128, truncations=[256])

    def test_no_truncation_names_the_field(self):
        T = PdoOperator.from_family(bessel(-2.0), GridSpec((128,)))
        with pytest.raises(ValidationError) as err:
            decay_scan(synthesize_kernel(T), 0, cutoff=4 / 128, truncations=[])
        assert err.value.field == "truncations"

    def test_kernel_2d_memory(self):
        # kernel-2d of the benchmark's analysis workload, G = 1024: the kernel
        # is its 32 distinct x1 rows (512 KiB), made from the symbol with no
        # 16 MiB matrix
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((32, 32)))
        tracemalloc.start()
        try:
            k = synthesize_kernel(T)
            decay_scan(k, 0, cutoff=4 / 32, truncations=[8, 16, 32])
            k.row(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20  # 2.0 MiB measured

    @pytest.mark.parametrize("sizes, truncations",
                             [((512,), [128, 256, 512]), ((32, 16), [8, 16])])
    @pytest.mark.parametrize("wrap", ["left", "adjoint"])
    def test_suprema_are_those_of_the_truncated_kernels(self, sizes, truncations, wrap):
        # the scan truncates the kernel it holds, one row block at a time, to
        # exactly the kernel synthesized with that lattice box
        spec = GridSpec(sizes)
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        op = compose_bessel(T, -0.5, "left") if wrap == "left" else AdjointOperator(T)
        cutoff = 4 / min(sizes)
        rep = decay_scan(synthesize_kernel(op), 1, cutoff=cutoff, truncations=truncations)
        dist = offset_distance_grid(spec)
        for L in truncations:
            mask = dist >= max(cutoff, 4 / L)
            sup = synthesize_kernel(op, lattice_box=L).supremum_per_offset()
            assert rep.suprema[L] == float(np.max(dist[mask] * sup[mask]))

    @pytest.mark.parametrize("wrap, bound", [("left", 26), ("adjoint", 18), ("adjoint-left", 34),
                                             ("left-adjoint", 26)])
    def test_wrapper_kernel_2d_memory(self, wrap, bound):
        # the operator's 16 MiB matrix built beforehand.  J^s of a matrix's
        # columns is one 16 MiB matrix (two 4 MiB column stacks at a time),
        # mapped in place when the inner matrix is fresh, as T*'s is; an
        # adjoint is one fresh conjugate transpose.  The kernel is the 32 rows
        # of the distinct x1, not 1024 (32.5, 32.5, 38.0 and 38.0 MiB)
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((32, 32)))
        to_matrix(T)
        op = {"left": lambda: compose_bessel(T, -0.5, "left"),
              "adjoint": lambda: AdjointOperator(T),
              "adjoint-left": lambda: AdjointOperator(compose_bessel(T, -0.5, "left")),
              "left-adjoint": lambda: compose_bessel(AdjointOperator(T), -0.5, "left")}[wrap]()
        tracemalloc.start()
        try:
            k = synthesize_kernel(op)
            decay_scan(k, 0, cutoff=4 / 32, truncations=[8, 16, 32])
            k.row(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(k.offset_rows) == 32
        assert peak < bound * 2**20  # 24.3, 16.7, 32.1 and 24.3 MiB measured


class TestLogBound:
    def test_critical_order_log_fit(self):
        T = PdoOperator.from_family(bessel(-1.0), GridSpec((1024,)))
        slopes = {}
        for box in (256, 512):
            rep = log_bound_check(synthesize_kernel(T, lattice_box=box), cutoff=4 / box)
            assert rep.residual_ratio <= 1.5
            assert not rep.degenerate
            slopes[box] = rep.slope
        assert abs(slopes[512] - slopes[256]) <= 0.2 * abs(slopes[256])

    def test_bounded_kernel_flagged_degenerate(self):
        T = PdoOperator.from_family(bessel(-2.0), GridSpec((256,)))
        rep = log_bound_check(synthesize_kernel(T), cutoff=4 / 256)
        assert rep.degenerate
        assert rep.near_slope < rep.far_slope

    def test_bounded_random_phase_critical_order(self):
        # seeded bounded phase with class-preserving decay of differences
        text = "exp(i*1.3*sin(log(bracket(xi1))+0.7))*bracket(xi1)^(-1)"
        T = PdoOperator.from_text(text, GridSpec((1024,)))
        slopes = {}
        for box in (256, 512):
            rep = log_bound_check(synthesize_kernel(T, lattice_box=box), cutoff=4 / box)
            assert rep.residual_ratio <= 1.5
            assert not rep.degenerate
            slopes[box] = rep.slope
        assert abs(slopes[512] - slopes[256]) <= 0.2 * abs(slopes[256])

    def test_window_validation(self):
        T = PdoOperator.from_family(bessel(-1.0), GridSpec((64,)))
        with pytest.raises(EmptyDomainError):
            log_bound_check(synthesize_kernel(T), cutoff=0.3)


class TestSigmaEstimates:
    SIGMAS = [1 / 32, 1 / 16, 1 / 8, 1 / 4]

    def test_smoothing_potential_variant_b(self):
        values = {}
        for N in (128, 256):
            J = PdoOperator.from_family(bessel(-2.0), GridSpec((N,)))
            rep = sigma_estimates(J, "b", self.SIGMAS, sample_count=64, seed=11)
            assert rep.hypothesis_satisfied and not rep.warnings
            assert all(np.isfinite(v) and v >= 0 for v in rep.per_sigma)
            values[N] = rep.per_sigma
        # finite and stable within 25% under truncation doubling
        for a, b in zip(values[128], values[256]):
            assert abs(b - a) <= 0.25 * a

    def test_identical_points_contribute_zero(self):
        spec = GridSpec((64,))
        J = PdoOperator.from_family(bessel(-2.0), spec)
        kernel = synthesize_kernel(J).full()
        diff = np.abs(kernel[:, 7] - kernel[:, 7])
        assert float(np.sum(diff)) == 0.0

    def test_exotic_critical_order_flatness(self):
        fam = exotic(-0.625, 0.75, 1.0)  # rho = 1/4, lam = 1/4, critical order
        T = PdoOperator.from_family(fam, GridSpec((128,)))
        rep = sigma_estimates(T, "b", self.SIGMAS, sample_count=64, seed=11)
        assert rep.hypothesis_satisfied
        assert max(rep.per_sigma) < 2.0 * min(rep.per_sigma)

    def test_variant_c_equals_b_for_real_multiplier(self):
        # real even symbol: k(x, y) = k(y, x), so row and column variants agree
        spec = GridSpec((64,))
        J = PdoOperator.from_family(bessel(-2.0), spec)
        rb = sigma_estimates(J, "b", self.SIGMAS, sample_count=32, seed=5)
        rc = sigma_estimates(J, "c", self.SIGMAS, sample_count=32, seed=5)
        for a, b in zip(rb.per_sigma, rc.per_sigma):
            assert abs(a - b) <= 1e-10 * max(a, 1e-30)

    def test_above_threshold_warns(self):
        T = PdoOperator.from_family(bessel(0.5), GridSpec((64,)))
        rep = sigma_estimates(T, "b", [1 / 8], sample_count=4, seed=0)
        assert not rep.hypothesis_satisfied and rep.warnings

    @pytest.mark.parametrize("variant", ["a1", "c"])
    def test_matches_direct_distances(self, variant):
        # replays the seeded draws with distances from torus_distance
        spec = GridSpec((16, 8))
        T = PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), spec)
        rep = sigma_estimates(T, variant, [0.2, 0.25], sample_count=8, seed=3)
        k = to_matrix(T).matrix * spec.npoints
        points = spec.points()
        rng = np.random.default_rng(3)
        for s, got in zip(rep.sigma_grid, rep.per_sigma):
            r = 2.0 * rep.unit_scale * (s if variant == "a1" else s**rep.rho)
            best = 0.0
            for _ in range(8):
                z = int(rng.integers(0, spec.npoints))
                d = torus_distance(points, points[z])
                near = np.flatnonzero(d <= s)
                y = int(near[rng.integers(0, near.size)])
                diff = np.abs(k[:, y] - k[:, z]) if variant == "a1" else np.abs(k[y] - k[z])
                best = max(best, float(np.sum(diff[d > r]) / spec.npoints))
            assert got == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: PdoOperator.from_family(exotic(-0.625, 0.75, 1.0), GridSpec((128,))),
        lambda: PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), GridSpec((16, 16))),
        lambda: PdoOperator.from_text("exp(i*sin(2*pi*x2)*bracket(xi)^0.5)*bracket(xi)^-1",
                                      GridSpec((8, 32)), class_params=ClassParams(-1, 0.5, 0.5)),
        lambda: PdoOperator.from_family(wainger(0.5, 1.0), GridSpec((64,))),
        lambda: AdjointOperator(compose_bessel(
            PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((32,))), -0.625, "left")),
    ], ids=["exotic-128", "exotic-16x16", "x2-only-8x32", "multiplier", "adjoint-composed"])
    @pytest.mark.parametrize("variant", ["a1", "a2", "b", "c"])
    def test_offset_rows_equal_the_dense_matrix_reference(self, make, variant):
        # the kernel's rows and columns over G are bit for bit those of M = k / G
        T = make()
        kernel = synthesize_kernel(T)
        assert kernel.class_params == T.class_params
        sigmas = [1 / 4] if T.spec.sizes == (8, 32) else [1 / 8, 1 / 4]
        rep = sigma_estimates(kernel, variant, sigmas, sample_count=16, seed=7)
        M, points = to_matrix(T).matrix, T.spec.points()
        rng = np.random.default_rng(7)
        for s, got in zip(rep.sigma_grid, rep.per_sigma):
            r = 2.0 * rep.unit_scale * (s if variant in ("a1", "a2") else s**rep.rho)
            best = 0.0
            for _ in range(16):
                z = int(rng.integers(0, T.spec.npoints))
                d = _center_distance_grid(points[z], T.spec).ravel()
                near = np.flatnonzero(d <= s)
                y = int(near[rng.integers(0, near.size)])
                diff = np.abs(M[:, y] - M[:, z]) if variant in ("a1", "b") else np.abs(M[y] - M[z])
                best = max(best, float(np.sum(diff[d > r])))
            assert got == best

    def test_sigma_grid_validation(self):
        J = PdoOperator.from_family(bessel(-2.0), GridSpec((64,)))
        with pytest.raises(ValidationError):
            sigma_estimates(J, "b", [0.5], sample_count=4, seed=0)
        with pytest.raises(ValidationError):
            sigma_estimates(J, "q", [1 / 8], sample_count=4, seed=0)
