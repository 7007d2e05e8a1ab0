import math

import numpy as np
import pytest

from toruslab.errors import EmptyDomainError, SizeGuardError, ValidationError
from toruslab.grid import GridSpec, constant_function, torus_distance
from toruslab.kernels import (
    decay_scan,
    derivative_kernel,
    dirichlet_kernel_closed_form,
    log_bound_check,
    sigma_estimates,
    synthesize_kernel,
)
from toruslab.operators import PdoOperator, to_matrix
from toruslab.symbols import bessel, exotic, wainger

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

    def test_sigma_grid_validation(self):
        J = PdoOperator.from_family(bessel(-2.0), GridSpec((64,)))
        with pytest.raises(ValidationError):
            sigma_estimates(J, "b", [0.5], sample_count=4, seed=0)
        with pytest.raises(ValidationError):
            sigma_estimates(J, "q", [1 / 8], sample_count=4, seed=0)
