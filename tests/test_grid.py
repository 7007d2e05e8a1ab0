import numpy as np
import pytest

from toruslab.errors import DegenerateBallError, ValidationError
from toruslab.grid import (
    GridSpec,
    GridFunction,
    SpectralFunction,
    ball,
    bracket,
    forward_dft,
    inverse_dft,
    offset_distance_grid,
    pure_wave,
    torus_distance,
)

from helpers import constant_function


def dft_direct(f: GridFunction) -> np.ndarray:
    """O(G^2) direct summation oracle for the forward transform."""
    spec = f.spec
    lat = spec.lattice()
    x = spec.points()
    xi = lat.points()
    phases = np.exp(-2j * np.pi * (x @ xi.T.astype(float)))
    coeffs = phases.T @ f.values.ravel() / spec.npoints
    return coeffs.reshape(lat.sizes)


def random_grid_function(spec, rng):
    v = rng.standard_normal(spec.sizes) + 1j * rng.standard_normal(spec.sizes)
    return GridFunction(spec, v)


class TestBracket:
    def test_origin(self):
        assert bracket(0) == 1.0
        assert bracket([0, 0]) == 1.0

    def test_pythagorean(self):
        assert bracket([3, 4]) == pytest.approx(np.sqrt(26.0), rel=1e-15)

    def test_symmetry(self):
        assert bracket(-5) == pytest.approx(np.sqrt(26.0), rel=1e-15)
        assert bracket(5) == bracket(-5)


class TestGridSpec:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError):
            GridSpec((12,))

    def test_rejects_tiny(self):
        with pytest.raises(ValidationError):
            GridSpec((2,))

    def test_rejects_dim4(self):
        with pytest.raises(ValidationError):
            GridSpec((4, 4, 4, 4))

    def test_lattice_bijection(self):
        spec = GridSpec((8, 16))
        lat = spec.lattice()
        pts = lat.points()
        assert pts.shape == (128, 2)
        assert len({tuple(p) for p in pts}) == 128
        assert pts[:, 0].min() == -4 and pts[:, 0].max() == 3
        assert pts[:, 1].min() == -8 and pts[:, 1].max() == 7
        assert np.all(lat.bracket_grid() >= 1.0)


class TestValueChecks:
    @pytest.mark.parametrize("values", [np.zeros(6), np.zeros((4, 4)), np.zeros((2, 8))])
    def test_value_count(self, values):
        with pytest.raises(ValidationError, match=rf"^value count {values.size} != grid size 8$"):
            GridFunction(GridSpec((8,)), values)

    def test_flat_values_are_reshaped(self):
        f = GridFunction(GridSpec((4, 8)), np.arange(32))
        assert f.values.shape == (4, 8) and f.values.dtype == np.complex128
        assert f.values[1, 0] == 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_values(self, bad):
        v = np.ones(16, dtype=complex)
        v[5] = bad
        with pytest.raises(ValidationError, match="^grid function contains non-finite values$"):
            GridFunction(GridSpec((4, 4)), v)
        with pytest.raises(ValidationError,
                           match="^spectral function contains non-finite values$"):
            SpectralFunction(GridSpec((4, 4)).lattice(), v)

    @pytest.mark.parametrize("values", [np.zeros(6), np.zeros((4, 4))])
    def test_coefficient_count(self, values):
        lattice = GridSpec((8,)).lattice()
        with pytest.raises(ValidationError,
                           match=rf"^coefficient count {values.size} != lattice size 8$"):
            SpectralFunction(lattice, values)


class TestTransforms:
    def test_constant_is_delta_at_zero(self):
        spec = GridSpec((16,))
        phi = forward_dft(constant_function(spec))
        expected = np.zeros(16)
        expected[8] = 1.0  # xi = 0 sits at index N/2
        assert np.allclose(phi.coefficients, expected, atol=1e-14)

    def test_wave_is_indicator(self):
        spec = GridSpec((16, 8))
        phi = forward_dft(pure_wave(spec, (3, -2)))
        coeffs = phi.coefficients
        assert abs(coeffs[8 + 3, 4 - 2] - 1.0) < 1e-13
        coeffs[8 + 3, 4 - 2] = 0.0
        assert np.max(np.abs(coeffs)) < 1e-13

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        f = random_grid_function(GridSpec((32,)), rng)
        got = forward_dft(f).coefficients
        want = dft_direct(f)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_direct_summation_2d(self):
        rng = np.random.default_rng(8)
        f = random_grid_function(GridSpec((8, 8)), rng)
        got = forward_dft(f).coefficients
        want = dft_direct(f)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_indicator_at_zero_gives_one(self):
        spec = GridSpec((32,))
        coeffs = np.zeros(32, dtype=complex)
        coeffs[16] = 1.0
        f = inverse_dft(SpectralFunction(spec.lattice(), coeffs))
        assert np.allclose(f.values, 1.0, atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        f = random_grid_function(GridSpec((64,)), rng)
        back = inverse_dft(forward_dft(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_round_trip_spectral_side(self):
        rng = np.random.default_rng(10)
        lat = GridSpec((64,)).lattice()
        phi = SpectralFunction(lat, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        back = forward_dft(inverse_dft(phi))
        assert np.max(np.abs(back.coefficients - phi.coefficients)) <= 1e-12 * np.max(
            np.abs(phi.coefficients)
        )

    def test_hermitian_coefficients_give_real_values(self):
        rng = np.random.default_rng(11)
        N = 32
        coeffs = np.zeros(N, dtype=complex)
        for k in range(1, N // 2):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[N // 2 + k] = z
            coeffs[N // 2 - k] = np.conj(z)
        coeffs[N // 2] = rng.standard_normal()  # xi = 0 real
        # asymmetric endpoint xi = -N/2 excluded (left at zero)
        f = inverse_dft(SpectralFunction(GridSpec((N,)).lattice(), coeffs))
        assert np.max(np.abs(f.values.imag)) < 1e-12 * np.max(np.abs(f.values))

    @pytest.mark.parametrize("sizes", [(8,), (64,), (512,), (16, 16), (64, 64)])
    def test_plancherel(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        f = random_grid_function(GridSpec(sizes), rng)
        lhs = np.sum(np.abs(f.values) ** 2) / f.spec.npoints
        rhs = np.sum(np.abs(forward_dft(f).coefficients) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_translation_phase(self):
        rng = np.random.default_rng(12)
        spec = GridSpec((32,))
        f = random_grid_function(spec, rng)
        shift = 5
        shifted = GridFunction(spec, np.roll(f.values, shift))  # f(x - h), h = shift/N
        lhs = forward_dft(shifted).coefficients
        xi = spec.lattice().axes()[0]
        rhs = np.exp(-2j * np.pi * (shift / 32) * xi) * forward_dft(f).coefficients
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


class TestDistance:
    def test_wraparound(self):
        assert torus_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        assert torus_distance(0.37, 0.37) == 0.0

    def test_maximal_separation_2d(self):
        d = torus_distance((0.0, 0.0), (0.5, 0.5))
        assert d == pytest.approx(0.5 * np.sqrt(2.0), rel=1e-15)

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(13)
        x, y, h = rng.random(3)
        assert torus_distance(x, y) == pytest.approx(torus_distance(y, x), abs=1e-14)
        assert torus_distance(x, y) == pytest.approx(
            torus_distance((x + h) % 1.0, (y + h) % 1.0), abs=1e-12
        )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_triangle_inequality(self, dim):
        rng = np.random.default_rng(14 + dim)
        pts = rng.random((1000, 3, dim))
        dxy = torus_distance(pts[:, 0], pts[:, 1])
        dyz = torus_distance(pts[:, 1], pts[:, 2])
        dxz = torus_distance(pts[:, 0], pts[:, 2])
        assert np.all(dxz <= dxy + dyz + 1e-12)

    def test_bounded_by_half_diameter(self):
        rng = np.random.default_rng(15)
        pts = rng.random((500, 2, 2))
        d = torus_distance(pts[:, 0], pts[:, 1])
        assert np.all(d <= np.sqrt(2.0) / 2 + 1e-15)

    @pytest.mark.parametrize("sizes", [(16,), (8, 4)])
    def test_offset_distance_grid(self, sizes):
        spec = GridSpec(sizes)
        want = torus_distance(spec.points(), np.zeros(spec.dim)).reshape(sizes)
        assert np.max(np.abs(offset_distance_grid(spec) - want)) <= 1e-15


class TestBall:
    def test_whole_torus(self):
        spec = GridSpec((16, 16))
        idx = ball((0.3, 0.7), radius=np.sqrt(2.0) / 2, spec=spec)
        assert idx.size == spec.npoints

    def test_three_point_ball(self):
        spec = GridSpec((32,))
        idx = ball((4 / 32,), radius=1.5 / 32, spec=spec)
        assert sorted(idx.tolist()) == [3, 4, 5]

    def test_degenerate_ball(self):
        spec = GridSpec((16,))
        with pytest.raises(DegenerateBallError):
            ball((0.5 + 0.5 / 16,), radius=0.2 / 16, spec=spec)

    def test_volume_convergence(self):
        # count/G approaches the analytic ball volume as the grid refines
        rng = np.random.default_rng(16)
        for _ in range(10):
            center = rng.random()
            radius = rng.uniform(0.1, 0.3)
            errs = []
            for N in (128, 256):
                idx = ball((center,), radius, GridSpec((N,)))
                errs.append(abs(idx.size / N - 2 * radius) / (2 * radius))
            assert errs[0] <= 0.05 and errs[1] <= 0.05
            assert errs[1] <= 0.025  # halved grid spacing halves the worst case

    def test_volume_convergence_2d(self):
        rng = np.random.default_rng(17)
        center = rng.random(2)
        radius = 0.25
        vol = np.pi * radius**2
        errs = []
        for N in (64, 128):
            idx = ball(center, radius, GridSpec((N, N)))
            errs.append(abs(idx.size / N**2 - vol) / vol)
        assert errs[1] <= 0.05
