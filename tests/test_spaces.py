import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import toruslab
from toruslab.errors import ValidationError
from toruslab.grid import GridFunction, GridSpec, ball, constant_function, forward_dft
from toruslab.operators import PdoOperator
from toruslab.spaces import (
    _oscillation_bounds,
    bmo_norm,
    cz_decompose,
    dyadic_radii,
    lp_norm,
    make_atom,
    maximal_function,
    weak_lp,
)


def random_function(spec, seed, real=False):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(spec.sizes)
    if not real:
        v = v + 1j * rng.standard_normal(spec.sizes)
    return GridFunction(spec, v)


def bmo_oracle(f: GridFunction):
    """Exhaustive search over the ball family and all candidate centerings."""
    spec = f.spec
    flat = f.values.ravel()
    best = 0.0
    centers = spec.points()
    for radius in dyadic_radii(spec):
        for c in centers:
            idx = ball(c, radius, spec)
            vals = flat[idx]
            # the L1 minimizer over real centerings is attained at a data value
            cands = np.unique(vals.real)
            osc = min(np.mean(np.abs(vals - b)) for b in cands)
            best = max(best, osc)
    return best


class TestLp:
    def test_constant(self):
        spec = GridSpec((16,))
        f = constant_function(spec, 2.5 - 1j)
        for p in (1, 2, 3.5, np.inf):
            assert lp_norm(f, p).value == pytest.approx(abs(2.5 - 1j), rel=1e-14)

    def test_half_indicator(self):
        spec = GridSpec((32,))
        v = np.zeros(32)
        v[:16] = 1.0
        assert lp_norm(GridFunction(spec, v), 1).value == pytest.approx(0.5, abs=1e-15)

    def test_plancherel_cross_check(self):
        f = random_function(GridSpec((64,)), 0)
        l2 = lp_norm(f, 2).value
        spectral = np.sqrt(np.sum(np.abs(forward_dft(f).coefficients) ** 2))
        assert abs(l2**2 - spectral**2) <= 1e-12 * l2**2

    def test_rejects_small_p(self):
        with pytest.raises(ValidationError):
            lp_norm(constant_function(GridSpec((8,))), 0.5)


class TestWeakLp:
    def test_indicator(self):
        spec = GridSpec((32,))
        v = np.zeros(32)
        v[:12] = 1.0
        assert weak_lp(GridFunction(spec, v), 1).value == pytest.approx(12 / 32, abs=1e-15)

    def test_constant(self):
        f = constant_function(GridSpec((16,)), 3.0)
        assert weak_lp(f, 1).value == pytest.approx(3.0, abs=1e-15)

    def test_chebyshev(self):
        for seed in range(200):
            f = random_function(GridSpec((32,)), seed)
            assert weak_lp(f, 1).value <= lp_norm(f, 1).value + 1e-14

    def test_positive_homogeneity(self):
        f = random_function(GridSpec((32,)), 7)
        c = -2.5 + 1.5j
        scaled = GridFunction(f.spec, c * f.values)
        assert weak_lp(scaled, 1.5).value == pytest.approx(
            abs(c) * weak_lp(f, 1.5).value, rel=1e-14
        )


class TestBmo:
    def test_constant_is_zero(self):
        assert bmo_norm(constant_function(GridSpec((32,)), 4.2)).value == 0.0

    def test_semicircle_indicator_matches_oracle(self):
        spec = GridSpec((64,))
        v = np.zeros(64)
        v[:32] = 1.0
        f = GridFunction(spec, v)
        got = bmo_norm(f).value
        want = bmo_oracle(f)
        assert abs(got - want) <= 1e-10 * max(want, 1e-30)

    def test_random_real_matches_oracle_small(self):
        f = random_function(GridSpec((16,)), 3, real=True)
        assert abs(bmo_norm(f).value - bmo_oracle(f)) <= 1e-10

    def test_oscillation_bound(self):
        for seed in range(100):
            f = random_function(GridSpec((32,)), 1000 + seed)
            # distance to the best constant in sup norm bounds BMO by 2x
            best_const = 0.5 * (f.values.real.max() + f.values.real.min()) + 0.5j * (
                f.values.imag.max() + f.values.imag.min()
            )
            dist = np.max(np.abs(f.values - best_const))
            assert bmo_norm(f).value <= 2 * dist + 1e-12

    def test_shift_invariance(self):
        f = random_function(GridSpec((32,)), 11)
        g = GridFunction(f.spec, f.values + (3.7 - 2j))
        assert abs(bmo_norm(f).value - bmo_norm(g).value) <= 1e-12

    def test_scaling(self):
        f = random_function(GridSpec((32,)), 12)
        c = 2.5j
        g = GridFunction(f.spec, c * f.values)
        assert bmo_norm(g).value == pytest.approx(abs(c) * bmo_norm(f).value, rel=1e-12)


def full_gather_oscillations(f: GridFunction, rows=512):
    """Per radius, every center's oscillation through a (center, offset) index
    matrix over the flat samples, ``rows`` centers at a time."""
    spec, sizes = f.spec, f.spec.sizes
    out = []
    for radius in dyadic_radii(spec):
        offsets = ball(np.zeros(spec.dim), radius, spec)
        o_idx = np.unravel_index(offsets, sizes)
        osc = []
        for start in range(0, spec.npoints, rows):
            c_idx = np.unravel_index(np.arange(start, min(start + rows, spec.npoints)), sizes)
            combined = np.zeros((c_idx[0].size, offsets.size), dtype=np.int64)
            stride = 1
            for ax in range(spec.dim - 1, -1, -1):
                combined += ((c_idx[ax][:, None] + o_idx[ax][None, :]) % sizes[ax]) * stride
                stride *= sizes[ax]
            vals = f.values.ravel()[combined]
            med = np.median(vals.real, axis=1) + 1j * np.median(vals.imag, axis=1)
            osc.append(np.mean(np.abs(vals - med[:, None]), axis=1))
        out.append(np.concatenate(osc))
    return out


def full_gather_bmo(f: GridFunction):
    """BMO with every ball of the family evaluated."""
    best = 0.0
    for osc in full_gather_oscillations(f):
        best = max(best, float(osc.max()))
    return best


def bessel_of_signs(N):
    """Op(bessel(-1)) of a sign pattern: a sup held by few balls."""
    spec = GridSpec((N, N))
    signs = np.random.default_rng(33).choice([-1.0, 1.0], size=spec.sizes)
    return PdoOperator.from_text("bessel(-1)", spec).apply(GridFunction(spec, signs))


def sample_function(kind, sizes):
    spec = GridSpec(sizes)
    rng = np.random.default_rng(34)
    if kind == "complex":
        return random_function(spec, 35)
    if kind == "real":
        return random_function(spec, 36, real=True)
    if kind == "signs":  # half-and-half balls attain the bound exactly
        return GridFunction(spec, rng.choice([-1.0, 1.0], size=sizes))
    if kind == "plane-wave":
        phase = sum((ax + 1) * m for ax, m in enumerate(spec.mesh()))
        return GridFunction(spec, 1.3 * np.exp(2j * np.pi * phase))
    if kind == "spike":
        v = np.zeros(sizes)
        v[(1,) * len(sizes)] = 2.0
        return GridFunction(spec, v)
    if kind == "constant":
        return constant_function(spec, 4.2 - 1.5j)
    return constant_function(spec, 0.0)


class TestBmoSlabs:
    """bmo_norm reads balls through one periodic window, a slab of centers at a time."""

    # (32, 32) spans four slabs per radius; on (8, 8, 8) a strided slab changes np.mean's
    # summation order, so only contiguous rows give the same bits; the
    # bessel-of-signs inputs evaluate a few percent of the balls
    INPUTS = {
        "128": lambda: random_function(GridSpec((128,)), 31),
        "8x32": lambda: random_function(GridSpec((8, 32)), 31),
        "32x32": lambda: random_function(GridSpec((32, 32)), 31),
        "8x8x8": lambda: random_function(GridSpec((8, 8, 8)), 31),
        "bessel-signs-32x32": lambda: bessel_of_signs(32),
        "bessel-signs-64x64": lambda: bessel_of_signs(64),
        "constant": lambda: sample_function("constant", (16, 16)),
        "zero": lambda: sample_function("zero", (16, 16)),
    }

    @pytest.mark.parametrize("name", list(INPUTS))
    def test_equals_the_full_gather(self, name):
        f = self.INPUTS[name]()
        assert bmo_norm(f).value == full_gather_bmo(f)

    @pytest.mark.parametrize("sizes", [(64,), (16, 16), (8, 8, 8)],
                             ids=lambda sizes: "x".join(map(str, sizes)))
    @pytest.mark.parametrize(
        "kind", ["real", "complex", "signs", "plane-wave", "spike", "constant", "zero"])
    def test_bound_dominates_every_ball(self, kind, sizes):
        f = sample_function(kind, sizes)
        balls = [np.unravel_index(ball(np.zeros(len(sizes)), radius, f.spec), sizes)
                 for radius in dyadic_radii(f.spec)]
        for bound, osc in zip(_oscillation_bounds(f, balls), full_gather_oscillations(f)):
            assert np.all(bound >= osc)

    @pytest.mark.parametrize("kind", ["constant", "zero"])
    def test_constant_reads_no_ball(self, kind, monkeypatch):
        calls = []
        median = np.median
        monkeypatch.setattr(np, "median", lambda *a, **k: calls.append(1) or median(*a, **k))
        assert bmo_norm(sample_function(kind, (64, 64))).value == 0.0
        assert calls == []

    def test_memory_bounded_by_a_slab(self):
        f = random_function(GridSpec((64, 64)), 32)
        tracemalloc.start()
        try:
            bmo_norm(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the full gather peaks near 500 MiB here


class TestBmo2D:
    def test_matches_oracle(self):
        spec = GridSpec((8, 8))
        f = random_function(spec, 21, real=True)
        assert abs(bmo_norm(f).value - bmo_oracle(f)) <= 1e-10

    def test_maximal_dominates(self):
        spec = GridSpec((16, 16))
        f = random_function(spec, 22)
        M = maximal_function(f)
        assert np.all(M.values.real >= np.abs(f.values) - 1e-12)


class TestAtoms:
    def test_balanced_signs(self):
        spec = GridSpec((64,))
        profile = GridFunction(spec, np.where(np.arange(64) % 2 == 0, 1.0, -1.0))
        atom = make_atom((0.25,), 0.1, profile)
        atom.check()
        assert atom.measure > 0

    def test_mean_zero_and_l1_bound(self):
        rng = np.random.default_rng(5)
        spec = GridSpec((64,))
        for _ in range(20):
            profile = GridFunction(spec, rng.standard_normal(64) + 1j * rng.standard_normal(64))
            atom = make_atom((rng.random(),), rng.uniform(0.05, 0.3), profile)
            v = atom.values.values
            assert abs(v.sum() / 64) <= 1e-12
            assert lp_norm(atom.values, 1).value <= 1.0 + 1e-12

    def test_constant_profile_rejected(self):
        spec = GridSpec((32,))
        with pytest.raises(ValidationError):
            make_atom((0.5,), 0.1, constant_function(spec, 3.0))

    def test_whole_torus_rejected(self):
        spec = GridSpec((32,))
        profile = random_function(spec, 1)
        with pytest.raises(ValidationError):
            make_atom((0.5,), 0.8, profile)


def maximal_oracle(f: GridFunction):
    """Mf by direct summation: max of |f| and every family ball's mean of |f|
    over the points of that ball."""
    spec = f.spec
    a = np.abs(f.values).ravel()
    out = np.array(a)
    for radius in dyadic_radii(spec):
        for c in spec.points():
            idx = ball(c, radius, spec)
            out[idx] = np.maximum(out[idx], a[idx].sum() / idx.size)
    return out.reshape(spec.sizes)


class TestMaximal:
    @pytest.mark.parametrize("sizes", [(256,), (64,), (16, 16), (8, 32), (8, 8, 4)],
                             ids=lambda sizes: "x".join(map(str, sizes)))
    @pytest.mark.parametrize("kind", ["complex", "spike", "signs"])
    def test_matches_direct_sum(self, kind, sizes):
        f = sample_function(kind, sizes)
        want = maximal_oracle(f)
        got = maximal_function(f).values.real
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_constant(self):
        f = constant_function(GridSpec((32,)), -2.0)
        assert np.allclose(maximal_function(f).values, 2.0, atol=1e-12)

    def test_dominates_f(self):
        for seed in range(20):
            f = random_function(GridSpec((64,)), 2000 + seed)
            M = maximal_function(f).values.real
            assert np.all(M >= 0.99 * np.abs(f.values))

    def test_weak_1_1_constant(self):
        spec = GridSpec((64,))
        for seed in range(100):
            f = random_function(spec, 3000 + seed)
            M = maximal_function(f)
            assert weak_lp(M, 1).value <= 6.0 * lp_norm(f, 1).value

    def test_spike(self):
        spec = GridSpec((64,))
        v = np.zeros(64)
        v[10] = 64.0
        M = maximal_function(GridFunction(spec, v)).values.real
        assert M[10] == pytest.approx(64.0, rel=1e-12)
        # at distance d the best family ball has radius ~ 2d: mean ~ G/(2 ball count)
        assert M[20] > 1.0


class TestCZ:
    def test_constant_below_level(self):
        f = constant_function(GridSpec((32,)), 0.5)
        dec = cz_decompose(f, 1.0)
        assert not dec.flagged
        assert dec.omega_measure == 0.0
        assert not dec.bad_parts
        assert np.allclose(dec.good.values, f.values)

    def test_unit_mass_spike(self):
        spec = GridSpec((64,))
        v = np.zeros(64)
        v[13] = 64.0
        f = GridFunction(spec, v)
        dec = cz_decompose(f, 1.0)
        assert len(dec.bad_parts) == 1
        cube, vals = dec.bad_parts[0]
        assert cube.starts[0] <= 13 < cube.starts[0] + cube.extents[0]
        rec = dec.reconstruct()
        assert np.max(np.abs(rec.values - f.values)) <= 1e-12 * 64

    def test_property_sweep(self):
        rng = np.random.default_rng(9)
        spec = GridSpec((64,))
        n = spec.dim
        for trial in range(200):
            f = GridFunction(spec, rng.standard_normal(64) * rng.uniform(0.5, 3.0))
            norm1 = lp_norm(f, 1).value
            lam = rng.uniform(1.01, 4.0) * max(norm1, 1e-9)
            dec = cz_decompose(f, lam)
            assert not dec.flagged
            # reconstruction is exact
            assert np.max(np.abs(dec.reconstruct().values - f.values)) <= 1e-13 * max(
                1.0, np.max(np.abs(f.values))
            )
            # good part bounded by 2^n level
            assert np.max(np.abs(dec.good.values)) <= 2**n * lam + 1e-12
            # bad parts are mean zero on their cubes
            for cube, vals in dec.bad_parts:
                assert abs(vals.mean()) <= 1e-12 * max(1.0, np.max(np.abs(vals)))
            # omega measure controlled
            assert dec.omega_measure <= 2**n * norm1 / lam + 1e-12

    def test_bad_part_l1_bound(self):
        rng = np.random.default_rng(10)
        spec = GridSpec((128,))
        for _ in range(50):
            f = GridFunction(spec, rng.standard_normal(128))
            norm1 = lp_norm(f, 1).value
            lam = rng.uniform(1.05, 3.0) * norm1
            dec = cz_decompose(f, lam)
            total = sum(
                np.sum(np.abs(vals)) / spec.npoints for _, vals in dec.bad_parts
            )
            assert total <= 2 * norm1 + 2 * lam * dec.omega_measure + 1e-12

    def test_monotone_omega(self):
        rng = np.random.default_rng(11)
        spec = GridSpec((64,))
        f = GridFunction(spec, rng.standard_normal(64) ** 2)
        norm1 = lp_norm(f, 1).value
        lam1, lam2 = 1.2 * norm1, 2.5 * norm1
        dec1, dec2 = cz_decompose(f, lam1), cz_decompose(f, lam2)
        assert np.all(dec1.omega_mask | ~dec2.omega_mask)

    def test_flagged_when_level_below_mean(self):
        f = constant_function(GridSpec((32,)), 5.0)
        dec = cz_decompose(f, 1.0)
        assert dec.flagged
        assert dec.omega_measure == 1.0
        assert np.max(np.abs(dec.reconstruct().values - f.values)) <= 1e-12

    def test_level_validation(self):
        with pytest.raises(ValidationError):
            cz_decompose(constant_function(GridSpec((8,))), -1.0)

    def test_2d_reconstruction(self):
        rng = np.random.default_rng(12)
        spec = GridSpec((16, 16))
        f = GridFunction(spec, rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
        lam = 2.0 * lp_norm(f, 1).value
        dec = cz_decompose(f, lam)
        assert np.max(np.abs(dec.reconstruct().values - f.values)) <= 1e-12 * np.max(
            np.abs(f.values)
        )
        assert np.max(np.abs(dec.good.values)) <= 4 * lam + 1e-12


def test_import_loads_no_scipy():
    code = "import sys, toruslab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(toruslab.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
