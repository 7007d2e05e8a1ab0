import tracemalloc
from itertools import product

import numpy as np
import pytest

from toruslab import calculus
from toruslab.calculus import (
    ClassParams,
    _shell_maxima,
    dyadic_shells,
    fit_order,
    shell_lattice_points,
)
from toruslab.errors import DslError, EmptyDomainError, SizeGuardError, ValidationError
from toruslab.symbols import (
    bessel,
    depends_on_x,
    diff_x,
    diff_x_multi,
    eval_expr,
    exotic,
    parse,
    wainger,
)

from helpers import difference


class TestClassParams:
    def test_lambda(self):
        assert ClassParams(0, 1, 0).lam == 0.0
        assert ClassParams(0, 0.25, 0.75).lam == pytest.approx(0.25)

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            ClassParams(0, 0.0, 0.0)
        with pytest.raises(ValidationError):
            ClassParams(0, 1.0, 1.0)


class TestDifference:
    def test_first_difference_of_identity(self):
        expr = parse("xi1")
        for xi in (-7, 0, 13):
            assert difference(expr, (1,), 0.0, xi) == 1.0

    def test_first_difference_of_square(self):
        expr = parse("xi1*xi1")
        for xi in (-5, 0, 9):
            assert difference(expr, (1,), 0.0, xi) == 2 * xi + 1

    def test_second_difference_of_square(self):
        expr = parse("xi1*xi1")
        for xi in (-5, 0, 9):
            assert difference(expr, (2,), 0.0, xi) == 2.0

    def test_mixed_differences_commute(self):
        expr = parse("sin(xi1*0.1)*cos(xi2*0.2)+xi1*xi2")
        rng = np.random.default_rng(0)
        for _ in range(20):
            xi = tuple(int(v) for v in rng.integers(-20, 20, size=2))
            d12 = difference(expr, (1, 1), (0.0, 0.0), xi)
            # iterate by hand in both orders
            a = (
                difference(expr, (0, 1), (0.0, 0.0), (xi[0] + 1, xi[1]))
                - difference(expr, (0, 1), (0.0, 0.0), xi)
            )
            b = (
                difference(expr, (1, 0), (0.0, 0.0), (xi[0], xi[1] + 1))
                - difference(expr, (1, 0), (0.0, 0.0), xi)
            )
            assert a == pytest.approx(b, abs=1e-13)
            assert d12 == pytest.approx(a, abs=1e-13)


class TestXDerivative:
    def test_exotic_phase_jumps_at_the_seam(self):
        # evaluation wraps x1 into [0, 1), so the phase c x1 <xi>^d of the
        # oscillating family jumps by c <xi>^d at x1 = 0 ~ 1: the symbol is
        # not smooth in x on the torus, on any grid
        fam = exotic(0.0, 0.5, 1.0)
        for xi in (10, 100):
            phase = np.sqrt(1.0 + xi**2) ** 0.5
            at = eval_expr(fam.expr, 0.0, xi, fam.parameters)
            before = eval_expr(fam.expr, 1.0 - 1e-12, xi, fam.parameters)
            assert at == 1.0
            assert abs(before - np.exp(1j * phase)) <= 1e-9
            assert abs(before - at) > 1.0

    def test_exotic_exact_derivative_closed_form(self):
        # the exact-tree derivative realizes i c <xi>^d p off the seam
        fam = exotic(0.0, 0.5, 1.0)
        tree = diff_x(fam.expr, 0)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, xi = rng.random(), int(rng.integers(-200, 200))
            br = np.sqrt(1.0 + xi**2)
            want = 1j * br**0.5 * eval_expr(fam.expr, x, xi, fam.parameters)
            got = eval_expr(tree, x, xi, fam.parameters)
            assert abs(got - want) <= 1e-8 * abs(want)


class TestShells:
    def test_dyadic_cover(self):
        assert dyadic_shells(8, 512) == [
            (8.0, 16.0),
            (16.0, 32.0),
            (32.0, 64.0),
            (64.0, 128.0),
            (128.0, 256.0),
            (256.0, 512.0),
        ]

    def test_empty_range(self):
        with pytest.raises(EmptyDomainError):
            dyadic_shells(9, 15)

    def test_shell_points_1d(self):
        pts = shell_lattice_points(8, 16, 1)
        br = np.sqrt(1 + pts[:, 0].astype(float) ** 2)
        assert np.all((br >= 8) & (br < 16))
        assert pts.min() < 0 < pts.max()

    def test_shell_points_2d(self):
        pts = shell_lattice_points(4, 8, 2)
        br = np.sqrt(1 + np.sum(pts.astype(float) ** 2, axis=1))
        assert np.all((br >= 4) & (br < 8))

    @pytest.mark.parametrize("shell_range", [(8.0, 512.0), (8.0, 128.0), (8.0, 64.0), (8.0, 16.0),
                                             (64.0, 128.0), (4.0, 8.0), (2.0, 16.0), (1.0, 16.0)])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_box_radius_is_the_largest_coordinate(self, shell_range, dim):
        # the size guard's box, read from the shell range before any point is built
        shells = dyadic_shells(*shell_range)
        largest = max(int(np.max(np.abs(shell_lattice_points(lo, hi, dim)))) for lo, hi in shells)
        assert calculus.box_radius(shells[-1][1]) == largest


class TestSeminorm:
    """The seminorm constants a fit reports at its nominal class."""

    def constant(self, fam, alpha, beta, cls, shell_range):
        est = fit_order(fam.expr, params=fam.parameters, nominal=cls, shell_range=shell_range)
        return est.constants[(alpha, beta)]

    def test_bessel_ratio_is_one(self):
        c = self.constant(bessel(-1.0), (0,), (0,), ClassParams(-1, 1, 0), (8, 128))
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_bessel_first_difference_stable(self):
        fam, cls = bessel(-1.0), ClassParams(-1, 1, 0)
        c1 = self.constant(fam, (1,), (0,), cls, (8, 256))
        c2 = self.constant(fam, (1,), (0,), cls, (16, 512))
        assert c1 > 0 and c2 > 0
        assert abs(c2 - c1) <= 0.10 * c1

    def test_wrong_class_grows(self):
        # oscillating symbol certified *out* of rho = 1 by constant doubling
        fam = exotic(0.0, 0.75, 1.0)
        wrong = ClassParams(0.0, 1.0, 0.0)
        c1 = self.constant(fam, (1,), (0,), wrong, (8, 128))
        c2 = self.constant(fam, (1,), (0,), wrong, (8, 256))
        assert c2 >= 2.0 * c1 * 0.5 and c2 / c1 >= 1.5  # doubling the top shell grows it
        c3 = self.constant(fam, (1,), (0,), wrong, (8, 512))
        assert c3 / c1 >= 2.0

    def test_x_independent_beta_derivative_vanishes(self):
        c = self.constant(wainger(0.5, 1.0), (0,), (1,), ClassParams(-1, 0.5, 0), (8, 128))
        assert c < 1e-10

    @pytest.mark.parametrize(
        "dim, shell, x_resolution",
        [(1, (8.0, 16.0), 64), (1, (64.0, 128.0), 64), (2, (8.0, 16.0), 4)],
    )
    def test_shared_evaluation_matches_difference(self, dim, shell, x_resolution):
        # oracle: the pointwise difference at each shell point, maximised
        # over the same x-sample
        fam = exotic(0.0, 0.75, 1.0)
        alphas = [a for a in np.ndindex(*([3] * dim)) if sum(a) <= 2]
        axes = np.meshgrid(*[np.arange(x_resolution) / x_resolution] * dim, indexing="ij")
        x = tuple(m.ravel() for m in axes)
        for beta in [(0,) * dim, (1,) + (0,) * (dim - 1)]:
            tree = diff_x_multi(fam.expr, beta)
            points, _, zeros = calculus._shell_points([shell], dim)
            maxima = _shell_maxima(fam.expr, beta, alphas, points, fam.parameters, x_resolution,
                                   zeros)
            for alpha in alphas:
                want = [
                    np.max(np.abs(difference(tree, alpha, x, tuple(xi), fam.parameters)))
                    for xi in shell_lattice_points(*shell, dim)
                ]
                assert np.max(np.abs(maxima[alpha][0] - want)) <= 1e-12 * np.max(want)


def per_shift_shell_maxima(expr, beta, alphas, shells, dim, params, x_resolution):
    """Reference: each shifted symbol evaluated per shell, differences summed pointwise."""
    tree = diff_x_multi(expr, beta)
    r = x_resolution if depends_on_x(tree) else 1
    xs = tuple(m.reshape(-1, 1) for m in np.meshgrid(*[np.arange(r) / r] * dim, indexing="ij"))
    gammas = {gamma for alpha in alphas for gamma, _ in calculus.difference_terms(alpha)}
    brackets, maxima = [], {alpha: [] for alpha in alphas}
    for lo, hi in shells:
        xi = shell_lattice_points(lo, hi, dim).astype(float)
        shifted = {g: eval_expr(tree, xs, tuple(xi[None, :, j] + g[j] for j in range(dim)), params)
                   for g in gammas}
        for alpha in alphas:
            total = sum(coef * shifted[g] for g, coef in calculus.difference_terms(alpha))
            maxima[alpha].append(np.max(np.abs(total), axis=0))
        brackets.append(np.sqrt(1.0 + np.sum(xi**2, axis=-1)))
    return brackets, maxima


class TestLatticeBox:
    @pytest.mark.parametrize(
        "symbol, dim, shell_range, x_resolution",
        [
            ("bessel(-1)", 1, (8.0, 512.0), 64),
            ("wainger(0.5, 1)", 1, (8.0, 512.0), 64),
            ("exotic(0, 0.75, 1)", 1, (8.0, 512.0), 64),
            ("1/abs(xi)", 1, (8.0, 512.0), 64),
            ("exotic(0, 0.75, 1)", 2, (8.0, 64.0), 4),
            ("exp(i*sin(2*pi*x1)*bracket(xi)^0.75)", 2, (8.0, 64.0), 4),
            ("1/abs(xi)", 2, (8.0, 64.0), 4),
            ("exotic(0, 0.75, 1)", 3, (2.0, 16.0), 2),
        ],
    )
    def test_matches_the_per_shift_loop_bit_for_bit(self, symbol, dim, shell_range,
                                                   x_resolution):
        fam = {"bessel(-1)": bessel(-1.0), "wainger(0.5, 1)": wainger(0.5, 1.0),
               "exotic(0, 0.75, 1)": exotic(0.0, 0.75, 1.0)}.get(symbol)
        expr, params = (fam.expr, fam.parameters) if fam else (parse(symbol), None)
        shells = dyadic_shells(*shell_range)
        points, got_br, zeros = calculus._shell_points(shells, dim)
        for max_order in (1, 2, 3):
            alphas = [a for a in product(range(max_order + 1), repeat=dim) if sum(a) <= max_order]
            for beta in [(0,) * dim, (1,) + (0,) * (dim - 1)]:
                want_br, want = per_shift_shell_maxima(expr, beta, alphas, shells, dim, params,
                                                       x_resolution)
                got = _shell_maxima(expr, beta, alphas, points, params, x_resolution, zeros)
                assert len(got_br) == len(want_br)
                assert all(np.array_equal(g, w) for g, w in zip(got_br, want_br))
                assert list(got) == list(want)
                for alpha in alphas:
                    assert len(got[alpha]) == len(want[alpha])
                    assert all(np.array_equal(g, w) for g, w in zip(got[alpha], want[alpha]))


class TestFitOrder:
    def fit(self, fam, shell_hi=512.0):
        return fit_order(
            fam.expr,
            dim=1,
            params=fam.parameters,
            nominal=ClassParams(fam.order, fam.rho, fam.delta),
            shell_range=(8.0, shell_hi),
        )

    def test_bessel_recovery(self):
        est = self.fit(bessel(-1.0))
        assert -1.05 <= est.fitted_m <= -0.95
        assert 0.9 <= est.fitted_rho <= 1.1
        assert -0.1 <= est.fitted_delta <= 0.1

    def test_wainger_recovery(self):
        est = self.fit(wainger(0.5, 1.0))
        assert est.fitted_m == pytest.approx(-1.0, abs=0.1)
        assert est.fitted_rho == pytest.approx(0.5, abs=0.1)
        assert est.fitted_delta == pytest.approx(0.0, abs=0.1)

    def test_exotic_recovery(self):
        est = self.fit(exotic(0.0, 0.75, 1.0))
        assert est.fitted_m == pytest.approx(0.0, abs=0.1)
        assert est.fitted_rho == pytest.approx(0.25, abs=0.1)
        assert est.fitted_delta == pytest.approx(0.75, abs=0.1)

    def test_exotic_2d_takes_worst_direction(self):
        # the x2-derivative of exotic vanishes (delta term 0) and must not
        # dilute the x1 term: delta is the largest |beta|=1 term, rho the
        # smallest |alpha|=1 term
        fam = exotic(0.0, 0.75, 1.0)
        est = fit_order(fam.expr, dim=2, params=fam.parameters,
                        shell_range=(8.0, 128.0), x_resolution=4)
        zero = (0, 0)
        assert est.slopes[(zero, (0, 1))] is None
        rho_terms = [est.fitted_m - est.slopes[(alpha, zero)] for alpha in ((1, 0), (0, 1))]
        assert est.fitted_rho == min(rho_terms)
        assert est.fitted_rho == pytest.approx(0.25, abs=0.01)
        assert est.fitted_delta == pytest.approx(0.75, abs=0.01)

    def test_bessel_higher_difference_slopes(self):
        est = self.fit(bessel(-1.0))
        for alpha_order in (1, 2):
            slope = est.slopes[((alpha_order,), (0,))]
            assert slope == pytest.approx(-1.0 - alpha_order, abs=0.1)

    def test_constants_finite_positive(self):
        est = self.fit(bessel(-2.0))
        for value in est.constants.values():
            assert np.isfinite(value) and value > 0

    def test_residual_reports_present(self):
        est = self.fit(wainger(0.5, 1.0))
        for key, slope in est.slopes.items():
            assert key in est.residuals
            if slope is not None:
                assert "max_abs_residual" in est.residuals[key]

    def test_too_few_shells(self):
        fam = bessel(-1.0)
        with pytest.raises(ValidationError):
            fit_order(fam.expr, params=fam.parameters, shell_range=(8.0, 64.0))

    def test_to_dict_round_trip_keys(self):
        est = self.fit(bessel(-1.0))
        d = est.to_dict()
        assert set(d) >= {"nominal", "fitted", "constants", "slopes", "residuals", "shells"}

    @pytest.mark.parametrize(
        "fam, dim, shell_hi, x_resolution, nominal",
        [
            (bessel(-1.0), 1, 512.0, 64, True),
            (wainger(0.5, 1.0), 1, 512.0, 64, True),
            (exotic(0.0, 0.75, 1.0), 1, 512.0, 64, True),
            (exotic(-0.5, 0.5, 2.0), 1, 512.0, 64, True),
            (exotic(0.0, 0.75, 1.0), 2, 128.0, 4, False),
        ],
        ids=["bessel", "wainger", "exotic", "exotic-m0.5", "exotic-2d"],
    )
    def test_constants_are_seminorm_constants(self, fam, dim, shell_hi, x_resolution, nominal):
        # oracle: max over the whole x_resolution^dim grid and every shell
        # point of |d^beta_x D^alpha_xi p| <xi>^-(m - rho|alpha| + delta|beta|),
        # by the pointwise difference
        cls = ClassParams(fam.order, fam.rho, fam.delta) if nominal else None
        est = fit_order(fam.expr, dim=dim, params=fam.parameters, nominal=cls,
                        shell_range=(8.0, shell_hi), x_resolution=x_resolution)
        grid = np.meshgrid(*[np.arange(x_resolution) / x_resolution] * dim, indexing="ij")
        x = tuple(m.reshape(-1, 1) for m in grid)
        points = [shell_lattice_points(lo, hi, dim) for lo, hi in est.shells]
        for (alpha, beta), value in est.constants.items():
            tree, exponent = diff_x_multi(fam.expr, beta), est.params.seminorm_exponent(alpha, beta)
            want = 0.0
            for xi in points:
                sup = np.max(np.abs(difference(tree, alpha, x, tuple(xi.T[:, None, :]),
                                               fam.parameters)), axis=0)
                br = np.sqrt(1.0 + np.sum(xi.astype(float) ** 2, axis=1))
                want = max(want, float(np.max(sup * br ** (-exponent))))
            assert value == max(want, 1e-300)

    def test_each_shifted_symbol_evaluated_once(self, monkeypatch):
        # one evaluation per x-derivative, on exactly the union of the
        # shifted shells: distinct points, and never the inner hole's xi = 0
        calls = []
        original = calculus.eval_expr
        monkeypatch.setattr(calculus, "eval_expr", lambda *a: calls.append(a) or original(*a))

        def check(dim, shell_range, gammas):
            want = np.unique(np.concatenate([shell_lattice_points(lo, hi, dim) + gamma
                                             for lo, hi in dyadic_shells(*shell_range)
                                             for gamma in gammas]), axis=0)
            for _, _, xi, _ in calls:
                got = np.stack([c.ravel() for c in xi], axis=-1)
                assert len(got) == len(want)
                assert np.array_equal(np.unique(got, axis=0), want)
                assert not np.any(np.all(got == 0, axis=-1))
            calls.clear()

        fam = exotic(0.0, 0.75, 1.0)
        fit_order(fam.expr, params=fam.parameters)  # 3 indices, 6 shells
        assert len(calls) == 3
        check(1, (8.0, 512.0), [(0,), (1,), (2,)])
        fit_order(fam.expr, dim=2, params=fam.parameters, shell_range=(8.0, 128.0),
                  x_resolution=4)  # 6 indices, 3 of them nonzero derivatives, 4 shells
        assert len(calls) == 3
        check(2, (8.0, 128.0), [g for g in np.ndindex(3, 3) if sum(g) <= 2])

    @pytest.mark.parametrize("dim, shell_range, x_resolution",
                             [(1, (8.0, 512.0), 64), (2, (8.0, 128.0), 4)])
    def test_fits_a_symbol_singular_at_the_origin(self, dim, shell_range, x_resolution):
        # xi = 0 lies in the inner hole, so it is never evaluated
        est = fit_order(parse("1/abs(xi)"), dim=dim, shell_range=shell_range,
                        x_resolution=x_resolution)
        assert est.fitted_m == pytest.approx(-1.0, abs=1e-9)

    def test_exotic_2d_fit_memory(self):
        # class-exotic-2d of the benchmark's analysis workload: one evaluation per
        # derivative, differenced in one lattice box per x-sample; the shell
        # brackets made once, and one zero array per shell for every vanishing term
        fam = exotic(0.0, 0.75, 1.0)
        tracemalloc.start()
        try:
            fit_order(fam.expr, dim=2, params=fam.parameters, shell_range=(8.0, 128.0),
                      x_resolution=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 21 * 2**20  # 20.0 MiB measured

    @pytest.mark.parametrize("guard, fits", [(65, False), (66, True)])
    def test_size_guard_bounds_samples_times_box_cells(self, monkeypatch, guard, fits):
        # 2^2 x-samples on the 2D box [-15, 17]^2: 4 x 33^2 = 66^2 elements
        monkeypatch.setattr(calculus, "MATRIX_GUARD", guard)
        calls = []
        original = calculus.eval_expr
        monkeypatch.setattr(calculus, "eval_expr", lambda *a: calls.append(1) or original(*a))
        fam = exotic(0.0, 0.75, 1.0)
        fit = lambda: fit_order(fam.expr, dim=2, params=fam.parameters, shell_range=(1.0, 16.0),
                                x_resolution=2)
        if fits:
            fit()
            assert len(calls) == 3  # the x2-derivatives are 0 and not evaluated
        else:
            with pytest.raises(SizeGuardError, match=r"x_resolution=2.*shells \(1, 16\)"):
                fit()
            assert calls == []  # raised before any evaluation

    def test_size_guard_runs_before_any_lattice_point(self, monkeypatch):
        # 4096 x-samples on the 1025^2 box of the shells (8, 512)
        calls = []
        monkeypatch.setattr(calculus, "shell_lattice_points", lambda *a: calls.append(a))
        fam = exotic(0.0, 0.75, 1.0)
        with pytest.raises(SizeGuardError, match="4096 x-samples"):
            fit_order(fam.expr, dim=2, params=fam.parameters)
        assert calls == []

    @pytest.mark.parametrize("symbol, dim, x_resolution, beta, read", [
        ("exotic(0, 0.75, 1)", 2, 4, (0, 0), (0,)),
        ("exotic(0, 0.75, 1)", 2, 4, (1, 0), (0,)),
        ("bracket(xi)^0.5", 2, 4, (0, 0), ()),
        ("exp(i*sin(2*pi*x2)*bracket(xi)^0.5)", 2, 4, (0, 0), (1,)),
        ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)", 3, 3, (0, 0, 0), (0, 2)),
        ("exp(i*sin(2*pi*x1)*cos(2*pi*x3)*bracket(xi)^0.5)", 3, 3, (0, 0, 1), (0, 2)),
        ("exotic(0, 0.75, 1)", 1, 8, (0,), (0,)),
    ])
    def test_x_samples_only_along_the_axes_read(self, monkeypatch, symbol, dim, x_resolution,
                                                beta, read):
        # the x_resolution grid over the read axes, with 0 on every other axis
        fam = exotic(0.0, 0.75, 1.0) if symbol.startswith("exotic") else None
        expr, params = (fam.expr, fam.parameters) if fam else (parse(symbol), None)
        calls = []
        original = calculus.eval_expr
        monkeypatch.setattr(calculus, "eval_expr", lambda *a: calls.append(a) or original(*a))
        shells = dyadic_shells(2.0, 8.0)
        points, _, zeros = calculus._shell_points(shells, dim)
        _shell_maxima(expr, beta, [(0,) * dim], points, params, x_resolution, zeros)
        (_, x, _, _), = calls
        got = np.stack([np.broadcast_to(c, x[0].shape).ravel() for c in x], axis=-1)
        grids = [np.arange(x_resolution) / x_resolution if ax in read else [0.0]
                 for ax in range(dim)]
        want = np.stack([m.ravel() for m in np.meshgrid(*grids, indexing="ij")], axis=-1)
        assert np.array_equal(got, want)

    def test_zero_derivatives_are_not_evaluated(self, monkeypatch):
        # exotic reads x1 only, so on 2D every beta with beta_2 > 0 gives the
        # constant 0; its maxima are 0 with no evaluation, exactly the fit
        # that evaluates and differences those zero trees
        fam = exotic(0.0, 0.75, 1.0)
        trees = []
        original = calculus.eval_expr
        monkeypatch.setattr(calculus, "eval_expr", lambda *a: trees.append(a[0]) or original(*a))
        fit = lambda: fit_order(fam.expr, dim=2, params=fam.parameters,
                                shell_range=(8.0, 128.0), x_resolution=4)
        skipped = fit()
        betas = [b for b in product(range(3), repeat=2) if sum(b) <= 2]
        nonzero = [diff_x_multi(fam.expr, b) for b in betas if b[1] == 0]
        assert trees == nonzero
        trees.clear()
        monkeypatch.setattr(calculus, "Const", lambda value: None)  # no tree is Const(0) now
        evaluated = fit()
        assert len(trees) == len(betas)
        assert skipped.constants == evaluated.constants
        assert skipped.slopes == evaluated.slopes
        assert (skipped.fitted_m, skipped.fitted_rho, skipped.fitted_delta) == \
            (evaluated.fitted_m, evaluated.fitted_rho, evaluated.fitted_delta)

    def test_a_symbol_of_x2_alone_in_1d_raises(self):
        with pytest.raises(DslError, match="x2 out of range"):
            fit_order(parse("exp(i*x2)*bracket(xi)^-1"), dim=1)

    @pytest.mark.parametrize("kwargs", [{"max_order": 0}, {"max_order": -1},
                                        {"x_resolution": 0}])
    def test_rejects_unfittable_input(self, kwargs):
        fam = exotic(0.0, 0.75, 1.0)
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            fit_order(fam.expr, params=fam.parameters, **kwargs)
