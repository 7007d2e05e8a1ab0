import math
import time
import tracemalloc

import numpy as np
import numpy.linalg as la
import pytest

from toruslab.calculus import ClassParams
from toruslab.errors import ConvergenceError, ValidationError
from toruslab.grid import GridFunction, GridSpec
from toruslab.operators import (
    AdjointOperator,
    MultiplierOperator,
    PdoOperator,
    compose_bessel,
    to_matrix,
)
from toruslab import experiments
from toruslab.experiments import (
    ASCENT_STEPS,
    EndpointReport,
    admissible_order,
    effective_order,
    h1_l1_experiment,
    l2_norm,
    linf_bmo_experiment,
    lp_lq_admissibility,
    lp_lq_lower_bound,
    lp_threshold,
    threshold_sweep,
    weak11_experiment,
)
from toruslab.spaces import bmo_norm, lp_norm, lp_norms, make_atom
from toruslab.symbols import bessel, exotic, wainger


def gapped_profile(rng, L, min_gap=0.02):
    """Random multiplier values with a resolvable top spectral gap.

    Power iteration cannot separate near-ties within its budget, so the
    random ensemble is conditioned on a 2% relative gap between the two
    largest moduli (exact ties would be fine; near-ties are not).
    """
    while True:
        vals = rng.uniform(0.2, 2.0, L) * np.exp(2j * np.pi * rng.random(L))
        mags = np.sort(np.abs(vals))[::-1]
        if (mags[0] - mags[1]) / mags[0] >= min_gap:
            return vals


class TestL2Norm:
    def test_multiplier_matches_profile_max(self):
        spec = GridSpec((64,))
        rng = np.random.default_rng(20240601)
        for k in range(50):
            prof = gapped_profile(rng, 64)
            T = MultiplierOperator(prof, spec)
            want = float(np.max(np.abs(prof)))
            got = l2_norm(T, seed=k).value
            assert abs(got - want) <= 1e-6 * want

    def test_smoothing_potential_norm_is_one(self):
        spec = GridSpec((64,))
        for s in (-0.5, -2.0):
            got = l2_norm(PdoOperator.from_family(bessel(s), spec), seed=1).value
            assert abs(got - 1.0) <= 1e-6

    def test_matches_svd_oracle(self):
        spec = GridSpec((32,))
        rng = np.random.default_rng(7)
        for k in range(10):
            a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)
            m1, m2 = rng.uniform(-1.5, -0.2), rng.uniform(-1.5, -0.2)
            text = (
                f"({a:.4f}+{b:.4f}*sin(2*pi*x1))*bracket(xi1)^({m1:.4f})"
                f"+{c:.4f}*cos(2*pi*x1)*bracket(xi1)^({m2:.4f})"
            )
            T = PdoOperator.from_text(text, spec)
            want = float(la.svd(to_matrix(T).matrix, compute_uv=False)[0])
            got = l2_norm(T, seed=100 + k).value
            assert abs(got - want) <= 1e-6 * want

    def test_adjoint_has_same_norm(self):
        spec = GridSpec((32,))
        T = PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), spec)
        nT = l2_norm(T, seed=0).value
        nA = l2_norm(AdjointOperator(T), seed=1).value
        assert abs(nT - nA) <= 1e-6 * nT

    @pytest.mark.parametrize("N", [64, 128, 256, 512])
    def test_near_tied_exotic_matches_dense_svd(self, N):
        # the top two singular values of exotic(0, 0.75, 1) nearly tie
        # (1.38115 and 1.37485 at N = 128)
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((N,)))
        first, second = la.svd(to_matrix(T).matrix, compute_uv=False)[:2]
        assert (first - second) / first < 0.05
        est = l2_norm(T, seed=3)
        assert abs(est.value - first) <= 1e-10 * first
        assert abs(est.verify(T) - est.value) <= 1e-10 * est.value

    def test_near_tied_multiplier_profiles(self):
        # the draws c06 excludes: the two largest moduli within 2 % of each other
        spec = GridSpec((64,))
        rng = np.random.default_rng(20240601)
        for k in range(20):
            while True:
                vals = rng.uniform(0.2, 2.0, 64) * np.exp(2j * np.pi * rng.random(64))
                mags = np.sort(np.abs(vals))[::-1]
                if (mags[0] - mags[1]) / mags[0] < 0.02:
                    break
            want = float(mags[0])
            assert abs(l2_norm(MultiplierOperator(vals, spec), seed=k).value - want) <= 1e-10 * want

    def test_witness_is_a_unit_ritz_vector(self):
        # top moduli clustered within 1e-6: without reorthogonalization the
        # Lanczos vectors drift and the witness norm is off by about 3e-8
        spec = GridSpec((256,))
        rng = np.random.default_rng(0)
        vals = (1 - 1e-6 * rng.random(256)) * np.exp(2j * np.pi * rng.random(256))
        T = MultiplierOperator(vals, spec)
        est = l2_norm(T, seed=1)
        assert abs(np.linalg.norm(est.witness.values) - 1.0) <= 1e-12
        assert abs(est.verify(T) - est.value) <= 1e-12 * est.value
        assert abs(est.value - np.abs(vals).max()) <= 1e-10

    def test_zero_operator_and_exhausted_budget(self, monkeypatch):
        spec = GridSpec((32,))
        assert l2_norm(MultiplierOperator(np.zeros(32), spec)).value == 0.0
        monkeypatch.setattr(experiments, "L2_MAX_STEPS", 3)
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), spec)
        with pytest.raises(ConvergenceError, match="3 steps") as err:
            l2_norm(T, seed=3)
        assert err.value.final_gap > 1e-10


class TestLowerBound:
    def test_identity_diagonal(self):
        spec = GridSpec((32,))
        I = PdoOperator.from_text("1", spec)
        for p in (1.5, 2.0, 4.0):
            est = lp_lq_lower_bound(I, p, p, trials=6, seed=0)
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_identity_decreasing_exponents(self):
        spec = GridSpec((32,))
        I = PdoOperator.from_text("1", spec)
        est = lp_lq_lower_bound(I, 4.0, 2.0, trials=6, seed=0)
        assert est.value >= 1.0 - 1e-12

    def test_mean_projection(self):
        spec = GridSpec((32,))
        prof = np.zeros(32)
        prof[16] = 1.0
        P = MultiplierOperator(prof, spec)
        est = lp_lq_lower_bound(P, 2.0, 2.0, trials=8, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_smoothing_2_to_inf_matches_restart_oracle(self):
        # for a multiplier the 2 -> inf norm is attained by the matched
        # filter; the closed form is the l2 mass of the profile
        spec = GridSpec((32,))
        J = PdoOperator.from_family(bessel(-1.0), spec)
        est = lp_lq_lower_bound(J, 2.0, np.inf, trials=12, seed=5)
        exact = float(np.sqrt(np.sum(np.abs(J.multiplier_profile()) ** 2)))
        assert est.value >= 0.95 * exact
        oracle = max(
            lp_lq_lower_bound(J, 2.0, np.inf, trials=12, seed=1000 + r).value for r in range(20)
        )
        assert est.value >= 0.95 * oracle

    def test_witness_reproduces_value(self):
        spec = GridSpec((64,))
        T = PdoOperator.from_family(wainger(0.5, 0.25), spec)
        est = lp_lq_lower_bound(T, 4.0, 4.0, trials=9, seed=3)
        assert abs(est.verify(T) - est.value) <= 1e-10 * est.value

    def test_two_two_consistent_with_power_iteration(self):
        spec = GridSpec((64,))
        rng = np.random.default_rng(99)
        prof = gapped_profile(rng, 64)
        T = MultiplierOperator(prof, spec)
        truth = l2_norm(T, seed=0).value
        est = lp_lq_lower_bound(T, 2.0, 2.0, trials=9, seed=1)
        assert est.value <= truth + 1e-6
        assert est.value >= 0.99 * truth

    def test_endpoint_exponents(self):
        spec = GridSpec((32,))
        I = PdoOperator.from_text("1", spec)
        assert lp_lq_lower_bound(I, 1.0, 1.0, trials=6, seed=0).value == pytest.approx(1.0)
        assert lp_lq_lower_bound(I, np.inf, np.inf, trials=6, seed=0).value == pytest.approx(1.0)
        # identity L^1 -> L^2 on the grid: the spike attains G^(1/2)
        est = lp_lq_lower_bound(I, 1.0, 2.0, trials=6, seed=0)
        assert est.value == pytest.approx(np.sqrt(32), rel=1e-9)

    def test_exponent_validation(self):
        spec = GridSpec((16,))
        I = PdoOperator.from_text("1", spec)
        with pytest.raises(ValidationError):
            lp_lq_lower_bound(I, 0.5, 2.0)


class Counting:
    """Wraps an operator and counts its apply and adjoint calls, and the
    functions they act on: one for a GridFunction, B for a value stack."""

    def __init__(self, op):
        self.op, self.spec, self.label = op, op.spec, op.label
        self.applies = self.adjoints = self.apply_calls = self.adjoint_calls = 0

    @staticmethod
    def functions(f):
        return 1 if isinstance(f, GridFunction) else len(f)

    def apply(self, f):
        self.applies += self.functions(f)
        self.apply_calls += 1
        return self.op.apply(f)

    def apply_adjoint(self, g):
        self.adjoints += self.functions(g)
        self.adjoint_calls += 1
        return self.op.apply_adjoint(g)


def sequential_dual_map(values, q):
    """The Holder dual map of one grid function, as the sequential ascent had it."""
    a = np.abs(values)
    if np.isinf(q):
        out = np.zeros_like(values)
        pos = np.unravel_index(int(np.argmax(a)), values.shape)
        out[pos] = values[pos] / max(a[pos], 1e-300)
        return out
    sign = np.where(a > 0, values / np.where(a == 0, 1.0, a), 0.0)
    return a ** (q - 1.0) * sign


def sequential_norm(values, p, G):
    a = np.abs(values)
    if np.isinf(p):
        return float(a.max())
    return float((np.sum(a**p) / G) ** (1.0 / p))


def sequential_lower_bound(op, p, q, trials, seed):
    """Reference: the battery scored one function at a time, then the four
    ascents run one after the other, each iterate applied once."""
    spec, G = op.spec, op.spec.npoints
    rng = np.random.default_rng(seed)
    pp = np.inf if p == 1 else (p / (p - 1.0) if not np.isinf(p) else 1.0)
    best_ratio, best_witness = 0.0, None

    def consider(values):
        nonlocal best_ratio, best_witness
        nv = sequential_norm(values, p, G)
        if nv == 0:
            return 0.0, np.zeros_like(values)
        f = GridFunction(spec, values)
        Tf = op.apply(f).values
        ratio = sequential_norm(Tf, q, G) / nv
        if ratio > best_ratio:
            best_ratio, best_witness = ratio, f
        return ratio, Tf

    scored = [consider(values) for values in experiments._witness_battery(spec, rng, trials)]
    order = np.argsort([ratio for ratio, _ in scored])[::-1]
    for _, g in [scored[i] for i in order[:4]]:
        for _ in range(ASCENT_STEPS):
            h = sequential_dual_map(g, q)
            if not np.any(h):
                break
            u = op.apply_adjoint(GridFunction(spec, h)).values
            f = sequential_dual_map(u, pp)
            scale = np.max(np.abs(f))
            if scale == 0:
                break
            _, g = consider(f / scale)
    if best_witness is None:
        best_witness = GridFunction(spec, np.ones(spec.sizes, dtype=complex))
        best_ratio = consider(best_witness.values)[0]
    return best_ratio, best_witness.values


def twice_applied_lower_bound(op, p, q, trials, seed):
    """Reference: the battery and ascent with every iterate applied twice,
    once to score it and once more at the start of the next step."""
    spec, G = op.spec, op.spec.npoints
    norm, dual = sequential_norm, sequential_dual_map
    rng = np.random.default_rng(seed)
    pp = np.inf if p == 1 else (p / (p - 1.0) if not np.isinf(p) else 1.0)
    best = [0.0, None]

    def consider(values):
        nv = norm(values, p, G)
        if nv == 0:
            return 0.0
        f = GridFunction(spec, values)
        ratio = norm(op.apply(f).values, q, G) / nv
        if ratio > best[0]:
            best[:] = ratio, f
        return ratio

    starts = experiments._witness_battery(spec, rng, trials)
    ratios = [consider(values) for values in starts]
    for values in [starts[i] for i in np.argsort(ratios)[::-1][:4]]:
        f = np.array(values)
        for _ in range(ASCENT_STEPS):
            h = dual(op.apply(GridFunction(spec, f)).values, q)
            if not np.any(h):
                break
            f = dual(op.apply_adjoint(GridFunction(spec, h)).values, pp)
            scale = np.max(np.abs(f))
            if scale == 0:
                break
            f = f / scale
            consider(f)
    return best[0], best[1].values


class TestAscentAppliesOnce:
    FAMILIES = [wainger(0.5, 0.25), exotic(-0.6875, 0.75, 1.0)]

    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
    def test_one_apply_per_iterate(self, fam):
        T = Counting(PdoOperator.from_family(fam, GridSpec((256,))))
        lp_lq_lower_bound(T, 4.0, 4.0, trials=12, seed=7)
        # 12 battery starts, then 4 ascents of ASCENT_STEPS (adjoint, apply) steps
        assert (T.applies, T.adjoints) == (12 + 4 * ASCENT_STEPS, 4 * ASCENT_STEPS)
        # the battery is one stack, and each lockstep step one adjoint and one apply
        assert (T.apply_calls, T.adjoint_calls) == (1 + ASCENT_STEPS, ASCENT_STEPS)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
    def test_bit_identical_to_applying_twice(self, fam, p):
        spec = GridSpec((256,))
        est = lp_lq_lower_bound(PdoOperator.from_family(fam, spec), p, p, trials=12, seed=7)
        value, witness = twice_applied_lower_bound(PdoOperator.from_family(fam, spec), p, p, 12, 7)
        assert est.value == value
        assert np.array_equal(est.witness.values, witness)


EXPONENTS = [1.0, 1.5, 2.0, 4.0, np.inf]


class TestLockstepAscent:
    """The stacked battery and lockstep chains are the sequential loop, bit for bit."""

    OPERATORS = {
        "multiplier-1d": lambda: PdoOperator.from_family(wainger(0.5, 0.25), GridSpec((64,))),
        "general-1d": lambda: PdoOperator.from_family(exotic(-0.5, 0.75, 1.0), GridSpec((64,))),
        "multiplier-2d": lambda: PdoOperator.from_family(bessel(-1.0), GridSpec((8, 16))),
        "general-2d": lambda: PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), GridSpec((8, 8))),
    }

    @pytest.mark.parametrize("q", EXPONENTS)
    @pytest.mark.parametrize("p", EXPONENTS)
    @pytest.mark.parametrize("kind", list(OPERATORS))
    def test_equals_the_sequential_loop(self, kind, p, q):
        op = self.OPERATORS[kind]()
        est = lp_lq_lower_bound(op, p, q, trials=12, seed=11)
        value, witness = sequential_lower_bound(op, p, q, 12, 11)
        assert est.value == value
        assert np.array_equal(est.witness.values, witness)

    @pytest.mark.parametrize("sizes", [(32,), (8, 8)])
    @pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
    def test_zero_operator_chains_stop_at_step_one(self, sizes, p):
        T = Counting(PdoOperator.from_text("0", GridSpec(sizes)))
        est = lp_lq_lower_bound(T, p, p, trials=12, seed=2)
        value, witness = sequential_lower_bound(T.op, p, p, 12, 2)
        assert est.value == value == 0.0
        assert np.array_equal(est.witness.values, witness)
        # every h is 0, so every iterate is 0 and all four chains stop at their
        # first adjoint; the battery and then the fallback, ones, are applied
        assert (T.apply_calls, T.adjoint_calls, T.adjoints) == (2, 1, 4)

    def test_one_lower_bound_stays_small(self):
        # a per-step witness history would take >= 6.5 MiB here
        op = PdoOperator.from_family(wainger(0.5, 0.25), GridSpec((2048,)))
        # a first call also pays one-off costs (the table, numpy's first draws)
        lp_lq_lower_bound(op, 4.0, 4.0, trials=12, seed=6)
        tracemalloc.start()
        try:
            lp_lq_lower_bound(op, 4.0, 4.0, trials=12, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestAscentPasses:
    """The stacked norms and dual map are the sequential ones, bit for bit."""

    @staticmethod
    def stack(sizes, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((5,) + sizes) + 1j * rng.standard_normal((5,) + sizes)

    @pytest.mark.parametrize("sizes", [(64,), (8, 16)])
    @pytest.mark.parametrize("p", EXPONENTS + [3.0])
    def test_norms_are_the_sequential_norms(self, p, sizes):
        stack, G = self.stack(sizes, 1), math.prod(sizes)
        want = [sequential_norm(row, p, G) for row in stack]
        assert lp_norms(stack, p) == want
        assert lp_norms(stack, p, np.abs(stack)) == want

    @pytest.mark.parametrize("p", EXPONENTS)
    def test_norms_of_an_empty_stack(self, p):
        assert lp_norms(np.zeros((0, 4, 8), dtype=complex), p) == []

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("q", EXPONENTS)
    def test_dual_map_is_the_sequential_map(self, q, zeros):
        # with exact zeros the masked division runs, else the plain one
        stack = self.stack((8, 16), 2)
        if zeros:
            stack[0, 2:5] = 0
            stack[3] = 0
        want = [sequential_dual_map(row, q) for row in stack]
        for a in (None, np.abs(stack)):
            assert np.array_equal(experiments._dual_map(stack, q, a), want)


class TestThresholdSweep:
    def test_diagonal_threshold_formulas(self):
        assert lp_threshold(ClassParams(0, 1.0, 0.0), 2.0, 1) == 0.0
        # rho = 0.25, delta = 0.75: lam = 0.25 -> m*(2) = -0.25 n
        assert lp_threshold(ClassParams(0, 0.25, 0.75), 2.0, 1) == pytest.approx(-0.25)
        assert lp_threshold(ClassParams(0, 0.25, 0.75), 2.0, 2) == pytest.approx(-0.5)
        # wainger rho = 0.5 at p = 4: -0.5 * |1/4 - 1/2| = -0.125
        assert lp_threshold(ClassParams(0, 0.5, 0.0), 4.0, 1) == pytest.approx(-0.125)

    def test_wainger_separation_small(self):
        builder = lambda m: wainger(0.5, -m)
        rec = threshold_sweep(builder, 4.0, [-0.375, 0.125], [64, 128, 256], trials=9, seed=7)
        assert rec.slopes[-0.375] < rec.slopes[0.125]
        assert rec.slopes[-0.375] < 0.1
        assert rec.classifications[0.125] == "growth"

    def test_scaling_invariance_of_classification(self):
        base = lambda m: wainger(0.5, -m)
        # scaling the symbol multiplies every norm estimate by the constant
        rec1 = threshold_sweep(base, 2.0, [0.25], [64, 128, 256], trials=6, seed=3)
        est_vals = [rec1.estimates[(0.25, N)].value for N in (64, 128, 256)]
        scaled = [7.5 * v for v in est_vals]
        s1 = np.polyfit(np.log([64, 128, 256]), np.log(est_vals), 1)[0]
        s2 = np.polyfit(np.log([64, 128, 256]), np.log(scaled), 1)[0]
        assert abs(s1 - s2) < 1e-12

    def test_short_n_grid_rejected(self):
        with pytest.raises(ValidationError):
            threshold_sweep(lambda m: bessel(m), 2.0, [0.0], [64, 128], trials=3, seed=0)

    def test_record_recomputes_threshold(self):
        builder = lambda m: wainger(0.5, -m)
        rec = threshold_sweep(builder, 4.0, [-0.375], [64, 128, 256], trials=3, seed=0)
        assert rec.threshold_order() == pytest.approx(-0.125)


def cell_ops(rec, builder):
    """(m, N, op, cell seed) for every cell of a 1D sweep record, seeded as
    threshold_sweep seeds it."""
    for i, m in enumerate(rec.m_grid):
        for j, N in enumerate(rec.n_grid):
            op = PdoOperator.from_family(builder(m), GridSpec((N,)))
            yield m, N, op, int(np.random.default_rng([rec.seed, i, j]).integers(2**31))


class TestSweepCellsAtTwo:
    """At p = 2 a sweep cell is the exact L^2 norm; at other p the lower bound."""

    def test_multiplier_cells_are_max_sigma(self):
        builder = lambda m: wainger(0.5, -m)
        rec = threshold_sweep(builder, 2.0, [-0.25, 0.25], [64, 128, 256, 512], trials=12, seed=7)
        for m, N, op, cell_seed in cell_ops(rec, builder):
            est = rec.estimates[(m, N)]
            want = float(np.max(np.abs(op.multiplier_profile())))
            assert est.value == want
            assert est.method == "multiplier-max"
            assert est.value >= lp_lq_lower_bound(op, 2.0, 2.0, trials=12, seed=cell_seed).value
            assert abs(est.verify(op) - est.value) <= 1e-12 * est.value
            if N <= 256:
                sigma = la.svd(to_matrix(op).matrix, compute_uv=False)[0]
                assert abs(est.value - sigma) <= 1e-12 * sigma
        assert rec.slopes[-0.25] == 0.0

    def test_witness_is_the_first_argmax_wave(self):
        # bessel(0) has |sigma| = 1 everywhere: the first lattice point wins
        rec = threshold_sweep(lambda m: bessel(m), 2.0, [0.0], [8, 16, 32], seed=0)
        for N in (8, 16, 32):
            est = rec.estimates[(0.0, N)]
            want = np.exp(-2j * np.pi * (N // 2) * np.arange(N) / N)
            assert np.array_equal(est.witness.values, want)

    def test_general_cells_are_golub_kahan(self):
        builder = lambda m: exotic(m, 0.75, 1.0)
        rec = threshold_sweep(builder, 2.0, [-0.5], [64, 128, 256], trials=12, seed=5)
        for m, N, op, cell_seed in cell_ops(rec, builder):
            est = rec.estimates[(m, N)]
            assert est.value == l2_norm(op, seed=cell_seed).value
            assert est.method == "golub-kahan"
            sigma = la.svd(to_matrix(op).matrix, compute_uv=False)[0]
            assert abs(est.value - sigma) <= 1e-10 * sigma

    @pytest.mark.parametrize(
        "builder", [lambda m: wainger(0.5, -m), lambda m: exotic(m, 0.75, 1.0)],
        ids=["wainger", "exotic"],
    )
    def test_other_p_cells_are_the_lower_bound(self, builder):
        rec = threshold_sweep(builder, 4.0, [-0.375, 0.125], [64, 128, 256], trials=9, seed=11)
        got, want = [], []
        for m, N, op, cell_seed in cell_ops(rec, builder):
            got.append(rec.estimates[(m, N)].value)
            want.append(lp_lq_lower_bound(op, 4, 4, trials=9, seed=cell_seed).value)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))

    def test_multiplier_sweep_makes_no_apply(self, monkeypatch):
        calls = {"apply": 0, "apply_adjoint": 0}
        for name in calls:
            method = getattr(PdoOperator, name)

            def counted(self, f, name=name, method=method):
                calls[name] += 1
                return method(self, f)

            monkeypatch.setattr(PdoOperator, name, counted)
        threshold_sweep(lambda m: wainger(0.5, -m), 2.0, [-0.25, 0.25], [64, 128, 256], seed=7)
        assert calls == {"apply": 0, "apply_adjoint": 0}
        # the counters do count: a p = 4 sweep applies
        threshold_sweep(lambda m: wainger(0.5, -m), 4.0, [0.0], [64, 128, 256], trials=3, seed=7)
        assert calls["apply"] > 0 and calls["apply_adjoint"] > 0


class TestWeak11:
    def test_identity_chebyshev(self):
        spec = GridSpec((64,))
        I = PdoOperator.from_family(bessel(0.0), spec)
        rep = weak11_experiment(I, trials=30, seed=0, truncations=[64, 128])
        assert rep["max_ratio"] <= 1.0 + 1e-9
        assert len(rep["per_lam"]) == len(rep["lam_grid"])
        assert rep["input_norms"] and all(n > 0 for n in rep["input_norms"])

    def test_spike_ratio_bounded_by_kernel_max(self):
        from toruslab.kernels import synthesize_kernel

        values = {}
        for N in (128, 256):
            spec = GridSpec((N,))
            J = PdoOperator.from_family(bessel(-2.0), spec)
            kmax = synthesize_kernel(J).max_abs()
            v = np.zeros(N, dtype=complex)
            v[N // 3] = N
            Tf = np.abs(J.apply(GridFunction(spec, v)).values)
            ratio = max(
                lam * np.count_nonzero(Tf > lam) / N for lam in np.geomspace(1e-3, 10, 100)
            )
            assert ratio <= kmax + 1e-9
            values[N] = kmax
        assert abs(values[256] - values[128]) <= 0.1 * values[128]

    def test_critical_composition_stable(self):
        fam = exotic(0.0, 0.75, 1.0)
        T = compose_bessel(PdoOperator.from_family(fam, GridSpec((64,))), -0.625, "left")
        rep = weak11_experiment(T, trials=30, seed=3, truncations=[64, 128])
        assert rep["hypothesis_satisfied"]
        assert rep["stability"] <= 0.25


class TestLinfBmo:
    def test_strong_smoothing_kills_oscillation(self):
        # output is nearly constant, so its oscillation norm is tiny
        spec = GridSpec((64,))
        T = PdoOperator.from_text("1/bracket(xi1)^10", spec)
        rep = linf_bmo_experiment(T, trials=4, seed=0, truncations=[64])
        assert rep["max_ratio"] < 0.05

    def test_identity_bounded_by_two(self):
        spec = GridSpec((64,))
        I = PdoOperator.from_family(bessel(0.0), spec)
        rep = linf_bmo_experiment(I, trials=10, seed=1, truncations=[64])
        assert rep["max_ratio"] <= 2.0 + 1e-9

    def test_critical_composition_stable(self):
        fam = exotic(0.0, 0.75, 1.0)
        T = compose_bessel(PdoOperator.from_family(fam, GridSpec((64,))), -0.625, "left")
        rep = linf_bmo_experiment(T, trials=20, seed=3, truncations=[64, 128])
        assert rep["stability"] <= 0.25

    def test_2d_balls_at_128_within_budget(self):
        # every ball of the 128^2 family would take ~20 s; the bounded sup
        # reads the few that can hold the maximum
        T = PdoOperator.from_family(bessel(-1.0), GridSpec((64, 64)))
        start = time.perf_counter()
        rep = linf_bmo_experiment(T, trials=1, seed=0, truncations=[64, 128])
        assert time.perf_counter() - start < 5.0
        assert rep["hypothesis_satisfied"]
        assert rep["stability"] <= 0.25


class TestH1L1:
    def test_identity_atoms_bounded_by_one(self):
        spec = GridSpec((64,))
        I = PdoOperator.from_family(bessel(0.0), spec)
        rep = h1_l1_experiment(I, trials=8, seed=0, truncations=[64])
        assert rep["max_ratio"] <= 1.0 + 1e-9

    def test_whole_torus_atom_rejected(self):
        from toruslab.spaces import make_atom
        from helpers import constant_function

        spec = GridSpec((32,))
        with pytest.raises(ValidationError):
            make_atom((0.5,), 0.9, constant_function(spec, 1.0))

    def test_no_radii_rejected(self):
        I = PdoOperator.from_family(bessel(0.0), GridSpec((32,)))
        with pytest.raises(ValidationError, match="atom_radii"):
            h1_l1_experiment(I, atom_radii=[], trials=2, truncations=[32])

    def test_radius_uniformity_at_critical_order(self):
        fam = exotic(0.0, 0.75, 1.0)
        T = compose_bessel(PdoOperator.from_family(fam, GridSpec((128,))), -0.625, "left")
        rep = h1_l1_experiment(T, trials=10, seed=3, truncations=[128, 256])
        vals = list(rep["per_radius"].values())
        assert max(vals) <= 3.0 * min(vals)
        assert rep["stability"] <= 0.25


class TestTruncationScan:
    """The endpoint experiments scan truncations in ascending order and
    report the finest one's breakdown, whatever order they are given in."""

    @staticmethod
    def operator():
        T = PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((32,)))
        return AdjointOperator(compose_bessel(T, -0.625, "left"))

    @pytest.mark.parametrize("experiment", [weak11_experiment, linf_bmo_experiment, h1_l1_experiment])
    def test_order_of_truncations_does_not_matter(self, experiment):
        op = self.operator()
        ascending = experiment(op, trials=6, seed=2, truncations=[32, 64])
        descending = experiment(op, trials=6, seed=2, truncations=[64, 32])
        assert ascending == descending
        assert list(descending["per_truncation"]) == ["32", "64"]

    @pytest.mark.parametrize("experiment", [weak11_experiment, linf_bmo_experiment, h1_l1_experiment])
    def test_one_report_shape(self, experiment):
        rep = experiment(self.operator(), trials=2, seed=0, truncations=[32])
        assert type(rep) is EndpointReport and rep.stability == rep["stability"]
        assert not hasattr(rep, "no_such_field")

    @pytest.mark.parametrize("truncations", [[], [0], [-32], [48], [32, True]], ids=str)
    @pytest.mark.parametrize("experiment", [weak11_experiment, linf_bmo_experiment, h1_l1_experiment])
    def test_unusable_truncations_rejected(self, experiment, truncations):
        with pytest.raises(ValidationError, match="^truncations: "):
            experiment(self.operator(), trials=2, seed=0, truncations=truncations)

    def test_weak11_breakdown_is_the_finest_truncations(self):
        op = self.operator()
        both = weak11_experiment(op, trials=6, seed=2, truncations=[32, 64])
        finest = weak11_experiment(op, trials=6, seed=2, truncations=[64])
        assert both["per_lam"] == finest["per_lam"] and both["input_norms"] == finest["input_norms"]
        assert both["per_truncation"]["64"] == finest["per_truncation"]["64"]


def realize_alone(param, spec):
    """One weak-(1,1) trial realized alone, a bump's profile made for it alone."""
    profile = [experiments._trig_profile(param[1][2], spec)] if param[0] == "bump" else []
    return experiments._realize_weak11_trial(param, spec, iter(profile))


def trial_by_trial_weak11(op, trials, seed, truncations, lam_grid=None):
    """Reference: weak11_experiment applying one realized trial at a time."""
    if lam_grid is None:
        lam_grid = list(np.geomspace(1e-3, 1e3, 61))
    params = experiments._weak11_trial_params(np.random.default_rng(seed), trials, op.spec.dim)
    per_truncation = {}
    for N, op_N in experiments._rebuilt(op, sorted(truncations)):
        spec, G = op_N.spec, op_N.spec.npoints
        best, per_lam, input_norms = 0.0, [0.0] * len(lam_grid), []
        for param in params:
            v = realize_alone(param, spec)
            if v is None:
                continue
            f = GridFunction(spec, v)
            norm1 = lp_norm(f, 1.0).value
            input_norms.append(norm1)
            Tf = np.abs(op_N.apply(f).values)
            for k, lam in enumerate(lam_grid):
                value = lam * float(np.count_nonzero(Tf > lam)) / G
                best = max(best, value / norm1)
                per_lam[k] = max(per_lam[k], value)
        per_truncation[str(N)] = best
    return per_truncation, per_lam, input_norms


def trial_by_trial_linf_bmo(op, trials, seed, truncations):
    """Reference: linf_bmo_experiment applying one trial at a time."""
    dim = op.spec.dim
    coarse = min([*op.spec.sizes, *truncations])
    rng = np.random.default_rng(seed)
    depth = int(math.log2(coarse)) - 2
    trial_params = [("signs", rng.choice([-1.0, 1.0], size=(coarse,) * dim)) if t % 2 == 0
                    else ("lacunary", rng.choice([-1.0, 1.0], size=depth)) for t in range(trials)]
    per_truncation = {}
    for N, op_N in experiments._rebuilt(op, sorted(truncations)):
        spec, best, x1 = op_N.spec, 0.0, op_N.spec.mesh()[0]
        for kind, data in trial_params:
            if kind == "signs":
                v = data.astype(complex)
                for ax in range(dim):
                    v = np.repeat(v, N // coarse, axis=ax)
            else:
                v = np.zeros(spec.sizes)
                for k, c in enumerate(data):
                    v = v + c * np.cos(2 * np.pi * (2**k) * x1)
                v = v / np.max(np.abs(v))
            Tf = op_N.apply(GridFunction(spec, v))
            best = max(best, bmo_norm(Tf).value / np.max(np.abs(v)))
        per_truncation[str(N)] = best
    return per_truncation


def atom_by_atom_h1_l1(op, atom_radii, trials, seed, truncations):
    """Reference: h1_l1_experiment applying one atom at a time."""
    rng = np.random.default_rng(seed)
    draws = {radius: [(rng.random(op.spec.dim), rng.standard_normal(33)) for _ in range(trials)]
             for radius in atom_radii}
    per_truncation = {}
    for N, op_N in experiments._rebuilt(op, sorted(truncations)):
        spec, per_radius = op_N.spec, {}
        for radius in atom_radii:
            best = 0.0
            for center, coeffs in draws[radius]:
                profile = GridFunction(spec, 1e9 * experiments._trig_profile(coeffs, spec))
                try:
                    atom = make_atom(tuple(center), radius, profile)
                except ValidationError:
                    continue
                out = op_N.apply(atom.values)
                best = max(best, lp_norm(out, 1.0).value)
            per_radius[radius] = best
        per_truncation[str(N)] = max(per_radius.values())
    return per_truncation, {f"{r:g}": v for r, v in per_radius.items()}


def one_trig_profile(coeffs, spec):
    """One trigonometric field, its waves added one at a time."""
    x1 = spec.mesh()[0]
    out = np.full(spec.sizes, coeffs[0], dtype=np.complex128)
    for k in range(1, (len(coeffs) - 1) // 2 + 1):
        out += coeffs[2 * k - 1] * np.cos(2 * np.pi * k * x1)
        out += coeffs[2 * k] * np.sin(2 * np.pi * k * x1)
    return out


@pytest.mark.parametrize("sizes", [(128,), (256,), (16, 32)])
def test_trig_profiles_of_every_draw_in_one_call(sizes):
    # each wave is evaluated once for all draws; every field keeps its bits
    spec = GridSpec(sizes)
    coeffs = np.random.default_rng(5).standard_normal((30, 33))
    batch = experiments._trig_profile(coeffs, spec)
    assert batch.shape == (30,) + sizes
    for c, got in zip(coeffs, batch):
        assert np.array_equal(got.view(np.uint64), one_trig_profile(c, spec).view(np.uint64))
    assert np.array_equal(experiments._trig_profile(coeffs[3], spec), batch[3])


class TestStackedTrials:
    """Each truncation's trials (atoms, for H^1) are one stacked apply, and the
    reports equal one trial at a time, bit for bit."""

    CASES = {  # operator, truncations, H^1 atom radii
        "general-1d": (lambda: compose_bessel(PdoOperator.from_family(
            exotic(0.0, 0.75, 1.0), GridSpec((32,))), -0.625, "left"), [32, 64], None),
        "adjoint-1d": (lambda: AdjointOperator(compose_bessel(PdoOperator.from_family(
            exotic(0.0, 0.75, 1.0), GridSpec((32,))), -0.625, "left")), [32, 64], None),
        "multiplier-2d": (lambda: PdoOperator.from_family(bessel(-1.0), GridSpec((32, 32))),
                          [32], [0.25, 0.125]),
        "general-2d": (lambda: PdoOperator.from_family(exotic(-0.5, 0.5, 2.0), GridSpec((32, 32))),
                       [32], [0.25, 0.125]),
    }

    @staticmethod
    def counted_scan(monkeypatch):
        """The operators the truncation scan hands out, each counting its applies."""
        ops, rebuilt = [], experiments._rebuilt

        def counted(op, truncations):
            for N, op_N in rebuilt(op, truncations):
                ops.append(Counting(op_N))
                yield N, ops[-1]

        monkeypatch.setattr(experiments, "_rebuilt", counted)
        return ops

    @pytest.mark.parametrize("trials", [0, 7])
    @pytest.mark.parametrize("case", list(CASES))
    def test_weak11_equals_one_trial_at_a_time(self, monkeypatch, case, trials):
        make, truncations, _ = self.CASES[case]
        # at seed 6 one bump of the 2D cases is constant on its ball: no atom, no trial
        want = trial_by_trial_weak11(make(), trials, 6, truncations)
        ops = self.counted_scan(monkeypatch)
        rep = weak11_experiment(make(), trials=trials, seed=6, truncations=truncations)
        assert (rep["per_truncation"], rep["per_lam"], rep["input_norms"]) == want
        assert [T.apply_calls for T in ops] == [1] * len(truncations)

    @pytest.mark.parametrize("trials", [0, 1, 5])
    @pytest.mark.parametrize("case", list(CASES))
    def test_linf_bmo_equals_one_trial_at_a_time(self, monkeypatch, case, trials):
        make, truncations, _ = self.CASES[case]
        want = trial_by_trial_linf_bmo(make(), trials, 5, truncations)
        ops = self.counted_scan(monkeypatch)
        rep = linf_bmo_experiment(make(), trials=trials, seed=5, truncations=truncations)
        assert rep["per_truncation"] == want
        assert [T.apply_calls for T in ops] == [1] * len(truncations)

    @pytest.mark.parametrize("trials", [0, 4])
    @pytest.mark.parametrize("case", list(CASES))
    def test_h1_l1_equals_one_atom_at_a_time(self, monkeypatch, case, trials):
        make, truncations, radii = self.CASES[case]
        radii = radii or [2.0**-k for k in range(2, 5)]
        want = atom_by_atom_h1_l1(make(), radii, trials, 5, truncations)
        ops = self.counted_scan(monkeypatch)
        rep = h1_l1_experiment(make(), atom_radii=radii, trials=trials, seed=5,
                               truncations=truncations)
        assert (rep["per_truncation"], rep["per_radius"]) == want
        assert [T.apply_calls for T in ops] == [1] * len(truncations)


def test_weak11_levels_at_attained_values():
    """At a level |Tf| attains, |{|Tf| > lam}| leaves the attaining points out."""
    op = compose_bessel(PdoOperator.from_family(exotic(0.0, 0.75, 1.0), GridSpec((32,))),
                        -0.625, "left")
    spec = op.spec
    param = experiments._weak11_trial_params(np.random.default_rng(6), 1, 1)[0]
    Tf = np.abs(op.apply(GridFunction(spec, realize_alone(param, spec))).values)
    lam_grid = sorted(set(Tf[::5].tolist())) + [0.0]
    want = trial_by_trial_weak11(op, 4, 6, [32], lam_grid)
    rep = weak11_experiment(op, trials=4, lam_grid=lam_grid, seed=6, truncations=[32])
    assert (rep["per_truncation"], rep["per_lam"], rep["input_norms"]) == want


class TestAdmissibility:
    def test_diagonal_at_two(self):
        params = ClassParams(0.0, 1.0, 0.0)
        out = lp_lq_admissibility(params, 2.0, 2.0)
        assert out["case"] == "a"
        assert out["threshold_per_dim"] == pytest.approx(0.0)

    def test_case_a_arithmetic(self):
        params = ClassParams(0.0, 1.0, 0.0)
        out = lp_lq_admissibility(params, 2.0, 4.0)
        assert out["case"] == "a"
        assert out["threshold_per_dim"] == pytest.approx(-0.25)

    def test_boundary_agreement_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho = rng.uniform(0.05, 1.0)
            delta = rng.uniform(0.0, 0.999)
            params = ClassParams(0.0, rho, delta)
            q = rng.uniform(2.0, 10.0)
            # case b at p = 2 equals case a
            b_at_2 = -(0.5 - 1.0 / q + (1 - rho) * (0.5 - 0.5) + params.lam)
            a_at_2 = lp_lq_admissibility(params, 2.0, q)["threshold_per_dim"]
            assert abs(b_at_2 - a_at_2) <= 1e-12
            # case c at q = 2 equals case a
            p = rng.uniform(1.01, 2.0)
            c_at_2 = -(1.0 / p - 0.5 + (1 - rho) * (0.5 - 0.5) + params.lam)
            a_q2 = lp_lq_admissibility(params, p, 2.0)["threshold_per_dim"]
            assert abs(c_at_2 - a_q2) <= 1e-12
            # p = q reduces to the diagonal threshold
            pq = rng.uniform(1.01, 9.0)
            diag = lp_lq_admissibility(params, pq, pq)["threshold_per_dim"]
            assert abs(diag - lp_threshold(params, pq, 1)) <= 1e-12

    def test_range_validation(self):
        params = ClassParams(0.0, 1.0, 0.0)
        with pytest.raises(ValidationError):
            lp_lq_admissibility(params, 1.0, 2.0)
        with pytest.raises(ValidationError):
            lp_lq_admissibility(params, 3.0, 2.0)

    def test_dimension_scaling(self):
        params = ClassParams(0.0, 0.5, 0.0)
        assert admissible_order(params, 2.0, 4.0, 2) == pytest.approx(
            2 * lp_lq_admissibility(params, 2.0, 4.0)["threshold_per_dim"]
        )


class TestEffectiveOrder:
    def test_potential_profile(self):
        spec = GridSpec((256,))
        J = PdoOperator.from_family(bessel(-1.5), spec)
        out = effective_order(J)
        assert out["order"] == pytest.approx(-1.5, abs=0.05)

    def test_composition_shifts_order(self):
        T = PdoOperator.from_family(exotic(-1.0, 0.75, 1.0), GridSpec((256,)))
        C = compose_bessel(T, 0.375, "left")  # s = n(1 - rho)/2
        out = effective_order(C)
        assert out["order"] == pytest.approx(-1.0 + 0.375, abs=0.15)

    @pytest.mark.parametrize("N", [4, 8])
    def test_fewer_than_two_shells(self, N):
        J = PdoOperator.from_family(bessel(-1.0), GridSpec((N,)))
        with pytest.raises(ValidationError,
                           match="^need at least 2 dyadic shells for an effective order$"):
            effective_order(J)

    @pytest.mark.parametrize("sizes", [(16,), (512,), (64, 32)])
    def test_shells_double_from_two_to_half_the_smallest_axis(self, sizes):
        want, r = [], 2.0
        while 2 * r <= min(sizes) / 2:
            want.append((r, 2 * r))
            r *= 2
        J = PdoOperator.from_family(bessel(-1.0), GridSpec(sizes))
        assert effective_order(J)["shells"] == want

    def test_composition_consistency_across_truncations(self):
        for fam in (bessel(0.0), wainger(0.5, 0.0), exotic(0.0, 0.75, 1.0)):
            cls = ClassParams(fam.order, fam.rho, fam.delta)
            mstar = lp_threshold(cls, 2.0, 1)
            vals = {}
            for N in (64, 128):
                T = PdoOperator.from_family(fam, GridSpec((N,)))
                C = compose_bessel(T, mstar - fam.order, "left")
                vals[N] = l2_norm(C, seed=3).value
            assert abs(vals[128] - vals[64]) <= 0.10 * vals[64]
