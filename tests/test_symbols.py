import numpy as np
import pytest

from toruslab import symbols
from toruslab.errors import DslError, ValidationError
from toruslab.symbols import (
    FUNCTIONS,
    BinOp,
    Call,
    Const,
    Neg,
    Param,
    XVar,
    XiVar,
    XiVec,
    bessel,
    depends_on_x,
    diff_x,
    eval_expr,
    exotic,
    family_from_text,
    parse,
    tokenize,
    wainger,
)


# hand-written closed forms, independent of the expression trees
def bessel_closed(m):
    return lambda x, xi: (1.0 + np.sum(np.atleast_1d(xi) ** 2.0)) ** (m / 2.0)


def wainger_closed(a, b):
    def f(x, xi):
        absxi = np.sqrt(np.sum(np.atleast_1d(xi) ** 2.0))
        br = np.sqrt(1.0 + absxi**2)
        return np.exp(1j * absxi**a) * br ** (-b)

    return f


def exotic_closed(m, d, c):
    def f(x, xi):
        x1 = np.atleast_1d(x)[0] % 1.0
        br = np.sqrt(1.0 + np.sum(np.atleast_1d(xi) ** 2.0))
        return br**m * np.exp(1j * c * x1 * br**d)

    return f


class TestTokenize:
    def test_bracket_power(self):
        toks = tokenize("bracket(xi1)^2")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("ident", "bracket"),
            ("paren", "("),
            ("ident", "xi1"),
            ("paren", ")"),
            ("op", "^"),
            ("number", "2"),
        ]

    @pytest.mark.parametrize("source", ["1e--3", "2E+", "3Ex"])
    def test_malformed_exponent(self, source):
        with pytest.raises(DslError, match="malformed number literal") as err:
            tokenize(source)
        assert err.value.position == 2

    def test_exp_i_pi(self):
        assert len(tokenize("exp(i*pi)")) == 6

    def test_unknown_character(self):
        with pytest.raises(DslError) as err:
            tokenize("2 + @")
        assert err.value.position == 4

    def test_positions_strictly_increase(self):
        toks = tokenize("bracket(xi) ^ -1.5e2 + foo")
        pos = [t.position for t in toks]
        assert pos == sorted(pos) and len(set(pos)) == len(pos)

    def test_scientific_notation(self):
        toks = tokenize("1.5e-3")
        assert len(toks) == 1 and float(toks[0].lexeme) == 1.5e-3

    @pytest.mark.parametrize("source,offset", [("2²", 1), ("½", 0), ("x1+③", 3)])
    def test_non_decimal_digit_is_an_unknown_character(self, source, offset):
        with pytest.raises(DslError) as err:
            tokenize(source)
        assert str(err.value) == f"unknown character {source[offset]!r} (at offset {offset})"

    def test_non_decimal_digit_in_a_name_is_a_parameter(self):
        assert parse("x²") == Param("x²")
        with pytest.raises(DslError, match="unbound parameter 'x²'"):
            eval_expr(parse("x²"), 0.5, 0)

    def test_non_decimal_digit_in_an_exponent_is_malformed(self):
        with pytest.raises(DslError) as err:
            tokenize("1e²")
        assert err.value.position == 2

    def test_decimal_digits_of_any_script(self):
        assert parse("٣*xi٢") == BinOp("*", Const(3 + 0j), XiVar(1))

    def test_lexemes_and_whitespace_rebuild_the_source(self):
        rng = np.random.default_rng(22)
        pieces = ["exp", "bracket", "(", ")", ",", "xi", "x1", "xi2", "m", "_a1", "i", "pi",
                  "7", "1.5e-3", "2.", "3E+2", "+", "-", "*", "/", "^"]
        lexed = 0
        for _ in range(2000):
            source = "".join(rng.choice(pieces) + rng.choice(["", "", " ", "\t", " \n "])
                             for _ in range(rng.integers(0, 12)))
            try:
                toks = tokenize(source)
            except DslError:  # pieces that join into a malformed literal, like 2.exp
                continue
            lexed += 1
            positions = [t.position for t in toks]
            assert all(a < b for a, b in zip(positions, positions[1:]))
            rebuilt, end = "", 0
            for t in toks:
                gap = source[end:t.position]
                assert gap.strip() == ""
                rebuilt += gap + t.lexeme
                end = t.position + len(t.lexeme)
            assert source[end:].strip() == ""
            assert rebuilt + source[end:] == source
        assert lexed > 1000


class TestParse:
    def evaluate(self, src, **params):
        return eval_expr(parse(src), 0.0, 0, params or None)

    @pytest.mark.parametrize("src,value", [("1+2*3", 7), ("1-2*3", -5), ("2*3-1", 5),
                                           ("2-3-4", -5), ("12/2/3", 2), ("2*3^2", 18)])
    def test_precedence(self, src, value):
        assert self.evaluate(src) == value

    def test_power_right_assoc(self):
        assert self.evaluate("2^3^2") == 512

    def test_unary_minus_below_power(self):
        assert self.evaluate("-2^2") == -4

    def test_unary_in_exponent(self):
        assert self.evaluate("2^-2") == 0.25

    def test_parentheses(self):
        assert self.evaluate("(1+2)*3") == 9

    def test_unbalanced(self):
        with pytest.raises(DslError):
            parse("(1+2")

    def test_unexpected_token(self):
        with pytest.raises(DslError) as err:
            parse("1+*2")
        assert err.value.position == 2

    def test_arity_mismatch(self):
        with pytest.raises(DslError):
            parse("exp(1, 2)")

    def test_unknown_function(self):
        with pytest.raises(DslError):
            parse("tan(x1)")

    def test_trailing_garbage(self):
        with pytest.raises(DslError):
            parse("1+2 3")


class TestEval:
    def test_bracket_at_zero(self):
        assert eval_expr(parse("bracket(xi1)"), 0.0, 0) == 1.0

    def test_quarter_period(self):
        v = eval_expr(parse("exp(i*2*pi*x1)"), 0.25, 0)
        assert abs(v - 1j) < 1e-15

    def test_exotic_phase_vanishes_at_origin(self):
        fam = exotic(-1, 0.5, 1)
        for xi in (0, 3, -17, 200):
            got = eval_expr(fam.expr, 0.0, xi, fam.parameters)
            assert abs(got - bessel_closed(-1)(0.0, xi)) < 1e-14

    def test_division_by_zero_carries_position(self):
        expr = parse("1/(x1-x1)")
        with pytest.raises(DslError) as err:
            eval_expr(expr, 0.3, 0)
        assert err.value.position == 1

    def test_log_of_zero(self):
        with pytest.raises(DslError):
            eval_expr(parse("log(0)"), 0.0, 0)

    def test_unbound_parameter(self):
        with pytest.raises(DslError):
            eval_expr(parse("bracket(xi)^m"), 0.0, 0)

    def test_vector_xi_in_arithmetic_rejected(self):
        with pytest.raises(DslError):
            eval_expr(parse("xi+1"), 0.0, 0)

    def test_variable_index_beyond_dim(self):
        with pytest.raises(DslError):
            eval_expr(parse("x2"), 0.5, 0)

    def test_principal_branch_power(self):
        v = eval_expr(parse("(-1)^0.5"), 0.0, 0)
        assert abs(v - 1j) < 1e-15

    def test_vectorized_matches_scalar(self):
        fam = wainger(0.5, 1.0)
        xi = np.arange(-8, 8)
        got = eval_expr(fam.expr, (np.zeros_like(xi, dtype=float),), (xi,), fam.parameters)
        want = np.array([wainger_closed(0.5, 1.0)(0.0, k) for k in xi])
        assert np.max(np.abs(got - want)) < 1e-14


class TestFamilies:
    CASES = [
        (bessel(-1.0), bessel_closed(-1.0)),
        (bessel(0.5), bessel_closed(0.5)),
        (wainger(0.5, 1.0), wainger_closed(0.5, 1.0)),
        (wainger(0.25, 2.0), wainger_closed(0.25, 2.0)),
        (exotic(0.0, 0.75, 1.0), exotic_closed(0.0, 0.75, 1.0)),
        (exotic(-0.5, 0.5, 2.0), exotic_closed(-0.5, 0.5, 2.0)),
    ]

    @pytest.mark.parametrize("fam,oracle", CASES, ids=lambda v: getattr(v, "name", "oracle"))
    def test_against_closed_form(self, fam, oracle):
        rng = np.random.default_rng(hash(fam.label()) % 2**32)
        for _ in range(1000):
            x = rng.random()
            xi = int(rng.integers(-600, 600))
            got = eval_expr(fam.expr, x, xi, fam.parameters)
            want = oracle(x, xi)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_nominal_classes(self):
        assert (bessel(-2).order, bessel(-2).rho, bessel(-2).delta) == (-2, 1.0, 0.0)
        f = wainger(0.5, 1)
        assert (f.order, f.rho, f.delta) == (-1.0, 0.5, 0.0)
        g = exotic(0, 0.75, 1)
        assert (g.order, g.rho, g.delta) == (0.0, 0.25, 0.75)

    def test_wainger_range_check(self):
        with pytest.raises(ValidationError):
            wainger(1.0, 1.0)

    def test_exotic_range_check(self):
        with pytest.raises(ValidationError):
            exotic(0.0, 1.0, 1.0)

    def test_family_from_text(self):
        fam = family_from_text("bessel(-1)")
        assert fam is not None and fam.order == -1
        assert family_from_text("bracket(xi)^2") is None
        with pytest.raises(ValidationError):
            family_from_text("wainger(0.5)")


def random_expr(rng, depth=0):
    """Random parser-producible tree over the safe part of the grammar."""
    if depth >= 3 or rng.random() < 0.25:
        leaf = rng.integers(0, 6)
        if leaf == 0:
            return Const(complex(round(rng.uniform(0, 3), 3)))
        if leaf == 1:
            return Const(1j)
        if leaf == 2:
            return XVar(0)
        if leaf == 3:
            return XiVar(0)
        if leaf == 4:
            return Call("bracket", XiVec())
        return Const(complex(np.pi))
    kind = rng.integers(0, 7)
    if kind == 0:
        return BinOp("+", random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == 1:
        return BinOp("*", random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == 2:
        return BinOp("-", random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if kind == 3:
        return Call("sin", random_expr(rng, depth + 1))
    if kind == 4:
        return Call("cos", random_expr(rng, depth + 1))
    if kind == 5:
        # division with a denominator bounded away from zero
        return BinOp(
            "/",
            random_expr(rng, depth + 1),
            BinOp("+", Const(3.0 + 0j), Call("sin", random_expr(rng, depth + 1))),
        )
    return Neg(random_expr(rng, depth + 1))


class TestPeriodicity:
    def test_builtins_periodic(self):
        rng = np.random.default_rng(5)
        fams = [bessel(-1), wainger(0.5, 1), exotic(0, 0.75, 1), exotic(-0.5, 0.5, 2)]
        for fam in fams:
            for _ in range(50):
                x = rng.random()
                xi = int(rng.integers(-100, 100))
                v0 = eval_expr(fam.expr, x, xi, fam.parameters)
                v1 = eval_expr(fam.expr, x + 1.0, xi, fam.parameters)
                assert abs(v0 - v1) <= 1e-12 * max(1.0, abs(v0))

    def test_random_expressions_periodic(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            tree = random_expr(rng)
            x = rng.random()
            xi = int(rng.integers(-30, 30))
            v0 = eval_expr(tree, x, xi)
            v1 = eval_expr(tree, x + 1.0, xi)
            assert abs(v0 - v1) <= 1e-12 * max(1.0, abs(v0))


class TestDiffX:
    def test_constant_in_x(self):
        expr = parse("bracket(xi)^2")
        assert eval_expr(diff_x(expr, 0), 0.3, 5) == 0

    def test_polynomial(self):
        expr = parse("x1*x1")
        d = diff_x(expr, 0)
        for x in (0.1, 0.7):
            assert abs(eval_expr(d, x, 0) - 2 * x) < 1e-14

    def test_exotic_closed_form(self):
        # d/dx1 of bracket^m exp(i c x1 bracket^d) = i c bracket^d * p
        fam = exotic(0.0, 0.5, 1.0)
        d = diff_x(fam.expr, 0)
        rng = np.random.default_rng(7)
        for _ in range(100):
            x = rng.random()
            xi = int(rng.integers(-300, 300))
            br = np.sqrt(1.0 + xi**2)
            want = 1j * br**0.5 * exotic_closed(0.0, 0.5, 1.0)(x, xi)
            got = eval_expr(d, x, xi, fam.parameters)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_against_finite_differences(self):
        rng = np.random.default_rng(8)
        h = 1e-6
        for _ in range(50):
            tree = random_expr(rng)
            if not depends_on_x(tree):
                continue
            x = rng.uniform(0.1, 0.9)
            xi = int(rng.integers(-10, 10))
            want = (eval_expr(tree, x + h, xi) - eval_expr(tree, x - h, xi)) / (2 * h)
            got = eval_expr(diff_x(tree, 0), x, xi)
            assert abs(got - want) <= 1e-5 * max(1.0, abs(want))

    def test_abs_of_x_not_differentiable(self):
        with pytest.raises(DslError):
            diff_x(parse("abs(x1)"), 0)


class TestFunctionTable:
    """Every row of the function table parses, evaluates and differentiates."""

    ARG = "0.3+0.2*x1+0.1*i*xi1"  # no zero and off the branch cut of log on the samples

    def test_grammar_lists_the_table(self):
        assert f"functions  {', '.join(FUNCTIONS)}  " in symbols.__doc__

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_parses_to_its_call(self, name):
        assert parse(f"{name}({self.ARG})") == Call(name, parse(self.ARG))

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_scalar_and_array_values_agree(self, name):
        tree = parse(f"{name}({self.ARG})")
        x, xi = np.linspace(0.05, 0.95, 7), np.arange(-3, 4)
        got = eval_expr(tree, (x[:, None],), (xi[None, :],))
        want = [[eval_expr(tree, a, k) for k in xi] for a in x]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_derivative_matches_centred_difference(self, name):
        tree, h = parse(f"{name}({self.ARG})"), 1e-6
        if FUNCTIONS[name].derivative is None:
            with pytest.raises(DslError, match=f"^{name}\\(\\) of an x-dependent argument"):
                diff_x(tree, 0)
            return
        d = diff_x(tree, 0)
        for x in (0.1, 0.45, 0.8):
            for xi in (-2, 0, 3):
                want = (eval_expr(tree, x + h, xi) - eval_expr(tree, x - h, xi)) / (2 * h)
                assert abs(eval_expr(d, x, xi) - want) <= 1e-6 * max(1.0, abs(want))

    @pytest.mark.parametrize("text, want", [("bracket(i*x1)", 0.287348),
                                            ("bracket(0.3+0.2*x1+0.1*i*xi1)", 0.061299)])
    def test_bracket_derivative_of_a_complex_argument(self, text, want):
        # d<u> = Re(conj(u) u') / <u> is real; u u' / <u> is not for a complex u
        tree, h, x, xi = parse(text), 1e-6, 0.3, 5
        got = eval_expr(diff_x(tree, 0), x, xi)
        centred = (eval_expr(tree, x + h, xi) - eval_expr(tree, x - h, xi)) / (2 * h)
        assert abs(got.imag) <= 1e-15 * abs(got)
        assert abs(got - centred) <= 1e-6 * abs(centred)
        assert got.real == pytest.approx(want, abs=1e-6)

    def test_conj_is_the_conjugate(self):
        x, xi = np.linspace(0.05, 0.95, 7)[:, None], np.arange(-3, 4)[None, :]
        got = eval_expr(parse(f"conj({self.ARG})"), (x,), (xi,))
        assert np.array_equal(got, np.conj(eval_expr(parse(self.ARG), (x,), (xi,))))
        assert eval_expr(diff_x(parse("conj(i*x1)"), 0), 0.3, 5) == -1j  # conj(u'), not u'

    @pytest.mark.parametrize("name", list(FUNCTIONS))
    def test_bare_vector_only_where_the_row_accepts_it(self, name):
        tree = parse(f"{name}(xi)")
        if FUNCTIONS[name].vector is None:
            with pytest.raises(DslError, match="only appear inside abs\\(\\) or bracket\\(\\)"):
                eval_expr(tree, (0.0, 0.0), (3, 4))
        else:  # |xi| = 5 at xi = (3, 4)
            assert eval_expr(tree, (0.0, 0.0), (3, 4)) == eval_expr(parse(f"{name}(5)"), 0.0, 0)
