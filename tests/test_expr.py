"""Expression DSL: parser structure, error offsets, derivative oracle, round trips."""

import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twogauge.errors import EvalError, ParseError
from twogauge.expr import (
    FUNCTIONS, Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var,
    _code, compile_expr, differentiate, evaluate, max_var_index, parse, to_text,
)


# ------------------------------------------------------------ parse structure

def test_parse_structure_mixed():
    e = parse("sin(x1)*x2 + 3")
    assert e == Add(Mul(Call("sin", Var(1)), Var(2)), Num(3.0))


def test_parse_power_right_associative():
    e = parse("x1 ^ 2 ^ 3")
    assert e == Pow(Var(1), Pow(Num(2.0), Num(3.0)))


def test_parse_left_associative_chains():
    assert parse("x1 - x2 - x3") == Sub(Sub(Var(1), Var(2)), Var(3))
    assert parse("x1 / x2 / x3") == Div(Div(Var(1), Var(2)), Var(3))


def test_parse_precedence():
    assert parse("1 + 2 * x1") == Add(Num(1.0), Mul(Num(2.0), Var(1)))
    assert parse("-x1^2") == Neg(Pow(Var(1), Num(2.0)))
    assert parse("(1 + x1) * x2") == Mul(Add(Num(1.0), Var(1)), Var(2))
    assert parse("-x1 * x2") == Mul(Neg(Var(1)), Var(2))


def test_parse_negative_literal_folds():
    assert parse("-3") == Num(-3.0)
    assert parse("x1 ^ -2") == Pow(Var(1), Num(-2.0))


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x1 + * x2")
    assert err.value.offset == 5
    assert err.value.expected


def test_parse_error_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("foo(x1)")
    assert err.value.offset == 0
    for bad in ("x0", "x"):
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_unbalanced():
    with pytest.raises(ParseError):
        parse("sin(x1")
    with pytest.raises(ParseError):
        parse("(x1 + 2")
    with pytest.raises(ParseError):
        parse("x1 )")


def test_parse_error_non_integer_exponent():
    with pytest.raises(ParseError):
        parse("x1^2.5")
    with pytest.raises(ParseError):
        parse("x1^x2")
    with pytest.raises(ParseError):
        parse("x1^1e999")
    # constant integer-valued exponent expressions are fine and stay unfolded
    assert parse("x1^(2 + 1)") == Pow(Var(1), Add(Num(2.0), Num(1.0)))


# ------------------------------------------------------------------ evaluate

def test_evaluate_basic():
    e = parse("sin(x1)*x2 + 3")
    assert evaluate(e, (0.5, 2.0)) == math.sin(0.5) * 2.0 + 3.0


def test_evaluate_division_by_zero_cites_subexpression():
    e = parse("x1 / x2")
    with pytest.raises(EvalError) as err:
        evaluate(e, (1.0, 0.0))
    assert err.value.subexpression == "x1 / x2"


def test_evaluate_negative_base_integer_power():
    assert evaluate(parse("(0 - 2)^3"), ()) == -8.0


def test_evaluate_dimension_mismatch():
    with pytest.raises(EvalError):
        evaluate(parse("x3"), (1.0, 2.0))
    assert max_var_index(parse("x3 + x1")) == 3


# -------------------------------------------------------------- differentiate

def test_differentiate_canonical_print():
    e = parse("sin(x1)*x2 + 3")
    d1 = differentiate(e, 1)
    assert to_text(d1) == "x2 * cos(x1)"
    assert to_text(differentiate(e, 2)) == "sin(x1)"
    # determinism: same canonical form every time
    assert to_text(differentiate(parse("sin(x1)*x2 + 3"), 1)) == to_text(d1)


def test_differentiate_only_constant_folding():
    # like terms are not merged; only 0/1 elimination and constant folds happen
    d = differentiate(parse("x1*x1"), 1)
    assert d == Add(Var(1), Var(1))


def test_differentiate_power_rule():
    d = differentiate(parse("x1^3"), 1)
    assert to_text(d) == "3 * x1^2"
    assert to_text(differentiate(parse("x1^1"), 1)) == "1"


_FD_CORPUS = [
    "x1^2 + 3*x2",
    "sin(x1)*cos(x2)",
    "exp(x1*x2)",
    "tanh(x1 + 2*x2)",
    "x1 / (x2 + 2)",
    "(x1 + x2)^4",
    "sin(exp(x1)) + cos(x1*x1)",
    "x1 * x2 * x1 + x2^3",
    "1 / (1 + x1^2)",
    "tanh(sin(x1) - x2/3)",
]


@pytest.mark.parametrize("src", _FD_CORPUS)
def test_differentiate_matches_finite_differences(src):
    # independent oracle: symmetric difference quotient
    e = parse(src)
    pts = [(0.3, 0.7), (-0.4, 1.2), (1.1, -0.6)]
    h = 1e-6
    for var in (1, 2):
        d = differentiate(e, var)
        for p in pts:
            up = list(p)
            dn = list(p)
            up[var - 1] += h
            dn[var - 1] -= h
            oracle = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
            got = evaluate(d, p)
            assert got == pytest.approx(oracle, rel=2e-5, abs=2e-6)


def test_mixed_partials_structurally_equal():
    # the property that makes repeated exterior derivatives cancel syntactically
    for src in ("sin(x1)*cos(x2)", "exp(x1*x2) + x1^3*x2^2", "tanh(x1 + x2)*x1"):
        e = parse(src)
        assert differentiate(differentiate(e, 1), 2) == differentiate(differentiate(e, 2), 1)


# ------------------------------------------------------------------- compile

@pytest.mark.parametrize("src", _FD_CORPUS)
def test_compile_matches_evaluate(src):
    e = parse(src)
    fn = compile_expr(e)
    for p in [(0.25, -0.5), (1.5, 0.75)]:
        assert fn(p) == pytest.approx(evaluate(e, p), rel=1e-14, abs=0)


def test_compile_raises_eval_error():
    fn = compile_expr(parse("x1 / x2"))
    with pytest.raises(EvalError):
        fn((1.0, 0.0))


@pytest.mark.parametrize("src, point", [("x1 / x2", (1.0, 0.0)),
                                        ("exp(x2 * 1000) + x1", (0.5, 1.0)),
                                        ("x1 ^ -3", (0.0, 0.0))])
def test_a_tabled_compile_keeps_the_evaluators_error(src, point):
    # the second callable's code comes from the compile table, not from compile
    compile_expr(parse(src))((0.25, 0.5))
    misses = _code.cache_info().misses
    fn = compile_expr(parse(src))
    with pytest.raises(EvalError) as want:
        evaluate(parse(src), point)
    with pytest.raises(EvalError) as scalar:
        fn(point)
    with pytest.raises(EvalError) as arrays:
        fn.arrays((np.array([0.25, point[0]]), np.array([0.5, point[1]])))
    assert _code.cache_info().misses == misses
    for got in (scalar, arrays):
        assert str(got.value) == str(want.value)
        assert got.value.subexpression == want.value.subexpression


def test_each_callable_gets_its_own_namespace_from_the_shared_code():
    first, second = compile_expr(parse("sin(x1) * x2")), compile_expr(parse("sin(x1) * x2"))
    for fn in (first, second):
        assert fn((0.5, 2.0)) == math.sin(0.5) * 2.0
        assert fn.arrays((np.array([0.5]), np.array([2.0]))).tolist() == [fn((0.5, 2.0))]
    assert first.arrays._fn.__code__ is second.arrays._fn.__code__
    assert first.arrays._fn.__globals__ is not second.arrays._fn.__globals__


# ---------------------------------------------------------------- array mode

def _scalar_values(fn, xs, ys):
    return np.array([fn((x, y)) for x, y in zip(xs.tolist(), ys.tolist())])


@pytest.mark.parametrize("src", ["exp(x1)", "tanh(x1 * x2)", "x1 ^ 3", "x2 ^ -2 + x1 ^ 2",
                                 "sin(x1) * cos(x2) - x1 / (1.5 + x2)", "exp(-1 / (x1 * x1))",
                                 "2", "-(x1 + 3 * x2) / 7"])
def test_array_mode_has_the_scalar_bits(src):
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(-3.0, 3.0, 4000), rng.uniform(0.1, 3.0, 4000)
    fn = compile_expr(parse(src))
    got = fn.arrays((xs, ys))
    assert got.shape == xs.shape
    assert got.tobytes() == _scalar_values(fn, xs, ys).tobytes()


def test_array_mode_broadcasts_its_coordinates():
    fn = compile_expr(parse("x1 * exp(x2)"))
    xs, ys = np.linspace(0, 1, 5)[:, None], np.linspace(-1, 1, 3)[None, :]
    got = fn.arrays((xs, ys))
    assert got.shape == (5, 3)
    assert got.tobytes() == np.array([[fn((x, y)) for y in ys[0]] for x in xs[:, 0]]).tobytes()


@pytest.mark.parametrize("src, point", [("1 / (x1 - 0.5)", (0.5, 0.0)),
                                        ("exp(x1 * 1000)", (1.0, 0.0)),
                                        ("x3 + x1", (0.5, 0.0))])
def test_array_mode_failure_is_the_scalar_error(src, point):
    # one bad point among many: the whole array falls back to the scalar path
    fn = compile_expr(parse(src))
    with pytest.raises(EvalError) as scalar:
        evaluate(parse(src), point)
    xs = np.array([0.1, 0.2, point[0], 0.9])
    with pytest.raises(EvalError) as got:
        fn.arrays((xs, np.full(4, point[1])))
    assert str(got.value) == str(scalar.value)
    assert got.value.subexpression == scalar.value.subexpression


def test_array_mode_keeps_values_the_scalar_path_allows():
    # overflow to inf in a product is no error for Python floats
    fn = compile_expr(parse("x1 * x1 * x1"))
    xs = np.array([1e200, 2.0])
    assert fn.arrays((xs,)).tolist() == [math.inf, 8.0]


def test_negative_literal_base_keeps_its_sign():
    # Python reads -2.0**2 as -(2.0**2); the compiled code must not
    e = parse("(-2) ^ 2 * x1")
    assert e == Mul(Pow(Num(-2.0), Num(2.0)), Var(1))
    assert evaluate(e, (1.0,)) == 4.0
    assert compile_expr(e)((1.0,)) == 4.0
    assert compile_expr(e).arrays((np.array([1.0, -0.5]),)).tolist() == [4.0, -2.0]


def test_literal_too_large_for_a_float_compiles():
    # 1e999 parses to inf, which the generated code names
    fn = compile_expr(parse("1e999 * x1"))
    assert fn((2.0,)) == math.inf
    assert fn.arrays((np.array([2.0, 3.0]),)).tolist() == [math.inf, math.inf]


@pytest.mark.parametrize("numerator", [math.inf, math.nan], ids=["inf", "nan"])
def test_non_finite_over_zero_is_refused_like_evaluate(numerator):
    # IEEE inf / 0 and nan / 0 raise no floating-point flag in array mode
    tree = Div(Num(numerator), Sub(Var(1), Var(1)))
    fn = compile_expr(tree)
    with pytest.raises(EvalError, match="division by zero") as scalar:
        evaluate(tree, (1.0,))
    for call in (fn, lambda p: fn.arrays((np.array([p[0], 2.0]),))):
        with pytest.raises(EvalError, match="division by zero") as exc:
            call((1.0,))
        assert exc.value.subexpression == scalar.value.subexpression


def test_non_finite_values_the_scalar_path_allows_keep_their_bits():
    # nan and inf without a division by zero are values, not errors
    fn = compile_expr(Add(Mul(Num(math.inf), Var(1)), Num(math.nan)))
    got = fn.arrays((np.array([1.0, -2.0]),))
    assert np.isnan(got).all() and math.isnan(fn((1.0,)))
    fn = compile_expr(Div(Num(math.inf), Var(1)))
    assert fn.arrays((np.array([1.0, -2.0]),)).tolist() == [math.inf, -math.inf]


@pytest.mark.parametrize("tree", [Pow(Var(1), Num(0.5)), Pow(Num(2.0), Var(1))],
                         ids=["constant-exponent", "variable-exponent"])
def test_non_integer_exponent_is_refused_like_evaluate(tree):
    # trees the parser refuses, but FormField takes Expr objects as they are
    fn = compile_expr(tree)
    for call in (fn, lambda p: fn.arrays((np.array([p[0], 2.0]),))):
        with pytest.raises(EvalError, match="non-integer exponent 0.5") as exc:
            call((0.5,))
        assert exc.value.subexpression == to_text(tree)


def test_non_integer_exponent_has_no_derivative():
    # rounding 0.5 to 0 would give the derivative 0 without a word
    with pytest.raises(EvalError, match="non-integer exponent 0.5"):
        differentiate(Pow(Var(1), Num(0.5)), 1)


# ------------------------------------------------------------ print round trip

def _neg(child):
    # mirror the parser's literal folding so generated trees are reachable
    return Num(-child.value) if isinstance(child, Num) else Neg(child)


_leaves = st.one_of(
    st.integers(min_value=0, max_value=9).map(lambda v: Num(float(v))),
    st.sampled_from([0.5, 1.25, 2.75]).map(Num),
    st.integers(min_value=1, max_value=3).map(Var),
)


def _extend(children):
    binary = st.tuples(children, children)
    return st.one_of(
        binary.map(lambda ab: Add(*ab)),
        binary.map(lambda ab: Sub(*ab)),
        binary.map(lambda ab: Mul(*ab)),
        binary.map(lambda ab: Div(*ab)),
        children.map(_neg),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda be: Pow(be[0], Num(float(be[1])))),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh"]), children).map(
            lambda fa: Call(*fa)),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=25)


@settings(max_examples=1000, deadline=None)
@given(_exprs)
def test_print_parse_round_trip(e):
    text = to_text(e)
    again = parse(text)
    assert again == e
    assert to_text(again) == text


@settings(max_examples=200, deadline=None)
@given(_exprs, st.integers(min_value=1, max_value=3))
def test_derivative_trees_round_trip(e, var):
    # canonical (constructor-built) trees also survive print -> parse
    d = differentiate(e, var)
    assert parse(to_text(d)) == d


def test_readme_lists_the_parser_functions():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"the operators `[^`]*`, and `([^`]*)`", readme)
    assert listed is not None
    assert sorted(listed.group(1).split()) == sorted(FUNCTIONS)


# ------------------------------------- one generator against the tree-walker

_PROBES = [(0.0, 0.0, 0.0), (-1.5, 0.5, 2.0), (0.25, -0.75, -3.0), (2.5, 0.0, -0.5)]


def _outcome(fn, point):
    """('value', bits) or ('error', message, subexpression) of one call."""
    try:
        return ("value", struct.pack("<d", float(fn(point))))
    except EvalError as exc:
        return ("error", str(exc), exc.subexpression)


@settings(max_examples=1000, deadline=None)
@given(_exprs)
@example(Pow(Num(-0.0), Num(0.0)))
@example(Mul(Var(2), Pow(Num(-3.0), Num(2.0))))
@example(Pow(Var(1), Num(0.5)))
@example(Pow(Num(2.0), Var(1)))
@example(Pow(Var(2), Var(3)))
@example(Pow(Var(1), Add(Num(2.0), Div(Var(1), Num(1e15)))))  # within 1e-9 of 2
@example(Pow(Var(1), Num(math.inf)))
def test_compiled_code_has_the_bits_of_evaluate(e):
    fn = compile_expr(e)
    want = [_outcome(lambda p: evaluate(e, p), p) for p in _PROBES]
    assert [_outcome(fn, p) for p in _PROBES] == want
    columns = tuple(np.array(c) for c in zip(*_PROBES))
    errors = [w for w in want if w[0] == "error"]
    if errors:
        with pytest.raises(EvalError) as got:
            fn.arrays(columns)
        assert ("error", str(got.value), got.value.subexpression) == errors[0]
    else:
        assert [("value", struct.pack("<d", v)) for v in fn.arrays(columns).tolist()] == want
