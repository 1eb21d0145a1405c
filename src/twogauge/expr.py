"""Small expression DSL: parsing, printing, evaluation, exact differentiation.

Grammar (precedence low to high: + - < * / < unary - < ^, with ^ right
associative and restricted to integer constant exponents):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | x<k> | fn '(' expr ')' | '(' expr ')'
    fn     := sin | cos | exp | tanh

Variables are x1..xn (1-based). Trees are immutable and compare structurally.
`parse` keeps the tree exactly as written (no simplification) with a single
exception: unary minus applied directly to a numeric literal folds into a
negative literal, so that printed constants re-parse to the identical node.

`differentiate` builds results through smart constructors that apply constant
folding and 0/1 elimination only, plus a canonical ordering of sum and product
operands. The ordering is what makes mixed partials syntactically equal, which
in turn makes repeated exterior derivatives cancel structurally downstream.

`compile_expr` runs the source of one code generator, `_gen`, in two
namespaces: `math` and pow for one point, array functions for many
(`ArrayExpr`). Both give the bits of `evaluate` and fall back to it for
the exact EvalError text.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

__all__ = [
    "Num", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "to_text", "evaluate", "differentiate", "compile_expr",
    "max_var_index", "add_", "sub_", "mul_", "div_", "neg_", "pow_", "call_",
    "num",
]

FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "tanh": math.tanh}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based, matching the surface syntax x1, x2, ...


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
""", re.VERBOSE)

_ATOM_EXPECTED = ["number", "variable", "function", "'('", "'-'"]


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             expected=_ATOM_EXPECTED)
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.advance()[1]
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.advance()[1]
            rhs = self.factor()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            arg = self.factor()
            # fold a negated literal so printing Num(-2) round-trips
            if isinstance(arg, Num):
                return Num(-arg.value)
            return Neg(arg)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            exp_off = self.peek()[2]
            exponent = self.factor()
            self._require_integer_exponent(exponent, exp_off)
            return Pow(base, exponent)
        return base

    def _require_integer_exponent(self, exponent, offset):
        try:
            v = evaluate(exponent, ())
        except EvalError:
            raise ParseError("exponent must be a constant expression", offset,
                             expected=["integer constant"]) from None
        if _integer_exponent(v) is None:
            raise ParseError(f"integer exponent required, got {v}", offset,
                             expected=["integer constant"])

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            m = re.fullmatch(r"x([1-9][0-9]*)", val)
            if m:
                return Var(int(m.group(1)))
            if val in FUNCTIONS:
                self._expect("(", off + len(val))
                inner = self.expr()
                self._expect(")", self.peek()[2])
                return Call(val, inner)
            raise ParseError(f"unknown identifier {val!r}", off,
                             expected=["x<k>", "sin", "cos", "exp", "tanh"])
        if kind == "op" and val == "(":
            inner = self.expr()
            self._expect(")", self.peek()[2])
            return inner
        raise ParseError(
            "expected a value" if kind != "end" else "unexpected end of input",
            off, expected=_ATOM_EXPECTED)

    def _expect(self, op, offset):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            self.advance()
            return
        raise ParseError(f"expected {op!r}", off if kind != "end" else offset,
                         expected=[repr(op)])


def parse(text):
    """Parse DSL source into an expression tree. Raises ParseError with offset."""
    p = _Parser(text)
    node = p.expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {val!r}", off,
                         expected=["operator", "end of input"])
    return node


# ---------------------------------------------------------------- printing

def _prec(e):
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Num) and e.value < 0:
        return 3
    if isinstance(e, Pow):
        return 4
    return 5


def _wrap(e, need):
    s = to_text(e)
    return f"({s})" if _prec(e) < need else s


def _fmt_num(v):
    if abs(v) < 1e16 and v == int(v):  # int(v) raises on inf and nan
        return str(int(v))
    return repr(v)


def to_text(e):
    """Render with minimal parentheses; parse(to_text(e)) == e structurally."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, 4)
    if isinstance(e, Add):
        return f"{_wrap(e.left, 1)} + {_wrap(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{_wrap(e.left, 1)} - {_wrap(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{_wrap(e.left, 2)} * {_wrap(e.right, 3)}"
    if isinstance(e, Div):
        return f"{_wrap(e.left, 2)} / {_wrap(e.right, 3)}"
    if isinstance(e, Pow):
        return f"{_wrap(e.base, 5)}^{_wrap(e.exponent, 4)}"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------- evaluation

def evaluate(e, point):
    """Evaluate at a point (sequence of floats). Raises EvalError on failure."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise EvalError(f"variable x{e.index} but point has dimension {len(point)}",
                            subexpression=to_text(e))
        return float(point[e.index - 1])
    if isinstance(e, Neg):
        return -evaluate(e.arg, point)
    if isinstance(e, Add):
        return evaluate(e.left, point) + evaluate(e.right, point)
    if isinstance(e, Sub):
        return evaluate(e.left, point) - evaluate(e.right, point)
    if isinstance(e, Mul):
        return evaluate(e.left, point) * evaluate(e.right, point)
    if isinstance(e, Div):
        denom = evaluate(e.right, point)
        try:
            return evaluate(e.left, point) / denom
        except ZeroDivisionError:
            raise EvalError("division by zero", subexpression=to_text(e)) from None
    if isinstance(e, Pow):
        k = _exponent_of(e, point)
        try:
            return float(evaluate(e.base, point)) ** k
        except (ZeroDivisionError, OverflowError) as exc:
            raise EvalError(str(exc), subexpression=to_text(e)) from None
    if isinstance(e, Call):
        try:
            return FUNCTIONS[e.fn](evaluate(e.arg, point))
        except (OverflowError, ValueError) as exc:
            raise EvalError(str(exc), subexpression=to_text(e)) from None
    raise TypeError(f"not an expression node: {e!r}")


def _integer_exponent(n):
    """n as an int when it lies within 1e-9 of one, else None (also for inf, nan)."""
    if math.isfinite(n) and abs(n - round(n)) <= 1e-9:
        return int(round(n))
    return None


def _exponent_of(e, point):
    """The integer exponent of the Pow node e at point; EvalError if there is none."""
    n = evaluate(e.exponent, point)
    k = _integer_exponent(n)
    if k is None:
        raise EvalError(f"non-integer exponent {n}", subexpression=to_text(e))
    return k


def _integer_pow(base, n):
    """pow(base, n) under `evaluate`'s exponent rule; raises ValueError otherwise."""
    k = _integer_exponent(n)
    if k is None:
        raise ValueError(f"non-integer exponent {n}")
    return pow(base, k)


def compile_expr(e):
    """Compile to a fast callable point -> float (used in integrator hot loops).

    The code comes from `_gen`, run with `math` functions and the builtin
    pow. On arithmetic failure the careful evaluator is re-run to produce
    the detailed EvalError. The callable's `arrays` attribute is the same
    expression as an `ArrayExpr`, for many points at once.
    """
    fn = eval(compile(f"lambda x: {_gen(e)}", "<expr>", "eval"), dict(_SCALAR_NAMESPACE))

    def call(point, _fn=fn, _e=e):
        try:
            return _fn(point)
        except Exception:
            return evaluate(_e, point)  # raises EvalError with the subexpression

    call.arrays = ArrayExpr(e, call)
    return call


class ArrayExpr:
    """An expression evaluated on many points at once, with the scalar bits.

    Called with a point given as a sequence of float arrays that broadcast
    together, it returns the values at every point, shaped like the
    broadcast. It runs the code `compile_expr` runs, from the same `_gen`,
    with array functions bound to the names: + - * /, sin and cos run as
    numpy ufuncs, which round like the scalar operators and `math`
    functions; exp, tanh and powers run `math` and pow element by element,
    because their numpy versions round differently. On any exception,
    floating-point error or non-finite result the whole array is evaluated
    again point by point through the scalar callable, so values and
    EvalError messages are the scalar ones. The array code is compiled on
    first call.
    """

    __slots__ = ("expr", "_scalar", "_fn")

    def __init__(self, expr, scalar):
        self.expr = expr
        self._scalar = scalar
        self._fn = None

    def __call__(self, point):
        arrays = [np.asarray(c, dtype=float) for c in point]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        if self._fn is None:
            self._fn = eval(compile(f"lambda x: {_gen(self.expr)}", "<expr>", "eval"),
                            dict(_ARRAY_NAMESPACE))
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                out = self._fn(arrays)
            # inf / 0 and nan / 0 raise no flag, so any non-finite value is
            # left to the scalar path, which may refuse it
            if np.isfinite(out).all():
                return np.broadcast_to(out, shape)
        except (ArithmeticError, ValueError, IndexError):
            pass
        coords = [np.broadcast_to(a, shape).ravel().tolist() for a in arrays]
        out = np.array([self._scalar(p) for p in zip(*coords)], dtype=float).reshape(shape)
        return np.broadcast_to(out, shape)


def _elementwise(scalar_fn, nargs=1):
    each = np.frompyfunc(scalar_fn, nargs, 1)

    def apply(*args):
        out = each(*args)  # hands scalar_fn Python floats
        return out.astype(float) if isinstance(out, np.ndarray) else out
    return apply


def _ufunc_or_math(ufunc, scalar_fn):
    def apply(a):
        return ufunc(a) if isinstance(a, np.ndarray) else scalar_fn(a)
    return apply


# the names `_gen` emits; a literal too large for a float prints as inf
_SCALAR_NAMESPACE = {"_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
                     "_tanh": math.tanh, "_pow": pow, "_intpow": _integer_pow,
                     "inf": math.inf, "nan": math.nan}
_ARRAY_NAMESPACE = {
    "_sin": _ufunc_or_math(np.sin, math.sin),
    "_cos": _ufunc_or_math(np.cos, math.cos),
    "_exp": _elementwise(math.exp),
    "_tanh": _elementwise(math.tanh),
    "_pow": _elementwise(pow, 2),
    "_intpow": _elementwise(_integer_pow, 2),
    "inf": math.inf, "nan": math.nan,
}


def _gen(e):
    """Python source for a tree; functions and powers are calls, never `**`.

    Python reads -2.0**2 as -(2.0**2); `_pow(-2.0, 2)` keeps the sign. A
    constant exponent within 1e-9 of an integer is rounded to it here, as
    `evaluate` does; any other exponent goes to `_intpow`, which raises where
    `evaluate` does, so the caller falls back to `evaluate` for its error.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x[{e.index - 1}]"
    if isinstance(e, Neg):
        return f"(-{_gen(e.arg)})"
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = {Add: "+", Sub: "-", Mul: "*", Div: "/"}[type(e)]
        return f"({_gen(e.left)}{op}{_gen(e.right)})"
    if isinstance(e, Pow):
        try:
            n = _exponent_of(e, ())
        except EvalError:  # a variable or a non-integer exponent
            return f"_intpow({_gen(e.base)}, {_gen(e.exponent)})"
        return f"_pow({_gen(e.base)}, {n})"
    if isinstance(e, Call):
        return f"_{e.fn}({_gen(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def max_var_index(e):
    """Highest variable index used (0 for constant expressions)."""
    if isinstance(e, Num):
        return 0
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return max_var_index(e.arg)
    if isinstance(e, Call):
        return max_var_index(e.arg)
    if isinstance(e, Pow):
        return max(max_var_index(e.base), max_var_index(e.exponent))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var_index(e.left), max_var_index(e.right))
    raise TypeError(f"not an expression node: {e!r}")


# ------------------------------------------------- canonicalizing constructors

def _key(e):
    # total order on trees; tags keep payload shapes homogeneous per tag
    if isinstance(e, Num):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, e.index)
    if isinstance(e, Call):
        return (2, e.fn, _key(e.arg))
    if isinstance(e, Pow):
        return (3, _key(e.base), _key(e.exponent))
    if isinstance(e, Neg):
        return (4, _key(e.arg))
    if isinstance(e, Mul):
        return (5, _key(e.left), _key(e.right))
    if isinstance(e, Div):
        return (6, _key(e.left), _key(e.right))
    if isinstance(e, Add):
        return (7, _key(e.left), _key(e.right))
    if isinstance(e, Sub):
        return (8, _key(e.left), _key(e.right))
    raise TypeError(f"not an expression node: {e!r}")


def num(v):
    v = float(v)
    return Num(v + 0.0 if v != 0 else 0.0)  # normalize -0.0


def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _flat_add(e, out, sign=1):
    # negation distributes so opposite contributions can meet and cancel
    if isinstance(e, Add):
        _flat_add(e.left, out, sign)
        _flat_add(e.right, out, sign)
    elif isinstance(e, Neg):
        _flat_add(e.arg, out, -sign)
    else:
        out.append((e, sign))


def add_(*terms):
    flat = []
    for t in terms:
        _flat_add(t, flat)
    const = 0.0
    counts = {}
    for core, sign in flat:
        if isinstance(core, Num):
            const += sign * core.value
        else:
            # cancel exact opposite pairs (x plus -x); like terms stay separate
            counts[core] = counts.get(core, 0) + sign
    rest = []
    for core, count in counts.items():
        piece = core if count > 0 else Neg(core)
        rest.extend([piece] * abs(count))
    rest.sort(key=_key)
    if const != 0.0:
        rest.insert(0, num(const))
    if not rest:
        return num(0.0)
    node = rest[0]
    for t in rest[1:]:
        node = Add(node, t)
    return node


def sub_(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return neg_(b)
    if isinstance(a, Num) and isinstance(b, Num):
        return num(a.value - b.value)
    if a == b:
        return num(0.0)
    return Sub(a, b)


def neg_(a):
    if isinstance(a, Num):
        return num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _flat_mul(e, out):
    # signs hoist out of factors so the same products meet after sorting
    if isinstance(e, Mul):
        sign = _flat_mul(e.left, out)
        return sign * _flat_mul(e.right, out)
    if isinstance(e, Neg):
        return -_flat_mul(e.arg, out)
    out.append(e)
    return 1


def mul_(*factors):
    flat = []
    sign = 1
    for f in factors:
        sign *= _flat_mul(f, flat)
    const = float(sign)
    rest = []
    for f in flat:
        if isinstance(f, Num):
            const *= f.value
        else:
            rest.append(f)
    if const == 0.0:
        return num(0.0)
    rest.sort(key=_key)
    if not rest:
        return num(const)
    if const == -1.0:
        node = rest[0]
        for f in rest[1:]:
            node = Mul(node, f)
        return Neg(node)
    if const != 1.0:
        rest.insert(0, num(const))
    node = rest[0]
    for f in rest[1:]:
        node = Mul(node, f)
    return node


def div_(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(a, 0.0) and not _is_num(b, 0.0):
        return num(0.0)
    if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
        return num(a.value / b.value)
    return Div(a, b)


def pow_(base, n):
    n = int(n)
    if n == 0:
        return num(1.0)
    if n == 1:
        return base
    if isinstance(base, Num) and not (base.value == 0.0 and n < 0):
        return num(base.value ** n)
    return Pow(base, num(n))


def call_(fn, arg):
    if isinstance(arg, Num):
        return num(FUNCTIONS[fn](arg.value))
    return Call(fn, arg)


# ---------------------------------------------------------------- derivative

def differentiate(e, var):
    """Exact partial derivative with respect to x<var> (1-based index)."""
    if isinstance(e, Num):
        return num(0.0)
    if isinstance(e, Var):
        return num(1.0) if e.index == var else num(0.0)
    if isinstance(e, Neg):
        return neg_(differentiate(e.arg, var))
    if isinstance(e, Add):
        return add_(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return sub_(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return add_(mul_(differentiate(e.left, var), e.right),
                    mul_(e.left, differentiate(e.right, var)))
    if isinstance(e, Div):
        numr = sub_(mul_(differentiate(e.left, var), e.right),
                    mul_(e.left, differentiate(e.right, var)))
        return div_(numr, mul_(e.right, e.right))
    if isinstance(e, Pow):
        n = _exponent_of(e, ())
        return mul_(num(n), pow_(e.base, n - 1), differentiate(e.base, var))
    if isinstance(e, Call):
        inner = differentiate(e.arg, var)
        if e.fn == "sin":
            outer = call_("cos", e.arg)
        elif e.fn == "cos":
            outer = neg_(call_("sin", e.arg))
        elif e.fn == "exp":
            outer = call_("exp", e.arg)
        elif e.fn == "tanh":
            outer = sub_(num(1.0), pow_(call_("tanh", e.arg), 2))
        else:
            raise EvalError(f"unknown function {e.fn!r}")
        return mul_(outer, inner)
    raise TypeError(f"not an expression node: {e!r}")
