"""Parser and evaluator for the expression language used to define candidate functions.

Functions are written over the variables ``x`` (1D) or ``x`` and ``y`` (2D)
with the operators ``+ - * / ^``, parentheses, and the calls ``abs``, ``sqrt``,
``exp``, ``log``, ``sin``, ``cos``, ``floor``, ``min`` and ``max``.  ``^``
binds tighter than unary minus, which binds tighter than ``*`` and ``/``.
The full EBNF lives in the README.

Parsed expressions are immutable trees; number literals that overflow to
infinity are syntax errors.  Each tree is lowered once, without recursion,
to a postfix tape of opcodes, and one tape serves both entry points: a
scalar call (``Expr.__call__``) runs it over Python floats, ``eval_array``
over numpy lanes.  Both give the same bits and fail on the same points, so
a margin computed on lanes is the margin a witness re-evaluates to, which
the witness machinery in :mod:`quasiconv.classifiers` relies on.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Axis",
    "ArityError",
    "DomainError",
    "Expr",
    "ExprSyntaxError",
    "FunctionSpec",
    "Registers",
    "evaluate",
    "eval_array",
    "parse",
    "restrict",
]


class ExprSyntaxError(ValueError):
    """Raised when expression text cannot be parsed; carries the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"SyntaxError at offset {position}: {message}")
        self.message = message
        self.position = position


class ArityError(ValueError):
    """Raised when an expression uses variables its declared arity does not allow."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (offset {position})"
        super().__init__(message)
        self.position = position


class DomainError(ArithmeticError):
    """Evaluation left the real domain (log/sqrt of a negative, division by zero,
    overflow).  Carries the point at which the function is undefined."""

    def __init__(self, reason: str, point: Optional[tuple] = None):
        self.reason = reason
        self.point = point
        where = "" if point is None else f" at {point}"
        super().__init__(f"{reason}{where}")


class Axis(Enum):
    """Names the co-ordinate a 2D expression is frozen along."""

    X = "x"
    Y = "y"


# ---------------------------------------------------------------------------
# Tree nodes


@dataclass(frozen=True)
class _Const:
    value: float


@dataclass(frozen=True)
class _Var:
    name: str  # "x" or "y"


class _Operator:
    """Equality, hash and repr of operator nodes, computed without recursion
    so that trees of any depth support them (the generated dataclass
    methods recurse once per level).  Leaves keep their dataclass methods:
    constants compare by value."""

    __slots__ = ()

    def _preorder(self) -> list:
        """The operator names and leaves in pre-order.  They determine the
        tree, since each name fixes its operator's arity."""
        keys: list = []
        todo: list = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, _Unary):
                keys.append(node.op)
                todo.append(node.arg)
            elif isinstance(node, _Binary):
                keys.append(node.op)
                todo += (node.right, node.left)
            else:
                keys.append(node)
        return keys

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Operator):
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(tuple(self._preorder()))

    def __repr__(self) -> str:
        parts: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, _Unary):
                todo += (")", item.arg, f"_Unary(op={item.op!r}, arg=")
            elif isinstance(item, _Binary):
                todo += (")", item.right, ", right=", item.left,
                         f"_Binary(op={item.op!r}, left=")
            else:
                parts.append(repr(item))
        return "".join(parts)


@dataclass(frozen=True, eq=False, repr=False)
class _Unary(_Operator):
    op: str  # neg abs sqrt exp log sin cos floor
    arg: "_Node"


@dataclass(frozen=True, eq=False, repr=False)
class _Binary(_Operator):
    op: str  # + - * / ^ min max
    left: "_Node"
    right: "_Node"


_Node = Union[_Const, _Var, _Unary, _Binary]

_UNARY_FUNCS = ("abs", "sqrt", "exp", "log", "sin", "cos", "floor")
_BINARY_FUNCS = ("min", "max")


@dataclass(frozen=True)
class Expr:
    """An immutable parsed expression together with its declared arity.

    ``source`` is the text it was parsed from; a derived expression
    (``restrict``, ``chord_substitution``, ...) has none, and its ``text``
    is unparsed from the tree when first read.
    """

    root: _Node
    arity: int
    source: Optional[str] = None

    @cached_property
    def text(self) -> str:
        return unparse(self.root) if self.source is None else self.source

    @cached_property
    def _tape(self) -> tuple[tuple, bool, int]:
        return _lower(self.root)

    @property
    def registers(self) -> int:
        """How many value arrays :func:`eval_array` needs in its ``regs``."""
        return self._tape[2]

    @cached_property
    def switches(self) -> tuple["Expr", ...]:
        """Switching functions: expressions of the same arity whose sign
        changes include every point where this one kinks or jumps.

        ``abs(u)`` switches with ``u``, ``min(a, b)`` and ``max(a, b)`` with
        ``a - b``, and ``floor(u)`` with ``sin(pi*u)``, which changes sign
        where u crosses an integer.  Duplicates are dropped by their text.
        """
        found: dict[str, Expr] = {}
        todo: list = [self.root]
        while todo:
            node = todo.pop()
            if isinstance(node, _Unary):
                todo.append(node.arg)
                if node.op == "abs":
                    switch: _Node = node.arg
                elif node.op == "floor":
                    switch = _Unary("sin", _Binary("*", _Const(math.pi), node.arg))
                else:
                    continue
            elif isinstance(node, _Binary):
                todo += (node.right, node.left)
                if node.op not in _BINARY_FUNCS:
                    continue
                switch = _Binary("-", node.left, node.right)
            else:
                continue
            expr = Expr(switch, self.arity)
            found.setdefault(expr.text, expr)
        return tuple(found.values())

    def __call__(self, x: float, y: Optional[float] = None) -> float:
        if self.arity == 2 and y is None:
            raise ArityError("2D expression needs both co-ordinates")
        if self.arity == 1 and y is not None:
            raise ArityError("1D expression takes a single co-ordinate")
        point = (float(x),) if y is None else (float(x), float(y))
        try:
            return _run_scalar(self._tape[0], point)
        except DomainError as err:
            raise DomainError(err.reason, point) from None

    def restrict(self, axis: Axis, value: float) -> "Expr":
        return restrict(self, axis, value)

    def __str__(self) -> str:
        return self.text


# The checker modules take a "function spec" as their universal input;
# it is exactly a parsed expression.
FunctionSpec = Expr


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
#
#   sum     := product { ("+" | "-") product }
#   product := unary { ("*" | "/") unary }
#   unary   := "-" unary | power
#   power   := atom [ "^" unary ]
#   atom    := NUMBER | VAR | FUNC "(" sum {"," sum} ")" | "(" sum ")"


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], arity: int):
        self.tokens = tokens
        self.arity = arity
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)
        self.advance()

    def at_op(self, *ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def parse_sum(self) -> _Node:
        node = self.parse_product()
        while self.at_op("+", "-"):
            _, op, _ = self.advance()
            node = _Binary(op, node, self.parse_product())
        return node

    def parse_product(self) -> _Node:
        node = self.parse_unary()
        while self.at_op("*", "/"):
            _, op, _ = self.advance()
            node = _Binary(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> _Node:
        if self.at_op("-"):
            self.advance()
            return _Unary("neg", self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> _Node:
        node = self.parse_atom()
        if self.at_op("^"):
            self.advance()
            node = _Binary("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> _Node:
        kind, value, pos = self.peek()
        if kind == "num":
            self.advance()
            number = float(value)
            if math.isinf(number):
                raise ExprSyntaxError(f"number {value!r} overflows to infinity", pos)
            return _Const(number)
        if kind == "name":
            self.advance()
            return self.finish_name(value, pos)
        if kind == "op" and value == "(":
            self.advance()
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected a number, variable, call or '('", pos)

    def finish_name(self, name: str, pos: int) -> _Node:
        if name in _UNARY_FUNCS:
            self.expect_op("(")
            arg = self.parse_sum()
            self.expect_op(")")
            return _Unary(name, arg)
        if name in _BINARY_FUNCS:
            self.expect_op("(")
            left = self.parse_sum()
            self.expect_op(",")
            right = self.parse_sum()
            self.expect_op(")")
            return _Binary(name, left, right)
        if name == "t":
            raise ExprSyntaxError(
                "variable 't' is reserved for the convexity parameter", pos
            )
        if name == "x":
            return _Var("x")
        if name == "y":
            if self.arity == 1:
                raise ArityError("variable 'y' is not allowed in a 1D expression", pos)
            return _Var("y")
        raise ExprSyntaxError(f"unknown identifier {name!r}", pos)


def parse(text: str, arity: int) -> Expr:
    """Parse ``text`` into an immutable expression of the given arity (1 or 2).

    Raises :class:`ExprSyntaxError` with the failing offset on malformed input
    and :class:`ArityError` when a 1D expression mentions ``y``.
    """
    if arity not in (1, 2):
        raise ValueError("arity must be 1 or 2")
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = _tokenize(text)
    parser = _Parser(tokens, arity)
    try:
        root = parser.parse_sum()
    except RecursionError:
        raise ExprSyntaxError("expression is nested too deeply", parser.peek()[2]) from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("unexpected trailing input", pos)
    return Expr(root, arity, text)


# ---------------------------------------------------------------------------
# Evaluation
#
# A tree is lowered once to a postfix tape over the opcode table below, and
# two walkers run it: Expr.__call__ over Python floats, eval_array over
# numpy lanes.  A row's scalar function gives the bits its lane function
# gives on one lane: it calls the ufunc itself, or a Python operator that
# IEEE 754 rounds the same way (+ - * /, sqrt, neg, abs), or for min and max
# keeps the second operand on a tie, as numpy does.  The scalar walker
# raises DomainError at the first node whose value leaves the finite reals,
# which is where the lane walker clears the mask.  Scalar functions return
# NaN or inf rather than let numpy warn, so only ^ enters np.errstate.

_EXP_MAX = 709.782712893384  # the largest double whose exp is finite


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("division by zero")
    return a / b


def _on_floats(ufunc: np.ufunc) -> Callable[..., float]:
    return lambda *args: float(ufunc(*args))


# numpy's power computes x^2, x^0.5 and x^-1 as x*x, sqrt(x) and 1/x when
# the exponent is one number (a constant, or a one-lane call), but with its
# general loop, which rounds otherwise, when the exponent varies across
# lanes.  Both walkers take these shortcuts by value, so a frozen exponent
# (see restrict) changes no bit; x^2 is lowered to x*x outright.
_POW_SHORTCUTS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))


def _power(a, b, out=None):
    if not np.ndim(b):
        return np.power(a, b, out=out)
    # the shortcut lanes read the base again, so the result cannot
    # overwrite it: a varying exponent computes into a new array
    r = np.power(a, b)
    for c, shortcut in _POW_SHORTCUTS:
        hit = b == c
        if hit.any():
            r[hit] = shortcut(np.broadcast_to(a, r.shape)[hit])
    if out is None:
        return r
    np.copyto(out, r)
    return out


def _pow(a: float, b: float) -> float:
    with np.errstate(all="ignore"):  # 0^-1, (-2)^0.5 and overflow warn
        return float(np.power(a, b))


class _Op(NamedTuple):
    """One opcode: the operation on numpy lanes and on Python floats."""

    nargs: int
    lanes: Optional[Callable] = None
    scalar: Optional[Callable] = None
    # DomainError text for a non-finite result, formatted with the operands;
    # None where finite operands always give a finite result
    reason: Optional[str] = None
    # maps some non-finite operands to finite values (x/inf, exp(-inf),
    # 1^nan, min(inf, 1)), so the lane walker tests its computed operands
    guard: bool = False


_CONST, _VAR = _Op(0), _Op(0)
_OPS: dict[str, _Op] = {
    "neg": _Op(1, np.negative, operator.neg),
    "abs": _Op(1, np.abs, abs),
    "floor": _Op(1, np.floor, _on_floats(np.floor)),
    "sqrt": _Op(
        1, np.sqrt, lambda v: math.sqrt(v) if v >= 0.0 else math.nan,
        "sqrt of negative value {0!r}",
    ),
    "exp": _Op(
        1, np.exp, lambda v: float(np.exp(v)) if v <= _EXP_MAX else math.inf,
        "exp overflow on {0!r}", True,
    ),
    "log": _Op(
        1, np.log, lambda v: float(np.log(v)) if v > 0.0 else math.nan,
        "log of non-positive value {0!r}",
    ),
    "sin": _Op(1, np.sin, _on_floats(np.sin)),
    "cos": _Op(1, np.cos, _on_floats(np.cos)),
    "+": _Op(2, np.add, operator.add, "overflow in '+'"),
    "-": _Op(2, np.subtract, operator.sub, "overflow in '-'"),
    "*": _Op(2, np.multiply, operator.mul, "overflow in '*'"),
    "/": _Op(2, np.divide, _div, "overflow in '/'", True),
    "^": _Op(2, _power, _pow, "{0!r} ^ {1!r} is not a finite real", True),
    "min": _Op(2, np.minimum, lambda a, b: a if a < b else b, guard=True),
    "max": _Op(2, np.maximum, lambda a, b: a if a > b else b, guard=True),
}
_SQUARE = _Op(1, np.square, lambda v: v * v, "{0!r} ^ 2.0 is not a finite real")
_TWO = _Const(2.0)


def _lower(root: _Node) -> tuple[tuple, bool, int]:
    """The postfix tape of ``root``, built without recursion, whether the
    root is computed (not a bare constant or variable), and how many
    registers its lane results need.

    A step is ``(op, arg)``: the value of a constant, the index of a
    variable, or for an operator which of its operands are computed and
    the stack depth of its result, None when that depends on no variable
    and so stays a scalar.
    """
    steps: list[tuple[_Op, object]] = []
    computed: list[bool] = []  # for each value the tape has pushed
    lanes: list[bool] = []  # whether it depends on a variable
    registers = 1
    todo: list = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, _Const):
            steps.append((_CONST, item.value))
            computed.append(False)
            lanes.append(False)
        elif isinstance(item, _Var):
            steps.append((_VAR, 0 if item.name == "x" else 1))
            computed.append(False)
            lanes.append(True)
        elif isinstance(item, _Unary):
            todo += (_OPS[item.op], item.arg)
        elif isinstance(item, _Binary) and item.op == "^" and item.right == _TWO:
            todo += (_SQUARE, item.left)
        elif isinstance(item, _Binary):
            todo += (_OPS[item.op], item.right, item.left)
        else:
            depth = len(computed) - item.nargs
            lane = any(lanes[depth:])
            steps.append((item, (tuple(computed[depth:]), depth if lane else None)))
            del computed[depth:], lanes[depth:]
            if lane:
                registers = max(registers, depth + 1)
            computed.append(True)
            lanes.append(lane)
    return tuple(steps), computed[0], registers


def _run_scalar(steps: tuple, point: tuple[float, ...]) -> float:
    stack: list[float] = []
    push, pop, isfinite = stack.append, stack.pop, math.isfinite
    for op, arg in steps:
        nargs, _, scalar, reason, _ = op
        if nargs == 2:
            b = pop()
            a = pop()
            r = scalar(a, b)
            if reason and not isfinite(r):
                raise DomainError(reason.format(a, b))
        elif nargs:
            a = pop()
            r = scalar(a)
            if reason and not isfinite(r):
                raise DomainError(reason.format(a))
        else:
            r = arg if op is _CONST else point[arg]
        push(r)
    return stack[0]


def evaluate(expr: Expr, x: float, y: Optional[float] = None) -> float:
    """Evaluate ``expr`` at a point in IEEE double precision.

    Raises :class:`DomainError` carrying the offending point when the function
    is undefined there; callers must treat that as "f undefined here" rather
    than skip it.
    """
    return expr(x, y)


class Registers(NamedTuple):
    """A register file for :func:`eval_array`: arrays of the lanes' shape
    that it computes into instead of allocating, none of them a lane.

    ``values`` holds at least ``Expr.registers`` float arrays; the value an
    operator leaves at stack depth k is computed into ``values[k]``, so
    the root's lands in ``values[0]``.  ``ok`` receives the mask, and the
    bool ``scratch`` holds each finiteness test before it joins the mask.
    """

    values: Sequence[np.ndarray]
    ok: np.ndarray
    scratch: np.ndarray


def eval_array(
    expr: Expr,
    xs: np.ndarray,
    ys: Optional[np.ndarray] = None,
    regs: Optional[Registers] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Values of ``expr`` on the lanes ``xs`` (and ``ys``), plus the mask of
    lanes where it is defined.  The values may share memory with the inputs
    (a bare variable returns its own argument), so treat them as read-only.

    A lane is undefined as soon as any node's value leaves the finite reals.
    Only the root and the computed operands of guard opcodes are tested: the
    other opcodes keep a non-finite operand non-finite, and literals are
    finite.

    With ``regs`` the values and the mask are ``regs.values[0]`` and
    ``regs.ok``, the inputs being copied there when the root is a bare
    variable or constant, and nothing lane-sized is allocated (except by a
    ``^`` whose exponent varies across lanes).  The bits are the same.
    """
    if expr.arity == 2 and ys is None:
        raise ArityError("2D expression needs both co-ordinate arrays")
    xs = np.asarray(xs, dtype=float)
    lanes = (xs, xs if ys is None else np.asarray(ys, dtype=float))
    steps, check_root, _ = expr._tape
    stack: list = []
    if regs is None:
        ok = np.ones(xs.shape, dtype=bool)
    else:
        ok = regs.ok
        ok.fill(True)
    with np.errstate(all="ignore"):
        for op, arg in steps:
            if not op.nargs:
                stack.append(arg if op is _CONST else lanes[arg])
                continue
            operands = stack[-op.nargs :]
            del stack[-op.nargs :]
            computed, depth = arg
            # a guard tests its operands before its result can overwrite one
            if op.guard:
                for value, tested in zip(operands, computed):
                    if tested:
                        ok &= np.isfinite(value, out=regs and regs.scratch)
            if regs is None or depth is None:
                stack.append(op.lanes(*operands))
            else:
                stack.append(op.lanes(*operands, out=regs.values[depth]))
        vals = stack[0]
        if check_root:
            ok &= np.isfinite(vals, out=regs and regs.scratch)
    if regs is not None:
        if vals is not regs.values[0]:
            np.copyto(regs.values[0], vals)
        return regs.values[0], ok
    if not isinstance(vals, np.ndarray) or vals.shape != xs.shape:
        vals = np.broadcast_to(np.asarray(vals, dtype=float), xs.shape)
    return vals, ok


# ---------------------------------------------------------------------------
# Restriction to a partial mapping


def restrict(expr: Expr, axis: Axis, value: float) -> Expr:
    """Freeze one co-ordinate of a 2D expression, returning the 1D slice.

    Evaluating the result at ``v`` is bit-identical to evaluating the original
    at the corresponding 2D point: the frozen variable is replaced by a
    constant node and the remaining variable renamed, leaving every arithmetic
    operation untouched.
    """
    if expr.arity != 2:
        raise ArityError("restrict needs a 2D expression")
    free = "y" if axis is Axis.X else "x"
    root = _substitute(expr.root, {axis.value: _Const(float(value)), free: _Var("x")})
    return Expr(root, 1)


class _Build(NamedTuple):
    """Marks where :func:`_fold` finishes ``node``, its children's results
    being the last ones produced."""

    node: _Node


def _fold(root: _Node, leaf: Callable, build: Callable):
    """Fold a tree bottom-up without recursion: ``leaf(node)`` for constants
    and variables, ``build(node, *child_results)`` for operators."""
    done: list = []
    todo: list = [root]
    while todo:
        item = todo.pop()
        if isinstance(item, _Build):
            k = 1 if isinstance(item.node, _Unary) else 2
            children = done[-k:]
            del done[-k:]
            done.append(build(item.node, *children))
        elif isinstance(item, _Unary):
            todo += (_Build(item), item.arg)
        elif isinstance(item, _Binary):
            todo += (_Build(item), item.right, item.left)
        else:
            done.append(leaf(item))
    return done[0]


def _substitute(root: _Node, nodes: dict[str, _Node]) -> _Node:
    """``root`` with each variable named in ``nodes`` replaced by its node."""

    def build(node: _Node, *args: _Node) -> _Node:
        if isinstance(node, _Unary):
            return _Unary(node.op, *args)
        return _Binary(node.op, *args)

    return _fold(root, lambda n: nodes.get(n.name, n) if isinstance(n, _Var) else n, build)


# ---------------------------------------------------------------------------
# Chord parameterisations and small combinators
#
# The substituted trees compute t*a + (1-t)*b and (1-t)*a + t*b with exactly
# the arithmetic the class templates use, so chord integrands agree with
# pointwise template evaluations.


def chord_substitution(expr: Expr, axis: Axis, a: float, b: float, reverse: bool = False) -> Expr:
    """Replace the ``axis`` variable with the chord point ``t*a + (1-t)*b``
    (or ``(1-t)*a + t*b`` when ``reverse``), the parameter t being read from
    that same variable slot."""
    a, b = float(a), float(b)
    var = _Var(axis.value)
    if reverse:
        chord: _Node = _Binary(
            "+",
            _Binary("*", _Binary("-", _Const(1.0), var), _Const(a)),
            _Binary("*", var, _Const(b)),
        )
    else:
        chord = _Binary(
            "+",
            _Binary("*", var, _Const(a)),
            _Binary("*", _Binary("-", _Const(1.0), var), _Const(b)),
        )
    return Expr(_substitute(expr.root, {axis.value: chord}), expr.arity)


def difference(g: Expr, h: Expr) -> Expr:
    """The expression ``g - h`` (same arity)."""
    if g.arity != h.arity:
        raise ArityError("difference needs matching arities")
    return Expr(_Binary("-", g.root, h.root), g.arity)


# ---------------------------------------------------------------------------
# Unparser (used for slices, search families and reports)

_LEVEL_SUM, _LEVEL_PRODUCT, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def unparse(node: _Node) -> str:
    """Render a tree as text that reparses to a bit-identically evaluating tree.

    The only structural difference a round trip can introduce is a negative
    constant coming back as a negation node, which evaluates to the same
    double exactly.  The tree is walked without recursion.
    """
    return _fold(node, _render, _render)[0]


def _wrap(child: tuple[str, int], min_level: int) -> str:
    text, level = child
    if level < min_level:
        return f"({text})"
    return text


def _render(node: _Node, *children: tuple[str, int]) -> tuple[str, int]:
    """The text and precedence level of ``node``, given its children's."""
    if isinstance(node, _Const):
        v = node.value
        if v < 0 or math.copysign(1.0, v) < 0:
            return f"-{-v!r}", _LEVEL_UNARY
        return repr(v), _LEVEL_ATOM
    if isinstance(node, _Var):
        return node.name, _LEVEL_ATOM
    if isinstance(node, _Unary):
        (arg,) = children
        if node.op == "neg":
            return f"-{_wrap(arg, _LEVEL_UNARY)}", _LEVEL_UNARY
        return f"{node.op}({arg[0]})", _LEVEL_ATOM
    left, right = children
    op = node.op
    if op in ("min", "max"):
        return f"{op}({left[0]}, {right[0]})", _LEVEL_ATOM
    if op in ("+", "-"):
        return f"{_wrap(left, _LEVEL_SUM)} {op} {_wrap(right, _LEVEL_PRODUCT)}", _LEVEL_SUM
    if op in ("*", "/"):
        text = f"{_wrap(left, _LEVEL_PRODUCT)}{op}{_wrap(right, _LEVEL_UNARY)}"
        return text, _LEVEL_PRODUCT
    # '^' is right-associative and parses its exponent as a unary
    return f"{_wrap(left, _LEVEL_ATOM)}^{_wrap(right, _LEVEL_UNARY)}", _LEVEL_POWER
