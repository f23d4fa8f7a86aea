"""Column expressions for the relational layer.

A tiny expression tree — columns, literals, arithmetic, comparisons,
boolean logic — evaluated per row (a tuple) against a schema. This is
what lets queries be written as ``col("amount") * 0.9 > lit(100)`` and
compiled into the engine's map/filter closures.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Sequence, Tuple

from repro.common.errors import WorkloadError


class Expr:
    """Base expression; evaluate with :meth:`bind` against a schema."""

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        """Compile to a ``row -> value`` callable for the given schema."""
        raise NotImplementedError

    def references(self) -> set:
        """Column names this expression reads."""
        return set()

    def same_as(self, other: Any) -> bool:
        """Structural equality.

        ``==`` on expressions builds a comparison *expression* (so that
        ``col("a") == 3`` is a predicate), which makes ``expr in exprs``
        and ``exprs.index(expr)`` silently wrong. Use this for identity
        checks; the rewrite rules do.
        """
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Expr"]) -> "Expr":
        """Replace column references per ``mapping`` (name -> expression).

        Used by the plan optimizer to push expressions through
        projections. Returns ``self`` when nothing changes.
        """
        return self

    @property
    def label(self) -> str:
        return repr(self)

    # -- operators ---------------------------------------------------------

    def _binary(self, other: Any, op: Callable, symbol: str) -> "Expr":
        return BinaryExpr(self, _as_expr(other), op, symbol)

    def __add__(self, other):
        return self._binary(other, operator.add, "+")

    def __radd__(self, other):
        return _as_expr(other)._binary(self, operator.add, "+")

    def __sub__(self, other):
        return self._binary(other, operator.sub, "-")

    def __rsub__(self, other):
        return _as_expr(other)._binary(self, operator.sub, "-")

    def __mul__(self, other):
        return self._binary(other, operator.mul, "*")

    def __rmul__(self, other):
        return _as_expr(other)._binary(self, operator.mul, "*")

    def __truediv__(self, other):
        return self._binary(other, operator.truediv, "/")

    def __mod__(self, other):
        return self._binary(other, operator.mod, "%")

    def __eq__(self, other):  # type: ignore[override]
        return self._binary(other, operator.eq, "==")

    def __ne__(self, other):  # type: ignore[override]
        return self._binary(other, operator.ne, "!=")

    def __lt__(self, other):
        return self._binary(other, operator.lt, "<")

    def __le__(self, other):
        return self._binary(other, operator.le, "<=")

    def __gt__(self, other):
        return self._binary(other, operator.gt, ">")

    def __ge__(self, other):
        return self._binary(other, operator.ge, ">=")

    def __and__(self, other):
        return self._binary(other, lambda a, b: bool(a) and bool(b), "and")

    def __or__(self, other):
        return self._binary(other, lambda a, b: bool(a) or bool(b), "or")

    def __invert__(self):
        return UnaryExpr(self, lambda v: not v, "not")

    def __bool__(self) -> bool:
        # `expr in exprs` / `if expr == other:` would otherwise coerce the
        # BinaryExpr built by __eq__ to True against any non-empty list.
        raise WorkloadError(
            f"cannot convert {self!r} to bool; comparisons build "
            f"expressions — use Expr.same_as() for structural equality"
        )

    def __hash__(self) -> int:
        return id(self)

    def alias(self, name: str) -> "Expr":
        return AliasExpr(self, name)


class Col(Expr):
    """A reference to a column by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        try:
            index = list(schema).index(self.name)
        except ValueError:
            raise KeyError(
                f"column {self.name!r} not in schema {list(schema)}"
            ) from None
        return lambda row: row[index]

    def references(self) -> set:
        return {self.name}

    def same_as(self, other: Any) -> bool:
        return isinstance(other, Col) and self.name == other.name

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        return mapping.get(self.name, self)

    @property
    def label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


class Lit(Expr):
    """A literal constant."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        value = self.value
        return lambda _row: value

    def same_as(self, other: Any) -> bool:
        return (
            isinstance(other, Lit)
            and type(self.value) is type(other.value)
            and bool(self.value == other.value)
        )

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


class BinaryExpr(Expr):
    def __init__(self, left: Expr, right: Expr, op: Callable, symbol: str) -> None:
        self.left = left
        self.right = right
        self.op = op
        self.symbol = symbol

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        lf, rf, op = self.left.bind(schema), self.right.bind(schema), self.op
        return lambda row: op(lf(row), rf(row))

    def references(self) -> set:
        return self.left.references() | self.right.references()

    def same_as(self, other: Any) -> bool:
        return (
            isinstance(other, BinaryExpr)
            and self.symbol == other.symbol
            and self.left.same_as(other.left)
            and self.right.same_as(other.right)
        )

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        left = self.left.substitute(mapping)
        right = self.right.substitute(mapping)
        if left is self.left and right is self.right:
            return self
        return BinaryExpr(left, right, self.op, self.symbol)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class UnaryExpr(Expr):
    def __init__(self, inner: Expr, op: Callable, symbol: str) -> None:
        self.inner = inner
        self.op = op
        self.symbol = symbol

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        f, op = self.inner.bind(schema), self.op
        return lambda row: op(f(row))

    def references(self) -> set:
        return self.inner.references()

    def same_as(self, other: Any) -> bool:
        return (
            isinstance(other, UnaryExpr)
            and self.symbol == other.symbol
            and self.inner.same_as(other.inner)
        )

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        inner = self.inner.substitute(mapping)
        if inner is self.inner:
            return self
        return UnaryExpr(inner, self.op, self.symbol)

    def __repr__(self) -> str:
        return f"{self.symbol}({self.inner!r})"


class AliasExpr(Expr):
    def __init__(self, inner: Expr, name: str) -> None:
        self.inner = inner
        self.name = name

    def bind(self, schema: Sequence[str]) -> Callable[[Tuple], Any]:
        return self.inner.bind(schema)

    def references(self) -> set:
        return self.inner.references()

    def same_as(self, other: Any) -> bool:
        return (
            isinstance(other, AliasExpr)
            and self.name == other.name
            and self.inner.same_as(other.inner)
        )

    def substitute(self, mapping: Dict[str, Expr]) -> Expr:
        inner = self.inner.substitute(mapping)
        if inner is self.inner:
            return self
        return AliasExpr(inner, self.name)

    @property
    def label(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"{self.inner!r}.alias({self.name!r})"


def col(name: str) -> Col:
    """Reference a column."""
    return Col(name)


def lit(value: Any) -> Lit:
    """A constant."""
    return Lit(value)


def _as_expr(value: Any) -> Expr:
    return value if isinstance(value, Expr) else Lit(value)


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


class Agg:
    """An aggregate over an expression: (create, merge_value, merge, finish)."""

    def __init__(
        self,
        expr: Expr,
        create: Callable,
        merge_value: Callable,
        merge: Callable,
        finish: Callable,
        name: str,
    ) -> None:
        self.expr = expr
        self.create = create
        self.merge_value = merge_value
        self.merge = merge
        self.finish = finish
        self.name = name

    @property
    def label(self) -> str:
        return f"{self.name}({self.expr.label})"

    def references(self) -> set:
        return self.expr.references()

    def alias(self, name: str) -> "Agg":
        clone = Agg(
            self.expr, self.create, self.merge_value, self.merge,
            self.finish, self.name,
        )
        clone.label_override = name
        return clone


def _agg_label(agg: Agg) -> str:
    return getattr(agg, "label_override", agg.label)


def _null_skipping(op: Callable) -> Callable:
    """SQL aggregate semantics: a None input leaves the accumulator alone
    (and an all-None group finishes as None)."""

    def merge(acc: Any, value: Any) -> Any:
        if acc is None:
            return value
        if value is None:
            return acc
        return op(acc, value)

    return merge


def sum_(expr: Expr) -> Agg:
    merge = _null_skipping(operator.add)
    return Agg(expr, lambda v: v, merge, merge, lambda c: c, "sum")


def count_(expr: Expr = None) -> Agg:  # type: ignore[assignment]
    if expr is None:
        # COUNT(*): every row counts, whatever its columns hold.
        return Agg(
            Lit(1),
            lambda _v: 1,
            lambda c, _v: c + 1,
            operator.add,
            lambda c: c,
            "count",
        )
    # COUNT(col): only non-NULL values count.
    return Agg(
        expr,
        lambda v: 0 if v is None else 1,
        lambda c, v: c if v is None else c + 1,
        operator.add,
        lambda c: c,
        "count",
    )


def min_(expr: Expr) -> Agg:
    merge = _null_skipping(min)
    return Agg(expr, lambda v: v, merge, merge, lambda c: c, "min")


def max_(expr: Expr) -> Agg:
    merge = _null_skipping(max)
    return Agg(expr, lambda v: v, merge, merge, lambda c: c, "max")


def avg(expr: Expr) -> Agg:
    return Agg(
        expr,
        lambda v: (0, 0) if v is None else (v, 1),
        lambda c, v: c if v is None else (c[0] + v, c[1] + 1),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda c: c[0] / c[1] if c[1] else None,
        "avg",
    )
