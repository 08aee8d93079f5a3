"""A small expression tree evaluated over chunk batches.

Expressions are built from column references and constants with overloaded
operators, e.g.::

    predicate = (col("l_shipdate") >= 8766) & (col("l_discount") >= 0.05)
    revenue = col("l_extendedprice") * col("l_discount")

Evaluation happens per :class:`repro.engine.table.ChunkBatch` and is fully
vectorised with numpy, in the spirit of MonetDB/X100's vectorised execution.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

import numpy as np

from repro.common.errors import EngineError
from repro.engine.table import ChunkBatch

Number = Union[int, float]


class Expression:
    """Base class of all expressions."""

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        """Evaluate the expression over a batch, returning a numpy array."""
        raise NotImplementedError

    # -- arithmetic ----------------------------------------------------------
    def __mul__(self, other: "ExpressionLike") -> "BinaryExpression":
        return BinaryExpression("*", self, wrap(other))

    # -- comparisons ---------------------------------------------------------
    def __lt__(self, other: "ExpressionLike") -> "ComparisonExpression":
        return ComparisonExpression("<", self, wrap(other))

    def __le__(self, other: "ExpressionLike") -> "ComparisonExpression":
        return ComparisonExpression("<=", self, wrap(other))

    def __ge__(self, other: "ExpressionLike") -> "ComparisonExpression":
        return ComparisonExpression(">=", self, wrap(other))

    # -- boolean -------------------------------------------------------------
    def __and__(self, other: "ExpressionLike") -> "BooleanExpression":
        return BooleanExpression("and", self, wrap(other))


ExpressionLike = Union[Expression, Number]


def wrap(value: ExpressionLike) -> Expression:
    """Wrap plain numbers into constant expressions."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Constant(float(value))
    raise EngineError(f"cannot use {value!r} in an expression")


class ColumnRef(Expression):
    """Reference to a column of the current batch."""

    def __init__(self, name: str) -> None:
        if not name:
            raise EngineError("column reference needs a name")
        self.name = name

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        return batch.column(self.name)


class Constant(Expression):
    """A numeric literal."""

    def __init__(self, value: Number) -> None:
        self.value = value

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        return np.full(batch.num_rows, self.value)


_ARITHMETIC: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
}

_COMPARISONS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


class BinaryExpression(Expression):
    """Arithmetic between two expressions."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _ARITHMETIC:
            raise EngineError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        return _ARITHMETIC[self.op](self.left.evaluate(batch), self.right.evaluate(batch))


class ComparisonExpression(Expression):
    """Comparison between two expressions, producing a boolean mask."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _COMPARISONS:
            raise EngineError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        return _COMPARISONS[self.op](
            self.left.evaluate(batch), self.right.evaluate(batch)
        )


class BooleanExpression(Expression):
    """Boolean combination of predicate expressions."""

    def __init__(self, op: str, left: Expression, right: Expression | None) -> None:
        if op not in ("and", "or", "not"):
            raise EngineError(f"unknown boolean operator {op!r}")
        if op == "not" and right is not None:
            raise EngineError("'not' takes a single operand")
        if op != "not" and right is None:
            raise EngineError(f"{op!r} needs two operands")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, batch: ChunkBatch) -> np.ndarray:
        left = self.left.evaluate(batch).astype(bool)
        if self.op == "not":
            return ~left
        right = self.right.evaluate(batch).astype(bool)
        if self.op == "and":
            return left & right
        return left | right


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)
