"""In-memory query engine with out-of-order-aware operators.

The simulator (:mod:`repro.sim`) studies *when* chunks are delivered; this
package shows *what happens to the data*, which is where Section 7.2 of the
paper becomes relevant: out-of-order delivery is harmless for most physical
operators (selection, projection, hash aggregation) but order-aware operators
— ordered aggregation and merge join — need the chunk-aware adaptations
implemented here.

Components:

* :mod:`repro.engine.table` -- :class:`ColumnTable`, an in-memory chunked
  column table over numpy arrays;
* :mod:`repro.engine.expressions` -- a small expression tree evaluated over
  chunk batches (comparisons, arithmetic, boolean logic);
* :mod:`repro.engine.operators` -- Volcano-style operators: ``Scan``,
  ``CScan`` (arbitrary delivery order), ``Select``, ``HashAggregate``;
* :mod:`repro.engine.ordered_agg` -- chunk-aware ordered aggregation with
  border-group bookkeeping (Section 7.2);
* :mod:`repro.engine.merge_join` -- classic merge join plus the Cooperative
  Merge Join over join-index clustered tables (Section 7.2);
* :mod:`repro.engine.session` -- a small session tying tables, scans and the
  Active Buffer Manager together.
"""

from repro.engine.table import ChunkBatch, ColumnTable
from repro.engine.expressions import (
    Expression,
    col,
    BinaryExpression,
    ComparisonExpression,
    BooleanExpression,
)
from repro.engine.operators import (
    Operator,
    Scan,
    CScan,
    Select,
    HashAggregate,
    AggregateSpec,
    collect,
)
from repro.engine.ordered_agg import OrderedAggregate
from repro.engine.merge_join import MergeJoin, CooperativeMergeJoin, build_join_index
from repro.engine.session import Session

__all__ = [
    "ChunkBatch",
    "ColumnTable",
    "Expression",
    "col",
    "BinaryExpression",
    "ComparisonExpression",
    "BooleanExpression",
    "Operator",
    "Scan",
    "CScan",
    "Select",
    "HashAggregate",
    "AggregateSpec",
    "collect",
    "OrderedAggregate",
    "MergeJoin",
    "CooperativeMergeJoin",
    "build_join_index",
    "Session",
]
