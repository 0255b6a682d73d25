"""The pipeline's data plane: struct-of-arrays event storage with interning.

Record rows are frozen dataclasses that hash the same small string
vocabulary (device IDs, PLMNs, APNs) once per row.  This package stores
each record stream as parallel ``array`` columns with dictionary-encoded
strings instead, which is what lets the catalog kernel scan interned int
columns (:meth:`repro.core.catalog.CatalogBuilder.build_from_columns`)
and the sharded executor exchange column blocks rather than row lists.

Columns are stdlib ``array`` buffers (numpy gathers over them in
``select`` and ``select_own_pools``); ``from_rows`` / ``to_rows``
round-trip exactly, so rows convert to columns and back losslessly at
the pipeline's boundaries.
"""

from repro.columnar.store import (
    NULL_ID,
    ColumnPools,
    ColumnarRadioEvents,
    ColumnarServiceRecords,
    StringPool,
    from_record_streams,
)

__all__ = [
    "NULL_ID",
    "ColumnPools",
    "ColumnarRadioEvents",
    "ColumnarServiceRecords",
    "StringPool",
    "from_record_streams",
]
