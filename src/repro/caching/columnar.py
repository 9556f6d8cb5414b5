"""The shared columnar format (the paper's Apache Arrow substitute).

Claim exercised (E3): "A shared format such as Arrow enables functions
running on heterogeneous devices to exchange data without costly data
marshalling, hence reducing the cost paid per transfer."

A :class:`RecordBatch` stores columns as contiguous numpy arrays.  The
*columnar* wire format writes a tiny JSON header plus the raw column
buffers, so deserialization is an O(columns) buffer wrap (zero-copy).
The *marshalling* baseline is pickle of a row-oriented representation,
which is O(rows) on both ends — the asymmetry the benchmark measures.
"""

from __future__ import annotations

import json
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Field",
    "Schema",
    "RecordBatch",
    "concat_batches",
    "serialize_columnar",
    "deserialize_columnar",
    "serialize_marshalled",
    "deserialize_marshalled",
]

_MAGIC = b"SKDI"
_SUPPORTED_KINDS = ("i", "u", "f", "b")  # int, uint, float, bool


@dataclass(frozen=True)
class Field:
    """A named, typed column."""

    name: str
    dtype: np.dtype

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.dtype.kind not in _SUPPORTED_KINDS:
            raise TypeError(
                f"unsupported dtype {self.dtype} for field {self.name!r}; "
                f"supported kinds: {_SUPPORTED_KINDS}"
            )


class Schema:
    """An ordered collection of fields."""

    def __init__(self, fields: Iterable[Field]):
        self.fields: Tuple[Field, ...] = tuple(fields)
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in schema: {names}")
        self._index = {f.name: i for i, f in enumerate(self.fields)}

    @property
    def names(self) -> List[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> Field:
        try:
            return self.fields[self._index[name]]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.fields)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.fields == other.fields

    def __hash__(self) -> int:
        return hash(self.fields)

    def __repr__(self) -> str:
        cols = ", ".join(f"{f.name}:{f.dtype}" for f in self.fields)
        return f"Schema({cols})"

    @classmethod
    def from_arrays(cls, columns: Mapping[str, np.ndarray]) -> "Schema":
        return cls(Field(name, arr.dtype) for name, arr in columns.items())


class RecordBatch:
    """An immutable batch of equal-length columns.

    Slicing and column projection return zero-copy numpy views; this is what
    makes the shared format cheap to pass between "devices" in-process.
    """

    def __init__(self, schema: Schema, columns: Sequence[np.ndarray]):
        columns = [np.asarray(c) for c in columns]
        if len(columns) != len(schema):
            raise ValueError(
                f"schema has {len(schema)} fields but got {len(columns)} columns"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        for field, col in zip(schema.fields, columns, strict=False):
            if col.dtype != field.dtype:
                raise TypeError(
                    f"column {field.name!r} has dtype {col.dtype}, schema says {field.dtype}"
                )
            if col.ndim != 1:
                raise ValueError(f"column {field.name!r} must be 1-D, got {col.ndim}-D")
        self.schema = schema
        self._columns = tuple(columns)
        self.num_rows = len(columns[0]) if columns else 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_pydict(cls, data: Mapping[str, Sequence[Any]]) -> "RecordBatch":
        arrays = {name: np.asarray(values) for name, values in data.items()}
        for name, arr in arrays.items():
            if arr.dtype.kind not in _SUPPORTED_KINDS:
                raise TypeError(f"column {name!r}: unsupported dtype {arr.dtype}")
        return cls(Schema.from_arrays(arrays), list(arrays.values()))

    @classmethod
    def from_arrays(cls, columns: Mapping[str, np.ndarray]) -> "RecordBatch":
        return cls(Schema.from_arrays(columns), list(columns.values()))

    @classmethod
    def empty(cls, schema: Schema) -> "RecordBatch":
        return cls(schema, [np.empty(0, dtype=f.dtype) for f in schema.fields])

    # -- access ------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[self.schema._index[name]]
        except KeyError:
            raise KeyError(f"no column {name!r}; have {self.schema.names}") from None

    def columns(self) -> Dict[str, np.ndarray]:
        return {f.name: c for f, c in zip(self.schema.fields, self._columns, strict=False)}

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        if self.schema != other.schema or self.num_rows != other.num_rows:
            return False
        return all(np.array_equal(a, b) for a, b in zip(self._columns, other._columns, strict=False))

    def __hash__(self) -> int:  # batches are value-like but unhashable
        raise TypeError("RecordBatch is unhashable")

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for c in self._columns)

    def to_pydict(self) -> Dict[str, List[Any]]:
        return {f.name: c.tolist() for f, c in zip(self.schema.fields, self._columns, strict=False)}

    def to_rows(self) -> List[Dict[str, Any]]:
        names = self.schema.names
        cols = [c.tolist() for c in self._columns]
        return [dict(zip(names, row, strict=False)) for row in zip(*cols, strict=False)] if cols else []

    # -- transforms (zero-copy where possible) ------------------------------

    def slice(self, offset: int, length: Optional[int] = None) -> "RecordBatch":
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        stop = self.num_rows if length is None else min(offset + length, self.num_rows)
        return RecordBatch(self.schema, [c[offset:stop] for c in self._columns])

    def select(self, names: Sequence[str]) -> "RecordBatch":
        fields = [self.schema.field(n) for n in names]
        cols = [self.column(n) for n in names]
        return RecordBatch(Schema(fields), cols)

    def filter(self, mask: np.ndarray) -> "RecordBatch":
        return self.take(self.kept_rows(mask))  # scan the mask once, not once per column

    def kept_rows(self, mask: np.ndarray) -> np.ndarray:
        """The positions a boolean mask matching ``num_rows`` keeps."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or len(mask) != self.num_rows:
            raise ValueError("mask must be a boolean array matching num_rows")
        return np.flatnonzero(mask)

    def take(self, indices: np.ndarray) -> "RecordBatch":
        indices = np.asarray(indices)
        return RecordBatch(self.schema, [c[indices] for c in self._columns])

    def append_column(self, name: str, values: np.ndarray) -> "RecordBatch":
        values = np.asarray(values)
        if len(values) != self.num_rows:
            raise ValueError(
                f"new column length {len(values)} != num_rows {self.num_rows}"
            )
        if name in self.schema:
            raise ValueError(f"column {name!r} already exists")
        return RecordBatch(
            Schema(list(self.schema.fields) + [Field(name, values.dtype)]),
            list(self._columns) + [values],
        )

    def __repr__(self) -> str:
        return f"RecordBatch({self.schema!r}, rows={self.num_rows})"


def concat_batches(batches: Sequence[RecordBatch]) -> RecordBatch:
    """Concatenate batches with identical schemas."""
    if not batches:
        raise ValueError("cannot concatenate zero batches")
    schema = batches[0].schema
    for b in batches[1:]:
        if b.schema != schema:
            raise ValueError(f"schema mismatch: {b.schema!r} vs {schema!r}")
    cols = [
        np.concatenate([b.column(f.name) for b in batches]) for f in schema.fields
    ]
    return RecordBatch(schema, cols)


# -- wire formats ------------------------------------------------------------


def serialize_columnar(batch: RecordBatch) -> bytes:
    """Header + raw buffers; deserialization is a zero-copy buffer wrap."""
    header = {
        "fields": [[f.name, f.dtype.str] for f in batch.schema.fields],
        "num_rows": batch.num_rows,
    }
    header_bytes = json.dumps(header).encode()
    parts = [_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    for field in batch.schema.fields:
        col = np.ascontiguousarray(batch.column(field.name))
        parts.append(col.tobytes())
    return b"".join(parts)


def deserialize_columnar(data: bytes) -> RecordBatch:
    if data[:4] != _MAGIC:
        raise ValueError("not a columnar-format buffer (bad magic)")
    (header_len,) = struct.unpack_from("<I", data, 4)
    header = json.loads(data[8 : 8 + header_len].decode())
    offset = 8 + header_len
    fields, columns = [], []
    for name, dtype_str in header["fields"]:
        dtype = np.dtype(dtype_str)
        fields.append(Field(name, dtype))
        nbytes = header["num_rows"] * dtype.itemsize
        col = np.frombuffer(data, dtype=dtype, count=header["num_rows"], offset=offset)
        columns.append(col)
        offset += nbytes
    return RecordBatch(Schema(fields), columns)


def serialize_marshalled(batch: RecordBatch) -> bytes:
    """The baseline: pickle a row-oriented representation (O(rows))."""
    return pickle.dumps(batch.to_rows())


def deserialize_marshalled(data: bytes) -> RecordBatch:
    rows = pickle.loads(data)
    if not rows:
        raise ValueError("cannot reconstruct schema from zero marshalled rows")
    columns = {name: np.asarray([r[name] for r in rows]) for name in rows[0]}
    return RecordBatch.from_arrays(columns)
