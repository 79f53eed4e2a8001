"""Table storage: rows, primary-key enforcement, secondary hash indexes."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.engine.changes import changed
from repro.engine.schema import TableSchema
from repro.engine.types import check_value
from repro.util.errors import IntegrityError


class Table:
    """Row storage for one table.

    Rows are tuples in schema column order, stored in a dict keyed by a
    monotonically increasing row id (so deletes are O(1) and iteration
    order is deterministic). Every column has a secondary hash index —
    with in-memory scale this is cheap and makes the equality lookups the
    executor issues O(1).

    Reads take no lock while one writer mutates (the serving gateway
    serializes writes only): an update replaces its row in place, and
    every read skips a row id a concurrent delete removed.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._rows: dict[int, tuple] = {}
        self._next_id = 0
        self._indexes: list[dict[object, set[int]]] = [
            {} for _ in schema.columns
        ]
        self._pk_index: dict[tuple, int] = {}
        self._pk_positions = tuple(
            schema.index_of(c) for c in schema.primary_key
        )

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple]:
        """All rows in insertion order."""
        rows = self._rows
        for row_id in sorted(rows):
            row = rows.get(row_id)
            if row is not None:  # else deleted since the ids were taken
                yield row

    def row_items(self) -> Iterator[tuple[int, tuple]]:
        rows = self._rows
        for row_id in sorted(rows):
            row = rows.get(row_id)
            if row is not None:
                yield row_id, row

    # -- mutation -------------------------------------------------------------

    def insert(self, values: Sequence[object]) -> int:
        """Insert one row (values in schema order); returns its row id."""
        schema = self.schema
        row_tuple = self.checked(values)
        if self._pk_positions:
            key = tuple(row_tuple[i] for i in self._pk_positions)
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {schema.name!r}"
                )
        row_id = self._next_id
        self._next_id += 1
        self._rows[row_id] = row_tuple
        for position, value in enumerate(row_tuple):
            self._indexes[position].setdefault(value, set()).add(row_id)
        if self._pk_positions:
            self._pk_index[tuple(row_tuple[i] for i in self._pk_positions)] = row_id
        return row_id

    def delete_ids(self, row_ids: Iterable[int]) -> int:
        count = 0
        for row_id in list(row_ids):
            row = self._rows.pop(row_id, None)
            if row is None:
                continue
            count += 1
            for position, value in enumerate(row):
                bucket = self._indexes[position].get(value)
                if bucket is not None:
                    bucket.discard(row_id)
                    if not bucket:
                        del self._indexes[position][value]
            if self._pk_positions:
                self._pk_index.pop(tuple(row[i] for i in self._pk_positions), None)
        return count

    def update_id(self, row_id: int, new_values: Sequence[object]) -> tuple | None:
        """Replace one row in place; returns its old image, or None when
        every new value equals the old one (nothing changed).

        The id never leaves ``_rows``, so a concurrent reader finds the
        old row or the new one, never neither; an index bucket may name
        the id a moment before or after its row matches, and readers
        re-check their predicates on the row they get.
        """
        old = self._rows.get(row_id)
        if old is None:
            raise IntegrityError(f"no row {row_id} in table {self.schema.name!r}")
        new = self.checked(new_values)
        if not changed(old, new):
            return None
        positions = self._pk_positions
        old_key = tuple(old[i] for i in positions)
        new_key = tuple(new[i] for i in positions)
        if positions and new_key != old_key:
            if new_key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {new_key!r} in table {self.schema.name!r}"
                )
            del self._pk_index[old_key]
            self._pk_index[new_key] = row_id
        moved = [
            (index, before, after)
            for index, before, after in zip(self._indexes, old, new)
            if before != after
        ]
        for index, _, after in moved:
            index.setdefault(after, set()).add(row_id)
        self._rows[row_id] = new
        for index, before, _ in moved:
            bucket = index.get(before)
            if bucket is not None:
                bucket.discard(row_id)
                if not bucket:
                    del index[before]
        return old

    def checked(self, values: Sequence[object]) -> tuple:
        """``values`` typed and NULL-checked against the schema."""
        schema = self.schema
        if len(values) != len(schema.columns):
            raise IntegrityError(
                f"table {schema.name!r} expects {len(schema.columns)} values,"
                f" got {len(values)}"
            )
        row = []
        for value, column in zip(values, schema.columns):
            checked = check_value(value, column.type, column.name)
            if checked is None and not column.nullable:
                raise IntegrityError(
                    f"column {column.name!r} of {schema.name!r} is NOT NULL"
                )
            row.append(checked)
        return tuple(row)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, column: str, value: object) -> Iterator[tuple[int, tuple]]:
        """Rows with ``column = value`` via the hash index."""
        position = self.schema.index_of(column)
        rows = self._rows
        for row_id in sorted(self._indexes[position].get(value, ())):
            row = rows.get(row_id)
            if row is not None:  # else deleted since the probe
                yield row_id, row

    def contains_value(self, column: str, value: object) -> bool:
        position = self.schema.index_of(column)
        return value in self._indexes[position]

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A cheap structural copy sufficient to restore later."""
        return {
            "rows": dict(self._rows),
            "next_id": self._next_id,
        }

    def restore(self, snapshot: dict) -> None:
        self._rows = dict(snapshot["rows"])
        self._next_id = snapshot["next_id"]
        self._rebuild_indexes()

    def _rebuild_indexes(self) -> None:
        self._indexes = [{} for _ in self.schema.columns]
        self._pk_index = {}
        for row_id, row in self._rows.items():
            for position, value in enumerate(row):
                self._indexes[position].setdefault(value, set()).add(row_id)
            if self._pk_positions:
                self._pk_index[tuple(row[i] for i in self._pk_positions)] = row_id
