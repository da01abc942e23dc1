"""Contingency tables: cell indexing, marginal counts, slices, starred cells.

Level 0 of every variable is the baseline level.  Cells of a sub-table are
enumerated with the first variable cycling fastest, matching the order in
which starred cells are conventionally listed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

MAX_TABLE_CELLS = 10**6


class TableTooLargeError(ValueError):
    """A full table over the model's variables would exceed a cell limit."""


class CellIndex(NamedTuple):
    """A cell of the marginal table over ``vars`` (canonically sorted)."""

    vars: tuple[str, ...]
    levels: tuple[int, ...]

    def level_of(self, name: str) -> int:
        return self.levels[self.vars.index(name)]

    def restrict(self, sub: Iterable[str]) -> "CellIndex":
        subset = set(sub)
        pairs = [(v, x) for v, x in zip(self.vars, self.levels) if v in subset]
        return CellIndex(tuple(v for v, _ in pairs), tuple(x for _, x in pairs))

    def support(self) -> tuple[str, ...]:
        """Variables at a non-baseline level."""
        return tuple(v for v, x in zip(self.vars, self.levels) if x != 0)


@dataclass(frozen=True)
class LevelSpec:
    """Number of levels per variable, in canonical (model file) order."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if len(self.names) != len(self.sizes):
            raise ValueError("names and sizes differ in length")
        for name, m in zip(self.names, self.sizes):
            if m < 2:
                raise ValueError(f"variable {name!r} needs at least 2 levels, got {m}")
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.names)})

    def index(self, name: str) -> int:
        return self._index[name]

    def size(self, name: str) -> int:
        return self.sizes[self._index[name]]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    def sort(self, names: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(set(names), key=self._index.__getitem__))

    def n_cells(self, d: Iterable[str] | None = None) -> int:
        names = self.names if d is None else d
        out = 1
        for v in names:
            out *= self.size(v)
        return out

    def restrict(self, d: Iterable[str]) -> "LevelSpec":
        names = self.sort(d)
        return LevelSpec(names, tuple(self.size(v) for v in names))

    def baseline(self, d: Iterable[str] | None = None) -> CellIndex:
        names = self.names if d is None else self.sort(d)
        return CellIndex(tuple(names), (0,) * len(names))

    def validate_cell(self, cell: CellIndex) -> None:
        for v, x in zip(cell.vars, cell.levels):
            if v not in self._index:
                raise ValueError(f"unknown variable {v!r}")
            if not 0 <= x < self.size(v):
                raise ValueError(f"level {x} out of range for variable {v!r}")
        if len(cell.vars) != len(set(cell.vars)):
            raise ValueError("repeated variable in cell")


def merge_cells(spec: LevelSpec, *cells: CellIndex) -> CellIndex:
    """Concatenate cells on disjoint variable sets into one canonical cell."""
    levels: dict[str, int] = {}
    for c in cells:
        for v, x in zip(c.vars, c.levels):
            if v in levels:
                raise ValueError(f"variable {v!r} appears in two cells")
            levels[v] = x
    names = spec.sort(levels)
    return CellIndex(names, tuple(levels[v] for v in names))


def iter_cells(d: Sequence[str], spec: LevelSpec, *, starred: bool = False) -> Iterator[CellIndex]:
    """All cells of the d-marginal table, first variable fastest.

    With ``starred=True`` only cells with every coordinate off baseline.
    """
    names = spec.sort(d)
    lo = 1 if starred else 0
    ranges = [range(lo, spec.size(v)) for v in names]
    for combo in itertools.product(*reversed(ranges)):
        yield CellIndex(names, combo[::-1])


def starred_cells(d: Sequence[str], spec: LevelSpec) -> list[CellIndex]:
    """The marginal cells of ``d`` with no coordinate at the baseline level."""
    if not d:
        raise ValueError("starred cells are undefined for the empty set")
    return list(iter_cells(d, spec, starred=True))


def nonempty_subsets(d: Sequence[str]) -> list[tuple[str, ...]]:
    """Nonempty subsets of ``d``, ordered by size then position."""
    return [
        combo
        for r in range(1, len(d) + 1)
        for combo in itertools.combinations(tuple(d), r)
    ]


def subsets_with_empty(d: Sequence[str]) -> list[tuple[str, ...]]:
    """All subsets of ``d`` including the empty one, ordered by size then position."""
    return [()] + nonempty_subsets(d)


@dataclass(frozen=True)
class ContingencyTable:
    """Dense nonnegative integer counts over the full product of level sets."""

    spec: LevelSpec
    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != self.spec.shape:
            raise ValueError(f"counts shape {arr.shape} does not match spec {self.spec.shape}")
        if (arr < 0).any():
            raise ValueError("counts must be nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def ingest_rows(spec: LevelSpec, rows: Iterable[Sequence[int]]) -> ContingencyTable:
    """Tabulate raw observations; each row assigns a level to every variable.

    Rows are aligned with ``spec.names``.  Errors name the offending row.
    """
    if spec.n_cells() > MAX_TABLE_CELLS:
        raise TableTooLargeError(f"table would exceed {MAX_TABLE_CELLS} cells")
    counts = np.zeros(spec.shape, dtype=np.int64)
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(spec.names):
            raise ValueError(f"row {rownum}: expected {len(spec.names)} levels, got {len(row)}")
        for name, x in zip(spec.names, row):
            if not 0 <= int(x) < spec.size(name):
                raise ValueError(f"row {rownum}: level {x} out of range for variable {name!r}")
        counts[tuple(int(x) for x in row)] += 1
    return ContingencyTable(spec, counts)


def from_cell_counts(spec: LevelSpec, entries: Iterable[tuple[Sequence[int], int]]) -> ContingencyTable:
    """Build a table from (cell levels, count) pairs; repeated cells accumulate."""
    counts = np.zeros(spec.shape, dtype=np.int64)
    for rownum, (levels, n) in enumerate(entries, start=1):
        if len(levels) != len(spec.names):
            raise ValueError(f"entry {rownum}: expected {len(spec.names)} levels")
        if int(n) < 0:
            raise ValueError(f"entry {rownum}: negative count")
        for name, x in zip(spec.names, levels):
            if not 0 <= int(x) < spec.size(name):
                raise ValueError(f"entry {rownum}: level {x} out of range for {name!r}")
        counts[tuple(int(x) for x in levels)] += int(n)
    return ContingencyTable(spec, counts)


def slice_table(
    table: np.ndarray, spec: LevelSpec, given: Sequence[str], free: Sequence[str]
) -> np.ndarray:
    """Marginal of a full table over ``given + free``, with axes in that order.

    Works on counts and probabilities alike.  Indexing the result with the
    levels of a ``given`` cell yields that slice's block over ``free``.
    """
    axes = [spec.index(v) for v in (*given, *free)]
    # einsum sums and orders the axes in one pass; it returns a view when
    # nothing is summed, and callers may write to the result.
    return np.einsum(table, range(table.ndim), axes).copy()


def _axis_key(spec: LevelSpec, cell: CellIndex) -> tuple:
    key: list = [slice(None)] * len(spec.names)
    for v, x in zip(cell.vars, cell.levels):
        key[spec.index(v)] = x
    return tuple(key)


def marginal_count(t: ContingencyTable, cell: CellIndex) -> int:
    """Count of the marginal cell: the sum over all joint cells agreeing with it.

    The empty cell yields the table total.
    """
    t.spec.validate_cell(cell)
    return int(t.counts[_axis_key(t.spec, cell)].sum())


def slice_counts(t: ContingencyTable, given: CellIndex, a: Sequence[str]) -> dict[CellIndex, int]:
    """Counts n(given, j_a) for every cell j_a of the a-table.

    ``a`` must be disjoint from the conditioning variables; the values sum to
    the marginal count of ``given``.
    """
    if set(a) & set(given.vars):
        raise ValueError("slice variables overlap the conditioning cell")
    t.spec.validate_cell(given)
    return {
        cell: marginal_count(t, merge_cells(t.spec, given, cell))
        for cell in iter_cells(a, t.spec)
    }
