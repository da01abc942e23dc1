"""Contingency tables: cell indexing, marginal counts, slices, starred cells.

Level 0 of every variable is the baseline level.  Cells of a sub-table are
enumerated with the first variable cycling fastest, matching the order in
which starred cells are conventionally listed.
"""

from __future__ import annotations

import itertools
import math
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


def check_cells(n_cells: int) -> None:
    """Refuse a table of ``n_cells`` cells beyond MAX_TABLE_CELLS, before allocating it."""
    if n_cells > MAX_TABLE_CELLS:
        raise TableTooLargeError(f"table would exceed {MAX_TABLE_CELLS} cells")


class RowError(ValueError):
    """Input row ``index`` (0-based) is malformed; the message names it from 1."""

    def __init__(self, index: int, detail: str):
        super().__init__(f"row {index + 1}: {detail}")
        self.index, self.detail = int(index), detail


class ContingencyTable:
    """Nonnegative integer counts over the full product of level sets.

    Held as observed level rows, one per row of ``levels`` (N, n; the smallest
    unsigned dtype holding the largest level) with its int64 count in
    ``row_counts``.  Marginal tables are tabulated from them on demand; the
    dense ``counts`` is the marginal over every variable.
    """

    def __init__(self, spec: LevelSpec, counts: np.ndarray):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.shape != spec.shape:
            raise ValueError(f"counts shape {arr.shape} does not match spec {spec.shape}")
        if (arr < 0).any():
            raise ValueError("counts must be nonnegative")
        self._init(spec, np.argwhere(arr), arr[arr != 0])

    def _init(self, spec: LevelSpec, levels: np.ndarray, row_counts: np.ndarray) -> None:
        self.spec = spec
        self.levels = levels.astype(np.min_scalar_type(max(spec.sizes, default=1) - 1))
        self.row_counts = np.asarray(row_counts, dtype=np.int64)
        for a in (self.levels, self.row_counts):
            a.flags.writeable = False
        self.total = int(self.row_counts.sum())
        self._marginals: dict[frozenset[str], np.ndarray] = {}

    @property
    def counts(self) -> np.ndarray:
        """The dense table, axes in ``spec.names`` order (refused beyond the cell cap)."""
        return self.marginal((), self.spec.names)

    def marginal(self, given: Sequence[str], free: Sequence[str]) -> np.ndarray:
        """Marginal counts over ``given + free``, with axes in that order, like ``slice_table``.

        Exact int64 sums over the rows, read-only, tabulated once per variable set.
        """
        names = (*given, *free)
        if len(set(names)) != len(names):
            raise ValueError(f"repeated variable in {names}")
        vars_ = self.spec.sort(names)
        key = frozenset(vars_)
        table = self._marginals.get(key)
        if table is None:
            shape = tuple(self.spec.size(v) for v in vars_)
            check_cells(math.prod(shape))
            table = np.zeros(math.prod(shape), dtype=np.int64)
            if vars_:
                cols = self.levels[:, [self.spec.index(v) for v in vars_]]
                np.add.at(table, np.ravel_multi_index(tuple(cols.T), shape), self.row_counts)
            else:
                table[0] = self.total
            table = table.reshape(shape)
            table.flags.writeable = False
            self._marginals[key] = table
        return table.transpose([vars_.index(v) for v in names])


def tabulate(
    spec: LevelSpec, levels: Sequence[Sequence[int]] | np.ndarray, counts: Sequence[int] | None = None
) -> ContingencyTable:
    """Tabulate observed level rows, each with a count (1 when ``counts`` is None).

    Rows of ``levels`` are aligned with ``spec.names``.  Every check is an
    array comparison; a failure raises :class:`RowError` naming the first
    offending row.
    """
    n = len(spec.names)
    if not isinstance(levels, np.ndarray):
        levels = list(levels)
        lengths = np.fromiter(map(len, levels), dtype=np.intp, count=len(levels))
        bad = np.flatnonzero(lengths != n)
        if bad.size:
            raise RowError(bad[0], f"expected {n} levels, got {lengths[bad[0]]}")
    levels = np.asarray(levels, dtype=np.int64)
    if levels.shape == (0,):
        levels = levels.reshape(0, n)
    if levels.ndim != 2 or levels.shape[1] != n:
        raise ValueError(f"levels of shape {levels.shape} are not rows of {n} levels")
    counts = np.ones(len(levels), np.int64) if counts is None else np.asarray(counts, np.int64)
    if counts.shape != (len(levels),):
        raise ValueError(f"{counts.size} counts for {len(levels)} rows")
    out_of_range = (levels < 0) | (levels >= np.array(spec.sizes))
    bad = np.flatnonzero(out_of_range.any(axis=1) | (counts < 0))
    if bad.size:
        i = bad[0]
        if counts[i] < 0:
            raise RowError(i, "negative count")
        j = np.argmax(out_of_range[i])
        raise RowError(i, f"level {levels[i, j]} out of range for variable {spec.names[j]!r}")
    if counts.sum(dtype=float) >= 2.0**63:  # int64 sums would wrap
        raise ValueError("total count exceeds 2**63 - 1")
    t = ContingencyTable.__new__(ContingencyTable)
    t._init(spec, levels, counts)
    return t


def ingest_rows(spec: LevelSpec, rows: Iterable[Sequence[int]]) -> ContingencyTable:
    """Tabulate raw observations; each row assigns a level to every variable.

    Rows are aligned with ``spec.names``.  Errors name the offending row.
    """
    return tabulate(spec, rows)


def from_cell_counts(spec: LevelSpec, entries: Iterable[tuple[Sequence[int], int]]) -> ContingencyTable:
    """Build a table from (cell levels, count) pairs; repeated cells accumulate."""
    levels, counts = tuple(zip(*entries)) or ((), ())
    return tabulate(spec, levels, counts)


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


def marginal_count(t: ContingencyTable, cell: CellIndex) -> int:
    """Count of the marginal cell: the sum over all joint cells agreeing with it.

    The empty cell yields the table total.
    """
    t.spec.validate_cell(cell)
    return int(t.marginal(cell.vars, ())[cell.levels])


def slice_counts(t: ContingencyTable, given: CellIndex, a: Sequence[str]) -> dict[CellIndex, int]:
    """Counts n(given, j_a) for every cell j_a of the a-table.

    ``a`` must be disjoint from the conditioning variables; the values sum to
    the marginal count of ``given``.
    """
    if set(a) & set(given.vars):
        raise ValueError("slice variables overlap the conditioning cell")
    t.spec.validate_cell(given)
    a = t.spec.sort(a)
    block = t.marginal(given.vars, a)[given.levels]
    return {cell: int(block[cell.levels]) for cell in iter_cells(a, t.spec)}
