"""File formats: model JSON, data CSV, parameter dumps, prior dumps.

Every float in JSON output is rendered with 17 significant digits so a dump
re-read through any IEEE-754 double parser reproduces the value bit for bit.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import re
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from .graphs import CliqueOrder, LabeledGraph
from .params import (
    CondProbs,
    ParamKey,
    ThetaMap,
    block_keys,
    canonical_keys,
)
from .priors import DirichletBlock, DirichletBlocks
from .tables import ContingencyTable, LevelSpec, RowError, iter_cells, tabulate

FIXTURES = ("chain3", "thick6", "branch11")


class FileFormatError(ValueError):
    """A user-supplied file is malformed; the message names file and location."""


# ---------------------------------------------------------------------------
# JSON rendering with fixed float formatting


# A list or tuple holding only these renders on one line (None and numpy
# integers are not among them); bool is an int.
_INLINE_ITEMS = (int, float, str)


def _scalar(x: Any) -> str:
    t = type(x)
    if t is float:
        return format(x, ".17g")
    if t is str:
        return _quote(x)
    if t is int:
        return str(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return _quote(str(x))


def _inline(x: Any) -> str | None:
    """The one-line text of a scalar, an empty container or a list of scalars;
    None for a container that renders over several lines."""
    if type(x) is float:
        return format(x, ".17g")
    if isinstance(x, (list, tuple)):
        parts = []
        for v in x:
            t = type(v)
            if t is float:
                parts.append(format(v, ".17g"))
            elif t is str:
                parts.append(_quote(v))
            elif t is int:
                parts.append(str(v))
            elif isinstance(v, _INLINE_ITEMS):
                parts.append(_scalar(v))
            else:
                return None
        return "[" + ", ".join(parts) + "]"
    if isinstance(x, dict):
        return None if x else "{}"
    return _scalar(x)


def _render(obj: dict | list | tuple, out: list[str], pad: str) -> None:
    """Append a container over several lines; ``pad`` indents the line it opens on."""
    inner = pad + "  "
    if isinstance(obj, dict):
        sep = "{\n" + inner
        for k, v in obj.items():
            text = _inline(v)
            if text is None:
                out.append(f"{sep}{_quote(str(k))}: ")
                _render(v, out, inner)
            else:
                out.append(f"{sep}{_quote(str(k))}: {text}")
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        sep = "[\n" + inner
        for v in obj:
            text = _inline(v)
            if text is None:
                out.append(sep)
                _render(v, out, inner)
            else:
                out.append(sep + text)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")


def to_json_text(obj: Any) -> str:
    """Indented JSON, every float with 17 significant digits, in one pass."""
    text = _inline(obj)
    if text is not None:
        return text + "\n"
    out: list[str] = []
    _render(obj, out, "")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Model files


def parse_model(text: str, source: str = "<model>") -> tuple[LabeledGraph, LevelSpec]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{source}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or "variables" not in doc or "edges" not in doc:
        raise FileFormatError(f"{source}: expected keys 'variables' and 'edges'")
    if not isinstance(doc["variables"], list) or not isinstance(doc["edges"], list):
        raise FileFormatError(f"{source}: 'variables' and 'edges' must be lists")
    if not doc["variables"]:
        raise FileFormatError(f"{source}: at least one variable is required")
    names, sizes = [], []
    for i, entry in enumerate(doc["variables"]):
        if not isinstance(entry, dict) or "name" not in entry or "levels" not in entry:
            raise FileFormatError(f"{source}: variables[{i}] needs 'name' and 'levels'")
        names.append(str(entry["name"]))
        levels = entry["levels"]
        if not isinstance(levels, int) or isinstance(levels, bool):
            raise FileFormatError(f"{source}: variables[{i}].levels must be an integer")
        sizes.append(levels)
    try:
        spec = LevelSpec(tuple(names), tuple(sizes))
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
    edges = []
    for i, e in enumerate(doc["edges"]):
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise FileFormatError(f"{source}: edges[{i}] must be a pair")
        edges.append((str(e[0]), str(e[1])))
    try:
        graph = LabeledGraph.make(tuple(names), edges)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc
    return graph, spec


def load_model(path: str | Path) -> tuple[LabeledGraph, LevelSpec]:
    p = Path(path)
    return parse_model(_read_text(p), str(p))


def _read_text(p: Path) -> str:
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{p}: cannot read ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{p}: not UTF-8 text ({exc})") from exc


def model_to_dict(graph: LabeledGraph, spec: LevelSpec) -> dict:
    return {
        "variables": [
            {"name": v, "levels": spec.size(v)} for v in spec.names
        ],
        "edges": [list(e) for e in graph.edge_pairs()],
    }


def fixture_text(name: str) -> str:
    if name not in FIXTURES:
        raise FileFormatError(f"unknown fixture {name!r}; available: {', '.join(FIXTURES)}")
    return (
        resources.files("decotab").joinpath(f"fixtures/{name}.json").read_text()
    )


def load_fixture(name: str) -> tuple[LabeledGraph, LevelSpec]:
    return parse_model(fixture_text(name), f"fixture:{name}")


# ---------------------------------------------------------------------------
# Data files (CSV)


# A blank line: empty, whitespace only, or empty fields only (",,", '"",""').
_BLANK = r'[ \t\r\f\v,"]*'
_BLANK_LINES = re.compile(r"\n" + _BLANK + r"(?=\n|\Z)")
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_data_csv(
    text: str, spec: LevelSpec, *, cell_counts: bool = False, source: str = "<data>"
) -> ContingencyTable:
    """Observation rows, or cell-count rows when ``cell_counts`` is set.

    The header must name every model variable (cell-count files add a final
    ``count`` column); columns may come in any order.  Blank lines are
    skipped; errors name the physical file line.
    """
    body = _BLANK_LINES.sub("", "\n" + text)[1:]
    if not body:
        raise FileFormatError(f"{source}: empty file")
    header_line, _, rest = body.partition("\n")
    header = [h.strip() for h in next(csv.reader([header_line]))]
    expected = list(spec.names) + (["count"] if cell_counts else [])
    if sorted(header) != sorted(expected):
        raise FileFormatError(
            f"{source}: header {header} does not match model variables {expected}"
        )
    order = [header.index(v) for v in expected]
    if rest:
        try:
            table = np.loadtxt(io.StringIO(rest), delimiter=",", dtype=np.int64, ndmin=2,
                               comments=None, quotechar='"')
        except ValueError as exc:
            _raise_located(text, len(header), source, exc)
    else:
        table = np.empty((0, len(header)), dtype=np.int64)
    if table.shape[1] != len(header):
        _raise_located(text, len(header), source, None)
    try:
        if cell_counts:
            return tabulate(spec, table[:, order[:-1]], table[:, order[-1]])
        return tabulate(spec, table[:, order])
    except RowError as exc:
        lineno = _data_lines(text)[exc.index + 1][0]
        raise FileFormatError(f"{source}: line {lineno}: {exc.detail}") from exc
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


def _data_lines(text: str) -> list[tuple[int, str]]:
    """(file line number, line) for every line that is not blank, header first."""
    return [
        (i, line) for i, line in enumerate(text.split("\n"), start=1)
        if not re.fullmatch(_BLANK, line)
    ]


def _raise_located(text: str, n_columns: int, source: str, exc: Exception | None) -> NoReturn:
    """Find the first malformed data line and raise its located error; never returns."""
    for lineno, line in _data_lines(text)[1:]:
        fields = next(csv.reader([line]))
        where = f"{source}: line {lineno}"
        if len(fields) != n_columns:
            raise FileFormatError(f"{where}: wrong column count")
        if not all(_INTEGER.fullmatch(f) for f in fields):
            raise FileFormatError(f"{where}: non-integer entry")
        if not all(-(2**63) <= int(f) < 2**63 for f in fields):
            raise FileFormatError(f"{where}: integer out of range")
    raise FileFormatError(f"{source}: unreadable data ({exc})") from exc


def load_data(path: str | Path, spec: LevelSpec, *, cell_counts: bool = False) -> ContingencyTable:
    p = Path(path)
    return parse_data_csv(_read_text(p), spec, cell_counts=cell_counts, source=str(p))


# ---------------------------------------------------------------------------
# Parameter dumps


def theta_to_dict(theta: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> dict:
    values = theta.values
    entries = []
    for key, sliced in _theta_layout(theta.kind, order, spec):
        entry: dict[str, Any] = {"set": list(key.vars), "cell": list(key.cell)}
        if sliced:
            entry["slice"] = {"set": list(key.given_vars), "cell": list(key.given_cell)}
        entry["value"] = values[key]
        entries.append(entry)
    return {"kind": theta.kind, "entries": entries}


@functools.lru_cache(maxsize=64)
def _theta_layout(
    kind: str, order: CliqueOrder, spec: LevelSpec
) -> tuple[tuple[ParamKey, bool], ...]:
    """Canonical keys of ``kind``, each flagged when its entry names a slice: a
    ``cond``/``xi`` key outside the first clique."""
    first = set(order.cliques[0])
    slices = kind in ("cond", "xi")
    return tuple(
        (key, slices and not set(key.vars) <= first)
        for key in canonical_keys(kind, order, spec)
    )


def theta_from_dict(doc: dict, order: CliqueOrder, spec: LevelSpec, source: str = "<params>") -> ThetaMap:
    if not isinstance(doc, dict) or "kind" not in doc or "entries" not in doc:
        raise FileFormatError(f"{source}: expected keys 'kind' and 'entries'")
    kind = doc["kind"]
    if kind not in ("mod", "cond", "cliq", "xi"):
        raise FileFormatError(f"{source}: unknown kind {kind!r}")
    if not isinstance(doc["entries"], list):
        raise FileFormatError(f"{source}: 'entries' must be a list")
    values: dict[ParamKey, float] = {}
    for i, entry in enumerate(doc["entries"]):
        try:
            vars_ = spec.sort(str(v) for v in entry["set"])
            if list(vars_) != [str(v) for v in entry["set"]]:
                raise FileFormatError(
                    f"{source}: entries[{i}].set is not in canonical order"
                )
            cell = tuple(int(x) for x in entry["cell"])
            given = entry.get("slice")
            if given is None:
                gvars, gcell = (), ()
            else:
                gvars = tuple(str(v) for v in given["set"])
                gcell = tuple(int(x) for x in given["cell"])
            value = float(entry["value"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError(f"{source}: entries[{i}] malformed ({exc})") from exc
        if not math.isfinite(value):
            raise FileFormatError(f"{source}: entries[{i}].value is {value}, not a finite number")
        values[ParamKey(vars_, cell, gvars, gcell)] = value
    expected = set(canonical_keys(kind, order, spec))
    if set(values) != expected:
        missing = expected - set(values)
        extra = set(values) - expected
        detail = []
        if missing:
            detail.append(f"missing {sorted(missing)[:3]}")
        if extra:
            detail.append(f"unexpected {sorted(extra)[:3]}")
        raise FileFormatError(f"{source}: entry set mismatch ({'; '.join(detail)})")
    return ThetaMap(kind, values)


def condprobs_to_dict(cp: CondProbs) -> dict:
    blocks = []
    for l, s_levels in block_keys(cp.order, cp.spec):
        vars_ = cp.block_vars(l)
        given_vars = () if l == 1 else cp.order.separators[l - 1]
        blocks.append(
            {
                "clique": l,
                "set": list(vars_),
                "slice": None if l == 1 else {"set": list(given_vars), "cell": list(s_levels)},
                "cells": [list(c) for c in _block_cells(vars_, cp.spec)],
                # Block axes follow spec order, so Fortran order (first variable
                # fastest) is the order of the cells.
                "probs": cp.blocks[(l, s_levels)].ravel(order="F").tolist(),
            }
        )
    return {"kind": "pcond", "blocks": blocks}


@functools.lru_cache(maxsize=256)
def _block_cells(vars_: tuple[str, ...], spec: LevelSpec) -> tuple[tuple[int, ...], ...]:
    """Level tuples of every cell over ``vars_``, first variable fastest."""
    return tuple(c.levels for c in iter_cells(vars_, spec))


def condprobs_from_dict(
    doc: dict, order: CliqueOrder, spec: LevelSpec, source: str = "<params>"
) -> CondProbs:
    if not isinstance(doc, dict) or doc.get("kind") != "pcond" or "blocks" not in doc:
        raise FileFormatError(f"{source}: expected a pcond dump with 'blocks'")
    if not isinstance(doc["blocks"], list):
        raise FileFormatError(f"{source}: 'blocks' must be a list")
    expected = block_keys(order, spec)
    blocks: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
    for i, b in enumerate(doc["blocks"]):
        try:
            l = int(b["clique"])
            s_levels = () if b.get("slice") is None else tuple(int(x) for x in b["slice"]["cell"])
            vars_ = order.cliques[0] if l == 1 else order.residuals[l - 1]
            cells = [tuple(int(x) for x in c) for c in b["cells"]]
            probs = [float(x) for x in b["probs"]]
        except (KeyError, TypeError, ValueError, OverflowError, IndexError) as exc:
            raise FileFormatError(f"{source}: blocks[{i}] malformed ({exc})") from exc
        want = _block_cells(vars_, spec)
        if tuple(cells) != want or len(probs) != len(want):
            raise FileFormatError(f"{source}: blocks[{i}] cell list mismatch")
        # The cells run first variable fastest: Fortran order of the block axes.
        blocks[(l, s_levels)] = np.reshape(probs, tuple(spec.size(v) for v in vars_), order="F")
    if set(blocks) != set(expected):
        raise FileFormatError(f"{source}: block set does not match the model")
    try:
        return CondProbs(order, spec, blocks)
    except ValueError as exc:
        raise FileFormatError(f"{source}: {exc}") from exc


# ---------------------------------------------------------------------------
# Prior / posterior dumps


def blocks_to_dict(blocks: DirichletBlocks) -> dict:
    out = []
    for b in blocks.blocks:
        out.append(
            {
                "label": b.label,
                "set": list(b.vars),
                "slice": None
                if not b.given_vars
                else {"set": list(b.given_vars), "cell": list(b.given_cell)},
                "cells": [list(c) for c in b.cells],
                "alpha": [str(f) for f in b.alpha_rationals()],
            }
        )
    return {"blocks": out, "grouping": [list(g) for g in blocks.grouping]}


def blocks_from_dict(doc: dict, spec: LevelSpec, source: str = "<prior>") -> DirichletBlocks:
    if not isinstance(doc, dict) or "blocks" not in doc:
        raise FileFormatError(f"{source}: expected key 'blocks'")
    blocks = []
    for i, b in enumerate(doc["blocks"]):
        try:
            given = b.get("slice")
            blocks.append(
                DirichletBlock(
                    label=str(b["label"]),
                    vars=tuple(str(v) for v in b["set"]),
                    given_vars=() if given is None else tuple(str(v) for v in given["set"]),
                    given_cell=() if given is None else tuple(int(x) for x in given["cell"]),
                    cells=tuple(tuple(int(x) for x in c) for c in b["cells"]),
                    alpha=tuple(float(Fraction(a)) for a in b["alpha"]),
                )
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise FileFormatError(f"{source}: blocks[{i}] malformed ({exc})") from exc
    grouping = tuple(
        tuple(int(i) for i in g) for g in doc.get("grouping", [[i] for i in range(len(blocks))])
    )
    return DirichletBlocks(spec, tuple(blocks), grouping)
