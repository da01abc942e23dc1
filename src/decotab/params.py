"""The four parametrizations of the multinomial Markov model and their transforms.

A positive joint distribution Markov with respect to a decomposable graph can
be coordinatized four ways:

* ``mod``  — log-linear interactions of the joint table relative to the
  all-baseline cell, one free coordinate per complete set and starred cell;
  interactions on non-complete sets vanish exactly (the Markov property).
* ``cond`` — the same interactions computed per block of the clique/separator
  factorization: the first clique's marginal table and, for each later
  clique, every separator slice of its residual table.
* ``cliq`` — interactions of clique-marginal tables, one coordinate per
  complete set keyed by its home clique (the first clique containing it).
* ``xi``   — per-block log odds relative to the block's baseline cell; the
  subset-sum (zeta) transform of ``cond``, and the coordinate system in which
  blocks are plain multinomial logits.

Each kind is held as one array per clique l over the axes S_l + R_l
(separator, then residual).  The entry at cell j is the coordinate on the
support of j (where j is off baseline), per separator slice j_S for ``cond``
and ``xi``.  Alternating subset sums are then Möbius transforms (subtract the
baseline slice, axis by axis) and subset sums zeta transforms (add it back):
``mod`` is the Möbius transform of log p, ``xi`` is log q - log q(baseline)
per slice, ``cond`` its Möbius transform along the residual axes and ``cliq``
that of ``cond`` along the separator axes.  A block's log normalizer is the
log-sum-exp of its zeta transform.  All transforms are exact bijections.
"""

from __future__ import annotations

import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graphs import CliqueOrder, LabeledGraph, is_complete, perfect_order
from .tables import (
    CellIndex,
    ContingencyTable,
    LevelSpec,
    check_cells,
    iter_cells,
    merge_cells,
    nonempty_subsets,
    slice_table,
)

PROB_SUM_TOL = 1e-12


def default_markov_tol() -> float:
    """Markov-validation tolerance: 1e-8 unless DECOTAB_MARKOV_TOL overrides it."""
    return float(os.environ.get("DECOTAB_MARKOV_TOL", "1e-8"))


class MarkovViolationError(ValueError):
    """The distribution is not Markov for the graph at the working tolerance."""

    def __init__(self, worst_set: tuple[str, ...], worst_value: float, tol: float):
        self.worst_set = worst_set
        self.worst_value = worst_value
        super().__init__(
            f"non-complete set {worst_set} carries interaction {worst_value:.3e}"
            f" (tolerance {tol:.1e})"
        )


# ---------------------------------------------------------------------------
# Domain types


@dataclass(frozen=True)
class JointProbs:
    """Strictly positive cell probabilities over the full table, summing to 1."""

    spec: LevelSpec
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != self.spec.shape:
            raise ValueError(f"probability shape {arr.shape} does not match spec")
        if not (arr > 0).all():
            raise ValueError("joint probabilities must be strictly positive")
        if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(arr.sum())!r}, not 1")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "p", arr)


class ParamKey(NamedTuple):
    """Index of one interaction coordinate.

    ``vars``/``cell`` name a starred cell of a marginal table; for slice-wise
    coordinates (``cond``/``xi``) the conditioning slice is carried in
    ``given_vars``/``given_cell`` (a full cell of the separator table).
    """

    vars: tuple[str, ...]
    cell: tuple[int, ...]
    given_vars: tuple[str, ...] = ()
    given_cell: tuple[int, ...] = ()


@dataclass
class ThetaMap:
    """An ordered bag of interaction coordinates of one kind.

    ``kind`` is one of ``mod``, ``cond``, ``cliq``, ``xi``.  For ``mod`` the
    derived scalar ``log_base`` (log-probability of the all-baseline cell)
    rides along; it is never a free coordinate.
    """

    kind: str
    values: dict[ParamKey, float]
    log_base: float | None = None

    def value(self, key: ParamKey) -> float:
        return self.values[key]

    def max_abs_diff(self, other: "ThetaMap") -> float:
        if set(self.values) != set(other.values):
            raise ValueError("parameter index sets differ")
        return max(
            abs(self.values[k] - other.values[k]) for k in self.values
        ) if self.values else 0.0


@dataclass(frozen=True)
class CondProbs:
    """Probability blocks of the clique/separator factorization.

    One block for the first clique's table and one per separator slice of
    each residual table, keyed by ``(l, slice levels)`` with 1-based clique
    number ``l`` (the first-clique block is ``(1, ())``).  Every block is a
    strictly positive array over its variables, summing to 1.
    """

    order: CliqueOrder
    spec: LevelSpec
    blocks: dict[tuple[int, tuple[int, ...]], np.ndarray]

    def __post_init__(self):
        expected = set(block_keys(self.order, self.spec))
        if set(self.blocks) != expected:
            raise ValueError("block keys do not match the clique order")
        frozen = {}
        for key, arr in self.blocks.items():
            arr = np.asarray(arr, dtype=float)
            vars_ = self.block_vars(key[0])
            if arr.shape != tuple(self.spec.size(v) for v in vars_):
                raise ValueError(f"block {key} has wrong shape {arr.shape}")
            if not (arr > 0).all():
                raise ValueError(f"block {key} is not strictly positive")
            if abs(float(arr.sum()) - 1.0) > PROB_SUM_TOL:
                raise ValueError(f"block {key} sums to {float(arr.sum())!r}")
            arr = arr.copy()
            arr.flags.writeable = False
            frozen[key] = arr
        object.__setattr__(self, "blocks", frozen)

    def block_vars(self, l: int) -> tuple[str, ...]:
        return self.order.cliques[0] if l == 1 else self.order.residuals[l - 1]

    def max_abs_diff(self, other: "CondProbs") -> float:
        if set(self.blocks) != set(other.blocks):
            raise ValueError("block structures differ")
        return max(
            float(np.abs(self.blocks[k] - other.blocks[k]).max()) for k in self.blocks
        )

    def joint(self) -> JointProbs:
        """Multiply the blocks back into the joint table they factorize."""
        full = np.ones(self.spec.shape)
        for l in range(self.order.k):
            vars_ = self.order.separators[l] + self.order.residuals[l]
            canonical = sorted(range(len(vars_)), key=lambda i: self.spec.index(vars_[i]))
            shape = [self.spec.size(v) if v in vars_ else 1 for v in self.spec.names]
            full *= _stacked(self, l).transpose(canonical).reshape(shape)
        return JointProbs(self.spec, full)

    @classmethod
    def from_joint(cls, p: JointProbs, order: CliqueOrder) -> "CondProbs":
        blocks = {}
        for l in range(order.k):
            s_vars = order.separators[l]
            q = conditional_table(p, s_vars, order.residuals[l])
            for s in iter_cells(s_vars, p.spec):
                blocks[(l + 1, s.levels)] = q[s.levels]
        return cls(order, p.spec, blocks)


def block_keys(order: CliqueOrder, spec: LevelSpec) -> list[tuple[int, tuple[int, ...]]]:
    """Canonical block ordering: first clique, then slices by clique and cell."""
    return [
        (l + 1, s.levels) for l in range(order.k) for s in iter_cells(order.separators[l], spec)
    ]


def _stacked(cp: CondProbs, l: int) -> np.ndarray:
    """The blocks of clique ``l`` (0-based) as one array over S_l + R_l."""
    s_vars = cp.order.separators[l]
    out = np.empty(_shape(cp.spec, s_vars + cp.order.residuals[l]))
    for s in iter_cells(s_vars, cp.spec):
        out[s.levels] = cp.blocks[(l + 1, s.levels)]
    return out


def _shape(spec: LevelSpec, vars_: Sequence[str]) -> tuple[int, ...]:
    return tuple(spec.size(v) for v in vars_)


def conditional_table(
    p: JointProbs, given: Sequence[str], free: Sequence[str]
) -> np.ndarray:
    """q(free | given) stacked over the cells of ``given``, axes ``given + free``."""
    q = slice_table(p.p, p.spec, given, free)
    q /= q.sum(axis=tuple(range(len(given), q.ndim)), keepdims=True)
    return q


def marginal_joint(p: JointProbs, vars_: Sequence[str]) -> JointProbs:
    sub = p.spec.restrict(vars_)
    return JointProbs(sub, slice_table(p.p, p.spec, (), sub.names))


def marginal_prob(p: JointProbs, cell: CellIndex) -> float:
    """Probability of a marginal cell; the empty cell has probability 1."""
    p.spec.validate_cell(cell)
    idx = [slice(None)] * len(p.spec.names)
    for v, x in zip(cell.vars, cell.levels):
        idx[p.spec.index(v)] = x
    return float(p.p[tuple(idx)].sum())


def conditional_prob(p: JointProbs, cell: CellIndex, given: CellIndex) -> float:
    """p(cell | given) = p(cell, given) / p(given); positivity keeps it defined."""
    return marginal_prob(p, merge_cells(p.spec, cell, given)) / marginal_prob(p, given)


# ---------------------------------------------------------------------------
# Axis operations on coordinate arrays (all in place)


def _mobius(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Subtract the baseline slice along each axis: alternating subset sums."""
    for ax in axes:
        view = np.moveaxis(a, ax, 0)
        view[1:] -= view[:1]
    return a


def _zeta(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Add the baseline slice back along each axis: subset sums; undoes _mobius."""
    for ax in axes:
        view = np.moveaxis(a, ax, 0)
        view[1:] += view[:1]
    return a


def _margins(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Put each axis's total into its baseline slice (the adjoint of _zeta).

    On cell counts, the entry at j becomes the count of the marginal cell j
    restricted to its support on ``axes``.
    """
    for ax in axes:
        view = np.moveaxis(a, ax, 0)
        view[0] = view.sum(axis=0)
    return a


def _lse(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """log-sum-exp over ``axes``, max-shifted, keeping them as length-1 axes."""
    axes = tuple(axes)
    m = a.max(axis=axes, keepdims=True)
    t = np.asarray(a - m)  # an array even when 0-d
    np.exp(t, out=t)
    return m + np.log(t.sum(axis=axes, keepdims=True))


def _softmax(a: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    a -= _lse(a, axes)
    return np.exp(a, out=a)


def _sep_axes(order: CliqueOrder, l: int) -> range:
    return range(len(order.separators[l]))


def _res_axes(order: CliqueOrder, l: int) -> range:
    ns = len(order.separators[l])
    return range(ns, ns + len(order.residuals[l]))


# ---------------------------------------------------------------------------
# Canonical keys and the per-clique array layout


def home_sets(order: CliqueOrder, l: int) -> list[tuple[str, ...]]:
    """Subsets of C_{l+1} whose home clique is l (0-based): they meet R_{l+1}."""
    resid = set(order.residuals[l])
    return [e for e in nonempty_subsets(order.cliques[l]) if set(e) & resid]


# ``cliq`` shares the ``mod`` layout and ``xi`` the ``cond`` one.
_LAYOUT = {"mod": "mod", "cliq": "mod", "cond": "cond", "xi": "cond"}


def _flat_cells(keys: Sequence[ParamKey], axes: tuple[str, ...], spec: LevelSpec) -> np.ndarray:
    """Flat index, in an array over ``axes``, of each key's cell (baseline off its sets)."""
    pos = {v: i for i, v in enumerate(axes)}
    cells = np.zeros((len(keys), len(axes)), dtype=np.intp)
    for row, key in enumerate(keys):
        for v, x in zip(key.given_vars + key.vars, key.given_cell + key.cell):
            cells[row, pos[v]] = x
    return np.ravel_multi_index(tuple(cells.T), _shape(spec, axes))


@functools.lru_cache(maxsize=64)
def _layout(
    layout: str, order: CliqueOrder, spec: LevelSpec
) -> tuple[tuple[tuple[ParamKey, ...], np.ndarray], ...]:
    """Per clique: its keys in canonical order and their flat cells in its array.

    ``mod`` arrays hold the sets with home clique l; ``cond`` arrays hold,
    for each separator cell (first variable fastest), the sets inside R_l.
    """
    out = []
    for l in range(order.k):
        s_vars, r_vars = order.separators[l], order.residuals[l]
        if layout == "mod":
            keys = [
                ParamKey(e, c.levels)
                for e in home_sets(order, l)
                for c in iter_cells(e, spec, starred=True)
            ]
        else:
            keys = [
                ParamKey(d, c.levels, s_vars, s.levels)
                for s in iter_cells(s_vars, spec)
                for d in nonempty_subsets(r_vars)
                for c in iter_cells(d, spec, starred=True)
            ]
        flat = _flat_cells(keys, s_vars + r_vars, spec)
        flat.flags.writeable = False
        out.append((tuple(keys), flat))
    return tuple(out)


def _pack_clique(
    values: dict[ParamKey, float], layout: str, order: CliqueOrder, spec: LevelSpec, l: int
) -> np.ndarray:
    """Clique ``l``'s array over S_l + R_l of a coordinate or statistic map; other cells hold 0."""
    keys, flat = _layout(layout, order, spec)[l]
    a = np.zeros(_shape(spec, order.separators[l] + order.residuals[l]))
    try:
        a.flat[flat] = [values[k] for k in keys]
    except KeyError as exc:
        raise ValueError(
            f"missing coordinate (set, cell, slice set, slice cell)"
            f" {tuple(exc.args[0])} for clique {l + 1}"
        ) from None
    return a


def _pack(
    values: dict[ParamKey, float], layout: str, order: CliqueOrder, spec: LevelSpec
) -> list[np.ndarray]:
    """Per-clique arrays of a coordinate or statistic map; other cells hold 0."""
    return [_pack_clique(values, layout, order, spec, l) for l in range(order.k)]


def _unpack(
    arrays: list[np.ndarray], layout: str, order: CliqueOrder, spec: LevelSpec
) -> dict[ParamKey, float]:
    """Inverse of :func:`_pack`: the map in canonical key order."""
    values: dict[ParamKey, float] = {}
    for a, (keys, flat) in zip(arrays, _layout(layout, order, spec)):
        values.update(zip(keys, a.reshape(-1)[flat].tolist()))
    return values


def canonical_keys(kind: str, order: CliqueOrder, spec: LevelSpec) -> list[ParamKey]:
    """Coordinate keys of one kind, in canonical order.

    ``mod``/``cliq``: (complete set, starred cell) grouped by home clique;
    ``cond``/``xi``: the first clique's sets, then each slice's residual sets.
    """
    if kind not in _LAYOUT:
        raise ValueError(f"unknown parametrization kind {kind!r}")
    return [k for keys, _ in _layout(_LAYOUT[kind], order, spec) for k in keys]


def theta_vector(theta: ThetaMap, keys: Sequence[ParamKey]) -> np.ndarray:
    return np.array([theta.values[k] for k in keys], dtype=float)


def theta_from_vector(kind: str, keys: Sequence[ParamKey], vec: np.ndarray) -> ThetaMap:
    if len(keys) != len(vec):
        raise ValueError("vector length does not match key count")
    return ThetaMap(kind, {k: float(v) for k, v in zip(keys, vec)})


def _expect_kind(theta: ThetaMap, kind: str) -> None:
    if theta.kind != kind:
        raise ValueError(f"expected a {kind!r} map, got {theta.kind!r}")


def _transform(
    theta: ThetaMap,
    kind: str,
    op: Callable[[np.ndarray, Sequence[int]], np.ndarray],
    axes: Callable[[CliqueOrder, int], range],
    order: CliqueOrder,
    spec: LevelSpec,
) -> ThetaMap:
    """Apply ``op`` (_mobius or _zeta) along ``axes(order, l)`` of every clique's array."""
    arrays = _pack(theta.values, _LAYOUT[theta.kind], order, spec)
    for l, a in enumerate(arrays):
        op(a, axes(order, l))
    return ThetaMap(kind, _unpack(arrays, _LAYOUT[kind], order, spec))


def _spec_of(theta: ThetaMap, order: CliqueOrder) -> LevelSpec:
    """Level counts of a complete ``cond``/``xi`` map: each variable's top starred level + 1."""
    top = dict.fromkeys(order.vertices, 0)
    for key in theta.values:
        for v, x in zip(key.vars, key.cell):
            top[v] = max(top[v], x)
    return LevelSpec(order.vertices, tuple(top[v] + 1 for v in order.vertices))


# ---------------------------------------------------------------------------
# mod <-> joint probabilities


def theta_mod_from_p(p: JointProbs, g: LabeledGraph) -> ThetaMap:
    """Log-linear interactions of the joint table on all complete sets.

    The returned map also carries log p(baseline) as the derived scalar; it
    is a function of the free coordinates, not one of them.
    """
    names = p.spec.names
    theta = _mobius(np.log(p.p), range(len(names))).reshape(-1)
    keys = canonical_keys("mod", perfect_order(g), p.spec)
    values = dict(zip(keys, theta[_flat_cells(keys, names, p.spec)].tolist()))
    return ThetaMap("mod", values, log_base=float(theta[0]))


def markov_residual(p: JointProbs, g: LabeledGraph) -> tuple[tuple[str, ...], float]:
    """Largest-magnitude interaction on a non-complete set, with its set.

    Zero (to rounding) exactly when p is Markov with respect to g.  Ties go
    to the first set in :func:`nonempty_subsets` order.
    """
    names, spec = p.spec.names, p.spec
    theta = _mobius(np.log(p.p), range(len(names)))
    np.abs(theta, out=theta)
    levels = np.indices(spec.shape, sparse=True)
    noncomplete = np.zeros(spec.shape, dtype=bool)
    for i, j in itertools.combinations(range(len(names)), 2):
        if not g.has_edge(names[i], names[j]):
            noncomplete |= (levels[i] > 0) & (levels[j] > 0)
    theta *= noncomplete
    worst = float(theta.max())
    if worst == 0.0:
        return (), 0.0
    supports = (tuple(np.flatnonzero(cell)) for cell in np.argwhere(theta == worst))
    first = min(supports, key=lambda s: (len(s), s))
    return tuple(names[i] for i in first), worst


def _weights(theta: ThetaMap, vars_: tuple[str, ...], spec: LevelSpec) -> np.ndarray:
    """Per-cell log weights over the ``vars_`` table: the zeta transform of ``theta``."""
    check_cells(spec.n_cells(vars_))
    for key in theta.values:
        if key.given_vars:
            raise ValueError("slice-wise coordinates have no joint weight table")
        if not set(key.vars) <= set(vars_):
            raise ValueError(f"coordinate on {key.vars} lies outside {tuple(vars_)}")
    a = np.zeros(_shape(spec, vars_))
    if theta.values:  # the cell index of an empty key list over no axes is ill-formed
        a.flat[_flat_cells(list(theta.values), vars_, spec)] = list(theta.values.values())
    return _zeta(a, range(len(vars_)))


def p_from_theta_mod(theta: ThetaMap, g: LabeledGraph, spec: LevelSpec) -> JointProbs:
    """Joint probabilities from ``mod`` coordinates; exact inverse of extraction."""
    for key in theta.values:
        if not is_complete(g, key.vars):
            raise ValueError(f"coordinate on non-complete set {key.vars}")
    return JointProbs(spec, _softmax(_weights(theta, spec.names, spec), range(len(spec.names))))


def cumulant(theta: ThetaMap, a: Sequence[str], spec: LevelSpec) -> float:
    """Log normalizer of the exponential-family weights restricted to ``a``.

    Keys of ``theta`` must lie inside ``a``; absent (non-complete) sets count
    as zero.  Evaluated as a log-sum-exp over the cells of the a-table, so an
    a-table beyond MAX_TABLE_CELLS is refused.
    """
    a_sorted = spec.sort(a)
    return _lse(_weights(theta, a_sorted, spec), range(len(a_sorted))).item()


# ---------------------------------------------------------------------------
# pcond <-> xi <-> cond <-> cliq <-> mod


def theta_cond_from_p(
    p: JointProbs,
    order: CliqueOrder,
    *,
    validate: bool = True,
    tol: float | None = None,
) -> ThetaMap:
    """Blockwise interactions: first-clique marginal plus every residual slice.

    Markov-ness of ``p`` is checked by default; the error reports the worst
    offending non-complete set.
    """
    if validate:
        tol = default_markov_tol() if tol is None else tol
        worst_set, worst = markov_residual(p, order.graph())
        if worst > tol:
            raise MarkovViolationError(worst_set, worst, tol)
    return theta_cond_from_xi(xi_from_condprobs(CondProbs.from_joint(p, order)), order)


def xi_from_condprobs(cp: CondProbs) -> ThetaMap:
    """Log odds of each block cell against the block's all-baseline cell."""
    arrays = []
    for l in range(cp.order.k):
        a = np.log(_stacked(cp, l))
        a -= a[(Ellipsis,) + (slice(0, 1),) * len(cp.order.residuals[l])]
        arrays.append(a)
    return ThetaMap("xi", _unpack(arrays, "cond", cp.order, cp.spec))


def p_from_xi(xi: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> CondProbs:
    """Blockwise softmax: probabilities from log odds, log-sum-exp guarded.

    Each block cell's weight is the xi coordinate of its support (zero for
    the all-baseline cell); the normalizing sum ranges over that block's own
    cells and nothing else.
    """
    _expect_kind(xi, "xi")
    blocks = {}
    for l, a in enumerate(_pack(xi.values, "cond", order, spec)):
        _softmax(a, _res_axes(order, l))
        for s in iter_cells(order.separators[l], spec):
            blocks[(l + 1, s.levels)] = a[s.levels]
    return CondProbs(order, spec, blocks)


def xi_from_theta_cond(cond: ThetaMap, order: CliqueOrder) -> ThetaMap:
    """Subset sums of block interactions: the block-wise multinomial logits."""
    _expect_kind(cond, "cond")
    return _transform(cond, "xi", _zeta, _res_axes, order, _spec_of(cond, order))


def theta_cond_from_xi(xi: ThetaMap, order: CliqueOrder) -> ThetaMap:
    """Inverse of the subset-sum transform (alternating-sign inversion)."""
    _expect_kind(xi, "xi")
    return _transform(xi, "cond", _mobius, _res_axes, order, _spec_of(xi, order))


def cliq_from_cond(cond: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> ThetaMap:
    """Clique-marginal interactions from slice-wise ones.

    For a set E of clique l with separator part F0 and residual part D, the
    clique coordinate is the alternating sum over F ⊆ F0 (empty included) of
    D's coordinate in the slice (i_F, baseline on the rest of the separator).
    The first clique's block is copied unchanged.
    """
    _expect_kind(cond, "cond")
    return _transform(cond, "cliq", _mobius, _sep_axes, order, spec)


def cond_from_cliq(cliq: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> ThetaMap:
    """Slice-wise interactions from clique-marginal ones (subset sums).

    For D inside residual l and a slice with support F, the slice coordinate
    is the sum over G ⊆ F (empty included) of the clique coordinate on G ∪ D.
    Exact inverse of :func:`cliq_from_cond`.
    """
    _expect_kind(cliq, "cliq")
    return _transform(cliq, "cond", _zeta, _sep_axes, order, spec)


def _slice_log_norms(xi: np.ndarray, order: CliqueOrder, l: int) -> np.ndarray:
    """Per separator cell, the log normalizer of an xi array's residual block."""
    return _lse(xi, _res_axes(order, l)).reshape(xi.shape[: len(order.separators[l])])


def _cliq_log_norms(cliq: np.ndarray, order: CliqueOrder, l: int) -> np.ndarray:
    """Möbius transform along S_l of the slice log normalizers of a cliq array."""
    xi = _zeta(cliq, range(cliq.ndim))
    return _mobius(_slice_log_norms(xi, order, l), _sep_axes(order, l))


@functools.lru_cache(maxsize=64)
def _separator_keys(
    order: CliqueOrder, spec: LevelSpec
) -> tuple[tuple[tuple[ParamKey, ...], np.ndarray], ...]:
    """Per clique: the ``mod`` key of each off-baseline separator cell, and its flat cell over S_l.

    The key is the cell's support with its levels there: the coordinate that
    the slice log normalizer at that cell corrects.
    """
    out = []
    for s_vars in order.separators:
        keys = tuple(
            ParamKey(e, c.levels)
            for e in nonempty_subsets(s_vars)
            for c in iter_cells(e, spec, starred=True)
        )
        flat = _flat_cells(keys, s_vars, spec) if keys else np.zeros(0, dtype=np.intp)
        flat.flags.writeable = False
        out.append((keys, flat))
    return tuple(out)


def _separator_corrections(
    cliq: np.ndarray, order: CliqueOrder, spec: LevelSpec, l: int
) -> Iterable[tuple[ParamKey, float]]:
    """Pairs (``mod`` key, log normalizer) for clique ``l``'s off-baseline separator cells."""
    keys, flat = _separator_keys(order, spec)[l]
    return zip(keys, _cliq_log_norms(cliq, order, l).reshape(-1)[flat].tolist())


def mod_from_cliq(cliq: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> ThetaMap:
    """Joint-table interactions from clique-marginal ones, clique by clique.

    log p = Σ_C log p_C - Σ_S log p_S, so mod_E sums the Möbius transforms of
    the log clique marginals containing E minus those of the log separator
    marginals.  For E with home clique h that is cliq_E plus, for every later
    clique l with E ⊆ S_l, the Möbius transform along S_l of
    log q_l(R_l = baseline | S_l), which is minus the slice's log normalizer.
    """
    _expect_kind(cliq, "cliq")
    arrays = _pack(cliq.values, "mod", order, spec)
    values = _unpack(arrays, "mod", order, spec)
    for l in range(1, order.k):
        for key, log_norm in _separator_corrections(arrays[l], order, spec, l):
            values[key] -= log_norm
    return ThetaMap("mod", values)


def cliq_from_mod(mod: ThetaMap, order: CliqueOrder, spec: LevelSpec) -> ThetaMap:
    """Clique-marginal interactions from joint ones, by backward peeling.

    The exact inverse of :func:`mod_from_cliq`, with no joint table: walk the
    cliques from last to first, take each clique's separator log normalizers
    from its running coordinates and add them back to the coordinates on
    the separator's subsets, whose home clique is earlier.  Every correction
    from a later clique is in place before a clique's own normalizers are
    taken (the collect pass of Lauritzen & Spiegelhalter 1988).  The cost is
    the total size of the clique tables.
    """
    _expect_kind(mod, "mod")
    g = order.graph()
    for key in mod.values:
        if not is_complete(g, key.vars):
            raise ValueError(f"coordinate on non-complete set {key.vars}")
    values = _unpack(_pack(mod.values, "mod", order, spec), "mod", order, spec)
    for l in range(order.k - 1, 0, -1):
        a = _pack_clique(values, "mod", order, spec, l)
        for key, log_norm in _separator_corrections(a, order, spec, l):
            values[key] += log_norm
    return ThetaMap("cliq", values)


# ---------------------------------------------------------------------------
# Sufficient statistics and the likelihood in each parametrization


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Cell counts of every clique table, with the statistics each likelihood form reads.

    ``tables[l]`` counts clique l's cells over S_l + R_l; counts are reals so
    fictitious (half-integer) counts fit the same carrier.  Derived once with
    :func:`_margins`: ``cond`` (margins along R_l), ``mod`` (along every axis;
    also the ``cliq`` statistics) and their residual-baseline slices over S_l,
    the per-slice totals ``cond_totals`` and per-support totals ``cliq_totals``.
    """

    order: CliqueOrder
    spec: LevelSpec
    n_total: float
    tables: tuple[np.ndarray, ...]
    cond: tuple[np.ndarray, ...] = field(init=False, repr=False)
    mod: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cond_totals: tuple[np.ndarray, ...] = field(init=False, repr=False)
    cliq_totals: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        derived = {k: [] for k in ("tables", "cond", "mod", "cond_totals", "cliq_totals")}
        for l, n in enumerate(self.tables):
            n = np.array(n, dtype=float)
            cond = _margins(n.copy(), _res_axes(self.order, l))
            mod = _margins(cond.copy(), _sep_axes(self.order, l))
            base = (Ellipsis,) + (0,) * len(self.order.residuals[l])
            # Contiguous totals keep np.vdot's summation order, so results are bit-stable.
            for name, arr in zip(derived, (n, cond, mod, cond[base].copy(), mod[base].copy())):
                arr.flags.writeable = False
                derived[name].append(arr)
        for name, arrays in derived.items():
            object.__setattr__(self, name, tuple(arrays))

    def __eq__(self, other):
        return (
            isinstance(other, SufficientStats)
            and (self.order, self.spec, self.n_total) == (other.order, other.spec, other.n_total)
            and all(map(np.array_equal, self.tables, other.tables))
        )

    @classmethod
    def from_table(cls, t: ContingencyTable, order: CliqueOrder) -> "SufficientStats":
        """Read off one marginal count table per clique (counts are exact in floats)."""
        tables = (t.marginal(s, r) for s, r in zip(order.separators, order.residuals))
        return cls(order, t.spec, float(t.total), tuple(tables))

    @classmethod
    def halves(cls, order: CliqueOrder, spec: LevelSpec) -> "SufficientStats":
        """Half a count in every cell of every clique table: the reference prior's pseudo-data.

        Every Dirichlet(1/2) block is a slice of one of these tables, so the
        prior is the likelihood of these statistics (its conjugate form).
        """
        tables = (
            np.full(_shape(spec, s + r), 0.5) for s, r in zip(order.separators, order.residuals)
        )
        return cls(order, spec, spec.n_cells(order.cliques[0]) / 2, tuple(tables))

    def entries(self, kind: str) -> dict[ParamKey, float]:
        """The counts paired with each ``cond`` or ``cliq``/``mod`` coordinate, in key order."""
        layout = _LAYOUT[kind]
        return _unpack(self.cond if layout == "cond" else self.mod, layout, self.order, self.spec)


def loglik(theta: ThetaMap, stats: SufficientStats) -> float:
    """Log density (multinomial coefficient excluded) in the map's own coordinates.

    ⟨θ, N⟩ minus, per block, its total times its log normalizer.  A ``mod``
    map is first peeled to ``cliq`` by :func:`cliq_from_mod`, the exact
    inverse of :func:`mod_from_cliq`, so no joint table is built.  The three
    parametrizations agree with each other and with the direct sum of count
    times log probability.
    """
    kind = theta.kind
    if kind not in ("mod", "cond", "cliq"):
        raise ValueError(f"no likelihood form for kind {kind!r}")
    order, spec = stats.order, stats.spec
    if theta.values.keys() != set(canonical_keys(kind, order, spec)):
        raise ValueError("parameter and statistic index sets differ")
    if kind == "mod":
        return loglik(cliq_from_mod(theta, order, spec), stats)
    counts = stats.cond if kind == "cond" else stats.mod
    thetas = _pack(theta.values, _LAYOUT[kind], order, spec)
    total = sum(float(np.vdot(a, n)) for a, n in zip(thetas, counts))
    totals = stats.cliq_totals if kind == "cliq" else stats.cond_totals
    for l, a in enumerate(thetas):
        if kind == "cliq":
            log_norms = _cliq_log_norms(a, order, l)
        else:
            log_norms = _slice_log_norms(_zeta(a, _res_axes(order, l)), order, l)
        total -= float(np.vdot(log_norms, totals[l]))
    return total
