"""Reference priors, conjugate updating and posterior sampling.

The reference prior for the clique/separator probability blocks is a product
of symmetric Dirichlet(1/2) distributions, one per block.  Pushed through the
(unit-Jacobian) parameter transforms it stays in conjugate form: the same
likelihood expressions with the observed counts replaced by half-integer
fictitious counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import CliqueOrder
from .params import (
    CondProbs,
    ParamKey,
    SufficientStats,
    ThetaMap,
    block_keys,
    cliq_from_mod,
    loglik,
)
from .tables import ContingencyTable, LevelSpec, iter_cells, subsets_with_empty


@dataclass(frozen=True)
class DirichletBlock:
    """One Dirichlet-distributed probability block.

    ``vars``/``cells`` enumerate the block's table; ``given_vars``/
    ``given_cell`` identify the conditioning slice (empty for a marginal
    block).  ``alpha`` entries are positive, half-integer valued.
    """

    label: str
    vars: tuple[str, ...]
    given_vars: tuple[str, ...]
    given_cell: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]
    alpha: tuple[float, ...]

    def __post_init__(self):
        if len(self.cells) != len(self.alpha):
            raise ValueError("cells and alpha differ in length")
        if any(a <= 0 for a in self.alpha):
            raise ValueError(f"block {self.label}: improper hyperparameters")

    @property
    def dim(self) -> int:
        return len(self.cells)

    def alpha_rationals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(a) for a in self.alpha)

    def mean(self) -> np.ndarray:
        a = np.asarray(self.alpha, dtype=float)
        return a / a.sum()

    def log_beta(self) -> float:
        """Log multivariate beta function of the hyperparameter vector."""
        return sum(math.lgamma(a) for a in self.alpha) - math.lgamma(sum(self.alpha))


@dataclass(frozen=True)
class DirichletBlocks:
    """An ordered product of Dirichlet blocks (a prior or posterior).

    ``grouping`` records which blocks the reference-prior construction treats
    as one group; merging groups leaves the density untouched, so it is pure
    metadata.
    """

    spec: LevelSpec
    blocks: tuple[DirichletBlock, ...]
    grouping: tuple[tuple[int, ...], ...]

    def log_normalizer(self) -> float:
        return sum(b.log_beta() for b in self.blocks)

    def log_density_probs(self, probs: Sequence[np.ndarray]) -> float:
        """Log density at the given per-block probability vectors."""
        if len(probs) != len(self.blocks):
            raise ValueError("one probability vector per block required")
        total = -self.log_normalizer()
        for b, q in zip(self.blocks, probs):
            q = np.asarray(q, dtype=float).reshape(-1)
            if q.shape != (b.dim,):
                raise ValueError(f"block {b.label}: wrong vector length")
            total += float(((np.asarray(b.alpha) - 1.0) * np.log(q)).sum())
        return total


class Factor(NamedTuple):
    """One factor q(free | given) of a factorization.

    Its blocks are the slices at each cell of ``given``, labelled ``label``
    followed by the slice cell (nothing for an empty ``given``).
    """

    given: tuple[str, ...]
    free: tuple[str, ...]
    label: str


def clique_factors(order: CliqueOrder) -> list[Factor]:
    """The clique/separator factorization: q(R_l | S_l) for every clique."""
    return [
        Factor(s, r, f"R{l}|" if s else f"C{l}")
        for l, (s, r) in enumerate(zip(order.separators, order.residuals), start=1)
    ]


def half_blocks(
    factors: Sequence[Factor], spec: LevelSpec, *, merge_slices: bool = False
) -> DirichletBlocks:
    """Dirichlet(1/2,...,1/2) on every slice of every factor, in factor order.

    With ``merge_slices`` the slices of each factor are recorded as a single
    reference-prior group; the density is identical either way.
    """
    blocks: list[DirichletBlock] = []
    grouping: list[tuple[int, ...]] = []
    for f in factors:
        cells = tuple(c.levels for c in iter_cells(f.free, spec))
        first = len(blocks)
        for s in iter_cells(f.given, spec):
            inside = ",".join(f"{v}={x}" for v, x in zip(f.given, s.levels))
            blocks.append(DirichletBlock(
                f.label + inside, f.free, f.given, s.levels, cells, (0.5,) * len(cells)
            ))
        ids = tuple(range(first, len(blocks)))
        grouping += [ids] if merge_slices else [(i,) for i in ids]
    return DirichletBlocks(spec, tuple(blocks), tuple(grouping))


def reference_prior_pcond(
    order: CliqueOrder, spec: LevelSpec, *, merge_slices: bool = False
) -> DirichletBlocks:
    """Dirichlet(1/2,...,1/2) on every clique/separator factorization block.

    With ``merge_slices`` the slices of each residual form one group.
    """
    return half_blocks(clique_factors(order), spec, merge_slices=merge_slices)


def posterior_update(prior: DirichletBlocks, t: ContingencyTable) -> DirichletBlocks:
    """Conjugate update: every cell hyperparameter gains its observed count.

    Counts are read from the table's marginal over each block's slice and
    block variables, tabulated once and shared by the blocks of all slices.
    """
    if t.spec != prior.spec:
        raise ValueError("table and prior are on different models")
    new_blocks = []
    for b in prior.blocks:
        cells = np.array(b.cells, dtype=np.intp).reshape(len(b.cells), len(b.vars))
        counts = t.marginal(b.given_vars, b.vars)[b.given_cell][tuple(cells.T)]
        alpha = tuple((np.asarray(b.alpha, dtype=float) + counts).tolist())
        new_blocks.append(
            DirichletBlock(b.label, b.vars, b.given_vars, b.given_cell, b.cells, alpha)
        )
    return DirichletBlocks(prior.spec, tuple(new_blocks), prior.grouping)


def sample_blocks(
    blocks: DirichletBlocks, seed: int, n_draws: int
) -> list[list[np.ndarray]]:
    """Independent joint draws, one probability vector per block per draw.

    Stream-splitting rule: draw d uses SeedSequence(seed).spawn(n_draws)[d];
    within a draw the blocks consume that generator in canonical block
    order.  Identical seeds give identical draws regardless of how draws are
    distributed across workers.

    A draw is one ``gamma`` call over every block's hyperparameters in that
    order, which consumes the generator exactly as one call per block would;
    each block's slice is then normalized by its own ``sum`` (a segmented
    sum such as ``np.add.reduceat`` adds in another order and would change
    the last bits).
    """
    if n_draws < 0:
        raise ValueError("n_draws must be nonnegative")
    alpha = np.array([a for b in blocks.blocks for a in b.alpha], dtype=float)
    ends = list(itertools.accumulate(b.dim for b in blocks.blocks))
    spans = list(zip([0] + ends, ends))
    draws = []
    for child in np.random.SeedSequence(seed).spawn(n_draws):
        g = np.random.default_rng(child).gamma(shape=alpha)
        draws.append([(v := g[lo:hi]) / v.sum() for lo, hi in spans])
    return draws


def sample_posterior(
    post: DirichletBlocks, order: CliqueOrder, seed: int, n_draws: int
) -> list[CondProbs]:
    """Exact conjugate sampling of the probability blocks, as CondProbs."""
    keys = block_keys(order, post.spec)
    if len(keys) != len(post.blocks):
        raise ValueError("blocks do not form a clique/separator factorization")
    out = []
    for vecs in sample_blocks(post, seed, n_draws):
        block_map = {}
        for (l, s_levels), b, vec in zip(keys, post.blocks, vecs):
            shape = tuple(post.spec.size(v) for v in b.vars)
            block_map[(l, s_levels)] = vec.reshape(shape)
        out.append(CondProbs(order, post.spec, block_map))
    return out


# ---------------------------------------------------------------------------
# Fictitious counts and theta-space reference priors


@dataclass(frozen=True)
class FictitiousCounts:
    """Half-integer pseudo-counts that put the reference prior in conjugate form.

    They are the ``tag`` statistics (``cond`` or ``cliq``) of half a count in
    every cell of every clique table (:meth:`SufficientStats.halves`), of
    which each Dirichlet(1/2) block is one slice.  The views below read them
    off as exact rationals; half-integers are exact in floats.
    """

    tag: str
    stats: SufficientStats

    @property
    def entries(self) -> dict[ParamKey, Fraction]:
        """Pseudo-count per coordinate, in canonical key order."""
        return {k: Fraction(v) for k, v in self.stats.entries(self.tag).items()}

    @property
    def totals(self) -> dict[tuple, Fraction]:
        """Block totals of the later cliques.

        ``cond``: one per slice, keyed ``(l, slice cell)``.  ``cliq``: one per
        slice support, keyed ``(l, F, starred cell of F)``, F ⊆ S_l, empty first.
        """
        order, spec = self.stats.order, self.stats.spec
        out: dict[tuple, Fraction] = {}
        for l in range(1, order.k):
            s_vars = order.separators[l]
            if self.tag == "cond":
                for s in iter_cells(s_vars, spec):
                    out[(l + 1, s.levels)] = Fraction(self.stats.cond_totals[l][s.levels].item())
                continue
            for f in subsets_with_empty(s_vars):
                for c in iter_cells(f, spec, starred=True):
                    cell = tuple(c.levels[f.index(v)] if v in f else 0 for v in s_vars)
                    out[(l + 1, f, c.levels)] = Fraction(self.stats.cliq_totals[l][cell].item())
        return out

    @property
    def grand_total(self) -> Fraction:
        return Fraction(self.stats.n_total)


def fictitious_counts(tag: str, order: CliqueOrder, spec: LevelSpec) -> FictitiousCounts:
    """The prior pseudo-counts for the ``cond`` or ``cliq`` statistics.

    Summing half a count per cell gives the closed forms.  cond: a marginal
    cell of the first clique on D counts |cells of C_1 \\ D|/2 with grand
    total |cells of C_1|/2; a slice cell on D counts |cells of R_l \\ D|/2
    with slice total |cells of R_l|/2.  cliq: a cell on slice-support F and
    residual set D counts |cells of S_l \\ F| * |cells of R_l \\ D| / 2, with
    per-support total |cells of S_l \\ F| * |cells of R_l| / 2.
    """
    if tag not in ("cond", "cliq"):
        raise ValueError(f"unknown fictitious-count tag {tag!r}")
    return FictitiousCounts(tag, SufficientStats.halves(order, spec))


@dataclass(frozen=True)
class ThetaReferencePrior:
    """Reference prior on one of the interaction parametrizations.

    Represented by its conjugate form: the likelihood of the matching
    parametrization evaluated at fictitious counts, normalized by the product
    of Dirichlet normalizers (the transforms from the probability blocks all
    have unit Jacobian).  The ``mod`` prior is the ``cliq`` one re-expressed,
    so points are transformed before evaluation.
    """

    tag: str
    order: CliqueOrder
    spec: LevelSpec
    fictitious: FictitiousCounts
    log_normalizer: float

    def log_density(self, theta: ThetaMap) -> float:
        if self.tag == "mod":
            point = cliq_from_mod(theta, self.order, self.spec)
        else:
            point = theta
        if point.kind != self.fictitious.tag:
            raise ValueError(
                f"prior on {self.tag!r} cannot evaluate a {theta.kind!r} point"
            )
        return loglik(point, self.fictitious.stats) - self.log_normalizer


def reference_prior_theta(
    tag: str, order: CliqueOrder, spec: LevelSpec
) -> ThetaReferencePrior:
    """Log-density evaluator plus fictitious counts for cond, cliq or mod."""
    if tag not in ("cond", "cliq", "mod"):
        raise ValueError(f"unknown parametrization tag {tag!r}")
    fict = fictitious_counts("cliq" if tag == "mod" else tag, order, spec)
    log_norm = reference_prior_pcond(order, spec).log_normalizer()
    return ThetaReferencePrior(tag, order, spec, fict, log_norm)
