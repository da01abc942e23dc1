"""Cuts: detection, factorization over a cut, and the cut reference prior.

A vertex subset A is a cut exactly when every connected component of the
complement has a complete boundary.  The joint model then factorizes into
the marginal model on the subgraph induced by A and, per component B, the
conditional model of B given its boundary; the reference prior follows the
same block structure with Dirichlet(1/2) on every block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import (
    CliqueOrder,
    LabeledGraph,
    boundary,
    connected_components,
    induced_subgraph,
    is_complete,
    perfect_order,
)
from .params import CondProbs, JointProbs, conditional_table, marginal_joint
from .priors import DirichletBlock, DirichletBlocks, reference_prior_pcond
from .tables import ContingencyTable, LevelSpec, iter_cells


class NotACutError(ValueError):
    def __init__(self, component: tuple[str, ...], bad_pair: tuple[str, str]):
        self.component = component
        self.bad_pair = bad_pair
        super().__init__(
            f"component {component} has an incomplete boundary:"
            f" {bad_pair[0]} and {bad_pair[1]} are not adjacent"
        )


@dataclass(frozen=True)
class CutCheck:
    is_cut: bool
    bad_component: tuple[str, ...] | None
    bad_pair: tuple[str, str] | None


def is_cut(g: LabeledGraph, a: Sequence[str]) -> CutCheck:
    """Complete-boundary criterion over the components of the complement."""
    aset = set(a)
    rest = [v for v in g.vertices if v not in aset]
    for comp in connected_components(g, rest):
        bd = boundary(g, comp)
        for u, v in itertools.combinations(bd, 2):
            if not g.has_edge(u, v):
                return CutCheck(False, comp, (u, v))
    return CutCheck(True, None, None)


@dataclass(frozen=True)
class ComponentModel:
    """One component B of the complement, with its boundary and clique order.

    The order is over the subgraph induced by B and its boundary, seeded so
    the first clique contains the (complete) boundary.
    """

    members: tuple[str, ...]
    bd: tuple[str, ...]
    order: CliqueOrder

    @property
    def head_free(self) -> tuple[str, ...]:
        """First clique minus the boundary: the conditioned head table."""
        return tuple(v for v in self.order.cliques[0] if v not in self.bd)


@dataclass(frozen=True)
class CutDecomposition:
    graph: LabeledGraph
    a: tuple[str, ...]
    order_a: CliqueOrder
    components: tuple[ComponentModel, ...]

    def validate(self) -> None:
        if not is_complete(self.graph, ()) or set(self.a) - set(self.graph.vertices):
            raise ValueError("cut set contains unknown vertices")
        covered: set[str] = set()
        for comp in self.components:
            if not is_complete(self.graph, comp.bd):
                raise ValueError(f"boundary of {comp.members} is not complete")
            if not set(comp.bd) <= set(comp.order.cliques[0]):
                raise ValueError(f"first clique of {comp.members} misses its boundary")
            if covered & set(comp.members):
                raise ValueError("components overlap")
            covered |= set(comp.members)
        if covered != set(self.graph.vertices) - set(self.a):
            raise ValueError("components do not partition the complement")


def cut_decomposition(g: LabeledGraph, a: Sequence[str]) -> CutDecomposition:
    """Perfect orders for the cut's marginal and per-component conditional models."""
    check = is_cut(g, a)
    if not check.is_cut:
        raise NotACutError(check.bad_component, check.bad_pair)
    a_sorted = g.sort(a)
    order_a = perfect_order(induced_subgraph(g, a_sorted))
    comps = []
    rest = [v for v in g.vertices if v not in set(a_sorted)]
    for members in connected_components(g, rest):
        bd = boundary(g, members)
        sub = induced_subgraph(g, set(members) | set(bd))
        comps.append(ComponentModel(members, bd, perfect_order(sub, first_clique=bd)))
    decomp = CutDecomposition(g, a_sorted, order_a, tuple(comps))
    decomp.validate()
    return decomp


@dataclass(frozen=True)
class CutProbs:
    """Probability blocks of the cut factorization.

    The marginal part is a clique/separator block set on the subgraph induced
    by the cut; each component contributes one head block per boundary cell
    (the first clique minus the boundary, conditioned on it) and one block
    per separator slice of its later cliques.
    """

    decomp: CutDecomposition
    spec: LevelSpec
    a_part: CondProbs
    heads: tuple[dict[tuple[int, ...], np.ndarray], ...]
    resids: tuple[dict[tuple[int, tuple[int, ...]], np.ndarray], ...]

    @classmethod
    def from_joint(cls, p: JointProbs, decomp: CutDecomposition) -> "CutProbs":
        a_marg = marginal_joint(p, decomp.a)
        a_part = CondProbs.from_joint(a_marg, decomp.order_a)
        heads = []
        resids = []
        for comp in decomp.components:
            q = conditional_table(p, comp.bd, comp.head_free)
            heads.append({b.levels: q[b.levels] for b in iter_cells(comp.bd, p.spec)})
            resid: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
            for j in range(1, comp.order.k):
                s_vars = comp.order.separators[j]
                q = conditional_table(p, s_vars, comp.order.residuals[j])
                for s in iter_cells(s_vars, p.spec):
                    resid[(j + 1, s.levels)] = q[s.levels]
            resids.append(resid)
        return cls(decomp, p.spec, a_part, tuple(heads), tuple(resids))


def cut_loglik(decomp: CutDecomposition, probs: CutProbs, t: ContingencyTable) -> float:
    """Log likelihood of the cut factorization: marginal part plus components.

    Equals the joint log likelihood of the Markov distribution the blocks
    assemble to.
    """
    if probs.decomp is not decomp and probs.decomp != decomp:
        raise ValueError("probability blocks belong to a different decomposition")

    def part(given, free, blocks) -> float:
        # Every slice's counts come from one marginal count table.
        n = t.marginal(given, free)
        return sum(float((n[s] * np.log(q)).sum()) for s, q in blocks.items())

    def clique(blocks, l):
        return {s: q for (m, s), q in blocks.items() if m == l + 1}

    order_a = decomp.order_a
    total = 0.0
    for l in range(order_a.k):
        total += part(order_a.separators[l], order_a.residuals[l],
                      clique(probs.a_part.blocks, l))
    for comp, head, resid in zip(decomp.components, probs.heads, probs.resids):
        total += part(comp.bd, comp.head_free, head)
        for j in range(1, comp.order.k):
            total += part(comp.order.separators[j], comp.order.residuals[j],
                          clique(resid, j))
    return total


def cut_reference_prior(decomp: CutDecomposition, spec: LevelSpec) -> DirichletBlocks:
    """Dirichlet(1/2) blocks mirroring the cut factorization.

    The marginal part coincides with the ordinary reference prior of the
    subgraph induced by the cut; each component adds one block per boundary
    cell for its head table and one per separator slice for later cliques.
    """
    a_spec = spec.restrict(decomp.a)
    a_prior = reference_prior_pcond(decomp.order_a, a_spec)
    blocks = list(a_prior.blocks)
    for idx, comp in enumerate(decomp.components, start=1):
        head_vars = comp.head_free
        head_cells = tuple(c.levels for c in iter_cells(head_vars, spec))
        for b_cell in iter_cells(comp.bd, spec):
            inside = ",".join(f"{v}={x}" for v, x in zip(comp.bd, b_cell.levels))
            blocks.append(
                DirichletBlock(
                    label=f"B{idx}:head|{inside}",
                    vars=head_vars,
                    given_vars=comp.bd,
                    given_cell=b_cell.levels,
                    cells=head_cells,
                    alpha=(0.5,) * len(head_cells),
                )
            )
        for j in range(2, comp.order.k + 1):
            s_vars = comp.order.separators[j - 1]
            r_vars = comp.order.residuals[j - 1]
            r_cells = tuple(c.levels for c in iter_cells(r_vars, spec))
            for s_cell in iter_cells(s_vars, spec):
                inside = ",".join(f"{v}={x}" for v, x in zip(s_vars, s_cell.levels))
                blocks.append(
                    DirichletBlock(
                        label=f"B{idx}:R{j}|{inside}",
                        vars=r_vars,
                        given_vars=s_vars,
                        given_cell=s_cell.levels,
                        cells=r_cells,
                        alpha=(0.5,) * len(r_cells),
                    )
                )
    grouping = tuple((i,) for i in range(len(blocks)))
    return DirichletBlocks(spec, tuple(blocks), grouping)
