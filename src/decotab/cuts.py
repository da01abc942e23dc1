"""Cuts: detection, factorization over a cut, and the cut reference prior.

A vertex subset A is a cut exactly when every connected component of the
complement has a complete boundary.  The joint model then factorizes into
the marginal model on the subgraph induced by A and, per component B, the
conditional model of B given its boundary.  Both parts are clique/separator
factorizations, the second with a conditioned first factor, so the whole cut
factorization is one list of q(free | given) factors
(:attr:`CutDecomposition.factors`).  The probabilities, the likelihood and
the reference prior (Dirichlet(1/2) on every slice) all read that list.
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
from .params import JointProbs, conditional_table
from .priors import DirichletBlocks, Factor, clique_factors, half_blocks
from .tables import ContingencyTable, LevelSpec


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
        if set(self.a) - set(self.graph.vertices):
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

    @property
    def factors(self) -> tuple[Factor, ...]:
        """The cut factorization as one list of q(free | given) factors.

        The clique factors of the marginal model on A, then per component B_i
        its head (first clique minus the boundary, given the boundary) and
        the factors of its later cliques.
        """
        out = clique_factors(self.order_a)
        for i, comp in enumerate(self.components, start=1):
            order = comp.order
            out.append(Factor(comp.bd, comp.head_free, f"B{i}:head|"))
            out += [
                Factor(order.separators[j - 1], order.residuals[j - 1], f"B{i}:R{j}|")
                for j in range(2, order.k + 1)
            ]
        return tuple(out)


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
    """Probability tables of the cut factorization.

    ``tables[i]`` is q(free | given) of ``decomp.factors[i]``, stacked over
    the cells of ``given`` with axes ``given + free``.
    """

    decomp: CutDecomposition
    spec: LevelSpec
    tables: tuple[np.ndarray, ...]

    @classmethod
    def from_joint(cls, p: JointProbs, decomp: CutDecomposition) -> "CutProbs":
        tables = tuple(conditional_table(p, f.given, f.free) for f in decomp.factors)
        return cls(decomp, p.spec, tables)


def cut_loglik(decomp: CutDecomposition, probs: CutProbs, t: ContingencyTable) -> float:
    """Log likelihood of the cut factorization: the sum over its factors.

    Equals the joint log likelihood of the Markov distribution the tables
    assemble to.
    """
    if probs.decomp is not decomp and probs.decomp != decomp:
        raise ValueError("probability blocks belong to a different decomposition")
    return sum(
        float(np.vdot(t.marginal(f.given, f.free), np.log(q)))
        for f, q in zip(decomp.factors, probs.tables)
    )


def cut_reference_prior(decomp: CutDecomposition, spec: LevelSpec) -> DirichletBlocks:
    """Dirichlet(1/2) on every slice of every factor of the cut factorization.

    The marginal part coincides with the ordinary reference prior of the
    subgraph induced by the cut.
    """
    return half_blocks(decomp.factors, spec)
