import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decotab.cuts import (
    CutProbs,
    NotACutError,
    cut_decomposition,
    cut_loglik,
    cut_reference_prior,
    is_cut,
)
from decotab.graphs import LabeledGraph, induced_subgraph, is_complete, perfect_order
from decotab.oracle import brute_markov_residual, direct_loglik
from decotab.params import block_keys, marginal_joint
from decotab.priors import DirichletBlock, DirichletBlocks, reference_prior_pcond
from decotab.randgen import (
    random_cond_probs,
    random_decomposable_graph,
    random_model,
    random_table,
)
from decotab.tables import LevelSpec, iter_cells


class TestIsCut:
    def test_known_cut(self, branch11):
        g, _ = branch11
        assert is_cut(g, ("1", "2", "3", "4")).is_cut

    def test_known_non_cut_with_witness(self, branch11):
        g, _ = branch11
        chk = is_cut(g, ("1", "2", "4"))
        assert not chk.is_cut
        assert "3" in chk.bad_component
        assert set(chk.bad_pair) == {"2", "4"}
        assert not g.has_edge(*chk.bad_pair)

    def test_whole_vertex_set_is_a_cut(self, branch11):
        g, _ = branch11
        assert is_cut(g, g.vertices).is_cut

    def test_dropping_simplicial_vertices_gives_cuts(self, rng):
        for _ in range(20):
            g = random_decomposable_graph(rng, int(rng.integers(3, 9)))
            simplicial = [
                v for v in g.vertices if is_complete(g, set(g.neighbors(v)) | {v})
            ]
            if not simplicial:
                continue
            a = tuple(v for v in g.vertices if v != simplicial[0])
            assert is_cut(g, a).is_cut


class TestCutDecomposition:
    def test_branch11_full_table(self, branch11):
        g, _ = branch11
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        assert dec.order_a.cliques == (("1", "2"), ("2", "3"), ("3", "4"))
        assert dec.order_a.separators == ((), ("2",), ("3",))
        rows = {c.members: (c.bd, c.order.cliques) for c in dec.components}
        assert rows[("9", "10", "11")] == (("2",), (("2", "9", "10"), ("10", "11")))
        assert rows[("8",)] == (("2", "3"), (("2", "3", "8"),))
        assert rows[("5",)] == (("3",), (("3", "5"),))
        assert rows[("6", "7")] == (("3", "4"), (("3", "4", "6", "7"),))

    def test_components_sorted_by_least_vertex(self, branch11):
        g, _ = branch11
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        assert [c.members for c in dec.components] == [
            ("5",), ("6", "7"), ("8",), ("9", "10", "11"),
        ]

    def test_boundary_in_first_clique(self, rng):
        for _ in range(20):
            g = random_decomposable_graph(rng, int(rng.integers(3, 9)))
            simplicial = [
                v for v in g.vertices if is_complete(g, set(g.neighbors(v)) | {v})
            ]
            if not simplicial:
                continue
            a = tuple(v for v in g.vertices if v != simplicial[-1])
            dec = cut_decomposition(g, a)
            dec.validate()
            for comp in dec.components:
                assert set(comp.bd) <= set(comp.order.cliques[0])
                assert set(comp.bd) <= set(a)

    def test_single_simplicial_component(self, thick6):
        g, _ = thick6
        a = tuple(v for v in g.vertices if v != "f")
        dec = cut_decomposition(g, a)
        assert len(dec.components) == 1
        assert dec.components[0].members == ("f",)
        assert dec.components[0].order.cliques == (("e", "f"),)

    def test_unknown_cut_vertex_fails_validation(self, branch11):
        g, _ = branch11
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        with pytest.raises(ValueError, match="unknown vertices"):
            dataclasses.replace(dec, a=dec.a + ("12",)).validate()

    def test_not_a_cut_raises_with_witness(self, branch11):
        g, _ = branch11
        with pytest.raises(NotACutError) as err:
            cut_decomposition(g, ("1", "2", "4"))
        assert set(err.value.bad_pair) == {"2", "4"}


class TestCutLoglik:
    def test_uniform_value(self, chain3, rng):
        import math

        g, spec = chain3
        from decotab.params import JointProbs

        p = JointProbs(spec, np.full(spec.shape, 1 / 8))
        dec = cut_decomposition(g, ("a", "b"))
        probs = CutProbs.from_joint(p, dec)
        t = random_table(rng, p, 300)
        assert cut_loglik(dec, probs, t) == pytest.approx(-300 * math.log(8), abs=1e-9)

    def test_equals_joint_likelihood(self, branch11, rng):
        g, spec = branch11
        order = perfect_order(g)
        p = random_cond_probs(rng, order, spec).joint()
        t = random_table(rng, p, 4000)
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        probs = CutProbs.from_joint(p, dec)
        assert abs(cut_loglik(dec, probs, t) - direct_loglik(p, t)) < 1e-10 * 4000

    def test_whole_set_reduces_to_plain_likelihood(self, chain3, rng):
        g, spec = chain3
        order = perfect_order(g)
        p = random_cond_probs(rng, order, spec).joint()
        t = random_table(rng, p, 500)
        dec = cut_decomposition(g, g.vertices)
        probs = CutProbs.from_joint(p, dec)
        assert abs(cut_loglik(dec, probs, t) - direct_loglik(p, t)) < 1e-10 * 500


class TestCutReferencePrior:
    def test_branch11_component_block_inventory(self, branch11):
        g, spec = branch11
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        pri = cut_reference_prior(dec, spec)
        by_label = {b.label: b for b in pri.blocks}
        # marginal part: path 1-2-3-4
        assert by_label["C1"].dim == 4
        assert {b.label for b in pri.blocks if b.label.startswith("R2|")} == {
            "R2|2=0", "R2|2=1",
        }
        # component {9,10,11}: 2 head blocks of dim 4 over {9,10}; 2 slice
        # blocks of dim 2 for residual {11} given {10}
        b4 = [b for b in pri.blocks if b.label.startswith("B4:")]
        heads = [b for b in b4 if "head" in b.label]
        resid = [b for b in b4 if "R2|" in b.label]
        assert len(heads) == 2 and all(b.dim == 4 for b in heads)
        assert all(b.vars == ("9", "10") for b in heads)
        assert len(resid) == 2 and all(b.dim == 2 for b in resid)
        assert all(b.vars == ("11",) for b in resid)

    def test_whole_set_matches_plain_prior(self, branch11):
        g, spec = branch11
        dec = cut_decomposition(g, g.vertices)
        pri = cut_reference_prior(dec, spec)
        plain = reference_prior_pcond(perfect_order(g), spec)
        assert [(b.label, b.vars, b.given_cell, b.alpha) for b in pri.blocks] == [
            (b.label, b.vars, b.given_cell, b.alpha) for b in plain.blocks
        ]

    def test_marginal_part_matches_subgraph_prior(self, branch11):
        g, spec = branch11
        a = ("1", "2", "3", "4")
        dec = cut_decomposition(g, a)
        pri = cut_reference_prior(dec, spec)
        sub_prior = reference_prior_pcond(dec.order_a, spec.restrict(a))
        head = pri.blocks[: len(sub_prior.blocks)]
        assert [(b.label, b.vars, b.cells, b.alpha) for b in head] == [
            (b.label, b.vars, b.cells, b.alpha) for b in sub_prior.blocks
        ]

    def test_propriety(self, branch11):
        g, spec = branch11
        dec = cut_decomposition(g, ("1", "2", "3", "4"))
        assert all(
            a == 0.5 for b in cut_reference_prior(dec, spec).blocks for a in b.alpha
        )


class TestCollapsibility:
    def test_marginal_over_cut_is_markov_for_subgraph(self, branch11, rng):
        g, spec = branch11
        order = perfect_order(g)
        a = ("1", "2", "3", "4")
        for _ in range(3):
            p = random_cond_probs(rng, order, spec).joint()
            pa = marginal_joint(p, a)
            _, worst = brute_markov_residual(pa, induced_subgraph(g, a))
            assert worst < 1e-9

    def test_random_graphs(self, rng):
        for _ in range(10):
            g = random_decomposable_graph(rng, int(rng.integers(3, 8)))
            simplicial = [
                v for v in g.vertices if is_complete(g, set(g.neighbors(v)) | {v})
            ]
            if not simplicial or len(g.vertices) < 3:
                continue
            a = tuple(v for v in g.vertices if v != simplicial[0])
            order = perfect_order(g)
            from decotab.randgen import random_level_spec

            spec = random_level_spec(rng, g.vertices)
            p = random_cond_probs(rng, order, spec).joint()
            pa = marginal_joint(p, a)
            _, worst = brute_markov_residual(pa, induced_subgraph(g, a))
            assert worst < 1e-9


class TestFactorList:
    def test_disconnected_component_has_an_unconditioned_head(self):
        g = LabeledGraph.make(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
        spec = LevelSpec(g.vertices, (2, 3, 2, 2))
        dec = cut_decomposition(g, ("a",))
        assert [(f.given, f.free, f.label) for f in dec.factors] == [
            ((), ("a",), "C1"),
            (("a",), ("b",), "B1:head|"),
            ((), ("c", "d"), "B2:head|"),
        ]
        pri = cut_reference_prior(dec, spec)
        assert [b.label for b in pri.blocks] == [
            "C1", "B1:head|a=0", "B1:head|a=1", "B2:head|",
        ]
        assert [b.dim for b in pri.blocks] == [2, 3, 3, 4]


# The block loops the factor list replaced, kept as references.


def _slice_label(l, s_vars, s_cell):
    if not s_vars:
        return f"C{l}"
    inside = ",".join(f"{v}={x}" for v, x in zip(s_vars, s_cell))
    return f"R{l}|{inside}"


def reference_prior_pcond_by_slices(order, spec, merge_slices=False):
    blocks = []
    group_of = []
    for l, s_levels in block_keys(order, spec):
        if l == 1:
            vars_, given_vars = order.cliques[0], ()
        else:
            vars_, given_vars = order.residuals[l - 1], order.separators[l - 1]
        cells = tuple(c.levels for c in iter_cells(vars_, spec))
        blocks.append(DirichletBlock(
            _slice_label(l, given_vars, s_levels), vars_, given_vars, s_levels,
            cells, (0.5,) * len(cells),
        ))
        group_of.append(l if merge_slices else len(blocks))
    grouping = {}
    for i, gid in enumerate(group_of):
        grouping.setdefault(gid, []).append(i)
    return DirichletBlocks(spec, tuple(blocks), tuple(tuple(g) for g in grouping.values()))


def cut_reference_prior_by_slices(decomp, spec):
    blocks = list(reference_prior_pcond_by_slices(decomp.order_a, spec.restrict(decomp.a)).blocks)
    for idx, comp in enumerate(decomp.components, start=1):
        head_cells = tuple(c.levels for c in iter_cells(comp.head_free, spec))
        for b_cell in iter_cells(comp.bd, spec):
            inside = ",".join(f"{v}={x}" for v, x in zip(comp.bd, b_cell.levels))
            blocks.append(DirichletBlock(
                f"B{idx}:head|{inside}", comp.head_free, comp.bd, b_cell.levels,
                head_cells, (0.5,) * len(head_cells),
            ))
        for j in range(2, comp.order.k + 1):
            s_vars = comp.order.separators[j - 1]
            r_vars = comp.order.residuals[j - 1]
            r_cells = tuple(c.levels for c in iter_cells(r_vars, spec))
            for s_cell in iter_cells(s_vars, spec):
                inside = ",".join(f"{v}={x}" for v, x in zip(s_vars, s_cell.levels))
                blocks.append(DirichletBlock(
                    f"B{idx}:R{j}|{inside}", r_vars, s_vars, s_cell.levels,
                    r_cells, (0.5,) * len(r_cells),
                ))
    return DirichletBlocks(spec, tuple(blocks), tuple((i,) for i in range(len(blocks))))


def _inventory(pri):
    rows = [(b.label, b.vars, b.given_vars, b.given_cell, b.cells, b.alpha) for b in pri.blocks]
    return rows, pri.grouping


def _model(seed, isolated):
    """A random decomposable model, optionally with one extra isolated vertex."""
    rng = np.random.default_rng(seed)
    g, order, spec = random_model(rng, int(rng.integers(2, 7)))
    if isolated:
        g = LabeledGraph.make(g.vertices + ("z",), g.edge_pairs())
        spec = LevelSpec(g.vertices, spec.sizes + (int(rng.integers(2, 4)),))
        order = perfect_order(g)
    return rng, g, order, spec


def _cuts(g):
    for r in range(1, len(g.vertices) + 1):
        for a in itertools.combinations(g.vertices, r):
            if is_cut(g, a).is_cut:
                yield cut_decomposition(g, a)


@given(seed=st.integers(0, 2**32 - 1), isolated=st.booleans())
@settings(max_examples=25, deadline=None)
def test_factor_list_priors_match_the_slice_loops(seed, isolated):
    _, g, order, spec = _model(seed, isolated)
    for merge in (False, True):
        assert _inventory(reference_prior_pcond(order, spec, merge_slices=merge)) == _inventory(
            reference_prior_pcond_by_slices(order, spec, merge)
        )
    for dec in _cuts(g):
        assert _inventory(cut_reference_prior(dec, spec)) == _inventory(
            cut_reference_prior_by_slices(dec, spec)
        )


@given(seed=st.integers(0, 2**32 - 1), isolated=st.booleans())
@settings(max_examples=25, deadline=None)
def test_cut_loglik_equals_the_joint_likelihood_for_every_cut(seed, isolated):
    rng, g, order, spec = _model(seed, isolated)
    p = random_cond_probs(rng, order, spec).joint()
    t = random_table(rng, p, 200)
    direct = direct_loglik(p, t)
    for dec in _cuts(g):
        assert abs(cut_loglik(dec, CutProbs.from_joint(p, dec), t) - direct) < 1e-10 * 200
