import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decotab.graphs import perfect_order
from decotab.params import (
    ParamKey,
    SufficientStats,
    block_keys,
    canonical_keys,
    cliq_from_cond,
    cliq_from_mod,
    loglik,
    mod_from_cliq,
    theta_cond_from_p,
)
from decotab.priors import (
    DirichletBlocks,
    fictitious_counts,
    posterior_update,
    reference_prior_pcond,
    reference_prior_theta,
    sample_blocks,
    sample_posterior,
)
from decotab.randgen import random_cond_probs, random_model, random_table
from decotab.tables import (
    CellIndex,
    ContingencyTable,
    ingest_rows,
    iter_cells,
    marginal_count,
    subsets_with_empty,
    tabulate,
)


def half_log_prob_mass(cp):
    return sum(0.5 * float(np.log(arr).sum()) for arr in cp.blocks.values())


class TestReferencePriorPcond:
    def test_chain_block_inventory(self, chain3):
        g, spec = chain3
        prior = reference_prior_pcond(perfect_order(g), spec)
        assert [(b.label, b.dim) for b in prior.blocks] == [
            ("C1", 4), ("R2|b=0", 2), ("R2|b=1", 2),
        ]
        assert all(a == 0.5 for b in prior.blocks for a in b.alpha)

    def test_single_clique_is_symmetric_half(self, rng):
        from decotab.graphs import LabeledGraph
        from decotab.tables import LevelSpec

        g = LabeledGraph.from_cliques(("a", "b"), [("a", "b")])
        spec = LevelSpec(("a", "b"), (2, 3))
        prior = reference_prior_pcond(perfect_order(g), spec)
        assert len(prior.blocks) == 1
        assert prior.blocks[0].dim == 6
        assert prior.blocks[0].alpha == (0.5,) * 6

    def test_thick6_block_inventory(self, thick6):
        g, spec = thick6
        prior = reference_prior_pcond(perfect_order(g), spec)
        assert len(prior.blocks) == 11
        assert [b.dim for b in prior.blocks] == [8] + [2] * 10

    def test_propriety(self, thick6):
        g, spec = thick6
        prior = reference_prior_pcond(perfect_order(g), spec)
        assert all(a > 0 for b in prior.blocks for a in b.alpha)

    def test_grouping_merge_leaves_density_unchanged(self, thick6, rng):
        g, spec = thick6
        order = perfect_order(g)
        split = reference_prior_pcond(order, spec)
        merged = reference_prior_pcond(order, spec, merge_slices=True)
        assert split.grouping != merged.grouping
        cp = random_cond_probs(rng, order, spec)
        vecs = [cp.blocks[key].reshape(-1) for key in _block_key_order(order, spec)]
        assert split.log_density_probs(vecs) == pytest.approx(
            merged.log_density_probs(vecs), abs=1e-12
        )

    def test_order_invariance_of_block_set(self, thick6):
        # permuting block order only relabels; the (label, alpha) bag is fixed
        g, spec = thick6
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        bag = {(b.label, b.alpha) for b in prior.blocks}
        again = reference_prior_pcond(order, spec, merge_slices=True)
        assert bag == {(b.label, b.alpha) for b in again.blocks}


def _block_key_order(order, spec):
    from decotab.params import block_keys

    return block_keys(order, spec)


class TestFictitiousCounts:
    def test_cond_formulas_chain(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        fc = fictitious_counts("cond", order, spec)
        # C_1 = {a,b} binary: a cell on {a} is backed by |cells of {b}|/2 = 1
        assert fc.entries[ParamKey(("a",), (1,))] == Fraction(1)
        assert fc.entries[ParamKey(("a", "b"), (1, 1))] == Fraction(1, 2)
        assert fc.grand_total == Fraction(2)
        # residual slices: totals |cells of {c}|/2 = 1
        assert fc.totals[(2, (0,))] == Fraction(1)
        assert fc.entries[ParamKey(("c",), (1,), ("b",), (1,))] == Fraction(1, 2)

    def test_cliq_formulas_chain(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        fc = fictitious_counts("cliq", order, spec)
        # S={b}, R={c}: set {c} has F empty: |cells of {b}| * |cells of {}| / 2 = 1
        assert fc.entries[ParamKey(("c",), (1,))] == Fraction(1)
        # D = R entirely, F = S entirely: 1/2
        assert fc.entries[ParamKey(("b", "c"), (1, 1))] == Fraction(1, 2)
        # totals: F empty -> |cells of S| * |cells of R| / 2 = 2; F={b} -> 1
        assert fc.totals[(2, (), ())] == Fraction(2)
        assert fc.totals[(2, ("b",), (1,))] == Fraction(1)

    def test_exact_rational_arithmetic(self, thick6):
        g, spec = thick6
        order = perfect_order(g)
        for tag in ("cond", "cliq"):
            fc = fictitious_counts(tag, order, spec)
            for v in fc.entries.values():
                assert isinstance(v, Fraction) and v > 0 and (2 * v).denominator == 1

    def test_mirror_parameter_index_sets(self, thick6):
        g, spec = thick6
        order = perfect_order(g)
        assert set(fictitious_counts("cond", order, spec).entries) == set(
            canonical_keys("cond", order, spec)
        )
        assert set(fictitious_counts("cliq", order, spec).entries) == set(
            canonical_keys("cliq", order, spec)
        )


class TestPosteriorUpdate:
    def test_empty_table_is_identity(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        post = posterior_update(prior, ingest_rows(spec, []))
        assert all(
            b0.alpha == b1.alpha for b0, b1 in zip(prior.blocks, post.blocks)
        )

    def test_single_baseline_observation(self, chain3):
        # exactly one bump: the baseline cell of C1's block and of each
        # baseline-slice block; slices that never occur stay untouched
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        post = posterior_update(prior, ingest_rows(spec, [(0, 0, 0)]))
        for b in post.blocks:
            bumped = [i for i, a in enumerate(b.alpha) if a != 0.5]
            if all(x == 0 for x in b.given_cell):
                assert len(bumped) == 1
                assert b.cells[bumped[0]] == (0,) * len(b.vars)
                assert b.alpha[bumped[0]] == 1.5
            else:
                assert bumped == []

    def test_counts_plus_half_exactly(self, chain3, rng):
        g, spec = chain3
        order = perfect_order(g)
        cp = random_cond_probs(rng, order, spec)
        t = random_table(rng, cp.joint(), 500)
        post = posterior_update(reference_prior_pcond(order, spec), t)
        for b in post.blocks:
            for cell, a in zip(b.cells, b.alpha):
                n = marginal_count(
                    t,
                    _merged(spec, b.given_vars, b.given_cell, b.vars, cell),
                )
                assert a == n + 0.5  # exact float equality
        c1_mass = sum(post.blocks[0].alpha)
        assert c1_mass == spec.n_cells(order.cliques[0]) / 2 + t.total

    def test_model_mismatch_rejected(self, chain3, thick6):
        g, spec = chain3
        g6, spec6 = thick6
        prior = reference_prior_pcond(perfect_order(g), spec)
        t6 = ingest_rows(spec6, [])
        with pytest.raises(ValueError, match="different models"):
            posterior_update(prior, t6)


def _merged(spec, gvars, gcell, vars_, cell):
    from decotab.tables import merge_cells

    return merge_cells(spec, CellIndex(gvars, gcell), CellIndex(vars_, cell))


class TestSampling:
    def test_deterministic_given_seed(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        a = sample_posterior(prior, order, seed=11, n_draws=4)
        b = sample_posterior(prior, order, seed=11, n_draws=4)
        for x, y in zip(a, b):
            for key in x.blocks:
                assert np.array_equal(x.blocks[key], y.blocks[key])

    def test_draws_satisfy_block_invariants(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        for cp in sample_posterior(prior, order, seed=2, n_draws=10):
            for arr in cp.blocks.values():
                assert (arr > 0).all()
                assert abs(arr.sum() - 1.0) < 1e-12

    def test_concentrated_alpha_pins_the_mean(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        scaled = DirichletBlocks(
            spec,
            tuple(
                type(b)(b.label, b.vars, b.given_vars, b.given_cell, b.cells,
                        tuple(a * 2e6 for a in b.alpha))
                for b in prior.blocks
            ),
            prior.grouping,
        )
        draws = sample_blocks(scaled, seed=3, n_draws=5)
        for vecs in draws:
            for b, v in zip(scaled.blocks, vecs):
                assert np.abs(v - b.mean()).max() < 5e-3

    def test_binary_block_mean_matches_dirichlet_mean(self):
        # alpha = (1/2,1/2) + (3,1): mean (0.7, 0.3); 1e4 draws within 0.02
        from decotab.tables import LevelSpec
        from decotab.priors import DirichletBlock

        spec = LevelSpec(("a",), (2,))
        block = DirichletBlock("C1", ("a",), (), (), ((0,), (1,)), (3.5, 1.5))
        blocks = DirichletBlocks(spec, (block,), ((0,),))
        draws = sample_blocks(blocks, seed=99, n_draws=10_000)
        mean = np.mean([v[0] for v in draws], axis=0)
        assert np.abs(mean - np.array([0.7, 0.3])).max() < 0.02


def documented_stream(blocks, seed, n_draws):
    """The stream rule, literally: draw d uses SeedSequence(seed).spawn(n)[d], and
    its blocks take one gamma call each, in canonical order, then normalize."""
    draws = []
    for child in np.random.SeedSequence(seed).spawn(n_draws):
        rng = np.random.default_rng(child)
        vecs = []
        for b in blocks.blocks:
            g = rng.gamma(shape=np.asarray(b.alpha, dtype=float))
            vecs.append(g / g.sum())
        draws.append(vecs)
    return draws


@given(model_seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 4000),
       seed=st.integers(0, 2**63 - 1))
@example(model_seed=0, n_rows=0, seed=1)  # a 48-cell block, every alpha 1/2
@example(model_seed=1, n_rows=4000, seed=2)
@settings(max_examples=40, deadline=None)
def test_sample_blocks_is_bit_identical_to_the_documented_stream(model_seed, n_rows, seed):
    rng = np.random.default_rng(model_seed)
    g, order, spec = random_model(rng, int(rng.integers(2, 9)), max_levels=4)
    # Skewed level frequencies leave some cells empty (alpha 1/2) and fill others.
    levels = np.column_stack([
        rng.choice(spec.size(v), size=n_rows, p=rng.dirichlet(np.full(spec.size(v), 0.3)))
        for v in spec.names
    ])
    post = posterior_update(reference_prior_pcond(order, spec), tabulate(spec, levels))
    got = sample_blocks(post, seed, 3)
    want = documented_stream(post, seed, 3)
    assert [[v.tobytes() for v in d] for d in got] == [[v.tobytes() for v in d] for d in want]


def test_sample_blocks_calls_gamma_once_per_draw(thick6, monkeypatch):
    g, spec = thick6
    prior = reference_prior_pcond(perfect_order(g), spec)
    calls = []

    class Counting:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))

        def gamma(self, *args, **kwargs):
            calls.append(kwargs)
            return self.rng.gamma(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    sample_blocks(prior, seed=5, n_draws=4)
    assert len(prior.blocks) > 1 and len(calls) == 4


class TestThetaPriors:
    def test_cross_parametrization_coherence(self, thick6):
        g, spec = thick6
        order = perfect_order(g)
        priors = {tag: reference_prior_theta(tag, order, spec) for tag in
                  ("cond", "cliq", "mod")}

        def point(seed):
            r = np.random.default_rng(seed)
            cp = random_cond_probs(r, order, spec)
            cond = theta_cond_from_p(cp.joint(), order, validate=False)
            cliq = cliq_from_cond(cond, order, spec)
            return cp, cond, cliq, mod_from_cliq(cliq, order, spec)

        cp1, cond1, cliq1, mod1 = point(41)
        cp2, cond2, cliq2, mod2 = point(42)
        r_cond = priors["cond"].log_density(cond1) - priors["cond"].log_density(cond2)
        r_cliq = priors["cliq"].log_density(cliq1) - priors["cliq"].log_density(cliq2)
        r_mod = priors["mod"].log_density(mod1) - priors["mod"].log_density(mod2)
        assert abs(r_cond - r_cliq) < 1e-9
        assert abs(r_cliq - r_mod) < 1e-9

    def test_density_ratio_matches_pushforward(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_theta("cond", order, spec)

        def point(seed):
            r = np.random.default_rng(seed)
            cp = random_cond_probs(r, order, spec)
            return cp, theta_cond_from_p(cp.joint(), order, validate=False)

        cp1, cond1 = point(1)
        cp2, cond2 = point(2)
        lhs = prior.log_density(cond1) - prior.log_density(cond2)
        rhs = half_log_prob_mass(cp1) - half_log_prob_mass(cp2)
        assert abs(lhs - rhs) < 1e-10

    def test_wrong_point_kind_rejected(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_theta("cond", order, spec)
        from decotab.params import ThetaMap

        cliq_point = ThetaMap(
            "cliq", {k: 0.0 for k in canonical_keys("cliq", order, spec)}
        )
        with pytest.raises(ValueError):
            prior.log_density(cliq_point)

    def test_normalizer_uses_beta_functions(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        want = 0.0
        for b in prior.blocks:
            want += sum(math.lgamma(0.5) for _ in range(b.dim)) - math.lgamma(b.dim / 2)
        assert prior.log_normalizer() == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Fictitious counts against their closed forms, and conjugacy


def _n_cells(spec, vars_):
    out = 1
    for v in vars_:
        out *= spec.size(v)
    return out


def _clique_of_residual(order, s_vars, d):
    for l in range(2, order.k + 1):
        if order.separators[l - 1] == s_vars and set(d) <= set(order.residuals[l - 1]):
            return l
    raise KeyError(f"no residual block with separator {s_vars} containing {d}")


def closed_form_fictitious_counts(tag, order, spec):
    """The pseudo-counts from their closed forms: (entries, totals, grand total).

    cond: a marginal cell of the first clique on D counts |cells of C_1 \\ D|/2
    with grand total |cells of C_1|/2; a slice cell on D counts
    |cells of R_l \\ D|/2 with slice total |cells of R_l|/2.  cliq: a cell on
    slice-support F and residual set D counts |cells of S_l \\ F| *
    |cells of R_l \\ D| / 2, with per-support total |cells of S_l \\ F| *
    |cells of R_l| / 2.
    """
    c1 = order.cliques[0]
    entries, totals = {}, {}
    grand = Fraction(_n_cells(spec, c1), 2)
    if tag == "cond":
        for key in canonical_keys("cond", order, spec):
            if not key.given_vars and set(key.vars) <= set(c1):
                rest = [v for v in c1 if v not in key.vars]
            else:
                l = _clique_of_residual(order, key.given_vars, key.vars)
                r_vars = order.residuals[l - 1]
                rest = [v for v in r_vars if v not in key.vars]
            entries[key] = Fraction(_n_cells(spec, rest), 2)
        for l in range(2, order.k + 1):
            half_r = Fraction(_n_cells(spec, order.residuals[l - 1]), 2)
            for s_cell in iter_cells(order.separators[l - 1], spec):
                totals[(l, s_cell.levels)] = half_r
    else:
        for key in canonical_keys("mod", order, spec):
            l = order.home(key.vars) + 1
            if l == 1:
                rest = [v for v in c1 if v not in key.vars]
                entries[key] = Fraction(_n_cells(spec, rest), 2)
            else:
                s_vars = order.separators[l - 1]
                r_vars = order.residuals[l - 1]
                f = [v for v in key.vars if v in s_vars]
                d = [v for v in key.vars if v in r_vars]
                s_rest = [v for v in s_vars if v not in f]
                r_rest = [v for v in r_vars if v not in d]
                entries[key] = Fraction(_n_cells(spec, s_rest) * _n_cells(spec, r_rest), 2)
        for l in range(2, order.k + 1):
            s_vars = order.separators[l - 1]
            r_size = _n_cells(spec, order.residuals[l - 1])
            for f in subsets_with_empty(s_vars):
                s_rest = [v for v in s_vars if v not in f]
                value = Fraction(_n_cells(spec, s_rest) * r_size, 2)
                for f_cell in iter_cells(f, spec, starred=True):
                    totals[(l, f, f_cell.levels)] = value
    return entries, totals, grand


def model_with_wide_separator(seed, max_vertices=8):
    """A random model with a separator of two or more variables of 3+ levels.

    There the cells of a separator and its supports enumerate in different
    orders, so key order is tested too.
    """
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g, order, spec = random_model(rng, int(rng.integers(3, max_vertices + 1)), 4, 4)
        if any(sum(spec.size(v) >= 3 for v in s) >= 2 for s in order.separators):
            return g, order, spec
    raise AssertionError("no model with a wide separator drawn")


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_fictitious_counts_equal_their_closed_forms(seed):
    g, order, spec = model_with_wide_separator(seed)
    for tag in ("cond", "cliq"):
        fc = fictitious_counts(tag, order, spec)
        entries, totals, grand = closed_form_fictitious_counts(tag, order, spec)
        assert list(fc.entries.items()) == list(entries.items())
        assert list(fc.totals.items()) == list(totals.items())
        assert fc.grand_total == grand
        assert all(type(v) is Fraction for v in [*fc.entries.values(), *fc.totals.values()])


def posterior_stats(data, order, spec):
    """Data statistics plus the prior's half counts, cell by cell."""
    prior = SufficientStats.halves(order, spec)
    tables = tuple(a + b for a, b in zip(data.tables, prior.tables))
    return SufficientStats(order, spec, data.n_total + prior.n_total, tables)


@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_prior_is_the_likelihood_of_half_counts(seed, n_rows):
    rng = np.random.default_rng(seed)
    g, order, spec = random_model(rng, int(rng.integers(2, 7)), 3, 3)
    cp = random_cond_probs(rng, order, spec)
    t = random_table(rng, cp.joint(), n_rows)
    data = SufficientStats.from_table(t, order)
    post = posterior_stats(data, order, spec)

    def points():
        cond = theta_cond_from_p(random_cond_probs(rng, order, spec).joint(), order,
                                 validate=False)
        cliq = cliq_from_cond(cond, order, spec)
        return {"cond": cond, "cliq": cliq, "mod": mod_from_cliq(cliq, order, spec)}

    def post_loglik(kind, theta):
        # Half counts in every clique table are not the margins of one full
        # table, so the mod posterior is the cliq form at the same point.
        if kind == "mod":
            theta = cliq_from_mod(theta, order, spec)
        return loglik(theta, post)

    first, second = points(), points()
    for kind in ("cond", "cliq", "mod"):
        prior = reference_prior_theta(kind, order, spec)

        def log_post(theta):
            return loglik(theta, data) + prior.log_density(theta)

        want = log_post(first[kind]) - log_post(second[kind])
        got = post_loglik(kind, first[kind]) - post_loglik(kind, second[kind])
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    updated = posterior_update(reference_prior_pcond(order, spec), t)
    for (l, s_levels), b in zip(block_keys(order, spec), updated.blocks):
        table = post.tables[l - 1]
        assert b.given_vars + b.vars == order.separators[l - 1] + order.residuals[l - 1]
        assert list(b.alpha) == [table[s_levels + cell] for cell in b.cells]
