import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decotab import params
from decotab.graphs import LabeledGraph, is_complete, perfect_order
from decotab.oracle import brute_markov_residual, brute_theta, direct_loglik
from decotab.params import (
    CondProbs,
    JointProbs,
    MarkovViolationError,
    ParamKey,
    SufficientStats,
    ThetaMap,
    canonical_keys,
    cliq_from_cond,
    cliq_from_mod,
    cond_from_cliq,
    conditional_prob,
    cumulant,
    loglik,
    marginal_prob,
    markov_residual,
    mod_from_cliq,
    p_from_theta_mod,
    p_from_xi,
    theta_cond_from_p,
    theta_cond_from_xi,
    theta_mod_from_p,
    xi_from_condprobs,
    xi_from_theta_cond,
)
from decotab.randgen import (
    random_cond_probs,
    random_model,
    random_positive_joint,
    random_table,
)
from decotab.tables import CellIndex, LevelSpec, TableTooLargeError, iter_cells, nonempty_subsets


def uniform_joint(spec):
    n = 1
    for m in spec.sizes:
        n *= m
    return JointProbs(spec, np.full(spec.shape, 1.0 / n))


def markov_setup(fixture, seed):
    g, spec = fixture
    order = perfect_order(g)
    rng = np.random.default_rng(seed)
    cp = random_cond_probs(rng, order, spec)
    return g, order, spec, cp, cp.joint()


class TestMarginalProb:
    def test_full_and_empty(self, rng):
        spec = LevelSpec(("a", "b"), (2, 2))
        p = random_positive_joint(rng, spec)
        cell = CellIndex(("a", "b"), (1, 0))
        assert marginal_prob(p, cell) == pytest.approx(p.p[1, 0], abs=1e-15)
        assert marginal_prob(p, CellIndex((), ())) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_symmetry(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        p = uniform_joint(spec)
        assert marginal_prob(p, CellIndex(("a",), (1,))) == pytest.approx(0.5)

    def test_conditional(self, rng):
        spec = LevelSpec(("a", "b"), (2, 3))
        p = random_positive_joint(rng, spec)
        got = conditional_prob(p, CellIndex(("a",), (1,)), CellIndex(("b",), (2,)))
        want = p.p[1, 2] / p.p[:, 2].sum()
        assert got == pytest.approx(want, abs=1e-14)


class TestThetaModFromP:
    def test_single_binary_log_odds(self):
        spec = LevelSpec(("a",), (2,))
        g = LabeledGraph.make(("a",), [])
        p = JointProbs(spec, np.array([0.25, 0.75]))
        theta = theta_mod_from_p(p, g)
        assert theta.values[ParamKey(("a",), (1,))] == pytest.approx(math.log(3.0))
        u = theta_mod_from_p(uniform_joint(spec), g)
        assert u.values[ParamKey(("a",), (1,))] == pytest.approx(0.0, abs=1e-15)

    def test_two_binary_log_odds_ratio(self):
        # frozen: p = (.1,.2,.3,.4) -> theta(ab) = log(.4*.1/(.3*.2)) = log(2/3)
        spec = LevelSpec(("a", "b"), (2, 2))
        g = LabeledGraph.make(("a", "b"), [("a", "b")])
        p = JointProbs(spec, np.array([[0.1, 0.2], [0.3, 0.4]]))
        theta = theta_mod_from_p(p, g)
        key = ParamKey(("a", "b"), (1, 1))
        assert theta.values[key] == pytest.approx(math.log(2.0 / 3.0), abs=1e-14)
        assert theta.values[key] == pytest.approx(
            brute_theta(p, ("a", "b"), CellIndex(("a", "b"), (1, 1))), abs=1e-12
        )

    def test_markov_chain_has_zero_noncomplete_interactions(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 17)
        _, worst = markov_residual(p, g)
        assert worst < 1e-9

    def test_log_base_is_baseline_log_prob(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 18)
        theta = theta_mod_from_p(p, g)
        assert theta.log_base == pytest.approx(math.log(p.p[0, 0, 0]), abs=1e-14)

    def test_matches_brute_on_random_positive(self, rng):
        spec = LevelSpec(("a", "b", "c"), (2, 3, 2))
        g = LabeledGraph.from_cliques(("a", "b", "c"), [("a", "b", "c")])
        p = random_positive_joint(rng, spec)
        theta = theta_mod_from_p(p, g)
        for key, val in theta.values.items():
            assert val == pytest.approx(
                brute_theta(p, key.vars, CellIndex(key.vars, key.cell)), abs=1e-11
            )


class TestPFromThetaMod:
    def test_zero_theta_is_uniform(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        theta = ThetaMap("mod", {k: 0.0 for k in canonical_keys("mod", order, spec)})
        p = p_from_theta_mod(theta, g, spec)
        assert np.allclose(p.p, 1.0 / 8, atol=1e-15)

    def test_round_trip_random_tables(self, rng):
        spec = LevelSpec(("a", "b", "c"), (2, 2, 3))
        g = LabeledGraph.from_cliques(("a", "b", "c"), [("a", "b", "c")])
        for _ in range(10):
            p = random_positive_joint(rng, spec)
            p2 = p_from_theta_mod(theta_mod_from_p(p, g), g, spec)
            assert np.abs(p.p - p2.p).max() < 1e-12

    def test_zero_constraints_hold_after_reconstruction(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 77)
        cliq = cliq_from_cond(theta_cond_from_p(p, order), order, spec)
        mod = mod_from_cliq(cliq, order, spec)
        p2 = p_from_theta_mod(mod, g, spec)
        _, worst = markov_residual(p2, g)
        assert worst < 1e-9

    def test_rejects_noncomplete_keys(self, chain3):
        g, spec = chain3
        theta = ThetaMap("mod", {ParamKey(("a", "c"), (1, 1)): 0.5})
        with pytest.raises(ValueError, match="non-complete"):
            p_from_theta_mod(theta, g, spec)


class TestCumulant:
    def test_zero_theta_single_binary(self):
        spec = LevelSpec(("a",), (2,))
        assert cumulant(ThetaMap("mod", {}), ("a",), spec) == pytest.approx(math.log(2))

    def test_zero_theta_counts_cells(self):
        spec = LevelSpec(("a", "b"), (3, 4))
        assert cumulant(ThetaMap("mod", {}), ("a", "b"), spec) == pytest.approx(
            math.log(12)
        )

    def test_log3_gives_log4(self):
        spec = LevelSpec(("a",), (2,))
        theta = ThetaMap("mod", {ParamKey(("a",), (1,)): math.log(3.0)})
        assert cumulant(theta, ("a",), spec) == pytest.approx(math.log(4.0))

    def test_rejects_keys_outside_a(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        theta = ThetaMap("mod", {ParamKey(("b",), (1,)): 0.1})
        with pytest.raises(ValueError):
            cumulant(theta, ("a",), spec)

    def test_refuses_an_oversized_table_before_allocating(self, monkeypatch):
        spec = LevelSpec(tuple(f"v{i}" for i in range(21)), (2,) * 21)

        def no_alloc(*args, **kwargs):
            raise AssertionError("allocated")

        monkeypatch.setattr(np, "zeros", no_alloc)
        with pytest.raises(TableTooLargeError, match="1000000"):
            cumulant(ThetaMap("mod", {}), spec.names, spec)


class TestThetaCond:
    def test_single_clique_equals_mod(self, rng):
        spec = LevelSpec(("a", "b"), (2, 3))
        g = LabeledGraph.from_cliques(("a", "b"), [("a", "b")])
        order = perfect_order(g)
        p = random_positive_joint(rng, spec)
        mod = theta_mod_from_p(p, g)
        cond = theta_cond_from_p(p, order)
        for key, val in cond.values.items():
            assert val == pytest.approx(mod.values[ParamKey(key.vars, key.cell)], abs=1e-12)

    def test_uniform_gives_zeros(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        cond = theta_cond_from_p(uniform_joint(spec), order)
        assert max(abs(v) for v in cond.values.values()) < 1e-13

    def test_slice_values_are_conditional_log_odds(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 4)
        cond = theta_cond_from_p(p, order)
        # residual d given separator slice (b, c): log odds of d in that slice
        for b in (0, 1):
            for c in (0, 1):
                key = ParamKey(("d",), (1,), ("b", "c"), (b, c))
                top = conditional_prob(
                    p, CellIndex(("d",), (1,)), CellIndex(("b", "c"), (b, c))
                )
                bot = conditional_prob(
                    p, CellIndex(("d",), (0,)), CellIndex(("b", "c"), (b, c))
                )
                assert cond.values[key] == pytest.approx(math.log(top / bot), abs=1e-11)

    def test_markov_violation_reported(self, rng, chain3):
        g, spec = chain3
        order = perfect_order(g)
        bad = random_positive_joint(rng, spec)  # generically not Markov for the chain
        with pytest.raises(MarkovViolationError) as err:
            theta_cond_from_p(bad, order)
        assert err.value.worst_value > 1e-8
        assert not g.has_edge(*err.value.worst_set[:2]) or len(err.value.worst_set) > 2


class TestCondCliq:
    def test_residual_only_sets_copy_from_baseline_slice(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 5)
        cond = theta_cond_from_p(p, order)
        cliq = cliq_from_cond(cond, order, spec)
        # D = {c} inside R_2, separator part empty: clique value = baseline slice value
        assert cliq.values[ParamKey(("c",), (1,))] == pytest.approx(
            cond.values[ParamKey(("c",), (1,), ("b",), (0,))], abs=1e-14
        )

    def test_binary_separator_difference_identity(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 6)
        cond = theta_cond_from_p(p, order)
        cliq = cliq_from_cond(cond, order, spec)
        want = (
            cond.values[ParamKey(("c",), (1,), ("b",), (1,))]
            - cond.values[ParamKey(("c",), (1,), ("b",), (0,))]
        )
        assert cliq.values[ParamKey(("b", "c"), (1, 1))] == pytest.approx(want, abs=1e-13)

    def test_subset_sum_identity_thick6(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 7)
        cond = theta_cond_from_p(p, order)
        cliq = cliq_from_cond(cond, order, spec)
        # slice (b=1, c=1) of residual {d}: sum of clique values over G within {b,c}
        want = (
            cliq.values[ParamKey(("d",), (1,))]
            + cliq.values[ParamKey(("b", "d"), (1, 1))]
            + cliq.values[ParamKey(("c", "d"), (1, 1))]
            + cliq.values[ParamKey(("b", "c", "d"), (1, 1, 1))]
        )
        got = cond_from_cliq(cliq, order, spec).values[
            ParamKey(("d",), (1,), ("b", "c"), (1, 1))
        ]
        assert got == pytest.approx(want, abs=1e-13)
        assert got == pytest.approx(
            cond.values[ParamKey(("d",), (1,), ("b", "c"), (1, 1))], abs=1e-11
        )

    def test_round_trip_random_models(self, rng):
        from decotab.randgen import random_model

        for _ in range(15):
            g, order, spec = random_model(rng, int(rng.integers(2, 8)))
            cond = theta_cond_from_p(random_cond_probs(rng, order, spec).joint(), order)
            cliq = cliq_from_cond(cond, order, spec)
            back = cond_from_cliq(cliq, order, spec)
            assert cond.max_abs_diff(back) < 1e-12

    def test_missing_slice_parameter_reported(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        cond = theta_cond_from_p(uniform_joint(spec), order)
        del cond.values[ParamKey(("c",), (1,), ("b",), (1,))]
        with pytest.raises(ValueError, match="slice"):
            cliq_from_cond(cond, order, spec)


class TestModCliq:
    def test_last_clique_entries_copy(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 8)
        cliq = cliq_from_cond(theta_cond_from_p(p, order), order, spec)
        mod = mod_from_cliq(cliq, order, spec)
        # home sets of the last clique transfer unchanged
        assert mod.values[ParamKey(("f",), (1,))] == cliq.values[ParamKey(("f",), (1,))]
        assert (
            mod.values[ParamKey(("e", "f"), (1, 1))]
            == cliq.values[ParamKey(("e", "f"), (1, 1))]
        )

    def test_displayed_single_vertex_identity(self, thick6):
        # theta(e) = thetaC3(e) + log(1+exp thetaC4(f)) - log(1+exp(thetaC4(f)+thetaC4(ef)))
        g, order, spec, cp, p = markov_setup(thick6, 9)
        cliq = cliq_from_cond(theta_cond_from_p(p, order), order, spec)
        mod = mod_from_cliq(cliq, order, spec)
        t_f = cliq.values[ParamKey(("f",), (1,))]
        t_ef = cliq.values[ParamKey(("e", "f"), (1, 1))]
        want = (
            cliq.values[ParamKey(("e",), (1,))]
            + math.log(1 + math.exp(t_f))
            - math.log(1 + math.exp(t_f + t_ef))
        )
        assert mod.values[ParamKey(("e",), (1,))] == pytest.approx(want, abs=1e-12)

    def test_agrees_with_direct_extraction(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 10)
        mod_direct = theta_mod_from_p(p, g)
        cliq = cliq_from_cond(theta_cond_from_p(p, order), order, spec)
        assert mod_direct.max_abs_diff(mod_from_cliq(cliq, order, spec)) < 1e-11

    def test_zero_maps_to_zero(self, thick6):
        g, spec = thick6
        order = perfect_order(g)
        zero = ThetaMap("mod", {k: 0.0 for k in canonical_keys("mod", order, spec)})
        cliq = cliq_from_mod(zero, order, spec)
        assert max(abs(v) for v in cliq.values.values()) < 1e-12

    def test_round_trips_both_ways(self, rng):
        from decotab.randgen import random_model

        for _ in range(10):
            g, order, spec = random_model(rng, int(rng.integers(2, 8)))
            cond = theta_cond_from_p(random_cond_probs(rng, order, spec).joint(), order)
            cliq = cliq_from_cond(cond, order, spec)
            mod = mod_from_cliq(cliq, order, spec)
            assert cliq.max_abs_diff(cliq_from_mod(mod, order, spec)) < 1e-9
            mod2 = mod_from_cliq(cliq_from_mod(mod, order, spec), order, spec)
            assert mod.max_abs_diff(mod2) < 1e-9

    def test_parameter_counts_match(self, rng):
        from decotab.randgen import random_model

        for _ in range(10):
            g, order, spec = random_model(rng, int(rng.integers(2, 8)))
            n_mod = len(canonical_keys("mod", order, spec))
            n_cond = len(canonical_keys("cond", order, spec))
            assert n_mod == n_cond


class TestXi:
    def test_singleton_equals_theta(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 11)
        cond = theta_cond_from_p(p, order)
        xi = xi_from_theta_cond(cond, order)
        key = ParamKey(("a",), (1,))
        assert xi.values[key] == cond.values[key]

    def test_pair_is_sum_of_subsets(self, chain3):
        g, order, spec, cp, p = markov_setup(chain3, 12)
        cond = theta_cond_from_p(p, order)
        xi = xi_from_theta_cond(cond, order)
        want = (
            cond.values[ParamKey(("a",), (1,))]
            + cond.values[ParamKey(("b",), (1,))]
            + cond.values[ParamKey(("a", "b"), (1, 1))]
        )
        assert xi.values[ParamKey(("a", "b"), (1, 1))] == pytest.approx(want, abs=1e-14)

    def test_mobius_inversion_recovers_theta(self, rng):
        from decotab.randgen import random_model

        for _ in range(10):
            g, order, spec = random_model(rng, int(rng.integers(2, 7)))
            keys = canonical_keys("cond", order, spec)
            cond = ThetaMap("cond", {k: float(rng.normal()) for k in keys})
            back = theta_cond_from_xi(xi_from_theta_cond(cond, order), order)
            assert cond.max_abs_diff(back) < 1e-12

    def test_softmax_known_value(self):
        # one binary block with log-odds log 3 -> probabilities (1/4, 3/4)
        g = LabeledGraph.make(("a",), [])
        spec = LevelSpec(("a",), (2,))
        order = perfect_order(g)
        xi = ThetaMap("xi", {ParamKey(("a",), (1,)): math.log(3.0)})
        cp = p_from_xi(xi, order, spec)
        assert np.allclose(cp.blocks[(1, ())], [0.25, 0.75], atol=1e-15)

    def test_zero_xi_uniform_blocks(self, thick6):
        g, spec = thick6
        order = perfect_order(g)
        xi = ThetaMap("xi", {k: 0.0 for k in canonical_keys("xi", order, spec)})
        cp = p_from_xi(xi, order, spec)
        for arr in cp.blocks.values():
            assert np.allclose(arr, 1.0 / arr.size, atol=1e-15)

    def test_pcond_round_trip(self, rng, thick6):
        g, spec = thick6
        order = perfect_order(g)
        cp = random_cond_probs(rng, order, spec)
        back = p_from_xi(xi_from_condprobs(cp), order, spec)
        assert cp.max_abs_diff(back) < 1e-12


@given(values=st.lists(st.floats(-3, 3), min_size=5, max_size=5))
@settings(max_examples=30, deadline=None)
def test_mobius_zeta_inverse_property(values):
    g = LabeledGraph.make(("a", "b", "c"), [("a", "b"), ("b", "c")])
    order = perfect_order(g)
    spec = LevelSpec(("a", "b", "c"), (2, 2, 2))
    keys = canonical_keys("cond", order, spec)
    cond = ThetaMap("cond", dict(zip(keys, values)))
    back = theta_cond_from_xi(xi_from_theta_cond(cond, order), order)
    assert cond.max_abs_diff(back) < 1e-11


class TestLoglik:
    def test_empty_table_zero_everywhere(self, thick6):
        g, order, spec, cp, p = markov_setup(thick6, 13)
        t = random_table(np.random.default_rng(0), p, 0)
        stats = SufficientStats.from_table(t, order)
        cond = theta_cond_from_p(p, order)
        cliq = cliq_from_cond(cond, order, spec)
        mod = mod_from_cliq(cliq, order, spec)
        assert loglik(mod, stats) == 0.0
        assert loglik(cond, stats) == 0.0
        assert loglik(cliq, stats) == 0.0

    def test_all_forms_match_direct_sum(self, rng):
        from decotab.randgen import random_model

        for _ in range(8):
            g, order, spec = random_model(rng, int(rng.integers(2, 8)))
            p = random_cond_probs(rng, order, spec).joint()
            t = random_table(rng, p, int(rng.integers(1, 5000)))
            stats = SufficientStats.from_table(t, order)
            cond = theta_cond_from_p(p, order, validate=False)
            cliq = cliq_from_cond(cond, order, spec)
            mod = mod_from_cliq(cliq, order, spec)
            direct = direct_loglik(p, t)
            assert abs(loglik(mod, stats) - direct) < 1e-10
            assert abs(loglik(cond, stats) - direct) < 1e-10
            assert abs(loglik(cliq, stats) - direct) < 1e-10

    def test_index_set_mismatch_rejected(self, chain3, thick6):
        g, spec = chain3
        order = perfect_order(g)
        g6, spec6 = thick6
        order6 = perfect_order(g6)
        t = random_table(np.random.default_rng(1), uniform_joint(spec), 50)
        stats = SufficientStats.from_table(t, order)
        wrong = ThetaMap(
            "mod", {k: 0.0 for k in canonical_keys("mod", order6, spec6)}
        )
        with pytest.raises(ValueError):
            loglik(wrong, stats)


def markov_and_perturbed(seed):
    """A random decomposable model with a Markov joint and a perturbed copy."""
    rng = np.random.default_rng(seed)
    g, order, spec = random_model(rng, int(rng.integers(2, 7)))
    p = random_cond_probs(rng, order, spec).joint()
    q = p.p * np.exp(rng.normal(scale=0.3, size=spec.shape))
    return g, order, spec, p, JointProbs(spec, q / q.sum())


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_markov_residual_matches_oracle(seed):
    g, order, spec, markov, perturbed = markov_and_perturbed(seed)
    for p in (markov, perturbed):
        worst_set, worst = markov_residual(p, g)
        want_set, want = brute_markov_residual(p, g)
        assert abs(worst - want) < 1e-10
        per_set = {}
        for d in nonempty_subsets(spec.names):
            if len(d) > 1 and not is_complete(g, d):
                per_set[d] = max(
                    abs(brute_theta(p, d, cell)) for cell in iter_cells(d, spec, starred=True)
                )
        top = sorted(per_set.values(), reverse=True) + [0.0, 0.0]
        if top[0] - top[1] > 1e-9:  # a unique maximum, clear of rounding
            assert worst_set == want_set


def test_markov_violation_ties_go_to_the_first_set():
    # a interacts equally with b and c; with no edges, {a,b} and {a,c} tie
    # exactly and the report names the first in nonempty_subsets order
    g = LabeledGraph.make(("a", "b", "c"), [])
    spec = LevelSpec(("a", "b", "c"), (2, 2, 2))
    xa, xb, xc = np.indices(spec.shape)
    w = np.exp(0.7 * xa * (xb + xc))
    with pytest.raises(MarkovViolationError) as err:
        theta_cond_from_p(JointProbs(spec, w / w.sum()), perfect_order(g))
    assert err.value.worst_set == ("a", "b")
    assert err.value.worst_value == pytest.approx(0.7, abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_mod_coordinates_match_oracle(seed):
    g, order, spec, markov, perturbed = markov_and_perturbed(seed)
    for p in (markov, perturbed):
        for key, val in theta_mod_from_p(p, g).values.items():
            assert abs(val - brute_theta(p, key.vars, CellIndex(key.vars, key.cell))) < 1e-10
    cliq = cliq_from_cond(theta_cond_from_p(markov, order), order, spec)
    for key, val in mod_from_cliq(cliq, order, spec).values.items():
        assert abs(val - brute_theta(markov, key.vars, CellIndex(key.vars, key.cell))) < 1e-10


def full_table_cliq_from_mod(mod, order, spec):
    """The route through the joint table that backward peeling replaces."""
    p = p_from_theta_mod(mod, order.graph(), spec)
    return cliq_from_cond(theta_cond_from_p(p, order, validate=False), order, spec)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_peeled_cliq_from_mod_matches_the_full_table_route(seed):
    rng = np.random.default_rng(seed)
    g, order, spec = random_model(rng, int(rng.integers(2, 8)))
    keys = canonical_keys("mod", order, spec)
    mod = ThetaMap("mod", dict(zip(keys, rng.normal(scale=2.0, size=len(keys)).tolist())))
    cliq = cliq_from_mod(mod, order, spec)
    assert list(cliq.values) == canonical_keys("cliq", order, spec)
    assert cliq.max_abs_diff(full_table_cliq_from_mod(mod, order, spec)) < 1e-10
    assert mod.max_abs_diff(mod_from_cliq(cliq, order, spec)) < 1e-9


class TestPeeling:
    def test_refuses_a_missing_key_by_name(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        mod = ThetaMap("mod", dict.fromkeys(canonical_keys("mod", order, spec), 0.0))
        del mod.values[ParamKey(("b", "c"), (1, 1))]
        with pytest.raises(ValueError, match=r"\('b', 'c'\), \(1, 1\)"):
            cliq_from_mod(mod, order, spec)

    def test_refuses_noncomplete_keys(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        mod = ThetaMap("mod", dict.fromkeys(canonical_keys("mod", order, spec), 0.0))
        mod.values[ParamKey(("a", "c"), (1, 1))] = 0.5
        with pytest.raises(ValueError, match="non-complete"):
            cliq_from_mod(mod, order, spec)

    def test_200_variable_chain_builds_no_full_table(self, monkeypatch):
        names = tuple(f"v{i:03d}" for i in range(200))
        g = LabeledGraph.from_cliques(names, zip(names, names[1:]))
        order = perfect_order(g)
        spec = LevelSpec(names, (2,) * 200)
        keys = canonical_keys("cliq", order, spec)
        rng = np.random.default_rng(200)
        cliq = ThetaMap("cliq", dict(zip(keys, rng.normal(size=len(keys)).tolist())))
        stats = SufficientStats.halves(order, spec)

        def full_table(*args, **kwargs):
            raise AssertionError("built a full-table object")

        monkeypatch.setattr(params.JointProbs, "__post_init__", full_table)
        monkeypatch.setattr(params, "check_cells", full_table)
        mod = mod_from_cliq(cliq, order, spec)
        assert cliq.max_abs_diff(cliq_from_mod(mod, order, spec)) < 1e-9
        want = loglik(cliq, stats)
        assert abs(loglik(mod, stats) - want) <= 1e-12 * abs(want)


class TestJointProbsValidation:
    def test_rejects_nonpositive(self):
        spec = LevelSpec(("a",), (2,))
        with pytest.raises(ValueError):
            JointProbs(spec, np.array([0.0, 1.0]))

    def test_rejects_bad_sum(self):
        spec = LevelSpec(("a",), (2,))
        with pytest.raises(ValueError):
            JointProbs(spec, np.array([0.6, 0.6]))

    def test_condprobs_block_structure_checked(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        with pytest.raises(ValueError):
            CondProbs(order, spec, {(1, ()): np.full((2, 2), 0.25)})


class TestChainZeroSets:
    def test_chain_specific_noncomplete_interactions_vanish(self, chain3):
        # for a chain a-b-c: the {a,c} and {a,b,c} interactions are exact zeros
        g, order, spec, cp, p = markov_setup(chain3, 55)
        for d in (("a", "c"), ("a", "b", "c")):
            for cell in iter_cells(d, spec, starred=True):
                assert abs(brute_theta(p, d, cell)) < 1e-10


def star_cond_probs(n_leaves, hub_block, leaf_block):
    """Binary star: clique (a, b), then one clique (b, x_i) per leaf, all leaves alike."""
    leaves = tuple(f"x{i:02d}" for i in range(n_leaves))
    names = ("a", "b") + leaves
    g = LabeledGraph.from_cliques(names, [("a", "b")] + [("b", x) for x in leaves])
    order = perfect_order(g)
    spec = LevelSpec(names, (2,) * len(names))
    blocks = {(1, ()): hub_block}
    for l in range(2, order.k + 1):
        for b in (0, 1):
            blocks[(l, (b,))] = leaf_block[b]
    return g, order, spec, CondProbs(order, spec, blocks)


class TestStarModFromCliq:
    def test_21_leaf_star_matches_extrapolated_oracle(self, rng):
        # The star's full table has 2**23 cells, beyond any enumeration; the
        # clique-local transform needs only its 2x2 clique tables.  Leaf sets
        # lie in no later separator, so they keep their cliq values; the hub
        # {b} lies in every leaf separator, so with identical leaf blocks its
        # coordinate is affine in the leaf count and two small stars fix it.
        hub = rng.dirichlet(np.ones(4)).reshape(2, 2)
        leaf = rng.dirichlet(np.ones(2), size=2)
        g, order, spec, cp = star_cond_probs(21, hub, leaf)
        cliq = cliq_from_cond(
            theta_cond_from_xi(xi_from_condprobs(cp), order), order, spec
        )
        mod = mod_from_cliq(cliq, order, spec)
        assert set(mod.values) == set(canonical_keys("mod", order, spec))
        for key, val in mod.values.items():
            if key.vars != ("b",):
                assert val == cliq.values[key]
        hub_key = CellIndex(("b",), (1,))
        small = [
            brute_theta(star_cond_probs(n, hub, leaf)[3].joint(), ("b",), hub_key)
            for n in (1, 2)
        ]
        want = small[0] + 20 * (small[1] - small[0])
        assert mod.values[ParamKey(("b",), (1,))] == pytest.approx(want, abs=1e-10)


class TestMarkovTolEnv:
    def test_env_var_overrides_default(self, monkeypatch, chain3, rng):
        g, spec = chain3
        order = perfect_order(g)
        bad = random_positive_joint(rng, spec)  # not Markov for the chain
        with pytest.raises(MarkovViolationError):
            theta_cond_from_p(bad, order)
        monkeypatch.setenv("DECOTAB_MARKOV_TOL", "1e6")
        theta_cond_from_p(bad, order)  # absurd tolerance waves it through
