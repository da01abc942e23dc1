import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decotab.oracle import brute_marginal_count
from decotab.tables import (
    CellIndex,
    ContingencyTable,
    LevelSpec,
    RowError,
    TableTooLargeError,
    from_cell_counts,
    ingest_rows,
    iter_cells,
    marginal_count,
    merge_cells,
    slice_counts,
    slice_table,
    starred_cells,
    tabulate,
)


def spec_abc():
    return LevelSpec(("a", "b", "c"), (4, 3, 2))


class TestStarredCells:
    def test_known_enumeration(self):
        cells = starred_cells(("a", "b", "c"), spec_abc())
        assert [c.levels for c in cells] == [
            (1, 1, 1), (2, 1, 1), (3, 1, 1), (1, 2, 1), (2, 2, 1), (3, 2, 1),
        ]

    def test_single_binary(self):
        spec = LevelSpec(("a",), (2,))
        assert [c.levels for c in starred_cells(("a",), spec)] == [(1,)]

    def test_two_binary(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        assert [c.levels for c in starred_cells(("a", "b"), spec)] == [(1, 1)]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            starred_cells((), spec_abc())

    @given(sizes=st.lists(st.integers(2, 4), min_size=1, max_size=4))
    def test_cardinality(self, sizes):
        names = tuple(f"v{i}" for i in range(len(sizes)))
        spec = LevelSpec(names, tuple(sizes))
        expected = 1
        for m in sizes:
            expected *= m - 1
        assert len(starred_cells(names, spec)) == expected


class TestMarginalCount:
    def test_full_set_is_raw_count(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        t = ContingencyTable(spec, np.array([[1, 2], [3, 4]]))
        assert marginal_count(t, CellIndex(("a", "b"), (1, 0))) == 3

    def test_empty_cell_is_total(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        t = ContingencyTable(spec, np.array([[1, 2], [3, 4]]))
        assert marginal_count(t, CellIndex((), ())) == 10

    def test_row_margin(self):
        # rows = a, cols = b; a=1 row holds 3+4
        spec = LevelSpec(("a", "b"), (2, 2))
        t = ContingencyTable(spec, np.array([[1, 2], [3, 4]]))
        assert marginal_count(t, CellIndex(("a",), (1,))) == 7

    def test_against_brute_enumeration(self, rng):
        spec = LevelSpec(("a", "b", "c", "d"), (3, 2, 2, 3))
        t = ContingencyTable(spec, rng.integers(0, 9, size=spec.shape))
        for d in [("a",), ("b", "d"), ("a", "c", "d"), ("a", "b", "c", "d")]:
            for cell in iter_cells(d, spec):
                assert marginal_count(t, cell) == brute_marginal_count(t, cell)

    def test_marginalization_composes(self, rng):
        spec = LevelSpec(("a", "b", "c"), (2, 3, 2))
        t = ContingencyTable(spec, rng.integers(0, 9, size=spec.shape))
        for cell in iter_cells(("a",), spec):
            via_pair = sum(
                marginal_count(t, merge_cells(spec, cell, b_cell))
                for b_cell in iter_cells(("b",), spec)
            )
            assert via_pair == marginal_count(t, cell)

    def test_invalid_level_rejected(self):
        spec = LevelSpec(("a", "b"), (2, 2))
        t = ContingencyTable(spec, np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            marginal_count(t, CellIndex(("a",), (5,)))


class TestSliceCounts:
    def test_sums_to_conditioning_margin(self, rng):
        spec = LevelSpec(("a", "b", "c"), (2, 2, 3))
        t = ContingencyTable(spec, rng.integers(0, 7, size=spec.shape))
        for b_cell in iter_cells(("b",), spec):
            sliced = slice_counts(t, b_cell, ("a", "c"))
            assert sum(sliced.values()) == marginal_count(t, b_cell)

    def test_empty_conditioning_gives_marginal_table(self, rng):
        spec = LevelSpec(("a", "b"), (2, 3))
        t = ContingencyTable(spec, rng.integers(0, 7, size=spec.shape))
        sliced = slice_counts(t, CellIndex((), ()), ("a",))
        for cell, n in sliced.items():
            assert n == marginal_count(t, cell)

    def test_empty_slice_vars(self, rng):
        spec = LevelSpec(("a", "b"), (2, 3))
        t = ContingencyTable(spec, rng.integers(0, 7, size=spec.shape))
        b_cell = CellIndex(("b",), (2,))
        assert slice_counts(t, b_cell, ()) == {CellIndex((), ()): marginal_count(t, b_cell)}

    def test_overlap_rejected(self):
        spec = LevelSpec(("a", "b"), (2, 3))
        t = ContingencyTable(spec, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            slice_counts(t, CellIndex(("a",), (1,)), ("a", "b"))


class TestIngest:
    def test_empty_rows(self):
        t = ingest_rows(LevelSpec(("a", "b"), (2, 2)), [])
        assert t.total == 0
        assert (t.counts == 0).all()

    def test_single_baseline_row(self):
        t = ingest_rows(LevelSpec(("a", "b"), (2, 2)), [(0, 0)])
        assert t.counts[0, 0] == 1 and t.total == 1

    def test_duplicate_rows_accumulate(self):
        t = ingest_rows(LevelSpec(("a", "b"), (2, 2)), [(1, 0), (1, 0)])
        assert t.counts[1, 0] == 2

    def test_error_names_row(self):
        with pytest.raises(ValueError, match="row 2"):
            ingest_rows(LevelSpec(("a", "b"), (2, 2)), [(0, 0), (0, 5)])
        with pytest.raises(ValueError, match="row 1"):
            ingest_rows(LevelSpec(("a", "b"), (2, 2)), [(0,)])

    def test_cell_counts_builder(self):
        t = from_cell_counts(LevelSpec(("a",), (3,)), [((0,), 4), ((2,), 1), ((0,), 1)])
        assert list(t.counts) == [5, 0, 1]

    def test_table_immutable(self):
        t = ingest_rows(LevelSpec(("a",), (2,)), [(0,)])
        with pytest.raises(ValueError):
            t.counts[0] = 7


@given(
    data=st.data(),
    sizes=st.lists(st.integers(2, 3), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_ingest_matches_multiplicities(data, sizes):
    names = tuple(f"v{i}" for i in range(len(sizes)))
    spec = LevelSpec(names, tuple(sizes))
    rows = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, m - 1) for m in sizes)), max_size=12
        )
    )
    t = ingest_rows(spec, rows)
    assert t.total == len(rows)
    for row in rows:
        assert t.counts[row] == rows.count(row)


class TestTabulate:
    def test_error_names_row(self):
        spec = LevelSpec(("a", "b"), (2, 3))
        with pytest.raises(RowError, match="row 3: level 3 out of range for variable 'b'"):
            tabulate(spec, np.array([[0, 0], [1, 2], [0, 3]]))
        with pytest.raises(RowError, match="row 2: negative count") as info:
            tabulate(spec, [(0, 0), (1, 7)], [4, -1])
        assert info.value.index == 1 and info.value.detail == "negative count"
        with pytest.raises(ValueError, match="row 2: expected 2 levels, got 3"):
            ingest_rows(spec, [(0, 0), (0, 1, 1)])

    def test_levels_are_stored_small(self):
        t = tabulate(LevelSpec(("a", "b"), (2, 300)), [(1, 299), (0, 0)])
        assert t.levels.dtype == np.uint16 and t.row_counts.dtype == np.int64
        assert t.total == 2

    def test_counts_beyond_2_pow_53_are_exact(self):
        big = [2**53 + 1, 2**60 + 3, 2**53 + 1]
        t = from_cell_counts(LevelSpec(("a", "b"), (2, 2)), [((1, 0), big[0]), ((1, 1), big[1]), ((1, 0), big[2])])
        assert t.counts[1, 0] == 2**54 + 2 and t.counts[1, 1] == 2**60 + 3
        assert int(t.marginal(("a",), ())[1]) == sum(big) and t.total == sum(big)

    def test_dense_table_refused_beyond_the_cap(self):
        names = tuple(f"v{i:02d}" for i in range(21))
        spec = LevelSpec(names, (2,) * 21)
        rows = np.random.default_rng(3).integers(0, 2, size=(50, 21))
        t = tabulate(spec, rows)
        with pytest.raises(TableTooLargeError, match="1000000"):
            t.counts
        assert t.marginal(("v03",), ("v04",)).sum() == 50

    def test_marginal_is_read_only_and_memoized(self, rng):
        spec = LevelSpec(("a", "b", "c"), (2, 3, 2))
        t = tabulate(spec, rng.integers(0, 2, size=(40, 3)))
        m = t.marginal(("c",), ("a",))
        assert m.shape == (2, 2) and not m.flags.writeable
        assert np.shares_memory(m, t.marginal(("a",), ("c",)))
        with pytest.raises(ValueError, match="repeated"):
            t.marginal(("a",), ("a",))


@given(data=st.data(), sizes=st.lists(st.integers(2, 4), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_marginal_matches_slice_table(data, sizes):
    names = tuple(f"v{i}" for i in range(len(sizes)))
    spec = LevelSpec(names, tuple(sizes))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dense = ContingencyTable(spec, rng.integers(0, 5, size=spec.shape))
    rows = tabulate(spec, np.argwhere(np.ones(spec.shape)).repeat(dense.counts.reshape(-1), axis=0))
    chosen = data.draw(st.permutations(names).flatmap(
        lambda p: st.integers(0, len(p)).map(lambda k: list(p[:k]))))
    split = data.draw(st.integers(0, len(chosen)))
    given_, free = tuple(chosen[:split]), tuple(chosen[split:])
    want = slice_table(dense.counts, spec, given_, free)
    for t in (dense, rows):
        got = t.marginal(given_, free)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_consumers_never_read_the_dense_table(monkeypatch, branch11, rng):
    from decotab.cuts import CutProbs, cut_decomposition, cut_loglik
    from decotab.graphs import perfect_order
    from decotab.params import SufficientStats
    from decotab.priors import posterior_update, reference_prior_pcond
    from decotab.randgen import random_cond_probs, random_table

    g, spec = branch11
    order = perfect_order(g)
    p = random_cond_probs(rng, order, spec).joint()
    dense = random_table(rng, p, 500)
    dec = cut_decomposition(g, ("1", "2", "3", "4"))
    probs = CutProbs.from_joint(p, dec)
    prior = reference_prior_pcond(order, spec)

    def run(t):
        return (SufficientStats.from_table(t, order), posterior_update(prior, t),
                cut_loglik(dec, probs, t))

    want = run(dense)
    rows = tabulate(spec, np.argwhere(dense.counts).repeat(dense.counts[dense.counts > 0], axis=0))

    def refuse(self):
        raise AssertionError("the dense table was read")

    monkeypatch.setattr(ContingencyTable, "counts", property(refuse))
    stats, post, cut = run(rows)
    assert frozenset(spec.names) not in rows._marginals
    assert stats == want[0] and post == want[1] and cut == want[2]
