import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decotab.graphs import perfect_order
from decotab.modelio import (
    FileFormatError,
    blocks_from_dict,
    blocks_to_dict,
    condprobs_from_dict,
    condprobs_to_dict,
    load_fixture,
    model_to_dict,
    parse_data_csv,
    parse_model,
    theta_from_dict,
    theta_to_dict,
    to_json_text,
)
from decotab.params import theta_cond_from_p, cliq_from_cond
from decotab.priors import posterior_update, reference_prior_pcond
from decotab.randgen import random_cond_probs, random_table
from decotab.tables import LevelSpec


class TestJsonRendering:
    def test_floats_have_17_significant_digits(self):
        text = to_json_text({"x": 1.0 / 3.0})
        assert "0.33333333333333331" in text

    def test_round_trip_is_lossless(self):
        values = [1 / 3, math.pi, 1e-308, 123456.789012345678, -2.5e17]
        text = to_json_text({"v": values})
        back = json.loads(text)["v"]
        assert back == values

    def test_integers_stay_integers(self):
        assert to_json_text([1, 2, 3]).strip() == "[1, 2, 3]"

    def test_keys_and_strings_skip_json_dumps(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(json, "dumps", refuse)
        doc = {"k\u00e9y": ["v", "\"q\""], 3: {"s": "t", "n": None, "b": True}}
        assert json.loads(to_json_text(doc)) == {
            "k\u00e9y": ["v", '"q"'], "3": {"s": "t", "n": None, "b": True}
        }


def _reference_render(obj, out, indent):
    """The recursive renderer that ``to_json_text`` replaced, kept as its oracle."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _reference_render(v, out, indent + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(x, (int, float, str, bool)) for x in seq)
        if simple:
            out.append("[" + ", ".join(_reference_scalar(x) for x in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _reference_render(v, out, indent + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        out.append(_reference_scalar(obj))


def _reference_scalar(x):
    if isinstance(x, bool) or x is None:
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return json.dumps(str(x))


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                          st.characters()))
_SCALARS = st.one_of(
    st.floats(),  # NaN, +-inf and -0.0 included
    st.floats().map(np.float64),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.none(),
    _TEXT,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(_TEXT, st.integers()), inner, max_size=5),
    ),
    max_leaves=25,
)


@given(obj=_VALUES)
@settings(max_examples=120, deadline=None)
def test_to_json_text_matches_the_reference_renderer(obj):
    out = []
    _reference_render(obj, out, 0)
    assert to_json_text(obj) == "".join(out) + "\n"


class TestModelFiles:
    def test_fixture_round_trip(self):
        g, spec = load_fixture("thick6")
        doc = model_to_dict(g, spec)
        g2, spec2 = parse_model(to_json_text(doc))
        assert g2 == g and spec2 == spec

    def test_vertex_order_is_file_order(self):
        text = '{"variables": [{"name": "z", "levels": 2}, {"name": "a", "levels": 3}], "edges": [["z", "a"]]}'
        g, spec = parse_model(text)
        assert spec.names == ("z", "a")
        assert g.sort(("a", "z")) == ("z", "a")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("nonsense", "not valid JSON"),
            ('{"variables": []}', "expected keys"),
            ('{"variables": [{"name": "a"}], "edges": []}', r"variables\[0\]"),
            ('{"variables": [{"name": "a", "levels": 1}], "edges": []}', "at least 2"),
            ('{"variables": [{"name": "a", "levels": 2}], "edges": [["a"]]}', r"edges\[0\]"),
            ('{"variables": [{"name": "a", "levels": 2}], "edges": [["a", "b"]]}', "unknown"),
        ],
    )
    def test_malformed_models_are_named(self, text, fragment):
        with pytest.raises(FileFormatError, match=fragment):
            parse_model(text, "model.json")


class TestDataFiles:
    def test_row_format(self, chain3):
        _, spec = chain3
        t = parse_data_csv("a,b,c\n0,0,0\n1,1,0\n1,1,0\n", spec)
        assert t.total == 3
        assert t.counts[1, 1, 0] == 2

    def test_column_order_free(self, chain3):
        _, spec = chain3
        t = parse_data_csv("c,a,b\n1,0,1\n", spec)
        assert t.counts[0, 1, 1] == 1

    def test_cell_count_format(self, chain3):
        _, spec = chain3
        t = parse_data_csv("a,b,c,count\n0,0,0,5\n1,0,1,2\n", spec, cell_counts=True)
        assert t.total == 7
        assert t.counts[1, 0, 1] == 2

    def test_errors_name_location(self, chain3):
        _, spec = chain3
        with pytest.raises(FileFormatError, match="header"):
            parse_data_csv("a,b\n0,0\n", spec)
        with pytest.raises(FileFormatError, match="line 3"):
            parse_data_csv("a,b,c\n0,0,0\n0,x,0\n", spec)

    @pytest.mark.parametrize(
        "text, cell_counts, message",
        [
            ("a,b,c\n0,0,0\n\n\n0,x,0\n", False, "line 5: non-integer entry"),
            ("\n \na,b,c\n0,0,0\n,,\n0,0\n", False, "line 6: wrong column count"),
            ("a,b,c\n0,0,0\n\n0,5,0\n", False, "line 4: level 5 out of range for variable 'b'"),
            ("a,b,c\r\n\r\n1,1,1\r\n  \r\n0,0,-1\r\n", False, "line 5: level -1 out of range"),
            ("a,b,c,count\n0,0,0,5\n\n\n1,0,1,-2\n", True, "line 5: negative count"),
            ("a,b,c,count\n0,0,0,99999999999999999999\n", True, "line 2: integer out of range"),
            ("a,b,c\n0,1_0,0\n", False, "line 2: non-integer entry"),
            ("a,b,c,count\n0,0,0,4611686018427387904\n1,1,1,4611686018427387904\n", True,
             "total count exceeds"),
        ],
    )
    def test_errors_name_the_file_line(self, chain3, text, cell_counts, message):
        _, spec = chain3
        with pytest.raises(FileFormatError, match=f"^<data>: {message}"):
            parse_data_csv(text, spec, cell_counts=cell_counts)

    def test_blank_lines_and_quotes_are_accepted(self, chain3):
        _, spec = chain3
        t = parse_data_csv('\n"c", a ,b\n\n"1", 0 ,1\r\n,,\n  \n"","",""\n1,1,1', spec)
        assert t.total == 2 and t.counts[0, 1, 1] == 1 and t.counts[1, 1, 1] == 1

    def test_header_only_is_an_empty_table(self, chain3):
        _, spec = chain3
        assert parse_data_csv("a,b,c\n\n", spec).total == 0
        with pytest.raises(FileFormatError, match="empty file"):
            parse_data_csv(" \n,,\n", spec)


_BLANK_LINES = ("", "   ", ",,", " , ,\t", '"",""')


@given(data=st.data(), sizes=st.lists(st.integers(2, 4), min_size=1, max_size=4),
       cell_counts=st.booleans())
@settings(max_examples=60, deadline=None)
def test_parse_data_csv_matches_bincount(data, sizes, cell_counts):
    names = tuple(f"v{i}" for i in range(len(sizes)))
    spec = LevelSpec(names, tuple(sizes))
    n_rows = data.draw(st.integers(0, 30))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, sizes, size=(n_rows, len(sizes)))
    counts = rng.integers(0, 4, size=n_rows) if cell_counts else np.ones(n_rows, np.int64)
    columns = list(names) + (["count"] if cell_counts else [])
    header = data.draw(st.permutations(columns))
    table = np.column_stack([rows, counts]) if cell_counts else rows
    lines = [",".join(header)]
    for record in table[:, [columns.index(h) for h in header]].tolist():
        quote = data.draw(st.lists(st.booleans(), min_size=len(record), max_size=len(record)))
        lines.append(",".join(f'"{x}"' if q else str(x) for x, q in zip(record, quote)))
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(_BLANK_LINES)))
    text = "\n".join(lines) + data.draw(st.sampled_from(("", "\n")))
    t = parse_data_csv(text, spec, cell_counts=cell_counts)
    want = np.zeros(spec.n_cells(), np.int64)
    np.add.at(want, np.ravel_multi_index(rows.T, spec.shape), counts)
    assert np.array_equal(t.counts, want.reshape(spec.shape))
    assert t.total == counts.sum()


class TestParameterDumps:
    def test_theta_round_trip_all_kinds(self, thick6, rng):
        g, spec = thick6
        order = perfect_order(g)
        p = random_cond_probs(rng, order, spec).joint()
        cond = theta_cond_from_p(p, order)
        cliq = cliq_from_cond(cond, order, spec)
        for theta in (cond, cliq):
            doc = json.loads(to_json_text(theta_to_dict(theta, order, spec)))
            back = theta_from_dict(doc, order, spec)
            assert back.kind == theta.kind
            assert theta.max_abs_diff(back) == 0.0

    def test_slice_entries_mark_their_slice(self, chain3, rng):
        g, spec = chain3
        order = perfect_order(g)
        p = random_cond_probs(rng, order, spec).joint()
        doc = theta_to_dict(theta_cond_from_p(p, order), order, spec)
        sliced = [e for e in doc["entries"] if "slice" in e]
        assert sliced and all(e["slice"]["set"] == ["b"] for e in sliced)

    def test_entry_set_mismatch_rejected(self, chain3):
        g, spec = chain3
        order = perfect_order(g)
        doc = {"kind": "mod", "entries": [{"set": ["a"], "cell": [1], "value": 0.0}]}
        with pytest.raises(FileFormatError, match="mismatch"):
            theta_from_dict(doc, order, spec)

    def test_pcond_round_trip(self, thick6, rng):
        g, spec = thick6
        order = perfect_order(g)
        cp = random_cond_probs(rng, order, spec)
        doc = json.loads(to_json_text(condprobs_to_dict(cp)))
        back = condprobs_from_dict(doc, order, spec)
        assert cp.max_abs_diff(back) == 0.0


class TestPriorDumps:
    def test_alpha_written_as_rationals(self, chain3, rng):
        g, spec = chain3
        order = perfect_order(g)
        prior = reference_prior_pcond(order, spec)
        t = random_table(rng, random_cond_probs(rng, order, spec).joint(), 37)
        post = posterior_update(prior, t)
        doc = blocks_to_dict(post)
        flat = [a for b in doc["blocks"] for a in b["alpha"]]
        assert all("/" in a or a.isdigit() for a in flat)
        assert all(a.endswith("/2") or a.isdigit() for a in flat)
        back = blocks_from_dict(json.loads(to_json_text(doc)), spec)
        for b0, b1 in zip(post.blocks, back.blocks):
            assert b0.alpha == b1.alpha
