import io
import json
import math
import contextlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from decotab.cli import main
from decotab.graphs import perfect_order
from decotab.modelio import load_fixture, theta_to_dict
from decotab.params import ThetaMap, canonical_keys

GOLDEN = Path(__file__).parent / "golden"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def golden_match(name, got):
    assert got == (GOLDEN / name).read_text()


def chain3_dump(kind, first_value):
    """A chain3 parameter dump of ``kind``: zeros, except ``first_value`` in the first entry."""
    g, spec = load_fixture("chain3")
    order = perfect_order(g)
    zero = ThetaMap(kind, dict.fromkeys(canonical_keys(kind, order, spec), 0.0))
    doc = theta_to_dict(zero, order, spec)
    doc["entries"][0]["value"] = first_value
    return json.dumps(doc).encode()


class TestCheck:
    def test_thick6_text_golden(self):
        code, out, _ = run("check", "--model", "thick6")
        assert code == 0
        golden_match("check_thick6.txt", out)

    def test_chain3_json_golden(self):
        code, out, _ = run("check", "--model", "chain3", "--format", "json")
        assert code == 0
        golden_match("check_chain3.json", out)

    def test_non_decomposable_exits_1_with_cycle(self, tmp_path):
        model = tmp_path / "cycle.json"
        model.write_text(json.dumps({
            "variables": [{"name": v, "levels": 2} for v in "abcd"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        }))
        code, out, _ = run("check", "--model", str(model))
        assert code == 1
        assert "chordless cycle" in out
        assert set("abcd") == set(out.split(":")[1].strip().split("-"))

    def test_missing_file_exits_1(self):
        code, _, err = run("check", "--model", "no-such-file.json")
        assert code == 1
        assert "no-such-file" in err

    def test_bad_flags_exit_1(self):
        code, _, err = run("check")
        assert code == 1


class TestTransform:
    @pytest.fixture()
    def pcond_dump(self, tmp_path):
        code, out, _ = run("sample", "--model", "thick6", "--n", "1", "--seed", "9")
        assert code == 0
        path = tmp_path / "pcond.json"
        path.write_text(json.dumps(json.loads(out)["draws"][0]))
        return path

    def test_round_trips_reproduce_dump(self, pcond_dump, tmp_path):
        for mid in ("xi", "cond", "cliq", "mod"):
            code, fwd, _ = run(
                "transform", "--model", "thick6", "--from", "pcond", "--to", mid,
                "--params", str(pcond_dump),
            )
            assert code == 0
            mid_path = tmp_path / f"{mid}.json"
            mid_path.write_text(fwd)
            code, back, _ = run(
                "transform", "--model", "thick6", "--from", mid, "--to", "pcond",
                "--params", str(mid_path),
            )
            assert code == 0
            orig = json.loads(pcond_dump.read_text())
            got = json.loads(back)
            worst = max(
                abs(a - b)
                for b0, b1 in zip(orig["blocks"], got["blocks"])
                for a, b in zip(b0["probs"], b1["probs"])
            )
            assert worst < 1e-9

    def test_output_consumable_by_next_command(self, pcond_dump, tmp_path):
        code, out, _ = run(
            "transform", "--model", "thick6", "--from", "pcond", "--to", "mod",
            "--params", str(pcond_dump), "--out", str(tmp_path / "mod.json"),
        )
        assert code == 0 and out == ""
        code, out2, _ = run(
            "transform", "--model", "thick6", "--from", "mod", "--to", "cliq",
            "--params", str(tmp_path / "mod.json"),
        )
        assert code == 0
        assert json.loads(out2)["kind"] == "cliq"

    @pytest.mark.parametrize("to", ["cliq", "cond", "xi"])
    def test_large_mod_coordinate_converts_in_log_space(self, tmp_path, to):
        # One coordinate of 800 underflows a probability table; the log-space
        # targets need none and stay finite.
        dump = tmp_path / "mod.json"
        dump.write_bytes(chain3_dump("mod", 800.0))
        code, out, err = run("transform", "--model", "chain3", "--from", "mod", "--to", to,
                             "--params", str(dump))
        assert code == 0, err
        values = [e["value"] for e in json.loads(out)["entries"]]
        assert all(math.isfinite(v) for v in values) and 800.0 in values

    def test_kind_mismatch_exits_1(self, pcond_dump):
        code, _, err = run(
            "transform", "--model", "thick6", "--from", "mod", "--to", "cliq",
            "--params", str(pcond_dump),
        )
        assert code == 1
        assert "kind" in err


class TestLoglikPriorPosterior:
    def test_loglik_agrees_with_library(self, tmp_path):
        from decotab.graphs import perfect_order
        from decotab.modelio import load_fixture, theta_to_dict, to_json_text
        from decotab.oracle import direct_loglik
        from decotab.params import cliq_from_cond, theta_cond_from_p
        from decotab.randgen import random_cond_probs, random_table

        g, spec = load_fixture("chain3")
        order = perfect_order(g)
        rng = np.random.default_rng(8)
        p = random_cond_probs(rng, order, spec).joint()
        t = random_table(rng, p, 60)
        rows = []
        for cell, n in np.ndenumerate(t.counts):
            rows += [",".join(map(str, cell))] * int(n)
        data = tmp_path / "data.csv"
        data.write_text("a,b,c\n" + "\n".join(rows) + "\n")
        cliq = cliq_from_cond(theta_cond_from_p(p, order), order, spec)
        params = tmp_path / "cliq.json"
        params.write_text(to_json_text(theta_to_dict(cliq, order, spec)))
        code, out, _ = run(
            "loglik", "--model", "chain3", "--data", str(data),
            "--as", "cliq", "--params", str(params), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["loglik"] == pytest.approx(
            direct_loglik(p, t), abs=1e-10
        )

    def test_prior_golden(self):
        code, out, _ = run("prior", "--model", "chain3", "--format", "json")
        assert code == 0
        golden_match("prior_chain3.json", out)

    def test_theta_prior_dump_has_rational_counts(self):
        code, out, _ = run("prior", "--model", "chain3", "--as", "cliq", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["statistics"] == "cliq"
        assert all("/" in e["value"] or e["value"].isdigit()
                   for e in doc["fictitious_counts"])

    def test_posterior_halves(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n0,0,0\n1,1,1\n")
        code, out, _ = run("posterior", "--model", "chain3", "--data", str(data),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        alphas = [a for b in doc["blocks"] for a in b["alpha"]]
        assert all(a.endswith("/2") for a in alphas)


class TestSample:
    def test_seed_reproducibility(self):
        _, out1, _ = run("sample", "--model", "chain3", "--n", "3", "--seed", "7")
        _, out2, _ = run("sample", "--model", "chain3", "--n", "3", "--seed", "7")
        assert out1 == out2
        _, out3, _ = run("sample", "--model", "chain3", "--n", "3", "--seed", "8")
        assert out1 != out3

    def test_sample_as_mod_is_valid_dump(self, tmp_path):
        code, out, _ = run(
            "sample", "--model", "chain3", "--n", "2", "--seed", "4", "--as", "mod"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["source"] == "prior" and len(doc["draws"]) == 2
        assert all(d["kind"] == "mod" for d in doc["draws"])

    def test_posterior_sampling_uses_data(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b,c\n0,0,0\n")
        code, out, _ = run(
            "sample", "--model", "chain3", "--data", str(data),
            "--n", "1", "--seed", "4",
        )
        assert code == 0
        assert json.loads(out)["source"] == "posterior"


class TestCut:
    def test_table_golden_text(self):
        code, out, _ = run("cut", "--model", "branch11", "--set", "1,2,3,4")
        assert code == 0
        golden_match("cut_branch11.txt", out)

    def test_table_golden_json(self):
        code, out, _ = run("cut", "--model", "branch11", "--set", "1,2,3,4",
                           "--format", "json")
        assert code == 0
        golden_match("cut_branch11.json", out)

    def test_prior_inventory_golden(self):
        code, out, _ = run("cut", "--model", "branch11", "--set", "1,2,3,4", "--prior")
        assert code == 0
        golden_match("cut_prior_branch11.txt", out)

    def test_non_cut_exits_1(self):
        code, out, _ = run("cut", "--model", "branch11", "--set", "1,2,4")
        assert code == 1
        assert "not a cut" in out

    def test_unknown_vertex_exits_1(self):
        code, _, err = run("cut", "--model", "branch11", "--set", "1,2,zzz")
        assert code == 1
        assert "zzz" in err


class TestVerify:
    def test_single_model_passes(self):
        code, out, _ = run("verify", "--graph", "chain3", "--seed", "1")
        assert code == 0
        assert "checks passed" in out

    def test_json_format(self):
        code, out, _ = run("verify", "--graph", "chain3", "--seed", "1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert all(c["passed"] for c in doc["checks"])


class TestExitCodes:
    def test_internal_defect_exits_2(self, monkeypatch):
        import decotab.cli as cli

        def boom(path):
            raise RuntimeError("simulated defect")

        monkeypatch.setattr(cli, "_load", boom)
        code, _, err = run("check", "--model", "chain3")
        assert code == 2
        assert "internal error" in err

    NOT_UTF8 = b'{"variables": [{"name": "\xff", "levels": 2}], "edges": []}'
    COND = ("transform", "--model", "chain3", "--from", "cond", "--to", "xi",
            "--params", "{params}")
    PCOND = ("transform", "--model", "chain3", "--from", "pcond", "--to", "xi",
             "--params", "{params}")
    VERIFY = ("verify", "--graph", "chain3")
    MOD_CLIQ = ("transform", "--model", "chain3", "--from", "mod", "--to", "cliq",
                "--params", "{params}")
    LOGLIK_COND = ("loglik", "--model", "chain3", "--data", "{data}", "--as", "cond",
                   "--params", "{params}")
    ROWS = b"a,b,c\n0,1,0\n1,1,0\n"

    @pytest.mark.parametrize("files, argv, env, fragment", [
        pytest.param({"model": NOT_UTF8}, ("check", "--model", "{model}"), {},
                     "model.json: not UTF-8", id="model-not-utf8"),
        pytest.param({"params": NOT_UTF8}, COND, {}, "params.json: not UTF-8",
                     id="params-not-utf8"),
        pytest.param({"data": b"a,b,c\n\xff,0,0\n"},
                     ("posterior", "--model", "chain3", "--data", "{data}"), {},
                     "data.csv: not UTF-8", id="data-not-utf8"),
        pytest.param({"params": b"[1, 2]"}, COND, {}, "params.json: expected a JSON object",
                     id="params-not-an-object"),
        pytest.param({"params": b'{"kind": "cond", "entries": 5}'}, COND, {},
                     "params.json: 'entries' must be a list", id="entries-not-a-list"),
        pytest.param({"params": b'{"kind": "pcond", "blocks": 5}'}, PCOND, {},
                     "params.json: 'blocks' must be a list", id="blocks-not-a-list"),
        pytest.param({}, ("sample", "--model", "chain3", "--n", "1", "--seed", "-1"), {},
                     "--seed must be nonnegative", id="negative-seed"),
        pytest.param({"data": b"\xff"}, ("sample", "--model", "chain3", "--data", "{data}",
                                         "--n", "1", "--seed", "-1"), {},
                     "--seed must be nonnegative", id="seed-checked-before-data"),
        pytest.param({"data": b"\xff"}, ("sample", "--model", "chain3", "--data", "{data}",
                                         "--n", "-1", "--seed", "1"), {},
                     "--n must be nonnegative", id="n-checked-before-data"),
        pytest.param({}, VERIFY, {"DECOTAB_TOL": "abc"}, "DECOTAB_TOL", id="tol-not-a-number"),
        pytest.param({}, VERIFY, {"DECOTAB_TOL": "nan"}, "DECOTAB_TOL", id="tol-nan"),
        pytest.param({}, VERIFY, {"DECOTAB_TOL": "-1e-9"}, "DECOTAB_TOL", id="tol-negative"),
        pytest.param({"model": b'{"variables": [{"name": "a", "levels": 2.7}], "edges": []}'},
                     ("check", "--model", "{model}"), {}, "variables[0].levels",
                     id="levels-a-float"),
        pytest.param({"model": b'{"variables": [{"name": "a", "levels": "3"}], "edges": []}'},
                     ("check", "--model", "{model}"), {}, "variables[0].levels",
                     id="levels-a-string"),
        pytest.param({"model": b'{"variables": [{"name": "a", "levels": true}], "edges": []}'},
                     ("check", "--model", "{model}"), {}, "variables[0].levels",
                     id="levels-a-bool"),
        pytest.param({"params": chain3_dump("mod", math.nan)}, MOD_CLIQ, {},
                     "params.json: entries[0].value is nan", id="mod-value-nan"),
        pytest.param({"params": chain3_dump("mod", math.inf)}, MOD_CLIQ, {},
                     "params.json: entries[0].value is inf", id="mod-value-infinity"),
        pytest.param({"params": chain3_dump("cond", math.nan), "data": ROWS}, LOGLIK_COND, {},
                     "params.json: entries[0].value is nan", id="cond-value-nan"),
        pytest.param({"params": chain3_dump("cond", math.inf), "data": ROWS}, LOGLIK_COND, {},
                     "params.json: entries[0].value is inf", id="cond-value-infinity"),
        pytest.param({"params": chain3_dump("cond", -math.inf), "data": ROWS}, LOGLIK_COND, {},
                     "params.json: entries[0].value is -inf", id="cond-value-minus-infinity"),
    ])
    def test_user_errors_exit_1_with_one_line(self, tmp_path, monkeypatch, files, argv, env,
                                              fragment):
        names = {"model": "model.json", "params": "params.json", "data": "data.csv"}
        paths = {role: str(tmp_path / names[role]) for role in names}
        for role, content in files.items():
            Path(paths[role]).write_bytes(content)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        code, _, err = run(*(a.format(**paths) for a in argv))
        assert code == 1
        assert err.count("\n") == 1 and fragment in err


class TestOversizedModel:
    """A 21-variable binary chain: 2**21 full-table cells, 4 per clique."""

    @pytest.fixture()
    def chain21(self, tmp_path):
        names = [f"v{i:02d}" for i in range(21)]
        model = tmp_path / "chain21.json"
        model.write_text(json.dumps({
            "variables": [{"name": v, "levels": 2} for v in names],
            "edges": [[u, v] for u, v in zip(names, names[1:])],
        }))
        return model

    def test_sample_as_mod_runs_clique_locally(self, chain21):
        code, out, _ = run("sample", "--model", str(chain21), "--n", "1",
                           "--seed", "3", "--as", "mod")
        assert code == 0
        draw = json.loads(out)["draws"][0]
        assert draw["kind"] == "mod" and len(draw["entries"]) == 41

    def test_transform_from_mod_runs_clique_locally(self, chain21, tmp_path):
        from decotab.modelio import load_model, to_json_text

        g, spec = load_model(chain21)
        order = perfect_order(g)
        zero = ThetaMap("mod", dict.fromkeys(canonical_keys("mod", order, spec), 0.0))
        dump = tmp_path / "mod.json"
        dump.write_text(to_json_text(theta_to_dict(zero, order, spec)))
        code, out, err = run("transform", "--model", str(chain21), "--from", "mod",
                             "--to", "cliq", "--params", str(dump))
        assert code == 0, err
        cliq = json.loads(out)
        assert max(abs(e["value"]) for e in cliq["entries"]) < 1e-12
        (tmp_path / "cliq.json").write_text(out)
        code, out, err = run("transform", "--model", str(chain21), "--from", "cliq",
                             "--to", "mod", "--params", str(tmp_path / "cliq.json"))
        assert code == 0, err
        back = json.loads(out)["entries"]
        want = json.loads(dump.read_text())["entries"]
        assert [(e["set"], e["cell"]) for e in back] == [(e["set"], e["cell"]) for e in want]
        assert max(abs(a["value"] - b["value"]) for a, b in zip(back, want)) < 1e-9

    def test_verify_names_the_limit(self, chain21):
        code, _, err = run("verify", "--graph", str(chain21))
        assert code == 1
        assert err.count("\n") == 1 and "1000000" in err

    NAMES = [f"v{i:02d}" for i in range(21)]

    @pytest.fixture()
    def rows21(self, tmp_path):
        rows = np.random.default_rng(2121).integers(0, 2, size=(1000, 21))
        data = tmp_path / "rows21.csv"
        data.write_text("\n".join([",".join(self.NAMES)] + [",".join(map(str, r)) for r in rows.tolist()]))
        return rows, data

    def _slice_rows(self, rows, block):
        """The rows in the block's slice, restricted to the block's columns."""
        mask = np.ones(len(rows), dtype=bool)
        if block["slice"]:
            cols = [self.NAMES.index(v) for v in block["slice"]["set"]]
            mask = (rows[:, cols] == block["slice"]["cell"]).all(axis=1)
        return rows[mask][:, [self.NAMES.index(v) for v in block["set"]]]

    def test_data_commands_run_past_the_cap(self, chain21, rows21):
        _, data = rows21
        model = ("--model", str(chain21), "--data", str(data))
        code, out, err = run("sample", *model, "--as", "cliq", "--n", "2", "--seed", "4")
        assert code == 0, err
        assert [d["kind"] for d in json.loads(out)["draws"]] == ["cliq", "cliq"]
        code, out, err = run("posterior", *model, "--format", "json")
        assert code == 0, err
        for block in json.loads(out)["blocks"]:
            sub = self._slice_rows(rows21[0], block)
            shape = (2,) * sub.shape[1]
            counts = np.bincount(np.ravel_multi_index(sub.T, shape), minlength=2 ** sub.shape[1])
            counts = counts.reshape(shape)
            want = [counts[tuple(c)] + Fraction(1, 2) for c in block["cells"]]
            assert [Fraction(a) for a in block["alpha"]] == want

    def test_cliq_loglik_matches_the_pcond_blocks(self, chain21, rows21, tmp_path):
        rows, data = rows21
        code, out, _ = run("sample", "--model", str(chain21), "--n", "1", "--seed", "8")
        assert code == 0
        pcond = json.loads(out)["draws"][0]
        (tmp_path / "pcond.json").write_text(json.dumps(pcond))
        code, out, err = run("transform", "--model", str(chain21), "--from", "pcond",
                             "--to", "cliq", "--params", str(tmp_path / "pcond.json"))
        assert code == 0, err
        (tmp_path / "cliq.json").write_text(out)
        code, out, err = run("loglik", "--model", str(chain21), "--data", str(data), "--as", "cliq",
                             "--params", str(tmp_path / "cliq.json"), "--format", "json")
        assert code == 0, err
        terms = []
        for block in pcond["blocks"]:
            prob = {tuple(c): q for c, q in zip(block["cells"], block["probs"])}
            terms += [math.log(prob[tuple(r)]) for r in self._slice_rows(rows, block).tolist()]
        assert len(terms) == 20 * len(rows)  # one factor per clique and row
        direct = math.fsum(terms)
        assert abs(json.loads(out)["loglik"] - direct) <= 1e-12 * abs(direct)

    def test_mod_loglik_equals_cliq_loglik(self, chain21, rows21, tmp_path):
        # One seeded draw, dumped in both kinds: ``loglik --as mod`` peels the
        # mod point back to cliq and must land on the direct cliq value.
        value = {}
        for kind in ("mod", "cliq"):
            code, out, _ = run("sample", "--model", str(chain21), "--n", "1", "--seed", "5",
                               "--as", kind)
            assert code == 0
            (tmp_path / f"{kind}.json").write_text(json.dumps(json.loads(out)["draws"][0]))
            code, out, err = run("loglik", "--model", str(chain21), "--data", str(rows21[1]),
                                 "--as", kind, "--params", str(tmp_path / f"{kind}.json"),
                                 "--format", "json")
            assert code == 0, err
            value[kind] = json.loads(out)["loglik"]
        assert abs(value["mod"] - value["cliq"]) <= 1e-12 * abs(value["cliq"])


class TestSampleEdges:
    def test_zero_draws(self):
        code, out, _ = run("sample", "--model", "chain3", "--n", "0", "--seed", "1")
        assert code == 0
        assert json.loads(out)["draws"] == []

    def test_negative_draws_rejected(self):
        code, _, err = run("sample", "--model", "chain3", "--n", "-1", "--seed", "1")
        assert code == 1
