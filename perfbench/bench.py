"""One workload run, in a fresh process with a steady environment.

Started by ``perfbench/run.py``, which sets the environment first:

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one sequential client in a closed loop: the next operation
starts only after the previous one ended.  A cycle is the workload's
repeating unit, one operation of each kind; the loop runs whole cycles
until the timed operations add up to ``--seconds``.  Input generation,
output checks and the tracer's bookkeeping happen outside the timed
regions.  Human-readable lines go to standard output first; the last line
is the JSON result.

Timings are made steady against a shared, noisy host in three steps (see
README, "Steadiness").  The run and every process it starts are pinned to
one core.  Interference only ever adds time, so each operation kind is
represented by its fastest run in the cycle loop.  And because a whole run
can fall into a slow phase of the host, timings are scaled by the reference
over the fastest run of a calibration that does the same kind of work and
runs after every operation: a fixed in-process kernel for in-process
operations, and a fresh ``python -c pass`` process for command processes
and set-up probes.  Reported seconds are thus seconds at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from checks import (
    ROUND_TRIP_TOL,
    block_counts,
    check_posterior,
    close_rel,
    condprobs_digest,
    digest,
    marginal_counts,
    max_theta_diff,
    pcond_loglik,
    reference_draws,
    require,
)
from spans import Tracer, span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODELS = HERE / "models"
SETUP_PROBES = 9
CAL_SAMPLES = 3  # kernel runs after each in-process operation
# Fastest kernel run and fastest ``python -c pass`` process on the machine the
# benchmark was defined on (2 vCPU Intel Xeon, Python 3.11, numpy 2.4): the
# units of reported seconds.
CAL_REF_S = 0.001
PROC_REF_S = 0.045
SRC_MODULES = ("__init__", "cli", "cuts", "graphs", "modelio", "oracle", "params", "priors",
               "randgen", "tables")
WALL_LIMIT_S = 150.0  # stop starting cycles past this, whatever --seconds says

from decotab import cli, cuts, graphs, modelio, oracle, params, priors  # noqa: E402
from decotab.randgen import random_cond_probs  # noqa: E402
from decotab.tables import ContingencyTable  # noqa: E402


_CAL_KEYS = [(i % 7, (i, i + 1)) for i in range(3000)]
_CAL_ARRAY = np.arange(1.0, 30001.0)


def calibration() -> float:
    """A fixed ~1 ms mix of tuple hashing, dict updates and a numpy reduction.

    It creates a single container object, so its time does not depend on the
    garbage collector or on how large the process's heap has grown.
    """
    d = dict.fromkeys(_CAL_KEYS, 0.0)
    for key in _CAL_KEYS:
        d[key] += math.log(key[0] + 2)
    return float(np.log(_CAL_ARRAY).sum()) + d[_CAL_KEYS[-1]]


def kernel_calibration() -> float:
    """Seconds of the fastest of ``CAL_SAMPLES`` calibration kernel runs."""
    best = math.inf
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        calibration()
        best = min(best, time.perf_counter() - start)
    return best


def process_calibration(env: dict) -> float:
    """Seconds of one fresh interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - start


class Op(NamedTuple):
    name: str
    seconds: float


class Harness:
    """Times operations, runs their checks untimed, counts failures."""

    def __init__(self, seed: int, work: Path, tracer: Tracer | None, env: dict):
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.env = env
        self.ops: list[Op] = []
        self.in_process = True  # which calibration matches the operations
        self.kernel_cal: list[float] = []
        self.process_cal: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.cycle = 0

    def op(self, name: str, run: Callable, check: Callable):
        """Time ``run()``; then ``check(result)``.  Returns None on failure."""
        self.attempted += 1
        if self.tracer:
            self.tracer.cycle = self.cycle
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # any exception is a failed operation
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer:
                self.tracer.enabled = False
        self.ops.append(Op(name, elapsed))
        if self.in_process:
            self.kernel_cal.append(kernel_calibration())
        else:
            self.process_cal.append(process_calibration(self.env))
        try:
            check(result)
        except Exception as exc:  # a check that cannot run has failed too
            self.fail(name, f"check: {exc}")
            return None
        return result

    def skip(self, name: str, reason: str) -> None:
        """An operation that could not start because an earlier one failed."""
        self.attempted += 1
        self.fail(name, reason)

    def fail(self, name: str, why: str) -> None:
        self.failures.append(f"cycle {self.cycle} {name}: {why}")
        print(f"FAILED cycle {self.cycle} {name}: {why}", file=sys.stderr)


def load(name: str):
    g, spec = modelio.load_model(MODELS / f"{name}.json")
    return g, spec, graphs.perfect_order(g)


def write_rows_csv(path: Path, spec, rows: np.ndarray) -> None:
    lines = [",".join(spec.names)]
    lines += [",".join(map(str, r)) for r in rows.tolist()]
    path.write_text("\n".join(lines) + "\n")


def draw_rows(rng: np.random.Generator, p, n: int) -> np.ndarray:
    idx = rng.choice(p.p.size, size=n, p=p.p.reshape(-1))
    return np.stack(np.unravel_index(idx, p.spec.shape), axis=1)


def mean_condprobs(post, order, spec, keys):
    """Posterior mean blocks; ``cells`` run first variable fastest (F order)."""
    blocks = {}
    for key, b in zip(keys, post.blocks):
        a = np.asarray(b.alpha).reshape(tuple(spec.size(v) for v in b.vars), order="F")
        blocks[key] = a / a.sum()
    return params.CondProbs(order, spec, blocks)


def model_sizes(models, rows: int) -> dict[str, int]:
    out = dict.fromkeys(
        ("model.full_cells", "model.clique_cells", "model.separator_cells",
         "model.coords.mod", "model.coords.cond", "priors.blocks"), 0)
    for _, spec, order in models:
        out["model.full_cells"] += spec.n_cells()
        out["model.clique_cells"] += sum(spec.n_cells(c) for c in order.cliques)
        out["model.separator_cells"] += sum(spec.n_cells(s) for s in order.separators if s)
        out["model.coords.mod"] += len(params.canonical_keys("mod", order, spec))
        out["model.coords.cond"] += len(params.canonical_keys("cond", order, spec))
        out["priors.blocks"] += len(params.block_keys(order, spec))
    out["data.rows"] = rows
    return out


# ---------------------------------------------------------------------------
# fit-sample: a Bayesian analysis of one data file


class FitSample:
    """Cycle: one ``fit`` of the 5e4-row file, then one batch of 50 draws."""

    N_ROWS = 50_000
    N_DRAWS = 50

    def __init__(self, h: Harness):
        self.h = h
        self.g, self.spec, self.order = load("fit12")
        self.models = [(self.g, self.spec, self.order)]
        self.model_files = [MODELS / "fit12.json"]
        rng = np.random.default_rng(h.seed)
        p = random_cond_probs(rng, self.order, self.spec).joint()
        rows = draw_rows(rng, p, self.N_ROWS)
        self.csv = h.work / "fit12.csv"
        write_rows_csv(self.csv, self.spec, rows)
        self.table = ContingencyTable(self.spec, marginal_counts(rows, self.spec, self.spec.names))
        self.keys = params.block_keys(self.order, self.spec)
        self.counts = block_counts(rows, self.spec, priors.reference_prior_pcond(self.order, self.spec))
        self.alphas = [n.reshape(-1, order="F") + 0.5 for n in self.counts]
        self.cut_set = self.spec.sort(self.order.cliques[0] + self.order.cliques[1])
        self.sample_seeds = np.random.default_rng([h.seed, 1])
        self.sizes = model_sizes(self.models, self.N_ROWS)

    def cycle(self) -> None:
        fit = self.h.op("fit", self.fit, self.check_fit)
        if fit is None:
            self.h.skip("draws", "no posterior")
            return
        seed = int(self.sample_seeds.integers(2**31))
        self.h.op("draws", lambda: self.draws(fit, seed),
                  lambda r: self.check_draws(r, seed))

    def fit(self) -> dict:
        order, spec = self.order, self.spec
        t = modelio.load_data(self.csv, spec)
        stats = params.SufficientStats.from_table(t, order)
        post = priors.posterior_update(priors.reference_prior_pcond(order, spec), t)
        mean = mean_condprobs(post, order, spec, self.keys)
        cond = params.theta_cond_from_xi(params.xi_from_condprobs(mean), order)
        cliq = params.cliq_from_cond(cond, order, spec)
        joint = mean.joint()
        dec = cuts.cut_decomposition(self.g, self.cut_set)
        return {
            "table": t, "stats": stats, "post": post, "joint": joint,
            "cond": params.loglik(cond, stats),
            "cliq": params.loglik(cliq, stats),
            "cut": cuts.cut_loglik(dec, cuts.CutProbs.from_joint(joint, dec), t),
        }

    def check_fit(self, r: dict) -> None:
        require(np.array_equal(r["table"].counts, self.table.counts), "table != bincount of rows")
        require(r["stats"].n_total == self.N_ROWS, "statistics total != row count")
        check_posterior(r["post"], self.counts)
        direct = oracle.direct_loglik(r["joint"], self.table)
        for kind in ("cond", "cliq", "cut"):
            close_rel(r[kind], direct, f"{kind} loglik vs oracle.direct_loglik")

    def draws(self, fit: dict, seed: int) -> list:
        order, spec = self.order, self.spec
        out = []
        for cp in priors.sample_posterior(fit["post"], order, seed, self.N_DRAWS):
            cond = params.theta_cond_from_xi(params.xi_from_condprobs(cp), order)
            cliq = params.cliq_from_cond(cond, order, spec)
            out.append((cp, params.loglik(cliq, fit["stats"])))
        return out

    def check_draws(self, out: list, seed: int) -> None:
        require(len(out) == self.N_DRAWS, "wrong number of draws")
        ref = reference_draws(self.alphas, seed, self.N_DRAWS)
        require(condprobs_digest([cp for cp, _ in out], self.keys)
                == digest(v for draw in ref for v in draw),
                "pcond draws differ from the seeded reference stream")
        for cp, ll in out:
            close_rel(ll, pcond_loglik(cp, self.keys, self.counts), "draw cliq loglik vs pcond blocks")


# ---------------------------------------------------------------------------
# transform-exact: exact coordinate changes on structured graphs


class TransformExact:
    """Cycle: one exact round trip per model, each from a fresh seeded point."""

    MODEL_NAMES = ("branch11", "chain11", "rand9")

    def __init__(self, h: Harness):
        self.h = h
        self.models = [load(name) for name in self.MODEL_NAMES]
        self.model_files = [MODELS / f"{name}.json" for name in self.MODEL_NAMES]
        self.rng = np.random.default_rng(h.seed)
        self.sizes = model_sizes(self.models, 0)

    def cycle(self) -> None:
        for name, (g, spec, order) in zip(self.MODEL_NAMES, self.models):
            cp = random_cond_probs(self.rng, order, spec)
            self.h.op(f"round-trip {name}", lambda: self.round_trip(cp, g, spec, order),
                      lambda r: self.check(r, cp))

    @staticmethod
    def round_trip(cp, g, spec, order) -> dict:
        p = cp.joint()
        cond = params.theta_cond_from_p(p, order)
        xi = params.xi_from_theta_cond(cond, order)
        cliq = params.cliq_from_cond(cond, order, spec)
        mod = params.mod_from_cliq(cliq, order, spec)
        cliq2 = params.cliq_from_mod(mod, order, spec)
        cond2 = params.cond_from_cliq(cliq2, order, spec)
        xi2 = params.xi_from_theta_cond(cond2, order)
        mod_p = params.theta_mod_from_p(p, g)
        return {
            "p": p, "cond": cond, "cliq": cliq, "mod": mod, "cliq2": cliq2, "cond2": cond2,
            "cond_xi": params.theta_cond_from_xi(xi, order),
            "cp2": params.p_from_xi(xi2, order, spec),
            "mod_p": mod_p, "p2": params.p_from_theta_mod(mod_p, g, spec),
        }

    @staticmethod
    def check(r: dict, cp) -> None:
        pairs = {
            "xi -> cond": (r["cond_xi"], r["cond"]),
            "mod -> cliq": (r["cliq2"], r["cliq"]),
            "cliq -> cond": (r["cond2"], r["cond"]),
            "cliq -> mod vs theta_mod_from_p": (r["mod"], r["mod_p"]),
        }
        for what, (a, b) in pairs.items():
            dev = max_theta_diff(a.values, b.values)
            require(dev <= ROUND_TRIP_TOL, f"{what}: deviation {dev:.3g}")
        dev = r["cp2"].max_abs_diff(cp)
        require(dev <= ROUND_TRIP_TOL, f"pcond round trip: deviation {dev:.3g}")
        dev = float(np.abs(r["p2"].p - r["p"].p).max())
        require(dev <= ROUND_TRIP_TOL, f"p -> mod -> p: deviation {dev:.3g}")


# ---------------------------------------------------------------------------
# cli-session: what a scripting user pays per command


class CliSession:
    """Cycle: the 11-command session, each command a fresh process.

    With tracing on, the same session is replayed in-process through
    ``decotab.cli.main(argv)`` so that spans can be recorded.
    """

    N_ROWS = 10_000
    N_DRAWS = 100
    CUT_SET = "1,2,3,4"

    def __init__(self, h: Harness):
        self.h = h
        h.in_process = h.tracer is not None
        w = h.work
        self.g, self.spec, self.order = load("fit12")
        self.gb, self.sb, self.ob = load("branch11")
        self.models = [(self.g, self.spec, self.order), (self.gb, self.sb, self.ob)]
        self.model_files = [MODELS / "fit12.json", MODELS / "branch11.json"]
        self.sizes = model_sizes(self.models, self.N_ROWS)
        rng = np.random.default_rng(h.seed)

        cp = random_cond_probs(rng, self.order, self.spec)
        rows = draw_rows(rng, cp.joint(), self.N_ROWS)
        write_rows_csv(w / "data.csv", self.spec, rows)
        table = ContingencyTable(self.spec, marginal_counts(rows, self.spec, self.spec.names))
        self.direct = oracle.direct_loglik(cp.joint(), table)
        cond = params.theta_cond_from_xi(params.xi_from_condprobs(cp), self.order)
        cliq = params.cliq_from_cond(cond, self.order, self.spec)
        thetas = {"cond": cond, "cliq": cliq,
                  "mod": params.mod_from_cliq(cliq, self.order, self.spec)}
        for kind, theta in thetas.items():
            (w / f"{kind}.json").write_text(
                modelio.to_json_text(modelio.theta_to_dict(theta, self.order, self.spec)))

        self.cp_b = random_cond_probs(rng, self.ob, self.sb)
        (w / "b11_pcond.json").write_text(modelio.to_json_text(modelio.condprobs_to_dict(self.cp_b)))
        self.mod_b = params.theta_mod_from_p(self.cp_b.joint(), self.gb).values

        prior = priors.reference_prior_pcond(self.order, self.spec)
        self.keys = params.block_keys(self.order, self.spec)
        self.counts = block_counts(rows, self.spec, prior)
        self.alphas = [n.reshape(-1, order="F") + 0.5 for n in self.counts]
        self.labels = [b.label for b in prior.blocks]
        self.log_norm = sum(b.dim * math.lgamma(0.5) - math.lgamma(b.dim / 2) for b in prior.blocks)
        dec = cuts.cut_decomposition(self.gb, self.CUT_SET.split(","))
        self.cut_labels = [b.label for b in cuts.cut_reference_prior(dec, self.sb).blocks]
        self.sample_seeds = np.random.default_rng([h.seed, 1])

    def commands(self, seed: int) -> list[tuple[str, list[str], Callable]]:
        w, fit, b11 = self.h.work, str(MODELS / "fit12.json"), str(MODELS / "branch11.json")
        data = ["--data", str(w / "data.csv")]
        out = [
            ("check", ["check", "--model", fit, "--format", "json"], self.check_check),
            ("transform pcond-mod", ["transform", "--model", b11, "--from", "pcond", "--to", "mod",
                           "--params", str(w / "b11_pcond.json"), "--out", str(w / "b11_mod.json")],
             self.check_to_mod),
            ("transform mod-pcond", ["transform", "--model", b11, "--from", "mod", "--to", "pcond",
                           "--params", str(w / "b11_mod.json"), "--out", str(w / "b11_back.json")],
             self.check_back),
        ]
        for kind in ("cond", "cliq", "mod"):
            out.append((f"loglik {kind}", ["loglik", "--model", fit, *data, "--as", kind,
                                   "--params", str(w / f"{kind}.json"), "--format", "json"],
                        self.check_loglik))
        out += [
            ("prior", ["prior", "--model", fit, "--as", "mod", "--format", "json"], self.check_prior),
            ("posterior", ["posterior", "--model", fit, *data, "--format", "json"],
             self.check_posterior),
            ("sample cliq", ["sample", "--model", fit, *data, "--n", str(self.N_DRAWS),
                        "--seed", str(seed), "--as", "cliq"], lambda t: self.check_cliq_draws(t, seed)),
            ("sample pcond", ["sample", "--model", fit, *data, "--n", str(self.N_DRAWS),
                        "--seed", str(seed), "--as", "pcond"], lambda t: self.check_pcond_draws(t, seed)),
            ("cut", ["cut", "--model", b11, "--set", self.CUT_SET, "--prior", "--format", "json"],
             self.check_cut),
        ]
        return out

    def cycle(self) -> None:
        seed = int(self.sample_seeds.integers(2**31))
        for label, argv, check in self.commands(seed):
            self.h.op(label, lambda: self.run(argv), check)

    def run(self, argv: list[str]) -> str:
        out = self.h.work / "stdout.txt"
        if self.h.tracer:
            with open(out, "w") as fh, contextlib.redirect_stdout(fh):
                rc = self.h.tracer.span(f"cli.{argv[0]}", cli.main, argv)
        else:
            with open(out, "w") as fh, open(self.h.work / "stderr.txt", "w") as err:
                rc = subprocess.run([sys.executable, "-m", "decotab.cli", *argv],
                                    stdout=fh, stderr=err, cwd=ROOT, env=self.h.env).returncode
        if rc != 0:
            detail = "" if self.h.tracer else (self.h.work / "stderr.txt").read_text()[-300:]
            raise RuntimeError(f"exit {rc} {detail}")
        return out.read_text()

    def check_check(self, text: str) -> None:
        doc = json.loads(text)
        require(doc["cliques"] == [list(c) for c in self.order.cliques], "cliques differ")

    def check_to_mod(self, _: str) -> None:
        doc = json.loads((self.h.work / "b11_mod.json").read_text())
        got = {params.ParamKey(tuple(e["set"]), tuple(e["cell"])): e["value"] for e in doc["entries"]}
        dev = max_theta_diff(got, self.mod_b)
        require(dev <= ROUND_TRIP_TOL, f"mod dump vs theta_mod_from_p: deviation {dev:.3g}")

    def check_back(self, _: str) -> None:
        doc = json.loads((self.h.work / "b11_back.json").read_text())
        dev = 0.0
        for b in doc["blocks"]:
            key = (b["clique"], () if b["slice"] is None else tuple(b["slice"]["cell"]))
            arr = self.cp_b.blocks[key]
            dev = max([dev] + [abs(arr[tuple(c)] - x) for c, x in zip(b["cells"], b["probs"])])
        require(len(doc["blocks"]) == len(self.cp_b.blocks), "block count differs")
        require(dev <= ROUND_TRIP_TOL, f"pcond -> mod -> pcond: deviation {dev:.3g}")

    def check_loglik(self, text: str) -> None:
        doc = json.loads(text)
        require(doc["n"] == self.N_ROWS, "row count differs")
        close_rel(doc["loglik"], self.direct, f"{doc['kind']} loglik vs oracle.direct_loglik")

    def check_prior(self, text: str) -> None:
        doc = json.loads(text)
        c1 = self.spec.n_cells(self.order.cliques[0])
        require(doc["fictitious_total"] == str(Fraction(c1, 2)), "fictitious total differs")
        close_rel(doc["log_normalizer"], self.log_norm, "prior log normalizer")

    def check_posterior(self, text: str) -> None:
        doc = json.loads(text)
        require([b["label"] for b in doc["blocks"]] == self.labels, "posterior blocks differ")
        for b, n in zip(doc["blocks"], self.counts):
            want = [n[tuple(c)] + Fraction(1, 2) for c in b["cells"]]
            require([Fraction(a) for a in b["alpha"]] == want, f"{b['label']}: alpha != counts + 1/2")

    def _draws(self, text: str, kind: str) -> list:
        doc = json.loads(text)
        require(doc["as"] == kind and doc["n"] == self.N_DRAWS == len(doc["draws"]),
                "sample dump header differs")
        return doc["draws"]

    def check_cliq_draws(self, text: str, seed: int) -> None:
        draws = self._draws(text, "cliq")
        ref = reference_draws(self.alphas, seed, self.N_DRAWS)
        for d in (0, self.N_DRAWS - 1):
            blocks = {k: v.reshape(self.counts[i].shape) for i, (k, v) in enumerate(zip(self.keys, ref[d]))}
            cp = params.CondProbs(self.order, self.spec, blocks)
            want = params.cliq_from_cond(
                params.theta_cond_from_xi(params.xi_from_condprobs(cp), self.order), self.order, self.spec)
            got = {params.ParamKey(tuple(e["set"]), tuple(e["cell"])): e["value"]
                   for e in draws[d]["entries"]}
            dev = max_theta_diff(got, want.values)
            require(dev <= ROUND_TRIP_TOL, f"cliq draw {d}: deviation {dev:.3g}")

    def check_pcond_draws(self, text: str, seed: int) -> None:
        vectors = []
        for draw in self._draws(text, "pcond"):
            for b, n in zip(draw["blocks"], self.counts):
                arr = np.empty(n.shape)
                for c, x in zip(b["cells"], b["probs"]):
                    arr[tuple(c)] = x
                vectors.append(arr.reshape(-1))
        ref = reference_draws(self.alphas, seed, self.N_DRAWS)
        require(digest(vectors) == digest(v for draw in ref for v in draw),
                "pcond draws differ from the seeded reference stream")

    def check_cut(self, text: str) -> None:
        doc = json.loads(text)
        require(doc["is_cut"] is True, "not reported as a cut")
        blocks = doc["prior"]["blocks"]
        require([b["label"] for b in blocks] == self.cut_labels, "cut prior blocks differ")
        require(all(a == "1/2" for b in blocks for a in b["alpha"]), "cut prior is not all 1/2")


# ---------------------------------------------------------------------------
# set-up probe, metrics and the result line


def setup_probe(h: Harness, files: list[Path]) -> dict[str, float]:
    """One fresh process: import, model parsing and ``perfect_order`` seconds."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *map(str, files)],
                         cwd=ROOT, env=h.env, capture_output=True, text=True, check=True,
                         timeout=60)
    h.process_cal.append(process_calibration(h.env))
    return json.loads(out.stdout)


def src_lines() -> dict[str, int]:
    """Lines per module at the time the benchmark was defined (0 if gone), and in all."""
    lines = {p.stem: len(p.read_text().splitlines()) for p in (ROOT / "src" / "decotab").glob("*.py")}
    out = {f"{'init' if m == '__init__' else m}.src_lines": lines.get(m, 0) for m in SRC_MODULES}
    out["src.total_lines"] = sum(lines.values())
    return out


class Timings:
    """One run's timings in reference-speed seconds.

    Every cycle runs each operation kind once; a kind's time is its fastest
    run, and the cycle time is the sum over kinds.
    """

    def __init__(self, h: Harness):
        if h.in_process:
            self.scale = CAL_REF_S / min(h.kernel_cal)
        else:
            self.scale = PROC_REF_S / min(h.process_cal)
        self.setup_scale = PROC_REF_S / min(h.process_cal)
        self.best: dict[str, float] = {}
        for op in h.ops:
            self.best[op.name] = min(self.best.get(op.name, math.inf), op.seconds)
        self.raw = [op.seconds for op in h.ops]

    def s(self, kind: str) -> float:
        return self.best[kind] * self.scale

    @property
    def cycle_s(self) -> float:
        return sum(self.best.values()) * self.scale

    @property
    def op_p50_s(self) -> float:
        return statistics.median_low(self.best.values()) * self.scale


def declared(kind: str) -> tuple[list[str], dict[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc[kind]], {m["name"]: m["unit"] for m in doc[kind]}


def end_to_end(w, t: Timings, setup_s: float) -> dict[str, float]:
    # cli-session: the largest child, i.e. a command process (set-up probes are smaller).
    who = resource.RUSAGE_CHILDREN if isinstance(w, CliSession) else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    return {
        "setup_s": setup_s,
        "cycle_s": t.cycle_s,
        "op_p50_ms": 1000 * t.op_p50_s,
        "peak_rss_mb": rss_kb / 1024,
    }


def named_figures(name: str, h: Harness, t: Timings, cycles: list[float]) -> list[str]:
    """The workload's own figures: fit_s, draws_per_s, transform_cycle_s, cli_p50_ms, ..."""
    lines = [f"scale {t.scale:.4f}, set-up scale {t.setup_scale:.4f} (reference over fastest"
             f" calibration); unscaled median cycle {statistics.median(cycles):.4f} s"]
    if name == "fit-sample":
        lines.append(f"fit_s {t.s('fit'):.6f} s")
        lines.append(f"draws_per_s {FitSample.N_DRAWS / t.s('draws'):.4f} 1/s")
    elif name == "transform-exact":
        lines.append(f"transform_cycle_s {t.cycle_s:.6f} s")
    else:
        lines.append(f"cli_p50_ms {1000 * t.op_p50_s:.3f} ms (median command of the session)")
        # cli_p90_ms needs 100 samples; report the highest percentile that has
        # at least 10 of the run's command samples beyond it.
        raw = sorted(t.raw)
        q = min(90, math.floor(100 * (len(raw) - 10) / len(raw)))
        if q >= 50:
            value = raw[math.ceil(q / 100 * len(raw)) - 1] * t.scale
            lines.append(f"cli_p{q}_ms {1000 * value:.3f} ms n={len(raw)}")
        else:
            lines.append(f"cli_p90_ms unavailable: n={len(raw)} commands")
    lines.append(f"error_rate {len(h.failures) / h.attempted:.6g} ratio"
                 f" ({len(h.failures)}/{h.attempted})")
    return lines


def per_layer(w, tracer: Tracer, t: Timings, n: int, import_s: float) -> dict[str, float]:
    """Per cycle: calls and self milliseconds per traced function, and counts."""
    calls, self_s = tracer.self_times()
    out: dict[str, float] = {}
    for name in span_names():
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.self_ms"] = 1000 * self_s.get(name, 0.0) / n
    out["tables.cells_scanned"] = tracer.cells_scanned / n
    out["cli.import_ms"] = 1000 * import_s
    for sub in ("check", "transform", "loglik", "prior", "posterior", "sample", "cut"):
        spans = [s for s in tracer.spans if s[0] == f"cli.{sub}"]
        out[f"cli.{sub}.ms"] = 1000 * sum(end - start for _, start, end, _, _ in spans) / n
    out.update(w.sizes)
    out.update(src_lines())
    spans_per_cycle = len(tracer.spans) / n
    out["trace.cycle_s"] = t.cycle_s
    out["trace.spans"] = spans_per_cycle
    out["trace.overhead_ms"] = 1000 * spans_per_cycle * tracer.cost_per_span()
    return out


def environment() -> list[str]:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return [f"commit {commit}", f"python {sys.version.split()[0]}", f"numpy {np.__version__}",
            f"nproc {os.cpu_count()}"]


WORKLOADS = {"fit-sample": FitSample, "transform-exact": TransformExact, "cli-session": CliSession}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = dict(os.environ)
    # One core for the run and every process it starts, so the calibration
    # kernel sees the same core's interference as the timed operations.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        h = Harness(args.seed, work, tracer, env)
        w = WORKLOADS[args.workload](h)

        # Set-up probes are spread over the run, so that their median sees
        # the same phases of the host as the operations.
        cycles: list[float] = []
        probes: list[dict[str, float]] = []
        spent, wall0 = 0.0, time.perf_counter()
        while spent < args.seconds and time.perf_counter() - wall0 < WALL_LIMIT_S:
            n0 = len(h.ops)
            w.cycle()
            dt = sum(op.seconds for op in h.ops[n0:])
            if len(h.ops) > n0:
                cycles.append(dt)
            spent += dt
            h.cycle += 1
            if len(h.ops) == n0:
                break  # nothing completed; more cycles would fail the same way
            while len(probes) < SETUP_PROBES * min(spent / args.seconds, 1.0):
                probes.append(setup_probe(h, w.model_files))
        if not cycles:
            print("no cycle completed", file=sys.stderr)
            return 1
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(h, w.model_files))

        lines = [f"workload {args.workload} seed {args.seed} cycles {len(cycles)} "
                 f"timed {spent:.3f} s trace {args.trace}"] + environment()
        t = Timings(h)
        setup_s, import_s = (t.setup_scale * statistics.median(p[k] for p in probes)
                             for k in ("setup_s", "import_s"))
        if tracer:
            names, units = declared("per_layer")
            metrics = per_layer(w, tracer, t, len(cycles), import_s)
        else:
            names, units = declared("end_to_end")
            metrics = end_to_end(w, t, setup_s)
            lines += named_figures(args.workload, h, t, cycles)
        if sorted(metrics) != sorted(names):
            print(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(names))}",
                  file=sys.stderr)
            return 1
        for line in lines:
            print(line)
        result = {
            "correct": not h.failures,
            "attempted": h.attempted,
            "failed": len(h.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in names},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
