"""Span recorder installed around decotab's public functions from outside.

Every traced function is replaced by a wrapper in every ``decotab`` module
namespace that binds it (``cli`` and ``modelio`` bind names at import time,
e.g. ``from .params import mod_from_cliq``), and methods are replaced on
their class.  A span holds the layer name, start, end, parent span and cycle
id; spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Traced public functions, as ``module.attribute`` or ``module.Class.method``.
FUNCTIONS = (
    "graphs.perfect_order",
    "modelio.parse_data_csv",
    "modelio.theta_to_dict",
    "modelio.theta_from_dict",
    "modelio.condprobs_to_dict",
    "modelio.blocks_to_dict",
    "modelio.to_json_text",
    "tables.ingest_rows",
    "tables.marginal_count",
    "params.SufficientStats.from_table",
    "params.loglik",
    "params.xi_from_condprobs",
    "params.theta_cond_from_xi",
    "params.xi_from_theta_cond",
    "params.cliq_from_cond",
    "params.cond_from_cliq",
    "params.p_from_xi",
    "params.markov_residual",
    "params.theta_cond_from_p",
    "params.mod_from_cliq",
    "params.cliq_from_mod",
    "params.theta_mod_from_p",
    "params.p_from_theta_mod",
    "params.CondProbs.joint",
    "priors.reference_prior_pcond",
    "priors.posterior_update",
    "priors.sample_blocks",
    "priors.sample_posterior",
    "priors.reference_prior_theta",
    "cuts.cut_decomposition",
    "cuts.CutProbs.from_joint",
    "cuts.cut_loglik",
    "cuts.cut_reference_prior",
)

# ``loglik`` is reported per coordinate kind of its first argument.
LOGLIK_KINDS = ("cliq", "cond", "mod")


def span_names() -> list[str]:
    out = []
    for name in FUNCTIONS:
        if name == "params.loglik":
            out += [f"params.loglik.{k}" for k in LOGLIK_KINDS]
        else:
            out.append(name)
    return out


class Tracer:
    """In-memory spans for one process; recording only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.cycle = 0
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.cells_scanned = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.cycle))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.cycle)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded decotab namespace."""
        import decotab.cli  # noqa: F401  (loads every module that binds a traced name)

        for qual in FUNCTIONS:
            mod_name, *path = qual.split(".")
            owner = sys.modules[f"decotab.{mod_name}"]
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    setattr(cls, path[1], classmethod(self.wrap(qual, raw.__func__)))
                else:
                    setattr(cls, path[1], self.wrap(qual, raw))
                continue
            original = getattr(owner, path[0])
            wrapper = self._wrapper_for(qual, original)
            for name, module in list(sys.modules.items()):
                if name == "decotab" or name.startswith("decotab."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrapper_for(self, qual: str, original):
        if qual == "params.loglik":
            def loglik(theta, stats):
                return self.span(f"params.loglik.{theta.kind}", original, theta, stats)

            return loglik
        if qual == "tables.marginal_count":
            def marginal_count(t, cell):
                if self.enabled:
                    # Full-table cells the slice sum reads.
                    fixed = 1
                    for v in cell.vars:
                        fixed *= t.spec.size(v)
                    self.cells_scanned += t.counts.size // fixed
                return self.span(qual, original, t, cell)

            return marginal_count
        return self.wrap(qual, original)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return calls, self_s

    def cost_per_span(self, n: int = 20000) -> float:
        """Seconds one recorded span adds to a call, measured on a no-op."""

        def noop():
            return None

        traced = self.wrap("no-op", noop)
        enabled, n_spans = self.enabled, len(self.spans)
        self.enabled = True
        start = time.perf_counter()
        for _ in range(n):
            traced()
        with_span = time.perf_counter() - start
        self.enabled = False
        start = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - start
        self.enabled = enabled
        del self.spans[n_spans:]
        return max(with_span - bare, 0.0) / n
