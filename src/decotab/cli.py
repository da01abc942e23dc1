"""Command-line front end.

Subcommands: check, transform, loglik, prior, posterior, sample, cut, verify.
Exit codes: 0 success, 1 user error (bad files, bad flags, non-decomposable
model, model too large), 2 internal defect.  JSON output renders floats with
17 significant digits; the DECOTAB_TOL environment variable overrides the
default tolerance used by `verify`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from .cuts import NotACutError, cut_decomposition, cut_reference_prior, is_cut
from .graphs import NotDecomposableError, check_decomposable, perfect_order
from .modelio import (
    FIXTURES,
    FileFormatError,
    blocks_to_dict,
    condprobs_from_dict,
    condprobs_to_dict,
    load_data,
    load_fixture,
    load_model,
    theta_from_dict,
    theta_to_dict,
    to_json_text,
)
from .params import (
    SufficientStats,
    cliq_from_cond,
    cliq_from_mod,
    cond_from_cliq,
    loglik as loglik_value,
    mod_from_cliq,
    p_from_xi,
    theta_cond_from_xi,
    xi_from_condprobs,
    xi_from_theta_cond,
)
from .priors import (
    posterior_update,
    reference_prior_pcond,
    reference_prior_theta,
    sample_posterior,
)
from .tables import TableTooLargeError

KINDS = ("pcond", "xi", "cond", "cliq", "mod")


class UserError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (
        UserError, FileFormatError, NotDecomposableError, NotACutError, TableTooLargeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception:
        traceback.print_exc()
        print("internal error: this is a defect, not a usage problem", file=sys.stderr)
        return 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage, not argparse's 2
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="decotab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("check", "decomposability check and perfect clique ordering")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_check)

    p = add("transform", "convert a parameter dump between parametrizations")
    p.add_argument("--model", required=True)
    p.add_argument("--from", dest="frm", required=True, choices=KINDS)
    p.add_argument("--to", dest="to", required=True, choices=KINDS)
    p.add_argument("--params", required=True, help="input dump (JSON)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_transform)

    p = add("loglik", "log likelihood of data under a parameter dump")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cell-counts", action="store_true",
                   help="data file has one row per cell with a count column")
    p.add_argument("--as", dest="as_", required=True, choices=("mod", "cond", "cliq"))
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_loglik)

    p = add("prior", "reference prior for the chosen parametrization")
    p.add_argument("--model", required=True)
    p.add_argument("--as", dest="as_", default="pcond",
                   choices=("pcond", "cond", "cliq", "mod"))
    p.set_defaults(func=cmd_prior)

    p = add("posterior", "conjugate posterior blocks after observing data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--cell-counts", action="store_true")
    p.set_defaults(func=cmd_posterior)

    p = add("sample", "draw from the prior or posterior")
    p.add_argument("--model", required=True)
    p.add_argument("--data", help="optional data; with it the posterior is sampled")
    p.add_argument("--cell-counts", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--as", dest="as_", default="pcond",
                   choices=("pcond", "cond", "cliq", "mod"))
    p.set_defaults(func=cmd_sample)

    p = add("cut", "cut check, factorization table, optional block inventory")
    p.add_argument("--model", required=True)
    p.add_argument("--set", dest="cut_set", required=True,
                   help="comma-separated vertex names")
    p.add_argument("--prior", action="store_true")
    p.set_defaults(func=cmd_cut)

    p = add("verify", "run the brute-force verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--graph", help="fixture name or model file (default: full suite)")
    p.set_defaults(func=cmd_verify)

    return parser


def _load(path: str):
    if path in FIXTURES:
        return load_fixture(path)
    return load_model(path)


def _emit(args, doc: dict, text_lines: list[str] | None = None) -> None:
    if args.format == "json" or text_lines is None:
        sys.stdout.write(to_json_text(doc))
    else:
        print("\n".join(text_lines))


def cmd_check(args) -> int:
    g, spec = _load(args.model)
    res = check_decomposable(g)
    if not res.is_decomposable:
        doc = {"decomposable": False, "chordless_cycle": list(res.bad_cycle)}
        _emit(args, doc, ["not decomposable; chordless cycle: " + "-".join(res.bad_cycle)])
        return 1
    order = perfect_order(g)
    doc = {
        "decomposable": True,
        "elimination_order": list(res.elimination_order),
        "cliques": [list(c) for c in order.cliques],
        "separators": [list(s) for s in order.separators],
        "residuals": [list(r) for r in order.residuals],
        "histories": [list(h) for h in order.histories],
    }
    lines = ["decomposable: yes"]
    for l in range(order.k):
        lines.append(
            f"C_{l + 1} = {{{', '.join(order.cliques[l])}}}"
            f"  S = {{{', '.join(order.separators[l])}}}"
            f"  R = {{{', '.join(order.residuals[l])}}}"
        )
    _emit(args, doc, lines)
    return 0


def _read_params(path: str, kind: str, order, spec):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise UserError(f"{path}: cannot read ({exc})")
    except UnicodeDecodeError as exc:
        raise UserError(f"{path}: not UTF-8 text ({exc})")
    except ValueError as exc:
        raise UserError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise UserError(f"{path}: expected a JSON object with a 'kind' key")
    found = doc.get("kind")
    if found != kind:
        raise UserError(f"{path}: dump kind {found!r} does not match --from {kind!r}")
    if kind == "pcond":
        return condprobs_from_dict(doc, order, spec, source=path)
    return theta_from_dict(doc, order, spec, source=path)


_CHAIN = {"pcond": 0, "xi": 1, "cond": 2, "cliq": 3, "mod": 4}


def _convert(value, frm: str, to: str, order, spec):
    """Walk the transform chain pcond - xi - cond - cliq - mod step by step."""
    pos, goal = _CHAIN[frm], _CHAIN[to]
    kind = frm
    while pos != goal:
        step = 1 if goal > pos else -1
        nxt = [k for k, v in _CHAIN.items() if v == pos + step][0]
        value = _STEPS[(kind, nxt)](value, order, spec)
        pos += step
        kind = nxt
    return value


_STEPS = {
    ("pcond", "xi"): lambda v, o, s: xi_from_condprobs(v),
    ("xi", "pcond"): lambda v, o, s: p_from_xi(v, o, s),
    ("xi", "cond"): lambda v, o, s: theta_cond_from_xi(v, o),
    ("cond", "xi"): lambda v, o, s: xi_from_theta_cond(v, o),
    ("cond", "cliq"): lambda v, o, s: cliq_from_cond(v, o, s),
    ("cliq", "cond"): lambda v, o, s: cond_from_cliq(v, o, s),
    ("cliq", "mod"): lambda v, o, s: mod_from_cliq(v, o, s),
    ("mod", "cliq"): lambda v, o, s: cliq_from_mod(v, o, s),
}


def cmd_transform(args) -> int:
    g, spec = _load(args.model)
    order = perfect_order(g)
    value = _read_params(args.params, args.frm, order, spec)
    result = _convert(value, args.frm, args.to, order, spec)
    doc = (
        condprobs_to_dict(result)
        if args.to == "pcond"
        else theta_to_dict(result, order, spec)
    )
    text = to_json_text(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_loglik(args) -> int:
    g, spec = _load(args.model)
    order = perfect_order(g)
    t = load_data(args.data, spec, cell_counts=args.cell_counts)
    theta = _read_params(args.params, args.as_, order, spec)
    stats = SufficientStats.from_table(t, order)
    value = loglik_value(theta, stats)
    _emit(args, {"loglik": value, "kind": args.as_, "n": t.total},
          [format(value, ".17g")])
    return 0


def cmd_prior(args) -> int:
    g, spec = _load(args.model)
    order = perfect_order(g)
    if args.as_ == "pcond":
        blocks = reference_prior_pcond(order, spec)
        doc = blocks_to_dict(blocks)
        lines = ["reference prior blocks (all hyperparameters 1/2):"]
        lines += [f"  {b.label}: dimension {b.dim}" for b in blocks.blocks]
        _emit(args, doc, lines)
        return 0
    prior = reference_prior_theta(args.as_, order, spec)
    fict = prior.fictitious
    entries = [
        {
            "set": list(k.vars),
            "cell": list(k.cell),
            "slice": None
            if not k.given_vars and set(k.vars) <= set(order.cliques[0])
            else {"set": list(k.given_vars), "cell": list(k.given_cell)},
            "value": str(v),
        }
        for k, v in fict.entries.items()
    ]
    totals = [
        {"key": [str(part) for part in key], "value": str(v)}
        for key, v in fict.totals.items()
    ]
    doc = {
        "kind": "theta-prior",
        "tag": args.as_,
        "statistics": fict.tag,
        "fictitious_total": str(fict.grand_total),
        "fictitious_counts": entries,
        "fictitious_totals": totals,
        "log_normalizer": prior.log_normalizer,
    }
    lines = [
        f"reference prior on {args.as_} (conjugate form, {fict.tag} statistics)",
        f"fictitious total: {fict.grand_total}",
        f"log normalizer: {prior.log_normalizer:.12g}",
        f"fictitious counts: {len(entries)} entries",
    ]
    _emit(args, doc, lines)
    return 0


def cmd_posterior(args) -> int:
    g, spec = _load(args.model)
    order = perfect_order(g)
    t = load_data(args.data, spec, cell_counts=args.cell_counts)
    post = posterior_update(reference_prior_pcond(order, spec), t)
    doc = blocks_to_dict(post)
    lines = [f"posterior after {t.total} observations:"]
    for b in post.blocks:
        alphas = ", ".join(str(Fraction(a)) for a in b.alpha)
        lines.append(f"  {b.label}: alpha = ({alphas})")
    _emit(args, doc, lines)
    return 0


def cmd_sample(args) -> int:
    if args.n < 0:
        raise UserError("--n must be nonnegative")
    _check_seed(args.seed)
    g, spec = _load(args.model)
    order = perfect_order(g)
    blocks = reference_prior_pcond(order, spec)
    source = "prior"
    if args.data:
        t = load_data(args.data, spec, cell_counts=args.cell_counts)
        blocks = posterior_update(blocks, t)
        source = "posterior"
    draws = sample_posterior(blocks, order, seed=args.seed, n_draws=args.n)
    rendered = []
    for cp in draws:
        if args.as_ == "pcond":
            rendered.append(condprobs_to_dict(cp))
        else:
            value = _convert(xi_from_condprobs(cp), "xi", args.as_, order, spec)
            rendered.append(theta_to_dict(value, order, spec))
    doc = {"source": source, "seed": args.seed, "n": args.n, "as": args.as_,
           "draws": rendered}
    sys.stdout.write(to_json_text(doc))
    return 0


def cmd_cut(args) -> int:
    g, spec = _load(args.model)
    names = tuple(v.strip() for v in args.cut_set.split(",") if v.strip())
    unknown = set(names) - set(g.vertices)
    if unknown:
        raise UserError(f"unknown vertices in --set: {sorted(unknown)}")
    chk = is_cut(g, names)
    if not chk.is_cut:
        doc = {
            "is_cut": False,
            "set": list(g.sort(names)),
            "component": list(chk.bad_component),
            "non_adjacent_boundary_pair": list(chk.bad_pair),
        }
        _emit(args, doc, [
            f"not a cut: component {{{', '.join(chk.bad_component)}}} has boundary"
            f" vertices {chk.bad_pair[0]} and {chk.bad_pair[1]} that are not adjacent"
        ])
        return 1
    dec = cut_decomposition(g, names)
    comp_rows = []
    for l, comp in enumerate(dec.components, start=1):
        comp_rows.append(
            {
                "l": l,
                "component": list(comp.members),
                "boundary": list(comp.bd),
                "with_boundary": list(g.sort(comp.members + comp.bd)),
                "cliques": [list(c) for c in comp.order.cliques],
            }
        )
    doc = {
        "is_cut": True,
        "set": list(dec.a),
        "marginal_cliques": [list(c) for c in dec.order_a.cliques],
        "marginal_separators": [list(s) for s in dec.order_a.separators],
        "components": comp_rows,
    }
    lines = [f"cut: {{{', '.join(dec.a)}}}"]
    lines.append(
        "marginal model cliques: "
        + ", ".join("{" + ", ".join(c) + "}" for c in dec.order_a.cliques)
    )
    lines.append("l | B_l | boundary | B_l + boundary | cliques")
    for row in comp_rows:
        lines.append(
            f"{row['l']} | {{{', '.join(row['component'])}}}"
            f" | {{{', '.join(row['boundary'])}}}"
            f" | {{{', '.join(row['with_boundary'])}}}"
            f" | " + ", ".join("{" + ", ".join(c) + "}" for c in row["cliques"])
        )
    if args.prior:
        pri = cut_reference_prior(dec, spec)
        doc["prior"] = blocks_to_dict(pri)
        lines.append("prior blocks (all hyperparameters 1/2):")
        lines += [f"  {b.label}: dimension {b.dim}" for b in pri.blocks]
    _emit(args, doc, lines)
    return 0


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UserError("--seed must be nonnegative")


def _verify_tol() -> float:
    raw = os.environ.get("DECOTAB_TOL", "1e-9")
    try:
        tol = float(raw)
    except ValueError:
        tol = float("nan")
    if not tol >= 0:
        raise UserError(f"DECOTAB_TOL must be a nonnegative number, got {raw!r}")
    return tol


def cmd_verify(args) -> int:
    # Only verify needs the oracle; importing it here spares every other command.
    from .oracle import run_verification

    _check_seed(args.seed)
    tol = _verify_tol()
    report = run_verification(seed=args.seed, graph_source=args.graph, base_tol=tol)
    doc = {
        "all_passed": report.all_passed,
        "checks": [
            {
                "name": c.name,
                "deviation": c.deviation,
                "tolerance": c.tolerance,
                "passed": c.passed,
                "note": c.note,
            }
            for c in report.checks
        ],
    }
    lines = report.lines()
    lines.append(f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
    _emit(args, doc, lines)
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    sys.exit(main())
