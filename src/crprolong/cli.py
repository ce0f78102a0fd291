"""Command line front end.

Subcommands: ``witt`` (dimension/length table), ``symbol`` (construct and
print a symbol algebra), ``verify`` (check the automorphism-prolongation
isomorphism for a model, a codimension, or a whole sweep), ``models``
(list the catalog with its CR fields; as JSON, a loadable catalog file).

Exit codes: 0 success/confirmed, 1 verification failure, 2 usage or
input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .crmodels import VerificationFailed, verify_theorem
from .freelie import cumulative_dim, witt_dim
from .frames import builtin_catalog, catalog_to_json, cr_field, load_catalog, symbol_from_frame
from .liealg import QuotientSpec, build_symbol_algebra

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _write_output(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _load_models(path):
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return load_catalog(fh.read())
    return builtin_catalog()


def cmd_witt(args) -> int:
    if args.max_length < 1:
        raise ValueError(f"--max-length must be at least 1, got {args.max_length}")
    rows = []
    for ell in range(1, args.max_length + 1):
        wd = witt_dim(ell)
        cum = cumulative_dim(ell)
        lo = cumulative_dim(ell - 1) - 1 if ell > 1 else -1
        hi = cum - 2
        if hi < max(lo, 1):
            krange = "-"
        elif lo == hi or max(lo, 1) == hi:
            krange = f"k={hi}"
        else:
            krange = f"k={max(lo, 1)}..{hi}"
        rows.append((ell, wd, cum, krange))
    if args.format == "json":
        out = json.dumps(
            [
                {"length": r[0], "dim": r[1], "cumulative": r[2], "codims_with_this_length": r[3]}
                for r in rows
            ],
            indent=2,
        )
    else:
        lines = ["length  dim  cumulative  codims with this length"]
        for ell, wd, cum, krange in rows:
            lines.append(f"{ell:>6}  {wd:>3}  {cum:>10}  {krange}")
        out = "\n".join(lines)
    _write_output(out, args.output)
    return 0


def _catalog_model(args):
    models = _load_models(args.catalog)
    if args.model not in models:
        raise ValueError(f"unknown model id {args.model!r}")
    return models[args.model]


def _resolve_symbol(args):
    if args.model:
        if args.quotient is not None:
            raise ValueError("--quotient applies to --k only; a --model symbol takes its quotient from the model")
        return symbol_from_frame(_catalog_model(args))
    quotient = None
    if args.quotient not in (None, "default"):
        with open(args.quotient, "r", encoding="utf-8") as fh:
            quotient = QuotientSpec.from_json_dict(json.load(fh))
    return build_symbol_algebra(args.k, quotient)


def _symbol_text(symbol) -> str:
    lines = [
        f"symbol algebra: k={symbol.codim} rho={symbol.length} "
        f"dims per degree (-1..-rho): {symbol.dims_by_degree()}",
        f"quotient: {symbol.quotient.kind} ({symbol.quotient.provenance or 'n/a'})",
        "basis: " + ", ".join(f"{l}={w}" for l, w in zip(symbol.algebra.labels, symbol.words)),
        "brackets:",
    ]
    for (i, j), terms in sorted(symbol.algebra.table.items()):
        txt = " + ".join(
            f"({c})·{symbol.algebra.labels[k]}" for k, c in sorted(terms.items())
        )
        lines.append(f"  [{symbol.algebra.labels[i]}, {symbol.algebra.labels[j]}] = {txt}")
    return "\n".join(lines)


def cmd_symbol(args) -> int:
    symbol = _resolve_symbol(args)
    if args.format == "json":
        _write_output(symbol.to_json(), args.output)
    else:
        _write_output(_symbol_text(symbol), args.output)
    return 0


def cmd_verify(args) -> int:
    reports = []
    if args.all is not None:
        if args.all < 1:
            raise ValueError(f"--all must be at least 1, got {args.all}")
        models = _load_models(args.catalog)
        for mid in sorted(models):
            if models[mid].codim > args.all:
                continue
            reports.append(_verify_one(models[mid], mid))
    elif args.model:
        reports.append(_verify_one(_catalog_model(args), args.model))
    else:
        symbol = build_symbol_algebra(args.k)
        reports.append(_run_verify(symbol, f"k{args.k}:default"))
    failures = sum(1 for r in reports if r.verdict != "confirmed")
    if args.format == "json":
        out = json.dumps([r.to_json_dict() for r in reports], indent=2)
    else:
        out = "\n\n".join(r.text() for r in reports)
    _write_output(out, args.output)
    return VERIFY_ERROR if failures else 0


def _verify_one(model, mid):
    symbol = symbol_from_frame(model)
    return _run_verify(symbol, mid)


def _run_verify(symbol, mid):
    try:
        report = verify_theorem(symbol)
    except VerificationFailed as exc:
        if exc.report is None:
            raise
        report = exc.report
    report.model_id = mid
    return report


def cmd_models(args) -> int:
    models = _load_models(args.catalog)
    if args.format == "json":
        _write_output(catalog_to_json(models), args.output)
        return 0
    lines = []
    for mid in sorted(models):
        m = models[mid]
        lines.append(f"{mid}: k={m.codim} rho={m.length}")
        if m.rigid:
            for eq in m.defining_equations():
                lines.append(f"  {eq}")
        else:
            lines.append(f"  ({m.provenance})")
        lines.append(f"  L = {cr_field(m).pretty()}")
    _write_output("\n".join(lines), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crprolong",
        description=(
            "Exact computation of symbol algebras, Levi-Tanaka prolongations and "
            "infinitesimal CR automorphism algebras of totally nondegenerate "
            "CR models of CR dimension one."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--output", "-o", default=None, help="write output to a file")
    catalog = argparse.ArgumentParser(add_help=False)
    catalog.add_argument("--catalog", default=None, help="path to a JSON model catalog")

    p = sub.add_parser("witt", parents=[common], help="dimension and length table")
    p.add_argument("--max-length", type=int, default=6)

    p = sub.add_parser("symbol", parents=[common, catalog], help="construct a symbol algebra")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--k", type=int, help="codimension (default quotient)")
    sel.add_argument("--model", help="catalog model id (frame-induced quotient)")
    p.add_argument("--quotient", help="with --k: 'default' (the default) or a JSON quotient-spec file")

    p = sub.add_parser("verify", parents=[common, catalog], help="verify the isomorphism theorem")
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--k", type=int, help="codimension (default quotient)")
    sel.add_argument("--model", help="catalog model id")
    sel.add_argument("--all", type=int, metavar="K_MAX", help="sweep all catalog models with k <= K_MAX")

    sub.add_parser("models", parents=[common, catalog], help="list catalog models and their CR fields")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        if args.command == "witt":
            return cmd_witt(args)
        if args.command == "symbol":
            return cmd_symbol(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "models":
            return cmd_models(args)
        parser.error(f"unknown command {args.command}")
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
