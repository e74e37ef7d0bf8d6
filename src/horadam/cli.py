"""Command-line front end.

Subcommands:
  eval     print one sequence term exactly
  table    print terms for a range of indices, one row per index
  verify   run a built-in identity checker over a grid
  catalog  list registered identities or verify one
  check    parse an identity written in the DSL and verify it over a grid

Exit codes: 0 all checked cases hold, 1 at least one counterexample,
2 any failure: usage, parse, evaluation, unreadable input or unwritable
output (a one-line diagnostic goes to the error stream).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Optional

from .catalog import catalog_list, catalog_run
from .dsl import RESERVED, default_registry, parse_identity, verify_over_grid
from .errors import HoradamError, UsageError
from .grid import NAME, make_grid, parse_grid
from .kernel import IDENTITIES, IDENTITY_NAMES, ThreeTermRelation, verify_identity_grid
from .report import VerificationReport
from .scalar import int_from_text, rat_from_text, rat_text
from .sequences import Sequence, get_named, make_sequence, named_sequences, term, term_range

__all__ = ["build_parser", "main"]

_SIGNED_NUMBER = re.compile(r"-[-+]*\d")  # any script's digits: the number rule judges them


def _number_flags(parser: argparse.ArgumentParser) -> set:
    """The option strings of parser and its subparsers whose values are numbers."""
    actions = parser._actions
    subs = [p for a in actions if isinstance(a, argparse._SubParsersAction) for p in a.choices.values()]
    flags = {f for a in actions if a.type in (_integer, _rational) for f in a.option_strings}
    return flags.union(*map(_number_flags, subs))


def _attach_signed_numbers(argv: list, flags: set) -> list:
    """Rewrite "--p -3/2" as "--p=-3/2" and "-n --5" as "-n--5" after a number
    flag: argparse takes a word such as -3/2 or --5 for an option string, and
    only plain negative numbers such as -3 for values."""
    out: list = []
    for word in argv:
        if out and out[-1] in flags and _SIGNED_NUMBER.match(word):
            flag = out.pop()
            word = flag + "=" * flag.startswith("--") + word
        out.append(word)
    return out


def _argument_type(parse):
    """An argparse type that reports parse's error as the argument's own."""
    def convert(text: str):
        try:
            return parse(text)
        except HoradamError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return convert


_rational, _integer = _argument_type(rat_from_text), _argument_type(int_from_text)


def _add_output_options(sub, default_format: str) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default=default_format,
        help=f"output format (default: {default_format})",
    )
    sub.add_argument("--output", metavar="PATH", help="write to PATH instead of standard output")


def _add_sequence_selector(sub, required: bool) -> None:
    sub.add_argument("--seq", metavar="NAME", help="named sequence (see 'table --all' columns)")
    sub.add_argument("--p", type=_rational, help="recurrence coefficient on the previous term")
    sub.add_argument("--q", type=_rational, help="recurrence coefficient on the term before that")
    sub.add_argument("--g0", type=_rational, help="term at index 0")
    sub.add_argument("--g1", type=_rational, help="term at index 1")
    sub.set_defaults(_selector_required=required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horadam",
        description="Exact terms and identity verification for second-order linear recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print one term")
    _add_sequence_selector(p_eval, required=True)
    p_eval.add_argument("-n", "--index", dest="n", type=_integer, required=True, help="term index")
    p_eval.add_argument("--output", metavar="PATH", help="write to PATH instead of standard output")

    p_table = sub.add_parser("table", help="print terms over an index range")
    _add_sequence_selector(p_table, required=False)
    p_table.add_argument("--all", action="store_true", help="all six named sequences")
    p_table.add_argument("--from", dest="lo", type=_integer, required=True, help="first index")
    p_table.add_argument("--to", dest="hi", type=_integer, required=True, help="last index")
    _add_output_options(p_table, "csv")

    p_verify = sub.add_parser("verify", help="run a built-in identity checker over a grid")
    p_verify.add_argument("--identity", required=True, choices=IDENTITY_NAMES)
    _add_sequence_selector(p_verify, required=True)
    p_verify.add_argument("--h", metavar="NAME", help="companion sequence by name")
    p_verify.add_argument("--h0", type=_rational, help="companion term at index 0")
    p_verify.add_argument("--h1", type=_rational, help="companion term at index 1")
    p_verify.add_argument("--f1", type=_rational, help="three-term relation weight on shift a")
    p_verify.add_argument("--f2", type=_rational, help="three-term relation weight on shift b")
    p_verify.add_argument("--rel-a", dest="rel_a", type=_integer, help="three-term shift a")
    p_verify.add_argument("--rel-b", dest="rel_b", type=_integer, help="three-term shift b")
    p_verify.add_argument("--grid", help="grid text, e.g. 'n=-3..3,m=-3..3;m<=n'")
    _add_output_options(p_verify, "json")

    p_catalog = sub.add_parser("catalog", help="registered identities")
    catalog_sub = p_catalog.add_subparsers(dest="catalog_command", required=True)
    catalog_sub.add_parser("list", help="print 'id<TAB>description' lines")
    p_run = catalog_sub.add_parser("run", help="verify one entry")
    p_run.add_argument("id", help="catalog entry id, e.g. fib.catalan")
    p_run.add_argument("--grid", help="grid text (default: the entry's grid)")
    p_run.add_argument("--h0", type=_rational, help="companion term at index 0")
    p_run.add_argument("--h1", type=_rational, help="companion term at index 1")
    _add_output_options(p_run, "json")

    p_check = sub.add_parser("check", help="verify an identity written in the DSL")
    source = p_check.add_mutually_exclusive_group(required=True)
    source.add_argument("--expr", help="identity text")
    source.add_argument("--file", help="path to a file holding the identity text")
    p_check.add_argument("--grid", help="grid text covering the identity's free variables")
    p_check.add_argument(
        "--declare",
        action="append",
        default=[],
        metavar="NAME=p,q,g0,g1",
        help="add a sequence to the registry (repeatable)",
    )
    _add_output_options(p_check, "json")

    return parser


# ---------------------------------------------------------------------------
# Selector resolution.


def _custom_params_given(args) -> tuple:
    return tuple(
        name for name in ("p", "q", "g0", "g1") if getattr(args, name, None) is not None
    )


def _resolve_sequence(args) -> Optional[Sequence]:
    custom = _custom_params_given(args)
    if args.seq is not None and custom:
        raise UsageError("--seq excludes --p/--q/--g0/--g1")
    if args.seq is not None:
        return get_named(args.seq)
    if custom:
        if len(custom) != 4:
            missing = [f"--{n}" for n in ("p", "q", "g0", "g1") if n not in custom]
            raise UsageError(f"custom sequence needs all of --p/--q/--g0/--g1; missing {', '.join(missing)}")
        return make_sequence(args.p, args.q, args.g0, args.g1)
    if getattr(args, "_selector_required", False):
        raise UsageError("select a sequence with --seq or with --p/--q/--g0/--g1")
    return None


def _companion_initials(args) -> Optional[tuple]:
    """(h0, h1) from --h0 and --h1, or None when neither is given."""
    inits = (args.h0, args.h1)
    if inits.count(None) == 1:
        raise UsageError("--h0 and --h1 must be given together")
    return None if None in inits else inits


def _resolve_companion(args, base: Sequence) -> Sequence:
    if args.h is not None:
        if (args.h0, args.h1) != (None, None):
            raise UsageError("--h excludes --h0/--h1")
        return get_named(args.h)
    inits = _companion_initials(args)
    return base if inits is None else make_sequence(base.params.p, base.params.q, *inits)


# ---------------------------------------------------------------------------
# Output plumbing.


def _emit(payload: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _emit_report(report: VerificationReport, args) -> int:
    _emit(report.render(args.format), args.output)
    return report.exit_code()


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_eval(args) -> int:
    seq = _resolve_sequence(args)
    _emit(rat_text(term(seq, args.n)) + "\n", args.output)
    return 0


def _table_rows(args) -> tuple:
    if args.all and (args.seq is not None or _custom_params_given(args)):
        raise UsageError("--all excludes --seq and --p/--q/--g0/--g1")
    if args.all:
        named = named_sequences()
        names, seqs = tuple(named), list(named.values())
    else:
        seq = _resolve_sequence(args)
        if seq is None:
            raise UsageError("select sequences with --seq, --p/--q/--g0/--g1, or --all")
        names = (seq.name or "sequence",)
        seqs = [seq]
    if args.lo > args.hi:
        raise UsageError(f"--from {args.lo} is greater than --to {args.hi}")
    columns = ("n",) + tuple(names)
    values = [term_range(s, args.lo, args.hi) for s in seqs]
    rows = [
        [str(n)] + [rat_text(col[i]) for col in values]
        for i, n in enumerate(range(args.lo, args.hi + 1))
    ]
    return columns, rows


def cmd_table(args) -> int:
    columns, rows = _table_rows(args)
    # Every cell is an index or rat_text: no JSON escaping and no CSV quoting.
    if args.format == "json":
        cells = ["    [\n      \"" + '",\n      "'.join(row) + '"\n    ]' for row in rows]
        listed = "[\n" + ",\n".join(cells) + "\n  ]" if cells else "[]"
        payload = f'{json.dumps({"columns": list(columns)}, indent=2)[:-2]},\n  "rows": {listed}\n}}\n'
    elif args.format == "text":
        widths = [max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
                  for i, col in enumerate(columns)]
        lines = ["  ".join(col.rjust(widths[i]) for i, col in enumerate(columns))]
        lines += ["  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        payload = "".join(",".join(row) + "\n" for row in rows)
    _emit(payload, args.output)
    return 0


def cmd_verify(args) -> int:
    g = _resolve_sequence(args)
    spec = IDENTITIES[args.identity]
    if not spec.takes_companion and any(v is not None for v in (args.h, args.h0, args.h1)):
        raise UsageError(f"--h/--h0/--h1 do not apply to {args.identity}, which reads one sequence")
    h = _resolve_companion(args, g)
    rel = None
    flags = (args.f1, args.f2, args.rel_a, args.rel_b)
    if spec.takes_relation:
        if (h.params, h.g0, h.g1) != (g.params, g.g0, g.g1) and all(v is None for v in flags):
            raise UsageError(
                f"{args.identity} with a companion Y needs its relation from --f1, --f2,"
                " --rel-a and --rel-b: the default X(n) = p*X(n-1) + q*Y(n-2) holds only"
                " when Y is X"
            )
        rel = ThreeTermRelation(
            g.params.p if args.f1 is None else args.f1,
            g.params.q if args.f2 is None else args.f2,
            1 if args.rel_a is None else args.rel_a,
            2 if args.rel_b is None else args.rel_b,
        )
    elif any(v is not None for v in flags):
        raise UsageError("--f1/--f2/--rel-a/--rel-b apply only to lemma identities")
    grid = parse_grid(args.grid if args.grid is not None else spec.default_grid)
    report = verify_identity_grid(args.identity, g, h, grid, rel=rel)
    return _emit_report(report, args)


def cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        payload = "".join(f"{e.id}\t{e.description}\n" for e in catalog_list())
        _emit(payload, None)
        return 0
    report = catalog_run(args.id, args.grid, _companion_initials(args))
    return _emit_report(report, args)


def _parse_declaration(text: str):
    name, sep, params = text.partition("=")
    name, parts = name.strip(), params.split(",")
    if not sep or not re.fullmatch(NAME, name) or len(parts) != 4:
        raise UsageError(f"bad --declare {text!r}; expected NAME=p,q,g0,g1")
    if name in RESERVED:  # the DSL reads these words only as sum(...) and binom(...)
        raise UsageError(f"bad --declare {text!r}; {name!r} is reserved")
    p, q, g0, g1 = map(rat_from_text, parts)
    return name, make_sequence(p, q, g0, g1, name=name)


def cmd_check(args) -> int:
    if args.expr is not None:
        text = args.expr
    else:
        path = Path(args.file)
        if not path.is_file():
            raise UsageError(f"{'not a file' if path.exists() else 'no such file'}: {args.file}")
        text = path.read_text(encoding="utf-8")
    ast = parse_identity(text)
    registry = default_registry()
    for declaration in args.declare:
        name, seq = _parse_declaration(declaration)
        registry[name] = seq
    if args.grid is not None:
        grid = parse_grid(args.grid)
    elif ast.free_vars:
        raise UsageError(
            f"--grid is required; the identity has free variables {', '.join(ast.free_vars)}"
        )
    else:
        grid = make_grid({})
    report = verify_over_grid(ast, grid, registry)
    return _emit_report(report, args)


_DISPATCH = {
    "eval": cmd_eval,
    "table": cmd_table,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
    "check": cmd_check,
}


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_signed_numbers(argv, _number_flags(parser)))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except (HoradamError, OSError, UnicodeDecodeError, RecursionError) as exc:
        # Exit code 1 means "counterexample found"; every failure is a 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
