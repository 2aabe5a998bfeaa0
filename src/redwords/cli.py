"""Command-line front end: one subcommand per capability, scriptable output.

Exit codes: 0 success, 1 usage error (a --cap below 1 among them), 2 a
proved statement failed (an implementation bug, never bad input), 3 the word
set exceeded the cap while --strict was set.  Without --strict a cap skip is
reported on stderr and the run still exits 0.

The subcommands that partition R(w) import the graph modules, and with them
numpy, only when they run.  ``interval`` reads the descent-stripping closure,
so it never enumerates R(w) and takes no cap.
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import islice
from typing import Iterable, Iterator, Sequence

from . import __version__
from .characterizations import catalan, count_lower, count_upper
from .errors import InvariantViolation, WordCapExceeded
from .permutation import Permutation, parse_window, window_text
from .reduced_words import BRAID, COMMUTATION, DEFAULT_WORD_CAP, enumerate_words
from .scan import CHECK_GROUPS, ScanOptions, _canonical, scan
from .weak_order import interval_by_closure

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="redwords",
        description="Reduced words of permutations: braid and commutation "
        "classes, move graphs, bounds, and exhaustive verification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_perm_command(name, handler, help_text, formats=("text", "json"), capped=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("window", help='permutation window, e.g. "[25314]" or "2 5 3 1 4"')
        p.add_argument("--format", choices=formats, default=formats[0])
        if capped:
            p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP,
                           help="skip when |R(w)| exceeds this")
            p.add_argument("--strict", action="store_true",
                           help="exit 3 instead of reporting a cap skip")
        return p

    add_perm_command("words", _cmd_words, "list R(w) in lexicographic order")
    p = add_perm_command("classes", _cmd_classes, "list braid or commutation classes")
    p.add_argument("--kind", choices=(BRAID, COMMUTATION), default=COMMUTATION)
    add_perm_command("table", _cmd_table, "the braid-by-commutation intersection table",
                     formats=("text", "json", "csv"))
    p = add_perm_command("graph", _cmd_graph, "move graph or a contraction, DOT or JSON",
                         formats=("dot", "json"))
    p.add_argument("--which", choices=("word", "gc", "gb", "gamma"), default="word")
    add_perm_command("check", _cmd_check, "bound status and every predicate for one permutation")
    add_perm_command("interval", _cmd_interval, "weak order interval: rank sizes, width, support",
                     capped=False)

    p = sub.add_parser("counts", help="closed-form Catalan / upper / lower counts")
    p.set_defaults(handler=_cmd_counts)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("scan", help="verify every statement across all of S_n")
    p.set_defaults(handler=_cmd_scan)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; at most one per CPU is started")
    p.add_argument("--checks", default="all",
                   help=f"comma list from {','.join(CHECK_GROUPS)}, or all/none")
    p.add_argument("--output", default="-",
                   help="JSON Lines destination; - for stdout (default)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 if any permutation was skipped at the cap")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="text prints the report summary instead of JSON Lines")

    p = sub.add_parser("conjecture", help="test the weak-order conjecture on all of S_n")
    p.set_defaults(handler=_cmd_conjecture)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_WORD_CAP)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes; at most one per CPU is started")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first run rather than at import, and then reused: building
    # it costs more than a small request.
    return build_parser()


@functools.cache
def _fix_mmap_threshold() -> None:
    """Keep glibc's malloc from raising its mmap threshold in this process.

    By default, freeing a block above the threshold (128 KiB) raises the
    threshold to that block's size, and the heap's trim threshold to twice
    that.  After the numpy temporaries of one large request, a process that
    goes on answering requests then keeps several MB of freed heap, and its
    peak RSS moves by up to 10 MB with the order of the requests.  Setting
    the threshold once pins it at the default.  The scans leave it alone:
    there the pinned threshold costs about a fifth of the time.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def run(argv: Sequence[str]) -> int:
    """Parse argv, execute, and return the exit code (no SystemExit)."""
    parser = _parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "cap", 1) < 1:
            parser.error("--cap must be at least 1")
    except _UsageError as exc:
        print(f"redwords: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if hasattr(args, "window"):  # a one-permutation request, not a scan
        _fix_mmap_threshold()
    try:
        return args.handler(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"redwords: {exc}", file=sys.stderr)
        return 1
    except WordCapExceeded as exc:
        if getattr(args, "strict", False):
            print(f"redwords: {exc}", file=sys.stderr)
            return 3
        print(f"redwords: skipped: {exc}", file=sys.stderr)
        return 0
    except InvariantViolation as exc:
        print(f"redwords: theorem check failed: {exc}", file=sys.stderr)
        return 2


def _emit_json_around(obj: dict, key: str, write_value) -> None:
    """Print ``_canonical(obj)`` with obj[key] added, where the value is
    written by ``write_value()`` straight to stdout, so that its JSON text is
    never held whole.
    """
    text = _canonical({**obj, key: None})
    head, tail = text.split(f'"{key}":null')
    sys.stdout.write(f'{head}"{key}":')
    write_value()
    sys.stdout.write(tail + "\n")


def _write_json_array(chunks: Iterable[str]) -> None:
    """Write the JSON array whose items come as chunks of comma-joined JSON
    text, one chunk at a time, so that the array is never held whole."""
    sys.stdout.write("[")
    sep = ""
    for chunk in chunks:
        sys.stdout.write(sep)
        sys.stdout.write(chunk)
        sep = ","
    sys.stdout.write("]")


def _joined(items: Iterable[str], sep: str = ",") -> Iterator[str]:
    """Items joined by ``sep``, 1,024 at a time: JSON texts, or lines."""
    items = iter(items)
    while chunk := list(islice(items, 1024)):
        yield sep.join(chunk)


def _cmd_words(args) -> int:
    w = parse_window(args.window)
    ws = enumerate_words(w, cap=args.cap)
    if args.format == "json":
        _emit_json_around({
            "schema": SCHEMA,
            "window": list(w.window),
            "n": w.n,
            "length": w.length(),
            "count": len(ws),
        }, "words", lambda: _write_json_array(ws.text_chunks(",", '"')))
    else:
        for chunk in ws.text_chunks("\n", ""):
            sys.stdout.write(chunk + "\n")
    return 0


def _cmd_classes(args) -> int:
    from .graphs import analyse

    w = parse_window(args.window)
    an = analyse(w, cap=args.cap)
    classes = an.partition(args.kind).grouped(an.word_set.texts)
    label = "B" if args.kind == BRAID else "C"
    if args.format == "json":
        print(_canonical({
            "schema": SCHEMA,
            "window": list(w.window),
            "kind": args.kind,
            "classes": classes,
        }))
    else:
        for k, cls in enumerate(classes, 1):
            print(f"{label}{k}: " + " ".join(cls))
    return 0


def _cmd_table(args) -> int:
    from .graphs import analyse, build_table

    w = parse_window(args.window)
    an = analyse(w, cap=args.cap)
    table = build_table(an)
    if args.format == "json":
        _emit_json_around({
            "schema": SCHEMA,
            "window": list(w.window),
            "rows": table.rows,
            "cols": table.cols,
            "jump_property": an.gamma_connected,
        }, "cells", lambda: _write_json_array(_joined(
            "[" + ",".join(row) + "]" for row in table.iter_rows(empty="null", quote='"')
        )))
        return 0
    if args.format == "csv":
        print("," + ",".join(f"C{c + 1}" for c in range(table.cols)))
        for r, row in enumerate(table.iter_rows(empty=""), 1):
            print(f"B{r}," + ",".join(row))
    else:
        # Every word fills exactly one cell, so the widest cell is the widest word.
        width = max(5, *map(len, an.word_set.texts))
        header = "     " + " ".join(f"C{c + 1}".ljust(width) for c in range(table.cols))
        print(header.rstrip())
        # Most cells of a large table are empty, so the empty cell is padded once.
        for r, row in enumerate(table.iter_rows(empty="-".ljust(width), width=width), 1):
            print(f"B{r}".ljust(5) + " ".join(row).rstrip())
    return 0


def _cmd_graph(args) -> int:
    from .graphs import analyse, build_class_graph, build_gamma, build_word_graph, dot_lines

    w = parse_window(args.window)
    an = analyse(w, cap=args.cap)
    if args.which == "gamma":
        g = build_gamma(an)
    elif args.which == "word":
        g = build_word_graph(an)
    else:
        g = build_class_graph(an, COMMUTATION if args.which == "gc" else BRAID)
    if args.format == "json":
        # Kinds and word texts are plain ASCII that JSON needs no escape for.
        _emit_json_around({
            "schema": SCHEMA,
            "window": list(w.window),
            "which": args.which,
            "vertices": g.labels,
        }, "edges", lambda: _write_json_array(_joined(
            '{"kind":"%s","u":%d,"v":%d,"word":%s}'
            % (kind, u, v, "null" if word is None else f'"{word}"')
            for kind, u, v, word in g.iter_edges()
        )))
    else:
        for chunk in _joined(dot_lines(g, "word" if args.which == "word" else "class"), "\n"):
            sys.stdout.write(chunk + "\n")
    return 0


# The text lines of `check`, in order, as (label, ScanRecord field).
_CHECK_FIELDS = tuple(
    (field, field)
    for field in (
        "length", "r", "b", "c", "achieves_upper", "achieves_lower",
        "circuit_free", "fully_commutative", "single_braid_class",
        "upper_predicate", "lower_predicate", "width", "support_size",
    )
) + (("conjecture", "conjecture_status"),)


def _cmd_check(args) -> int:
    from .reduced_words import count_words
    from .scan import verify_permutation

    w = parse_window(args.window)
    record = verify_permutation(w, word_cap=args.cap)
    if record.skipped:
        raise WordCapExceeded(w.window, count_words(w), args.cap)
    if args.format == "json":
        sys.stdout.write(record.line())
    else:
        print(f"window: {window_text(w)}")
        for label, field in _CHECK_FIELDS:
            print(f"{label}: {getattr(record, field)}")
    if record.violations:
        raise InvariantViolation("; ".join(record.violations))
    return 0


def _cmd_interval(args) -> int:
    w = parse_window(args.window)
    iv = interval_by_closure(w)
    if args.format == "json":
        print(_canonical({
            "schema": SCHEMA,
            "window": list(w.window),
            "rank_sizes": list(iv.rank_sizes),
            "width": iv.width,
            "support_size": iv.support_size,
            "size": iv.size,
            "ranks": [
                [window_text(Permutation(win)) for win in rank] for rank in iv.ranks
            ],
        }))
    else:
        print(f"window: {window_text(w)}")
        print("rank_sizes: " + " ".join(str(s) for s in iv.rank_sizes))
        print(f"width: {iv.width}")
        print(f"support_size: {iv.support_size}")
        print(f"interval_size: {iv.size}")
    return 0


def _cmd_counts(args) -> int:
    n = args.n
    values = {"n": n, "catalan": catalan(n), "upper": count_upper(n), "lower": count_lower(n)}
    if args.format == "json":
        print(_canonical({"schema": SCHEMA, **values}))
    elif args.format == "csv":
        print("n,catalan,upper,lower")
        print(f"{n},{values['catalan']},{values['upper']},{values['lower']}")
    else:
        print(f"catalan({n}) = {values['catalan']}")
        print(f"upper({n}) = {values['upper']}")
        print(f"lower({n}) = {values['lower']}")
    return 0


def _parse_checks(text: str) -> frozenset[str]:
    if text == "all":
        return frozenset(CHECK_GROUPS)
    if text == "none":
        return frozenset()
    picked = frozenset(part.strip() for part in text.split(",") if part.strip())
    unknown = picked - set(CHECK_GROUPS)
    if unknown:
        raise _UsageError(f"unknown checks: {', '.join(sorted(unknown))}")
    return picked


def _cmd_scan(args) -> int:
    checks = _parse_checks(args.checks)
    to_stdout = args.output == "-"
    options = ScanOptions(
        n=args.n,
        word_cap=args.cap,
        checks=checks,
        workers=args.workers,
        output_path=None if to_stdout else args.output,
    )
    report = scan(options)
    if args.format == "text":
        print(f"S_{report.n}: {report.total} permutations, "
              f"{report.skipped_count} skipped, {report.violation_count} violations")
        print(f"upper achievers: {report.upper_achiever_count} "
              f"(closed form {report.closed_form_upper})")
        print(f"lower achievers: {report.lower_achiever_count} "
              f"(closed form {report.closed_form_lower})")
        print(f"closed_form_match: {report.closed_form_match}")
        if "classes" in checks:
            print(f"braid classes outside the 2^x 3^y path-product model: "
                  f"{len(report.braid_nonconforming)} permutations")
        if "conjecture" in checks:
            print(f"conjecture counterexamples: {len(report.conjecture_counterexamples)}")
    elif to_stdout:
        sys.stdout.writelines(report.lines())
    return _strict_exit(args, report.skipped_count)


def _cmd_conjecture(args) -> int:
    checks = frozenset(("weak_order", "conjecture"))
    options = ScanOptions(
        n=args.n, word_cap=args.cap, checks=checks, workers=args.workers,
    )
    report = scan(options)
    # Every record of these checks agrees, is skipped or is a counterexample,
    # so the report's tallies give the agreements without decoding a record.
    skipped = report.skipped_count
    counterexamples = [list(win) for win in report.conjecture_counterexamples]
    agreements = report.total - skipped - len(counterexamples)
    if args.format == "json":
        print(_canonical({
            "schema": SCHEMA,
            "n": report.n,
            "total": report.total,
            "agreements": agreements,
            "skipped": skipped,
            "counterexamples": counterexamples,
        }))
    else:
        print(f"S_{report.n}: {agreements} of {report.total} agree, {skipped} skipped")
        if counterexamples:
            print("COUNTEREXAMPLES FOUND:")
            for win in counterexamples:
                print(f"  {win}")
        else:
            print("counterexamples: none")
    return _strict_exit(args, skipped)


def _strict_exit(args, skipped: int) -> int:
    """The exit code of a scan: 3 if it skipped permutations under --strict."""
    if args.strict and skipped:
        print(f"redwords: {skipped} permutations skipped at cap {args.cap}",
              file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
