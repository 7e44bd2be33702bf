"""Command-line driver.

Exit codes: 0 success, 1 standard output closed before the report was
written (a broken pipe), 2 usage or input errors, 3 inconsistent fact base.

`tau deduce` and `tau catalog` write each chunk of their report (see
`report.chunks`) with one `write`.

A `tau` process, the installed script or `python -m taucalc.cli`, starts
at `run`, which calls `main` and then freezes the heap (`gc.freeze()`).
The shutdown collections skip frozen objects, so the process exits
without walking every class, function and module dict of its imports
(about 10 ms); the OS takes the memory back, atexit handlers still run
and stdout is still flushed.  `main` is the in-process API: it never
freezes, and it leaves the caller's collector setting as it found it.

`braid`, `grid` and `families` come from `deduce`, which makes them lazy.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from itertools import chain
from types import SimpleNamespace

from . import catalog as catalog_mod
from .deduce import (Double, braid_mod, families, grid_mod, propagate, query,
                     replay)
from .errors import InconsistentError, TaucalcError
from .interval import Interval
from .report import build_report, chunks, dash, render_report, to_json


def _cmd_braid(args) -> int:
    b = braid_mod.parse_braid(args.word)
    comps = braid_mod.closure_components(b)
    # Every value first, so that an error prints no half report.
    lines = [f"strands: {b.strands}  length: {b.length}  "
             f"k+: {b.k_plus}  k-: {b.k_minus}  writhe: {b.writhe}",
             f"closure components: {comps}"]
    if comps == 1:
        lines += [f"bennequin genus: {braid_mod.bennequin_genus(b, comps)}",
                  "tau lower bound: "
                  f"{braid_mod.slice_bennequin_lower(b, comps)}"]
    if args.positive:
        v = braid_mod.tau_positive_braid(b, comps)
        lines.append(f"tau = {v}, g4 = {v}, g3 = {v}")
    print("\n".join(lines))
    return 0


def _cmd_grid(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        try:
            g = grid_mod.parse_grid(fh.read())
        except UnicodeDecodeError as e:
            raise TaucalcError(f"{args.file}: {e}") from None
    known = comps, writhe, census = (grid_mod.components(g),
                                     grid_mod.writhe_grid(g),
                                     grid_mod.corner_census(g))
    print(f"size: {g.size}")
    print(f"components: {comps}")
    print(f"writhe: {writhe}")
    print("corners: " + "  ".join(f"{k}: {n}" for k, n in census.items()))
    if comps == 1:
        print(f"tb: {grid_mod.tb(g, known)}")
    return 0


def _cmd_torus(args) -> int:
    v = families.tau_torus(families.TorusParams(args.p, args.q))
    if not Interval.exact(v).is_printable:
        raise TaucalcError("(p-1)(q-1)/2 has more digits than str() prints")
    print(v)
    return 0


def _cmd_pretzel(args) -> int:
    v = families.pretzel_tau(families.PretzelParams(tuple(args.twists)))
    print("inapplicable" if v is None else v)
    return 0


def _cmd_double(args) -> int:
    least = Double.counts["iterations"]
    if args.iterations < least:
        raise TaucalcError(f"--iterations must be >= {least}, "
                           f"got {args.iterations}")
    v = families.whitehead_double_tau(args.tb_lower)
    print("inapplicable" if v is None else v)
    return 0


def _escaped(text: str) -> str:
    """`text` with each character written as its escape where it is not
    printable (a newline, an escape, a lone surrogate) or stdout cannot
    encode it, so that a knot id can neither break a line of the text
    report nor stop its writing.  A backslash is doubled, so that an id
    cannot print as another id's escape."""
    if not text.isprintable() or "\\" in text:
        text = "".join(c if c.isprintable() and c != "\\" else
                       c.encode("unicode_escape").decode("ascii")
                       for c in text)
    if text.isascii():
        return text
    enc = sys.stdout.encoding or "utf-8"  # a StringIO has no encoding
    return text.encode(enc, "backslashreplace").decode(enc)


def _run_deduction(args) -> int:
    """`tau deduce FACTS` and `tau catalog`: the same run on another base."""
    base = (catalog_mod.load_factbase(args.file) if args.command == "deduce"
            else catalog_mod.load_bundled_catalog())
    cert = propagate(base)[1]
    fixed = replay(cert, base)  # what `cert` re-derives, or BrokenStepError
    ids = None  # every knot
    if args.query is not None:
        rec, cert = query(fixed, cert, args.query)
        ids = [rec.id]
    rows = build_report(fixed, cert, ids)
    if args.json:
        out = chain(to_json(rows, cert, args.certify), ["\n"])
    elif args.query is not None:
        row = rows[0]
        out = chunks(chain(
            [f"{_escaped(row.id)}: tau = {row.tau}, g4 = {row.g4}, "
             f"g3 = {dash(row.g3)}, tb >= {dash(row.tb_lower)}"],
            ("  " + _escaped(step.describe()) for step in cert)), "\n",
            tail="\n")
    else:
        # Pad each id as stdout will write it, so the columns line up.
        rows = [row._replace(id=_escaped(row.id)) for row in rows]
        lines = render_report(rows, len(cert))
        if args.certify:
            lines = chain(lines, (_escaped(step.describe()) for step in cert))
        out = chunks(lines, "\n", tail="\n")
    write = sys.stdout.write
    for chunk in out:
        write(chunk)
    return 0


USAGE = """\
usage: tau braid WORD [--positive]    analyze a braid word 'n: l1 l2 ...'
       tau grid FILE                  analyze a grid diagram file
       tau torus P Q                  invariant of the (p,q) torus knot
       tau pretzel T1 T2 ...          invariant of an odd pretzel knot
       tau double --companion NAME --tb-lower N [--iterations K]
                                      invariant of a Whitehead double
       tau deduce FACTS [--json] [--certify] [--query ID]
                                      propagate a fact file
       tau catalog [--json] [--certify] [--query ID]
                                      run the bundled catalog
"""

# Each command's handler and arguments.  A positional is given by its type
# (list: one or more ints), an option ("--...") by its type if required,
# else by its default: False makes a flag, None takes a string.
_DEDUCTION = {"--certify": False, "--query": None, "--json": False}
COMMANDS = {
    "braid": (_cmd_braid, {"word": str, "--positive": False}),
    "grid": (_cmd_grid, {"file": str}),
    "torus": (_cmd_torus, {"p": int, "q": int}),
    "pretzel": (_cmd_pretzel, {"twists": list}),
    "double": (_cmd_double, {"--companion": str, "--tb-lower": int,
                             "--iterations": 1}),
    "deduce": (_run_deduction, {"file": str, **_DEDUCTION}),
    "catalog": (_run_deduction, _DEDUCTION),
}


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}tau: error: {message}\n")
    raise SystemExit(2)


def _option(word: str, names) -> tuple[str, str | None] | None:
    """The option that `word` names and its `=value`, or None if `word` is a
    positional.  As in argparse, a unique prefix names a long option, and
    `-`, a negative number and a word with a space are positionals."""
    name, eq, value = word.partition("=")
    found = [o for o in names
             if o == name or name[:2] == "--" and o.startswith(name)]
    if len(found) == 1:
        return found[0], value if eq else None
    if found or (word.startswith("-") and word != "-" and " " not in word
                 and not re.match(r"^-\d+$|^-\d*\.\d+$", word)):
        _usage_error(f"{'ambiguous' if found else 'unknown'} option: {word}")
    return None


def parse_args(argv) -> SimpleNamespace:
    """`argv` read by COMMANDS in one pass, as argparse would, into the
    namespace that `args.fn(args)` reads.  -h or --help prints USAGE and
    exits 0; a usage error exits 2."""
    command = argv[0] if argv else None
    fn, spec = COMMANDS.get(command, (None, {}))
    names = [*(o for o in spec if o[0] == "-"), "-h", "--help"]
    given, values, words = {}, [], iter(argv[1:] if fn else argv)
    for word in words:
        if word == "--":  # the rest are positionals
            values += words
        elif (option := _option(word, names)) is None:
            values.append(word)
        elif option[0] not in spec and option[1] is None:  # -h or --help
            print(USAGE, end="", flush=True)  # a closed pipe raises here
            raise SystemExit(0)
        else:
            name, value = option
            if spec.get(name, False) is False:  # a flag, or --help=...
                value = value is None or _usage_error(f"{name} takes no value")
            elif value is None:
                value = next(words, "--")
                if value == "--" or _option(value, names):
                    _usage_error(f"{name} expects one argument")
            given.setdefault(name, []).append(value)
    if fn is None:
        _usage_error(f"invalid command: {command!r}" if argv else "no command")
    args = SimpleNamespace(command=command, fn=fn)
    for name, kind in spec.items():
        if name[0] != "-" and values:  # the next positional, or all
            given[name] = values if kind is list else values[:1]
            values = [] if kind is list else values[1:]
        if name not in given and isinstance(kind, type):
            _usage_error(f"the following arguments are required: {name}")
        value = given.get(name, [kind])
        try:  # every value given, as argparse converts each
            if kind in (int, list) or type(kind) is int:
                value = [*map(int, value)]
        except ValueError:
            _usage_error(f"{name}: invalid int value")
        setattr(args, name.lstrip("-").replace("-", "_"),
                value if kind is list else value[-1])
    if values:
        _usage_error(f"unrecognized arguments: {' '.join(values)}")
    return args


def main(argv=None) -> int:
    # A run's heap is acyclic named tuples, so the cyclic collector would
    # only scan it; the caller's setting comes back on every exit.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader is gone; as the `signal` docs advise, flush to devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1
    except InconsistentError as e:
        print(f"inconsistent: {e}", file=sys.stderr)
        return 3
    except (TaucalcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> int:
    """The process entry: `main`, then a frozen heap for the exit."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
