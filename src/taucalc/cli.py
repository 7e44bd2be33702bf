"""Command-line driver.

Exit codes: 0 success, 1 standard output closed before the report was
written (a broken pipe), 2 usage or input errors, 3 inconsistent fact base.

`tau deduce` and `tau catalog` write each chunk of their report (see
`report.chunks`) with one `write`.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain

from . import braid as braid_mod
from . import catalog as catalog_mod
from . import families, grid as grid_mod
from .deduce import Double, propagate, query, replay
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
        lines += [f"bennequin genus: {braid_mod.bennequin_genus(b)}",
                  f"tau lower bound: {braid_mod.slice_bennequin_lower(b)}"]
    if args.positive:
        v = braid_mod.tau_positive_braid(b)
        lines.append(f"tau = {v}, g4 = {v}, g3 = {v}")
    print("\n".join(lines))
    return 0


def _cmd_grid(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        try:
            g = grid_mod.parse_grid(fh.read())
        except UnicodeDecodeError as e:
            raise TaucalcError(f"{args.file}: {e}") from None
    comps = grid_mod.components(g)
    census = grid_mod.corner_census(g)
    print(f"size: {g.size}")
    print(f"components: {comps}")
    print(f"writhe: {grid_mod.writhe_grid(g)}")
    print("corners: " + "  ".join(f"{k}: {n}" for k, n in census.items()))
    if comps == 1:
        print(f"tb: {grid_mod.tb(g)}")
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
    fixed, cert = propagate(base)
    replay(cert, base)  # raises BrokenStepError on a step that does not follow
    records = fixed.records
    if args.query is not None:
        rec, cert = query(fixed, cert, args.query)
        records = {rec.id: rec}
    rows = build_report(records, cert)
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tau",
        description="Concordance invariant bounds from combinatorial knot "
                    "presentations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("braid", help="analyze a braid word 'n: l1 l2 ...'")
    p.add_argument("word")
    p.add_argument("--positive", action="store_true",
                   help="require a positive word and print the exact invariant")
    p.set_defaults(fn=_cmd_braid)

    p = sub.add_parser("grid", help="analyze a grid diagram file")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("torus", help="invariant of the (p,q) torus knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("pretzel", help="invariant of an odd pretzel knot")
    p.add_argument("twists", type=int, nargs="+")
    p.set_defaults(fn=_cmd_pretzel)

    p = sub.add_parser("double", help="invariant of an untwisted positive "
                                      "Whitehead double")
    p.add_argument("--companion", required=True)
    p.add_argument("--tb-lower", type=int, required=True)
    p.add_argument("--iterations", type=int, default=1)
    p.set_defaults(fn=_cmd_double)

    for name, help_ in (("deduce", "propagate a fact file"),
                        ("catalog", "run the bundled catalog")):
        p = sub.add_parser(name, help=help_)
        if name == "deduce":
            p.add_argument("file", metavar="facts")
        p.add_argument("--certify", action="store_true",
                       help="include the certificate: every step, or with "
                            "--query the steps supporting the knot (the text "
                            "--query form always prints them)")
        p.add_argument("--query", metavar="ID",
                       help="print one knot with its supporting derivation")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=_run_deduction)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A run's heap is acyclic named tuples, so the cyclic collector would
    # only scan it; the caller's setting comes back on every exit.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
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


if __name__ == "__main__":
    sys.exit(main())
