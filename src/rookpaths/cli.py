"""Command-line front end with deterministic text and JSON output.

Exit codes: 0 on success, 1 on a usage error (bad command or flags), 2 on a
domain error (well-formed flags carrying invalid mathematical input).  All
big integers are rendered as decimal strings, never floats, at any length.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal
from typing import TextIO

from .exact_math import bad_int_message, first_items, hockey_stick_sides, parse_ints, quoted
from .icn_modules import (
    Subset,
    dim_principal_incl_excl,
    dim_principal_iterative,
    dim_principal_oracle,
    dim_submodule,
    dim_submodule_oracle,
    format_module_vector,
    parse_module_vector,
    reduced_form,
)
from .lattice_paths import (
    Direction,
    HeightSequence,
    count_below_decreasing_iterative,
    count_below_increasing_determinant,
    count_below_oracle,
    enumerate_below,
    verify_identity_cor34,
    verify_identity_cor35,
)
from .rook_monoid import compose, count_icn, enumerate_icn, format_two_line, parse_two_line

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _UsageError(Exception):
    pass


class _CheckFailed(Exception):
    pass


class _Help(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)

    # argparse writes help to sys.stdout and exits; run writes it to out.
    def print_help(self, file=None):
        raise _Help(self.format_help())


DEC, INC = Direction.DECREASING, Direction.INCREASING


def _facing(h: HeightSequence, direction: Direction) -> HeightSequence:
    """h, or its mirror when h runs the other way; both have one below-count."""
    return h if h.direction is direction else h.mirror()


# The routes of each checked command in --method order, and the route auto
# picks for an input.  Under --check the last route (the oracle) checks every
# other route and the first checks the oracle, so no route vouches for itself.
# Entries look the library names up when called, so rebinding a module-level
# name here (a test's patch, the benchmark's tracer) reaches every route.
_ROUTES = {
    "paths-count": (
        {
            "iterative": lambda h: count_below_decreasing_iterative(_facing(h, DEC)),
            "determinant": lambda h: count_below_increasing_determinant(_facing(h, INC)),
            "oracle": lambda h: count_below_oracle(h),
        },
        lambda h: "iterative" if h.direction is DEC else "determinant",
    ),
    "dim-subset": (
        {
            "iterative": lambda s: dim_principal_iterative(s),
            "determinant": lambda s: dim_principal_incl_excl(s),
            "oracle": lambda s: dim_principal_oracle(s),
        },
        lambda s: "iterative",
    ),
    "dim-vector": (
        {"iterative": lambda v: dim_submodule(v), "oracle": lambda v: dim_submodule_oracle(v)},
        lambda v: "iterative",
    ),
}


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        message = bad_int_message(text, f"{quoted(text)} is not an integer")
        raise argparse.ArgumentTypeError(message) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{quoted(text)} is negative")
    return value


# Flags several commands take, each declared here once.  A command lists its
# flags in order, each with keywords (a help text, say) over the shared ones.
_FLAGS = {
    "n": {"type": _nonnegative_int, "required": True},
    "dir": {"required": True, "choices": ["dec", "inc"]},
    "heights": {"required": True},
    "cap": {"type": _nonnegative_int, "default": 1000},
    "vector": {"required": True},
}


def _parse_heights(dir_text: str, heights_text: str) -> HeightSequence:
    return HeightSequence(Direction(dir_text), parse_ints(heights_text))


def _digits(n: int) -> str:
    """Decimal digits of n.  Unlike str(n) this does not stop at the
    interpreter's limit on integer string conversion (4300 digits by default)."""
    return str(Decimal(n))


def _checked(args, subject) -> tuple[dict, list[str]]:
    """Compute by the requested route; under --check, compare with the
    partner route from _ROUTES first."""
    routes, auto = _ROUTES[args.command]
    method = auto(subject) if args.method == "auto" else args.method
    value = routes[method](subject)
    if args.check:
        first, *_, oracle = routes
        other = first if method == oracle else oracle
        reference = routes[other](subject)
        if value != reference:
            raise _CheckFailed(f"{method} gave {_digits(value)}, {other} gave {_digits(reference)}")
    text = _digits(value)
    return {"method": method, "value": text}, [text]


# Each handler returns (input, fields, text lines): the JSON payload is
# {"input": input, **fields}, and text mode prints the lines.


def _cmd_paths_count(args):
    h = _parse_heights(args.dir, args.heights)
    return {"dir": args.dir, "heights": list(h.heights)}, *_checked(args, h)


def _cmd_paths_list(args):
    h = _parse_heights(args.dir, args.heights)
    items, truncated = enumerate_below(h, args.cap)
    given = {"dir": args.dir, "heights": list(h.heights), "cap": args.cap}
    fields = {"items": [x.heights for x in items], "truncated": truncated}
    line = ",".join(["%d"] * len(h))
    return given, fields, map(line.__mod__, fields["items"])


def _cmd_dim_subset(args):
    s = Subset(args.n, parse_ints(getattr(args, "set")))
    return {"n": args.n, "set": list(s.elems)}, *_checked(args, s)


def _cmd_dim_vector(args):
    v = parse_module_vector(args.vector, args.n)
    return {"n": args.n, "vector": args.vector}, *_checked(args, v)


def _cmd_reduce(args):
    reduced = reduced_form(parse_module_vector(args.vector, args.n))
    formed = format_module_vector(reduced)
    fields = {
        "reduced_support": [s.elems for s in reduced.terms],
        "reduced_form": formed,
    }
    return {"n": args.n, "vector": args.vector}, fields, [formed]


def _cmd_monoid_size(args):
    value = _digits(count_icn(args.n))
    return {"n": args.n}, {"value": value}, [value]


def _cmd_monoid_list(args):
    elements, truncated = first_items(args.cap, lambda: enumerate_icn(args.n, args.cap + 1))
    items = [format_two_line(f) for f in elements]
    return {"n": args.n, "cap": args.cap}, {"items": items, "truncated": truncated}, items


def _cmd_monoid_compose(args):
    f = parse_two_line(args.f, args.n)
    g = parse_two_line(args.g, args.n)
    value = format_two_line(compose(f, g))
    return {"n": args.n, "f": args.f, "g": args.g}, {"value": value}, [value]


def _cmd_verify(args):
    if args.identity == "cor34":
        if args.heights is None:
            raise _UsageError("--heights is required for --identity cor34")
        lam = _parse_heights("dec", args.heights)
        lhs, rhs, equal = verify_identity_cor34(lam)
        given = {"identity": "cor34", "heights": list(lam.heights)}
    elif args.identity == "cor35":
        if args.k is None:
            raise _UsageError("--k is required for --identity cor35")
        lhs, rhs, equal = verify_identity_cor35(args.k)
        given = {"identity": "cor35", "k": args.k}
    else:
        if args.a is None or args.b is None or args.p is None:
            raise _UsageError("--a, --b and --p are required for --identity hockey")
        lhs, rhs = hockey_stick_sides(args.a, args.b, args.p)
        equal = lhs == rhs
        given = {"identity": "hockey", "a": args.a, "b": args.b, "p": args.p}
    lhs, rhs = _digits(lhs), _digits(rhs)
    line = f"lhs={lhs} rhs={rhs} equal={str(equal).lower()}"
    return given, {"lhs": lhs, "rhs": rhs, "equal": equal}, [line]


# Built on the first run and reused, read-only, for the rest of the process:
# parse_args makes a new Namespace on every call and leaves the parser as it
# was, and --help formats its text on each call.  The handlers given to
# set_defaults and the _FLAGS types are bound once, here; the _ROUTES entries
# still look names up when called.  Nothing in the tests or the benchmark
# rebinds a handler or a type.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="rookpaths", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, handler, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        for flag, keywords in flags.items():
            p.add_argument(f"--{flag}", **{**_FLAGS.get(flag, {}), **keywords})

    add("paths-count", _cmd_paths_count, "count monotone lattice paths below a height sequence",
        dir={}, heights={"help": "comma-separated heights, e.g. 4,3,3,1,1"})
    add("paths-list", _cmd_paths_list, "list the height sequences below a given one",
        dir={}, heights={}, cap={})
    add("dim-subset", _cmd_dim_subset, "dimension of the module generated by one basis vector",
        n={}, set={"required": True, "help": "comma-separated subset, e.g. 2,4,6"})
    add("dim-vector", _cmd_dim_vector, "dimension of the module generated by a vector",
        n={}, vector={"help": 'terms like "1:{};1:{3};1:{4,7}"'})
    add("reduce", _cmd_reduce, "reduced support and reduced form of a vector", n={}, vector={})
    add("monoid-size", _cmd_monoid_size, "number of order preserving, order decreasing maps", n={})
    add("monoid-list", _cmd_monoid_list, "list the monoid elements in two-line notation",
        n={}, cap={})
    add("monoid-compose", _cmd_monoid_compose, "compose two maps given in two-line notation",
        n={}, f={"required": True, "help": 'two-line text, e.g. "1 3 4 / 1 2 3"'},
        g={"required": True})
    add("verify", _cmd_verify, "evaluate both sides of a combinatorial identity",
        identity={"required": True, "choices": ["cor34", "cor35", "hockey"]},
        heights={"required": False, "help": "decreasing heights (cor34)"},
        k={"type": _nonnegative_int, "help": "staircase size (cor35)"},
        a={"type": _nonnegative_int, "help": "sum start (hockey)"},
        b={"type": _nonnegative_int, "help": "number of summands (hockey)"},
        p={"type": _nonnegative_int, "help": "lower binomial index (hockey)"})

    for command, (routes, _) in _ROUTES.items():
        p = sub.choices[command]
        p.add_argument("--method", default="auto", choices=["auto", *routes])
        p.add_argument(
            "--check", action="store_true", help="cross-check against an independent route"
        )

    return parser


def run(argv: list[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Execute one CLI request; returns the process exit code.  This is the
    one place that writes to out and err."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        given, fields, lines = args.handler(args)
    except _Help as exc:
        out.write(str(exc))
        return 0
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return USAGE_ERROR
    except _CheckFailed as exc:
        print(f"check failed: {exc}", file=err)
        return DOMAIN_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return DOMAIN_ERROR
    if args.json:
        print(json.dumps({"input": given, **fields}, separators=(",", ":")), file=out)
    else:
        out.writelines([f"{line}\n" for line in lines])
        if fields.get("truncated"):
            print("output truncated at cap", file=err)
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # The reader closed the pipe (say, `| head -1`).  Point stdout at
        # devnull so the flush at exit is silent, and exit 1 with no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
