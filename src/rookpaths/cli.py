"""Command-line front end with deterministic text and JSON output.

Exit codes: 0 on success, 1 on a usage error (bad command or flags), 2 on a
domain error (well-formed flags carrying invalid mathematical input).  All
big integers are rendered as decimal strings, never floats, at any length.
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from typing import TextIO

from .exact_math import hockey_stick_sides
from .icn_modules import (
    ModuleVector,
    Subset,
    dim_principal_incl_excl,
    dim_principal_iterative,
    dim_submodule,
    dim_submodule_oracle,
    downset,
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
from .rook_monoid import compose, enumerate_icn, format_two_line, parse_two_line

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _parse_heights(dir_text: str, heights_text: str) -> HeightSequence:
    direction = Direction(dir_text)
    return HeightSequence(direction, _parse_csv_ints(heights_text))


def _digits(n: int) -> str:
    """Decimal digits of n.  Unlike str(n) this does not stop at the
    interpreter's limit on integer string conversion (4300 digits by default)."""
    return str(Decimal(n))


def render_json(payload: dict) -> str:
    """Compact JSON with insertion key order preserved."""
    return json.dumps(payload, separators=(",", ":"))


def _build_parser() -> _Parser:
    parser = _Parser(prog="rookpaths", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        return p

    p = add("paths-count", "count monotone lattice paths below a height sequence")
    p.add_argument("--dir", required=True, choices=["dec", "inc"])
    p.add_argument("--heights", required=True, help="comma-separated heights, e.g. 4,3,3,1,1")
    p.add_argument("--method", default="auto", choices=["auto", "iterative", "determinant", "oracle"])
    p.add_argument("--check", action="store_true", help="cross-check against an independent route")

    p = add("paths-list", "list the height sequences below a given one")
    p.add_argument("--dir", required=True, choices=["dec", "inc"])
    p.add_argument("--heights", required=True)
    p.add_argument("--cap", type=_nonnegative_int, default=1000)

    p = add("dim-subset", "dimension of the module generated by one basis vector")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--set", required=True, help="comma-separated subset, e.g. 2,4,6")
    p.add_argument("--method", default="auto", choices=["auto", "iterative", "determinant", "oracle"])
    p.add_argument("--check", action="store_true")

    p = add("dim-vector", "dimension of the module generated by a vector")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--vector", required=True, help='terms like "1:{};1:{3};1:{4,7}"')
    p.add_argument("--method", default="auto", choices=["auto", "iterative", "oracle"])
    p.add_argument("--check", action="store_true")

    p = add("reduce", "reduced support and reduced form of a vector")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--vector", required=True)

    p = add("monoid-size", "number of order preserving, order decreasing maps")
    p.add_argument("--n", type=_nonnegative_int, required=True)

    p = add("monoid-list", "list the monoid elements in two-line notation")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--cap", type=_nonnegative_int, default=1000)

    p = add("monoid-compose", "compose two maps given in two-line notation")
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--f", required=True, help='two-line text, e.g. "1 3 4 / 1 2 3"')
    p.add_argument("--g", required=True)

    p = add("verify", "evaluate both sides of a combinatorial identity")
    p.add_argument("--identity", required=True, choices=["cor34", "cor35", "hockey"])
    p.add_argument("--heights", help="decreasing heights (cor34)")
    p.add_argument("--k", type=_nonnegative_int, help="staircase size (cor35)")
    p.add_argument("--a", type=_nonnegative_int, help="sum start (hockey)")
    p.add_argument("--b", type=_nonnegative_int, help="number of summands (hockey)")
    p.add_argument("--p", type=_nonnegative_int, help="lower binomial index (hockey)")

    return parser


def _count_paths(h: HeightSequence, method: str) -> tuple[str, int]:
    # Explicit iterative/determinant requests on the "wrong" direction go
    # through the mirrored sequence, which has the same below-count.
    if method == "auto":
        method = "iterative" if h.direction is Direction.DECREASING else "determinant"
    if method == "iterative":
        lam = h if h.direction is Direction.DECREASING else h.mirror()
        return method, count_below_decreasing_iterative(lam)
    if method == "determinant":
        a = h if h.direction is Direction.INCREASING else h.mirror()
        return method, count_below_increasing_determinant(a)
    return method, count_below_oracle(h)


def _dim_subset(s: Subset, method: str) -> tuple[str, int]:
    if method in ("auto", "iterative"):
        return "iterative", dim_principal_iterative(s)
    if method == "determinant":
        return method, dim_principal_incl_excl(s)
    return method, len(downset(s))


def _dim_vector(v: ModuleVector, method: str) -> tuple[str, int]:
    if method == "oracle":
        return method, dim_submodule_oracle(v)
    return "iterative", dim_submodule(v)


def _emit_scalar(args, out: TextIO, payload: dict, text: str) -> None:
    if args.json:
        print(render_json({**payload, "value": text}), file=out)
    else:
        print(text, file=out)


def _emit_list(args, out: TextIO, payload: dict, items: list[str], truncated: bool) -> None:
    if args.json:
        print(render_json({**payload, "items": items, "truncated": truncated}), file=out)
    else:
        for item in items:
            print(item, file=out)


def _emit_checked(args, out: TextIO, err: TextIO, route, subject, given: dict) -> int:
    """Compute by the requested method; under --check, compare an independent
    route first: the oracle for every method, the iterative route for the
    oracle itself, so no route vouches for its own value."""
    method, value = route(subject, args.method)
    if args.check:
        other = "iterative" if method == "oracle" else "oracle"
        reference = route(subject, other)[1]
        if value != reference:
            got = f"{method} gave {_digits(value)}, {other} gave {_digits(reference)}"
            print(f"check failed: {got}", file=err)
            return DOMAIN_ERROR
    _emit_scalar(args, out, {"input": given, "method": method}, _digits(value))
    return 0


def _cmd_paths_count(args, out: TextIO, err: TextIO) -> int:
    h = _parse_heights(args.dir, args.heights)
    given = {"dir": args.dir, "heights": list(h.heights)}
    return _emit_checked(args, out, err, _count_paths, h, given)


def _cmd_paths_list(args, out: TextIO, err: TextIO) -> int:
    h = _parse_heights(args.dir, args.heights)
    result = enumerate_below(h, args.cap)
    payload = {"input": {"dir": args.dir, "heights": list(h.heights), "cap": args.cap}}
    if args.json:
        items = [list(item.heights) for item in result.items]
        print(render_json({**payload, "items": items, "truncated": result.truncated}), file=out)
    else:
        for item in result.items:
            print(",".join(str(x) for x in item.heights), file=out)
        if result.truncated:
            print("output truncated at cap", file=err)
    return 0


def _cmd_dim_subset(args, out: TextIO, err: TextIO) -> int:
    s = Subset(args.n, _parse_csv_ints(getattr(args, "set")))
    given = {"n": args.n, "set": list(s.elems)}
    return _emit_checked(args, out, err, _dim_subset, s, given)


def _cmd_dim_vector(args, out: TextIO, err: TextIO) -> int:
    v = parse_module_vector(args.vector, args.n)
    given = {"n": args.n, "vector": args.vector}
    return _emit_checked(args, out, err, _dim_vector, v, given)


def _cmd_reduce(args, out: TextIO, err: TextIO) -> int:
    v = parse_module_vector(args.vector, args.n)
    reduced = reduced_form(v)
    formed = format_module_vector(reduced)
    if args.json:
        payload = {
            "input": {"n": args.n, "vector": args.vector},
            "reduced_support": [list(s.elems) for s, _ in reduced.sorted_terms()],
            "reduced_form": formed,
        }
        print(render_json(payload), file=out)
    else:
        print(formed, file=out)
    return 0


def _cmd_monoid_size(args, out: TextIO, err: TextIO) -> int:
    value = len(enumerate_icn(args.n))
    _emit_scalar(args, out, {"input": {"n": args.n}}, _digits(value))
    return 0


def _cmd_monoid_list(args, out: TextIO, err: TextIO) -> int:
    if args.cap < 1:
        raise ValueError(f"cap must be a positive count, got {args.cap}")
    elements = enumerate_icn(args.n)
    items = [format_two_line(f) for f in elements[: args.cap]]
    truncated = len(elements) > args.cap
    payload = {"input": {"n": args.n, "cap": args.cap}}
    _emit_list(args, out, payload, items, truncated)
    if truncated and not args.json:
        print("output truncated at cap", file=err)
    return 0


def _cmd_monoid_compose(args, out: TextIO, err: TextIO) -> int:
    f = parse_two_line(args.f, args.n)
    g = parse_two_line(args.g, args.n)
    value = format_two_line(compose(f, g))
    _emit_scalar(args, out, {"input": {"n": args.n, "f": args.f, "g": args.g}}, value)
    return 0


def _cmd_verify(args, out: TextIO, err: TextIO) -> int:
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
    if args.json:
        payload = {"input": given, "lhs": _digits(lhs), "rhs": _digits(rhs), "equal": equal}
        print(render_json(payload), file=out)
    else:
        verdict = "true" if equal else "false"
        print(f"lhs={_digits(lhs)} rhs={_digits(rhs)} equal={verdict}", file=out)
    return 0


_HANDLERS = {
    "paths-count": _cmd_paths_count,
    "paths-list": _cmd_paths_list,
    "dim-subset": _cmd_dim_subset,
    "dim-vector": _cmd_dim_vector,
    "reduce": _cmd_reduce,
    "monoid-size": _cmd_monoid_size,
    "monoid-list": _cmd_monoid_list,
    "monoid-compose": _cmd_monoid_compose,
    "verify": _cmd_verify,
}


def run(argv: list[str], out: TextIO | None = None, err: TextIO | None = None) -> int:
    """Execute one CLI request; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a command is required")
        return _HANDLERS[args.command](args, out, err)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return USAGE_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return DOMAIN_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
