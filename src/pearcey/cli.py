"""Command-line interface.

Subcommands:

* ``eval``   -- one value of P(x, y), asymptotic or quadrature or auto
* ``table``  -- relative-error benchmark grid for a built-in preset
* ``coeffs`` -- moment and series coefficients at fixed x
* ``map``    -- region/dominance sweep over arg y at fixed |y|

Exit codes: 0 success, 2 usage, 3 domain or convergence failure,
4 output I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import re
import sys
from contextlib import nullcontext

from .asymptotics import (branch_partial_sums, classify_region, normalize,
                          pearcey_asymptotic, stokes_classification)
from .coefficients import build_table
from .quadrature import (CONTOUR, REAL_AXIS, ConvergenceError,
                         QuadratureConfig, pearcey_quadrature)
from .tables import PRESETS, table_rows

_AUTO_ASYMPTOTIC_MIN = 8.0  # |y| at or above which auto prefers the expansion


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' style literals; 'j' is accepted as a synonym of 'i'."""
    compact = text.strip().replace(" ", "")
    # the imaginary unit is an i or j not followed by a letter, so the i of
    # inf stays; a unit with no coefficient gets 1
    compact = re.sub(r"[iIjJ](?![a-zA-Z])", "j", compact)
    compact = re.sub(r"(?<![0-9.a-zA-Z])j", "1j", compact)
    try:
        return complex(compact)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid complex literal: {text!r}")


def _format_complex(z: complex) -> str:
    sign = "+" if (z.imag >= 0 or math.isnan(z.imag)) else "-"
    return f"{z.real!r} {sign} {abs(z.imag)!r}i"


def _complex_fields(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _resolve_y(args, parser: argparse.ArgumentParser) -> complex:
    has_literal = args.y is not None
    has_polar = args.y_mod is not None
    if has_literal and (has_polar or args.y_arg_pi is not None):
        parser.error("give either --y or --y-mod/--y-arg-pi, not both")
    if not has_literal and not has_polar:
        parser.error("one of --y or --y-mod is required")
    if has_literal:
        return args.y
    arg_pi = args.y_arg_pi if args.y_arg_pi is not None else 0.0
    return args.y_mod * cmath.exp(1j * math.pi * arg_pi)


def _open_out(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _cmd_eval(args, parser) -> int:
    x = args.x
    y = _resolve_y(args, parser)
    method = args.method
    if method == "auto":
        method = "asymptotic" if abs(y) >= _AUTO_ASYMPTOTIC_MIN else "quadrature"

    region = None
    order = None
    omitted = None
    warnings: tuple[str, ...] = ()
    if method == "asymptotic":
        result = pearcey_asymptotic(x, y, args.order)
        value = result.value
        region = result.region.value
        order = result.order
        omitted = result.first_omitted_magnitude
        warnings = result.warnings
    else:
        config = QuadratureConfig(strategy=args.strategy)
        value = pearcey_quadrature(x, y, config)
        if y != 0:
            region = classify_region(normalize(x, y)).value

    payload = {
        "x": _complex_fields(x),
        "y": _complex_fields(y),
        "method": method,
        "order": order,
        "region": region,
        "value": _complex_fields(value),
        "first_omitted_magnitude": omitted,
        "warnings": list(warnings),
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"method = {method}")
        if region is not None:
            print(f"region = {region}")
        if order is not None:
            print(f"order = {order}")
        print(f"value = {_format_complex(value)}")
        if omitted is not None:
            print(f"first omitted term ~ {omitted!r}")
        for line in warnings:
            print(f"warning: {line}")
    return 0


def _cmd_table(args, parser) -> int:
    spec = PRESETS[args.paper_table]
    oracle = QuadratureConfig(strategy=args.oracle)
    cells = list(table_rows(spec, oracle))
    with _open_out(args.out) as handle:
        if args.format == "csv":
            handle.write("y_label,n,rel_error\n")
            for label, order, err in cells:
                handle.write(f"{label},{order},{err!r}\n")
        else:
            json.dump([{"y_label": label, "n": order, "rel_error": err}
                       for label, order, err in cells], handle)
            handle.write("\n")
    return 0


def _cmd_coeffs(args, parser) -> int:
    table = build_table(args.x, args.max_order)
    with _open_out(args.out) as handle:
        if args.format == "csv":
            handle.write("n,c,A\n")
            for n in range(table.max_order + 1):
                c = table.moments[n]
                a = table.series[n]
                handle.write(f"{n},{_format_complex(c).replace(' ', '')},"
                             f"{_format_complex(a).replace(' ', '')}\n")
        else:
            json.dump([{"n": n,
                        "c": _complex_fields(table.moments[n]),
                        "A": _complex_fields(table.series[n])}
                       for n in range(table.max_order + 1)], handle)
            handle.write("\n")
    return 0


def _cmd_map(args, parser) -> int:
    if args.y_mod <= 0:
        parser.error("--y-mod must be positive")
    if args.grid_arg_steps < 3:
        parser.error("--grid-arg-steps must be at least 3")
    x = args.x
    steps = args.grid_arg_steps
    series = build_table(x, args.order).series
    rows = []
    for step in range(steps):
        theta = -math.pi / 2.0 + step * math.pi / (steps - 1)
        y = args.y_mod * cmath.exp(1j * theta)
        region = classify_region(normalize(x, y))
        stokes = stokes_classification(y)
        p1, p2 = (abs(branch_partial_sums(k, x, y, series, args.order)[1][-1])
                  for k in (1, 2))
        rows.append(f"{theta!r},{region.value},{stokes.dominant.value},"
                    f"{stokes.on_anti_stokes},{p1!r},{p2!r}\n")
    with _open_out(args.out) as handle:
        handle.write("theta,region,dominant,on_anti_stokes,abs_p1,abs_p2\n")
        handle.writelines(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pearcey",
        description="Evaluate the Pearcey integral P(x, y) and its "
                    "large-|y| asymptotic expansion.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate P at one point")
    ev.add_argument("--x", type=parse_complex, required=True,
                    help="complex literal, e.g. 1 or 2-0.5i")
    ev.add_argument("--y", type=parse_complex, default=None)
    ev.add_argument("--y-mod", type=float, default=None,
                    help="|y| when giving y in polar form")
    ev.add_argument("--y-arg-pi", type=float, default=None,
                    help="arg y as a multiple of pi (default 0)")
    ev.add_argument("--method", choices=("auto", "asymptotic", "quadrature"),
                    default="auto")
    ev.add_argument("--order", type=int, default=5,
                    help="expansion truncation order (asymptotic method)")
    ev.add_argument("--strategy", choices=(CONTOUR, REAL_AXIS),
                    default=CONTOUR, help="quadrature strategy")
    ev.add_argument("--json", action="store_true",
                    help="emit a single JSON object")
    ev.set_defaults(func=_cmd_eval)

    tb = sub.add_parser("table", help="benchmark error table from a preset")
    tb.add_argument("--paper-table", type=int, choices=(1, 2), required=True)
    tb.add_argument("--format", choices=("csv", "json"), default="csv")
    tb.add_argument("--out", default="-", help="output path, '-' for stdout")
    tb.add_argument("--oracle", choices=(CONTOUR, REAL_AXIS), default=CONTOUR)
    tb.set_defaults(func=_cmd_table)

    co = sub.add_parser("coeffs", help="moment and series coefficients")
    co.add_argument("--x", type=parse_complex, required=True)
    co.add_argument("--max-order", type=int, default=5)
    co.add_argument("--format", choices=("csv", "json"), default="csv")
    co.add_argument("--out", default="-")
    co.set_defaults(func=_cmd_coeffs)

    mp_ = sub.add_parser("map", help="region and dominance sweep over arg y")
    mp_.add_argument("--x", type=parse_complex, required=True)
    mp_.add_argument("--y-mod", type=float, required=True)
    mp_.add_argument("--grid-arg-steps", type=int, default=49)
    mp_.add_argument("--order", type=int, default=5)
    mp_.add_argument("--out", default="-")
    mp_.set_defaults(func=_cmd_map)

    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """Write '--x -1+2i' as '--x=-1+2i'.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, so '-i', '-inf' or '-1+2i' would never reach
    ``parse_complex``.
    """
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--x", "--y") and token.startswith("-"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _join_signed_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args, parser)
    except (ValueError, OverflowError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
