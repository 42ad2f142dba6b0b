"""Command-line interface.

Subcommands: gen (fixture mappings), distance (D_p between two maps),
quantize (finite-value approximation), continuify (continuous/smooth
relaxation of a simple map), verify (theorem suite).

Exit codes: 0 success / all checks pass; 1 usage error; 2 data or
validation error; 3 verification failure.

Defaults may come from, in increasing precedence: built-ins, the
METRICLP_OUT environment variable (output directory), a --config JSON
file of {flag: value}, explicit flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fields, fileio, quantize, relax, verify
from .domain import Domain
from .errors import DataError, MetricLpError
from .maps import (
    MeasurableMap,
    SimpleMap,
    check_p,
    # not called here: perfbench's tracer test checks that tracing wraps it
    # in this module too
    dp_distance,  # noqa: F401
    dp_from_pointwise,
    pointwise_distance,
)
from .spaces import make_space

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    subcommands: dict[str, argparse.ArgumentParser]  # the top-level parser's, by name

    def error(self, message):  # argparse would SystemExit(2); we map usage -> 1
        raise UsageError(message)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    try:
        sizes = [int(p) for p in parts]
    except ValueError as exc:
        raise UsageError(f"bad grid spec {text!r}") from exc
    if not sizes or any(s < 1 for s in sizes):
        raise UsageError(f"bad grid spec {text!r}")
    if len(set(sizes)) != 1:
        raise UsageError("grids must be square (same size on every axis)")
    return len(sizes), sizes[0]


def _parse_point(text: str) -> np.ndarray:
    """A flat JSON list of numbers as a payload; the space that takes it
    checks its length and values.  Scalars, nested lists, booleans and
    null are usage errors."""
    try:
        items = json.loads(text)
    except ValueError:
        items = None
    if isinstance(items, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in items
    ):
        try:
            return np.asarray(items, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            pass
    raise UsageError(f"bad point JSON {text!r}: expected a flat list of numbers")


def _parse_p(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "oo"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(f"bad exponent {text!r}") from exc


def _parse_seed(text: str) -> int:
    """A seed for numpy's generators, which take only nonnegative integers."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return seed


def _out_path(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    base = Path(os.environ.get("METRICLP_OUT", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base / default_name


def build_parser() -> _Parser:
    parser = _Parser(prog="metriclp", description=__doc__.split("\n")[0] if __doc__ else "")
    # listed for --help only: main() takes every --config out of argv
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    p_gen = sub.add_parser("gen", help="generate fixture mappings")
    p_gen.add_argument("--kind", required=True,
                       choices=["smooth", "random", "constant", "piecewise"])
    p_gen.add_argument("--space", default="euclidean2")
    p_gen.add_argument("--grid", default="32x32", help="e.g. 1024 or 64x64")
    p_gen.add_argument("--seed", type=_parse_seed, default=0)
    p_gen.add_argument("--regions", type=int, default=3, help="pieces for --kind piecewise")
    p_gen.add_argument("--value", help="JSON payload for --kind constant")
    p_gen.add_argument("--spread", type=float, default=1.0)
    p_gen.add_argument("--out")

    p_dist = sub.add_parser("distance", help="D_p distance between two map files")
    p_dist.add_argument("left")
    p_dist.add_argument("right")
    p_dist.add_argument("--p", default="2", help="comma list, e.g. 1,2,inf")
    p_dist.add_argument("--out", help="also write the report as JSON")

    p_quant = sub.add_parser("quantize", help="approximate a map by finitely many values")
    p_quant.add_argument("map")
    p_quant.add_argument("--mode", default="countable",
                         choices=["countable", "almost-simple", "sup"])
    p_quant.add_argument("--eps", type=float, required=True)
    p_quant.add_argument("--p", default="2")
    p_quant.add_argument("--base", help="base map file (almost-simple / sup)")
    p_quant.add_argument("--base-value", help="JSON payload of a constant base")
    p_quant.add_argument("--out")
    p_quant.add_argument("--report")

    p_cont = sub.add_parser("continuify", help="relax a simple map to a continuous/smooth field")
    p_cont.add_argument("map", help="simple-map file")
    p_cont.add_argument("--background", help="JSON payload of the background point")
    p_cont.add_argument("--p", default="2")
    p_cont.add_argument("--eps", type=float, required=True)
    p_cont.add_argument("--order", type=int, default=0, help="smoothstep order (0 = continuous)")
    p_cont.add_argument("--out")
    p_cont.add_argument("--report")

    p_ver = sub.add_parser("verify", help="run the bundled theorem suite")
    p_ver.add_argument("--seed", type=_parse_seed, default=0)
    p_ver.add_argument("--out", help="write the JSON ledger here")
    return parser


def _cmd_gen(args) -> int:
    dim, per_axis = _parse_grid(args.grid)
    try:
        domain = Domain.grid(dim, per_axis)
    except (ValueError, MemoryError) as exc:  # numpy cannot hold that many cells
        raise UsageError(f"grid {args.grid!r} is too large to build ({exc})") from exc
    try:
        space = make_space(args.space)
    except ValueError as exc:  # an unknown name, or a size no space has
        raise UsageError(f"bad space {args.space!r}: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    if args.kind == "smooth":
        f = fields.smooth_field(domain, space, rng, args.spread)
    elif args.kind == "random":
        f = fields.random_map(domain, space, rng, args.spread)
    elif args.kind == "constant":
        if not args.value:
            raise UsageError("--kind constant needs --value")
        f = MeasurableMap.constant(domain, space, _parse_point(args.value))
    else:  # piecewise -> a simple map
        labels = fields.voronoi_labels(domain.geometry, args.regions, rng)
        g = fields.simple_from_labels(domain, space, labels, rng=rng, spread=args.spread)
        out = _out_path(args, f"{args.kind}-{args.space}.json")
        fileio.save_simple_map(g, out)
        print(json.dumps({"written": str(out), "kind": "simple_map",
                          "atoms": domain.atom_count, "regions": g.range_size}))
        return EXIT_OK
    out = _out_path(args, f"{args.kind}-{args.space}.json")
    fileio.save_map(f, out)
    print(json.dumps({"written": str(out), "kind": "map", "atoms": domain.atom_count}))
    return EXIT_OK


def _p_key(p: float) -> str:
    """Report key of an exponent: its `:g` form when that reads back as p
    ("1", "1.5", "inf"), else its repr, so distinct exponents never share a key."""
    key = f"{p:g}"
    return key if float(key) == p else repr(p)


def _cmd_distance(args) -> int:
    exponents = [check_p(_parse_p(tok)) for tok in str(args.p).split(",") if tok.strip()]
    if not exponents:
        raise UsageError("no exponents given")
    left = fileio.load_any_map(args.left)
    right = fileio.load_any_map(args.right)
    # d(f(x), g(x)) does not depend on p: one ground-metric pass serves all
    d = pointwise_distance(left, right)
    report = {
        "left": args.left,
        "right": args.right,
        "distances": {
            _p_key(p): dp_from_pointwise(d, left.domain.weights, p) for p in exponents
        },
    }
    if args.out:
        fileio.save_report(report, args.out)
    print(json.dumps(report, indent=1))
    return EXIT_OK


def _load_base(args, f: MeasurableMap | SimpleMap) -> MeasurableMap | SimpleMap:
    if args.base:
        return fileio.load_any_map(args.base)
    if args.base_value:
        return MeasurableMap.constant(f.domain, f.space, _parse_point(args.base_value))
    raise UsageError("this mode needs --base or --base-value")


def _cmd_quantize(args) -> int:
    p = check_p(_parse_p(args.p))  # every mode refuses a bad --p, used or not
    f = fileio.load_any_map(args.map)
    if args.mode == "countable":
        simple, report = quantize.countable_quantize(f, args.eps)
    elif args.mode == "almost-simple":
        simple, report = quantize.almost_simple_approx(f, _load_base(args, f), p, args.eps)
    else:
        simple, report = quantize.simple_approx_sup(f, _load_base(args, f), args.eps)
    out = _out_path(args, f"quantized-{args.mode}.json")
    fileio.save_simple_map(simple, out)
    summary = {
        "written": str(out),
        "mode": args.mode,
        "achieved_error": report.achieved_error,
        "target_eps": report.target_eps,
        "range_size": report.range_size,
    }
    if args.report:
        fileio.save_report(report, args.report)
    print(json.dumps(summary))
    if not report.achieved_error < report.target_eps:
        print(f"warning: achieved_error {report.achieved_error!r} is not below"
              f" eps {report.target_eps!r}", file=sys.stderr)
    return EXIT_OK


def _cmd_continuify(args) -> int:
    g = fileio.load_any_map(args.map)
    if not isinstance(g, SimpleMap):
        raise MetricLpError("continuify needs a simple-map file")
    if args.background:
        z0 = _parse_point(args.background)
    else:
        if g.value_table.shape[0] == 0:
            raise MetricLpError("empty value table and no --background")
        z0 = g.value_table[0]
    p = _parse_p(args.p)
    out_field = relax.smooth_from_simple(g, z0, p, args.eps, order=args.order)
    out = _out_path(args, "relaxed-field.json")
    fileio.save_map(out_field.map, out)
    summary = {
        "written": str(out),
        "order": args.order,
        "achieved_error": out_field.achieved_error,
        "error_bound": relax.error_bound(out_field),
        "target_eps": args.eps,
        "pieces": len(out_field.pieces),
        "flags": out_field.flags,
    }
    if args.report:
        pieces = [
            {
                "label": piece.label,
                "lipschitz": piece.lipschitz,
                "gap_width": piece.gap_width,
                "core_atoms": piece.core.size,
                "region_atoms": piece.region.size,
                "sup_gap": piece.sup_gap,
                "sup_gap_budget": piece.sup_gap_budget,
                "error_mass": piece.error_mass,
                "inner_over_budget": piece.inner_over_budget,
                "outer_over_budget": piece.outer_over_budget,
            }
            for piece in out_field.pieces
        ]
        fileio.save_report({"summary": summary, "error_mass": out_field.error_mass,
                            "pieces": pieces}, args.report)
    print(json.dumps(summary))
    if not summary["flags"]["guarantee_holds"]:
        flagged = sum(p.inner_over_budget or p.outer_over_budget for p in out_field.pieces)
        print(f"warning: the error mass allows D_p up to {out_field.error_norm!r}, past"
              f" {summary['error_bound']!r} ({flagged} of {len(out_field.pieces)} pieces"
              " raised a budget flag); the D_p error bound is not guaranteed", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    result = verify.run_theorem_suite(args.seed)
    if args.out:
        fileio.save_report(result.as_dict(), args.out)
    for entry in result.entries:
        print(f"[{entry['status']:>4}] {entry['check_id']}")
    print(
        json.dumps(
            {
                "all_pass": result.all_pass,
                "seed": result.seed,
                "checks": len(result.entries),
                "runtime_seconds": round(result.runtime_seconds, 3),
            }
        )
    )
    return EXIT_OK if result.all_pass else EXIT_VERIFY


def _take_config(argv: list[str]) -> tuple[str | None, list[str]]:
    """The first --config path in argv (None without one), and argv without
    any --config flag, so later ones are never read.  A token scan:
    parse_known_args would reject a missing required flag before the
    config that supplies it could load."""
    paths, rest = [], []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--config":
            paths.append(next(tokens, ""))
        elif tok.startswith("--config="):
            paths.append(tok.split("=", 1)[1])
        else:
            rest.append(tok)
    return (paths[0] if paths else None), rest


def _config_tokens(parser: _Parser, command: str | None, path: str) -> list[str]:
    """The config file's values as `--flag=value` tokens of `command`.

    A string goes in as is, a list or number as its JSON text; the `=`
    keeps a value such as -1 attached to its flag, and argparse applies the
    flag's own type, choices and required checks.  null keeps the built-in
    default.  A key that names no option flag of any subcommand is refused;
    keys of other subcommands are skipped."""
    if not path:
        raise UsageError("--config needs a file path")
    try:
        config = fileio._read_json(path)
    except DataError as exc:
        raise DataError(f"cannot load config: {exc}") from exc
    flags = {name: {flag for action in sub._actions if action.dest != "help"
                    for flag in action.option_strings}
             for name, sub in parser.subcommands.items()}
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if not any(flag in known for known in flags.values()):
            raise UsageError(f"config key {key!r} names no option flag")
        if value is not None and flag in flags.get(command, ()):
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


@functools.cache
def _builtin_parser() -> _Parser:
    """The one parser, built once per process: parsing never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _builtin_parser()
    try:
        path, argv = _take_config(argv)
        if path is not None:
            # the subcommand is the first word: with --config out, the top
            # level has no option that takes a value
            at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), len(argv))
            command = argv[at] if at < len(argv) else None
            argv[at + 1:at + 1] = _config_tokens(parser, command, path)
        args = parser.parse_args(argv)
        handler = {
            "gen": _cmd_gen,
            "distance": _cmd_distance,
            "quantize": _cmd_quantize,
            "continuify": _cmd_continuify,
            "verify": _cmd_verify,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MetricLpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
