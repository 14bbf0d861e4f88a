"""Command line front end.

Subcommands:

``list``
    builtin surfaces with parameters, reference resolutions and
    expected Chern numbers.
``chern``
    Chern number of one builtin surface from flags.
``compare``
    surface vs derived metric (conformal, perturb, twist) from flags.
``report``
    config-file driven run; any key can be overridden with
    ``--set section.key=value``.
``verify``
    run every invariant suite; one line per suite.

The ``chern``/``compare`` flags are shorthand for config keys, which
``config.config_from_sections`` reads as ``report`` reads a config file,
so a mistake reads the same from a flag, a file or ``--set``.

Exit codes: 0 success, 1 usage, config, geometry or expression error
(such as a non-SPD metric, an overflowing curvature, node counts numpy
cannot index or an unwritable output path) or a failed allocation, 2
numerical non-convergence (or a failed verify suite).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import experiment, verify, zoo
from .config import ExperimentConfig, OutputSpec, config_from_sections, load_config
from .errors import ConfigError, GeometryError
from .expressions import ExprError

_RESOLUTION = re.compile(r"^(\d+)[xX](\d+)$")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # numerical non-convergence here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolution(text: str) -> dict:
    match = _RESOLUTION.match(text)
    if not match:
        raise ConfigError(f"--resolution expects NUxNV, got {text!r}")
    return {"n_u": match.group(1), "n_v": match.group(2)}


def _seed(text: str) -> int:
    if not text.isdecimal():  # the digits int() reads, without a sign
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _param(item: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep:
        raise ConfigError(f"--param {item!r} is not of the form key=value")
    return key.strip(), value.strip()


def _add_surface_flags(parser) -> None:
    parser.add_argument("--surface", required=True, metavar="KIND",
                        help="builtin surface kind (see: chernquad list)")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="surface parameter, repeatable (e.g. --param R=2)")
    parser.add_argument("--resolution", metavar="NUxNV",
                        help="quadrature node counts (default: surface reference)")


def _add_output_flags(parser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", metavar="PATH", default="",
                        help="report destination (default: stdout)")
    parser.add_argument("--grid-out", metavar="PATH", default="",
                        help="dump K*sqrt(det g) samples over the quadrature grid")
    parser.add_argument("--timings", action="store_true",
                        help="append a runtime_ms column (breaks byte-for-byte "
                             "reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chernquad",
                     description="Chern numbers of surface tangent bundles "
                                 "by curvature quadrature")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="builtin surfaces")

    chern = sub.add_parser("chern", help="Chern number of one surface")
    _add_surface_flags(chern)
    _add_output_flags(chern)

    compare = sub.add_parser("compare", help="surface vs derived metric")
    _add_surface_flags(compare)
    compare.add_argument("--mode", required=True, choices=tuple(zoo.COMPARE_MODES))
    compare.add_argument("--factor", default=None, metavar="EXPR",
                         help="conformal factor expression, e.g. 'exp(0.6*sin(u))'")
    compare.add_argument("--seed", default=None,
                         help="perturbation seed (mode perturb)")
    compare.add_argument("--amplitude", default=None,
                         help="perturb or twist amplitude")
    _add_output_flags(compare)

    report = sub.add_parser("report", help="run an experiment config file")
    report.add_argument("--config", required=True, metavar="PATH")
    report.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VALUE",
                        help="override a config value, repeatable")
    report.add_argument("--timings", action="store_true",
                        help="append a runtime_ms column")

    ver = sub.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--seed", type=_seed, default=0)
    return parser


def _cmd_list() -> int:
    rows = []
    for kind, (_, keys) in sorted(zoo.BUILTIN_KINDS.items()):
        surf = zoo.make_surface(kind)
        n_u, n_v = surf.reference_resolution
        rows.append((kind, ", ".join(keys) or "-", f"{n_u}x{n_v}", str(surf.expected_chern)))
    header = ("kind", "params", "reference", "chern")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    for row in (header, *rows):
        print("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
    return 0


def _config_from_flags(args) -> ExperimentConfig:
    """The config keys the flags stand for, read as ``report`` reads a
    config."""
    sections = {"quadrature": _resolution(args.resolution) if args.resolution else {},
                "surface": dict(map(_param, args.param or ())),
                "output": {"format": args.format, "path": args.out,
                           "grid_path": args.grid_out}}
    if args.command == "compare":
        sections["compare"] = {"mode": args.mode, **{
            k: getattr(args, k) for k in ("factor", "seed", "amplitude")
            if getattr(args, k) is not None}}
    return config_from_sections(sections, builtin=args.surface)


def _emit(report: experiment.Report, output: OutputSpec) -> int:
    if output.path:
        experiment.write_text(output.path, report.render(output.format))
    else:
        sys.stdout.write(report.render(output.format))
    return 2 if report.flagged else 0


def _cmd_verify(seed: int) -> int:
    results = verify.run_all(seed)
    for result in results:
        print(result.line())
    return 0 if verify.all_pass(results) else 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "verify":
            return _cmd_verify(args.seed)
        if args.command in ("chern", "compare"):
            config = _config_from_flags(args)
        else:
            config = load_config(args.config, overrides=args.set)
        config.timings = args.timings
        return _emit(experiment.run(config), config.output)
    except (ConfigError, GeometryError, ExprError, MemoryError) as exc:
        print(f"chernquad: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
