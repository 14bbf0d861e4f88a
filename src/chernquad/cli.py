"""Command line front end.

Subcommands:

``list``
    builtin surfaces with parameters, reference resolutions and
    expected Chern numbers.
``chern``
    Chern number of one surface from flags.
``compare``
    surface vs derived metric (conformal, perturb, twist) from flags.
``report``
    config-file driven run; any key can be overridden with
    ``--set section.key=value``.
``verify``
    run every invariant suite; one line per suite.

Exit codes: 0 success, 1 usage, config, geometry or expression error
(such as a metric that is not positive definite or a curvature that
overflows), 2 numerical non-convergence (or a failed verify suite).
"""

from __future__ import annotations

import argparse
import re
import sys

from . import experiment, verify, zoo
from .config import CompareSpec, ExperimentConfig, OutputSpec, load_config
from .errors import ConfigError, GeometryError
from .expressions import ExprError

_RESOLUTION = re.compile(r"^(\d+)[xX](\d+)$")


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; argparse's default of 2 is reserved for
    # numerical non-convergence here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_resolution(text: str) -> tuple[int, int]:
    match = _RESOLUTION.match(text)
    if not match:
        raise ConfigError(f"--resolution expects NUxNV, got {text!r}")
    return int(match.group(1)), int(match.group(2))


def _parse_params(items) -> dict:
    params = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--param {item!r} is not of the form key=value")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--param {key}: expected a number, got {value!r}") from None
    return params


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
    compare.add_argument("--mode", required=True,
                         choices=("conformal", "perturb", "twist"))
    compare.add_argument("--factor", default="", metavar="EXPR",
                         help="conformal factor expression, e.g. 'exp(0.6*sin(u))'")
    compare.add_argument("--seed", type=int, default=1,
                         help="perturbation seed (mode perturb)")
    compare.add_argument("--amplitude", type=float, default=None,
                         help="perturb or twist amplitude")
    _add_output_flags(compare)

    report = sub.add_parser("report", help="run an experiment config file")
    report.add_argument("--config", required=True, metavar="PATH")
    report.add_argument("--set", action="append", default=[], metavar="SEC.KEY=VALUE",
                        help="override a config value, repeatable")
    report.add_argument("--timings", action="store_true",
                        help="append a runtime_ms column")

    ver = sub.add_parser("verify", help="run every invariant suite")
    ver.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_list() -> int:
    rows = []
    for kind in sorted(zoo.BUILTIN_KINDS):
        _, param_names = zoo.BUILTIN_KINDS[kind]
        surf = zoo.make_surface(kind)
        n_u, n_v = surf.reference_resolution
        params = ", ".join(param_names) if param_names else "-"
        rows.append((kind, params, f"{n_u}x{n_v}", str(surf.expected_chern)))
    header = ("kind", "params", "reference", "chern")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(4)]
    for row in (header, *rows):
        print("  ".join(col.ljust(w) for col, w in zip(row, widths)).rstrip())
    return 0


def _compare_spec(args) -> CompareSpec:
    if args.mode == "conformal":
        if not args.factor:
            raise ConfigError("--mode conformal requires --factor")
        return CompareSpec(mode="conformal", factor=args.factor)
    if args.mode == "perturb":
        amp = 0.1 if args.amplitude is None else args.amplitude
        return CompareSpec(mode="perturb", seed=args.seed, amplitude=amp)
    amp = 0.3 if args.amplitude is None else args.amplitude
    return CompareSpec(mode="twist", amplitude=amp)


def _config_from_flags(args, compare=None) -> ExperimentConfig:
    n_u = n_v = None
    if args.resolution:
        n_u, n_v = _parse_resolution(args.resolution)
    return ExperimentConfig(
        surface_kind=args.surface,
        surface_params=_parse_params(args.param),
        n_u=n_u, n_v=n_v,
        compare=compare,
        output=OutputSpec(format=args.format, path=args.out,
                          grid_path=args.grid_out),
        timings=args.timings)


def _emit(report: experiment.Report, output: OutputSpec) -> int:
    text = report.render(output.format)
    if output.path:
        with open(output.path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
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
        if args.command == "chern":
            config = _config_from_flags(args)
        elif args.command == "compare":
            config = _config_from_flags(args, compare=_compare_spec(args))
        else:
            config = load_config(args.config, overrides=args.set)
            if args.timings:
                config.timings = True
        report = experiment.run(config)
    except (ConfigError, GeometryError, ExprError) as exc:
        print(f"chernquad: error: {exc}", file=sys.stderr)
        return 1
    return _emit(report, config.output)


if __name__ == "__main__":
    sys.exit(main())
