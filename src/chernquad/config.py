"""Experiment configuration: flat INI-style files plus override strings.

A config describes exactly one experiment.  Sections:

``[surface]``
    ``kind`` names a builtin with its parameter keys, as ``chernquad
    list`` shows them; or ``kind = custom`` with metric component
    expressions ``g11``/``g12``/``g22`` (quoted strings in the
    expression grammar) on ``domain = rect`` (bounds ``u_min`` ...
    ``v_max`` and ``periodic_u``/``periodic_v`` flags) or
    ``domain = octagon`` (the fixed geodesic octagon chart, which takes
    none of the rect keys).
``[quadrature]``
    ``n_u``/``n_v`` node counts.  The rules follow the domain: the
    trapezoid rule on periodic axes, Gauss-Legendre otherwise.
``[compare]``
    optional second metric: ``mode = conformal`` with ``factor``,
    ``mode = perturb`` with ``seed`` and ``amplitude``, or
    ``mode = twist`` with ``amplitude``, defaults as for the ``compare``
    flags (:meth:`CompareSpec.for_mode`).  Only meaningful on fully
    periodic domains, where the frame-difference one-form is global.
``[output]``
    ``format`` (``csv`` or ``json``), optional ``path`` (default
    stdout) and ``grid_path`` (curvature-density samples for external
    plotting).

Values may be quoted; quotes are stripped.  Any key can be overridden
from the command line with ``--set section.key=value`` strings handled
by :func:`apply_overrides`.  Errors raise :class:`ConfigError` with the
offending section/key (parse errors keep configparser's line numbers).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ConfigError
from .zoo import BUILTIN_KINDS

_SECTIONS = ("surface", "quadrature", "compare", "output")
COMPARE_KEYS = {"conformal": ("factor",), "perturb": ("seed", "amplitude"),
                "twist": ("amplitude",)}
_RECT_KEYS = ("u_min", "u_max", "v_min", "v_max")
_BOOL_STATES = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


@dataclass(frozen=True)
class CustomSurfaceSpec:
    name: str
    domain_kind: str  # "rect" | "octagon"
    g11: str
    g12: str
    g22: str
    bounds: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0)
    periodic_u: bool = False
    periodic_v: bool = False


@dataclass(frozen=True)
class CompareSpec:
    """The second metric of a comparison; build it with :meth:`for_mode`."""

    mode: str  # "conformal" | "perturb" | "twist"
    factor: str = ""
    seed: int = 1  # the perturb defaults
    amplitude: float = 0.1

    @classmethod
    def for_mode(cls, mode: str, factor: str = "", seed: Optional[int] = None,
                 amplitude: Optional[float] = None) -> "CompareSpec":
        """``mode`` with a default for each argument it reads that is left
        None; the arguments it does not read are ignored."""
        if mode == "conformal":
            if not factor:
                raise ConfigError("[compare] conformal mode requires factor")
            return cls(mode, factor=factor)
        if mode == "twist":
            return cls(mode, amplitude=0.3 if amplitude is None else amplitude)
        if mode != "perturb":
            raise ConfigError(
                f"[compare] mode must be conformal, perturb or twist, got {mode!r}")
        return cls(mode, seed=cls.seed if seed is None else seed,
                   amplitude=cls.amplitude if amplitude is None else amplitude)


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str = ""  # empty means stdout
    grid_path: str = ""


@dataclass
class ExperimentConfig:
    """One experiment: a surface, a quadrature resolution, an optional
    comparison metric and an output contract."""

    surface_kind: str
    surface_params: Mapping[str, float] = field(default_factory=dict)
    custom: Optional[CustomSurfaceSpec] = None
    n_u: Optional[int] = None  # None falls back to the surface reference
    n_v: Optional[int] = None
    compare: Optional[CompareSpec] = None
    output: OutputSpec = field(default_factory=OutputSpec)
    timings: bool = False


def _strip_quotes(raw: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
        return s[1:-1]
    return s


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        return float(_strip_quotes(raw))
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None


def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(_strip_quotes(raw))
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


def _as_bool(section: str, key: str, raw: str) -> bool:
    s = _strip_quotes(raw).lower()
    if s not in _BOOL_STATES:
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    return _BOOL_STATES[s]


def _reject_unknown(section: str, options: Mapping[str, str], known) -> None:
    extra = sorted(set(options) - set(known))
    if extra:
        raise ConfigError(f"[{section}] unknown key {extra[0]!r}")


def new_parser() -> configparser.ConfigParser:
    # interpolation off: '%' may appear inside expression strings
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive (R vs r)
    return cp


def apply_overrides(cp: configparser.ConfigParser, overrides) -> None:
    """Apply ``section.key=value`` strings on top of parsed file content."""
    for item in overrides:
        head, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, dot, key = head.strip().partition(".")
        if not dot or not section or not key:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if section not in _SECTIONS:
            raise ConfigError(f"override section [{section}] unknown; "
                              f"expected one of {', '.join(_SECTIONS)}")
        if not cp.has_section(section):
            cp.add_section(section)
        cp[section][key.strip()] = value.strip()


def _surface_from(cp) -> tuple[str, dict, Optional[CustomSurfaceSpec]]:
    if not cp.has_section("surface"):
        raise ConfigError("missing [surface] section")
    opts = dict(cp["surface"])
    kind = _strip_quotes(opts.pop("kind", ""))
    if not kind:
        raise ConfigError("[surface] kind is required")
    if kind in BUILTIN_KINDS:
        _reject_unknown("surface", opts, BUILTIN_KINDS[kind][1])
        params = {k: _as_float("surface", k, v) for k, v in opts.items()}
        return kind, params, None
    if kind != "custom":
        raise ConfigError(f"[surface] unknown kind {kind!r}")

    domain_kind = _strip_quotes(opts.get("domain", "rect"))
    if domain_kind not in ("rect", "octagon"):
        raise ConfigError(f"[surface] domain must be rect or octagon, got {domain_kind!r}")
    # the octagon chart is fixed: bounds and periodic flags belong to rect
    rect_keys = (*_RECT_KEYS, "periodic_u", "periodic_v") if domain_kind == "rect" else ()
    _reject_unknown("surface", opts, ("name", "domain", "g11", "g12", "g22", *rect_keys))
    for comp in ("g11", "g12", "g22"):
        if comp not in opts:
            raise ConfigError(f"[surface] custom metric requires {comp}")
    bounds = (0.0, 1.0, 0.0, 1.0)
    if domain_kind == "rect":
        missing = [k for k in _RECT_KEYS if k not in opts]
        if missing:
            raise ConfigError(f"[surface] rect domain requires {missing[0]}")
        bounds = tuple(_as_float("surface", k, opts[k]) for k in _RECT_KEYS)
    spec = CustomSurfaceSpec(
        name=_strip_quotes(opts.get("name", "custom")),
        domain_kind=domain_kind,
        g11=_strip_quotes(opts["g11"]),
        g12=_strip_quotes(opts["g12"]),
        g22=_strip_quotes(opts["g22"]),
        bounds=bounds,
        periodic_u=_as_bool("surface", "periodic_u", opts.get("periodic_u", "false")),
        periodic_v=_as_bool("surface", "periodic_v", opts.get("periodic_v", "false")),
    )
    return "custom", {}, spec


def _compare_from(cp) -> Optional[CompareSpec]:
    if not cp.has_section("compare"):
        return None
    opts = dict(cp["compare"])
    mode = _strip_quotes(opts.pop("mode", ""))
    if mode in COMPARE_KEYS:
        _reject_unknown("compare", opts, COMPARE_KEYS[mode])
    return CompareSpec.for_mode(
        mode, factor=_strip_quotes(opts.get("factor", "")),
        seed=_as_int("compare", "seed", opts["seed"]) if "seed" in opts else None,
        amplitude=(_as_float("compare", "amplitude", opts["amplitude"])
                   if "amplitude" in opts else None))


def config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    kind, params, custom = _surface_from(cp)

    n_u = n_v = None
    if cp.has_section("quadrature"):
        opts = dict(cp["quadrature"])
        _reject_unknown("quadrature", opts, ("n_u", "n_v"))
        if "n_u" in opts:
            n_u = _as_int("quadrature", "n_u", opts["n_u"])
        if "n_v" in opts:
            n_v = _as_int("quadrature", "n_v", opts["n_v"])
    if (n_u is None) != (n_v is None):
        raise ConfigError("[quadrature] n_u and n_v must be given together")

    output = OutputSpec()
    if cp.has_section("output"):
        opts = dict(cp["output"])
        _reject_unknown("output", opts, ("format", "path", "grid_path"))
        fmt = _strip_quotes(opts.get("format", "csv"))
        if fmt not in ("csv", "json"):
            raise ConfigError(f"[output] format must be csv or json, got {fmt!r}")
        output = OutputSpec(format=fmt,
                            path=_strip_quotes(opts.get("path", "")),
                            grid_path=_strip_quotes(opts.get("grid_path", "")))

    return ExperimentConfig(surface_kind=kind, surface_params=params, custom=custom,
                            n_u=n_u, n_v=n_v,
                            compare=_compare_from(cp), output=output)


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Read one experiment config file, apply overrides, validate."""
    cp = new_parser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            cp.read_file(handle, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from None
    except configparser.Error as exc:
        # configparser messages carry file name and line numbers
        raise ConfigError(str(exc)) from None
    apply_overrides(cp, overrides)
    return config_from_parser(cp)
