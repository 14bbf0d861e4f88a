"""Experiment configuration: flat INI-style files plus override strings.

A config holds the built experiment.  :func:`load_config` and the
``chern``/``compare`` flags build it where the input is read, with the
same builders (:func:`builtin_surface`, :func:`quadrature_spec` and
:func:`derived_surface`), so a bad value such as a factor that does not
parse is reported before any quadrature runs.  Sections:

``[surface]``
    ``kind`` names a builtin with its parameter keys, as ``chernquad
    list`` shows them; or ``kind = custom`` with metric component
    expressions ``g11``/``g12``/``g22`` (quoted strings in the
    expression grammar) on ``domain = rect`` (bounds ``u_min`` ...
    ``v_max`` and ``periodic_u``/``periodic_v`` flags) or
    ``domain = octagon`` (the fixed geodesic octagon chart, which takes
    none of the rect keys).
``[quadrature]``
    ``n_u``/``n_v`` node counts, default the surface's reference
    resolution.  The rules follow the domain: the trapezoid rule on
    periodic axes, Gauss-Legendre otherwise.
``[compare]``
    optional second metric, a ``mode`` of ``zoo.COMPARE_MODES``:
    ``conformal`` with ``factor``, ``perturb`` with ``seed`` and
    ``amplitude``, or ``twist`` with ``amplitude``, defaults as in the
    constructors.  Only meaningful on fully periodic domains, where the
    frame-difference one-form is global.
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
import contextlib
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import ConfigError
from .metric import OctagonDomain, RectDomain
from .quadrature import QuadratureSpec
from .zoo import BUILTIN_KINDS, COMPARE_MODES, Surface, custom_surface, make_surface

_SECTIONS = ("surface", "quadrature", "compare", "output")
_RECT_KEYS = ("u_min", "u_max", "v_min", "v_max")
_COMPARE_TYPES = {"seed": int, "amplitude": float}  # a factor is text


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str = ""  # empty means stdout
    grid_path: str = ""


@dataclass
class ExperimentConfig:
    """One built experiment: a surface, its quadrature, an optional second
    metric on the same chart and an output contract."""

    surface: Surface
    spec: QuadratureSpec
    other: Optional[Surface] = None
    output: OutputSpec = field(default_factory=OutputSpec)
    timings: bool = False


@contextlib.contextmanager
def _reported_in(section: str, errors=Exception):
    """Report ``errors`` raised inside the block as ConfigErrors of ``section``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def builtin_surface(kind: str, params: Mapping[str, float]) -> Surface:
    """``zoo.make_surface``; its errors become [surface] ConfigErrors."""
    with _reported_in("surface"):
        return make_surface(kind, params)


def quadrature_spec(surface: Surface, n_u: Optional[int],
                    n_v: Optional[int]) -> QuadratureSpec:
    """The node counts, or the surface's reference resolution when None."""
    if n_u is None:
        n_u, n_v = surface.reference_resolution
    with _reported_in("quadrature", ValueError):
        return QuadratureSpec(n_u, n_v)


def derived_surface(base: Surface, mode: str, params: Mapping[str, object]) -> Surface:
    """The ``mode`` entry of ``zoo.COMPARE_MODES`` built on ``base``.  The mode,
    its keys, the conformal factor and the fully periodic chart are checked
    first, in that order; every error is a [compare] ConfigError."""
    if mode not in COMPARE_MODES:
        *head, last = COMPARE_MODES
        raise ConfigError(f"[compare] mode must be {', '.join(head)} or {last}, "
                          f"got {mode!r}")
    constructor, keys = COMPARE_MODES[mode]
    _reject_unknown("compare", params, keys)
    if mode == "conformal" and not params.get("factor"):
        raise ConfigError("[compare] conformal mode requires factor")
    if not (isinstance(base.domain, RectDomain) and base.domain.fully_periodic):
        raise ConfigError("[compare] comparison requires a fully periodic domain")
    with _reported_in("compare"):
        return constructor(base, **params)


def _strip_quotes(raw: str) -> str:
    s = raw.strip()
    if len(s) >= 2 and s[0] == s[-1] and s[0] in ("'", '"'):
        return s[1:-1]
    return s


def _as_value(section: str, key: str, raw: str, kind=float):
    try:
        return kind(_strip_quotes(raw))
    except ValueError:  # never raised for kind=str
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{section}] {key}: expected {what}, got {raw!r}") from None


def _as_bool(section: str, key: str, raw: str) -> bool:
    s = _strip_quotes(raw).lower()
    if s not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[s]


def _reject_unknown(section: str, options: Mapping[str, str], known) -> None:
    extra = sorted(set(options) - set(known))
    if extra:
        raise ConfigError(f"[{section}] unknown key {extra[0]!r}")


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


def _surface_from(cp) -> Surface:
    if not cp.has_section("surface"):
        raise ConfigError("missing [surface] section")
    opts = dict(cp["surface"])
    kind = _strip_quotes(opts.pop("kind", ""))
    if not kind:
        raise ConfigError("[surface] kind is required")
    if kind in BUILTIN_KINDS:
        _reject_unknown("surface", opts, BUILTIN_KINDS[kind][1])
        return builtin_surface(kind, {k: _as_value("surface", k, v)
                                      for k, v in opts.items()})
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
    if domain_kind == "rect":
        missing = [k for k in _RECT_KEYS if k not in opts]
        if missing:
            raise ConfigError(f"[surface] rect domain requires {missing[0]}")
        bounds = [_as_value("surface", k, opts[k]) for k in _RECT_KEYS]
        flags = {k: _as_bool("surface", k, opts.get(k, "false"))
                 for k in ("periodic_u", "periodic_v")}
    with _reported_in("surface"):
        domain = RectDomain(*bounds, **flags) if domain_kind == "rect" else OctagonDomain()
        return custom_surface(_strip_quotes(opts.get("name", "custom")), domain,
                              *(_strip_quotes(opts[k]) for k in ("g11", "g12", "g22")))


def _compare_from(cp, base: Surface) -> Optional[Surface]:
    if not cp.has_section("compare"):
        return None
    opts = dict(cp["compare"])
    mode = _strip_quotes(opts.pop("mode", ""))
    params = {k: _as_value("compare", k, v, _COMPARE_TYPES.get(k, str))
              for k, v in opts.items()}
    return derived_surface(base, mode, params)


def config_from_parser(cp: configparser.ConfigParser) -> ExperimentConfig:
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    surface = _surface_from(cp)

    opts = dict(cp["quadrature"]) if cp.has_section("quadrature") else {}
    _reject_unknown("quadrature", opts, ("n_u", "n_v"))
    n_u, n_v = (_as_value("quadrature", k, opts[k], int) if k in opts else None
                for k in ("n_u", "n_v"))
    if (n_u is None) != (n_v is None):
        raise ConfigError("[quadrature] n_u and n_v must be given together")
    spec = quadrature_spec(surface, n_u, n_v)

    opts = dict(cp["output"]) if cp.has_section("output") else {}
    _reject_unknown("output", opts, ("format", "path", "grid_path"))
    fmt = _strip_quotes(opts.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"[output] format must be csv or json, got {fmt!r}")
    output = OutputSpec(fmt, *(_strip_quotes(opts.get(k, ""))
                               for k in ("path", "grid_path")))

    return ExperimentConfig(surface, spec, _compare_from(cp, surface), output)


def load_config(path: str, overrides=()) -> ExperimentConfig:
    """Read one experiment config file, apply overrides, validate."""
    cp = configparser.ConfigParser(interpolation=None)  # '%' may occur in expressions
    cp.optionxform = str  # keys are case-sensitive (R vs r)
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
