"""Experiment configuration: flat INI-style files plus override strings.

A config holds the built experiment.  :func:`load_config` reads a file
and its ``--set section.key=value`` overrides into ``{section: {key:
value}}`` strings, and :func:`config_from_sections` builds the
experiment from such strings wherever they come from; the
``chern``/``compare`` flags are shorthand for the same keys.  So this
module alone parses and checks a value, the same mistake reads the same
from a file, an override or a flag, and a bad value such as a factor
that does not parse is reported before any quadrature runs.  Sections:

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

Values are stripped of surrounding whitespace and may be quoted; quotes
are stripped.  A section that only an override names starts from the
file's ``[DEFAULT]`` keys, as every file section does.  Errors raise
:class:`ConfigError` with the offending section/key (parse errors keep
configparser's line numbers).
"""

from __future__ import annotations

import configparser
import contextlib
import math
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
    """Report ``errors`` raised inside the block as ConfigErrors of ``section``;
    a ConfigError is wrapped again, so parse values before the block."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"[{section}] {exc}") from None


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


def _overrides(items):
    """(section, key, value) of each ``section.key=value`` string."""
    for item in items:
        head, sep, value = item.partition("=")
        section, dot, key = head.strip().partition(".")
        if not (sep and dot and section and key):
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        if section not in _SECTIONS:
            raise ConfigError(f"override section [{section}] unknown; "
                              f"expected one of {', '.join(_SECTIONS)}")
        yield section, key.strip(), value.strip()


def _surface_from(sections, builtin: Optional[str]) -> Surface:
    opts = dict(sections.get("surface", {}))
    if builtin is None:
        if "surface" not in sections:
            raise ConfigError("missing [surface] section")
        kind = _strip_quotes(opts.pop("kind", ""))
        if not kind:
            raise ConfigError("[surface] kind is required")
    else:
        kind = _strip_quotes(builtin)
    if kind in BUILTIN_KINDS:
        _reject_unknown("surface", opts, BUILTIN_KINDS[kind][1])
        params = {k: _as_value("surface", k, v) for k, v in opts.items()}
        with _reported_in("surface"):
            return make_surface(kind, params)
    if kind != "custom" or builtin is not None:
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


def _compare_from(opts, base: Surface) -> Surface:
    """The mode, its keys, the conformal factor and the fully periodic chart
    are checked in that order, after every value is parsed."""
    opts = dict(opts)
    mode = _strip_quotes(opts.pop("mode", ""))
    params = {k: _as_value("compare", k, v, _COMPARE_TYPES.get(k, str))
              for k, v in opts.items()}
    if params.get("seed", 0) < 0:
        raise ConfigError(f"[compare] seed: expected a non-negative integer, "
                          f"got {opts['seed']!r}")
    if not math.isfinite(params.get("amplitude", 0.0)):
        raise ConfigError(f"[compare] amplitude: expected a finite number, "
                          f"got {opts['amplitude']!r}")
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


def config_from_sections(sections: Mapping[str, Mapping[str, str]],
                         builtin: Optional[str] = None) -> ExperimentConfig:
    """The experiment that ``{section: {key: value}}`` strings describe.

    ``builtin`` is a surface kind named apart from ``[surface]``, as the
    ``--surface`` flag names it: that section then holds only the kind's
    parameters, and only the builtin kinds are known.
    """
    for section in sections:
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
    surface = _surface_from(sections, builtin)

    opts = sections.get("quadrature", {})
    _reject_unknown("quadrature", opts, ("n_u", "n_v"))
    n_u, n_v = (_as_value("quadrature", k, opts[k], int) if k in opts else None
                for k in ("n_u", "n_v"))
    if (n_u is None) != (n_v is None):
        raise ConfigError("[quadrature] n_u and n_v must be given together")
    if n_u is None:
        n_u, n_v = surface.reference_resolution
    with _reported_in("quadrature", ValueError):
        spec = QuadratureSpec(n_u, n_v)

    opts = sections.get("output", {})
    _reject_unknown("output", opts, ("format", "path", "grid_path"))
    fmt = _strip_quotes(opts.get("format", "csv"))
    if fmt not in ("csv", "json"):
        raise ConfigError(f"[output] format must be csv or json, got {fmt!r}")
    output = OutputSpec(fmt, *(_strip_quotes(opts.get(k, ""))
                               for k in ("path", "grid_path")))

    other = _compare_from(sections["compare"], surface) if "compare" in sections else None
    return ExperimentConfig(surface, spec, other, output)


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
    # each section holds the [DEFAULT] keys, as cp[section] does
    sections = {name: dict(cp[name]) for name in cp.sections()}
    for section, key, value in _overrides(overrides):
        sections.setdefault(section, dict(cp.defaults()))[key] = value
    return config_from_sections(sections)
