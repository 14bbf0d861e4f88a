"""User-defined metrics from expression strings.

Builds two custom surfaces: a conformally flat torus metric given as
expressions, and the hyperbolic disk metric over the geodesic octagon
written out by hand (reproducing the builtin). Also shows the config
file route used by the command line.
Run: python3 demos/custom_metrics.py
"""

import math
import os
import tempfile

from chernquad import (
    RectDomain,
    chern_number,
    custom_surface,
    load_config,
)
from chernquad import experiment
from chernquad.metric import OctagonDomain

# a conformally flat torus: K integrates to zero whatever the factor
dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                 periodic_u=True, periodic_v=True)
bumpy = custom_surface("bumpy_torus", dom,
                       "exp(0.4*sin(u) + 0.2*cos(v))", "0",
                       "exp(0.4*sin(u) + 0.2*cos(v))")
result = chern_number(bumpy)
print(f"{bumpy.name}: raw = {result.raw:+.3e}, rounded = {result.rounded}")

# the hyperbolic octagon metric, written as expressions
octo = custom_surface("handwritten_octagon", OctagonDomain(),
                      "4/(1 - u^2 - v^2)^2", "0", "4/(1 - u^2 - v^2)^2")
result = chern_number(octo)
print(f"{octo.name}: raw = {result.raw:+.15f}, rounded = {result.rounded}")
print()

# the same octagon through a config file, as the CLI would run it
CONFIG = """
[surface]
kind = custom
name = config_octagon
domain = octagon
g11 = "4/(1 - u^2 - v^2)^2"
g12 = "0"
g22 = "4/(1 - u^2 - v^2)^2"

[output]
format = json
"""

with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as handle:
    handle.write(CONFIG)
    path = handle.name
try:
    report = experiment.run(load_config(path))
finally:
    os.unlink(path)
print("config route report:")
print(report.to_json())
