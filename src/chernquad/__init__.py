"""Gauss-Bonnet as a Chern number, verified by quadrature.

A Riemannian metric on an oriented surface chart induces a complex
structure on each tangent plane, making the tangent bundle a hermitian
line bundle.  The Levi-Civita connection is then a hermitian connection
whose curvature two-form integrates to 2*pi times an integer, the first
Chern number; that integer is the Euler characteristic and does not
move when the metric does.  This package computes every object in that
chain concretely (jets of metrics, complex structures, connection
forms, curvature, quadrature) and ships the checks that pin each
identity down numerically.  The top level exports what the demos and
README use; everything else is reached through its submodule.
"""

from .metric import MetricTensor, RectDomain
from .complex_structure import (
    area_form,
    bundle_isomorphism,
    complex_scale,
    complex_structure,
    hermitian_product,
    metric_inner,
)
from .curvature import (
    connection_difference,
    connection_form,
    curvature_report_grid,
    gauss_curvature,
)
from .quadrature import QuadratureSpec
from .chern import chern_number, stokes_residual
from .zoo import (
    conformal_surface,
    custom_surface,
    make_surface,
    perturbed_surface,
    twisted_surface,
)
from .config import load_config

__version__ = "0.1.0"
