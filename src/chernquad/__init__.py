"""Gauss-Bonnet as a Chern number, verified by quadrature.

A Riemannian metric on an oriented surface chart induces a complex
structure on each tangent plane, making the tangent bundle a hermitian
line bundle.  The Levi-Civita connection is then a hermitian connection
whose curvature two-form integrates to 2*pi times an integer, the first
Chern number; that integer is the Euler characteristic and does not
move when the metric does.  This package computes every object in that
chain concretely (jets of metrics, complex structures, connection
forms, curvature, quadrature) and ships the checks that pin each
identity down numerically.
"""

from .jets import Jet2, partial_jet
from .expressions import (
    ExprDomainError,
    ExprError,
    ExprSyntaxError,
    eval_jet,
    parse,
)
from .errors import (
    ConfigError,
    DomainMismatchError,
    GeometryError,
    JacobianSingularError,
    NonFiniteValueError,
    NonpositiveFactorError,
    OrientationMismatchError,
    PeriodicityError,
    PointOutsideDomainError,
    SpdViolationError,
)
from .metric import (
    MetricField,
    MetricJet,
    MetricTensor,
    ParamMap,
    Point2,
    PolygonDomain,
    RectDomain,
    conformal_scale,
    eval_metric_grid,
    eval_metric_jet,
    metric_field_from_expressions,
    perturb_metric,
    pullback_metric,
    scalar_field_from_expression,
    twist_map,
)
from .complex_structure import (
    AreaFormAtPoint,
    ComplexStructureTensor,
    HermitianValue,
    TangentVector,
    area_form,
    bundle_isomorphism,
    complex_scale,
    complex_structure,
    hermitian_product,
    metric_inner,
    parallelogram_residual,
)
from .curvature import (
    ConnectionForm,
    CurvatureReport,
    CurvatureSample,
    OneForm,
    christoffels,
    connection_difference,
    connection_form,
    curvature_operator,
    curvature_report_grid,
    curvature_two_form,
    exact_one_form,
    fd_curl,
    gauss_curvature,
    gauss_curvature_brioschi,
)
from .quadrature import (
    QuadratureSpec,
    build_nodes,
    domain_measure,
    integrate_scalar,
    reduce_sum,
)
from .chern import ChernResult, chern_number, curvature_sample, stokes_residual
from .zoo import (
    Surface,
    conformal_surface,
    custom_surface,
    flat_torus,
    make_surface,
    octagon_vertices,
    perturbed_surface,
    poincare_octagon,
    sphere,
    torus_revolution,
    twisted_surface,
)
from .config import CompareSpec, ExperimentConfig, OutputSpec, load_config
from .experiment import Report, run

__version__ = "0.1.0"
