"""Segment-map geometry lab: model metric spaces with distinguished segment
maps, discretized convex hulls, extremal-point detection, and an end-to-end
numerical check that compact convex nets are recovered from their extremal
points.
"""

from .space_core import (
    AxiomReport,
    BicombedSpace,
    ConvexityWitness,
    EuclideanPoint,
    HyperboloidPoint,
    InvalidInputError,
    Point,
    ProductPoint,
    TreePoint,
    canonical_key,
    check_axioms,
    distance,
    evaluate_bicombing,
    sample_segment,
)
from .model_spaces import (
    HyperbolicPlane,
    LpSpace,
    MetricTreeSpec,
    NormedSpaceSpec,
    ProductSpace,
    ProductSpaceSpec,
    TreeSpace,
    euclidean,
    hyperboloid,
    hyperbolic_point_at,
    lorentz_boost,
    make_hyperbolic_plane,
    make_lp_space,
    make_metric_tree,
    make_product,
    star_tree,
)
from .convexity import (
    ConvexFunctional,
    FunctionalCheck,
    HullResult,
    NetWitness,
    PointNet,
    check_convex_functional,
    directed_excess,
    hausdorff,
    hull_closure,
    is_convex_net,
)
from .extremal import (
    ChordWitness,
    DescentResult,
    ExtremalParams,
    ExtremalScan,
    argmax_face,
    canonical_starts,
    extremal_points,
    is_extremal_point,
    is_extremal_set,
    minimal_extremal_descent,
)
from .km_verify import (
    KMReport,
    PaperChecksReport,
    run_paper_checks,
    verify_krein_milman,
)

__version__ = "0.1.0"
