"""mslab: an exact-rational desk lab for finite metric geometry.

Finite metric spaces with exact rational distances, held as integers on
their least common grid; the Katetov one-point-extension calculus over
them, on that grid; saturation towards finite Urysohn-sphere
approximants, landmark seminorms, the step-function computations behind
the L^p separation example, radial profile checks, and a computable copy
of the universal homogeneous graph. Every
constructive operation re-validates its output; every check reports a
structured, reproducible verdict.
"""

from .banach import (
    BUILTIN_PROFILES,
    PNormValue,
    RadialProfile,
    RationalVector,
    StepFn2D,
    convex_by_midpoint_scan,
    disjoint_support_identity,
    hilbert_check,
    left_square_indicator,
    lp_counterexample,
    lp_norm,
    lp_pairing,
    mean_zero_square,
    profiles_agree_on,
    radial_profile_check,
    right_slab_indicator,
    stereographic_point,
    sub2d,
)
from .errors import MslabError
from .metric import (
    KatetovFn,
    MetricSpace,
    MetricVerdict,
    cap_metric,
    elementary_katetov,
    enumerate_katetov,
    extend_by_katetov,
    is_katetov,
    kuratowski_embed,
    sup_distance,
    truncate_katetov,
    validate_metric,
)
from .rado import (
    BasisCode,
    basis_member,
    basis_refinement_check,
    rado_adjacent,
    rado_extension_witness,
    rado_extension_witnesses,
    rado_metric,
    rado_metric_space,
)
from .rationals import as_fraction, format_rational, parse_rational
from .report import WitnessReport, canonical_json, report_json
from .urysohn import (
    Approximant,
    BFState,
    back_and_forth_extend,
    finite_injectivity_check,
    fraisse_step,
    injectivity_chain,
    ma_extension,
    nonproper_witness,
    prop53_extension,
    uwmt_extension,
)
from .weak import (
    LandmarkSet,
    gromov_net_indices,
    proximity_test,
    restrict_katetov,
    weak_seminorm,
)

__version__ = "0.1.0"
