"""Matrix-fractional functions, infimal projections, and Gram penalties."""

from .gmf import (
    GmfEval,
    ProblemData,
    bordered_matrix,
    eval_gmf,
    eval_gmf_oracle,
    grad_gmf,
    in_KA,
    in_KA_polar,
    in_int_KA,
    in_omega,
)
from .hset import (
    ConvexSetSpec,
    Fantope,
    HSpec,
    Hull,
    Indicator,
    Linear,
    Ray,
    ShiftedPSDCap,
    Singleton,
    SpectralBox,
    SpectralSet,
    Support,
    TraceBall,
    gauge,
    h_conj,
    h_eval,
    hspec_from_json,
    hspec_to_json,
    member,
    project,
    set_from_json,
    set_to_json,
    support,
)
from .infproj import (
    CQReport,
    InfProjEval,
    InfProjProblem,
    cq_report,
    dom_p_member,
    dual_gap,
    dual_value,
    eval_p,
    eval_p_conj,
    subdiff_p_witness,
    xi_member,
)
from .numlin import DEFAULT_TOL, Tolerances
from .smooth import (
    FitSpec,
    SolveTrace,
    StageLog,
    objective_certificate,
    solve_prox_reference,
    solve_smooth,
)
from .vgf import (
    KyFanParams,
    VgfInstance,
    gauge_factor_sup,
    kyfan_norm,
    kyfan_vgf_identity,
    vgf_conj,
    vgf_eval,
    vgf_gauge_decomp,
    vgf_subdiff,
)

__version__ = "0.1.0"
