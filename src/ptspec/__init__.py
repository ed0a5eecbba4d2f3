"""Spectra of PT-symmetric Schrodinger problems on complexified contours."""

from .analytic import (
    Figure3Row,
    Level,
    Reparametrization,
    figure3_data,
    ground_state_bruteforce,
    ground_state_comparison,
    ground_state_compact_formula,
    level,
    spectrum_table,
)
from .contour import (
    AngleWindow,
    Contour,
    StraightLine,
    UShaped,
    angle_window,
    derivatives,
    evaluate,
    pt_residual,
)
from .errors import (
    ConvergenceFailure,
    DomainError,
    FallToCenter,
    FitError,
    GeometryError,
    PtspecError,
    SingularCoupling,
    SingularL,
    SingularPoint,
    UnsupportedGeometry,
)
from .model import (
    DECAYING_PAIR,
    PLANE_WAVE_PAIR,
    AngularMomentum,
    AsymptoticClassification,
    BenderBoettcher,
    CoulombKratzer,
    MassConfig,
    Potential,
    StabilityVerdict,
    classify_asymptotics,
    effective_L,
    evaluate_potential,
    stability_verdict,
)
from .solver import (
    BoundStateProblem,
    DiscretizedOperator,
    GridSpec,
    LevelResult,
    SpectrumResult,
    TargetedResult,
    TwoGridConvergence,
    discretize,
    eigenvector_asymptotics,
    find_bound_states,
    full_spectrum,
    oscillator_problem,
    positive_mass_instability_probe,
    targeted_eigenvalue,
)

__version__ = "0.1.0"
