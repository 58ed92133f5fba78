"""Conditioned dynamics of a continuously measured particle.

Quantum and classical evolution of one degree of freedom under isolated,
unconditioned-open, and measurement-conditioned dynamics, plus the
diagnostics built on top of them: trajectory divergence exponents,
measurement-regime classification, and feedback cooling.
"""

from .core import (
    ClassicalEnsemble,
    DegenerateEnsembleError,
    GridResolutionError,
    MomentSet,
    PositionGrid,
    QcondError,
    SupportEscapeError,
    SystemSpec,
    gaussian_state,
    gaussian_wavefunction,
)
from .noise import generate, substream_rng
from .qdyn import DensityStepper, MeasurementSpec, PureStepper
from .cdyn import ks_step, liouville_step, newton_trajectory, resample
from .cumulant import GaussianBelief, belief_vs_full_compare, centroid_step
from .qct import (
    RegimeReport,
    action_scale,
    evaluate_along_trajectory,
    localization_margin,
    lownoise_margin_classical,
    quantum_window,
)
from .lyap import PairedRunResult, ensemble_lyapunov, paired_run
from .feedback import FeedbackPolicy

__version__ = "0.1.0"
