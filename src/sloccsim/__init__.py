"""Simulator for exchange-phase measurement through post-selected entanglement.

Two identical particles are spread over two detection regions; keeping only
one-detection-per-region events leaves a two-amplitude entangled state whose
relative phase is the particles' exchange phase.  A fixed pseudospin
rotation turns that phase into a z-basis correlation, which finite-shot
counting, a convex noise model, mixtures, tomography and a movable-plate
calibration then dress up to match a real optical run.
"""

from .errors import (
    AmbiguousFitError,
    ConfigError,
    DegeneratePhasesError,
    DegenerateStateError,
    ExtractionError,
    LowIndistinguishabilityError,
    PostSelectionError,
    TallyRowError,
)
from .measurement import (
    PhaseEstimate,
    estimate_phase,
    estimate_zz,
    expectation_zz,
    outcome_probs,
    rotate_density,
    sample_counts,
)
from .mixture import MixtureEstimate, estimate_p, mixed_state, mixture_expectation
from .noise import NoiseModel, fit_noise, noisy_state
from .plate import (
    PlateGeometry,
    PlatePhase,
    displacement_from_phase,
    phase_from_displacement,
    wrap_phase,
)
from .slocc import (
    DeformedPair,
    PreparationSettings,
    SloccResult,
    beta_indistinguishability,
    deform,
    indistinguishability,
    prepare_lr,
    project_slocc,
)
from .states import (
    DensityMatrix4,
    DetectionMode,
    JointKet,
    Pseudospin,
    Region,
    SingleParticleState,
    StatisticsParameter,
    fidelity_pure,
    joint_amplitude,
    ket_to_density,
)
from .tomography import (
    ExtractedParams,
    extract_params,
    reconstruct,
    setting_probabilities,
    simulate_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousFitError",
    "ConfigError",
    "DegeneratePhasesError",
    "DegenerateStateError",
    "ExtractionError",
    "LowIndistinguishabilityError",
    "PostSelectionError",
    "TallyRowError",
    "PhaseEstimate",
    "estimate_phase",
    "estimate_zz",
    "expectation_zz",
    "outcome_probs",
    "rotate_density",
    "sample_counts",
    "MixtureEstimate",
    "estimate_p",
    "mixed_state",
    "mixture_expectation",
    "NoiseModel",
    "fit_noise",
    "noisy_state",
    "PlateGeometry",
    "PlatePhase",
    "displacement_from_phase",
    "phase_from_displacement",
    "wrap_phase",
    "DeformedPair",
    "PreparationSettings",
    "SloccResult",
    "beta_indistinguishability",
    "deform",
    "indistinguishability",
    "prepare_lr",
    "project_slocc",
    "DensityMatrix4",
    "DetectionMode",
    "JointKet",
    "Pseudospin",
    "Region",
    "SingleParticleState",
    "StatisticsParameter",
    "fidelity_pure",
    "joint_amplitude",
    "ket_to_density",
    "ExtractedParams",
    "extract_params",
    "reconstruct",
    "setting_probabilities",
    "simulate_tomography",
    "__version__",
]
