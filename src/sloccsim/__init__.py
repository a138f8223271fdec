"""Simulator for exchange-phase measurement through post-selected entanglement.

Two identical particles are spread over two detection regions; keeping only
one-detection-per-region events leaves a two-amplitude entangled state whose
relative phase is the particles' exchange phase.  A fixed pseudospin
rotation turns that phase into a z-basis correlation, which finite-shot
counting, a convex noise model, mixtures, tomography and a movable-plate
calibration then dress up to match a real optical run.
"""

from .errors import (
    ConfigError,
    DegeneratePhasesError,
    ExtractionError,
    LowIndistinguishabilityError,
    TallyRowError,
)
from .measurement import PhaseEstimate, estimate_phase, outcome_probs, rotate_density, sample_counts
from .mixture import MixtureEstimate, estimate_p, mixed_state, mixture_expectation
from .noise import NoiseModel, fit_noise, noisy_state
from .plate import PlateGeometry, phase_from_displacement, wrap_phase
from .slocc import PreparationSettings, prepare_lr
from .states import DensityMatrix4, fidelity_pure, ket_to_density
from .tomography import (
    ExtractedParams,
    extract_params,
    reconstruct,
    setting_probabilities,
    simulate_tomography,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegeneratePhasesError",
    "ExtractionError",
    "LowIndistinguishabilityError",
    "TallyRowError",
    "PhaseEstimate",
    "estimate_phase",
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
    "phase_from_displacement",
    "wrap_phase",
    "PreparationSettings",
    "prepare_lr",
    "DensityMatrix4",
    "fidelity_pure",
    "ket_to_density",
    "ExtractedParams",
    "extract_params",
    "reconstruct",
    "setting_probabilities",
    "simulate_tomography",
    "__version__",
]
