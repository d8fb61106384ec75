"""Simulator for an exceptional-point optomechanical strain sensor.

Two dissipatively balanced mechanical resonators, each damped or
anti-damped by its own driven optical cavity, form a non-Hermitian pair
whose eigenfrequency splitting responds to a common strain h as
4 sqrt(2) J sqrt(h) when biased at the exceptional point. The package
computes the supermode spectrum, locates the EP photon number, evaluates
the splitting response and the thermal-noise-limited minimum detectable
strain, and cross-checks everything against time-domain propagation.
"""

import numpy as _np


def _require_numpy(version: str) -> None:
    """Refuse a numpy before 2.0, whose np.fft takes no ``out`` (dynamics._readout)."""
    if int(version.split(".")[0]) < 2:
        raise ImportError(f"epgw needs numpy >= 2.0; numpy {version} is installed")


_require_numpy(_np.__version__)

# the submodules import only after the numpy check, so an old numpy is named, not a traceback
from .core import (
    C_LIGHT,
    HBAR,
    K_BOLTZMANN,
    ConfigParseError,
    CoupledSystem,
    EpgwError,
    InvalidRangeError,
    MechanicalResonator,
    NoEPError,
    NonPositiveParameterError,
    NotAtEPError,
    OpticalCavity,
    Phase,
    RunawayGainError,
    SamplingTooCoarseError,
    SensitivityContext,
    SupermodePair,
    TooFewSamplesError,
    UnknownKeyError,
    ValidationError,
    ZeroCouplingError,
    balanced_system,
    drive_amplitude_from_thickness,
)
from .dynamics import (
    SpectralEstimate,
    Trajectory,
    estimate_spectrum,
    mode_matrix,
    propagate_exact,
    propagate_rk,
)
from .sensitivity import (
    SensitivityCurve,
    min_detectable_strain,
    read_overlay_csv,
    sensitivity_curve,
    thermal_frequency_noise,
)
from .spectral import (
    SplittingResult,
    detuning_response,
    eigenvalues_general,
    ep_photon_number,
    ep_tolerance,
    splitting,
    sweep_photon_number,
    sweep_strain,
    vacuum_coupling,
    zero_point_fluctuation,
)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT",
    "HBAR",
    "K_BOLTZMANN",
    "ConfigParseError",
    "CoupledSystem",
    "EpgwError",
    "InvalidRangeError",
    "MechanicalResonator",
    "NoEPError",
    "NonPositiveParameterError",
    "NotAtEPError",
    "OpticalCavity",
    "Phase",
    "RunawayGainError",
    "SamplingTooCoarseError",
    "SensitivityContext",
    "SensitivityCurve",
    "SpectralEstimate",
    "SplittingResult",
    "SupermodePair",
    "TooFewSamplesError",
    "Trajectory",
    "UnknownKeyError",
    "ValidationError",
    "ZeroCouplingError",
    "balanced_system",
    "detuning_response",
    "drive_amplitude_from_thickness",
    "eigenvalues_general",
    "ep_photon_number",
    "ep_tolerance",
    "estimate_spectrum",
    "min_detectable_strain",
    "mode_matrix",
    "propagate_exact",
    "propagate_rk",
    "read_overlay_csv",
    "sensitivity_curve",
    "splitting",
    "sweep_photon_number",
    "sweep_strain",
    "thermal_frequency_noise",
    "vacuum_coupling",
    "zero_point_fluctuation",
]
