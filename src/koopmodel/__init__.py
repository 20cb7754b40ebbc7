"""Data-driven Koopman-operator modeling toolkit.

Lift observed trajectories through an observable dictionary, fit the
finite-section operator matrix by least squares, extract its spectral
triple (eigenvalues, eigenfunction values, modes), predict through the
spectral expansion, detect on-attractor eigenvalues by harmonic
averaging, and discover reduced linear/nonlinear representations from
the fitted operator's zero pattern.

Attribute access is lazy so that the command-line entry point can cap
BLAS threading before the numerical libraries load.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # trajectories
    "Trajectory": ".trajectories",
    "TrajectorySet": ".trajectories",
    # dictionary
    "Observable": ".dictionary",
    "Dictionary": ".dictionary",
    "lift_trajectories": ".dictionary",
    "dependence_closure": ".dictionary",
    "generator_features": ".dictionary",
    # edmd
    "KoopmanMatrix": ".edmd",
    "fit_koopman_matrix": ".edmd",
    "pseudoinverse": ".edmd",
    "DEFAULT_SVD_TOL": ".edmd",
    # spectral
    "EigenSystem": ".spectral",
    "ModelMetadata": ".spectral",
    "SpectralTriple": ".spectral",
    "eigendecompose": ".spectral",
    "eigenfunction_values": ".spectral",
    "build_spectral_triple": ".spectral",
    "predict": ".spectral",
    "truncate_spectrum": ".spectral",
    # harmonic
    "FrequencySpectrum": ".harmonic",
    "EigenFrequency": ".harmonic",
    "fft_amplitude_spectrum": ".harmonic",
    "harmonic_average": ".harmonic",
    "find_eigenfrequencies": ".harmonic",
    # representation
    "ZeroPattern": ".representation",
    "RepresentationSubset": ".representation",
    "RepresentationReport": ".representation",
    "zero_pattern": ".representation",
    "is_closed_subset": ".representation",
    "closed_subsets": ".representation",
    "analyze_representation": ".representation",
    # model_io
    "save_model": ".model_io",
    "load_model": ".model_io",
    "export_model_json": ".model_io",
    # errors
    "KoopmodelError": ".errors",
    "InputError": ".errors",
    "NumericalError": ".errors",
    "EvaluationError": ".errors",
    "UnknownObservableError": ".errors",
    "LiftError": ".errors",
    "ShapeMismatchError": ".errors",
    "ConfigError": ".errors",
    "ModelFormatError": ".errors",
    "ModelVersionError": ".errors",
    "ModelTruncatedError": ".errors",
    "ModelChecksumError": ".errors",
    "DefectiveMatrixError": ".errors",
    "EigenfunctionRankError": ".errors",
    "SpectralOverflowError": ".errors",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
