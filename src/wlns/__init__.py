"""Periodic-box Navier-Stokes with weak-norm regularity diagnostics.

The package bundles a small pseudo-spectral solver with the measure-theoretic
machinery (weak Lebesgue / Lorentz norms, level-set energies, log-damped
Gronwall bounds) needed to evaluate blow-up criteria along a simulated or
closed-form velocity history.

``import wlns`` loads no submodule: each public name below is imported from
its submodule on first access (PEP 562), so a grid-free caller such as
``wlns gronwall`` never pays for the solver.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at the package level
_EXPORTS = {
    "field": (
        "Grid", "ScalarField", "VectorField", "SpectralField", "Trajectory",
        "forward_transform", "inverse_transform", "rescale", "ball_mask", "write_snapshot",
        "read_vector_snapshot",
    ),
    "lorentz": (
        "DistributionFunction", "NormReport", "distribution", "weak_norm", "lebesgue_norm",
        "layer_cake", "lorentz_time_norm", "compact_embedding_check", "split_at_one",
        "lemma_split_check",
    ),
    "criteria": (
        "CriterionTrace", "DerivedExponents", "derive_exponents", "evaluate_row",
        "holder_check", "prodi_serrin_p",
    ),
    "nse_solver": (
        "BlowUpError", "SimulationResult", "SolverConfig", "kinetic_energy",
        "pressure_from_velocity", "random_divfree", "run", "single_mode", "taylor_green",
    ),
    "degiorgi": (
        "CylinderMap", "CylinderScheme", "LevelSetEnergy", "energy_budget", "level_energy",
        "recursive_sequence", "threshold_scan",
    ),
    "counterexample": (
        "CounterexampleField", "DyadicSchedule", "claim1_terms", "claim2_lower_bound",
        "criterion_vs_lorentz",
    ),
    "gronwall": ("BoundProblem", "implicit_check", "psi_tail", "solve_bound"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
