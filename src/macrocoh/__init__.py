"""Feasibility analysis for macroscopic superposition experiments in space.

Decoherence and collapse-model rates for optically trapped nanospheres,
coherent-expansion solvers, testability sweeps over particle radius, and the
supporting vacuum/thermal/orbit/budget mission models.

Exports resolve on first use (PEP 562), so importing the package loads no
submodule: `macrocoh.solve_cet` imports `macrocoh.expansion` only then.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "collapse": "CSL_ADLER CSL_DEFAULT CslParams csl_lambda csl_shape dp_lambda "
                "dp_rate k_coherence_cell k_lambda qg_lambda",
    "constants": "CONSTANTS PhysicalConstants",
    "decoherence": "ChannelRates bb_absorb_lambda bb_emit_lambda "
                   "bb_scatter_lambda gas_collision_rate qm_channel_rates",
    "expansion": "DecoherenceSpec ExpansionKinematics InfiniteCoherenceError "
                 "VisibilityFactors ced cet_closed_form gamma sigma solve_cet "
                 "visibility_factor",
    "mission": "BudgetCheck BudgetLedger GravitySample OrbitElements "
               "altitude_window budget_check cooling_noise_threshold "
               "integrated_accuracy load_budgets load_orbit local_gravity "
               "orbital_period thruster_position_noise",
    "numerics": "QuadratureError",
    "scenario": "ComplexPermittivity Environment Particle Scenario Trap "
                "clausius_mossotti expansion_velocity ground_state_width "
                "load_preset load_scenario scenario_kinematics scenario_presets",
    "testability": "MODEL_PRESETS ModelSpec SweepConfig SweepRow SweepTable "
                   "sweep violation_intervals",
    "vacuum": "EmissionSummary GasState MaterialOutgassing OutgassingSpecies "
              "arrhenius_residence bake_out_power collision_rate "
              "dilution_from_patch dilution_from_sphere emission_rate "
              "load_materials outgassing_rate pressure_attenuation "
              "steady_state",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
