"""Feasibility analysis for macroscopic superposition experiments in space.

Decoherence and collapse-model rates for optically trapped nanospheres,
coherent-expansion solvers, testability sweeps over particle radius, and the
supporting vacuum/thermal/orbit/budget mission models.
"""

__version__ = "0.1.0"

from .collapse import (CSL_ADLER, CSL_DEFAULT, CslParams, ModelId, csl_lambda,
                       csl_shape, dp_lambda, dp_rate, k_coherence_cell,
                       k_lambda, qg_lambda)
from .constants import CONSTANTS, PhysicalConstants
from .decoherence import (ChannelRates, EmissionSpectrum, bb_absorb_lambda,
                          bb_emit_lambda, bb_scatter_lambda, emission_spectrum,
                          gas_collision_rate, qm_channel_rates)
from .expansion import (DecoherenceSpec, ExpansionKinematics,
                        InfiniteCoherenceError, VisibilityFactors, ced,
                        cet_closed_form, gamma, sigma, solve_cet,
                        visibility_factor)
from .mission import (BudgetCheck, BudgetLedger, GravitySample, OrbitElements,
                      altitude_window, budget_check, cooling_noise_threshold,
                      integrated_accuracy, load_budgets, load_orbit,
                      local_gravity, orbital_period, thruster_position_noise)
from .numerics import QuadratureError
from .scenario import (ComplexPermittivity, Environment, Particle, Scenario,
                       Trap, clausius_mossotti, expansion_velocity,
                       ground_state_width, load_scenario, particle_mass,
                       scenario_kinematics)
from .testability import (MODEL_PRESETS, ModelSpec, SweepConfig, SweepRow,
                          SweepTable, load_preset, scenario_presets, sweep,
                          violation_intervals)
from .vacuum import (EmissionSummary, GasState, MaterialOutgassing,
                     OutgassingSpecies, arrhenius_residence, bake_out_power,
                     collision_rate, dilution_from_patch, dilution_from_sphere,
                     emission_rate, load_materials, outgassing_rate,
                     pressure_attenuation, steady_state)
