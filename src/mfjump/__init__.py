"""Simulation and verification toolkit for mean-field systems of jump SDEs
with square-root-type (non-Lipschitz) coefficients."""

from .noise import (EventArrays, JumpEvent, MeasureSpec, NoiseBatch, NoiseLayout,
                    TimeGrid, gen_stable_increments, make_batch)
from .paths import CadlagPath, StaircasePath, pointwise_max
from .coeffs import (BrownianTerm, CoefficientSet, CompensatedKernel, DriftSpec,
                     ExponentialMeasure, JumpKernel, PointMassMeasure,
                     PowerModulus, StableTerm, SystemSpec)
from .presets import (preset_cbi_thinning, preset_cir, preset_example21,
                      thinning_system)
from .validate import (SamplingPlan, ValidationReport, validate_assum1,
                       validate_assum2, validate_assum_uniq, validate_drift,
                       validate_system)
from .solver import NumericsError, solve_batch
from .system import EnsembleResult, run_ensemble, solve_system
from .staircase import envelope, grid_modulus, lower_staircase, upper_staircase
from .approx import (HierarchyResult, build_level_one, build_next_level,
                     check_monotone, dyadic_partition, hierarchy_refinement_study,
                     moment_bound_check, run_hierarchy_batch, run_hierarchy_ensemble)
from .uniqueness import (DivergenceReport, PhiFunctions, TestFunctionFamily,
                         build_phi, refinement_study, yw_sequence)
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"
