"""Reactive symbolic planning and execution over a discrete kitchen simulator.

The package is organised around a small pipeline:

    lang    -- parse .dpdl domain / .dprob problem files
    planner -- ground the domain and search for an operator sequence
    chains  -- turn a plan into a robust chain via backward condition
               propagation
    kitchen -- discrete stochastic simulator with ground-truth predicate
               evaluation
    perception -- noisy, temporally filtered estimate of the logical state
    executive  -- the reactive selection loop driving simulator primitives
    harness    -- every JSON file format, seeded batch trials and metrics
"""

__version__ = "0.1.0"

from .chains import Chain, build_chain, verify_chain
from .executive import Disturbance, Outcome, run, select_operator
from .harness import Scenario, load_scenario, run_trial, run_trials
from .kitchen import KitchenSim, WorldState, evaluate_world, sample_initial
from .lang import parse_domain, parse_problem
from .logic import (
    ConditionSet,
    EffectSet,
    LogicalState,
    PredicateSchema,
    UnknownAtomError,
    Vocabulary,
    apply_effects,
    holds,
)
from .perception import NoiseModel, PerceptionPipeline
from .planner import Plan, ground, plan

__all__ = [
    "Chain",
    "ConditionSet",
    "Disturbance",
    "EffectSet",
    "KitchenSim",
    "LogicalState",
    "NoiseModel",
    "Outcome",
    "PerceptionPipeline",
    "Plan",
    "PredicateSchema",
    "Scenario",
    "UnknownAtomError",
    "Vocabulary",
    "WorldState",
    "apply_effects",
    "build_chain",
    "evaluate_world",
    "ground",
    "holds",
    "load_scenario",
    "parse_domain",
    "parse_problem",
    "plan",
    "run",
    "run_trial",
    "run_trials",
    "sample_initial",
    "select_operator",
    "verify_chain",
    "__version__",
]
