"""Simulation and verification lab for stochastic spiking winner-take-all nets."""

__version__ = "0.1.0"

from .builders import (
    EXPECTED_TIME,
    HIGH_PROBABILITY,
    LOG_INHIBITOR,
    SINGLE_INHIBITOR,
    TWO_INHIBITOR,
    WtaInstance,
    WtaVariant,
    build,
    build_log_inhibitor,
    build_single_inhibitor,
    build_two_inhibitor,
    ceil_log2,
    gamma_for,
    tc_bound,
)
from .classify import (
    ConvergenceOutcome,
    classify_log_inhibitor,
    classify_two_inhibitor,
    convergence_time,
    is_typical,
    is_valid_configuration,
    is_valid_wta_output,
    near_stable_pair,
)
from .errors import *  # noqa: F401,F403
from .experiments import (
    ProbeSummary,
    TrialPlan,
    TrialSummary,
    run_trials,
    self_stabilization_probe,
    sweep,
    wilson_interval,
)
from .lemmas import GROUP_IDS, LemmaCheckReport, LemmaParams, lemma_check
from .network import (
    NetworkSpec,
    Neuron,
    Synapses,
    rescale_temperature,
    sigmoid,
    spike_probability,
    validate_network,
)
from .oracle import (
    StepDistribution,
    WindowStateSpace,
    convergence_cdf,
    exact_step_distribution,
    hold_probability,
    truncated_expectation,
)
from .randomness import RandomnessContract
from .simulate import (
    BatchRunner,
    BernoulliInputTrace,
    Execution,
    ExecutionWindow,
    FixedInputTrace,
    initial_window,
    potential,
    run,
    step,
)
