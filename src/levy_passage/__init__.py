"""Passage-time stability toolkit for Levy processes.

Models are built from the triplet (gamma, sigma2, jump measure); the package
provides tail calculus (truncated mean, truncated quadratic variation,
cumulants), a stability classifier for the passage-time ratio tau_u / u in
six limit regimes, exact and cutoff-based path simulation, ladder-process
estimators with the passage-functional transform identity, and exponential
tilting for rare-event ruin estimation. The `levy-passage` console script
runs the batch experiments.
"""

from .config import (
    EXPERIMENTS,
    ConfigError,
    load_config,
    model_from_config,
    regime_from_config,
    sim_from_config,
    u_grid_from_config,
)
from .cramer import (
    ConditionalReport,
    RuinEstimate,
    TiltedModel,
    conditional_stability_experiment,
    esscher_tilt,
    ruin_grid,
    ruin_is,
    solve_lundberg,
    tilt_identity_check,
)
from .experiments import (
    ASReport,
    DemoRow,
    ExperimentResult,
    OvershootHist,
    RunningStat,
    StabilityReport,
    appendix_demo,
    as_stability_experiment,
    g_stability_experiment,
    mean_exit_experiment,
    overshoot_law_experiment,
    tau_stability_experiment,
)
from .ladder import (
    Backend,
    LadderExponent,
    RenewalFunction,
    dmp_exponent,
    exponent_for,
    kappa_drift_minus_poisson,
    kappa_spectrally_negative,
    lt_lattice,
    renewal_estimate,
    sn_exponent,
    verify_lt_identity,
)
from .measures import (
    AtomJump,
    ExponentialJump,
    JumpMeasure,
    UniformJump,
    compound_measure,
)
from .models import (
    Family,
    LevyModel,
    ModelError,
    Regime,
    StabilityVerdict,
    brownian_drift,
    classify_stability,
    compound_poisson_drift,
    cramer_lundberg,
    cumulant,
    cumulant_derivative,
    custom_model,
    drift_minus_poisson,
    make_counterexample1,
    make_counterexample2,
    process_mean,
    spectrally_negative,
    truncated_mean,
    truncated_quadratic_variation,
)
from .output import result_payload, write_manifest
from .rng import stream
from .simulate import (
    PassageBatch,
    PassageRecord,
    PreparedModel,
    SimConfig,
    choose_engine,
    cutoff_for_rate,
    extract_ladder,
    fixed_time_sample,
    passage_sample,
    prepare,
    ratio_path,
    ratio_paths,
    sample_at_time,
    simulate_passage,
)

__version__ = "0.1.0"
