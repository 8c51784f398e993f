"""Sequential target search under size-dependent measurement noise.

A library and CLI for locating a target bin through noisy set queries, where
larger query regions see noisier answers.  Implements median, sorted, dyadic
and hierarchical posterior-matching strategies, the interval-partition Bayes
update that keeps connected-geometry search cheap, the closed-form
search-time bounds and rate-reliability frontiers, and a reproducible Monte
Carlo harness.
"""

from .channel import (
    AffineNoise,
    BernoulliPair,
    ConstantNoise,
    NoiseProfile,
    binary_entropy,
    eval_noise,
    kl_bernoulli,
    mutual_info_bsc,
    noise_for_size,
    reliability_c1,
    sample_observation,
)
from .errors import (
    CapExceededError,
    ContractViolationError,
    NoisySearchError,
    ZeroLikelihoodError,
)
from .posterior import (
    PosteriorDense,
    PosteriorPartition,
    QuerySet,
    avg_log_likelihood,
    bayes_update_dense,
    bayes_update_partition,
    flatten,
    posterior_predictive,
    prefix_mass,
    query_mass,
)
from .sim import (
    EpisodeRecord,
    FixedLength,
    MonteCarloSummary,
    SearchConfig,
    VariableLength,
    episode_final_posterior,
    run_episode,
    run_monte_carlo,
    sweep_error_vs_queries,
    trial_rng,
    wilson_interval,
)
from .strategies import (
    StrategyKind,
    TreeNode,
    binned_sorted_loglik,
    ejs_divergence,
    heaviest_node,
    js_divergence,
    nested_loglik,
    select,
    select_dya_pm,
    select_hie_pm,
    select_median_pm,
    select_sort_pm,
)
from .theory import (
    BoundReport,
    FrontierClass,
    alpha_floor,
    constant_k_d,
    constant_k_h,
    constant_k_s,
    rate_reliability_frontier,
    residual_f,
    tau_upper_bound,
)

__version__ = "0.1.0"
