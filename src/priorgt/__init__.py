"""Group testing with per-item prior probabilities.

Adaptive nested test plans (maximum-entropy and source-code trees),
non-adaptive sampled and block designs with negative-test decoding,
closed-form bound calculators, brute-force oracles, and a seeded Monte Carlo
harness.
"""

from .priors import (
    PriorVector,
    binary_entropy,
    generate_prior,
)
from .partition import (
    Band,
    Partition,
    build_partition,
    combine_for_concentration,
    is_skewed,
    measure_factor,
)
from .adaptive import (
    AdaptiveRunResult,
    NestedPlan,
    build_plan,
    build_prepartitioned_plan,
    expected_tests,
    run_adaptive,
    run_prepartitioned_adaptive,
)
from .nonadaptive import (
    SampledDesign,
    TestMatrix,
    build_block_matrix,
    build_cca_matrix,
    decode_comp,
    measure_design,
    num_tests_cca,
    optimal_g,
    run_nonadaptive,
    sample_block,
    sample_cca,
    sampling_distribution,
)
from .bounds import (
    BoundReport,
    adaptive_concentration,
    adaptive_expected_upper,
    block_upper,
    cca_upper,
    lower_bound,
)
from .oracle import (
    check_lemma1,
    check_lemma2,
    exact_expected_tests,
    exact_stopping_time,
    exhaustive_decode_check,
)
from .sim import (
    Campaign,
    TrialReport,
    draw_truth,
    run_campaign,
    success_curve,
)

__version__ = "0.1.0"
