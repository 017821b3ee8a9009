"""Exact and certified computations on hypercube set families.

Two threads run through the library: counting families of bounded VC
dimension (with an injection from induced matchings between adjacent
layers), and certifying upper bounds on the integrity of Q_n by greedy
sphere peeling.  Everything exhaustive is budget-guarded and everything
randomized is seed-deterministic.
"""

from .cube import (
    DEFAULT_MAX_DIM,
    Family,
    ball,
    binom_leq,
    family_from_text,
    family_to_text,
    format_mask,
    hamming,
    layer,
    log_binom,
    log_binom_leq,
    mask_from_elements,
    mask_elements,
    max_dim,
    parse_mask,
    set_max_dim,
    sphere,
    subcube_bits,
    translate_bits,
)
from .graph import components
from .errors import (
    BudgetError,
    DomainError,
    NotInImageError,
    ParseError,
    SolverError,
    VerificationError,
)
from .vc import (
    VcReport,
    is_extremal,
    is_maximal,
    shattered_sets,
    shatters,
    traces,
    vc_dim,
    vc_report,
)
from .matchings import (
    CoordinateSplit,
    InducedMatching,
    choice_matchings,
    count_choice_matchings,
    enumerate_induced_matchings,
    family_to_matching,
    matching_from_text,
    matching_to_family,
    matching_to_text,
    validate_matching,
)
from .counting import (
    BoundReport,
    conn_profile,
    exact_conn,
    exact_exvc,
    exact_indmat,
    exact_m,
    m_candidate_count,
    maximal_count_bounds,
)
from .certificate import (
    IntegrityCertificate,
    PeelConfig,
    PeelStep,
    RadiusParams,
    certificate_from_text,
    certificate_to_text,
)
from .integrity import (
    DensityRow,
    census,
    choose_center,
    density_audit,
    exact_integrity,
    integrity_lower_bound,
    middle_layer_baseline,
    peel,
    solve_radius,
    verify_certificate,
)

__version__ = "0.1.0"
