"""Finite Stone/Pontryagin duality, ultra-pseudometrics, and
non-archimedean pre-uniformities, with exhaustive verification."""

from .boolring import (
    GroupEndo,
    RingEndo,
    enumerate_group_endos,
    enumerate_ring_endos,
    ring_homs_to_Z2,
)
from .contrast import (
    ContrastInstance,
    build_contrast,
    contrast_report,
    obstruction_witness,
    rna_certificate,
)
from .duality import (
    delta_adjoint,
    delta_eval,
    entourage_transport,
    hom_embed,
    phi,
    phi_inverse,
)
from .errors import (
    AssociativityViolation,
    CarrierMismatch,
    ChainNotMonotone,
    ConfigError,
    DimensionMismatch,
    IdentityViolation,
    NoWitness,
    NotLipschitz,
    PreconditionUnverified,
    ResourceLimit,
    StoneworkError,
)
from .finmon import (
    FiniteMonoid,
    MonoidAction,
    SelfMapMonoid,
    cayley_embed,
    full_selfmap_monoid,
    is_submonoid,
    validate_action,
    validate_monoid,
)
from .navector import (
    FreeVector,
    free_space,
    kantorovich_norm,
    kantorovich_norm_with_auxiliary,
    lipschitz_linear_extend,
    optimal_pairing,
    vector,
)
from .suite import SuiteConfig, VerificationReport, run_suite
from .ultra import (
    MonotoneChain,
    Partition,
    UltraPseudometric,
    ball_submonoid_check,
    check_left_congruence,
    d_from_chain,
    enumerate_theta,
    epsilon_A_relation,
    minimax_path_distance,
    nonexpansive_counterexample,
    sup_combine,
)
from .unif import (
    BoundednessReport,
    Cover,
    PartitionFamily,
    boundedness_report,
    cover_order,
    cover_star,
    cover_wedge,
    kernel_partition,
    preimage_partition,
    refines,
    saturate,
    star,
    star_refines,
)

__version__ = "0.1.0"
