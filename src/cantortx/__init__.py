"""Letter-to-word transducers on n-ary Cantor space.

Finite words, eventually periodic points, clopen sets in canonical antichain
form; transducer evaluation, products, minimization; synchronization and
cores; per-state image analysis; inversion; signatures and membership over r
roots; built-in machines and constructions; and group arithmetic on core
elements."""

from .words import (
    ClopenSet,
    EvPeriodicWord,
    InvalidInput,
    RotationClass,
    canonicalize_clopen,
    lex_compare_evp,
    rotation_class_of,
    whole_space,
)
from .transducer import (
    DegenerateTransducer,
    DepthExceeded,
    Transducer,
    evaluate,
    evaluate_periodic,
    minimize_rooted,
    omega_equivalent,
    product,
)
from .initial import (
    InitialTransducer,
    evaluate_initial,
    minimize_initial,
    product_initial,
)
from .synchronize import (
    NotSynchronizing,
    core,
    is_synchronizing,
    minimal_sync_level,
)
from .images import (
    Orientation,
    StateReport,
    analyze,
    is_homeomorphism_state,
    is_injective_state,
    orientation,
)
from .invert import (
    EmptyPreimage,
    invert_initial,
    inverse_closure,
    is_bisynchronizing_core,
    preimage_gcp,
)
from .signature import (
    SignatureReport,
    divisors_generate_units,
    inverse_reduced_signature,
    member_over_roots,
    member_over_roots_ordered,
    membership_monotonicity_check,
    signature_class_partition,
    signature_report,
    units_fixing_subgroup,
    validation_failure,
    verify_lcm_claim,
)
from .machines import (
    PrefixExchange,
    ViableCombination,
    from_prefix_exchange,
    identity_transducer,
    letter_complement,
    machine_A,
    machine_B,
    machine_T,
    machine_U,
    machine_g4,
    oplus,
    realize,
    reorder_lexicographic,
    swap_transducer,
    cycle_transducer,
    viable_combinations,
)
from .group import (
    CoreInvariantError,
    GroupElement,
    OrderResult,
    canonical_core,
    element_order,
    evaluate_group_word,
    group_product,
    identity_element,
    invert_element,
    is_identity,
    orbit_lengths,
    rotation_action,
    verify_relation,
)
