"""hermkq: exact-arithmetic quadratic and hermitian forms over finite rings
with involution, their orthogonal groups, discrete invariants, and the
polynomial cup-product machinery."""

__version__ = "0.1.0"

from .caps import CapExceeded, global_cap
from .rings import (
    DualRing,
    F2,
    F4,
    Fp,
    Fq,
    Mat2Ring,
    ProductOpRing,
    PolySRing,
    Ring,
    TruncPolyRing,
    Zn,
    ring_from_json,
)
from .linalg import (
    Mat,
    all_matrices,
    block,
    diag_block,
    invert,
    kron,
    nilpotency_index,
    rank_over_field,
)
from .forms import (
    DegenerateFormError,
    HermForm,
    QuadFormEl,
    direct_sum,
    form_from_json,
    hyperbolic,
    hyperbolic_map,
    is_even,
    min_equal,
    pairing_chi,
)
from .groups import (
    ElMorphism,
    EnumeratedGroup,
    check_max,
    check_min,
    compose_el,
    dual_numbers_iso,
    el_identity,
    el_inverse,
    enumerate_group,
    extension_check,
    split_section,
    whitehead_factorization,
)
from .invariants import (
    AbelianGroupPresentation,
    GammaLambda,
    WittTable,
    arf,
    arf_retraction_check,
    arf_zero_count_oracle,
    dickson,
    gamma_lambda,
    grothendieck_witt_monoid,
    witt_classify,
    xi_char2_field,
    xi_group,
)
from .clauwens import (
    AlmostHermitian,
    DeltaDatum,
    MatPoly,
    PolyQuadForm,
    cup_product,
    kappa_nondegenerate,
    lemma2_shift,
    lemma4_recursion,
    linearize,
    linearize_cup_soundness,
    projector_conjugator,
    sqrt_one_plus_nu_t,
)
