"""Exact-arithmetic computations on finite symplectic modules, abelian
subgroups of PGL_n, quadratic forms over GF(2), and the resulting lower
bounds on splitting fields and splitting groups of division algebras."""

from .errors import (
    AmbientMismatchError,
    DegenerateFormError,
    EnumerationBoundError,
    HypothesisViolationError,
    InvalidFormError,
    InvalidInvariantError,
    NotAbelianInPglError,
    NotPGroupError,
    NotScalarError,
    OutputBoundError,
    PairingMismatchError,
    PreconditionError,
    SplitboundError,
    UnsupportedTypeError,
)
from .finabel import (
    Element,
    FinAbGroup,
    QmodZ,
    Subgroup,
    dual_group,
    embeds_into,
    enumerate_subgroups,
    eval_character,
    make_group,
    quotient,
    reduce_tuple,
    replay_ops,
    subgroup_census,
    subgroup_from_generators,
)
from .qzforms import (
    SkewForm,
    evaluate,
    is_isotropic,
    is_lagrangian,
    is_nondegenerate,
    isotropic_transfer,
    max_isotropic,
    quotient_by_lagrangian,
    radical,
    restrict,
    standard_module,
    symplectic_submodule,
)
from .heisenberg import (
    MonomialMatrix,
    PglSubgroup,
    ProjectiveElement,
    alpha_form,
    commutator,
    depth,
    diag_matrix,
    is_toral,
    perm_matrix,
    phi,
    phi_image,
    phi_span,
    scalar_exponent,
)
from .f2quad import (
    Ec8Model,
    F2QuadForm,
    bilinear,
    census_dim7_radical1,
    count_anisotropic,
    count_by_recursion,
    decompose,
    e8_torus_census,
    ec8_generation_check,
    ec8_model,
)
from .obstruction import (
    ObstructionQuery,
    PartitionCandidate,
    comparison_bound,
    f_bound,
    index_divisor,
    min_splitting_exponent,
    partition_feasible,
    splitting_group_isotropic_bound,
    splitting_order_bound,
)
from .liedata import (
    GroupDescriptor,
    depth_consistency,
    fixed_divisors,
    quadform_split_exponents,
    tits_n,
    torsion_primes,
)

__version__ = "0.1.0"
