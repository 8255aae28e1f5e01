"""Exact-arithmetic computations on finite symplectic modules, abelian
subgroups of PGL_n, quadratic forms over GF(2), and the resulting lower
bounds on splitting fields and splitting groups of division algebras.

Importing the package loads none of its modules.  `from splitbound import
make_group` (any name of `__all__`) still works: the first access imports
the module that owns the name, so a command run through `splitbound.cli`
compiles only the layers it uses.
"""

from importlib import import_module

# every re-exported name, by the module that owns it
_EXPORTS = {
    "errors": (
        "AmbientMismatchError", "DegenerateFormError", "EnumerationBoundError",
        "HypothesisViolationError", "InvalidFormError", "InvalidInvariantError",
        "NotAbelianInPglError", "NotPGroupError", "NotScalarError", "OutputBoundError",
        "PairingMismatchError", "PreconditionError", "SplitboundError",
        "UnsupportedTypeError",
    ),
    "finabel": (
        "Element", "FinAbGroup", "QmodZ", "Subgroup", "dual_group", "embeds_into",
        "enumerate_subgroups", "eval_character", "make_group", "quotient",
        "reduce_tuple", "replay_ops", "subgroup_census", "subgroup_from_generators",
    ),
    "qzforms": (
        "SkewForm", "evaluate", "is_isotropic", "is_lagrangian", "is_nondegenerate",
        "isotropic_transfer", "max_isotropic", "quotient_by_lagrangian", "radical",
        "restrict", "standard_module", "symplectic_submodule",
    ),
    "heisenberg": (
        "MonomialMatrix", "PglSubgroup", "ProjectiveElement", "alpha_form",
        "commutator", "depth", "diag_matrix", "is_toral", "perm_matrix", "phi",
        "phi_image", "phi_span", "scalar_exponent",
    ),
    "f2quad": (
        "Ec8Model", "F2QuadForm", "bilinear", "census_dim7_radical1",
        "count_anisotropic", "count_by_recursion", "decompose", "e8_torus_census",
        "ec8_generation_check", "ec8_model",
    ),
    "obstruction": (
        "ObstructionQuery", "PartitionCandidate", "comparison_bound", "f_bound",
        "index_divisor", "min_splitting_exponent", "partition_feasible",
        "splitting_group_isotropic_bound", "splitting_order_bound",
    ),
    "liedata": (
        "GroupDescriptor", "depth_consistency", "fixed_divisors",
        "quadform_split_exponents", "tits_n", "torsion_primes",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER]
__version__ = "0.1.0"


def __getattr__(name):
    # nothing is cached here, so a name rebound on its module reads the same here
    module = _OWNER.get(name)
    if module is None:  # a submodule not imported yet: the import system loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
