"""Bounds and mechanism constructions for multi-user disclosure under a
mutual-information leakage budget, with a brute-force search oracle for
desk-scale verification."""

from .bounds import (
    Allocation,
    BoundsReport,
    allocate_epsilon,
    compute_bounds,
    deterministic_exact,
    excess_integral,
    gap_identity,
    lower_bound_frl,
    lower_bound_sfrl,
    upper_bound,
)
from .errors import (
    AlphabetMismatchError,
    PrivboundError,
    RegimeError,
    SchemaError,
    SizeCapError,
    ValidationError,
)
from .mechanisms import (
    ComposedMechanism,
    Kernel,
    MechanismReport,
    compose_multiuser,
    decompose_transform,
    efrl_construct,
    evaluate,
    frl_construct,
    refine_transform,
)
from .model import Component, ComponentStats, Problem, ProblemStats, User, trivial_optimum, validate
from .oracle import OracleConfig, OracleResult, leakage_project, sandwich_check, search
from .probcore import Dist, Joint2, JointN, conditional_entropy, entropy, mi_between, mutual_information, product_join

__version__ = "0.1.0"
