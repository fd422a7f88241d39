"""Exact Hurwitz quaternion arithmetic and the metacommutation permutation.

The hot integer kernels (products, division with remainder, gcrd and
unit-orbit canonicalization) are pure Python; ``kernel_backend()`` names
them for the benchmark record.
"""
from metacommute._kernels import kernel_backend
from metacommute.geometry import (
    ConicPoint,
    ProjPoint,
    conic_points,
    conic_to_prime,
    conic_to_proj,
    pgl2_act,
    trace_zero_rep,
)
from metacommute.metacomm import (
    MetaQuery,
    Permutation,
    PermReport,
    analyze,
    cycle_decomposition,
    cycle_length,
    meta_conj,
    meta_divide,
    meta_permutation,
    order_counts,
    pgl2_order_census,
    predict,
)
from metacommute.modp import (
    FpMat2,
    QuotQuat,
    TwoSquareRep,
    legendre,
    phi,
    reduce_mod,
    two_square_rep,
)
from metacommute.quatcore import (
    HurwitzInt,
    PrimeClass,
    canonical_rep,
    elements_of_norm,
    gcrd,
    is_prime,
    make,
    primes_of_norm,
    right_divmod,
    units,
)

__version__ = "0.1.0"

__all__ = [
    "ConicPoint",
    "FpMat2",
    "HurwitzInt",
    "MetaQuery",
    "PermReport",
    "Permutation",
    "PrimeClass",
    "ProjPoint",
    "QuotQuat",
    "TwoSquareRep",
    "analyze",
    "canonical_rep",
    "conic_points",
    "conic_to_prime",
    "conic_to_proj",
    "cycle_decomposition",
    "cycle_length",
    "elements_of_norm",
    "gcrd",
    "is_prime",
    "kernel_backend",
    "legendre",
    "make",
    "meta_conj",
    "meta_divide",
    "meta_permutation",
    "order_counts",
    "pgl2_act",
    "pgl2_order_census",
    "phi",
    "predict",
    "primes_of_norm",
    "reduce_mod",
    "right_divmod",
    "trace_zero_rep",
    "two_square_rep",
    "units",
]
