"""Exact pair partitions, translate packings and sumset bounds.

The package works over Z/(n) and small vector spaces with arbitrary
precision integers throughout: sparse multivariate polynomials, grid
interpolation coefficients, bijection sums over rings of roots of unity,
and certified backtracking solvers, plus a CLI that ties them together.
Names resolve lazily (PEP 562): each imports only its module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "algebra": "ZZ CycloInt ModRing cyclotomic_poly",
    "conjectures": "permanent_coefficient permanent2_coefficient "
                   "prime_nonzero_certificate scan_conjecture",
    "dyson": "dyson_bruteforce dyson_formula dyson_via_evaluation "
             "packing_coefficient",
    "nullstellensatz": "GridSpec cn_coefficient cn_witness partition_grid "
                       "integral_over_field odd_residue_polynomial",
    "poly": "AffineProduct MultiPoly",
    "solvers": "Infeasible PackingInstance PairPartition PartitionInstance "
               "VectorPartitionInstance solve_pair_partition "
               "solve_translate_packing solve_vector_partition "
               "verify_solution partition_as_packing packing_to_partition",
    "sumsets": "coefficient_divisibility_check verify_cd_bound",
}.items() for name in names.split()}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
