"""Exact enumeration of domino tilings of generalized Aztec triangles.

Four cross-checking models of the same count: interlacing partition chains,
super symplectic tableaux, non-intersecting Delannoy paths, and domino
tilings, plus closed-form products and the exact identity suites behind
them.  All arithmetic is exact (arbitrary-precision integers and
rationals); no tolerances anywhere.

Every name in ``__all__`` is importable from here and is loaded from its
module on first use (PEP 562), so importing the package loads none of the
modules and each CLI verb loads only those it runs.
"""

from importlib import import_module

__version__ = "1.0.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "count_D_paths_bruteforce", "count_H_paths_bruteforce", "delannoy_D",
            "delannoy_H", "half_shift_expansion", "lgv_matrix",
        ),
        "delannoy",
    ),
    **dict.fromkeys(
        (
            "Domain", "Domino", "Tiling", "build_domain", "enumerate_tilings", "render",
            "sequence_to_tiling", "tiling_to_sequence", "validate_tiling",
        ),
        "domains",
    ),
    **dict.fromkeys(("CapExceeded", "IdentityError"), "errors"),
    **dict.fromkeys(("Matrix", "binomial", "pochhammer"), "exact"),
    **dict.fromkeys(
        (
            "df_formula", "g_formula", "product_case1", "product_case2", "product_main",
        ),
        "formulas",
    ),
    **dict.fromkeys(
        (
            "Partition", "conjugate", "from_maya", "is_horizontal_strip",
            "is_vertical_strip", "to_maya",
        ),
        "partitions",
    ),
    **dict.fromkeys(
        (
            "LatticePath", "PathFamily", "enumerate_path_families", "paths_to_tableau",
            "tableau_to_paths",
        ),
        "paths",
    ),
    **dict.fromkeys(
        (
            "PartitionSequence", "count_sequences", "enumerate_sequences",
            "validate_sequence",
        ),
        "sequences",
    ),
    **dict.fromkeys(
        (
            "Entry", "SuperSymplecticTableau", "enumerate_tableaux",
            "sequence_to_tableau", "tableau_to_sequence", "validate_tableau",
        ),
        "tableaux",
    ),
    **dict.fromkeys(
        (
            "check_degree_and_leading", "check_detprop", "check_gamma6", "check_id1",
            "check_id2", "check_main", "run_suite",
        ),
        "verify",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
