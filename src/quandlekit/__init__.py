"""quandlekit: finite quandles, their profiles, and super Hayashi structure.

A quandle is a set with a binary operation * whose right translations
R_y: x -> x*y are automorphisms fixing their own index.  This package
validates operation tables, computes cycle-structure profiles, detects and
verifies super Hayashi quandles, builds infinite families of them, and
exhaustively searches small orders for quandles with a prescribed profile.

Submodules load on demand: `import quandlekit` runs none of them (nor numpy).
The first access to a public name imports the submodule that defines it and
caches the name here (PEP 562), so `quandlekit.profile` is
`quandlekit.structure.profile`.
"""

import importlib

__version__ = "0.1.0"

# Public name -> defining submodule.
_SOURCES = {
    name: module
    for module, names in (
        ("construct", (
            "EmbeddingReport", "GaloisField", "PrimitiveRootResult", "affine_quandle",
            "family_embedding", "galois_affine_quandle", "primitive_root", "shq_family",
        )),
        ("core", (
            "CycleStructure", "Permutation", "QuandleTable", "ValidationResult",
            "cycle_structure", "format_qdl", "from_translations", "parse_qdl", "read_qdl",
            "right_translation", "translations", "validate_quandle", "write_qdl",
        )),
        ("errors", (
            "ConjugationViolation", "DegenerateMultiplier", "FixedPointMissing",
            "IndexOutOfRange", "InvalidQuandleError", "MultiplierNotInvertible",
            "NotAPartition", "NotCanonicalForm", "NotOddPrime", "NotRelabelable",
            "NotSHQShape", "ParamOutOfRange", "ParseError", "ProfileInconsistency",
            "QuandleKitError", "RepeatedLengthsUnsupported", "SizeLimitExceeded",
        )),
        ("search", (
            "SearchResult", "SearchSpec", "SearchStats", "naive_connected_quandles",
            "prune_report", "save_search_result", "search_by_profile",
        )),
        ("shq", (
            "Admissibility", "CanonicalDecomposition", "ConjugationCheck",
            "FixBlockPartition", "FixBlockReport", "LcmCheck", "MainTheoremReport",
            "ShqParams", "canonical_relabel", "check_conjugation_relations",
            "check_lcm_divisibility", "check_profile_admissible", "classify_shq",
            "decomposition_of", "fix_block_report", "fix_blocks", "predicted_profile",
            "shq_lengths", "verify_main_theorem",
        )),
        ("structure", (
            "Profile", "SubquandleEntry", "SubquandleInventory", "are_isomorphic",
            "enumerate_subquandles", "is_connected", "is_latin", "orbits", "profile",
            "subquandle_closure", "subtable",
        )),
    )
    for name in names
}

__all__ = list(_SOURCES)

# Reachable as attributes without an import statement, as when they loaded eagerly.
_SUBMODULES = ("construct", "core", "errors", "limits", "numth", "search", "shq", "structure")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
