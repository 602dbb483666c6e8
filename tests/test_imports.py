"""Import on demand: the package namespace, and the modules each entry point loads."""

import importlib
import json
import subprocess
import sys

import pytest

import quandlekit
from conftest import FIXTURES

Q94 = str(FIXTURES / "q94.qdl")

# The names `quandlekit` exported when it imported every submodule eagerly,
# by defining submodule, in that order.
EXPORTS = {
    "construct": [
        "EmbeddingReport", "GaloisField", "PrimitiveRootResult", "affine_quandle",
        "family_embedding", "galois_affine_quandle", "primitive_root", "shq_family",
    ],
    "core": [
        "CycleStructure", "Permutation", "QuandleTable", "ValidationResult",
        "cycle_structure", "format_qdl", "from_translations", "parse_qdl", "read_qdl",
        "right_translation", "translations", "validate_quandle", "write_qdl",
    ],
    "errors": [
        "ConjugationViolation", "DegenerateMultiplier", "FixedPointMissing",
        "IndexOutOfRange", "InvalidQuandleError", "MultiplierNotInvertible",
        "NotAPartition", "NotCanonicalForm", "NotOddPrime", "NotRelabelable",
        "NotSHQShape", "ParamOutOfRange", "ParseError", "ProfileInconsistency",
        "QuandleKitError", "RepeatedLengthsUnsupported", "SizeLimitExceeded",
    ],
    "search": [
        "SearchResult", "SearchSpec", "SearchStats", "naive_connected_quandles",
        "prune_report", "save_search_result", "search_by_profile",
    ],
    "shq": [
        "Admissibility", "CanonicalDecomposition", "ConjugationCheck",
        "FixBlockPartition", "FixBlockReport", "LcmCheck", "MainTheoremReport",
        "ShqParams", "canonical_relabel", "check_conjugation_relations",
        "check_lcm_divisibility", "check_profile_admissible", "classify_shq",
        "decomposition_of", "fix_block_report", "fix_blocks", "predicted_profile",
        "shq_lengths", "verify_main_theorem",
    ],
    "structure": [
        "Profile", "SubquandleEntry", "SubquandleInventory", "are_isomorphic",
        "enumerate_subquandles", "is_connected", "is_latin", "orbits", "profile",
        "subquandle_closure", "subtable",
    ],
}


class TestNamespace:
    def test_all_is_the_eager_export_list(self):
        assert quandlekit.__all__ == [name for names in EXPORTS.values() for name in names]

    def test_names_are_the_defining_modules_objects(self):
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"quandlekit.{module}")
            for name in names:
                assert getattr(quandlekit, name) is getattr(defining, name), name
                assert name in vars(quandlekit), name  # cached after the first access

    def test_dir_lists_every_name(self):
        # in a fresh interpreter, before any name is cached
        proc = subprocess.run(
            [sys.executable, "-c", "import json, quandlekit; print(json.dumps(dir(quandlekit)))"],
            capture_output=True, text=True, timeout=60,
        )
        listed = set(json.loads(proc.stdout))
        assert set(quandlekit.__all__) | {"__version__"} <= listed

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            quandlekit.no_such_name  # noqa: B018

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from quandlekit import *", ns)
        ns.pop("__builtins__")
        assert sorted(ns) == sorted(quandlekit.__all__)
        assert all(ns[name] is getattr(quandlekit, name) for name in ns)


# Runs one entry point in a fresh interpreter and prints its exit code and the
# numpy and quandlekit modules it loaded, on the last line.  No argv: the
# set-up probe (import, then build the parser).
PROBE = """\
import json, sys
import quandlekit
from quandlekit import cli
argv = json.loads(sys.argv[1])
rc = None
if argv is None:
    cli.build_parser()
else:
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
loaded = sorted(m[len("quandlekit."):] if m.startswith("quandlekit.") else m
                for m in sys.modules if m == "numpy" or m.startswith("quandlekit."))
print(json.dumps([rc, loaded]))
"""

NUMERIC = {"numpy", "core", "structure", "shq", "search", "construct"}


def _loaded(argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    return rc, set(loaded)


class TestModulesLoaded:
    @pytest.mark.parametrize("argv, rc", [
        (None, None),
        (["--version"], 0),
        (["search"], 2),  # usage error: --profile is required
    ])
    def test_no_numeric_module(self, argv, rc):
        got_rc, loaded = _loaded(argv)
        assert got_rc == rc
        assert not loaded & NUMERIC, loaded

    @pytest.mark.parametrize("argv, present, absent", [
        (["validate", Q94], {"numpy", "core"}, {"structure", "shq", "search", "construct"}),
        (["search", "--profile", "1,2,6", "--dedup", "--json"], {"search"}, {"shq", "construct"}),
        (["construct", "affine", "--m", "9", "--h", "2", "--out", "{out}"],
         {"construct"}, {"shq", "search"}),
        (["analyze", Q94, "--verify-main-theorem", "--subquandles", "--json"],
         {"structure", "shq"}, {"search", "construct"}),
    ])
    def test_command_loads_what_it_runs(self, tmp_path, argv, present, absent):
        argv = [a.format(out=tmp_path / "a.qdl") for a in argv]
        rc, loaded = _loaded(argv)
        assert rc == 0
        assert present <= loaded, loaded
        assert not loaded & absent, loaded

    def test_submodule_attribute(self):
        # submodules stay reachable as attributes, as when they loaded eagerly
        proc = subprocess.run(
            [sys.executable, "-c",
             "import quandlekit; print(quandlekit.shq.fix_block_report.__module__)"],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (0, "quandlekit.shq\n"), proc.stderr
