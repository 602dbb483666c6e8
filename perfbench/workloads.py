"""Seeded op lists for the three workloads, with their expected outputs.

Each workload function writes its inputs under `work/in` and returns its ops.
An op is a CLI argv (run in-process through `quandlekit.cli.main`) or a
`fix_block_report` call on a preloaded table, plus the outcome the client
checks after timing it.  All inputs and expectations come from the seed and
from `reference`, never from the code under test.

Why these workloads (see README.md for the layer predictions):
- tables: valid tables of orders 343 and 256, where axiom validation
  dominates today, then the same parse/validate layer on broken and hostile
  copies of both;
- theorem: the SHQ structure theorem and subquandle inventories, where
  closures, the subset BFS, isomorphism grouping and re-validated derived
  tables dominate;
- search: candidate enumeration and the search tree, with little validation.

Every op list is short (a few seconds), so that a run repeats it several
times and each op's time is a median.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("tables", "theorem", "search")

# (p, c) -> closed subsets of shq_family(p, c); orders 27, 25, 49, 81, 121, 125.
FAMILY = {(3, 4): 40, (5, 3): 31, (7, 3): 57, (3, 5): 121, (11, 3): 133, (5, 4): 156}

# (p, a, s): GF(p^a) with a multiplier generating the subfield GF(p^s); orders
# 27 and 64, on both sides of the n <= 48 closure cut-over.
GALOIS = ((3, 3, 1), (2, 6, 2))

# profile -> (tables found, isomorphism classes)
SEARCHES = {
    (1, 2, 6): (6, 3), (1, 7): (2, 2), (1, 8): (2, 2),
    (1, 9): (0, 0), (1, 3, 6): (0, 0),
}


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _validate_doc(n: int, error: str | None = None, witness=()) -> str:
    return _dump({
        "schema": "quandlekit.validate/1", "ok": error is None,
        "order": None if error else n, "error": error, "witness": list(witness),
    })


class _Inputs:
    def __init__(self, rng: random.Random, work: Path):
        self.rng = rng
        self.dir = work / "in"
        self.out = work / "out"
        self.dir.mkdir(parents=True)
        self.out.mkdir()

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def shuffle(self, t: np.ndarray) -> np.ndarray:
        sigma = np.array(self.rng.sample(range(t.shape[0]), t.shape[0]))
        return ref.relabel(t, sigma)

    def affine_multiplier(self, m: int, p: int) -> int:
        """A unit h != 1; for odd p also 1 - h a unit, so the table is connected."""
        bad = (0, 1) if p > 2 else (0,)
        return self.rng.choice([x for x in range(2, m) if x % p not in bad])


def _tables(inp: _Inputs) -> list[dict]:
    ops, checks, broken = [], [], []
    h = inp.affine_multiplier(343, 7)
    bases = [
        ("affine343", ["affine", "--m", "343", "--h", str(h)], ref.affine_table(343, h)),
        ("cyclic256", ["cyclic", "--p", "2", "--a", "8"], ref.galois_table(2, 8)),
    ]
    for name, args, t in bases:
        report = ref.analyze_report(t)
        out = str(inp.out / f"{name}.qdl")
        ops.append({
            "id": f"construct-{name}", "kind": "construct",
            "argv": ["construct", *args, "--out", out], "out": out,
            "expect": {
                "exit": 0, "stdout": f"profile: {ref.profile_text(report)}\n",
                "out_sha256": hashlib.sha256(ref.render_qdl(t).encode()).hexdigest(),
            },
        })
        shuffled = inp.shuffle(t)
        path = inp.write(f"{name}.qdl", ref.render_qdl(shuffled))
        checks.append({
            "id": f"validate-{name}", "kind": "validate", "argv": ["validate", "--json", path],
            "expect": {"exit": 0, "stdout": _validate_doc(t.shape[0])},
        })
        checks.append({
            "id": f"analyze-{name}", "kind": "analyze", "argv": ["analyze", "--json", path],
            "expect": {"exit": 0, "stdout": _dump(ref.analyze_report(shuffled))},
        })
        # The swap is left out at order 256: a second full distributivity
        # scan would lengthen the round and cut the rounds a run makes.
        broken += _rejects(inp, shuffled, swap=name == "affine343")
    return ops + checks + broken


def _rejects(inp: _Inputs, t: np.ndarray, swap: bool) -> list[dict]:
    """`validate` on broken variants of a valid table: axiom violations
    (exit 1; the swapped pair only if `swap`) and three parse errors (exit 2)."""
    rng = inp.rng
    n = t.shape[0]
    variants = {}

    def distinct_rows(col):
        return rng.sample([r for r in range(n) if r != col], 2)

    while swap:  # a swap that happens to keep a quandle is redrawn
        j = rng.randrange(n)
        r1, r2 = distinct_rows(j)
        swapped = t.copy()
        swapped[[r1, r2], j] = swapped[[r2, r1], j]
        found = ref.first_violation(swapped)
        if found:
            variants["swap"] = (swapped, found)
            break
    i = rng.randrange(n)
    diag = t.copy()
    diag[i, i] = rng.choice([v for v in range(1, n + 1) if v != i + 1])
    variants["diagonal"] = (diag, ref.first_violation(diag))
    j = rng.randrange(n)
    r1, r2 = distinct_rows(j)
    dup = t.copy()
    dup[r2, j] = dup[r1, j]
    variants["duplicate"] = (dup, ref.first_violation(dup))

    ops = []
    for kind, (table, (error, witness)) in variants.items():
        path = inp.write(f"{kind}{n}.qdl", ref.render_qdl(table))
        ops.append({
            "id": f"validate-{kind}{n}", "kind": "validate", "argv": ["validate", "--json", path],
            "expect": {"exit": 1, "stdout": _validate_doc(n, error, witness)},
        })

    # Parse errors: nothing on stdout, exit 2, and the line number on stderr.
    lines = ref.render_qdl(t).splitlines()
    last = lines[-1].split()
    k = rng.randrange(n)
    last[k] = rng.choice(["{}x", "{}.5", "0x{}"]).format(last[k])
    rows = rng.randint(n // 2, n - 1)
    cut = lines[rows].split()[: rng.randint(1, n - 1)]
    hostile = {
        "non-integer": ("\n".join(lines[:-1] + [" ".join(last)]) + "\n", n + 1),
        "truncated": ("\n".join(lines[:rows] + [" ".join(cut)]), rows + 1),
        "oversized": ("\n".join([str(2**62 + rng.randrange(10**6))] + lines[1:]) + "\n", n + 1),
    }
    for kind, (text, line) in hostile.items():
        path = inp.write(f"{kind}{n}.qdl", text)
        ops.append({
            "id": f"validate-{kind}{n}", "kind": "validate", "argv": ["validate", "--json", path],
            "expect": {"exit": 2, "stdout": "", "stderr_prefix": f"error: line {line}:"},
        })
    return ops


def _theorem(inp: _Inputs) -> list[dict]:
    ops = []
    for (p, c), subsets in FAMILY.items():
        t = ref.family_table(p, c)
        path = inp.write(f"family{p}_{c}.qdl", ref.render_qdl(inp.shuffle(t)))
        ops.append({
            "id": f"analyze-family{p}_{c}", "kind": "analyze",
            "argv": ["analyze", "--verify-main-theorem", "--subquandles", "--json",
                     "--max-order", "343", path],
            "expect": {"exit": 0, "json": {
                "order": t.shape[0], "connected": True,
                "profile.connected_form": ref.family_lengths(p, c),
                "main_theorem.all_passed": True, "subquandles.count": subsets,
            }},
        })
        ops.append({
            "id": f"fix_block-family{p}_{c}", "kind": "fix_block", "table": path,
            "expect": {"passed": True, "checked": c - 1},
        })
    for p, a, s in GALOIS:
        t = ref.galois_table(p, a, ref.subfield_multiplier(p, a, s))
        subsets, classes = ref.affine_subspaces(p, a, s)
        path = inp.write(f"galois{p}_{a}.qdl", ref.render_qdl(inp.shuffle(t)))
        ops.append({
            "id": f"analyze-galois{p}_{a}", "kind": "analyze",
            "argv": ["analyze", "--subquandles", "--json", path],
            "expect": {"exit": 0, "json": {
                "order": p**a, "subquandles.count": subsets, "subquandles.classes.#": classes,
            }},
        })
    return ops


def _search(inp: _Inputs) -> list[dict]:
    ops = []
    for lengths, (count, classes) in SEARCHES.items():
        text = ",".join(map(str, lengths))
        ops.append({
            "id": f"search-{text}", "kind": "search",
            "argv": ["search", "--profile", text, "--dedup", "--json"],
            "expect": {"exit": 0, "json": {
                "profile": list(lengths), "order": sum(lengths),
                "count": count, "iso_classes.#": classes,
                "stats.per_generator_raw": [ref.generator_candidates(list(lengths))]
                * (len(lengths) - 1),
            }},
        })
    inp.rng.shuffle(ops)
    return ops


def _warmup(inp: _Inputs) -> list[dict]:
    """Tiny ops of every kind, run untimed so lazy imports and first-call
    costs are paid before measuring."""
    path = inp.write("warmup.qdl", ref.render_qdl(inp.shuffle(ref.family_table(3, 3))))
    out = str(inp.out / "warmup.qdl")
    argvs = [
        ["construct", "affine", "--m", "9", "--h", "2", "--out", out],
        ["validate", "--json", path],
        ["analyze", "--verify-main-theorem", "--subquandles", "--json", path],
        ["search", "--profile", "1,2,6", "--dedup", "--json"],
    ]
    ops = [{"id": f"warmup-{a[0]}", "kind": a[0], "argv": a} for a in argvs]
    ops.append({"id": "warmup-fix_block", "kind": "fix_block", "table": path})
    return ops


def build(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs for one run under `work` and return its plan."""
    inp = _Inputs(random.Random(f"{workload}:{seed}"), work)
    ops = {"tables": _tables, "theorem": _theorem, "search": _search}[workload](inp)
    warmup = _warmup(inp)
    preload = sorted({op["table"] for op in ops + warmup if op["kind"] == "fix_block"})
    return {"workload": workload, "seed": seed, "preload": preload, "warmup": warmup, "ops": ops}
