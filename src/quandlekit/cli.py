"""Command line front end: validate, analyze, construct, search, admissible.

Exit codes: 0 success (or a "not ruled out" verdict), 1 domain-negative
(invalid table, ruled-out profile), 2 usage, parameter, parse, or I/O error.
JSON output is key-sorted and schema-versioned; identical inputs produce
byte-identical reports.

At module level this imports only the standard library, the error classes and
the version, so `--version`, `--help` and usage errors load neither numpy nor
any numeric submodule.  Each cmd_* imports what it calls when it starts, looked
up in the defining module at call time, so a function rebound there is the one
that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .errors import InvalidQuandleError, ParseError, QuandleKitError


def _parse_profile(text: str) -> tuple[int, ...]:
    """One ASCII decimal integer per comma-separated part."""
    try:
        lengths = tuple(_one_int(part) for part in text.split(","))
    except ValueError:
        raise QuandleKitError(f"profile must be comma-separated integers, got {text!r}")
    return lengths


def _one_int(part: str) -> int:
    from .core import _decimal_ints

    (value,) = _decimal_ints(part)
    return value


def _emit_json(payload: dict, out: str | None) -> None:
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_bytes(blob.encode())
    else:
        sys.stdout.write(blob)


def cmd_validate(args) -> int:
    from .core import ValidationResult, read_qdl

    try:
        q = read_qdl(args.path)
        result = ValidationResult(ok=True, order=q.n)
    except InvalidQuandleError as exc:
        result = exc.result
    if args.json:
        _emit_json(
            {
                "schema": "quandlekit.validate/1",
                "ok": result.ok,
                "order": result.order if result.ok else None,
                "error": result.error,
                "witness": list(result.witness),
            },
            None,
        )
    else:
        print(result)
    return 0 if result.ok else 1


def cmd_analyze(args) -> int:
    from .core import read_qdl
    from .shq import _classify, _verify
    from .structure import enumerate_subquandles, is_latin, profile

    q = read_qdl(args.path)
    prof = profile(q)
    params = _classify(prof)
    report = {
        "schema": "quandlekit.analyze/1",
        "order": q.n,
        "valid": True,
        "connected": prof.connected,
        "latin": is_latin(q),
        "profile": {
            "structures": [list(s.lengths) for s in prof.structures],
            "connected_form": list(prof.connected_form.lengths)
            if prof.connected_form
            else None,
        },
        "shq": params.as_dict() if params else None,
    }
    inventory = None
    if args.subquandles:
        inventory = enumerate_subquandles(q, max_order=args.max_order)
        classes = []
        for rep, members in inventory.classes().items():
            entry = inventory.entries[rep]
            classes.append(
                {
                    "order": entry.order,
                    "profile": [list(s.lengths) for s in entry.profile.structures],
                    "count": len(members),
                }
            )
        report["subquandles"] = {"count": len(inventory.entries), "classes": classes}
    theorem = None
    if args.verify_main_theorem:
        theorem = _verify(q, prof, args.max_order, inventory)
        report["main_theorem"] = theorem.as_dict()
    if args.json or args.out:
        _emit_json(report, args.out)
        return 0
    print(f"order: {q.n}")
    print(f"connected: {'yes' if report['connected'] else 'no'}")
    print(f"latin: {'yes' if report['latin'] else 'no'}")
    print(f"profile: {prof}")
    if params:
        print(f"shq: ell={params.ell} c={params.c} p={params.p} a={params.a}")
    else:
        print("shq: no")
    if theorem is not None:
        if theorem.all_passed:
            print(f"main theorem: PASS ({len(theorem.checks)} checks)")
        elif not theorem.is_shq:
            print("main theorem: FAIL (not an SHQ)")
        else:
            first = next(c.name for c in theorem.checks if not c.passed)
            print(f"main theorem: FAIL ({first})")
    if inventory is not None:
        print(
            f"subquandles: {len(inventory.entries)} total, "
            f"{len(inventory.classes())} classes"
        )
        for rep, members in inventory.classes().items():
            entry = inventory.entries[rep]
            print(
                f"  order {entry.order} profile {entry.profile}: {len(members)}"
            )
    return 0


def cmd_construct(args) -> int:
    from .construct import (
        GaloisField,
        _capped_order,
        _galois_table,
        affine_quandle,
        galois_affine_quandle,
        shq_family,
    )
    from .core import write_qdl
    from .structure import profile

    if args.kind == "affine":
        q = affine_quandle(args.m, args.h, max_order=args.max_order)
    elif args.kind == "shq-family":
        q = shq_family(args.p, args.c, max_order=args.max_order)
    elif args.kind == "galois":
        q = galois_affine_quandle(args.p, args.a, args.multiplier, max_order=args.max_order)
    else:  # cyclic: multiplier is a generator of the field's unit group
        _capped_order(args.p, args.a, args.max_order)
        field = GaloisField(args.p, args.a)
        q = _galois_table(field, field.multiplicative_generator())
    write_qdl(q, args.out)
    print(f"profile: {profile(q)}")
    return 0


def cmd_search(args) -> int:
    from .search import SearchSpec, save_search_result, search_by_profile, search_manifest

    spec = SearchSpec(_parse_profile(args.profile))
    result = search_by_profile(spec, max_order=args.max_order, dedup=args.dedup)
    if args.out:
        manifest = save_search_result(result, args.out)
    else:
        manifest = search_manifest(result)
    if args.json:
        _emit_json(manifest, None)
        return 0
    line = f"found {len(result.quandles)} quandles with profile {args.profile}"
    if args.dedup:
        line += f" in {len(result.iso_classes)} isomorphism classes"
    print(line)
    return 0


def cmd_admissible(args) -> int:
    from .shq import check_profile_admissible

    verdict = check_profile_admissible(_parse_profile(args.profile))
    if args.json:
        _emit_json(
            {
                "schema": "quandlekit.admissible/1",
                "lengths": list(verdict.lengths),
                "ruled_out": verdict.ruled_out,
                "reason": verdict.reason,
                "detail": verdict.detail,
                "index": verdict.index,
            },
            None,
        )
    elif verdict.ruled_out:
        print(f"RuledOut ({verdict.reason}: {verdict.detail})")
    else:
        print("NotRuledOut")
    return 1 if verdict.ruled_out else 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser.  It holds no handlers: main dispatches on args.command."""
    parser = argparse.ArgumentParser(
        prog="quandlekit", description="Finite quandle toolkit."
    )
    parser.add_argument("--version", action="version", version=f"quandlekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a .qdl table against the axioms")
    p_val.add_argument("path")
    p_val.add_argument("--json", action="store_true")

    p_an = sub.add_parser("analyze", help="profile, connectivity, SHQ structure")
    p_an.add_argument("path")
    p_an.add_argument("--json", action="store_true")
    p_an.add_argument("--out", help="write the JSON report to this file")
    p_an.add_argument("--subquandles", action="store_true")
    p_an.add_argument("--verify-main-theorem", action="store_true")
    p_an.add_argument("--max-order", type=int, default=None)

    p_con = sub.add_parser("construct", help="build a quandle and write it out")
    kinds = p_con.add_subparsers(dest="kind", required=True)
    k_aff = kinds.add_parser("affine", help="a*b = h*a + (1-h)*b mod m")
    k_aff.add_argument("--m", type=int, required=True)
    k_aff.add_argument("--h", type=int, required=True)
    k_fam = kinds.add_parser("shq-family", help="affine over Z_(p^(c-1)), lifted root")
    k_fam.add_argument("--p", type=int, required=True)
    k_fam.add_argument("--c", type=int, required=True)
    k_gal = kinds.add_parser("galois", help="affine over GF(p^a) with a multiplier")
    k_gal.add_argument("--p", type=int, required=True)
    k_gal.add_argument("--a", type=int, required=True)
    k_gal.add_argument("--multiplier", type=int, required=True)
    k_cyc = kinds.add_parser("cyclic", help="galois with a unit-group generator")
    k_cyc.add_argument("--p", type=int, required=True)
    k_cyc.add_argument("--a", type=int, required=True)
    for k in (k_aff, k_fam, k_gal, k_cyc):
        k.add_argument("--out", required=True)
        k.add_argument("--max-order", type=int, default=None)

    p_se = sub.add_parser("search", help="all connected quandles with a profile")
    p_se.add_argument("--profile", required=True, help='e.g. "1,2,6"')
    p_se.add_argument("--max-order", type=int, default=None)
    p_se.add_argument("--dedup", action="store_true", help="group by isomorphism")
    p_se.add_argument("--out", help="write .qdl files and manifest.json here")
    p_se.add_argument("--json", action="store_true")

    p_ad = sub.add_parser("admissible", help="can an SHQ with this profile exist?")
    p_ad.add_argument("--profile", required=True)
    p_ad.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line; may be called repeatedly in one process.  The
    handler is looked up by name at call time, so a rebound cmd_* runs."""
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidQuandleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuandleKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
