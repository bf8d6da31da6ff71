"""Command-line front end.

    spinlab verify type-b --l 1..8 --chars 0,3,5,7
    spinlab verify type-d --l 2..8
    spinlab verify tits
    spinlab export --kind B --l 5 --char 5 --out typeB_l5.json
    spinlab report runA.json runB.json --out summary.md

Exit status: 0 when every computed verdict matches the expected outcome
(the expected pass sets ship as data files, so a failing Jacobi scan in
a characteristic where failure is the documented result still exits 0),
1 on a mathematical mismatch or internal verification failure, 2 on
usage errors.  --survey skips the judging step and always exits 0.

All output is deterministic: no timestamps, no elapsed times, sorted
JSON keys, fixed row order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from importlib import resources

from .fields import make_field
from .superalgebra import SCHEMA_VERSION, VerificationFailed, check_jacobi
from .construct import (_check_key_bound, _check_kind, build_superalgebra,
                        classify, decompose_type_d_l2)
from .composition import make_composition, derivation_algebra, check_lemma_C
from .kac import ch3_scan
from . import tits as _tits


# ---------------------------------------------------------------------------
# argument parsing


def _items(text: str, what: str) -> list:
    """The stripped comma-separated items of text; an empty one is refused."""
    items = [part.strip() for part in text.split(",")]
    if "" in items:
        raise ValueError(f"empty item in the {what} list {text!r}")
    return items


def _item_int(text: str, item: str, what: str) -> int:
    """The int that text spells, or ValueError naming the item and its list."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad item {item!r} in the {what} list") from None


def _parse_l_list(text: str, kind: str) -> list:
    """"5", "1..8", or "3,5,7" -> sorted list of ints.  The ends of each
    range are checked before it is expanded: l >= 1, and l inside the
    int64 key bound of the kind."""
    out = set()
    for part in _items(text, "l"):
        lo, sep, hi = part.partition("..")
        lo = _item_int(lo, part, "l")
        hi = _item_int(hi, part, "l") if sep else lo
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        if lo < 1:
            raise ValueError(f"bad l list {text!r}")
        _check_key_bound(hi, kind)
        out.update(range(lo, hi + 1))
    return sorted(out)


def _parse_chars(text: str) -> list:
    """"0,3,5,7" -> [0, 3, 5, 7]; 0 is the rationals."""
    out = []
    for part in _items(text, "characteristic"):
        c = _item_int(part, part, "characteristic")
        make_field(c)          # rejects non-prime moduli
        if c not in out:
            out.append(c)
    return sorted(out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinlab",
        description="exact verification of graded algebras built from "
                    "orthogonal Lie algebras and spin modules")
    sub = p.add_subparsers(dest="command", required=True)

    def out_options(sp, formats=True):
        if formats:
            sp.add_argument("--format", choices=("json", "markdown"),
                            default="json", help="output format")
        sp.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")

    v = sub.add_parser("verify", help="build algebras and check identities")
    targets = v.add_subparsers(dest="target", required=True)

    def verify_target(name, help_text, default_chars):
        t = targets.add_parser(name, help=help_text)
        t.add_argument("--chars", metavar="LIST", default=default_chars,
                       help="comma-separated characteristics, 0 = rationals "
                            f"(default {default_chars})")
        t.add_argument("--survey", action="store_true",
                       help="report raw verdicts without judging; exit 0")
        out_options(t)
        return t

    for name, kind, default_l in (("type-b", "B", "1..8"), ("type-d", "D", "2..8")):
        t = verify_target(name, f"Jacobi grid of the kind-{kind} algebras", "0,3,5,7")
        t.add_argument("--l", dest="l_list", metavar="SPEC", default=default_l,
                       help=f'ranks: "5", "1..8", or "3,5,7" (default {default_l})')
    verify_target("tits", "the characteristic-5 construction suite", "0,5,7")

    e = sub.add_parser("export", help="write one algebra's structure table")
    e.add_argument("--kind", choices=("B", "D"), required=True)
    e.add_argument("--l", type=int, required=True)
    e.add_argument("--char", type=int, default=0,
                   help="characteristic, 0 = rationals (default 0)")
    out_options(e, formats=False)

    r = sub.add_parser("report", help="render verify outputs as Markdown")
    r.add_argument("inputs", nargs="*", metavar="RUN.json",
                   help="JSON files produced by spinlab verify")
    out_options(r)
    return p


# ---------------------------------------------------------------------------
# expected outcomes (shipped as data, not code, so surveys of new ranks or
# characteristics need no source change)


def load_expected(kind: str) -> dict:
    name = f"expected_type{kind}.json"
    blob = resources.files("spinlab.data").joinpath(name).read_text()
    return json.loads(blob)


def expected_pass(expected: dict, l: int, char: int) -> bool:
    for el, ec in expected["pass"]:
        if el == l and (ec == "*" or ec == char):
            return True
    return False


# ---------------------------------------------------------------------------
# verify type-b / type-d


def _classify_rows(kind: str, l_list, chars, survey):
    expected = load_expected(kind)
    rows = []
    all_as_expected = True
    for l in l_list:
        if kind == "D" and l % 2:
            continue                       # module only closes for even rank
        for char in chars:
            field = make_field(char)
            report = classify(l, kind, field)
            row = {
                "l": l,
                "char": char,
                "pass": report.jacobi_pass,
                "dims": list(report.dims),
                "mode": report.mode,
                "bracket_symmetry": report.bracket_symmetry,
                "witness_count": report.witness_count,
                "witnesses": report.witnesses[:3],
                "simplicity": report.simplicity,
                "notes": report.notes,
            }
            if not survey:
                want = expected_pass(expected, l, char)
                row["expected"] = want
                row["as_expected"] = (report.jacobi_pass == want)
                all_as_expected = all_as_expected and row["as_expected"]
            rows.append(row)
    return rows, all_as_expected


def cmd_verify_type(kind: str, args) -> int:
    try:
        l_list = _parse_l_list(args.l_list, kind)
        if kind == "D" and all(l % 2 for l in l_list):
            raise ValueError(f"no even l in {args.l_list!r}: kind D needs even l")
        chars = _parse_chars(args.chars)
    except ValueError as exc:
        print(f"spinlab verify: {exc}", file=sys.stderr)
        return 2
    rows, ok = _classify_rows(kind, l_list, chars, args.survey)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "target": "type-b" if kind == "B" else "type-d",
        "chars": chars,
        "l": l_list,
        "rows": rows,
        "summary": {
            "cells": len(rows),
            "passed": sum(1 for r in rows if r["pass"]),
            "failed": sum(1 for r in rows if not r["pass"]),
        },
    }
    if kind == "D" and 2 in l_list:
        split_ok, dims = True, []
        for char in chars:
            try:
                ideals = decompose_type_d_l2(make_field(char))
                dims = [len(b) for b in ideals]
            except VerificationFailed:
                split_ok = False
        doc["l2_decomposition"] = {"ideal_dims": dims, "pass": split_ok}
        ok = ok and split_ok
    if not args.survey:
        doc["expectation_met"] = ok
    _emit_verify(doc, args)
    return 0 if (args.survey or ok) else 1


# ---------------------------------------------------------------------------
# verify tits


def _tits_sections(chars):
    """Run the whole characteristic-5 construction suite.

    Each section carries its own pass flag plus the raw numbers a reader
    needs to audit it; matrices are reported as hashes, not payloads.
    """
    g5 = make_field(5)
    sections = {}

    jac = []
    for kind in ("unit", "binarion", "quaternion", "octonion"):
        T = _tits.build_tits(kind, g5)
        rep = check_jacobi(T, mode="full")
        jac.append({"kind": kind, "char": 5, "pass": rep.jacobi_pass,
                    "dims": list(rep.dims),
                    "expected_dims": list(_tits.TITS_DIMS[kind]),
                    "witness_count": rep.witness_count})
    T7 = _tits.build_tits("octonion", make_field(7))
    rep7 = check_jacobi(T7, mode="full", witness_cap=1)
    jac.append({"kind": "octonion", "char": 7, "pass": rep7.jacobi_pass,
                "dims": list(rep7.dims),
                "expected_dims": list(_tits.TITS_DIMS["octonion"]),
                "witness_count": rep7.witness_count,
                "witnesses": rep7.witnesses})
    sections["jacobi"] = jac

    lem = []
    for char in (0, 5, 7):
        f = make_field(char)
        res = check_lemma_C(make_composition("octonion", f))
        res = dict(res, char=char,
                   quaternion_der_dim=len(derivation_algebra(
                       make_composition("quaternion", f))))
        lem.append(res)
    sections["lemma_C"] = lem

    ch3 = []
    for char in chars:
        res = ch3_scan(make_field(char))
        want = "pass" if char == 5 else "witness"
        ch3.append({"char": char, "verdict": res["verdict"],
                    "checked": res["checked"], "m": res["m"],
                    "witness": res["witness"], "expected": want,
                    "as_expected": res["verdict"] == want})
    sections["ch3"] = ch3

    sections["unit_split"] = _tits.unit_ideal_split(g5)

    res0 = _tits.phi0(g5)
    sections["phi0"] = {
        "rank": res0["rank"], "verified": res0["verified"],
        "matrix_sha256": _hash_matrix(res0["matrix"]),
    }
    psi = _tits.spin_map_psi(g5)
    sections["psi"] = {"checked": psi["checked"], "verified": psi["verified"]}
    inter = _tits.phi1_intertwine(g5)
    sections["phi1"] = {k: inter[k] for k in ("pass", "checked", "negative_control")}

    cross = _tits.cross_identify_with_typeB(g5)
    sections["cross_identify"] = {
        "status": cross["status"], "verified": cross["verified"],
        "mu": cross["mu"], "proportionality": cross["proportionality"],
        "equivariant_dim": cross["equivariant_dim"],
        "matrix_sha256": _hash_matrix(cross["matrix"]),
    }
    return sections


def _judge_tits(sections) -> bool:
    jac = sections["jacobi"]
    ok = all(r["pass"] and r["dims"] == r["expected_dims"]
             for r in jac if r["char"] == 5)
    neg = [r for r in jac if r["char"] == 7][0]
    ok = ok and not neg["pass"] and neg["witness_count"] > 0
    ok = ok and all(r["pass"] and r["der_dim"] == 14
                    and r["quaternion_der_dim"] == 3
                    for r in sections["lemma_C"])
    ok = ok and all(r["as_expected"] for r in sections["ch3"])
    ok = ok and sections["unit_split"]["pass"]
    ok = ok and sections["phi0"]["verified"] and sections["phi0"]["rank"] == 55
    ok = ok and sections["psi"]["verified"]
    ok = ok and sections["phi1"]["pass"]
    ok = ok and not sections["phi1"]["negative_control"]["pass"]
    ok = ok and sections["cross_identify"]["verified"]
    ok = ok and sections["cross_identify"]["equivariant_dim"] == 1
    return ok


def cmd_verify_tits(args) -> int:
    try:
        chars = _parse_chars(args.chars)
    except ValueError as exc:
        print(f"spinlab verify: {exc}", file=sys.stderr)
        return 2
    try:
        sections = _tits_sections(chars)
        ok = _judge_tits(sections)
    except (VerificationFailed, _tits.RelationFailed,
            _tits.IsometryNotFound, _tits.ScalingNotFound) as exc:
        sections = {"error": {"type": type(exc).__name__, "detail": str(exc)}}
        ok = False
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "target": "tits",
        "chars": chars,
        "sections": sections,
    }
    if not args.survey:
        doc["expectation_met"] = ok
    _emit_verify(doc, args)
    return 0 if (args.survey or ok) else 1


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    try:
        field = make_field(args.char)
        _check_kind(args.l, args.kind)
    except ValueError as exc:
        print(f"spinlab export: {exc}", file=sys.stderr)
        return 2
    A = build_superalgebra(args.l, args.kind, field)
    _write_text(A.to_json() + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# report


def _grid_markdown(doc) -> list:
    kind = "B" if doc["target"] == "type-b" else "D"
    expected = load_expected(kind)
    ls = sorted({r["l"] for r in doc["rows"]} |
                {el for el, _ in expected["pass"]})
    chars = sorted({r["char"] for r in doc["rows"]} |
                   {ec for _, ec in expected["pass"] if ec != "*"})
    cell = {(r["l"], r["char"]): r for r in doc["rows"]}
    lines = [f"## Kind {kind} Jacobi grid", ""]
    lines.append("| l | " + " | ".join(_char_label(c) for c in chars) + " |")
    lines.append("|---" * (len(chars) + 1) + "|")
    for l in ls:
        row = [str(l)]
        for c in chars:
            r = cell.get((l, c))
            if r is None:
                row.append("not-run")
            elif "as_expected" in r and not r["as_expected"]:
                row.append("MISMATCH")
            else:
                row.append("pass" if r["pass"] else "fail (expected)"
                           if "as_expected" in r else "fail")
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    dims = sorted({(r["l"], tuple(r["dims"])) for r in doc["rows"]})
    lines.append("Dimensions (even, odd): " +
                 ", ".join(f"l={l}: {d[0]}+{d[1]}" for l, d in dims) + ".")
    if "l2_decomposition" in doc:
        d = doc["l2_decomposition"]
        lines.append(f"l=2 ideal decomposition: dims {d['ideal_dims']}, "
                     f"{'pass' if d['pass'] else 'FAIL'}.")
    lines.append("")
    return lines


def _char_label(c: int) -> str:
    return "Q" if c == 0 else f"GF({c})"


def _tits_markdown(doc) -> list:
    s = doc["sections"]
    lines = ["## Characteristic-5 construction suite", ""]
    if "error" in s:
        e = s["error"]
        lines += [f"- **error** `{e['type']}`: {e['detail']}", ""]
        return lines
    for r in s["jacobi"]:
        verdict = "pass" if r["pass"] else "fail"
        lines.append(f"- Jacobi, {r['kind']} over {_char_label(r['char'])}: "
                     f"{verdict}, dims {r['dims'][0]}+{r['dims'][1]}")
    for r in s["lemma_C"]:
        lines.append(f"- Cayley-algebra identities over {_char_label(r['char'])}: "
                     f"{'pass' if r['pass'] else 'FAIL'} "
                     f"(der dims {r['der_dim']}/{r['quaternion_der_dim']})")
    for r in s["ch3"]:
        lines.append(f"- degree-3 identity over {_char_label(r['char'])}: "
                     f"{r['verdict']} after {r['checked']} elements")
    u = s["unit_split"]
    lines.append(f"- unit-coefficient ideal split: dims {u['dims']}, "
                 f"{'pass' if u['pass'] else 'FAIL'}")
    lines.append(f"- even-part isomorphism: rank {s['phi0']['rank']}, "
                 f"{'verified' if s['phi0']['verified'] else 'FAILED'}")
    lines.append(f"- Clifford relations: {s['psi']['checked']} checks, "
                 f"{'verified' if s['psi']['verified'] else 'FAILED'}")
    lines.append(f"- odd-part intertwining: {s['phi1']['checked']} identities, "
                 f"{'pass' if s['phi1']['pass'] else 'FAIL'} "
                 f"(negative control "
                 f"{'caught' if not s['phi1']['negative_control']['pass'] else 'MISSED'})")
    c = s["cross_identify"]
    lines.append(f"- identification with the rank-5 construction: {c['status']} "
                 f"(proportionality {c['proportionality']}, mu {c['mu']}, "
                 f"equivariant dim {c['equivariant_dim']})")
    lines.append("")
    return lines


def _doc_markdown(doc: dict) -> list:
    """The Markdown lines of one verify document."""
    if doc.get("target") in ("type-b", "type-d"):
        lines = _grid_markdown(doc)
    elif doc.get("target") == "tits":
        lines = _tits_markdown(doc)
    else:
        raise ValueError(f"target {doc.get('target')!r} is not type-b, "
                         f"type-d or tits")
    if "expectation_met" in doc:
        lines.append(f"Expected outcomes met: "
                     f"{'yes' if doc['expectation_met'] else 'NO'}")
        lines.append("")
    return lines


def render_report(sections: list) -> str:
    """The Markdown report from the _doc_markdown lines of each document."""
    lines = ["# spinlab verification report", ""]
    for section in sections:
        lines += section
    return "\n".join(lines)


def cmd_report(args) -> int:
    if not args.inputs:
        print("spinlab report: no input files", file=sys.stderr)
        return 2
    docs, sections = [], []
    for path in args.inputs:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"spinlab report: {path}: {exc}", file=sys.stderr)
            return 2
        try:
            if not isinstance(doc, dict):
                raise TypeError(f"a JSON {type(doc).__name__}, not an object")
            sections.append(_doc_markdown(doc))
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            print(f"spinlab report: {path}: not a spinlab verify document "
                  f"({type(exc).__name__}: {exc})", file=sys.stderr)
            return 2
        docs.append(doc)
    if args.format == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, "runs": docs},
                          sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = render_report(sections)
    _write_text(text, args.out)
    ok = all(d.get("expectation_met", True) for d in docs)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# plumbing


def _hash_matrix(mat) -> str:
    blob = json.dumps([[str(x) for x in row] for row in mat],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit_verify(doc: dict, args) -> None:
    if args.format == "markdown":
        text = render_report([_doc_markdown(doc)])
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    _write_text(text, args.out)


def _write_text(text: str, out: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # an unwritable --out is refused before any computation
    folder = os.path.dirname(os.path.abspath(args.out or "."))
    if args.out and (os.path.isdir(args.out) or not os.access(folder, os.W_OK)):
        print(f"spinlab {args.command}: cannot write --out {args.out}",
              file=sys.stderr)
        return 2
    if args.command == "verify":
        if args.target == "type-b":
            return cmd_verify_type("B", args)
        if args.target == "type-d":
            return cmd_verify_type("D", args)
        return cmd_verify_tits(args)
    if args.command == "export":
        return cmd_export(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
