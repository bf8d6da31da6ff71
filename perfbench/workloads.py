"""The three workloads.  Each runs one round of operations, one after
another in this process, timing only the operations (through `clock`)
and checking every output afterwards with `oracle`.

A workload function returns (attempted, failed, problems): problems
lists every check that did not hold.
"""

from __future__ import annotations

import json
import os
import random
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import spinlab.cli
import spinlab.construct
import spinlab.superalgebra
import spinlab.tits
from spinlab.fields import make_field

import oracle
from spans import replace_everywhere

CHARS = (0, 3, 5, 7)
GRID = [("B", l) for l in range(1, 9)] + [("D", l) for l in (2, 4, 6, 8)]
FULL_MODE_MAX_ODD = 128          # classify's rule: full scan while dim S <= 128
RESCALE_EXPONENTS = (8, 13)      # e_i scaled by 2^(e * (i mod 3)) in B l=2 over Q
TRIPLES_PER_PASSING_CELL = 24

CERTIFY = [("B", 3, 3, "certified"), ("B", 4, 3, "certified"),
           ("B", 4, 5, "certified"), ("B", 4, 7, "certified"),
           ("D", 4, 3, "certified"), ("D", 4, 7, "certified"),
           ("D", 2, 3, "failed")]
ODD_GENERATORS_PER_CELL = 3

TITS_PAIRS = 40


def _rng(seed: int, *key) -> random.Random:
    return random.Random(json.dumps([seed, *key]))


def _attempt(clock, label, op, *args):
    """Run one timed operation; None when it raised (a failed operation)."""
    try:
        with clock:
            return op(*args)
    except Exception:       # any fault of the program counts as a failed operation
        print(f"{label}: failed operation", file=sys.stderr)
        traceback.print_exc(limit=2)
        return None


# ---------------------------------------------------------------------------
# scan-grid


def _grid_cell(kind, l, char):
    A = spinlab.construct.build_superalgebra(l, kind, make_field(char))
    if A.n1 <= FULL_MODE_MAX_ODD:
        report = spinlab.superalgebra.check_jacobi(A, mode="full")
    else:
        triples = spinlab.construct.generator_triples(l, kind, A)
        report = spinlab.superalgebra.check_jacobi(A, mode="generators", triples=triples)
    return A, report


def _rescaled_b2(exponent):
    B2 = spinlab.construct.build_superalgebra(2, "B", make_field(0))
    lam = [Fraction(2) ** (exponent * (i % 3)) for i in range(B2.dim)]
    table = {(i, j): {k: v * lam[i] * lam[j] / lam[k] for k, v in terms.items()}
             for (i, j), terms in B2.table.items()}
    A = spinlab.superalgebra.SuperAlgebra(
        f"typeB_l2_rescaled_2^{exponent}", B2.field, B2.n0, B2.n1, B2.labels,
        table, odd_symmetric=B2.odd_symmetric)
    return A, spinlab.superalgebra.check_jacobi(A, mode="full")


def _check_scan(A, report, want_pass, rng, label) -> list:
    problems = []
    p = A.field.p
    if report.jacobi_pass != want_pass:
        problems.append(f"{label}: pass={report.jacobi_pass}, paper says {want_pass}")
    if report.jacobi_pass != (not report.witnesses):
        problems.append(f"{label}: verdict disagrees with its witness list")
    for w in report.witnesses:
        value = oracle.jacobi(A, w["i"], w["j"], w["k"])
        text = [[k, oracle.scalar_text(v, p)] for k, v in sorted(value.items())]
        if not value or text != w["value"]:
            problems.append(f"{label}: witness {(w['i'], w['j'], w['k'])} "
                            f"re-evaluates to {text}")
    if report.jacobi_pass:
        for t in oracle.sample_triples(A, rng, TRIPLES_PER_PASSING_CELL):
            if oracle.jacobi(A, *t):
                problems.append(f"{label}: sampled triple {t} does not vanish")
    return problems


def scan_grid(clock, seed, scratch):
    attempted = failed = 0
    problems = []
    for kind, l in GRID:
        for char in CHARS:
            label = f"{kind}{l}/{char or 'Q'}"
            attempted += 1
            got = _attempt(clock, label, _grid_cell, kind, l, char)
            if got is None:
                failed += 1
                continue
            A, report = got
            if (A.n0, A.n1) != oracle.expected_dims(kind, l):
                problems.append(f"{label}: dims {(A.n0, A.n1)}")
            problems += _check_scan(A, report, oracle.paper_verdict(kind, l, char),
                                    _rng(seed, kind, l, char), label)
    for exponent in RESCALE_EXPONENTS:
        label = f"B2/Q rescaled by 2^{exponent}"
        attempted += 1
        got = _attempt(clock, label, _rescaled_b2, exponent)
        if got is None:
            failed += 1
            continue
        problems += _check_scan(*got, True, _rng(seed, "rescaled", exponent), label)
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# certify


def _check_certified(A, rng, label) -> list:
    problems = []
    p = A.field.p
    n = A.n0 + A.n1
    if oracle.rank_modp(oracle.table_matrix(A), p) != n:
        problems.append(f"{label}: [g, g] != g")
    rho = oracle.odd_action(A)
    for _ in range(ODD_GENERATORS_PER_CELL):
        v = [rng.randrange(p) for _ in range(A.n1)]
        v[rng.randrange(A.n1)] = rng.randrange(1, p)
        dim = oracle.generated_dim(rho, v, p)
        if dim != A.n1:
            problems.append(f"{label}: odd vector {v} generates only {dim} dims")
    return problems


def certify(clock, seed, scratch):
    failed = 0
    problems = []
    for kind, l, p, want in CERTIFY:
        label = f"{kind}{l}/GF({p})"
        field = make_field(p)
        report = _attempt(clock, label, spinlab.construct.classify, l, kind, field)
        if report is None:
            failed += 1
            continue
        dims = oracle.expected_dims(kind, l)
        if tuple(report.dims) != dims or not report.jacobi_pass:
            problems.append(f"{label}: dims {report.dims}, pass {report.jacobi_pass}")
        if report.simplicity != want:
            problems.append(f"{label}: simplicity {report.simplicity}, expected {want}")
        A = spinlab.construct.build_superalgebra(l, kind, field)
        if want == "certified":
            problems += _check_certified(A, _rng(seed, kind, l, p), label)
        elif oracle.odd_annihilator_ideal(A) <= 0:
            problems.append(f"{label}: no even ideal annihilates the odd part")
    return len(CERTIFY), failed, problems


# ---------------------------------------------------------------------------
# tits


def tits(clock, seed, scratch: Path):
    out = scratch / f"tits-report-{os.getpid()}.json"
    captured = {}
    original = spinlab.tits.cross_identify_with_typeB

    def capture(*args, **kwargs):
        captured["result"] = result = original(*args, **kwargs)
        return result

    replace_everywhere(original, capture)
    try:
        code = _attempt(clock, "tits", spinlab.cli.main,
                        ["verify", "tits", "--out", str(out)])
    finally:
        replace_everywhere(capture, original)
    if code is None:
        return 1, 1, []

    problems = []
    doc = json.loads(out.read_text())
    out.unlink()
    if code != 0 or doc.get("expectation_met") is not True:
        problems.append(f"tits: exit {code}, expectation_met {doc.get('expectation_met')}")
        return 1, 0, problems
    octo = [r for r in doc["sections"]["jacobi"] if r["kind"] == "octonion" and r["char"] == 5]
    if [r["dims"] for r in octo] != [[55, 32]]:
        problems.append(f"tits: octonion dims {[r['dims'] for r in octo]}")
    cross = doc["sections"]["cross_identify"]
    mat = captured["result"]["matrix"]
    if oracle.matrix_sha256(mat) != cross["matrix_sha256"]:
        problems.append("tits: isomorphism sha256 differs from the report")
    if oracle.rank_modp(mat, 5) != 87:
        problems.append("tits: isomorphism is singular mod 5")
    g5 = make_field(5)
    T = spinlab.tits.build_tits("octonion", g5)
    B5 = spinlab.construct.build_superalgebra(5, "B", g5)
    rng = _rng(seed, "tits")
    for _ in range(TITS_PAIRS):
        i, j = rng.randrange(87), rng.randrange(87)
        lhs = oracle.apply(mat, oracle.basis_bracket(T, i, j), 5)
        rhs = oracle.bracket(B5, oracle.column_vector(mat, i), oracle.column_vector(mat, j))
        if lhs != rhs:
            problems.append(f"tits: isomorphism breaks the bracket at ({i}, {j})")
    return 1, 0, problems


WORKLOADS = {"scan-grid": scan_grid, "certify": certify, "tits": tits}
