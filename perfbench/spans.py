"""Layer boundaries marked from outside the package.

Each public layer function is replaced, in every spinlab module that
holds a reference to it, by a wrapper.  In every round the wrapper cuts
the operation's time into laps at the layer boundaries; in a traced
round it also records a span (name, start, end, parent) and the layer's
counters.  Spans are kept in memory and
written out as JSON lines when the round ends.  A layer's self time is
its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of each function it wraps; a dotted
# attribute names a method, which is replaced on its class
LAYERS = {
    "clifford.tables": [("spinlab.clifford", "rho_tables"),
                        ("spinlab.clifford", "so_bracket_table")],
    "construct.build": [("spinlab.construct", "build_superalgebra")],
    "superalgebra.jacobi": [("spinlab.superalgebra", "check_jacobi")],
    "superalgebra.j_triple": [("spinlab.superalgebra", "j_triple")],
    "superalgebra.certificate": [("spinlab.superalgebra", "simplicity_certificate")],
    "superalgebra.derived": [("spinlab.superalgebra", "derived_algebra")],
    "superalgebra.burnside": [("spinlab.superalgebra", "burnside_irreducible")],
    "superalgebra.equivariant": [("spinlab.superalgebra", "equivariant_map_dim")],
    "superalgebra.isomorphism_check": [("spinlab.superalgebra", "verify_isomorphism")],
    "linalg.matmul_modp": [("spinlab.linalg", "matmul_modp")],
    "linalg.rref_modp": [("spinlab.linalg", "rref_modp")],
    "linalg.rowspace_insert": [("spinlab.linalg", "RowSpace.insert"),
                               ("spinlab.linalg", "RowSpaceModP.insert")],
    "tits.build": [("spinlab.tits", "build_tits")],
    "tits.phi0": [("spinlab.tits", "phi0")],
    "tits.psi": [("spinlab.tits", "spin_map_psi")],
    "tits.phi1": [("spinlab.tits", "phi1_intertwine")],
    "tits.unit_split": [("spinlab.tits", "unit_ideal_split")],
    "tits.cross_identify": [("spinlab.tits", "cross_identify_with_typeB")],
    "composition.lemma_c": [("spinlab.composition", "check_lemma_C")],
    "kac.ch3": [("spinlab.kac", "ch3_scan")],
    "cli": [("spinlab.cli", "main")],
}

# Inner functions called many times inside one layer call.  They only cut
# laps (no span, no counter), so that no lap lasts long: a lap's fastest
# time across rounds is robust to a machine whose speed drifts (run.py).
LAP_POINTS = [
    ("spinlab.superalgebra", "_scan_one_i"),
    ("spinlab.superalgebra", "SuperAlgebra.bracket_vectors"),
    ("spinlab.linalg", "SpanSolver.coords"),
    ("spinlab.tits", "tits_bracket"),
    ("spinlab.kac", "ch3"),
    ("spinlab.composition", "ad_matrix"),
    ("spinlab.composition", "inner_derivation"),
]

# per-layer metrics: self times of the spans above, then counters
TIME_METRICS = {
    "clifford.tables_s": "clifford.tables",
    "construct.build_s": "construct.build",
    "superalgebra.jacobi_s": "superalgebra.jacobi",
    "superalgebra.j_triple_s": "superalgebra.j_triple",
    "superalgebra.certificate_s": "superalgebra.certificate",
    "superalgebra.derived_s": "superalgebra.derived",
    "superalgebra.burnside_s": "superalgebra.burnside",
    "linalg.matmul_modp_s": "linalg.matmul_modp",
    "linalg.rref_modp_s": "linalg.rref_modp",
    "linalg.rowspace_insert_s": "linalg.rowspace_insert",
    "superalgebra.equivariant_s": "superalgebra.equivariant",
    "superalgebra.isomorphism_check_s": "superalgebra.isomorphism_check",
    "tits.build_s": "tits.build",
    "tits.phi0_s": "tits.phi0",
    "tits.psi_s": "tits.psi",
    "tits.phi1_s": "tits.phi1",
    "tits.unit_split_s": "tits.unit_split",
    "tits.cross_identify_s": "tits.cross_identify",
    "composition.lemma_c_s": "composition.lemma_c",
    "kac.ch3_s": "kac.ch3",
    "cli.overhead_s": "cli",
}
COUNT_METRICS = (
    "construct.table_entries",
    "superalgebra.j_triple_calls",
    "superalgebra.witnesses",
    "superalgebra.burnside_generators",
    "superalgebra.burnside_span_dim",
    "linalg.matmul_modp_calls",
    "linalg.rowspace_insert_rows",
    "linalg.rowspace_independent_rows",
    "kac.ch3_checked",
)


def replace_everywhere(original, replacement) -> None:
    """Point every spinlab module global that is `original` at `replacement`."""
    for name, mod in list(sys.modules.items()):
        if name != "spinlab" and not name.startswith("spinlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _rows_offered(args) -> int:
    rows = args[1]
    shape = getattr(rows, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    return len(rows)


class Tracer:
    """Installs the layer wrappers.  While `clock` times an operation,
    every wrapped call marks a lap boundary on entry and on exit; with
    `record` set it also records a span and the layer counters."""

    def __init__(self, clock, record: bool):
        self.clock = clock
        self.record = record
        self.spans = []          # [name, start, end, parent]
        self.counts = defaultdict(int)
        self._stack = []
        self._burnside_spaces = None

    def install(self) -> None:
        sites = [(name, site) for name, group in LAYERS.items() for site in group]
        sites += [(None, site) for site in LAP_POINTS]
        for name, (module, dotted) in sites:
            target, attr = _resolve(module, dotted)
            original = getattr(target, attr)
            wrapper = self._wrap(name, original)
            if isinstance(target, type):
                setattr(target, attr, wrapper)
            else:
                replace_everywhere(original, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        clock = self.clock

        def wrapper(*args, **kwargs):
            if not clock.running:
                return fn(*args, **kwargs)
            clock.split()
            try:
                if not tracer.record or name is None or (
                        name == "linalg.rowspace_insert" and tracer._inside(name)):
                    return fn(*args, **kwargs)   # or RowSpace delegating to RowSpaceModP
                return tracer._span(name, fn, args, kwargs)
            finally:
                clock.split()

        return wrapper

    def _span(self, name, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(sid)
        if name == "superalgebra.burnside":
            self._burnside_spaces = []
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, result)
        return result

    def _inside(self, name) -> bool:
        return any(self.spans[s][0] == name for s in self._stack)

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "construct.build":
            c["construct.table_entries"] += sum(len(t) for t in result.table.values())
        elif name == "superalgebra.jacobi":
            c["superalgebra.witnesses"] += len(result.witnesses)
        elif name == "superalgebra.j_triple":
            c["superalgebra.j_triple_calls"] += 1
        elif name == "superalgebra.burnside":
            c["superalgebra.burnside_generators"] += len(args[0])
            spaces = self._burnside_spaces or []
            c["superalgebra.burnside_span_dim"] += max((s.dim for s in spaces), default=0)
            self._burnside_spaces = None
        elif name == "linalg.matmul_modp":
            c["linalg.matmul_modp_calls"] += 1
        elif name == "linalg.rowspace_insert":
            c["linalg.rowspace_insert_rows"] += _rows_offered(args)
            c["linalg.rowspace_independent_rows"] += int(result)
            if self._burnside_spaces is not None:
                self._burnside_spaces.append(args[0])
        elif name == "kac.ch3":
            c["kac.ch3_checked"] += result["checked"]

    def layer_metrics(self, wall_s: float) -> dict:
        """Self time per layer metric, the counters, and unattributed_s."""
        dur = [end - start for _, start, end, _ in self.spans]
        own = list(dur)
        for sid, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                own[parent] -= dur[sid]
        by_name = defaultdict(float)
        for sid, span in enumerate(self.spans):
            by_name[span[0]] += own[sid]
        out = {metric: by_name[name] for metric, name in TIME_METRICS.items()}
        out.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        roots = sum(d for d, span in zip(dur, self.spans) if span[3] < 0)
        out["unattributed_s"] = wall_s - roots
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
