import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import spinlab

PACKAGE = Path(spinlab.__file__).resolve().parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so no check may live in one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_products_multiply_through_linalg():
    # only linalg.py, home of the exact kernels, and composition.py, whose
    # int64 tensors in lemma_c_identities carry a bound its docstring
    # proves, multiply arrays directly.  Every other product goes through
    # linalg.matmul_modp, whose float64 route carries a proved bound and
    # whose p = 0 route is exact over Q: no @, dot, matmul, tensordot or
    # einsum, and no second product route
    direct = ("linalg.py", "composition.py")
    gone = ("matmul_exact", "_combine", "_pair_products")
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name"}    # a use, an import, a definition
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in gone:
                found.append(f"{path.name}:{node.lineno} names {name}")
            if path.name in direct:
                continue
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} multiplies by @")
            elif isinstance(node, ast.Attribute) and node.attr in (
                    "tensordot", "matmul", "dot", "einsum"):
                found.append(f"{path.name}:{node.lineno} calls {node.attr}")
    assert not found, found


def test_a_rank_or_pivots_build_no_row_space():
    # a row space is kept only where rows keep arriving; tits, kac and
    # construct read a rank from rank_modp and pivots from rref_modp
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    found = []
    for name in ("tits.py", "kac.py", "construct.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            used = getattr(node, field_of.get(type(node), ""), None)
            if used in ("RowSpace", "RowSpaceModP"):
                found.append(f"{name}:{node.lineno} names {used}")
    assert not found, found


def test_exports_are_unique_and_resolve():
    names = spinlab.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, repeated
    unresolved = [name for name in names if not hasattr(spinlab, name)]
    assert not unresolved, unresolved


def test_no_scipy_import_in_the_package():
    # numpy is the only dependency; GF(p) blocks come from the COO table
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def test_import_leaves_scipy_unloaded():
    code = ("import sys, spinlab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env, timeout=300)
    assert out.stdout.strip() == "[]"


def test_certificates_leave_numpy_ma_unloaded(tmp_path):
    # np.setdiff1d and np.unique import numpy.ma, some 10 ms and 1.3 MiB
    # inside the first certificate of a process; no verify target needs it
    code = ("import sys, spinlab; "
            "print('numpy.ma' in sys.modules); "
            "from spinlab import GF, classify, cli; "
            "classify(4, 'B', GF(3)); "
            "print([cli.main(['verify', t, '--out', sys.argv[1]]) "
            "for t in ('tits', 'type-b', 'type-d')]); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.json")],
                         capture_output=True, text=True, check=True, env=env,
                         timeout=300)
    assert out.stdout.split("\n") == ["False", "[0, 0, 0]", "False", ""]


def _span_sites():
    """The (module, dotted name) of each function perfbench/spans.py wraps;
    the file is only read (no bytecode written next to it)."""
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    return [site for group in spans["LAYERS"].values() for site in group] + list(
        spans["LAP_POINTS"])


def test_benchmark_wrapped_functions_exist():
    # the benchmark wraps these functions by name and stops on a missing
    # one; its file is only read here (no bytecode written next to it)
    missing = []
    for module, dotted in _span_sites():
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{dotted}")
    assert not missing, missing


def test_one_elimination_serves_both_fields():
    # Q and GF(p) share the array kernels of linalg: no package file names
    # the list-based eliminations, and linalg.py calls no Field arithmetic
    gone = ("rref_field", "rank_field", "nullspace_field")
    scalar = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "raw")
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text()
        found += [f"{path.name} names {name}" for name in gone if name in text]
        if path.name != "linalg.py":
            continue
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in scalar):
                found.append(f"linalg.py:{node.lineno} calls .{node.func.attr}")
    assert not found, found


def test_brackets_of_vectors_take_one_route():
    # a bracket of coordinate vectors is read off the COO table by
    # superalgebra._brackets_into: no package function calls
    # bracket_vectors, and verify_isomorphism makes no Field scalar call,
    # so that one route serves GF(p) and Q
    scalar = ("add", "sub", "mul", "neg", "inv", "div", "is_zero", "raw",
              "zero", "one", "of_int")
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)):
                    continue
                name = node.func.attr
                if name == "bracket_vectors":
                    found.append(f"{path.name}:{node.lineno} {fn.name} "
                                 f"calls bracket_vectors")
                elif (fn.name == "verify_isomorphism" and name in scalar
                      and getattr(node.func.value, "id", None) != "np"):
                    found.append(f"{path.name}:{node.lineno} verify_isomorphism "
                                 f"calls .{name}")
    assert not found, found


def test_jacobi_scan_sums_in_one_value_array():
    # the scan sums every row exactly in one value array, Python ints past
    # the int64 bound: superalgebra.py imports no fixed primes and no prod
    # for a residue-and-CRT route
    path = PACKAGE / "superalgebra.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"line {node.lineno} imports {a.name}" for a in node.names
                      if a.name in ("_rank_primes", "prod")]
    assert not found, found


def test_no_verdict_rests_on_the_generator_triples():
    # every Jacobi verdict comes from a complete scan: outside check_jacobi
    # (for the mode) and the definition of generator_triples, no package
    # code asks for the "generators" mode or names generator_triples.  Both
    # stay in the package only because the benchmark still uses them.
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.Constant: "value"}      # a use, an import, an __all__ entry
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        in_scan = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "check_jacobi"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name == "generators" and id(node) not in in_scan:
                found.append(f"{path.name}:{node.lineno} asks for generators mode")
            elif name == "generator_triples":
                found.append(f"{path.name}:{node.lineno} names generator_triples")
    assert not found, found


def test_tits_reads_composition_data_from_its_tables():
    # C has one model, composition._int_tables: no package file names an
    # element-level operation of C (a use, an import or a definition), and
    # tits.py, whose TitsModel holds the C⁰ tables as checked arrays, does
    # not name ad_matrix or inner_derivation either
    element = ("czero_basis", "norm_polar", "multiply", "commutator", "associator")
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in element or path.name == "tits.py" and name in (
                    "ad_matrix", "inner_derivation"):
                found.append(f"{path.name}:{node.lineno} names {name}")
    assert not found, found


def test_the_char5_identification_draws_no_random_numbers():
    # the isometry is read off the Gram matrix of Q: tits.py imports
    # neither random nor itertools, and no function of tits.py or cli.py
    # takes a seed
    found = []
    for name in ("tits.py", "cli.py"):
        path = PACKAGE / name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            found += [f"{name}:{node.lineno} imports {m}" for m in modules
                      if name == "tits.py" and m.split(".")[0] in ("random",
                                                                   "itertools")]
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                found += [f"{name}:{node.lineno} takes {a.arg}" for a in params
                          if a.arg == "seed"]
    assert not found, found



def test_irreducibility_is_decided_without_random_numbers():
    # the odd part's irreducibility and the char-5 intertwiner are both read
    # off a common kernel line of the lowering operators: no package module
    # imports random or reads numpy's generators, and Norton's randomized
    # test, its word search and its root finder are gone
    gone = ("norton_irreducible", "_eigenvalues", "_NORTON_TRIES",
            "_norton_word", "_nullity_one_elements")
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, field_of.get(type(node), ""), None)
            if isinstance(name, str) and (name in gone or name.startswith("_poly_")
                                          or name in ("random", "default_rng")):
                found.append(f"{path.name}:{node.lineno} names {name}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "random":
                found.append(f"{path.name}:{node.lineno} imports from random")
    assert not found, found


def test_the_odd_scale_is_read_at_one_pair():
    # the check of the assembled 87 x 87 map covers every odd pair, so no
    # package module names the all-pairs odd-odd pass _odd_proportionality,
    # _odd_scale reads no pair index grid, and cross_identify_with_typeB
    # reads c through _odd_scale and checks the map by verify_isomorphism
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name"}
    found, calls = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name == "_odd_proportionality":
                found.append(f"{path.name}:{node.lineno} names {name}")
            if isinstance(node, ast.FunctionDef) and path.name == "tits.py":
                calls[node.name] = {getattr(c.func, "attr", getattr(c.func, "id", None))
                                    for c in ast.walk(node) if isinstance(c, ast.Call)}
    if "triu_indices" in calls["_odd_scale"]:
        found.append("_odd_scale reads the grid of all pairs")
    found += [f"cross_identify_with_typeB does not call {name}"
              for name in ("_odd_scale", "verify_isomorphism")
              if name not in calls["cross_identify_with_typeB"]]
    assert not found, found


def test_the_char5_checks_take_only_their_inputs():
    # the odd intertwiner reads its lowering operators off rep2, and phi1
    # makes its negative control itself: neither takes a caller's choice
    tits = spinlab.tits
    assert list(inspect.signature(tits._odd_intertwiner).parameters) == ["rep1", "rep2", "p"]
    assert list(inspect.signature(tits.phi1_intertwine).parameters) == ["field"]
    found = [f"{path.name} names negate_index" for path in sorted(PACKAGE.rglob("*.py"))
             if "negate_index" in path.read_text()]
    assert not found, found


def test_the_lowering_rule_lives_in_one_function():
    # the strictly upper triangular operators are picked by
    # superalgebra._lowering alone, the one np.tril of the package, which
    # both lowest_line_irreducible and tits._odd_intertwiner call; tits.py
    # names no root label of B5 such as [u,f1]
    texts = {path.name: path.read_text() for path in sorted(PACKAGE.rglob("*.py"))}
    assert sum(text.count("np.tril(") for text in texts.values()) == 1
    assert "[u,f" not in texts["tits.py"]
    calls = {}
    for name in ("superalgebra.py", "tits.py"):
        for node in ast.walk(ast.parse(texts[name], filename=name)):
            if isinstance(node, ast.FunctionDef):
                calls[node.name] = {getattr(c.func, "attr", getattr(c.func, "id", None))
                                    for c in ast.walk(node) if isinstance(c, ast.Call)}
    assert "tril" in calls["_lowering"]
    missing = [name for name in ("lowest_line_irreducible", "_odd_intertwiner")
               if "_lowering" not in calls[name]]
    assert not missing, missing


def test_no_package_module_builds_a_field_row_space():
    # the certificate path reads a Field's characteristic once: derived_algebra
    # takes one rref_modp, _largest_ideal_inside a RowSpaceModP; RowSpace
    # stays for the tests and the benchmark's span on its insert
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "RowSpace":
                found.append(f"{path.name}:{node.lineno} calls RowSpace")
    assert not found, found


def test_built_tables_pass_one_both_orders_gate():
    # the builders hand both orders of every bracket to
    # superalgebra._stored_half: tits.py and construct.py sort no entries
    # and word no order check of their own.  The n^3 < 2^63 refusal of a
    # table is made once, in SuperAlgebra._store; construct._check_key_bound
    # refuses an l in closed form before anything is built.
    gate = {"construct.py": {"_integer_tensor"},
            "tits.py": {"build_tits", "build_so_MQ"}}
    found, refusals = [], set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls = {getattr(node.func, "attr", getattr(node.func, "id", None))
                     for node in ast.walk(fn) if isinstance(node, ast.Call)}
            if fn.name in gate.get(path.name, ()) and "_stored_half" not in calls:
                found.append(f"{path.name} {fn.name} does not call _stored_half")
            words = {str(c.value) for node in ast.walk(fn)
                     if isinstance(node, ast.Raise) for c in ast.walk(node)
                     if isinstance(c, ast.Constant)}
            if path.name in gate:
                found += [f"{path.name} {fn.name} calls {name}"
                          for name in ("argsort", "lexsort") if name in calls]
                found += [f"{path.name} {fn.name} raises {w!r}" for w in words
                          if "given twice" in w or "bracket orders" in w]
            if any("n^3 < 2^63" in w for w in words):
                refusals.add((path.name, fn.name))
    assert not found, found
    assert refusals == {("superalgebra.py", "_store"),
                        ("construct.py", "_check_key_bound")}, refusals


def test_dictionary_routes_share_one_accumulator():
    # a zero-free {key: raw} dict is summed into by Field.add_into alone:
    # no module but fields.py drops a vanished key with .pop(key, None)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (path.name != "fields.py" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop" and len(node.args) == 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value is None):
                found.append(f"{path.name}:{node.lineno} drops a zero sum itself")
    assert not found, found


def test_ch3_reads_j_through_one_polarization_array():
    # the Grassmann envelope of J lives in tests/envelope_reference.py: no
    # package file names its element type, its product table or its
    # exterior product, kac.py defines no class, and ch3_scan reads J only
    # through the polarization array of kac.ch3
    gone = ("EnvelopeElement", "wedge_terms", "_j_field_table")
    tables = ("_j_tensor", "_j_fractions", "K_TABLE", "K_FORM", "common_denominator")
    field_of = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name",
                ast.FunctionDef: "name", ast.ClassDef: "name"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = getattr(node, field_of.get(type(node), ""), None)
            if name in gone:
                found.append(f"{path.name}:{node.lineno} names {name}")
            if path.name == "kac.py" and isinstance(node, ast.ClassDef):
                found.append(f"kac.py:{node.lineno} defines class {name}")
    tree = ast.parse((PACKAGE / "kac.py").read_text())
    scan = next(fn for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "ch3_scan")
    names = {node.id for node in ast.walk(scan) if isinstance(node, ast.Name)}
    found += [f"ch3_scan names {name}" for name in sorted(names & set(tables))]
    if "ch3" not in names:
        found.append("ch3_scan does not call ch3")
    assert not found, found


def test_one_kernel_gives_the_so_constants():
    # the structure constants of an orthogonal Lie algebra come from one
    # kernel, clifford.so_constants: it is called only by
    # clifford.so_bracket_table, which construct reads, and by
    # tits.build_so_MQ; tits.py defines no commutator helper of its own.
    # Its natural matrices come from clifford.natural_matrices, called
    # only by clifford.gram_pairing and tits.build_so_MQ: no package file
    # names the pair-by-pair nat_entries, and cross_identify_with_typeB
    # rebuilds no natural matrix (the tests check its closed form)
    calls, found = {}, []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno} names nat_entries"
                  for node in ast.walk(tree)
                  if "nat_entries" in (getattr(node, "id", None),
                                       getattr(node, "attr", None),
                                       getattr(node, "name", None))]
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            calls[path.name, fn.name] = {
                getattr(node.func, "attr", getattr(node.func, "id", None))
                for node in ast.walk(fn) if isinstance(node, ast.Call)}
            if path.name == "tits.py" and "commutator" in fn.name.lower():
                found.append(f"tits.py:{fn.lineno} defines {fn.name}")
    assert not found, found
    users = {key for key, names in calls.items() if "so_constants" in names}
    assert users == {("clifford.py", "so_bracket_table"),
                     ("tits.py", "build_so_MQ")}, users
    users = {key for key, names in calls.items() if "natural_matrices" in names}
    assert users == {("clifford.py", "gram_pairing"),
                     ("tits.py", "build_so_MQ")}, users
    assert not {"natural_matrices", "nat_entries"} & calls[
        "tits.py", "cross_identify_with_typeB"]
    assert "so_bracket_table" in calls["construct.py", "_integer_tensor"]


def test_the_spinor_reference_shares_no_table_code():
    # tests/spinor_reference.py is the independent model the grid tables
    # are checked against: it may read spinlab.fields and
    # spinlab.superalgebra, never the modules that build the tables
    path = Path(__file__).resolve().parent / "spinor_reference.py"
    allowed = {"spinlab.fields", "spinlab.superalgebra"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            if name.split(".")[0] == "spinlab" and name not in allowed and not any(
                    name.startswith(f"{a}.") for a in allowed):
                found.append(f"line {node.lineno} imports {name}")
        if isinstance(node, ast.ImportFrom) and node.level:
            found.append(f"line {node.lineno} imports relatively")
    assert not found, found


def test_the_zorn_reference_shares_no_composition_code():
    # tests/zorn_reference.py is the independent model the tables of C are
    # checked against: it imports nothing from spinlab at all
    path = Path(__file__).resolve().parent / "zorn_reference.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.level:
                found.append(f"line {node.lineno} imports relatively")
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        found += [f"line {node.lineno} imports {name}" for name in names
                  if name.split(".")[0] == "spinlab"]
    assert not found, found


# The CLI targets of the reach rule: every verify target, export over GF(p)
# and over Q, and report in both formats.  They reach the same package
# functions as the verify targets with their default arguments.
REACH_RUNS = (
    ("verify", "type-b", "--l", "1..5", "--chars", "0,3", "--out", "b.json"),
    ("verify", "type-d", "--l", "2,4", "--chars", "0,3", "--out", "d.json"),
    ("verify", "tits", "--chars", "0,5", "--out", "t.json"),
    ("verify", "tits", "--chars", "0,5", "--format", "markdown", "--out", "t.md"),
    ("export", "--kind", "B", "--l", "5", "--char", "5", "--out", "b5.json"),
    ("export", "--kind", "D", "--l", "2", "--out", "d2.json"),
    ("report", "b.json", "d.json", "t.json", "--format", "markdown", "--out", "r.md"),
    ("report", "b.json", "d.json", "t.json", "--out", "r.json"),
)

# Each package function the REACH_RUNS leave unreached, and why it stays:
# "load", a public loader of a stored algebra; "bench", wrapped by
# perfbench/spans.py or called, by name, from a function it wraps; or the
# test "file::name" that checks the package against it.  Dunders need none.
UNREACHED = {
    "composition.inner_derivation": "bench",
    "composition.ad_matrix": "bench",
    "construct.generator_triples": "test_spin_construct::test_generator_triples_shape",
    "fields.Field.from_str": "load",
    "linalg.SpanSolver.coords": "bench",
    "superalgebra.SuperAlgebra.bracket_vectors": "bench",
    "superalgebra.SuperAlgebra.from_dict": "load",
    "superalgebra.SuperAlgebra.from_json": "load",
    "superalgebra._scan_one_i": "bench",
    "superalgebra.burnside_irreducible": "bench",
    "superalgebra.burnside_irreducible.images": "bench",
    "superalgebra._first_unpreserved_pair.row_terms": "bench",
    "tits._middle_bracket": "bench",
    "tits.tits_bracket": "bench",
}
LOAD_PATH = ("SuperAlgebra.from_dict", "SuperAlgebra.from_json", "Field.from_str")

# the hook goes in before spinlab is imported, so that calls made at import
# count; a code object's first line is that of its first decorator
_REACH_CODE = """
import json, sys
reached = set()
def hook(frame, event, arg):
    if event == "call":
        reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(hook)
from spinlab import cli
codes = [cli.main(list(run)) for run in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


def _package_functions():
    """{"module.Qual.name": (path, first line, node)} for every function of
    the package, the first line being that of its first decorator."""
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            name = f"{prefix}{getattr(child, 'name', '')}"
            if isinstance(child, ast.FunctionDef):
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                out[name] = (str(path), min(lines), child)
            visit(path, child, f"{name}." if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(path, ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.")
    return out


def _benchmark_closure(functions):
    """The functions perfbench/spans.py wraps and, transitively, those they
    call by short name or define inside them."""
    by_name = {}
    for key in functions:
        by_name.setdefault(key.rpartition(".")[2], []).append(key)
    seen, todo = set(), [f"{m.rpartition('.')[2]}.{dotted}" for m, dotted in _span_sites()]
    while todo:
        key = todo.pop()
        if key in seen or key not in functions:
            continue
        seen.add(key)
        todo += [inner for inner in functions if inner.startswith(f"{key}.")]
        todo += [f for node in ast.walk(functions[key][2]) if isinstance(node, ast.Call)
                 for f in by_name.get(getattr(node.func, "attr",
                                              getattr(node.func, "id", None)), [])]
    return seen


def test_every_package_function_is_reached_or_named(tmp_path):
    # test-only code does not ship in the package: a function the CLI
    # targets never call stays only for a reason UNREACHED names
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _REACH_CODE, json.dumps(REACH_RUNS)],
                         capture_output=True, text=True, check=True, env=env,
                         cwd=tmp_path, timeout=300)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(REACH_RUNS)
    reached = {tuple(site) for site in result["reached"]}
    functions = _package_functions()
    unreached = {key for key, (path, line, _) in functions.items()
                 if (path, line) not in reached}
    found = [f"{key} is unreached" for key in sorted(unreached - set(UNREACHED))
             if not re.search(r"\.__\w+__$", key)]
    found += [f"{key} is reached or gone" for key in sorted(set(UNREACHED) - unreached)]
    bench = _benchmark_closure(functions)
    for key, why in sorted(UNREACHED.items()):
        test_file, _, test = why.partition("::")
        path = Path(__file__).resolve().parent / f"{test_file}.py"
        text = path.read_text() if test and path.is_file() else ""
        if not (why == "bench" and key in bench
                or why == "load" and key.partition(".")[2] in LOAD_PATH
                or f"def {test}(" in text and key.rpartition(".")[2] in text):
            found.append(f"{key}: {why!r} does not hold")
    assert not found, found
