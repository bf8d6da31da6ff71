import ast
import importlib
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


def test_benchmark_wrapped_functions_exist():
    # the benchmark wraps these functions by name and stops on a missing
    # one; its file is only read here (no bytecode written next to it)
    spans = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans)
    sites = [site for group in spans["LAYERS"].values() for site in group]
    sites += list(spans["LAP_POINTS"])
    missing = []
    for module, dotted in sites:
        owner = importlib.import_module(module)
        for part in dotted.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{dotted}")
    assert not missing, missing
