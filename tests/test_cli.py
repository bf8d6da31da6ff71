import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinlab
import spinlab.tits as tits
from spinlab.cli import _parse_chars, _parse_l_list, main
from spinlab.construct import build_superalgebra
from spinlab.fields import GF
from spinlab.superalgebra import SuperAlgebra, check_jacobi


def test_parse_l_list():
    assert _parse_l_list("5", "B") == [5]
    assert _parse_l_list("1..4", "B") == [1, 2, 3, 4]
    assert _parse_l_list("3,5,7", "B") == [3, 5, 7]
    assert _parse_l_list("5,3,3", "B") == [3, 5]
    with pytest.raises(ValueError):
        _parse_l_list("0", "B")
    with pytest.raises(ValueError):
        _parse_l_list("two", "B")
    with pytest.raises(ValueError):
        _parse_l_list("5..", "B")
    # ends are checked before a range is expanded
    with pytest.raises(ValueError, match="2\\^63"):
        _parse_l_list("1..1000000000000", "B")
    with pytest.raises(ValueError):
        _parse_l_list("-1000000000000..3", "B")
    for text in ("", " ", "3,,5", "1..4,"):
        with pytest.raises(ValueError, match="empty item in the l list"):
            _parse_l_list(text, "B")


def test_parse_chars():
    assert _parse_chars("0,3,5") == [0, 3, 5]
    assert _parse_chars("5,5,0") == [0, 5]
    with pytest.raises(ValueError):
        _parse_chars("4")
    with pytest.raises(ValueError):
        _parse_chars("2")
    # an empty list or item is refused by name, never read as the default
    for text in ("", " , ", "3,", ",5"):
        with pytest.raises(ValueError, match="empty item in the characteristic list"):
            _parse_chars(text)


def test_unknown_target_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "so-nonsense"])
    assert e.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "type-b", "--chars", "4"],
    ["verify", "type-b", "--l", "0"],
    ["verify", "type-b", "--chars", "2"],
    ["export", "--kind", "D", "--l", "3"],
    ["export", "--kind", "B", "--l", "0"],
    ["export", "--kind", "D", "--l", "0"],
    ["export", "--kind", "B", "--l", "2", "--char", "6"],
    ["report"],
    ["report", "/no/such/file.json"],
    ["export", "--kind", "B", "--l", "3", "--char", "3",
     "--out", "/nonexistent/x.json"],
    ["verify", "type-d", "--out", "/nonexistent/x.json"],
    ["verify", "type-b", "--l", "1..1000000000"],
    ["verify", "type-d", "--l", "2,22"],
    ["export", "--kind", "B", "--l", "21"],
    ["report", "NOT_AN_OBJECT.json"],
    ["report", "ROW_WITHOUT_CHAR.json", "--format", "markdown"],
    ["verify", "type-d", "--l", "3"],
    ["report", "EMPTY_OBJECT.json"],
    ["report", "ROW_WITHOUT_CHAR.json"],
    ["verify", "type-b", "--l", "", "--chars", ""],
    ["verify", "type-b", "--l", "1,"],
    ["verify", "type-d", "--l", ""],
    ["verify", "tits", "--chars", ""],
    ["verify", "tits", "--chars", " , "],
    ["verify", "type-b", "--l", "5.."],
    ["verify", "type-b", "--l", "..3"],
    ["verify", "type-b", "--l", "1.5"],
    ["verify", "type-b", "--chars", "two"],
])
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    # report inputs named in capitals are written to tmp_path first
    inputs = {"NOT_AN_OBJECT.json": [1, 2], "EMPTY_OBJECT.json": {},
              "ROW_WITHOUT_CHAR.json": {"command": "verify", "target": "type-b",
                                        "rows": [{"l": 1, "pass": True}]}}
    for name in set(argv) & set(inputs):
        (tmp_path / name).write_text(json.dumps(inputs[name]))
        argv = [str(tmp_path / a) if a == name else a for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    if argv[0] == "report" and len(argv) > 1:
        assert argv[1] in err           # the refusal names the file
    # a list item that is no integer is named with its list
    lists = {"5..": "l", "..3": "l", "1.5": "l", "two": "characteristic"}
    for item in set(argv) & set(lists):
        assert f"bad item {item!r} in the {lists[item]} list" in err


@pytest.mark.parametrize("argv", [
    ["export", "--kind", "B", "--l", "2", "--format", "markdown"],
    ["export", "--kind", "B", "--l", "2", "--seed", "1"],
    ["report", "run.json", "--seed", "1"],
    ["verify", "tits", "--l", "3"],
    ["verify", "tits", "--mode", "full"],
    ["verify", "type-b", "--seed", "1"],
    ["verify", "type-b", "--mode", "full"],
    ["verify", "tits", "--seed", "1"],
])
def test_flags_that_do_nothing_are_refused(argv, capsys):
    # argparse refuses unknown flags by raising SystemExit(2)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, out.read_bytes()


def test_verify_grid_deterministic(tmp_path):
    argv = ["verify", "type-b", "--l", "1,2", "--chars", "0,3"]
    rc, blob = run_to_file(tmp_path, "a.json", argv)
    assert rc == 0
    doc = json.loads(blob)
    assert doc["summary"] == {"cells": 4, "passed": 4, "failed": 0}
    assert all(r["as_expected"] for r in doc["rows"])
    assert doc["expectation_met"]
    rc2, blob2 = run_to_file(tmp_path, "b.json", argv)
    assert rc2 == 0 and blob2 == blob


def test_every_passing_cell_gets_a_certificate(tmp_path, capsys):
    # no size cap: dim S = 64 is certified like the small cells
    rc, blob = run_to_file(tmp_path, "b63.json",
                           ["verify", "type-b", "--l", "6", "--chars", "0,3"])
    assert rc == 0
    rows = json.loads(blob)["rows"]
    assert [(r["char"], r["dims"], r["simplicity"]) for r in rows] == [
        (0, [78, 64], "not-attempted"), (3, [78, 64], "certified")]
    with pytest.raises(SystemExit) as e:          # the cap's option is gone
        main(["verify", "type-b", "--long"])
    assert e.value.code == 2
    capsys.readouterr()


def test_type_d_skips_odd_l_but_needs_an_even_one(tmp_path, capsys):
    # odd l inside a range are skipped; a list with no even l computes no
    # cell, so it is refused rather than reported as met
    rc, blob = run_to_file(tmp_path, "d34.json",
                           ["verify", "type-d", "--l", "3..4", "--chars", "3"])
    assert rc == 0
    doc = json.loads(blob)
    assert doc["l"] == [3, 4] and [r["l"] for r in doc["rows"]] == [4]
    for spec in ("3", "3,5", "5..5"):
        assert main(["verify", "type-d", "--l", spec]) == 2
        assert "no even l" in capsys.readouterr().err


def test_expected_failure_cell_exits_zero(tmp_path):
    # (3, 5) fails Jacobi and is expected to: still exit 0, as_expected
    rc, blob = run_to_file(tmp_path, "b35.json",
                           ["verify", "type-b", "--l", "3", "--chars", "5"])
    assert rc == 0
    row = json.loads(blob)["rows"][0]
    assert not row["pass"] and row["as_expected"]
    assert row["witness_count"] > 0


def test_survey_mode_drops_expectations(tmp_path):
    rc, blob = run_to_file(tmp_path, "s.json",
                           ["verify", "type-b", "--l", "3", "--chars", "5",
                            "--survey"])
    assert rc == 0
    doc = json.loads(blob)
    assert "as_expected" not in doc["rows"][0]
    assert "expectation_met" not in doc
    assert doc["summary"]["failed"] == 1


def test_type_d_l2_decomposition(tmp_path):
    rc, blob = run_to_file(tmp_path, "d.json",
                           ["verify", "type-d", "--l", "2", "--chars", "0,7"])
    assert rc == 0
    doc = json.loads(blob)
    dec = doc["l2_decomposition"]
    assert dec["ideal_dims"] == [5, 3] and dec["pass"]


def run_python(*args):
    """Run a fresh interpreter on this checkout's spinlab; (returncode, stdout, stderr)."""
    env = dict(os.environ)
    src = str(Path(spinlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_prime_too_large_for_exact_kernels_exits_2():
    rc, out, err = run_python("-m", "spinlab.cli", "verify", "type-b", "--l", "2",
                              "--chars", "1000000007")
    assert rc == 2 and not out
    assert err.strip().splitlines() == [
        "spinlab verify: 1000000007 is too large: the exact GF(p) kernels need p < 2^26"]


def test_python_m_spinlab_runs_the_cli(capsys):
    argv = ["export", "--kind", "B", "--l", "1", "--char", "3"]
    rc, out, err = run_python("-m", "spinlab", *argv)
    assert rc == 0, err
    assert main(argv) == 0
    assert out.startswith("{") and out == capsys.readouterr().out
    rc, out, err = run_python("-m", "spinlab", "verify", "tits", "--l", "3")
    assert rc == 2 and not out


def test_type_d_l2_decomposition_under_optimize():
    # python -O strips assert statements; the split check must survive it
    rc, out, err = run_python("-O", "-m", "spinlab.cli", "verify", "type-d",
                              "--l", "2", "--chars", "3")
    assert rc == 0, err
    assert json.loads(out)["l2_decomposition"] == {"ideal_dims": [5, 3], "pass": True}


TAMPER_D2 = """
import sys
import spinlab.construct as construct
from spinlab.cli import main
from spinlab.superalgebra import SuperAlgebra

build = construct.build_superalgebra

def tampered(l, kind, field, **kw):
    A = build(l, kind, field, **kw)
    if (l, kind) == (2, "D"):
        # let [v1,f2], in the second ideal, act on the first ideal's odd part
        k = construct.pair_basis(2, "D").labels.index("[v1,f2]")
        table = {key: dict(terms) for key, terms in A.table.items()}
        table[(k, A.n0)] = {A.n0 + 1: field.of_int(1)}
        A = SuperAlgebra(A.name, field, A.n0, A.n1, A.labels, table,
                         A.odd_symmetric)
    return A

construct.build_superalgebra = tampered
sys.exit(main(["verify", "type-d", "--l", "2", "--chars", "3"]))
"""


def test_tampered_type_d_l2_split_fails_under_optimize():
    rc, out, err = run_python("-O", "-c", TAMPER_D2)
    assert rc == 1, err
    doc = json.loads(out)
    assert doc["l2_decomposition"]["pass"] is False
    assert doc["expectation_met"] is False


def test_export_roundtrip(tmp_path):
    rc, blob = run_to_file(tmp_path, "alg.json",
                           ["export", "--kind", "B", "--l", "2",
                            "--char", "3"])
    assert rc == 0
    A = SuperAlgebra.from_json(blob.decode())
    assert (A.n0, A.n1) == (10, 4)
    assert A == build_superalgebra(2, "B", GF(3))
    assert check_jacobi(A, mode="full").jacobi_pass
    assert (A.to_json() + "\n").encode() == blob


def test_export_hash_tracks_content(tmp_path):
    rc, blob = run_to_file(tmp_path, "alg.json",
                           ["export", "--kind", "B", "--l", "2",
                            "--char", "3"])
    assert rc == 0
    doc = json.loads(blob)
    assert {"field", "dims", "brackets", "content_hash"} <= set(doc)
    assert (doc["field"], doc["dims"]) == (3, [10, 4])
    tampered = json.loads(blob)
    k, v = tampered["brackets"][0][2][0]
    tampered["brackets"][0][2][0] = [k, str((int(v) + 1) % 3)]
    with pytest.raises(ValueError, match="hash mismatch"):
        SuperAlgebra.from_dict(tampered)
    stripped = {key: val for key, val in doc.items() if key != "content_hash"}
    with pytest.raises(ValueError, match="no content_hash"):
        SuperAlgebra.from_dict(stripped)


def test_tits_seed_without_square_root_fails_cleanly(tmp_path, capsys, monkeypatch):
    # odd brackets proportional by a non-square of GF(5) leave no mu: the
    # identification raises ScalingNotFound, which the run reports as its
    # error section and exit 1
    monkeypatch.setattr(tits, "_odd_scale", lambda *args: 3)
    rc, blob = run_to_file(tmp_path, "tits1.json", ["verify", "tits"])
    assert rc == 1
    doc = json.loads(blob)
    assert doc["expectation_met"] is False
    error = doc["sections"]["error"]
    assert error["type"] == "ScalingNotFound"
    assert "3 is not a square" in error["detail"]
    assert main(["report", str(tmp_path / "tits1.json"), "--format", "markdown"]) == 1
    text = capsys.readouterr().out
    assert "ScalingNotFound" in text
    assert "Expected outcomes met: NO" in text


def test_report_renders_a_tits_document_with_a_seed(tmp_path, capsys):
    # a document in the format that still carried seed, scale and a null mu
    rc, blob = run_to_file(tmp_path, "tits.json", ["verify", "tits"])
    assert rc == 0
    doc = json.loads(blob)
    doc["seed"] = 1
    doc["expectation_met"] = False
    doc["sections"]["cross_identify"] = {
        "status": "holds over quadratic extension", "verified": False,
        "scale": 1, "mu": None, "proportionality": 3, "equivariant_dim": None,
        "matrix_sha256": None}
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["report", str(old), "--format", "markdown"]) == 1
    out, err = capsys.readouterr()
    assert "holds over quadratic extension (proportionality 3" in out
    assert "Expected outcomes met: NO" in out
    assert err == ""


def test_char5_demo_runs():
    demo = Path(__file__).resolve().parents[1] / "demos" / "char5_identification.py"
    rc, out, err = run_python(str(demo))
    assert rc == 0, err
    assert "status: isomorphism" in out


def test_classification_grid_demo_runs():
    demo = Path(__file__).resolve().parents[1] / "demos" / "classification_grid.py"
    rc, out, err = run_python(str(demo))
    assert rc == 0, err
    rows = {}
    for line in out.splitlines():
        if line.startswith("kind "):
            kind = line.split()[1].rstrip(":")
        elif line.strip()[:1].isdigit():
            l, cells = line.split("|")
            rows[kind, int(l)] = cells.split()       # chars 0, 3, 5, 7
    assert rows["B", 3][1] == "pass+simple"          # B3 over GF(3)
    assert rows["B", 5][2] == "pass+simple"          # B5 over GF(5)
    assert rows["D", 6][1] == "pass+simple"          # D6 over GF(3)


def test_report_markdown_grid(tmp_path, capsys):
    rc, _ = run_to_file(tmp_path, "run.json",
                        ["verify", "type-b", "--l", "3", "--chars", "3,5"])
    assert rc == 0
    assert main(["report", str(tmp_path / "run.json"),
                 "--format", "markdown"]) == 0
    text = capsys.readouterr().out
    assert "## Kind B Jacobi grid" in text
    assert "fail (expected)" in text        # the (3,5) cell
    assert "not-run" in text                # chars 0, 7 absent from the run
    assert "Expected outcomes met: yes" in text


def test_report_json_wraps_runs(tmp_path, capsys):
    rc, _ = run_to_file(tmp_path, "run.json",
                        ["verify", "type-b", "--l", "1", "--chars", "0"])
    assert rc == 0
    assert main(["report", str(tmp_path / "run.json"),
                 "--format", "json"]) == 0
    wrapped = json.loads(capsys.readouterr().out)
    assert len(wrapped["runs"]) == 1
    assert wrapped["runs"][0]["target"] == "type-b"


def test_report_flags_unmet_expectations(tmp_path, capsys):
    rc, blob = run_to_file(tmp_path, "run.json",
                           ["verify", "type-b", "--l", "1", "--chars", "0"])
    assert rc == 0
    doc = json.loads(blob)
    doc["expectation_met"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["report", str(bad), "--format", "markdown"]) == 1
    assert "Expected outcomes met: NO" in capsys.readouterr().out
