"""Command line: exit codes, reports, export files, determinism."""

import json
import re
from fractions import Fraction

import pytest

from kzmono.cli import main
from kzmono.connection import kz_form

A1_K1_MANIFEST = {
    "algebra": ["A", 1],
    "level": 1,
    "weights": [[1], [1], [1], [1]],
    "points": [[0, 0], [1, 0], [3, 0], [7, 0]],
}


def write_manifest(tmp_path, doc, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_blocks_reports_dimensions(tmp_path, capsys):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    assert main(["blocks", "--manifest", path]) == 0
    out = capsys.readouterr().out
    assert "invariants=2 blocks=1" in out


def test_blocks_inadmissible_weight_exit_2(tmp_path, capsys):
    doc = dict(A1_K1_MANIFEST, weights=[[2], [1], [1], [1]])
    path = write_manifest(tmp_path, doc)
    assert main(["blocks", "--manifest", path]) == 2
    assert "admissible" in capsys.readouterr().err


def test_blocks_coincident_points_exit_2(tmp_path, capsys):
    doc = dict(A1_K1_MANIFEST, points=[[0, 0], [0, 0], [3, 0], [7, 0]])
    path = write_manifest(tmp_path, doc)
    assert main(["blocks", "--manifest", path]) == 2
    assert "coincide" in capsys.readouterr().err


def test_blocks_writes_json(tmp_path, capsys):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    outdir = tmp_path / "out"
    assert main(["blocks", "--manifest", path, "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "blocks.json").read_text())
    assert doc["dim"] == 1


def test_verify_default_suite_passes(tmp_path, capsys):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    assert main(["verify", "--manifest", path]) == 0
    out = capsys.readouterr().out
    assert "flatness" in out and "casimir" in out
    assert "rotation" in out and "sections" in out
    assert "all identities hold" in out


def test_verify_injected_sign_error_exit_1(tmp_path, capsys):
    doc = dict(A1_K1_MANIFEST, _inject_sign_error=True)
    path = write_manifest(tmp_path, doc)
    assert main(["verify", "--manifest", path]) == 1
    assert "FAIL flatness" in capsys.readouterr().out


def test_verify_prints_both_flatness_residuals(tmp_path, capsys,
                                               monkeypatch):
    # a sign error in one restricted Omega leaves the full space flat: the
    # FAIL line must show the nonzero residual on the invariants
    from kzmono import cli

    def corrupted_form(system, k):
        form = kz_form(system, k)
        bad = form.omega_inv[(0, 1)].copy()
        (r, c) = next((r, c) for (r, c) in sorted(bad.data) if r != c)
        bad.data[(r, c)] = -bad.data[(r, c)]
        form.omega_inv[(0, 1)] = bad
        return form

    monkeypatch.setattr(cli, "kz_form", corrupted_form)
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    assert main(["verify", "--manifest", path]) == 1
    line = next(s for s in capsys.readouterr().out.splitlines()
                if "flatness" in s)
    match = re.fullmatch(r"FAIL flatness: 15 commutators, max deviation "
                         r"0 on the full space, (\S+) on the invariants",
                         line)
    assert match and Fraction(match[1]) > 0


def test_verify_rank_two_suite(tmp_path):
    doc = {
        "algebra": ["A", 2],
        "level": 2,
        "weights": [[1, 0], [0, 1], [1, 0], [0, 1]],
        "points": [[0, 0], [1, 0], [3, 0], [7, 0]],
    }
    path = write_manifest(tmp_path, doc)
    assert main(["verify", "--manifest", path]) == 0


def test_braid_word_and_projective_match(tmp_path, capsys):
    doc = {
        "algebra": ["A", 1],
        "level": 2,
        "weights": [[1], [1], [1], [1]],
        "points": [[0, 0], [1, 0], [3, 0], [7, 0]],
        "braid_word": "1 2 1",
    }
    path = write_manifest(tmp_path, doc)
    out1 = tmp_path / "o1"
    assert main(["braid", "--manifest", path, "--out", str(out1)]) == 0
    m1 = json.loads((out1 / "monodromy.json").read_text())
    assert m1["block_residual"] < 1e-8

    doc2 = dict(doc, braid_word="2 1 2")
    path2 = write_manifest(tmp_path, doc2, "m2.json")
    out2 = tmp_path / "o2"
    assert main(["braid", "--manifest", path2, "--out", str(out2)]) == 0
    m2 = json.loads((out2 / "monodromy.json").read_text())

    import numpy as np
    from kzmono.transport import projective_compare
    a = np.array(m1["matrix_re"]) + 1j * np.array(m1["matrix_im"])
    b = np.array(m2["matrix_re"]) + 1j * np.array(m2["matrix_im"])
    _c, resid = projective_compare(a, b)
    assert resid < 1e-8


def test_braid_empty_word_gives_identity(tmp_path):
    doc = dict(A1_K1_MANIFEST, braid_word="")
    path = write_manifest(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["braid", "--manifest", path, "--out", str(out)]) == 0
    m = json.loads((out / "monodromy.json").read_text())
    assert m["matrix_re"] == [[1.0]]
    assert m["est_error"] == 0.0


def test_braid_letter_out_of_range_exit_2(tmp_path, capsys):
    doc = dict(A1_K1_MANIFEST, braid_word="5")
    path = write_manifest(tmp_path, doc)
    assert main(["braid", "--manifest", path, "--out",
                 str(tmp_path / "x")]) == 2


def test_braid_unrefinable_tol_exit_2(tmp_path, capsys):
    # an empty braid word runs no transport, so the CLI checks tol itself
    for n, (word, tol) in enumerate([("1", "1e-13"), ("", "1e-13"),
                                     ("", "-5")]):
        doc = dict(A1_K1_MANIFEST, braid_word=word)
        path = write_manifest(tmp_path, doc)
        assert main(["braid", "--manifest", path,
                     "--out", str(tmp_path / f"x{n}"), "--tol", tol]) == 2
        assert "tolerance" in capsys.readouterr().err


def test_fusion_table_stdout_and_file(tmp_path, capsys):
    doc = {"algebra": ["A", 1], "level": 2}
    path = write_manifest(tmp_path, doc)
    assert main(["fusion-table", "--manifest", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lambda,mu,nu,N"
    outdir = tmp_path / "csv"
    assert main(["fusion-table", "--manifest", path,
                 "--out", str(outdir)]) == 0
    assert (outdir / "fusion_A1_k2.csv").exists()


def test_codim_bound_command(capsys):
    assert main(["codim-bound", "3", "2", "1", "6"]) == 0
    assert "codimension >= 1" in capsys.readouterr().out
    assert main(["codim-bound", "8", "6", "2", "2"]) == 0
    assert "vacuous" in capsys.readouterr().out
    assert main(["codim-bound", "3", "3", "1", "6"]) == 2


def test_export_rep(tmp_path):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    outdir = tmp_path / "reps"
    assert main(["export-rep", "--manifest", path,
                 "--out", str(outdir)]) == 0
    doc = json.loads((outdir / "rep_A1_1.json").read_text())
    assert doc["dimension"] == 2


def test_export_rep_without_out_exit_2(tmp_path, capsys):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    with pytest.raises(SystemExit) as exc:
        main(["export-rep", "--manifest", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err and "Traceback" not in err


def test_export_rep_non_integer_level_exit_2(tmp_path, capsys):
    # export-rep never passes the level on, so the CLI's own check must
    # refuse it
    path = write_manifest(tmp_path, dict(A1_K1_MANIFEST, level=2.9))
    outdir = tmp_path / "reps"
    assert main(["export-rep", "--manifest", path,
                 "--out", str(outdir)]) == 2
    assert "level must be an integer" in capsys.readouterr().err
    assert not outdir.exists()


def test_verify_rejects_tol_and_out_exit_2(tmp_path, capsys):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    for extra in (["--tol", "1e-3"], ["--out", str(tmp_path / "x")]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--manifest", path] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_oracle_mismatch_exit_3(tmp_path, capsys, monkeypatch):
    # a genuine mismatch cannot be produced by valid inputs, so fake the
    # failure at the construction boundary to pin the exit code
    from kzmono import cli
    from kzmono.errors import OracleMismatchError

    def boom(*args, **kwargs):
        raise OracleMismatchError("block dimension 7 != fusion dimension 1")

    monkeypatch.setattr(cli, "block_subspace", boom)
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    assert main(["blocks", "--manifest", path]) == 3
    assert "oracle mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("command, field, value", [
    ("blocks", "points", 5),
    ("blocks", "points", [[None, 1], [1, 0], [3, 0], [7, 0]]),
    ("verify", "tol", None),
    ("verify", "compare_tol", None),
    ("blocks", "max_dim", None),
    ("blocks", "at_infinity", [1]),
    ("blocks", "at_infinity", 1.7),
    ("blocks", "level", 2.9),
    ("blocks", "level", True),
    ("blocks", "weights", [[1], [1.7], [1], [1]]),
    ("blocks", "weights", [[1], [True], [1], [1]]),
    ("blocks", "algebra", ["A", 1.0]),
    ("blocks", "max_dim", 1e6),
    ("fusion-table", "level", 2.9),
    ("fusion-table", "level", True),
    ("fusion-table", "algebra", ["A", True]),
    ("fusion-table", "algebra", ["A", [1]]),
    ("fusion-table", "algebra", [["A"], 1]),
    ("blocks", "weights", [[1], 1, [1], [1]]),
    ("blocks", "weights", None),
    ("braid", "compare_tol", float("nan")),
    ("braid", "compare_tol", -1),
    ("braid", "compare_tol", 0),
    ("braid", "compare_tol", True),
    ("braid", "tol", float("inf")),
    ("braid", "tol", True),
    ("braid", "tol", "1e-10"),
    ("verify", "compare_tol", float("inf")),
])
def test_malformed_manifest_field_exit_2(tmp_path, capsys, command, field,
                                         value):
    path = write_manifest(tmp_path, dict(A1_K1_MANIFEST, **{field: value}))
    assert main([command, "--manifest", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_missing_manifest_exit_2(tmp_path, capsys):
    assert main(["blocks", "--manifest", str(tmp_path / "nope.json")]) == 2


def test_manifest_determinism(tmp_path):
    path = write_manifest(tmp_path, A1_K1_MANIFEST)
    o1, o2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["blocks", "--manifest", path, "--out", str(o1)]) == 0
    assert main(["blocks", "--manifest", path, "--out", str(o2)]) == 0
    assert (o1 / "blocks.json").read_text() == \
        (o2 / "blocks.json").read_text()
