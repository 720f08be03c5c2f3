"""Batch command-line front end.

Commands read a JSON run manifest describing the algebra, level, weights and
marked points, execute one pipeline, and write reports or matrix files.
Exit codes are scriptable: 0 success, 1 identity or property failure,
2 input validation, 3 oracle mismatch (block dimension vs fusion rules).

Manifest keys (complex numbers as [re, im] pairs):

    {
      "algebra": ["A", 1],
      "level": 2,
      "weights": [[1], [1], [1], [1]],
      "points": [[0, 0], [1, 0], [3, 0], [7, 0]],
      "at_infinity": null,
      "tol": 1e-10,
      "compare_tol": 1e-8,
      "braid_word": "1 2 1",
      "max_dim": 200000
    }

tol is the transport tolerance (default 1e-10) and compare_tol the
comparison tolerance for float residuals and matches (default 1e-8),
both finite positive JSON numbers (a boolean or a string is refused). The
rank, level, weight labels, max_dim and at_infinity are JSON integers; a
float or boolean there is a validation error, never truncated. The checks
are the library's own `require_int`, so a manifest and a library call
refuse the same values.
Identical manifests produce identical outputs: all exact data is ordered
deterministically and floating results are reproduced within the reported
error estimates.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import numpy as np

from . import __version__
from .algebra import build_algebra, casimir_scalar, codim_bound
from .blocks import block_subspace, block_to_json, fusion_ring, \
    fusion_to_csv
from .connection import flatness_check, kz_form, rotation_monodromy
from .errors import (ConstructionError, KzmonoError, OracleMismatchError,
                     TransportError, ValidationError, require_int)
from .monodromy import (DEFAULT_BLOCK_TOL, DEFAULT_TOL,
                        braid_word_transport, monodromy_to_json,
                        parse_braid_word, require_tol)
from .reps import (DEFAULT_DIMENSION_CAP, casimir_is_scalar, irrep,
                   rep_to_json, tensor_system)
from .sections import verify_bbw


def load_manifest(path):
    try:
        text = pathlib.Path(path).read_text()
        doc = json.loads(text)
    except OSError as exc:
        raise ValidationError(f"cannot read manifest: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("manifest must be a JSON object")
    return doc


def _manifest_points(doc, n):
    """The marked points and the index of the one at infinity (or None)."""
    raw = doc.get("points")
    if not isinstance(raw, list) or len(raw) != n:
        raise ValidationError(f"'points' must be a list of {n} [re, im] "
                              f"pairs, not {raw!r}")
    pts = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ValidationError(f"point {entry!r} is not an [re, im] pair")
        try:
            pts.append(complex(float(entry[0]), float(entry[1])))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad point {entry!r}: {exc}") from exc
    return tuple(pts), doc.get("at_infinity")


def _manifest_algebra(doc):
    try:
        series, rank = doc["algebra"]
        level = doc["level"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad manifest fields: {exc}") from exc
    # checked before build_algebra's cache, which cannot hash a JSON list
    return (build_algebra(str(series), require_int(rank, "rank")),
            require_int(level, "level", 1))


def _manifest_system(doc):
    alg, level = _manifest_algebra(doc)
    weights = doc.get("weights")
    if not isinstance(weights, list):
        raise ValidationError(f"'weights' must be a list of label lists, "
                              f"not {weights!r}")
    system = tensor_system(alg, weights, max_dim=doc.get(
        "max_dim", DEFAULT_DIMENSION_CAP))
    return alg, system, level


def _tolerances(doc):
    tol, compare_tol = tols = (doc.get("tol", DEFAULT_TOL),
                               doc.get("compare_tol", DEFAULT_BLOCK_TOL))
    if not all(type(t) in (int, float) and 0 < t <= sys.float_info.max
               for t in tols):
        raise ValidationError("tol and compare_tol must be finite positive "
                              f"numbers, not {tol!r} and {compare_tol!r}")
    return float(tol), float(compare_tol)


def _out_dir(args):
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_blocks(args):
    doc = load_manifest(args.manifest)
    alg, system, level = _manifest_system(doc)
    points, at_infinity = _manifest_points(doc, system.n)
    bs = block_subspace(system, level, points, at_infinity=at_infinity)
    print(f"invariants={system.invariant_dim} blocks={bs.dim}")
    if args.out:
        path = _out_dir(args) / "blocks.json"
        path.write_text(block_to_json(bs))
        print(f"wrote {path}")
    return 0


def cmd_verify(args):
    doc = load_manifest(args.manifest)
    alg, system, level = _manifest_system(doc)
    _tolerances(doc)     # refused alike by every command
    failures = []

    form = kz_form(system, level)
    inject = doc.get("_inject_sign_error")
    if inject:
        # negative-control hook: flip one exact off-diagonal coefficient
        if form.n < 3:
            raise ValidationError("_inject_sign_error: no Kohno relation "
                                  f"on {form.n} points could see a flip")
        bad = form.omega_full[0, 1].copy()
        entry = next(((r, c) for (r, c) in sorted(bad.data) if r != c), None)
        if entry is None:
            raise ValidationError("_inject_sign_error: Omega^{01} has no "
                                  "off-diagonal entry to flip")
        bad.data[entry] = -bad.data[entry]
        form.omega_full[0, 1] = bad

    report = flatness_check(form)
    if inject and report.exact:
        raise ValidationError("_inject_sign_error: the flipped entry breaks "
                              "no Kohno relation of this system")
    line = (f"flatness: {report.checks} commutators, max deviation "
            f"{report.max_abs_full} on the full space, "
            f"{report.max_abs_restricted} on the invariants")
    print(("ok " if report.exact else "FAIL ") + line)
    if not report.exact:
        failures.append("flatness")

    for w in sorted(set(system.weights)):
        rep = irrep(alg, w)
        scalar = casimir_scalar(alg, w)
        good = casimir_is_scalar(rep)
        print(("ok " if good else "FAIL ")
              + f"casimir: weight {w} scalar {scalar} dim {rep.dim}")
        if not good:
            failures.append(f"casimir {w}")

    if system.invariant_dim > 0:
        rot = rotation_monodromy(form)
        good = rot.max_residual == 0
        print(("ok " if good else "FAIL ")
              + f"rotation: scalar {rot.scalar:+.6f}, residual "
              f"{rot.max_residual:.2e}")
        if not good:
            failures.append("rotation")
    else:
        print("ok rotation: skipped (no invariants)")

    try:
        degrees = verify_bbw(6)
        print(f"ok sections: intertwiners unique for degrees {degrees}")
    except KzmonoError as exc:
        print(f"FAIL sections: {exc}")
        failures.append("sections")

    if failures:
        print(f"verification failed: {', '.join(failures)}")
        return 1
    print("all identities hold")
    return 0


def cmd_braid(args):
    doc = load_manifest(args.manifest)
    alg, system, level = _manifest_system(doc)
    points, at_infinity = _manifest_points(doc, system.n)
    tol, compare_tol = _tolerances(doc)
    if args.tol is not None:
        tol = args.tol
    require_tol(tol)
    word = parse_braid_word(doc.get("braid_word", ""))
    bs = block_subspace(system, level, points, at_infinity=at_infinity)
    form = kz_form(system, level)
    if word:
        res = braid_word_transport(form, bs, word, tol=tol,
                                   block_tol=compare_tol)
    else:
        from .monodromy import MonodromyResult
        res = MonodromyResult(matrix=np.eye(bs.dim, dtype=complex),
                              est_error=0.0, block_residual=0.0)
    manifest_echo = {k: v for k, v in sorted(doc.items())
                     if not k.startswith("_")}
    out = _out_dir(args) / "monodromy.json"
    out.write_text(monodromy_to_json(res, manifest=manifest_echo))
    print(f"word={word} dim={bs.dim} est_error={res.est_error:.2e} "
          f"block_residual={res.block_residual:.2e}")
    print(f"wrote {out}")
    if res.block_residual > compare_tol or res.est_error > 100 * tol:
        print("tolerances exceeded")
        return 1
    return 0


def cmd_fusion_table(args):
    doc = load_manifest(args.manifest)
    alg, level = _manifest_algebra(doc)
    text = fusion_to_csv(fusion_ring(alg, level))
    if args.out:
        path = _out_dir(args) / f"fusion_{alg.name}_k{level}.csv"
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_codim_bound(args):
    value = codim_bound(args.dim_g, args.dim_p, args.dim_zp, args.n)
    note = "" if value > 0 else " (bound vacuous)"
    print(f"codimension >= {value}{note}")
    return 0


def cmd_export_rep(args):
    doc = load_manifest(args.manifest)
    alg, system, _level = _manifest_system(doc)
    out = _out_dir(args)
    for w in sorted(set(system.weights)):
        rep = irrep(alg, w)
        name = "rep_" + alg.name + "_" + "_".join(map(str, w)) + ".json"
        (out / name).write_text(rep_to_json(rep))
        print(f"wrote {out / name}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kzmono",
        description="exact conformal-block spaces and numerical braid "
                    "monodromy of the genus-zero KZ connection")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--manifest", required=True,
                       help="path to the JSON run manifest")
        p.set_defaults(fn=fn)
        return p

    p = command("blocks", cmd_blocks, "invariant and block dimensions")
    p.add_argument("--out", help="output directory for blocks.json")

    command("verify", cmd_verify, "run the exact identity suites")

    p = command("braid", cmd_braid, "braid word monodromy on the blocks")
    p.add_argument("--out", default=".",
                   help="output directory for monodromy.json")
    p.add_argument("--tol", type=float, default=None,
                   help="override the transport tolerance")

    p = command("fusion-table", cmd_fusion_table,
                "export the fusion table as CSV")
    p.add_argument("--out", help="output directory (default: stdout)")

    p = sub.add_parser("codim-bound",
                       help="unstable-locus codimension lower bound")
    p.add_argument("dim_g", type=int)
    p.add_argument("dim_p", type=int)
    p.add_argument("dim_zp", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_codim_bound)

    p = command("export-rep", cmd_export_rep, "export generator matrices")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except (ConstructionError, TransportError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KzmonoError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
