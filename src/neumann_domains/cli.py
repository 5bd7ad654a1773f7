"""Command line front end.

Subcommands: crit, complex, spectrum, position, crack, verify.  Every report
embeds the fully resolved configuration, and repeated runs with the same
configuration produce byte-identical JSON.  Exit codes: 2 configuration
error, 3 numerical failure, 4 assertion failure.
"""

import argparse
import json
import os
import sys

from .complexes import build_complex, nodal_neumann_angles
from .contours import nodal_set
from .cracked import build_crack_perturbation, verify_cracked
from .errors import (ConstructionFailed, EulerMismatch, LineCrossing,
                     NeumannDomainError)
from .fem import domain_spectrum_report
from .fields import BUNDLED_NAMES, MorseField, load_bundled
from .meshing import mesh_domain
from .svg import render_complex_svg
from .validate import run_invariants

EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ASSERTION = 2, 3, 4
ASSERTION_ERRORS = (ConstructionFailed, EulerMismatch, LineCrossing)


def _add_common(p):
    p.add_argument("--field", help="field definition JSON (or a bundled "
                   f"name: {', '.join(BUNDLED_NAMES)})")
    p.add_argument("--config", help="JSON config file mirroring the flags "
                   "(explicit flags win)")
    p.add_argument("--seed-grid", type=int, default=24)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--rng-seed", type=int, default=7,
                   help="seed for randomized re-sampling checks")


def _add_mesh_flags(p):
    p.add_argument("--domain-index", type=int, default=0)
    p.add_argument("--mesh-h", type=float, default=0.06)
    p.add_argument("--grading", type=float, default=0.5)
    p.add_argument("--truncate", type=float, default=None)
    p.add_argument("--num-eigs", type=int, default=12)
    p.add_argument("--cluster-tol", type=float, default=1e-3)
    p.add_argument("--lam", type=float, default=None,
                   help="query eigenvalue (defaults to the field eigenvalue)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="neumann-domains",
        description="Neumann domains of Morse functions on the flat torus")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crit", help="critical point census")
    _add_common(p)

    p = sub.add_parser("complex", help="partition complex (JSON and SVG)")
    _add_common(p)
    p.add_argument("--grid-res", type=int, default=384,
                   help="nodal set grid resolution")
    p.add_argument("--svg", action="store_true", help="write an SVG figure")

    p = sub.add_parser("spectrum", help="Neumann spectrum of one domain")
    _add_common(p)
    _add_mesh_flags(p)

    p = sub.add_parser("position", help="spectral position of an eigenvalue")
    _add_common(p)
    _add_mesh_flags(p)

    p = sub.add_parser("crack", help="inject a degree-one extremum")
    _add_common(p)
    p.add_argument("--center", default="1.5707963,1.5707963",
                   help="patch center 'x,y'")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--bump-K", type=float, default=12.0, dest="bump_k")

    p = sub.add_parser("verify", help="invariant suite (bundled fields by "
                       "default); nonzero exit on failure")
    _add_common(p)
    return ap


def _apply_config(args):
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    # explicit flags win: only fill values still at the subcommand's defaults
    defaults = vars(build_parser().parse_args([args.command]))
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, attr) == defaults[attr]:
            setattr(args, attr, val)
    return args


def _load_field(args):
    if not args.field:
        raise ValueError("--field is required for this subcommand")
    if args.field in BUNDLED_NAMES:
        return load_bundled(args.field)
    return MorseField.from_json(args.field)


def _config_dict(args):
    skip = {"command", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _write(args, name, payload):
    os.makedirs(args.out, exist_ok=True)
    payload = {"config": _config_dict(args), **payload}
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def cmd_crit(args):
    field = _load_field(args)
    from .critical import euler_check, find_critical_points
    pts = find_critical_points(field, args.seed_grid)
    path = _write(args, "crit.json", {
        "critical_points": [p.to_dict() for p in pts],
        "euler_ok": bool(euler_check(pts)),
    })
    print(f"{len(pts)} critical points -> {path}")
    return 0


def cmd_complex(args):
    field = _load_field(args)
    cx = build_complex(field, args.seed_grid)
    nodal = nodal_set(field, args.grid_res)
    angles = nodal_neumann_angles(cx, nodal) if nodal else []
    payload = cx.to_dict()
    payload["nodal_polyline_count"] = len(nodal)
    payload["nodal_neumann_angles"] = [
        [[round(float(p[0]), 9), round(float(p[1]), 9)], round(a, 9)]
        for p, a in angles]
    path = _write(args, "complex.json", payload)
    msg = (f"V={len(cx.critical_points)} E={len(cx.lines)} F={len(cx.faces)} "
           f"-> {path}")
    if args.svg:
        svg_path = os.path.join(args.out, "complex.svg")
        render_complex_svg(cx, nodal, path=svg_path)
        msg += f" (+ {svg_path})"
    print(msg)
    return 0


def _check_mesh_flags(args):
    # ranges the mesher and the eigensolver enforce too, checked here so a
    # bad flag fails before the complex is built
    if not args.mesh_h > 0:
        raise ValueError(f"--mesh-h {args.mesh_h} must be positive")
    if args.num_eigs < 1:
        raise ValueError(f"--num-eigs {args.num_eigs} must be at least 1")
    if not 0 < args.cluster_tol < 0.5:
        raise ValueError(f"--cluster-tol {args.cluster_tol} must lie in "
                         "(0, 0.5)")
    if args.truncate is not None and not 0 < args.truncate < 1:
        raise ValueError(f"--truncate {args.truncate} must lie in (0, 1)")


def _spectrum_report(args):
    _check_mesh_flags(args)
    field = _load_field(args)
    cx = build_complex(field, args.seed_grid)
    if not 0 <= args.domain_index < len(cx.faces):
        raise ValueError(f"domain index {args.domain_index} out of range "
                         f"(0..{len(cx.faces) - 1})")
    face = cx.faces[args.domain_index]
    mesh = mesh_domain(field, face, args.mesh_h, args.grading, args.truncate,
                       cx.critical_points)
    lam = args.lam
    if lam is None:
        if not field.is_eigenfunction:
            raise ValueError("--lam is required for non-eigenfunction fields")
        lam = field.eigenvalue()
    return field, cx, face, mesh, domain_spectrum_report(
        field, mesh, lam, args.num_eigs, args.cluster_tol)


def cmd_spectrum(args):
    _, _, _, mesh, report = _spectrum_report(args)
    path = _write(args, "spectrum.json", report.to_dict())
    mesh.to_off(os.path.join(args.out, "domain.off"))
    mesh.boundary_sidecar(os.path.join(args.out, "domain_boundary.json"))
    mu = ", ".join(f"{m:.6g}" for m in report.eigenvalues[:8])
    print(f"mu = [{mu}, ...] N({report.lam:g}) = {report.position} -> {path}")
    return 0


def cmd_position(args):
    *_, report = _spectrum_report(args)
    _write(args, "position.json", {
        "lambda": report.lam,
        "position": report.position,
        "cluster": report.cluster,
        "dist_to_spectrum": report.spectrum_distance,
    })
    print(report.position)
    return 0


def cmd_crack(args):
    field = _load_field(args)
    center = tuple(float(c) for c in args.center.split(","))
    tilde = build_crack_perturbation(field, center, args.scale, args.bump_k)
    report = verify_cracked(tilde, args.seed_grid)
    os.makedirs(args.out, exist_ok=True)
    field_path = os.path.join(args.out, "field_cracked.json")
    tilde.to_json(field_path)
    path = _write(args, "crack.json", {
        **report.to_dict(), "field_file": field_path,
    })
    print(f"cracked domain verified; new {report.new_max.kind} has degree 1 "
          f"-> {path}")
    return 0


def cmd_verify(args):
    if args.field:
        fields = {args.field: _load_field(args)}
    else:
        fields = {name: load_bundled(name) for name in BUNDLED_NAMES}
    all_ok = True
    results = {}
    for name, field in fields.items():
        checks = run_invariants(field, args.seed_grid, args.rng_seed)
        results[name] = [
            {"check": c, "ok": bool(ok), "detail": d} for c, ok, d in checks]
        for c, ok, d in checks:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {c} ({d})")
            all_ok &= ok
    _write(args, "verify.json", {"ok": all_ok, "results": results})
    return 0 if all_ok else EXIT_ASSERTION


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        args = _apply_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    handlers = {
        "crit": cmd_crit, "complex": cmd_complex, "spectrum": cmd_spectrum,
        "position": cmd_position, "crack": cmd_crack, "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ASSERTION_ERRORS as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except NeumannDomainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
