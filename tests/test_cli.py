import json
import math
import os
import re
import warnings

import numpy as np
import pytest

from neumann_domains import (build_complex, cli, cusp_length_decay,
                             domain_spectrum_report, fem,
                             find_critical_points, mesh_domain,
                             neumann_spectrum, nodal_set,
                             restriction_residual, spectral_position,
                             structured_rect_mesh, truncate_domain)
from neumann_domains.cli import main
from neumann_domains.errors import EulerMismatch


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def test_crit(tmp_path):
    code, out = run(tmp_path, "crit", "--field", "separable")
    assert code == 0
    data = json.loads((out / "crit.json").read_text())
    assert len(data["critical_points"]) == 4
    assert data["euler_ok"]
    assert data["config"]["field"] == "separable"
    # the census of cos(x + y) + 0.7 cos(x - y) once reported (pi, 2*pi)
    # and (2*pi, pi): every written position lies in [0, 2*pi)
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"modes": [{"a": 1, "m": 1, "n": 1},
                                          {"a": 0.7, "m": 1, "n": -1}]}))
    code, out = run(tmp_path / "diag", "crit", "--field", str(path))
    assert code == 0
    xy = [p["position"] for p in json.loads(
        (out / "crit.json").read_text())["critical_points"]]
    assert len(xy) == 8
    assert all(0 <= c < 2 * math.pi for p in xy for c in p), xy


def test_complex_with_svg(tmp_path):
    code, out = run(tmp_path, "complex", "--field", "separable",
                    "--seed-grid", "16", "--grid-res", "128", "--svg")
    assert code == 0
    data = json.loads((out / "complex.json").read_text())
    assert data["counts"] == {"V": 4, "E": 8, "F": 4}
    svg = (out / "complex.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 2        # saddles
    assert svg.count("<polygon") == 2       # one max, one min
    assert "stroke-dasharray" in svg        # nodal set present


def test_spectrum_and_position(tmp_path):
    code, out = run(tmp_path, "spectrum", "--field", "separable",
                    "--seed-grid", "16", "--mesh-h", "0.2",
                    "--num-eigs", "6")
    assert code == 0
    data = json.loads((out / "spectrum.json").read_text())
    assert data["position"] == 1
    assert abs(data["mu"][0]) < 1e-8
    assert (out / "domain.off").read_text().startswith("OFF")
    assert "edges" in json.loads((out / "domain_boundary.json").read_text())

    code, out2 = run(tmp_path / "b", "position", "--field", "separable",
                     "--seed-grid", "16", "--mesh-h", "0.2")
    assert code == 0
    data = json.loads((out2 / "position.json").read_text())
    assert data["position"] == 1


def test_crack_subcommand(tmp_path):
    code, out = run(tmp_path, "crack", "--field", "separable")
    assert code == 0
    data = json.loads((out / "crack.json").read_text())
    assert data["new_extremum"]["degree"] == 1
    assert os.path.exists(data["field_file"])
    # the emitted field file round-trips through the pipeline
    code2, out2 = run(tmp_path / "again", "crit", "--field",
                      data["field_file"])
    assert code2 == 0
    assert len(json.loads((out2 / "crit.json").read_text())
               ["critical_points"]) == 6


def test_deterministic_reports(tmp_path):
    _, out1 = run(tmp_path / "r1", "complex", "--field", "anisotropic",
                  "--seed-grid", "16", "--grid-res", "96")
    _, out2 = run(tmp_path / "r2", "complex", "--field", "anisotropic",
                  "--seed-grid", "16", "--grid-res", "96")
    b1 = (out1 / "complex.json").read_bytes()
    b2 = (out2 / "complex.json").read_bytes()
    # the embedded config contains the out directory; normalize it
    s1 = b1.replace(str(out1).encode(), b"OUT")
    s2 = b2.replace(str(out2).encode(), b"OUT")
    assert s1 == s2


def test_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"field": "separable", "seed-grid": 16,
                                "mesh-h": 0.3}))
    out = tmp_path / "out"
    code = main(["position", "--config", str(conf), "--mesh-h", "0.25",
                 "--out", str(out)])
    assert code == 0
    data = json.loads((out / "position.json").read_text())
    assert data["config"]["mesh_h"] == 0.25      # flag wins
    assert data["config"]["field"] == "separable"
    assert data["config"]["seed_grid"] == 16     # config fills a default


@pytest.fixture
def config_run(tmp_path, monkeypatch):
    """main() with a config file; returns (exit code, parsed args)."""
    seen = {}

    def record(args):
        seen.update(vars(args))
        return 0

    monkeypatch.setattr(cli, "cmd_position", record)
    monkeypatch.setattr(cli, "cmd_complex", record)
    conf = tmp_path / "conf.json"

    def run_with(conf_dict, command, *argv):
        seen.clear()
        conf.write_text(json.dumps(conf_dict))
        return main([command, "--config", str(conf), *argv]), dict(seen)
    return run_with


def test_config_values_take_the_flag_type(config_run):
    code, args = config_run({"mesh-h": "0.05", "seed-grid": "16"}, "position")
    assert code == 0
    assert args["mesh_h"] == 0.05 and isinstance(args["mesh_h"], float)
    assert args["seed_grid"] == 16 and isinstance(args["seed_grid"], int)
    # keys may name the destination; true is a bare switch, null is left out
    code, args = config_run({"mesh_h": 0.3, "truncate": None}, "position")
    assert code == 0 and args["mesh_h"] == 0.3 and args["truncate"] is None
    code, args = config_run({"grid_res": 64, "svg": True}, "complex")
    assert code == 0 and args["grid_res"] == 64 and args["svg"] is True
    # a key that is not a flag of the subcommand is a configuration error
    assert config_run({"truncate": 0.9}, "complex")[0] == 2


def test_config_value_rejected_by_flag_type(config_run):
    with pytest.raises(SystemExit) as exc:
        config_run({"grid-res": 64.5}, "complex")
    assert exc.value.code == 2


def test_explicit_flag_at_default_beats_config(config_run):
    code, args = config_run({"mesh-h": 0.3}, "position", "--mesh-h", "0.06")
    assert code == 0 and args["mesh_h"] == 0.06


def test_exit_codes(tmp_path, monkeypatch, capsys):
    # 2: configuration problems
    assert main(["crit", "--field", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["spectrum", "--field", "anisotropic", "--domain-index",
                 "99", "--out", str(tmp_path / "o")]) == 2
    # malformed field files: no modes, not an object, a mode without an
    # amplitude, an empty perturbation, a null phase, waves that are not
    # integers (json writes and reads inf as Infinity) and a list phase
    two_modes = [{"a": 1.0, "m": 1, "n": 0}, {"a": 1.0, "m": 0, "n": 1}]
    for i, bad in enumerate((
            {"foo": 1}, [1, 2], {"modes": [{"m": 1, "n": 0}]},
            {"modes": two_modes, "perturbations": [{}]},
            {"modes": [{**two_modes[0], "theta": None}, two_modes[1]]},
            {"modes": [{**two_modes[0], "m": float("inf")}, two_modes[1]]},
            {"modes": [{**two_modes[0], "m": 3.00001}, two_modes[1]]},
            {"modes": [{**two_modes[0], "theta": [0.0, 0.5]}, two_modes[1]]})):
        path = tmp_path / f"bad_field{i}.json"
        path.write_text(json.dumps(bad))
        assert main(["crit", "--field", str(path),
                     "--out", str(tmp_path / "o")]) == 2, bad
    # crack perturbations need a centre of two finite numbers and a
    # positive scale
    patch = {"center": [1.0, 1.0], "frame": [[1.0, 0.0], [0.0, 1.0]],
             "scale": 0.3, "A": 0.3, "K": 12.0}
    for i, change in enumerate(({"center": None}, {"scale": 0},
                                {"scale": -0.3})):
        path = tmp_path / f"bad_patch{i}.json"
        path.write_text(json.dumps({"modes": two_modes,
                                    "perturbations": [{**patch, **change}]}))
        assert main(["crit", "--field", str(path),
                     "--out", str(tmp_path / "o")]) == 2, change
    # 3: numerical failure (spectrum does not extend past lam)
    assert main(["position", "--field", "separable", "--seed-grid", "16",
                 "--mesh-h", "0.3", "--num-eigs", "4", "--lam", "1000",
                 "--out", str(tmp_path / "o")]) == 3
    # a lam so small that the guard band below it does not clear the
    # computed zero eigenvalue (6.23e-15 here), which once exited 3 as a
    # solver breakdown, "0 eigenvalues found below the threshold, 1 by
    # inertia"
    capsys.readouterr()
    assert main(["spectrum", "--field", "anisotropic", "--mesh-h", "0.2",
                 "--lam", "1e-300", "--out", str(tmp_path / "o")]) == 3
    assert ("the zero eigenvalue is computed as 6.23e-15"
            in capsys.readouterr().err)
    # a crack centred on a critical point, refused before its frame is
    # formed from the vanishing gradient, so no warning reaches stderr
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(["crack", "--field", "separable", "--center", "0,0",
                     "--out", str(tmp_path / "o")]) == 3
    assert "Warning" not in capsys.readouterr().err
    # an 8 x 8 seed lattice undercounts the roots of cos 7x + cos 7y
    path = tmp_path / "cos7.json"
    path.write_text(json.dumps({"modes": [{"a": 1.0, "m": 7, "n": 0},
                                          {"a": 1.0, "m": 0, "n": 7}]}))
    assert main(["crit", "--field", str(path), "--seed-grid", "8",
                 "--out", str(tmp_path / "o")]) == 3
    assert "roots at n=8" in capsys.readouterr().err

    # out-of-range or infinite mesh size, eigenvalue count, cluster
    # tolerance, truncation level, grading, eigenvalue and nodal grid:
    # rejected before the complex is built (an infinite grading once hung
    # the mesher on a cusped face)
    def no_build(*args, **kwargs):
        raise AssertionError("build_complex ran for a bad flag")

    monkeypatch.setattr(cli, "build_complex", no_build)
    quick = ["--field", "separable", "--seed-grid", "16", "--out",
             str(tmp_path / "o")]
    for flags in (["--mesh-h", "0"], ["--mesh-h", "-0.1"],
                  ["--mesh-h", "nan"], ["--mesh-h", "inf"],
                  ["--mesh-h", "0.3", "--num-eigs", "0"],
                  ["--mesh-h", "0.3", "--num-eigs", "4", "--cluster-tol",
                   "0.6"],
                  ["--cluster-tol", "0.5"], ["--cluster-tol", "0"],
                  ["--truncate", "0"], ["--truncate", "1"],
                  ["--truncate", "-0.5"], ["--lam", "-1"], ["--lam", "inf"],
                  ["--grading", "0"], ["--grading", "-1"],
                  ["--grading", "nan"], ["--grading", "inf"],
                  ["--domain-index", "5", "--mesh-h", "0.1", "--grading",
                   "inf"]):
        for command in ("position", "spectrum"):
            assert main([command, *quick, *flags]) == 2, (command, flags)
    for res in ("0", "1", "7"):
        assert main(["complex", *quick, "--grid-res", res]) == 2, res
    # crack patches need a positive scale, a centre of two finite numbers
    # and a finite bump amplitude
    for flags in (["--scale", "0"], ["--scale", "-0.3"], ["--scale", "nan"],
                  ["--center", "1,2,3"], ["--center", "nan,1"],
                  ["--bump-K", "nan"], ["--bump-K", "inf"]):
        assert main(["crack", *quick, *flags]) == 2, flags
    # the same checks apply to values read from a config file
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"mesh-h": 0.0}))
    assert main(["position", "--config", str(conf), *quick]) == 2
    # a seed grid below 8 is rejected for every subcommand before a field
    # loads
    def no_load(*args, **kwargs):
        raise AssertionError("a field loaded for a bad --seed-grid")

    monkeypatch.setattr(cli, "_load_field", no_load)
    monkeypatch.setattr(cli, "load_bundled", no_load)
    out = ["--out", str(tmp_path / "o")]
    for command in ("crit", "complex", "spectrum", "position", "crack"):
        assert main([command, "--field", "separable", "--seed-grid", "7",
                     *out]) == 2, command
    assert main(["verify", "--seed-grid", "0", *out]) == 2
    assert main(["verify", "--field", "separable", "--seed-grid", "-8",
                 *out]) == 2


def test_verify_single_field(tmp_path):
    code, out = run(tmp_path, "verify", "--field", "separable",
                    "--seed-grid", "16")
    assert code == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["ok"]
    # V - E + F, census refinement and angle sums are the build's own
    # checks and cannot fail once it has returned
    names = [r["check"] for r in data["results"]["separable"]]
    assert names == ["faces_tile_torus", "negation_swaps_labels",
                     "negation_line_hausdorff", "negation_face_count",
                     "face_attachment_stable", "deterministic_report"]
    assert not {"euler_relation", "census_idempotent",
                "angle_sums_2pi"} & set(names)


def test_truncation_that_cuts_nothing_is_refused(tmp_path, capsys):
    # the separable square has no cusp to cut; the run once exited 0 with
    # the uncut spectrum and "t": 0.9 in its report
    code, out = run(tmp_path, "spectrum", "--field", "separable",
                    "--seed-grid", "16", "--domain-index", "0",
                    "--truncate", "0.9")
    assert code == 2
    assert "face 0 has no confirmed cusp" in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_truncating_a_cracked_face_is_refused(tmp_path, capsys):
    code, out = run(tmp_path, "crack", "--field", "separable")
    assert code == 0
    crack = json.loads((out / "crack.json").read_text())
    i = crack["cracked_faces"][0]
    code, out = run(tmp_path / "t", "spectrum", "--field",
                    crack["field_file"], "--domain-index", str(i),
                    "--mesh-h", "0.15", "--truncate", "0.9", "--lam", "1")
    assert code == 2
    assert f"face {i} is cracked" in capsys.readouterr().err
    assert not (out / "spectrum.json").exists()


def test_missing_lam_is_refused_before_any_work(crack_field, tmp_path,
                                                monkeypatch, capsys):
    # a cracked field is no eigenfunction, so a report needs --lam; the run
    # once built the complex and meshed the face before refusing
    field = tmp_path / "field_cracked.json"
    crack_field.to_json(str(field))

    def no_build(*args, **kwargs):
        raise AssertionError("build_complex ran without --lam")

    monkeypatch.setattr(cli, "build_complex", no_build)
    capsys.readouterr()
    for command in ("spectrum", "position"):
        code, out = run(tmp_path / command, command, "--field", str(field))
        assert code == 2, command
        assert ("--lam is required for non-eigenfunction fields"
                in capsys.readouterr().err)
        assert not out.exists()


def test_assertion_failures_exit_4(tmp_path, monkeypatch, capsys):
    def mismatch(*args, **kwargs):
        raise EulerMismatch("face boundary does not close in the plane")

    monkeypatch.setattr(cli, "build_complex", mismatch)
    capsys.readouterr()
    code, _ = run(tmp_path / "c", "complex", "--field", "separable")
    assert code == 4
    assert "assertion failure:" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run_invariants",
                        lambda *args: [("euler", False, "stubbed failure")])
    code, out = run(tmp_path / "v", "verify", "--field", "separable")
    assert code == 4
    assert '"ok": false' in (out / "verify.json").read_text()


# every argument rule, written once in the module that uses the value:
# (CLI flag, an out-of-range value, the parameter the message names)
ARGUMENT_RULES = [
    *[("--seed-grid", v, "seed_grid") for v in (7, 0, -8)],
    *[("--grid-res", v, "grid_res") for v in (0, 1, 7)],
    *[("--mesh-h", v, "mesh size h") for v in (0.0, -0.1, math.nan, math.inf)],
    *[("--grading", v, "grading") for v in (0.0, -1.0, math.nan, math.inf)],
    *[("--truncate", v, "truncation level t") for v in (0.0, 1.0, -0.5)],
    *[("--cluster-tol", v, "cluster tolerance") for v in (0.0, 0.5, 0.6)],
    *[("--lam", v, "lam") for v in (-1.0, math.nan, math.inf)],
    ("--num-eigs", 0, "eigenvalue count k"),
]


class _UnusableField:
    """A field that fails on any use: a check that runs first never uses it."""

    def __getattr__(self, name):
        raise AssertionError(f"field.{name} used before the argument check")


def _library_calls(flag, v, face, cps, mesh):
    """Each library call that takes the value of ``flag``, with it set to v."""
    f = _UnusableField()
    return {
        "--seed-grid": [lambda: find_critical_points(f, v),
                        lambda: build_complex(f, v)],
        "--grid-res": [lambda: nodal_set(f, v)],
        "--mesh-h": [lambda: mesh_domain(f, face, v, critical_points=cps)],
        "--grading": [lambda: mesh_domain(f, face, 0.2, v,
                                          critical_points=cps)],
        "--truncate": [lambda: mesh_domain(f, face, 0.2, t=v,
                                           critical_points=cps),
                       lambda: truncate_domain(f, face, v, cps),
                       lambda: cusp_length_decay(f, face, [0.5, v], cps)],
        "--cluster-tol": [lambda: spectral_position([0.0, 1.0, 2.0], 1.5, v),
                          lambda: domain_spectrum_report(f, mesh, 1.0, 4, v)],
        "--lam": [lambda: spectral_position([0.0, 1.0, 2.0], v),
                  lambda: domain_spectrum_report(f, mesh, v, 4),
                  lambda: restriction_residual(f, mesh, v)],
        "--num-eigs": [lambda: neumann_spectrum(mesh, v),
                       lambda: domain_spectrum_report(f, mesh, 1.0, v)],
    }[flag]


@pytest.mark.parametrize("flag, value, name", ARGUMENT_RULES,
                         ids=[f"{f}={v}" for f, v, _ in ARGUMENT_RULES])
def test_argument_rules(flag, value, name, sep_complex, tmp_path,
                        monkeypatch, capsys):
    # the library refuses the value before any work: no field is evaluated
    # and no matrix assembled (a report once assembled and eigensolved
    # before its lam, tol or k was refused)
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the argument check")

    monkeypatch.setattr(fem, "assemble_p1", no_work)
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)
    for call in _library_calls(flag, value, sep_complex.faces[0],
                               sep_complex.critical_points, mesh):
        with pytest.raises(ValueError, match=re.escape(name)):
            call()
    # the CLI runs the same check before a field loads, exits 2 and names
    # the library parameter
    for attr in ("_load_field", "load_bundled", "build_complex"):
        monkeypatch.setattr(cli, attr, no_work)
    command = {"--seed-grid": "crit", "--grid-res": "complex"}.get(
        flag, "position")
    capsys.readouterr()
    assert main([command, "--field", "separable", f"{flag}={value}",
                 "--out", str(tmp_path / "o")]) == 2
    assert name in capsys.readouterr().err
