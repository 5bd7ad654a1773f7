import json
import os

from neumann_domains import cli
from neumann_domains.cli import main


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


def test_exit_codes(tmp_path, monkeypatch):
    # 2: configuration problems
    assert main(["crit", "--field", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2
    assert main(["spectrum", "--field", "anisotropic", "--domain-index",
                 "99", "--out", str(tmp_path / "o")]) == 2
    # 3: numerical failure (spectrum does not extend past lam)
    assert main(["position", "--field", "separable", "--seed-grid", "16",
                 "--mesh-h", "0.3", "--num-eigs", "4", "--lam", "1000",
                 "--out", str(tmp_path / "o")]) == 3

    # out-of-range mesh size, eigenvalue count, cluster tolerance and
    # truncation level: rejected before the complex is built
    def no_build(*args, **kwargs):
        raise AssertionError("build_complex ran for a bad flag")

    monkeypatch.setattr(cli, "build_complex", no_build)
    quick = ["--field", "separable", "--seed-grid", "16", "--out",
             str(tmp_path / "o")]
    for flags in (["--mesh-h", "0"], ["--mesh-h", "-0.1"],
                  ["--mesh-h", "nan"],
                  ["--mesh-h", "0.3", "--num-eigs", "0"],
                  ["--mesh-h", "0.3", "--num-eigs", "4", "--cluster-tol",
                   "0.6"],
                  ["--cluster-tol", "0.5"], ["--cluster-tol", "0"],
                  ["--truncate", "0"], ["--truncate", "1"],
                  ["--truncate", "-0.5"]):
        for command in ("position", "spectrum"):
            assert main([command, *quick, *flags]) == 2, (command, flags)
    # the same checks apply to values read from a config file
    conf = tmp_path / "bad.json"
    conf.write_text(json.dumps({"mesh-h": 0.0}))
    assert main(["position", "--config", str(conf), *quick]) == 2


def test_verify_single_field(tmp_path):
    code, out = run(tmp_path, "verify", "--field", "separable",
                    "--seed-grid", "16")
    assert code == 0
    data = json.loads((out / "verify.json").read_text())
    assert data["ok"]
    names = {r["check"] for r in data["results"]["separable"]}
    assert {"euler_relation", "census_idempotent", "angle_sums_2pi",
            "negation_line_hausdorff", "deterministic_report"} <= names
