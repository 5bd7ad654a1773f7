"""The two benchmark workloads.

Each workload is a closed loop: one caller in one process, and the next
step starts when the previous one has ended.  A pass is a fixed sequence of
steps, each one user-visible operation (a partition, one domain's mesh and
solve, a CLI call).  ``run.py`` times every step and repeats passes until
the run's time is up; a pass's time is the sum over its steps of each
step's median repeat, scaled to a reference host speed.

``setup`` generates the inputs from the seed and loads the field;
``begin_pass`` starts a ``PassResult``; each step records its checks and
its deterministic work in it; ``end_pass`` adds the checks that need the
whole pass.

Package functions are always called through their module
(``nd.build_complex``, ``cli.main``), never through names imported here, so
that the spans ``spans.Tracer`` installs see every call.
"""

import contextlib
import io
import json
import math
import os
import shutil
from collections import Counter

import numpy as np

import neumann_domains as nd
from neumann_domains import cli
from neumann_domains.critical import MAX, MIN
from neumann_domains.errors import NeumannDomainError

SQUARE_SPECTRUM = np.array([0, 1, 1, 2, 4, 4, 5, 5, 8], dtype=float)
TORUS_AREA = 4 * math.pi ** 2

# step kinds: a partition step takes a field to its partition, a domain
# step takes one partitioned domain to its spectrum
PARTITION, DOMAIN, OTHER = "partition", "domain", "other"


class PassResult:
    """Operations attempted and failed in one pass, and its work counts."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.work = Counter()

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _complex_work(work, cx):
    """Deterministic work of one partition."""
    work["faces"] += len(cx.faces)
    work["lines"] += len(cx.lines)
    work["samples"] += sum(len(ln.samples) for ln in cx.lines)


def _run_cli(argv, out_dir):
    """cli.main in-process with its console output captured.

    Returns the exit code, the bytes of the reports it wrote and its
    error output.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv + ["--out", out_dir])
    report_bytes = sum(os.path.getsize(os.path.join(out_dir, f))
                       for f in os.listdir(out_dir)) \
        if os.path.isdir(out_dir) else 0
    return code, report_bytes, err.getvalue().strip()


class Lambda17Spectral:
    """Bundled lambda=17 eigenfunction: partition, then N(17) of every domain.

    The steps are the partition (``build_complex``, ``nodal_set``,
    ``nodal_neumann_angles``), its SVG figure, and one step per domain:
    ``mesh_domain`` at h = 0.03 and ``domain_spectrum_report``.  h = 0.03 is
    the coarsest mesh size at which every domain's count is unambiguous: at
    h = 0.04, faces 29 and 63 raise AmbiguousCluster, the guard that asks
    for a finer mesh.  The field is fixed; the seed is unused.
    """

    name = "lambda17-spectral"
    FACES = 68
    H = 0.03
    K = 12
    LAM = 17.0

    def setup(self, seed, work_dir):
        self.field = nd.load_bundled("lambda17")
        self.svg_path = os.path.join(work_dir, "complex.svg")
        self.steps = [("build_complex", PARTITION, self.build),
                      ("nodal_set", PARTITION, self.nodal),
                      ("nodal_angles", PARTITION, self.angles),
                      ("svg", OTHER, self.svg)]
        self.steps += [(f"face{i:02d}", DOMAIN, self.domain_step(i))
                       for i in range(self.FACES)]
        return {}

    def begin_pass(self):
        self.cx = self.nodal_lines = None
        self.positions = []
        return PassResult()

    def build(self, res):
        try:
            cx = nd.build_complex(self.field, 24)
        except NeumannDomainError as exc:
            res.op(False, f"build_complex: {exc!r}")
            return
        vef = (len(cx.critical_points), len(cx.lines), len(cx.faces))
        area = sum(f.area for f in cx.faces)
        res.op(vef == (68, 136, 68) and cx.is_morse_smale()
               and abs(area - TORUS_AREA) <= 1e-6,
               f"V/E/F = {vef}, expected 68/136/68, Morse-Smale "
               f"{cx.is_morse_smale()}, area {area:.9f}")
        if vef[2] == self.FACES:
            self.cx = cx
            _complex_work(res.work, cx)

    def nodal(self, res):
        try:
            self.nodal_lines = nd.nodal_set(self.field, 384)
        except NeumannDomainError as exc:
            res.op(False, f"nodal_set: {exc!r}")
            return
        res.op(len(self.nodal_lines) > 0, "empty nodal set")
        res.work["nodal_polylines"] += len(self.nodal_lines)

    def angles(self, res):
        if self.cx is None or self.nodal_lines is None:
            res.op(False, "nodal angles: no partition")
            return
        try:
            angles = nd.nodal_neumann_angles(self.cx, self.nodal_lines)
        except NeumannDomainError as exc:
            res.op(False, f"nodal angles: {exc!r}")
            return
        res.op(len(angles) > 0, "no nodal/Neumann crossings")
        res.work["nodal_angles"] += len(angles)

    def svg(self, res):
        if self.cx is None:
            res.op(False, "svg: no partition")
            return
        nd.render_complex_svg(self.cx, self.nodal_lines, path=self.svg_path)
        size = os.path.getsize(self.svg_path)
        res.op(size > 0, "empty SVG")
        res.work["svg_bytes"] += size

    def domain_step(self, index):
        def step(res):
            if self.cx is None:
                res.op(False, f"face {index}: no partition")
                return
            face = self.cx.faces[index]
            try:
                mesh = nd.mesh_domain(self.field, face, self.H,
                                      critical_points=self.cx.critical_points)
                rep = nd.domain_spectrum_report(self.field, mesh, self.LAM,
                                                self.K)
            except NeumannDomainError as exc:
                res.op(False, f"face {index}: {exc!r}")
                return
            res.op(True, "")
            self.positions.append(rep.position)
            res.work["mesh_vertices"] += int(mesh.num_vertices)
            res.work["solver_max_n"] = max(res.work["solver_max_n"],
                                           int(mesh.num_vertices))
        return step

    def end_pass(self, res):
        census = dict(Counter(self.positions))
        res.op(census == {1: 32, 2: 36},
               f"N(17) census {census}, expected 32 x 1 and 36 x 2")


class SeparableFine:
    """cos x + cos y: verify, cusp-free square meshes, the sparse path, a crack.

    The steps are the `verify` subcommand, the partition, the square domain
    meshed and solved at h = pi/32, pi/64 and 0.03, the crack construction,
    and a slit mesh of the cracked face.  The seed picks the crack centre,
    the sign of the bump amplitude K and the --rng-seed of verify.  Only the
    two diagonal centres are offered: at (pi/2, -pi/2) and (-pi/2, pi/2) the
    slit mesh of the cracked face raises MeshQualityFailure at every h tried
    (0.05, 0.06, 0.12).
    """

    name = "separable-fine"
    HS = (math.pi / 32, math.pi / 64, 0.03)
    CENTRES = ((math.pi / 2, math.pi / 2), (-math.pi / 2, -math.pi / 2))
    SLIT_H = 0.12

    def setup(self, seed, work_dir):
        self.field = nd.load_bundled("separable")
        self.centre = self.CENTRES[seed % 2]
        self.bump_k = 12.0 if (seed // 2) % 2 == 0 else -12.0
        self.rng_seed = seed
        # relative paths keep the reports, and so report_bytes, the same in
        # every checkout
        self.out_dir = os.path.relpath(os.path.join(work_dir, "verify"))
        self.steps = [("verify", OTHER, self.verify),
                      ("build_complex", PARTITION, self.build)]
        self.steps += [(f"square_h{h:.4f}", DOMAIN, self.square_step(h))
                       for h in self.HS]
        self.steps += [("crack", OTHER, self.crack),
                       ("slit", OTHER, self.slit)]
        return {"crack_centre": [round(c, 6) for c in self.centre],
                "bump_K": self.bump_k, "rng_seed": self.rng_seed}

    def begin_pass(self):
        self.cx = self.cracked = None
        return PassResult()

    def verify(self, res):
        code, nbytes, err = _run_cli(
            ["verify", "--field", "separable", "--rng-seed",
             str(self.rng_seed)], self.out_dir)
        path = os.path.join(self.out_dir, "verify.json")
        if not os.path.exists(path):
            res.op(False, f"verify exited {code} without a report: {err}")
            return
        with open(path) as fh:
            report = json.load(fh)
        failed = res.failed
        for c in report["results"]["separable"]:
            res.op(c["ok"], f"verify: {c['check']} ({c['detail']})")
        if code != 0 and res.failed == failed:
            res.op(False, f"verify exited {code}: {err}")
        res.work["verify_checks"] += len(report["results"]["separable"])
        res.work["report_bytes"] += nbytes

    def build(self, res):
        try:
            cx = nd.build_complex(self.field, 16)
        except NeumannDomainError as exc:
            res.op(False, f"build_complex: {exc!r}")
            return
        vef = (len(cx.critical_points), len(cx.lines), len(cx.faces))
        res.op(vef == (4, 8, 4), f"V/E/F = {vef}, expected 4/8/4")
        if vef == (4, 8, 4):
            self.cx = cx
            _complex_work(res.work, cx)

    def square_step(self, h):
        def step(res):
            if self.cx is None:
                res.op(False, f"square h={h:.4f}: no partition")
                return
            try:
                mesh = nd.mesh_domain(self.field, self.cx.faces[0], h,
                                      critical_points=self.cx.critical_points)
                rep = nd.domain_spectrum_report(self.field, mesh, 1.0, 9)
            except NeumannDomainError as exc:
                res.op(False, f"square h={h:.4f}: {exc!r}")
                return
            mu = np.array(rep.eigenvalues)
            rel = float(np.max(np.abs(mu[1:] - SQUARE_SPECTRUM[1:])
                               / SQUARE_SPECTRUM[1:]))
            res.op(rel <= 0.01 and abs(mu[0]) <= 1e-8 and rep.position == 1
                   and rep.residual <= 1e-2,
                   f"square h={h:.4f}: spectrum rel err {rel:.2%}, "
                   f"mu0 {mu[0]:.1e}, N(1) = {rep.position}, "
                   f"residual {rep.residual:.1e}")
            res.work[f"square_vertices_h{h:.4f}"] = int(mesh.num_vertices)
        return step

    def crack(self, res):
        try:
            tilde = nd.build_crack_perturbation(self.field, self.centre, 0.3,
                                                self.bump_k)
            rep = nd.verify_cracked(tilde, 24)
        except NeumannDomainError as exc:
            res.op(False, f"crack construction: {exc!r}")
            return
        want = MAX if self.bump_k > 0 else MIN
        ok = rep.new_max.kind == want and len(rep.cracked_faces) == 1
        res.op(ok, f"crack: new {rep.new_max.kind}, "
                   f"{len(rep.cracked_faces)} cracked faces")
        if ok:
            self.cracked = (tilde, rep)

    def slit(self, res):
        if self.cracked is None:
            res.op(False, "slit mesh: no cracked face")
            return
        tilde, rep = self.cracked
        try:
            slit = nd.mesh_domain(tilde, rep.cracked_faces[0], self.SLIT_H,
                                  critical_points=rep.complex.critical_points)
            mu, vecs = nd.neumann_spectrum(slit, 4)
        except NeumannDomainError as exc:
            res.op(False, f"slit mesh: {exc!r}")
            return
        v0 = vecs[:, 0]
        flat = float(np.ptp(v0) / np.max(np.abs(v0)))
        res.op(abs(mu[0]) <= 1e-8 and flat < 1e-6,
               f"slit: mu0 {mu[0]:.1e}, ground mode spread {flat:.1e}")
        res.work["slit_vertices"] = int(slit.num_vertices)

    def end_pass(self, res):
        pass


WORKLOADS = {w.name: w for w in (Lambda17Spectral, SeparableFine)}
