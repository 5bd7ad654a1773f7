"""Acceptance suite: one test per criterion, each printing a PASS line with
its measurements and asserting the stated tolerances and runtime budgets."""

import time

import numpy as np
from neumann_domains import (build_complex, build_crack_perturbation,
                             cusp_length_decay, load_bundled, mesh_domain,
                             neumann_spectrum, nodal_neumann_angles,
                             nodal_set, restriction_residual,
                             spectral_position, verify_cracked)
from neumann_domains.critical import MAX, MIN, SADDLE
from neumann_domains.validate import run_invariants

SQUARE_SPECTRUM = np.array([0, 1, 1, 2, 4, 4, 5, 5, 8], dtype=float)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok


def test_criterion_1_separable_pipeline():
    t0 = time.perf_counter()
    field = load_bundled("separable")
    cx = build_complex(field, 16)
    pts = cx.critical_points
    locs = {(0.0, 0.0): MAX, (np.pi, np.pi): MIN,
            (0.0, np.pi): SADDLE, (np.pi, 0.0): SADDLE}
    assert len(pts) == 4
    for p in pts:
        key = min(locs, key=lambda q: np.hypot(*(p.position - q)))
        assert np.hypot(*(p.position - key)) <= 1e-8
        assert p.kind == locs[key]
    assert (len(cx.critical_points), len(cx.lines), len(cx.faces)) == (4, 8, 4)
    assert all(f.classification == "regular" for f in cx.faces)
    assert all(abs(f.area - np.pi ** 2) < 1e-4 for f in cx.faces)

    face = cx.faces[0]
    mesh = mesh_domain(field, face, np.pi / 64, critical_points=pts)
    mu, _ = neumann_spectrum(mesh, 9)
    rel = np.max(np.abs(mu[1:] - SQUARE_SPECTRUM[1:]) / SQUARE_SPECTRUM[1:])
    assert abs(mu[0]) <= 1e-8
    assert rel <= 0.01

    rs = [restriction_residual(field, mesh_domain(field, face, h,
                                                  critical_points=pts), 1.0)
          for h in (np.pi / 32, np.pi / 64)]
    assert rs[0] > rs[1]
    assert rs[1] <= 1e-2

    pos, _ = spectral_position(mu, 1.0)
    assert pos == 1
    dt = time.perf_counter() - t0
    report(1, dt <= 30.0,
           f"4 points exact, V/E/F=4/8/4 regular, spectrum rel err "
           f"{rel:.2%}, residual {rs[1]:.2e} decreasing, N(1)=1 "
           f"({dt:.1f}s <= 30s)")


def test_criterion_2_angle_laws():
    t0 = time.perf_counter()
    field = load_bundled("lambda17")
    cx = build_complex(field, 24)
    worst_saddle = 0.0
    worst_extremum = 0.0
    for c in cx.critical_points:
        a = np.rad2deg(cx.angles_at(c.index))
        if c.kind == SADDLE:
            worst_saddle = max(worst_saddle, np.max(np.abs(a - 90.0)))
        elif not c.is_hess_proportional:
            dev = np.min(np.abs(a[:, None] - np.array([0.0, 90.0, 180.0])),
                         axis=1)
            worst_extremum = max(worst_extremum, float(np.max(dev)))
    assert worst_saddle <= 2.0
    assert worst_extremum <= 2.0

    hits = nodal_neumann_angles(cx, nodal_set(field, 512))
    assert len(hits) > 0
    crit_xy = np.array([c.position for c in cx.critical_points])
    worst_nodal = 0.0
    for pt, ang in hits:
        d = np.linalg.norm(crit_xy - pt, axis=1)
        j = int(np.argmin(d))
        target = 45.0 if (d[j] < 1e-2
                          and cx.critical_points[j].kind == SADDLE) else 90.0
        worst_nodal = max(worst_nodal, abs(np.rad2deg(ang) - target))
    assert worst_nodal <= 2.0
    dt = time.perf_counter() - t0
    report(2, dt <= 60.0,
           f"saddle dev {worst_saddle:.3f} deg, extremum dev "
           f"{worst_extremum:.3f} deg, {len(hits)} nodal crossings dev "
           f"{worst_nodal:.3f} deg ({dt:.1f}s <= 60s)")


def test_criterion_3_restriction_at_lambda17():
    t0 = time.perf_counter()
    field = load_bundled("lambda17")
    cx = build_complex(field, 24)
    face = next(f for f in cx.faces if f.classification == "regular"
                and not f.cusps)
    resids = []
    dist = None
    for h in (0.12, 0.06, 0.03):
        mesh = mesh_domain(field, face, h,
                           critical_points=cx.critical_points)
        resids.append(restriction_residual(field, mesh, 17.0))
        mu, _ = neumann_spectrum(mesh, 10)
        dist = float(np.min(np.abs(np.asarray(mu) - 17.0)) / 17.0)
    assert resids[0] > resids[1] > resids[2]
    assert dist <= 0.02
    dt = time.perf_counter() - t0
    report(3, dt <= 180.0,
           f"dist(17, sigma)/17 = {dist:.2%}, residuals "
           f"{[f'{r:.1e}' for r in resids]} monotone ({dt:.1f}s <= 180s)")


def test_criterion_4_cusp_geometry():
    t0 = time.perf_counter()
    field = load_bundled("lambda17")
    cx = build_complex(field, 24)
    cusps = [c for f in cx.faces for c in f.cusps if c["confirmed"]]
    assert cusps
    worst = max(abs(c["alpha_fit"] - c["alpha_hessian"]) / c["alpha_hessian"]
                for c in cusps)
    assert worst <= 0.05

    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    recs = cusp_length_decay(field, face, (0.9, 0.99, 0.999),
                             cx.critical_points)
    by_cusp = {}
    for t, ci, L, Ln in recs:
        by_cusp.setdefault(int(ci), []).append((t, Ln))
    for rows in by_cusp.values():
        rows.sort()
        assert rows[0][1] > rows[1][1] > rows[2][1]
    dt = time.perf_counter() - t0
    report(4, True,
           f"{len(cusps)} cusps, exponent fit within {worst:.2%} of the "
           f"Hessian ratio, L/sqrt(1-t) strictly decreasing ({dt:.1f}s)")


def test_criterion_5_crack_construction():
    t0 = time.perf_counter()
    base = load_bundled("separable")
    tilde = build_crack_perturbation(base, (np.pi / 2, np.pi / 2), 0.3, 12.0)
    rep = verify_cracked(tilde, 24)
    assert rep.new_max.kind == MAX
    assert rep.new_saddle.kind == SADDLE
    assert rep.complex.is_morse_smale()
    assert rep.complex.degree(rep.new_max.index) == 1
    assert len(rep.cracked_faces) == 1
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 2 * np.pi, size=(4000, 2))
    loc = tilde.perturbations[0].local_coords(pts)
    outside = np.max(np.abs(loc), axis=1) >= 1.0
    assert np.array_equal(tilde.value(pts[outside]), base.value(pts[outside]))
    dt = time.perf_counter() - t0
    report(5, dt <= 60.0,
           f"2 new points (max+saddle), Morse-Smale, deg(new max)=1, one "
           f"cracked domain, field identical outside the patch "
           f"({dt:.1f}s <= 60s)")


def test_criterion_6_fem_self_validation(crack_field, crack_report):
    t0 = time.perf_counter()
    field = load_bundled("separable")
    cx = build_complex(field, 16)
    face = cx.faces[0]
    mus = []
    mu0s = []
    for h in (np.pi / 16, np.pi / 32, np.pi / 64):
        mesh = mesh_domain(field, face, h,
                           critical_points=cx.critical_points)
        mu, vecs = neumann_spectrum(mesh, 3)
        mus.append(mu[1])
        mu0s.append(abs(mu[0]))
        v0 = vecs[:, 0]
        assert np.ptp(v0) / np.max(np.abs(v0)) < 1e-6
    order = float(np.log2((mus[0] - mus[1]) / (mus[1] - mus[2])))
    assert 1.7 <= order <= 2.3
    # slit mesh: mu0 ~ 0 with constant eigenvector
    slit = mesh_domain(crack_field, crack_report.cracked_faces[0], 0.12,
                       critical_points=crack_report.complex.critical_points)
    mu, vecs = neumann_spectrum(slit, 4)
    mu0s.append(abs(mu[0]))
    v0 = vecs[:, 0]
    assert np.ptp(v0) / np.max(np.abs(v0)) < 1e-6
    assert max(mu0s) <= 1e-8
    dt = time.perf_counter() - t0
    report(6, True,
           f"Richardson order {order:.2f} in [1.7, 2.3], max |mu0| = "
           f"{max(mu0s):.1e} with constant ground mode incl. slit mesh "
           f"({dt:.1f}s)")


def test_criterion_7_invariant_suite():
    t0 = time.perf_counter()
    all_ok = True
    lines = []
    for name in ("separable", "anisotropic", "lambda17"):
        field = load_bundled(name)
        for check, ok, detail in run_invariants(field, 24):
            all_ok &= ok
            if not ok:
                lines.append(f"{name}:{check} ({detail})")
    dt = time.perf_counter() - t0
    report(7, all_ok and dt <= 600.0,
           "invariants green on 3 bundled fields"
           + (f"; failures: {lines}" if lines else "")
           + f" ({dt:.1f}s <= 600s)")
