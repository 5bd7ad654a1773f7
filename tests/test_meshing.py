import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import neumann_domains.meshing as meshing
from neumann_domains import (cusp_length_decay, mesh_domain,
                             neumann_spectrum, structured_rect_mesh,
                             truncate_domain)
from neumann_domains.errors import (ExceptionalLevel, MeshQualityFailure,
                                    SelfIntersectingBoundary)
from neumann_domains.geometry import triangle_areas
from neumann_domains.meshing import (_cusp_indices, _interior_points,
                                     _lifted_cusp_points, _make_size_fn,
                                     _mesh_polygon, _min_angles,
                                     _resample_by_size)


def test_square_mesh_counts(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 16,
                       critical_points=sep_complex.critical_points)
    expected = 2 * 16 * 16
    assert abs(len(mesh.triangles) - expected) / expected <= 0.30
    assert all(m == "outer" for _, _, m in mesh.boundary_edges)
    assert mesh.is_disk()
    angles = _min_angles(mesh.vertices, mesh.triangles)
    assert np.rad2deg(angles.min()) >= 15.0
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0)
    # mesh area adds up to the face area
    assert np.sum(areas) == pytest.approx(np.pi ** 2, rel=1e-3)


def test_boundary_edges_match_triangulation(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 8,
                       critical_points=sep_complex.critical_points)
    counts = Counter()
    for tri in mesh.triangles:
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            counts[(min(a, b), max(a, b))] += 1
    once = {e for e, c in counts.items() if c == 1}
    marked = {(min(i, j), max(i, j)) for i, j, _ in mesh.boundary_edges}
    assert once == marked


def test_truncate_no_cusp_unchanged(separable, sep_complex):
    tr = truncate_domain(separable, sep_complex.faces[0], 0.5,
                         sep_complex.critical_points)
    assert tr.removed_area == 0.0
    assert all(m == "outer" for _, m in tr.pieces)


def test_truncate_keeps_face_census(lambda17, l17_complex):
    # meshing helpers take the census as an argument, need it, and store
    # none on the face
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    other_cps = list(cx.critical_points)
    truncate_domain(lambda17, face, 0.9, other_cps)
    cusp_length_decay(lambda17, face, (0.9,), other_cps)
    mesh_domain(lambda17, face, 0.1, t=0.9, critical_points=other_cps)
    with pytest.raises(TypeError):
        mesh_domain(lambda17, face, 0.1, t=0.9)
    assert not hasattr(face, "_cps")


def test_truncate_cusped_face(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if len(
        {c["crit_index"] for c in f.cusps if c["confirmed"]}) == 2)
    tr = truncate_domain(lambda17, face, 0.9, cx.critical_points)
    markers = [m for _, m in tr.pieces]
    assert "gamma_plus" in markers and "gamma_minus" in markers
    assert tr.removed_area > 0
    # nested sublevel sets: removed area decreases in t
    removed = [truncate_domain(lambda17, face, t, cx.critical_points)
               .removed_area for t in (0.5, 0.7, 0.9)]
    assert removed[0] > removed[1] > removed[2] > 0
    # the cut arcs meet the retained boundary perpendicularly
    n = len(tr.pieces)
    for idx, (pts, m) in enumerate(tr.pieces):
        if not m.startswith("gamma"):
            continue
        for tang, nb in ((pts[1] - pts[0],
                          tr.pieces[(idx - 1) % n][0][-1]
                          - tr.pieces[(idx - 1) % n][0][-2]),
                         (pts[-1] - pts[-2],
                          tr.pieces[(idx + 1) % n][0][1]
                          - tr.pieces[(idx + 1) % n][0][0])):
            cosang = abs(np.dot(tang, nb)
                         / np.linalg.norm(tang) / np.linalg.norm(nb))
            assert np.rad2deg(np.arccos(np.clip(cosang, 0, 1))) \
                == pytest.approx(90.0, abs=2.0)


def test_truncate_exceptional_level(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    vmax = cx.critical_points[face.max_index].value
    sad_vals = [cx.critical_points[i].value for i in face.saddle_indices]
    t_exc = max(sad_vals) / vmax
    if 0 < t_exc < 1:
        with pytest.raises(ExceptionalLevel):
            truncate_domain(lambda17, face, t_exc, cx.critical_points)


def test_truncate_level_past_a_saddle(lambda17, l17_complex):
    # between the two saddle values the level meets the pieces at the upper
    # saddle, not the two at the maximum: the region above it holds that
    # saddle and is no cusp cap (it was cut away, 0.46 of the face's 0.58),
    # so the decay has no cap length to report at this t (about 0.194)
    cps = l17_complex.critical_points
    face = l17_complex.faces[0]
    assert face.max_index in _cusp_indices(face)
    s_lo, s_hi = sorted(cps[i].value for i in face.saddle_indices)
    t = 0.5 * (max(s_lo, 0.0) + s_hi) / cps[face.max_index].value
    with pytest.raises(ExceptionalLevel, match="away from the cusp"):
        truncate_domain(lambda17, face, t, cps)
    with pytest.raises(ExceptionalLevel, match="away from the cusp"):
        cusp_length_decay(lambda17, face, (t,), cps)


def test_cusp_length_decay(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    recs = cusp_length_decay(lambda17, face, (0.9, 0.99, 0.999),
                             cx.critical_points)
    by_cusp = {}
    for t, ci, L, Ln in recs:
        by_cusp.setdefault(int(ci), []).append((t, Ln))
    assert by_cusp
    for rows in by_cusp.values():
        rows.sort()
        norms = [Ln for _, Ln in rows]
        assert norms[0] > norms[1] > norms[2]


def test_cusp_length_decay_requires_cusp(separable, sep_complex):
    with pytest.raises(ValueError):
        cusp_length_decay(separable, sep_complex.faces[0], (0.9,),
                          sep_complex.critical_points)


def test_cusped_mesh_grading(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    h = 0.05
    mesh = mesh_domain(lambda17, face, h, critical_points=cx.critical_points)
    lens = [np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
            for i, j, _ in mesh.boundary_edges]
    assert min(lens) <= h / 32.0
    assert mesh.is_disk()


def test_truncated_mesh(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    mesh = mesh_domain(lambda17, face, 0.05, t=0.99,
                       critical_points=cx.critical_points)
    markers = {m for _, _, m in mesh.boundary_edges}
    assert "gamma_plus" in markers or "gamma_minus" in markers
    assert mesh.is_disk()


def test_slit_mesh_duplicated_vertices(crack_field, crack_report):
    face = crack_report.cracked_faces[0]
    mesh = mesh_domain(crack_field, face, 0.15,
                       critical_points=crack_report.complex.critical_points)
    assert mesh.is_disk()
    coord_count = Counter(tuple(np.round(v, 12)) for v in mesh.vertices)
    dups = {c: n for c, n in coord_count.items() if n > 1}
    assert dups
    assert set(dups.values()) == {2}
    nL = sum(1 for _, _, m in mesh.boundary_edges if m == "crack_L")
    nR = sum(1 for _, _, m in mesh.boundary_edges if m == "crack_R")
    assert nL == nR > 0
    # the duplicated sites are exactly the non-tip crack samples
    crack_ids = {i for i, j, m in mesh.boundary_edges if m.startswith("crack")}
    crack_ids |= {j for i, j, m in mesh.boundary_edges
                  if m.startswith("crack")}
    assert len(dups) == nL   # tip is shared, root duplicated


def _slit_square():
    """A pi x pi square slit from (pi/2, 0) up to (pi/2, pi/2), meshed.

    The loop runs up the slit and straight back down, so every slit sample
    but the tip is visited twice.  Returns the mesh and the slit samples.
    """
    a, b = np.pi / 2, np.pi
    corners = [(0, 0), (a, 0), (a, a), (a, 0), (b, 0), (b, b), (0, b), (0, 0)]
    size = _make_size_fn(0.2, 0.5, np.empty((0, 2)))
    pieces = [(_resample_by_size(np.array([p, q], dtype=float), size),
               "outer") for p, q in zip(corners[:-1], corners[1:])]
    slit = pieces[1][0]
    pieces[1:3] = [(slit, "crack_R"), (slit[::-1], "crack_L")]
    return meshing.TriMesh(*_mesh_polygon(pieces, size), 0.2, 0.5), slit


def test_slit_polygon_meshes_both_sides():
    a = np.pi / 2
    mesh, slit = _slit_square()
    verts, tris = mesh.vertices, mesh.triangles
    assert mesh.is_disk()
    coord_count = Counter(map(tuple, verts))
    assert {c for c, n in coord_count.items() if n > 1} \
        == set(map(tuple, slit[:-1]))
    assert len(slit) == 9
    # no triangle edge runs from one side of the slit to the other below
    # its tip
    e = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1).reshape(-1, 2)
    p, q = verts[e[:, 0]], verts[e[:, 1]]
    across = (p[:, 0] - a) * (q[:, 0] - a) < 0
    y = p[across, 1] + (a - p[across, 0]) * (q[across, 1] - p[across, 1]) \
        / (q[across, 0] - p[across, 0])
    assert across.any() and np.all(y >= a)
    # glued across the slit, the mesh would give mu_1 near 1, the square's
    mu, _ = neumann_spectrum(mesh, 4)
    assert abs(mu[0]) <= 1e-12
    assert mu[1] < 0.9


@pytest.mark.parametrize("names", [("separable", "sep_complex"),
                                   ("anisotropic", "aniso_complex")],
                         ids=["separable", "anisotropic"])
def test_square_faces_mesh_alike(request, names):
    # the four faces are congruent; face 3's boundary has collinear
    # samples that qhull joins into flat hull triangles
    field, cx = map(request.getfixturevalue, names)
    meshes = [mesh_domain(field, cx.faces[k], 0.1,
                          critical_points=cx.critical_points) for k in (0, 3)]
    assert meshes[1].num_vertices == meshes[0].num_vertices
    mu0, mu3 = (neumann_spectrum(m, 6)[0] for m in meshes)
    assert np.max(np.abs(mu3 - mu0)) <= 1e-10


def test_structured_mesh_is_disk():
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)
    assert mesh.is_disk()
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0)
    assert np.sum(areas) == pytest.approx(np.pi ** 2)


def test_mesh_domain_rejects_bad_sizes(separable, sep_complex, lambda17,
                                      l17_complex, monkeypatch):
    # before any resampling: an infinite grading made the size NaN at a
    # cusp, and the resampler stepped by NaN until memory ran out
    def no_resample(*args):
        raise AssertionError("resampled with a bad size")

    monkeypatch.setattr(meshing, "_resample_by_size", no_resample)
    cusped = l17_complex.faces[5]
    assert _cusp_indices(cusped)
    for field, cx, face in ((separable, sep_complex, sep_complex.faces[0]),
                            (lambda17, l17_complex, cusped)):
        for h, grading in ((0.0, 0.5), (0.3, 0.0), (0.3, -1.0),
                           (0.3, np.nan), (0.3, np.inf), (np.inf, 0.5),
                           (-np.inf, 0.5)):
            with pytest.raises(ValueError):
                mesh_domain(field, face, h, grading,
                            critical_points=cx.critical_points)
    # the rectangle mesh once divided by nx = 0, and a negative width gave
    # h < 0 and clockwise triangles
    for args, name in (((np.pi, np.pi, 0, 8), "nx"),
                       ((np.pi, np.pi, -2, 8), "nx"),
                       ((np.pi, np.pi, 2.5, 8), "nx"),
                       ((-1.0, np.pi, 8, 8), "width")):
        with pytest.raises(ValueError, match=f"^{name} = "):
            structured_rect_mesh(*args)


def test_self_intersection_guard():
    bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]], dtype=float)
    size = _make_size_fn(0.3, 0.5, np.empty((0, 2)))
    with pytest.raises(SelfIntersectingBoundary):
        _mesh_polygon([(bow, "outer")], size)


def test_lost_boundary_segment_raises():
    # vertices just above and below the midpoint of the edge (0,0)-(1,0)
    # put a point in every circle through its ends, so no Delaunay
    # triangulation has that edge
    poly = np.array([[0, 0], [1, 0], [1, 0.04], [0.5, 0.02], [-0.2, 0.04],
                     [-0.2, -0.1], [1.1, -0.1], [0.5, -0.02], [0, -0.01],
                     [0, 0]])
    size = _make_size_fn(0.3, 0.5, np.empty((0, 2)))
    with pytest.raises(MeshQualityFailure,
                       match="^2 boundary segments lost in triangulation$"):
        _mesh_polygon([(poly, "outer")], size)


def test_off_export(tmp_path, separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 8,
                       critical_points=sep_complex.critical_points)
    off = tmp_path / "m.off"
    side = tmp_path / "m.json"
    mesh.to_off(off)
    mesh.boundary_sidecar(side)
    lines = off.read_text().splitlines()
    assert lines[0] == "OFF"
    nv, nt, _ = map(int, lines[1].split())
    assert nv == mesh.num_vertices and nt == len(mesh.triangles)
    import json
    data = json.loads(side.read_text())
    assert len(data["edges"]) == len(mesh.boundary_edges)


def test_truncation_cap_wrapping_loop_start(lambda17, l17_complex):
    # a cusp at the chain start puts the removed cap across the polygon
    # seam; the cut must still close the loop and conserve area
    cx = l17_complex
    face = next(f for f in cx.faces
                if f.vertex_seq[0] in {c["crit_index"] for c in f.cusps
                                       if c["confirmed"]})
    tr = truncate_domain(lambda17, face, 0.9, cx.critical_points)
    loop = np.vstack([p for p, _ in tr.pieces])
    assert np.linalg.norm(loop[0] - loop[-1]) < 1e-12
    assert tr.removed_area > 0
    assert tr.area() == pytest.approx(face.area - tr.removed_area, abs=1e-9)


def test_every_cusped_face_meshes_truncated(lambda17, l17_complex):
    # where a cap wraps the loop start, the loop must not close with a
    # 2-point outer piece within one flow sample of the cut: resampling keeps
    # both its points and the mesh gets a sliver there (17 of these 50 faces
    # raised MeshQualityFailure when it did)
    cx = l17_complex
    cusped = [f for f in cx.faces if any(c["confirmed"] for c in f.cusps)]
    assert len(cusped) == 50
    for face in cusped:
        tr = truncate_domain(lambda17, face, 0.99, cx.critical_points)
        assert all(len(p) > 2 for p, _ in tr.pieces)
        mesh = mesh_domain(lambda17, face, 0.05, t=0.99,
                           critical_points=cx.critical_points)
        assert mesh.is_disk()


def test_truncation_keeps_corners(lambda17, l17_complex):
    # the cut edits only the two pieces at the cusped extremum, so every
    # other chain vertex stays a piece end, which resampling keeps; when the
    # pieces were rebuilt from the flattened loop, 101 of these 134 corners
    # were resampled away at t = 0.95
    cx = l17_complex
    for face in cx.faces:
        cut = _cusp_indices(face)
        if not cut:
            continue
        for t in (0.9, 0.95):
            mesh = mesh_domain(lambda17, face, 0.05, t=t,
                               critical_points=cx.critical_points)
            on_boundary = {tuple(mesh.vertices[i])
                           for e in mesh.boundary_edges for i in e[:2]}
            for v, pts in zip(face.vertex_seq, face.pieces):
                if v not in cut:
                    assert tuple(pts[0]) in on_boundary, (face.index, t, v)


# (face, t, h) of truncated lambda17 faces whose resampled pieces once
# ended in an interval of 1.43-1.49 h: a lattice point could sit on it, and
# the sliver beside it failed the angle gate, circumcentre repair or not
TAIL_CASES = [(18, 0.9, 0.05), (52, 0.9, 0.05), (2, 0.9, 0.1),
              (43, 0.9, 0.1), (9, 0.9, 0.03), (46, 0.9, 0.03),
              (4, 0.99, 0.03), (44, 0.99, 0.03), (5, 0.8, 0.04),
              (45, 0.8, 0.04), (24, 0.99, 0.08), (58, 0.99, 0.08)]


@pytest.mark.parametrize("face_index, t, h", TAIL_CASES)
def test_truncated_piece_tails_mesh(lambda17, l17_complex, face_index, t, h):
    mesh = mesh_domain(lambda17, l17_complex.faces[face_index], h, t=t,
                       critical_points=l17_complex.critical_points)
    assert mesh.is_disk()


def test_resampled_intervals_clear_the_lattice(lambda17, l17_complex,
                                               l17_meshes):
    # the lattice clears boundary points by 0.72 * size, so an interval
    # longer than 2 * 0.72 * the size at its start leaves room for a lattice
    # point on it; only the last interval into a cusp, where the size is at
    # its floor h_min inside the angle gate's exemption, may be longer
    def check(starts, ends, size):
        s = size(starts)
        ratio = np.linalg.norm(ends - starts, axis=1) / s
        assert np.all((ratio <= 1.44) | (s == size.h_min)), ratio.max()

    cps = l17_complex.critical_points
    for face_index, t, h in TAIL_CASES:
        size = _make_size_fn(h, 0.5, [])
        for pts, _ in truncate_domain(lambda17, l17_complex.faces[face_index],
                                      t, cps).pieces:
            out = _resample_by_size(pts, size)
            check(out[:-1], out[1:], size)
    # the fixture's boundary loop is its resampled pieces end to end
    for face, mesh in zip(l17_complex.faces, l17_meshes):
        size = _make_size_fn(mesh.h, mesh.grading, _lifted_cusp_points(face))
        i, j = np.array([e[:2] for e in mesh.boundary_edges]).T
        check(mesh.vertices[i], mesh.vertices[j], size)


def _reference_resample_by_size(pts, size):
    """The resampler's step loop with two np.interp calls per step."""
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    L = cum[-1]
    xs, ys = np.ascontiguousarray(pts.T)

    def at(s):
        return (float(np.interp(s, cum, xs)), float(np.interp(s, cum, ys)))

    arcs = [0.0]
    while True:
        step = max(size(at(arcs[-1])), 1e-9)
        if L - arcs[-1] < 1.5 * step:
            break
        arcs.append(arcs[-1] + step)
    if len(arcs) > 1:
        arcs[-1] = arcs[-2] + 0.5 * (L - arcs[-2])
    out = np.column_stack([np.interp(arcs, cum, xs),
                           np.interp(arcs, cum, ys)])
    return np.vstack([out, pts[-1:]])


def test_resample_matches_step_loop(l17_complex):
    # random walks, some with a repeated point, and the pieces of every
    # fourth lambda17 face, each graded into random centres and at a
    # constant size; a piece shorter than a step and one of zero length
    rng = np.random.default_rng(8)
    cases = []
    for trial in range(200):
        pts = np.cumsum(rng.normal(size=(rng.integers(2, 30), 2))
                        * rng.uniform(0.01, 1.0), axis=0)
        if trial % 4 == 0:
            k = rng.integers(0, len(pts))
            pts = np.insert(pts, k, pts[k], axis=0)
        cases.append(pts)
    cases += [p for face in l17_complex.faces[::4] for p in face.pieces]
    cases += [np.array([[0.0, 0.0], [0.04, 0.0]]),
              np.array([[1.0, 1.0], [1.0, 1.0]])]
    for i, pts in enumerate(cases):
        centres = pts[rng.integers(0, len(pts), size=rng.integers(1, 3))]
        for size in (_make_size_fn(0.05, rng.uniform(0.1, 1.0), centres),
                     _make_size_fn(rng.uniform(0.01, 0.5), 0.5, [])):
            got = _resample_by_size(pts, size)
            assert got.tobytes() == _reference_resample_by_size(
                pts, size).tobytes(), i


def test_mirror_faces_truncate_alike(lambda17, l17_complex):
    # faces 29 and 63 are mirror images of each other, and so are their
    # truncated polygons; losing corners to resampling broke the symmetry
    # and moved mu_1..mu_5 apart by up to 0.069
    cx = l17_complex
    mus = [neumann_spectrum(mesh_domain(lambda17, cx.faces[i], 0.05, t=0.99,
                                        critical_points=cx.critical_points),
                            6)[0]
           for i in (29, 63)]
    assert np.max(np.abs(mus[0] - mus[1])) < 1e-3


def test_cusp_free_mesh_memory(separable, sep_complex):
    # without grading centres only the h and h/2 lattices can place
    # points; building the finer levels over the bounding box as well costs
    # memory that grows like area / h_min^2 (about 268 MB here)
    face = sep_complex.faces[0]
    tracemalloc.start()
    try:
        mesh = mesh_domain(separable, face, np.pi / 32,
                           critical_points=sep_complex.critical_points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mesh.num_vertices > 1000
    assert peak < 16 * 2 ** 20


# sha256 of vertices.tobytes() + triangles.tobytes(), recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1; other versions may round the
# geometry differently.  The three truncated digests were re-recorded when
# truncation began to cut only the two pieces at the cusped extremum: the
# saddle corners, resampled away before, are now mesh vertices
# (test_truncation_keeps_corners, test_mirror_faces_truncate_alike).  The
# cusp-free digest was re-recorded when every piece's last two intervals
# began to share what is left evenly: that face's mesh went from 462 to 461
# vertices (test_resampled_intervals_clear_the_lattice)
MESH_SHA256 = {
    "separable": "783414ba2cdb928bd7457592aa9736bf"
                 "6264eb3227d9e5876927cb46ffbcec32",
    "lambda17_cusp_free": "398c7d95771feb7bface4978a6f60e04"
                          "793ddbab91bab2ee52de802babe1e9f3",
    "lambda17_cusped": "5a9955a235094f79ad0f8fe16cf640ba"
                       "259d9f4eecae422168775a1d9ca0db7f",
    "lambda17_truncated": "125fe065abd7d2817e303d6f8a25991d"
                          "6ce8319417798cfd6540b8dd0cbd3055",
    "lambda17_truncated_repaired": "92dda6d079a550659a829820acc33347"
                                   "5f8836b60e12c5b778a6f1a981d0b200",
    "lambda17_truncated_repaired_f18": "3d17bf64cdb7ae5951bd11725cd2b6df"
                                       "06adc36f62d84b7d2115a814d1b3f428",
}


def test_mesh_digests_unchanged(separable, sep_complex, lambda17,
                                l17_complex):
    faces = l17_complex.faces
    cusped = next(f for f in faces if any(c["confirmed"] for c in f.cusps))
    # name: (field, complex, face, h, truncation level t)
    cases = {
        "separable": (separable, sep_complex, sep_complex.faces[0],
                      np.pi / 32, None),
        "lambda17_cusp_free": (lambda17, l17_complex, next(
            f for f in faces if not any(c["confirmed"] for c in f.cusps)),
            0.04, None),
        "lambda17_cusped": (lambda17, l17_complex, cusped, 0.04, None),
        "lambda17_truncated": (lambda17, l17_complex, cusped, 0.05, 0.99),
    }
    for name, (field, cx, face, h, t) in cases.items():
        mesh = mesh_domain(field, face, h, t=t,
                           critical_points=cx.critical_points)
        digest = hashlib.sha256(mesh.vertices.tobytes()
                                + mesh.triangles.tobytes()).hexdigest()
        assert digest == MESH_SHA256[name], name


@pytest.mark.parametrize("name, face_index", [
    ("lambda17_truncated_repaired", 12),
    # a circumcentre here moves in the last bit when np.dot(b, b) in
    # _circumcenter is written as b[0] * b[0] + b[1] * b[1]
    ("lambda17_truncated_repaired_f18", 18)])
def test_repaired_mesh_digest_unchanged(lambda17, l17_complex, monkeypatch,
                                        name, face_index):
    # these truncated faces mesh only after the quality repair inserts
    # points, so their digests pin the repair path's bits
    gate_calls = []
    bad_triangles = meshing._bad_triangles

    def counted(*args):
        gate_calls.append(1)
        return bad_triangles(*args)

    monkeypatch.setattr(meshing, "_bad_triangles", counted)
    mesh = mesh_domain(lambda17, l17_complex.faces[face_index], 0.1, t=0.99,
                       critical_points=l17_complex.critical_points)
    assert len(gate_calls) > 1
    digest = hashlib.sha256(mesh.vertices.tobytes()
                            + mesh.triangles.tobytes()).hexdigest()
    assert digest == MESH_SHA256[name]


def test_size_scalar_path_matches_array_path(l17_complex):
    rng = np.random.default_rng(11)
    cusped = next(f for f in l17_complex.faces
                  if any(c["confirmed"] for c in f.cusps))
    centers = np.array(_lifted_cusp_points(cusped))
    pts = np.vstack([rng.uniform(-1.0, 7.0, size=(500, 2)), centers,
                     centers + rng.normal(scale=1e-3, size=centers.shape)])
    for size in (_make_size_fn(0.04, 0.5, centers),
                 _make_size_fn(0.3, 0.5, centers[:1]),
                 _make_size_fn(0.3, 0.5, np.empty((0, 2)))):
        array = size(pts)
        scalar = np.array([size((x, y)) for x, y in pts])
        assert array.tobytes() == scalar.tobytes()
        assert all(isinstance(size((x, y)), float) for x, y in pts[:3])
    size = _make_size_fn(0.04, 0.5, centers)
    for c in centers:
        assert size((c[0], c[1])) == size.h_min == size(c[None, :])[0]


def _reference_thin(cand, r):
    """The lexicographic greedy over every candidate, one by one."""
    near = meshing.cKDTree(cand).query_ball_point(cand, r)
    taken = np.zeros(len(cand), dtype=bool)
    blocked = np.zeros(len(cand), dtype=bool)
    for idx in np.lexsort((cand[:, 1], cand[:, 0])):
        if not blocked[idx]:
            taken[idx] = True
            blocked[near[idx]] = True
    return taken


def _face_polygon(pieces, size):
    """Boundary and closed polygon of a face's pieces as mesh_domain
    samples them."""
    boundary = np.vstack([_resample_by_size(p, size)[:-1] for p in pieces])
    return np.vstack([boundary, boundary[:1]]), boundary


def _constant_size(value, h):
    def size(p):
        return np.full(len(p), value)
    size.h, size.h_min, size.grading = h, h / 64, 0.5
    size.centers = np.empty((0, 2))
    return size


def test_interior_points_match_reference_greedy(sep_complex, l17_complex,
                                                monkeypatch):
    cusped = next(f for f in l17_complex.faces
                  if any(c["confirmed"] for c in f.cusps))
    cases = []
    for face, size in ((cusped, _make_size_fn(0.04, 0.5,
                                              _lifted_cusp_points(cusped))),
                       (sep_complex.faces[0],
                        _make_size_fn(np.pi / 32, 0.5, np.empty((0, 2))))):
        cases.append((*_face_polygon(face.pieces, size), size))
    # lattice spacing 1/4 and clearance 0.72 * size = 1/4 exactly: every
    # x-neighbour sits on the edge of the other's clearance ball
    side = np.linspace(0.0, 4.0, 65)[:-1]
    zeros = np.zeros_like(side)
    square = np.vstack([np.column_stack([side, zeros]),
                        np.column_stack([4.0 + zeros, side]),
                        np.column_stack([4.0 - side, 4.0 + zeros]),
                        np.column_stack([zeros, 4.0 - side])])
    size = _constant_size(np.nextafter(0.25 / 0.72, 1.0), 0.25)
    assert 0.72 * size(square)[0] == 0.25
    cases.append((np.vstack([square, square[:1]]), square, size))

    fast = [_interior_points(*case) for case in cases]
    monkeypatch.setattr(meshing, "_thin", _reference_thin)
    for case, got in zip(cases, fast):
        want = _interior_points(*case)
        assert len(want) > 20
        assert got.tobytes() == want.tobytes()


def _reference_lost_segments(simplices, nb):
    """The conformity count from the keys of every triangle edge."""
    n = max(int(simplices.max()) + 1, nb)
    return int(np.count_nonzero(~np.isin(
        meshing._edge_keys(np.arange(nb)[None, :], n),
        meshing._edge_keys(simplices, n))))


def test_lost_segments_match_edge_keys(l17_meshes):
    rng = np.random.default_rng(5)
    meshes = l17_meshes + [_slit_square()[0]]
    lost_total = 0
    for mesh in meshes:
        nb = len(mesh.boundary_edges)
        tris = mesh.triangles
        assert meshing._lost_segments(tris, nb) == 0
        assert _reference_lost_segments(tris, nb) == 0
        # triangles dropped at random lose the boundary segments only they
        # covered
        kept = tris[rng.random(len(tris)) >= 0.1]
        lost = meshing._lost_segments(kept, nb)
        assert lost == _reference_lost_segments(kept, nb)
        lost_total += lost
    assert lost_total > 100


def _reference_min_angles(verts, tris):
    """Each corner's cosine from its own two difference vectors."""
    cosang = np.empty((len(tris), 3))
    for k in range(3):
        a = verts[tris[:, k]]
        u1 = verts[tris[:, (k + 1) % 3]] - a
        u2 = verts[tris[:, (k + 2) % 3]] - a
        cosang[:, k] = np.sum(u1 * u2, axis=1) / (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1) + 1e-300)
    return np.arccos(np.clip(np.max(cosang, axis=1), -1.0, 1.0))


def test_min_angles_match_reference(l17_meshes):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(200, 2))
    # random, flat, right-angled (zero cosines) and collapsed triangles
    random_tris = rng.integers(0, 200, size=(2000, 3))
    grid = structured_rect_mesh(np.pi, np.pi, 8, 8)
    cases = [(m.vertices, m.triangles) for m in l17_meshes]
    cases += [(pts, random_tris), (grid.vertices, grid.triangles),
              (np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
               np.array([[0, 1, 2], [0, 0, 1], [1, 1, 1]]))]
    for verts, tris in cases:
        got = meshing._min_angles(verts, tris)
        assert got.tobytes() == _reference_min_angles(verts, tris).tobytes()


def _reference_interior_points(polygon, boundary_pts, size):
    """The lattice filters run level by level, every test on every level."""
    h, h_min, centers = size.h, size.h_min, size.centers
    lo = polygon.min(axis=0)
    hi = polygon.max(axis=0)
    size_floor = h_min if len(centers) else h
    accepted = []
    btree = meshing.cKDTree(boundary_pts)
    level_trees = []
    level_h = h
    while True:
        if level_h >= h * 0.999 or len(centers) == 0:
            boxes = [(lo, hi)]
        else:
            rad = 2.5 * level_h / max(size.grading, 1e-6)
            boxes = [(np.maximum(c - rad, lo), np.minimum(c + rad, hi))
                     for c in centers]
        cand_all = []
        for blo, bhi in boxes:
            gx = np.arange(blo[0] + 0.5 * level_h, bhi[0], level_h)
            gy = np.arange(blo[1] + 0.5 * level_h, bhi[1],
                           level_h * np.sqrt(3) / 2)
            if len(gx) and len(gy):
                X, Y = np.meshgrid(gx, gy, indexing="ij")
                X[:, 1::2] += 0.5 * level_h
                cand_all.append(np.stack([X.ravel(), Y.ravel()], axis=-1))
        if cand_all:
            cand = np.vstack(cand_all)
            sizes = np.atleast_1d(size(cand))
            band = (sizes >= 0.99 * level_h) if level_h > h_min * 1.5 \
                else (sizes >= h_min * 0.99)
            band &= sizes < 2.2 * level_h
            cand, sizes = cand[band], sizes[band]
            if len(cand):
                inside = meshing._point_in_polygon(cand, polygon)
                cand, sizes = cand[inside], sizes[inside]
            for tree in [btree] + level_trees:
                if not len(cand):
                    break
                reach = 0.72 * sizes
                d, _ = tree.query(cand,
                                  distance_upper_bound=reach.max() * (1 + 1e-9))
                ok = d >= reach
                cand, sizes = cand[ok], sizes[ok]
            if len(cand):
                accepted.append(cand[meshing._thin(cand, 0.72 * sizes)])
                level_trees.append(meshing.cKDTree(accepted[-1]))
        if level_h <= h_min * 1.01:
            break
        level_h = max(level_h / 2.0, h_min)
        if size_floor >= 2.2 * level_h:
            break
    return np.vstack(accepted) if accepted else np.empty((0, 2))


def _long_interval_polygon(h):
    """A five-armed star sampled at about 1.44 h, the longest interval the
    resampler leaves, so the h/2 band's half-interval term is needed."""
    t = np.linspace(0.0, 2 * np.pi, 4000)
    curve = (2.0 + 0.6 * np.cos(5 * t))[:, None] * np.column_stack(
        [np.cos(t), np.sin(t)])
    boundary = _resample_by_size(curve, _make_size_fn(1.44 * h, 0.5, []))
    boundary = boundary[:-1]
    return np.vstack([boundary, boundary[:1]]), boundary


def test_interior_points_match_level_by_level(sep_complex, aniso_complex,
                                              lambda17, l17_complex):
    # every lambda17 and anisotropic face, graded into its cusps or
    # cusp-free, truncated lambda17 faces, the cusp-free square and a star
    # with long boundary intervals; without grading centres only the h/2
    # points near the boundary are generated
    no_centres = np.empty((0, 2))
    cases = [(face.pieces, _make_size_fn(h, 0.5, _lifted_cusp_points(face)))
             for cx, h in ((l17_complex, 0.03), (aniso_complex, 0.1))
             for face in cx.faces]
    cusped = [f for f in l17_complex.faces if _cusp_indices(f)]
    truncated = 0
    for t in (0.5, 0.9):
        for h in (0.03, 0.05):
            for face in cusped[::7]:
                try:
                    cut = truncate_domain(lambda17, face, t,
                                          l17_complex.critical_points)
                except ExceptionalLevel:
                    continue
                cases.append(([p for p, _ in cut.pieces],
                              _make_size_fn(h, 0.5, no_centres)))
                truncated += 1
    cases += [(sep_complex.faces[0].pieces, _make_size_fn(h, 0.5, no_centres))
              for h in (np.pi / 32, 0.03)]
    polygons = [(*_face_polygon(pieces, size), size) for pieces, size in cases]
    star = _long_interval_polygon(0.1)
    polygons.append((*star, _make_size_fn(0.1, 0.5, no_centres)))
    assert np.max(np.linalg.norm(np.diff(star[0], axis=0), axis=1)) > 1.4 * 0.1
    graded = 0
    for i, (polygon, boundary, size) in enumerate(polygons):
        got = _interior_points(polygon, boundary, size)
        want = _reference_interior_points(polygon, boundary, size)
        assert len(want) > 20
        assert got.tobytes() == want.tobytes(), i
        graded += len(size.centers) > 0
    assert graded == 50 and truncated == 32


def test_h2_points_beyond_the_band_are_covered():
    # the band's argument on the star: an h/2 point inside the polygon and
    # farther than w from every boundary sample lies within 0.72 h of an h
    # point inside the polygon and 0.72 h clear of the boundary
    h = 0.1
    polygon, boundary = _long_interval_polygon(h)
    lo, hi = polygon.min(axis=0), polygon.max(axis=0)
    tree = meshing.cKDTree(boundary)
    coarse = meshing._lattice(lo, hi, h)
    coarse = coarse[meshing._point_in_polygon(coarse, polygon)]
    coarse = coarse[tree.query(coarse)[0] >= 0.72 * h]
    fine = meshing._lattice(lo, hi, h / 2)
    fine = fine[meshing._point_in_polygon(fine, polygon)]
    half = 0.5 * np.max(np.linalg.norm(np.diff(polygon, axis=0), axis=1))
    w = (0.72 + 1 / np.sqrt(3)) * h + half
    d = tree.query(fine)[0]
    assert np.count_nonzero((d > w - half) & (d <= w)) > 100
    beyond = fine[d > w]
    assert len(beyond) > 1000
    assert np.all(meshing.cKDTree(coarse).query(beyond)[0] < 0.72 * h)


def test_cusp_free_h2_lattice_only_near_the_boundary(sep_complex,
                                                     monkeypatch):
    # on the 0.03 square the h/2 bounding-box lattice has 50,578 points
    # and about 2 % of them are kept
    size = _make_size_fn(0.03, 0.5, np.empty((0, 2)))
    polygon, boundary = _face_polygon(sep_complex.faces[0].pieces, size)
    lo, hi = polygon.min(axis=0), polygon.max(axis=0)
    seen = []
    point_in_polygon = meshing._point_in_polygon

    def counted(points, poly):
        seen.append(len(points))
        return point_in_polygon(points, poly)

    monkeypatch.setattr(meshing, "_point_in_polygon", counted)
    _interior_points(polygon, boundary, size)
    box_h = len(meshing._lattice(lo, hi, 0.03))
    box_h2 = len(meshing._lattice(lo, hi, 0.015))
    assert box_h2 > 50000
    assert seen[0] - box_h < 0.1 * box_h2


def test_lattice_band_keeps_order_and_bits():
    rng = np.random.default_rng(2)
    lo, hi = np.array([-1.0, 0.5]), np.array([2.0, 3.0])
    step = 0.07
    full = meshing._lattice(lo, hi, step)
    near = np.vstack([rng.uniform(lo - 0.3, hi + 0.3, size=(40, 2)),
                      [lo, hi]])
    reach = 0.23
    band = meshing._lattice(lo, hi, step, near, reach)
    d = np.min(np.linalg.norm(full[:, None, :] - near, axis=-1), axis=1)
    # the band is a subsequence of the full lattice, bit for bit
    rows = {p.tobytes(): k for k, p in enumerate(full)}
    where = np.array([rows[p.tobytes()] for p in band])
    assert np.all(np.diff(where) > 0)
    assert np.all(np.isin(np.flatnonzero(d <= reach), where))
    assert 0 < len(band) < len(full)


def test_truncation_that_cuts_nothing_raises(separable, sep_complex,
                                             crack_field, crack_report):
    # a cusp-free face and a cracked face have no cap to cut: mesh_domain
    # once meshed them whole and still recorded t in the mesh
    with pytest.raises(ValueError, match="^face 0 has no confirmed cusp"):
        mesh_domain(separable, sep_complex.faces[0], 0.2, t=0.9,
                    critical_points=sep_complex.critical_points)
    face = crack_report.cracked_faces[0]
    with pytest.raises(ValueError, match=f"^face {face.index} is cracked"):
        mesh_domain(crack_field, face, 0.15, t=0.9,
                    critical_points=crack_report.complex.critical_points)
