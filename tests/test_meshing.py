import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from neumann_domains import (cusp_length_decay, mesh_domain,
                             structured_rect_mesh, truncate_domain)
from neumann_domains.errors import (ExceptionalLevel, MeshQualityFailure,
                                    SelfIntersectingBoundary)
from neumann_domains.meshing import _make_size_fn, _mesh_polygon


def test_square_mesh_counts(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 16,
                       critical_points=sep_complex.critical_points)
    expected = 2 * 16 * 16
    assert abs(len(mesh.triangles) - expected) / expected <= 0.30
    assert all(m == "outer" for _, _, m in mesh.boundary_edges)
    assert mesh.is_disk()
    assert np.rad2deg(mesh.min_angles().min()) >= 15.0
    assert np.all(mesh.triangle_areas() > 0)
    # mesh area adds up to the face area
    assert np.sum(mesh.triangle_areas()) == pytest.approx(np.pi ** 2,
                                                          rel=1e-3)


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
    # meshing helpers take the census as an argument and must not rebind
    # the one the complex stored on the face
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    other_cps = list(cx.critical_points)
    truncate_domain(lambda17, face, 0.9, other_cps)
    cusp_length_decay(lambda17, face, (0.9,), other_cps)
    mesh_domain(lambda17, face, 0.1, t=0.9, critical_points=other_cps)
    assert face._cps is cx.critical_points


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


def test_structured_mesh_is_disk():
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)
    assert mesh.is_disk()
    assert np.all(mesh.triangle_areas() > 0)
    assert np.sum(mesh.triangle_areas()) == pytest.approx(np.pi ** 2)


def test_self_intersection_guard():
    bow = np.array([[0, 0], [1, 1], [1, 0], [0, 1], [0, 0]], dtype=float)
    size = _make_size_fn(0.3, 0.05, 0.5, np.empty((0, 2)))
    with pytest.raises(SelfIntersectingBoundary):
        _mesh_polygon([(bow, "outer")], size, 0.3, 0.05)


def test_lost_boundary_segment_raises():
    # vertices just above and below the midpoint of the edge (0,0)-(1,0)
    # put a point in every circle through its ends, so no Delaunay
    # triangulation has that edge
    poly = np.array([[0, 0], [1, 0], [1, 0.04], [0.5, 0.02], [-0.2, 0.04],
                     [-0.2, -0.1], [1.1, -0.1], [0.5, -0.02], [0, -0.01],
                     [0, 0]])
    size = _make_size_fn(0.3, 0.3 / 64, 0.5, np.empty((0, 2)))
    with pytest.raises(MeshQualityFailure,
                       match="^3 boundary segments lost in triangulation$"):
        _mesh_polygon([(poly, "outer")], size, 0.3, 0.3 / 64, resample=False)


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
    # seam; the excision must still close the loop and conserve area
    cx = l17_complex
    face = next(f for f in cx.faces
                if f.vertex_seq[0] in {c["crit_index"] for c in f.cusps
                                       if c["confirmed"]})
    tr = truncate_domain(lambda17, face, 0.9, cx.critical_points)
    loop = np.vstack([p for p, _ in tr.pieces])
    assert np.linalg.norm(loop[0] - loop[-1]) < 1e-12
    assert tr.removed_area > 0
    assert tr.area() == pytest.approx(face.area - tr.removed_area, abs=1e-9)


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
# geometry differently
MESH_SHA256 = {
    "separable": "783414ba2cdb928bd7457592aa9736bf"
                 "6264eb3227d9e5876927cb46ffbcec32",
    "lambda17_cusp_free": "11c0259cc782c1d75e483f45f9841494"
                          "18a2c0d65943a8d8a8c7aa555789deb8",
    "lambda17_cusped": "5a9955a235094f79ad0f8fe16cf640ba"
                       "259d9f4eecae422168775a1d9ca0db7f",
    "lambda17_truncated": "c32e399e215d899d81c5a1af086d8c40"
                          "128403b27b87e87a8989b90ec7023f3a",
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
