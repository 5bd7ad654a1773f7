import gc
import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import neumann_domains.complexes as complexes
from conftest import draw_eigenfunction
from neumann_domains import (MorseField, build_complex, cusp_exponent,
                             nodal_neumann_angles, nodal_set)
from neumann_domains.complexes import CRACKED, DOUBLY_CRACKED, REGULAR
from neumann_domains.critical import MAX, MIN, SADDLE, CriticalPoint
from neumann_domains.errors import (DegreeTooSmall, EulerMismatch,
                                    ProportionalHessian, UnknownCriticalPoint)


def test_separable_complex_counts(sep_complex):
    cx = sep_complex
    V, E, F = len(cx.critical_points), len(cx.lines), len(cx.faces)
    assert (V, E, F) == (4, 8, 4)
    for face in cx.faces:
        assert face.classification == REGULAR
        assert face.area == pytest.approx(np.pi ** 2, rel=1e-6)
        assert len(face.saddle_indices) == 2
        assert cx.critical_points[face.max_index].kind == MAX
        assert cx.critical_points[face.min_index].kind == MIN
        assert not face.cusps


def test_extrema_read_from_boundary_chain():
    from neumann_domains.complexes import NeumannDomain, _attach_extrema
    cps = [SimpleNamespace(kind=k) for k in (MAX, SADDLE, MIN, SADDLE, MAX)]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # the unit square's four sides as lines 0-3, walked forward
    lines = [SimpleNamespace(samples=corners[[k, (k + 1) % 4]])
             for k in range(4)]
    offsets = np.zeros((4, 2))

    face = NeumannDomain(0, [0, 2, 4, 6], lines, offsets, [0, 1, 2, 3])
    _attach_extrema(face, cps)
    assert (face.max_index, face.min_index) == (0, 2)
    # a node visited twice still counts once
    face = NeumannDomain(0, [0, 2, 4, 6], lines, offsets, [0, 1, 2, 1])
    _attach_extrema(face, cps)
    assert (face.max_index, face.min_index) == (0, 2)

    for seq in ([0, 1, 4, 2],      # two distinct maxima
                [0, 1, 4, 3],      # two maxima and no minimum
                [0, 1, 0, 3]):     # no minimum
        face = NeumannDomain(0, [0, 2, 4, 6], lines, offsets, seq)
        with pytest.raises(EulerMismatch):
            _attach_extrema(face, cps)


def test_clockwise_face_walk_raises(separable, monkeypatch):
    # the face walk keeps each face on its left, so counterclockwise
    # rotations give counterclockwise faces and reversed ones walk every
    # face clockwise
    rotation = complexes._rotation
    monkeypatch.setattr(complexes, "_rotation",
                        lambda *args: rotation(*args)[::-1])
    with pytest.raises(EulerMismatch, match="walks clockwise"):
        build_complex(separable, 16)


# sha256 of NeumannComplex.to_json() for the session complexes, recorded
# with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; other versions may round
# the traced geometry differently.  The generic and crack complexes cover
# the extrapolated and the fast-axis end tangents.
REPORT_SHA256 = {
    "separable": "7e6811fa60ff6bcf1828a54d09d32e1b"
                 "39f70d55088dece69b3e68a258bcd012",
    "anisotropic": "f19473fa393cf1cd24e1a65b3cfff4cf"
                   "38b6573daa2a989534b051912775f960",
    "lambda17": "a0aaab1dac6b3472de29721c812ecdbc"
                "b5325706be20dbfff6be374314a8a9f0",
    "generic": "2d5f9191ada744d18f58f8c891ef3023"
               "eb8261a965f6ca5112e86c9f61019e85",
    "crack": "aea285292a8c94d4f6c9f3bb28c22e0e"
             "c4b9e6288f6ac9cfab3cfef693ef3056",
}


def test_report_digests_unchanged(sep_complex, aniso_complex, l17_complex,
                                  generic_complex, crack_report):
    for name, cx in (("separable", sep_complex),
                     ("anisotropic", aniso_complex),
                     ("lambda17", l17_complex),
                     ("generic", generic_complex),
                     ("crack", crack_report.complex)):
        digest = hashlib.sha256(cx.to_json().encode()).hexdigest()
        assert digest == REPORT_SHA256[name], name


# sha256 over every face's polygon and area in the three bundled complexes
# and the crack complex, recorded with the same versions while each face
# still stored its polygon
FACE_SHA256 = ("4869c054e77128506bc5e546d9c649ab"
               "6e5ed8017127ffb3de0aaa8b7175f65d")


def test_face_polygons_pinned(sep_complex, aniso_complex, l17_complex,
                              crack_report):
    from neumann_domains.geometry import polygon_area
    digest = hashlib.sha256()
    for cx in (sep_complex, aniso_complex, l17_complex, crack_report.complex):
        for face in cx.faces:
            ref = np.vstack([face.pieces[0]]
                            + [p[1:] for p in face.pieces[1:]])
            assert face.polygon.tobytes() == ref.tobytes()
            assert face.area == polygon_area(ref)
            digest.update(face.polygon.tobytes())
            digest.update(np.float64(face.area).tobytes())
    assert digest.hexdigest() == FACE_SHA256


def test_complex_memory_follows_lines(lambda17):
    # the complex keeps its traced lines once: each face refers to them by
    # its chain and one period offset per dart, where a lifted copy of the
    # lines in every face's pieces made it 3.16
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = build_complex(lambda17, 24)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 1.5 * sum(ln.samples.nbytes for ln in cx.lines)


def test_anisotropic_same_combinatorics(aniso_complex):
    cx = aniso_complex
    assert (len(cx.critical_points), len(cx.lines), len(cx.faces)) == (4, 8, 4)


def test_lambda17_complex(l17_complex):
    cx = l17_complex
    V, E, F = len(cx.critical_points), len(cx.lines), len(cx.faces)
    assert V - E + F == 0
    assert (V, E, F) == (68, 136, 68)
    assert cx.is_morse_smale()
    for face in cx.faces:
        assert face.classification == REGULAR
        assert cx.critical_points[face.max_index].kind == MAX
        assert cx.critical_points[face.min_index].kind == MIN
        assert len(face.saddle_indices) in (1, 2)


def test_degrees(sep_complex, l17_complex, crack_report):
    for c in sep_complex.critical_points:
        assert sep_complex.degree(c) == 4
    for c in l17_complex.critical_points:
        if c.kind == SADDLE:
            assert l17_complex.degree(c) == 4
    # the perturbed field's new extremum has degree one
    assert crack_report.complex.degree(crack_report.new_max.index) == 1
    with pytest.raises(UnknownCriticalPoint):
        sep_complex.degree(99)


def test_is_morse_smale_flag(sep_complex, l17_complex):
    assert sep_complex.is_morse_smale()
    assert l17_complex.is_morse_smale()
    # a synthetic saddle-to-saddle line flips the flag
    import copy
    cx = copy.copy(sep_complex)
    cx.lines = list(cx.lines)
    bad = copy.copy(cx.lines[0])
    bad.end_index = next(c.index for c in cx.critical_points
                         if c.kind == SADDLE and c.index != bad.start_index)
    cx.lines[0] = bad
    assert not cx.is_morse_smale()


def test_classification_rules(sep_complex, generic_complex, crack_report):
    for face in sep_complex.faces + generic_complex.faces:
        assert face.classification == REGULAR
    assert crack_report.cracked_faces[0].classification == CRACKED
    crack_line = crack_report.cracked_faces[0].crack_line_ids
    assert len(crack_line) == 1
    chain_lines = [d // 2 for d in crack_report.cracked_faces[0].chain]
    assert chain_lines.count(crack_line[0]) == 2
    assert DOUBLY_CRACKED == "doublyCracked"


def test_angles_at_saddles_and_extrema(sep_complex, l17_complex):
    for c in sep_complex.critical_points:
        angles = np.rad2deg(sep_complex.angles_at(c.index))
        assert angles == pytest.approx([90, 90, 90, 90], abs=1e-6)
    for c in l17_complex.critical_points:
        angles = l17_complex.angles_at(c.index)
        assert np.sum(angles) == pytest.approx(2 * np.pi, abs=1e-3)
        if c.kind == SADDLE:
            assert np.rad2deg(angles) == pytest.approx([90] * 4, abs=2.0)
        elif not c.is_hess_proportional:
            dev = np.min(np.abs(np.rad2deg(angles)[:, None]
                                - np.array([0.0, 90.0, 180.0])), axis=1)
            assert np.max(dev) <= 2.0


def test_degree_too_small():
    from neumann_domains.complexes import NeumannComplex
    cp = CriticalPoint([0, 0], MAX, np.array([-2.0, -1.0]), np.eye(2), 1.0,
                       0.0)
    cp.index = 0
    cx = NeumannComplex(None, [cp], [], [], {0: [0]})
    with pytest.raises(DegreeTooSmall):
        cx.angles_at(0)


def test_cusp_exponent_values():
    c = CriticalPoint([0, 0], MAX, np.array([-2.0, -1.0]), np.eye(2), 1.0, 0.0)
    assert cusp_exponent(c) == pytest.approx(2.0)
    prop = CriticalPoint([0, 0], MAX, np.array([-3.0, -3.0]), np.eye(2), 1.0,
                         0.0)
    with pytest.raises(ProportionalHessian):
        cusp_exponent(prop)
    sad = CriticalPoint([0, 0], SADDLE, np.array([-1.0, 2.0]), np.eye(2), 0.0,
                        0.0)
    with pytest.raises(ValueError):
        cusp_exponent(sad)


def test_lambda17_cusps_confirmed(l17_complex):
    cusps = [c for f in l17_complex.faces for c in f.cusps]
    confirmed = [c for c in cusps if c["confirmed"]]
    assert len(confirmed) == len(cusps) > 0
    for c in confirmed:
        assert c["r2"] > 0.99
        rel = abs(c["alpha_fit"] - c["alpha_hessian"]) / c["alpha_hessian"]
        assert rel <= 0.05


def test_axes17_has_no_cusps(axes17):
    from neumann_domains import build_complex
    cx = build_complex(axes17, 24)
    assert sum(len(f.cusps) for f in cx.faces) == 0
    # every line is a straight segment
    for ln in cx.lines[:16]:
        d = ln.samples[-1] - ln.samples[0]
        d = d / np.linalg.norm(d)
        dev = np.abs((ln.samples - ln.samples[0]) @ [-d[1], d[0]])
        assert np.max(dev) < 1e-6


def test_nodal_separable_diagonals(separable):
    polylines = nodal_set(separable, 256)
    pts = np.vstack(polylines)
    w = np.mod(pts, 2 * np.pi)
    d1 = np.abs(np.mod(w[:, 0] + w[:, 1] - np.pi, 2 * np.pi))
    d1 = np.minimum(d1, 2 * np.pi - d1)
    d2 = np.abs(np.mod(w[:, 0] - w[:, 1] - np.pi, 2 * np.pi))
    d2 = np.minimum(d2, 2 * np.pi - d2)
    assert np.max(np.minimum(d1, d2)) / np.sqrt(2) < 1e-4
    total = sum(float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
                for p in polylines)
    assert total == pytest.approx(4 * np.sqrt(2) * np.pi, rel=1e-3)


def test_nodal_loop_point_counts(lambda17, separable):
    # every crossing edge borders two cells, so each polyline is a closed
    # loop; counts recorded with the per-cell marching squares that the
    # table-driven pass replaced
    for field, res, counts in ((lambda17, 384, [2259, 2259]),
                               (separable, 256, [1021])):
        polylines = nodal_set(field, res)
        assert [len(p) for p in polylines] == counts
        for p in polylines:
            turns = (p[-1] - p[0]) / (2 * np.pi)
            assert np.max(np.abs(turns - np.round(turns))) < 1e-12


def test_nodal_vertical_lines():
    from neumann_domains import MorseField
    polylines = nodal_set(MorseField([(1.0, 1, 0, 0.0)]), 128)
    assert len(polylines) == 2
    xs = sorted(np.mod(np.mean(p[:, 0]), 2 * np.pi) for p in polylines)
    assert xs == pytest.approx([np.pi / 2, 3 * np.pi / 2], abs=1e-6)


def test_nodal_grid_res_floor(separable):
    for res in (0, 1, 7):
        with pytest.raises(ValueError):
            nodal_set(separable, res)


def test_nodal_grid_res_integer(separable):
    # 100.7 once ran at 100 and inf raised an untyped OverflowError
    for res in (100.7, 16.0, float("inf"), float("nan"), "64"):
        with pytest.raises(ValueError, match="grid_res .* must be an integer"):
            nodal_set(separable, res)
    # numpy integers are integers
    for a, b in zip(nodal_set(separable, np.int64(64)),
                    nodal_set(separable, 64), strict=True):
        assert np.array_equal(a, b)


def test_nodal_fixed_sign_empty():
    from neumann_domains import MorseField
    f = MorseField([(1.0, 0, 0, 0.0), (0.2, 1, 0, 0.0)])  # 1 + 0.2 cos x > 0
    assert nodal_set(f, 64) == []


def test_nodal_neumann_angles_separable(sep_complex, separable):
    hits = nodal_neumann_angles(sep_complex, nodal_set(separable, 256))
    # the diagonals meet the line set only at the two saddles, at pi/4
    assert len(hits) == 2
    for pt, ang in hits:
        assert np.rad2deg(ang) == pytest.approx(45.0, abs=2.0)
        d = [np.linalg.norm(pt - c.position)
             for c in sep_complex.critical_points if c.kind == SADDLE]
        assert min(d) < 1e-6


def test_nodal_neumann_angles_of_an_empty_nodal_set(sep_complex):
    # a field of fixed sign has no nodal lines, so nothing meets its
    # Neumann lines
    assert nodal_neumann_angles(sep_complex, []) == []


# sha256 of the JSON list of [[x, y], angle] of the lambda17 nodal/Neumann
# meeting angles, rounded to 9 digits as in the complex report; recorded
# with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1
ANGLES_SHA256 = ("b72367d1e65e611965a30567aa63ad7c"
                 "c39ff888cd2f268e57c145f59c6ec917")


def test_nodal_neumann_angles_lambda17(l17_complex, lambda17):
    import json
    hits = nodal_neumann_angles(l17_complex, nodal_set(lambda17, 512))
    assert len(hits) > 10
    for _, ang in hits:
        assert abs(np.rad2deg(ang) - 90.0) <= 2.0
    rounded = [[[round(float(p[0]), 9), round(float(p[1]), 9)], round(a, 9)]
               for p, a in hits]
    digest = hashlib.sha256(json.dumps(rounded).encode()).hexdigest()
    assert digest == ANGLES_SHA256


def test_negation_symmetry(separable, sep_complex):
    from neumann_domains import build_complex
    from neumann_domains.validate import _line_cloud, hausdorff_torus
    cxn = build_complex(separable.negated(), 16)
    assert len(cxn.faces) == len(sep_complex.faces)
    hd = hausdorff_torus(_line_cloud(sep_complex), _line_cloud(cxn))
    assert hd <= 1e-4
    kinds = sorted(c.kind for c in cxn.critical_points)
    assert kinds == sorted(c.kind for c in sep_complex.critical_points)


def test_export_round_trip(sep_complex):
    import json
    d = json.loads(sep_complex.to_json())
    assert d["counts"] == {"V": 4, "E": 8, "F": 4}
    assert len(d["critical_points"]) == 4
    assert len(d["lines"]) == 8
    assert len(d["faces"]) == 4
    assert sep_complex.to_json() == sep_complex.to_json()


def test_generic_lambda5_field(generic_complex):
    # non-orthogonal mode pair: lines into a shared extremum collapse onto
    # its slow manifold and braid within tracing noise; the tie-broken
    # rotation system must still produce a consistent tessellation
    cx = generic_complex
    V, E, F = len(cx.critical_points), len(cx.lines), len(cx.faces)
    assert (V, E, F) == (12, 24, 12)
    assert cx.is_morse_smale()
    assert sum(f.area for f in cx.faces) == pytest.approx(4 * np.pi ** 2,
                                                          abs=1e-6)


def test_synthetic_line_crossing_detected(sep_complex, monkeypatch):
    # two fabricated straight lines crossing at a right angle must raise,
    # also where the crossing lies past a's last stride-5 sample (1004
    # samples: the last chord runs from sample 1000 to 1003)
    from neumann_domains import complexes
    from neumann_domains.complexes import _check_crossings
    from neumann_domains.errors import LineCrossing
    from neumann_domains.flow import FlowLine

    monkeypatch.setattr(complexes, "CROSSING_COARSEN", 5)
    for n_a, x_b in ((1001, 1.50043), (1004, 1.9985)):
        s = np.linspace(0.0, 1.0, n_a)
        a = np.stack([1.0 + s, np.full_like(s, 1.50037)], axis=-1)
        s = np.linspace(0.0, 1.0, 1001)
        b = np.stack([np.full_like(s, x_b), 1.0 + s], axis=-1)
        la = FlowLine(a, "forward", 0, 1, np.array([-1.0, 0.0]))
        # the same crossing with b's unwrapped coordinates a period away
        for lift in ((0.0, 0.0), (2 * np.pi, 0.0)):
            lb = FlowLine(b + lift, "forward", 2, 3, np.array([0.0, -1.0]))
            with pytest.raises(LineCrossing):
                _check_crossings([la, lb], sep_complex.critical_points)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("amp, raises", [(8e-4, False), (5e-3, True)])
def test_needle_contact_is_no_crossing(sep_complex, amp, raises, reverse):
    # two lines into the minimum at (pi, pi) touch 0.5 from it; a contact
    # is no crossing when they stay within COINCIDENCE_TOL from it to the
    # shared end, and a crossing when they part by more on the way; the
    # same with both lines leaving the shared end
    from neumann_domains.complexes import _check_crossings
    from neumann_domains.errors import LineCrossing
    from neumann_domains.flow import FlowLine

    u = np.linspace(1.5, 0.0, 1501)        # arc length left to the minimum
    u0 = 0.5004                            # the contact, between samples
    g = np.where(u <= u0, -amp * np.sin(np.pi * u / u0), 0.1 * (u - u0))
    a = np.stack([np.pi - u, np.full_like(u, np.pi)], axis=-1)
    b = np.stack([np.pi - u, np.pi + g], axis=-1)
    ends = [(1, 3), (2, 3)]
    if reverse:
        a, b, ends = a[::-1], b[::-1], [e[::-1] for e in ends]
    lines = [FlowLine(pts, "forward", *e, np.array([-1.0, 0.0]))
             for pts, e in zip((a, b), ends)]
    if raises:
        with pytest.raises(LineCrossing):
            _check_crossings(lines, sep_complex.critical_points)
    else:
        _check_crossings(lines, sep_complex.critical_points)


# Generic eigenfunction fields whose lines squeeze into an extremum's
# needle.  A probe radius once mis-ordered such lines at their extremum
# (EulerMismatch) or took a contact in the needle for a crossing
# (LineCrossing); the rounded modes reproduce both failures.
NEEDLE_FIELDS = [
    [(0.5422, 3, 4, 3.2111), (0.9238, 4, -3, 4.873), (0.5227, 4, 3, 5.807)],
    [(0.9774, 2, -3, 0.2764), (0.9179, 2, 3, 3.5147), (0.7995, 3, 2, 1.2101)],
    [(0.7881, 2, -3, 0.5461), (0.629, 2, 3, 3.6976), (0.7385, 3, -2, 4.353)],
    [(0.6316, 1, -4, 1.1412), (0.8593, 1, 4, 3.863), (0.4982, 4, 1, 6.1142)],
    [(0.7259, 1, -2, 0.8986), (0.5128, 1, 2, 2.2952), (0.7337, 2, -1, 0.8176)],
    [(0.3308, 1, -3, 0.2242), (0.6604, 3, -1, 2.9293), (0.942, 3, 1, 3.9535)],
    [(0.3415, 1, 4, 2.4356), (0.5261, 4, -1, 0.9437), (0.8714, 4, 1, 2.3841)],
]


@pytest.mark.parametrize("modes", NEEDLE_FIELDS)
def test_needle_fields_build(modes):
    # a first transverse separation of 3e-6 or 1e-4 still mis-orders some
    # of these fields' sectors
    assert complexes.TIE_SEP_TOL == 1e-3
    cx = build_complex(MorseField(modes), 24)
    assert cx.is_morse_smale()
    assert sum(f.area for f in cx.faces) == pytest.approx(4 * np.pi ** 2,
                                                          abs=1e-6)


# sha256 over the modes of the first 60 draws of default_rng(2), recorded
# with numpy 2.4.6; its draw 43 is the lambda = 5 field of NEEDLE_FIELDS
CORPUS_SHA256 = ("af3987a8cd674ab95639a19db1d823fe"
                 "a9ec7d8782982097c798ad6617a05e11")


def test_eigenfunction_corpus_pinned():
    rng = np.random.default_rng(2)
    digest = hashlib.sha256()
    for _ in range(60):
        digest.update(np.array(draw_eigenfunction(rng)).tobytes())
    assert digest.hexdigest() == CORPUS_SHA256


def test_eigenfunction_corpus_slice_builds():
    # the first draws, chosen by index; draw 2 once raised LineCrossing
    rng = np.random.default_rng(2)
    for k in range(8):
        modes = draw_eigenfunction(rng)
        cx = build_complex(MorseField(modes), 24)
        assert cx.is_morse_smale(), (k, modes)
        assert sum(f.area for f in cx.faces) == pytest.approx(
            4 * np.pi ** 2, abs=1e-6), (k, modes)


def test_faces_tile_torus(l17_complex):
    total = sum(f.area for f in l17_complex.faces)
    assert total == pytest.approx(4 * np.pi ** 2, abs=1e-6)


def _point_in_polygon_reference(p, poly):
    # scalar even-odd rule: count the edges the rightward ray from p
    # crosses, each edge covering the half-open y-range [min, max)
    inside = False
    x, y = p
    poly = poly.tolist()
    for (a0, b0), (a1, b1) in zip(poly[:-1], poly[1:]):
        if (b0 > y) != (b1 > y):
            t = (y - b0) / (b1 - b0)
            if x < a0 + t * (a1 - a0):
                inside = not inside
    return inside


def test_point_in_polygon_matches_scalar_rule(l17_complex):
    from neumann_domains.geometry import _point_in_polygon
    rng = np.random.default_rng(7)
    # a notched square: horizontal edges at y = 0, 1, 2 and a vertex at
    # the height of the notch floor
    notch = np.array([[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1],
                      [1, 2], [0, 2], [0, 0]], dtype=float)
    polys = [notch, l17_complex.faces[0].polygon]
    for poly in polys:
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        step = max(1, len(poly) // 100)
        verts = poly[::step]
        mids = 0.5 * (poly[:-1] + poly[1:])[::step]
        at_vertex_y = np.stack([rng.uniform(lo[0], hi[0], len(verts)),
                                verts[:, 1]], axis=1)
        pts = np.vstack([rng.uniform(lo, hi, (300, 2)), verts, mids,
                         at_vertex_y])
        want = [_point_in_polygon_reference(p, poly) for p in pts.tolist()]
        assert _point_in_polygon(pts, poly).tolist() == want
    assert _point_in_polygon(np.empty((0, 2)), notch).shape == (0,)


def _segment_hit_reference(a0, a1, b0, b1, eps):
    # scalar rule: parameters t along a and u along b of the crossing of
    # the two carrier lines, both strictly inside (eps, 1 - eps)
    r = (a1[0] - a0[0], a1[1] - a0[1])
    s = (b1[0] - b0[0], b1[1] - b0[1])
    rxs = r[0] * s[1] - r[1] * s[0]
    if abs(rxs) < 1e-15:
        return None
    qp = (b0[0] - a0[0], b0[1] - a0[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / rxs
    u = (qp[0] * r[1] - qp[1] * r[0]) / rxs
    return t if eps < t < 1 - eps and eps < u < 1 - eps else None


def test_segment_hits_match_scalar_rule():
    from neumann_domains.geometry import segment_hits
    rng = np.random.default_rng(11)
    a0 = rng.uniform(0, 1, (400, 2))
    a1 = rng.uniform(0, 1, (400, 2))
    r = a1 - a0
    perp = np.stack([-r[:, 1], r[:, 0]], axis=1)
    k = rng.uniform(0.1, 0.9, (400, 1))
    b = {
        "random": (rng.uniform(0, 1, (400, 2)), rng.uniform(0, 1, (400, 2))),
        "shared endpoint": (a1, a1 + rng.uniform(-1, 1, (400, 2))),
        "T-junction": (a0 + k * r, a0 + k * r + rng.uniform(-1, 1, (400, 2))),
        "parallel": (a0 + 0.01 * perp, a1 + 0.01 * perp),
        "collinear": (a0 + k * r, a1 + k * r),
    }
    for eps in (1e-9, -1e-12):
        for case, (b0, b1) in b.items():
            hit, t = segment_hits(a0, a1, b0, b1, eps)
            want = [_segment_hit_reference(*q, eps) for q in
                    zip(a0.tolist(), a1.tolist(), b0.tolist(), b1.tolist())]
            assert hit.tolist() == [w is not None for w in want], (case, eps)
            assert t[hit].tolist() == [w for w in want if w is not None]
    # endpoint contacts count only with a negative eps
    assert not segment_hits(a0, a1, *b["shared endpoint"], 1e-9)[0].any()
    assert segment_hits(a0, a1, *b["T-junction"], -1e-12)[0].any()


def test_candidate_pairs_miss_no_crossing():
    from neumann_domains.geometry import candidate_pairs, segment_hits
    rng = np.random.default_rng(5)
    P = 2 * np.pi
    # short segments of mixed lengths, some straddling the period cell
    a0 = rng.uniform(-0.3, P + 0.3, (300, 2))
    a1 = a0 + rng.uniform(-0.4, 0.4, (300, 2))
    b0 = rng.uniform(-0.3, P + 0.3, (200, 2))
    b1 = b0 + rng.uniform(-0.05, 0.05, (200, 2))
    for periodic in (True, False):
        for second in ((), (b0, b1)):
            c0, c1 = second or (a0, a1)
            i, j, shift = candidate_pairs(a0, a1, *second, periodic=periodic)
            assert np.all(np.diff(i) >= 0)
            lifts = [(0.0, 0.0)]
            if periodic:
                lifts = [(P * dx, P * dy) for dx in (-1, 0, 1)
                         for dy in (-1, 0, 1)]
            want = set()
            for lift in lifts:
                hit, _ = segment_hits(a0[:, None], a1[:, None],
                                      c0[None] + lift, c1[None] + lift, 1e-9)
                want |= {(p, q) for p, q in zip(*np.nonzero(hit))
                         if second or p < q}
            got = set(zip(i.tolist(), j.tolist()))
            assert want and want <= got
            hit, _ = segment_hits(a0[i], a1[i], c0[j] + shift, c1[j] + shift,
                                  1e-9)
            assert set(zip(i[hit].tolist(), j[hit].tolist())) == want
