"""Triangulation of Neumann domains for the finite element solver.

A face is meshed from its lifted boundary polygon: boundary pieces are
resampled with a size field that grades geometrically into cusp
neighbourhoods, interior points are laid down on multiscale lattices with a
clearance rule, and the triangulation is the Delaunay triangulation of all
points with exterior triangles culled.  Cusps may instead be truncated at a
level line (natural boundary on the cut).  Cracked domains are dissected
along a flow-line continuation of the crack, meshed per side and glued back
together, which leaves the crack as a slit with duplicated vertices.
"""

import json

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from . import torus
from .complexes import _point_in_polygon
from .contours import level_arc_in_face, polyline_length
from .errors import (ExceptionalLevel, MeshQualityFailure,
                     SelfIntersectingBoundary)
from .flow import FORWARD, BACKWARD, integrate_flow

H_MIN_FACTOR = 64.0        # finest graded size is h / 64
MIN_ANGLE_DEG = 15.0       # quality gate away from cusp neighbourhoods
CUSP_QUALITY_RADIUS = 0.2


class TriMesh:
    """Conforming triangle mesh with marked boundary edges.

    ``boundary_edges`` is a list of (i, j, marker) with markers 'outer',
    'gamma_plus', 'gamma_minus', 'crack_L', 'crack_R'.  Vertices on a crack
    are duplicated, one copy per side; no triangle spans the slit.
    """

    def __init__(self, vertices, triangles, boundary_edges, h, grading,
                 t=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.boundary_edges = boundary_edges
        self.h = h
        self.grading = grading
        self.t = t

    @property
    def num_vertices(self):
        return len(self.vertices)

    def edge_count(self):
        return len(_edge_keys(self.triangles, self.num_vertices))

    def is_disk(self):
        """Euler characteristic of a triangulated closed disk is 1."""
        return self.num_vertices - self.edge_count() + len(self.triangles) == 1

    def triangle_areas(self):
        v = self.vertices
        t = self.triangles
        d1 = v[t[:, 1]] - v[t[:, 0]]
        d2 = v[t[:, 2]] - v[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def min_angles(self):
        return _min_angles(self.vertices, self.triangles)

    def to_off(self, path):
        with open(path, "w") as fh:
            fh.write("OFF\n")
            fh.write(f"{self.num_vertices} {len(self.triangles)} 0\n")
            for p in self.vertices:
                fh.write(f"{p[0]:.17g} {p[1]:.17g} 0\n")
            for t in self.triangles:
                fh.write(f"3 {t[0]} {t[1]} {t[2]}\n")

    def boundary_sidecar(self, path=None):
        data = {"h": self.h, "grading": self.grading, "t": self.t,
                "edges": [[int(i), int(j), m]
                          for i, j, m in self.boundary_edges]}
        s = json.dumps(data, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s + "\n")
        return s


class TruncatedDomain:
    """A face with cusp neighbourhoods cut off at level lines.

    ``pieces`` is the closed boundary loop as (points, marker) segments;
    cut arcs carry 'gamma_plus' (near the maximum) or 'gamma_minus'.
    """

    def __init__(self, parent, t, pieces, removed_area):
        self.parent = parent
        self.t = t
        self.pieces = pieces
        self.removed_area = removed_area

    @property
    def polygon(self):
        return np.vstack([self.pieces[0][0]] +
                         [p[1:] for p, _ in self.pieces[1:]])

    def area(self):
        poly = np.vstack([p for p, _ in self.pieces])
        x, y = poly[:, 0], poly[:, 1]
        return 0.5 * abs(float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))


def _domain_levels(domain, cps):
    """Extremum values and the shift that centres f around zero."""
    vmax = cps[domain.max_index].value
    vmin = cps[domain.min_index].value
    shift = 0.0
    if not (vmax > 0.0 > vmin):
        shift = 0.5 * (vmax + vmin)
    return vmax, vmin, shift


def _cusp_indices(domain):
    return sorted({c["crit_index"] for c in domain.cusps if c["confirmed"]})


def truncate_domain(field, domain, t, critical_points):
    """Cut the cusp neighbourhoods of a face at the level lines t*f(extremum).

    Keyed on which of the face's extrema carry a cusp: the cap around a cusp
    maximum is removed above t*f(max) ('gamma_plus' arc), the cap around a
    cusp minimum below t*f(min) ('gamma_minus'); a face without cusps is
    returned unchanged.  Raises ExceptionalLevel when a level line passes
    through a saddle.
    """
    if not (0.0 < t < 1.0):
        raise ValueError("t must be in (0, 1)")
    cusps = _cusp_indices(domain)
    vmax, vmin, shift = _domain_levels(domain, critical_points)
    saddles = [critical_points[i].position for i in domain.saddle_indices]

    cuts = []
    if domain.max_index in cusps:
        level = shift + t * (vmax - shift)
        arc = level_arc_in_face(field, domain, level, saddles)
        cuts.append((level, arc, True, "gamma_plus"))
    if domain.min_index in cusps:
        level = shift + t * (vmin - shift)
        arc = level_arc_in_face(field, domain, level, saddles)
        cuts.append((level, arc, False, "gamma_minus"))

    base_pieces = [(p, "outer") for p in domain.pieces]
    if not cuts:
        return TruncatedDomain(domain, t, base_pieces, 0.0)

    removed = 0.0
    loop = domain.polygon.copy()
    markers = ["outer"] * (len(loop) - 1)
    for level, arc, above, marker in cuts:
        loop, markers, cut_area = _excise_cap(field, loop, markers, arc,
                                              level, above, marker)
        removed += cut_area
    pieces_out = _pieces_from_loop(loop, markers)
    return TruncatedDomain(domain, t, pieces_out, removed)


def _excise_cap(field, loop, markers, arc, level, above, marker):
    """Replace the part of the loop beyond the level with the traced arc."""
    vals = field.value(loop) - level
    n = len(loop) - 1
    crossings = [k for k in range(n)
                 if (vals[k] > 0) != (vals[k + 1] > 0)]
    if len(crossings) != 2:
        raise ExceptionalLevel(
            f"level cut meets the boundary {len(crossings)} times")
    ka, kb = crossings
    # vertices strictly inside (ka, kb] form one candidate cap
    seg1 = list(range(ka + 1, kb + 1))
    inside1 = (vals[seg1] > 0).all() if above else (vals[seg1] < 0).all()
    A, B = arc[0], arc[-1]
    if inside1:
        # remove seg1: loop becomes [0..ka] + arc + [kb+1 ..]
        da = np.linalg.norm(loop[ka] - A), np.linalg.norm(loop[ka] - B)
        arc_o = arc if da[0] <= da[1] else arc[::-1]
        new = np.vstack([loop[:ka + 1], arc_o, loop[kb + 1:]])
        new_markers = (markers[:ka] + ["outer"]
                       + [marker] * (len(arc_o) - 1) + ["outer"]
                       + markers[kb + 1:])
    else:
        # the cap wraps around the loop start: keep seg1, arc closes it
        da = np.linalg.norm(loop[kb] - A), np.linalg.norm(loop[kb] - B)
        arc_o = arc if da[0] <= da[1] else arc[::-1]
        new = np.vstack([loop[ka + 1:kb + 1], arc_o])
        new_markers = (markers[ka + 1:kb + 1]
                       + [marker] * (len(arc_o) - 1) + ["outer"])
        # close the loop
        new = np.vstack([new, new[:1]])
    if not np.allclose(new[0], new[-1]):
        new = np.vstack([new, new[:1]])
        new_markers = new_markers + ["outer"]
    x, y = loop[:, 0], loop[:, 1]
    area_before = 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    x, y = new[:, 0], new[:, 1]
    area_after = 0.5 * abs(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    # markers list length must equal edges count
    new_markers = new_markers[:len(new) - 1]
    while len(new_markers) < len(new) - 1:
        new_markers.append("outer")
    return new, new_markers, area_before - area_after


def _pieces_from_loop(loop, markers):
    pieces = []
    start = 0
    for k in range(1, len(markers) + 1):
        if k == len(markers) or markers[k] != markers[start]:
            pieces.append((loop[start:k + 1], markers[start]))
            start = k
    return pieces


def cusp_length_decay(field, domain, t_list, critical_points):
    """Normalized level-line lengths L(gamma)/sqrt(1-t) near each cusp.

    The sequence must decrease toward zero as t -> 1.  Returns records
    (t, crit_index, length, normalized).
    """
    cusps = _cusp_indices(domain)
    if not cusps:
        raise ValueError("domain has no confirmed cusp")
    vmax, vmin, shift = _domain_levels(domain, critical_points)
    saddles = [critical_points[i].position for i in domain.saddle_indices]
    out = []
    for t in t_list:
        if not (0.0 < t < 1.0):
            raise ValueError("t values must be in (0, 1)")
        for ci in cusps:
            v = vmax if ci == domain.max_index else vmin
            level = shift + t * (v - shift)
            arc = level_arc_in_face(field, domain, level, saddles)
            L = polyline_length(arc)
            out.append((t, ci, L, L / np.sqrt(1.0 - t)))
    return out


# ---------------------------------------------------------------------------
# polygon meshing
# ---------------------------------------------------------------------------

def _resample_by_size(pts, size_fn):
    """Resample a polyline so spacing tracks the local size field.

    The last two intervals are evened out so no straggler interval much
    longer than the local size survives at piece ends (those read as flat
    caps to the triangulator).
    """
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    L = cum[-1]

    def at(s):
        return np.array([np.interp(s, cum, pts[:, 0]),
                         np.interp(s, cum, pts[:, 1])])

    arcs = [0.0]
    while True:
        step = max(float(size_fn(at(arcs[-1]))), 1e-9)
        if L - arcs[-1] < 1.5 * step:
            break
        arcs.append(arcs[-1] + step)
    if len(arcs) > 1:
        tail = L - arcs[-2]
        if tail < 2.4 * max(float(size_fn(at(L))), 1e-9):
            arcs[-1] = arcs[-2] + 0.5 * tail   # split the final stretch evenly
    out = [at(s) for s in arcs]
    out.append(pts[-1])
    return np.array(out)


def _self_intersects(poly):
    """Exact segment test with a hash grid (adjacent segments excluded)."""
    n = len(poly) - 1
    lens = np.linalg.norm(np.diff(poly, axis=0), axis=1)
    cell = max(np.max(lens), 1e-6)
    grid = {}
    for k in range(n):
        mid = 0.5 * (poly[k] + poly[k + 1])
        key = (int(mid[0] / cell), int(mid[1] / cell))
        grid.setdefault(key, []).append(k)
    for k in range(n):
        a, b = poly[k], poly[k + 1]
        mid = 0.5 * (a + b)
        ci, cj = int(mid[0] / cell), int(mid[1] / cell)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                for m in grid.get((ci + di, cj + dj), []):
                    if m <= k or abs(m - k) <= 1 or (k == 0 and m == n - 1):
                        continue
                    c, d = poly[m], poly[m + 1]
                    r, s2 = b - a, d - c
                    rxs = r[0] * s2[1] - r[1] * s2[0]
                    if abs(rxs) < 1e-18:
                        continue
                    qp = c - a
                    t = (qp[0] * s2[1] - qp[1] * s2[0]) / rxs
                    u = (qp[0] * r[1] - qp[1] * r[0]) / rxs
                    if 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9:
                        return True
    return False


def _interior_points(polygon, boundary_pts, size_fn, h, h_min):
    """Multiscale lattice points inside the polygon with clearance 0.7*size.

    A lattice of spacing L keeps the points whose size lies in its band
    [0.99*L, 2.2*L).  The lattice at h covers the bounding box; finer ones
    are generated only inside the grading neighbourhoods of the size-field
    centers.  Without centers the size is h everywhere, so only the h and
    h/2 lattices (both over the bounding box) reach their band, and the
    descent stops there.
    """
    lo = polygon.min(axis=0)
    hi = polygon.max(axis=0)
    centers = getattr(size_fn, "centers", np.empty((0, 2)))
    grading = getattr(size_fn, "grading", 1.0)
    # smallest value the size field takes: h_min at a center, else h
    size_floor = h_min if len(centers) else h
    accepted = []
    btree = cKDTree(boundary_pts)
    level_h = h
    while True:
        if level_h >= h * 0.999 or len(centers) == 0:
            boxes = [(lo, hi)]
        else:
            # points at this size level lie within distance ~2.2*level/grading
            rad = 2.5 * level_h / max(grading, 1e-6)
            boxes = [(np.maximum(c - rad, lo), np.minimum(c + rad, hi))
                     for c in centers]
        cand_all = []
        for blo, bhi in boxes:
            gx = np.arange(blo[0] + 0.5 * level_h, bhi[0], level_h)
            gy = np.arange(blo[1] + 0.5 * level_h, bhi[1],
                           level_h * np.sqrt(3) / 2)
            if len(gx) and len(gy):
                X, Y = np.meshgrid(gx, gy, indexing="ij")
                X[:, 1::2] += 0.5 * level_h     # hex offset
                cand_all.append(np.stack([X.ravel(), Y.ravel()], axis=-1))
        if cand_all:
            cand = np.vstack(cand_all)
            sizes = np.atleast_1d(size_fn(cand))
            band = (sizes >= 0.99 * level_h) if level_h > h_min * 1.5 \
                else (sizes >= h_min * 0.99)
            band &= sizes < 2.2 * level_h
            cand = cand[band]
            sizes = sizes[band]
            if len(cand):
                inside = _point_in_polygon(cand, polygon)
                cand, sizes = cand[inside], sizes[inside]
            if len(cand):
                d_b, _ = btree.query(cand)
                ok = d_b >= 0.72 * sizes
                cand, sizes = cand[ok], sizes[ok]
            if len(cand) and accepted:
                atree = cKDTree(np.vstack(accepted))
                d_a, _ = atree.query(cand)
                ok = d_a >= 0.72 * sizes
                cand, sizes = cand[ok], sizes[ok]
            if len(cand):
                # enforce mutual spacing within the batch (overlapping
                # center boxes can even duplicate lattice points exactly)
                order = np.lexsort((cand[:, 1], cand[:, 0]))
                near = cKDTree(cand).query_ball_point(cand, 0.72 * sizes)
                taken = np.zeros(len(cand), dtype=bool)
                blocked = np.zeros(len(cand), dtype=bool)
                for idx in order:
                    if blocked[idx]:
                        continue
                    taken[idx] = True
                    blocked[near[idx]] = True
                for p in cand[taken]:
                    accepted.append(p)
        if level_h <= h_min * 1.01:
            break
        level_h = max(level_h / 2.0, h_min)
        if size_floor >= 2.2 * level_h:
            break       # no size reaches this band or any finer one
    return np.array(accepted) if accepted else np.empty((0, 2))


def _mesh_polygon(pieces, size_fn, h, h_min, quality_centers=(),
                  resample=True):
    """Delaunay-with-culling mesher for one simple polygon.

    ``pieces`` are (points, marker) polylines forming a closed loop.  With
    ``resample=False`` the caller has already placed the boundary points
    (needed when two sub-polygons must share samples along a seam).  The
    return keeps boundary points first so piece bookkeeping survives:
    (vertices, triangles, boundary_edges, piece_slices).
    """
    if resample:
        res_pieces = [(_resample_by_size(pts, size_fn), marker)
                      for pts, marker in pieces]
    else:
        res_pieces = list(pieces)

    bpts = [res_pieces[0][0][:-1]]
    piece_slices = []
    start = 0
    for k, (pts, marker) in enumerate(res_pieces):
        npts = len(pts) - 1      # last point belongs to the next piece
        piece_slices.append((start, start + npts, marker))
        if k > 0:
            bpts.append(pts[:-1])
        start += npts
    boundary = np.vstack(bpts)
    nb = len(boundary)
    polygon = np.vstack([boundary, boundary[:1]])
    if _self_intersects(polygon):
        raise SelfIntersectingBoundary("resampled boundary self-intersects")

    interior = _interior_points(polygon, boundary, size_fn, h, h_min)
    allpts = np.vstack([boundary, interior]) if len(interior) else boundary

    def triangulate(pts):
        simplices = Delaunay(pts).simplices
        d1 = pts[simplices[:, 1]] - pts[simplices[:, 0]]
        d2 = pts[simplices[:, 2]] - pts[simplices[:, 0]]
        flip = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) < 0
        simplices[flip] = simplices[flip][:, [0, 2, 1]]
        cent = pts[simplices].mean(axis=1)
        return simplices[_point_in_polygon(cent, polygon)]

    simplices = triangulate(allpts)
    # quality repair: flat caps along nearly straight boundary stretches get
    # their circumcenters inserted, which is where Delaunay wants a point
    for _ in range(12):
        bad = _bad_triangles(allpts, simplices, quality_centers)
        if not len(bad):
            break
        new_pts = []
        for b in bad:
            tri_pts = allpts[simplices[b]]
            # off-edge point: perpendicular from the longest edge toward the
            # opposite vertex; repairs flat caps along the boundary
            sides = [np.linalg.norm(tri_pts[(k + 1) % 3] - tri_pts[k])
                     for k in range(3)]
            k = int(np.argmax(sides))
            a, bb_, c = tri_pts[k], tri_pts[(k + 1) % 3], tri_pts[(k + 2) % 3]
            mid = 0.5 * (a + bb_)
            nrm = np.array([-(bb_ - a)[1], (bb_ - a)[0]])
            nrm /= np.linalg.norm(nrm)
            if np.dot(nrm, c - mid) < 0:
                nrm = -nrm
            s_mid = float(size_fn(mid))
            off = mid + 0.55 * s_mid * nrm
            cand = [p for p in (_circumcenter(tri_pts), off,
                                tri_pts.mean(axis=0))
                    if _point_in_polygon(p[None, :], polygon)[0]]
            for p in cand:
                s = float(size_fn(p))
                near_b = np.min(np.linalg.norm(boundary - p, axis=1))
                if near_b < 0.25 * s:
                    continue
                others = np.vstack([allpts] + new_pts) if new_pts else allpts
                if np.min(np.linalg.norm(others - p, axis=1)) < 0.25 * s:
                    continue
                new_pts.append(p)
                break
        if not new_pts:
            break
        allpts = np.vstack([allpts, new_pts])
        simplices = triangulate(allpts)

    # conformity: every segment of the boundary loop must appear as an edge
    n = len(allpts)
    missing = ~np.isin(_edge_keys(np.arange(nb)[None, :], n),
                       _edge_keys(simplices, n))
    if missing.any():
        raise MeshQualityFailure(
            f"{missing.sum()} boundary segments lost in triangulation")

    boundary_edges = []
    for s0, s1, marker in piece_slices:
        for k in range(s0, s1):
            boundary_edges.append((k, (k + 1) % nb, marker))
    return allpts, simplices, boundary_edges, piece_slices


def _edge_keys(cells, n):
    """Unique undirected edges of closed cells as keys i*n + j with i < j.

    ``cells`` holds one closed vertex cycle per row (triangles, or a whole
    boundary loop); ``n`` bounds the vertex indices.
    """
    cells = np.asarray(cells)
    pairs = np.stack([cells, np.roll(cells, -1, axis=1)], axis=-1)
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    return np.unique(pairs[:, 0] * n + pairs[:, 1])


def _circumcenter(tri_pts):
    a, b, c = tri_pts
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    if abs(d) < 1e-300:
        return tri_pts.mean(axis=0)
    ux = ((np.dot(b, b) - np.dot(a, a)) * (c[1] - a[1])
          - (np.dot(c, c) - np.dot(a, a)) * (b[1] - a[1])) / d
    uy = ((np.dot(c, c) - np.dot(a, a)) * (b[0] - a[0])
          - (np.dot(b, b) - np.dot(a, a)) * (c[0] - a[0])) / d
    return np.array([ux, uy])


def _min_angles(verts, tris):
    """Smallest interior angle of each triangle, in radians."""
    ang = np.empty((len(tris), 3))
    for k in range(3):
        a = verts[tris[:, k]]
        u1 = verts[tris[:, (k + 1) % 3]] - a
        u2 = verts[tris[:, (k + 2) % 3]] - a
        cosang = np.sum(u1 * u2, axis=1) / (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1) + 1e-300)
        ang[:, k] = np.arccos(np.clip(cosang, -1.0, 1.0))
    return np.min(ang, axis=1)


def _bad_triangles(verts, simplices, quality_centers):
    """Indices of sub-threshold triangles outside the exempt neighbourhoods."""
    bad = np.rad2deg(_min_angles(verts, simplices)) < MIN_ANGLE_DEG
    if bad.any() and len(quality_centers):
        cent = verts[simplices].mean(axis=1)
        for qc in np.asarray(quality_centers).reshape(-1, 2):
            bad &= np.linalg.norm(cent - qc, axis=1) >= CUSP_QUALITY_RADIUS
    return np.flatnonzero(bad)


def _quality_check(verts, tris, quality_centers):
    bad = _bad_triangles(verts, tris, quality_centers)
    if len(bad):
        raise MeshQualityFailure(
            f"{len(bad)} triangles under {MIN_ANGLE_DEG} deg min angle "
            "away from cusp neighbourhoods")


def _make_size_fn(h, h_min, grading, centers):
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)

    def size(p):
        p = np.asarray(p, dtype=float)
        if len(centers) == 0:
            if p.ndim == 1:
                return h
            return np.full(len(p), h)
        d = np.min(np.linalg.norm(p[..., None, :] - centers, axis=-1), axis=-1)
        return np.clip(grading * d, h_min, h)

    size.centers = centers
    size.grading = grading
    return size


def mesh_domain(field, domain, h, grading=0.5, t=None, critical_points=None):
    """Triangulate one Neumann domain.

    Cusp neighbourhoods are graded down to h/64 by default; with ``t`` they
    are truncated at level lines instead (the cut carries natural boundary).
    Cracked domains are dissected along a flow line from the crack tip,
    meshed per side, and glued, leaving the crack as a slit of duplicated
    vertices.
    """
    cps = critical_points if critical_points is not None else domain._cps
    h_min = h / H_MIN_FACTOR

    if domain.crack_line_ids:
        return _mesh_cracked(field, domain, h, grading, t, cps)

    if t is not None:
        trunc = truncate_domain(field, domain, t, cps)
        pieces = trunc.pieces
        cusp_pts = []       # cusps are cut away
    else:
        pieces = [(p, "outer") for p in domain.pieces]
        cusp_pts = _lifted_cusp_points(domain)

    size_fn = _make_size_fn(h, h_min, grading, cusp_pts) if len(cusp_pts) \
        else _make_size_fn(h, h_min, grading, np.empty((0, 2)))
    verts, tris, bedges, _ = _mesh_polygon(pieces, size_fn, h, h_min,
                                           quality_centers=cusp_pts)
    _quality_check(verts, tris, cusp_pts)
    return TriMesh(verts, tris, bedges, h, grading, t)


def _lifted_cusp_points(domain):
    out = []
    n = len(domain.chain)
    confirmed = {c["crit_index"] for c in domain.cusps if c["confirmed"]}
    for k in range(n):
        if domain.vertex_seq[k] in confirmed:
            out.append(domain.pieces[k][0])
    return np.array(out) if out else np.empty((0, 2))


def _mesh_cracked(field, domain, h, grading, t, cps):
    """Dissect along a flow line from the crack tip, mesh both sides, glue."""
    n = len(domain.chain)
    crack = domain.crack_line_ids[0]
    i = next(k for k in range(n)
             if domain.chain[k] // 2 == crack
             and domain.chain[(k + 1) % n] // 2 == crack)
    tip_idx = domain.vertex_seq[(i + 1) % n]
    tip_cp = cps[tip_idx]
    tip_lift = domain.pieces[i][-1]

    # continuation: flow from just past the tip down to the opposite extremum
    crack_in = domain.pieces[i]
    v = crack_in[-1] - crack_in[-2]
    v = v / np.linalg.norm(v)
    x0 = torus.wrap(tip_lift + 1e-4 * v)
    direction = FORWARD if tip_cp.kind == "maximum" else BACKWARD
    cont = integrate_flow(field, x0, direction, cps)
    target = domain.min_index if tip_cp.kind == "maximum" else domain.max_index
    if cont.end_index != target:
        raise MeshQualityFailure(
            "crack continuation did not reach the opposite extremum")
    eta = np.vstack([tip_lift,
                     cont.samples + (tip_lift + 1e-4 * v - cont.samples[0])])
    # find the chain position of the target vertex and align the lift
    kp = next(k for k in range(n) if domain.vertex_seq[k] == target)
    p_lift = domain.pieces[kp][0]
    if np.linalg.norm(eta[-1] - p_lift) > 1e-6:
        raise MeshQualityFailure("crack continuation lift mismatch")
    eta[-1] = p_lift

    h_min = h / H_MIN_FACTOR
    # grade into every junction of the dissection: the continuation lands on
    # the opposite extremum tangentially to the boundary, and the crack root
    # has wedge corners on both sides
    centers = [tip_lift, p_lift, domain.pieces[i][0]]
    size_fn = _make_size_fn(h, h_min, grading, centers)
    eta_res = _resample_by_size(eta, size_fn)
    crack_res = _resample_by_size(domain.pieces[i], size_fn)

    def pieces_range(a, b):     # chain pieces a..b-1 (mod n) as 'outer'
        out = []
        k = a
        while k % n != b % n:
            out.append((_resample_by_size(domain.pieces[k % n], size_fn),
                        "outer"))
            k += 1
        return out

    # side A: crack-out piece (tip -> r*), outer chain to p, eta reversed
    side_a = [(crack_res[::-1], "crack_L")] + pieces_range(i + 2, kp) \
        + [(eta_res[::-1], "eta")]
    # side B: eta (tip -> p), outer chain from p back to the crack root
    side_b = [(eta_res, "eta")] + pieces_range(kp, i) + [(crack_res, "crack_R")]

    va, ta, ba, _ = _mesh_polygon(side_a, size_fn, h, h_min,
                                  quality_centers=centers, resample=False)
    vb, tb, bb, _ = _mesh_polygon(side_b, size_fn, h, h_min,
                                  quality_centers=centers, resample=False)

    # glue along eta: map B's eta vertices onto A's
    # (in side A the eta piece is the last; locate its vertex ids)
    ids_a = _piece_vertex_ids(side_a, "eta", va)
    ids_b = _piece_vertex_ids(side_b, "eta", vb)
    mapping = np.full(len(vb), -1, dtype=int)
    for ia, ib in zip(ids_a[::-1], ids_b):   # reversed orientation
        mapping[ib] = ia
    fresh = np.flatnonzero(mapping < 0)
    mapping[fresh] = len(va) + np.arange(len(fresh))
    verts = np.vstack([va, vb[fresh]])
    tris = np.vstack([ta, mapping[tb]])
    bedges = [e for e in ba if e[2] != "eta"]
    bedges += [(int(mapping[i]), int(mapping[j]), m)
               for i, j, m in bb if m != "eta"]
    mesh = TriMesh(verts, tris, bedges, h, grading, t)
    if not mesh.is_disk():
        raise MeshQualityFailure("glued crack mesh is not a disk")
    _quality_check(verts, tris, centers)
    return mesh


def _piece_vertex_ids(pieces, marker, verts):
    """Vertex indices of a named piece, via the boundary layout contract."""
    ids = []
    start = 0
    for pts, m in pieces:
        npts = len(pts) - 1
        if m == marker:
            ids = list(range(start, start + npts))
            # the closing vertex is the first vertex of the next piece,
            # which wraps to 0 when this is the last piece
            total = sum(len(p) - 1 for p, _ in pieces)
            ids.append((start + npts) % total)
            return ids
        start += npts
    raise KeyError(marker)


def structured_rect_mesh(width, height, nx, ny, origin=(0.0, 0.0)):
    """Uniform right-triangle mesh of a rectangle (validation helper)."""
    gx = np.linspace(origin[0], origin[0] + width, nx + 1)
    gy = np.linspace(origin[1], origin[1] + height, ny + 1)
    X, Y = np.meshgrid(gx, gy, indexing="ij")
    verts = np.stack([X.ravel(), Y.ravel()], axis=-1)

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    bedges = []
    for i in range(nx):
        bedges.append((vid(i, 0), vid(i + 1, 0), "outer"))
        bedges.append((vid(i + 1, ny), vid(i, ny), "outer"))
    for j in range(ny):
        bedges.append((vid(nx, j), vid(nx, j + 1), "outer"))
        bedges.append((vid(0, j + 1), vid(0, j), "outer"))
    return TriMesh(verts, np.array(tris), bedges, width / nx, 1.0)
