"""Triangulation of Neumann domains for the finite element solver.

A face is meshed from its lifted boundary polygon: boundary pieces are
resampled with a size field that grades geometrically into cusp
neighbourhoods, interior points are laid down on multiscale lattices with a
clearance rule, and the triangulation is the Delaunay triangulation of all
points with flat and exterior triangles culled.  Triangles that fail the
angle gate are refined by inserting their circumcentres, the only point the
repair ever adds.  Cusps may instead be truncated at a level line (natural
boundary on the cut).  A cracked domain is meshed as the single polygon its
boundary chain describes: the chain runs up the crack and back down, each
point it visits twice is one Delaunay site split into one vertex per visit,
and the crack is left as a slit with duplicated vertices.
"""

import json
import math
import numbers

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .contours import _level_arc
from .errors import (ExceptionalLevel, MeshQualityFailure,
                     SelfIntersectingBoundary)
from .geometry import (_point_in_polygon, arc_lengths, candidate_pairs,
                       polygon_area, polyline_length, segment_hits,
                       segment_lengths, triangle_areas)

H_MIN_FACTOR = 64.0        # finest graded size is h / 64
MIN_ANGLE_DEG = 15.0       # quality gate away from cusp neighbourhoods
CUSP_QUALITY_RADIUS = 0.2
FLAT_AREA_FACTOR = 1e-12   # triangles of area <= this * h^2 are dropped


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

    def is_disk(self):
        """Euler characteristic of a triangulated closed disk is 1."""
        edges = len(_edge_keys(self.triangles, self.num_vertices))
        return self.num_vertices - edges + len(self.triangles) == 1

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

    def __init__(self, t, pieces, removed_area):
        self.t = t
        self.pieces = pieces
        self.removed_area = removed_area

    def area(self):
        return abs(polygon_area(np.vstack([p for p, _ in self.pieces])))


def _cusp_indices(domain):
    return sorted({c["crit_index"] for c in domain.cusps if c["confirmed"]})


def _check_level(t):
    if not 0.0 < t < 1.0:
        raise ValueError(f"truncation level t = {t} must lie in (0, 1)")


def truncate_domain(field, domain, t, critical_points):
    """Cut the cusp neighbourhoods of a face at the level lines t*f(extremum).

    Keyed on which of the face's extrema carry a cusp: the cap around a cusp
    maximum is removed above t*f(max) ('gamma_plus' arc), the cap around a
    cusp minimum below t*f(min) ('gamma_minus'); a face without cusps is
    returned unchanged.  f is strictly monotone along each flow line, so the
    level meets the piece arriving at the extremum and the piece leaving it
    once each: the cut ends the one and starts the other at the arc's ends,
    and every other piece, with its corners, is kept as it is.  Raises
    ExceptionalLevel when a level line passes through a saddle or crosses
    any other piece.
    """
    _check_level(t)
    cusps = _cusp_indices(domain)
    lifted = domain.pieces
    pieces = [(p, "outer") for p in lifted]
    cuts = [(ci, marker) for ci, marker in
            ((domain.max_index, "gamma_plus"),
             (domain.min_index, "gamma_minus")) if ci in cusps]
    if not cuts:
        return TruncatedDomain(t, pieces, 0.0)

    vmax = critical_points[domain.max_index].value
    vmin = critical_points[domain.min_index].value
    # levels are scaled about the middle of the extremum values when f
    # keeps one sign on the face
    shift = 0.0 if vmax > 0.0 > vmin else 0.5 * (vmax + vmin)
    saddles = [critical_points[i].position for i in domain.saddle_indices]
    polygon = domain.polygon
    n = len(pieces)
    # polygon edge e lies on piece searchsorted(starts, e, 'right') - 1
    starts = np.cumsum([0] + [len(p) - 1 for p in lifted[:-1]])
    arc_before = {}
    for ci, marker in cuts:
        level = shift + t * (critical_points[ci].value - shift)
        edges, arc = _level_arc(field, polygon, level, saddles)
        k = domain.vertex_seq.index(ci)
        if k == 0:          # the leaving piece comes first in chain order
            edges, arc = edges[::-1], arc[::-1]
        j = np.searchsorted(starts, edges, side="right") - 1
        if tuple(j) != ((k - 1) % n, k):
            raise ExceptionalLevel(
                f"level {level} crosses the boundary away from the cusp")
        a, b = edges - starts[j]
        pieces[j[0]] = (np.vstack([lifted[j[0]][:a + 1], arc[:1]]), "outer")
        pieces[k] = (np.vstack([arc[-1:], lifted[k][b + 1:]]), "outer")
        arc_before[k] = (arc, marker)
    for k in sorted(arc_before, reverse=True):
        pieces.insert(k, arc_before[k])
    removed = abs(domain.area) - abs(polygon_area(
        np.vstack([p for p, _ in pieces])))
    return TruncatedDomain(t, pieces, removed)


def cusp_length_decay(field, domain, t_list, critical_points):
    """Normalized level-line lengths L(gamma)/sqrt(1-t) near each cusp.

    L is the length of the arc ``truncate_domain`` cuts at t, so a level
    that meets a saddle or crosses the boundary away from the cusp, as one
    past a saddle value does, raises ExceptionalLevel here as it does
    there.  The sequence must decrease toward zero as t -> 1.  Returns
    records (t, crit_index, length, normalized), by t and then by cusp.
    """
    for t in t_list:
        _check_level(t)
    if not _cusp_indices(domain):
        raise ValueError("domain has no confirmed cusp")
    cusp_of = {"gamma_plus": domain.max_index,
               "gamma_minus": domain.min_index}
    out = []
    for t in t_list:
        cut = truncate_domain(field, domain, t, critical_points)
        for ci, L in sorted((cusp_of[m], polyline_length(p))
                            for p, m in cut.pieces if m in cusp_of):
            out.append((t, ci, L, L / np.sqrt(1.0 - t)))
    return out


# ---------------------------------------------------------------------------
# polygon meshing
# ---------------------------------------------------------------------------

def _resample_by_size(pts, size):
    """Resample a polyline so spacing tracks the local size field.

    Samples step by the size at the last one while 1.5 steps or more
    remain, then the last two intervals share the rest evenly: under a
    constant size no interval is over 1.25 steps.  The lattice clears
    boundary points by 0.72 * size, so an interval over 2 * 0.72 * size
    leaves room for a lattice point on it and a sliver triangle beside it.

    The arcs only grow, so the segment that holds each one is found by
    walking on from the last, and the point there has the bits of
    ``np.interp(s, cum, xs)`` and ``np.interp(s, cum, ys)``: the segment's
    start where s falls on it, else slope * (s - start) + start value.
    """
    cum = arc_lengths(pts)
    xs, ys = np.ascontiguousarray(pts.T)
    c, x, y = cum.tolist(), xs.tolist(), ys.tolist()
    L = c[-1]
    arcs = [0.0]
    j = 0
    while True:
        s = arcs[-1]
        if s >= L:
            at = (x[-1], y[-1])
        else:
            while c[j + 1] <= s:
                j += 1
            if s == c[j]:
                at = (x[j], y[j])
            else:
                d = c[j + 1] - c[j]
                at = ((x[j + 1] - x[j]) / d * (s - c[j]) + x[j],
                      (y[j + 1] - y[j]) / d * (s - c[j]) + y[j])
        step = max(size(at), 1e-9)
        if L - s < 1.5 * step:
            break
        arcs.append(s + step)
    if len(arcs) > 1:
        arcs[-1] = arcs[-2] + 0.5 * (L - arcs[-2])
    out = np.column_stack([np.interp(arcs, cum, xs),
                           np.interp(arcs, cum, ys)])
    return np.vstack([out, pts[-1:]])


def _self_intersects(poly):
    """True when two non-adjacent edges of the closed polygon cross."""
    n = len(poly) - 1
    i, j, _ = candidate_pairs(poly[:-1], poly[1:], periodic=False)
    keep = (j - i > 1) & ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    hit, _ = segment_hits(poly[i], poly[i + 1], poly[j], poly[j + 1], 1e-9)
    return bool(hit.any())


def _interior_points(polygon, boundary_pts, size):
    """Multiscale lattice points inside the polygon with clearance 0.7*size.

    A lattice of spacing L keeps the points whose size lies in its band
    [0.99*L, 2.2*L).  The lattice at h covers the bounding box; finer ones
    are generated only inside the grading neighbourhoods of the size-field
    centers.  Without centers the size is h everywhere, so only the h and
    h/2 lattices reach their band, and the descent stops there.  Every h
    point inside the polygon and 0.72*h clear of the boundary is then kept,
    and the h lattice's covering radius is h/sqrt(3).  So an h/2 point
    farther than w = (0.72 + 1/sqrt(3))*h + l/2 from every boundary sample,
    with l the longest boundary interval, lies within h/sqrt(3) < 0.72*h of
    a kept h point (the boundary runs within l/2 of a sample, so that point
    is inside and clear too), and its clearance against the h level drops
    it.  Only the h/2 points within w of a sample are generated: those of
    the lattice's index boxes around each sample, taken in the lattice's
    own order, so every kept point keeps its place and its bits.

    Within a level, a candidate clears the ones it is kept against by
    0.72 times its own size, and the kept set is the greedy one that takes
    the candidates in lexicographic (x, y) order, skipping any inside the
    clearance ball of one already taken.  A candidate that is in no ball
    but its own and whose ball holds no other is kept whatever the order,
    so the greedy walks only the contested ones.

    The size band, the polygon test and the boundary clearance look at one
    candidate alone, so they run once over every level's candidates; only
    the clearance against coarser levels' points and the greedy run level
    by level.
    """
    h, h_min, centers = size.h, size.h_min, size.centers
    lo = polygon.min(axis=0)
    hi = polygon.max(axis=0)
    # smallest value the size field takes: h_min at a center, else h
    size_floor = h_min if len(centers) else h
    levels = [h]
    while levels[-1] > h_min * 1.01:
        level_h = max(levels[-1] / 2.0, h_min)
        if size_floor >= 2.2 * level_h:
            break       # no size reaches this band or any finer one
        levels.append(level_h)

    cand, level_of = [], []
    for i, level_h in enumerate(levels):
        near = width = None
        if level_h >= h * 0.999:
            boxes = [(lo, hi)]
        elif len(centers) == 0:
            # the h/2 band, with the relative slack of clear's
            longest = np.max(segment_lengths(polygon))
            boxes, near = [(lo, hi)], boundary_pts
            width = ((0.72 + 1.0 / np.sqrt(3)) * h
                     + 0.5 * longest) * (1 + 1e-9)
        else:
            # points at this size level lie within distance ~2.2*level/grading
            rad = 2.5 * level_h / max(size.grading, 1e-6)
            boxes = [(np.maximum(c - rad, lo), np.minimum(c + rad, hi))
                     for c in centers]
        for blo, bhi in boxes:
            pts = _lattice(blo, bhi, level_h, near, width)
            if len(pts):
                cand.append(pts)
                level_of.append(np.full(len(pts), i))
    if not cand:
        return np.empty((0, 2))
    cand = np.vstack(cand)
    level_of = np.concatenate(level_of)
    level_h = np.array(levels)[level_of]
    sizes = size(cand)
    keep = sizes >= np.where(level_h > h_min * 1.5, 0.99 * level_h,
                             h_min * 0.99)
    keep &= sizes < 2.2 * level_h
    cand, sizes, level_of = cand[keep], sizes[keep], level_of[keep]
    if len(cand):
        inside = _point_in_polygon(cand, polygon)
        cand, sizes, level_of = cand[inside], sizes[inside], level_of[inside]

    # a candidate with no point within its reach reads inf and is kept, as
    # its exact distance would keep it; the bound's slack covers the tree's
    # rounding of squared distances at the edge
    def clear(tree, pts, pt_sizes):
        reach = 0.72 * pt_sizes
        d, _ = tree.query(pts, distance_upper_bound=reach.max() * (1 + 1e-9))
        return d >= reach

    if len(cand):
        ok = clear(cKDTree(boundary_pts), cand, sizes)
        cand, sizes, level_of = cand[ok], sizes[ok], level_of[ok]
    accepted = []
    level_trees = []        # one tree per level's accepted points
    ends = np.searchsorted(level_of, np.arange(len(levels) + 1))
    for a, b in zip(ends[:-1], ends[1:]):
        c, s = cand[a:b], sizes[a:b]
        for tree in level_trees:
            if not len(c):
                break
            ok = clear(tree, c, s)
            c, s = c[ok], s[ok]
        if len(c):
            # enforce mutual spacing within the batch (overlapping center
            # boxes can even duplicate lattice points exactly)
            accepted.append(c[_thin(c, 0.72 * s)])
            level_trees.append(cKDTree(accepted[-1]))
    return np.vstack(accepted) if accepted else np.empty((0, 2))


def _lattice(lo, hi, step, near=None, reach=None):
    """Hex lattice points of spacing step over the box [lo, hi].

    Rows run along x, every other one offset by step/2, and the points come
    in ``meshgrid(gx, gy, indexing="ij")`` ravel order.  With ``near``, only
    the points of the index boxes that hold the disc of radius ``reach``
    about one of those points, in the same order and with the same bits.
    """
    pitch = np.array([step, step * np.sqrt(3) / 2])
    gx = np.arange(lo[0] + 0.5 * step, hi[0], pitch[0])
    gy = np.arange(lo[1] + 0.5 * step, hi[1], pitch[1])
    if not (len(gx) and len(gy)):
        return np.empty((0, 2))
    if near is None:
        X, Y = np.meshgrid(gx, gy, indexing="ij")
        X[:, 1::2] += 0.5 * step
        return np.stack([X.ravel(), Y.ravel()], axis=-1)
    # each box [i0, i1) x [j0, j1) adds 1 on a difference array; the x
    # range also takes the offset rows' points
    origin = np.array([gx[0], gy[0]])
    shape = np.array([len(gx), len(gy)])
    first = np.floor((near - reach - origin - [0.5 * step, 0.0]) / pitch)
    last = np.ceil((near + reach - origin) / pitch) + 1
    (i0, j0), (i1, j1) = (np.clip(first, 0, shape).astype(int).T,
                          np.clip(last, 0, shape).astype(int).T)
    ok = (i0 < i1) & (j0 < j1)
    i0, j0, i1, j1 = i0[ok], j0[ok], i1[ok], j1[ok]
    marks = np.zeros(shape + 1, dtype=np.int32)
    np.add.at(marks, (i0, j0), 1)
    np.add.at(marks, (i1, j0), -1)
    np.add.at(marks, (i0, j1), -1)
    np.add.at(marks, (i1, j1), 1)
    covered = marks.cumsum(axis=0).cumsum(axis=1)[:-1, :-1] > 0
    i, j = np.nonzero(covered)
    x = gx[i]
    odd = j % 2 == 1
    x[odd] += 0.5 * step
    return np.stack([x, gy[j]], axis=-1)


def _thin(cand, r):
    """Mask of the candidates the lexicographic greedy keeps.

    Candidate i blocks the others within distance r[i] of it.  Two
    candidates clash when either lies in the other's ball; the pair search
    and both tests carry a relative slack of 1e-9, which can only move a
    candidate into the exact greedy pass, so the tree's rounding at a ball's
    edge cannot change the kept set.
    """
    tree = cKDTree(cand)
    slack = 1.0 + 1e-9
    pairs = tree.query_pairs(r.max() * slack, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    d = np.linalg.norm(cand[i] - cand[j], axis=1)
    clash = (d <= r[i] * slack) | (d <= r[j] * slack)
    contested = np.unique(np.concatenate([i[clash], j[clash]]))
    taken = np.ones(len(cand), dtype=bool)
    if not len(contested):
        return taken
    taken[contested] = False
    blocked = np.zeros(len(cand), dtype=bool)
    sub = cand[contested]
    near = tree.query_ball_point(sub, r[contested])
    for k in np.lexsort((sub[:, 1], sub[:, 0])):
        idx = contested[k]
        if blocked[idx]:
            continue
        taken[idx] = True
        blocked[near[k]] = True
    return taken


def _mesh_polygon(pieces, size):
    """Delaunay-with-culling mesher for one polygon, slits allowed.

    ``pieces`` are (points, marker) polylines forming a closed
    counterclockwise loop, already sampled at the boundary spacing.  A point
    the loop visits more than once, as it does every sample of a slit but
    the tip, is one Delaunay site and one mesh vertex per visit; each
    triangle there takes one visit (``_take_visits``).  The size field
    places the interior points, and its centers are the neighbourhoods
    exempt from the angle gate.  The return keeps the boundary points
    first, in loop order: (vertices, triangles, boundary_edges).
    """
    boundary = np.vstack([pts[:-1] for pts, _ in pieces])
    markers = [m for pts, m in pieces for _ in range(len(pts) - 1)]
    nb = len(boundary)
    polygon = np.vstack([boundary, boundary[:1]])
    if _self_intersects(polygon):
        raise SelfIntersectingBoundary("resampled boundary self-intersects")

    # as complex numbers two points are equal exactly when both coordinates
    # are, and a 1-d unique is far cheaper than a row-wise one
    _, first, inverse = np.unique(boundary.view(complex).ravel(),
                                  return_index=True, return_inverse=True)
    site = first[inverse]               # first visit of each loop point
    again = np.flatnonzero(site != np.arange(nb))

    interior = _interior_points(polygon, boundary, size)
    allpts = np.vstack([boundary, interior]) if len(interior) else boundary

    flat_area = FLAT_AREA_FACTOR * size.h ** 2

    def triangulate(pts):
        # the Delaunay sites are the points but the loop's later visits
        sites = np.delete(pts, again, axis=0)
        simplices = Delaunay(sites).simplices
        # qhull returns flat triangles (areas ~1e-16) on runs of collinear
        # boundary samples; their centroids lie on the boundary, so the
        # centroid cull alone would keep them
        area = triangle_areas(sites, simplices)
        flip = area < 0
        simplices[flip] = simplices[flip][:, [0, 2, 1]]
        simplices = simplices[np.abs(area) > flat_area]
        cent = sites[simplices].mean(axis=1)
        simplices = simplices[_point_in_polygon(cent, polygon)]
        if len(again):
            simplices = np.delete(np.arange(len(pts)), again)[simplices]
            _take_visits(simplices, pts, site)
        return simplices

    simplices = triangulate(allpts)
    bad = _bad_triangles(allpts, simplices, size.centers)
    # circumcentre refinement (Ruppert 1995; Shewchuk 2002): each bad
    # triangle's circumcentre is inserted where it lies inside the polygon
    # and 0.25 * size clear of the boundary and of every point so far
    for _ in range(12):
        if not len(bad):
            break
        new_pts = []
        for b in bad:
            p = _circumcenter(allpts[simplices[b]])
            if not _point_in_polygon(p[None, :], polygon)[0]:
                continue
            s = size((p[0], p[1]))
            if np.min(np.linalg.norm(boundary - p, axis=1)) < 0.25 * s:
                continue
            others = np.vstack([allpts] + new_pts) if new_pts else allpts
            if np.min(np.linalg.norm(others - p, axis=1)) < 0.25 * s:
                continue
            new_pts.append(p)
        if not new_pts:
            break
        allpts = np.vstack([allpts, new_pts])
        simplices = triangulate(allpts)
        bad = _bad_triangles(allpts, simplices, size.centers)

    # conformity: every segment of the boundary loop must appear as an edge
    lost = _lost_segments(simplices, nb)
    if lost:
        raise MeshQualityFailure(
            f"{lost} boundary segments lost in triangulation")
    if len(bad):
        raise MeshQualityFailure(
            f"{len(bad)} triangles under {MIN_ANGLE_DEG} deg min angle "
            "away from cusp neighbourhoods")

    boundary_edges = [(k, (k + 1) % nb, m) for k, m in enumerate(markers)]
    return allpts, simplices, boundary_edges


def _take_visits(simplices, pts, site):
    """Give each triangle at a repeated loop point one visit, in place.

    ``site`` holds the first visit of each loop point, and the loop's
    points come first in ``pts``.  A visit's corner runs counterclockwise
    from the loop's next point to its previous one, and a triangle at the
    point takes the visit whose corner holds its centroid.  A triangle that
    no corner holds keeps the first visit, and the mesher's conformity
    check reports the boundary edges it leaves out.
    """
    nb = len(site)
    visits = np.flatnonzero(np.bincount(site, minlength=nb)[site] > 1)
    d_next = pts[(visits + 1) % nb] - pts[visits]
    d_prev = pts[visits - 1] - pts[visits]
    a_next = np.arctan2(d_next[:, 1], d_next[:, 0])
    span = (np.arctan2(d_prev[:, 1], d_prev[:, 0]) - a_next) % (2 * np.pi)
    t, k = np.nonzero(np.isin(simplices, visits))
    at = simplices[t, k]
    d = pts[simplices[t]].mean(axis=1) - pts[at]
    a = np.arctan2(d[:, 1], d[:, 0])
    for v, a0, sp in zip(visits, a_next, span):
        mine = (at == site[v]) & ((a - a0) % (2 * np.pi) < sp)
        simplices[t[mine], k[mine]] = v


def _lost_segments(simplices, nb):
    """Number of boundary-loop segments k -> k+1 that no triangle edge covers.

    The loop's points are vertices 0..nb-1 in loop order, so segment k is
    covered by a triangle edge between k and (k + 1) % nb, in either
    direction.
    """
    a = simplices.ravel()
    b = simplices[:, [1, 2, 0]].ravel()
    covered = np.zeros(nb, dtype=bool)
    for p, q in ((a, b), (b, a)):
        covered[p[(p < nb) & (q == (p + 1) % nb)]] = True
    return nb - int(np.count_nonzero(covered))


def _edge_keys(cells, n):
    """Unique undirected edges of closed cells as keys i*n + j with i < j.

    ``cells`` holds one closed vertex cycle per row, such as the triangles;
    ``n`` bounds the vertex indices.
    """
    cells = np.asarray(cells)
    pairs = np.stack([cells, np.roll(cells, -1, axis=1)], axis=-1)
    pairs = np.sort(pairs.reshape(-1, 2), axis=1)
    return np.unique(pairs[:, 0] * n + pairs[:, 1])


def _circumcenter(tri_pts):
    # d = 4 * area, nonzero because triangulate drops flat triangles
    a, b, c = tri_pts
    d = 2.0 * ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    ux = ((np.dot(b, b) - np.dot(a, a)) * (c[1] - a[1])
          - (np.dot(c, c) - np.dot(a, a)) * (b[1] - a[1])) / d
    uy = ((np.dot(c, c) - np.dot(a, a)) * (b[0] - a[0])
          - (np.dot(b, b) - np.dot(a, a)) * (c[0] - a[0])) / d
    return np.array([ux, uy])


def _min_angles(verts, tris):
    """Smallest interior angle of each triangle, in radians.

    arccos decreases, so the angle at the corner of largest cosine is the
    smallest one, to the bit.  Corner k lies between the edge vectors
    e[k] = p[k+1] - p[k] and p[k+2] - p[k] = -e[k-1]; a rounded difference
    changes sign exactly when its operands swap, so the cosine
    -(e[k] . e[k-1]) / (|e[k]| |e[k-1]|) has the bits of the direct form,
    but for the sign of a zero, which arccos maps to the same angle.
    """
    x, y = verts[tris, 0], verts[tris, 1]
    ex, ey = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
    norm = np.sqrt(ex * ex + ey * ey)
    prev = [2, 0, 1]
    cosang = -(ex * ex[:, prev] + ey * ey[:, prev]) / (
        norm * norm[:, prev] + 1e-300)
    return np.arccos(np.clip(np.max(cosang, axis=1), -1.0, 1.0))


def _bad_triangles(verts, simplices, quality_centers):
    """Indices of sub-threshold triangles outside the exempt neighbourhoods."""
    bad = np.rad2deg(_min_angles(verts, simplices)) < MIN_ANGLE_DEG
    if bad.any() and len(quality_centers):
        cent = verts[simplices].mean(axis=1)
        for qc in quality_centers:
            bad &= np.linalg.norm(cent - qc, axis=1) >= CUSP_QUALITY_RADIUS
    return np.flatnonzero(bad)


def _make_size_fn(h, grading, centers):
    """The size field, which carries the whole mesh policy.

    The size is h away from the centers (cusps, crack junctions) and
    grading * distance near them, down to h_min = h / H_MIN_FACTOR; the
    centers' neighbourhoods are also exempt from the angle gate.  The
    returned callable exposes h, h_min, grading and centers.  It takes an
    (N, 2) array of points for N sizes, or one point as a tuple (x, y) for
    a float; the tuple path does the array path's operations in the same
    order, so the two agree to the bit.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    h_min = h / H_MIN_FACTOR
    center_xy = [(float(cx), float(cy)) for cx, cy in centers]

    def size(p):
        if isinstance(p, tuple):
            if not center_xy:
                return h
            x, y = p
            d = min(math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
                    for cx, cy in center_xy)
            return min(max(grading * d, h_min), h)
        p = np.asarray(p, dtype=float)
        if len(centers) == 0:
            return np.full(len(p), h)
        d = np.min(np.linalg.norm(p[..., None, :] - centers, axis=-1), axis=-1)
        return np.clip(grading * d, h_min, h)

    size.h, size.h_min = h, h_min
    size.grading, size.centers = grading, centers
    return size


def _check_mesh_args(h, grading, t):
    # an infinite grading makes the size NaN at a cusp, and the resampler
    # would then step by NaN for ever
    for name, v in (("mesh size h", h), ("grading", grading)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} = {v} must be finite and positive")
    if t is not None:
        _check_level(t)


def mesh_domain(field, domain, h, grading=0.5, t=None, *, critical_points):
    """Triangulate one Neumann domain.

    Cusp neighbourhoods are graded down to h/64 by default; with ``t`` they
    are truncated at level lines instead (the cut carries natural boundary).
    A cracked domain is meshed as the one polygon its boundary chain
    describes, which runs up each crack and back down: the crack becomes a
    slit of duplicated vertices.  ``t`` on a cracked face, or on a face
    without a confirmed cusp, would cut nothing and raises ValueError.
    ``critical_points`` is the census the complex was built from.
    """
    _check_mesh_args(h, grading, t)
    if t is not None and (domain.crack_line_ids or not _cusp_indices(domain)):
        why = ("is cracked" if domain.crack_line_ids
               else "has no confirmed cusp")
        raise ValueError(f"face {domain.index} {why}: truncation at t = {t} "
                         "would cut nothing")

    if domain.crack_line_ids:
        size, pieces = _slit_pieces(domain, h, grading)
    elif t is not None:
        size = _make_size_fn(h, grading, [])        # cusps are cut away
        pieces = [(_resample_by_size(p, size), m) for p, m in
                  truncate_domain(field, domain, t, critical_points).pieces]
    else:
        size = _make_size_fn(h, grading, _lifted_cusp_points(domain))
        pieces = [(_resample_by_size(p, size), "outer")
                  for p in domain.pieces]
    verts, tris, bedges = _mesh_polygon(pieces, size)
    mesh = TriMesh(verts, tris, bedges, h, grading, t)
    if domain.crack_line_ids and not mesh.is_disk():
        raise MeshQualityFailure("slit mesh is not a disk")
    return mesh


def _lifted_cusp_points(domain):
    cusps = _cusp_indices(domain)
    return [p[0] for v, p in zip(domain.vertex_seq, domain.pieces)
            if v in cusps]


def _slit_pieces(domain, h, grading):
    """Size field and resampled boundary pieces of a cracked face.

    The chain runs up each crack and straight back down.  The way up is
    resampled once, marked 'crack_R', and the way back is its exact
    reverse, marked 'crack_L', so every crack sample but the tip is a point
    the loop visits twice.  The size field grades into the crack's root
    saddle, where the slit meets the rest of the boundary, and into the
    face's other extremum, where the root saddle's two other lines pinch
    the face to a corner that can be sharper than the angle gate.
    """
    n = len(domain.chain)
    lifted = domain.pieces
    ups = [k for k in range(n)
           if domain.chain[(k + 1) % n] == domain.chain[k] ^ 1]
    tips = {domain.vertex_seq[(k + 1) % n] for k in ups}
    others = [lifted[k][0] for k, v in enumerate(domain.vertex_seq)
              if v in {domain.max_index, domain.min_index} - tips]
    size = _make_size_fn(h, grading, [lifted[k][0] for k in ups] + others)
    pieces = {}
    for k in ups:
        up = _resample_by_size(lifted[k], size)
        pieces[k], pieces[(k + 1) % n] = (up, "crack_R"), (up[::-1], "crack_L")
    return size, [pieces.get(k) or (_resample_by_size(p, size), "outer")
                  for k, p in enumerate(lifted)]


def _check_rect_args(width, height, nx, ny):
    for name, v in (("nx", nx), ("ny", ny)):
        if not (isinstance(v, numbers.Integral) and v >= 1):
            raise ValueError(f"{name} = {v!r} must be an integer, at least 1")
    for name, v in (("width", width), ("height", height)):
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} = {v} must be finite and positive")


def structured_rect_mesh(width, height, nx, ny):
    """Uniform right-triangle mesh of a rectangle (validation helper)."""
    _check_rect_args(width, height, nx, ny)
    gx = np.linspace(0.0, width, nx + 1)
    gy = np.linspace(0.0, height, ny + 1)
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
