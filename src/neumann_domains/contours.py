"""Contour extraction: nodal sets on the periodic torus and level arcs
inside a single face.

The nodal set is found by one table-driven marching-squares pass over a
periodic lattice (Lorensen & Cline 1987): numpy computes every cell's case
code, a case table gives the crossing-edge pairs (saddle cells 5 and 10 are
split by the sign at the cell centre), all crossing edges are refined on
the exact field at once, and the segments are chained into closed loops
through the two cells that share each crossing edge.  Level lines used for
cusp truncation are traced by a predictor-corrector walker that stays
inside a given face polygon; its boundary crossings are refined by the
same root kernel.
"""

import numpy as np

from . import geometry, torus
from .errors import ExceptionalLevel

SADDLE_LEVEL_TOL = 1e-3    # crossing this close to a saddle is 'exceptional'


# ---------------------------------------------------------------------------
# marching squares on the torus
# ---------------------------------------------------------------------------

def _edge_roots(field, p0, p1, f0, f1, level=0.0, iters=30):
    """Points where f == level on the segments p0[k]-p1[k], one per row.

    f0, f1 are the field values at the ends, on either side of the level.
    Each row keeps its own bracket: secant steps, every third one a
    bisection; a row stops at an exact zero or once its bracket is shorter
    than 1e-14, and otherwise ends at the smallest |f - level| seen.
    """
    d = p1 - p0
    fa, fb = f0 - level, f1 - level
    a, b = np.zeros(len(d)), np.ones(len(d))
    best_t = np.where(np.abs(fa) < np.abs(fb), a, b)
    best_f = np.minimum(np.abs(fa), np.abs(fb))
    t_root, live = best_t.copy(), np.arange(len(d))
    for it in range(iters):
        mid = 0.5 * (a + b)
        sec = (fb != fa) & (it % 3 != 2)
        t = np.where(sec, a - fa * (b - a) / np.where(sec, fb - fa, 1.0), mid)
        t = np.where((a < t) & (t < b), t, mid)
        ft = field.value(p0[live] + t[:, None] * d[live]) - level
        better = (ft == 0.0) | (np.abs(ft) < best_f)
        best_t[better], best_f[better] = t[better], np.abs(ft[better])
        same = (ft > 0) == (fa > 0)
        a, fa = np.where(same, t, a), np.where(same, ft, fa)
        b, fb = np.where(same, b, t), np.where(same, fb, ft)
        t_root[live] = best_t
        keep = (ft != 0.0) & (b - a >= 1e-14)
        live, a, b, fa, fb, best_t, best_f = (
            v[keep] for v in (live, a, b, fa, fb, best_t, best_f))
        if not len(live):
            break
    return p0 + t_root[:, None] * d


# _CASES[code, centre > 0] holds the pairs of local edges that a cell joins
# (-1 for none).  Bit k of code is set when corner k is above the level, with
# corners c0 = (i, j), c1 = (i+1, j), c2 = (i+1, j+1), c3 = (i, j+1) and
# edges 0 = c0-c1, 1 = c1-c2, 2 = c3-c2, 3 = c0-c3.  In the saddle cases 5
# and 10 the sign at the centre decides which corners are cut off.
_CASES = np.full((16, 2, 2, 2), -1)
_CASES[[1, 2, 3, 4, 6, 7, 8, 9, 11, 12, 13, 14], :, 0] = np.array(
    [(0, 3), (0, 1), (3, 1), (1, 2), (0, 2), (3, 2), (2, 3), (0, 2), (1, 2),
     (3, 1), (0, 1), (0, 3)])[:, None]
_CASES[5] = [[(0, 3), (1, 2)], [(0, 1), (2, 3)]]
_CASES[10] = _CASES[5, ::-1]


def nodal_set(field, grid_res=512):
    """Zero contours of the field as polylines on the torus.

    Returns a list of arrays of continuous (unwrapped) coordinates.  Every
    crossing edge of the lattice borders two cells, so each polyline is a
    closed loop that repeats its first point (up to a period shift for a
    loop that winds around the torus).  Empty when the field has a fixed
    sign.
    """
    n = int(grid_res)
    g = np.arange(n) / n * torus.PERIOD
    step = torus.PERIOD / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    raw = field.value(np.stack([X, Y], axis=-1)).ravel()
    # an infinitesimal level shift removes exact zeros at lattice points and
    # splits nodal crossings at saddles into separate branches
    level = 1e-9 * max(1.0, float(np.max(np.abs(raw))))
    up = (raw > level).reshape(n, n).astype(int)
    right = np.roll(up, -1, 0)
    code = (up | right << 1 | np.roll(right, -1, 1) << 2
            | np.roll(up, -1, 1) << 3).ravel()
    cells = np.flatnonzero((code != 0) & (code != 15))
    if not len(cells):
        return []
    code = code[cells]
    i, j = np.divmod(cells, n)
    centre = np.zeros(len(cells), dtype=int)
    sad = (code == 5) | (code == 10)
    centre[sad] = field.value(
        np.stack([g[i[sad]] + 0.5 * step, g[j[sad]] + 0.5 * step], -1)) > level
    # edge ids: node id i*n + j for the edge from node (i, j) towards +x,
    # n*n + node id for the one towards +y
    edges = np.stack([i * n + j, n * n + (i + 1) % n * n + j,
                      i * n + (j + 1) % n, n * n + i * n + j], -1)
    pairs = _CASES[code, centre].reshape(-1, 4)
    ends = np.take_along_axis(edges, pairs % 4, 1)[pairs >= 0]

    # sorting the segment ends pairs up the two ends on each crossing edge
    order = np.argsort(ends, kind="stable")
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    row = np.empty_like(order)
    row[order] = np.arange(len(order)) // 2
    vert, node = np.divmod(ends[order[0::2]], n * n)
    ei, ej = np.divmod(node, n)
    p0 = np.stack([g[ei], g[ej]], -1)
    p1 = p0 + np.where(vert[:, None] == 1, [0.0, step], [step, 0.0])
    far = np.where(vert == 1, ei * n + (ej + 1) % n, (ei + 1) % n * n + ej)
    roots = _edge_roots(field, p0, p1, raw[node], raw[far], level)

    # walk each loop from its first segment s: end 2s+1 leads to its
    # partner end, whose other end leads on
    nxt = (partner ^ 1).tolist()
    used = np.zeros(len(ends) // 2, dtype=bool)
    walk, first = [], []
    for s in range(len(used)):
        if used[s]:
            continue
        first.append(len(walk))
        walk += [2 * s, 2 * s + 1]
        while nxt[walk[-1]] != 2 * s + 1:
            walk.append(nxt[walk[-1]])
        used[np.array(walk[first[-1]:]) >> 1] = True
    pts = roots[row[walk]]
    # continuous coordinates: one period round per step, reset at each loop
    lift = np.cumsum(np.round((pts[:-1] - pts[1:]) / torus.PERIOD), axis=0)
    lift = np.vstack([np.zeros((1, 2)), lift])
    lift -= np.repeat(lift[first], np.diff(first + [len(walk)]), axis=0)
    return np.split(pts + torus.PERIOD * lift, first[1:])


# ---------------------------------------------------------------------------
# level arcs inside one face
# ---------------------------------------------------------------------------

def _boundary_crossings(field, polygon, level):
    """Points where f == level on a closed polygon, in chain order.

    A vertex on the level counts as it is; each edge whose ends straddle the
    level is refined by its own one-row _edge_roots call, which evaluates
    the field bit for bit as a single point does (a batched evaluation can
    differ in the last bit and move the cut).
    """
    raw = field.value(polygon)
    f0, f1 = raw[:-1] - level, raw[1:] - level
    on = f0 == 0.0
    straddle = ~on & ((f0 > 0) != (f1 > 0))
    return [polygon[k].copy() if on[k] else
            _edge_roots(field, polygon[k:k + 1], polygon[k + 1:k + 2],
                        raw[k:k + 1], raw[k + 1:k + 2], level)[0]
            for k in np.flatnonzero(on | straddle)]


def level_arc_in_face(field, face, level, saddle_positions=(),
                      max_steps=400000):
    """Trace the level line f == level through the interior of a face.

    Level lines of a Morse function restricted to one face are single arcs
    with both endpoints on the boundary.  Raises ExceptionalLevel when an
    endpoint falls onto a saddle point.
    """
    polygon = face.polygon
    hits = _boundary_crossings(field, polygon, level)
    if len(hits) != 2:
        # an arc has two ends; more crossings mean the level passes a
        # saddle corner of the face
        raise ExceptionalLevel(
            f"level {level} meets the face boundary {len(hits)} times")
    A, B = hits
    for s in saddle_positions:
        if min(torus.dist(s, torus.wrap(A)), torus.dist(s, torus.wrap(B))) \
                < SADDLE_LEVEL_TOL:
            raise ExceptionalLevel(
                f"level {level} passes through a saddle point")

    def correct(x):
        for _ in range(3):
            g = field.gradient(x)
            r = field.value(x) - level
            x = x - r * g / np.dot(g, g)
        return x

    span = np.linalg.norm(B - A)
    h = max(1e-6, min(5e-3, 0.05 * span))
    g = field.gradient(A)
    tan = np.array([-g[1], g[0]])
    tan /= np.linalg.norm(tan)
    probe = A + 10 * 1e-6 * tan
    if not geometry._point_in_polygon(probe[None], polygon)[0]:
        tan = -tan
    pts = [A]
    x = A.copy()
    prev_tan = tan
    for it in range(max_steps):
        x_try = correct(x + h * prev_tan)
        g = field.gradient(x_try)
        tan = np.array([-g[1], g[0]])
        tan /= np.linalg.norm(tan)
        if np.dot(tan, prev_tan) < 0:
            tan = -tan
        turn = np.arccos(np.clip(np.dot(tan, prev_tan), -1.0, 1.0))
        if turn > 0.15 and h > 1e-6:
            h *= 0.5
            continue
        x = x_try
        pts.append(x.copy())
        prev_tan = tan
        if turn < 0.03:
            h = min(h * 1.4, 5e-3)
        if np.linalg.norm(x - B) < 1.5 * h and it > 2:
            break
    else:
        raise ExceptionalLevel(f"level arc tracing did not terminate at {level}")
    pts.append(B)
    return np.array(pts)


def polyline_length(pts):
    return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))


# ---------------------------------------------------------------------------
# intersections of two polyline families on the torus
# ---------------------------------------------------------------------------

POLYLINE_COARSEN = 10      # stride of the first family's chords
SECANT_ARC = 0.012         # half-length of the direction secants


def polyline_intersections(lines_a, lines_b):
    """Intersection points between two families of curves on the torus.

    Returns (point, dir_a, dir_b) triples where the directions are local
    secants of each curve over +-SECANT_ARC around the crossing, ordered by
    the segment of lines_b, then of lines_a.  Input polylines are continuous
    (unwrapped) coordinate arrays; lines_a is tested on chords over every
    POLYLINE_COARSEN-th sample.
    """
    def secant(pts, idx, arc):
        cum = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cs = np.concatenate([[0.0], np.cumsum(cum)])
        s0 = cs[min(idx, len(cs) - 1)]
        i0 = np.searchsorted(cs, max(0.0, s0 - arc))
        i1 = min(np.searchsorted(cs, s0 + arc), len(pts) - 1)
        v = pts[i1] - pts[i0]
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else v

    la, ka, p0, p1 = geometry.chords(lines_a, POLYLINE_COARSEN)
    lb, kb, q0, q1 = geometry.chords(lines_b, 1)
    ib, ia, shift = geometry.candidate_pairs(q0, q1, p0, p1)
    # translate each candidate segment of a into the raw frame of b's
    a0, a1 = p0[ia] + shift, p1[ia] + shift
    hit, t = geometry.segment_hits(a0, a1, q0[ib], q1[ib], -1e-12)
    ib, ia, t = ib[hit], ia[hit], t[hit]
    pts = torus.wrap(a0[hit] + t[:, None] * (a1[hit] - a0[hit]))
    out = []
    for pt, i, j in zip(pts, ia, ib):
        # merge duplicates from adjacent segments hitting the same crossing
        if not any(torus.dist(pt, q) < 1e-6 for q, _, _ in out):
            out.append((pt, secant(lines_a[la[i]], ka[i], SECANT_ARC),
                        secant(lines_b[lb[j]], kb[j], SECANT_ARC)))
    return out
