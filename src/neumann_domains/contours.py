"""Contour extraction: nodal sets on the periodic torus and level arcs
inside a single face.

The nodal set is found by one table-driven marching-squares pass over a
periodic lattice (Lorensen & Cline 1987): numpy computes every cell's case
code, a case table gives the crossing-edge pairs (saddle cells 5 and 10 are
split by the sign at the cell centre), all crossing edges are refined on
the exact field at once, and the segments are chained into closed loops
through the two cells that share each crossing edge.  The lattice stage
holds one float per node and a byte per cell: the field is evaluated a
block of whole rows at a time into one preallocated array, and whole rows
keep every row's evaluation, and so its bits, the same as on the full
lattice.  Only the crossing edges outlive that stage, so the root
refinement and the loop walk hold O(crossings) data.

Level lines used for cusp truncation are traced by a predictor-corrector
walker that stays inside a given face polygon; its boundary crossings are
refined by the same root kernel.
"""

import numbers

import numpy as np

from . import geometry, torus
from .errors import ExceptionalLevel

SADDLE_LEVEL_TOL = 1e-3    # crossing this close to a saddle is 'exceptional'
ROOT_ITERS = 30            # secant/bisection rounds per crossing edge
LEVEL_ARC_MAX_STEPS = 400000
_ROW_BLOCK = 16            # lattice rows per field evaluation in nodal_set


# ---------------------------------------------------------------------------
# marching squares on the torus
# ---------------------------------------------------------------------------

def _edge_roots(field, p0, p1, f0, f1, level):
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
    for it in range(ROOT_ITERS):
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


def _check_grid_res(grid_res):
    if not isinstance(grid_res, numbers.Integral):
        raise ValueError(f"grid_res {grid_res!r} must be an integer")
    if grid_res < 8:
        raise ValueError(f"grid_res {grid_res} must be at least 8")


def _lattice_values(field, g):
    """The field on the lattice g x g, one float per node, row by row.

    The field is evaluated _ROW_BLOCK whole rows at a time: a block of whole
    rows passes each row to the field as the same (n, 2) slice as the full
    lattice does, so every value is computed bit for bit as there.
    """
    n = len(g)
    raw = np.empty((n, n))
    block = np.empty((min(_ROW_BLOCK, n), n, 2))
    block[..., 1] = g
    for r in range(0, n, _ROW_BLOCK):
        rows = block[:n - r]
        rows[..., 0] = g[r:r + _ROW_BLOCK, None]
        raw[r:r + len(rows)] = field.value(rows)
    return raw.ravel()


def _cell_codes(raw, level, n):
    """The _CASES code of every lattice cell, a byte per cell."""
    up = (raw > level).reshape(n, n).view(np.uint8)
    right = np.roll(up, -1, 0)
    return (up | right << 1 | np.roll(right, -1, 1) << 2
            | np.roll(up, -1, 1) << 3).ravel()


def _segment_ends(field, g, step, level, cells, code):
    """Edge ids of the segment ends in the given cells, two per segment.

    g holds the lattice coordinates, step their spacing.  An edge id is the
    node id i*n + j for the edge from node (i, j) towards +x, and n*n + node
    id for the one towards +y.
    """
    n = len(g)
    i, j = np.divmod(cells, n)
    centre = np.zeros(len(cells), dtype=int)
    sad = (code == 5) | (code == 10)
    centre[sad] = field.value(
        np.stack([g[i[sad]] + 0.5 * step, g[j[sad]] + 0.5 * step], -1)) > level
    edges = np.stack([i * n + j, n * n + (i + 1) % n * n + j,
                      i * n + (j + 1) % n, n * n + i * n + j], -1)
    pairs = _CASES[code, centre].reshape(-1, 4)
    return np.take_along_axis(edges, pairs % 4, 1)[pairs >= 0]


def _lattice_crossings(field, n):
    """The lattice stage of nodal_set: the crossing edges of an n x n lattice.

    Returns None when no cell is cut, and otherwise (level, order, p0, p1,
    f0, f1): the shifted level, the argsort of the segment ends by edge id,
    and, one row per crossing edge in that order, its ends p0, p1 and the
    field values f0, f1 there.  Each lattice-sized array dies with the
    helper that makes it, and the float lattice on return.
    """
    g = np.arange(n) / n * torus.PERIOD
    step = torus.PERIOD / n
    raw = _lattice_values(field, g)
    # an infinitesimal level shift removes exact zeros at lattice points and
    # splits nodal crossings at saddles into separate branches
    level = 1e-9 * max(1.0, float(max(raw.max(), -raw.min())))
    code = _cell_codes(raw, level, n)
    cells = np.flatnonzero((code != 0) & (code != 15))
    if not len(cells):
        return None
    code = code[cells]
    ends = _segment_ends(field, g, step, level, cells, code)
    # sorting the segment ends pairs up the two ends on each crossing edge
    order = np.argsort(ends, kind="stable")
    vert, node = np.divmod(ends[order[0::2]], n * n)
    ei, ej = np.divmod(node, n)
    p0 = np.stack([g[ei], g[ej]], -1)
    p1 = p0 + np.where(vert[:, None] == 1, [0.0, step], [step, 0.0])
    far = np.where(vert == 1, ei * n + (ej + 1) % n, (ei + 1) % n * n + ej)
    return level, order, p0, p1, raw[node], raw[far]


def nodal_set(field, grid_res):
    """Zero contours of the field as polylines on the torus.

    Returns a list of arrays of continuous (unwrapped) coordinates.  Every
    crossing edge of the lattice borders two cells, so each polyline is a
    closed loop that repeats its first point (up to a period shift for a
    loop that winds around the torus).  Empty when the field has a fixed
    sign.  ``grid_res`` must be an integer, at least 8.

    The lattice stage holds one float per lattice node and a byte per cell,
    beyond the output; it hands on only the crossing edges, so the root
    refinement and the loop walk hold O(crossings) data.
    """
    _check_grid_res(grid_res)
    crossings = _lattice_crossings(field, int(grid_res))
    if crossings is None:
        return []
    level, order, p0, p1, f0, f1 = crossings
    partner = np.empty_like(order)
    partner[order[0::2]], partner[order[1::2]] = order[1::2], order[0::2]
    row = np.empty_like(order)
    row[order] = np.arange(len(order)) // 2
    roots = _edge_roots(field, p0, p1, f0, f1, level)

    # walk each loop from its first segment s: end 2s+1 leads to its
    # partner end, whose other end leads on
    nxt = (partner ^ 1).tolist()
    used = np.zeros(len(order) // 2, dtype=bool)
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
    """Edges where f == level on a closed polygon, in chain order.

    Returns (k, point) pairs: a vertex k on the level counts as it is, at
    edge k; each edge k whose ends straddle the level is refined by its own
    one-row _edge_roots call, which evaluates the field bit for bit as a
    single point does (a batched evaluation can differ in the last bit and
    move the cut).
    """
    raw = field.value(polygon)
    f0, f1 = raw[:-1] - level, raw[1:] - level
    on = f0 == 0.0
    straddle = ~on & ((f0 > 0) != (f1 > 0))
    return [(k, polygon[k].copy() if on[k] else
             _edge_roots(field, polygon[k:k + 1], polygon[k + 1:k + 2],
                         raw[k:k + 1], raw[k + 1:k + 2], level)[0])
            for k in np.flatnonzero(on | straddle)]


def level_arc_in_face(field, face, level, saddle_positions=()):
    """Trace the level line f == level through the interior of a face.

    Level lines of a Morse function restricted to one face are single arcs
    with both endpoints on the boundary.  Raises ExceptionalLevel when an
    endpoint falls onto a saddle point.
    """
    return _level_arc(field, face.polygon, level, saddle_positions)[1]


def _onto_level(field, x, level, steps):
    """Move the point x onto f == level by ``steps`` gradient Newton steps."""
    for _ in range(steps):
        g = field.gradient(x)
        x = x - (field.value(x) - level) * g / np.dot(g, g)
    return x


def _level_arc(field, polygon, level, saddle_positions):
    """The level arc in a face polygon, and the polygon edges of its ends.

    Returns (edges, arc): the arc runs from its end on polygon edge
    edges[0] to its end on edges[1], in chain order.
    """
    hits = _boundary_crossings(field, polygon, level)
    if len(hits) != 2:
        # an arc has two ends; more crossings mean the level passes a
        # saddle corner of the face
        raise ExceptionalLevel(
            f"level {level} meets the face boundary {len(hits)} times")
    (ka, A), (kb, B) = hits
    for s in saddle_positions:
        if min(torus.dist(s, torus.wrap(A)), torus.dist(s, torus.wrap(B))) \
                < SADDLE_LEVEL_TOL:
            raise ExceptionalLevel(
                f"level {level} passes through a saddle point")

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
    for it in range(LEVEL_ARC_MAX_STEPS):
        x_try = _onto_level(field, x + h * prev_tan, level, 3)
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
    return np.array([ka, kb]), np.array(pts)


# ---------------------------------------------------------------------------
# intersections of two polyline families on the torus
# ---------------------------------------------------------------------------

POLYLINE_COARSEN = 10      # stride of the first family's chords
SECANT_ARC = 0.012         # half-length of the direction secants


def polyline_intersections(lines_a, lines_b):
    """Intersection points between two families of curves on the torus.

    Returns (point, dir_a, dir_b) triples where the directions are local
    secants of each curve over +-SECANT_ARC around the crossing, ordered by
    the segment of lines_b, then of lines_a, and none when either family is
    empty.  Input polylines are continuous (unwrapped) coordinate arrays;
    lines_a is tested on chords over every POLYLINE_COARSEN-th sample.
    """
    def secant(lines, sums, k, idx):
        pts = lines[k]
        if k not in sums:   # one arc-length sum per polyline with a hit
            sums[k] = geometry.arc_lengths(pts)
        cs = sums[k]
        s0 = cs[min(idx, len(cs) - 1)]
        i0 = np.searchsorted(cs, max(0.0, s0 - SECANT_ARC))
        i1 = min(np.searchsorted(cs, s0 + SECANT_ARC), len(pts) - 1)
        v = pts[i1] - pts[i0]
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else v

    if not (len(lines_a) and len(lines_b)):
        return []
    la, ka, p0, p1 = geometry.chords(lines_a, POLYLINE_COARSEN)
    lb, kb, q0, q1 = geometry.chords(lines_b, 1)
    ib, ia, shift = geometry.candidate_pairs(q0, q1, p0, p1)
    # translate each candidate segment of a into the raw frame of b's
    a0, a1 = p0[ia] + shift, p1[ia] + shift
    hit, t = geometry.segment_hits(a0, a1, q0[ib], q1[ib], -1e-12)
    ib, ia, t = ib[hit], ia[hit], t[hit]
    pts = torus.wrap(a0[hit] + t[:, None] * (a1[hit] - a0[hit]))
    # adjacent segments hitting the same crossing give duplicates
    keep = torus.distinct(pts, 1e-6)
    sums_a, sums_b = {}, {}
    return [(pt, secant(lines_a, sums_a, la[i], ka[i]),
             secant(lines_b, sums_b, lb[j], kb[j]))
            for pt, i, j in zip(pts[keep], ia[keep], ib[keep])]
