"""Contour extraction: nodal sets on the periodic torus and level arcs
inside a single face.

The nodal set is found by marching squares on a periodic lattice with the
crossing points refined on the exact field; level lines used for cusp
truncation are traced by a predictor-corrector walker that stays inside a
given face polygon.
"""

import numpy as np

from . import geometry, torus
from .errors import ExceptionalLevel

SADDLE_LEVEL_TOL = 1e-3    # crossing this close to a saddle is 'exceptional'


# ---------------------------------------------------------------------------
# marching squares on the torus
# ---------------------------------------------------------------------------

def _edge_root(field, p0, p1, f0, f1, level=0.0, iters=30):
    """Root of f - level on the segment p0-p1 (scalar bisection/secant mix)."""
    a, b = 0.0, 1.0
    fa, fb = f0 - level, f1 - level
    best_t, best_f = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
    for it in range(iters):
        if fb == fa or it % 3 == 2:   # interleave bisection to shrink the bracket
            t = 0.5 * (a + b)
        else:
            t = a - fa * (b - a) / (fb - fa)
        if not (a < t < b):
            t = 0.5 * (a + b)
        ft = field.value(p0 + t * (p1 - p0)) - level
        if abs(ft) < best_f:
            best_t, best_f = t, abs(ft)
        if ft == 0.0:
            return t
        if (ft > 0) == (fa > 0):
            a, fa = t, ft
        else:
            b, fb = t, ft
        if b - a < 1e-14:
            break
    return best_t


def nodal_set(field, grid_res=512, level=0.0):
    """Zero contours of the field as polylines on the torus.

    Returns a list of arrays of continuous (unwrapped) coordinates; closed
    loops repeat their first point (up to a period shift for loops that wind
    around the torus).  Empty when the field has a fixed sign.
    """
    n = int(grid_res)
    g = np.arange(n) / n * torus.PERIOD
    step = torus.PERIOD / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    raw = field.value(np.stack([X, Y], axis=-1))
    # an infinitesimal level shift removes exact zeros at lattice points and
    # splits nodal crossings at saddles into separate branches
    bias = 1e-9 * max(1.0, float(np.max(np.abs(raw))))
    level = level + bias
    F = raw - level
    S = F > 0

    # crossing edges: ('h', i, j) from node (i,j) towards +x, ('v',i,j) towards +y
    cross = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key in cross:
            return key
        p0 = np.array([g[i], g[j]])
        p1 = p0 + (np.array([step, 0.0]) if kind == "h" else np.array([0.0, step]))
        i1, j1 = ((i + 1) % n, j) if kind == "h" else (i, (j + 1) % n)
        t = _edge_root(field, p0, p1, F[i, j] + level, F[i1, j1] + level, level)
        cross[key] = p0 + t * (p1 - p0)
        return key

    segments = []
    for i in range(n):
        i1 = (i + 1) % n
        for j in range(n):
            j1 = (j + 1) % n
            code = (int(S[i, j]) | int(S[i1, j]) << 1
                    | int(S[i1, j1]) << 2 | int(S[i, j1]) << 3)
            if code in (0, 15):
                continue
            bottom = ("h", i, j)
            right = ("v", i1, j)
            top = ("h", i, j1)
            left = ("v", i, j)
            # unordered connections; corners are c0=(i,j) c1=(i1,j) c2=(i1,j1) c3=(i,j1)
            pairs = {
                1: [(bottom, left)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(left, top)],
                8: [(top, left)], 9: [(bottom, top)], 11: [(right, top)],
                12: [(left, right)], 13: [(bottom, right)], 14: [(bottom, left)],
            }
            if code in (5, 10):
                center = field.value(np.array([g[i] + 0.5 * step,
                                               g[j] + 0.5 * step])) - level
                if code == 5:
                    segs = ([(bottom, right), (top, left)] if center > 0
                            else [(bottom, left), (right, top)])
                else:
                    segs = ([(bottom, left), (right, top)] if center > 0
                            else [(bottom, right), (top, left)])
            else:
                segs = pairs[code]
            for a, b in segs:
                segments.append((edge_point(*a), edge_point(*b)))

    if not segments:
        return []

    # chain segments into polylines via shared edge keys
    adj = {}
    for si, (a, b) in enumerate(segments):
        adj.setdefault(a, []).append(si)
        adj.setdefault(b, []).append(si)
    used = np.zeros(len(segments), dtype=bool)
    polylines = []
    for s0 in range(len(segments)):
        if used[s0]:
            continue
        used[s0] = True
        a0, b0 = segments[s0]
        keys = [a0, b0]
        # extend forward then backward
        for end in (1, 0):
            while True:
                tip = keys[-1] if end == 1 else keys[0]
                nxt = [si for si in adj[tip] if not used[si]]
                if not nxt:
                    break
                si = nxt[0]
                used[si] = True
                a, b = segments[si]
                new = b if a == tip else a
                if end == 1:
                    keys.append(new)
                else:
                    keys.insert(0, new)
        pts = np.array([cross[k] for k in keys])
        # make coordinates continuous along the polyline
        out = [pts[0]]
        for p in pts[1:]:
            out.append(torus.nearest_lift(p, out[-1]))
        polylines.append(np.array(out))
    return polylines


# ---------------------------------------------------------------------------
# level arcs inside one face
# ---------------------------------------------------------------------------

def _boundary_crossings(field, polygon, level):
    """Points where f == level on a closed polygon, by sign scan + refinement."""
    vals = field.value(polygon) - level
    pts = []
    for k in range(len(polygon) - 1):
        f0, f1 = vals[k], vals[k + 1]
        if f0 == 0.0:
            pts.append((k, polygon[k].copy()))
        elif (f0 > 0) != (f1 > 0):
            t = _edge_root(field, polygon[k], polygon[k + 1],
                           f0 + level, f1 + level, level)
            pts.append((k, polygon[k] + t * (polygon[k + 1] - polygon[k])))
    return pts


def level_arc_in_face(field, face, level, saddle_positions=(),
                      max_steps=400000):
    """Trace the level line f == level through the interior of a face.

    Level lines of a Morse function restricted to one face are single arcs
    with both endpoints on the boundary.  Raises ExceptionalLevel when an
    endpoint falls onto a saddle point.
    """
    polygon = face.polygon
    hits = _boundary_crossings(field, polygon, level)
    if len(hits) < 2:
        raise ExceptionalLevel(
            f"level {level} meets the face boundary {len(hits)} times")
    if len(hits) > 2:
        # keep the two extreme crossings along the chain; extra pairs indicate
        # a level passing a saddle corner
        raise ExceptionalLevel(
            f"level {level} meets the face boundary {len(hits)} times")
    (_, A), (_, B) = hits
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
    def segs_of(lines, stride):
        line, start, p0, p1 = [], [], [], []
        for li, pts in enumerate(lines):
            p = pts[::stride]
            if not np.array_equal(p[-1], pts[-1]):
                p = np.vstack([p, pts[-1]])
            line.append(np.full(len(p) - 1, li))
            start.append(stride * np.arange(len(p) - 1))
            p0.append(p[:-1])
            p1.append(p[1:])
        return (np.concatenate(line), np.concatenate(start),
                np.concatenate(p0), np.concatenate(p1))

    def secant(pts, idx, arc):
        cum = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cs = np.concatenate([[0.0], np.cumsum(cum)])
        s0 = cs[min(idx, len(cs) - 1)]
        i0 = np.searchsorted(cs, max(0.0, s0 - arc))
        i1 = min(np.searchsorted(cs, s0 + arc), len(pts) - 1)
        v = pts[i1] - pts[i0]
        nv = np.linalg.norm(v)
        return v / nv if nv > 0 else v

    la, ka, p0, p1 = segs_of(lines_a, POLYLINE_COARSEN)
    lb, kb, q0, q1 = segs_of(lines_b, 1)
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
