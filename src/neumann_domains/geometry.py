"""Segment and polygon geometry shared by the complex, the contours and the
mesher.

One exact segment-segment test, the chords that stand in for sampled
polylines, one broad phase that finds the segment pairs that can
intersect (on the torus or in the plane), and the even-odd
point-in-polygon rule.  Every question "which segments intersect?" in the
package is answered here.
"""

import numpy as np
from scipy.spatial import cKDTree

from . import torus

PARALLEL_TOL = 1e-15    # |r x s| below this: parallel, no single crossing


def segment_hits(a0, a1, b0, b1, eps):
    """Crossings of segments a0-a1 with b0-b1; broadcasts over leading axes.

    Returns (hit, t) with t the parameter of the crossing along a.  A hit
    needs eps < t < 1 - eps and eps < u < 1 - eps, u the parameter along b:
    a positive eps ignores contacts at the endpoints, a negative one admits
    them.
    """
    r = a1 - a0
    s = b1 - b0
    qp = b0 - a0
    rxs = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    ok = np.abs(rxs) >= PARALLEL_TOL
    rxs = np.where(ok, rxs, 1.0)
    t = (qp[..., 0] * s[..., 1] - qp[..., 1] * s[..., 0]) / rxs
    u = (qp[..., 0] * r[..., 1] - qp[..., 1] * r[..., 0]) / rxs
    hit = ok & (eps < t) & (t < 1 - eps) & (eps < u) & (u < 1 - eps)
    return hit, t


def chords(lines, stride):
    """Chords over every stride-th sample of each polyline, plus its last.

    Returns (owner, start, p0, p1): the line and the first sample index of
    each chord, and its endpoints.  The last chord of a line ends at its
    last sample, so no stretch of a line is left out.
    """
    owner, start, p0, p1 = [], [], [], []
    for li, pts in enumerate(lines):
        idx = np.arange(0, len(pts), stride)
        if idx[-1] != len(pts) - 1:
            idx = np.append(idx, len(pts) - 1)
        owner.append(np.full(len(idx) - 1, li))
        start.append(idx[:-1])
        p0.append(pts[idx[:-1]])
        p1.append(pts[idx[1:]])
    return (np.concatenate(owner), np.concatenate(start),
            np.concatenate(p0), np.concatenate(p1))


def _tree(mid, periodic):
    if not periodic:
        return cKDTree(mid)
    mid = torus.wrap(mid)
    mid[mid >= torus.PERIOD] = 0.0      # np.mod(-tiny, P) rounds up to P
    return cKDTree(mid, boxsize=torus.PERIOD)


def candidate_pairs(a0, a1, b0=None, b1=None, periodic=True):
    """Index pairs (i, j) of segments a[i], b[j] that may intersect.

    Two segments can meet only if their midpoints lie within half the sum
    of their lengths, so a radius of the mean of the two families' longest
    segments misses no pair.  Without b the pairs are i < j within a.
    Pairs come sorted by i, then j, with the shift (a multiple of the
    period on the torus, zero in the plane) that carries b[j] next to a[i].
    """
    same = b0 is None
    if same:
        b0, b1 = a0, a1
    if not len(a0) or not len(b0):
        return (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp),
                np.empty((0, 2)))
    mid_a, mid_b = 0.5 * (a0 + a1), 0.5 * (b0 + b1)
    radius = 0.5 * (np.max(np.linalg.norm(a1 - a0, axis=1))
                    + np.max(np.linalg.norm(b1 - b0, axis=1)))
    radius *= 1.0 + 1e-9                # slack for the distance's rounding
    tree_a = _tree(mid_a, periodic)
    if same:
        ij = tree_a.query_pairs(radius, output_type="ndarray")
        i, j = ij[:, 0], ij[:, 1]
    else:
        m = tree_a.sparse_distance_matrix(_tree(mid_b, periodic), radius,
                                          output_type="ndarray")
        i, j = m["i"], m["j"]
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    shift = np.zeros((len(i), 2))
    if periodic:
        shift = torus.PERIOD * np.round((mid_a[i] - mid_b[j]) / torus.PERIOD)
    return i, j, shift


def _point_in_polygon(pts, poly):
    """Vectorized even-odd rule; poly closed (first == last).

    An edge is crossed by the rightward ray from a point whose y lies in the
    edge's half-open range [min(y0, y1), max(y0, y1)) and which lies left of
    the edge there.  With the points sorted by y, each edge's candidates are
    one contiguous run, so only the (edge, point) pairs that can cross are
    formed.
    """
    order = np.argsort(pts[:, 1], kind="stable")
    x, y = pts[order, 0], pts[order, 1]
    x0, y0 = poly[:-1, 0], poly[:-1, 1]
    x1, y1 = poly[1:, 0], poly[1:, 1]
    first = np.searchsorted(y, np.minimum(y0, y1))
    count = np.searchsorted(y, np.maximum(y0, y1)) - first
    edge = np.repeat(np.arange(len(x0)), count)
    run_start = np.cumsum(count) - count
    k = np.arange(len(edge)) - np.repeat(run_start - first, count)
    t = (y[k] - y0[edge]) / (y1[edge] - y0[edge])
    xi = x0[edge] + t * (x1[edge] - x0[edge])
    flips = np.bincount(k[x[k] < xi], minlength=len(pts))
    inside = np.empty(len(pts), dtype=bool)
    inside[order] = (flips & 1).astype(bool)
    return inside
