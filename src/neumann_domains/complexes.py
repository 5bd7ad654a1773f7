"""Assembly of the Neumann complex on the torus.

The traced lines of all saddles form an embedded graph whose vertices are the
critical points.  Faces are extracted combinatorially from the rotation
system (cyclic order of line-ends around each vertex) and then realized as
closed polygons in the plane by lifting along the boundary chain.  On a
Morse-Smale surface each face is a quadrangle whose closure carries exactly
one maximum and one minimum, so the extrema are read off the critical points
at the nodes of its boundary chain.
"""

import functools
import json

import numpy as np

from . import geometry, torus
from .contours import _onto_level, polyline_intersections
from .critical import (MIN, MAX, SADDLE, SEED_GRID, cusp_exponent,
                       euler_check, find_critical_points)
from .errors import (DegreeTooSmall, EulerMismatch, LineCrossing,
                     UnknownCriticalPoint)
from .flow import trace_all_neumann_lines

CUSP_FIT_RADIUS = 0.1
CUSP_FIT_R2 = 0.99
CROSSING_COARSEN = 10      # every n-th line sample is a coarse chord node
REPORT_DECIMATE = 10       # every n-th line sample goes into the report
NODAL_SADDLE_RADIUS = 1e-2  # nodal crossings this close to a saddle sit on it
NODAL_SECANT_ARC = 0.01    # half-length of the nodal secant at other crossings
REGULAR, CRACKED, DOUBLY_CRACKED = "regular", "cracked", "doublyCracked"


class NeumannDomain:
    """One face of the partition: boundary chain, extrema, classification.

    The face stores its boundary as its ``chain`` of darts into the traced
    ``lines`` it shares with the complex, plus one period ``offsets`` row
    per dart that lifts that line into the plane; it holds no copy of the
    samples.  Each access to ``pieces`` or ``polygon`` lifts the lines
    afresh into new arrays, so a loop that reads them many times binds
    them once.
    """

    def __init__(self, index, chain, lines, offsets, vertex_seq):
        self.index = index
        self.chain = chain                  # list of darts (2*line + orient)
        self.lines = lines                  # the complex's traced lines
        self.offsets = offsets              # period shift per dart, (n, 2)
        self.vertex_seq = vertex_seq        # critical index at each chain node
        self.max_index = None
        self.min_index = None
        self.saddle_indices = []
        self.classification = None
        self.crack_line_ids = []
        self.cusps = []
        self.area = geometry.polygon_area(self.polygon)

    @property
    def pieces(self):
        """Lifted polyline per dart, the last one ending on the first point."""
        pieces = [_oriented_from_origin(self.lines, d) + off
                  for d, off in zip(self.chain, self.offsets)]
        # the lift closes to 1e-6; snap the closure exactly
        pieces[-1][-1] = pieces[0][0]
        return pieces

    @property
    def polygon(self):
        """Closed boundary polygon: the pieces joined at their shared ends."""
        pieces = self.pieces
        return np.vstack([pieces[0]] + [p[1:] for p in pieces[1:]])

    def to_dict(self):
        return {
            "chain": [[int(d // 2), int(d % 2)] for d in self.chain],
            "vertices": [int(v) for v in self.vertex_seq],
            "max": int(self.max_index),
            "min": int(self.min_index),
            "saddles": [int(s) for s in self.saddle_indices],
            "classification": self.classification,
            "crack_lines": [int(i) for i in self.crack_line_ids],
            "cusps": [dict(c) for c in self.cusps],
            "area": float(self.area),
        }


class NeumannComplex:
    """The Neumann partition: critical points, lines, and domains."""

    def __init__(self, field, critical_points, lines, faces, incidence):
        self.field = field
        self.critical_points = critical_points
        self.lines = lines
        self.faces = faces
        self.incidence = incidence   # crit index -> darts leaving it, CCW

    # -- elementary queries ---------------------------------------------------

    def degree(self, c):
        idx = self._resolve(c)
        return len(self.incidence[idx])

    def _resolve(self, c):
        idx = c if isinstance(c, (int, np.integer)) else getattr(c, "index", None)
        if idx is None or not (0 <= idx < len(self.critical_points)):
            raise UnknownCriticalPoint(f"no critical point {c!r} in this complex")
        return int(idx)

    def is_morse_smale(self):
        """True iff no Neumann line joins two saddle points."""
        return not any(self.critical_points[ln.end_index].kind == SADDLE
                       for ln in self.lines)

    def angles_at(self, c):
        """Angles between consecutive incident lines at a critical point.

        Tangent directions come from the traced geometry close to the point:
        launch chords at saddles, each line's ``end_tangent`` at extrema (the
        extrapolated limit tangent, the chord at FAST_AXIS_RADIUS, or the
        capture chord).  So the values carry the integration error; they are
        listed in cyclic order and sum to 2*pi.
        """
        idx = self._resolve(c)
        darts = self.incidence[idx]
        if len(darts) < 2:
            raise DegreeTooSmall(f"degree {len(darts)} at critical point {idx}")
        angs = np.array([_leaving_angle(self.lines, d) for d in darts])
        angs = np.sort(np.mod(angs, 2 * np.pi))
        gaps = np.diff(np.concatenate([angs, [angs[0] + 2 * np.pi]]))
        return gaps

    # -- export ----------------------------------------------------------------

    def to_dict(self):
        lines = []
        for ln in self.lines:
            pts = ln.samples[geometry.stride_indices(len(ln.samples),
                                                     REPORT_DECIMATE)]
            lines.append({
                "start": int(ln.start_index),
                "end": int(ln.end_index),
                "direction": ln.direction,
                "length": float(ln.length),
                "points": np.round(torus.wrap(pts), 9).tolist(),
            })
        return {
            "critical_points": [c.to_dict() for c in self.critical_points],
            "lines": lines,
            "faces": [f.to_dict() for f in self.faces],
            "counts": {"V": len(self.critical_points), "E": len(self.lines),
                       "F": len(self.faces)},
        }

    def to_json(self, path=None):
        s = json.dumps(self.to_dict(), sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s + "\n")
        return s


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _oriented_from_origin(lines, dart):
    ln = lines[dart // 2]
    return ln.samples if dart % 2 == 0 else ln.samples[::-1]


def _leaving_angle(lines, dart, cp=None):
    """Angle at which the dart leaves its origin critical point.

    The traced geometry gives the direction: the launch chord at the start
    (a saddle), the recorded end tangent at the captured end.  Given an
    extremum ``cp`` whose Hessian is not proportional, the direction snaps
    to ``cp``'s nearest half-axis, so the angle names the dart's sector.
    """
    ln = lines[dart // 2]
    v = ln.samples[1] - ln.samples[0] if dart % 2 == 0 else ln.end_tangent
    if cp is not None and cp.is_extremum and not cp.is_hess_proportional:
        v = cp.half_axes[cp.nearest_half_axis(v)]
    return float(np.arctan2(v[1], v[0]))


TIE_SEP_TOL = 1e-3        # first transverse separation that orders a sector


def _walk(lines, dart_a, dart_b):
    """dart_a's samples and dart_b's displacement from them at equal arc
    length from their common origin, up to the end of the shorter dart."""
    pa = _oriented_from_origin(lines, dart_a)
    pb = _oriented_from_origin(lines, dart_b)
    n = min(len(pa), len(pb))
    return pa[:n], pb[:n] + torus.period_shift(pa[0] - pb[0]) - pa[:n]


def _tie_break_ccw(lines, dart_a, dart_b):
    """True when dart_b leaves the common origin counterclockwise of dart_a.

    Lines in one sector collapse onto a common half-axis and cannot be told
    apart by direction, but they cannot cross, so their angular order is
    decided by the sign of the first transverse separation along the walk.
    """
    pa, d = _walk(lines, dart_a, dart_b)
    t, d = pa[1:] - pa[:-1], d[:-1]
    dperp = (t[:, 0] * d[:, 1] - t[:, 1] * d[:, 0]) \
        / np.maximum(np.linalg.norm(t, axis=1), 1e-300)
    big = np.abs(dperp) > TIE_SEP_TOL
    k = int(np.argmax(big)) if big.any() else int(np.argmax(np.abs(dperp)))
    return dperp[k] > 0


def _rotation(lines, darts, key):
    """The darts leaving one critical point, counterclockwise: by sector
    angle ``key[d]``, and within one sector by ``_tie_break_ccw``'s walk."""
    def cmp(a, b):
        tie = key[a] == key[b] and _tie_break_ccw(lines, a, b)
        return -1 if key[a] < key[b] or tie else 1
    return sorted(darts, key=functools.cmp_to_key(cmp))


def _face_walk(darts_at):
    """Orbits of d -> predecessor of d ^ 1 in the cyclic order at its head.

    The map is a bijection on the darts, so every orbit closes.
    """
    pos = {}
    for v, ds in darts_at.items():
        for i, d in enumerate(ds):
            pos[d] = (v, i)
    faces = []
    seen = set()
    for d0 in sorted(pos):
        if d0 in seen:
            continue
        chain = [d0]
        while True:
            v, i = pos[chain[-1] ^ 1]
            d = darts_at[v][i - 1]          # i - 1 = -1 wraps to the last
            if d == d0:
                break
            chain.append(d)
        seen.update(chain)
        faces.append(chain)
    return faces


def _lift_chain(lines, chain):
    """Period offsets that lift a boundary chain to contiguous polylines.

    Returns (offsets, vertex_seq): one offset row per dart, and the critical
    index at each chain node.  Each dart starts where the last one ends (the
    face walk joins them at a vertex, and every line ends exactly on its
    critical points), so only the closure can fail: EulerMismatch is raised
    when the lifted chain winds around the torus and does not close.
    """
    offsets = []
    vertex_seq = []
    first = cur = torus.wrap(_oriented_from_origin(lines, chain[0])[0])
    for d in chain:
        pts = _oriented_from_origin(lines, d)
        ln = lines[d // 2]
        vertex_seq.append(ln.start_index if d % 2 == 0 else ln.end_index)
        off = torus.period_shift(cur - pts[0])
        offsets.append(off)
        cur = pts[-1] + off
    if np.linalg.norm(cur - first) > 1e-6:
        raise EulerMismatch("face boundary does not close in the plane")
    return np.array(offsets), vertex_seq


COINCIDENCE_TOL = 2e-3     # curves closer than this over the whole window
                           # are tangential contact, not a crossing
FINE_RADIUS = 0.05         # half-width of the window confirming a crossing


def _fine_crossing(lines, li, lj, near):
    """Confirm a coarse chord intersection on the full-resolution polylines.

    Coarse chords of two curves in a close (but disjoint) approach can cross
    even when the curves do not, so candidates are re-tested at sampling
    resolution.  Distinct flow lines cannot cross at all; they can however
    collapse onto a common slow manifold and braid within tracing noise, so
    an intersection only counts when the curves genuinely separate inside
    the window (a transversal crossing signals integrator failure).
    """
    def window(ln):
        # the samples near ``near``, lifted into the period cell of ``near``
        pts = ln.samples
        ref = torus.nearest_lift(near, pts[len(pts) // 2])
        keep = np.linalg.norm(pts - ref, axis=1) < FINE_RADIUS
        idx = np.flatnonzero(keep[:-1] & keep[1:])
        shift = near - ref
        return pts[idx] + shift, pts[idx + 1] + shift

    a0, a1 = window(lines[li])
    b0, b1 = window(lines[lj])
    hit, _ = geometry.segment_hits(a0[:, None], a1[:, None], b0, b1, 1e-9)
    if not hit.any():
        return False
    pa = np.vstack([a0, a1[-1:]])
    pb = np.vstack([b0, b1[-1:]])
    d_ab = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1),
                  axis=1)
    return bool(np.max(d_ab) >= COINCIDENCE_TOL)


def _check_crossings(lines):
    """Raise LineCrossing if two traced lines cross.

    Flow lines meet only at the critical points where they end, so a contact
    is a crossing unless it lies in a needle into a shared end: there the
    two lines may converge and touch within tracing noise, and a contact is
    no crossing when they stay within COINCIDENCE_TOL of each other from it
    all the way to that end.
    """
    owner, first, a0, a1 = geometry.chords([ln.samples for ln in lines],
                                           CROSSING_COARSEN)
    i, j, shift = geometry.candidate_pairs(a0, a1)
    other = owner[i] != owner[j]
    i, j, shift = i[other], j[other], shift[other]
    hit, t = geometry.segment_hits(a0[i], a1[i], a0[j] + shift, a1[j] + shift,
                                   1e-9)
    i, j, t = i[hit], j[hit], t[hit]
    xw = torus.wrap(a0[i] + t[:, None] * (a1[i] - a0[i]))
    ends = [{ln.start_index, ln.end_index} for ln in lines]
    # the contact's sample on line owner[i]; samples are uniform in arc length
    last = np.array([len(ln.samples) - 1 for ln in lines])[owner[i]]
    at = first[i] + np.rint(
        t * np.minimum(CROSSING_COARSEN, last - first[i])).astype(int)
    spread = {}       # dart pair -> running maximum of their walk's gap

    def in_needle(li, lj, s, k):
        da, db = (2 * m + (lines[m].start_index != s) for m in (li, lj))
        if (da, db) not in spread:
            _, gap = _walk(lines, da, db)
            spread[da, db] = np.maximum.accumulate(np.linalg.norm(gap, axis=1))
        k = k if da % 2 == 0 else len(lines[li].samples) - 1 - k
        return k < len(spread[da, db]) and spread[da, db][k] < COINCIDENCE_TOL

    for x, li, lj, k in zip(xw, owner[i], owner[j], at):
        if any(in_needle(li, lj, s, k) for s in ends[li] & ends[lj]):
            continue
        if _fine_crossing(lines, li, lj, x):
            raise LineCrossing(f"lines {li} and {lj} cross near {x}")


def _fit_cusp_exponent(pieces, k, cp):
    """Log-log fit of the boundary pair separation near a cusp vertex.

    ``pieces`` are a face's lifted pieces and the cusp is the start of
    piece k.  Both boundary curves leave the cusp tangent to the slow
    Hessian axis; their transverse separation grows like xi**alpha.
    Returns (alpha, r2).
    """
    piece_out = pieces[k]                           # leaves the vertex
    piece_in = pieces[k - 1][::-1]                  # reversed: also leaves it
    slow, fast = cp.slow_axis, cp.fast_axis
    origin = piece_out[0]

    def local(pts):
        d = pts - origin
        return d @ slow, d @ fast

    xi_o, up_o = local(piece_out)
    head = slice(1, max(4, len(xi_o) // 10))
    if np.mean(xi_o[head]) < 0:
        slow = -slow
        xi_o, up_o = local(piece_out)
    xi_i, up_i = local(piece_in)

    def clip(xi, up):
        # contiguous prefix of the outgoing curve inside the fit radius
        r = np.hypot(xi, up)
        n = len(r)
        stop = np.searchsorted(np.maximum.accumulate(r), CUSP_FIT_RADIUS)
        m = np.zeros(n, dtype=bool)
        m[:stop] = True
        m &= xi > 0
        return xi[m], up[m]

    xi_o, up_o = clip(xi_o, up_o)
    xi_i, up_i = clip(xi_i, up_i)
    if len(xi_o) < 8 or len(xi_i) < 8:
        return None, 0.0
    xmax = min(xi_o.max(), xi_i.max())
    xmin = max(1e-2 * xmax, xi_o[xi_o > 0].min(), xi_i[xi_i > 0].min())
    grid = np.geomspace(xmin * 1.2, xmax * 0.9, 40)
    so = np.argsort(xi_o)
    si = np.argsort(xi_i)
    u1 = np.interp(grid, xi_o[so], up_o[so])
    u2 = np.interp(grid, xi_i[si], up_i[si])
    sep = np.abs(u1 - u2)
    ok = sep > 1e-12
    if ok.sum() < 10:
        return None, 0.0
    lx, ly = np.log(grid[ok]), np.log(sep[ok])
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - (res[0] / ss_tot if len(res) and ss_tot > 0 else 0.0)
    return float(coef[0]), float(r2)


def _attach_extrema(face, cps):
    """Read the face's maximum and minimum off its boundary chain.

    A Morse-Smale cell carries exactly one of each on its closure; any other
    count means the rotation system or the traced lines are wrong.
    """
    maxima = {v for v in face.vertex_seq if cps[v].kind == MAX}
    minima = {v for v in face.vertex_seq if cps[v].kind == MIN}
    if len(maxima) != 1 or len(minima) != 1:
        raise EulerMismatch(
            f"face {face.index}: {len(maxima)} maxima and {len(minima)} "
            "minima on the boundary chain, expected one of each")
    face.max_index = int(maxima.pop())
    face.min_index = int(minima.pop())


def build_complex(field, seed_grid=SEED_GRID):
    """Trace the Neumann line set and assemble the partition of the torus.

    Raises EulerMismatch if the census breaks #min - #saddles + #max = 0,
    if V - E + F != 0, if a face walks clockwise or if a face boundary does
    not close in the plane, and LineCrossing if two traced lines cross: a
    contact is a crossing unless it lies in a needle into a shared end.
    """
    cps = find_critical_points(field, seed_grid)
    if not euler_check(cps):
        # a census that missed an extremum would send the tracer after a
        # line end that is in no census, which once ran without returning
        n = {k: sum(c.kind == k for c in cps) for k in (MIN, SADDLE, MAX)}
        raise EulerMismatch(
            f"census counts {n[MIN]} min, {n[SADDLE]} saddles and {n[MAX]} "
            f"max, so #min - #saddles + #max = "
            f"{n[MIN] - n[SADDLE] + n[MAX]} != 0")
    saddles = [c for c in cps if c.kind == SADDLE]
    groups = trace_all_neumann_lines(field, saddles, cps)
    lines = [ln for g in groups for ln in g]
    _check_crossings(lines)

    # rotation system: the darts leaving each vertex, counterclockwise
    darts_at = {}
    for li, ln in enumerate(lines):
        darts_at.setdefault(ln.start_index, []).append(2 * li)
        darts_at.setdefault(ln.end_index, []).append(2 * li + 1)
    # each dart's sector angle, read by the rotation and the cusp test alike
    key = {d: _leaving_angle(lines, d, cps[v])
           for v, ds in darts_at.items() for d in ds}
    darts_at = {v: _rotation(lines, ds, key) for v, ds in darts_at.items()}

    chains = _face_walk(darts_at)

    V, E, F = len(cps), len(lines), len(chains)
    if V - E + F != 0:
        raise EulerMismatch(f"V - E + F = {V} - {E} + {F} != 0")

    for c in cps:
        c.degree = len(darts_at.get(c.index, []))
    faces = []
    cx = NeumannComplex(field, cps, lines, faces, darts_at)
    # realize each chain as a polygon; its extrema are the maximum and
    # minimum among the critical points at the chain's nodes
    for fi, chain in enumerate(chains):
        offsets, vertex_seq = _lift_chain(lines, chain)
        face = NeumannDomain(fi, chain, lines, offsets, vertex_seq)
        if face.area < 0:
            # with counterclockwise rotations the walk keeps each face on
            # its left, so a clockwise face means a wrong rotation system
            raise EulerMismatch(f"face {fi} walks clockwise")
        faces.append(face)
        _attach_extrema(face, cps)
        face.saddle_indices = sorted({v for v in face.vertex_seq
                                      if cps[v].kind == SADDLE})
        counts = {}
        for d in face.chain:
            counts[d // 2] = counts.get(d // 2, 0) + 1
        face.crack_line_ids = sorted(li for li, n in counts.items() if n >= 2)
        dmax = cps[face.max_index].degree
        dmin = cps[face.min_index].degree
        if dmax >= 2 and dmin >= 2:
            face.classification = REGULAR
        elif dmax == 1 and dmin == 1:
            face.classification = DOUBLY_CRACKED
        else:
            face.classification = CRACKED

        # cusps: an extremum corner whose two boundary darts lie in one
        # sector, the crack tip's one dart walked up and back included
        n = len(face.chain)
        for k in range(n):
            vtx = face.vertex_seq[k]
            cp = cps[vtx]
            d_out = face.chain[k]
            d_in = face.chain[(k - 1) % n] ^ 1
            if not cp.is_extremum or key[d_out] != key[d_in]:
                continue
            a1 = _leaving_angle(lines, d_out)
            a2 = _leaving_angle(lines, d_in)
            gap = abs((a1 - a2 + np.pi) % (2 * np.pi) - np.pi)
            alpha_h = None if cp.is_hess_proportional else cusp_exponent(cp)
            alpha_fit, r2 = _fit_cusp_exponent(face.pieces, k, cp)
            face.cusps.append({
                "crit_index": vtx, "angle": float(gap),
                "alpha_hessian": alpha_h, "alpha_fit": alpha_fit,
                "r2": r2,
                "confirmed": bool(alpha_fit is not None and r2 > CUSP_FIT_R2),
            })
    return cx


# ---------------------------------------------------------------------------
# nodal set interplay
# ---------------------------------------------------------------------------

def nodal_neumann_angles(cx, nodal_polylines):
    """Meeting angles at intersections of the nodal set with Neumann lines.

    At a saddle the angle comes from the Hessian eigenframe against the nodal
    branch directions (the null directions of the Hessian quadratic form);
    elsewhere it is measured from symmetric on-curve secants of both traced
    curves around the crossing.  Returns (point, angle) pairs with angles in
    [0, pi/2], one per saddle however many nodal branches cross there; the
    other crossings are already 1e-6 apart on the torus.
    """
    field = cx.field
    crit_xy = np.array([c.position for c in cx.critical_points])
    out = []
    saddles_seen = set()
    hits = polyline_intersections(
        [ln.samples for ln in cx.lines], nodal_polylines)
    for (pt, va, vb) in hits:
        d = torus.dist(crit_xy, pt)
        j = int(np.argmin(d))
        cp = cx.critical_points[j]
        if d[j] < NODAL_SADDLE_RADIUS and cp.kind == SADDLE:
            # every nodal branch through the saddle gives the same record
            if j in saddles_seen:
                continue
            saddles_seen.add(j)
            h1, h2 = cp.hess_eigvals
            psi = np.arctan(np.sqrt(-h1 / h2))   # nodal branch vs eigenframe
            ang = min(psi, np.pi / 2 - psi)
            pt = cp.position.copy()
        else:
            # symmetric secant of the nodal curve: step +-arc along the raw
            # direction, project back onto the level set, difference
            level = float(field.value(pt))
            pa = _onto_level(field, pt + NODAL_SECANT_ARC * vb, level, 4)
            pb = _onto_level(field, pt - NODAL_SECANT_ARC * vb, level, 4)
            vn = pa - pb
            cb = np.arctan2(vn[1], vn[0])
            ca = np.arctan2(va[1], va[0])
            ang = abs((ca - cb + np.pi / 2) % np.pi - np.pi / 2)
        out.append((pt, float(ang)))
    return out
