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
from .contours import polyline_intersections
from .critical import MIN, MAX, SADDLE, find_critical_points
from .errors import (DegreeTooSmall, EulerMismatch, LineCrossing,
                     ProportionalHessian, UnknownCriticalPoint)
from .flow import trace_all_neumann_lines

ORDER_RADIUS = 0.02        # radius at which departure angles order the darts
CUSP_ANGLE_THRESHOLD = np.deg2rad(5.0)
CUSP_FIT_RADIUS = 0.1
CUSP_FIT_R2 = 0.99
CROSSING_EXCLUSION = 5e-3  # ignore near-critical-point contacts
REGULAR, CRACKED, DOUBLY_CRACKED = "regular", "cracked", "doublyCracked"


class NeumannDomain:
    """One face of the partition: boundary chain, extrema, classification."""

    def __init__(self, index, chain, pieces, vertex_seq):
        self.index = index
        self.chain = chain                  # list of darts (2*line + orient)
        self.pieces = pieces                # lifted polyline per dart
        self.vertex_seq = vertex_seq        # critical index at each chain node
        self.polygon = np.vstack([pieces[0]] + [p[1:] for p in pieces[1:]])
        self.max_index = None
        self.min_index = None
        self.saddle_indices = []
        self.classification = None
        self.crack_line_ids = []
        self.cusps = []
        self.area = _polygon_area(self.polygon)

    def to_dict(self):
        def py(v):
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            return v

        return {
            "chain": [[int(d // 2), int(d % 2)] for d in self.chain],
            "vertices": [int(v) for v in self.vertex_seq],
            "max": int(self.max_index),
            "min": int(self.min_index),
            "saddles": [int(s) for s in self.saddle_indices],
            "classification": self.classification,
            "crack_lines": [int(i) for i in self.crack_line_ids],
            "cusps": [{k: py(v) for k, v in c.items()} for c in self.cusps],
            "area": float(self.area),
        }


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))


class NeumannComplex:
    """The Neumann partition: critical points, lines, and domains."""

    def __init__(self, field, critical_points, lines, faces, incidence):
        self.field = field
        self.critical_points = critical_points
        self.lines = lines
        self.faces = faces
        self.incidence = incidence   # crit index -> list of (dart, order_angle)

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
        return not any(ln.ends_at_saddle for ln in self.lines)

    def angles_at(self, c):
        """Angles between consecutive incident lines at a critical point.

        Tangent directions are measured from the traced geometry close to the
        point (launch chords at saddles, capture chords at extrema), so the
        values carry the integration error rather than being exact by
        construction.  The angles are listed in cyclic order and sum to 2*pi.
        """
        idx = self._resolve(c)
        darts = self.incidence[idx]
        if len(darts) < 2:
            raise DegreeTooSmall(f"degree {len(darts)} at critical point {idx}")
        angs = np.array([self._measure_angle(d) for d, _ in darts])
        angs = np.sort(np.mod(angs, 2 * np.pi))
        gaps = np.diff(np.concatenate([angs, [angs[0] + 2 * np.pi]]))
        return gaps

    def _measure_angle(self, dart):
        """Limit tangent direction of the dart at its origin critical point.

        At a saddle the first-sample chord is accurate; at an extremum the
        chord recorded at the (deep) capture radius serves as the tangent.
        Both come from the traced geometry, so the values carry the
        integration error rather than being exact by construction.
        """
        ln = self.lines[dart // 2]
        if dart % 2 == 0:
            v = ln.samples[1] - ln.samples[0]
        else:
            v = ln.end_tangent if ln.end_tangent is not None \
                else ln.samples[-2] - ln.samples[-1]
        return float(np.arctan2(v[1], v[0]))

    # -- export ----------------------------------------------------------------

    def to_dict(self, decimate=10):
        lines = []
        for ln in self.lines:
            pts = ln.samples[::decimate]
            if not np.array_equal(pts[-1], ln.samples[-1]):
                pts = np.vstack([pts, ln.samples[-1]])
            lines.append({
                "start": int(ln.start_index),
                "end": int(ln.end_index) if ln.end_index is not None else None,
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

    def to_json(self, path=None, decimate=10):
        s = json.dumps(self.to_dict(decimate=decimate), sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s + "\n")
        return s


def cusp_exponent(c):
    """Cusp exponent alpha >= 1 from the Hessian eigenvalue ratio."""
    if not c.is_extremum:
        raise ValueError("cusp exponent is defined at extrema only")
    if c.is_hess_proportional:
        raise ProportionalHessian(
            f"Hessian eigenvalues {tuple(c.hess_eigvals)} are proportional "
            "to the metric; exponent degenerates to 1")
    h = np.abs(c.hess_eigvals)
    return float(np.max(h) / np.min(h))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _departure_direction(line, dart, radius):
    """Direction in which the dart leaves its origin, probed at ``radius``."""
    r = min(radius, 0.45 * line.length)
    p = line.point_at_radius("start" if dart % 2 == 0 else "end", r)
    ref = line.samples[0] if dart % 2 == 0 else line.samples[-1]
    v = p - ref
    return np.arctan2(v[1], v[0])


def _oriented_from_origin(lines, dart):
    ln = lines[dart // 2]
    return ln.samples if dart % 2 == 0 else ln.samples[::-1]


TIE_ANGLE_TOL = 1e-3      # darts this close in probe angle get walked apart
TIE_SEP_TOL = 3e-6        # first transverse separation that counts


def _tie_break_ccw(lines, dart_a, dart_b):
    """True when dart_b leaves the common origin counterclockwise of dart_a.

    Lines that collapse onto a common slow manifold are indistinguishable at
    any fixed probe radius, but they cannot cross, so their angular order is
    decided by the sign of the first transverse separation along the walk.
    """
    pa = _oriented_from_origin(lines, dart_a)
    pb = _oriented_from_origin(lines, dart_b)
    pb = pb + torus.PERIOD * np.round((pa[0] - pb[0]) / torus.PERIOD)
    n = min(len(pa), len(pb))
    t = pa[1:n] - pa[:n - 1]
    d = pb[:n - 1] - pa[:n - 1]
    dperp = (t[:, 0] * d[:, 1] - t[:, 1] * d[:, 0]) \
        / np.maximum(np.linalg.norm(t, axis=1), 1e-300)
    big = np.abs(dperp) > TIE_SEP_TOL
    k = int(np.argmax(big)) if big.any() else int(np.argmax(np.abs(dperp)))
    return dperp[k] > 0


def _refine_tied_order(lines, ordered):
    """Re-sort angle-tied blocks of (dart, angle) pairs by the walk order."""
    n = len(ordered)
    if n < 2:
        return ordered
    angles = np.array([a for _, a in ordered])
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    # rotate so the largest gap sits at the list boundary
    start = (int(np.argmax(gaps)) + 1) % n
    items = [ordered[(start + k) % n] for k in range(n)]
    out = []
    block = [items[0]]
    cmp = functools.cmp_to_key(
        lambda x, y: -1 if _tie_break_ccw(lines, x[0], y[0]) else 1)
    for cur in items[1:]:
        if abs(cur[1] - block[-1][1]) < TIE_ANGLE_TOL:
            block.append(cur)
        else:
            out.extend(sorted(block, key=cmp) if len(block) > 1 else block)
            block = [cur]
    out.extend(sorted(block, key=cmp) if len(block) > 1 else block)
    return out


def _face_walk(darts_at, rev):
    """Orbits of d -> predecessor of rev(d) in the cyclic order at its head."""
    pos = {}
    for v, ds in darts_at.items():
        for i, (d, _) in enumerate(ds):
            pos[d] = (v, i)
    head = {}
    for v, ds in darts_at.items():
        for d, _ in ds:
            head[rev(d)] = v
    faces = []
    seen = set()
    for d0 in sorted(pos):
        if d0 in seen:
            continue
        chain = []
        d = d0
        while True:
            chain.append(d)
            seen.add(d)
            r = rev(d)
            v, i = pos[r]
            ds = darts_at[v]
            d = ds[(i - 1) % len(ds)][0]
            if d == d0:
                break
            if len(chain) > 10 * len(pos):
                raise EulerMismatch("face walk did not close")
        faces.append(chain)
    return faces


def _lift_chain(lines, chain):
    """Realize a boundary chain as contiguous polylines in the plane."""
    pieces = []
    vertex_seq = []
    cur = None
    for d in chain:
        ln = lines[d // 2]
        pts = ln.samples if d % 2 == 0 else ln.samples[::-1]
        start_idx = ln.start_index if d % 2 == 0 else ln.end_index
        vertex_seq.append(start_idx)
        if cur is None:
            cur = torus.wrap(pts[0])
        off = torus.PERIOD * np.round((cur - pts[0]) / torus.PERIOD)
        if np.linalg.norm(pts[0] + off - cur) > 1e-6:
            raise EulerMismatch("boundary chain does not lift continuously")
        lifted = pts + off
        pieces.append(lifted)
        cur = lifted[-1]
    first = pieces[0][0]
    if np.linalg.norm(cur - first) > 1e-6:
        raise EulerMismatch("face boundary does not close in the plane")
    # snap the closure exactly
    pieces[-1] = pieces[-1].copy()
    pieces[-1][-1] = first
    return pieces, vertex_seq


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


def _check_crossings(lines, critical_points, coarsen=10):
    """Raise LineCrossing if two lines intersect away from critical points."""
    owner, _, a0, a1 = geometry.chords([ln.samples for ln in lines], coarsen)
    i, j, shift = geometry.candidate_pairs(a0, a1)
    other = owner[i] != owner[j]
    i, j, shift = i[other], j[other], shift[other]
    hit, t = geometry.segment_hits(a0[i], a1[i], a0[j] + shift, a1[j] + shift,
                                   1e-9)
    i, j, t = i[hit], j[hit], t[hit]
    xw = torus.wrap(a0[i] + t[:, None] * (a1[i] - a0[i]))
    crit_xy = np.array([c.position for c in critical_points])
    dists = torus.pairwise_dist(xw, crit_xy)
    ends = [{ln.start_index, ln.end_index} for ln in lines]
    for x, d, li, lj in zip(xw, dists, owner[i], owner[j]):
        if np.min(d) <= CROSSING_EXCLUSION:
            continue
        # lines converging into a shared endpoint legitimately approach
        # each other; ignore contacts in that neighbourhood
        if any(s is not None and d[s] < 0.1 for s in ends[li] & ends[lj]):
            continue
        if _fine_crossing(lines, li, lj, x):
            raise LineCrossing(f"lines {li} and {lj} cross near {x}")


def _fit_cusp_exponent(domain, vertex_pos_in_chain, cp, lines,
                       radius=CUSP_FIT_RADIUS):
    """Log-log fit of the boundary pair separation near a cusp vertex.

    Both boundary curves leave the cusp tangent to the slow Hessian axis;
    their transverse separation grows like xi**alpha.  Returns (alpha, r2).
    """
    k = vertex_pos_in_chain
    n = len(domain.chain)
    piece_out = domain.pieces[k]                   # leaves the vertex
    piece_in = domain.pieces[(k - 1) % n][::-1]    # reversed: also leaves it
    h = np.abs(cp.hess_eigvals)
    slow = cp.hess_eigvecs[:, int(np.argmin(h))]
    fast = cp.hess_eigvecs[:, int(np.argmax(h))]
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
        stop = np.searchsorted(np.maximum.accumulate(r), radius)
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


def build_complex(field, seed_grid=24, critical_points=None,
                  check_crossings=True):
    """Trace the Neumann line set and assemble the partition of the torus.

    Raises EulerMismatch if V - E + F != 0 and LineCrossing if traced lines
    intersect away from critical points.
    """
    cps = critical_points or find_critical_points(field, seed_grid)
    saddles = [c for c in cps if c.kind == SADDLE]
    groups = trace_all_neumann_lines(field, saddles, cps)
    lines = [ln for g in groups for ln in g]
    if check_crossings:
        _check_crossings(lines, cps)

    # rotation system: outgoing darts at each vertex, CCW by probe angle
    darts_at = {}
    for li, ln in enumerate(lines):
        for o, vtx in ((0, ln.start_index), (1, ln.end_index)):
            if vtx is None:
                continue
            d = 2 * li + o
            ang = _departure_direction(ln, d, ORDER_RADIUS)
            darts_at.setdefault(vtx, []).append((d, ang))
    for v in darts_at:
        darts_at[v].sort(key=lambda da: da[1])
        darts_at[v] = _refine_tied_order(lines, darts_at[v])

    chains = _face_walk(darts_at, rev=lambda d: d ^ 1)

    V, E, F = len(cps), len(lines), len(chains)
    if V - E + F != 0:
        raise EulerMismatch(f"V - E + F = {V} - {E} + {F} != 0")

    for c in cps:
        c.degree = len(darts_at.get(c.index, []))
    faces = []
    cx = NeumannComplex(field, cps, lines, faces, darts_at)
    # realize each chain as a positively oriented polygon; its extrema are the
    # maximum and minimum among the critical points at the chain's nodes
    for fi, chain in enumerate(chains):
        pieces, vertex_seq = _lift_chain(lines, chain)
        face = NeumannDomain(fi, chain, pieces, vertex_seq)
        if face.area < 0:   # normalize to positive orientation
            chain = [d ^ 1 for d in reversed(chain)]
            pieces, vertex_seq = _lift_chain(lines, chain)
            face = NeumannDomain(fi, chain, pieces, vertex_seq)
        faces.append(face)
        face._cps = cps
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

        # cusp detection: consecutive boundary tangents meeting at angle ~ 0
        n = len(face.chain)
        for k in range(n):
            vtx = face.vertex_seq[k]
            cp = cps[vtx]
            if not cp.is_extremum:
                continue
            d_out = face.chain[k]
            d_in = face.chain[(k - 1) % n] ^ 1
            a1 = cx._measure_angle(d_out)
            a2 = cx._measure_angle(d_in)
            gap = abs((a1 - a2 + np.pi) % (2 * np.pi) - np.pi)
            if gap < CUSP_ANGLE_THRESHOLD:
                alpha_h = None
                if not cp.is_hess_proportional:
                    alpha_h = cusp_exponent(cp)
                alpha_fit, r2 = _fit_cusp_exponent(face, k, cp, lines)
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

def nodal_neumann_angles(cx, nodal_polylines, saddle_radius=1e-2,
                         secant_arc=0.01):
    """Meeting angles at intersections of the nodal set with Neumann lines.

    At a saddle the angle comes from the Hessian eigenframe against the nodal
    branch directions (the null directions of the Hessian quadratic form);
    elsewhere it is measured from symmetric on-curve secants of both traced
    curves around the crossing.  Returns (point, angle) pairs with angles in
    [0, pi/2].
    """
    field = cx.field
    crit_xy = np.array([c.position for c in cx.critical_points])
    out = []
    hits = polyline_intersections(
        [ln.samples for ln in cx.lines], nodal_polylines)
    for (pt, va, vb) in hits:
        d = torus.dist(crit_xy, pt)
        j = int(np.argmin(d))
        cp = cx.critical_points[j]
        if d[j] < saddle_radius and cp.kind == SADDLE:
            h1, h2 = cp.hess_eigvals
            psi = np.arctan(np.sqrt(-h1 / h2))   # nodal branch vs eigenframe
            ang = min(psi, np.pi / 2 - psi)
            pt = cp.position.copy()
        else:
            # symmetric secant of the nodal curve: step +-arc along the raw
            # direction, project back onto the level set, difference
            level = float(field.value(pt))

            def on_level(q):
                for _ in range(4):
                    g = field.gradient(q)
                    q = q - (field.value(q) - level) * g / np.dot(g, g)
                return q

            pa = on_level(pt + secant_arc * vb)
            pb = on_level(pt - secant_arc * vb)
            vn = pa - pb
            cb = np.arctan2(vn[1], vn[0])
            ca = np.arctan2(va[1], va[0])
            ang = abs((ca - cb + np.pi / 2) % np.pi - np.pi / 2)
        out.append((pt, float(ang)))
    # deduplicate saddle hits (two nodal branches give the same record)
    dedup = []
    for pt, ang in out:
        if not any(np.linalg.norm(pt - q) < 1e-6 and abs(ang - a) < 1e-9
                   for q, a in dedup):
            dedup.append((pt, ang))
    return dedup
