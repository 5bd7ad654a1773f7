"""Gradient flow integration and Neumann line tracing.

Trajectories of xdot = -grad f (forward) or +grad f (backward) are integrated
with an embedded Dormand-Prince 5(4) scheme, batched over many start points.
The scheme is first same as last: the seventh stage is evaluated at the
accepted point, so its slope is the next step's first.  A trajectory ends when
it enters the capture ball of a critical point that attracts its flow
direction.  Each census point has one capture radius per direction: the
saddle radius for a saddle, the extremum radius for an extremum of the
attracting kind, none otherwise.  After an accepted step the torus distances
from a trajectory to every census point pick the nearest eligible point.  A
trajectory moves no nearer the census than the arc it travels, so the
nearest distance also tells how far it runs before it needs the next test,
and only the trajectories due for one are measured.  The endpoint is then
completed exactly to the critical point along the current chord.  Each
trajectory's chain of accepted states and slopes is densified by cubic
Hermite interpolation and resampled to uniform arclength, giving one
``FlowLine``.  The integration and stopping parameters are the module
constants below, read at call time.
"""

import numpy as np

from . import torus
from .critical import MIN, MAX, SADDLE, cusp_exponent
from .errors import NoConvergence, SteppedOutOfTolerance
from .geometry import arc_lengths, polyline_length, segment_lengths

# integrator tolerances; tight tolerances keep cusp tangencies resolved
RTOL = 1e-10
ATOL = 1e-12
LAUNCH_OFFSET = 1e-6
# extrema are captured deep (the contraction is exponential, so the extra
# integration is cheap) because the end chord doubles as the limit tangent;
# tangency coefficients at cusps can be large enough that a chord at 1e-4
# is still degrees away from the asymptotic direction
CAPTURE_RADIUS = 1e-5
SADDLE_CAPTURE_RADIUS = 2e-6
GRAD_GATE = 1e-6           # qualifies a census point as a capture target
MAX_LENGTH = 100.0 * torus.PERIOD
MAX_TIME = 4000.0
RESAMPLE_SPACING = 1e-3
RECORD_SPACING = 2e-3
MAX_STEP_ARC = 0.05        # bounds chord length so Hermite densification is faithful
FAST_AXIS_RADIUS = 2e-3    # chord radius for lines arriving along the fast axis

FORWARD, BACKWARD = "forward", "backward"

# Dormand-Prince 5(4) tableau as 1 x i rows for np.dot; the last row of
# _DP_A is the fifth-order weights
_DP_A = [np.array(row)[None, :] for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
)]
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])[None, :]


def _point_at_radius(pts, r):
    """First point at least distance r from pts[0], walking from pts[0].

    Later close approaches of the curve to pts[0] are irrelevant.  Falls
    back to the last point when none is that far.
    """
    k = int(np.argmax(np.linalg.norm(pts - pts[0], axis=1) >= r))
    return pts[k or -1]


class FlowLine:
    """A traced trajectory, resampled to uniform arclength spacing.

    Every line runs from its start to a captured critical point: tracing ends
    only by capture, and raises when the budget or error control fails.
    ``samples`` are continuous (unwrapped) plane coordinates; the start is in
    the fundamental domain and the last sample is the lift of the captured
    point.  ``end_index`` is that point's census index, and ``start_index``
    the launching saddle's (None for the free starts of ``integrate_flow``).
    ``end_tangent`` is the unit vector leaving the captured point into the
    line.
    """

    def __init__(self, samples, direction, start_index, end_index,
                 end_tangent):
        self.samples = samples
        self.direction = direction
        self.start_index = start_index
        self.end_index = end_index
        self.end_tangent = end_tangent
        self.length = polyline_length(samples)


def _row_norm(v):
    """Euclidean norm of each row of an (N, 2) array, as np.linalg.norm."""
    v = v * v
    return np.sqrt(v[:, 0] + v[:, 1])


def _capture_radii(critical_points):
    """Capture radius of each census point per flow direction.

    Row 0 is the forward flow, captured by minima, row 1 the backward flow,
    captured by maxima; saddles capture both.  A point that fails the
    gradient gate, or an extremum of the other kind, gets -1: never.
    """
    radii = np.full((2, len(critical_points)), -1.0)
    for j, c in enumerate(critical_points):
        if not c.grad_norm <= GRAD_GATE:
            continue
        if c.kind == SADDLE:
            radii[:, j] = SADDLE_CAPTURE_RADIUS
        elif c.kind == MIN:
            radii[0, j] = CAPTURE_RADIUS
        elif c.kind == MAX:
            radii[1, j] = CAPTURE_RADIUS
    return radii


def _integrate_batch(field, x0, sgn, critical_points, start_exclude=None,
                     record=True, grad0=None):
    """Advance a batch of trajectories to capture.

    Returns (captured, chains).  ``captured`` holds the census index each
    trajectory ended at.  With ``record``, ``chains[j]`` is trajectory j's
    accepted states and slopes, start included, and its step sizes, as arrays
    (xs, fs, dts); otherwise ``chains`` is None.  Capture is tested only after
    an accepted step, so every chain has at least one step.  ``grad0`` is
    ``field.gradient`` at ``x0`` when the caller has it already.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    B = len(x0)
    sgn = np.asarray(sgn, dtype=float).reshape(B)
    if start_exclude is None:
        start_exclude = np.full(B, -1, dtype=int)

    crit_xy = np.array([c.position for c in critical_points])
    radii = _capture_radii(critical_points)
    direction = np.where(sgn < 0, 0, 1)
    # rows farther than this from every census point cannot be captured
    reach = 2.0 * max(CAPTURE_RADIUS, SADDLE_CAPTURE_RADIUS)
    # the arc length before which a row cannot come within reach: its arc at
    # the last test plus that test's census distance less reach (triangle
    # inequality over its chords), with a relative slack
    next_query = np.zeros(B)

    X = x0.copy()
    F = sgn[:, None] * (field.gradient(X) if grad0 is None else grad0)
    t = np.zeros(B)
    h = np.full(B, 1e-3)
    arc = np.zeros(B)
    armed = start_exclude < 0
    active = np.ones(B, dtype=bool)
    captured = np.full(B, -1, dtype=int)
    # (owner, x, f, dt of the step ending at x) per accepted batch
    chain = [(np.arange(B), x0, F.copy(), np.zeros(B))]

    idx = np.arange(B)
    n_stalled = 0
    while len(idx):
        x = X[idx]
        hh = h[idx][:, None]
        s = sgn[idx]
        k = np.empty((7, len(idx), 2))
        k[0] = F[idx]
        for i in range(1, 7):
            xi = x + hh * np.dot(_DP_A[i], k[:i].reshape(i, -1)).reshape(-1, 2)
            k[i] = s[:, None] * field.gradient(xi)
        err = hh * np.dot(_DP_E, k.reshape(7, -1)).reshape(-1, 2)
        scale = ATOL + RTOL * np.maximum(np.abs(x), np.abs(xi))
        r = err / scale
        r *= r
        enorm = np.sqrt((r[:, 0] + r[:, 1]) / 2)   # np.mean's sum and divide

        accept = enorm <= 1.0
        fac = 0.9 * np.power(enorm, -0.2, out=np.full(len(idx), np.inf),
                             where=enorm > 0.0)
        fac = np.clip(fac, 0.2, 5.0)
        # bound the chord so recorded steps stay densifiable
        speed = _row_norm(k[0])
        h_arc = np.where(speed > 0.0, MAX_STEP_ARC / speed, np.inf)
        h_new = np.minimum(hh[:, 0] * fac, h_arc)
        h[idx] = h_new
        if (h_new < 1e-14).any():
            raise SteppedOutOfTolerance("step size underflow in flow integration")
        if not accept.any():
            n_stalled += 1
            if n_stalled > 200:
                raise SteppedOutOfTolerance(
                    "integrator failed to accept a step")
            continue
        n_stalled = 0

        acc = idx[accept]      # a rejected row keeps its state and slope
        xa = xi[accept]
        dta = hh[accept, 0]
        fa = k[6][accept]
        arc[acc] += _row_norm(xa - x[accept])
        t[acc] += dta
        X[acc] = xa
        F[acc] = fa
        if record:
            chain.append((acc, xa, fa, dta))

        # arm once clear of the start critical point
        need_arm = acc[~armed[acc]]
        if len(need_arm):
            d0 = torus.dist(X[need_arm], crit_xy[start_exclude[need_arm]])
            armed[need_arm[d0 > 2.0 * CAPTURE_RADIUS]] = True

        # capture test for the rows that are due: the nearest census distance
        # sets the next test, the nearest eligible point within its radius
        # captures
        chk = acc[armed[acc]]
        chk = chk[arc[chk] >= next_query[chk]]
        if len(chk):
            d = torus.pairwise_dist(X[chk], crit_xy)
            next_query[chk] = arc[chk] + (d.min(axis=1) - reach) * (1.0 - 1e-9)
            d_masked = np.where(d < radii[direction[chk]], d, np.inf)
            nearest = np.argmin(d_masked, axis=1)
            hit = np.isfinite(d_masked[np.arange(len(chk)), nearest])
            if hit.any():
                captured[chk[hit]] = nearest[hit]
                active[chk[hit]] = False
                idx = np.flatnonzero(active)

        over = acc[(t[acc] > MAX_TIME) | (arc[acc] > MAX_LENGTH)]
        if len(over):
            raise NoConvergence(
                f"trajectory from {x0[over[0]]} exceeded the integration budget")

    if not record:
        return captured, None
    # group the recorded states per trajectory, in step order
    owner, *cols = (np.concatenate(c) for c in zip(*chain))
    order = np.argsort(owner, kind="stable")
    cuts = np.searchsorted(owner[order], np.arange(1, B))
    xs, fs, dts = (np.split(c[order], cuts) for c in cols)
    return captured, [(x, f, d[1:]) for x, f, d in zip(xs, fs, dts)]


def _densify(xs, fs, dt):
    """Cubic-Hermite subdivision of a chain of states into a fine polyline."""
    chord = segment_lengths(xs)
    nsub = np.maximum(1, np.ceil(chord / RECORD_SPACING).astype(int))
    total = int(np.sum(nsub))
    step_of = np.repeat(np.arange(len(nsub)), nsub)
    local = (np.arange(total) - np.repeat(np.cumsum(nsub) - nsub, nsub))
    tau = (local / nsub[step_of])[:, None]
    h00 = 2 * tau ** 3 - 3 * tau ** 2 + 1
    h10 = tau ** 3 - 2 * tau ** 2 + tau
    h01 = -2 * tau ** 3 + 3 * tau ** 2
    h11 = tau ** 3 - tau ** 2
    d = dt[step_of][:, None]
    pts = (h00 * xs[step_of] + h10 * d * fs[step_of]
           + h01 * xs[step_of + 1] + h11 * d * fs[step_of + 1])
    return np.vstack([pts, xs[-1]])


def _resample(points):
    """Uniform arclength resampling of a polyline (last point kept exactly)."""
    cum = arc_lengths(points)
    L = cum[-1]
    s = np.arange(0.0, L, RESAMPLE_SPACING)
    if L - s[-1] > 1e-12:
        s = np.append(s, L)
    out = np.empty((len(s), 2))
    out[:, 0] = np.interp(s, cum, points[:, 0])
    out[:, 1] = np.interp(s, cum, points[:, 1])
    return out


def _end_tangent(c, c_lift, states, samples):
    """Unit vector leaving the captured point c into the line.

    Lines arriving at an extremum tangent to the slow Hessian axis have
    secant angles that converge like r**beta (beta = |h_max|/|h_min| - 1),
    so two probe radii inside the capture region, the capture state and the
    last state at least 3 times as far out, extrapolate the angle to
    r -> 0.  Lines arriving along the fast axis are numerically unstable at
    depth (tracing noise in the slow coordinate grows as r shrinks), so
    they are measured on the resampled ``samples`` at FAST_AXIS_RADIUS
    instead.  At a saddle, at a proportional Hessian, or without a second
    probe, the capture chord serves.
    """
    v = states[-1] - c_lift
    if c.is_extremum and not c.is_hess_proportional:
        r1 = np.linalg.norm(v)

        def axis_dist(axis):
            return np.arccos(np.clip(abs(np.dot(v, axis)) / r1, -1.0, 1.0))

        if axis_dist(c.fast_axis) < axis_dist(c.slow_axis):
            v = _point_at_radius(samples[::-1], FAST_AXIS_RADIUS) - samples[-1]
        else:
            far = np.flatnonzero(
                np.linalg.norm(states[:-1] - c_lift, axis=1) >= 3.0 * r1)
            if len(far):
                v2 = states[far[-1]] - c_lift
                r2 = np.linalg.norm(v2)
                beta = cusp_exponent(c) - 1.0
                phi1 = np.arctan2(v[1], v[0])
                dphi = (np.arctan2(v2[1], v2[0]) - phi1 + np.pi) \
                    % (2 * np.pi) - np.pi
                phi0 = phi1 - dphi * (r1 ** beta / (r2 ** beta - r1 ** beta))
                return np.array([np.cos(phi0), np.sin(phi0)])
    return v / np.linalg.norm(v)


def _finish_line(chain, cap_index, critical_points, direction, start_index,
                 prepend=None):
    """Densify, snap the endpoint to the captured critical point, resample."""
    pts = _densify(*chain)
    if prepend is not None:
        pts = np.vstack([prepend, pts])
    c = critical_points[cap_index]
    c_lift = torus.nearest_lift(c.position, chain[0][-1])
    samples = _resample(np.vstack([pts, c_lift]))
    return FlowLine(samples, direction, start_index, int(cap_index),
                    _end_tangent(c, c_lift, chain[0], samples))


def _flow_sign(direction):
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"unknown flow direction {direction!r}")
    return -1.0 if direction == FORWARD else 1.0


def integrate_flow(field, x0, direction, critical_points):
    """Trace one trajectory of the gradient flow until capture.

    ``direction`` is 'forward' (descending f) or 'backward', and anything
    else raises ValueError.  Raises NoConvergence when the arclength/time
    budget is exhausted and SteppedOutOfTolerance when error control fails.
    """
    sgn = _flow_sign(direction)
    x0 = np.asarray(x0, dtype=float)[None, :]
    g0 = field.gradient(x0)
    if np.linalg.norm(g0[0]) <= GRAD_GATE:
        raise ValueError("start point is (numerically) critical")
    captured, chains = _integrate_batch(field, x0, [sgn], critical_points,
                                        grad0=g0)
    return _finish_line(chains[0], captured[0], critical_points, direction,
                        None)


def _canonical_eigvecs(cp):
    """Hessian eigenvectors with a deterministic sign convention."""
    vecs = cp.hess_eigvecs.copy()
    for i in range(2):
        v = vecs[:, i]
        lead = v[0] if abs(v[0]) > 1e-12 else v[1]
        if lead < 0:
            vecs[:, i] = -v
    return vecs


def trace_all_neumann_lines(field, saddles, critical_points):
    """Trace all Neumann lines of the given saddles in one batch.

    For each saddle, launches are made along +-v for both Hessian
    eigendirections: the negative-eigenvalue direction is unstable for the
    forward flow (descends to minima), the positive one is traced backward
    (ascends to maxima).  Returns a list of 4-line lists, ordered
    [unstable+, unstable-, stable+, stable-] per saddle.
    """
    X0, sgns, starts = [], [], []
    for s in saddles:
        if s.kind != SADDLE:
            raise ValueError(f"critical point {s} is not a saddle")
        vecs = _canonical_eigvecs(s)
        # column 0 has the negative eigenvalue, column 1 the positive one
        for v, sgn in ((vecs[:, 0], -1.0), (vecs[:, 1], +1.0)):
            for pm in (+1.0, -1.0):
                X0.append(s.position + pm * LAUNCH_OFFSET * v)
                sgns.append(sgn)
                starts.append(s)
    captured, chains = _integrate_batch(
        field, np.array(X0), sgns, critical_points,
        start_exclude=np.array([s.index for s in starts]))
    out = [_finish_line(chains[j], captured[j], critical_points,
                        FORWARD if sgns[j] < 0 else BACKWARD, s.index,
                        prepend=s.position)
           for j, s in enumerate(starts)]
    return [out[i:i + 4] for i in range(0, len(out), 4)]


def flow_endpoints(field, x0s, directions, critical_points):
    """Capture targets for a batch of start points (no polylines recorded).

    Returns an array of critical point indices.
    """
    sgn = np.array([_flow_sign(d) for d in directions])
    captured, _ = _integrate_batch(field, np.asarray(x0s, dtype=float), sgn,
                                   critical_points, record=False)
    return captured
