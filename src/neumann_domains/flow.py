"""Gradient flow integration and Neumann line tracing.

Trajectories of xdot = -grad f (forward) or +grad f (backward) are integrated
with an embedded Dormand-Prince 5(4) scheme, batched over many start points.
A trajectory terminates when it enters the capture ball of a critical point
that attracts its flow direction; the endpoint is then completed exactly to
the critical point along the current chord.
"""

import numpy as np

from . import torus
from .critical import MIN, MAX, SADDLE
from .errors import NoConvergence, SteppedOutOfTolerance

# integrator defaults; tight tolerances keep cusp tangencies resolved
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

FORWARD, BACKWARD = "forward", "backward"

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])


class StopRule:
    """Termination parameters for flow integration."""

    def __init__(self, capture_radius=CAPTURE_RADIUS,
                 saddle_capture_radius=SADDLE_CAPTURE_RADIUS,
                 grad_gate=GRAD_GATE, max_length=MAX_LENGTH,
                 max_time=MAX_TIME, rtol=RTOL, atol=ATOL):
        self.capture_radius = capture_radius
        self.saddle_capture_radius = saddle_capture_radius
        self.grad_gate = grad_gate
        self.max_length = max_length
        self.max_time = max_time
        self.rtol = rtol
        self.atol = atol


class FlowLine:
    """A traced trajectory, resampled to uniform arclength spacing.

    ``samples`` are continuous (unwrapped) plane coordinates; the start is in
    the fundamental domain.  ``start_index``/``end_index`` refer to the
    critical point census, or are None.
    """

    def __init__(self, samples, direction, start_index, end_index,
                 start_chord, end_chord, ends_at_saddle=False,
                 end_tangent=None):
        self.samples = samples
        self.direction = direction
        self.start_index = start_index
        self.end_index = end_index
        self.start_chord = start_chord    # unit vector leaving the start
        self.end_chord = end_chord        # unit vector leaving the endpoint into the line
        self.end_tangent = end_tangent if end_tangent is not None else end_chord
        self.ends_at_saddle = ends_at_saddle
        seg = np.diff(samples, axis=0)
        self.length = float(np.sum(np.linalg.norm(seg, axis=1)))

    def point_at_radius(self, which_end, r):
        """First sample at least distance r from the given end ('start'|'end').

        Walks away from the endpoint, so later close approaches of the curve
        to the same point are irrelevant.
        """
        ref = self.samples[0] if which_end == "start" else self.samples[-1]
        pts = self.samples if which_end == "start" else self.samples[::-1]
        d = np.linalg.norm(pts - ref, axis=1)
        far = d >= r
        k = int(np.argmax(far)) if far.any() else len(pts) - 1
        if k == 0:
            k = len(pts) - 1
        return pts[k]


class NeumannLine(FlowLine):
    """Flow line launched from a saddle along a Hessian eigendirection."""

    def __init__(self, samples, direction, start_index, end_index,
                 start_chord, end_chord, launch_axis, launch_sign,
                 ends_at_saddle, end_tangent=None):
        super().__init__(samples, direction, start_index, end_index,
                         start_chord, end_chord, ends_at_saddle,
                         end_tangent=end_tangent)
        self.launch_axis = launch_axis      # 'unstable' | 'stable' (of the forward flow)
        self.launch_sign = launch_sign


def _rhs(field, x, sgn):
    return sgn[:, None] * field.gradient(x)


def _integrate_batch(field, x0, sgn, critical_points, rule,
                     start_exclude=None, record=True):
    """Advance a batch of trajectories to capture.

    Returns per-trajectory dicts with endpoint info and, when ``record``,
    the accepted steps (x0, f0, x1, f1, dt) for densification.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    B = len(x0)
    sgn = np.asarray(sgn, dtype=float).reshape(B)
    if start_exclude is None:
        start_exclude = np.full(B, -1, dtype=int)

    crit_xy = np.array([c.position for c in critical_points])
    kinds = np.array([c.kind for c in critical_points])
    good = np.array([c.grad_norm <= rule.grad_gate for c in critical_points])
    is_saddle = kinds == SADDLE
    # which extremum kind attracts each flow direction
    attract_kind = np.where(sgn < 0, MIN, MAX)

    X = x0.copy()
    t = np.zeros(B)
    h = np.full(B, 1e-3)
    arc = np.zeros(B)
    armed = np.array([start_exclude[j] < 0 for j in range(B)])
    active = np.ones(B, dtype=bool)
    captured = np.full(B, -1, dtype=int)
    steps = [[] for _ in range(B)] if record else None

    n_stalled = 0
    while active.any():
        idx = np.flatnonzero(active)
        x = X[idx]
        hh = h[idx][:, None]
        s = sgn[idx]
        k = np.empty((7, len(idx), 2))
        k[0] = _rhs(field, x, s)
        for i in range(1, 7):
            xi = x + hh * np.tensordot(_DP_A[i], k[:i], axes=(0, 0))
            k[i] = _rhs(field, xi, s)
        x_new = x + hh * np.tensordot(_DP_B, k, axes=(0, 0))
        err = hh * np.tensordot(_DP_E, k, axes=(0, 0))
        scale = rule.atol + rule.rtol * np.maximum(np.abs(x), np.abs(x_new))
        enorm = np.sqrt(np.mean((err / scale) ** 2, axis=1))

        accept = enorm <= 1.0
        with np.errstate(divide="ignore"):
            fac = np.where(enorm > 0.0, 0.9 * enorm ** -0.2, 5.0)
        fac = np.clip(fac, 0.2, 5.0)
        # bound the chord so recorded steps stay densifiable
        speed = np.linalg.norm(k[0], axis=1)
        h_arc = np.where(speed > 0.0, MAX_STEP_ARC / speed, np.inf)
        h[idx] = np.minimum(h[idx] * fac, h_arc)
        if np.any(h[idx] < 1e-14):
            raise SteppedOutOfTolerance("step size underflow in flow integration")
        n_stalled = 0 if accept.any() else n_stalled + 1
        if n_stalled > 200:
            raise SteppedOutOfTolerance("integrator failed to accept a step")
        if not accept.any():
            continue

        acc = idx[accept]
        xa_old = x[accept]
        xa = x_new[accept]
        dta = hh[accept, 0]
        arc[acc] += np.linalg.norm(xa - xa_old, axis=1)
        t[acc] += dta
        X[acc] = xa
        if record:
            f0a = k[0][accept]
            f1a = _rhs(field, xa, sgn[acc])
            for j, jj in enumerate(acc):
                steps[jj].append((xa_old[j], f0a[j], xa[j], f1a[j], dta[j]))

        # arm once clear of the start critical point
        need_arm = acc[~armed[acc]]
        if len(need_arm):
            d0 = torus.dist(X[need_arm], crit_xy[start_exclude[need_arm]])
            armed[need_arm[d0 > 2.0 * rule.capture_radius]] = True

        # capture test
        chk = acc[armed[acc]]
        if len(chk):
            d = torus.pairwise_dist(X[chk], crit_xy)
            elig = good[None, :] & (
                (is_saddle[None, :] & (d < rule.saddle_capture_radius))
                | (~is_saddle[None, :] & (kinds[None, :] == attract_kind[chk][:, None])
                   & (d < rule.capture_radius)))
            d_masked = np.where(elig, d, np.inf)
            nearest = np.argmin(d_masked, axis=1)
            hit = np.isfinite(d_masked[np.arange(len(chk)), nearest])
            for j, jj in enumerate(chk):
                if hit[j]:
                    captured[jj] = nearest[j]
                    active[jj] = False

        over = acc[(t[acc] > rule.max_time) | (arc[acc] > rule.max_length)]
        if len(over):
            raise NoConvergence(
                f"trajectory from {x0[over[0]]} exceeded the integration budget")

    return {"end_state": X, "captured": captured, "steps": steps,
            "time": t, "arc": arc}


def _densify(step_list, gap=RECORD_SPACING):
    """Cubic-Hermite subdivision of accepted steps into a fine polyline."""
    if not step_list:
        return None
    x0 = np.array([s[0] for s in step_list])
    f0 = np.array([s[1] for s in step_list])
    x1 = np.array([s[2] for s in step_list])
    f1 = np.array([s[3] for s in step_list])
    dt = np.array([s[4] for s in step_list])
    chord = np.linalg.norm(x1 - x0, axis=1)
    nsub = np.maximum(1, np.ceil(chord / gap).astype(int))
    total = int(np.sum(nsub))
    step_of = np.repeat(np.arange(len(nsub)), nsub)
    local = (np.arange(total) - np.repeat(np.cumsum(nsub) - nsub, nsub))
    tau = (local / nsub[step_of])[:, None]
    h00 = 2 * tau ** 3 - 3 * tau ** 2 + 1
    h10 = tau ** 3 - 2 * tau ** 2 + tau
    h01 = -2 * tau ** 3 + 3 * tau ** 2
    h11 = tau ** 3 - tau ** 2
    d = dt[step_of][:, None]
    pts = (h00 * x0[step_of] + h10 * d * f0[step_of]
           + h01 * x1[step_of] + h11 * d * f1[step_of])
    return np.vstack([pts, x1[-1]])


def _resample(points, spacing=RESAMPLE_SPACING):
    """Uniform arclength resampling of a polyline (last point kept exactly)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    L = cum[-1]
    if L == 0.0:
        return points[:1]
    s = np.arange(0.0, L, spacing)
    if L - s[-1] > 1e-12:
        s = np.append(s, L)
    out = np.empty((len(s), 2))
    out[:, 0] = np.interp(s, cum, points[:, 0])
    out[:, 1] = np.interp(s, cum, points[:, 1])
    return out


def _extrapolate_tangent(c, c_lift, end_state, result_steps):
    """Limit tangent at an extremum from deep capture-time states.

    Lines arriving tangent to the slow Hessian axis have secant angles that
    converge like r**beta (beta = |h_max|/|h_min| - 1), so two probe radii
    inside the capture region extrapolate the angle to r -> 0.  Lines
    arriving along the fast axis are numerically unstable at depth (tracing
    noise in the slow coordinate grows as r shrinks); those are flagged so
    the caller measures them at a moderate radius instead.  Returns a unit
    vector, the string 'fast', or None.
    """
    if c.kind == SADDLE or c.is_hess_proportional:
        return None
    h = np.abs(c.hess_eigvals)
    beta = float(np.max(h) / np.min(h)) - 1.0
    if beta < 1e-9:
        return None
    v1 = end_state - c_lift
    r1 = np.linalg.norm(v1)
    phi1 = np.arctan2(v1[1], v1[0])
    fast = c.hess_eigvecs[:, int(np.argmax(h))]
    slow = c.hess_eigvecs[:, int(np.argmin(h))]

    def axis_dist(v, axis):
        cosang = abs(np.dot(v, axis)) / np.linalg.norm(v)
        return np.arccos(np.clip(cosang, -1.0, 1.0))

    if axis_dist(v1, fast) < axis_dist(v1, slow):
        return "fast"
    probe = None
    for st in reversed(result_steps):
        rr = np.linalg.norm(st[0] - c_lift)
        if rr >= 3.0 * r1:
            probe = st[0]
            break
    if probe is None:
        return None
    v2 = probe - c_lift
    r2 = np.linalg.norm(v2)
    phi2 = np.arctan2(v2[1], v2[0])
    dphi = (phi2 - phi1 + np.pi) % (2 * np.pi) - np.pi
    w = r1 ** beta / (r2 ** beta - r1 ** beta)
    phi0 = phi1 - dphi * w
    return np.array([np.cos(phi0), np.sin(phi0)])


def _finish_line(x0_unwrapped, result_steps, end_state, cap_index,
                 critical_points, direction, start_index, start_chord,
                 prepend=None):
    """Densify, snap the endpoint to the captured critical point, resample."""
    pts = _densify(result_steps)
    if pts is None:
        pts = np.atleast_2d(x0_unwrapped)
    if prepend is not None:
        pts = np.vstack([prepend, pts])
    end_index = None
    end_chord = None
    end_tangent = None
    ends_at_saddle = False
    if cap_index >= 0:
        c = critical_points[cap_index]
        c_lift = torus.nearest_lift(c.position, end_state)
        v = end_state - c_lift
        nv = np.linalg.norm(v)
        end_chord = v / nv if nv > 0 else None
        end_tangent = _extrapolate_tangent(c, c_lift, end_state, result_steps) \
            if result_steps else None
        pts = np.vstack([pts, c_lift])
        end_index = cap_index
        ends_at_saddle = c.kind == SADDLE
    samples = _resample(pts)
    if isinstance(end_tangent, str):   # fast-axis arrival: moderate-radius chord
        line = FlowLine(samples, direction, start_index, end_index,
                        start_chord, end_chord, ends_at_saddle)
        v = line.point_at_radius("end", 2e-3) - samples[-1]
        end_tangent = v / np.linalg.norm(v)
    return FlowLine(samples, direction, start_index, end_index,
                    start_chord, end_chord, ends_at_saddle,
                    end_tangent=end_tangent)


def integrate_flow(field, x0, direction, critical_points, rule=None):
    """Trace one trajectory of the gradient flow until capture.

    ``direction`` is 'forward' (descending f) or 'backward'.  Raises
    NoConvergence when the arclength/time budget is exhausted and
    SteppedOutOfTolerance when error control fails.
    """
    rule = rule or StopRule()
    x0 = np.asarray(x0, dtype=float)
    g0 = np.linalg.norm(field.gradient(x0))
    if g0 <= rule.grad_gate:
        raise ValueError("start point is (numerically) critical")
    sgn = -1.0 if direction == FORWARD else 1.0
    res = _integrate_batch(field, x0[None, :], [sgn], critical_points, rule)
    start_chord = None
    if res["steps"][0]:
        v = res["steps"][0][0][2] - x0
        n = np.linalg.norm(v)
        start_chord = v / n if n > 0 else None
    return _finish_line(x0, res["steps"][0], res["end_state"][0],
                        res["captured"][0], critical_points, direction,
                        None, start_chord)


def _canonical_eigvecs(cp):
    """Hessian eigenvectors with a deterministic sign convention."""
    vecs = cp.hess_eigvecs.copy()
    for i in range(2):
        v = vecs[:, i]
        lead = v[0] if abs(v[0]) > 1e-12 else v[1]
        if lead < 0:
            vecs[:, i] = -v
    return vecs


def trace_neumann_lines(field, saddle, critical_points, rule=None,
                        launch_offset=LAUNCH_OFFSET):
    """The four Neumann lines of one saddle (see trace_all_neumann_lines)."""
    lines = trace_all_neumann_lines(field, [saddle], critical_points, rule,
                                    launch_offset)
    return lines[0]


def trace_all_neumann_lines(field, saddles, critical_points, rule=None,
                            launch_offset=LAUNCH_OFFSET):
    """Trace all Neumann lines of the given saddles in one batch.

    For each saddle, launches are made along +-v for both Hessian
    eigendirections: the negative-eigenvalue direction is unstable for the
    forward flow (descends to minima), the positive one is traced backward
    (ascends to maxima).  Returns a list of 4-line lists, ordered
    [unstable+, unstable-, stable+, stable-] per saddle.
    """
    rule = rule or StopRule()
    X0, sgns, excl, meta = [], [], [], []
    for s in saddles:
        if s.kind != SADDLE:
            raise ValueError(f"critical point {s} is not a saddle")
        vecs = _canonical_eigvecs(s)
        v_unstable = vecs[:, 0]        # eigenvalue < 0
        v_stable = vecs[:, 1]          # eigenvalue > 0
        for axis, v, sgn in (("unstable", v_unstable, -1.0),
                             ("stable", v_stable, +1.0)):
            for pm in (+1.0, -1.0):
                X0.append(s.position + pm * launch_offset * v)
                sgns.append(sgn)
                excl.append(s.index)
                meta.append((s, axis, pm, pm * v))
    res = _integrate_batch(field, np.array(X0), sgns, critical_points, rule,
                           start_exclude=np.array(excl))
    out = []
    for j, (s, axis, pm, v) in enumerate(meta):
        cap = res["captured"][j]
        fl = _finish_line(X0[j], res["steps"][j], res["end_state"][j], cap,
                          critical_points,
                          FORWARD if sgns[j] < 0 else BACKWARD,
                          s.index, v, prepend=s.position)
        line = NeumannLine(fl.samples, fl.direction, s.index, fl.end_index,
                           v, fl.end_chord, axis, int(pm), fl.ends_at_saddle,
                           end_tangent=fl.end_tangent)
        out.append(line)
    return [out[i:i + 4] for i in range(0, len(out), 4)]


def flow_endpoints(field, x0s, directions, critical_points, rule=None):
    """Capture targets for a batch of start points (no polylines recorded).

    Returns an array of critical point indices (-1 when uncaptured).
    """
    rule = rule or StopRule()
    sgn = np.array([-1.0 if d == FORWARD else 1.0 for d in directions])
    res = _integrate_batch(field, np.asarray(x0s, dtype=float), sgn,
                           critical_points, rule, record=False)
    return res["captured"]
