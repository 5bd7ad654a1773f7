import hashlib

import numpy as np
import pytest

from neumann_domains import (flow, integrate_flow, torus,
                             trace_all_neumann_lines)
from neumann_domains.critical import MAX, MIN, SADDLE, find_critical_points
from neumann_domains.errors import NoConvergence
from neumann_domains.flow import BACKWARD, FORWARD
from neumann_domains.validate import attachment_samples


@pytest.fixture(scope="module")
def sep_points(separable):
    return find_critical_points(separable, 16)


def test_forward_reaches_min(separable, sep_points):
    fl = integrate_flow(separable, [np.pi / 2, np.pi], FORWARD, sep_points)
    end = sep_points[fl.end_index]
    assert end.kind == MIN
    assert np.allclose(end.position, [np.pi, np.pi])
    # the trajectory is the invariant line y = pi
    assert np.max(np.abs(fl.samples[:, 1] - np.pi)) < 1e-6


def test_backward_reaches_saddle(separable, sep_points):
    fl = integrate_flow(separable, [np.pi / 2, np.pi], BACKWARD, sep_points)
    end = sep_points[fl.end_index]
    assert end.kind == SADDLE
    assert np.allclose(end.position, [0.0, np.pi])


def test_interior_trajectory_stays_in_square(separable, sep_points):
    fl = integrate_flow(separable, [np.pi / 2, np.pi / 2], FORWARD,
                        sep_points)
    assert np.allclose(sep_points[fl.end_index].position, [np.pi, np.pi])
    assert np.all(fl.samples > -1e-9)
    assert np.all(fl.samples < np.pi + 1e-9)


def test_start_at_critical_point_rejected(separable, sep_points):
    with pytest.raises(ValueError):
        integrate_flow(separable, [0.0, np.pi], FORWARD, sep_points)


def test_monotone_f_and_total_variation(separable, sep_points):
    fl = integrate_flow(separable, [1.1, 2.3], FORWARD, sep_points)
    vals = separable.value(fl.samples)
    assert np.all(np.diff(vals) <= 1e-12)
    tv = float(np.sum(np.abs(np.diff(vals))))
    assert tv == pytest.approx(abs(vals[0] - vals[-1]), abs=1e-8)


def test_separable_saddle_lines(separable, sep_points):
    saddle = next(p for p in sep_points
                  if p.kind == SADDLE and np.allclose(p.position, [0, np.pi]))
    lines = trace_all_neumann_lines(separable, [saddle], sep_points)[0]
    assert len(lines) == 4
    ends = sorted(sep_points[ln.end_index].kind for ln in lines)
    assert ends == [MAX, MAX, MIN, MIN]
    for ln in lines:
        assert ln.length == pytest.approx(np.pi, abs=1e-6)
        # lines are straight coordinate segments
        dev = min(np.max(np.abs(np.mod(ln.samples[:, 0] + np.pi, 2 * np.pi)
                                - np.pi)),
                  np.max(np.abs(ln.samples[:, 1] - np.pi)))
        assert dev < 1e-6
    # minima are reached along y = pi, maxima along x = 0
    for ln in lines:
        if sep_points[ln.end_index].kind == MIN:
            assert np.max(np.abs(ln.samples[:, 1] - np.pi)) < 1e-6


class _GradientRecorder:
    """Field proxy that keeps every row passed to ``gradient``."""

    def __init__(self, field):
        self.field = field
        self.rows = []

    def gradient(self, pts):
        self.rows.extend(np.asarray(pts, dtype=float).reshape(-1, 2).tolist())
        return self.field.gradient(pts)


def test_each_flow_state_evaluated_once(separable, sep_points):
    # first same as last: the seventh Dormand-Prince stage is the accepted
    # point, and its slope serves as the next step's first
    rec = _GradientRecorder(separable)
    saddles = [p for p in sep_points if p.kind == SADDLE]
    trace_all_neumann_lines(rec, saddles, sep_points)
    assert len(rec.rows) > 8 * len(saddles)
    repeats = len(rec.rows) - len(set(map(tuple, rec.rows)))
    assert repeats == 0
    # integrate_flow's criticality gate reuses the start slope
    rec = _GradientRecorder(separable)
    integrate_flow(rec, [1.0, 2.0], FORWARD, sep_points)
    assert len(rec.rows) > 7
    assert len(rec.rows) == len(set(map(tuple, rec.rows)))


def test_anisotropic_same_combinatorics(anisotropic):
    pts = find_critical_points(anisotropic, 16)
    saddle = next(p for p in pts
                  if p.kind == SADDLE and np.allclose(p.position, [0, np.pi]))
    lines = trace_all_neumann_lines(anisotropic, [saddle], pts)[0]
    ends = sorted(pts[ln.end_index].kind for ln in lines)
    assert ends == [MAX, MAX, MIN, MIN]


def test_lambda17_lines_end_at_extrema(l17_complex):
    for ln in l17_complex.lines:
        kind = l17_complex.critical_points[ln.end_index].kind
        assert kind in (MIN, MAX)
        # arclength parametrization: uniform spacing up to the final sample
        seg = np.linalg.norm(np.diff(ln.samples, axis=0), axis=1)
        assert np.max(np.abs(seg[:-1] - 1e-3)) < 1e-4


def test_axes17_line_lengths(axes17):
    # straight segments between adjacent critical points: length pi/sqrt(17)
    pts = find_critical_points(axes17, 24)
    saddle = next(p for p in pts if p.kind == SADDLE)
    lines = trace_all_neumann_lines(axes17, [saddle], pts)[0]
    for ln in lines:
        assert ln.length == pytest.approx(np.pi / np.sqrt(17.0), abs=1e-6)


def test_capture_radius_halving(separable, sep_points, monkeypatch):
    # the traced geometry is insensitive to the capture radius
    a = integrate_flow(separable, [1.0, 2.0], FORWARD, sep_points)
    monkeypatch.setattr(flow, "CAPTURE_RADIUS", flow.CAPTURE_RADIUS / 2)
    monkeypatch.setattr(flow, "SADDLE_CAPTURE_RADIUS",
                        flow.SADDLE_CAPTURE_RADIUS / 2)
    b = integrate_flow(separable, [1.0, 2.0], FORWARD, sep_points)
    assert a.end_index == b.end_index
    n = min(len(a.samples), len(b.samples))
    assert np.max(np.abs(a.samples[:n] - b.samples[:n])) < 1e-7


@pytest.mark.parametrize("trace", [
    lambda f, cps: integrate_flow(f, [1.0, 2.0], FORWARD, cps),
    lambda f, cps: flow.flow_endpoints(f, [[1.0, 2.0]], [FORWARD], cps),
    lambda f, cps: trace_all_neumann_lines(
        f, [c for c in cps if c.kind == SADDLE], cps),
], ids=["integrate_flow", "flow_endpoints", "trace_all_neumann_lines"])
def test_budget_exhaustion(separable, sep_points, monkeypatch, trace):
    # an uncaptured trajectory is never returned: every tracer raises
    monkeypatch.setattr(flow, "MAX_LENGTH", 0.05)
    with pytest.raises(NoConvergence):
        trace(separable, sep_points)


@pytest.mark.parametrize("trace", [
    lambda f, cps, d: integrate_flow(f, [1.0, 2.0], d, cps),
    lambda f, cps, d: flow.flow_endpoints(f, [[1.0, 2.0], [2.0, 1.0]],
                                          [FORWARD, d], cps),
], ids=["integrate_flow", "flow_endpoints"])
@pytest.mark.parametrize("direction", ["forwards", "down", "Forward", None])
def test_unknown_direction_is_refused(separable, sep_points, monkeypatch,
                                      trace, direction):
    # anything but FORWARD once flowed backward, to a maximum, and was
    # stored as the line's direction; it is refused before the field is
    # evaluated
    def no_gradient(self, x):
        raise AssertionError("gradient evaluated for a bad direction")

    monkeypatch.setattr(type(separable), "gradient", no_gradient)
    with pytest.raises(ValueError, match="unknown flow direction"):
        trace(separable, sep_points, direction)


@pytest.mark.parametrize("name", ["sep_complex", "aniso_complex",
                                  "l17_complex", "generic_complex",
                                  "crack_report"])
def test_every_line_ends_at_its_capture(request, name):
    cx = request.getfixturevalue(name)
    if name == "crack_report":
        cx = cx.complex
    for ln in cx.lines:
        assert type(ln.end_index) is int
        assert 0 <= ln.end_index < len(cx.critical_points)
        assert np.all(np.isfinite(ln.end_tangent))
        assert abs(np.linalg.norm(ln.end_tangent) - 1.0) <= 1e-12
        end = cx.critical_points[ln.end_index].position
        assert torus.dist(ln.samples[-1], end) <= 1e-9


# sha256 over every line's samples.tobytes() and end_tangent.tobytes(), in
# line order, recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1;
# the report digests pin only decimated samples, this pins every bit
LINE_BITS_SHA256 = {
    "separable": "ade0dbd04bcf655801b72d16bd954573"
                 "741610893389bc9aa92c87febf32a72d",
    "lambda17": "169ffe2531058e6c94220593c2005578"
                "ebb80bf61d5f8427fff7c064cf8ae761",
    "crack": "e7564aeada439d06f3e9a19aaf55263c"
             "4fecae521e6d3ec54663ff6c6ee91b1f",
}


def test_line_bits_unchanged(sep_complex, l17_complex, crack_report):
    for name, cx in (("separable", sep_complex), ("lambda17", l17_complex),
                     ("crack", crack_report.complex)):
        h = hashlib.sha256()
        for ln in cx.lines:
            h.update(ln.samples.tobytes())
            h.update(ln.end_tangent.tobytes())
        assert h.hexdigest() == LINE_BITS_SHA256[name], name


@pytest.mark.parametrize("field_name, cx_name", [
    ("separable", "sep_complex"), ("lambda17", "l17_complex")])
def test_mixed_direction_endpoints(request, field_name, cx_name):
    # one batch of both directions captures as two single-direction batches
    field = request.getfixturevalue(field_name)
    cx = request.getfixturevalue(cx_name)
    pts, _ = attachment_samples(cx, np.random.default_rng(7))
    n = len(pts)
    cps = cx.critical_points
    both = flow.flow_endpoints(field, np.vstack([pts, pts]),
                               [FORWARD] * n + [BACKWARD] * n, cps)
    fwd = flow.flow_endpoints(field, pts, [FORWARD] * n, cps)
    bwd = flow.flow_endpoints(field, pts, [BACKWARD] * n, cps)
    assert np.array_equal(both, np.concatenate([fwd, bwd]))
    assert {cps[i].kind for i in fwd} == {MIN}
    assert {cps[i].kind for i in bwd} == {MAX}

def test_symmetry_under_negation(separable, sep_points):
    # forward flow of f from x0 equals backward flow of -f
    neg = separable.negated()
    neg_points = find_critical_points(neg, 16)
    a = integrate_flow(separable, [1.0, 2.0], FORWARD, sep_points)
    b = integrate_flow(neg, [1.0, 2.0], BACKWARD, neg_points)
    n = min(len(a.samples), len(b.samples))
    assert np.max(np.abs(a.samples[:n] - b.samples[:n])) < 1e-8
    assert sep_points[a.end_index].kind == MIN
    assert neg_points[b.end_index].kind == MAX


def test_public_api_resolves():
    import neumann_domains
    missing = [n for n in neumann_domains.__all__
               if not hasattr(neumann_domains, n)]
    assert missing == []
