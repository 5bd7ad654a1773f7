import hashlib
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from neumann_domains import MorseField, level_arc_in_face, nodal_set
from neumann_domains.contours import _edge_roots
from neumann_domains.errors import ExceptionalLevel
from neumann_domains.geometry import polyline_length


class QuadModel:
    """f = F0 - x^2 - 2 y^2: a maximum with Hessian ratio 2 at the origin."""

    F0 = 1.0

    def value(self, p):
        p = np.asarray(p, dtype=float)
        return self.F0 - p[..., 0] ** 2 - 2.0 * p[..., 1] ** 2

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        g = np.empty_like(p)
        g[..., 0] = -2.0 * p[..., 0]
        g[..., 1] = -4.0 * p[..., 1]
        return g


def parabola_wedge(c1=-0.5, c2=0.7, x_max=0.8, n=400):
    """Cusp-shaped region between y = c1 x^2 and y = c2 x^2."""
    x = np.linspace(0, x_max, n)
    lower = np.stack([x, c1 * x ** 2], axis=-1)
    upper = np.stack([x, c2 * x ** 2], axis=-1)[::-1]
    cap = np.array([[x_max, c1 * x_max ** 2], [x_max, c2 * x_max ** 2]])
    poly = np.vstack([lower, cap[1:], upper, lower[:1]])
    return SimpleNamespace(polygon=poly), (c1, c2, x_max)


def ellipse_arc_oracle(t, c1, c2, F0=1.0):
    """Arclength of f = t*F0 between the two parabolas, by quadrature."""
    a = np.sqrt((1 - t) * F0)
    b = np.sqrt((1 - t) * F0 / 2.0)

    def theta_of(c):
        # b sin(theta) = c a^2 cos^2(theta)
        return brentq(lambda th: b * np.sin(th) - c * a ** 2 * np.cos(th) ** 2,
                      -np.pi / 3, np.pi / 3)

    th1, th2 = theta_of(c1), theta_of(c2)

    def speed(th):
        return np.hypot(a * np.sin(th), b * np.cos(th))

    return quad(speed, th1, th2, limit=200)[0]


def test_level_arc_matches_ellipse_oracle():
    model = QuadModel()
    face, (c1, c2, _) = parabola_wedge()
    for t in (0.9, 0.99):
        arc = level_arc_in_face(model, face, t * model.F0)
        measured = polyline_length(arc)
        oracle = ellipse_arc_oracle(t, c1, c2)
        assert measured == pytest.approx(oracle, rel=1e-2)
        # every traced point is on the level
        assert np.max(np.abs(model.value(arc) - t * model.F0)) < 1e-8


def test_level_arc_normalized_decay():
    # L/sqrt(1-t) decreases to zero: the arc subtends a shrinking angle
    model = QuadModel()
    face, (c1, c2, _) = parabola_wedge()
    vals = []
    for t in (0.9, 0.99, 0.999):
        arc = level_arc_in_face(model, face, t * model.F0)
        vals.append(polyline_length(arc) / np.sqrt(1 - t))
    assert vals[0] > vals[1] > vals[2]
    # trend consistent with L ~ (1-t): normalized value ~ sqrt(1-t)
    ratio = vals[1] / vals[0]
    assert ratio == pytest.approx(np.sqrt(0.01 / 0.1), rel=0.25)


def test_level_arc_requires_two_crossings():
    model = QuadModel()
    face, _ = parabola_wedge()
    with pytest.raises(ExceptionalLevel):
        level_arc_in_face(model, face, 2.0 * model.F0)   # empty level set


def test_level_arc_saddle_exception(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if any(c["confirmed"] for c in f.cusps))
    vmax = cx.critical_points[face.max_index].value
    sad = cx.critical_points[face.saddle_indices[0]]
    t_exc = sad.value / vmax
    assert 0 < t_exc < 1
    with pytest.raises(ExceptionalLevel):
        level_arc_in_face(lambda17, face, t_exc * vmax,
                          [cx.critical_points[i].position
                           for i in face.saddle_indices])


def _edge_root_reference(field, p0, p1, f0, f1, level=0.0, iters=30):
    """Scalar root of f - level on p0-p1, one field value per step."""
    a, b = 0.0, 1.0
    fa, fb = f0 - level, f1 - level
    best_t, best_f = (a, abs(fa)) if abs(fa) < abs(fb) else (b, abs(fb))
    for it in range(iters):
        if fb == fa or it % 3 == 2:   # interleave bisection
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


def test_edge_roots_match_scalar_reference(lambda17):
    # every crossing edge of the biased zero level on the 64-lattice
    n = 64
    g = np.arange(n) / n * 2 * np.pi
    X, Y = np.meshgrid(g, g, indexing="ij")
    raw = lambda17.value(np.stack([X, Y], axis=-1))
    level = 1e-9 * max(1.0, float(np.max(np.abs(raw))))
    above = raw - level > 0
    p0, p1, f0, f1 = [], [], [], []
    for axis, offset in ((0, [2 * np.pi / n, 0.0]), (1, [0.0, 2 * np.pi / n])):
        i, j = np.nonzero(above != np.roll(above, -1, axis))
        p0.append(np.stack([g[i], g[j]], axis=-1))
        p1.append(p0[-1] + offset)
        f0.append(raw[i, j])
        f1.append(np.roll(raw, -1, axis)[i, j])
    p0, p1, f0, f1 = (np.concatenate(v) for v in (p0, p1, f0, f1))
    assert len(p0) > 500
    batched = _edge_roots(lambda17, p0, p1, f0, f1, level)
    for k in range(len(p0)):
        t = _edge_root_reference(lambda17, p0[k], p1[k], f0[k], f1[k], level)
        ref = p0[k] + t * (p1[k] - p0[k])
        one = _edge_roots(lambda17, p0[k:k + 1], p1[k:k + 1], f0[k:k + 1],
                          f1[k:k + 1], level)[0]
        assert np.array_equal(one, ref), k
        assert np.max(np.abs(batched[k] - ref)) <= 1e-13, k
    assert np.max(np.abs(lambda17.value(batched) - level)) < 1e-12


# sha256 over tobytes() of every nodal_set polyline, recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1 while the field was still evaluated
# on the whole lattice at once.  grid_res 100, 383 and 1000 end on a partial
# block of rows, 8 is a single one.
NODAL_SHA256 = ("a6b2fa476fa11a9a82a6a76db6a770fc"
                "2e237dd012caf5bf8a5acac4d0ea65a5")


def test_nodal_set_bits_pinned(separable, anisotropic, lambda17, crack_field):
    generic = MorseField([(1.0, 1, 2, 0.0), (0.7, 2, 1, 0.3)])
    digest = hashlib.sha256()
    for field in (separable, anisotropic, lambda17, generic, crack_field):
        for res in (8, 100, 383, 384, 1000):
            for p in nodal_set(field, res):
                digest.update(p.tobytes())
    assert digest.hexdigest() == NODAL_SHA256


def test_nodal_set_peak_memory(lambda17):
    # one float per lattice node and a few bytes per cell, beyond the
    # output; holding the field's temporaries on the whole lattice at once
    # takes about eleven floats per node
    n = 1024
    tracemalloc.start()
    try:
        nodal_set(lambda17, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * n * n
