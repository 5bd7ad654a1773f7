"""Critical points of a torus field: Newton search, classification, census checks."""

import numbers

import numpy as np

from . import torus
from .errors import NotMorse, ProportionalHessian, SeedGridTooCoarse

NEWTON_TOL = 1e-12        # on |grad f|
NEWTON_MAX_ITER = 50
NEWTON_MAX_STEP = 0.5     # damping: longest Newton step taken
DEDUP_RADIUS = 1e-6       # torus metric
HESS_PROP_TOL = 1e-8      # relative gap of Hessian eigenvalues
MORSE_DET_TOL = 1e-8      # |h_min| / |h_max| below this counts as degenerate

MIN, MAX, SADDLE = "minimum", "maximum", "saddle"


class CriticalPoint:
    """A converged, classified critical point.

    Attributes
    ----------
    position : (2,) array in [0, 2*pi)^2
    kind : 'minimum' | 'maximum' | 'saddle'
    hess_eigvals : ascending pair of Hessian eigenvalues
    hess_eigvecs : (2,2) orthonormal columns matching hess_eigvals
    slow_axis, fast_axis : the columns of the smaller and of the larger
        |eigenvalue|; a line ends at an extremum tangent to one of them
    is_hess_proportional : bool, eigenvalues equal within HESS_PROP_TOL
    value : f at the point
    degree : number of incident Neumann lines (filled by the complex stage)
    """

    def __init__(self, position, kind, hess_eigvals, hess_eigvecs, value,
                 grad_norm):
        self.position = np.asarray(position, dtype=float)
        self.kind = kind
        self.hess_eigvals = np.asarray(hess_eigvals, dtype=float)
        self.hess_eigvecs = np.asarray(hess_eigvecs, dtype=float)
        h = np.abs(self.hess_eigvals)
        self.slow_axis = self.hess_eigvecs[:, int(np.argmin(h))]
        self.fast_axis = self.hess_eigvecs[:, int(np.argmax(h))]
        self.value = float(value)
        self.grad_norm = float(grad_norm)
        self.is_hess_proportional = bool(
            abs(hess_eigvals[1] - hess_eigvals[0])
            <= HESS_PROP_TOL * max(abs(hess_eigvals[0]), abs(hess_eigvals[1])))
        self.degree = None
        self.index = None   # position in the owning census

    @property
    def is_extremum(self):
        return self.kind in (MIN, MAX)

    def __repr__(self):
        return (f"CriticalPoint({self.kind} at ({self.position[0]:.6f}, "
                f"{self.position[1]:.6f}), h={tuple(self.hess_eigvals)})")

    def to_dict(self):
        return {
            "position": [float(self.position[0]), float(self.position[1])],
            "kind": self.kind,
            "value": self.value,
            "hess_eigvals": [float(h) for h in self.hess_eigvals],
            "hess_eigvecs": self.hess_eigvecs.tolist(),
            "is_hess_proportional": self.is_hess_proportional,
            "degree": self.degree,
        }


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


def _newton_batch(field, seeds):
    """Damped Newton on grad f = 0 from many seeds at once.

    Returns converged positions (wrapped) only.
    """
    X = np.array(seeds, dtype=float)
    active = np.ones(len(X), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if not active.any():
            break
        G = field.gradient(X[active])
        gn = np.linalg.norm(G, axis=1)
        H = field.hessian(X[active])
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        ok = np.abs(det) > 1e-300
        step = np.zeros_like(G)
        # closed-form 2x2 solve of H step = -G
        step[ok, 0] = -(H[ok, 1, 1] * G[ok, 0] - H[ok, 0, 1] * G[ok, 1]) / det[ok]
        step[ok, 1] = -(-H[ok, 1, 0] * G[ok, 0] + H[ok, 0, 0] * G[ok, 1]) / det[ok]
        norm = np.linalg.norm(step, axis=1)
        big = norm > NEWTON_MAX_STEP
        step[big] *= (NEWTON_MAX_STEP / norm[big])[:, None]
        idx = np.flatnonzero(active)
        X[idx] = X[idx] + step
        done = (gn <= NEWTON_TOL) | ~ok
        active[idx[done]] = False
    G = field.gradient(X)
    conv = np.linalg.norm(G, axis=1) <= NEWTON_TOL
    return torus.wrap(X[conv])


def _classify(field, positions):
    pts = []
    for pos in positions:
        H = field.hessian(pos)
        vals, vecs = np.linalg.eigh(H)
        hmax = max(abs(vals[0]), abs(vals[1]))
        if hmax == 0.0 or min(abs(vals[0]), abs(vals[1])) <= MORSE_DET_TOL * hmax:
            raise NotMorse(
                f"near-singular Hessian at {pos}: eigenvalues {vals}")
        if vals[0] > 0:
            kind = MIN
        elif vals[1] < 0:
            kind = MAX
        else:
            kind = SADDLE
        pts.append(CriticalPoint(pos, kind, vals, vecs,
                                 field.value(pos),
                                 np.linalg.norm(field.gradient(pos))))
    return pts


def _seed_lattice(field, n):
    g = (np.arange(n) + 0.5) / n * torus.PERIOD
    seeds = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    # extra seeds inside perturbation patches, which a coarse lattice can miss
    extras = []
    for p in getattr(field, "perturbations", []):
        loc = (np.arange(12) + 0.5) / 12 * 2.0 - 1.0
        lxy = np.stack(np.meshgrid(loc, loc, indexing="ij"), axis=-1).reshape(-1, 2)
        extras.append(torus.wrap(p.center + (lxy * p.scale) @ p.frame.T))
    if extras:
        seeds = np.vstack([seeds] + extras)
    return seeds


def _check_seed_grid(seed_grid):
    if not isinstance(seed_grid, numbers.Integral):
        raise ValueError(f"seed_grid {seed_grid!r} must be an integer")
    if seed_grid < 8:
        raise ValueError(f"seed_grid {seed_grid} must be at least 8")


def find_critical_points(field, seed_grid=24):
    """Locate and classify all critical points of the field.

    Newton iteration runs from a ``seed_grid`` x ``seed_grid`` lattice; roots
    are deduplicated on the torus and classified through the exact Hessian.
    The census is recomputed on the doubled lattice and must agree (raises
    SeedGridTooCoarse otherwise).  ``seed_grid`` must be an integer, at
    least 8.
    """
    _check_seed_grid(seed_grid)
    pts = _census(field, seed_grid)
    pts2 = _census(field, 2 * seed_grid)
    if len(pts) != len(pts2):
        raise SeedGridTooCoarse(
            f"{len(pts)} roots at n={seed_grid} but {len(pts2)} at "
            f"n={2 * seed_grid}")
    a = np.array([p.position for p in pts])
    b = np.array([p.position for p in pts2])
    d = torus.pairwise_dist(a, b)
    if np.max(np.min(d, axis=1)) > DEDUP_RADIUS:
        raise SeedGridTooCoarse("root positions moved under refinement")
    for i, p in enumerate(pts):
        p.index = i
    return pts


def _census(field, n):
    """Classified roots from an n x n seed lattice, in (x, y) order."""
    roots = _newton_batch(field, _seed_lattice(field, n))
    if len(roots) == 0:
        raise NotMorse("no critical points found; field may be degenerate")
    roots = roots[torus.distinct(roots, DEDUP_RADIUS)]
    # deterministic order: kind is not known yet, sort by (x, y)
    order = np.lexsort((roots[:, 1], roots[:, 0]))
    return _classify(field, roots[order])


def euler_check(points):
    """True iff #minima - #saddles + #maxima == 0 (torus Euler characteristic)."""
    if not points:
        raise ValueError("empty critical point list")
    n_min = sum(1 for p in points if p.kind == MIN)
    n_max = sum(1 for p in points if p.kind == MAX)
    n_sad = sum(1 for p in points if p.kind == SADDLE)
    return n_min - n_sad + n_max == 0
