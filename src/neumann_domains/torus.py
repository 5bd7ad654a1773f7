"""The flat torus with fundamental domain [0, 2*pi)^2, and the one owner of
the period's arithmetic: the wrap, the period shift, displacements and
distances, lifts, the periodic KD-tree and the near-duplicate merge."""

import numpy as np
from scipy.spatial import cKDTree

PERIOD = 2.0 * np.pi


def wrap(x):
    """Reduce coordinates into the fundamental domain [0, 2*pi).

    ``np.mod`` rounds a tiny negative coordinate up to 2*pi; that is 0 here.
    """
    x = np.mod(x, PERIOD)
    return np.where(x < PERIOD, x, 0.0)


def period_shift(d):
    """The multiple of the period nearest to each component of d."""
    return PERIOD * np.round(d / PERIOD)


def delta(a, b):
    """Shortest displacement vector from a to b on the torus.

    Components are in (-pi, pi].  Broadcasts over leading axes.
    """
    d = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    return d - period_shift(d)


def dist(a, b):
    """Torus distance |delta(a, b)| along the last axis."""
    return np.linalg.norm(delta(a, b), axis=-1)


def nearest_lift(x, ref):
    """Translate x by multiples of the period so it lands nearest to ref."""
    x = np.asarray(x, dtype=float)
    return x + period_shift(np.asarray(ref, dtype=float) - x)


def pairwise_dist(points, centers):
    """Torus distances between each row of points (N,2) and centers (M,2) -> (N, M)."""
    d = points[:, None, :] - centers[None, :, :]
    d -= period_shift(d)
    return np.linalg.norm(d, axis=-1)


def tree(points):
    """Periodic cKDTree over the points (N, 2), wrapped into the domain."""
    return cKDTree(wrap(points), boxsize=PERIOD)


def distinct(points, radius):
    """Mask keeping each point unless an earlier kept one lies within radius
    on the torus (a point at exactly radius counts as a duplicate)."""
    t = tree(points)
    keep = np.ones(len(points), dtype=bool)
    for k in range(len(points)):
        if keep[k]:
            ball = t.query_ball_point(t.data[k], radius)
            keep[[j for j in ball if j > k]] = False
    return keep
