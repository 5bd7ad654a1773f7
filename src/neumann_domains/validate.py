"""Invariant suite shared by the CLI verify subcommand and the tests."""

import numpy as np

from . import torus
from .complexes import build_complex
from .critical import MAX, MIN, SADDLE
from .geometry import _point_in_polygon

HAUSDORFF_TOL = 1e-4
CLOUD_STRIDE = 3       # every n-th line sample enters the Hausdorff cloud


def _line_cloud(cx):
    return np.vstack([ln.samples[::CLOUD_STRIDE] for ln in cx.lines])


def hausdorff_torus(a, b):
    """Symmetric Hausdorff distance between two point clouds on the torus."""
    ta, tb = torus.tree(a), torus.tree(b)
    d_ab, _ = tb.query(ta.data)
    d_ba, _ = ta.query(tb.data)
    return max(float(np.max(d_ab)), float(np.max(d_ba)))


def attachment_samples(cx, rng):
    """Five random interior points per face, clear of its boundary.

    Returns (points wrapped to the fundamental domain, owning face of each).
    """
    samples = []
    owners = []
    for face in cx.faces:
        polygon = face.polygon
        lo, hi = polygon.min(axis=0), polygon.max(axis=0)
        clearance = 0.02
        got = 0
        for _ in range(4000):
            if got == 5:
                break
            p = rng.uniform(lo, hi)
            if _point_in_polygon(p[None, :], polygon)[0]:
                d = np.min(np.linalg.norm(polygon - p, axis=1))
                if d > clearance:
                    samples.append(p)
                    owners.append(face)
                    got += 1
            clearance *= 0.999   # thin faces need smaller clearance
    return torus.wrap(np.array(samples)), owners


def run_invariants(field, seed_grid=24, rng_seed=7):
    """Run the invariant suite on one field.

    Returns a list of (check_name, ok, detail) triples.  Only checks that
    can fail once the complex is built are run: the build itself raises
    EulerMismatch when V - E + F != 0 and SeedGridTooCoarse when the census
    moves under refinement, and the angles at a vertex sum to 2*pi by
    construction.
    """
    results = []
    rng = np.random.default_rng(rng_seed)

    cx = build_complex(field, seed_grid)

    # the faces tessellate the torus
    total = sum(f.area for f in cx.faces)
    results.append(("faces_tile_torus",
                    abs(total - torus.PERIOD ** 2) < 1e-6,
                    f"sum of areas {total:.9f} vs {torus.PERIOD ** 2:.9f}"))

    # negation symmetry: the same census point by point with maxima and
    # minima swapped (-f's Newton iterates are f's bit for bit), the same
    # line geometry and the same face count
    cxn = build_complex(field.negated(), seed_grid)
    swap = {MIN: MAX, MAX: MIN, SADDLE: SADDLE}
    swap_ok = len(cx.critical_points) == len(cxn.critical_points) and all(
        cn.kind == swap[c.kind] and np.array_equal(cn.position, c.position)
        for c, cn in zip(cx.critical_points, cxn.critical_points))
    hd = hausdorff_torus(_line_cloud(cx), _line_cloud(cxn))
    results.append(("negation_swaps_labels", swap_ok, "kind census swapped"))
    results.append(("negation_line_hausdorff", hd <= HAUSDORFF_TOL,
                    f"Hausdorff {hd:.2e}"))
    results.append(("negation_face_count", len(cx.faces) == len(cxn.faces),
                    f"{len(cx.faces)} vs {len(cxn.faces)}"))

    # face-extremum attachment independent of the interior samples: five
    # random interior points per face, flowed both ways in one batch
    from .flow import BACKWARD, FORWARD, flow_endpoints
    pts, owners = attachment_samples(cx, rng)
    n = len(pts)
    ends = flow_endpoints(field, np.vstack([pts, pts]),
                          [FORWARD] * n + [BACKWARD] * n, cx.critical_points)
    bad = sum(1 for face, mn, mx in zip(owners, ends[:n], ends[n:])
              if mn != face.min_index or mx != face.max_index)
    results.append(("face_attachment_stable", bad == 0,
                    f"{n} samples over {len(cx.faces)} faces, "
                    f"{bad} mismatches"))

    # deterministic export
    s1 = cx.to_json()
    s2 = build_complex(field, seed_grid).to_json()
    results.append(("deterministic_report", s1 == s2,
                    f"{len(s1)} bytes"))
    return results
