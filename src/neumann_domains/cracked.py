"""Injection of a degree-one extremum into a critical-point-free patch.

Adding beta(xi)*gamma(eta) to a field that is close to linear over a small
patch creates exactly one non-degenerate maximum and one saddle inside the
patch (or a minimum and a saddle when the bump amplitude is negative).  One
Neumann line of the new saddle ends at the new extremum, which therefore has
degree one, and the face containing it is cracked.
"""

import numpy as np

from . import torus
from .critical import MAX, MIN, SADDLE
from .errors import (AmplitudeTooSmall, ConstructionFailed,
                     PatchContainsCriticalPoint, PatchTooLarge)
from .fields import (BUMP_PEAK, CrackPerturbation, MorseField,
                     _crack_params)

LINEARITY_TOL = 0.05
# critical points appear where alpha(x) * gamma(0) = -A, so the bump must
# clear the slope with the gamma(0) = e^{-1} attenuation included
GAMMA0 = float(np.exp(-1.0))
EFFECTIVE_PEAK = BUMP_PEAK * GAMMA0
PATCH_GRID = 41        # samples per side of the patch checks


def _patch_grid(center, frame, scale):
    loc = np.linspace(-1.0, 1.0, PATCH_GRID)
    lx, ly = np.meshgrid(loc, loc, indexing="ij")
    lxy = np.stack([lx.ravel(), ly.ravel()], axis=-1)
    return torus.wrap(center + (lxy * scale) @ frame.T), lxy


def build_crack_perturbation(field, center, scale, K):
    """Append a bump perturbation to the field, after checking the patch.

    The patch is the square of half-width ``scale`` in the frame aligned
    with the base gradient at ``center``.  Raises
    PatchContainsCriticalPoint / AmplitudeTooSmall / PatchTooLarge when the
    construction hypotheses fail, and ValueError unless ``center`` is two
    finite numbers, ``scale`` is finite and positive and ``K`` is finite.
    A centre where the base gradient vanishes has no frame, and a patch
    where |grad f| drops under 5% of its largest value holds (or nearly
    holds) a critical point; both raise PatchContainsCriticalPoint.
    """
    center, scale, K, _, _ = _crack_params(center, scale, K)
    g0 = field.gradient(center)
    gn = np.linalg.norm(g0)
    if gn == 0.0:
        raise PatchContainsCriticalPoint(
            f"grad f vanishes at the patch centre ({center[0]:.6g}, "
            f"{center[1]:.6g})")
    e1 = g0 / gn
    e2 = np.array([-e1[1], e1[0]])
    frame = np.stack([e1, e2], axis=1)

    pts, lxy = _patch_grid(center, frame, scale)
    gnorm = np.linalg.norm(field.gradient(pts), axis=1)
    gmin, gmax = float(np.min(gnorm)), float(np.max(gnorm))
    if gmin < 0.05 * gmax:
        raise PatchContainsCriticalPoint(
            f"|grad f| drops to {gmin:.3g} inside the patch, under 5% of "
            f"its largest value {gmax:.3g}")

    A = gn * scale     # base slope in local units
    if abs(K) * EFFECTIVE_PEAK <= A:
        raise AmplitudeTooSmall(
            f"|K| * {EFFECTIVE_PEAK:.6f} = {abs(K) * EFFECTIVE_PEAK:.6f} "
            f"does not exceed the local slope A = {A:.6f}")

    vals = field.value(pts)
    linear = field.value(center) + A * lxy[:, 0]
    dev = float(np.max(np.abs(vals - linear)))
    if dev > LINEARITY_TOL * A:
        raise PatchTooLarge(
            f"base field deviates from linear by {dev:.3g} "
            f"(> {LINEARITY_TOL:.0%} of A = {A:.3g}) over the patch")

    pert = CrackPerturbation(center, frame, scale, A, K)
    return MorseField(
        [(a, int(m), int(n), th) for a, (m, n), th in
         zip(field.amp, field.wave, field.phase)],
        list(field.perturbations) + [pert])


class CrackReport:
    """Outcome of verify_cracked: the new points and the cracked face."""

    def __init__(self, new_max, new_saddle, cracked_faces, complex_):
        self.new_max = new_max
        self.new_saddle = new_saddle
        self.cracked_faces = cracked_faces
        self.complex = complex_

    def to_dict(self):
        return {
            "new_extremum": self.new_max.to_dict(),
            "new_saddle": self.new_saddle.to_dict(),
            "cracked_faces": [f.index for f in self.cracked_faces],
        }


def verify_cracked(field_tilde, seed_grid=24):
    """Run the full pipeline on a perturbed field and check the construction.

    Asserts: the perturbed field is Morse-Smale; exactly one new extremum and
    one new saddle live inside the patch; the new extremum has degree one;
    the new saddle's lines end at the expected extrema; and exactly one face
    is classified cracked.  Raises ConstructionFailed naming the first
    assertion that breaks.
    """
    from .complexes import CRACKED, build_complex

    if not field_tilde.perturbations:
        raise ValueError("field has no crack perturbation")
    pert = field_tilde.perturbations[-1]

    cx = build_complex(field_tilde, seed_grid)
    cps = cx.critical_points

    loc = pert.local_coords(np.array([c.position for c in cps]))
    inside = np.max(np.abs(loc), axis=1) < 1.0
    new_pts = [c for c, m in zip(cps, inside) if m]
    if len(new_pts) != 2:
        raise ConstructionFailed(
            f"expected 2 critical points inside the patch, found {len(new_pts)}")
    kinds = sorted(c.kind for c in new_pts)
    want_extremum = MAX if pert.K > 0 else MIN
    if kinds != sorted([want_extremum, SADDLE]):
        raise ConstructionFailed(
            f"patch points are {kinds}, expected {want_extremum} + saddle")
    q_star = next(c for c in new_pts if c.kind == want_extremum)
    r_star = next(c for c in new_pts if c.kind == SADDLE)

    if not cx.is_morse_smale():
        raise ConstructionFailed("perturbed field is not Morse-Smale")

    if cx.degree(q_star.index) != 1:
        raise ConstructionFailed(
            f"new extremum has degree {cx.degree(q_star.index)}, expected 1")

    # the new saddle's four lines: two end at the enclosing face's opposite
    # extremum, and the two on the q* side split between q* and the old one
    targets = [ln.end_index for ln in cx.lines
               if ln.start_index == r_star.index]
    if len(targets) != 4 or q_star.index not in targets:
        raise ConstructionFailed(
            "new saddle is not connected to the new extremum")
    same_kind = [t for t in targets
                 if cps[t].kind == want_extremum and t != q_star.index]
    opposite = [t for t in targets
                if cps[t].kind == (MIN if want_extremum == MAX else MAX)]
    if len(opposite) != 2 or len(set(opposite)) != 1:
        raise ConstructionFailed(
            "downhill lines of the new saddle do not share one extremum")
    if len(same_kind) != 1:
        raise ConstructionFailed(
            "uphill lines of the new saddle do not split between the maxima")

    cracked = [f for f in cx.faces if f.classification == CRACKED]
    if len(cracked) != 1:
        raise ConstructionFailed(
            f"expected exactly one cracked face, found {len(cracked)}")
    if cracked[0].max_index != q_star.index and \
            cracked[0].min_index != q_star.index:
        raise ConstructionFailed(
            "the cracked face does not contain the new extremum")
    return CrackReport(q_star, r_star, cracked, cx)
