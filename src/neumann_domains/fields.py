"""Closed-form scalar fields on the flat torus.

A field is a finite sum of plane-wave modes

    f(x, y) = sum_i  a_i * cos(m_i x + n_i y + theta_i),   (m_i, n_i) integers,

optionally augmented by compactly supported bump perturbations (see
:mod:`neumann_domains.cracked`).  Values, gradients and Hessians are exact;
nothing in the evaluation path uses finite differences.
"""

import json

import numpy as np
from scipy.special import expi

from . import torus
from .errors import NotAnEigenfunctionField


# ---------------------------------------------------------------------------
# bump building blocks, all supported in (-1, 1)
# ---------------------------------------------------------------------------

def bump_gamma(y, order=0):
    """exp(-1/(1-y^2)) inside (-1,1), zero outside; derivatives up to order 2."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    out = np.zeros_like(y)
    ys = np.where(inside, y, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        g = np.exp(-1.0 / (1.0 - ys * ys))
    if order == 0:
        out[inside] = g[inside]
        return out
    w = -2.0 * ys / (1.0 - ys * ys) ** 2
    if order == 1:
        out[inside] = (g * w)[inside]
        return out
    if order == 2:
        wp = -2.0 * (1.0 + 3.0 * ys * ys) / (1.0 - ys * ys) ** 3
        out[inside] = (g * (w * w + wp))[inside]
        return out
    raise ValueError("order must be 0, 1 or 2")


def bump_alpha(x, K, order=0):
    """Odd bump -K * x * exp(-1/(1-x^2)); integrates to zero over (-1,1)."""
    x = np.asarray(x, dtype=float)
    if order == 0:
        return -K * x * bump_gamma(x)
    if order == 1:
        return -K * (bump_gamma(x) + x * bump_gamma(x, 1))
    raise ValueError("order must be 0 or 1")


def bump_beta(x, K):
    """Antiderivative of bump_alpha from -1, in closed form.

    With H(v) = (1-v) e^{-1/(1-v)} + Ei(-1/(1-v)) one has
    beta(x) = (K/2) * H(x^2); H(1) = 0 gives compact support.
    """
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    out = np.zeros_like(x)
    v = np.where(inside, x * x, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        s = 1.0 - v
        h = s * np.exp(-1.0 / s) + expi(-1.0 / s)
    out[inside] = (0.5 * K * h)[inside]
    return out


# peak of x*exp(-1/(1-x^2)) on (0,1): at x* solving (1-x*^2)^2 = 2 x*^2
BUMP_ARGMAX = float((np.sqrt(6.0) - np.sqrt(2.0)) / 2.0)
BUMP_PEAK = float(BUMP_ARGMAX * np.exp(-1.0 / (1.0 - BUMP_ARGMAX ** 2)))


def _crack_params(center, scale, K, frame=((1.0, 0.0), (0.0, 1.0)), A=0.0):
    """Checked perturbation parameters (center, scale, K, frame, A).

    Raises ValueError unless ``center`` is two finite numbers, ``scale`` is
    finite and positive, ``K`` is finite, ``frame`` is a finite 2x2 matrix
    and ``A`` is finite.  The defaults of ``frame`` and ``A`` pass, for a
    caller that derives them from the other three.
    """
    try:
        center = np.asarray(center, dtype=float)
        frame = np.asarray(frame, dtype=float)
        scale, K, A = float(scale), float(K), float(A)
    except TypeError as exc:
        raise ValueError(f"malformed crack parameter: {exc}") from exc
    if center.shape != (2,) or not np.isfinite(center).all():
        raise ValueError(f"crack center {center.tolist()} must be two "
                         "finite numbers")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"crack scale {scale} must be finite and positive")
    if not np.isfinite(K):
        raise ValueError(f"bump amplitude K = {K} must be finite")
    if frame.shape != (2, 2) or not np.isfinite(frame).all():
        raise ValueError(f"crack frame {frame.tolist()} must be a finite "
                         "2x2 matrix")
    if not np.isfinite(A):
        raise ValueError(f"base slope A = {A} must be finite")
    return center, scale, K, frame, A


def _in_support(c):
    """Mask of |c| < 1 and the coordinates there, or None when there are none.

    A single point's coordinate comes back as a numpy scalar, as the bump
    functions see it: a scalar's ``** 2`` is ``pow``, an array's a product,
    and the two can differ in the last bit.
    """
    on = np.abs(c) < 1.0
    if not on.any():
        return on, None
    return on, (c[on] if c.ndim else c[()])


class CrackPerturbation:
    """One compactly supported perturbation term beta(xi) * gamma(eta).

    Local coordinates (xi, eta) in (-1,1)^2 are obtained by translating to
    ``center``, rotating into ``frame`` (first column along the base gradient
    at the center) and dividing by ``scale``.  ``A`` is the base-field slope
    in local units, ``K`` the bump amplitude.  Raises ValueError when a
    parameter is malformed (see ``_crack_params``).

    ``gradient`` evaluates the exponentials (and Ei) of each local
    coordinate only on the points where that coordinate lies in (-1, 1),
    with the operations of ``bump_alpha``, ``bump_beta`` and ``bump_gamma``
    in their order, so it returns the same bits as their composition,
    signed zeros included.
    """

    def __init__(self, center, frame, scale, A, K):
        (self.center, self.scale, self.K, self.frame,
         self.A) = _crack_params(center, scale, K, frame, A)

    def local_coords(self, pts):
        d = torus.delta(self.center, pts)
        return d @ self.frame / self.scale

    def value(self, pts):
        loc = self.local_coords(pts)
        return bump_beta(loc[..., 0], self.K) * bump_gamma(loc[..., 1])

    def gradient(self, pts):
        # bump_alpha(xi) * bump_gamma(eta) and bump_beta(xi) *
        # bump_gamma(eta, 1); each coordinate's exp serves both its factors
        loc = self.local_coords(pts)
        xi, eta = loc[..., 0], loc[..., 1]
        parts = np.zeros((4,) + xi.shape)
        g_xi, beta, g_eta, dg_eta = (parts[i, ...] for i in range(4))
        on, x = _in_support(xi)
        if x is not None:
            s = 1.0 - x * x
            e = np.exp(-1.0 / s)
            g_xi[on] = e
            beta[on] = 0.5 * self.K * (s * e + expi(-1.0 / s))
        on, y = _in_support(eta)
        if y is not None:
            s = 1.0 - y * y
            e = np.exp(-1.0 / s)
            g_eta[on] = e
            dg_eta[on] = e * (-2.0 * y / s ** 2)
        grad_loc = np.empty(loc.shape)
        np.multiply(-self.K * xi * g_xi, g_eta, out=grad_loc[..., 0])
        np.multiply(beta, dg_eta, out=grad_loc[..., 1])
        grad_loc /= self.scale
        return grad_loc @ self.frame.T

    def hessian(self, pts):
        loc = self.local_coords(pts)
        xi, eta = loc[..., 0], loc[..., 1]
        huu = bump_alpha(xi, self.K, 1) * bump_gamma(eta)
        huv = bump_alpha(xi, self.K) * bump_gamma(eta, 1)
        hvv = bump_beta(xi, self.K) * bump_gamma(eta, 2)
        h_loc = np.empty(loc.shape[:-1] + (2, 2))
        h_loc[..., 0, 0] = huu
        h_loc[..., 0, 1] = huv
        h_loc[..., 1, 0] = huv
        h_loc[..., 1, 1] = hvv
        h_loc /= self.scale ** 2
        return np.einsum("ia,...ab,jb->...ij", self.frame, h_loc, self.frame)

    def to_dict(self):
        return {
            "center": self.center.tolist(),
            "frame": self.frame.tolist(),
            "scale": self.scale,
            "A": self.A,
            "K": self.K,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["center"], d["frame"], d["scale"], d["A"], d["K"])


class MorseField:
    """Trigonometric field on the torus with exact derivatives.

    Parameters
    ----------
    modes : sequence of (a, m, n, theta)
        Amplitude, integer wave vector and phase of each mode.
    perturbations : sequence of CrackPerturbation, optional
    """

    def __init__(self, modes, perturbations=()):
        modes = list(modes)
        if not modes:
            raise ValueError("at least one mode is required")
        if any(np.ndim(v) != 0 for mo in modes for v in mo):
            raise ValueError("mode entries must be single numbers")
        self.amp = np.array([mo[0] for mo in modes], dtype=float)
        self.wave = np.array([[mo[1], mo[2]] for mo in modes], dtype=float)
        if not (np.isfinite(self.wave).all()
                and (self.wave == np.round(self.wave)).all()):
            raise ValueError("wave vectors must be integer pairs")
        self.phase = np.array([mo[3] for mo in modes], dtype=float)
        if not (np.all(np.isfinite(self.amp))
                and np.all(np.isfinite(self.phase))):
            raise ValueError("mode amplitudes and phases must be finite")
        self.perturbations = list(perturbations)

    # -- evaluation ---------------------------------------------------------

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        ph = pts @ self.wave.T + self.phase
        out = np.cos(ph) @ self.amp
        for p in self.perturbations:
            out = out + p.value(pts)
        return out

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        ph = pts @ self.wave.T + self.phase
        out = -(np.sin(ph) * self.amp) @ self.wave
        for p in self.perturbations:
            out = out + p.gradient(pts)
        return out

    def hessian(self, pts):
        pts = np.asarray(pts, dtype=float)
        ph = pts @ self.wave.T + self.phase
        coef = -np.cos(ph) * self.amp                       # (..., M)
        outer = self.wave[:, :, None] * self.wave[:, None, :]  # (M, 2, 2)
        out = np.einsum("...m,mij->...ij", coef, outer)
        for p in self.perturbations:
            out = out + p.hessian(pts)
        return out

    # -- structure ----------------------------------------------------------

    @property
    def is_eigenfunction(self):
        """True when all modes share |k|^2 and no perturbations are present."""
        if self.perturbations:
            return False
        k2 = np.sum(self.wave ** 2, axis=1)
        return bool(np.all(k2 == k2[0]))

    def eigenvalue(self):
        """Laplace eigenvalue |k|^2 shared by all modes."""
        if not self.is_eigenfunction:
            raise NotAnEigenfunctionField(
                "field is not a pure eigenfunction of the torus Laplacian")
        return float(np.sum(self.wave[0] ** 2))

    def negated(self):
        """The field -f (perturbation amplitudes flip with the modes)."""
        modes = [(-a, int(m), int(n), th) for a, (m, n), th in
                 zip(self.amp, self.wave, self.phase)]
        perts = [CrackPerturbation(p.center, p.frame, p.scale, p.A, -p.K)
                 for p in self.perturbations]
        return MorseField(modes, perts)

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {
            "modes": [
                {"a": float(a), "m": int(m), "n": int(n), "theta": float(th)}
                for a, (m, n), th in zip(self.amp, self.wave, self.phase)
            ],
            "perturbations": [p.to_dict() for p in self.perturbations],
        }

    @classmethod
    def from_dict(cls, d):
        """Field from its ``to_dict`` form; ValueError names a malformed one."""
        try:
            modes = [(mo["a"], mo["m"], mo["n"], mo.get("theta", 0.0))
                     for mo in d["modes"]]
            perts = [CrackPerturbation.from_dict(p)
                     for p in d.get("perturbations", [])]
        except KeyError as exc:
            raise ValueError(f"field definition lacks the key {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed field definition: {exc}") from exc
        return cls(modes, perts)

    def to_json(self, path=None):
        s = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s + "\n")
        return s

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def load_bundled(name):
    """Load one of the fields shipped with the package ('separable',
    'anisotropic' or 'lambda17')."""
    from importlib import resources
    ref = resources.files("neumann_domains") / "bundled" / (name + ".json")
    return MorseField.from_dict(json.loads(ref.read_text()))


BUNDLED_NAMES = ("separable", "anisotropic", "lambda17")
