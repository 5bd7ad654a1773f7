import json

import numpy as np
import pytest
from scipy.integrate import quad

from neumann_domains import MorseField, build_crack_perturbation
from neumann_domains.errors import NotAnEigenfunctionField
from neumann_domains.fields import (BUMP_PEAK, CrackPerturbation,
                                    bump_alpha, bump_beta, bump_gamma)


def test_separable_values(separable):
    assert separable.value([0.0, 0.0]) == pytest.approx(2.0)
    g = separable.gradient([np.pi / 2, np.pi])
    assert g == pytest.approx([-1.0, 0.0], abs=1e-15)
    H = separable.hessian([0.0, np.pi])
    assert H == pytest.approx(np.diag([-1.0, 1.0]), abs=1e-15)


def test_eigenfunction_identity(lambda17):
    # Delta f = lambda f pointwise, with Delta = -trace(Hess) on flat space
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 2 * np.pi, size=(1000, 2))
    H = lambda17.hessian(X)
    lap = -(H[..., 0, 0] + H[..., 1, 1])
    assert np.max(np.abs(lap - 17.0 * lambda17.value(X))) < 1e-10
    assert lambda17.is_eigenfunction
    assert lambda17.eigenvalue() == 17.0


def test_non_eigenfunction(anisotropic):
    # amplitudes are free: cos x + 2 cos y still solves Delta f = f
    assert anisotropic.is_eigenfunction
    assert anisotropic.eigenvalue() == 1.0
    mixed = MorseField([(1.0, 1, 0, 0.0), (1.0, 0, 2, 0.0)])
    assert not mixed.is_eigenfunction
    with pytest.raises(NotAnEigenfunctionField):
        mixed.eigenvalue()


def test_gradient_hessian_consistency(lambda17):
    # central differences agree with the closed forms
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 2 * np.pi, size=(50, 2))
    eps = 1e-6
    for d in range(2):
        e = np.zeros(2)
        e[d] = eps
        fd = (lambda17.value(X + e) - lambda17.value(X - e)) / (2 * eps)
        assert np.max(np.abs(fd - lambda17.gradient(X)[:, d])) < 1e-7
        gd = (lambda17.gradient(X + e) - lambda17.gradient(X - e)) / (2 * eps)
        assert np.max(np.abs(gd - lambda17.hessian(X)[:, :, d])) < 1e-6


def test_bump_beta_matches_quadrature():
    K = 3.0
    for x in (-0.9, -0.3, 0.0, 0.4, 0.95):
        num = quad(lambda t: float(bump_alpha(t, K)), -1, x, limit=200)[0]
        assert float(bump_beta(x, K)) == pytest.approx(num, abs=1e-11)
    # odd integrand: compact support of the antiderivative
    assert float(bump_beta(1.0, K)) == 0.0
    assert float(bump_beta(-1.0, K)) == 0.0


def test_bump_support_and_smoothness():
    x = np.linspace(-2, 2, 801)
    assert np.all(bump_gamma(x)[np.abs(x) >= 1] == 0)
    assert np.all(bump_alpha(x, 5.0)[np.abs(x) >= 1] == 0)
    assert np.all(bump_beta(x, 5.0)[np.abs(x) >= 1] == 0)
    # peak location of x*exp(-1/(1-x^2)) used by the amplitude gate
    xs = np.linspace(1e-4, 1 - 1e-4, 20001)
    m = xs * np.exp(-1.0 / (1.0 - xs ** 2))
    assert np.max(m) == pytest.approx(BUMP_PEAK, rel=1e-6)



def _reference_crack_gradient(pert, pts):
    # the plain composition of the bump functions
    loc = pert.local_coords(pts)
    xi, eta = loc[..., 0], loc[..., 1]
    du = bump_alpha(xi, pert.K) * bump_gamma(eta)
    dv = bump_beta(xi, pert.K) * bump_gamma(eta, 1)
    return (np.stack([du, dv], axis=-1) / pert.scale) @ pert.frame.T


def test_crack_gradient_matches_bump_composition(crack_field):
    # bit for bit, signed zeros included: on random batches around the
    # patch, single points, a grid, exact support edges and zeros, and
    # batches with no row inside the support
    rng = np.random.default_rng(11)
    base = crack_field.perturbations[0]
    edge = np.array([-1.0, 1.0, 0.0, -0.0, np.nextafter(1.0, 0.0), 0.5])
    no_support = 0
    for trial in range(300):
        th = rng.uniform(0, 2 * np.pi)
        c, s = np.cos(th), np.sin(th)
        K = (12.0, -12.0, 0.0, -0.0, rng.normal())[trial % 5]
        pert = CrackPerturbation(base.center + rng.uniform(-1, 1, 2),
                                 [[c, -s], [s, c]], rng.uniform(0.1, 0.6),
                                 base.A, K)
        n = int(rng.integers(1, 20))
        if trial % 3 == 0:
            loc = rng.choice(edge, size=(n, 2))
            pts = pert.center + (loc * pert.scale) @ pert.frame.T
        else:
            spread = rng.choice((0.5, 2.0, 8.0))
            pts = pert.center + rng.normal(size=(n, 2)) * pert.scale * spread
        loc = pert.local_coords(pts)
        no_support += not (np.abs(loc) < 1.0).all(axis=-1).any()
        for q in (pts, pts[0], pts.reshape(1, n, 2)):
            got = pert.gradient(q)
            want = _reference_crack_gradient(pert, q)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert no_support >= 20
    # single points inside the support: numpy's scalar ** 2 is pow, which
    # rounds differently from an array's product on about one point in a
    # thousand
    loc = rng.uniform(-1.0, 1.0, size=(4000, 2))
    for p in base.center + (loc * base.scale) @ base.frame.T:
        assert np.array_equal(base.gradient(p).view(np.uint64),
                              _reference_crack_gradient(base, p)
                              .view(np.uint64))
    g = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    grid = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
    assert np.array_equal(base.gradient(grid).view(np.uint64),
                          _reference_crack_gradient(base, grid)
                          .view(np.uint64))

def test_json_round_trip(tmp_path, crack_field):
    p = tmp_path / "field.json"
    crack_field.to_json(p)
    back = MorseField.from_json(p)
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 2 * np.pi, size=(200, 2))
    assert np.array_equal(back.value(X), crack_field.value(X))
    assert back.to_json() == crack_field.to_json()
    data = json.loads(p.read_text())
    assert set(data) == {"modes", "perturbations"}
    assert {"a", "m", "n", "theta"} <= set(data["modes"][0])


def test_negation(lambda17):
    neg = lambda17.negated()
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 2 * np.pi, size=(100, 2))
    assert np.allclose(neg.value(X), -lambda17.value(X), atol=1e-15)
    assert np.allclose(neg.gradient(X), -lambda17.gradient(X), atol=1e-15)


@pytest.mark.parametrize("bad", [
    {"foo": 1},
    [1, 2],
    {"modes": [{"m": 1, "n": 0}]},
    {"modes": [{"a": 1.0, "m": 1, "n": 0}], "perturbations": [{}]},
    {"modes": [{"a": 1.0, "m": 1, "n": 0, "theta": None}]},
    {"modes": [{"a": float("inf"), "m": 1, "n": 0}]},
    {"modes": [{"a": 1.0, "m": float("inf"), "n": 0}]},
    {"modes": [{"a": 1.0, "m": 3.00001, "n": 0}]},
], ids=["no-modes", "list", "no-amplitude", "empty-perturbation",
        "null-phase", "infinite-amplitude", "infinite-wave",
        "non-integer-wave"])
def test_malformed_definition_raises_value_error(bad):
    with pytest.raises(ValueError):
        MorseField.from_dict(bad)


@pytest.mark.parametrize("m", [float("inf"), float("nan"), 3.00001,
                               3 + 1e-12])
def test_wave_vectors_are_exact_integers(m):
    # a wave off the integers, however slightly, makes the field
    # non-periodic (with m = 3.00001, f(x + 2 pi) and f(x) differ in the
    # fifth digit), and to_dict would write it back rounded
    with pytest.raises(ValueError, match="integer pairs"):
        MorseField([(1.0, m, 2, 0.0)])
    with pytest.raises(ValueError, match="integer pairs"):
        MorseField([(1.0, 2, 0, 0.0), (0.5, 0, m, 0.0)])
    assert MorseField([(1.0, 3.0, -2, 0.0)]).to_dict()["modes"][0]["m"] == 3


def test_mode_entries_are_single_numbers():
    # two modes with a list phase once gave a phase array of shape (2, 2),
    # and a list amplitude one of shape (2, 1), which value() broadcast
    # into arrays of the wrong shape
    for mode in ((1.0, 1, 0, [0.0, 0.5]), ([1.0], 1, 0, 0.0),
                 (1.0, [1, 2], 0, 0.0)):
        for modes in ([mode], [mode, mode]):
            with pytest.raises(ValueError, match="single numbers"):
                MorseField(modes)


PATCH = {"center": [1.0, 2.0], "frame": [[1.0, 0.0], [0.0, 1.0]],
         "scale": 0.3, "A": 0.3, "K": 12.0}


@pytest.mark.parametrize("change", [
    {"center": None}, {"center": [1.0, np.nan]}, {"center": [1.0, 2.0, 3.0]},
    {"frame": None}, {"frame": np.eye(3)}, {"frame": [[1.0, np.inf],
                                                     [0.0, 1.0]]},
    {"scale": 0.0}, {"scale": -0.3}, {"scale": np.inf}, {"scale": np.nan},
    {"A": np.nan}, {"K": np.inf}, {"K": None},
], ids=["null-center", "nan-center", "three-centers", "null-frame",
        "3x3-frame", "infinite-frame", "zero-scale", "negative-scale",
        "infinite-scale", "nan-scale", "nan-A", "infinite-K", "null-K"])
def test_malformed_crack_patch_raises_value_error(separable, change):
    CrackPerturbation(**PATCH)
    with pytest.raises(ValueError):
        CrackPerturbation(**{**PATCH, **change})
    modes = separable.to_dict()["modes"]
    with pytest.raises(ValueError):
        MorseField.from_dict({"modes": modes,
                              "perturbations": [{**PATCH, **change}]})
    if set(change) <= {"center", "scale", "K"}:
        args = {**PATCH, **change}
        with pytest.raises(ValueError):
            build_crack_perturbation(separable, args["center"],
                                     args["scale"], args["K"])
