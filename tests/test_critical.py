import numpy as np
import pytest

from conftest import grid_sign_census
from neumann_domains import MorseField, euler_check, find_critical_points
from neumann_domains import torus
from neumann_domains.critical import (DEDUP_RADIUS, MAX, MIN, SADDLE,
                                      CriticalPoint, _census, _dedup)
from neumann_domains.errors import NotMorse, SeedGridTooCoarse


def kind_counts(points):
    out = {MIN: 0, MAX: 0, SADDLE: 0}
    for p in points:
        out[p.kind] += 1
    return out


def test_separable_census(separable):
    pts = find_critical_points(separable, 16)
    assert len(pts) == 4
    expected = {
        (0.0, 0.0): MAX,
        (np.pi, np.pi): MIN,
        (0.0, np.pi): SADDLE,
        (np.pi, 0.0): SADDLE,
    }
    for p in pts:
        key = min(expected, key=lambda q: np.hypot(p.position[0] - q[0],
                                                   p.position[1] - q[1]))
        assert np.hypot(*(p.position - key)) < 1e-8
        assert p.kind == expected[key]
        assert p.grad_norm <= 1e-12


def test_anisotropic_census(anisotropic):
    pts = find_critical_points(anisotropic, 16)
    assert len(pts) == 4
    top = next(p for p in pts if p.kind == MAX)
    assert top.hess_eigvals == pytest.approx([-2.0, -1.0])
    assert not top.is_hess_proportional
    sep_max = find_critical_points(MorseField([(1, 1, 0, 0), (1, 0, 1, 0)]),
                                   16)
    assert next(p for p in sep_max if p.kind == MAX).is_hess_proportional


def test_axes17_census_against_grid_oracle(axes17):
    # frozen from grid_sign_census(axes17, 1024): 17 minima, 17 maxima,
    # 34 saddles
    pts = find_critical_points(axes17, 24)
    assert kind_counts(pts) == {MIN: 17, MAX: 17, SADDLE: 34}
    assert euler_check(pts)
    oracle = grid_sign_census(axes17, 512)
    assert oracle == kind_counts(pts)


def test_lambda17_census_against_grid_oracle(lambda17, l17_complex):
    pts = l17_complex.critical_points
    assert kind_counts(pts) == {MIN: 17, MAX: 17, SADDLE: 34}
    assert euler_check(pts)
    oracle = grid_sign_census(lambda17, 512)
    assert oracle == kind_counts(pts)
    for p in pts:
        assert p.grad_norm <= 1e-12
        h = np.abs(p.hess_eigvals)
        assert np.min(h) / np.max(h) > 1e-8


def test_euler_check_cases():
    def mk(kind):
        return CriticalPoint([0, 0], kind, np.array([1.0, 2.0]), np.eye(2),
                             0.0, 0.0)

    assert euler_check([mk(MAX), mk(SADDLE), mk(SADDLE), mk(MIN)])
    assert not euler_check([mk(MAX), mk(MIN)])
    with pytest.raises(ValueError):
        euler_check([])


def test_degenerate_field_rejected():
    # cos x has critical circles, not points
    with pytest.raises((NotMorse, SeedGridTooCoarse)):
        find_critical_points(MorseField([(1.0, 1, 0, 0.0)]), 16)


def test_seed_grid_floor(separable):
    with pytest.raises(ValueError):
        find_critical_points(separable, 4)


def test_seed_grid_integer(separable):
    # 16.5 once seeded a 17-point row that overran the period, and inf
    # raised numpy's "Maximum allowed size exceeded"
    for seed_grid in (16.5, 16.0, float("inf"), float("nan"), "16"):
        with pytest.raises(ValueError,
                           match="seed_grid .* must be an integer"):
            find_critical_points(separable, seed_grid)
    # numpy integers are integers
    got = find_critical_points(separable, np.int64(16))
    ref = find_critical_points(separable, 16)
    assert [p.position.tolist() for p in got] == \
        [p.position.tolist() for p in ref]


def test_dedup_matches_brute_force_rule():
    # a root is kept unless an earlier kept root lies within DEDUP_RADIUS on
    # the torus, so a chain of roots 0.7 radii apart keeps every other one
    def brute(points):
        kept = []
        for p in points:
            if not kept or np.min(torus.dist(kept, p)) > DEDUP_RADIUS:
                kept.append(p)
        return np.array(kept)

    r, P = DEDUP_RADIUS, 2 * np.pi
    rng = np.random.default_rng(5)
    # clusters at a corner and on both seams; np.mod carries the points
    # across the seam, and can round a tiny negative coordinate up to 2*pi
    centres = np.array([[P - 0.2 * r, P - 0.2 * r], [0.1 * r, 3.0],
                        [1.0, P - 0.1 * r], [2.0, 2.0]])
    pts = np.vstack([c + rng.uniform(-0.6 * r, 0.6 * r, (6, 2))
                     for c in centres])
    chain = np.array([[4.0 + 0.7 * r * k, 5.0] for k in range(5)])
    pts = np.vstack([np.mod(pts, P), chain, [[P, 3.0], [1.0, P], [P, P]]])
    for seed in range(20):
        order = np.random.default_rng(seed).permutation(len(pts))
        np.testing.assert_array_equal(_dedup(pts[order]), brute(pts[order]))
    assert len(_dedup(chain)) == 3


def test_census_idempotent_under_refinement(lambda17):
    a = _census(lambda17, 24)
    b = _census(lambda17, 48)
    assert len(a) == len(b)
    pa = np.array([p.position for p in a])
    pb = np.array([p.position for p in b])
    d = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=-1)
    assert np.max(np.min(d, axis=1)) < 1e-6
