import numpy as np
import pytest

from neumann_domains import (MorseField, build_complex,
                             domain_spectrum_report, load_bundled,
                             mesh_domain)
from neumann_domains.cracked import build_crack_perturbation, verify_cracked


@pytest.fixture(scope="session")
def separable():
    return load_bundled("separable")


@pytest.fixture(scope="session")
def anisotropic():
    return load_bundled("anisotropic")


@pytest.fixture(scope="session")
def lambda17():
    return load_bundled("lambda17")


@pytest.fixture(scope="session")
def axes17():
    # two orthogonal modes: all flow lines are straight, no cusps
    return MorseField([(1.0, 1, 4, 0.0), (0.6, 4, -1, 0.0)])


@pytest.fixture(scope="session")
def sep_complex(separable):
    return build_complex(separable, 16)


@pytest.fixture(scope="session")
def aniso_complex(anisotropic):
    return build_complex(anisotropic, 16)


@pytest.fixture(scope="session")
def l17_complex(lambda17):
    return build_complex(lambda17, 24)


@pytest.fixture(scope="session")
def generic_complex():
    # non-orthogonal mode pair at lambda = 5: every extremum has a braided
    # zero-angle wedge
    return build_complex(MorseField([(1.0, 1, 2, 0.0), (0.7, 2, 1, 0.3)]), 24)


@pytest.fixture(scope="session")
def crack_field(separable):
    return build_crack_perturbation(separable, (np.pi / 2, np.pi / 2),
                                    0.3, 12.0)


@pytest.fixture(scope="session")
def crack_report(crack_field):
    return verify_cracked(crack_field, 24)


def draw_eigenfunction(rng):
    """Modes (a, m, n, theta) of a generic eigenfunction field from rng.

    lam is one of 5, 10, 13, 17, 25; two or three of its wave vectors up to
    sign are drawn, each with an amplitude in [0.3, 1) and a phase in
    [0, 2 pi).  The recipe is pinned by a digest of its first draws, so the
    corpus it seeds stays the same from one change to the next.
    """
    lam = rng.choice((5, 10, 13, 17, 25))
    vs = [(m, n) for m in range(-5, 6) for n in range(-5, 6)
          if m * m + n * n == lam and (m > 0 or (m == 0 and n > 0))]
    k = min(int(rng.integers(2, 4)), len(vs))
    modes = []
    for i in sorted(rng.choice(len(vs), k, replace=False)):
        a = rng.uniform(0.3, 1)
        modes.append((a, *vs[i], rng.uniform(0, 2 * np.pi)))
    return modes


def grid_sign_census(field, n=1024):
    """Independent critical point census by sign analysis on a fine grid.

    A cell is a candidate when both gradient components change sign among
    its corners; 4-connected candidate clusters (periodic) are counted and
    classified by the Hessian at the cluster centroid.  No Newton iteration
    is involved.
    """
    g = np.arange(n) / n * 2 * np.pi
    X, Y = np.meshgrid(g, g, indexing="ij")
    G = field.gradient(np.stack([X, Y], axis=-1))

    def mixed(s):
        a = s
        b = np.roll(s, -1, 0)
        c = np.roll(s, -1, 1)
        d = np.roll(np.roll(s, -1, 0), -1, 1)
        return ~((a & b & c & d) | (~a & ~b & ~c & ~d))

    cand = mixed(G[..., 0] > 0) & mixed(G[..., 1] > 0)
    lab = np.full(cand.shape, -1, dtype=int)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    nxt = 0
    idx = np.argwhere(cand)
    for i, j in idx:
        neigh = []
        for di, dj in ((-1, 0), (0, -1)):
            ii, jj = (i + di) % n, (j + dj) % n
            if cand[ii, jj] and lab[ii, jj] >= 0:
                neigh.append(lab[ii, jj])
        if neigh:
            lab[i, j] = neigh[0]
            for m in neigh[1:]:
                union(neigh[0], m)
        else:
            lab[i, j] = nxt
            parent[nxt] = nxt
            nxt += 1
    # wrap seams
    for i, j in idx:
        for di, dj in ((1, 0), (0, 1)):
            ii, jj = (i + di) % n, (j + dj) % n
            if cand[ii, jj]:
                union(lab[i, j], lab[ii, jj])

    clusters = {}
    step = 2 * np.pi / n
    for (i, j) in idx:
        clusters.setdefault(find(lab[i, j]), []).append((g[i], g[j]))
    counts = {"minimum": 0, "maximum": 0, "saddle": 0}
    for pts in clusters.values():
        arr = np.array(pts)
        ref = arr[0]
        arr = arr - 2 * np.pi * np.round((arr - ref) / (2 * np.pi))
        c = arr.mean(axis=0) + 0.5 * step
        vals = np.linalg.eigvalsh(field.hessian(c))
        if vals[0] > 0:
            counts["minimum"] += 1
        elif vals[1] < 0:
            counts["maximum"] += 1
        else:
            counts["saddle"] += 1
    return counts


@pytest.fixture(scope="session")
def l17_meshes(lambda17, l17_complex):
    # every lambda17 face at h = 0.03, the meshes of the 68-face report digest
    return [mesh_domain(lambda17, face, 0.03,
                        critical_points=l17_complex.critical_points)
            for face in l17_complex.faces]


@pytest.fixture(scope="session")
def l17_reports(lambda17, l17_meshes):
    # the spectrum report of every lambda17 face at lam = 17 with k = 12
    return [domain_spectrum_report(lambda17, mesh, 17.0, 12)
            for mesh in l17_meshes]
