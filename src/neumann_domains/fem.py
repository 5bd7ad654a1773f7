"""Piecewise-linear finite elements for the Neumann Laplacian on a mesh.

No essential boundary conditions are imposed anywhere: the discrete operator
is the Galerkin projection of the Dirichlet energy form onto P1 functions,
so natural (Neumann) conditions hold on every boundary piece, including
truncation cuts and both sides of a crack slit.  Eigenpairs come from
shift-invert Lanczos; eigenvalue counts are certified by Sylvester inertia.
A report factors K - theta M once, at its counting threshold; that the
guard band below it holds no eigenvalue is proved from the solver's own
Ritz vectors (Courant-Fischer), with a second factorisation only where
that proof fails.
"""

import json
import numbers

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .errors import (AmbiguousCluster, NonSPDMass, NotAnEigenfunctionField,
                     SolverBreakdown, SpectrumTooShort)
from .geometry import triangle_areas

DENSE_LIMIT = 0     # no dense path; perfbench/spans.py splits solves on it
CLUSTER_TOL = 1e-3


def _check_args(lam=None, k=1, tol=CLUSTER_TOL, n=np.inf):
    """Refuse an out-of-range lam or tol, or a bad eigenvalue count k."""
    if lam is not None and not (lam >= 0 and np.isfinite(lam)):
        raise ValueError(f"lam = {lam} must be finite and non-negative")
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"eigenvalue count k = {k!r} must be an integer")
    if k < 1:
        raise ValueError(f"eigenvalue count k = {k} must be at least 1")
    if not k < n / 2:
        raise ValueError(f"eigenvalue count k = {k} must be below {n / 2:g} "
                         f"for {n} vertices")
    if not 0 < tol < 0.5:
        # from tol = 0.5 the guard band reaches the zero eigenvalue
        raise ValueError(f"cluster tolerance {tol} must lie in (0, 0.5)")


def assemble_p1(mesh):
    """Stiffness and mass matrices for piecewise-linear elements.

    K is symmetric positive semidefinite with the constants in its kernel on
    a connected mesh; M is symmetric positive definite.  Both come from one
    COO to CSR conversion of complex element data, K in the real part and M
    in the imaginary part, so they share one ``indptr``/``indices`` pair: no
    caller may edit either matrix's structure in place.
    """
    v = mesh.vertices
    t = mesh.triangles
    x = v[t, 0]
    y = v[t, 1]
    area = triangle_areas(v, t)
    if np.any(area <= 0):
        raise NonSPDMass(f"{int(np.sum(area <= 0))} non-positive triangle areas")
    # gradients of barycentric coordinates
    bx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1) / (2 * area[:, None])
    by = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1) / (2 * area[:, None])
    n = len(v)
    t = t.astype(np.int32)
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    # a duplicate's place in its sorted row depends on the indices alone, and
    # complex addition sums both parts separately, so each matrix keeps the
    # bits of its own real-valued assembly
    e = np.empty((len(t), 3, 3), dtype=complex)
    ke = e.real
    np.multiply(bx[:, :, None], bx[:, None, :], out=ke)
    ke += by[:, :, None] * by[:, None, :]
    ke *= area[:, None, None]
    np.multiply(np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0,
                area[:, None, None], out=e.imag)
    A = sp.coo_matrix((e.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.csr_matrix((A.data.real.copy(), A.indices, A.indptr), shape=(n, n))
    M = sp.csr_matrix((A.data.imag.copy(), A.indices, A.indptr), shape=(n, n))
    return K, M


def _plus(K, M, a):
    """K + a*M, in CSC, on the structure that ``assemble_p1`` gives both.

    Adds the data arrays only, where scipy's sparse arithmetic would merge
    the two structures again; each entry has the bits of scipy's sum.  An
    entry that cancels to exactly 0 stays as an explicit zero, where scipy
    would drop it; no bundled case cancels.  The sum is symmetric, so its
    CSR arrays read as CSC are the same matrix, and SuperLU takes them as
    they are.
    """
    return sp.csc_matrix((K.data + a * M.data, K.indices, K.indptr),
                         shape=K.shape)


def _csr_dot(A):
    """``A.dot`` for a float vector, without scipy's dispatch in front.

    Calls the ``csr_matvec`` kernel that ``A.dot`` runs, on a zero-filled
    result as ``A.dot`` does, so every product keeps its bits.
    """
    n, m = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def dot(x):
        y = np.zeros(n)
        csr_matvec(n, m, indptr, indices, data, x, y)
        return y
    return dot


class _Thin(spla.LinearOperator):
    """A square operator whose matvec is a bare function, unchecked.

    ``LinearOperator.matvec`` checks and reshapes every vector; eigsh calls
    this one's instance ``matvec`` directly.  ``_matvec`` is there because
    scipy warns about a subclass that defines neither it nor ``_matmat``.
    """

    def __init__(self, matvec, n):
        super().__init__(np.float64, (n, n))
        self.matvec = matvec

    def _matvec(self, x):
        return self.matvec(x)


def neumann_spectrum(mesh, k, *, _matrices=None):
    """The k smallest Neumann eigenvalues and M-orthonormal eigenvectors.

    Shift-invert Lanczos about sigma = -0.1, below the zero eigenvalue.
    The shifted matrix K - sigma*M is factored as scipy's eigsh factors it
    (splu with default options), and ARPACK applies that factor and M
    through bare matvecs, so the result is the plain
    ``eigsh(K, k, M=M, sigma=sigma, which="LM", v0=v0)`` one.
    """
    _check_args(k=k, n=mesh.num_vertices)
    K, M = assemble_p1(mesh) if _matrices is None else _matrices
    n = K.shape[0]
    sigma = -0.1
    try:
        v0 = np.full(n, 1.0 / np.sqrt(n))
        lu = spla.splu(_plus(K, M, -sigma))
        vals, vecs = spla.eigsh(K, k=k, M=_Thin(_csr_dot(M), n), sigma=sigma,
                                which="LM", v0=v0,
                                OPinv=_Thin(lu.solve, n))
    except Exception as exc:            # ARPACK or factorization failure
        raise SolverBreakdown(str(exc)) from exc
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _inertia(K, M, theta):
    """Number of eigenvalues of K v = mu M v below theta.

    By Sylvester's law of inertia, the number of negative pivots of a
    symmetric LU factorisation of K - theta*M (spectrum slicing).  Only the
    pivot signs are read, so the supernode settings (``relax``,
    ``panel_size``) are tuned for speed; the factors whose solves set
    report bits keep scipy's.  Neither setting may exceed 20: on the
    12,840-vertex square, scipy 1.17.1's ``splu`` corrupts the heap with
    ``panel_size=21``, and with ``relax=21`` under its default options
    (glibc's malloc checker aborts with "free(): invalid pointer").  CI
    runs such reports under that checker.
    Returns an int so that each factorisation is freed before the next one
    starts.
    """
    lu = spla.splu(_plus(K, M, -theta), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, relax=20, panel_size=5,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverBreakdown(f"K - {theta:.6g} M needed off-diagonal "
                              "pivots, whose signs give no inertia")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _proves_count_below(K, M, W, theta):
    """True when span(W) proves p = W.shape[1] eigenvalues below theta.

    By Courant-Fischer, K v = mu M v has at least p eigenvalues below
    theta when K - theta*M is negative definite on span(W), that is, when
    the p x p matrix G = W^T (K - theta*M) W is.  G is formed in floating
    point, so its computed largest eigenvalue must stay below zero by

        delta = (2n + r) u ||C||_F,   C = |W|^T (|K| + theta*M) |W|,

    with u the unit roundoff and r the longest row of K.  Entrywise,
    forming K - theta*M, the sparse product and the n-term dot products
    move G by at most gamma_(n+r+2) C; the other n >= 2p covers the
    symmetrisation and eigvalsh's backward error, a modest multiple of
    p u ||G||_2 <= p u ||C||_F.  W need not hold eigenvectors, nor be
    M-orthonormal: a negative definite G forces it to rank p.
    """
    n, p = W.shape
    S = _plus(K, M, -theta)
    G = W.T @ (S @ W)
    G = 0.5 * (G + G.T)
    B = np.abs(W)
    C = B.T @ (_plus(abs(K), M, theta) @ B)
    r = int(np.max(np.diff(K.indptr)))
    delta = (2 * n + r) * (np.finfo(float).eps / 2) * np.linalg.norm(C)
    return bool(np.linalg.eigvalsh(G)[-1] + delta < 0.0)


def spectral_position(spectrum, lam, tol=CLUSTER_TOL):
    """Number of Neumann eigenvalues strictly below lam.

    Discretization scatters a degenerate eigenvalue into a numerical
    cluster, so the count uses the guarded threshold lam*(1 - tol).
    Returns (position, cluster_indices); when lam is in the spectrum the
    position equals the least index attaining it.  The zero eigenvalue is
    computed as a roundoff-sized mu_0 of either sign, so a lam > 0 whose
    guard band does not clear |mu_0| raises AmbiguousCluster: whether mu_0
    counts below it is the sign of roundoff.
    """
    _check_args(lam, tol=tol)
    mu = np.asarray(spectrum, dtype=float)
    if lam == 0.0:
        return 0, [int(i) for i in np.flatnonzero(np.abs(mu) <= tol)]
    if np.max(mu) <= lam:
        raise SpectrumTooShort(
            f"spectrum reaches only {np.max(mu):.6g} <= lam = {lam:.6g}")
    thresh = lam * (1.0 - tol)
    low = lam * (1.0 - 2.0 * tol)
    mu0 = mu[np.argmin(np.abs(mu))]
    if abs(mu0) >= low:
        raise AmbiguousCluster(
            f"the zero eigenvalue is computed as {mu0:.3g}, which the guard "
            f"band below lam = {lam:.6g} does not clear, so whether it "
            "counts is the sign of roundoff")
    in_guard = (mu >= low) & (mu < thresh)
    if np.any(in_guard):
        raise AmbiguousCluster(
            f"eigenvalues {mu[in_guard]} fall just below the counting "
            f"threshold {thresh:.6g}; tighten the mesh or the tolerance")
    position = int(np.sum(mu < thresh))
    cluster = [int(i) for i in np.flatnonzero(np.abs(mu - lam) <= tol * lam)]
    return position, cluster


def restriction_residual(field, mesh, lam=None, *, _matrices=None):
    """Discrete witness that the field restricts to a Neumann eigenfunction.

    Samples the field at the mesh vertices and measures the residual
    functional K f - lam M f in the energy-dual norm,

        r = sqrt(R^T (K+M)^{-1} R) / (lam * ||f||_M),   R = K f - lam M f,

    which tends to zero at first order or better in h exactly when the
    restriction solves the Neumann problem with eigenvalue lam.  (The plain
    coefficient-vector norm of R only converges on structured meshes, where
    neighbouring element errors cancel.)  For lam = 0 the normalization is
    ||f||_M alone.
    """
    _check_args(lam)
    if not field.is_eigenfunction:
        raise NotAnEigenfunctionField(
            "restriction residual requires a Laplacian eigenfunction")
    if lam is None:
        lam = field.eigenvalue()
    K, M = assemble_p1(mesh) if _matrices is None else _matrices
    F = field.value(mesh.vertices)
    R = K @ F - lam * (M @ F)
    z = spla.spsolve(_plus(K, M, 1.0), R)
    dual = np.sqrt(max(float(z @ R), 0.0))
    scale = np.sqrt(float(F @ (M @ F)))
    if lam == 0.0:
        return float(dual / scale)
    return float(dual / (lam * scale))


class SpectrumReport:
    """Bundle of spectrum, spectral position and residual for one domain."""

    def __init__(self, eigenvalues, lam, position, cluster, residual,
                 mesh_params, spectrum_distance=None):
        self.eigenvalues = [float(m) for m in eigenvalues]
        self.lam = float(lam)
        self.position = int(position)
        self.cluster = [int(c) for c in cluster]
        self.residual = None if residual is None else float(residual)
        self.mesh_params = mesh_params
        self.spectrum_distance = spectrum_distance

    def to_dict(self):
        return {
            "mu": self.eigenvalues,
            "lambda": self.lam,
            "position": self.position,
            "cluster": self.cluster,
            "residual": self.residual,
            "dist_to_spectrum": self.spectrum_distance,
            "mesh": self.mesh_params,
        }

    def to_json(self, path=None):
        s = json.dumps(self.to_dict(), sort_keys=True)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(s + "\n")
        return s


def domain_spectrum_report(field, mesh, lam, k, tol=CLUSTER_TOL):
    """Compute spectrum, position of lam, residual and distances in one go.

    For lam > 0 the inertia count at lam*(1 - tol) must equal the position
    and the count at lam*(1 - 2 tol): no eigenvalue, found by the solver or
    not, may lie in the guard band between them.  Only the first count is
    factored when it equals the position p: the solver's first p
    eigenvectors then witness p eigenvalues below lam*(1 - 2 tol)
    (``_proves_count_below``), and by Sylvester there are at most p, so
    the band is empty.  Otherwise, or when the witness fails, the second
    count is factored too and the two compared as they stand.  The witness
    checks the vectors against K and M alone, so wrong vectors can only
    send a report down that second factorisation.
    """
    _check_args(lam, k, tol, mesh.num_vertices)
    K, M = assemble_p1(mesh)
    mu, vecs = neumann_spectrum(mesh, k, _matrices=(K, M))
    position, cluster = spectral_position(mu, lam, tol)
    if lam > 0:
        count = _inertia(K, M, lam * (1.0 - tol))
        low = lam * (1.0 - 2.0 * tol)
        # with no eigenvalue below lam*(1 - tol) there is none in the band
        proved = count == position and (count == 0 or _proves_count_below(
            K, M, vecs[:, :count], low))
        if not proved:
            if count != _inertia(K, M, low):
                raise AmbiguousCluster("an eigenvalue lies in the guard band "
                                       f"below {lam:.6g}; tighten the mesh")
            if count != position:
                raise SolverBreakdown(f"{position} eigenvalues found below "
                                      f"the threshold, {count} by inertia")
    residual = None
    if field.is_eigenfunction:
        residual = restriction_residual(field, mesh, lam, _matrices=(K, M))
    dist = float(np.min(np.abs(np.array(mu) - lam)) / lam) if lam > 0 else None
    return SpectrumReport(mu, lam, position, cluster, residual,
                          {"h": mesh.h, "grading": mesh.grading, "t": mesh.t,
                           "vertices": int(mesh.num_vertices)},
                          spectrum_distance=dist)
