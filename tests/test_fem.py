import hashlib

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import neumann_domains.fem as fem
from neumann_domains import (MorseField, assemble_p1, mesh_domain,
                             neumann_spectrum, restriction_residual,
                             spectral_position, structured_rect_mesh, torus)
from neumann_domains.critical import MAX, MIN, SADDLE
from neumann_domains.errors import (AmbiguousCluster, NonSPDMass,
                                    NotAnEigenfunctionField, SolverBreakdown,
                                    SpectrumTooShort)
from neumann_domains.fem import _inertia, domain_spectrum_report

# Neumann eigenvalues of the side-pi square are j^2 + k^2
SQUARE_SPECTRUM = np.array([0, 1, 1, 2, 4, 4, 5, 5, 8], dtype=float)


def test_structured_square_spectrum():
    mesh = structured_rect_mesh(np.pi, np.pi, 64, 64)
    mu, vecs = neumann_spectrum(mesh, 9)
    assert abs(mu[0]) <= 1e-8
    assert np.max(np.abs(mu[1:] - SQUARE_SPECTRUM[1:])
                  / SQUARE_SPECTRUM[1:]) <= 0.01
    v0 = vecs[:, 0]
    assert np.ptp(v0) / np.max(np.abs(v0)) < 1e-6


def test_traced_square_spectrum(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 64,
                       critical_points=sep_complex.critical_points)
    mu, _ = neumann_spectrum(mesh, 9)
    assert abs(mu[0]) <= 1e-8
    assert np.max(np.abs(mu[1:] - SQUARE_SPECTRUM[1:])
                  / SQUARE_SPECTRUM[1:]) <= 0.01


def test_stiffness_kernel_and_mass_spd(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 8,
                       critical_points=sep_complex.critical_points)
    K, M = assemble_p1(mesh)
    ones = np.ones(mesh.num_vertices)
    assert np.max(np.abs(K @ ones)) < 1e-12
    asym = (K - K.T).toarray()
    assert np.max(np.abs(asym)) < 1e-14
    from scipy.linalg import eigvalsh
    assert eigvalsh(M.toarray())[0] > 0


def test_nonspd_mass_on_flipped_triangle():
    mesh = structured_rect_mesh(1.0, 1.0, 2, 2)
    mesh.triangles[0] = mesh.triangles[0][[0, 2, 1]]
    with pytest.raises(NonSPDMass):
        assemble_p1(mesh)


def test_monotone_refinement_structured():
    # nested structured refinements: discrete eigenvalues decrease
    prev = None
    for n in (8, 16, 32):
        mu, _ = neumann_spectrum(structured_rect_mesh(np.pi, np.pi, n, n), 6)
        if prev is not None:
            assert np.all(mu[1:] <= prev[1:] + 1e-12)
        prev = mu


def test_richardson_order(separable, sep_complex):
    mus = []
    for h in (np.pi / 16, np.pi / 32, np.pi / 64):
        mesh = mesh_domain(separable, sep_complex.faces[0], h,
                           critical_points=sep_complex.critical_points)
        mu, _ = neumann_spectrum(mesh, 3)
        mus.append(mu[1])
    order = np.log2((mus[0] - mus[1]) / (mus[1] - mus[2]))
    assert 1.7 <= order <= 2.3


def test_spectral_position_examples():
    pos, cluster = spectral_position([0.0, 1.0, 1.0, 2.0, 4.0], 1.0)
    assert pos == 1
    assert cluster == [1, 2]
    pos0, _ = spectral_position([0.0, 1.0, 2.0], 0.0)
    assert pos0 == 0
    pos, cluster = spectral_position([0.0, 0.999, 1.001, 2.0], 1.0, tol=0.01)
    assert pos == 1 and cluster == [1, 2]
    with pytest.raises(SpectrumTooShort):
        spectral_position([0.0, 0.5], 1.0)
    with pytest.raises(AmbiguousCluster):
        spectral_position([0.0, 0.9985, 2.0], 1.0, tol=1e-3)


def test_tiny_lambda_names_the_zero_eigenvalue(separable, sep_complex,
                                              anisotropic, aniso_complex,
                                              lambda17, l17_complex):
    # a lam > 0 whose guard band [lam(1 - 2 tol), lam(1 - tol)) does not
    # clear the computed zero eigenvalue mu_0: the count hung on mu_0's
    # roundoff sign, so these reports raised SolverBreakdown (mu_0 > 0,
    # "0 found, 1 by inertia") or returned 1 (mu_0 < 0)
    cases = [(anisotropic, aniso_complex, 0.2, 1e-300, 1),
             (lambda17, l17_complex, 0.06, 1e-14, 1),
             (separable, sep_complex, 0.3, 1e-300, -1)]
    for field, cx, h, lam, sign in cases:
        mesh = mesh_domain(field, cx.faces[0], h,
                           critical_points=cx.critical_points)
        mu, _ = neumann_spectrum(mesh, 4)
        assert np.sign(mu[0]) == sign and abs(mu[0]) < 1e-13
        named = f"zero eigenvalue is computed as {mu[0]:.3g}"
        with pytest.raises(AmbiguousCluster, match=named):
            spectral_position(mu, lam)
        with pytest.raises(AmbiguousCluster, match=named):
            domain_spectrum_report(field, mesh, lam, 4)
    # a guard band that clears mu_0 counts it
    assert spectral_position([6.2e-15, 1.0], 1e-14) == (1, [])
    assert spectral_position([-3.6e-15, 1.0], 1e-14) == (1, [])


def test_non_finite_lambda_is_refused(separable):
    # N(lam) is defined for a finite lam >= 0 only: a nan once counted no
    # eigenvalue below it, and a report of it carried a nan residual, while
    # an inf raised SpectrumTooShort (exit 3) where the CLI exits 2
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            spectral_position([0.0, 1.0, 2.0], lam)
        with pytest.raises(ValueError, match="must be finite"):
            domain_spectrum_report(separable, mesh, lam, 5)
        with pytest.raises(ValueError, match="must be finite"):
            restriction_residual(separable, mesh, lam)


def test_eigenvalue_count_checked_before_assembly(separable, monkeypatch):
    # a mesh of n vertices gives the solver fewer than n / 2 eigenvalues: a
    # larger k was once refused only after K and M were assembled
    def no_assembly(mesh):
        raise AssertionError("assembled before k was checked")

    monkeypatch.setattr(fem, "assemble_p1", no_assembly)
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)        # 81 vertices
    with pytest.raises(ValueError, match="below 40.5 for 81 vertices"):
        neumann_spectrum(mesh, 41)
    with pytest.raises(ValueError, match="below 40.5 for 81 vertices"):
        domain_spectrum_report(separable, mesh, 1.0, 41)
    # a non-integer count once reached ARPACK, which broke down (exit 3)
    for k in (2.5, np.float64(3.0)):
        with pytest.raises(ValueError, match="count k = .* an integer"):
            neumann_spectrum(mesh, k)
        with pytest.raises(ValueError, match="count k = .* an integer"):
            domain_spectrum_report(separable, mesh, 1.0, k)


def test_spectral_position_scaling_invariance(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 16,
                       critical_points=sep_complex.critical_points)
    mu, _ = neumann_spectrum(mesh, 6)
    s2 = 2.79
    a = spectral_position(mu, 1.0)
    b = spectral_position(np.asarray(mu) / s2, 1.0 / s2)
    assert a == b


def test_position_of_lambda_one_square(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 32,
                       critical_points=sep_complex.critical_points)
    mu, _ = neumann_spectrum(mesh, 6)
    pos, _ = spectral_position(mu, 1.0)
    assert pos == 1


def test_restriction_residual_square(separable, sep_complex):
    face = sep_complex.faces[0]
    rs = []
    for h in (np.pi / 16, np.pi / 32, np.pi / 64):
        mesh = mesh_domain(separable, face, h,
                           critical_points=sep_complex.critical_points)
        rs.append(restriction_residual(separable, mesh, 1.0))
    assert rs[0] > rs[1] > rs[2]
    assert rs[-1] <= 1e-2
    # first order or better
    assert np.log2(rs[1] / rs[2]) >= 0.9


def test_restriction_residual_constant_field():
    const = MorseField([(1.0, 0, 0, 0.0)])
    assert const.is_eigenfunction and const.eigenvalue() == 0.0
    mesh = structured_rect_mesh(np.pi, np.pi, 16, 16)
    assert restriction_residual(const, mesh) <= 1e-10


def test_restriction_requires_eigenfunction(sep_complex):
    mixed = MorseField([(1.0, 1, 0, 0.0), (1.0, 0, 2, 0.0)])
    mesh = structured_rect_mesh(np.pi, np.pi, 8, 8)
    with pytest.raises(NotAnEigenfunctionField):
        restriction_residual(mixed, mesh)


def test_lambda17_domain_report(lambda17, l17_complex):
    cx = l17_complex
    face = next(f for f in cx.faces if not f.cusps)
    mesh = mesh_domain(lambda17, face, 0.04,
                       critical_points=cx.critical_points)
    rep = domain_spectrum_report(lambda17, mesh, 17.0, 10)
    assert rep.spectrum_distance <= 0.02
    assert rep.position >= 1
    assert rep.residual is not None and rep.residual < 0.05
    d = rep.to_dict()
    assert set(d) == {"mu", "lambda", "position", "cluster", "residual",
                      "dist_to_spectrum", "mesh"}


def test_slit_mesh_spectrum(crack_field, crack_report):
    face = crack_report.cracked_faces[0]
    mesh = mesh_domain(crack_field, face, 0.12,
                       critical_points=crack_report.complex.critical_points)
    mu, vecs = neumann_spectrum(mesh, 5)
    assert abs(mu[0]) <= 1e-8
    v0 = vecs[:, 0]
    assert np.ptp(v0) / np.max(np.abs(v0)) < 1e-6
    assert np.all(mu >= -1e-8)


def test_spectrum_matches_dense_reference(separable, sep_complex):
    mesh = mesh_domain(separable, sep_complex.faces[0], np.pi / 24,
                       critical_points=sep_complex.critical_points)
    mu, _ = neumann_spectrum(mesh, 6)
    K, M = assemble_p1(mesh)
    ref = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)[:6]
    assert np.max(np.abs(ref[1:] - mu[1:])) < 1e-7
    assert abs(mu[0]) < 1e-6


def test_cusped_face_eigenpairs_accurate(lambda17, l17_complex):
    # a dense generalised eigh gave mu0 = -1.5e-5 and eigenpair residuals of
    # 1.5e-6 on this cusped face
    face = l17_complex.faces[5]
    assert face.cusps
    mesh = mesh_domain(lambda17, face, 0.03,
                       critical_points=l17_complex.critical_points)
    mu, vecs = neumann_spectrum(mesh, 12)
    K, M = assemble_p1(mesh)
    assert abs(mu[0]) <= 1e-8
    assert np.max(np.linalg.norm(K @ vecs - (M @ vecs) * mu, axis=0)) <= 1e-9
    for j in range(len(mu) - 1):
        assert _inertia(K, M, 0.5 * (mu[j] + mu[j + 1])) == j + 1


def test_inertia_counts_structured_square():
    mesh = structured_rect_mesh(np.pi, np.pi, 32, 32)
    mu, _ = neumann_spectrum(mesh, 9)
    K, M = assemble_p1(mesh)
    for theta, count in ((0.5, 1), (1.5, 3), (4.5, 6)):
        assert _inertia(K, M, theta) == count
        assert np.sum(mu < theta) == count


def _dropping(monkeypatch, j):
    """Make fem.neumann_spectrum lose its j-th eigenpair."""
    def lossy(mesh, k, **kwargs):
        mu, vecs = neumann_spectrum(mesh, k, **kwargs)
        return np.delete(mu, j), np.delete(vecs, j, axis=1)

    monkeypatch.setattr(fem, "neumann_spectrum", lossy)


def test_report_count_checked_by_inertia(separable, monkeypatch):
    mesh = structured_rect_mesh(np.pi, np.pi, 16, 16)
    mu, _ = neumann_spectrum(mesh, 9)
    assert domain_spectrum_report(separable, mesh, 4.5, 9).position == 6
    _dropping(monkeypatch, 2)
    with pytest.raises(SolverBreakdown):
        domain_spectrum_report(separable, mesh, 4.5, 9)
    # mu[3] (about 2) in the guard band [lam(1 - 2 tol), lam(1 - tol)),
    # unseen by spectral_position once the solver drops it
    lam = mu[3] / (1.0 - 1.5 * fem.CLUSTER_TOL)
    _dropping(monkeypatch, 3)
    with pytest.raises(AmbiguousCluster):
        domain_spectrum_report(separable, mesh, lam, 9)


def test_ritz_witness_proves_the_guard_band(separable, sep_complex,
                                           l17_meshes):
    # every lambda17 face at h = 0.03 and the benchmark's three squares
    cases = [(mesh, 17.0, 12) for mesh in l17_meshes]
    cases += [(mesh_domain(separable, sep_complex.faces[0], h,
                           critical_points=sep_complex.critical_points),
               1.0, 9) for h in (np.pi / 32, np.pi / 64, 0.03)]
    for i, (mesh, lam, k) in enumerate(cases):
        K, M = assemble_p1(mesh)
        mu, vecs = neumann_spectrum(mesh, k, _matrices=(K, M))
        p, _ = spectral_position(mu, lam)
        low = lam * (1.0 - 2.0 * fem.CLUSTER_TOL)
        assert fem._proves_count_below(K, M, vecs[:, :p], low), i
        assert _inertia(K, M, low) == p, i
        # one eigenvector too many: mu[p] lies above the threshold
        assert not fem._proves_count_below(K, M, vecs[:, :p + 1], low), i


def test_report_without_witness_falls_back(separable, sep_complex, lambda17,
                                          l17_complex, monkeypatch):
    # random vectors in place of the eigenvectors prove nothing, so the
    # report factors the second count, and its JSON keeps its bits
    cases = _spectrum_cases(separable, sep_complex, lambda17, l17_complex)
    calls = []
    inertia = fem._inertia

    def counted(*args):
        calls.append(args[2])
        return inertia(*args)

    def scrambled(mesh, k, **kwargs):
        mu, vecs = neumann_spectrum(mesh, k, **kwargs)
        return mu, np.random.default_rng(4).normal(size=vecs.shape)

    monkeypatch.setattr(fem, "_inertia", counted)
    for spectrum, n_calls in ((neumann_spectrum, 1), (scrambled, 2)):
        monkeypatch.setattr(fem, "neumann_spectrum", spectrum)
        for name, (field, mesh, lam, k) in cases.items():
            calls.clear()
            rep = domain_spectrum_report(field, mesh, lam, k)
            digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
            assert digest == REPORT_SHA256[name], name
            assert rep.position > 0 and len(calls) == n_calls, name


def _spectrum_cases(separable, sep_complex, lambda17, l17_complex):
    cusped = next(f for f in l17_complex.faces
                  if any(c["confirmed"] for c in f.cusps))
    return {
        "lambda17_cusped": (lambda17, mesh_domain(
            lambda17, cusped, 0.04,
            critical_points=l17_complex.critical_points), 17.0, 10),
        "separable": (separable, mesh_domain(
            separable, sep_complex.faces[0], np.pi / 32,
            critical_points=sep_complex.critical_points), 1.0, 6),
    }


def test_spectrum_matches_plain_eigsh(separable, sep_complex, lambda17,
                                      l17_complex):
    cases = _spectrum_cases(separable, sep_complex, lambda17, l17_complex)
    for name, (_, mesh, _, k) in cases.items():
        mu, vecs = neumann_spectrum(mesh, k)
        K, M = assemble_p1(mesh)
        n = K.shape[0]
        vals, ref = spla.eigsh(K, k, M=M, sigma=-0.1, which="LM",
                               v0=np.full(n, 1.0 / np.sqrt(n)))
        order = np.argsort(vals)
        assert mu.tobytes() == vals[order].tobytes(), name
        assert vecs.tobytes() == ref[:, order].tobytes(), name


# sha256 of domain_spectrum_report(...).to_json(), recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1
REPORT_SHA256 = {
    "lambda17_cusped": "295b3a3010d208813b470aaf410dc934"
                       "7630fd00cc88b41586f2fc31c8574778",
    "separable": "cbc30bbebae3bdaf87422c95491cf4e0"
                 "551bd151ad84961542932965aa148d8a",
}


def test_spectrum_report_digests_unchanged(separable, sep_complex, lambda17,
                                           l17_complex):
    cases = _spectrum_cases(separable, sep_complex, lambda17, l17_complex)
    for name, (field, mesh, lam, k) in cases.items():
        rep = domain_spectrum_report(field, mesh, lam, k)
        digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
        assert digest == REPORT_SHA256[name], name


# sha256 over domain_spectrum_report(lambda17, mesh, 17.0, 12).to_json() of
# every lambda17 face at h = 0.03, in face order, recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1.  Re-recorded when every piece's
# last two intervals began to share what is left evenly: 34 of the 68 meshes
# moved (53,888 to 53,892 vertices), mu_1 by at most 4.6e-5 and no position
# changed (test_resampled_intervals_clear_the_lattice)
LAMBDA17_FACES_REPORT_SHA256 = ("d3db436cb505deca937976e4ff794d3b"
                                "3c18fa389d607047ee04d57c811d8b79")


def test_lambda17_face_reports_unchanged(l17_reports):
    h = hashlib.sha256()
    for rep in l17_reports:
        h.update(rep.to_json().encode())
    assert len(l17_reports) == 68
    assert h.hexdigest() == LAMBDA17_FACES_REPORT_SHA256


def _half_period_partners(cx):
    """Each face's image under the shift by (pi, pi), for an odd lam.

    The shift maps f to -f, so it maps the census onto itself with maxima
    and minima swapped, and the face with extrema (max, min) onto the face
    with extrema (sigma(min), sigma(max)), sigma being the census map.
    """
    cps = cx.critical_points
    pos = np.array([c.position for c in cps])
    d = torus.pairwise_dist(torus.wrap(pos + np.pi), pos)
    sigma = np.argmin(d, axis=1).tolist()
    assert d[np.arange(len(cps)), sigma].max() < 1e-12
    assert sorted(sigma) == list(range(len(cps)))
    swap = {MAX: MIN, MIN: MAX, SADDLE: SADDLE}
    assert all(cps[j].kind == swap[c.kind] for c, j in zip(cps, sigma))
    face_of = {(f.max_index, f.min_index): f.index for f in cx.faces}
    assert len(face_of) == len(cx.faces)
    return [face_of[(sigma[f.min_index], sigma[f.max_index])]
            for f in cx.faces]


def test_half_period_partners_share_their_spectrum(l17_complex, l17_meshes,
                                                   l17_reports):
    # every eigenfunction field is odd or even under the shift by (pi, pi),
    # so each lambda17 face has a partner of the same shape; a hand-picked
    # mirror pair once showed resampling's lost corners as a 0.31 gap
    partner = _half_period_partners(l17_complex)
    assert (partner[5], partner[29]) == (45, 63)
    pairs = [(i, j) for i, j in enumerate(partner) if i < j]
    assert len(pairs) == 34
    assert all(partner[j] == i for i, j in pairs)
    for i, j in pairs:
        assert l17_meshes[i].num_vertices == l17_meshes[j].num_vertices
        a, b = l17_reports[i], l17_reports[j]
        assert a.position == b.position, (i, j)
        # mu_0 is the computed zero eigenvalue, roundoff with no scale
        np.testing.assert_allclose(a.eigenvalues[1:], b.eigenvalues[1:],
                                   rtol=1e-5, err_msg=f"faces {i}, {j}")


def _assembly_cases(separable, sep_complex, lambda17, l17_complex):
    """Meshes whose P1 matrices are pinned by ASSEMBLY_SHA256."""
    cases = {f"separable_h{h:.4f}": mesh_domain(
        separable, sep_complex.faces[0], h,
        critical_points=sep_complex.critical_points)
        for h in (np.pi / 32, np.pi / 64, 0.03)}
    cases["structured_16"] = structured_rect_mesh(np.pi, np.pi, 16, 16)
    for i, face in enumerate(l17_complex.faces):
        cases[f"lambda17_face{i:02d}"] = mesh_domain(
            lambda17, face, 0.03, critical_points=l17_complex.critical_points)
    return cases


def _assembly_digest(cases):
    """sha256 over the P1 matrices of the cases, which share their structure."""
    h = hashlib.sha256()
    for name in sorted(cases):
        K, M = assemble_p1(cases[name])
        assert np.shares_memory(K.indptr, M.indptr), name
        assert np.shares_memory(K.indices, M.indices), name
        assert K.indptr.dtype == K.indices.dtype == np.int32, name
        for A in (K, M):
            for arr in (A.indptr, A.indices, A.data):
                h.update(arr.tobytes())
    return h.hexdigest()


# sha256 over indptr, indices and data of K and M, recorded with Python
# 3.11.7, numpy 2.4.6 and scipy 1.17.1.  The lambda17 digest was
# re-recorded with the 68-face report digest, over the same moved meshes
ASSEMBLY_SHA256 = {
    "separable": "24144c1b3b1e4db06eccface316c01e8"
                 "8767524e914996f381e64701ced23934",
    "structured": "8c0db87a1703f4debdea7332daec6323"
                  "494001de1a849d2da981357d9a28acb2",
    "lambda17": "9ba62eb1417380addae5bca25f83afe1"
                "2a1ea2835f237609b1e9dd6ce9c2fb7b",
}


def test_assembly_bits_unchanged(separable, sep_complex, lambda17,
                                 l17_complex):
    cases = _assembly_cases(separable, sep_complex, lambda17, l17_complex)
    digests = {group: _assembly_digest(
        {k: v for k, v in cases.items() if k.startswith(group)})
        for group in ASSEMBLY_SHA256}
    assert digests == ASSEMBLY_SHA256


def test_bare_mass_product_matches_dot(l17_meshes):
    rng = np.random.default_rng(7)
    for mesh in l17_meshes[::5] + [structured_rect_mesh(np.pi, np.pi, 8, 8)]:
        _, M = assemble_p1(mesh)
        n = M.shape[0]
        dot = fem._csr_dot(M)
        # ARPACK hands over contiguous slices of its work array
        work = rng.normal(size=3 * n)
        for x in (work[n:2 * n], np.full(n, 1.0 / np.sqrt(n))):
            y = dot(x)
            assert y.dtype == np.float64 and y.shape == (n,)
            assert y.tobytes() == M.dot(x).tobytes()


def test_shifted_matrix_is_the_csr_transpose(l17_meshes):
    # splu and spsolve took the CSC transpose of the shifted CSR matrix,
    # which scipy builds from the same three arrays
    for mesh in l17_meshes[::10]:
        K, M = assemble_p1(mesh)
        for a in (0.1, 1.0, -17.0):
            old = sp.csr_matrix((K.data + a * M.data, K.indices, K.indptr),
                                shape=K.shape).T
            new = fem._plus(K, M, a)
            assert new.format == old.format == "csc"
            for attr in ("data", "indices", "indptr"):
                assert getattr(new, attr).tobytes() \
                    == getattr(old, attr).tobytes()
