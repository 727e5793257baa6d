"""Adapted frames, triad connection, ADM data, the reduction comparison."""

import numpy as np
import pytest

from pchgrav import constraints as cst, ehdata as eh, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN
from pchgrav.fiber import PAIRS, SITE_BLOCK
from pchgrav.grid import Grid3, TrigPoly, cov_deriv, deriv_axis, harmonic
from pchgrav.suites import (
    LAPSE_PROBES,
    SHIFT_PROBES,
    acceptance_triad_spec,
    constant_k_spec,
    flat_triad_spec,
    random_offshell_state,
)

RNG = np.random.Generator(np.random.Philox(key=606))


def _conformal_spec(eps=0.08, k=(1, 0, 0)):
    f = TrigPoly.constant(1.0) + harmonic(eps, k)
    eb = tuple(tuple((f if a == i else TrigPoly()) for i in range(3)) for a in range(3))
    K0 = tuple(tuple(TrigPoly() for _ in range(3)) for _ in range(3))
    return cst.TriadSpec(eb, K0), f


def _triad_compatibility_residual(e_bar, gamma_blk, eta_bar, grid) -> float:
    """sup |d_Gamma ebar| with central differences."""
    E, gamma, sig_w = eh._triad_fields(e_bar, gamma_blk, eta_bar, grid)
    return float(np.abs(cov_deriv(E, gamma, sig_w).data).max())


def test_eps3_is_the_levi_civita_symbol():
    i, j, k = np.indices((3, 3, 3))
    assert np.array_equal(eh.EPS3, (i - j) * (j - k) * (k - i) / 2)


# --- orthonormal frames -----------------------------------------------------------

def test_standard_coframe_adapted_frame():
    e = np.eye(3, 4)[None]
    frame = eh.orthonormal_frame(e, LORENTZIAN)
    assert np.allclose(frame.frame[0], np.eye(4))
    assert frame.eta00 == -1.0
    assert np.array_equal(frame.eta_bar, [1.0, 1.0, 1.0])
    assert np.allclose(frame.e_bar[0], np.eye(3))


def test_prerotated_frame_recovery():
    # exact internal isometry: rotation in the (1,2) plane times a boost in (3,4)
    th, ch = 0.7, 0.4
    R = np.eye(4)
    R[0, 0] = R[1, 1] = np.cos(th)
    R[0, 1], R[1, 0] = -np.sin(th), np.sin(th)
    B = np.eye(4)
    B[2, 2] = B[3, 3] = np.cosh(ch)
    B[2, 3] = B[3, 2] = np.sinh(ch)
    O = R @ B
    assert np.abs(O.T @ np.diag(LORENTZIAN.eta) @ O - np.diag(LORENTZIAN.eta)).max() <= 1e-12
    e = (np.eye(3, 4) @ O.T)[None]
    frame = eh.orthonormal_frame(e, LORENTZIAN)
    V = frame.frame[0]
    eta_ad = np.concatenate([frame.eta_bar, [frame.eta00]])
    assert np.abs(V.T @ np.diag(LORENTZIAN.eta) @ V - np.diag(eta_ad)).max() <= 1e-12
    recon = np.einsum("aj,ij->ai", frame.e_bar[0], V[:, :3])
    assert np.abs(recon - e[0]).max() <= 1e-12


def test_random_frame_reconstruction():
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(20):
            from pchgrav.suites import random_nondegenerate_coframe
            try:
                e = random_nondegenerate_coframe(RNG, sig)[None]
                frame = eh.orthonormal_frame(e, sig)
            except eh.GramSchmidtError:
                continue
            V = frame.frame[0]
            assert abs(abs(np.linalg.det(frame.e_bar[0]))) > 0
            recon = np.einsum("aj,ij->ai", frame.e_bar[0], V[:, :3])
            assert np.abs(recon - e[0]).max() <= 1e-10 * max(1, np.abs(e).max())


def test_gram_schmidt_null_pivot_rejected():
    e = np.array([[0.0, 0, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]])[None]  # e_1 null
    with pytest.raises(eh.GramSchmidtError):
        eh.orthonormal_frame(e, LORENTZIAN)


# --- triad connection ---------------------------------------------------------------

def test_gamma_of_constant_triad_vanishes():
    g = Grid3(4)
    eb = np.broadcast_to(np.eye(3) + 0.1, (4, 4, 4, 3, 3)).copy()
    blk = eh.gamma_block(eb, np.array([1.0, 1.0, 1.0]), g)
    assert np.abs(blk).max() <= 1e-14


def test_gamma_compatibility_discrete_is_exact():
    spec = acceptance_triad_spec()
    g = Grid3(8)
    eb, _ = spec.sample(g)
    eta_bar = np.array([1.0, 1.0, 1.0])
    blk = eh.gamma_block(eb, eta_bar, g)   # discrete anholonomy
    assert _triad_compatibility_residual(eb, blk, eta_bar, g) <= 1e-12


def test_gamma_analytic_compatibility_converges_order2():
    spec = acceptance_triad_spec()
    errs = {}
    for n in (8, 16):
        g = Grid3(n)
        eb, _ = spec.sample(g)
        eta_bar = np.array([1.0, 1.0, 1.0])
        blk = eh.gamma_block(eb, eta_bar, g, C=spec.anholonomy(g))
        errs[n] = _triad_compatibility_residual(eb, blk, eta_bar, g)
    assert 3.2 <= errs[8] / errs[16] <= 4.8


def test_gamma_conformal_closed_form():
    # for ebar = f * id the compatible block is
    # Gamma_a^{ij} = (delta_a^i d_j f - delta_a^j d_i f) / f  on ordered pairs
    # (one checks d ebar^i + Gamma^{ik} ^ ebar^k = 0 directly for this form)
    spec, f = _conformal_spec(eps=0.1)
    g = Grid3(8)
    eb, _ = spec.sample(g)
    X, Y, Z = g.coords()
    fv = f.eval(X, Y, Z)
    df = np.stack([f.deriv(a).eval(X, Y, Z) for a in range(3)], axis=-1)
    expect = np.zeros((8, 8, 8, 3, 3))
    for P, (i, j) in enumerate(eh.SPATIAL_PAIRS):
        for a in range(3):
            expect[..., a, P] = ((1.0 if a == i else 0.0) * df[..., j]
                                 - (1.0 if a == j else 0.0) * df[..., i]) / fv
    blk = eh.gamma_block(eb, np.array([1.0, 1.0, 1.0]), g, C=spec.anholonomy(g))
    assert np.abs(blk - expect).max() <= 1e-12


# --- connection split ----------------------------------------------------------------

def test_split_connection_on_shell():
    st = cst.make_on_shell(acceptance_triad_spec(), Grid3(8), 1.0, LORENTZIAN, Lambda=0.1)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    split = eh.split_connection(st.omega, frame, st.grid)
    assert split.k_asymmetry <= 1e-10
    assert split.gamma_residual <= 0.1
    res = {}
    for n in (8, 16):
        stn = cst.make_on_shell(acceptance_triad_spec(), Grid3(n), 1.0, LORENTZIAN, Lambda=0.1)
        fr = eh.orthonormal_frame(stn.e.data, LORENTZIAN)
        res[n] = eh.split_connection(stn.omega, fr, stn.grid).gamma_residual
    assert 3.2 <= res[8] / res[16] <= 4.8


def test_split_connection_off_shell_flags():
    st = random_offshell_state(RNG, Grid3(8), LORENTZIAN, 1.0, 0.0)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    split = eh.split_connection(st.omega, frame, st.grid)
    assert split.gamma_residual > 0.01


def test_adapted_connection_is_the_pair_embedding():
    # Gamma^{ij} on the w-frame pair (i, j); A^i w_0 ^ w_i = -A^i w_i ^ w_0 on (i, 0)
    g = Grid3(4)
    gam, A = np.random.Generator(np.random.Philox(key=6)).normal(size=(2, 4, 4, 4, 3, 3))
    om = eh.adapted_connection(gam, A, g)
    assert (om.p, om.grade) == (1, 2)
    for P, (i, j) in enumerate(eh.SPATIAL_PAIRS):
        assert np.array_equal(om.data[..., PAIRS.index((i, j))], gam[..., P])
    for i in range(3):
        assert np.array_equal(om.data[..., PAIRS.index((i, 3))], -A[..., i])


# --- extrinsic tensor and momentum ----------------------------------------------------

def test_momentum_for_zero_and_pure_metric_K():
    g = Grid3(4)
    st = cst.make_on_shell(constant_k_spec(0.0), g, 1.0, LORENTZIAN)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    gm = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, frame.e_bar)
    assert np.abs(eh.momentum_density_tensor(gm, np.zeros_like(gm), *eh.metric_inverse(gm))).max() == 0.0
    # K = g: Pi = (sqrt g / 2)(g - 3 g) = -sqrt(g) g
    Pi = eh.momentum_density_tensor(gm, gm, *eh.metric_inverse(gm))
    sqrtg = np.sqrt(np.abs(np.linalg.det(gm)))
    assert np.abs(Pi + sqrtg[..., None, None] * gm).max() <= 1e-13


def test_K_Pi_roundtrip_and_trace_identity():
    g = Grid3(4)
    st = cst.make_on_shell(acceptance_triad_spec(), g, 1.0, LORENTZIAN)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    gm = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, frame.e_bar)
    K = RNG.normal(size=gm.shape)
    K = 0.5 * (K + np.swapaxes(K, -1, -2))
    Pi = eh.momentum_density_tensor(gm, K, *eh.metric_inverse(gm))
    assert np.abs(eh.K_from_momentum(gm, Pi) - K).max() <= 1e-12
    ginv = np.linalg.inv(gm)
    trPi = np.einsum("...ab,...ab->...", ginv, Pi)
    trK = np.einsum("...ab,...ab->...", ginv, K)
    sqrtg = np.sqrt(np.abs(np.linalg.det(gm)))
    assert np.abs(trPi + sqrtg * trK).max() <= 1e-12
    A = eh.a_from_K(frame.e_bar, frame.eta_bar, K)
    assert np.abs(eh.extrinsic_tensor(frame, A) - K).max() <= 1e-12


def test_triad_determinant_identity():
    eb = RNG.normal(size=(50, 3, 3)) + np.eye(3)
    eb = eb[np.abs(np.linalg.det(eb)) > 0.2]
    assert eh.triad_determinant_identity_residual(eb) <= 1e-12


# --- Ricci scalar -----------------------------------------------------------------------

def test_ricci_flat_triad_zero_both_routes():
    g = Grid3(8)
    st = cst.make_on_shell(flat_triad_spec(), g, 1.0, LORENTZIAN)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    gmet = (frame.e_bar * frame.eta_bar) @ np.swapaxes(frame.e_bar, -1, -2)
    det_e = wm.inv3(frame.e_bar)[1]
    assert np.abs(eh.ricci_scalar_via_frame(frame.e_bar, det_e, frame.eta_bar, g)).max() <= 1e-13
    ginv = eh.metric_inverse(gmet)[0]
    assert np.abs(eh.ricci_scalar_via_metric(ginv, eh.christoffel(gmet, ginv, g), g)).max() <= 1e-13


def test_ricci_conformal_analytic_oracle():
    # g = f^2 delta in 3d: R = (-4 phi'' - 2 phi'^2) / f^2 with phi = ln f
    spec, f = _conformal_spec(eps=0.08)
    errs = {}
    for n in (8, 16):
        g = Grid3(n)
        eb, _ = spec.sample(g)
        X, Y, Z = g.coords()
        fv = f.eval(X, Y, Z)
        fp = f.deriv(0).eval(X, Y, Z)
        fpp = f.deriv(0).deriv(0).eval(X, Y, Z)
        phi_p, phi_pp = fp / fv, fpp / fv - (fp / fv) ** 2
        R_exact = (-4 * phi_pp - 2 * phi_p**2) / fv**2
        Rf = eh.ricci_scalar_via_frame(eb, wm.inv3(eb)[1], np.array([1.0, 1.0, 1.0]), g)
        errs[n] = np.abs(Rf - R_exact).max()
    assert 3.2 <= errs[8] / errs[16] <= 4.8


def test_ricci_product_circle_sign():
    # metric dx^2 + dy^2 + f(x)^2 dz^2: R = -2 f''/f (analytic oracle)
    f = TrigPoly.constant(1.0) + harmonic(0.15, (1, 0, 0))
    eb_spec = cst.TriadSpec(
        ((TrigPoly.constant(1.0), TrigPoly(), TrigPoly()),
         (TrigPoly(), TrigPoly.constant(1.0), TrigPoly()),
         (TrigPoly(), TrigPoly(), f)),
        tuple(tuple(TrigPoly() for _ in range(3)) for _ in range(3)))
    g = Grid3(16)
    eb, _ = eb_spec.sample(g)
    X, Y, Z = g.coords()
    fv = f.eval(X, Y, Z)
    fpp = f.deriv(0).deriv(0).eval(X, Y, Z)
    R_exact = -2 * fpp / fv
    Rf = eh.ricci_scalar_via_frame(eb, wm.inv3(eb)[1], np.array([1.0, 1.0, 1.0]), g)
    mask = np.abs(R_exact) > 0.5 * np.abs(R_exact).max()
    assert np.all(np.sign(Rf[mask]) == np.sign(R_exact[mask]))
    assert np.abs(Rf - R_exact).max() <= 0.1 * np.abs(R_exact).max()


def test_ricci_routes_mutual_convergence():
    spec = acceptance_triad_spec()
    errs = {}
    for n in (16, 32):
        g = Grid3(n)
        eb, _ = spec.sample(g)
        Rf = eh.ricci_scalar_via_frame(eb, wm.inv3(eb)[1], np.array([1.0, 1.0, 1.0]), g)
        gm = np.einsum("...ai,i,...bi->...ab", eb, np.array([1.0, 1.0, 1.0]), eb)
        ginv = eh.metric_inverse(gm)[0]
        Rm = eh.ricci_scalar_via_metric(ginv, eh.christoffel(gm, ginv, g), g)
        errs[n] = float(np.sqrt(((Rf - Rm) ** 2).sum() * g.h**3))
    assert 3.2 <= errs[16] / errs[32] <= 4.8


# --- densities and the comparison ----------------------------------------------------

def test_densities_vanish_on_flat_data():
    g = Grid3(4)
    st = cst.make_on_shell(flat_triad_spec(), g, 1.0, LORENTZIAN)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    split = eh.split_connection(st.omega, frame, g)
    data = eh.eh_data(frame, split, g)
    assert np.abs(data.H_density).max() <= 1e-13
    assert np.abs(data.M_density).max() <= 1e-13


def test_constant_trace_K_hamiltonian_closed_form():
    # flat metric, K = c g: H = -1/2 eta00 sqrt(g) (tr K^2 - (tr K)^2) - 6 L sqrt g
    #                        = 3 eta00 c^2 - 6 Lambda per unit volume
    c, lam = 0.3, 0.25
    g = Grid3(4)
    st = cst.make_on_shell(constant_k_spec(c), g, 1.0, LORENTZIAN, Lambda=lam)
    frame = eh.orthonormal_frame(st.e.data, LORENTZIAN)
    split = eh.split_connection(st.omega, frame, g)
    data = eh.eh_data(frame, split, g, Lambda=lam)
    expect = 3.0 * frame.eta00 * c**2 - 6.0 * lam
    assert np.abs(data.H_density - expect).max() <= 1e-12


def test_compare_flat_state_exact():
    st = cst.make_on_shell(flat_triad_spec(), Grid3(4), 1.0, LORENTZIAN)
    out = eh.compare_pch_eh(st, LAPSE_PROBES, SHIFT_PROBES)
    assert out["hamiltonian"] <= 1e-12
    assert out["momentum"] <= 1e-12
    assert out["gamma_independence"] <= 1e-12


def test_compare_refuses_off_shell():
    st = random_offshell_state(RNG, Grid3(4), LORENTZIAN, 1.0, 0.0)
    with pytest.raises(ValueError, match="on-shell"):
        eh.compare_pch_eh(st, LAPSE_PROBES, SHIFT_PROBES)


def test_exact_divergence_integral():
    g = Grid3(8)
    X, Y, Z = g.coords()
    field = np.stack([harmonic(0.7, (1, 0, 0), 0.2).eval(X, Y, Z),
                      harmonic(0.5, (0, 1, 0), 1.0).eval(X, Y, Z),
                      harmonic(0.3, (1, 1, 1), 0.4).eval(X, Y, Z)], axis=-1)
    assert abs(eh.exact_divergence_integral(g, field)) <= 1e-12


# --- pairwise contractions against the multi-operand einsum references ---------------

def _gamma_of_triad_reference(e_bar, eta_bar, grid, C=None):
    N = np.linalg.inv(e_bar)
    Eup = N / eta_bar[:, None]
    if C is None:
        de = np.stack([deriv_axis(e_bar, c, grid) for c in range(3)], axis=-3)
        C = de - np.swapaxes(de, -3, -2)
    Clow = C * eta_bar
    t1 = 0.5 * np.einsum("...ib,...abj->...aij", Eup, C)
    t2 = -0.5 * np.einsum("...jb,...abi->...aij", Eup, C)
    t3 = -0.5 * np.einsum("...ib,...jc,...bck,...ak->...aij", Eup, Eup, Clow, e_bar)
    return t1 + t2 + t3


def _gamma_block_reference(e_bar, eta_bar, grid, C=None):
    """The reference Gamma(ebar) on the spatial pairs (12, 13, 23), laid out as `gamma_block`."""
    G = _gamma_of_triad_reference(e_bar, eta_bar, grid, C)
    return np.stack([G[..., i, j] for (i, j) in eh.SPATIAL_PAIRS], axis=-1)


def _split_reference(omega, frame, grid, sig):
    """(gamma_part, a_part) through V^-1 M V + V^-1 dV as 3- and 2-operand einsums."""
    eta = sig.eta
    eta_w = np.concatenate([frame.eta_bar, [frame.eta00]])
    V = frame.frame
    Vinv = np.linalg.inv(V)
    M = np.zeros(omega.data.shape[:3] + (3, 4, 4))
    for I, (i, j) in enumerate(PAIRS):
        M[..., :, i, j] += omega.data[..., I] * eta[j]
        M[..., :, j, i] -= omega.data[..., I] * eta[i]
    Mw = np.einsum("...ij,...ajk,...kl->...ail", Vinv, M, V)
    dV = np.stack([deriv_axis(V, a, grid) for a in range(3)], axis=-3)
    Mw = Mw + np.einsum("...ij,...ajk->...aik", Vinv, dV)
    om_w = np.einsum("...aij,j->...aij", Mw, 1.0 / eta_w)
    gamma_part = np.stack([om_w[..., i, j] for (i, j) in eh.SPATIAL_PAIRS], axis=-1)
    a_part = np.stack([om_w[..., 3, i] for i in range(3)], axis=-1)
    return gamma_part, a_part


def _block_to_mat(a):
    """3x3 antisymmetric matrices from blocks on the spatial pairs (12, 13, 23)."""
    M = np.zeros(a.shape[:-1] + (3, 3))
    for P, (i, j) in enumerate(eh.SPATIAL_PAIRS):
        M[..., i, j] = a[..., P]
        M[..., j, i] = -a[..., P]
    return M


def _so3_bracket(a, b, eta_bar):
    """Matrix commutator (A eta_bar) B - (B eta_bar) A, back on the spatial pairs."""
    A, B = _block_to_mat(a), _block_to_mat(b)
    M = (A * eta_bar) @ B - (B * eta_bar) @ A
    return np.stack([M[..., i, j] for (i, j) in eh.SPATIAL_PAIRS], axis=-1)


def _so3_cov_deriv_vec(A, gamma_blk, eta_bar, grid, axis):
    """(d_Gamma)_axis A for an internal-vector-valued field A[..., c, i]."""
    G = _block_to_mat(gamma_blk[..., axis, :])
    return deriv_axis(A, axis, grid) + np.einsum("...ik,k,...ck->...ci", G, eta_bar, A)


def _triad_compatibility_reference(e_bar, gamma_blk, eta_bar, grid):
    """sup over coordinate pairs of |d_a ebar_b - d_b ebar_a + Gamma_a ebar_b - Gamma_b ebar_a|."""
    worst = 0.0
    for a, b in eh.SPATIAL_PAIRS:
        t = (_so3_cov_deriv_vec(e_bar, gamma_blk, eta_bar, grid, a)[..., b, :]
             - _so3_cov_deriv_vec(e_bar, gamma_blk, eta_bar, grid, b)[..., a, :])
        worst = max(worst, float(np.abs(t).max()))
    return worst


def _ricci_frame_reference(e_bar, eta_bar, grid, gamma_blk):
    """2 eps^{abc} eps_{kij} ebar_a^k F_bc^{ij} / det ebar as a triple loop, F on so(3) blocks."""
    F = np.zeros(gamma_blk.shape[:3] + (3, 3))
    for P, (a, b) in enumerate(eh.SPATIAL_PAIRS):
        F[..., P, :] = (deriv_axis(gamma_blk[..., b, :], a, grid)
                        - deriv_axis(gamma_blk[..., a, :], b, grid)
                        + _so3_bracket(gamma_blk[..., a, :], gamma_blk[..., b, :], eta_bar))
    T = np.zeros(e_bar.shape[:3])
    for P2, (b, c) in enumerate(eh.SPATIAL_PAIRS):
        for PF, (i, j) in enumerate(eh.SPATIAL_PAIRS):
            for a in range(3):
                T += eh.EPS3[a, b, c] * (e_bar[..., a, :] @ eh.EPS3[:, i, j]) * F[..., P2, PF]
    return 2.0 * T / np.linalg.det(e_bar)


def _momentum_reference(frame, a_part, gamma_blk, grid):
    """eps^{abc} eps_{kij} ebar_f^k ebar_a^j (d_Gamma)_b A_c^i as one eps.eps einsum."""
    dA = np.stack([_so3_cov_deriv_vec(a_part, gamma_blk, frame.eta_bar, grid, b)
                   for b in range(3)], axis=-3)
    return np.einsum("abc,kij,...fk,...aj,...bci->...f", eh.EPS3, eh.EPS3,
                     frame.e_bar, frame.e_bar, dA)


def _christoffel_reference(g, grid):
    ginv = np.linalg.inv(g)
    dg = np.stack([deriv_axis(g, c, grid) for c in range(3)], axis=-3)
    t = np.einsum("...cd,...abd->...cab", ginv, dg)
    t2 = np.einsum("...cd,...bad->...cab", ginv, dg)
    t3 = np.einsum("...cd,...dab->...cab", ginv, dg)
    return 0.5 * (t + t2 - t3)


def _ricci_metric_reference(g, grid):
    Gam = _christoffel_reference(g, grid)
    dGam = np.stack([deriv_axis(Gam, c, grid) for c in range(3)], axis=-4)
    Ric = (np.einsum("...aacb->...cb", dGam) - np.einsum("...caab->...cb", dGam)
           + np.einsum("...aad,...dcb->...cb", Gam, Gam)
           - np.einsum("...acd,...dab->...cb", Gam, Gam))
    return np.einsum("...cb,...cb->...", np.linalg.inv(g), Ric)


def _rel(got, ref):
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _reduction_state(n, sig, shell):
    grid = Grid3(n)
    if shell == "off":
        st = random_offshell_state(np.random.Generator(np.random.Philox(key=n)), grid, sig, 1.0, 0.1)
    else:
        st = cst.make_on_shell(acceptance_triad_spec(), grid, 1.0, sig, Lambda=0.1,
                               timelike=shell == "timelike")
    frame = eh.orthonormal_frame(st.e.data, sig)
    return st, frame, eh.split_connection(st.omega, frame, grid)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("sig", [LORENTZIAN, EUCLIDEAN], ids=["lorentzian", "euclidean"])
@pytest.mark.parametrize("shell", ["on", "off"])
def test_eh_contractions_match_einsum_references(n, sig, shell):
    st, frame, split = _reduction_state(n, sig, shell)
    grid = st.grid
    got = eh.gamma_block(frame.e_bar, frame.eta_bar, grid)
    assert _rel(got, _gamma_block_reference(frame.e_bar, frame.eta_bar, grid)) <= 1e-13
    eta_bar = frame.eta_bar
    KA = np.einsum("...ai,i,...bi->...ab", frame.e_bar, eta_bar, split.a_part)
    assert _rel(eh.extrinsic_tensor(frame, split.a_part), 0.5 * (KA + np.swapaxes(KA, -1, -2))) <= 1e-13
    g = np.einsum("...ai,i,...bi->...ab", frame.e_bar, eta_bar, frame.e_bar)
    ginv = eh.metric_inverse(g)[0]
    assert _rel(eh.christoffel(g, ginv, grid), _christoffel_reference(g, grid)) <= 1e-13
    assert _rel(eh.ricci_scalar_via_metric(ginv, eh.christoffel(g, ginv, grid), grid),
                _ricci_metric_reference(g, grid)) <= 1e-13


SEAM_STATES = [(LORENTZIAN, "on"), (EUCLIDEAN, "on"), (LORENTZIAN, "off"), (EUCLIDEAN, "off"),
               (LORENTZIAN, "timelike")]


@pytest.mark.parametrize("sig,shell", SEAM_STATES, ids=[f"{shell}-{sig.name}" for sig, shell in SEAM_STATES])
def test_site_blocks_of_gamma_and_split_match_references(sig, shell):
    """16^3 sites span two site blocks of `gamma_block` (discrete anholonomy) and of the
    split's gauge term."""
    st, frame, split = _reduction_state(16, sig, shell)
    assert st.grid.n ** 3 > SITE_BLOCK
    if shell == "timelike":
        assert list(frame.eta_bar) == [1.0, 1.0, -1.0]
    got = eh.gamma_block(frame.e_bar, frame.eta_bar, st.grid)
    assert _rel(got, _gamma_block_reference(frame.e_bar, frame.eta_bar, st.grid)) <= 1e-13
    gamma_ref, a_ref = _split_reference(st.omega, frame, st.grid, sig)
    assert _rel(split.gamma_part, gamma_ref) <= 1e-13
    assert _rel(split.a_part, a_ref) <= 1e-13


@pytest.mark.parametrize("eta_bar", [(1.0, 1.0, 1.0), (1.0, 1.0, -1.0)], ids=["spacelike", "timelike"])
def test_gamma_block_exact_anholonomy_across_site_blocks(eta_bar):
    """The exact-C route of `make_on_shell` over two site blocks, with ebar^-1 passed in."""
    spec, grid, eta_bar = acceptance_triad_spec(), Grid3(16), np.array(eta_bar)
    eb, _ = spec.sample(grid)
    C = spec.anholonomy(grid)
    got = eh.gamma_block(eb, eta_bar, grid, C=C, e_inv=wm.inv3(eb)[0])
    assert _rel(got, _gamma_block_reference(eb, eta_bar, grid, C)) <= 1e-13


REDUCTION_STATES = ([(n, sig, shell) for shell in ("on", "off") for sig in (LORENTZIAN, EUCLIDEAN)
                     for n in (4, 8)] + [(4, LORENTZIAN, "timelike"), (8, LORENTZIAN, "timelike")])


@pytest.mark.parametrize("n,sig,shell", REDUCTION_STATES,
                         ids=[f"{shell}-{sig.name}-{n}" for n, sig, shell in REDUCTION_STATES])
def test_eh_kernel_route_matches_so3_references(n, sig, shell):
    st, frame, split = _reduction_state(n, sig, shell)
    grid = st.grid
    if shell == "timelike":
        assert list(frame.eta_bar) == [1.0, 1.0, -1.0] and frame.eta00 == 1.0
    gamma_ref, a_ref = _split_reference(st.omega, frame, grid, sig)
    assert _rel(split.gamma_part, gamma_ref) <= 1e-13
    assert _rel(split.a_part, a_ref) <= 1e-13
    assert _rel(split.gamma_triad, _gamma_block_reference(frame.e_bar, frame.eta_bar, grid)) <= 1e-13
    if shell != "off":
        assert split.gamma_residual <= 0.1 and split.k_asymmetry <= 1e-10
    e_bar, eta_bar = frame.e_bar, frame.eta_bar
    assert _rel(eh.ricci_scalar_via_frame(e_bar, wm.inv3(e_bar)[1], eta_bar, grid, split.gamma_triad),
                _ricci_frame_reference(e_bar, eta_bar, grid, split.gamma_triad)) <= 1e-13
    assert _rel(eh.momentum_density_frame(frame, split.a_part, split.gamma_triad, grid),
                _momentum_reference(frame, split.a_part, split.gamma_triad, grid)) <= 1e-13
    got = _triad_compatibility_residual(e_bar, split.gamma_part, eta_bar, grid)
    ref = _triad_compatibility_reference(e_bar, split.gamma_part, eta_bar, grid)
    assert abs(got - ref) <= 1e-13 * ref


DET_STATES = [(LORENTZIAN, "on"), (LORENTZIAN, "timelike"), (EUCLIDEAN, "on"), (LORENTZIAN, "off")]


@pytest.mark.parametrize("sig,shell", DET_STATES, ids=[f"{shell}-{sig.name}" for sig, shell in DET_STATES])
def test_triad_determinant_from_the_metric(sig, shell):
    """The Gram-Schmidt triad is lower triangular with diagonal signs eta_bar, so
    det ebar = (prod eta_bar) sqrt|det g|, the value `eh_data` passes to the frame route of R."""
    st, frame, split = _reduction_state(8, sig, shell)
    e_bar, eta_bar, grid = frame.e_bar, frame.eta_bar, st.grid
    assert np.abs(np.triu(e_bar, 1)).max() <= 1e-15 * np.abs(e_bar).max()
    assert (np.sign(np.diagonal(e_bar, axis1=-2, axis2=-1)) == eta_bar).all()
    g = np.einsum("...ai,i,...bi->...ab", e_bar, eta_bar, e_bar)
    det_e = wm.inv3(e_bar)[1]
    assert _rel(np.prod(eta_bar) * eh.metric_inverse(g)[1], det_e) <= 1e-15
    R_ref = eh.ricci_scalar_via_frame(e_bar, det_e, eta_bar, grid, split.gamma_triad)
    assert _rel(eh.eh_data(frame, split, grid).R_scalar, R_ref) <= 1e-15
