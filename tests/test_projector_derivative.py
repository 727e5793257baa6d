"""Exact projector derivative, closed-form frame completion, the frame's factored projectors,
Jacobi's Lambda^2(P^-1).

The central-difference implementations of A and A+ (rebuilding the e-adapted
frame at e +- eps de) are kept here as references for the exact derivative;
the dense per-site projectors S T S^-1, built from the frame's transforms, are
the references for its factored applies.
"""

import numpy as np
import pytest

from pchgrav import constraints as cst, fiber, reduction as red, wedgemaps as wm
from pchgrav.fiber import EUCLIDEAN, LORENTZIAN, Signature
from pchgrav.grid import Coframe, FormField, Grid3, cov_deriv, random_field_spec
from pchgrav.suites import random_nondegenerate_coframe, random_offshell_state

RNG = np.random.Generator(np.random.Philox(key=1973))
FD_STEP = 1e-6


def _block3(M):
    """kron(I_3, M), batched on the last two axes: a leg-wise map on three legs."""
    return np.kron(np.eye(3), M)


def _dense(frame):
    """Dense per-site references (S12, S12^-1, S2v, S2v^-1) of the frame's transforms;
    S12^-1 from Lambda^2 of P^-1, independent of the frame's L2P_inv."""
    return (_block3(frame.L2P), _block3(wm.compound_matrix(frame.frames_inv)),
            _block3(frame.frames), _block3(frame.frames_inv))


def _dense_p21(frame):
    _, _, S2v, S2v_inv = _dense(frame)
    return S2v @ (red.K21HAT @ red.K21HAT.T) @ S2v_inv


def _fd_dp21(state, de):
    """Central difference of the p21 projector field along de."""
    scale = max(state.e.field.sup_norm(), 1e-12)
    eps = FD_STEP * scale / max(de.sup_norm(), 1e-300)
    pp = cst.projector_pack(Coframe(state.e.field + eps * de, state.sig))
    pm = cst.projector_pack(Coframe(state.e.field + (-eps) * de, state.sig))
    return (_dense_p21(pp) - _dense_p21(pm)) / (2 * eps)


def _fd_a_map(state, de):
    S2v_inv, p21 = _dense(state.frame)[3], _dense_p21(state.frame)
    dvec = cst._flat(state.torsion)
    dp_d = np.einsum("...ij,...j->...i", _fd_dp21(state, de), dvec)
    pd = np.einsum("...ij,...j->...i", p21,
                   cst._flat(cov_deriv(de, state.omega, state.sig)))
    z = np.einsum("...ij,...j->...i", S2v_inv, dp_d + pd) @ red.K21HAT
    return -np.linalg.solve(red.phi_matrix(state.frame.g), z[..., None])[..., 0]


def _fd_a_dagger(state, Q):
    S12, _, _, S2v_inv = _dense(state.frame)
    PB = cst._pairing_gram_22_12(state.gamma, state.sig)
    K12S = np.einsum("...ij,jk->...ik", S12, red.K12HAT)
    qK = np.einsum("...j,...jk->...k", cst._flat(Q) @ PB, K12S)
    lam = -np.linalg.solve(np.swapaxes(red.phi_matrix(state.frame.g), -1, -2),
                           qK[..., None])[..., 0]
    w = np.einsum("Dk,...k->...D", red.K21HAT, lam)
    w = np.einsum("...ji,...j->...i", S2v_inv, w)
    dvec = cst._flat(state.torsion)
    psi = np.zeros(w.shape[:-1] + (12,))
    for a in range(3):
        for i in range(4):
            bump = np.zeros(state.e.data.shape)
            bump[..., a, i] = 1.0
            dp = _fd_dp21(state, FormField(state.grid, 1, 1, bump))
            col = np.einsum("...ij,...j->...i", dp, dvec)
            psi[..., a * 4 + i] = np.einsum("...i,...i->...", w, col)
    wp = np.einsum("...ji,...j->...i", _dense_p21(state.frame), w)
    Dt = cst._cov_deriv_transpose(cst._unflat(wp, state.grid, 2, 1), state.omega, state.sig)
    psi += cst._flat(Dt)
    PG = wm.dual_pairing_matrix(1, 1)
    return cst._unflat(psi @ np.linalg.inv(PG.T).T, state.grid, 2, 3)


def _rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.fixture(scope="module", params=[4, 8])
def offshell(request):
    rng = np.random.Generator(np.random.Philox(key=request.param))
    st = random_offshell_state(rng, Grid3(request.param), LORENTZIAN, 1.0, 0.1)
    return st


def test_exact_dp21_matches_central_difference(offshell):
    st = offshell
    de = random_field_spec(RNG, 1, 1, n_modes=2, amp=0.3).sample(st.grid)
    X = cst._frame_velocity(st.frame, de.data)
    XB = _block3(X)
    p21 = _dense_p21(st.frame)
    exact = XB @ p21 - p21 @ XB
    assert _rel(exact, _fd_dp21(st, de)) <= 1e-8


def test_a_map_matches_central_difference(offshell):
    st = offshell
    for _ in range(2):
        de = random_field_spec(RNG, 1, 1, n_modes=2, amp=0.3).sample(st.grid)
        assert _rel(cst.a_map(st, de), _fd_a_map(st, de)) <= 1e-8


def test_a_dagger_matches_central_difference(offshell):
    st = offshell
    Q = random_field_spec(RNG, 2, 2, n_modes=2, amp=0.3).sample(st.grid)
    got = cst.a_dagger(st, cst.kernel_covector(st, Q))
    assert _rel(got.data, _fd_a_dagger(st, Q).data) <= 1e-8


@pytest.fixture(scope="module", params=[EUCLIDEAN, LORENTZIAN], ids=["euclidean", "lorentzian"])
def frame_and_dense(request):
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=5)), Grid3(4),
                               request.param, 2.0, 0.1)
    frame = st.frame
    S12, S12_inv, _, _ = _dense(frame)
    P12 = red.K12HAT @ red.K12HAT.T
    U11 = np.linalg.svd(wm.wedge_matrix(np.eye(3, 4), (1, 1)))[0][:, :12]
    dense = {"p12": S12 @ P12 @ S12_inv, "p12_prime": S12 @ (np.eye(18) - P12) @ S12_inv,
             "p11_dag": S12 @ (U11 @ U11.T) @ S12_inv, "p21": _dense_p21(frame)}
    return frame, dense


def test_pack_applies_and_transposes_match_dense_projectors(frame_and_dense):
    frame, dense = frame_and_dense
    for name, M in dense.items():
        x = RNG.normal(size=(4, 4, 4, 3, M.shape[-1] // 3))
        flat = x.reshape(4, 4, 4, -1)
        applies = [(getattr(frame, name), M)]
        if hasattr(frame, name + "_T"):
            applies.append((getattr(frame, name + "_T"), np.swapaxes(M, -1, -2)))
        for apply, ref in applies:
            want = np.einsum("...ij,...j->...i", ref, flat)
            assert _rel(apply(x).reshape(flat.shape), want) <= 1e-13
    assert hasattr(frame, "p12_prime_T") and hasattr(frame, "p21_T")


def test_pack_projectors_are_idempotent(frame_and_dense):
    frame, dense = frame_and_dense
    for name, M in dense.items():
        p = getattr(frame, name)
        px = p(RNG.normal(size=(4, 4, 4, 3, M.shape[-1] // 3)))
        assert _rel(p(px), px) <= 1e-12
    x = RNG.normal(size=(4, 4, 4, 3, 6))
    assert _rel(frame.p12(x) + frame.p12_prime(x), x) <= 1e-13


def _svd_frame(e, sig):
    """Reference completion: SVD null vector, normalized, orientation fixed by det."""
    v = np.linalg.svd(e * sig.eta)[2][..., 3, :]
    q = np.einsum("...i,i,...i->...", v, sig.eta, v)
    v = v / np.sqrt(np.abs(q))[..., None]
    P = np.concatenate([np.swapaxes(e, -1, -2), v[..., :, None]], axis=-1)
    P[..., :, 3] *= np.where(np.linalg.det(P) < 0, -1.0, 1.0)[..., None]
    return P, np.sign(q)


@pytest.mark.parametrize("sig", [EUCLIDEAN, LORENTZIAN], ids=["euclidean", "lorentzian"])
def test_closed_form_frame_matches_svd(sig):
    e = np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(64)])
    P, qn = wm.complete_frame(e, sig)
    Pr, qr = _svd_frame(e, sig)
    assert np.abs(P - Pr).max() <= 1e-10 * max(1.0, np.abs(Pr).max())
    assert np.array_equal(qn, qr)
    assert np.all(np.linalg.det(P) > 0)


def test_null_normal_and_dependent_coframe_rejected():
    with pytest.raises(ValueError, match="null"):
        wm.complete_frame(red.make_degenerate_coframe((1, 1, 0), LORENTZIAN), LORENTZIAN)
    rank2 = np.array([[1.0, 0, 2, 0], [0, 1, 0, 3], [1, 1, 2, 3]])   # e_3 = e_1 + e_2
    for sig in (EUCLIDEAN, LORENTZIAN):
        with pytest.raises(ValueError, match="null"):
            wm.complete_frame(rank2, sig)


def test_compound_matrix_matches_minor_loop():
    """Each minor P[a, c] P[b, d] - P[a, d] P[b, c] bit for bit, over the block seam too,
    in the layout with the site axis fastest."""
    rng = np.random.Generator(np.random.Philox(key=6))      # leaves the module's RNG stream alone
    for shape, strides in [((20, 4, 4), (8, 160, 960)), ((4, 4, 4, 4, 4), (128, 32, 8, 512, 3072)),
                           ((fiber.SITE_BLOCK + 5, 4, 4), None)]:
        P = rng.normal(size=shape)
        ref, det = np.zeros(shape[:-2] + (6, 6)), np.zeros(shape[:-2] + (6, 6))
        for J, (c, d) in enumerate(fiber.GRADE_BASIS[2]):
            for I, (a, b) in enumerate(fiber.GRADE_BASIS[2]):
                ref[..., I, J] = P[..., a, c] * P[..., b, d] - P[..., a, d] * P[..., b, c]
                det[..., I, J] = np.linalg.det(P[..., [a, b], :][..., [c, d]])
        got = wm.compound_matrix(P)
        assert np.array_equal(got, ref)
        assert np.abs(got - det).max() <= 1e-13
        assert strides is None or got.strides == strides


def _timelike_span(n):
    """n coframes near (e_1, e_2, e_0): Lorentzian boundary metrics of signature (1, 1, -1).

    Drawn from their own keyed stream, with every span of det g >= 0 drawn again, so the
    draw does not depend on what other tests took from `RNG`."""
    rng = np.random.Generator(np.random.Philox(key=1974))
    e = np.eye(4)[[0, 1, 3]] + 0.2 * rng.normal(size=(n, 3, 4))
    while (bad := np.linalg.det((e * LORENTZIAN.eta) @ np.swapaxes(e, -1, -2)) >= 0).any():
        e[bad] = np.eye(4)[[0, 1, 3]] + 0.2 * rng.normal(size=(int(bad.sum()), 3, 4))
    return e


@pytest.mark.parametrize("sig,draw", [
    (LORENTZIAN, None), (EUCLIDEAN, None), (Signature((1, 1, -1, 1)), None),
    (LORENTZIAN, _timelike_span),
], ids=["lorentzian", "euclidean", "eta-1,1,-1,1", "timelike-span"])
def test_jacobi_l2p_inv_is_the_inverse(sig, draw):
    e = (draw(100) if draw else
         np.stack([random_nondegenerate_coframe(RNG, sig) for _ in range(100)]))
    pf = red.phi_frame(e, sig)
    ref = np.linalg.inv(pf.L2P)
    kappa = np.linalg.cond(pf.L2P)
    eps = np.finfo(float).eps
    err = np.abs(pf.L2P_inv - ref).max(axis=(-2, -1)) / np.abs(ref).max(axis=(-2, -1))
    assert (err <= 10 * kappa * eps).all()
    res = np.abs(pf.L2P_inv @ pf.L2P - np.eye(6)).max(axis=(-2, -1))
    assert (res <= 10 * kappa * eps).all()
