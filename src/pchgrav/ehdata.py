"""Reduction of boundary tetrad data to Einstein-Hilbert (ADM-type) data.

Pipeline: eta-orthonormalize the span of the boundary coframe (Gram-Schmidt
with fixed pivot order), gauge-fix the normal internal component to zero,
split the connection into the triad-compatible block Gamma(ebar) plus the
boost block A, extract the extrinsic tensor K and momentum density Pi, and
evaluate the Hamiltonian and momentum constraint densities.

Normalization of the densities.  With the conventions used throughout this
package (Tr(u1^u2^u3^u4) = +1, ordered-pair bivector components, adapted
frame oriented so Tr[w1^w2^w3^w0] = +1) the gamma-independent constraint
J_mu at mu = lam * w0 reduces exactly to

    integral of  lam * H,
    H = -1/2 [ sqrt(g) R - eta00 sqrt(g) ((tr K)^2 - tr(K^2)) ] - 6 Lambda sqrt(g),

and at mu = xi^f e_f to the integral of xi^f M_f with

    M_f = eps^{abc} eps_{kij} ebar_f^k ebar_a^j (d_Gamma)_b A_c^i
        = -2 [ d_b (g^{bc} Pi_{cf}) - Gamma^{LC,d}_{bf} g^{bc} Pi_{cd} ],

where Pi = (sqrt(g)/2)(K - g tr K).  For a space-like boundary (eta00 = -1)
the bracket in H is the standard ADM combination sqrt(g)(R + (tr K)^2 -
tr(K^2)).  These factors were derived from the volume-pairing conventions
and are pinned by the acceptance comparison against the J functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fiber import PAIRS, Signature
from .grid import COMP_BASIS, FormField, Grid3, deriv_axis

EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    EPS3[_i, _j, _k] = 1.0
for _i, _j, _k in [(0, 2, 1), (2, 1, 0), (1, 0, 2)]:
    EPS3[_i, _j, _k] = -1.0

#: spatial index pairs (12, 13, 23), ordered as the coordinate 2-form components
SPATIAL_PAIRS = COMP_BASIS[2]


# ---------------------------------------------------------------------------
# adapted frames


@dataclass
class AdaptedFrame:
    """Per-site eta-orthonormal frame adapted to the coframe span."""

    frame: np.ndarray     # (..., 4, 4) columns w_1, w_2, w_3, w_0 in u-coords
    e_bar: np.ndarray     # (..., 3, 3) triad components e_a = ebar_a^i w_i
    eta_bar: np.ndarray   # (3,) signs eta(w_i, w_i)
    eta00: float          # sign eta(w_0, w_0)


class GramSchmidtError(RuntimeError):
    pass


def orthonormal_frame(e: np.ndarray, sig: Signature) -> AdaptedFrame:
    """Gram-Schmidt under eta on span{e_a}, pivot order a = 1, 2, 3.

    Returns the normalized frame {w_i}, the orientation-positive unit normal
    w_0 with its sign eta00, and the triad ebar expressing e in the w-frame.
    Each w_a is oriented so the leading triad entry ebar_a^a is positive (the
    first nonzero component of the triangular triad column), which keeps the
    frame field smooth wherever the pivots stay away from zero.  Raises
    GramSchmidtError when a pivot is null (degenerate boundary metric).
    """
    e = np.asarray(e, dtype=float)
    eta = sig.eta
    ws = []
    signs = []
    for a in range(3):
        v = e[..., a, :].copy()
        for w, sgn in zip(ws, signs):
            proj = np.einsum("...i,i,...i->...", w, eta, v)
            v = v - (proj / sgn)[..., None] * w
        q = np.einsum("...i,i,...i->...", v, eta, v)
        scale = np.einsum("...i,i,...i->...", e[..., a, :], eta, e[..., a, :])
        if np.any(np.abs(q) < 1e-10 * np.maximum(np.abs(scale), 1.0)):
            raise GramSchmidtError("degenerate boundary metric: null pivot in Gram-Schmidt")
        v = v / np.sqrt(np.abs(q))[..., None]
        # orient so eta(e_a, w_a) > 0: diagonal (leading) triad entry positive
        lead = np.einsum("...i,i,...i->...", e[..., a, :], eta, v)
        v = v * np.where(lead < 0, -1.0, 1.0)[..., None]
        ws.append(v)
        signs.append(np.sign(q))

    for idx, sgn in enumerate(signs):
        flat = np.asarray(sgn).reshape(-1)
        if flat.size and not np.all(flat == flat[0]):
            raise GramSchmidtError("boundary span signature varies across sites")
    eta_bar = np.array([float(np.asarray(s).reshape(-1)[0]) for s in signs])

    # unit eta-orthogonal completion, orientation positive
    W3 = np.stack(ws, axis=-2)                      # (..., 3, 4)
    A = W3 * eta
    _, _, vh = np.linalg.svd(A)
    w0 = vh[..., 3, :]
    q0 = np.einsum("...i,i,...i->...", w0, eta, w0)
    if np.any(np.abs(q0) < 1e-12):
        raise GramSchmidtError("degenerate boundary metric: null normal")
    w0 = w0 / np.sqrt(np.abs(q0))[..., None]
    frame = np.concatenate([np.swapaxes(W3, -1, -2), w0[..., :, None]], axis=-1)
    det = np.linalg.det(frame)
    frame = frame.copy()
    frame[..., :, 3] *= np.where(det < 0, -1.0, 1.0)[..., None]
    eta00 = float(np.sign(q0.reshape(-1)[0]))

    # triad: e_a = ebar_a^i w_i  =>  ebar = e . eta . w / eta_bar
    e_bar = np.einsum("...ai,i,...ij->...aj", e, eta, frame[..., :, :3]) / eta_bar
    return AdaptedFrame(frame=frame, e_bar=e_bar, eta_bar=eta_bar, eta00=eta00)


# ---------------------------------------------------------------------------
# so(3)-block algebra (internal indices moved with eta_bar)


def so3_bracket(a: np.ndarray, b: np.ndarray, eta_bar: np.ndarray) -> np.ndarray:
    """Bracket on 3x3 antisymmetric blocks stored on pairs (12, 13, 23)."""
    A = block_to_mat(a)
    B = block_to_mat(b)
    C = np.einsum("...rm,m,...ms->...rs", A, eta_bar, B)
    C = C - np.einsum("...rm,m,...ms->...rs", B, eta_bar, A)
    return mat_to_block(C)


def block_to_mat(a: np.ndarray) -> np.ndarray:
    M = np.zeros(a.shape[:-1] + (3, 3))
    for P, (i, j) in enumerate(SPATIAL_PAIRS):
        M[..., i, j] = a[..., P]
        M[..., j, i] = -a[..., P]
    return M


def mat_to_block(M: np.ndarray) -> np.ndarray:
    return np.stack([M[..., i, j] for (i, j) in SPATIAL_PAIRS], axis=-1)


def gamma_of_triad(e_bar: np.ndarray, eta_bar: np.ndarray, grid: Grid3,
                   C: np.ndarray | None = None) -> np.ndarray:
    """Triad-compatible so(3)-block connection Gamma(ebar), d_Gamma ebar = 0.

    e_bar: (n,n,n,3,3) with ebar[..., a, i].  C, when given, is the
    anholonomy C[..., a, b, i] = d_a ebar_b^i - d_b ebar_a^i evaluated from a
    closed-form spec (exact derivatives); otherwise central differences of the
    grid data are used, in which case the compatibility holds to roundoff.

    Returns Gamma[..., a, i, j] as antisymmetric internal matrices.
    """
    N = np.linalg.inv(e_bar)                        # N[..., i, a]
    Eup = N / eta_bar[:, None]                      # E^{a i} with index raised
    if C is None:
        de = np.stack([deriv_axis(e_bar, c, grid) for c in range(3)], axis=-3)
        C = de - np.swapaxes(de, -3, -2)            # C[..., a, b, i]
    Clow = C * eta_bar
    t1 = 0.5 * np.einsum("...ib,...abj->...aij", Eup, C)
    t2 = -0.5 * np.einsum("...jb,...abi->...aij", Eup, C)
    t3 = -0.5 * np.einsum("...ib,...jc,...bck,...ak->...aij", Eup, Eup, Clow, e_bar)
    return t1 + t2 + t3


def gamma_block(e_bar, eta_bar, grid, C=None) -> np.ndarray:
    """Gamma(ebar) on pair components (..., a, 3)."""
    return mat_to_block(gamma_of_triad(e_bar, eta_bar, grid, C))


def triad_compatibility_residual(e_bar, gamma_blk, eta_bar, grid) -> float:
    """sup |d_Gamma ebar| with central differences."""
    de = np.stack([deriv_axis(e_bar, c, grid) for c in range(3)], axis=-3)
    G = block_to_mat(gamma_blk)
    worst = 0.0
    for a, b in SPATIAL_PAIRS:
        t = de[..., a, b, :] - de[..., b, a, :]
        t = t + np.einsum("...ik,k,...k->...i", G[..., a, :, :], eta_bar, e_bar[..., b, :])
        t = t - np.einsum("...ik,k,...k->...i", G[..., b, :, :], eta_bar, e_bar[..., a, :])
        worst = max(worst, float(np.abs(t).max()))
    return worst


def so3_curvature(gamma_blk: np.ndarray, eta_bar: np.ndarray, grid: Grid3) -> np.ndarray:
    """F = d Gamma + 1/2 [Gamma, Gamma] on pair components (..., 3 pairs, 3)."""
    F = np.zeros(gamma_blk.shape[:3] + (3, 3))
    for P, (a, b) in enumerate(SPATIAL_PAIRS):
        dpart = deriv_axis(gamma_blk[..., b, :], a, grid) - deriv_axis(gamma_blk[..., a, :], b, grid)
        F[..., P, :] = dpart + so3_bracket(gamma_blk[..., a, :], gamma_blk[..., b, :], eta_bar)
    return F


def so3_cov_deriv_vec(A: np.ndarray, gamma_blk: np.ndarray, eta_bar: np.ndarray,
                      grid: Grid3, axis: int) -> np.ndarray:
    """(d_Gamma)_axis A for an internal-vector-valued field A[..., c, i]."""
    G = block_to_mat(gamma_blk[..., axis, :])
    return deriv_axis(A, axis, grid) + np.einsum("...ik,k,...ck->...ci", G, eta_bar, A)


# ---------------------------------------------------------------------------
# connection split and ADM data


@dataclass
class ConnectionSplit:
    gamma_part: np.ndarray    # (..., 3, 3) block comps of the spatial block
    a_part: np.ndarray        # (..., 3, 3) A[..., b, i] boost components
    gamma_residual: float     # deviation of the spatial block from Gamma(ebar)
    k_asymmetry: float        # sup |K_[ab]|


def split_connection(omega: FormField, frame: AdaptedFrame, grid: Grid3,
                     sig: Signature | None = None) -> ConnectionSplit:
    """Decompose a bivector-valued connection in the adapted frame.

    The frame change is a position-dependent internal gauge transformation, so
    the connection picks up the inhomogeneous term V^{-1} dV on top of the
    tensorial transform:  M' = V^{-1} M(omega) V + V^{-1} dV, from which the
    w-frame bivector components are read off with the adapted-frame metric.
    omega = Gamma^{ij} w_i ^ w_j + A^i w_0 ^ w_i; returns the blocks, the
    residual of the spatial block against Gamma(ebar) rebuilt from the triad
    (O(h^2) on states built on the constraint surface), and the asymmetry of
    the extrinsic tensor candidate.
    """
    if sig is None:
        sig = Signature((1, 1, 1, -1)) if np.any(np.asarray(frame.eta_bar) < 0) or frame.eta00 < 0 \
            else Signature((1, 1, 1, 1))
    eta = sig.eta
    eta_w = np.concatenate([frame.eta_bar, [frame.eta00]])
    V = frame.frame
    Vinv = np.linalg.inv(V)
    # connection as matrices in u-coords: M^i_j = omega^{ik} eta_kj
    M = np.zeros(omega.data.shape[:3] + (3, 4, 4))
    for I, (i, j) in enumerate(PAIRS):
        M[..., :, i, j] += omega.data[..., I] * eta[j]
        M[..., :, j, i] -= omega.data[..., I] * eta[i]
    Mw = np.einsum("...ij,...ajk,...kl->...ail", Vinv, M, V)
    dV = np.stack([deriv_axis(V, a, grid) for a in range(3)], axis=-3)  # [..., a, i, j]
    Mw = Mw + np.einsum("...ij,...ajk->...aik", Vinv, dV)
    # bivector components with the adapted-frame metric
    om_w = np.einsum("...aij,j->...aij", Mw, 1.0 / eta_w)
    gamma_part = np.stack([om_w[..., i, j] for (i, j) in SPATIAL_PAIRS], axis=-1)
    a_part = np.stack([om_w[..., 3, i] for i in range(3)], axis=-1)
    gamma_ref = gamma_block(frame.e_bar, frame.eta_bar, grid)
    gres = float(np.abs(gamma_part - gamma_ref).max())
    K = extrinsic_tensor(frame, a_part)
    kasym = float(np.abs(K - np.swapaxes(K, -1, -2)).max())
    return ConnectionSplit(gamma_part, a_part, gres, kasym)


def extrinsic_tensor(frame: AdaptedFrame, a_part: np.ndarray) -> np.ndarray:
    """K_ab = ebar_(a^i A_b)^j eta_ij (symmetrized)."""
    KA = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, a_part)
    return 0.5 * (KA + np.swapaxes(KA, -1, -2))


def a_from_K(frame: AdaptedFrame, K: np.ndarray) -> np.ndarray:
    """Inverse of extrinsic_tensor for symmetric K: A_b^j = eta^{jk} E^a_k K_ab."""
    N = np.linalg.inv(frame.e_bar)          # N[..., i, a]
    return np.einsum("j,...ja,...ab->...bj", 1.0 / frame.eta_bar, N, K)


@dataclass
class EHData:
    g: np.ndarray           # (..., 3, 3)
    K: np.ndarray           # (..., 3, 3)
    Pi: np.ndarray          # (..., 3, 3) momentum density
    sqrtg: np.ndarray       # (...,)
    R_scalar: np.ndarray    # (...,)
    H_density: np.ndarray   # (...,)
    M_density: np.ndarray   # (..., 3)
    eta00: float


def momentum_density_tensor(g: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Pi = (sqrt g / 2)(K - g tr_g K)."""
    ginv = np.linalg.inv(g)
    trK = np.einsum("...ab,...ab->...", ginv, K)
    sqrtg = np.sqrt(np.abs(np.linalg.det(g)))
    return 0.5 * sqrtg[..., None, None] * (K - g * trK[..., None, None])


def K_from_momentum(g: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """Inverse of momentum_density_tensor: K = (2 Pi - g tr_g Pi) / sqrt g."""
    ginv = np.linalg.inv(g)
    trPi = np.einsum("...ab,...ab->...", ginv, Pi)
    sqrtg = np.sqrt(np.abs(np.linalg.det(g)))
    return (2.0 * Pi - g * trPi[..., None, None]) / sqrtg[..., None, None]


# ---------------------------------------------------------------------------
# Ricci scalar, two routes


def ricci_scalar_via_frame(e_bar, eta_bar, grid, gamma_blk=None) -> np.ndarray:
    """R from the frame-curvature contraction eps_{kij} ebar^k ^ F_Gamma^{ij}.

    With ordered-pair components the (dx1^dx2^dx3)-coefficient of that 3-form
    equals (det ebar) R / 2.
    """
    if gamma_blk is None:
        gamma_blk = gamma_block(e_bar, eta_bar, grid)
    F = so3_curvature(gamma_blk, eta_bar, grid)
    dete = np.linalg.det(e_bar)
    T = np.zeros(e_bar.shape[:3])
    for P2, (b, c) in enumerate(SPATIAL_PAIRS):      # coordinate 2-form comps
        for PF, (i, j) in enumerate(SPATIAL_PAIRS):  # internal pair comps
            for a in range(3):
                w = EPS3[a, b, c]
                if w == 0.0:
                    continue
                T += w * (e_bar[..., a, :] @ EPS3[:, i, j]) * F[..., P2, PF]
    return 2.0 * T / dete


def christoffel(g: np.ndarray, grid: Grid3) -> np.ndarray:
    """Levi-Civita symbols Gamma^c_{ab} with central differences, (..., c, a, b)."""
    ginv = np.linalg.inv(g)
    dg = np.stack([deriv_axis(g, c, grid) for c in range(3)], axis=-3)  # [..., c, a, b]
    t = np.einsum("...cd,...abd->...cab", ginv, dg)
    t2 = np.einsum("...cd,...bad->...cab", ginv, dg)
    t3 = np.einsum("...cd,...dab->...cab", ginv, dg)
    return 0.5 * (t + t2 - t3)


def ricci_scalar_via_metric(g: np.ndarray, grid: Grid3) -> np.ndarray:
    """Standard Christoffel route: R = g^{cb} R_{cb}, all central differences.

    R_{cb} = d_a G^a_{cb} - d_c G^a_{ab} + G^a_{ad} G^d_{cb} - G^a_{cd} G^d_{ab}.
    """
    Gam = christoffel(g, grid)
    dGam = np.stack([deriv_axis(Gam, c, grid) for c in range(3)], axis=-4)  # [..., d, c, a, b]
    term1 = np.einsum("...aacb->...cb", dGam)
    term2 = np.einsum("...caab->...cb", dGam)
    term3 = np.einsum("...aad,...dcb->...cb", Gam, Gam)
    term4 = np.einsum("...acd,...dab->...cb", Gam, Gam)
    Ric = term1 - term2 + term3 - term4
    ginv = np.linalg.inv(g)
    return np.einsum("...cb,...cb->...", ginv, Ric)


def ricci_scalar(frame: AdaptedFrame, grid: Grid3, method: str = "via_frame",
                 gamma_blk=None) -> np.ndarray:
    if method == "via_frame":
        return ricci_scalar_via_frame(frame.e_bar, frame.eta_bar, grid, gamma_blk)
    if method == "via_metric":
        g = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, frame.e_bar)
        return ricci_scalar_via_metric(g, grid)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# constraint densities


def hamiltonian_density(g, K, R, eta00, Lambda=0.0) -> np.ndarray:
    """H with J_{lam w0} = integral lam H; see the module docstring for factors."""
    ginv = np.linalg.inv(g)
    sqrtg = np.sqrt(np.abs(np.linalg.det(g)))
    Kmix = np.einsum("...ab,...bc->...ac", ginv, K)
    trK = np.einsum("...aa->...", Kmix)
    trK2 = np.einsum("...ab,...ba->...", Kmix, Kmix)
    return -0.5 * (sqrtg * R - eta00 * sqrtg * (trK**2 - trK2)) - 6.0 * Lambda * sqrtg


def momentum_density_frame(frame: AdaptedFrame, a_part, gamma_blk, grid) -> np.ndarray:
    """M_f = eps^{abc} eps_{kij} ebar_f^k ebar_a^j (d_Gamma)_b A_c^i."""
    dA = np.stack(
        [so3_cov_deriv_vec(a_part, gamma_blk, frame.eta_bar, grid, b) for b in range(3)],
        axis=-3,
    )  # [..., b, c, i]
    # pre-contract internal indices: eps_{kij} ebar_f^k ebar_a^j = det(ebar) eps_{fda} E^d_i
    N = np.linalg.inv(frame.e_bar)
    dete = np.linalg.det(frame.e_bar)
    M = np.einsum(
        "abc,fda,...,...id,...bci->...f",
        EPS3, EPS3, dete, N, dA,
    )
    return M


def momentum_density_metric(g, Pi, grid) -> np.ndarray:
    """M_f = -2 [ d_b P^b_f - Gamma^{LC,d}_{bf} P^b_d ],  P^b_f = g^{bc} Pi_{cf}."""
    ginv = np.linalg.inv(g)
    P = np.einsum("...bc,...cf->...bf", ginv, Pi)
    Gam = christoffel(g, grid)
    divP = sum(deriv_axis(P[..., b, :], b, grid) for b in range(3))
    corr = np.einsum("...dbf,...bd->...f", Gam, P)
    return -2.0 * (divP - corr)


def eh_data(frame: AdaptedFrame, a_part: np.ndarray, grid: Grid3, Lambda: float = 0.0,
            ricci_method: str = "via_frame") -> EHData:
    g = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, frame.e_bar)
    K = extrinsic_tensor(frame, a_part)
    Pi = momentum_density_tensor(g, K)
    gamma_blk = gamma_block(frame.e_bar, frame.eta_bar, grid)
    R = ricci_scalar(frame, grid, ricci_method, gamma_blk=gamma_blk)
    H = hamiltonian_density(g, K, R, frame.eta00, Lambda)
    M = momentum_density_frame(frame, a_part, gamma_blk, grid)
    sqrtg = np.sqrt(np.abs(np.linalg.det(g)))
    return EHData(g=g, K=K, Pi=Pi, sqrtg=sqrtg, R_scalar=R, H_density=H,
                  M_density=M, eta00=frame.eta00)


def triad_determinant_identity_residual(e_bar) -> float:
    """Adjugate identity |ebar| [ebar^{-1}]_j^b = 1/2 eps_{ijl} eps^{abc} ebar_c^l ebar_a^i.

    The 1/2 belongs to the fully summed epsilon contraction (both epsilon
    orders counted); checked to roundoff on random invertible triads.
    """
    N = np.linalg.inv(e_bar)
    dete = np.linalg.det(e_bar)
    lhs = dete[..., None, None] * np.swapaxes(N, -1, -2)   # [..., b, j]
    rhs = 0.5 * np.einsum("ijl,abc,...cl,...ai->...bj", EPS3, EPS3, e_bar, e_bar)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# comparison of the boundary functional against the reduced densities


def compare_pch_eh(state, lam0_polys, xi_polys, force: bool = False) -> dict:
    """Deviations between J-functional values and the reduced EH densities.

    lam0_polys: list of TrigPoly lapse probes (smearing mu = lam0 w0);
    xi_polys: list of 3-tuples of TrigPoly shift probes (mu = xi^f e_f).
    Returns the maximal absolute deviations, the mutual two-route residuals,
    and the gamma-independence deviation.  Refuses off-shell states unless
    forced: the reduction formulas presuppose the residual constraint.
    """
    from . import constraints as cst
    from .grid import FormField

    if not state.on_shell and not force:
        raise ValueError("compare_pch_eh expects an on-shell state")
    grid = state.grid
    X, Y, Z = grid.coords()
    frame = orthonormal_frame(state.e.data, state.sig)
    split = split_connection(state.omega, frame, grid, state.sig)
    data = eh_data(frame, split.a_part, grid, Lambda=state.Lambda)
    out = {
        "hamiltonian": 0.0,
        "momentum": 0.0,
        "gamma_independence": 0.0,
        "ricci_mutual": 0.0,
        "momentum_mutual": 0.0,
        "gamma_residual": split.gamma_residual,
        "k_asymmetry": split.k_asymmetry,
    }
    h3 = grid.h**3
    for lp in lam0_polys:
        lam = lp.eval(X, Y, Z)
        mu = FormField(grid, 0, 1, (lam[..., None] * frame.frame[..., :, 3])[..., None, :])
        jinf = cst.eval_J_infinity(state, mu)
        out["hamiltonian"] = max(out["hamiltonian"],
                                 abs(jinf - float((lam * data.H_density).sum() * h3)))
        out["gamma_independence"] = max(
            out["gamma_independence"],
            abs(cst.eval_J(state, mu, gamma=0.5) - cst.eval_J(state, mu, gamma=10.0)),
        )
    for xp in xi_polys:
        xi = np.stack([p.eval(X, Y, Z) * np.ones_like(X) for p in xp], axis=-1)
        mu = FormField(grid, 0, 1,
                       np.einsum("...a,...ai->...i", xi, state.e.data)[..., None, :])
        jxi = cst.eval_J_infinity(state, mu)
        out["momentum"] = max(out["momentum"],
                              abs(jxi - float((xi * data.M_density).sum() * h3)))
    Mlc = momentum_density_metric(data.g, data.Pi, grid)
    Rm = ricci_scalar_via_metric(data.g, grid)
    out["momentum_mutual"] = float(np.sqrt(((data.M_density - Mlc) ** 2).sum() * h3))
    out["ricci_mutual"] = float(np.sqrt(((data.R_scalar - Rm) ** 2).sum() * h3))
    return out


def exact_divergence_integral(grid: Grid3, fields_u: np.ndarray) -> float:
    """Discrete integral of the central-difference divergence over the torus.

    For any per-site data X[..., a] the quantity sum_a d_a X_a integrates to
    zero exactly (the periodic telescoping that kills the gamma-exact corner
    term on a closed boundary).
    """
    div = sum(deriv_axis(fields_u[..., a], a, grid) for a in range(3))
    return float(div.sum() * grid.h**3)
