"""Reduction of boundary tetrad data to Einstein-Hilbert (ADM-type) data.

Pipeline: eta-orthonormalize the span of the boundary coframe (Gram-Schmidt
with fixed pivot order), gauge-fix the normal internal component to zero,
split the connection into the triad-compatible block Gamma(ebar) plus the
boost block A, extract the extrinsic tensor K and momentum density Pi, and
evaluate the Hamiltonian and momentum constraint densities.

Gamma and A live in one w-frame connection field, omega_w = Gamma^{ij} w_i ^ w_j
+ A^i w_0 ^ w_i (`adapted_connection`), on the package's so(eta_w) algebra with
eta_w = diag(eta_bar, eta00).  Its curvature F_Gamma and the covariant
derivatives d_Gamma ebar and d_Gamma A are the grid's `curvature` and
`cov_deriv`, and R and M_f are w_1 ^ w_2 ^ w_3 components of `wedge_fields`
products, so every product goes through the one contraction kernel.

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

from .fiber import PAIR_INDEX, Signature, site_blocks, wedge_signs
from .grid import COMP_BASIS, FormField, Grid3, cov_deriv, curvature, deriv_axis, wedge_fields
from .wedgemaps import (ConditioningError, NullNormalError, at_site, complete_frame,
                        compound_matrix, inv3)

#: eps_{ijk} from the coordinate wedge: dx^i ^ dx^j ^ dx^k = eps_{ijk} dx^1 ^ dx^2 ^ dx^3
EPS3 = np.einsum("ijP,Pk->ijk", wedge_signs(3, 1, 1), wedge_signs(3, 2, 1)[:, :, 0]).astype(float)

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
    eta: np.ndarray       # (4,) signs of eta in u-coords


class GramSchmidtError(ConditioningError, RuntimeError):
    """The coframe span has a null pivot, or its signature varies across sites."""


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
    eta_e = e * sig.eta
    ws = []
    signs = []
    for a in range(3):
        v = e[..., a, :].copy()
        for w, sgn in zip(ws, signs):
            proj = ((w * sig.eta) * v).sum(-1)
            v = v - (proj / sgn)[..., None] * w
        q = ((v * sig.eta) * v).sum(-1)
        scale = (eta_e[..., a, :] * e[..., a, :]).sum(-1)
        null = np.abs(q) < 1e-10 * np.maximum(np.abs(scale), 1.0)
        if np.any(null):
            raise GramSchmidtError(
                f"degenerate boundary metric{at_site(null)}: null pivot {a + 1} in Gram-Schmidt")
        v = v / np.sqrt(np.abs(q))[..., None]
        # orient so eta(e_a, w_a) > 0: diagonal (leading) triad entry positive
        lead = (eta_e[..., a, :] * v).sum(-1)
        v = v * np.where(lead < 0, -1.0, 1.0)[..., None]
        ws.append(v)
        signs.append(np.sign(q))

    for sgn in signs:
        flips = np.asarray(sgn) != np.asarray(sgn).reshape(-1)[0]
        if np.any(flips):
            raise GramSchmidtError(f"boundary span signature flips{at_site(flips)}")
    eta_bar = np.array([float(np.asarray(s).reshape(-1)[0]) for s in signs])

    # unit eta-orthogonal completion, orientation positive
    try:
        frame, q0 = complete_frame(np.stack(ws, axis=-2), sig)
    except NullNormalError as exc:
        raise GramSchmidtError(f"degenerate boundary metric: {exc}") from None
    eta00 = float(q0.reshape(-1)[0])

    # triad: e_a = ebar_a^i w_i  =>  ebar = e . eta . w / eta_bar
    e_bar = (eta_e @ frame[..., :, :3]) / eta_bar
    return AdaptedFrame(frame=frame, e_bar=e_bar, eta_bar=eta_bar, eta00=eta00, eta=sig.eta)


# ---------------------------------------------------------------------------
# the adapted-frame connection: components on the pairs of w_1, w_2, w_3, w_0

#: w-frame pair slots of Gamma^{ij} (spatial pairs 12, 13, 23) and of the pairs (i, 0)
_GAMMA_SLOTS = [PAIR_INDEX[p] for p in SPATIAL_PAIRS]
_A_SLOTS = [PAIR_INDEX[(i, 3)] for i in range(3)]
_SP_I, _SP_J = np.array(SPATIAL_PAIRS).T
#: entries (row, column) of V^-1 dV that `split_connection` reads: the spatial pairs, the w_0 row
_GAUGE_ROWS, _GAUGE_COLS = np.array(SPATIAL_PAIRS + [(3, 0), (3, 1), (3, 2)]).T


def adapted_connection(gamma_blk: np.ndarray, a_part, grid: Grid3) -> FormField:
    """omega_w = Gamma^{ij} w_i ^ w_j + A^i w_0 ^ w_i as a bivector-valued 1-form.

    Components are on the w-frame pairs with w_0 fourth, so A^i sits on the
    pair (i, 0) with a minus sign; its curvature and covariant derivatives are
    the grid's, taken with eta_w = diag(eta_bar, eta00).
    """
    data = np.zeros(gamma_blk.shape[:-1] + (6,))
    data[..., _GAMMA_SLOTS] = gamma_blk
    data[..., _A_SLOTS] -= a_part
    return FormField(grid, 1, 2, data)


def _w_vectors(x: np.ndarray, grid: Grid3) -> FormField:
    """Spatial w-frame vector components x[..., a, i] as a V-valued 1-form (no w_0 part)."""
    return FormField(grid, 1, 1, np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1))


def _triad_fields(e_bar, gamma_blk, eta_bar, grid):
    """ebar as a w-frame 1-form, Gamma alone as a connection, and eta_w.

    Gamma and ebar have no w_0 part, so the w_0 sign of eta_w never enters.
    """
    sig_w = Signature(tuple(int(s) for s in eta_bar) + (1,))
    return _w_vectors(e_bar, grid), adapted_connection(gamma_blk, 0.0, grid), sig_w


def gamma_block(e_bar, eta_bar, grid, C=None, e_inv=None) -> np.ndarray:
    """Triad-compatible connection Gamma(ebar), d_Gamma ebar = 0, on pair components (..., a, 3).

    e_bar: (n,n,n,3,3) with ebar[..., a, i].  C, when given, is the
    anholonomy C[..., a, b, i] = d_a ebar_b^i - d_b ebar_a^i evaluated from a
    closed-form spec (exact derivatives); otherwise central differences of the
    grid data are used, in which case the compatibility holds to roundoff.
    e_inv, when given, is ebar^-1 (`inv3(e_bar)[0]`).

    Only the returned components are built.  With E^{ib} = [ebar^-1]^{ib} / eta_i,
    W[a, i, k] = sum_b E^{ib} C[a, b, k] and Z[p, k] = sum_c E^{jc} W[c, i, k], the
    pair p = (i, j) has Gamma[a, p] = (W[a, i, j] - W[a, j, i] + sum_k eta_k ebar[a, k] Z[p, k]) / 2.
    """
    e_inv = inv3(e_bar)[0] if e_inv is None else e_inv
    d = np.stack([deriv_axis(e_bar, c, grid) for c in range(3)], axis=-3) if C is None else C
    sites, E = np.reshape(d, (-1, 3, 3, 3)), (e_inv / eta_bar[:, None]).reshape(-1, 3, 3)
    eb, out = (e_bar * eta_bar).reshape(-1, 3, 3), np.empty((len(sites), 3, 3))
    for block in site_blocks(len(sites)):                       # site axis last in a block
        c, Eb, ebk = (np.ascontiguousarray(np.moveaxis(x[block], 0, -1)) for x in (sites, E, eb))
        if C is None:
            c = c - c.swapaxes(0, 1)                            # C[a, b, k] from d_a ebar_b^k
        W = sum(Eb[:, b, None] * c[:, None, b] for b in range(3))
        Z = sum(Eb[_SP_J, b, None] * W[b, _SP_I] for b in range(3))
        G = W[:, _SP_I, _SP_J] - W[:, _SP_J, _SP_I] + (ebk[:, None] * Z).sum(axis=2)
        out[block] = 0.5 * np.moveaxis(G, -1, 0)
    return out.reshape(e_bar.shape)


# ---------------------------------------------------------------------------
# connection split and ADM data


@dataclass
class ConnectionSplit:
    gamma_part: np.ndarray    # (..., 3, 3) Gamma^{ij} of omega_w on the spatial pairs
    a_part: np.ndarray        # (..., 3, 3) A[..., b, i] boost components
    gamma_triad: np.ndarray   # Gamma(ebar) rebuilt from the triad, laid out as gamma_part
    gamma_residual: float     # sup |gamma_part - gamma_triad|
    k_asymmetry: float        # sup |K_[ab]|


def split_connection(omega: FormField, frame: AdaptedFrame, grid: Grid3) -> ConnectionSplit:
    """Decompose a bivector-valued connection in the adapted frame.

    The frame change is a position-dependent internal gauge transformation, so
    the connection picks up the inhomogeneous term V^{-1} dV on top of the
    tensorial transform:  omega_w = Lambda^2(V^{-1}) omega + V^{-1} dV / eta_w,
    with omega_w = Gamma^{ij} w_i ^ w_j + A^i w_0 ^ w_i.  V is eta-orthonormal,
    V^T eta V = eta_w, so V^{-1} = eta_w V^T eta exactly.  The discrete V^{-1} dV
    is antisymmetric only to O(h^2), so Gamma is read on its upper triangle and
    A on its w_0 row.  Returns the blocks, Gamma(ebar) rebuilt from the triad
    with its deviation from the spatial block (O(h^2) on states built on the
    constraint surface), and the asymmetry of the extrinsic tensor candidate.
    """
    gamma_triad = gamma_block(frame.e_bar, frame.eta_bar, grid)
    eta_w = np.append(frame.eta_bar, frame.eta00)
    V = frame.frame
    Vinv = np.ascontiguousarray(np.swapaxes(V, -1, -2)) * (eta_w[:, None] * frame.eta)
    omega_w = omega.data @ np.swapaxes(compound_matrix(Vinv), -1, -2)
    # V^-1 d_a V / eta_w on the entries read only: the spatial pairs and the w_0 row
    dV = np.stack([deriv_axis(V[..., :3], a, grid) for a in range(3)], axis=-3).reshape(-1, 3, 4, 3)
    Vi, G = Vinv.reshape(-1, 4, 4), np.empty((len(dV), 3, 6))
    for block in site_blocks(len(dV)):
        v = np.ascontiguousarray(Vi[block].T)[:, _GAUGE_ROWS]   # v[k, q] = Vinv[row_q, k]
        d = np.ascontiguousarray(dV[block].T)[_GAUGE_COLS]      # d[q, k, a] = d_a V[k, col_q]
        G[block] = sum(v[k, :, None] * d[:, k] for k in range(4)).T
    G = G.reshape(omega_w.shape) / eta_w[_GAUGE_COLS]
    gamma_part = omega_w[..., _GAMMA_SLOTS] + G[..., :3]
    a_part = G[..., 3:] - omega_w[..., _A_SLOTS]
    K = extrinsic_tensor(frame, a_part)
    return ConnectionSplit(gamma_part, a_part, gamma_triad,
                           float(np.abs(gamma_part - gamma_triad).max()),
                           float(np.abs(K - np.swapaxes(K, -1, -2)).max()))


def extrinsic_tensor(frame: AdaptedFrame, a_part: np.ndarray) -> np.ndarray:
    """K_ab = ebar_(a^i A_b)^j eta_ij (symmetrized)."""
    KA = (frame.e_bar * frame.eta_bar) @ np.swapaxes(a_part, -1, -2)
    return 0.5 * (KA + np.swapaxes(KA, -1, -2))


def a_from_K(e_bar: np.ndarray, eta_bar: np.ndarray, K: np.ndarray,
             e_inv: np.ndarray | None = None) -> np.ndarray:
    """Inverse of extrinsic_tensor for symmetric K: A_b^j = eta^{jk} E^a_k K_ab.

    e_inv, when given, is E = ebar^-1 (`inv3(e_bar)[0]`).
    """
    N = inv3(e_bar)[0] if e_inv is None else e_inv      # N[..., i, a]
    return (np.swapaxes(K, -1, -2) @ np.swapaxes(N, -1, -2)) / eta_bar


@dataclass
class EHData:
    g: np.ndarray           # (..., 3, 3)
    g_inv: np.ndarray       # (..., 3, 3)
    K: np.ndarray           # (..., 3, 3)
    Pi: np.ndarray          # (..., 3, 3) momentum density
    sqrtg: np.ndarray       # (...,)
    R_scalar: np.ndarray    # (...,)
    H_density: np.ndarray   # (...,)
    M_density: np.ndarray   # (..., 3)
    eta00: float


def metric_inverse(g: np.ndarray):
    """(g^-1, sqrt|det g|) of a stack of metrics, from one `inv3`."""
    ginv, det_g = inv3(g)
    return ginv, np.sqrt(np.abs(det_g))


def momentum_density_tensor(g: np.ndarray, K: np.ndarray, ginv: np.ndarray,
                            sqrtg: np.ndarray) -> np.ndarray:
    """Pi = (sqrt g / 2)(K - g tr_g K), with g^-1 and sqrt g from `metric_inverse`."""
    trK = np.einsum("...ab,...ab->...", ginv, K)
    return 0.5 * sqrtg[..., None, None] * (K - g * trK[..., None, None])


def K_from_momentum(g: np.ndarray, Pi: np.ndarray) -> np.ndarray:
    """Inverse of momentum_density_tensor: K = (2 Pi - g tr_g Pi) / sqrt g."""
    ginv, sqrtg = metric_inverse(g)
    trPi = np.einsum("...ab,...ab->...", ginv, Pi)
    return (2.0 * Pi - g * trPi[..., None, None]) / sqrtg[..., None, None]


# ---------------------------------------------------------------------------
# Ricci scalar, two routes


def ricci_scalar_via_frame(e_bar, det_e, eta_bar, grid, gamma_blk=None) -> np.ndarray:
    """R from the frame-curvature contraction eps_{kij} ebar^k ^ F_Gamma^{ij}.

    With ordered-pair components the (dx1^dx2^dx3)-coefficient of that 3-form,
    the w_1 ^ w_2 ^ w_3 component of ebar ^ F_Gamma, equals (det ebar) R / 2;
    det_e is det ebar (`inv3(e_bar)[1]`).
    """
    if gamma_blk is None:
        gamma_blk = gamma_block(e_bar, eta_bar, grid)
    E, gamma, sig_w = _triad_fields(e_bar, gamma_blk, eta_bar, grid)
    return 2.0 * wedge_fields(E, curvature(gamma, sig_w)).data[..., 0, 0] / det_e


def christoffel(g: np.ndarray, ginv: np.ndarray, grid: Grid3) -> np.ndarray:
    """Levi-Civita symbols Gamma^c_{ab} with central differences, (..., c, a, b)."""
    dg = np.stack([deriv_axis(g, c, grid) for c in range(3)], axis=-3)  # [..., c, a, b]
    # lowered symbols d_a g_bd + d_b g_ad - d_d g_ab, laid out as [..., (a, b), d]
    low = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    lead = g.shape[:-2]
    return 0.5 * (ginv @ np.swapaxes(low.reshape(lead + (9, 3)), -1, -2)).reshape(lead + (3, 3, 3))


def ricci_scalar_via_metric(ginv: np.ndarray, Gam: np.ndarray, grid: Grid3) -> np.ndarray:
    """Standard Christoffel route: R = g^{cb} R_{cb}, all central differences.

    R_{cb} = d_a G^a_{cb} - d_c G^a_{ab} + G^a_{ad} G^d_{cb} - G^a_{cd} G^d_{ab}
    with G = `christoffel(g, ginv, grid)`.
    """
    # the two traced derivatives only: a full (..., 3, 3, 3, 3) d Gamma set the peak
    # memory of the 32^3 EH comparison
    term1 = sum(deriv_axis(Gam[..., a, :, :], a, grid) for a in range(3))
    term2 = np.stack([sum(deriv_axis(Gam[..., a, a, :], c, grid) for a in range(3))
                      for c in range(3)], axis=-2)
    lead = ginv.shape[:-2]
    trace = np.einsum("...aad->...d", Gam)[..., None, :]
    term3 = (trace @ Gam.reshape(lead + (3, 9))).reshape(lead + (3, 3))
    P = np.swapaxes(Gam, -3, -2)                    # P[..., c, a, d] = Gam[..., a, c, d]
    term4 = P.reshape(lead + (3, 9)) @ P.reshape(lead + (9, 3))
    Ric = term1 - term2 + term3 - term4
    return np.einsum("...cb,...cb->...", ginv, Ric)


# ---------------------------------------------------------------------------
# constraint densities


def hamiltonian_density(ginv, sqrtg, K, R, eta00, Lambda=0.0) -> np.ndarray:
    """H with J_{lam w0} = integral lam H; see the module docstring for factors."""
    Kmix = ginv @ K
    trK = np.einsum("...aa->...", Kmix)
    trK2 = np.einsum("...ab,...ba->...", Kmix, Kmix)
    return -0.5 * (sqrtg * R - eta00 * sqrtg * (trK**2 - trK2)) - 6.0 * Lambda * sqrtg


def momentum_density_frame(frame: AdaptedFrame, a_part, gamma_blk, grid) -> np.ndarray:
    """M_f = eps^{abc} eps_{kij} ebar_f^k ebar_a^j (d_Gamma)_b A_c^i.

    That is M_f = -[ebar_f ^ ebar ^ d_Gamma A] along w_1 ^ w_2 ^ w_3.
    """
    E, gamma, sig_w = _triad_fields(frame.e_bar, gamma_blk, frame.eta_bar, grid)
    B = wedge_fields(E, cov_deriv(_w_vectors(a_part, grid), gamma, sig_w))
    return -np.stack([wedge_fields(FormField(grid, 0, 1, E.data[..., f:f + 1, :]), B).data[..., 0, 0]
                      for f in range(3)], axis=-1)


def momentum_density_metric(ginv, Pi, Gam, grid) -> np.ndarray:
    """M_f = -2 [ d_b P^b_f - Gamma^{LC,d}_{bf} P^b_d ],  P^b_f = g^{bc} Pi_{cf},
    with Gamma = `christoffel(g, ginv, grid)`."""
    P = ginv @ Pi
    divP = sum(deriv_axis(P[..., b, :], b, grid) for b in range(3))
    lead = ginv.shape[:-2]
    # Gamma^d_{bf} P^b_d as the row (P^T)[d, b] times Gamma[(d, b), f]
    corr = np.swapaxes(P, -1, -2).reshape(lead + (1, 9)) @ Gam.reshape(lead + (9, 3))
    return -2.0 * (divP - corr[..., 0, :])


def eh_data(frame: AdaptedFrame, split: ConnectionSplit, grid: Grid3,
            Lambda: float = 0.0) -> EHData:
    g = (frame.e_bar * frame.eta_bar) @ np.swapaxes(frame.e_bar, -1, -2)
    ginv, sqrtg = metric_inverse(g)
    K = extrinsic_tensor(frame, split.a_part)
    Pi = momentum_density_tensor(g, K, ginv, sqrtg)
    # the Gram-Schmidt triad is lower triangular with diagonal signs eta_bar
    det_e = np.prod(frame.eta_bar) * sqrtg
    R = ricci_scalar_via_frame(frame.e_bar, det_e, frame.eta_bar, grid, split.gamma_triad)
    H = hamiltonian_density(ginv, sqrtg, K, R, frame.eta00, Lambda)
    M = momentum_density_frame(frame, split.a_part, split.gamma_triad, grid)
    return EHData(g=g, g_inv=ginv, K=K, Pi=Pi, sqrtg=sqrtg, R_scalar=R, H_density=H,
                  M_density=M, eta00=frame.eta00)


def triad_determinant_identity_residual(e_bar) -> float:
    """Adjugate identity |ebar| [ebar^{-1}]_j^b = 1/2 eps_{ijl} eps^{abc} ebar_c^l ebar_a^i.

    The 1/2 belongs to the fully summed epsilon contraction (both epsilon
    orders counted); checked to roundoff on random invertible triads.  The left side
    stays on LAPACK inv/det: `inv3` is the adjugate itself, so it would check itself.
    """
    N = np.linalg.inv(e_bar)
    dete = np.linalg.det(e_bar)
    lhs = dete[..., None, None] * np.swapaxes(N, -1, -2)   # [..., b, j]
    rhs = 0.5 * np.einsum("ijl,abc,...cl,...ai->...bj", EPS3, EPS3, e_bar, e_bar)
    return float(np.abs(lhs - rhs).max())


# ---------------------------------------------------------------------------
# comparison of the boundary functional against the reduced densities


def compare_pch_eh(state, lam0_polys, xi_polys) -> dict:
    """Deviations between J-functional values and the reduced EH densities.

    lam0_polys: list of TrigPoly lapse probes (smearing mu = lam0 w0);
    xi_polys: list of 3-tuples of TrigPoly shift probes (mu = xi^f e_f).
    Returns the mutual two-route residuals and, for the probes given, the
    maximal absolute deviations ("hamiltonian" and "gamma_independence" with
    lapse probes, "momentum" with shift probes); no probes, no J evaluation.
    Refuses off-shell states: the reduction formulas presuppose the residual
    constraint.
    """
    from . import constraints as cst

    if not state.on_shell:
        raise ValueError("compare_pch_eh expects an on-shell state")
    grid = state.grid
    X, Y, Z = grid.coords()
    frame = orthonormal_frame(state.e.data, state.sig)
    split = split_connection(state.omega, frame, grid)
    data = eh_data(frame, split, grid, Lambda=state.Lambda)
    h3 = grid.h**3
    # the metric routes first, before eval_J caches the state's densities: lower peak memory
    Gam = christoffel(data.g, data.g_inv, grid)
    Mlc = momentum_density_metric(data.g_inv, data.Pi, Gam, grid)
    Rm = ricci_scalar_via_metric(data.g_inv, Gam, grid)
    del Gam
    out = {
        "ricci_mutual": float(np.sqrt(((data.R_scalar - Rm) ** 2).sum() * h3)),
        "momentum_mutual": float(np.sqrt(((data.M_density - Mlc) ** 2).sum() * h3)),
        "gamma_residual": split.gamma_residual,
        "k_asymmetry": split.k_asymmetry,
    }
    for lp in lam0_polys:
        lam = lp.eval(X, Y, Z)
        mu = FormField(grid, 0, 1, (lam[..., None] * frame.frame[..., :, 3])[..., None, :])
        jinf = cst.eval_J(state, mu, gamma=np.inf)
        out["hamiltonian"] = max(out.get("hamiltonian", 0.0),
                                 abs(jinf - float((lam * data.H_density).sum() * h3)))
        out["gamma_independence"] = max(
            out.get("gamma_independence", 0.0),
            abs(cst.eval_J(state, mu, gamma=0.5) - cst.eval_J(state, mu, gamma=10.0)),
        )
    for xp in xi_polys:
        xi = np.stack([p.eval(X, Y, Z) * np.ones_like(X) for p in xp], axis=-1)
        mu = FormField(grid, 0, 1,
                       np.einsum("...a,...ai->...i", xi, state.e.data)[..., None, :])
        jxi = cst.eval_J(state, mu, gamma=np.inf)
        out["momentum"] = max(out.get("momentum", 0.0),
                              abs(jxi - float((xi * data.M_density).sum() * h3)))
    return out


def exact_divergence_integral(grid: Grid3, fields_u: np.ndarray) -> float:
    """Discrete integral of the central-difference divergence over the torus.

    For any per-site data X[..., a] the quantity sum_a d_a X_a integrates to
    zero exactly (the periodic telescoping that kills the gamma-exact corner
    term on a closed boundary).
    """
    div = sum(deriv_axis(fields_u[..., a], a, grid) for a in range(3))
    return float(div.sum() * grid.h**3)
