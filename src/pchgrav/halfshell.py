"""Boundary structure of the torsion-constrained (half-shell) variant.

Fields are triples (e, omega, t) with t a Lagrange multiplier for the torsion
constraint.  The projection to boundary data

    t_bold = t + T_gamma[omega_ref - omega] ^ e,      e_bold = e

is invariant under the presymplectic kernel flow (X_t = X_{T_gamma omega} ^ e,
X_e = 0), and the chart (e_bold, t_bold) carries the symplectic form
int Tr[dt ^ de].  The inverse identification t_bold -> T_gamma[omega] ^ e
recovers the reduced-connection class of the plain boundary theory and is a
local symplectomorphism.

The projected Euler-Lagrange locus {t_bold = 0, e ^ T_gamma[F_ref] = 0} (with
Lambda = 0) is isotropic; on a tiny grid the global rank computation shows its
symplectic orthogonal is strictly larger than its tangent space (not
Lagrangian), while {t_bold = 0} alone is exactly Lagrangian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fiber, wedgemaps
from .fiber import Signature
from .grid import (
    Coframe,
    FormField,
    Grid3,
    curvature,
    integrate,
    t_gamma_field,
    tr_quad_field,
    wedge_fields,
)

# ---------------------------------------------------------------------------
# state and projection


@dataclass
class HalfShellState:
    e: Coframe
    omega: FormField       # boundary connection
    t: FormField           # Omega^2(L^3 V) multiplier
    omega_ref: FormField   # reference connection (compatible representative)
    gamma: float

    @property
    def grid(self) -> Grid3:
        return self.e.grid

    @property
    def sig(self) -> Signature:
        return self.e.sig


def hs_project(state: HalfShellState):
    """(t_bold, e_bold) with t_bold = t + T_gamma[omega_ref - omega] ^ e."""
    diff = t_gamma_field(state.omega_ref - state.omega, state.gamma, state.sig)
    t_bold = state.t + wedge_fields(diff, state.e.field)
    return t_bold, state.e.field


def kernel_flow(state: HalfShellState, sigma: FormField) -> HalfShellState:
    """Flow along the presymplectic kernel: omega += sigma, t += T[sigma] ^ e."""
    tsig = t_gamma_field(sigma, state.gamma, state.sig)
    return HalfShellState(
        e=state.e,
        omega=state.omega + sigma,
        t=state.t + wedge_fields(tsig, state.e.field),
        omega_ref=state.omega_ref,
        gamma=state.gamma,
    )


# ---------------------------------------------------------------------------
# symplectomorphism to the plain boundary chart


def phi_symplecto(t_bold: FormField, e: Coframe, gamma: float):
    """Recover the reduced-connection representative from t_bold.

    Solves T_gamma[omega] ^ e = t_bold for the complement part of
    T_gamma[omega] by least squares and returns the connection representative
    (kernel part zero in the twisted variable).  Round-trips with hs_project
    on the class level.
    """
    sig = e.sig
    M = wedgemaps.wedge_matrix(e.data, (1, 2))
    Mpinv = np.linalg.pinv(M)
    rvec = t_bold.data.reshape(t_bold.data.shape[:3] + (-1,))
    x = np.einsum("...ij,...j->...i", Mpinv, rvec)
    sigma = FormField(e.grid, 1, 2, x.reshape(x.shape[:-1] + (3, 6)))
    Tinv = np.linalg.inv(fiber.t_gamma_endo_matrix(gamma, sig))
    omega = FormField(e.grid, 1, 2, sigma.data @ Tinv.T)
    residual = float(np.abs(np.einsum("...ij,...j->...i", M, x) - rvec).max())
    return omega, residual


def pairing_hs(dt: FormField, de: FormField) -> float:
    """int Tr[dt ^ de] over the torus."""
    return integrate(tr_quad_field(wedge_fields(dt, de)))


def symplectic_form_hs(X, Y) -> float:
    """varpi_HS(X, Y) = int Tr[X_t ^ Y_e] - int Tr[Y_t ^ X_e]."""
    dt_x, de_x = X
    dt_y, de_y = Y
    return pairing_hs(dt_x, de_y) - pairing_hs(dt_y, de_x)


# ---------------------------------------------------------------------------
# locus diagnosis on a tiny grid


@dataclass
class IsotropyReport:
    dim_tangent: int
    dim_orthogonal: int
    max_pairing: float
    lagrangian: bool
    locus: str


def _locus_equation_matrix(omega_ref: FormField, gamma: float, sig: Signature) -> np.ndarray:
    """Per-site matrix of the linear map e -> e ^ T_gamma[F_ref], (..., 4, 12)."""
    TF = t_gamma_field(curvature(omega_ref, sig), gamma, sig)
    data = TF.data.reshape(TF.data.shape[:3] + (18,))
    return fiber.bilinear_matrix(fiber.product_tensor(1, 2, 1, 2), data)


def sample_locus_state(grid: Grid3, sig: Signature, gamma: float, rng) -> HalfShellState:
    """A point of the projected Euler-Lagrange locus with Lambda = 0.

    With a fixed constant reference connection the curvature is pure algebra,
    and e |-> e ^ T_gamma[F_ref] is linear per site: sample e by projecting a
    per-site Gaussian 12-vector onto its kernel with the (basis-independent)
    orthogonal projector, rejecting degenerate draws.
    """
    n = grid.n
    ref = np.zeros((n, n, n, 3, 6))
    ref[..., 0, :] = np.array([0.8, -0.3, 0.2, 0.4, -0.1, 0.5])
    ref[..., 1, :] = np.array([-0.2, 0.6, 0.1, -0.5, 0.3, 0.2])
    ref[..., 2, :] = np.array([0.1, 0.2, -0.7, 0.3, 0.4, -0.2])
    omega_ref = FormField(grid, 1, 2, ref)
    # per-site kernel of e -> e ^ TF
    J = _locus_equation_matrix(omega_ref, gamma, sig)
    _, _, vh = np.linalg.svd(J)
    proj = np.swapaxes(vh[..., 4:, :], -1, -2) @ vh[..., 4:, :]   # (..., 12, 12)
    e_data = np.zeros((n, n, n, 3, 4))
    bad = np.ones((n, n, n), dtype=bool)
    for attempt in range(128):
        g = rng.normal(size=proj.shape[:-1])
        cand = np.einsum("...ij,...j->...i", proj, g).reshape(n, n, n, 3, 4)
        e_data = np.where(bad[..., None, None], cand, e_data)
        sv = np.linalg.svd(e_data, compute_uv=False)
        bad = sv[..., 2] < 0.15 * sv[..., 0]
        if not bad.any():
            scale = np.cbrt(np.abs(np.linalg.det(e_data[..., :3])).mean())
            e_data = e_data / max(scale, 1e-6)
            break
    else:
        raise RuntimeError("could not sample a nondegenerate locus coframe")
    e = Coframe(FormField(grid, 1, 1, e_data), sig)
    t = FormField.zeros(grid, 2, 3)
    return HalfShellState(e, omega_ref.copy(), t, omega_ref, gamma)


def isotropy_diagnosis(state: HalfShellState, full_locus: bool = True) -> IsotropyReport:
    """Rank-based isotropy/Lagrangian diagnosis of the projected locus.

    The tangent space of {t_bold = 0 (and e ^ T_gamma F_ref = 0)} is computed
    per site from the Jacobian kernel with a singular-value gap policy (gap at
    least 1e6); the symplectic pairing int Tr[dt ^ de] is evaluated on 200
    seeded random tangent pairs (isotropy) and the dimension of the symplectic
    orthogonal is compared against the tangent dimension (Lagrangian or not).
    Global dense ranks: use tiny grids only.
    """
    grid = state.grid
    n = grid.n
    nsites = n**3
    dim_e = nsites * 12

    if full_locus:
        Jac = _locus_equation_matrix(state.omega_ref, state.gamma, state.sig)
        Jflat = Jac.reshape(nsites, 4, 12)
        e_blocks = []
        for s in range(nsites):
            _, sv, vh = np.linalg.svd(Jflat[s])
            rank = int((sv > 1e-10 * max(sv[0], 1e-300)).sum())
            if 0 < rank < 4:
                g = sv[rank - 1] / max(sv[rank], 1e-300)
                if g < 1e6:
                    site = tuple(int(i) for i in np.unravel_index(s, (n, n, n)))
                    raise wedgemaps.RankDecisionError(
                        f"rank ambiguity at site {site}: gap {g:.2e}")
            e_blocks.append(vh[rank:].T)
        dim_tan = sum(b.shape[1] for b in e_blocks)
    else:
        e_blocks = [np.eye(12) for _ in range(nsites)]
        dim_tan = dim_e

    # numeric isotropy check on sampled tangent pairs (X_t = 0 on the locus)
    rng = np.random.Generator(np.random.Philox(key=7))
    sites = [s for s, b in enumerate(e_blocks) if b.shape[1]]
    max_pair = 0.0
    for _ in range(200):
        sx, sy = rng.choice(sites), rng.choice(sites)
        bx, by = e_blocks[sx], e_blocks[sy]
        Xe = np.zeros((nsites, 12))
        Ye = np.zeros((nsites, 12))
        Xe[sx] = bx @ rng.normal(size=bx.shape[1])
        Ye[sy] = by @ rng.normal(size=by.shape[1])
        X = (FormField.zeros(grid, 2, 3), FormField(grid, 1, 1, Xe.reshape(n, n, n, 3, 4)))
        Y = (FormField.zeros(grid, 2, 3), FormField(grid, 1, 1, Ye.reshape(n, n, n, 3, 4)))
        max_pair = max(max_pair, abs(symplectic_form_hs(X, Y)))

    # orthogonal: Y_t must annihilate every tangent e-block under the pairing
    PG = wedgemaps.dual_pairing_matrix(1, 1)   # Omega^2(L^3) x Omega^1(V)
    dim_orth = dim_e                           # Y_e is unconstrained
    for b in e_blocks:
        A = PG @ b
        dim_orth += 12 - np.linalg.matrix_rank(A, tol=1e-10)
    return IsotropyReport(
        dim_tangent=dim_tan,
        dim_orthogonal=dim_orth,
        max_pairing=max_pair,
        lagrangian=(dim_orth == dim_tan),
        locus="full" if full_locus else "t_bold=0",
    )


# ---------------------------------------------------------------------------
# locus inequivalence


def locus_residuals(e: Coframe, omega: FormField, omega_ref: FormField, gamma: float):
    """Normalized defining residuals of the two projected loci at (e, omega).

    Half-shell pullback: T_gamma[omega] ^ e = 0.  Plain boundary locus: omega
    equals the reference class, i.e. the complement part of T_gamma[omega -
    omega_ref] vanishes.  Both are normalized by the magnitude of the tested
    object so "far from the locus" reads as O(1).
    """
    sig = e.sig
    M = wedgemaps.wedge_matrix(e.data, (1, 2))
    tw = t_gamma_field(omega, gamma, sig)
    tvec = tw.data.reshape(tw.data.shape[:3] + (-1,))
    hs = np.einsum("...ij,...j->...i", M, tvec)
    hs_res = float(np.abs(hs).max() / max(np.abs(M).max() * np.abs(tvec).max(), 1e-300))

    diff = t_gamma_field(omega - omega_ref, gamma, sig)
    dvec = diff.data.reshape(diff.data.shape[:3] + (-1,))
    img = np.einsum("...ij,...j->...i", M, dvec)   # zero iff diff is kernel-valued
    pch_res = float(np.abs(img).max() / max(np.abs(M).max() * np.abs(dvec).max(), 1e-300))
    return hs_res, pch_res
