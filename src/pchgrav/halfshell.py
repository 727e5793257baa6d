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

import functools
from dataclasses import dataclass

import numpy as np

from . import constraints, fiber, reduction, wedgemaps
from .fiber import Signature
from .grid import (
    Coframe,
    FormField,
    Grid3,
    curvature,
    integrate,
    t_gamma_field,
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

    @functools.cached_property
    def frame(self) -> reduction.PhiFrame:
        """The e-adapted frame of the coframe, built on first use."""
        return reduction.phi_frame(self.e.data, self.sig)


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


def phi_symplecto(state: HalfShellState, t_bold: FormField):
    """Recover the reduced-connection representative from t_bold at the state's e and gamma.

    Solves T_gamma[omega] ^ e = t_bold for the complement part of
    T_gamma[omega] with the state's frame's template solve
    (`PhiFrame.solve_complement_12`) and returns the connection representative
    (kernel part zero in the twisted variable) with the max-norm residual of
    the wedge equation.  Round-trips with hs_project on the class level.
    `constraints.DegeneratePairingError` where T_gamma is singular or worse
    conditioned than `constraints.PAIRING_COND_LIMIT` (Euclidean gamma near +-1).
    """
    Tinv = constraints.t_gamma_inverse(state.gamma, state.sig)
    sigma = state.frame.solve_complement_12(t_bold)
    omega = FormField(state.grid, 1, 2, sigma.data @ Tinv.T)
    return omega, (wedge_fields(sigma, state.e.field) - t_bold).sup_norm()


def symplectic_form_hs(X, Y) -> float:
    """varpi_HS(X, Y) = int Tr[X_t ^ Y_e] - int Tr[Y_t ^ X_e] for X = (X_t, X_e)."""
    dt_x, de_x = X
    dt_y, de_y = Y
    return integrate(wedge_fields(dt_x, de_y)) - integrate(wedge_fields(dt_y, de_x))


# ---------------------------------------------------------------------------
# locus diagnosis on a tiny grid


@dataclass
class IsotropyReport:
    dim_tangent: int
    dim_orthogonal: int
    lagrangian: bool
    locus: str


def _locus_equation_matrix(omega_ref: FormField, gamma: float, sig: Signature) -> np.ndarray:
    """Per-site matrix of the linear map e -> e ^ T_gamma[F_ref], (..., 4, 12)."""
    TF = t_gamma_field(curvature(omega_ref, sig), gamma, sig)
    data = TF.data.reshape(TF.data.shape[:3] + (18,))
    return fiber.bilinear_matrix(fiber.product_tensor(1, 2, 1, 2), data)


def _locus_kernel(omega_ref: FormField, gamma: float, sig: Signature):
    """(basis, rank): the kernel of e -> e ^ T_gamma[F_ref] at every site.

    One stacked SVD of the locus Jacobian; the rank is `wedgemaps.decide_rank`'s
    (a RankDecisionError names an ambiguous site).  basis (..., 12, 12) holds
    the orthonormal right singular vectors of the kernel as columns and zero
    columns in place of the dropped ones, so sites of any rank stack.
    """
    _, sv, vh = np.linalg.svd(_locus_equation_matrix(omega_ref, gamma, sig))
    rank, _ = wedgemaps.decide_rank(sv, "the locus Jacobian e -> e ^ T_gamma F_ref")
    keep = np.arange(vh.shape[-1]) >= rank[..., None]
    return np.swapaxes(vh, -1, -2) * keep[..., None, :], rank


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
    kern, _ = _locus_kernel(omega_ref, gamma, sig)
    proj = kern @ np.swapaxes(kern, -1, -2)                      # (..., 12, 12)
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
    """Rank-based Lagrangian diagnosis of the projected locus.

    The tangent space of {t_bold = 0 (and e ^ T_gamma F_ref = 0)} has delta
    t = 0 and delta e in the per-site kernel of the locus Jacobian
    (`_locus_kernel`).  In the coordinates (delta t, delta e) of all sites,
    varpi_HS is block-diagonal with the per-site block h^3 [[0, PG], [-PG^T, 0]],
    PG the Tr pairing of Omega^2(L^3) with Omega^1(V).  With the tangent basis
    as the columns of B, B^T Omega is block-diagonal too, its site block
    -h^3 [kern^T PG^T, 0], so the symplectic orthogonal has dimension
    dim - sum of the per-site ranks of kern^T PG^T, each by
    `wedgemaps.decide_rank` (Lagrangian or not).

    The delta t rows of B are zero, so B^T Omega B vanishes identically: the
    locus is isotropic whatever the state, and only the dimensions decide.  A
    pairing that can fail needs tangents with delta t != 0, such as the locus
    in the unprojected (e, omega, t) chart.
    """
    nsites = state.grid.n**3
    if full_locus:
        kern, rank = _locus_kernel(state.omega_ref, state.gamma, state.sig)
        kern, dim_tan = kern.reshape(nsites, 12, 12), int((12 - rank).sum())
    else:
        kern, dim_tan = np.broadcast_to(np.eye(12), (nsites, 12, 12)), nsites * 12
    PG = wedgemaps.dual_pairing_matrix(1, 1)        # Omega^2(L^3) x Omega^1(V)
    orth_rank, _ = wedgemaps.decide_rank(
        np.linalg.svd(np.swapaxes(kern, -1, -2) @ PG.T, compute_uv=False),
        "the varpi_HS pairing of the locus tangent")
    dim_orth = nsites * 24 - int(orth_rank.sum())
    return IsotropyReport(
        dim_tangent=dim_tan,
        dim_orthogonal=dim_orth,
        lagrangian=(dim_orth == dim_tan),
        locus="full" if full_locus else "t_bold=0",
    )


# ---------------------------------------------------------------------------
# locus inequivalence


def _rel_wedge_e(x: FormField, e: Coframe) -> float:
    """|x ^ e|max normalized by |x|max |e|max (|e|max is the largest entry of the
    wedge matrix of e)."""
    return wedge_fields(x, e.field).sup_norm() / max(np.abs(e.data).max() * x.sup_norm(),
                                                     1e-300)


def locus_residuals(e: Coframe, omega: FormField, omega_ref: FormField, gamma: float):
    """Normalized defining residuals of the two projected loci at (e, omega).

    Half-shell pullback: T_gamma[omega] ^ e = 0.  Plain boundary locus: omega
    equals the reference class, i.e. the complement part of T_gamma[omega -
    omega_ref] vanishes, which is T_gamma[omega - omega_ref] ^ e = 0.  Both
    are normalized by the magnitude of the tested object so "far from the
    locus" reads as O(1).
    """
    return (_rel_wedge_e(t_gamma_field(omega, gamma, e.sig), e),
            _rel_wedge_e(t_gamma_field(omega - omega_ref, gamma, e.sig), e))
