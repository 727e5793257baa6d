"""Constraint functionals on the structural slice and their bracket algebra.

States are pairs (e, omega~) with the structural part of the torsion killed:
p d_omega~ e = 0, certified by the kernel-correction solve.  On such states

    L_alpha = integral Tr[T_gamma alpha ^ e ^ d_omega~ e]
            = integral Tr[alpha ^ T_gamma(e ^ d_omega~ e)]
    J_mu    = integral Tr[T_gamma(mu ^ e) ^ F_omega~ + Lambda mu ^ e^3]
            = integral Tr[mu ^ (e ^ F + gamma^-1 e ^ star F + Lambda e^3)]

since T_gamma = 1 + gamma^-1 star is symmetric under the trace pairing
(a ^ star b = <a, b> vol) and the wedge is associative.  A state builds these
densities (and F, e ^ e, the torsion) once, on first use, so each smearing
costs one pointwise wedge.  Functionals are always evaluated through
re-certification, so they are invariant under kernel-valued shifts of the
connection, and finite-difference directional derivatives stay on the slice.

Hamiltonian vector fields solve the defining wedge equations

    L:  X_e = [alpha, e],        e ^ X_omega = -e ^ d_omega alpha,
    J:  e ^ X_e      = -d_omega mu ^ e + (p+ + B+)(mu ^ p' d_omega e),
        e ^ p'X_omega = mu ^ (F + 3 Lambda e^2) + A+(mu ^ p' d_omega e),

with the kernel part of X_omega fixed by the constrained-variation relation
p X_omega = A(X_e) + B(p' X_omega).  The projector derivative inside A is
exact, d_e p = [block3(dP P^-1), p] for the moving e-adapted frame P; the
adjoints are taken with respect to the twisted integral pairing (matrix
transposes against its Gram, with the discrete transpose of the covariant
derivative for the nonlocal part).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import fiber, reduction, wedgemaps
from .fiber import Signature
from .grid import (
    Coframe,
    FormField,
    Grid3,
    action_wedge,
    cov_deriv,
    curvature,
    deriv_axis,
    integrate,
    t_gamma_field,
    tr_quad_field,
    wedge_fields,
)
from .reduction import K12HAT, K21HAT, OmegaTildeResult, omega_tilde
from .wedgemaps import block_diag, compound_matrix

# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class BoundaryState:
    e: Coframe
    omega: FormField            # certified structural representative
    gamma: float
    Lambda: float
    ot: OmegaTildeResult
    on_shell: bool = False      # built on the residual-constraint surface
    _fields: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def grid(self) -> Grid3:
        return self.e.grid

    @property
    def sig(self) -> Signature:
        return self.e.sig

    def _once(self, key: str, build) -> FormField:
        if key not in self._fields:
            self._fields[key] = build()
        return self._fields[key]

    @property
    def F(self) -> FormField:
        return self._once("F", lambda: curvature(self.omega, self.sig))

    @property
    def ee(self) -> FormField:
        return self._once("ee", lambda: wedge_fields(self.e.field, self.e.field))

    def j_density(self, gamma: float) -> FormField:
        """e ^ T_gamma F + Lambda e^3, so that J_mu = integral Tr[mu ^ density]."""
        e = self.e.field
        D = self._once("eF", lambda: wedge_fields(e, self.F))
        if not np.isinf(gamma):
            D = D + self._once("e*F", lambda: wedge_fields(e, FormField(
                self.grid, 2, 2, fiber.hodge_star2(self.F.data, self.sig)))) * (1.0 / gamma)
        if self.Lambda != 0.0:
            D = D + self._once("e3", lambda: wedge_fields(e, self.ee)) * self.Lambda
        return D

    @property
    def l_density(self) -> FormField:
        """T_gamma(e ^ d_omega e), so that L_alpha = integral Tr[alpha ^ density]."""
        return self._once("L", lambda: t_gamma_field(
            wedge_fields(self.e.field, torsion(self)), self.gamma, self.sig))


def certify(e: Coframe, omega: FormField, gamma: float, Lambda: float = 0.0,
            on_shell: bool = False) -> BoundaryState:
    """Solve for the structural representative and package the state."""
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    ot = omega_tilde(e, omega)
    return BoundaryState(e, ot.omega_tilde, gamma, Lambda, ot, on_shell)


def shifted_state(state: BoundaryState, t: float, de: FormField, domega: FormField) -> BoundaryState:
    e = Coframe(state.e.field + t * de, state.sig)
    return certify(e, state.omega + t * domega, state.gamma, state.Lambda)


# ---------------------------------------------------------------------------
# functionals


def smear_constant(grid: Grid3, grade: int, comps) -> FormField:
    data = np.zeros((grid.n,) * 3 + (1, fiber.GRADE_DIMS[grade]))
    data[..., 0, :] = np.asarray(comps, dtype=float)
    return FormField(grid, 0, grade, data)


def torsion(state: BoundaryState) -> FormField:
    return state._once("torsion", lambda: cov_deriv(state.e.field, state.omega, state.sig))


def eval_L(state: BoundaryState, alpha: FormField) -> float:
    """L_alpha = integral Tr[alpha ^ T_gamma(e ^ d_omega e)] (T_gamma moved across the
    symmetric trace pairing); linear in alpha, O(h^2) on on-shell states."""
    if alpha.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    return integrate(tr_quad_field(wedge_fields(alpha, state.l_density)))


def eval_J(state: BoundaryState, mu: FormField, gamma: float | None = None) -> float:
    """J_mu = integral Tr[T_gamma(mu ^ e) ^ F + Lambda mu ^ e^3] as mu wedged with the
    per-state density e ^ F + gamma^-1 e ^ star F + Lambda e^3 (any gamma)."""
    if mu.grid.n != state.grid.n:
        raise ValueError("grid mismatch")
    g = state.gamma if gamma is None else gamma
    if g == 0:
        raise ValueError("gamma must be nonzero")
    return integrate(tr_quad_field(wedge_fields(mu, state.j_density(g))))


def eval_J_infinity(state: BoundaryState, mu: FormField) -> float:
    """J_mu in the gamma -> infinity normalization (untwisted pairing)."""
    return eval_J(state, mu, gamma=np.inf)


# ---------------------------------------------------------------------------
# on-shell construction from a triad and a symmetric extrinsic tensor


@dataclass(frozen=True)
class TriadSpec:
    """Closed-form triad ebar_a^i and symmetric K_ab as trig polynomials."""

    ebar: tuple  # 3x3 nested tuple of TrigPoly
    K: tuple     # 3x3 nested tuple of TrigPoly, symmetric

    def sample(self, grid: Grid3):
        X, Y, Z = grid.coords()
        eb = np.zeros((grid.n,) * 3 + (3, 3))
        kk = np.zeros((grid.n,) * 3 + (3, 3))
        for a in range(3):
            for i in range(3):
                eb[..., a, i] = self.ebar[a][i].eval(X, Y, Z)
                kk[..., a, i] = self.K[a][i].eval(X, Y, Z)
        return eb, kk

    def anholonomy(self, grid: Grid3) -> np.ndarray:
        """C[..., a, b, i] = d_a ebar_b^i - d_b ebar_a^i from exact derivatives."""
        X, Y, Z = grid.coords()
        C = np.zeros((grid.n,) * 3 + (3, 3, 3))
        for a in range(3):
            for b in range(3):
                for i in range(3):
                    C[..., a, b, i] = (
                        self.ebar[b][i].deriv(a).eval(X, Y, Z)
                        - self.ebar[a][i].deriv(b).eval(X, Y, Z)
                    )
        return C

    def validate_symmetric(self):
        for a in range(3):
            for b in range(a + 1, 3):
                if sorted(self.K[a][b].terms) != sorted(self.K[b][a].terms):
                    raise ValueError("K spec must be symmetric")


def make_on_shell(spec: TriadSpec, grid: Grid3, gamma: float, sig: Signature,
                  Lambda: float = 0.0, timelike: bool = False) -> BoundaryState:
    """State on the residual-constraint surface, built from Gamma(ebar) + A(K).

    The triad spans the first three internal directions (third leg along u_4
    for a time-like boundary span); the compatible block Gamma is evaluated
    with the exact spec derivatives, so its continuum torsion vanishes
    identically and every discrete residual is honest O(h^2) discretization
    error.  The returned state is re-certified, making the structural part
    zero to solver precision while leaving e ^ d_omega e untouched.
    """
    from . import ehdata

    spec.validate_symmetric()
    eb, K = spec.sample(grid)
    if timelike:
        if sig.s == 1:
            raise ValueError("time-like boundary span needs the Lorentzian signature")
        order, eta_bar = [0, 1, 3, 2], np.array([1.0, 1.0, -1.0])
    else:
        order, eta_bar = [0, 1, 2, 3], np.array([1.0, 1.0, 1.0])

    gamma_blk = ehdata.gamma_block(eb, eta_bar, grid, C=spec.anholonomy(grid))
    A = ehdata.a_from_K(eb, eta_bar, K)
    # the w-frame (w_1, w_2, w_3, w_0) is the u-frame permuted by P
    P = np.eye(4)[:, order]
    e = Coframe(FormField(grid, 1, 1, eb @ P[:, :3].T), sig)
    omega_u = ehdata.adapted_connection(gamma_blk, A, grid).data @ compound_matrix(P, 2).T
    return certify(e, FormField(grid, 1, 2, omega_u), gamma, Lambda, on_shell=True)


# ---------------------------------------------------------------------------
# per-site projector fields

_P12_E = K12HAT @ K12HAT.T
_P21_E = K21HAT @ K21HAT.T
#: in the e-adapted frame the coframe is (1 | 0) and the wedge maps are integer templates
_W11_TEMPLATE = wedgemaps.wedge_matrix(np.eye(3, 4), (1, 1))
_W12_TEMPLATE = wedgemaps.wedge_matrix(np.eye(3, 4), (1, 2))
_U11 = np.linalg.svd(_W11_TEMPLATE)[0][:, :12]
_P11DAG_E = _U11 @ _U11.T
_W11_PINV_E = np.linalg.pinv(_W11_TEMPLATE)                          # (12, 18)
#: template inverse of W^{(1,2)} onto the complement of its kernel, (1 - P12_E) W12_E^+
_W12_PINV_E = (np.eye(18) - _P12_E) @ np.linalg.pinv(_W12_TEMPLATE)  # (18, 12)
#: Lambda^3(P^-1)[I, J] = (-1)^(m(I) + m(J)) P[m(J), m(I)] / det P, with m(I) the
#: index missing from the triple I; the triples are ordered so that m(I) = 3 - I,
#: which makes the sign (-1)^(I + J)
_L3_SIGNS = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))


@dataclass
class ProjectorPack:
    """Batched projector family for the wedge-map splits at every site."""

    frames: np.ndarray
    frames_inv: np.ndarray
    frames_det: np.ndarray
    p12: np.ndarray        # (..., 18, 18) kernel projector, domain of W^{(1,2)}
    p12_prime: np.ndarray
    p21: np.ndarray        # (..., 12, 12) kernel projector, domain of W^{(2,1)}
    p11_dag: np.ndarray    # (..., 18, 18) projector onto im W^{(1,1)}
    phi: np.ndarray        # (..., 6, 6)
    S12: np.ndarray        # e-frame -> u-frame transform on Omega^*(L^2) coeffs
    S12_inv: np.ndarray
    S2v_inv: np.ndarray    # u-frame -> e-frame on Omega^2(V) coeffs


def projector_pack(e: Coframe) -> ProjectorPack:
    pf = reduction.phi_frame(e.data, e.sig)
    S12 = block_diag(pf.L2P, 3)
    S12_inv = block_diag(compound_matrix(pf.frames_inv, 2), 3)   # (Lambda^2 P)^-1 = Lambda^2(P^-1)
    S2v = block_diag(pf.frames, 3)
    S2v_inv = block_diag(pf.frames_inv, 3)
    return ProjectorPack(
        pf.frames,
        pf.frames_inv,
        pf.frames_det,
        p12=S12 @ _P12_E @ S12_inv,
        p12_prime=S12 @ (np.eye(18) - _P12_E) @ S12_inv,
        p21=S2v @ _P21_E @ S2v_inv,
        p11_dag=S12 @ _P11DAG_E @ S12_inv,
        phi=pf.phi,
        S12=S12,
        S12_inv=S12_inv,
        S2v_inv=S2v_inv,
    )


def _flat(f: FormField) -> np.ndarray:
    return f.data.reshape(f.data.shape[:3] + (-1,))


def _unflat(vec: np.ndarray, grid: Grid3, p: int, grade: int) -> FormField:
    from .grid import NCOMP

    shape = vec.shape[:-1] + (NCOMP[p], fiber.GRADE_DIMS[grade])
    return FormField(grid, p, grade, vec.reshape(shape))


def _apply_sitewise(mat: np.ndarray, f: FormField) -> FormField:
    out = np.einsum("...ij,...j->...i", mat, _flat(f))
    return _unflat(out, f.grid, f.p, f.grade)


def act_field(alpha: FormField, f: FormField, sig: Signature) -> FormField:
    """Pointwise so(eta) action of a 0-form bivector on any field."""
    if alpha.p != 0 or alpha.grade != 2:
        raise ValueError("smearing must be a 0-form bivector")
    return action_wedge(alpha, f, sig)


# ---------------------------------------------------------------------------
# constrained-variation maps A, B and their adjoints


def kernel_coords_21(f: FormField, pack: ProjectorPack) -> np.ndarray:
    """Coordinates of the (2,1)-kernel projection in the orthonormal template."""
    return np.einsum("...ij,...j->...i", pack.S2v_inv, _flat(f)) @ K21HAT


def _frame_velocity(de: np.ndarray, pack: ProjectorPack, sig: Signature) -> np.ndarray:
    """dP P^-1 for the frame P = [e^T | n] moving along de: dP = [de^T | dn] with
    eta(e_a, dn) = -eta(de_a, n) =: r_a and eta(n, dn) = 0, i.e. dn = eta P^-T r."""
    r = -np.einsum("...ai,i,...i->...a", de, sig.eta, pack.frames[..., :, 3])
    dn = sig.eta * np.einsum("...ai,...a->...i", pack.frames_inv[..., :3, :], r)
    dP = np.concatenate([np.swapaxes(de, -1, -2), dn[..., :, None]], axis=-1)
    return dP @ pack.frames_inv


def a_map(state: BoundaryState, de: FormField, pack: ProjectorPack) -> np.ndarray:
    """A(de) in kernel coordinates:  phi A(de) = -p[(d_e p)(d_w e) + p d_w de].

    The projector derivative is exact: d_e p21 = [X, p21] with
    X = block3(dP P^-1) the velocity of the e-adapted frame along de.
    """
    X = block_diag(_frame_velocity(de.data, pack, state.sig), 3)
    dp = X @ pack.p21 - pack.p21 @ X
    rhs = (np.einsum("...ij,...j->...i", dp, _flat(torsion(state)))
           + np.einsum("...ij,...j->...i", pack.p21, _flat(cov_deriv(de, state.omega, state.sig))))
    z = np.einsum("...ij,...j->...i", pack.S2v_inv, rhs) @ K21HAT
    return -np.linalg.solve(pack.phi, z[..., None])[..., 0]


def b_map(state: BoundaryState, c: FormField, pack: ProjectorPack) -> np.ndarray:
    """B(c) = -phi^{-1} p [c, e] in kernel coordinates, pointwise."""
    z = kernel_coords_21(reduction.bracket_with_e(c, state.e), pack)
    return -np.linalg.solve(pack.phi, z[..., None])[..., 0]


def kernel_field_from_coords(coords: np.ndarray, pack: ProjectorPack, grid: Grid3) -> FormField:
    v_u = np.einsum("...ij,...j->...i", pack.S12, coords @ K12HAT.T)
    return _unflat(v_u, grid, 1, 2)


def _pairing_gram_22_12(gamma: float, sig: Signature) -> np.ndarray:
    """Gram of the twisted pairing int T^[Z ^ Y], Z in Omega^2(L^2), Y in Omega^1(L^2)."""
    T = fiber.t_gamma_endo_matrix(gamma, sig)
    return np.kron(np.eye(3), T.T) @ wedgemaps.dual_pairing_matrix(1, 2)


def _pairing_gram_23_11(sig: Signature) -> np.ndarray:
    """Gram of int Tr[Z ^ Y], Z in Omega^2(L^3), Y in Omega^1(V)."""
    return wedgemaps.dual_pairing_matrix(1, 1)


def b_matrix_u(state: BoundaryState, pack: ProjectorPack) -> np.ndarray:
    """Matrix of y -> (B o p')(y) as a kernel-valued field, u-coords, per site."""
    BT = reduction.bracket_matrix(state.e.data, state.sig)        # (..., 12, 18)
    z = K21HAT.T @ (pack.S2v_inv @ (pack.p21 @ BT))               # (..., 6, 18)
    coeff = -np.linalg.solve(pack.phi, z)                         # kernel coords
    return (pack.S12 @ (K12HAT @ coeff)) @ pack.p12_prime


class DegeneratePairingError(ValueError):
    """The twisted pairing is degenerate: T_gamma = 1 + gamma^-1 star is singular."""


@functools.lru_cache(maxsize=16)
def _pairing_gram_inv_22_12(gamma: float, sig: Signature) -> np.ndarray:
    """Inverse of the transposed twisted-pairing Gram, once per (gamma, signature).

    With star^2 = 1 (the Euclidean signature) T_gamma is singular at gamma = +-1.
    """
    try:
        inv = np.linalg.inv(_pairing_gram_22_12(gamma, sig).T)
    except np.linalg.LinAlgError:
        raise DegeneratePairingError(
            f"twisted pairing degenerate for the {sig.name} signature at gamma = {gamma}: "
            f"T_gamma = 1 + gamma^-1 star is singular") from None
    inv.flags.writeable = False
    return inv


def b_dagger(state: BoundaryState, Q: FormField, pack: ProjectorPack) -> FormField:
    """Adjoint of B o p' under the twisted pairing; lands in im W^{(1,1)}.

    DegeneratePairingError where the pairing is degenerate (T_gamma singular).
    """
    PB = _pairing_gram_22_12(state.gamma, state.sig)
    PB_invT = _pairing_gram_inv_22_12(state.gamma, state.sig)
    Bp = b_matrix_u(state, pack)
    rhs = np.einsum("...ji,...j->...i", Bp, _flat(Q) @ PB)
    out = rhs @ PB_invT.T
    return _unflat(out, state.grid, 2, 2)


def _cov_deriv_transpose(Y: FormField, omega: FormField, sig: Signature) -> FormField:
    """Discrete transpose of X -> cov_deriv(X, omega) on Omega^1(V) -> Omega^2(V).

    Transpose with respect to the plain coefficient dot product over sites;
    central differences transpose to their negatives on the periodic grid, and
    the algebraic wedge-action part transposes pointwise (the action tensor
    with its second and output axes swapped).
    """
    CW = fiber.wedge_signs(3, 1, 1)
    T = fiber.product_tensor(1, 1, 2, 1, sig)
    g = Y.grid
    out = _unflat(fiber.bilinear(T.transpose(0, 2, 1), _flat(omega), _flat(Y)), g, 1, 1)
    for a, ci, co in zip(*np.nonzero(CW)):
        out.data[..., ci, :] -= CW[a, ci, co] * deriv_axis(Y.data[..., co, :], a, g)
    return out


def a_dagger(state: BoundaryState, Q: FormField, pack: ProjectorPack) -> FormField:
    """Adjoint of A under the twisted pairing, as an Omega^2(L^3)-valued field.

    <A+ Q, de>_Tr = <Q, A(de)>_T^ for all de; the pointwise part transposes
    sitewise (the exact projector derivative contracted analytically against
    the kernel covector and the torsion) and the d_omega part through the
    discrete transpose of the covariant derivative.
    """
    PB = _pairing_gram_22_12(state.gamma, state.sig)
    # w = (chain)^T applied to Q: per-site 12-covector hitting (2,1)-coeff space
    K12S = np.einsum("...ij,jk->...ik", pack.S12, K12HAT)          # (..., 18, 6)
    qK = np.einsum("...j,...jk->...k", _flat(Q) @ PB, K12S)        # (..., 6)
    lam = -np.linalg.solve(np.swapaxes(pack.phi, -1, -2), qK[..., None])[..., 0]
    w = np.einsum("Dk,...k->...D", K21HAT, lam)
    w = np.einsum("...ji,...j->...i", pack.S2v_inv, w)             # covector on (2,1) coeffs
    wp = np.einsum("...ji,...j->...i", pack.p21, w)

    # pointwise part: w . [X, p21] d = <dP, H> with H = G P^-T and
    # G_ij = sum_c (w_ci (p21 d)_cj - (p21^T w)_ci d_cj); the dn column of dP
    # is eliminated through dn = eta P^-T r
    dvec = _flat(torsion(state))
    pd = np.einsum("...ij,...j->...i", pack.p21, dvec)
    split = w.shape[:-1] + (3, 4)
    G = (np.einsum("...ci,...cj->...ij", w.reshape(split), pd.reshape(split))
         - np.einsum("...ci,...cj->...ij", wp.reshape(split), dvec.reshape(split)))
    H = G @ np.swapaxes(pack.frames_inv, -1, -2)
    g = np.einsum("...ai,...i->...a", pack.frames_inv[..., :3, :], state.sig.eta * H[..., :, 3])
    eta_n = state.sig.eta * pack.frames[..., :, 3]
    psi = np.swapaxes(H[..., :, :3], -1, -2) - g[..., :, None] * eta_n[..., None, :]
    psi = psi.reshape(w.shape)

    # nonlocal part: <w, p21 d_omega de> = <D^T(p21^T w), de>
    Dt = _cov_deriv_transpose(_unflat(wp, state.grid, 2, 1), state.omega, state.sig)
    psi += _flat(Dt)

    PG = _pairing_gram_23_11(state.sig)
    out = psi @ np.linalg.inv(PG.T).T
    return _unflat(out, state.grid, 2, 3)


# ---------------------------------------------------------------------------
# Hamiltonian vector fields


@dataclass
class TangentVector:
    de: FormField
    domega: FormField
    kind: str
    constraint_residual: float = 0.0
    psi_norm: float | None = None
    wedge_residuals: dict | None = None


def _solve_complement_12(rhs: FormField, state: BoundaryState, pack: ProjectorPack) -> FormField:
    """Complement-valued X with X ^ e = rhs (surjective shape (1,2)).

    W_e^{(1,2)} = block3(Lambda^3 P) W12_E S12^-1, so the complement-valued
    solution is S12 (1 - P12_E) W12_E^+ block3(Lambda^3 P^-1) rhs: a fixed
    template inverse between the frame transforms of the pack.
    """
    P = pack.frames
    L3P_inv = _L3_SIGNS * np.swapaxes(P, -1, -2)[..., ::-1, ::-1]
    L3P_inv /= pack.frames_det[..., None, None]
    r_e = np.einsum("...IJ,...cJ->...cI", L3P_inv, rhs.data)
    x_e = r_e.reshape(r_e.shape[:-2] + (12,)) @ _W12_PINV_E.T
    x = np.einsum("...ij,...j->...i", pack.S12, x_e)
    return _unflat(x, state.grid, 1, 2)


def _solve_w11(rhs: FormField, state: BoundaryState, pack: ProjectorPack) -> FormField:
    """X with X ^ e = rhs for the injective shape (1,1), rhs in im W^{(1,1)}.

    W_e^{(1,1)} = S12 W11_E block3(P^-1), so X = block3(P) W11_E^+ S12^-1 rhs,
    the exact solution for a right-hand side in the image of the wedge map.
    """
    y = np.einsum("...ij,...j->...i", pack.S12_inv, _flat(rhs)) @ _W11_PINV_E.T
    x = np.einsum("...ij,...cj->...ci", pack.frames, y.reshape(y.shape[:-1] + (3, 4)))
    return FormField(state.grid, 1, 1, x)


def hamiltonian_vector_field(state: BoundaryState, kind: str, smearing: FormField,
                             pack: ProjectorPack | None = None) -> TangentVector:
    """Hamiltonian vector field of L_alpha or J_mu on the structural slice.

    For J the adjoint-map corrections vanish on shell; they are assembled
    only when the state is off shell (any grid size).
    """
    sig = state.sig
    if pack is None:
        pack = projector_pack(state.e)
    wedge_res = {}
    if kind == "L":
        alpha = smearing
        X_e = act_field(alpha, state.e.field, sig)
        dal = cov_deriv(alpha, state.omega, sig)
        Xw_c = _apply_sitewise(pack.p12_prime, dal) * (-1.0)
        rhs_w = wedge_fields(state.e.field, dal) * (-1.0)
    elif kind == "J":
        mu = smearing
        dmu = cov_deriv(mu, state.omega, sig)
        rhs_w12 = wedge_fields(mu, state.F)
        if state.Lambda != 0.0:
            rhs_w12 = rhs_w12 + 3.0 * state.Lambda * wedge_fields(mu, state.ee)
        rhs_e = wedge_fields(dmu, state.e.field) * (-1.0)
        if not state.on_shell:
            d = torsion(state)
            ppd = d - _apply_sitewise(pack.p21, d)
            Q = wedge_fields(mu, ppd)
            rhs_e = rhs_e + _apply_sitewise(pack.p11_dag, Q) + b_dagger(state, Q, pack)
            rhs_w12 = rhs_w12 + a_dagger(state, Q, pack)
        X_e = _solve_w11(rhs_e, state, pack)
        # e ^ p'X_omega = rhs_w12  <=>  (p'X_omega) ^ e = -rhs_w12
        Xw_c = _solve_complement_12(rhs_w12 * (-1.0), state, pack)
        rhs_w = rhs_w12
        wedge_res["X_e"] = _rel_wedge_residual(X_e, rhs_e, state, (1, 1))
    else:
        raise ValueError("kind must be 'L' or 'J'")

    coords = a_map(state, X_e, pack) + b_map(state, Xw_c, pack)
    Xw_k = kernel_field_from_coords(coords, pack, state.grid)
    X_omega = Xw_c + Xw_k
    wedge_res["X_omega"] = _rel_wedge_residual(X_omega, rhs_w * (-1.0), state, (1, 2))

    pX = _apply_sitewise(pack.p12, X_omega)
    residual = (pX - Xw_k).sup_norm() / max(X_omega.sup_norm(), 1e-300)

    psi = None
    if kind == "L":
        psi = (pX + _apply_sitewise(pack.p12, dal)).sup_norm()
    return TangentVector(X_e, X_omega, kind, residual, psi, wedge_res)


def _rel_wedge_residual(X: FormField, rhs: FormField, state: BoundaryState, shape) -> float:
    """|| X ^ e - rhs || / scale  (rhs given as X ^ e convention)."""
    M = wedgemaps.wedge_matrix(state.e.data, shape)
    got = np.einsum("...ij,...j->...i", M, _flat(X))
    scale = max(np.abs(got).max(), np.abs(rhs.data).max(), 1e-300)
    return float(np.abs(got - _flat(rhs)).max() / scale)


def psi_alpha(state: BoundaryState, alpha: FormField,
              pack: ProjectorPack | None = None) -> FormField:
    """psi_alpha = p (L^alpha)_omega + p d_omega alpha; vanishes on shell."""
    if pack is None:
        pack = projector_pack(state.e)
    X = hamiltonian_vector_field(state, "L", alpha, pack)
    dal = cov_deriv(alpha, state.omega, state.sig)
    return _apply_sitewise(pack.p12, X.domega + dal)


def h_alpha_mu(state: BoundaryState, alpha: FormField, mu: FormField,
               pack: ProjectorPack | None = None) -> FormField:
    """Diagnostic H-smearing from e ^ H = -p+(psi_alpha ^ mu), least squares."""
    if pack is None:
        pack = projector_pack(state.e)
    psi = psi_alpha(state, alpha, pack)
    pm = wedge_fields(mu, psi) * (-1.0)     # Omega^1(L^3 V); mu ^ psi = psi ^ mu
    # project onto im W^{(0,2)} and invert wedge-with-e there
    M02 = wedgemaps.wedge_matrix(state.e.data, (0, 2))
    x = np.einsum("...ij,...j->...i", np.linalg.pinv(M02), _flat(pm))
    return _unflat(x, state.grid, 0, 2)


def z_mu(state: BoundaryState, mu: FormField, pack: ProjectorPack | None = None) -> FormField:
    """Auxiliary Z with p Z = 0 and e ^ Z = mu F_omega, least squares."""
    if pack is None:
        pack = projector_pack(state.e)
    return _solve_complement_12(wedge_fields(mu, state.F) * (-1.0), state, pack)


# ---------------------------------------------------------------------------
# finite-difference Poisson brackets


class RichardsonError(RuntimeError):
    pass


def directional_derivative(state: BoundaryState, functional, X: TangentVector):
    """Central FD of a functional along X with one Richardson step.

    The first step is 1e-5 of the state's scale over the size of X.  The
    functional is evaluated on re-certified states, so motion stays on the
    structural slice.  Returns (value, error_estimate); raises RichardsonError
    when halving the step fails to reduce the difference.
    """
    scale = max(state.e.field.sup_norm(), state.omega.sup_norm())
    xnorm = max(X.de.sup_norm(), X.domega.sup_norm())
    t = 1e-5 * scale / max(xnorm, 1e-300)

    def fd(step):
        fp = functional(shifted_state(state, step, X.de, X.domega))
        fm = functional(shifted_state(state, -step, X.de, X.domega))
        return (fp - fm) / (2 * step)

    d1 = fd(t)
    d2 = fd(t / 2)
    d4 = fd(t / 4)
    r1 = abs(d2 - d1)
    r2 = abs(d4 - d2)
    floor = 1e-10 * (1.0 + abs(d4))   # roundoff allowance for exactly-linear cases
    if r2 > 0.5 * r1 + floor:
        raise RichardsonError(
            f"finite-difference sequence not converging: {r1:.3e} -> {r2:.3e}"
        )
    return (4 * d4 - d2) / 3.0, r2 / 3.0


def functional_L(alpha: FormField):
    return lambda s: eval_L(s, alpha)


def functional_J(mu: FormField):
    return lambda s: eval_J(s, mu)


def poisson_bracket(state: BoundaryState, f_kind: str, f_smear: FormField,
                    g_kind: str, g_smear: FormField):
    """{F, G} = X_F(G) by finite differences along the Hamiltonian field of F."""
    X = hamiltonian_vector_field(state, f_kind, f_smear)
    G = functional_L(g_smear) if g_kind == "L" else functional_J(g_smear)
    return directional_derivative(state, G, X)


def symplectic_form(state: BoundaryState, X, Y) -> float:
    """Boundary symplectic pairing of two tangent vectors.

    Signs are fixed so that iota_{X_F} varpi = dF holds for the Hamiltonian
    vector fields built by `hamiltonian_vector_field`, which in turn makes
    {L_a, L_a'} = L_{[a',a]} hold in the stated order.
    """
    e = state.e.field

    def term(a, b) -> float:
        ex = wedge_fields(e, a.de)                      # Omega^2(L^2)
        tex = t_gamma_field(ex, state.gamma, state.sig)
        return integrate(tr_quad_field(wedge_fields(tex, b.domega)))

    return term(X, Y) - term(Y, X)
