"""Compatible-representative machinery for boundary connections.

Given a boundary coframe e and connection omega, the unique kernel-valued
correction v with

    e ^ v = 0,     [v, e] = -p_{(2,1)}(d_omega e)

produces the structural representative omega~ = omega + v satisfying
p d_omega~ e = 0.  The per-site solve goes through the isomorphism
phi_e = p_{(2,1)} o [.,e] restricted to ker W_e^{(1,2)}, assembled here in the
e-adapted frame where it is an explicit 6x6 matrix depending only on the
boundary metric.

The same frame algebra drives the kernel-intersection dimension counting
K = ker([.,e]) cap ker(W_e^{(1,2)}) at exactly constructed (possibly
degenerate) boundary metrics, and the exactness check of

    0 -> ker W^{(1,2)} --[.,e]--> Omega^2(V) --W^{(2,1)}--> Omega^3(L^2 V) -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla, fiber, wedgemaps
from .fiber import Signature
from .grid import Coframe, FormField, action_wedge, cov_deriv
from .wedgemaps import KERNEL_TEMPLATES, complete_frame, compound_matrix

# ---------------------------------------------------------------------------
# bracket-with-e matrices


def bracket_matrix(e: np.ndarray, sig: Signature) -> np.ndarray:
    """Per-site matrix of [., e]: Omega^1(L^2 V) -> Omega^2(V), u-coords."""
    e = np.asarray(e)
    return fiber.bilinear_matrix(fiber.product_tensor(1, 1, 2, 1, sig),
                                 e.reshape(e.shape[:-2] + (12,)))


def bracket_with_e(v: FormField, e: Coframe) -> FormField:
    """[v, e] as a field: bilinear, onto Omega^2(V) for nondegenerate g."""
    return action_wedge(v, e.field, e.sig)


def frame_bracket_matrix(g: np.ndarray) -> np.ndarray:
    """Batched e-frame matrix of v -> [v,e] from the boundary metric g (..., 3, 3).

    Domain: v[a, P] over all 6 frame pairs (18); codomain: spatial-pair by
    frame-vector components (12).  In the e-frame the action carries the frame
    Gram G in place of eta, act(e_m ^ e_n, e_d) = e_m G_{nd} - e_n G_{md}, and
    only its spatial block g enters (G_{nd} = 0 for the orthogonal
    completion).  That is the eta = identity action on the lowered legs G e_d,
    so the matrix is bracket_matrix at the coframe (g^T | 0).  Object
    (Fraction) metrics give exact matrices.
    """
    g = np.asarray(g)
    legs = np.concatenate([np.swapaxes(g, -1, -2), np.zeros_like(g[..., :1])], axis=-1)
    return bracket_matrix(legs, fiber.EUCLIDEAN)


K12HAT = KERNEL_TEMPLATES[(1, 2)]  # (18, 6) orthonormal
K21HAT = KERNEL_TEMPLATES[(2, 1)]  # (12, 6) orthonormal

#: phi(g) = K21^T B(g) K12 is linear in g: the (9, 36) matrix from the flattened g to
#: the flattened phi, one row per unit metric E_cd
_PHI_FLAT = np.einsum("Dk,cdDE,El->cdkl", K21HAT,
                      frame_bracket_matrix(np.eye(9).reshape(3, 3, 3, 3)), K12HAT).reshape(9, 36)


def phi_matrix(g: np.ndarray) -> np.ndarray:
    """phi_e in the orthonormal template bases, as a function of g (..., 3, 3)."""
    return (g.reshape(g.shape[:-2] + (9,)) @ _PHI_FLAT).reshape(g.shape[:-2] + (6, 6))


#: N(lambda)[i, j] = lambda[3 - i - j] off the diagonal
_N_INDEX = (3 - np.add.outer(np.arange(3), np.arange(3))) % 3
_N_MASK = 1.0 - np.eye(3)


def phi_singular_values(g: np.ndarray) -> np.ndarray:
    """Singular values of phi_matrix(g), unsorted, from the spectrum of g (..., 3, 3).

    They are |lambda_i| for the eigenvalues lambda of g together with |mu_j|
    for the eigenvalues mu of N(lambda) = [[0, l3, l2], [l3, 0, l1], [l2, l1, 0]],
    whose characteristic polynomial is mu^3 - (sum l^2) mu - 2 l1 l2 l3: two
    batched symmetric 3x3 eigenvalue problems.
    """
    lam = np.linalg.eigvalsh(g)
    mu = np.linalg.eigvalsh(lam[..., _N_INDEX] * _N_MASK)
    return np.abs(np.concatenate([lam, mu], axis=-1))


#: largest condition number of phi_e the solve accepts at any site
PHI_COND_LIMIT = 1e8


class PhiSingularError(wedgemaps.ConditioningError, RuntimeError):
    """phi_e is singular or worse conditioned than PHI_COND_LIMIT at some site."""


@dataclass
class PhiFrame:
    """The e-adapted frame set-up of the phi_e solve, at every site."""

    frames: np.ndarray       # P = [e_1 e_2 e_3 e_n], (..., 4, 4)
    frames_inv: np.ndarray   # P^-1
    frames_det: np.ndarray   # det P = sqrt|det g| > 0
    L2P: np.ndarray          # Lambda^2 P, e-frame -> u-frame on bivector components
    phi: np.ndarray          # (..., 6, 6) phi_e in the orthonormal template bases
    condition: float         # worst cond(phi_e) over the sites


def phi_frame(e: np.ndarray, sig: Signature) -> PhiFrame:
    """phi_e, then the frame completion, its inverse and Lambda^2, for a coframe (..., 3, 4).

    phi_e depends only on the boundary metric g = e eta e^T, and so does its
    conditioning: cond(phi_e) comes from `phi_singular_values`.
    phi_e is checked first: PhiSingularError, naming the worst site, when it
    is numerically singular (a degenerate boundary metric, which is also where
    the normal is null).  NullNormalError from the completion is left for a
    normal that is null only within its own tolerance.  The frame Gram is
    P^T eta P = diag(g, q_n) with q_n = eta(e_n, e_n) = +-1, so the inverse
    is P^-1 = diag(g^-1, q_n) P^T eta, with g^-1 and det g from `inv3`, and
    (det P)^2 = |det g|.
    """
    e = np.asarray(e, dtype=float)
    g = (e * sig.eta) @ np.swapaxes(e, -1, -2)
    sv = phi_singular_values(g)
    smax, smin = sv.max(axis=-1), sv.min(axis=-1)
    cond = np.divide(smax, smin, out=np.full_like(smax, np.inf), where=smin > 0)
    if np.any(cond > PHI_COND_LIMIT):
        raise PhiSingularError(
            f"phi_e singular{wedgemaps.at_site(cond)}: cond(phi) = {cond.max():.3e} "
            f"> {PHI_COND_LIMIT:.0e}; boundary metric degenerate?")
    frames, qn = complete_frame(e, sig)
    ginv, det_g = wedgemaps.inv3(g)
    frames_inv = np.swapaxes(frames, -1, -2) * sig.eta
    frames_inv[..., :3, :] = ginv @ frames_inv[..., :3, :]
    frames_inv[..., 3, :] *= qn[..., None]
    return PhiFrame(frames, frames_inv, np.sqrt(np.abs(det_g)), compound_matrix(frames, 2),
                    phi_matrix(g), float(cond.max()))


def phi_e(e: np.ndarray, sig: Signature):
    """Matrix of phi_e at every site of e (..., 3, 4) and its worst condition number."""
    pf = phi_frame(e, sig)
    return pf.phi, pf.condition


# ---------------------------------------------------------------------------
# omega~


@dataclass
class OmegaTildeResult:
    v_tilde: FormField
    omega_tilde: FormField
    structural_residual: float
    solver_conditioning: float


def _kernel_coords_21(e: Coframe, omega: FormField, Pinv: np.ndarray) -> np.ndarray:
    """p(d_omega e) in the orthonormal (2,1)-kernel template coordinates, (..., 6)."""
    d = cov_deriv(e.field, omega, e.sig).data
    d_e = d @ np.swapaxes(Pinv, -1, -2)
    return d_e.reshape(d_e.shape[:-2] + (12,)) @ K21HAT


def structural_projection_norm(e: Coframe, omega: FormField) -> float:
    """sup norm of p(d_omega e) in the orthonormal kernel-template coordinates."""
    return float(np.abs(_kernel_coords_21(e, omega, phi_frame(e.data, e.sig).frames_inv)).max())


def omega_tilde(e: Coframe, omega: FormField) -> OmegaTildeResult:
    """Unique structural representative omega~ = omega + v~ with p d_omega~ e = 0.

    v~ is kernel-valued (e ^ v~ = 0) and gauge-invariant: shifting omega by any
    kernel-valued field leaves omega~ unchanged.
    """
    pf = phi_frame(e.data, e.sig)
    z = _kernel_coords_21(e, omega, pf.frames_inv)
    coeff = -np.linalg.solve(pf.phi, z[..., None])[..., 0]
    v_e = coeff @ K12HAT.T                          # (..., 18)
    v_e = v_e.reshape(v_e.shape[:-1] + (3, 6))
    v_u = v_e @ np.swapaxes(pf.L2P, -1, -2)
    v_field = FormField(e.grid, 1, 2, v_u)
    om_t = omega + v_field
    res = float(np.abs(_kernel_coords_21(e, om_t, pf.frames_inv)).max())
    return OmegaTildeResult(v_field, om_t, res, pf.condition)


# ---------------------------------------------------------------------------
# kernel intersection at exact boundary metrics


def _kernel_intersection_dim_exact(g) -> int:
    """dim( ker([.,e]) cap ker W_e^{(1,2)} ) from an exact 3x3 boundary metric g.

    Pure frame algebra over rationals: in the e-frame, ker W^{(1,2)} is cut out
    by the integer template equations and [., e] is the frame bracket matrix,
    which involves only the boundary metric.
    """
    rows = exactla.from_numpy_int(wedgemaps.kernel_equations((1, 2)))
    rows += frame_bracket_matrix(np.asarray(g, dtype=object)).tolist()
    return 18 - exactla.rank(rows)


def kernel_intersection_dim(gdiag) -> int:
    """dim( ker([.,e]) cap ker W_e^{(1,2)} ) for an exact diagonal boundary metric.

    Expected: twice the dimension of ker(g).
    """
    return _kernel_intersection_dim_exact(np.diag([Fraction(v) for v in gdiag]))


def kernel_intersection_dim_from_coframe(e_exact, sig: Signature) -> int:
    """Same count from an exactly given coframe: g = e eta e^T computed exactly."""
    e = np.array([[Fraction(x) for x in row] for row in e_exact], dtype=object)
    return _kernel_intersection_dim_exact((e * np.array(sig.eta_diag)) @ e.T)


def make_degenerate_coframe(signs, sig: Signature) -> np.ndarray:
    """Exact 3x4 coframe whose boundary metric is diag(signs), when attainable.

    Lorentzian eta supports diag(1,1,1), diag(1,1,-1) and diag(1,1,0) (one
    null direction); Euclidean eta only diag(1,1,1).  Any other request is
    rejected: the remaining signatures of the kernel lemma need an ambient
    metric with two minus signs.
    """
    signs = tuple(signs)
    basis = {
        (1, 1, 1): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        (1, 1, -1): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        (1, 1, 0): [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    }
    if sig.s == 1:
        if signs == (1, 1, 1):
            return np.array(basis[signs], dtype=float)
        raise ValueError(f"unattainable signature {signs} under Euclidean eta")
    if signs in basis:
        e = np.array(basis[signs], dtype=float)
        g = np.einsum("ai,i,bi->ab", e, sig.eta, e)
        assert np.allclose(g, np.diag(signs))
        return e
    raise ValueError(f"unattainable signature {signs} under Lorentzian eta")


# ---------------------------------------------------------------------------
# exact sequence at a site


@dataclass
class ExactSequenceReport:
    dim_kernel_12: int
    dim_image_bracket: int
    dim_kernel_21: int
    rank_w21: int
    wedge_residual: float          # max |e ^ [v,e]| over kernel basis
    containment_residual: float    # im([.,e]|ker) inside ker W^{(2,1)}
    reverse_residual: float        # ker W^{(2,1)} inside im([.,e]|ker)

    @property
    def is_exact(self) -> bool:
        return (
            self.dim_image_bracket == self.dim_kernel_12 == self.dim_kernel_21
            and self.rank_w21 == 6
            and max(self.containment_residual, self.reverse_residual) < 1e-9
        )


def _orth(columns: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(columns)
    keep = np.abs(np.diag(r)) > 1e-10 * max(1.0, np.abs(r).max())
    return q[:, keep]


def exact_sequence_check(e: np.ndarray, sig: Signature) -> ExactSequenceReport:
    e = np.asarray(e, dtype=float)
    s12 = wedgemaps.kernel_basis(wedgemaps.build_wedge_matrix(e, (1, 2), sig))
    s21 = wedgemaps.kernel_basis(wedgemaps.build_wedge_matrix(e, (2, 1), sig))
    B = bracket_matrix(e, sig)
    img = B @ s12.kernel_basis                     # (12, 6)
    sv = np.linalg.svd(img, compute_uv=False)
    dim_img = int((sv > 1e-10 * sv[0]).sum())

    W21 = s21.sample.matrix
    sv21 = np.linalg.svd(W21, compute_uv=False)
    rank_w21 = int((sv21 > 1e-10 * sv21[0]).sum())

    wedge_res = float(np.abs(W21 @ img).max() / max(1.0, np.abs(img).max()))

    img_o = _orth(img)
    ker_o = _orth(s21.kernel_basis)
    Pker = ker_o @ ker_o.T
    Pimg = img_o @ img_o.T
    cont = float(np.linalg.norm(img_o - Pker @ img_o, ord=2))
    rev = float(np.linalg.norm(ker_o - Pimg @ ker_o, ord=2))

    return ExactSequenceReport(
        dim_kernel_12=s12.kernel_basis.shape[1],
        dim_image_bracket=dim_img,
        dim_kernel_21=s21.kernel_basis.shape[1],
        rank_w21=rank_w21,
        wedge_residual=wedge_res,
        containment_residual=cont,
        reverse_residual=rev,
    )


# ---------------------------------------------------------------------------
# exact-arithmetic spot data (integer template bases)


def integer_kernel_basis_12() -> list:
    """Integer basis of the (1,2)-kernel template, columns as length-18 lists."""
    eqs = exactla.from_numpy_int(wedgemaps.kernel_equations((1, 2)))
    return exactla.nullspace(eqs)


def integer_kernel_basis_21() -> list:
    eqs = exactla.from_numpy_int(wedgemaps.kernel_equations((2, 1)))
    return exactla.nullspace(eqs)


def phi_pairing_det_exact(gdiag) -> Fraction:
    """det of K21^T B(g) K12 with integer template bases, exact.

    Nonzero iff phi_e is an isomorphism at that boundary metric.
    """
    B = frame_bracket_matrix(np.diag([Fraction(v) for v in gdiag])).tolist()
    K12 = integer_kernel_basis_12()   # columns
    K21 = integer_kernel_basis_21()
    K12m = [[col[i] for col in K12] for i in range(18)]
    K21mT = [list(col) for col in K21]  # rows = basis vectors
    BK = exactla.matmul(B, K12m)
    M = exactla.matmul(K21mT, BK)
    return exactla.det(M)
