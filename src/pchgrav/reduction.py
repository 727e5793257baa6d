"""Compatible-representative machinery for boundary connections.

Given a boundary coframe e and connection omega, the unique kernel-valued
correction v with

    e ^ v = 0,     [v, e] = -p_{(2,1)}(d_omega e)

produces the structural representative omega~ = omega + v satisfying
p d_omega~ e = 0.  The per-site solve inverts the isomorphism
phi_e = p_{(2,1)} o [.,e] restricted to ker W_e^{(1,2)}, assembled here in the
e-adapted frame where it is an explicit 6x6 matrix depending only on the
boundary metric g.  Both kernels are copies of Sym(3) through the integer maps
`wedgemaps.M12`, `M21` and basis Z = `wedgemaps.SYM3`, from which the kernel
templates, their projectors and the exact counts below are built, so kernel
coordinates are orthonormal Sym(3) coordinates.  There phi_e is minus the tensor
cross product with g, whose inverse (g T g - tr(g T) g / 2) / det g makes each
solve two per-site 3x3 products.
`PhiFrame` is the one per-site object of that frame, built from e alone: the
omega~ solve (`PhiFrame.omega_tilde`), the projectors, this kernel chain and
the template wedge solves that the Hamiltonian vector fields of `constraints`
use too.

The same frame algebra drives the kernel-intersection dimension counting
K = ker([.,e]) cap ker(W_e^{(1,2)}) at exactly constructed (possibly
degenerate) boundary metrics, and the exactness check of

    0 -> ker W^{(1,2)} --[.,e]--> Omega^2(V) --W^{(2,1)}--> Omega^3(L^2 V) -> 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import exactla, fiber, wedgemaps
from .fiber import Signature, site_blocks
from .grid import Coframe, FormField, Grid3, action_wedge, cofactors3, ext_deriv
from .wedgemaps import M12, M21, SYM3, complete_frame, compound_matrix

# ---------------------------------------------------------------------------
# bracket-with-e matrices


def bracket_matrix(e: np.ndarray, sig: Signature) -> np.ndarray:
    """Per-site matrix of [., e]: Omega^1(L^2 V) -> Omega^2(V), u-coords."""
    e = np.asarray(e)
    return fiber.bilinear_matrix(fiber.product_tensor(1, 1, 2, 1, sig),
                                 e.reshape(e.shape[:-2] + (12,)))


def frame_bracket_matrix(g: np.ndarray) -> np.ndarray:
    """Batched e-frame matrix of v -> [v,e] from the boundary metric g (..., 3, 3).

    Domain: v[a, P] over all 6 frame pairs (18); codomain: spatial-pair by
    frame-vector components (12).  In the e-frame the action carries the frame
    Gram G in place of eta, act(e_m ^ e_n, e_d) = e_m G_{nd} - e_n G_{md}, and
    only its spatial block g enters (G_{nd} = 0 for the orthogonal
    completion).  That is the eta = identity action on the lowered legs G e_d,
    so the matrix is bracket_matrix at the coframe (g^T | 0).  Each entry is 0
    or +-g_cd for one (c, d) (`_BRACKET_ENTRIES`), so integer and rational
    metrics give exact matrices with no contraction.
    """
    g = np.asarray(g)
    out = np.zeros(g.shape[:-2] + (12, 18), dtype=g.dtype)
    c, d, o, a, u = _BRACKET_ENTRIES
    out[..., o, a] += u * g[..., c, d]
    return out


#: U[c, d], the e-frame bracket matrix at the unit metric E_cd: bracket_matrix at
#: the coframe (E_cd^T | 0), entries -1, 0 and 1
_BRACKET_UNITS = bracket_matrix(np.concatenate(
    [np.eye(9).reshape(3, 3, 3, 3).transpose(0, 1, 3, 2), np.zeros((3, 3, 3, 1))], axis=-1),
    fiber.EUCLIDEAN)
#: its 54 nonzero entries as arrays (c, d, o, a, sign); no two share an (o, a)
_BRACKET_ENTRIES = (*np.nonzero(_BRACKET_UNITS),
                    _BRACKET_UNITS[np.nonzero(_BRACKET_UNITS)].astype(int))

#: D = Z^T Z for the integer Sym(3) basis Z = SYM3, and Z D^-1/2, its orthonormal basis
#: (9, 6): kernel coordinates are coordinates in it
_D = (SYM3 * SYM3).sum(axis=0)
_SYM_HAT = SYM3 / np.sqrt(_D)
#: the integer kernel bases M12 Z (18, 6) and M21 Z (12, 6), and the orthonormal kernel
#: templates M12 Z D^-1/2 and M21 Z D^-1/2
_Z12, _Z21 = M12 @ SYM3, M21 @ SYM3
K12HAT = M12 @ _SYM_HAT
K21HAT = M21 @ _SYM_HAT

#: phi(g) = K21^T B(g) K12 is linear in g: the (9, 36) matrix from the flattened g to
#: the flattened phi, one row per unit metric E_cd
_PHI_FLAT = np.einsum("Dk,cdDE,El->cdkl", K21HAT, _BRACKET_UNITS, K12HAT).reshape(9, 36)


def phi_matrix(g: np.ndarray) -> np.ndarray:
    """phi_e in the orthonormal template bases, as a function of g (..., 3, 3)."""
    return (g.reshape(g.shape[:-2] + (9,)) @ _PHI_FLAT).reshape(g.shape[:-2] + (6, 6))


def _phi_inverse(T: np.ndarray, g: np.ndarray, det_g: np.ndarray) -> np.ndarray:
    """phi_e^-1 on Sym(3), (g T g - tr(g T) g / 2) / det g, for T, g (..., 3, 3), det g (...,).

    There phi_e(S) = -S x g, the tensor cross product (S x g)_ij = eps_imn eps_jpq S_mp g_nq
    (Bonet, Gil and Ortigosa, CMAME 283, 2015).  Self-adjoint in the Frobenius product, so
    the transposed kernel chain applies it too; exact on `Fraction` entries.
    """
    gT = g @ T
    S = gT @ g
    S -= np.trace(gT, axis1=-2, axis2=-1)[..., None, None] / 2 * g
    S /= det_g[..., None, None]
    return S


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


def phi_conditions(g: np.ndarray) -> np.ndarray:
    """cond(phi_e) at every site from `phi_singular_values`; inf where phi_e is singular."""
    sv = phi_singular_values(g)
    smax, smin = sv.max(axis=-1), sv.min(axis=-1)
    return np.divide(smax, smin, out=np.full_like(smax, np.inf), where=smin > 0)


#: largest condition number of phi_e the solve accepts at any site
PHI_COND_LIMIT = 1e8


def _phi_frobenius_terms(g: np.ndarray):
    """(b, det g) with (|phi|_F |phi^-1|_F)^2 = b / det(g)^2, from g (..., 3, 3).

    From the singular values of phi (`phi_singular_values`),
    |phi|_F^2 = 3 |g|_F^2 and |phi^-1|_F^2 = (|adj g|_F^2 + |g|_F^4 / 4) / det(g)^2.
    """
    cof = cofactors3(g)
    g2 = (g * g).sum(axis=(-2, -1))
    b = 3.0 * g2 * ((cof * cof).sum(axis=(-2, -1)) + 0.25 * g2 * g2)
    return b, (g[..., 0, :] * cof[..., 0, :]).sum(axis=-1)


def _phi_cleared(g: np.ndarray) -> np.ndarray:
    """Sites where cond(phi_e) <= PHI_COND_LIMIT follows from a bound, without a spectrum.

    cond_2 phi <= |phi|_F |phi^-1|_F, which exceeds cond_2 by a factor between
    sqrt(3) and about 3.4, so a cleared site lies far inside the limit and the
    decision is the spectrum's.  The test has no division: det g = 0 (and any
    non-finite entry) is left to the spectrum.  In site blocks, so the cofactors stay small.
    """
    sites = g.reshape(-1, 3, 3)
    cleared = np.empty(len(sites), dtype=bool)
    for block in site_blocks(len(sites)):
        b, det = _phi_frobenius_terms(sites[block])
        cleared[block] = np.isfinite(b) & (b <= (PHI_COND_LIMIT * det) ** 2)
    return cleared.reshape(g.shape[:-2])


class PhiSingularError(wedgemaps.ConditioningError, RuntimeError):
    """phi_e is singular or worse conditioned than PHI_COND_LIMIT at some site."""


# e-frame templates: in the e-adapted frame the coframe is (1 | 0), the wedge maps
# are integer templates and every projector is a fixed orthogonal projector.  The
# kernel projectors are M Z D^-1 Z^T M^T, exact: each row of M Z has at most one
# nonzero, so every entry is 0, +-1/2 or 1

_P12_E = _Z12 / _D @ _Z12.T
_Q12_E = np.eye(18) - _P12_E           # the template complement, for p12'
_P21_E = _Z21 / _D @ _Z21.T
_W12_TEMPLATE = wedgemaps.wedge_matrix(np.eye(3, 4), (1, 2))
#: the template pseudo-inverse W^T (W W^T)^-1 of the surjective W^{(1,2)} (18, 12), onto
#: the complement of its kernel; exact, as W W^T has an inverse of quarters
_W12_PINV_E = _W12_TEMPLATE.T @ np.array(
    exactla.inverse((_W12_TEMPLATE @ _W12_TEMPLATE.T).astype(int).tolist()), dtype=float)
#: the Tr pairing's graded symmetry Tr(e ^ v ^ X) = Tr(v ^ e ^ X) reads W11_E =
#: PG12 W12_E^T PG11 with the signed permutations PG of `wedgemaps.dual_pairing_matrix`,
#: so W11_E^+ = PG11^T W12_E^+T PG12^T (12, 18), and N = PG12 M12 Z is an integer basis
#: of ker W11_E^T with N^T N = D: the projector W11_E W11_E^+ = 1 - N D^-1 N^T onto
#: im W^{(1,1)}.  All three are exact, with entries 0, +-1/2 and +-1
_PG12, _PG11 = wedgemaps.dual_pairing_matrix(1, 2), wedgemaps.dual_pairing_matrix(1, 1)
_W11_PINV_E = _PG11.T @ _W12_PINV_E.T @ _PG12.T
_N11 = _PG12 @ _Z12
_P11DAG_E = np.eye(18) - _N11 / _D @ _N11.T
#: Jacobi's complementary-minor identity (Horn & Johnson, Matrix Analysis, 0.8.4):
#: Lambda^k(P^-1)[I, J] = (-1)^(|I| + |J|) Lambda^(4-k)P[J^c, I^c] / det P, with |I|
#: the index sum of I and I^c its complement.  The pairs (`fiber.PAIRS`) are ordered
#: so that I^c = 5 - I, and the triples, read as their missing index m(I) = 3 - I
#: (Lambda^1 P = P), so that the sign is (-1)^(m(I) + m(J)) = (-1)^(I + J)
_PAIR_SIGNS = (-1.0) ** np.array(fiber.PAIRS).sum(axis=1)
_L2_SIGNS = np.outer(_PAIR_SIGNS, _PAIR_SIGNS)
_L3_SIGNS = (-1.0) ** np.add.outer(np.arange(4), np.arange(4))


def _jacobi_inverse(L: np.ndarray, signs: np.ndarray, det_g: np.ndarray) -> np.ndarray:
    """Lambda^k(P^-1) from L = Lambda^(4-k) P (..., m, m) and det g (...,): the signed,
    reversed transpose of L over det P = sqrt|det g|."""
    out = signs * np.swapaxes(L, -1, -2)[..., ::-1, ::-1]
    out /= np.sqrt(np.abs(det_g))[..., None, None]
    return out


def _conj(x: np.ndarray, A: np.ndarray, T: np.ndarray, B: np.ndarray) -> np.ndarray:
    """((x A) T) B for a leg array x (..., 3, d): the per-site A and B (..., d, d) act
    on each leg (a row), the fixed template T (3d, 3d) on the flattened legs."""
    y = (x @ A).reshape(x.shape[:-2] + (-1,)) @ T
    return y.reshape(x.shape) @ B


def _transpose(M: np.ndarray) -> np.ndarray:
    # contiguous: a strided operand slows the batched matmuls
    return np.ascontiguousarray(np.swapaxes(M, -1, -2))


@dataclass
class PhiFrame:
    """The e-adapted frame at every site: its transforms, projectors, kernel chain and
    template wedge solves.

    Each projector is S T S^-1: a fixed e-frame template T between per-site
    frame transforms S that act leg by leg, S12 = block3(Lambda^2 P) on
    Omega^1(L^2) and Omega^2(L^2), S2v = block3(P) on Omega^2(V).  The apply
    methods take a leg array x (..., 3, d), one leg per row, so S maps a leg
    as x @ S^T.  The templates are orthogonal projectors, hence symmetric, and
    the transposes S^-T T S^T that the adjoints need swap only the transforms.
    Lambda^2(P^-1) comes from Lambda^2 P by Jacobi's identity, so S12 and its
    inverse agree to roundoff in the entries of Lambda^2 P; it and the
    contiguous transposes are built at each use and not held, so the omega~
    solve pays for none of them and a frame kept by a state holds only the
    fields below, about a third of what it would hold with them.  The kernel
    chain inverts phi_e in Sym(3) coordinates from g and det g
    (`_phi_inverse`), so the frame holds no phi_e^-1.  The frame holds the
    coframe array it was built from (a reference, not a copy), so its omega~
    solve cannot meet another coframe.
    """

    e: np.ndarray            # (..., 3, 4) the coframe this frame completes
    frames: np.ndarray       # P = [e_1 e_2 e_3 e_n], e-frame -> u-frame on V, (..., 4, 4)
    frames_inv: np.ndarray   # P^-1
    L2P: np.ndarray          # Lambda^2 P, e-frame -> u-frame on bivector components
    g: np.ndarray            # (..., 3, 3) boundary metric
    det_g: np.ndarray        # its signed determinant; det P = sqrt|det g| > 0
    sig: Signature

    @property
    def L2P_inv(self) -> np.ndarray:
        """Lambda^2(P^-1) = (Lambda^2 P)^-1, from Lambda^2 P by Jacobi's identity."""
        return _jacobi_inverse(self.L2P, _L2_SIGNS, self.det_g)

    @property
    def frames_T(self) -> np.ndarray:
        return _transpose(self.frames)

    @property
    def frames_inv_T(self) -> np.ndarray:
        return _transpose(self.frames_inv)

    @property
    def L2P_T(self) -> np.ndarray:
        return _transpose(self.L2P)

    @property
    def L2P_inv_T(self) -> np.ndarray:
        return _transpose(self.L2P_inv)

    # -- projectors

    def p12(self, x: np.ndarray) -> np.ndarray:
        """Kernel projector on Omega^1(L^2), the domain of W^{(1,2)}."""
        return _conj(x, self.L2P_inv_T, _P12_E, self.L2P_T)

    def p12_prime(self, x: np.ndarray) -> np.ndarray:
        """The complement 1 - p12, through the template complement."""
        return _conj(x, self.L2P_inv_T, _Q12_E, self.L2P_T)

    def p11_dag(self, x: np.ndarray) -> np.ndarray:
        """Projector onto im W^{(1,1)} in Omega^2(L^2)."""
        return _conj(x, self.L2P_inv_T, _P11DAG_E, self.L2P_T)

    def p21(self, x: np.ndarray) -> np.ndarray:
        """Kernel projector on Omega^2(V), the domain of W^{(2,1)}."""
        return _conj(x, self.frames_inv_T, _P21_E, self.frames_T)

    def p21_T(self, x: np.ndarray) -> np.ndarray:
        return _conj(x, self.frames, _P21_E, self.frames_inv)

    # -- kernel chain: Omega^2(V) --K21^T S2v^-1--> R^6 --(-phi^-1)--> R^6 --S12 K12--> ker W^{(1,2)}
    # with phi^-1 = Y^T vec o phi_e^-1 o mat Y in the orthonormal Sym(3) basis Y = Z D^-1/2

    def kernel_coords(self, x: np.ndarray) -> np.ndarray:
        """p x for Omega^2(V) legs x (..., 3, 4), in the orthonormal Sym(3) coordinates
        of the (2,1)-kernel template (..., 6)."""
        x_e = x @ np.swapaxes(self.frames_inv, -1, -2)
        return x_e.reshape(x_e.shape[:-2] + (12,)) @ K21HAT

    def kernel_correction(self, x: np.ndarray) -> np.ndarray:
        """Kernel coordinates (..., 6) of the kernel-valued v with p[v, e] = -p x,
        for Omega^2(V) legs x (..., 3, 4)."""
        T = self.kernel_coords(x) @ _SYM_HAT.T
        S = _phi_inverse(T.reshape(T.shape[:-1] + (3, 3)), self.g, self.det_g)
        return -(S.reshape(T.shape) @ _SYM_HAT)

    def kernel_correction_T(self, y: np.ndarray) -> np.ndarray:
        """The transpose of `kernel_field` o `kernel_correction`: Omega^1(L^2) legs
        y (..., 3, 6) to Omega^2(V) legs S2v^-T K21 (-phi^-T) K12^T S12^T y (..., 3, 4)."""
        v = y @ self.L2P
        U = v.reshape(v.shape[:-2] + (18,)) @ K12HAT @ _SYM_HAT.T
        S = _phi_inverse(U.reshape(U.shape[:-1] + (3, 3)), self.g, self.det_g)
        lam = -(S.reshape(U.shape) @ _SYM_HAT)
        return (lam @ K21HAT.T).reshape(lam.shape[:-1] + (3, 4)) @ self.frames_inv

    def kernel_field(self, coords: np.ndarray, grid: Grid3) -> FormField:
        """The kernel-valued field S12 K12 coords of kernel coordinates (..., 6)."""
        v_e = (coords @ K12HAT.T).reshape(coords.shape[:-1] + (3, 6))
        return FormField(grid, 1, 2, v_e @ np.swapaxes(self.L2P, -1, -2))

    # -- template wedge solves

    def solve_w11(self, rhs: FormField) -> FormField:
        """X with X ^ e = rhs for the injective shape (1,1), rhs in im W^{(1,1)}.

        W_e^{(1,1)} = S12 W11_E block3(P^-1), so X = block3(P) W11_E^+ S12^-1 rhs,
        the exact solution for a right-hand side in the image of the wedge map.
        """
        y = (rhs.data @ self.L2P_inv_T).reshape(rhs.data.shape[:-2] + (18,)) @ _W11_PINV_E.T
        return FormField(rhs.grid, 1, 1, y.reshape(y.shape[:-1] + (3, 4)) @ self.frames_T)

    def solve_complement_12(self, rhs: FormField) -> FormField:
        """Complement-valued X with X ^ e = rhs (surjective shape (1,2)).

        W_e^{(1,2)} = block3(Lambda^3 P) W12_E S12^-1, so the complement-valued
        solution is S12 (1 - P12_E) W12_E^+ block3(Lambda^3 P^-1) rhs: a fixed
        template inverse between the frame transforms.
        """
        L3P_inv = _jacobi_inverse(self.frames, _L3_SIGNS, self.det_g)
        r_e = np.einsum("...IJ,...cJ->...cI", L3P_inv, rhs.data)
        x_e = r_e.reshape(r_e.shape[:-2] + (12,)) @ _W12_PINV_E.T
        return FormField(rhs.grid, 1, 2, x_e.reshape(x_e.shape[:-1] + (3, 6)) @ self.L2P_T)

    # -- omega~

    def omega_tilde(self, omega: FormField) -> OmegaTildeResult:
        """Unique structural representative omega~ = omega + v~ with p d_omega~ e = 0.

        v~ is kernel-valued (e ^ v~ = 0) and gauge-invariant: shifting omega by
        any kernel-valued field leaves omega~ unchanged.
        """
        e = FormField(omega.grid, 1, 1, self.e)
        # d e once for both covariant derivatives d_w e = d e + [w ^ e]
        de = ext_deriv(e)
        v_field = self.kernel_field(
            self.kernel_correction((de + action_wedge(omega, e, self.sig)).data), omega.grid)
        om_t = omega + v_field
        res = float(np.abs(self.kernel_coords((de + action_wedge(om_t, e, self.sig)).data)).max())
        return OmegaTildeResult(v_field, om_t, res, self.g)


def phi_frame(e: np.ndarray, sig: Signature) -> PhiFrame:
    """phi_e, then the frame completion, its inverse and Lambda^2, for a coframe (..., 3, 4).

    phi_e depends only on the boundary metric g = e eta e^T, and so does its
    conditioning.  phi_e is checked first: the sites that `_phi_cleared` cannot
    clear go through `phi_conditions`, and if any of them exceeds
    PHI_COND_LIMIT, PhiSingularError names the worst site of the full
    spectrum (a degenerate boundary metric, which is also where the normal is
    null).  NullNormalError from the completion is left for a normal that is
    null only within its own tolerance.  The frame Gram is
    P^T eta P = diag(g, q_n) with q_n = eta(e_n, e_n) = +-1, so the inverse
    is P^-1 = diag(g^-1, q_n) P^T eta, with g^-1 and det g from `inv3`, and
    (det P)^2 = |det g|; the frame keeps the signed det g for phi_e^-1.
    """
    e = np.asarray(e, dtype=float)
    g = (e * sig.eta) @ np.swapaxes(e, -1, -2)
    unclear = ~_phi_cleared(g)
    if unclear.any() and np.any(phi_conditions(g[unclear]) > PHI_COND_LIMIT):
        cond = phi_conditions(g)
        raise PhiSingularError(
            f"phi_e singular{wedgemaps.at_site(cond)}: cond(phi) = {cond.max():.3e} "
            f"> {PHI_COND_LIMIT:.0e}; boundary metric degenerate?")
    frames, qn = complete_frame(e, sig)
    ginv, det_g = wedgemaps.inv3(g)
    frames_inv = np.swapaxes(frames, -1, -2) * sig.eta
    frames_inv[..., :3, :] = ginv @ frames_inv[..., :3, :]
    frames_inv[..., 3, :] *= qn[..., None]
    return PhiFrame(e, frames, frames_inv, compound_matrix(frames), g, det_g, sig)


# ---------------------------------------------------------------------------
# omega~


@dataclass
class OmegaTildeResult:
    v_tilde: FormField
    omega_tilde: FormField
    structural_residual: float
    g: np.ndarray            # (..., 3, 3) boundary metric, for the conditioning

    @functools.cached_property
    def solver_conditioning(self) -> float:
        """Worst cond(phi_e) over the sites, from the full spectrum, on first read."""
        return float(phi_conditions(self.g).max())


def omega_tilde(e: Coframe, omega: FormField) -> OmegaTildeResult:
    """omega~ of the connection omega at the coframe e, through e's own frame."""
    return phi_frame(e.data, e.sig).omega_tilde(omega)


# ---------------------------------------------------------------------------
# kernel intersection at exact boundary metrics


def _kernel_intersection_dim_exact(g) -> int:
    """dim( ker([.,e]) cap ker W_e^{(1,2)} ) from an exact 3x3 boundary metric g.

    Pure frame algebra over rationals: in the e-frame, ker W^{(1,2)} is spanned by
    the 6 columns of the integer basis M12 Z, and [., e] is the frame bracket
    matrix, which involves only the boundary metric; the count is
    6 - rank(B(g) M12 Z).
    """
    return 6 - exactla.rank((frame_bracket_matrix(g) @ _Z12).tolist())


def kernel_intersection_dim(gdiag) -> int:
    """dim( ker([.,e]) cap ker W_e^{(1,2)} ) for an exact diagonal boundary metric.

    Expected: twice the dimension of ker(g).
    """
    return _kernel_intersection_dim_exact(np.diag(gdiag))


def kernel_intersection_dim_from_coframe(e_exact, sig: Signature) -> int:
    """Same count from an exactly given coframe: g = e eta e^T computed exactly."""
    e = np.asarray(e_exact)
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
    """Per-site arrays over the stack of coframes the check was given.  ker W^{(1,2)} and
    ker W^{(2,1)} have dimension 6 at every site: `kernel_basis` refuses any other rank."""

    dim_image_bracket: np.ndarray       # rank of [.,e] on ker W^{(1,2)}, by decide_rank
    wedge_residual: np.ndarray          # max |e ^ [v,e]| over kernel basis
    containment_residual: np.ndarray    # im([.,e]|ker) inside ker W^{(2,1)}
    reverse_residual: np.ndarray        # ker W^{(2,1)} inside im([.,e]|ker)


def exact_sequence_check(e: np.ndarray, sig: Signature) -> ExactSequenceReport:
    """The exact sequence at every coframe of a stack e (..., 3, 4): one stacked kernel
    per shape, and one SVD of the bracket image, whose rank is `decide_rank`'s and whose
    leading left singular vectors are its orthonormal basis."""
    e = np.asarray(e, dtype=float)
    s12 = wedgemaps.kernel_basis(e, (1, 2))
    s21 = wedgemaps.kernel_basis(e, (2, 1))
    img = bracket_matrix(e, sig) @ s12.kernel_basis         # (..., 12, 6)
    wedge_res = (np.abs(s21.matrix @ img).max(axis=(-2, -1))
                 / np.maximum(1.0, np.abs(img).max(axis=(-2, -1))))

    u, sv, _ = np.linalg.svd(img, full_matrices=False)
    rank, _ = wedgemaps.decide_rank(sv, "the bracket image [., e] of ker W^(1,2)")
    img_o = u * (np.arange(sv.shape[-1]) < np.expand_dims(rank, -1))[..., None, :]
    ker_o = s21.kernel_basis
    Pker = ker_o @ np.swapaxes(ker_o, -1, -2)
    Pimg = img_o @ np.swapaxes(img_o, -1, -2)
    return ExactSequenceReport(
        dim_image_bracket=rank,
        wedge_residual=wedge_res,
        containment_residual=np.linalg.norm(img_o - Pker @ img_o, ord=2, axis=(-2, -1)),
        reverse_residual=np.linalg.norm(ker_o - Pimg @ ker_o, ord=2, axis=(-2, -1)),
    )


# ---------------------------------------------------------------------------
# exact-arithmetic spot data (integer template bases)


def phi_pairing_det_exact(gdiag):
    """det(Z^T M21^T B(g) M12 Z) in the integer Sym(3) basis Z, exact (a Fraction).

    Nonzero iff phi_e is an isomorphism at that boundary metric.
    """
    return exactla.det((_Z21.T @ frame_bracket_matrix(np.diag(gdiag)) @ _Z12).tolist())
