"""Check suites: the verification battery behind the CLI and the test suite.

Each suite function returns a list of CheckRow records; `run_suites` executes
the selected suites in declared order.  All random data is drawn from
counter-based streams keyed by (seed, suite, draw counter), the counter
counting the suite's `rng()` calls, so reports are bit-reproducible for a
fixed config regardless of execution order.  A row's `runtime_s` is the time
since the suite's previous row, or since the suite started.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import constraints as cst
from . import ehdata as eh
from . import fiber, halfshell as hs, reduction as red, wedgemaps as wm
from .config import RunConfig
from .fiber import EUCLIDEAN, LORENTZIAN, Signature, signature_from_name
from .grid import (
    Coframe,
    FormField,
    Grid3,
    TrigPoly,
    harmonic,
    integrate,
    random_field_spec,
    tr_quad_field,
    t_gamma_field,
    wedge_fields,
)
from .report import CheckRow, ConstraintReport
from .rng import stream


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()


class _Suite:
    """The rows of one suite, its random draws and the clock that times its rows."""

    def __init__(self, name: str, cfg: RunConfig):
        self.name = name
        self.cfg = cfg
        self.sig = signature_from_name(cfg.signature)
        self.rows: list[CheckRow] = []
        self._draws = 0
        self._start = time.perf_counter()

    def rng(self):
        """The next stream of the suite, keyed by its draw counter."""
        r = stream(self.cfg.seed, self.name, self._draws)
        self._draws += 1
        return r

    def elapsed(self) -> float:
        """Seconds since the previous row, or since the suite started."""
        return time.perf_counter() - self._start

    def check(self, cid: str, anchor: str, values: dict, passed: bool,
              tolerance: float | None):
        self.rows.append(CheckRow(
            id=f"{self.name}/{cid}",
            anchor=anchor,
            inputs_digest=_digest(self.cfg.seed, self.name, cid),
            values=values,
            tolerance=tolerance,
            passed=bool(passed),
            runtime_s=round(self.elapsed(), 6),
        ))
        self._start = time.perf_counter()


#: random coframes of the kernels suite's kernel table
KERNEL_SAMPLES = 100
#: off-shell states of the reduction suite's omega~ row
OMEGA_TILDE_STATES = 20


# ---------------------------------------------------------------------------
# canonical on-shell spec and probes (frozen; used by acceptance tests too)


def _tp(c=0.0, *harms):
    p = TrigPoly.constant(c) if c else TrigPoly()
    for (a, k, ph) in harms:
        p = p + harmonic(a, k, ph)
    return p


def acceptance_triad_spec() -> cst.TriadSpec:
    """Frozen trig triad + symmetric K used by the convergence criteria."""
    ebar = (
        (_tp(1.0, (0.05, (1, 0, 0), 0.4)), _tp(0.0, (0.04, (0, 1, 0), 1.1)), _tp(0.0)),
        (_tp(0.0, (0.03, (0, 0, 1), 2.0)), _tp(1.0, (0.05, (0, 1, 0), 0.9)), _tp(0.0, (0.02, (1, 0, 0), 0.3))),
        (_tp(0.0), _tp(0.0, (0.03, (1, 0, 0), 2.2)), _tp(1.0, (0.04, (0, 0, 1), 1.7))),
    )
    koff = _tp(0.0, (0.12, (0, 1, 0), 0.5))
    koff2 = _tp(0.0, (0.1, (1, 1, 0), 2.1))
    K = (
        (_tp(0.25, (0.2, (1, 0, 0), 0.0)), koff, _tp(0.0)),
        (koff, _tp(-0.15, (0.15, (0, 0, 1), 1.3)), koff2),
        (_tp(0.0), koff2, _tp(0.1)),
    )
    return cst.TriadSpec(ebar, K)


def flat_triad_spec() -> cst.TriadSpec:
    eb = tuple(tuple(TrigPoly.constant(1.0 if a == i else 0.0) for i in range(3)) for a in range(3))
    K0 = tuple(tuple(TrigPoly() for _ in range(3)) for _ in range(3))
    return cst.TriadSpec(eb, K0)


def constant_k_spec(c: float) -> cst.TriadSpec:
    eb = tuple(tuple(TrigPoly.constant(1.0 if a == i else 0.0) for i in range(3)) for a in range(3))
    K = tuple(tuple(TrigPoly.constant(c if a == i else 0.0) for i in range(3)) for a in range(3))
    return cst.TriadSpec(eb, K)


LAPSE_PROBES = (
    _tp(0.5, (1.0, (1, 0, 0), 0.7)),
    _tp(-0.3, (0.8, (0, 1, 0), 1.9)),
    _tp(0.0, (0.6, (0, 0, 1), 0.2), (0.4, (1, 1, 0), 2.5)),
)

SHIFT_PROBES = (
    (_tp(0.0, (0.5, (0, 1, 0), 0.3)), _tp(0.0, (0.4, (1, 0, 0), 0.1)), _tp(0.2)),
    (_tp(0.3), _tp(0.0, (0.5, (0, 0, 1), 1.2)), _tp(0.0, (0.3, (1, 0, 0), 2.0))),
)


def trig_alpha_field(grid: Grid3) -> FormField:
    n = grid.n
    X, Y, Z = grid.coords()
    a = np.zeros((n, n, n, 1, 6))
    a[..., 0, :] = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    a[..., 0, 0] += 0.2 * np.cos(2 * np.pi * X + 0.3)
    a[..., 0, 3] += 0.15 * np.sin(2 * np.pi * Y)
    a[..., 0, 5] += 0.1 * np.cos(2 * np.pi * (X + Z))
    return FormField(grid, 0, 2, a)


def random_nondegenerate_coframe(rng, sig: Signature) -> np.ndarray:
    for _ in range(64):
        e = rng.normal(size=(3, 4))
        sv = np.linalg.svd(e, compute_uv=False)
        if sv[2] < 0.1 * sv[0]:
            continue
        g = np.einsum("ai,i,bi->ab", e, sig.eta, e)
        if abs(np.linalg.det(g)) > 1e-3:
            return e
    raise RuntimeError("failed to draw a nondegenerate coframe")


def random_offshell_state(rng, grid: Grid3, sig: Signature, gamma: float,
                          Lambda: float) -> cst.BoundaryState:
    espec = random_field_spec(rng, 1, 1, n_modes=1, amp=0.04, base=np.eye(3, 4))
    e = Coframe(espec.sample(grid), sig)
    om = random_field_spec(rng, 1, 2, n_modes=1, amp=0.2).sample(grid)
    return cst.certify(e, om, gamma, Lambda)


# ---------------------------------------------------------------------------
# algebra suite


def run_algebra(cfg: RunConfig) -> list:
    s = _Suite("algebra", cfg)

    worst = 0.0
    dets = {}
    for g in (0.5, 1.0, 2.0, 10.0):
        _, det = fiber.t_gamma_matrix(g, LORENTZIAN)
        expect = -((1 + g**-2) ** 3)
        dets[str(g)] = det
        worst = max(worst, abs(det - expect) / abs(expect))
    fdets = {}
    for al in (0.5, 1.0):
        _, det = fiber.f_alpha_matrix(al)
        fdets[str(al)] = det
        worst = max(worst, abs(det - (1 + al**2) ** 3) / (1 + al**2) ** 3)
    tol = cfg.tol("twist_determinant")
    s.check("twist-determinants", "pairing-matrix determinant -(1+1/g^2)^3; basis map (1+a^2)^3",
            {"rel_error": worst, "det_pairing": dets, "det_basis_map": fdets},
            worst <= tol and s.elapsed() < 1.0, tol)

    rng = s.rng()
    worst = 0.0
    for sig in (EUCLIDEAN, LORENTZIAN):
        S = fiber.star2_matrix(sig)
        for _ in range(60):
            a, b = rng.normal(size=6), rng.normal(size=6)
            l1 = S @ fiber.bracket2(a, b, sig)
            worst = max(worst,
                        np.abs(l1 - fiber.bracket2(S @ a, b, sig)).max(),
                        np.abs(l1 - fiber.bracket2(a, S @ b, sig)).max())
    tol = cfg.tol("star_cyclic")
    s.check("star-cyclic", "star[A,B] = [star A, B] = [A, star B]",
            {"max_residual": worst, "pairs": 120}, worst <= tol, tol)

    vals = {
        "euclid_+1": fiber.morphism_residual(1.0, EUCLIDEAN),
        "euclid_-1": fiber.morphism_residual(-1.0, EUCLIDEAN),
    }
    ok = all(v <= cfg.tol("morphism_zero") for v in vals.values())
    for g in (0.5, 1.0, 2.0):
        r = fiber.morphism_residual(g, LORENTZIAN)
        vals[f"lorentz_{g}"] = r
        ok = ok and r >= cfg.tol("morphism_floor")
    s.check("twist-morphism", "algebra morphism iff gamma^2 = sign(det eta)",
            vals, ok, None)

    worst = 0.0
    for sig in (EUCLIDEAN, LORENTZIAN):
        S = fiber.star2_matrix(sig)
        worst = max(worst, np.abs(S @ S - sig.s * np.eye(6)).max())
        Se = fiber.star2_matrix(sig, exact=True)
        prod = np.array([[sum(Se[i, k] * Se[k, j] for k in range(6)) for j in range(6)]
                         for i in range(6)])
        exact_ok = all(prod[i, j] == (sig.s if i == j else 0) for i in range(6) for j in range(6))
        worst = worst if exact_ok else np.inf
    tol = cfg.tol("star_square")
    s.check("star-squared", "star o star = sign(det eta) id, float and exact modes",
            {"max_residual": float(worst)}, worst <= tol, tol)

    rng = s.rng()
    worst_j = 0.0
    worst_d = 0.0
    for sig in (EUCLIDEAN, LORENTZIAN):
        for _ in range(60):
            a, b, c = (rng.normal(size=6) for _ in range(3))
            v = rng.normal(size=4)
            jac = (fiber.bracket2(a, fiber.bracket2(b, c, sig), sig)
                   + fiber.bracket2(b, fiber.bracket2(c, a, sig), sig)
                   + fiber.bracket2(c, fiber.bracket2(a, b, sig), sig))
            worst_j = max(worst_j, np.abs(jac).max())
            der = (fiber.act_on_vector(fiber.bracket2(a, b, sig), v, sig)
                   - fiber.act_on_vector(a, fiber.act_on_vector(b, v, sig), sig)
                   + fiber.act_on_vector(b, fiber.act_on_vector(a, v, sig), sig))
            worst_d = max(worst_d, np.abs(der).max())
    tol = cfg.tol("lie_axioms")
    s.check("bracket-axioms", "Jacobi identity and module derivation property",
            {"jacobi": worst_j, "derivation": worst_d},
            max(worst_j, worst_d) <= tol, tol)

    rng = s.rng()
    worst = 0.0
    for (k, m) in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2)):
        for _ in range(20):
            a = rng.normal(size=fiber.GRADE_DIMS[k])
            b = rng.normal(size=fiber.GRADE_DIMS[m])
            ab = fiber.wedge_comps(k, m, a, b)
            ba = fiber.wedge_comps(m, k, b, a)
            worst = max(worst, np.abs(ab - (-1.0) ** (k * m) * ba).max())
    # associativity on triples of vectors
    for _ in range(20):
        x, y, z = (rng.normal(size=4) for _ in range(3))
        l = fiber.wedge_comps(2, 1, fiber.wedge_comps(1, 1, x, y), z)
        r = fiber.wedge_comps(1, 2, x, fiber.wedge_comps(1, 1, y, z))
        worst = max(worst, np.abs(l - r).max())
    gram_rank = np.linalg.matrix_rank(fiber.TR_GRAM2)
    tol = cfg.tol("wedge_axioms")
    s.check("wedge-axioms", "graded anticommutativity, associativity, nondegenerate pairing",
            {"max_residual": worst, "tr_gram_rank": int(gram_rank)},
            worst <= tol and gram_rank == 6, tol)

    rng = s.rng()
    worst_sym = 0.0
    worst_cyc = 0.0
    for sig in (EUCLIDEAN, LORENTZIAN):
        for g in (0.5, 2.0, np.inf):
            for _ in range(25):
                a, b = rng.normal(size=6), rng.normal(size=6)
                ta, tb = fiber.t_gamma(a, g, sig), fiber.t_gamma(b, g, sig)
                worst_sym = max(worst_sym, abs(
                    fiber.tr_quad(fiber.wedge_comps(2, 2, ta, b))
                    - fiber.tr_quad(fiber.wedge_comps(2, 2, a, tb))))
                l1 = fiber.t_gamma(fiber.bracket2(a, b, sig), g, sig)
                worst_cyc = max(worst_cyc,
                                np.abs(l1 - fiber.bracket2(ta, b, sig)).max(),
                                np.abs(l1 - fiber.bracket2(a, tb, sig)).max())
    tol = cfg.tol("twist_symmetry")
    s.check("twist-symmetry", "Tr[T(a)^b] = Tr[a^T(b)]; T[a,b] = [Ta,b] = [a,Tb]",
            {"pairing_symmetry": worst_sym, "bracket_compat": worst_cyc},
            max(worst_sym, worst_cyc) <= tol, tol)

    from fractions import Fraction
    b12 = fiber.frac_array([1, 0, 0, 0, 0, 0])
    star_l = fiber.hodge_star2(b12, LORENTZIAN)
    star_e = fiber.hodge_star2(b12, EUCLIDEAN)
    b13 = fiber.frac_array([0, 1, 0, 0, 0, 0])
    br = fiber.bracket2(fiber.frac_array([1, 0, 0, 0, 0, 0]), b13, EUCLIDEAN)
    ok = (list(star_l) == [0, 0, 0, 0, 0, Fraction(-1)]
          and list(star_e) == [0, 0, 0, 0, 0, Fraction(1)]
          and list(br) == [0, 0, 0, Fraction(-1), 0, 0])
    s.check("exact-mode-conventions", "bit-certain star and bracket values on basis elements",
            {"star_lorentz_b12": [str(x) for x in star_l],
             "star_euclid_b12": [str(x) for x in star_e],
             "bracket_b12_b13": [str(x) for x in br]}, ok, None)
    return s.rows


# ---------------------------------------------------------------------------
# kernels suite


def run_kernels(cfg: RunConfig) -> list:
    s = _Suite("kernels", cfg)
    sig = s.sig

    rng = s.rng()
    frames = np.stack([random_nondegenerate_coframe(rng, sig) for _ in range(KERNEL_SAMPLES)])
    table_ok = True
    min_gap = np.inf
    worst_proj = 0.0
    worst_eq = 0.0
    for shape, expect_k, expect_r in (((1, 1), 0, 12), ((1, 2), 6, 12), ((2, 1), 6, 6)):
        split = wm.kernel_basis(frames, shape, sig)
        kdim = split.kernel_basis.shape[-1]
        rank = split.matrix.shape[-1] - kdim
        table_ok &= (kdim == expect_k and rank == expect_r)
        min_gap = min(min_gap, split.gap.min())
        worst_proj = max(
            worst_proj,
            np.abs(split.p @ split.p - split.p).max(),
            np.abs(split.p @ split.p_prime).max(),
            np.abs(split.p + split.p_prime - np.eye(split.p.shape[-1])).max(),
            np.abs(split.p_dagger @ split.p_dagger - split.p_dagger).max(),
        )
        if shape != (1, 1) and kdim:
            P, _ = wm.complete_frame(frames, sig)
            S = wm.domain_transform(P, *shape)
            k_e = np.linalg.solve(S, split.kernel_basis)
            worst_eq = max(worst_eq, np.abs(wm.kernel_equations(shape) @ k_e).max())
    gap_floor = cfg.tol("sv_gap")
    tol = cfg.tol("projector_algebra")
    s.check("kernel-table", "kernel dims 0/6/6 with ranks 12/12/6 over random coframes",
            {"frames": KERNEL_SAMPLES, "min_gap": float(min_gap), "projector_residual": worst_proj,
             "explicit_equation_residual": worst_eq},
            table_ok and min_gap >= gap_floor and worst_proj <= tol and worst_eq <= 1e-12,
            tol)

    rng = s.rng()
    frames = np.stack([random_nondegenerate_coframe(rng, sig) for _ in range(20)])
    worst = max(wm.annihilator_check(wm.kernel_basis(frames, shape, sig))["max_residual"]
                for shape in wm.SHAPES)
    tol = cfg.tol("annihilator")
    s.check("annihilator", "kernel annihilator realized as the image of the dual wedge map",
            {"max_residual": worst, "sites": 20}, worst <= tol, tol)

    rng = s.rng()
    frames, steps = [], []
    for _ in range(10):
        frames.append(random_nondegenerate_coframe(rng, sig))
        d = rng.normal(size=(3, 4))
        steps.append(1e-6 * d / np.abs(d).max())
    frames, steps = np.stack(frames), np.stack(steps)
    p, p_step = wm.kernel_basis(np.stack([frames, frames + steps]), (1, 2), sig).p
    worst_lin = (np.abs(p_step - p).max(axis=(-2, -1)) / np.abs(steps).max(axis=(-2, -1))).max()
    tol = cfg.tol("projector_smoothness")   # O(1) Lipschitz expected
    s.check("projector-smoothness", "projector family is Lipschitz in the coframe",
            {"max_ratio": worst_lin}, worst_lin <= tol, tol)

    # matrix realization cross-check against fiber-algebra wedge
    rng = s.rng()
    worst = 0.0
    for _ in range(10):
        e = random_nondegenerate_coframe(rng, sig)
        M = wm.wedge_matrix(e, (1, 2))
        x = rng.normal(size=18)
        direct = np.zeros((3, 4))
        # wedge X ^ e with X a bivector-valued 1-form, per 2-form components
        X = x.reshape(3, 6)
        for P, (a, b) in enumerate(eh.SPATIAL_PAIRS):
            direct[P] = (fiber.wedge_comps(2, 1, X[a], e[b])
                         - fiber.wedge_comps(2, 1, X[b], e[a]))
        worst = max(worst, np.abs(M @ x - direct.reshape(-1)).max())
    tol = cfg.tol("matrix_crosscheck")
    s.check("matrix-crosscheck", "wedge-map matrices reproduce the fiber-algebra product",
            {"max_residual": worst}, worst <= tol, tol)
    return s.rows


# ---------------------------------------------------------------------------
# reduction suite


def run_reduction(cfg: RunConfig) -> list:
    s = _Suite("reduction", cfg)
    sig = s.sig

    dims = {str(k): red.kernel_intersection_dim(k)
            for k in ((1, 1, 1), (1, 1, -1), (1, 1, 0), (1, -1, 0), (1, 0, 0), (0, 0, 0))}
    emb = red.kernel_intersection_dim_from_coframe(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]], LORENTZIAN)
    attainable_ok = (dims["(1, 1, 1)"] == 0 and dims["(1, 1, -1)"] == 0
                     and dims["(1, 1, 0)"] == 2 and dims["(1, -1, 0)"] == 2
                     and emb == 2)
    s.check("kernel-intersection", "dim K = 2 dim ker(g) at exactly constructed metrics",
            {"dims": dims, "embedded_110": emb}, attainable_ok, None)

    val = dims["(1, 0, 0)"]
    s.check("kernel-intersection-(1,0,0)", "stated value 4 at signature (1,0,0)",
            {"measured": val, "stated": 4,
             "note": "honest exact count of the kernel equations gives 3"},
            val == 4, None)

    rng = s.rng()
    rep = red.exact_sequence_check(
        np.stack([random_nondegenerate_coframe(rng, sig) for _ in range(20)]), sig)
    worst_wedge = float(rep.wedge_residual.max())
    worst_cont = float(max(rep.containment_residual.max(), rep.reverse_residual.max()))
    dims_ok = bool(np.all((rep.dim_kernel_12 == 6) & (rep.dim_image_bracket == 6)
                          & (rep.dim_kernel_21 == 6) & (rep.rank_w21 == 6)))
    tolw = cfg.tol("exact_sequence_wedge")
    tolc = cfg.tol("exact_sequence_containment")
    s.check("exact-sequence", "short exact sequence via the bracket-with-e map",
            {"wedge_residual": worst_wedge, "containment_residual": worst_cont,
             "sites": 20}, dims_ok and worst_wedge <= tolw and worst_cont <= tolc,
            tolc)

    det_std = red.phi_pairing_det_exact((1, 1, 1))
    rng = s.rng()
    min_det = np.inf
    for i in range(100):
        e = random_nondegenerate_coframe(rng, sig)
        g = np.einsum("ai,i,bi->ab", e, sig.eta, e)
        g = g / np.abs(np.linalg.det(g)) ** (1 / 3)
        min_det = min(min_det, abs(np.linalg.det(red.phi_matrix(g))))
    refused = False
    try:
        red.phi_frame(red.make_degenerate_coframe((1, 1, 0), LORENTZIAN), LORENTZIAN)
    except wm.ConditioningError:
        refused = True
    s.check("phi-isomorphism", "phi = p o [.,e] on the kernel is an isomorphism",
            {"exact_pairing_det_at_identity": str(det_std), "min_normalized_det": float(min_det),
             "degenerate_refused": refused},
            det_std != 0 and min_det > 1e-6 and refused, None)

    rng = s.rng()
    grid = Grid3(8)
    worst_struct = 0.0
    worst_gauge = 0.0
    worst_kernel = 0.0
    worst_idem = 0.0
    worst_cond = 0.0
    for i in range(OMEGA_TILDE_STATES):
        st = random_offshell_state(rng, grid, sig, cfg.gamma, cfg.Lambda)
        res = st.ot
        worst_struct = max(worst_struct, res.structural_residual)
        worst_cond = max(worst_cond, res.solver_conditioning)
        M12 = wm.wedge_matrix(st.e.data, (1, 2))
        v = res.v_tilde.data.reshape(grid.n, grid.n, grid.n, 18)
        worst_kernel = max(worst_kernel,
                           float(np.abs(np.einsum("...ij,...j->...i", M12, v)).max()))
        pack = cst.projector_pack(st.e)
        shift = cst.kernel_field_from_coords(rng.normal(size=(grid.n,) * 3 + (6,)), pack, grid)
        res2 = red.omega_tilde(st.e, st.omega + shift)
        worst_gauge = max(worst_gauge, (res2.omega_tilde - st.omega).sup_norm())
        res3 = red.omega_tilde(st.e, st.omega)
        worst_idem = max(worst_idem, (res3.omega_tilde - st.omega).sup_norm())
    tol_s = cfg.tol("structural_residual")
    tol_g = cfg.tol("gauge_invariance")
    tol_k = cfg.tol("kernel_wedge")
    tol_i = cfg.tol("idempotence")
    s.check("omega-tilde", "unique structural representative: p d_w~ e = 0, basic, idempotent",
            {"states": OMEGA_TILDE_STATES, "structural": worst_struct, "gauge_shift": worst_gauge,
             "kernel_wedge": worst_kernel, "idempotence": worst_idem,
             "max_condition": worst_cond},
            (worst_struct <= tol_s and worst_gauge <= tol_g and worst_kernel <= tol_k
             and worst_idem <= tol_i and s.elapsed() < 60.0), tol_s)

    rng = s.rng()
    st = random_offshell_state(rng, Grid3(4), sig, cfg.gamma, cfg.Lambda)
    pack = cst.projector_pack(st.e)
    worst = 0.0
    for _ in range(10):
        de1 = random_field_spec(rng, 1, 1, n_modes=1, amp=0.2).sample(st.grid)
        de2 = random_field_spec(rng, 1, 1, n_modes=1, amp=0.2).sample(st.grid)
        vt = cst.kernel_field_from_coords(rng.normal(size=(4, 4, 4, 6)), pack, st.grid)

        def bilinear(a, b):
            ex = wedge_fields(a, b)
            tex = t_gamma_field(ex, st.gamma, sig)
            return integrate(tr_quad_field(wedge_fields(tex, vt)))

        worst = max(worst, abs(bilinear(st.e.field * 0 + de1, de2) - bilinear(de2, de1)))
    tol = cfg.tol("slice_symplecto")
    s.check("structural-slice-pairing", "kernel-valued corrections drop out of the boundary pairing",
            {"max_antisymmetry": worst}, worst <= tol, tol)

    built = {}
    for signs in ((1, 1, 1), (1, 1, -1), (1, 1, 0)):
        e = red.make_degenerate_coframe(signs, LORENTZIAN)
        g = np.einsum("ai,i,bi->ab", e, LORENTZIAN.eta, e)
        built[str(signs)] = bool(np.allclose(g, np.diag(signs)))
    errors_ok = True
    for signs in ((1, -1, 0), (1, 0, 0), (0, 0, 0)):
        try:
            red.make_degenerate_coframe(signs, LORENTZIAN)
            errors_ok = False
        except ValueError:
            pass
    s.check("degenerate-coframes", "exact constructions and unattainable-signature rejection",
            {"built": built, "unattainable_rejected": errors_ok},
            all(built.values()) and errors_ok, None)
    return s.rows


# ---------------------------------------------------------------------------
# constraints suite


def run_constraints(cfg: RunConfig) -> list:
    s = _Suite("constraints", cfg)
    sig = s.sig
    gamma = cfg.gamma

    grid = Grid3(8)
    st_flat = cst.make_on_shell(flat_triad_spec(), grid, gamma, sig)
    alpha = trig_alpha_field(grid)
    mu4 = cst.smear_constant(grid, 1, [0, 0, 0, 1])
    flat_L = abs(cst.eval_L(st_flat, alpha))
    flat_J = abs(cst.eval_J(st_flat, mu4))
    s.check("flat-state", "flat triad with K = 0 gives exactly vanishing constraints",
            {"L": flat_L, "J": flat_J}, max(flat_L, flat_J) <= 1e-14, 1e-14)

    st_lam = cst.make_on_shell(flat_triad_spec(), grid, gamma, sig, Lambda=1.0)
    val = cst.eval_J(st_lam, mu4)
    s.check("cosmological-term", "Tr[mu ^ e^3] normalization: J = -6 Lambda at the flat state",
            {"J": val, "expected": -6.0}, abs(val + 6.0) <= 1e-12, 1e-12)

    c = 0.3
    lam = 0.2
    st_k = cst.make_on_shell(constant_k_spec(c), grid, gamma, sig, Lambda=lam)
    eta00 = -1.0 if sig.s == -1 else 1.0
    expected = 3.0 * eta00 * c**2 - 6.0 * lam
    val = cst.eval_J_infinity(st_k, mu4)
    s.check("constant-curvature", "constant-K closed form: J = 3 eta00 c^2 - 6 Lambda",
            {"J": val, "expected": expected}, abs(val - expected) <= 1e-12, 1e-12)

    # the acceptance states at 8^3 and 16^3, shared by on-shell-order2 and psi-on-shell
    spec = acceptance_triad_spec()
    on_shell = {n: cst.make_on_shell(spec, Grid3(n), gamma, sig, Lambda=0.1) for n in (8, 16)}
    Ls = {n: abs(cst.eval_L(st, trig_alpha_field(st.grid))) for n, st in on_shell.items()}
    ratio = Ls[8] / Ls[16]
    lo, hi = cfg.tol("order_low"), cfg.tol("order_high")
    s.check("on-shell-order2", "residual constraint converges at order 2 on trig states",
            {"L8": Ls[8], "L16": Ls[16], "ratio": ratio},
            lo <= ratio <= hi, None)

    rng = s.rng()
    st = random_offshell_state(rng, Grid3(4), sig, gamma, cfg.Lambda)
    a1 = rng.normal(size=6)
    a2 = rng.normal(size=6)
    m1 = rng.normal(size=4)
    m2 = rng.normal(size=4)
    g4 = st.grid
    lin_L = abs(cst.eval_L(st, cst.smear_constant(g4, 2, a1 + a2))
                - cst.eval_L(st, cst.smear_constant(g4, 2, a1))
                - cst.eval_L(st, cst.smear_constant(g4, 2, a2)))
    lin_J = abs(cst.eval_J(st, cst.smear_constant(g4, 1, m1 + m2))
                - cst.eval_J(st, cst.smear_constant(g4, 1, m1))
                - cst.eval_J(st, cst.smear_constant(g4, 1, m2)))
    tol = cfg.tol("linearity")
    s.check("linearity", "plumbing",
            {"L": lin_L, "J": lin_J}, max(lin_L, lin_J) <= tol, tol)

    psis = {n: cst.psi_alpha(st, trig_alpha_field(st.grid)).sup_norm()
            for n, st in on_shell.items()}
    ratio = psis[8] / max(psis[16], 1e-300)
    s.check("psi-on-shell", "the kernel part of the gauge field response vanishes on shell",
            {"psi8": psis[8], "psi16": psis[16], "ratio": ratio},
            psis[16] <= cfg.tol("psi_budget") and ratio > 2.0, None)

    rng = s.rng()
    st = random_offshell_state(rng, Grid3(4), sig, gamma, cfg.Lambda)
    pack = cst.projector_pack(st.e)
    alpha_c = cst.smear_constant(st.grid, 2, rng.normal(size=6))
    mu_c = cst.smear_constant(st.grid, 1, rng.normal(size=4))
    XL = cst.hamiltonian_vector_field(st, "L", alpha_c, pack)
    XJ = cst.hamiltonian_vector_field(st, "J", mu_c, pack)
    exact_xe = (XL.de - cst.act_field(alpha_c, st.e.field, sig)).sup_norm()
    worst_wedge = max(XL.wedge_residuals["X_omega"], XJ.wedge_residuals["X_omega"],
                      XJ.wedge_residuals["X_e"])
    worst_cv = max(XL.constraint_residual, XJ.constraint_residual)
    tol_w = cfg.tol("hvf_wedge")
    tol_cv = cfg.tol("constrained_variation")
    s.check("hamiltonian-fields", "defining wedge equations and constrained-variation relation",
            {"Xe_exactness": exact_xe, "wedge_residual": worst_wedge,
             "variation_residual": worst_cv},
            exact_xe <= 1e-13 and worst_wedge <= tol_w and worst_cv <= tol_cv, tol_w)

    # dimension inventory, recorded as metadata rather than asserted as an
    # equation: the local degrees-of-freedom count is prose, not a formula
    s.check("dimension-inventory", "recorded count: two local degrees of freedom",
            {"field_components_per_site": 24, "kernel_directions_per_site": 6,
             "constraint_densities_per_site": 10}, True, None)
    return s.rows


# ---------------------------------------------------------------------------
# brackets suite


def run_brackets(cfg: RunConfig) -> list:
    s = _Suite("brackets", cfg)
    sig = s.sig
    gamma = cfg.gamma
    grid = Grid3(4)

    ac = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    ac2 = np.array([-0.1, 0.4, 0.2, -0.3, 0.25, 0.15])
    mc = np.array([0.2, -0.3, 0.4, 0.6])
    mc2 = np.array([0.5, 0.1, -0.2, 0.3])

    rng = s.rng()
    st = random_offshell_state(rng, grid, sig, gamma, cfg.Lambda)
    alpha = cst.smear_constant(grid, 2, ac)
    alpha2 = cst.smear_constant(grid, 2, ac2)
    br, fd_err = cst.poisson_bracket(st, "L", alpha, "L", alpha2)
    rhs = cst.eval_L(st, cst.smear_constant(grid, 2, fiber.bracket2(ac2, ac, sig)))
    rel = abs(br - rhs) / max(abs(rhs), 1e-300)
    tol = cfg.tol("bracket_ll")
    s.check("gauge-algebra", "{L_a, L_a'} = L_[a',a] off shell",
            {"bracket": br, "rhs": rhs, "rel_error": rel, "fd_error": fd_err,
             "lhs_magnitude": abs(br)},
            rel <= tol and abs(rhs) > 1e-8, tol)

    spec = acceptance_triad_spec()
    st_on = cst.make_on_shell(spec, grid, gamma, sig, Lambda=0.1)
    mu = cst.smear_constant(grid, 1, mc)
    mu2 = cst.smear_constant(grid, 1, mc2)
    bJJ, _ = cst.poisson_bracket(st_on, "J", mu, "J", mu2)
    scale = 1.0 + abs(cst.eval_J(st_on, mu)) + abs(cst.eval_J(st_on, mu2))
    budget = cfg.tol("bracket_onshell_budget") * grid.h**2 * scale
    st_on8 = cst.make_on_shell(spec, Grid3(8), gamma, sig, Lambda=0.1)
    bJJ8, _ = cst.poisson_bracket(st_on8, "J", cst.smear_constant(Grid3(8), 1, mc),
                                  "J", cst.smear_constant(Grid3(8), 1, mc2))
    s.check("energy-brackets", "{J, J'} closes onto the residual constraint on shell",
            {"bracket_n4": bJJ, "bracket_n8": bJJ8, "budget_n4": budget,
             "J_scale": scale},
            abs(bJJ) <= budget and abs(bJJ8) < abs(bJJ), None)

    bLJ, _ = cst.poisson_bracket(st_on, "L", alpha, "J", mu)
    Jam = cst.eval_J(st_on, cst.smear_constant(grid, 1, fiber.act_on_vector(ac, mc, sig)))
    lpart = bLJ + Jam
    budget = cfg.tol("bracket_onshell_budget") * grid.h**2 * (1.0 + abs(Jam))
    s.check("mixed-bracket", "{L_a, J_mu} + J_[a,mu] reduces to an on-shell-vanishing term",
            {"bracket": bLJ, "J_bracketed": Jam, "l_part": lpart, "budget": budget},
            abs(lpart) <= budget and abs(Jam) > 1e-8, None)

    # derivative of a functional linear in e along a slice-tangent probe; the
    # probe 2-form is the pointwise dual of Y.de, so the exact value is the
    # squared L2 norm of Y.de, at least that of its constant offset
    rng = s.rng()
    st = random_offshell_state(rng, grid, sig, gamma, cfg.Lambda)
    pack = cst.projector_pack(st.e)
    de = random_field_spec(rng, 1, 1, n_modes=1, amp=0.1, base=0.1).sample(grid)
    dw = random_field_spec(rng, 1, 2, n_modes=1, amp=0.1).sample(grid)
    Y = cst.slice_tangent(st, de, cst._apply_sitewise(pack.p12_prime, dw), pack)
    probe = cst._unflat(cst._flat(de) @ cst._GRAM_23_11_INV, grid, 2, 3)

    def linear_functional(state):
        return integrate(tr_quad_field(wedge_fields(probe, state.e.field)))

    got, _ = cst.directional_derivative(st, linear_functional, Y)
    exact = integrate(tr_quad_field(wedge_fields(probe, Y.de)))
    tol = cfg.tol("fd_linear")
    s.check("fd-exactness", "plumbing",
            {"fd": got, "exact": exact, "error": abs(got - exact)},
            abs(got - exact) <= tol * max(1.0, abs(exact)) and abs(exact) > 1e-8, tol)
    return s.rows


# ---------------------------------------------------------------------------
# eh suite


def run_eh(cfg: RunConfig) -> list:
    s = _Suite("eh", cfg)
    sig = s.sig
    gamma = cfg.gamma
    spec = acceptance_triad_spec()

    # convergence levels: the config's grid list when it provides three or
    # more distinct sizes, otherwise the standard 8 -> 16 -> 32 ladder
    levels = sorted(set(cfg.grid_n)) if len(set(cfg.grid_n)) >= 3 else [8, 16, 32]
    n1, n2, n3 = levels[0], levels[1], levels[2]
    comps = {}
    for n in (n1, n2, n3):
        st = cst.make_on_shell(spec, Grid3(n), gamma, sig, Lambda=0.1)
        # the ratios read only the two mutual routes at n3, which need no probe
        probes = (LAPSE_PROBES, SHIFT_PROBES) if n != n3 else ((), ())
        comps[n] = eh.compare_pch_eh(st, *probes)
    lo, hi = cfg.tol("order_low"), cfg.tol("order_high")
    ratios = {
        "hamiltonian": comps[n1]["hamiltonian"] / comps[n2]["hamiltonian"],
        "momentum": comps[n1]["momentum"] / comps[n2]["momentum"],
        "gamma_independence": comps[n1]["gamma_independence"] / comps[n2]["gamma_independence"],
        "ricci_mutual": comps[n2]["ricci_mutual"] / comps[n3]["ricci_mutual"],
        "momentum_mutual": comps[n2]["momentum_mutual"] / comps[n3]["momentum_mutual"],
        "gamma_block": comps[n1]["gamma_residual"] / comps[n2]["gamma_residual"],
    }
    ok = all(lo <= r <= hi for r in ratios.values())
    s.check("reduction-convergence",
            "boundary functional matches the Hamiltonian/momentum densities at order 2; "
            "two Ricci and two momentum routes mutually converge; gamma drops on shell",
            {"ratios": {k: float(v) for k, v in ratios.items()},
             "levels": [n1, n2, n3],
             "deviations_mid": {k: float(v) for k, v in comps[n2].items()}},
            ok and s.elapsed() < 300.0, None)

    g = Grid3(8)
    X, Y, Z = g.coords()
    field = np.stack([harmonic(0.7, (1, 0, 0), 0.2).eval(X, Y, Z),
                      harmonic(0.5, (0, 1, 0), 1.0).eval(X, Y, Z),
                      harmonic(0.3, (1, 1, 1), 0.4).eval(X, Y, Z)], axis=-1)
    div_int = abs(eh.exact_divergence_integral(g, field))
    tol = cfg.tol("exact_divergence")
    s.check("closed-boundary-term", "discrete total derivative integrates to zero on the torus",
            {"integral": div_int}, div_int <= tol, tol)

    st = cst.make_on_shell(spec, g, gamma, sig, Lambda=0.0)
    frame = eh.orthonormal_frame(st.e.data, sig)
    eta_adapted = np.concatenate([frame.eta_bar, [frame.eta00]])
    V = frame.frame
    orth = np.abs(np.einsum("...ia,i,...ib->...ab", V, sig.eta, V)
                  - np.diag(eta_adapted)).max()
    recon = np.abs(np.einsum("...aj,...ij->...ai", frame.e_bar, V[..., :, :3])
                   - st.e.data).max()
    rng = s.rng()
    K = rng.normal(size=(g.n, g.n, g.n, 3, 3))
    K = 0.5 * (K + np.swapaxes(K, -1, -2))
    gmet = np.einsum("...ai,i,...bi->...ab", frame.e_bar, frame.eta_bar, frame.e_bar)
    Pi = eh.momentum_density_tensor(gmet, K, *eh.metric_inverse(gmet))
    K_back = eh.K_from_momentum(gmet, Pi)
    # the g^-1 / sqrt g reference stays on LAPACK inv/det, independent of the
    # adjugate (`inv3`) behind K_from_momentum and momentum_density_tensor
    ginv = np.linalg.inv(gmet)
    trPi = np.einsum("...ab,...ab->...", ginv, Pi)
    trK = np.einsum("...ab,...ab->...", ginv, K)
    sqrtg = np.sqrt(np.abs(np.linalg.det(gmet)))
    tr_rel = np.abs(trPi + sqrtg * trK).max()
    A = eh.a_from_K(frame.e_bar, frame.eta_bar, K)
    K_rt = eh.extrinsic_tensor(frame, A)
    det_res = eh.triad_determinant_identity_residual(frame.e_bar)
    worst = max(float(orth), float(recon), float(np.abs(K_back - K).max()),
                float(tr_rel), float(np.abs(K_rt - K).max()), det_res)
    tol = cfg.tol("eh_identities")
    s.check("adapted-frame-identities",
            "orthonormality, reconstruction, K <-> Pi round trips, triad determinant identity",
            {"frame_orthonormality": float(orth), "reconstruction": float(recon),
             "K_Pi_roundtrip": float(np.abs(K_back - K).max()),
             "trace_identity": float(tr_rel),
             "A_K_roundtrip": float(np.abs(K_rt - K).max()),
             "det_identity": det_res}, worst <= tol, tol)

    # gauge-fix flow consistency: rotate into the adapted frame, re-certify,
    # and compare the connection blocks with Gamma(ebar) + A
    split = eh.split_connection(st.omega, frame, g)
    e_rot = np.zeros_like(st.e.data)
    e_rot[..., :, :3] = frame.e_bar
    om_rot = eh.adapted_connection(split.gamma_part, split.a_part, g)
    st_rot = cst.certify(Coframe(FormField(g, 1, 1, e_rot), sig), om_rot, gamma, 0.0)
    frame2 = eh.orthonormal_frame(st_rot.e.data, sig)
    split2 = eh.split_connection(st_rot.omega, frame2, g)
    budget = cfg.tol("gaugefix_budget")
    s.check("gauge-fix-consistency",
            "rotating into the adapted frame and re-solving reproduces the block split",
            {"gamma_residual": split2.gamma_residual, "k_asymmetry": split2.k_asymmetry,
             "a_block_shift": float(np.abs(split2.a_part - split.a_part).max())},
            split2.gamma_residual <= budget
            and np.abs(split2.a_part - split.a_part).max() <= budget, budget)

    # off-shell split flags a large residual (negative control)
    rng = s.rng()
    st_off = random_offshell_state(rng, g, sig, gamma, 0.0)
    frame3 = eh.orthonormal_frame(st_off.e.data, sig)
    split3 = eh.split_connection(st_off.omega, frame3, g)
    refused = False
    try:
        eh.compare_pch_eh(st_off, LAPSE_PROBES[:1], SHIFT_PROBES[:1])
    except ValueError:
        refused = True
    s.check("off-shell-control", "off-shell states flagged and refused by the comparator",
            {"gamma_residual": split3.gamma_residual, "refused": refused},
            split3.gamma_residual > 0.01 and refused, None)
    return s.rows


# ---------------------------------------------------------------------------
# halfshell suite


def run_halfshell(cfg: RunConfig) -> list:
    s = _Suite("halfshell", cfg)
    sig = s.sig
    gamma = cfg.gamma if not math.isinf(cfg.gamma) else 1.0
    grid = Grid3(2)

    rng = s.rng()
    st = hs.sample_locus_state(grid, sig, gamma, rng)
    rep_full = hs.isotropy_diagnosis(st, full_locus=True)
    rep_t0 = hs.isotropy_diagnosis(st, full_locus=False)
    tol = cfg.tol("isotropy")
    s.check("isotropy", "projected Euler-Lagrange locus is isotropic but not Lagrangian",
            {"max_pairing": rep_full.max_pairing,
             "dim_tangent": rep_full.dim_tangent, "dim_orthogonal": rep_full.dim_orthogonal,
             "t0_dim_tangent": rep_t0.dim_tangent, "t0_dim_orthogonal": rep_t0.dim_orthogonal},
            (rep_full.max_pairing <= tol and rep_full.dim_orthogonal > rep_full.dim_tangent
             and rep_t0.lagrangian), tol)

    rng = s.rng()
    worst = 0.0
    tb0, _ = hs.hs_project(st)
    for _ in range(5):
        sigma = random_field_spec(rng, 1, 2, n_modes=1, amp=0.5).sample(grid)
        tb1, _ = hs.hs_project(hs.kernel_flow(st, sigma))
        worst = max(worst, (tb1 - tb0).sup_norm())
    tol = cfg.tol("kernel_flow")
    s.check("projection-invariance", "boundary data invariant under the multiplier kernel flow",
            {"max_shift": worst}, worst <= tol, tol)

    rng = s.rng()
    worst_rt = 0.0
    for _ in range(5):
        om_rand = random_field_spec(rng, 1, 2, n_modes=1, amp=0.5).sample(grid)
        tb = wedge_fields(t_gamma_field(om_rand, gamma, sig), st.e.field)
        om_rec, _ = hs.phi_symplecto(tb, st.e, gamma)
        tb2 = wedge_fields(t_gamma_field(om_rec, gamma, sig), st.e.field)
        worst_rt = max(worst_rt, (tb2 - tb).sup_norm())
    tol = cfg.tol("round_trip")
    s.check("symplectomorphism-roundtrip", "multiplier chart matches the reduced-connection chart",
            {"max_residual": worst_rt}, worst_rt <= tol, tol)

    rng = s.rng()
    om0, _ = hs.phi_symplecto(tb0, st.e, gamma)
    Tom = t_gamma_field(om0, gamma, sig)
    worst_pair = 0.0
    for _ in range(4):
        de1 = random_field_spec(rng, 1, 1, n_modes=1, amp=0.2).sample(grid)
        dw1 = random_field_spec(rng, 1, 2, n_modes=1, amp=0.2).sample(grid)
        de2 = random_field_spec(rng, 1, 1, n_modes=1, amp=0.2).sample(grid)
        dw2 = random_field_spec(rng, 1, 2, n_modes=1, amp=0.2).sample(grid)

        def dt(de, dw):
            return (wedge_fields(t_gamma_field(dw, gamma, sig), st.e.field)
                    + wedge_fields(Tom, de))

        lhs = hs.symplectic_form_hs((dt(de1, dw1), de1), (dt(de2, dw2), de2))
        # varpi_HS pulls back to -varpi of the plain boundary chart
        rhs = -cst.symplectic_form(st, cst.TangentVector(de1, dw1, "probe"),
                                   cst.TangentVector(de2, dw2, "probe"))
        worst_pair = max(worst_pair, abs(lhs - rhs))
    tol = cfg.tol("pairing_match")
    s.check("pairing-pullback", "pulled-back symplectic pairings agree",
            {"max_deviation": worst_pair}, worst_pair <= tol, tol)

    rng = s.rng()
    M12 = wm.wedge_matrix(st.e.data, (1, 2))
    _, _, vh = np.linalg.svd(M12)
    kern = vh[..., 12:, :]
    coeff = rng.normal(size=kern.shape[:-2] + (1, 6))
    sig_data = (coeff @ kern)[..., 0, :].reshape((grid.n,) * 3 + (3, 6))
    Tinv = np.linalg.inv(fiber.t_gamma_endo_matrix(gamma, sig))
    om_hs = FormField(grid, 1, 2, sig_data @ Tinv.T)
    hs_res, pch_res = hs.locus_residuals(st.e, om_hs, st.omega_ref, gamma)
    om_pch = st.omega_ref + om_hs
    hs2, pch2 = hs.locus_residuals(st.e, om_pch, st.omega_ref, gamma)
    # with t = 0 imposed, both membership tests reduce to the same expression
    om_r = random_field_spec(rng, 1, 2, n_modes=1, amp=0.4).sample(grid)
    diff = t_gamma_field(om_r - st.omega_ref, gamma, sig)
    t_bold_res = wedge_fields(diff, st.e.field).sup_norm()
    dvec = diff.data.reshape((grid.n,) * 3 + (18,))
    class_res = float(np.abs(np.einsum("...ij,...j->...i", M12, dvec)).max())
    coincide = abs(t_bold_res - class_res)
    floor = cfg.tol("loci_floor")
    tol = cfg.tol("loci_coincide")
    s.check("loci-inequivalence",
            "the two projected critical loci are not mapped into one another; "
            "they coincide when the multiplier vanishes on the boundary",
            {"hs_point": {"hs": hs_res, "pch": pch_res},
             "pch_point": {"hs": hs2, "pch": pch2},
             "coincide_residual": coincide},
            (hs_res <= 1e-10 and pch_res >= floor and pch2 <= 1e-10 and hs2 >= floor
             and coincide <= tol), tol)
    return s.rows


SUITE_FUNCS = {
    "algebra": run_algebra,
    "kernels": run_kernels,
    "reduction": run_reduction,
    "constraints": run_constraints,
    "brackets": run_brackets,
    "eh": run_eh,
    "halfshell": run_halfshell,
}


class SuiteAbort(RuntimeError):
    """A suite hit a hard error; carries the partial report and the cause."""

    def __init__(self, report: ConstraintReport, cause: BaseException):
        super().__init__(str(cause))
        self.report = report
        self.cause = cause


def run_suites(cfg: RunConfig, threads: int = 1) -> ConstraintReport:
    """Execute the selected suites in declared order; deterministic values.

    A hard error inside a suite aborts the run with a SuiteAbort carrying the
    partial report (completed suites plus an error row for the failed one).
    """
    report = ConstraintReport(config=cfg.as_dict())
    report.meta["threads"] = threads
    selected = [name for name in cfg.suites if name in SUITE_FUNCS]
    # a sequential run stays on the calling thread; a pool only supplies the results
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 and len(selected) > 1 else None
    futures = {name: pool.submit(SUITE_FUNCS[name], cfg) for name in selected} if pool else {}
    try:
        for name in selected:
            for row in futures[name].result() if pool else SUITE_FUNCS[name](cfg):
                report.add(row)
    except Exception as exc:
        report.add(CheckRow(
            id=f"{name}/aborted", anchor="plumbing", inputs_digest="",
            values={"error": f"{type(exc).__name__}: {exc}"},
            tolerance=None, passed=False, runtime_s=0.0))
        raise SuiteAbort(report, exc) from None
    finally:
        if pool:
            # an abort drops the suites that have not started; running ones finish
            pool.shutdown(cancel_futures=True)
    return report
