"""No per-site SVD, pseudo-inverse, solve, inverse or determinant on the state, vector-field
and EH paths.

cond(phi_e) comes from the spectrum of the boundary metric, phi_e^-1 from its
Sym(3) formula in g and det g, the frame inverse from the frame Gram, the wedge solves from
fixed e-frame template inverses, and every per-site 3x3 inverse and
determinant from `wedgemaps.inv3`; this test keeps a per-site LAPACK
decomposition from coming back.  Single matrices (ndim 2, such as the fixed
pairing Grams) may still go through LAPACK.  The
FD-bracket path runs no eigensolve at all (the phi_e and coframe checks clear
well-conditioned sites by exact bounds), and the e-adapted frame holds no
per-site array larger than 6x6 and no phi_e^-1, and builds its transposes at each
use, holding none.  A bracket is the exact first variation at the state: it builds
no shifted state and no coframe, and solves for no structural representative.  The kernels
suite splits each shape once over a stack of coframes, and the EH ladder
evaluates J on no state whose deviations it does not read.  Each e-adapted
frame belongs to what it frames: a certification builds one for omega~ and
keeps none (nor the solve's record: a certified 32^3 state retains e and omega~
alone), a state builds its own with its first field and shares it with the
later ones, a half-shell state builds one for all its solves, and the reduction
suite's omega~ row solves three times on one frame per drawn state.  No public
function takes a frame beside its coframe.  omega~ differentiates
the coframe once for both of its covariant derivatives, and the exact kernel
count builds its bracket matrix from the unit table, with no object-dtype
contraction.  At 32^3, Lambda^2 P, Gamma(ebar), the coframe check's det G and the phi_e
screen are built in site blocks: their traced peaks stay within a small multiple of what
they return or read.
"""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

from pchgrav import constraints as cst
from pchgrav import ehdata as eh
from pchgrav import fiber
from pchgrav import halfshell as hs
from pchgrav import reduction as red
from pchgrav import suites
from pchgrav import wedgemaps as wm
from pchgrav.config import validate_config
from pchgrav.fiber import LORENTZIAN
from pchgrav.grid import Coframe, FormField, Grid3
from pchgrav.reduction import PhiFrame, omega_tilde
from pchgrav.suites import (LAPSE_PROBES, OMEGA_TILDE_STATES, SHIFT_PROBES,
                            acceptance_triad_spec, random_offshell_state, run_brackets,
                            run_eh, run_halfshell, run_kernels, run_reduction)


@pytest.fixture
def lapack_guard(monkeypatch):
    """Make np.linalg.svd and pinv raise, and solve, inv and det raise on stacks of matrices."""
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} on the hot path")
        return call

    def single_only(name, fn):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim > 2:
                raise AssertionError(f"per-site np.linalg.{name} of {a.shape} matrices")
            return fn(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    monkeypatch.setattr(np.linalg, "pinv", refuse("pinv"))
    monkeypatch.setattr(np.linalg, "solve", single_only("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", single_only("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "det", single_only("det", np.linalg.det))


def test_no_per_site_decomposition_on_the_hot_path(lapack_guard):
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=31)), Grid3(4),
                               LORENTZIAN, 1.0, 0.1)
    mu = cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4])
    e = Coframe(st.e.field, st.sig)
    assert omega_tilde(e, st.omega).structural_residual <= 1e-9
    cst.projector_pack(e)
    X = cst.hamiltonian_vector_field(st, "J", mu)
    assert max(X.wedge_residuals.values()) <= 1e-12


def test_no_per_site_inverse_on_the_eh_path(lapack_guard):
    st = cst.make_on_shell(acceptance_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    out = eh.compare_pch_eh(st, LAPSE_PROBES[:1], SHIFT_PROBES[:1])
    assert all(np.isfinite(v) for v in out.values())


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_no_eigensolve_on_the_fd_bracket_path(eigvalsh_calls):
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=31)), Grid3(4),
                               LORENTZIAN, 1.0, 0.1)
    mu = cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4])
    mu2 = cst.smear_constant(st.grid, 1, [-0.1, 0.6, 0.2, -0.3])
    value, err = cst.poisson_bracket(st, "J", mu, "J", mu2)
    assert np.isfinite(value) and eigvalsh_calls == []
    # the worst condition number is computed from the full spectrum when read
    assert omega_tilde(st.e, st.omega).solver_conditioning > 1.0
    assert eigvalsh_calls


def test_projector_pack_holds_no_dense_projector():
    st = random_offshell_state(np.random.Generator(np.random.Philox(key=31)), Grid3(4),
                               LORENTZIAN, 1.0, 0.1)
    pack = cst.projector_pack(st.e)
    sites = st.grid.n ** 3
    arrays = [v for v in vars(pack).values() if isinstance(v, np.ndarray)]
    assert len(arrays) >= 6
    assert max(a.size for a in arrays) <= 36 * sites


#: what a certified state holds until a derived field is read
STATE_FIELDS = {"e", "omega", "gamma", "Lambda", "on_shell"}


def _offshell_state():
    return random_offshell_state(np.random.Generator(np.random.Philox(key=31)), Grid3(4),
                                 LORENTZIAN, 1.0, 0.1)


@pytest.fixture
def built_frames(monkeypatch) -> list:
    """Every e-adapted frame built while the test runs, in order."""
    frames, phi_frame = [], red.phi_frame

    def recorded(e, sig):
        frames.append(phi_frame(e, sig))
        return frames[-1]

    monkeypatch.setattr(red, "phi_frame", recorded)
    return frames


def test_states_build_their_frame_on_first_use(built_frames):
    st = _offshell_state()
    # the certification builds one frame for omega~ and keeps none
    assert len(built_frames) == 1
    assert set(vars(st)) == STATE_FIELDS
    # the first field builds the state's frame; a second field, psi and a slice tangent share it
    X = cst.hamiltonian_vector_field(st, "J", cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4]))
    assert len(built_frames) == 2 and st.frame is built_frames[1]
    # the kept frame holds its fields and no transpose or Lambda^2(P^-1) that a field used
    assert set(vars(st.frame)) == {f.name for f in dataclasses.fields(PhiFrame)}
    assert st.frame.e is st.e.data
    alpha = cst.smear_constant(st.grid, 2, [0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    cst.hamiltonian_vector_field(st, "L", alpha)
    cst.psi_alpha(st, alpha)
    cst.slice_tangent(st, X.de, cst._apply_sitewise(st.frame.p12_prime, X.domega))
    assert len(built_frames) == 2
    # the EH comparison asks for no field; an L field first builds the frame too
    on = cst.make_on_shell(acceptance_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    assert len(built_frames) == 3
    eh.compare_pch_eh(on, LAPSE_PROBES[:1], SHIFT_PROBES[:1])
    assert len(built_frames) == 3 and "frame" not in vars(on)
    cst.hamiltonian_vector_field(on, "L", alpha)
    assert len(built_frames) == 4 and on.frame is built_frames[3]


def test_halfshell_suite_builds_one_frame(built_frames):
    rows = run_halfshell(validate_config({"suites": ["halfshell"]}))
    assert all(r.passed for r in rows)
    assert len(built_frames) == 1


def test_brackets_suite_builds_one_frame_per_state_with_a_field(built_frames, monkeypatch):
    # mixed-bracket reuses the frame of the 4^3 on-shell state of energy-brackets
    certified, fielded = [], []
    certify, projector_pack = cst.certify, cst.projector_pack

    def counted_certify(*args, **kwargs):
        certified.append(certify(*args, **kwargs))
        return certified[-1]

    def counted_pack(e):
        fielded.append(e)
        return projector_pack(e)

    monkeypatch.setattr(cst, "certify", counted_certify)
    monkeypatch.setattr(cst, "projector_pack", counted_pack)
    rows = run_brackets(validate_config({"suites": ["brackets"]}))
    assert all(r.passed for r in rows)
    assert len(fielded) == len({id(e) for e in fielded}) == 4
    # every other frame is the omega~ solve of a certification
    assert len(built_frames) == len(certified) + len(fielded)


def test_no_public_function_takes_a_frame_beside_its_coframe():
    """A frame is built from its coframe by the object that owns it, so no caller can pair
    a frame with another coframe.  The one exception is `kernel_field_from_coords`, the
    coframe-level entry point that perfbench/workloads.py calls with `projector_pack`."""
    takes_frame = []
    for module in (cst, red, hs):
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")
                    and {"pack", "frame"} & set(inspect.signature(fn).parameters)):
                takes_frame.append(f"{module.__name__}.{name}")
    assert takes_frame == ["pchgrav.constraints.kernel_field_from_coords"]


def _field_phi_solves(st, monkeypatch, kind="J") -> list:
    """The phi_e^-1 applications of one Hamiltonian vector field of the kind at st, each with
    the kernel chain method that made it (None outside them) and its Sym(3) operand shape."""
    solves, callers, phi_inverse = [], [], red._phi_inverse

    def counted_inverse(T, g, det_g):
        solves.append((callers[-1] if callers else None, T.shape[-2:]))
        return phi_inverse(T, g, det_g)

    def counted(name):
        apply = getattr(PhiFrame, name)

        def call(self, x):
            callers.append(name)
            try:
                return apply(self, x)
            finally:
                callers.pop()
        return call

    monkeypatch.setattr(red, "_phi_inverse", counted_inverse)
    for name in ("kernel_correction", "kernel_correction_T"):
        monkeypatch.setattr(PhiFrame, name, counted(name))
    smearing = (cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4]) if kind == "J" else
                cst.smear_constant(st.grid, 2, [0.3, -0.2, 0.5, 0.1, -0.4, 0.2]))
    X = cst.hamiltonian_vector_field(st, kind, smearing)
    assert max(X.wedge_residuals.values()) <= 1e-12
    return sorted(solves)


# A(X_e) and the adjoint covector of A+, each through the Sym(3) formula for phi_e^-1
# (the guard refuses a per-site np.linalg.solve); B o p' = 0 takes none
TWO_PHI_SOLVES = [("kernel_correction", (3, 3)), ("kernel_correction_T", (3, 3))]


def test_offshell_j_field_solves_phi_twice(lapack_guard, monkeypatch):
    assert _field_phi_solves(_offshell_state(), monkeypatch) == TWO_PHI_SOLVES


def test_onshell_j_field_solves_phi_twice(lapack_guard, monkeypatch):
    # the adjoint corrections are assembled on shell too: the discrete on-shell
    # state keeps O(h^2) torsion
    st = cst.make_on_shell(acceptance_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    assert _field_phi_solves(st, monkeypatch) == TWO_PHI_SOLVES


def test_l_field_solves_phi_once(lapack_guard, monkeypatch):
    # A(X_e) alone: the L field has no adjoint correction
    assert (_field_phi_solves(_offshell_state(), monkeypatch, "L")
            == [("kernel_correction", (3, 3))])


def test_make_on_shell_inverts_the_triad_once(monkeypatch):
    calls, inv3 = [], wm.inv3

    def counted(a):
        calls.append(np.shape(a))
        return inv3(a)

    monkeypatch.setattr(wm, "inv3", counted)
    monkeypatch.setattr(eh, "inv3", counted)
    cst.make_on_shell(acceptance_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    # the triad once for Gamma(ebar) and A(K), the boundary metric once in omega~
    assert calls == [(4, 4, 4, 3, 3)] * 2


def test_bracket_certifies_nothing_and_builds_no_shifted_state(monkeypatch):
    st = _offshell_state()
    mu = cst.smear_constant(st.grid, 1, [0.3, -0.2, 0.5, 0.4])
    mu2 = cst.smear_constant(st.grid, 1, [-0.1, 0.6, 0.2, -0.3])

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} in a bracket")
        return call

    monkeypatch.setattr(cst, "certify", refuse("certify"))
    monkeypatch.setattr(cst, "omega_tilde", refuse("omega_tilde"))
    monkeypatch.setattr(red, "omega_tilde", refuse("omega_tilde"))
    monkeypatch.setattr(PhiFrame, "omega_tilde", refuse("PhiFrame.omega_tilde"))
    monkeypatch.setattr(cst, "shifted_state", refuse("shifted_state"))
    monkeypatch.setattr(cst, "Coframe", refuse("Coframe"))
    value, err = cst.poisson_bracket(st, "J", mu, "J", mu2)
    assert np.isfinite(value) and err <= 1e-12 * max(1.0, abs(value))


def _stencil_at(st, G, X, t):
    """The five-point stencil of `constraints.directional_derivative` at the step t."""
    Gk = {k: G(cst.shifted_state(st, k * t, X.de, X.domega)) for k in (1, -1, 2, -2, 4, -4)}
    d = [(8 * (Gk[a] - Gk[-a]) - (Gk[2 * a] - Gk[-2 * a])) / (12 * a * t) for a in (1, 2)]
    return d[0], abs(d[0] - d[1])


@pytest.mark.parametrize("kind,smear,smear2", [
    ("J", [0.2, -0.3, 0.4, 0.6], [0.5, 0.1, -0.2, 0.3]),
    ("L", [0.3, -0.2, 0.5, 0.1, -0.4, 0.2], [-0.1, 0.4, 0.2, -0.3, 0.25, 0.15]),
], ids=["JJ", "LL"])
def test_bracket_stencil_is_step_independent(kind, smear, smear2):
    st = _offshell_state()
    grade = 1 if kind == "J" else 2
    X = cst.hamiltonian_vector_field(st, kind, cst.smear_constant(st.grid, grade, smear))
    smearing = cst.smear_constant(st.grid, grade, smear2)
    G = (lambda s: cst.eval_J(s, smearing)) if kind == "J" else (lambda s: cst.eval_L(s, smearing))
    value, err = cst.directional_derivative(st, G, X)
    scale = max(st.e.field.sup_norm(), st.omega.sup_norm())
    t = 1e-2 * scale / max(X.de.sup_norm(), X.domega.sup_norm())
    assert _stencil_at(st, G, X, t) == (value, err)
    # each error is one sample of the roundoff at its step; a truncation error
    # would not cancel between the two steps
    small, small_err = _stencil_at(st, G, X, t / 10)
    assert abs(small - value) <= 10 * (err + small_err)


def test_kernels_rows_split_each_shape_once(monkeypatch):
    splits, frames = [], []
    kernel_basis, phi_frame = wm.kernel_basis, red.phi_frame

    def counted_split(e, shape):
        splits.append((shape, np.shape(e)))
        return kernel_basis(e, shape)

    def counted_frame(e, sig):
        frames.append(np.shape(e))
        return phi_frame(e, sig)

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"np.linalg.{name} in the kernels suite")
        return call

    monkeypatch.setattr(wm, "kernel_basis", counted_split)
    monkeypatch.setattr(red, "phi_frame", counted_frame)
    for name in ("inv", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    rows = run_kernels(validate_config({"suites": ["kernels"]}))
    assert all(r.passed for r in rows)
    # kernel-table over 100 frames, annihilator over 20; the projectors come from one
    # frame of the kernel-table's coframes and one of the stacked (e, e + d)
    assert splits == ([(shape, (100, 3, 4)) for shape in wm.SHAPES]
                      + [(shape, (20, 3, 4)) for shape in wm.SHAPES])
    assert frames == [(100, 3, 4), (2, 10, 3, 4)]


def test_l2p_inv_builds_no_compound_matrix(monkeypatch):
    e = np.stack([suites.random_nondegenerate_coframe(np.random.Generator(np.random.Philox(key=5)),
                                                      LORENTZIAN) for _ in range(4)])
    pf = red.phi_frame(e, LORENTZIAN)

    def refuse(*args, **kwargs):
        raise AssertionError("compound_matrix for Lambda^2(P^-1)")

    monkeypatch.setattr(wm, "compound_matrix", refuse)
    monkeypatch.setattr(red, "compound_matrix", refuse)
    assert np.abs(pf.L2P_inv @ pf.L2P - np.eye(6)).max() <= 1e-12


def test_eh_ladder_evaluates_no_J_on_the_finest_state(monkeypatch):
    grids, eval_J = [], cst.eval_J

    def counted(state, mu, gamma=None):
        grids.append(state.grid.n)
        return eval_J(state, mu, gamma)

    monkeypatch.setattr(cst, "eval_J", counted)
    st = cst.make_on_shell(acceptance_triad_spec(), Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)
    out = eh.compare_pch_eh(st, (), ())
    assert grids == [] and set(out) == {"ricci_mutual", "momentum_mutual",
                                        "gamma_residual", "k_asymmetry"}
    rows = run_eh(validate_config({"suites": ["eh"], "grid_n": [4, 8, 16]}))
    assert rows[0].values["levels"] == [4, 8, 16]
    assert set(grids) == {4, 8}


def test_omega_tilde_row_builds_one_frame_per_state(monkeypatch):
    built, phi_frame = [], red.phi_frame
    per_row, check = {}, suites._Suite.check

    def counted(e, sig):
        built.append(np.shape(e))
        return phi_frame(e, sig)

    def checked(self, cid, *args, **kwargs):
        per_row[cid] = len(built) - sum(per_row.values())
        return check(self, cid, *args, **kwargs)

    monkeypatch.setattr(red, "phi_frame", counted)
    monkeypatch.setattr(suites._Suite, "check", checked)
    rows = run_reduction(validate_config({"suites": ["reduction"]}))
    assert [r.id for r in rows if not r.passed] == ["reduction/kernel-intersection-(1,0,0)"]
    assert per_row["omega-tilde"] == OMEGA_TILDE_STATES


def test_omega_tilde_differentiates_the_coframe_once(monkeypatch):
    degrees, ext_deriv = [], red.ext_deriv

    def counted(f):
        degrees.append((f.p, f.grade))
        return ext_deriv(f)

    monkeypatch.setattr(red, "ext_deriv", counted)
    _offshell_state()
    assert degrees == [(1, 1)]


def test_exact_kernel_count_contracts_no_object_arrays(monkeypatch):
    bilinear_matrix = fiber.bilinear_matrix

    def float_only(T, y):
        if np.asarray(y).dtype == object:
            raise AssertionError("object-dtype bilinear_matrix in the exact kernel count")
        return bilinear_matrix(T, y)

    monkeypatch.setattr(fiber, "bilinear_matrix", float_only)
    dims = [red.kernel_intersection_dim(g)
            for g in ((1, 1, 1), (1, 1, -1), (1, 1, 0), (1, -1, 0), (1, 0, 0), (0, 0, 0))]
    assert dims == [0, 0, 2, 2, 3, 6]


def _traced_peak(f):
    """(result, traced peak allocation of the call above its start, in bytes)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_site_block_kernels_build_no_large_temporaries():
    grid, spec = Grid3(32), acceptance_triad_spec()
    P = np.random.Generator(np.random.Philox(key=32)).normal(size=(32, 32, 32, 4, 4))
    l2p, peak = _traced_peak(lambda: wm.compound_matrix(P))
    assert peak <= 2 * l2p.nbytes
    eb, _ = spec.sample(grid)
    C, e_inv = spec.anholonomy(grid), wm.inv3(eb)[0]
    gamma, peak = _traced_peak(lambda: eh.gamma_block(eb, np.ones(3), grid, C=C, e_inv=e_inv))
    assert peak <= 6 * gamma.nbytes
    # the whole cofactor matrix of the Gram at once would peak near 5 times the coframe
    e = FormField(grid, 1, 1, eb @ np.eye(3, 4))
    _, peak = _traced_peak(lambda: Coframe(e, LORENTZIAN))
    assert peak <= 1.5 * e.data.nbytes
    # and the phi_e screen's cofactors of all of g at once near 6 times g
    g = (e.data * LORENTZIAN.eta) @ np.swapaxes(e.data, -1, -2)
    cleared, peak = _traced_peak(lambda: red._phi_cleared(g))
    assert cleared.all() and peak <= 0.5 * g.nbytes


def test_certified_state_retains_only_its_fields():
    spec = acceptance_triad_spec()
    cst.make_on_shell(spec, Grid3(4), 1.0, LORENTZIAN, Lambda=0.1)     # module caches built
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        st = cst.make_on_shell(spec, Grid3(32), 1.0, LORENTZIAN, Lambda=0.1)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # no frame and no record of the omega~ solve: e and omega~ alone
    assert set(vars(st)) == STATE_FIELDS
    assert retained <= 1.1 * (st.e.data.nbytes + st.omega.data.nbytes)
    assert st.torsion is st.torsion and set(vars(st)) == STATE_FIELDS | {"torsion"}
