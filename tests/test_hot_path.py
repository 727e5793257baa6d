"""No per-site SVD, pseudo-inverse, inverse or determinant on the state, vector-field and EH paths.

cond(phi_e) comes from the spectrum of the boundary metric, the frame inverse
from the frame Gram, the wedge solves from fixed e-frame template inverses,
and every per-site 3x3 inverse and determinant from `wedgemaps.inv3`; this
test keeps a per-site LAPACK decomposition from coming back.  Single matrices
(ndim 2, such as the fixed pairing Grams) may still go through LAPACK.
"""

import numpy as np
import pytest

from pchgrav import constraints as cst
from pchgrav import ehdata as eh
from pchgrav.fiber import LORENTZIAN
from pchgrav.grid import Coframe, Grid3
from pchgrav.reduction import omega_tilde
from pchgrav.suites import LAPSE_PROBES, SHIFT_PROBES, acceptance_triad_spec, random_offshell_state


@pytest.fixture
def lapack_guard(monkeypatch):
    """Make np.linalg.svd and pinv raise, and inv and det raise on stacks of matrices."""
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
