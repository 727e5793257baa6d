"""The pchgrav benchmark workloads and their correctness gate.

A workload's set-up is `prepare()`, which writes its inputs to a work
directory, followed by the constructor, which reads them back; both take the
imported `pchgrav` package and the run seed.  Then `run()` is one timed pass, `check()` turns the
outputs of a pass into (attempted, failures, digest), and `seed_probe()`
lists the gate failures on inputs drawn from the run seed where the timed
inputs are not (`input_seed` is the seed those come from).  The gate
functions below do not depend on the seed.  The digest covers the numbers a
pass produced, so passes and runs of the same code on the same inputs can
be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np

SIGNATURE = "lorentzian"
GAMMA = 1.0
LAMBDA = 0.1

# ---------------------------------------------------------------------------
# gate


VERIFY_ROW_IDS = (
    "algebra/twist-determinants", "algebra/star-cyclic", "algebra/twist-morphism",
    "algebra/star-squared", "algebra/bracket-axioms", "algebra/wedge-axioms",
    "algebra/twist-symmetry", "algebra/exact-mode-conventions",
    "kernels/kernel-table", "kernels/annihilator", "kernels/projector-smoothness",
    "kernels/matrix-crosscheck",
    "reduction/kernel-intersection", "reduction/kernel-intersection-(1,0,0)",
    "reduction/exact-sequence", "reduction/phi-isomorphism", "reduction/omega-tilde",
    "reduction/structural-slice-pairing", "reduction/degenerate-coframes",
    "constraints/flat-state", "constraints/cosmological-term",
    "constraints/constant-curvature", "constraints/on-shell-order2",
    "constraints/linearity", "constraints/psi-on-shell", "constraints/hamiltonian-fields",
    "constraints/dimension-inventory",
    "brackets/gauge-algebra", "brackets/energy-brackets", "brackets/mixed-bracket",
    "brackets/fd-exactness",
    "eh/reduction-convergence", "eh/closed-boundary-term", "eh/adapted-frame-identities",
    "eh/gauge-fix-consistency", "eh/off-shell-control",
    "halfshell/isotropy", "halfshell/projection-invariance",
    "halfshell/symplectomorphism-roundtrip", "halfshell/pairing-pullback",
    "halfshell/loci-inequivalence",
)
# the strict-xfail signature: an honest FAIL row, not a regression
EXPECTED_FAIL = "reduction/kernel-intersection-(1,0,0)"
VERIFY_EXIT_CODE = 1

BRACKET_LL_TOL = 1e-4       # the brackets suite's `bracket_ll`
HVF_WEDGE_TOL = 1e-8
HVF_CONSTRAINT_TOL = 1e-9
OMEGA_TILDE_TOL = 1e-12     # relative, shifted versus unshifted connection

# (name, columns) of the reduce tables, in CSV column order after i, j, k
REDUCE_TABLES = (("g", 9), ("K", 9), ("Pi", 9), ("R_scalar", 1), ("H_density", 1),
                 ("M_density", 3))


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def verify_values_digest(report: dict) -> str:
    values = {row["id"]: row["values"] for row in report["rows"]}
    return digest(json.dumps(values, sort_keys=True))


def check_verify_report(exit_code, report: dict) -> list:
    """Failures of one `pchgrav verify` call on the default config."""
    failures = []
    if exit_code != VERIFY_EXIT_CODE:
        failures.append(f"verify exit code {exit_code}, expected {VERIFY_EXIT_CODE}")
    ids = [row["id"] for row in report.get("rows", ())]
    if sorted(ids) != sorted(VERIFY_ROW_IDS):
        missing = sorted(set(VERIFY_ROW_IDS) - set(ids))
        extra = sorted(set(ids) - set(VERIFY_ROW_IDS))
        failures.append(f"verify rows differ: missing {missing}, extra {extra}, "
                        f"{len(ids)} rows")
    failed = sorted(row["id"] for row in report.get("rows", ()) if not row["passed"])
    if failed != [EXPECTED_FAIL]:
        failures.append(f"verify FAIL rows {failed}, expected [{EXPECTED_FAIL!r}]")
    return failures


def array_digest(a: np.ndarray) -> str:
    return digest(str(a.dtype), a.shape, np.ascontiguousarray(a).tobytes())


def check_field_digest(load_field, path, expected: str) -> list:
    """The field file at `path` loads to the array whose digest is `expected`."""
    try:
        field, _ = load_field(path)
    except Exception as exc:
        return [f"{Path(path).name}: unreadable ({type(exc).__name__}: {exc})"]
    if array_digest(field.data) != expected:
        return [f"{Path(path).name}: does not round-trip bit-exactly"]
    return []


def check_tables_agree(json_path, csv_path) -> list:
    """The JSON and CSV outputs of `pchgrav reduce` hold the same finite tables."""
    try:
        with open(json_path) as fh:
            out = json.load(fh)
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        n = out["n"]
        tables = [np.asarray(out["tables"][name], dtype=float).reshape(-1, width)
                  for name, width in REDUCE_TABLES]
    except Exception as exc:
        return [f"reduce tables unreadable ({type(exc).__name__}: {exc})"]
    index = np.indices((n, n, n)).reshape(3, -1).T
    if rows.shape != (n**3, 3 + sum(w for _, w in REDUCE_TABLES)):
        return [f"reduce CSV has shape {rows.shape} for n = {n}"]
    failures = []
    if not np.array_equal(rows[:, :3], index):
        failures.append("reduce CSV site indices out of order")
    col = 3
    for (name, width), table in zip(REDUCE_TABLES, tables):
        if not np.all(np.isfinite(table)):
            failures.append(f"reduce table {name} is not finite")
        if not np.array_equal(rows[:, col:col + width], table):
            failures.append(f"reduce JSON and CSV disagree on {name}")
        col += width
    return failures


# ---------------------------------------------------------------------------
# workloads


def _quiet(fn, *args):
    """Call `fn` with its standard output discarded (the CLI prints progress)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Workload:
    @classmethod
    def prepare(cls, pg, seed: int, workdir: Path) -> None:
        """Write the inputs that the constructor reads (nothing by default)."""


class VerifyDefault(Workload):
    """`pchgrav verify` on the default config `{}` (ROADMAP aim 1).

    The run seed does not enter the timed config: `pchgrav verify` reports
    false FAIL rows (kernel-table, exact-sequence, projector-smoothness) for
    many seeds other than the default.  `seed_probe` measures that instead.
    """

    name = "verify-default"
    grid_sizes = (8, 16, 32)      # config grid_n = [8]; the EH ladder adds 16 and 32
    ops_per_pass = 1
    input_seed = 1                # the config default

    @classmethod
    def prepare(cls, pg, seed: int, workdir: Path) -> None:
        (workdir / "verify-config.json").write_text("{}")

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.seed = seed
        self.workdir = workdir
        self.config = workdir / "verify-config.json"
        self.out = workdir / "verify-report.json"

    def _verify(self, config: Path):
        self.out.unlink(missing_ok=True)
        return _quiet(self.pg.cli.main, ["verify", "--config", str(config),
                                         "--out", str(self.out), "--threads", "1"])

    def run(self):
        return self._verify(self.config)

    def check(self, exit_code):
        try:
            with open(self.out) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return 1, [f"verify report unreadable ({type(exc).__name__}: {exc})"], None
        return 1, check_verify_report(exit_code, report), verify_values_digest(report)

    def seed_probe(self) -> list:
        """FAIL rows, other than the expected one, of every suite but the slow
        `eh` suite run with the run seed."""
        config = self.workdir / "verify-seed-probe.json"
        suites = [name for name in self.pg.config.ALL_SUITES if name != "eh"]
        config.write_text(json.dumps({"seed": self.seed, "suites": suites}))
        try:
            self._verify(config)
            with open(self.out) as fh:
                rows = json.load(fh)["rows"]
        except Exception as exc:
            return [f"verify seed {self.seed}: {type(exc).__name__}: {exc}"]
        return [f"verify seed {self.seed}: {row['id']} FAIL" for row in rows
                if not row["passed"] and row["id"] != EXPECTED_FAIL]


# smearings of the brackets suite
ALPHA = (0.3, -0.2, 0.5, 0.1, -0.4, 0.2)
ALPHA2 = (-0.1, 0.4, 0.2, -0.3, 0.25, 0.15)
MU = (0.2, -0.3, 0.4, 0.6)
MU2 = (0.5, 0.1, -0.2, 0.3)
# label -> (F kind, F smearing, G kind, G smearing) of {F, G}
BRACKETS = {
    "LL": ("L", "alpha", "L", "alpha2"),
    "LJ": ("L", "alpha", "J", "mu"),
    "JJ": ("J", "mu", "J", "mu2"),
}


class BracketsOffshell(Workload):
    """FD brackets {L,L'}, {L,J}, {J,J'} on random off-shell states.

    The timed states are drawn with the default verify seed: for some other
    seeds a {J,J'} bracket raises RichardsonError (roundoff above the
    Richardson floor) or L_[a',a] nearly vanishes, which leaves the {L,L'}
    identity untestable.  `seed_probe` runs the same pass with the run seed.
    """

    name = "brackets-offshell"
    grid_sizes = (4, 8, 12)
    ops_per_pass = len(grid_sizes) * (1 + len(BRACKETS))   # states and brackets
    input_seed = 1

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.seed = seed
        self.sig = pg.fiber.signature_from_name(SIGNATURE)
        smear = pg.constraints.smear_constant
        self.inputs = []
        for n in self.grid_sizes:
            g = pg.grid.Grid3(n)
            smearings = {"alpha": smear(g, 2, ALPHA), "alpha2": smear(g, 2, ALPHA2),
                         "mu": smear(g, 1, MU), "mu2": smear(g, 1, MU2)}
            self.inputs.append((g, smearings))
        self._hvf_checked = False

    def run(self, seed=None):
        """Per grid: (state, {label: (value, fd_error) or the exception raised})."""
        cst, suites = self.pg.constraints, self.pg.suites
        seed = self.input_seed if seed is None else seed
        results = []
        for g, sm in self.inputs:
            rng = self.pg.rng.stream(seed, f"perfbench/{self.name}", g.n)
            state = suites.random_offshell_state(rng, g, self.sig, GAMMA, LAMBDA)
            brackets = {}
            for label, (fk, fs, gk, gs) in BRACKETS.items():
                try:
                    brackets[label] = cst.poisson_bracket(state, fk, sm[fs], gk, sm[gs])
                except Exception as exc:
                    brackets[label] = exc
            results.append((state, brackets))
        return results

    def check(self, results):
        cst = self.pg.constraints
        attempted, failures, values = self.ops_per_pass, [], []
        for (g, sm), (state, brackets) in zip(self.inputs, results):
            for label, got in brackets.items():
                if isinstance(got, Exception):
                    failures.append(f"{g.n}^3 {{{label}}}: {type(got).__name__}: {got}")
                elif not np.all(np.isfinite(got)):
                    failures.append(f"{g.n}^3 {{{label}}} = {got} is not finite")
                else:
                    values.append((g.n, label, float(got[0])))
            if isinstance(brackets["LL"], tuple):
                ac = self.pg.fiber.bracket2(np.array(ALPHA2), np.array(ALPHA), self.sig)
                rhs = cst.eval_L(state, cst.smear_constant(g, 2, ac))
                rel = abs(brackets["LL"][0] - rhs) / max(abs(rhs), 1e-300)
                if not abs(rhs) > 1e-8:
                    failures.append(f"{g.n}^3 L_[a',a] = {rhs:.3e} too small to test {{L,L'}}")
                elif not rel <= BRACKET_LL_TOL:
                    failures.append(f"{g.n}^3 {{L,L'}} vs L_[a',a]: rel error {rel:.3e}")
        if not self._hvf_checked:
            self._hvf_checked = True
            for (_, sm), (state, _) in zip(self.inputs, results):
                for kind, smearing in (("L", sm["alpha"]), ("J", sm["mu"])):
                    attempted += 1
                    failures += self._check_hvf(state, kind, smearing)
        return attempted, failures, digest(values)

    def _check_hvf(self, state, kind, smearing) -> list:
        where = f"{state.grid.n}^3 X_{kind}"
        try:
            X = self.pg.constraints.hamiltonian_vector_field(state, kind, smearing)
        except Exception as exc:
            return [f"{where}: {type(exc).__name__}: {exc}"]
        failures = [f"{where}: wedge residual {k} = {v:.3e}"
                    for k, v in X.wedge_residuals.items() if not v <= HVF_WEDGE_TOL]
        if not X.constraint_residual <= HVF_CONSTRAINT_TOL:
            failures.append(f"{where}: constraint residual {X.constraint_residual:.3e}")
        return failures

    def seed_probe(self) -> list:
        """Gate failures of one pass on states drawn with the run seed."""
        try:
            return self.check(self.run(self.seed))[1]
        except Exception as exc:
            return [f"{type(exc).__name__}: {exc}"]


class ReduceIO(Workload):
    """`pchgrav omega-tilde` and `pchgrav reduce` on field files at 16^3.

    The run seed draws the kernel-valued shift of the connection.  `prepare`
    builds the on-shell state and writes the coframe, the shifted connection
    and the unshifted omega~ as binary field files, with a manifest of the
    digests of the arrays they were written from.
    """

    name = "reduce-io"
    shift_scale = 0.1
    files = {"coframe": "e.bin", "connection": "omega.bin", "reference": "omega-onshell.bin"}
    manifest = "inputs.json"

    # 16^3 keeps a pass near 2 s, so a run times about ten passes and its
    # median outlasts the host's slow spells; at 32^3 a pass took 15-21 s
    @classmethod
    def prepare(cls, pg, seed: int, workdir: Path, n: int = 16) -> None:
        cst = pg.constraints
        sig = pg.fiber.signature_from_name(SIGNATURE)
        g = pg.grid.Grid3(n)
        state = cst.make_on_shell(pg.suites.acceptance_triad_spec(), g, GAMMA, sig,
                                  Lambda=LAMBDA)
        pack = cst.projector_pack(state.e)
        rng = pg.rng.stream(seed, f"perfbench/{cls.name}")
        coords = cls.shift_scale * rng.normal(size=(n, n, n, pg.reduction.K12HAT.shape[1]))
        fields = {"coframe": state.e.field,
                  "connection": state.omega + cst.kernel_field_from_coords(coords, pack, g),
                  "reference": state.omega}          # the unshifted certified omega~
        for key, field in fields.items():
            pg.grid.save_field(field, workdir / cls.files[key], sig=sig)
        (workdir / cls.manifest).write_text(json.dumps(
            {"n": n, "digests": {key: array_digest(f.data) for key, f in fields.items()}}))

    def __init__(self, pg, seed: int, workdir: Path):
        self.pg = pg
        self.input_seed = seed
        manifest = json.loads((workdir / self.manifest).read_text())
        self.grid_sizes = (manifest["n"],)
        self.inputs = {key: (workdir / name, manifest["digests"][key])
                       for key, name in self.files.items()}
        path, expected = self.inputs["reference"]
        self.reference = pg.grid.load_field(path)[0].data
        if array_digest(self.reference) != expected:
            raise ValueError(f"{path.name} does not match its manifest")
        files = ["--coframe", str(self.inputs["coframe"][0]),
                 "--connection", str(self.inputs["connection"][0])]
        self.out = {k: workdir / f"out-{k.replace('_', '.')}"
                    for k in ("ot_bin", "ot_json", "reduce_json", "reduce_csv")}
        self.commands = [
            ["omega-tilde", *files, "--out", str(self.out["ot_bin"]), "--field-format", "binary"],
            ["omega-tilde", *files, "--out", str(self.out["ot_json"]), "--field-format", "json"],
            ["reduce", *files, "--out", str(self.out["reduce_json"]), "--format", "json",
             "--Lambda", str(LAMBDA)],
            ["reduce", *files, "--out", str(self.out["reduce_csv"]), "--format", "csv",
             "--Lambda", str(LAMBDA)],
        ]
        self.ops_per_pass = len(self.commands)

    def run(self):
        """Exit code of each command, or the exception it raised."""
        for path in self.out.values():
            path.unlink(missing_ok=True)
        codes = []
        for argv in self.commands:
            try:
                codes.append(_quiet(self.pg.cli.main, argv))
            except Exception as exc:
                codes.append(exc)
        return codes

    def check(self, codes):
        load = self.pg.grid.load_field
        failures = [f"pchgrav {' '.join(argv[:1] + argv[-2:])}: {code!r}"
                    for argv, code in zip(self.commands, codes) if code != 0]
        for path, expected in self.inputs.values():
            failures += check_field_digest(load, path, expected)
        try:
            ot, _ = load(self.out["ot_bin"])
        except Exception as exc:
            failures.append(f"omega~ output unreadable ({type(exc).__name__}: {exc})")
        else:
            # kernel-valued shifts drop out of omega~
            rel = np.abs(ot.data - self.reference).max() / np.abs(self.reference).max()
            if not rel <= OMEGA_TILDE_TOL:
                failures.append(f"omega~ of the shifted connection off by {rel:.3e} relative")
            failures += check_field_digest(load, self.out["ot_json"], array_digest(ot.data))
        failures += check_tables_agree(self.out["reduce_json"], self.out["reduce_csv"])
        out_digest = digest(*(p.read_bytes() if p.exists() else b"" for p in self.out.values()))
        return self.ops_per_pass, failures, out_digest

    def seed_probe(self) -> list:
        return []       # the timed inputs already come from the run seed


WORKLOADS = {w.name: w for w in (VerifyDefault, BracketsOffshell, ReduceIO)}
