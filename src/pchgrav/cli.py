"""Command-line entry point.

Subcommands:
  verify       run check suites from a JSON config and write a report
  reduce       compute ADM-type boundary data from coframe/connection files
  omega-tilde  emit the structural connection representative for field files

Exit codes: 0 all checks passed, 1 check failure, 2 configuration error (a
malformed config or field file, or an --out that is a directory or lies in a
missing one), 3 numerical-conditioning error (any ConditioningError, which
names its site).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import ehdata as eh
from .config import ALL_SUITES, ConfigError, load_config
from .fiber import signature_from_name, site_blocks
from .grid import Coframe, load_field, save_field
from .report import write_report
from .reduction import omega_tilde
from .suites import SuiteAbort, run_suites
from .wedgemaps import ConditioningError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_CONDITIONING = 3


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    try:
        report = run_suites(cfg, threads=args.threads)
    except SuiteAbort as abort:
        print(f"suite aborted: {abort}", file=sys.stderr)
        if args.out:
            write_report(abort.report, args.out, fmt=args.format)
            print(f"partial report written to {args.out}", file=sys.stderr)
        if isinstance(abort.cause, ConditioningError):
            return EXIT_CONDITIONING
        return EXIT_CHECK_FAILURE
    for row in report.rows:
        line = f"[{'PASS' if row.passed else 'FAIL'}] {row.id}  ({row.runtime_s:.3f}s)"
        failed = [f"{d['key']} {d['relation']} {d['bound']} (limit {d['limit']})"
                  for d in row.decisions if not d["passed"]]
        print(f"{line}  {'; '.join(failed)}" if failed else line)
    if args.out:
        write_report(report, args.out, fmt=args.format)
        print(f"report written to {args.out}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def _load_fields(args):
    """(Coframe, connection, signature) from the field files of `reduce` and `omega-tilde`.

    A malformed file raises a ConfigError that names it: unreadable, holding a
    NaN or infinity, not a nondegenerate coframe, not a bivector-valued 1-form,
    on another grid, or with a signature header that differs from the coframe's.
    """
    try:
        e_field, e_hdr = load_field(args.coframe)
        sig = signature_from_name(e_hdr.get("signature") or args.signature)
        e = Coframe(e_field, sig)
    except Exception as exc:
        raise ConfigError(f"{args.coframe}: {exc}") from None
    try:
        om_field, om_hdr = load_field(args.connection)
        om_sig = om_hdr.get("signature")
        if om_sig and signature_from_name(om_sig) != sig:
            raise ValueError(f"signature {om_sig}, the coframe's is {sig.name}")
    except Exception as exc:
        raise ConfigError(f"{args.connection}: {exc}") from None
    if (om_field.p, om_field.grade) != (1, 2):
        raise ConfigError(f"{args.connection}: connection must be a bivector-valued 1-form, "
                          f"not p = {om_field.p} with grade {om_field.grade}")
    if om_field.grid.n != e.grid.n:
        raise ConfigError(f"{args.connection}: grid n = {om_field.grid.n}, "
                          f"the coframe's is n = {e.grid.n}")
    return e, om_field, sig


#: JSON's spellings of the floats whose `repr` is not a JSON number
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray, nonfinite: dict | None = None) -> np.ndarray:
    """The shortest round-trip `repr` of each float64 of `values`, as a str array of its shape.

    Each distinct bit pattern is formatted once, and its text is gathered back
    to every entry that holds it.  The patterns are keyed through an int64
    view, so -0.0 and 0.0 stay apart and each NaN payload is a key of its own.
    `nonfinite` maps the texts "nan", "inf" and "-inf" to other spellings.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    keys, where = np.unique(values.view(np.int64), return_inverse=True)
    floats = keys.view(np.float64)
    texts = np.array(list(map(float.__repr__, floats.tolist())), dtype=object)
    if nonfinite:
        odd = ~np.isfinite(floats)
        texts[odd] = [nonfinite[t] for t in texts[odd]]
    return texts[where.reshape(values.shape)]


def _json_array_text(table: np.ndarray) -> str:
    """`json.dumps(table.tolist())` for a float64 array with no zero-length axis.

    The texts of `_float_texts` are joined axis by axis from the innermost:
    each run of `length` consecutive texts becomes one bracketed list.
    """
    texts = _float_texts(table, _JSON_NONFINITE).ravel().tolist()
    for length in reversed(table.shape):
        texts = ["[" + ", ".join(texts[k:k + length]) + "]" for k in range(0, len(texts), length)]
    return texts[0]


def _write_tables_json(fh, head: dict, tables: dict) -> None:
    """Write `json.dump({**head, "tables": {name: table.tolist()}}, fh)`, byte for byte.

    Each table's text comes from `_json_array_text`, which formats each
    distinct float once; the symmetric g, K and Pi repeat 3 of their 9
    entries bit for bit, and smooth fields repeat many more.  The texts are
    `repr`, as in `json.dumps`, with JSON's NaN, Infinity and -Infinity.  It
    goes one table at a time for peak memory: only one table's texts are
    alive at once.
    """
    fh.write(json.dumps(head)[:-1] + ', "tables": {')
    for i, (name, table) in enumerate(tables.items()):
        fh.write(f"{', ' if i else ''}{json.dumps(name)}: ")
        fh.write(_json_array_text(table))
    fh.write("}}")


def _write_rows_csv(fh, sites: list, table: np.ndarray) -> None:
    """Write `csv.writer(fh).writerows(site + row)` for each site and row of `table`, byte for byte.

    `csv.writer` writes an int with `str` and a float with `repr`, quotes none
    of these fields under QUOTE_MINIMAL and ends a row with "\\r\\n".  The
    float texts come from `_float_texts`, which formats each distinct float
    of a block of `SITE_BLOCK` rows once, and each row joins them after its
    site.  Only one block's texts are alive at once: the texts of a whole 32^3
    table raised the peak RSS of a CSV reduce from 107 to 193 MB, and the
    blocks repeat 3% of the formatting at 16^3.  `fh` is opened with newline="".
    """
    for block in site_blocks(len(table)):
        fh.writelines(",".join([*map(str, site), *row]) + "\r\n"
                      for site, row in zip(sites[block], _float_texts(table[block]).tolist()))


def _cmd_reduce(args) -> int:
    e, om_field, sig = _load_fields(args)
    ot = omega_tilde(e, om_field)
    frame = eh.orthonormal_frame(e.data, sig)
    split = eh.split_connection(ot.omega_tilde, frame, e.grid)
    data = eh.eh_data(frame, split, e.grid, Lambda=args.Lambda)
    tables = {"g": data.g, "K": data.K, "Pi": data.Pi, "R_scalar": data.R_scalar,
              "H_density": data.H_density, "M_density": data.M_density}
    if args.format == "json":
        head = {"n": e.grid.n, "signature": sig.name, "eta00": data.eta00,
                "gamma_block_residual": split.gamma_residual, "k_asymmetry": split.k_asymmetry}
        with open(args.out, "w") as fh:
            _write_tables_json(fh, head, tables)
    else:
        import csv

        n = e.grid.n
        # one row per site in i, j, k order: the site, then its row of the (n^3, 32) table
        table = np.concatenate([t.reshape(n**3, -1) for t in tables.values()], axis=1)
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "k"]
                       + [f"{name}_{a}{b}" for name in ("g", "K", "Pi")
                          for a in range(3) for b in range(3)]
                       + ["R_scalar", "H_density"]
                       + [f"M_{a}" for a in range(3)])
            _write_rows_csv(fh, np.indices((n, n, n)).reshape(3, -1).T.tolist(), table)
    print(f"reduced data written to {args.out}")
    return EXIT_OK


def _cmd_omega_tilde(args) -> int:
    e, om_field, sig = _load_fields(args)
    ot = omega_tilde(e, om_field)
    save_field(ot.omega_tilde, args.out, sig=sig,
               meta={"structural_residual": ot.structural_residual,
                     "solver_conditioning": ot.solver_conditioning},
               fmt=args.field_format)
    print(f"omega~ written to {args.out}; structural residual "
          f"{ot.structural_residual:.3e}, worst condition {ot.solver_conditioning:.2f}")
    return EXIT_OK


def _thread_count(text: str) -> int:
    """A `--threads` value: an integer of at least 1 (argparse exits 2 otherwise)."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid thread count: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"thread count must be at least 1, not {count}")
    return count


def _finite_float(text: str) -> float:
    """A `--Lambda` value: a finite float (argparse exits 2 otherwise)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pchgrav",
        description="Desk-scale verification of the tetrad-gravity boundary phase space.",
        epilog=("verify defaults: signature=lorentzian gamma=1 Lambda=0 grid_n=[8] "
                f"seed=1 suites={list(ALL_SUITES)} tolerances={{}}"),
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run check suites from a JSON config")
    pv.add_argument("--config", required=True)
    pv.add_argument("--out", default=None, help="report output path")
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--threads", type=_thread_count, default=1,
                    help="parallel suites (never affects values); a suite error "
                         "cancels the suites that have not started")
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("reduce", help="ADM-type boundary data from field files")
    pr.add_argument("--coframe", required=True)
    pr.add_argument("--connection", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--format", choices=("json", "csv"), default="json")
    pr.add_argument("--signature", default="lorentzian")
    pr.add_argument("--Lambda", type=_finite_float, default=0.0)
    pr.set_defaults(func=_cmd_reduce)

    po = sub.add_parser("omega-tilde", help="structural representative for field files")
    po.add_argument("--coframe", required=True)
    po.add_argument("--connection", required=True)
    po.add_argument("--out", required=True)
    po.add_argument("--field-format", choices=("binary", "json"), default="binary")
    po.add_argument("--signature", default="lorentzian")
    po.set_defaults(func=_cmd_omega_tilde)
    return p


def _check_out_path(path) -> None:
    """Refuse an `--out` that is a directory or lies in a missing one, before any work is done."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path}: directory {parent} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"--out {path}: is a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out_path(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING


if __name__ == "__main__":
    sys.exit(main())
