"""Command-line entry point.

Subcommands:
  verify       run check suites from a JSON config and write a report
  reduce       compute ADM-type boundary data from coframe/connection files
  omega-tilde  emit the structural connection representative for field files

Exit codes: 0 all checks passed, 1 check failure, 2 configuration error,
3 numerical-conditioning error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import ehdata as eh
from .config import ALL_SUITES, ConfigError, load_config
from .fiber import signature_from_name
from .grid import Coframe, load_field, save_field
from .report import write_report
from .reduction import PhiSingularError, omega_tilde
from .suites import SuiteAbort, run_suites
from .wedgemaps import RankDecisionError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_CONDITIONING = 3


def _cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        report = run_suites(cfg, threads=args.threads)
    except SuiteAbort as abort:
        print(f"suite aborted: {abort}", file=sys.stderr)
        if args.out:
            write_report(abort.report, args.out, fmt=args.format)
            print(f"partial report written to {args.out}", file=sys.stderr)
        if isinstance(abort.cause, (PhiSingularError, RankDecisionError)):
            return EXIT_CONDITIONING
        return EXIT_CHECK_FAILURE
    for row in report.rows:
        mark = "PASS" if row.passed else "FAIL"
        print(f"[{mark}] {row.id}  ({row.runtime_s:.3f}s)")
    if args.out:
        write_report(report, args.out, fmt=args.format)
        print(f"report written to {args.out}")
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


def _load_signature(header, fallback):
    name = header.get("signature") or fallback
    return signature_from_name(name)


def _cmd_reduce(args) -> int:
    try:
        e_field, e_hdr = load_field(args.coframe)
        om_field, _ = load_field(args.connection)
        sig = _load_signature(e_hdr, args.signature)
        e = Coframe(e_field, sig)
    except Exception as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        ot = omega_tilde(e, om_field)
        frame = eh.orthonormal_frame(e.data, sig)
        split = eh.split_connection(ot.omega_tilde, frame, e.grid, sig)
        data = eh.eh_data(frame, split.a_part, e.grid, Lambda=args.Lambda)
    except (PhiSingularError, RankDecisionError, eh.GramSchmidtError) as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    out = {
        "n": e.grid.n,
        "signature": sig.name,
        "eta00": data.eta00,
        "gamma_block_residual": split.gamma_residual,
        "k_asymmetry": split.k_asymmetry,
        "tables": {
            "g": data.g.tolist(),
            "K": data.K.tolist(),
            "Pi": data.Pi.tolist(),
            "R_scalar": data.R_scalar.tolist(),
            "H_density": data.H_density.tolist(),
            "M_density": data.M_density.tolist(),
        },
    }
    if args.format == "json":
        with open(args.out, "w") as fh:
            json.dump(out, fh)
    else:
        import csv

        n = e.grid.n
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["i", "j", "k"]
                       + [f"g_{a}{b}" for a in range(3) for b in range(3)]
                       + [f"K_{a}{b}" for a in range(3) for b in range(3)]
                       + [f"Pi_{a}{b}" for a in range(3) for b in range(3)]
                       + ["R_scalar", "H_density"]
                       + [f"M_{a}" for a in range(3)])
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        row = [i, j, k]
                        row += list(data.g[i, j, k].reshape(-1))
                        row += list(data.K[i, j, k].reshape(-1))
                        row += list(data.Pi[i, j, k].reshape(-1))
                        row += [data.R_scalar[i, j, k], data.H_density[i, j, k]]
                        row += list(data.M_density[i, j, k])
                        w.writerow(row)
    print(f"reduced data written to {args.out}")
    return EXIT_OK


def _cmd_omega_tilde(args) -> int:
    try:
        e_field, e_hdr = load_field(args.coframe)
        om_field, _ = load_field(args.connection)
        sig = _load_signature(e_hdr, args.signature)
        e = Coframe(e_field, sig)
    except Exception as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        ot = omega_tilde(e, om_field)
    except PhiSingularError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    save_field(ot.omega_tilde, args.out, sig=sig,
               meta={"structural_residual": ot.structural_residual,
                     "solver_conditioning": ot.solver_conditioning},
               fmt=args.field_format)
    print(f"omega~ written to {args.out}; structural residual "
          f"{ot.structural_residual:.3e}, worst condition {ot.solver_conditioning:.2f}")
    return EXIT_OK


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
    pv.add_argument("--threads", type=int, default=1,
                    help="parallel suites (never affects values)")
    pv.set_defaults(func=_cmd_verify)

    pr = sub.add_parser("reduce", help="ADM-type boundary data from field files")
    pr.add_argument("--coframe", required=True)
    pr.add_argument("--connection", required=True)
    pr.add_argument("--out", required=True)
    pr.add_argument("--format", choices=("json", "csv"), default="json")
    pr.add_argument("--signature", default="lorentzian")
    pr.add_argument("--Lambda", type=float, default=0.0)
    pr.set_defaults(func=_cmd_reduce)

    po = sub.add_parser("omega-tilde", help="structural representative for field files")
    po.add_argument("--coframe", required=True)
    po.add_argument("--connection", required=True)
    po.add_argument("--out", required=True)
    po.add_argument("--field-format", choices=("binary", "json"), default="binary")
    po.add_argument("--signature", default="lorentzian")
    po.set_defaults(func=_cmd_omega_tilde)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
