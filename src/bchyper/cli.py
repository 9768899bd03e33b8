"""Command-line front end.

Subcommands: eval, classify, verify <suite>, region-plot, coherent.
`verify` takes a seed and a sample count; every suite checks its
relations at the tolerances they declare.
Exit codes: 0 success, 1 usage or parse error, 2 verification failure.
Reports are deterministic for a fixed argv and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import coherent as coherent_mod
from . import hyper, verify
from .errors import BCHyperError, UsageError
from .numbers import format_bicomplex, parse_bicomplex, to_json_dict

REPORT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bc_list(text: str):
    text = text.strip()
    if not text:
        return []
    return [parse_bicomplex(part) for part in text.split(",")]


def _parse_shape(text: str):
    try:
        p_str, q_str = text.split(",")
        return int(p_str), int(q_str)
    except ValueError as exc:
        raise UsageError(f"shape must look like '2,1', got {text!r}") from exc


def _build_params(args) -> hyper.PfqParams:
    p, q = _parse_shape(args.pfq)
    alphas = _parse_bc_list(args.alphas)
    betas = _parse_bc_list(args.betas)
    if len(alphas) != p or len(betas) != q:
        raise UsageError(
            f"shape {p},{q} needs {p} alphas and {q} betas,"
            f" got {len(alphas)} and {len(betas)}"
        )
    return hyper.PfqParams(alphas, betas)


def _checked(kind: str, convert, accept):
    """An argparse type: `convert` the text and keep the value if it
    passes `accept`; anything else is a usage error that names `kind`."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return value

    return parse


_count = _checked("an integer >= 0", int, lambda n: n >= 0)
_positive_count = _checked("an integer >= 1", int, lambda n: n >= 1)
_tolerance = _checked("a finite number >= 0", float, lambda x: math.isfinite(x) and x >= 0.0)
_radius = _checked("a finite number > 0", float, lambda x: math.isfinite(x) and x > 0.0)


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(command, config, results, summary) -> str:
    doc = {
        "version": REPORT_VERSION,
        "command": command,
        "config": config,
        "results": results,
        "summary": summary,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _csv_text(fieldnames, rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cmd_eval(args) -> int:
    params = _build_params(args)
    z = parse_bicomplex(args.z)
    result = hyper.pfq(params, z, tol=args.tol, cap=args.cap)
    value = result.value
    if args.format == "plain":
        _emit(format_bicomplex(value) + "\n", args.out)
    elif args.format == "json":
        _emit(
            _json_report(
                "eval",
                {"pfq": args.pfq, "alphas": args.alphas, "betas": args.betas,
                 "z": args.z, "tol": args.tol, "cap": args.cap},
                [{
                    "value": format_bicomplex(value),
                    "value_json": to_json_dict(value),
                    "terms_used": list(result.terms_used),
                    "tail_bound": [result.tail_bound.comp1, result.tail_bound.comp2],
                    "class": hyper.classify(params).kind.value,
                }],
                {"ok": True},
            ),
            args.out,
        )
    else:
        _emit("value,terms1,terms2\n"
              f"{format_bicomplex(value)},{result.terms_used[0]},{result.terms_used[1]}\n",
              args.out)
    return 0


def _cmd_classify(args) -> int:
    params = _build_params(args)
    cls = hyper.classify(params)
    if args.format == "json":
        payload = {"class": cls.kind.value}
        if cls.eta1 is not None:
            payload.update({"eta1": cls.eta1, "eta2": cls.eta2, "margin": cls.margin})
        _emit(
            _json_report(
                "classify",
                {"pfq": args.pfq, "alphas": args.alphas, "betas": args.betas},
                [payload],
                {"ok": True},
            ),
            args.out,
        )
    else:
        line = cls.kind.value
        if cls.eta1 is not None:
            line += f" eta=({cls.eta1!r},{cls.eta2!r}) margin={cls.margin!r}"
        _emit(line + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in verify.SUITES:
            raise UsageError(f"unknown suite {name!r}; known: {sorted(verify.SUITES)} or 'all'")
    options = {"seed": args.seed}
    if args.samples is not None:
        options["samples"] = args.samples
    results = []
    lines = []
    all_ok = True
    for name in names:
        res = verify.run_suite(name, **options)
        all_ok = all_ok and res.ok
        status = "PASS" if res.ok else "FAIL"
        lines.append(
            f"{name}: {status} ({res.passed}/{res.passed + res.failed} cases,"
            f" {res.skipped} skipped, max residual {res.max_residual:.3e})"
        )
        results.append(res)
    summary = {
        "suites": len(results),
        "passed_cases": sum(r.passed for r in results),
        "failed_cases": sum(r.failed for r in results),
        "ok": all_ok,
    }
    if args.format == "json":
        _emit(
            _json_report(
                "verify",
                {"suite": args.suite, "seed": args.seed, "samples": args.samples},
                [{
                    "theorem": r.theorem,
                    "samples": r.samples,
                    "passed": r.passed,
                    "failed": r.failed,
                    "skipped": r.skipped,
                    "max_residual": r.max_residual,
                    "options": options,
                    "rows": r.rows if args.rows else [],
                } for r in results],
                summary,
            ),
            args.out,
        )
    elif args.format == "csv":
        fieldnames = ["theorem", "seed", "case", "params", "z",
                      "residual1", "residual2", "passed"]
        rows = [row for r in results for row in r.rows]
        _emit(_csv_text(fieldnames, rows), args.out)
    else:
        _emit("\n".join(lines) + "\n"
              + ("all suites passed\n" if all_ok else "some suites FAILED\n"),
              args.out)
    return 0 if all_ok else 2


def _cmd_region_plot(args) -> int:
    params = _build_params(args)
    if params.p != params.q + 1:
        raise UsageError(
            "region plot needs a ball-class shape (p = q+1);"
            f" got p={params.p}, q={params.q}"
        )
    rows = verify.region_scan(params, grid=args.grid, rmax=args.rmax)
    text = "r1,r2,converged\n" + "".join(
        f"{r1!r},{r2!r},{int(flag)}\n" for r1, r2, flag in rows
    )
    _emit(text, args.out)
    return 0


def _cmd_coherent(args) -> int:
    params = _build_params(args)
    z = parse_bicomplex(args.z)
    spec = coherent_mod.CoherentSpec(params, z, truncation=args.nmax)
    tables = coherent_mod.build_tables(spec)
    c1, c2 = tables.c1, tables.c2
    lines = ["n,rho1,rho2,f1,f2,cn2_1,cn2_2"]
    for n in range(tables.nmax + 1):
        f1 = float(tables.f1[n]) if n < tables.nmax else float("nan")
        f2 = float(tables.f2[n]) if n < tables.nmax else float("nan")
        lines.append(
            f"{n},{float(tables.rho1[n])!r},{float(tables.rho2[n])!r},{f1!r},{f2!r},"
            f"{float(abs(c1[n]) ** 2)!r},{float(abs(c2[n]) ** 2)!r}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="bchyper", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_z=False):
        p.add_argument("--pfq", required=True, help="shape 'p,q'")
        p.add_argument("--alphas", default="", help="comma-separated bicomplex literals")
        p.add_argument("--betas", default="", help="comma-separated bicomplex literals")
        if with_z:
            p.add_argument("--z", required=True, help="bicomplex argument literal")
        p.add_argument("--out", default=None, help="write output to a file")

    p_eval = sub.add_parser("eval", help="evaluate the series at a point")
    common(p_eval, with_z=True)
    p_eval.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_eval.add_argument("--tol", type=_tolerance, default=hyper.DEFAULT_TOL)
    p_eval.add_argument("--cap", type=_count, default=hyper.DEFAULT_CAP)
    p_eval.set_defaults(fn=_cmd_eval)

    p_cls = sub.add_parser("classify", help="convergence class of a parameter set")
    common(p_cls)
    p_cls.add_argument("--format", choices=("plain", "json"), default="plain")
    p_cls.set_defaults(fn=_cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", help="suite id (thm2.1 ... cs-eigen) or 'all'")
    p_ver.add_argument("--seed", type=_count, default=7)
    p_ver.add_argument("--samples", type=_count, default=None,
                       help="cases per sampled phase (default: the suite's own)")
    p_ver.add_argument("--rows", action="store_true", help="include per-case rows in JSON")
    p_ver.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=_cmd_verify)

    p_reg = sub.add_parser("region-plot", help="convergence point cloud for a ball-class shape")
    common(p_reg)
    p_reg.add_argument("--grid", type=_positive_count, default=32)
    p_reg.add_argument("--rmax", type=_radius, default=1.25)
    p_reg.set_defaults(fn=_cmd_region_plot)

    p_coh = sub.add_parser("coherent", help="emit rho/f/coefficient tables as CSV")
    common(p_coh, with_z=True)
    p_coh.add_argument("--nmax", type=_positive_count, default=coherent_mod.DEFAULT_TRUNCATION)
    p_coh.set_defaults(fn=_cmd_coherent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except BCHyperError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
