"""Batch entry point: congruence sweeps, q-series identities, CM certification.

Exit codes: 0 when every proven-status check passed, 1 on any failure
(conjectural/cited failures only count under --include-conjectural-strict),
2 on usage errors, which include a --config file with an unknown key, a line
without "=", or a value the flag's type or choices reject.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import congruence, highprec, qseries
from .quadforms import lemma23_trials
from .report import Report, Row
from .sequences import SequenceId, exact_term

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

QSERIES_CHECKS = ("t", "u", "s", "w", "v", "h")


def _report_payload(report: Report, config: dict) -> dict:
    rows = []
    for r in report.rows:
        row = {"spec_id": r.spec_id, "outcome": r.outcome}
        if r.p is not None:
            row["p"] = r.p
        if r.detail:
            row["details"] = r.detail
        for key in ("lhs", "rhs", "x", "y"):
            val = getattr(r, key)
            if val is not None:
                row[key] = val
        rows.append(row)
    return {"run": config, "rows": rows, "summary": report.summary()}


def emit_report(report: Report, fmt: str, config: dict | None = None) -> str:
    config = config or {}
    if fmt == "json":
        return json.dumps(_report_payload(report, config), sort_keys=True, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["spec_id", "p", "outcome", "lhs", "rhs", "x", "y"])
        for r in report.rows:
            writer.writerow([
                r.spec_id,
                "" if r.p is None else r.p,
                r.outcome,
                "" if r.lhs is None else r.lhs,
                "" if r.rhs is None else r.rhs,
                "" if r.x is None else r.x,
                "" if r.y is None else r.y,
            ])
        return buf.getvalue()
    if fmt == "table":
        lines = [f"{'spec':<24}{'p':>6}  {'outcome':<8}detail"]
        for r in report.rows:
            pcol = "" if r.p is None else str(r.p)
            lines.append(f"{r.spec_id:<24}{pcol:>6}  {r.outcome:<8}{r.detail}")
        s = report.summary()
        lines.append(f"summary: pass={s['pass']} fail={s['fail']} skip={s['skip']}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def exit_code_for(report: Report, strict_conjectural: bool = False) -> int:
    """Exit code as a pure function of the outcome rows and the strict flag.

    Failures on rows marked conjectural/cited never gate unless strict;
    representability anomalies always do.
    """
    fails = report.failures()
    if not strict_conjectural:
        fails = [r for r in fails if not r.detail.startswith("conjectural")]
    return EXIT_FAIL if fails or report.anomalies() else EXIT_OK


def _cmd_list(args) -> int:
    print(f"{'id':<12}{'status':<13}{'seq':<5}{'m':>22}  {'limit':<6}{'mod':<5}source")
    for spec in congruence.catalog():
        print(
            f"{spec.id:<12}{spec.status:<13}{spec.sequence.value:<5}"
            f"{spec.m:>22}  {spec.limit:<6}p^{spec.mod_exp:<3}{spec.source}"
        )
    return EXIT_OK


def _cmd_sequence(args) -> int:
    seq = SequenceId(args.sequence)
    for n in range(args.count):
        print(exact_term(seq, n))
    return EXIT_OK


def _mark_conjectural(report: Report) -> None:
    status = {s.id: s.status for s in congruence.catalog()}
    for i, row in enumerate(report.rows):
        if row.outcome == "fail" and status.get(row.spec_id) != "proven":
            report.rows[i] = Row(
                row.spec_id, row.p, row.outcome,
                f"conjectural {row.detail}".strip(), row.lhs, row.rhs, row.x, row.y,
            )


def _cmd_verify_congruences(args) -> int:
    if args.theorem:
        ids = []
        for tid in args.theorem:
            congruence.lookup(tid)  # raises KeyError for unknown ids
            ids.append(tid)
    else:
        statuses = ("proven", "conjectural", "cited") if args.include_conjectural else ("proven",)
        ids = congruence.catalog_ids(statuses)
    report = congruence.sweep(ids, args.min_p, args.max_p, workers=args.workers)
    _mark_conjectural(report)
    config = {
        "command": "verify congruences", "ids": ids,
        "min_p": args.min_p, "max_p": args.max_p, "workers": args.workers,
    }
    print(emit_report(report, args.format, config), end="")
    return exit_code_for(report, args.include_conjectural_strict)


def _cmd_verify_qseries(args) -> int:
    report = Report()
    for tag in QSERIES_CHECKS:
        miss = qseries.genfun_identity_check(tag, args.terms)
        detail = "" if miss is None else f"first mismatch at q^{miss}"
        report.add(Row(f"genfun-{tag}", None, "pass" if miss is None else "fail", detail))
    for tag in ("u", "s", "w"):
        a = qseries.hauptmodul_q(tag, args.terms)
        b = qseries.hauptmodul_alt_q(tag, args.terms)
        miss = qseries.first_mismatch(a, b)
        detail = "" if miss is None else f"first mismatch at q^{miss}"
        report.add(Row(f"dual-{tag}", None, "pass" if miss is None else "fail", detail))
    miss = qseries.t_j_relation_check(args.terms)
    report.add(Row("t-j-cubic", None, "pass" if miss is None else "fail",
                   "" if miss is None else f"nonzero at q^{miss}"))
    miss = qseries.v_ode_check(args.terms)
    report.add(Row("v-ode", None, "pass" if miss is None else "fail",
                   "" if miss is None else f"nonzero at s^{miss}"))
    report.sort()
    print(emit_report(report, args.format, {"command": "verify qseries", "terms": args.terms}), end="")
    return exit_code_for(report)


def _cmd_verify_cm(args) -> int:
    report = Report()
    for target in highprec.cm_table():
        res = highprec.cm_check(target, args.digits)
        report.add(Row(res.name, None, "pass" if res.ok else "fail",
                       f"residual={res.residual:.2e}"))
    for res in highprec.class_invariant_check(args.digits):
        report.add(Row(res.name, None, "pass" if res.ok else "fail",
                       f"residual={res.residual:.2e}"))
    report.sort()
    print(emit_report(report, args.format, {"command": "verify cm", "digits": args.digits}), end="")
    return exit_code_for(report)


def _cmd_verify_identities(args) -> int:
    report = Report()
    for res in highprec.identity_suite(args.samples, args.prec):
        report.add(Row(res.name, None, "pass" if res.ok else "fail",
                       f"max residual={res.residual:.2e}"))
    report.sort()
    print(emit_report(report, args.format,
                      {"command": "verify identities", "samples": args.samples,
                       "prec": args.prec}), end="")
    return exit_code_for(report)


def _cmd_verify_lemma23(args) -> int:
    report = Report()
    for form, res in lemma23_trials(congruence.catalog_forms(), args.trials, args.seed):
        detail = f"c*p={form.c}*{res.p}=({form.a},{form.d}) x={res.x} y={res.y}"
        if not res.ok:
            detail += f" diffs=({res.diff_linear},{res.diff_square})"
        report.add(Row(f"expansion@p={res.p}", res.p, "pass" if res.ok else "fail", detail))
    report.sort()
    print(emit_report(report, args.format,
                      {"command": "verify lemma23", "trials": args.trials}), end="")
    return exit_code_for(report)


def _cmd_verify_all(args) -> int:
    codes = []
    for fn in (
        _cmd_verify_congruences,
        _cmd_verify_qseries,
        _cmd_verify_cm,
        _cmd_verify_identities,
        _cmd_verify_lemma23,
    ):
        codes.append(fn(args))
    return max(codes)


def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _set_config_defaults(parser: argparse.ArgumentParser, config: dict[str, str]) -> None:
    """Make the config values the defaults of `parser`'s one-value options.

    Each value is converted and checked with the option's own type and
    choices; an explicit flag still wins over a default.
    """
    options = {
        a.dest: a for a in parser._actions
        if a.option_strings and a.nargs is None and a.default is not None
    }
    defaults = {}
    for key, value in config.items():
        action = options.get(key)
        if action is None:
            raise ValueError(f"unknown key {key!r}; known keys: {', '.join(sorted(options))}")
        try:
            defaults[key] = action.type(value) if action.type else value
        except ValueError:
            raise ValueError(f"{key} = {value!r}: not a valid {action.type.__name__}") from None
        if action.choices and defaults[key] not in action.choices:
            raise ValueError(f"{key} = {value!r}: choose from {', '.join(action.choices)}")
    parser.set_defaults(**defaults)


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The supercong parser; `config` values become defaults of the verify flags."""
    parser = argparse.ArgumentParser(prog="supercong")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the congruence catalog")

    p_seq = sub.add_parser("sequence", help="print exact sequence values")
    p_seq.add_argument("sequence", choices=[s.value for s in SequenceId])
    p_seq.add_argument("--count", type=int, default=10)

    p_verify = sub.add_parser("verify", help="run verification suites")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        p.add_argument("--min-p", dest="min_p", type=int, default=5)
        p.add_argument("--max-p", dest="max_p", type=int, default=200)
        p.add_argument("--theorem", action="append", default=None)
        p.add_argument("--include-conjectural", action="store_true")
        p.add_argument("--include-conjectural-strict", action="store_true")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--terms", type=int, default=64)
        p.add_argument("--digits", type=int, default=40)
        p.add_argument("--samples", type=int, default=12)
        p.add_argument("--prec", type=int, default=256)
        p.add_argument("--trials", type=int, default=25)
        p.add_argument("--seed", type=int, default=20240)

    for name in ("congruences", "qseries", "cm", "identities", "lemma23", "all"):
        p = vsub.add_parser(name)
        common(p)
        if config:
            _set_config_defaults(p, config)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            # parse again, now with the config file's values as defaults
            args = build_parser(_read_config(args.config)).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "sequence":
            return _cmd_sequence(args)
        dispatch = {
            "congruences": _cmd_verify_congruences,
            "qseries": _cmd_verify_qseries,
            "cm": _cmd_verify_cm,
            "identities": _cmd_verify_identities,
            "lemma23": _cmd_verify_lemma23,
            "all": _cmd_verify_all,
        }
        return dispatch[args.what](args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
