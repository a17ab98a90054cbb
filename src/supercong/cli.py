"""Batch entry point: congruence sweeps, q-series identities, CM certification.

Each verify subcommand takes only the flags it reads (`all` takes their union):

    congruences  --format --min-p --max-p --theorem --workers
                 --include-conjectural --include-conjectural-strict
    qseries      --format --terms           cm       --format --digits
    identities   --format --samples --prec  lemma23  --format --trials --seed

A one-value flag is one without an argparse action.  A --config file of
`key = value` lines is shared by all of them: a key is a one-value verify flag
with "_" for "-" (`max_p = 500`); each subcommand takes only its own keys, and
every config error names path:line.  A JSON report's `run` record holds the
command, each one-value flag it reads but --format, and what the run derived:
for congruences the ids and, as min_p, the least prime of the swept domain.

Skipped congruence rows give one of four reasons: predicate, divides-m,
branch-anomaly or representability-anomaly; the two anomalies gate like a
failure.  Exit codes read each row's typed outcome and catalog status, and
from `detail` only a skip row's reason, which must be one of the closed set
report.ANOMALIES to gate: 0 when nothing gates, 1 on a gating failure
(conjectural/cited rows only gate under --include-conjectural-strict) or an
error row, 2 on usage errors, which include a foreign flag, a --config file
with an unknown or repeated key, a line without "=", or a value, given as a
flag or in the config file, that the flag's type or choices reject; a size
flag's type refuses a value below its floor, so the parser stops it before
any check runs.  A check that raises becomes an `error` row whose detail is
`Type: message`, with the traceback on stderr, and the rest of the report
still prints.  `sequence` exits 1, after the terms before it, with `error:`
on stderr where its family's row stops dividing exactly.  A command whose
reader closes standard output early (`| head`) exits 1, with stderr empty.

Only `verify cm` and `verify identities` read highprec, so they import it
themselves: with it comes mpmath, which would otherwise take about half the
start-up time of every other command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import partial

from . import congruence, qseries
from .quadforms import lemma23_trials
from .report import Report, Row, error_row
from .sequences import SequenceId, iter_terms

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

QSERIES_CHECKS = tuple(qseries.HAUPTMODUL_SEQUENCE)


def _summary(report: Report, config: dict) -> dict:
    """Rows per outcome, plus as `unchecked` the ids of catalog rows, those in
    the report or requested by the run (`config["ids"]`), that got no pass or
    fail row, when there are any; they are reported, never gated."""
    summary = report.summary()
    catalog_rows = {r.spec_id for r in report.rows if r.status}.union(config.get("ids", ()))
    checked = {r.spec_id for r in report.rows if r.outcome in ("pass", "fail")}
    if unchecked := sorted(catalog_rows - checked):
        summary["unchecked"] = unchecked
    return summary


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
    return {"run": config, "rows": rows, "summary": _summary(report, config)}


# json.dumps with an indent runs the pure-Python encoder, so the rows go through
# the C one, whose item separator ",\n" puts a newline at every separator and
# nowhere else: an encoded string never holds a raw newline.  A newline before
# "{" starts a row, one before '"' starts a key, and indenting those gives the
# layout of json.dumps(payload, sort_keys=True, indent=2) byte for byte.
_ROWS_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n", ": "))


def _json_text(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) for a report payload, whose
    rows are flat dicts with at least one key."""
    rows = _ROWS_ENCODER.encode(payload["rows"])
    if rows != "[]":
        rows = "[\n    {\n      " + rows[2:-2].replace('\n"', '\n      "').replace(
            "},\n{", "\n    },\n    {\n      ") + "\n    }\n  ]"
    # "rows" sorts before "run" and "summary", so its placeholder comes first
    text = json.dumps({**payload, "rows": []}, sort_keys=True, indent=2)
    return text.replace('"rows": []', '"rows": ' + rows, 1)


def emit_report(report: Report, fmt: str, config: dict | None = None) -> str:
    config = config or {}
    if fmt == "json":
        return _json_text(_report_payload(report, config))
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["spec_id", "p", "outcome", "lhs", "rhs", "x", "y"])
        for r in report.rows:  # csv writes None as an empty field
            writer.writerow([r.spec_id, r.p, r.outcome, r.lhs, r.rhs, r.x, r.y])
        return buf.getvalue()
    if fmt == "table":
        lines = [f"{'spec':<24}{'p':>6}  {'outcome':<8}detail"]
        for r in report.rows:
            pcol = "" if r.p is None else str(r.p)
            lines.append(f"{r.spec_id:<24}{pcol:>6}  {r.outcome:<8}{r.detail}")
        s = _summary(report, config)
        lines.append(" ".join(["summary:"] + [
            f"{k}={v if isinstance(v, int) else ','.join(v)}" for k, v in s.items()]))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def exit_code_for(report: Report, strict_conjectural: bool = False) -> int:
    """Exit code as a pure function of the typed rows and the strict flag.

    Failures of conjectural or cited rows only gate when strict; failures of
    proven rows and of rows without a catalog status always do, and so do
    anomaly skips and error rows, whatever their status.
    """
    fails = report.failures()
    if not strict_conjectural:
        fails = [r for r in fails if r.status in (None, "proven")]
    return EXIT_FAIL if fails or report.anomalies() or "error" in report.summary() else EXIT_OK


def _emit(texts) -> int:
    """Write each text to stdout as it comes: EXIT_OK, or EXIT_FAIL with stderr
    empty where the reader closes stdout early."""
    try:
        sys.stdout.writelines(texts)
        sys.stdout.flush()
    except BrokenPipeError:
        # the rest goes to devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return EXIT_OK


def _cmd_list(args) -> int:
    rows = [("id", "status", "seq", "m", "limit", "mod", "source")] + [
        (s.id, s.status, s.sequence.value, s.m, s.limit, f"p^{s.mod_exp}", s.source)
        for s in congruence.catalog()]
    return _emit("{:<12}{:<13}{:<5}{:>22}  {:<6}{:<5}{}\n".format(*row) for row in rows)


def _cmd_sequence(args) -> int:
    """Print the terms, lifting Python's int-to-str digit limit only while
    printing: a term outgrows it within a few thousand n, and the parsing of
    flag and config values keeps its guard.  A row that stops dividing
    exactly ends the terms with an error on stderr."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _emit(f"{a}\n" for a in iter_terms(args.sequence, args.count))
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    finally:
        sys.set_int_max_str_digits(limit)


def _verify_congruences(args) -> tuple[Report, dict]:
    statuses = ("proven", "conjectural", "cited") if args.include_conjectural else ("proven",)
    # in order, once each; sweep rejects unknown ids
    ids = list(dict.fromkeys(args.theorem or congruence.catalog_ids(statuses)))
    report = congruence.sweep(ids, args.min_p, args.max_p, workers=args.workers)
    return report, {"ids": ids, "min_p": max(args.min_p, congruence.MIN_P)}


def _guarded(name: str, rows) -> list[Row]:
    """rows(), or one error row named name when the check behind it raises."""
    try:
        return rows()
    except Exception as exc:  # one broken check must not lose the report
        return [error_row(name, None, exc)]


def _agreement_row(name: str, agree: qseries.Agreement, what: str, var: str) -> Row:
    """A q-series row; its detail states the last exponent compared."""
    through = f"through {var}^{agree.through}"
    if agree.mismatch is None:
        return Row(name, None, "pass", through)
    return Row(name, None, "fail", f"{what} at {var}^{agree.mismatch}, {through}")


def _verify_qseries(args) -> tuple[Report, dict]:
    n = args.terms
    report = Report()

    def add(name: str, check, what: str = "first mismatch", var: str = "q") -> None:
        report.extend(_guarded(name, lambda: [_agreement_row(name, check(), what, var)]))

    for tag in QSERIES_CHECKS:
        add(f"genfun-{tag}", lambda: qseries.genfun_identity(tag, n))
    for tag in qseries.DUAL_PRODUCTS:
        add(f"dual-{tag}", lambda: qseries.agreement(
            qseries.hauptmodul_q(tag, n), qseries.hauptmodul_alt_q(tag, n)))
    add("t-j-cubic", lambda: qseries.t_j_relation(n), "nonzero")
    add("v-ode", lambda: qseries.v_ode(n), "nonzero", "s")
    return report, {}


def _check_rows(results, label: str) -> list[Row]:
    """Rows of numeric checks, each residual in whole digits, which read the
    same on every host and at any precision."""
    return [Row(r.name, None, "pass" if r.ok else "fail",
                f"{label} digits{'>=' if r.at_floor else '='}{r.digits}")
            for r in results]


def _verify_cm(args) -> tuple[Report, dict]:
    from . import highprec

    digits = args.digits
    rows = []
    for target in highprec.cm_table():
        rows += _guarded(target.name, lambda: _check_rows(
            [highprec.cm_check(target, digits)], "residual"))
    rows += _guarded("class-invariants", lambda: _check_rows(
        highprec.class_invariant_check(digits), "residual"))
    return Report(rows), {}


def _verify_identities(args) -> tuple[Report, dict]:
    from . import highprec

    rows = _guarded("identities", lambda: _check_rows(
        highprec.identity_suite(args.samples, args.prec), "max residual"))
    return Report(rows), {}


def _lemma23_rows(args) -> list[Row]:
    rows = []
    for res in lemma23_trials(congruence.catalog_forms(), args.trials, args.seed):
        form = res.form
        detail = f"c*p={form.c}*{res.p}=({form.a},{form.d}) x={res.x} y={res.y}"
        if not res.ok:
            detail += f" diffs=({res.diff_linear},{res.diff_square})"
        rows.append(Row(f"expansion@p={res.p}", res.p, "pass" if res.ok else "fail", detail))
    return rows


def _verify_lemma23(args) -> tuple[Report, dict]:
    rows = _guarded("lemma23", partial(_lemma23_rows, args))
    return Report(rows), {}


# Each verify subcommand, its report builder, and the only flags it reads;
# `verify all` runs them in this order and takes the union of their flags.  A
# builder returns its report and what the run derived from the flags, which
# the run record adds to the one-value flags that the command reads.
VERIFY_COMMANDS = {
    "congruences": (_verify_congruences, (
        "format", "min_p", "max_p", "theorem",
        "include_conjectural", "include_conjectural_strict", "workers",
    )),
    "qseries": (_verify_qseries, ("format", "terms")),
    "cm": (_verify_cm, ("format", "digits")),
    "identities": (_verify_identities, ("format", "samples", "prec")),
    "lemma23": (_verify_lemma23, ("format", "trials", "seed")),
}


def _int_at_least(floor: int):
    """An argparse type: an int no smaller than floor, the least meaningful
    value of a size flag.  The parser refuses a smaller one before any check
    runs, since a check that raises gives an error row, not a usage error."""
    def convert(text: str) -> int:
        if (value := int(text)) < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value
    convert.__name__ = "int"  # argparse and _read_config name the type in errors
    return convert


# argparse keywords of every verify flag, by dest; the option is --dest with "-" for "_".
VERIFY_FLAGS = {
    "format": {"choices": ("table", "json", "csv"), "default": "table"},
    "min_p": {"type": int, "default": congruence.MIN_P},
    "max_p": {"type": int, "default": 200},
    "theorem": {"action": "append"},
    "include_conjectural": {"action": "store_true"},
    "include_conjectural_strict": {"action": "store_true"},
    "workers": {"type": _int_at_least(1), "default": 1},
    "terms": {"type": _int_at_least(10), "default": 64},
    "digits": {"type": _int_at_least(10), "default": 40},
    "samples": {"type": _int_at_least(1), "default": 24},
    "prec": {"type": _int_at_least(64), "default": 256},
    "trials": {"type": _int_at_least(1), "default": 25},
    "seed": {"type": int, "default": 20240},
}

# A one-value flag is a verify flag without an argparse action.  Exactly these
# are the config keys, and each run record holds those its command reads but format.
ONE_VALUE_FLAGS = tuple(dest for dest, kw in VERIFY_FLAGS.items() if "action" not in kw)


def _cmd_verify(args) -> int:
    """Build, sort and print each named report; exit with the worst code.

    `verify all` prints its five reports as one document: tables one after
    another, CSV under one header, JSON as one array of the five reports.
    """
    names = list(VERIFY_COMMANDS) if args.what == "all" else [args.what]
    strict = getattr(args, "include_conjectural_strict", False)
    texts, codes = [], []
    for name in names:
        build, flags = VERIFY_COMMANDS[name]
        report, derived = build(args)
        report.sort()
        run = {"command": f"verify {name}"}
        run.update((f, getattr(args, f)) for f in flags if f in ONE_VALUE_FLAGS and f != "format")
        texts.append(emit_report(report, args.format, {**run, **derived}))
        codes.append(exit_code_for(report, strict))
    if args.format == "csv":
        texts[1:] = [text.partition("\n")[2] for text in texts[1:]]
    if args.format == "json" and len(texts) > 1:
        texts = ["[\n" + ",\n".join(texts) + "\n]\n"]
    return max(_emit(texts), *codes)


def _read_config(path: str) -> dict:
    """The config file's values as verify-flag defaults.

    Each key must be a one-value flag, and each value is converted and checked,
    on its own line, with that flag's type, floor included, and choices; so
    every error starts with path:line:.
    """
    defaults, first_line = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}:"
            if "=" not in line:
                raise ValueError(f"{where} expected key = value, got {line!r}")
            key, _, value = map(str.strip, line.partition("="))
            if key not in ONE_VALUE_FLAGS:
                known = ", ".join(sorted(ONE_VALUE_FLAGS))
                raise ValueError(f"{where} unknown key {key!r}; known keys: {known}")
            if first_line.setdefault(key, lineno) != lineno:
                raise ValueError(f"{where} key {key!r} repeats line {first_line[key]}")
            bad = f"{where} {key} = {value!r}:"
            convert = VERIFY_FLAGS[key].get("type", str)
            try:
                defaults[key] = convert(value)
            except ValueError:
                raise ValueError(f"{bad} not a valid {convert.__name__}") from None
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{bad} {exc}") from None
            choices = VERIFY_FLAGS[key].get("choices")
            if choices and defaults[key] not in choices:
                raise ValueError(f"{bad} choose from {', '.join(choices)}")
    return defaults


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """The supercong parser; `defaults`, the config file's checked values, become
    defaults of the verify flags.

    Each verify subcommand takes only its own flags and its own config keys,
    so an explicit flag always wins and a foreign flag is a usage error.
    """
    defaults = defaults or {}
    parser = argparse.ArgumentParser(prog="supercong")
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="print the congruence catalog")

    p_seq = sub.add_parser("sequence", help="print exact sequence values")
    p_seq.add_argument("sequence", choices=[s.value for s in SequenceId])
    p_seq.add_argument("--count", type=_int_at_least(1), default=10)

    p_verify = sub.add_parser("verify", help="run verification suites")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    commands = {name: flags for name, (_, flags) in VERIFY_COMMANDS.items()}
    commands["all"] = tuple(dict.fromkeys(f for flags in commands.values() for f in flags))
    for name, flags in commands.items():
        p = vsub.add_parser(name)
        for dest in flags:
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, **VERIFY_FLAGS[dest])
        p.set_defaults(**{f: defaults[f] for f in flags if f in defaults})
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
        return _cmd_verify(args)
    except (KeyError, ValueError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
