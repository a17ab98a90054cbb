"""The four benchmark workloads.

Each workload has inputs made from the seed, an untraced job that makes the
same public library calls as the `supercong` command line (one process,
workers=1), and a traced job that calls each layer's public functions
step by step inside spans.  The traced job must produce the same verdict
rows as the untraced one.

Sizes are chosen so that every job stays measurable after the V/T/D/A term
generators get about 100x faster: runs repeat a job for a fixed time, so a
faster job gives more repetitions rather than an unmeasurable one.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from supercong import congruence, highprec, qseries
from supercong.arith import primes_in
from supercong.cli import QSERIES_CHECKS, emit_report
from supercong.quadforms import represent
from supercong.report import Report, Row
from supercong.sequences import SequenceId, exact_terms

import refclock
from tracing import Tracer

CATALOG_MIN_P = 5
CATALOG_MAX_P = 300
# one row per family; each is run at its own seeded sample of primes
DEEP_SPECS = ("T1.1", "T1.5", "T1.13", "T1.23", "T1.24", "T1.26", "T1.29")
# p^3 > 2^30 throughout, so residues have one size in CPython's 30-bit digits;
# a narrow window keeps p^2, so each row's cost, within 6% whatever the seed draws
DEEP_WINDOW = (1100, 1130)
DEEP_PRIMES_PER_SPEC = 1
QSERIES_TERMS = 200
CM_DIGITS = 60  # cm_check's default working precision for 60 digits is 80
IDENTITY_SAMPLES = 80  # split over IDENTITY_CHUNKS seeds derived from the workload seed
IDENTITY_CHUNKS = 8
IDENTITY_PREC = 256
REPORT_FORMAT = "json"

clock = time.perf_counter
FAILED = object()


class Meter:
    """Times the work items of one job, with the reference loop between them.

    The loop runs before every item and once more at the end, so each item is
    bracketed by reference times taken just before and just after it.
    """

    def __init__(self, mix: str) -> None:
        self.mix = mix  # the reference loop's mix, see refclock
        self.items: list[float] = []  # seconds per work item, in run order
        self.refs: list[float] = []  # seconds per reference loop
        self.errors: list[str] = []

    def run(self, fn):
        """Run one work item; an exception is recorded and returns FAILED."""
        self.refs.append(refclock.reference(self.mix))
        t0 = clock()
        try:
            return fn()
        except Exception as exc:  # one failing item must not lose the run
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return FAILED
        finally:
            self.items.append(clock() - t0)

    def finish(self) -> None:
        self.refs.append(refclock.reference(self.mix))

    def scaled_items(self) -> list[float]:
        """Each item in reference seconds.

        An item is scaled by the median of its two bracketing refs and their
        two neighbours, which damps the noise of a single short loop.
        """
        refs = self.refs
        return [t * refclock.scale(refs[max(0, i - 1):i + 3]) for i, t in enumerate(self.items)]


@dataclass
class Job:
    rows: list[Row]
    meter: Meter
    report_bytes: int
    residuals: list[float] = field(default_factory=list)  # cm-numeric only


def deep_candidates(spec_id: str) -> list[int]:
    spec = congruence.lookup(spec_id)
    return [p for p in primes_in(*DEEP_WINDOW) if spec.m % p and spec.qualifies(p)]


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs of one workload; the same seed always gives the same inputs."""
    if workload == "sweep-catalog":
        ids = congruence.catalog_ids(("proven", "conjectural", "cited"))
        units = [(ids, p) for p in primes_in(CATALOG_MIN_P, CATALOG_MAX_P)]
        return {"units": units, "max_p": CATALOG_MAX_P, "specs": len(ids)}
    if workload == "sweep-deep":
        rng = random.Random(seed)
        units = []
        for sid in DEEP_SPECS:
            for p in sorted(rng.sample(deep_candidates(sid), DEEP_PRIMES_PER_SPEC)):
                units.append(([sid], p))
        return {"units": units, "window": list(DEEP_WINDOW)}
    if workload == "qseries-exact":
        return {"terms": QSERIES_TERMS}
    if workload == "cm-numeric":
        seeds = [seed * IDENTITY_CHUNKS + j for j in range(IDENTITY_CHUNKS)]
        return {"digits": CM_DIGITS, "prec": IDENTITY_PREC,
                "samples_per_seed": IDENTITY_SAMPLES // IDENTITY_CHUNKS,
                "identity_seeds": seeds}
    raise ValueError(f"unknown workload {workload!r}")


def _render(report: Report, workload: str) -> int:
    return len(emit_report(report, REPORT_FORMAT, {"workload": workload}).encode())


# -- untraced jobs ----------------------------------------------------------


def sweep_job(inputs: dict, workload: str) -> Job:
    """congruence.sweep per prime (per row and prime for sweep-deep)."""
    report, meter = Report(), Meter("small")
    for ids, p in inputs["units"]:
        part = meter.run(lambda: congruence.sweep(ids, p, p, workers=1))
        if part is not FAILED:
            report.extend(part.rows)
    report.sort()
    meter.finish()
    return Job(report.rows, meter, _render(report, workload))


def _mismatch_row(name: str, miss: int | None, what: str) -> Row:
    if miss is None:
        return Row(name, None, "pass")
    return Row(name, None, "fail", f"{what} at q^{miss}")


def qseries_job(inputs: dict, workload: str) -> Job:
    """The checks of `verify qseries`."""
    n = inputs["terms"]
    report, meter = Report(), Meter("mixed")

    def check(name, fn, what="first mismatch"):
        miss = meter.run(fn)
        if miss is FAILED:
            report.add(Row(name, None, "fail", "exception"))
        else:
            report.add(_mismatch_row(name, miss, what))

    for tag in QSERIES_CHECKS:
        check(f"genfun-{tag}", lambda: qseries.genfun_identity_check(tag, n))
    for tag in ("u", "s", "w"):
        check(f"dual-{tag}", lambda: qseries.first_mismatch(
            qseries.hauptmodul_q(tag, n), qseries.hauptmodul_alt_q(tag, n)))
    check("t-j-cubic", lambda: qseries.t_j_relation_check(n), "nonzero")
    check("v-ode", lambda: qseries.v_ode_check(n), "nonzero")
    report.sort()
    meter.finish()
    return Job(report.rows, meter, _render(report, workload))


def merge_identity(parts) -> list:
    """Worst residual per identity over several identity_suite calls."""
    worst = {}
    for part in parts:
        for r in part:
            prev = worst.get(r.name)
            if prev is None:
                worst[r.name] = r
            else:
                worst[r.name] = highprec.CheckResult(
                    r.name, prev.ok and r.ok, max(prev.residual, r.residual))
    return list(worst.values())


def _check_rows(results) -> list[Row]:
    return [Row(r.name, None, "pass" if r.ok else "fail", f"residual={r.residual:.2e}")
            for r in results]


def cm_job(inputs: dict, workload: str) -> Job:
    """`verify cm` (CM targets, class invariants) plus `verify identities`.

    The identity samples are split over several seeds, so that the reference
    loop runs between parts of the suite as well.
    """
    report, meter = Report(), Meter("mixed")
    digits, prec, samples = inputs["digits"], inputs["prec"], inputs["samples_per_seed"]
    parts = [meter.run(lambda: [highprec.cm_check(t, digits)]) for t in highprec.cm_table()]
    parts.append(meter.run(lambda: highprec.class_invariant_check(digits)))
    suites = [meter.run(lambda: highprec.identity_suite(samples, prec, s))
              for s in inputs["identity_seeds"]]
    checks = [r for part in parts if part is not FAILED for r in part]
    checks += merge_identity(part for part in suites if part is not FAILED)
    report.extend(_check_rows(checks))
    report.sort()
    meter.finish()
    return Job(report.rows, meter, _render(report, workload), [r.residual for r in checks])


JOBS = {
    "sweep-catalog": sweep_job,
    "sweep-deep": sweep_job,
    "qseries-exact": qseries_job,
    "cm-numeric": cm_job,
}


# -- traced jobs ------------------------------------------------------------


def _traced_verify(spec, p: int, ctx, tr: Tracer, state: dict) -> Row:
    """congruence.verify, one layer call per span."""
    if spec.m % p == 0:
        tr.count("congruence.skip.divides-m")
        return Row(spec.id, p, "skip", "divides-m")
    if not spec.qualifies(p):
        tr.count("congruence.skip.predicate")
        return Row(spec.id, p, "skip", "predicate")
    branch = spec.match_branch(p)
    if branch is None:
        tr.count("congruence.skip.anomaly")
        return Row(spec.id, p, "skip", "branch-anomaly")
    rep = None
    if branch.rep is not None:
        tr.count("quadforms.represent_calls")
        with tr.span("quadforms.represent"):
            rep = represent(p, branch.rep)
        if rep is None:
            tr.count("congruence.skip.anomaly")
            return Row(spec.id, p, "skip", "representability-anomaly")
    if not state["table"]:
        with tr.span("arith.factorial_table"):
            table = ctx.table
        state["table"] = True
        tr.count("arith.factorial_entries", len(table))
    seq = spec.sequence
    if seq not in state["seqs"]:
        with tr.span(f"sequences.terms_mod.{seq.value}"):
            terms = ctx.terms(seq)
        state["seqs"].add(seq)
        tr.count("congruence.terms_mod_calls")
        tr.count("sequences.terms_generated", len(terms))
    tr.count("congruence.lhs_sum_calls")
    with tr.span("congruence.lhs_sum"):
        lhs = congruence.lhs_sum(spec, p, ctx)
    with tr.span("congruence.rhs_value"):
        rhs = congruence.rhs_value(spec, branch, p, rep, ctx)
    tr.count("congruence.checks")
    outcome = "pass" if lhs == rhs else "fail"
    return Row(spec.id, p, outcome, "", lhs, rhs,
               rep.x if rep else None, rep.y if rep else None)


def sweep_traced(inputs: dict, workload: str, tr: Tracer) -> list[Row]:
    report = Report()
    with tr.span("job"):
        for ids, p in inputs["units"]:
            # self time of this span is the sweep's own orchestration
            with tr.span("congruence.prime"):
                specs = [congruence.lookup(sid) for sid in ids]
                ctx = congruence.PrimeContext(p)
                state = {"table": False, "seqs": set()}
                for spec in specs:
                    report.add(_traced_verify(spec, p, ctx, tr, state))
        report.sort()
        _traced_render(report, workload, tr)
    return report.rows


def qseries_traced(inputs: dict, workload: str, tr: Tracer) -> list[Row]:
    n = inputs["terms"]
    report = Report()
    with tr.span("job"):
        for tag in QSERIES_CHECKS:  # genfun_identity_check, step by step
            with tr.span("qseries.hauptmodul_q"):
                inner = qseries.hauptmodul_q(tag, n)
            with tr.span("sequences.exact_terms"):
                outer = exact_terms(qseries.HAUPTMODUL_SEQUENCE[tag], n + 1)
            if tag == "s":
                inner = -inner
            with tr.span("qseries.compose"):
                lhs = qseries.compose(outer, inner).truncate(n + 1)
            with tr.span("qseries.genfun_rhs_q"):
                rhs = qseries.genfun_rhs_q(tag, n + 1).truncate(n + 1)
            with tr.span("qseries.first_mismatch"):
                miss = qseries.first_mismatch(lhs, rhs)
            report.add(_mismatch_row(f"genfun-{tag}", miss, "first mismatch"))
        for tag in ("u", "s", "w"):
            with tr.span("qseries.hauptmodul_q"):
                a = qseries.hauptmodul_q(tag, n)
            with tr.span("qseries.hauptmodul_alt_q"):
                b = qseries.hauptmodul_alt_q(tag, n)
            with tr.span("qseries.first_mismatch"):
                miss = qseries.first_mismatch(a, b)
            report.add(_mismatch_row(f"dual-{tag}", miss, "first mismatch"))
        with tr.span("qseries.t_j_relation"):
            report.add(_mismatch_row("t-j-cubic", qseries.t_j_relation_check(n), "nonzero"))
        with tr.span("qseries.v_ode"):
            report.add(_mismatch_row("v-ode", qseries.v_ode_check(n), "nonzero"))
        report.sort()
        _traced_render(report, workload, tr)
    return report.rows


def cm_traced(inputs: dict, workload: str, tr: Tracer) -> list[Row]:
    report = Report()
    with tr.span("job"):
        results = []
        for target in highprec.cm_table():
            with tr.span("highprec.cm_check"):
                results.append(highprec.cm_check(target, inputs["digits"]))
        with tr.span("highprec.class_invariant"):
            results += highprec.class_invariant_check(inputs["digits"])
        suites = []
        for s in inputs["identity_seeds"]:
            with tr.span("highprec.identity_suite"):
                suites.append(highprec.identity_suite(
                    inputs["samples_per_seed"], inputs["prec"], s))
        results += merge_identity(suites)
        report.extend(_check_rows(results))
        report.sort()
        _traced_render(report, workload, tr)
    return report.rows


def _traced_render(report: Report, workload: str, tr: Tracer) -> None:
    with tr.span("cli.emit_report"):
        tr.count("cli.report_bytes", _render(report, workload))


TRACED = {
    "sweep-catalog": sweep_traced,
    "sweep-deep": sweep_traced,
    "qseries-exact": qseries_traced,
    "cm-numeric": cm_traced,
}


# -- layer kernels on fixed inputs --------------------------------------------

KERNEL_BUDGET_S = 1.0
KERNEL_MAX_REPS = 5


def _kernel_time(fn) -> float:
    """Median seconds of fn over up to KERNEL_MAX_REPS calls in the budget."""
    times: list[float] = []
    start = clock()
    while len(times) < KERNEL_MAX_REPS and (not times or clock() - start < KERNEL_BUDGET_S):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    times.sort()
    return times[len(times) // 2]


def qseries_kernels() -> dict[str, float]:
    """QSeries *, /, ** and compose on eta quotients at 200 and 400 terms."""
    out = {}
    for n in (200, 400):
        e = {m: qseries.eta_q(m, n) for m in (1, 2, 4)}
        quot = (e[1] * e[4]) / (e[2] * e[2])  # t = quot^24
        t = quot ** 24
        outer = exact_terms(SequenceId.CB3, n + 1)
        out[f"qseries.kernel.mul_s.n{n}"] = _kernel_time(lambda: t * t)
        out[f"qseries.kernel.div_s.n{n}"] = _kernel_time(lambda: t / quot)
        out[f"qseries.kernel.pow_s.n{n}"] = _kernel_time(lambda: quot ** 24)
        out[f"qseries.kernel.compose_s.n{n}"] = _kernel_time(lambda: qseries.compose(outer, t))
        if n == 400:
            out["qseries.kernel.coeff_bits.n400"] = max(
                abs(int(c)).bit_length() for c in list(t.coeffs) + outer)
    return out


ETA_PRECS = (256, 1024)
ETA_IMAG = (("1e0", "1"), ("1e-1", "0.1"), ("1e-2", "0.01"), ("1e-3", "0.001"))


def highprec_kernels() -> dict[str, float]:
    """eta_num per working precision and per Im(tau), in milliseconds."""
    mpmath = highprec.mpmath
    out = {}
    for prec in ETA_PRECS:
        for label, imag in ETA_IMAG:
            with mpmath.mp.workprec(prec):
                tau = mpmath.mpc(mpmath.mpf("0.3"), mpmath.mpf(imag))
            ms = 1000 * _kernel_time(lambda: highprec.eta_num(tau, prec))
            out[f"highprec.kernel.eta_num_ms.prec{prec}.im{label}"] = ms
    return out


KERNELS = {"qseries-exact": qseries_kernels, "cm-numeric": highprec_kernels}
