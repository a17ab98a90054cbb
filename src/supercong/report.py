"""Result rows and aggregate reports shared by all verification commands."""

from __future__ import annotations

from dataclasses import dataclass, field

# The closed set of skip reasons of a congruence row.  The two anomalies mean
# that a catalog claim broke at that prime, so they gate the exit code.
SKIP_PREDICATE = "predicate"
SKIP_DIVIDES_M = "divides-m"
SKIP_BRANCH_ANOMALY = "branch-anomaly"
SKIP_REPRESENTABILITY_ANOMALY = "representability-anomaly"
ANOMALIES = frozenset({SKIP_BRANCH_ANOMALY, SKIP_REPRESENTABILITY_ANOMALY})


@dataclass(frozen=True, slots=True)
class Row:
    spec_id: str
    p: int | None
    outcome: str  # "pass" | "fail" | "skip" | "error" (the check raised)
    detail: str = ""
    lhs: int | None = None
    rhs: int | None = None
    x: int | None = None
    y: int | None = None
    status: str | None = None  # catalog status of a congruence row, else None

    def sort_key(self):
        return (self.spec_id, self.p if self.p is not None else -1)


def error_row(spec_id: str, p: int | None, exc: Exception, status: str | None = None) -> Row:
    """The row of a check that raised exc: `Type: message` as its detail, the
    traceback on stderr, so that one broken check never loses a report."""
    import traceback  # imported here, so runs without an error never load it

    traceback.print_exception(exc)
    return Row(spec_id, p, "error", f"{type(exc).__name__}: {exc}", status=status)


@dataclass
class Report:
    rows: list[Row] = field(default_factory=list)

    def add(self, row: Row) -> None:
        self.rows.append(row)

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    def sort(self) -> None:
        self.rows.sort(key=Row.sort_key)

    def summary(self) -> dict[str, int]:
        """Rows per outcome; "error" appears only when some row has it."""
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for row in self.rows:
            counts[row.outcome] = counts.get(row.outcome, 0) + 1
        return counts

    def failures(self) -> list[Row]:
        return [r for r in self.rows if r.outcome == "fail"]

    def anomalies(self) -> list[Row]:
        return [r for r in self.rows if r.outcome == "skip" and r.detail in ANOMALIES]
