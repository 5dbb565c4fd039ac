"""CNF data model, DIMACS parsing/serialization and evaluation.

Conventions used throughout the package:

* variables are numbered ``1..num_vars``; a literal is ``v`` or ``-v``;
* a total assignment is a sequence of 0/1 values where position ``v - 1``
  holds the value of variable ``v``;
* the empty clause ``()`` is the explicit "unsatisfiable" marker; DIMACS
  input yields one for a bare ``0``.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Clause = tuple[int, ...]
Assignment = Sequence[int]


class DimacsError(ValueError):
    """Malformed DIMACS CNF input."""


@dataclass(frozen=True)
class CnfFormula:
    """A propositional formula in conjunctive normal form."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 1:
            raise ValueError(f"num_vars must be positive, got {self.num_vars}")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for {self.num_vars} variables"
                    )

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def has_empty_clause(self) -> bool:
        """True if the formula carries the explicit unsatisfiable marker."""
        return any(len(c) == 0 for c in self.clauses)


def normalize(formula: CnfFormula) -> tuple[CnfFormula, list[str]]:
    """Remove duplicate literals and tautological clauses.

    Duplicates within a clause are silently dropped (first occurrence kept);
    clauses containing both ``v`` and ``-v`` are removed entirely. Both
    rewrites preserve the model count exactly. Returns the normalized formula
    and a list of human-readable warnings describing what was rewritten.
    """
    warnings: list[str] = []
    out: list[Clause] = []
    for idx, clause in enumerate(formula.clauses):
        seen: dict[int, None] = {}
        tautology = False
        for lit in clause:
            if -lit in seen:
                tautology = True
                break
            if lit in seen:
                continue
            seen[lit] = None
        if tautology:
            warnings.append(f"clause {idx + 1} is a tautology, removed")
            continue
        if len(seen) != len(clause):
            warnings.append(f"clause {idx + 1} had duplicate literals, deduplicated")
        out.append(tuple(seen))
    return CnfFormula(formula.num_vars, tuple(out)), warnings


def parse_dimacs(text: str | bytes) -> tuple[CnfFormula, list[str]]:
    """Parse DIMACS CNF text into a normalized formula.

    Accepts `c` comment lines, a single ``p cnf <n> <m>`` header and
    whitespace-separated literals with ``0`` terminating each clause
    (newlines inside clauses are fine). Lines starting with ``%`` are
    ignored, as found in some published benchmark files.

    Returns ``(formula, warnings)``. A clause-count mismatch with the header
    and any normalization rewrites are warnings, not errors.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    header: tuple[int, int] | None = None
    warnings: list[str] = []
    clauses: list[Clause] = []
    current: list[int] = []

    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise DimacsError("duplicate 'p' header line")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"malformed header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError as exc:
                raise DimacsError(f"malformed header: {line!r}") from exc
            if header[0] < 1 or header[1] < 0:
                raise DimacsError(f"invalid header counts: {line!r}")
            continue
        if header is None:
            raise DimacsError(f"clause data before 'p cnf' header: {line!r}")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"invalid literal token {tok!r}") from exc
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > header[0]:
                    raise DimacsError(
                        f"literal {lit} out of range 1..{header[0]}"
                    )
                current.append(lit)

    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if current:
        raise DimacsError("unterminated final clause (missing trailing 0)")
    if len(clauses) != header[1]:
        warnings.append(
            f"header declares {header[1]} clauses, found {len(clauses)}"
        )

    formula, norm_warnings = normalize(CnfFormula(header[0], tuple(clauses)))
    warnings.extend(norm_warnings)
    return formula, warnings


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize to DIMACS text; ``parse_dimacs`` round-trips it exactly."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause + (0,)))
    return "\n".join(lines) + "\n"


def evaluate(formula: CnfFormula, assignment: Assignment) -> bool:
    """True iff every clause has at least one satisfied literal.

    ``assignment`` must be total: one 0/1 value per variable, position
    ``v - 1`` holding variable ``v``.
    """
    if len(assignment) != formula.num_vars:
        raise ValueError(
            f"assignment covers {len(assignment)} variables, "
            f"formula has {formula.num_vars}"
        )
    for clause in formula.clauses:
        for lit in clause:
            if assignment[abs(lit) - 1] == (1 if lit > 0 else 0):
                break
        else:
            return False
    return True

