"""CNF data model, DIMACS parsing/serialization, evaluation and simplification.

Conventions used throughout the package:

* variables are numbered ``1..num_vars``; a literal is ``v`` or ``-v``;
* a total assignment is a sequence of 0/1 values where position ``v - 1``
  holds the value of variable ``v``;
* a partial assignment is a mapping ``variable -> 0/1``;
* the empty clause ``()`` is the explicit "unsatisfiable" marker and is
  normally only produced by :func:`simplify`.

All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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


_UNSAT_MARKER = ((),)


def simplify(
    formula: CnfFormula,
    fixed: Mapping[int, int] | Iterable[tuple[int, int]],
    unit_propagate: bool = False,
) -> CnfFormula:
    """Substitute fixed values and simplify.

    Satisfied clauses are removed and falsified literals dropped from the
    rest. With ``unit_propagate`` the variables forced by unit clauses are
    fixed repeatedly until a fixpoint. Variable indexing is preserved: fixed
    variables simply stop being referenced. If a contradiction arises the
    result is the canonical unsatisfiable marker (a single empty clause).
    """
    values: dict[int, int] = {}
    pairs = fixed.items() if isinstance(fixed, Mapping) else fixed
    for var, val in pairs:
        if not (1 <= var <= formula.num_vars):
            raise ValueError(f"fixed variable {var} out of range")
        if val not in (0, 1):
            raise ValueError(f"fixed value for variable {var} must be 0 or 1")
        if values.get(var, val) != val:
            raise ValueError(f"conflicting fixed values for variable {var}")
        values[var] = val

    clauses = list(formula.clauses)
    while True:
        out: list[Clause] = []
        for clause in clauses:
            kept: list[int] = []
            satisfied = False
            for lit in clause:
                val = values.get(abs(lit))
                if val is None:
                    kept.append(lit)
                elif val == (1 if lit > 0 else 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not kept:
                return CnfFormula(formula.num_vars, _UNSAT_MARKER)
            out.append(tuple(kept))

        if not unit_propagate:
            return CnfFormula(formula.num_vars, tuple(out))

        forced: dict[int, int] = {}
        for clause in out:
            if len(clause) == 1:
                lit = clause[0]
                val = 1 if lit > 0 else 0
                if forced.get(abs(lit), val) != val:
                    return CnfFormula(formula.num_vars, _UNSAT_MARKER)
                forced[abs(lit)] = val
        if not forced:
            return CnfFormula(formula.num_vars, tuple(out))
        values.update(forced)
        clauses = out
