"""CPLEX-LP-format export and import.

Section keywords are emitted exactly as `Minimize`/`Maximize`, `Subject To`,
`Bounds`, `Binary`, `End`; numeric literals carry 12 significant digits. The
reader accepts the writer's output plus the usual spelling variants
(case-insensitive keywords, `<`/`>` for `<=`/`>=`). Constraints must be
labelled (`name: terms rel rhs`), which the writer always does.

Every variable is binary: the writer lists each one under `Binary` and leaves
`Bounds` empty, and the reader rejects a `Bounds` entry, a `General` section
and any name used without being listed under `Binary`. Variable kinds on
import follow the id scheme: names starting with `aux_` come back as
auxiliary binaries, the others as mapping variables.
"""

from __future__ import annotations

import re

from .encode import (AUX_BINARY, BINARY, GenerationError, IlpProblem, MappingTable,
                     ObjectiveFunc, Row, Variable)


class LpParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line


class LpExportError(Exception):
    """A program the LP format cannot express."""


def _num(x) -> str:
    return f"{x:.12g}"


def _terms(coeffs: dict, order: dict[str, int]) -> str:
    parts = []
    for vid in sorted(coeffs, key=lambda v: order.get(v, 1 << 30)):
        c = coeffs[vid]
        if not parts:
            head = "- " if c < 0 else ""
        else:
            head = "- " if c < 0 else "+ "
        mag = abs(c)
        parts.append(f"{head}{vid}" if mag == 1 else f"{head}{_num(mag)} {vid}")
    return " ".join(parts)


def export_lp(p: IlpProblem, table: MappingTable | None = None) -> str:
    """Serialize a problem to LP-format text.

    The mapping table is accepted for interface parity; variable names are the
    deterministic ids the encoder already assigned.
    """
    order = {v.id: i for i, v in enumerate(p.variables)}
    out = []
    out.append("Minimize" if p.objective.sense == "min" else "Maximize")
    obj = _terms(p.objective.terms, order)
    const = p.objective.constant
    if const:
        tail = f"- {_num(abs(const))}" if const < 0 else f"+ {_num(const)}"
        obj = f"{obj} {tail}" if obj else (_num(const) if const > 0 else f"- {_num(abs(const))}")
    out.append(f" obj: {obj if obj else '0'}")
    out.append("Subject To")
    for i, row in enumerate(p.constraints):
        body = _terms(row.coeffs, order)
        if not body:
            anchor = p.variables[0].id if p.variables else None
            if anchor is None:
                raise LpExportError(f"cannot export constraint c{i}: it has no "
                                    f"variables and the program has none")
            body = f"0 {anchor}"
        rel = {"<=": "<=", ">=": ">=", "=": "="}[row.rel]
        out.append(f" c{i}: {body} {rel} {_num(row.rhs)}")
    out.append("Bounds")
    if p.variables:
        out.append("Binary")
        for v in p.variables:
            out.append(f" {v.id}")
    out.append("End")
    return "\n".join(out) + "\n"


_SECTION_RE = re.compile(
    r"^\s*(minimize|maximize|min|max|subject\s+to|such\s+that|st|s\.t\.|bounds|"
    r"binary|binaries|bin|general|generals|gen|end)\s*$", re.IGNORECASE)

_TOKEN_RE = re.compile(
    r"(<=|>=|=<|=>|<|>|=|\+|-|:|[A-Za-z_][\w.]*|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)")

_NUM_RE = re.compile(r"[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?")


def _section_of(word: str) -> str:
    w = re.sub(r"\s+", " ", word.strip().lower())
    if w in ("minimize", "min"):
        return "minimize"
    if w in ("maximize", "max"):
        return "maximize"
    if w in ("subject to", "such that", "st", "s.t."):
        return "subject"
    if w in ("binary", "binaries", "bin"):
        return "binary"
    if w in ("general", "generals", "gen"):
        return "general"
    return w  # bounds, end


def _tokenize_lp(text: str):
    """(token, line_no) pairs for one section body; `\\` comments stripped."""
    tokens = []
    for ln, line in text:
        line = line.split("\\", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise LpParseError(f"unexpected character {ch!r}", ln)
            tokens.append((m.group(0), ln))
            pos = m.end()
    return tokens


def _parse_terms(tokens, start, stop_kinds):
    """Parse a run of `[+|-] [coef] [name]` terms; returns (coeffs, const, next)."""
    coeffs: dict[str, float] = {}
    const = 0.0
    i = start
    sign = 1.0
    pending: float | None = None
    while i < len(tokens):
        tok, ln = tokens[i]
        if tok in stop_kinds:
            break
        if tok in ("+", "-"):
            if pending is not None:  # the number before was a constant term
                const += sign * pending
                pending = None
                sign = 1.0
            if tok == "-":
                sign = -sign
            i += 1
            continue
        if _NUM_RE.fullmatch(tok):
            if pending is not None:
                const += sign * pending
                sign = 1.0
            pending = float(tok)
            i += 1
            continue
        if not re.match(r"[A-Za-z_]", tok):
            raise LpParseError(f"unexpected token {tok!r}", ln)
        coef = sign * (pending if pending is not None else 1.0)
        coeffs[tok] = coeffs.get(tok, 0.0) + coef
        pending = None
        sign = 1.0
        i += 1
    if pending is not None:
        const += sign * pending
    return coeffs, const, i


def import_lp(text: str) -> IlpProblem:
    """Parse LP-format text back into a problem. Inverse of `export_lp` on its
    own output."""
    sections: dict[str, list] = {}
    current = None
    sense = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        m = _SECTION_RE.match(raw)
        if m:
            current = _section_of(m.group(1))
            if current in ("minimize", "maximize"):
                sense = "min" if current == "minimize" else "max"
                current = "objective"
            if current == "end":
                break
            sections.setdefault(current, [])
            continue
        if current is None:
            if raw.strip() and not raw.strip().startswith("\\"):
                raise LpParseError("expected a section header", ln)
            continue
        sections.setdefault(current, []).append((ln, raw))
    if sense is None:
        raise LpParseError("missing Minimize/Maximize section", 1)

    # objective
    obj_tokens = _tokenize_lp(sections.get("objective", []))
    i = 0
    if len(obj_tokens) >= 2 and obj_tokens[1][0] == ":":
        i = 2
    obj_coeffs, obj_const, i = _parse_terms(obj_tokens, i, stop_kinds=())
    if i != len(obj_tokens):
        raise LpParseError("unexpected content after the objective",
                           obj_tokens[i][1])
    seen: dict[str, int] = {}  # variable -> line of its first use
    for vid in obj_coeffs:
        seen.setdefault(vid, obj_tokens[0][1])

    # constraints
    rows: list[Row] = []
    tokens = _tokenize_lp(sections.get("subject", []))
    i = 0
    while i < len(tokens):
        if i + 1 >= len(tokens) or tokens[i + 1][0] != ":":
            raise LpParseError("constraints must be labelled 'name: ...'",
                               tokens[i][1])
        row_line = tokens[i][1]
        i += 2
        coeffs, const, i = _parse_terms(tokens, i, stop_kinds=("<=", ">=", "<", ">",
                                                               "=", "=<", "=>"))
        if i >= len(tokens):
            raise LpParseError("constraint without relation", tokens[-1][1])
        rel_tok, ln = tokens[i]
        rel = {"<=": "<=", "<": "<=", "=<": "<=", ">=": ">=", ">": ">=",
               "=>": ">=", "=": "="}[rel_tok]
        i += 1
        rhs_sign = 1.0
        if i < len(tokens) and tokens[i][0] in ("+", "-"):
            rhs_sign = -1.0 if tokens[i][0] == "-" else 1.0
            i += 1
        if i >= len(tokens) or not _NUM_RE.fullmatch(tokens[i][0]):
            raise LpParseError("constraint needs a numeric right-hand side", ln)
        rhs = rhs_sign * float(tokens[i][0])
        i += 1
        for vid in coeffs:
            seen.setdefault(vid, row_line)
        try:
            rows.append(Row(coeffs, rel, rhs - const))
        except GenerationError as exc:  # a number beyond the float range
            raise LpParseError(str(exc), row_line) from None

    for section, what in (("bounds", "bounds"), ("general", "general integer variables")):
        extra = _tokenize_lp(sections.get(section, []))
        if extra:
            raise LpParseError(f"{what} are not supported: every variable is binary",
                               extra[0][1])
    variables = [Variable(name, AUX_BINARY if name.startswith("aux_") else BINARY)
                 for name, _ in _tokenize_lp(sections.get("binary", []))]
    declared = {v.id for v in variables}
    for name, line in seen.items():
        if name not in declared:
            raise LpParseError(f"variable {name!r} is not declared binary", line)
    objective = ObjectiveFunc(sense, obj_coeffs, obj_const)
    return IlpProblem(variables, rows, objective)


def problems_equal(a: IlpProblem, b: IlpProblem, tol: float = 1e-9) -> bool:
    """Row-for-row equality of two problems within `tol`."""
    if [(v.id, v.kind) for v in a.variables] != [(v.id, v.kind) for v in b.variables]:
        return False
    if len(a.constraints) != len(b.constraints):
        return False
    for ra, rb in zip(a.constraints, b.constraints):
        if ra.rel != rb.rel or set(ra.coeffs) != set(rb.coeffs):
            return False
        if abs(ra.rhs - rb.rhs) > tol:
            return False
        for vid, c in ra.coeffs.items():
            if abs(c - rb.coeffs[vid]) > tol:
                return False
    oa, ob = a.objective, b.objective
    if oa.sense != ob.sense or set(oa.terms) != set(ob.terms):
        return False
    if abs(oa.constant - ob.constant) > tol:
        return False
    return all(abs(oa.terms[v] - ob.terms[v]) <= tol for v in oa.terms)
