"""CPLEX-LP-format export and import.

Section keywords are emitted exactly as `Minimize`/`Maximize`, `Subject To`,
`Bounds`, `Binary`, `End`; numeric literals carry 12 significant digits. The
reader accepts the writer's output plus the spellings in `_SECTIONS` and
`_RELATIONS`: keywords in any ASCII case, with any blanks around a header,
and `<`/`>` for `<=`/`>=`. `\\` starts a comment that runs to the end of the
line. Constraints must be labelled (`name: terms rel rhs`), which the writer
always does.

Every variable is binary: the writer lists each one under `Binary` and leaves
`Bounds` empty, and the reader rejects a `Bounds` entry, a `General` section
and any name used without being listed under `Binary`. Variable kinds on
import follow the id scheme: names starting with `aux_` come back as
auxiliary binaries, the others as mapping variables. The writer refuses a
variable that would not read back as itself (see `export_lp`).
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


# Header spelling (lower case, words one blank apart) -> section.
_SECTIONS = {
    "minimize": "min", "min": "min", "maximize": "max", "max": "max",
    "subject to": "rows", "such that": "rows", "st": "rows", "s.t.": "rows",
    "bounds": "bounds", "binary": "binary", "binaries": "binary", "bin": "binary",
    "general": "general", "generals": "general", "gen": "general", "end": "end",
}

# Relation spelling -> the row relation it means.
_RELATIONS = {"<=": "<=", "=<": "<=", "<": "<=", ">=": ">=", "=>": ">=", ">": ">=",
              "=": "="}

# Alternatives are tried in order, so `<=` wins over `<` and a name over the
# numeral its tail could start (`e5` is a name, `2z` a numeral and a name).
# `\w` is a letter, digit or `_` of any script; `bad` catches every character
# nothing else accepts.
_TOKEN = re.compile("|".join([
    r"(?P<blank>\s+)",
    r"(?P<comment>\\.*)",
    "(?P<rel>%s)" % "|".join(map(re.escape, sorted(_RELATIONS, key=len, reverse=True))),
    r"(?P<sign>[+-])",
    r"(?P<colon>:)",
    r"(?P<name>[A-Za-z_][\w.]*)",
    r"(?P<num>[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)",
    r"(?P<bad>.)",
]))


def _header(line: str) -> str | None:
    """The section `line` opens, if it is a header line."""
    return _SECTIONS.get(" ".join(line.split()).lower())


def _scan(text: str):
    """(kind, text, line) tokens, without blanks and comments. A header line
    is one `header` token whose text is its section."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        section = _header(line)
        if section:
            yield "header", section, line_no
            continue
        for m in _TOKEN.finditer(line):
            kind = m.lastgroup
            if kind != "blank" and kind != "comment":
                yield kind, m.group(), line_no


def _num(x) -> str:
    return f"{x:.12g}"


def _terms(coeffs: dict, order: dict[str, int]) -> str:
    try:
        ordered = sorted(coeffs, key=order.__getitem__)
    except KeyError as exc:
        raise LpExportError(f"cannot export variable {exc.args[0]!r}: it is used but "
                            f"not among the program's variables") from None
    parts = []
    for vid in ordered:
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
    deterministic ids the encoder already assigned. A variable `import_lp`
    would not read back as itself is an LpExportError: a name that is not one
    `name` token or is a section header (`end`, `St`), or a row or objective
    variable missing from `p.variables`.
    """
    for v in p.variables:
        m = _TOKEN.fullmatch(v.id)
        if m is None or m.lastgroup != "name" or _header(v.id):
            raise LpExportError(f"cannot export variable {v.id!r}: an LP name is a letter "
                                f"or '_' followed by letters, digits, '_' or '.', and "
                                f"no section header")
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
        out.append(f" c{i}: {body} {row.rel} {_num(row.rhs)}")
    out.append("Bounds")
    if p.variables:
        out.append("Binary")
        for v in p.variables:
            out.append(f" {v.id}")
    out.append("End")
    return "\n".join(out) + "\n"


def _parse_terms(tokens, i, stop, seen: dict[str, int]):
    """Parse a run of `[+|-] [coef] [name]` terms from `tokens[i]` up to a token
    of kind `stop` or the end; returns (coeffs, const, next). Adds each name
    not yet in `seen` with the line it is on."""
    coeffs: dict[str, float] = {}
    const = 0.0
    sign = 1.0
    pending: float | None = None
    while i < len(tokens):
        kind, text, line = tokens[i]
        if kind == "name":
            coef = sign * (pending if pending is not None else 1.0)
            coeffs[text] = coeffs.get(text, 0.0) + coef
            seen.setdefault(text, line)
            pending = None
            sign = 1.0
        elif kind == "num":
            if pending is not None:  # the number before was a constant term
                const += sign * pending
                sign = 1.0
            pending = float(text)
        elif kind == "sign":
            if pending is not None:
                const += sign * pending
                pending = None
                sign = 1.0
            if text == "-":
                sign = -sign
        elif kind == stop:
            break
        else:
            raise LpParseError(f"unexpected token {text!r}", line)
        i += 1
    if pending is not None:
        const += sign * pending
    return coeffs, const, i


def import_lp(text: str) -> IlpProblem:
    """Parse LP-format text back into a problem. Inverse of `export_lp` on its
    own output. Errors come in section order (objective, rows, `Bounds`,
    `General`, `Binary`), a section's unexpected character first."""
    sections: dict[str, list] = {}
    unreadable: dict[str, LpParseError] = {}  # section -> its first bad character
    sense = current = tokens = None
    for kind, word, line in _scan(text):
        if kind == "header":
            if word == "end":
                break
            if word in ("min", "max"):
                sense, word = word, "objective"
            current, tokens = word, sections.setdefault(word, [])
        elif tokens is None:
            raise LpParseError("expected a section header", line)
        elif kind == "bad":
            unreadable.setdefault(current, LpParseError(f"unexpected character {word!r}",
                                                        line))
        else:
            tokens.append((kind, word, line))
    if sense is None:
        raise LpParseError("missing Minimize/Maximize section", 1)

    def section(name):
        if name in unreadable:
            raise unreadable[name]
        return sections.get(name, [])

    seen: dict[str, int] = {}  # variable -> line of its first use
    obj = section("objective")
    start = 2 if len(obj) >= 2 and obj[1][0] == "colon" else 0
    obj_coeffs, obj_const, _ = _parse_terms(obj, start, None, seen)
    try:
        objective = ObjectiveFunc(sense, obj_coeffs, obj_const)
    except GenerationError as exc:  # a number beyond the float range
        raise LpParseError(str(exc), obj[0][2]) from None

    rows: list[Row] = []
    tokens = section("rows")
    i = 0
    while i < len(tokens):
        row_line = tokens[i][2]
        if i + 1 >= len(tokens) or tokens[i + 1][0] != "colon":
            raise LpParseError("constraints must be labelled 'name: ...'", row_line)
        coeffs, const, i = _parse_terms(tokens, i + 2, "rel", seen)
        if i >= len(tokens):
            raise LpParseError("constraint without relation", tokens[-1][2])
        _, rel, rel_line = tokens[i]
        i += 1
        sign = 1.0
        if i < len(tokens) and tokens[i][0] == "sign":
            sign = -1.0 if tokens[i][1] == "-" else 1.0
            i += 1
        if i >= len(tokens) or tokens[i][0] != "num":
            raise LpParseError("constraint needs a numeric right-hand side", rel_line)
        rhs = sign * float(tokens[i][1])
        i += 1
        try:
            rows.append(Row(coeffs, _RELATIONS[rel], rhs - const))
        except GenerationError as exc:  # a number beyond the float range
            raise LpParseError(str(exc), row_line) from None

    for name, what in (("bounds", "bounds"), ("general", "general integer variables")):
        extra = section(name)
        if extra:
            raise LpParseError(f"{what} are not supported: every variable is binary",
                               extra[0][2])
    declared: dict[str, Variable] = {}
    for kind, word, line in section("binary"):
        if kind != "name":
            raise LpParseError(f"expected a variable name, got {word!r}", line)
        if word in declared:
            raise LpParseError(f"variable {word!r} is declared binary twice", line)
        declared[word] = Variable(word, AUX_BINARY if word.startswith("aux_") else BINARY)
    for name, line in seen.items():
        if name not in declared:
            raise LpParseError(f"variable {name!r} is not declared binary", line)
    return IlpProblem(list(declared.values()), rows, objective)


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
