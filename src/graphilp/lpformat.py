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
and any name used without being listed under `Binary`. A variable's kind
follows its id, in memory as in LP text (`encode.Variable.kind`): names
starting with `aux_` are auxiliary binaries, the others mapping variables, so
export and import cannot disagree on a kind. The writer refuses a variable
that would not read back as itself (see `export_lp`).
"""

from __future__ import annotations

import math
import re
import string

from .encode import GenerationError, IlpProblem, MappingTable, ObjectiveFunc, Row, Variable


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

# A name: what the scanner reads as one and what `export_lp` checks each
# variable against. `\w` is a letter, digit or `_` of any script.
_NAME = re.compile(r"[A-Za-z_][\w.]*")

# One token per match, after any blanks. Alternatives are tried in order, so
# `<=` wins over `<` and a name over the numeral its tail could start (`e5` is
# a name, `2z` a numeral and a name); `.` takes one character nothing else
# accepts. On a line without trailing blanks every match is a token.
_SCAN = re.compile(r"\s*(\\.*|%s|[+-]|:|%s|[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|.)" % (
    "|".join(map(re.escape, sorted(_RELATIONS, key=len, reverse=True))), _NAME.pattern))

# A token's kind, from its first character; any other character is `bad`. A
# comment runs to the end of its line, and a lone `.` is `bad` (`.5` is a num).
_KIND = {**dict.fromkeys(string.ascii_letters + "_", "name"),
         **dict.fromkeys(string.digits + ".", "num"), **dict.fromkeys("<>=", "rel"),
         "+": "sign", "-": "sign", ":": "colon", "\\": "comment"}


def _header(line: str) -> str | None:
    """The section `line` opens, if it is a header line (at most two words)."""
    words = line.split(None, 2)
    return _SECTIONS.get(" ".join(words).lower()) if len(words) < 3 else None


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
        if not _NAME.fullmatch(v.id) or _header(v.id):
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


def _number(text: str, line: int) -> float:
    """A numeral's value; one beyond the float range is refused at its line."""
    value = float(text)
    if not math.isfinite(value):
        raise LpParseError("non-finite coefficient or constant", line)
    return value


def _parse_terms(texts, kinds, lines, i, stop, seen: dict[str, int]):
    """Parse a run of `[+|-] [coef] [name]` terms from token `i` up to a token
    of kind `stop` or the end; returns (coeffs, const, next). Adds each name
    not yet in `seen` with the line it is on. A sign needs a term after it."""
    coeffs: dict[str, float] = {}
    const = 0.0
    sign = 1.0
    pending: float | None = None
    dangling = None  # the last sign, until a term follows it
    n = len(kinds)
    while i < n:
        kind = kinds[i]
        if kind == "name":
            name = texts[i]
            coef = sign * (pending if pending is not None else 1.0)
            coeffs[name] = coeffs.get(name, 0.0) + coef
            seen.setdefault(name, lines[i])
            pending = dangling = None
            sign = 1.0
        elif kind == "num":
            if pending is not None:  # the number before was a constant term
                const += sign * pending
                sign = 1.0
            pending = _number(texts[i], lines[i])
            dangling = None
        elif kind == "sign":
            if pending is not None:
                const += sign * pending
                pending = None
                sign = 1.0
            if texts[i] == "-":
                sign = -sign
            dangling = i
        elif kind == stop:
            break
        else:
            raise LpParseError(f"unexpected token {texts[i]!r}", lines[i])
        i += 1
    if dangling is not None and (i < n or stop is None):  # else the caller reports no `stop`
        raise LpParseError(f"sign {texts[dangling]!r} has no term after it", lines[dangling])
    if pending is not None:
        const += sign * pending
    return coeffs, const, i


def import_lp(text: str) -> IlpProblem:
    """Parse LP-format text back into a problem. Inverse of `export_lp` on its
    own output. Errors come in section order (objective, rows, `Bounds`,
    `General`, `Binary`), a section's unexpected character first."""
    # section -> its tokens as three parallel lists: texts, kinds, lines
    sections: dict[str, tuple[list, list, list]] = {}
    unreadable: dict[str, LpParseError] = {}  # section -> its first bad character
    sense = current = texts = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        header = _header(line)
        if header:
            if header == "end":
                break
            if header in ("min", "max"):
                sense, header = header, "objective"
            current = header
            texts, kinds, lines = sections.setdefault(header, ([], [], []))
            continue
        found = _SCAN.findall(line.rstrip())
        kind = [_KIND.get(t[0], "bad") for t in found]
        if kind and kind[-1] == "comment":
            del found[-1], kind[-1]
        if not found:
            continue
        if texts is None:
            raise LpParseError("expected a section header", line_no)
        if current not in unreadable and ("bad" in kind or "." in found):
            bad = next(t for t, k in zip(found, kind) if k == "bad" or t == ".")
            unreadable[current] = LpParseError(f"unexpected character {bad!r}", line_no)
        texts += found
        kinds += kind
        lines += [line_no] * len(found)
    if sense is None:
        raise LpParseError("missing Minimize/Maximize section", 1)

    def section(name):
        if name in unreadable:
            raise unreadable[name]
        return sections.get(name, ([], [], []))

    seen: dict[str, int] = {}  # variable -> line of its first use
    texts, kinds, lines = section("objective")
    start = 0
    if len(kinds) >= 2 and kinds[1] == "colon":
        if kinds[0] != "name":
            raise LpParseError(f"an objective label must be a name, got {texts[0]!r}",
                               lines[0])
        start = 2
    obj_coeffs, obj_const, _ = _parse_terms(texts, kinds, lines, start, None, seen)
    try:
        objective = ObjectiveFunc(sense, obj_coeffs, obj_const)
    except GenerationError as exc:  # finite numerals whose sum overflows
        raise LpParseError(str(exc), lines[0]) from None

    rows: list[Row] = []
    labels: set[str] = set()
    texts, kinds, lines = section("rows")
    i, n = 0, len(kinds)
    while i < n:
        label, row_line = texts[i], lines[i]
        if i + 1 >= n or kinds[i + 1] != "colon":
            raise LpParseError("constraints must be labelled 'name: ...'", row_line)
        if kinds[i] != "name":
            raise LpParseError(f"a constraint label must be a name, got {label!r}", row_line)
        if label in labels:
            raise LpParseError(f"constraint label {label!r} is used twice", row_line)
        labels.add(label)
        coeffs, const, i = _parse_terms(texts, kinds, lines, i + 2, "rel", seen)
        if i >= n:
            raise LpParseError("constraint without relation", lines[-1])
        rel, rel_line = texts[i], lines[i]
        i += 1
        sign = 1.0
        if i < n and kinds[i] == "sign":
            sign = -1.0 if texts[i] == "-" else 1.0
            i += 1
        if i >= n or kinds[i] != "num":
            raise LpParseError("constraint needs a numeric right-hand side", rel_line)
        rhs = sign * _number(texts[i], lines[i])
        i += 1
        try:
            rows.append(Row(coeffs, _RELATIONS[rel], rhs - const))
        except GenerationError as exc:  # finite numerals whose sum overflows
            raise LpParseError(str(exc), row_line) from None

    for name, what in (("bounds", "bounds"), ("general", "general integer variables")):
        lines = section(name)[2]
        if lines:
            raise LpParseError(f"{what} are not supported: every variable is binary",
                               lines[0])
    declared: dict[str, Variable] = {}
    for word, kind, line in zip(*section("binary")):
        if kind != "name":
            raise LpParseError(f"expected a variable name, got {word!r}", line)
        if word in declared:
            raise LpParseError(f"variable {word!r} is declared binary twice", line)
        declared[word] = Variable(word)
    for name, line in seen.items():
        if name not in declared:
            raise LpParseError(f"variable {name!r} is not declared binary", line)
    return IlpProblem(list(declared.values()), rows, objective)


def problems_equal(a: IlpProblem, b: IlpProblem, tol: float = 1e-9) -> bool:
    """Row-for-row equality of two problems within `tol`."""
    if [v.id for v in a.variables] != [v.id for v in b.variables]:
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
