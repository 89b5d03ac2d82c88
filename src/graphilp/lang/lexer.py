"""Tokenizer shared by the specification language and the model file format."""

from __future__ import annotations

import re
from functools import cache


class LocatedError(Exception):
    """An error at a line and column of a text; each text reader raises its
    own subclass (the spec's `DslSyntaxError`, the model's `ModelParseError`)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# Longest first so '->' wins over '-', '<=' over '<', etc.
_OPERATORS = (
    "->", ":=", "<=", ">=", "==", "!=", "::",
    "{", "}", "(", ")", ":", ";", ",", ".", "|", "&", "!",
    "<", ">", "=", "+", "-", "*", "/",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_QUOTES = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})

# One `findall` over the whole text gives a (blanks, lexeme) pair per token.
# Blanks are spaces, tabs, carriage returns and newlines, so no lexeme holds a
# newline. After the blanks, every other character starts a lexeme, and the
# end of the text gives EOF's empty lexeme. Alternatives are tried in order;
# only a real and an integer, and a string and an unterminated one, start
# alike. `\d` is a decimal digit of any script and `\w` a letter, digit or
# underscore; a word must start with a letter or `_`, which `TokenStream`
# checks because no character class excludes other digits (`²`). The
# unterminated string is the valid prefix of one, and `.` takes every
# character nothing else accepts.
_WORD = r"[^\W\d]\w*"
_STRING_BODY = r'"(?:[^"\\\n]|\\[%s])*' % re.escape("".join(_ESCAPES))
_STRING = re.compile(_STRING_BODY + '"')
_SCAN = re.compile(r"([ \t\r\n]*)(%s|\Z)" % "|".join([
    _WORD,
    r"//[^\n]*",
    *map(re.escape, _OPERATORS),
    r"\d+(?:\.\d+)?[eE][+-]?\d+|\d+\.\d+|\d+",
    _STRING.pattern,
    _STRING_BODY,
    ".",
]))
# A lexeme that is not fixed (an operator, a keyword or EOF's `""`) and
# starts with an ASCII letter or `_` is an identifier. `TokenStream._read`
# reads every other one: a number, a string, a comment, a word of another
# script, or an error.
_IDENT_START = dict.fromkeys(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "IDENT")
_IS_WORD = re.compile(_WORD)
_UNESCAPE = re.compile(r"\\(.)")


@cache
def _fixed(keywords: frozenset[str]) -> dict[str, str]:
    """The kind of each fixed lexeme: an operator, a keyword, or EOF's `""`."""
    return {**{op: op for op in _OPERATORS}, **{kw: kw for kw in keywords}, "": "EOF"}


def quote(s: str) -> str:
    """The string literal that `TokenStream` reads back as `s`."""
    return f'"{s.translate(_QUOTES)}"'


def is_word(s: str) -> bool:
    """True iff `s` reads back as one identifier (or keyword) token."""
    return _IS_WORD.fullmatch(s) is not None and (s[0].isalpha() or s[0] == "_")


class TokenStream:
    """The tokens of one text, and a cursor over them.

    Token i has kind `kinds[i]` (IDENT, INT, REAL, STRING, a keyword, an
    operator, or EOF, which comes last) and value `values[i]`, and starts
    at `position(i)`. The cursor `i` stops at EOF, and `kind` is the kind
    under it. `error_at(i, message)` makes the reader's error at token i.
    """

    def __init__(self, text: str, error: type[LocatedError],
                 keywords: frozenset[str] = frozenset()):
        """Split `text` into tokens. Identifiers listed in `keywords` get their
        own kind so the parser can match them directly. `//` starts a comment
        running to end of line, and only `\\n` ends a line. A lexical error
        raises `error(message, line, col)`, the calling reader's own error
        class. See docs/grammar.md, "Lexical structure".
        """
        found = _SCAN.findall(text)
        if len(found) > 1 and not found[-2][1]:
            del found[-1]  # after trailing blanks, `findall` finds the end once more
        values: list = [lexeme for _, lexeme in found]
        fixed = _fixed(keywords)
        kinds = [fixed.get(lexeme) or _IDENT_START.get(lexeme[0], "?") for lexeme in values]
        values[-1] = None
        self._found = found
        self._positions: list[tuple[int, int]] | None = None
        self.error = error
        comments = []
        i = -1
        for _ in range(kinds.count("?")):
            i = kinds.index("?", i + 1)
            kinds[i], values[i] = self._read(i)
            if kinds[i] == "COMMENT":
                comments.append(i)
        for i in reversed(comments):  # a comment joins the next token's blanks
            found[i + 1] = ("".join(found[i]) + found[i + 1][0], found[i + 1][1])
            del found[i], kinds[i], values[i]
        self.kinds = kinds
        self.values = values
        self.i = 0
        self.kind = kinds[0]

    def _read(self, i: int) -> tuple[str, object]:
        """The kind and value of token i, whose first character alone does not
        tell its kind; raise its error if it is not a token."""
        lexeme = self._found[i][1]
        first = lexeme[0]
        if first == "/":  # a lone `/` is fixed
            return "COMMENT", lexeme
        if first.isalpha():
            return "IDENT", lexeme
        blanks, following = self._found[i + 1]  # EOF follows every other token
        after = "" if blanks else following[:2]  # what the lexeme runs into
        if first == '"':
            if _STRING.fullmatch(lexeme) is None:
                if after[:1] == "\\":
                    raise self.error_at(i, "bad escape in string", len(lexeme))
                raise self.error_at(i, "unterminated string")
            return "STRING", _UNESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
        if not first.isdecimal():
            raise self.error_at(i, f"unexpected character {first!r}")
        if after[:1] in ("e", "E") and after[1:].isdigit() and "e" not in lexeme.lower():
            # `1e²`: an exponent whose digit is not decimal, so not a word `e²` either
            raise self.error_at(i, f"unexpected character {after[1]!r}", len(lexeme) + 1)
        real = "." in lexeme or "e" in lexeme or "E" in lexeme
        try:
            return ("REAL", float(lexeme)) if real else ("INT", int(lexeme))
        except ValueError:  # more digits than the interpreter converts
            raise self.error_at(i, "integer literal too long") from None

    def position(self, i: int) -> tuple[int, int]:
        """The line and column at which token i starts, counted from 1,
        columns in characters."""
        if self._positions is None:  # the first call walks every token's blanks
            self._positions = []
            append = self._positions.append
            line, col = 1, 1
            for blanks, lexeme in self._found:
                if "\n" in blanks:
                    line += blanks.count("\n")
                    col = len(blanks) - blanks.rfind("\n")
                else:
                    col += len(blanks)
                append((line, col))
                col += len(lexeme)
        return self._positions[i]

    def error_at(self, i: int, message: str, shift: int = 0) -> LocatedError:
        """The reader's error at token i, or `shift` columns after its start."""
        line, col = self.position(i)
        return self.error(message, line, col + shift)

    def shown(self, i: int) -> str:
        """Token i as an error message quotes it: its value, or `end of input`
        for EOF."""
        return "end of input" if self.kinds[i] == "EOF" else repr(self.values[i])

    def peek(self) -> str:
        """The kind of the token after the cursor (EOF at the end)."""
        return self.kinds[min(self.i + 1, len(self.kinds) - 1)]

    def advance(self) -> int:
        """Move past the token under the cursor, unless it is EOF; return its index."""
        i = self.i
        if self.kind != "EOF":
            self.i = i + 1
            self.kind = self.kinds[i + 1]
        return i

    def accept(self, kind: str) -> bool:
        """Move past the token under the cursor if it is of `kind`."""
        if self.kind == kind:
            self.advance()
            return True
        return False

    def expect(self, *kinds: str) -> int:
        """Move past the token under the cursor, which must be of one of
        `kinds`; return its index."""
        if self.kind in kinds:
            return self.advance()
        expected = " or ".join(f"'{k}'" if k not in ("IDENT", "INT", "REAL", "STRING", "EOF") else k
                               for k in kinds)
        kind = self.kind
        got = ("end of input" if kind == "EOF"
               else kind if kind in ("IDENT", "INT", "REAL", "STRING")
               else f"'{kind}'")
        raise self.error_at(self.i, f"expected {expected}, got {got}")
