"""Tokenizer shared by the specification language and the model file format."""

from __future__ import annotations

import re


class LocatedError(Exception):
    """An error at a line and column of a text; each text reader raises its
    own subclass (the spec's `DslSyntaxError`, the model's `ModelParseError`)."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: object, line: int, col: int):
        self.kind = kind  # IDENT, INT, REAL, STRING, a keyword, an operator, or EOF
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"

    def shown(self) -> str:
        """The token as an error message quotes it: its value, or `end of
        input` for EOF."""
        return "end of input" if self.kind == "EOF" else repr(self.value)


# Longest first so '->' wins over '-', '<=' over '<', etc.
_OPERATORS = (
    "->", ":=", "<=", ">=", "==", "!=", "::",
    "{", "}", "(", ")", ":", ";", ",", ".", "|", "&", "!",
    "<", ">", "=", "+", "-", "*", "/",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_QUOTES = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})
_BLANKS = " \t\r"

# No token spans a line, so `tokenize` scans one line at a time, and each
# match skips the blanks before its token. Alternatives are tried in order,
# commonest first; only COMMENT and `/`, REAL and INT, and STRING and
# BADSTRING can start alike. `\d` is a decimal digit of any script and `\w`
# a letter, digit or underscore; a word must start with a letter or `_`,
# which `tokenize` checks because no character class excludes other digits
# (`²`). BADSTRING is the valid prefix of a string that STRING could not
# finish, and ERROR catches every character nothing else accepts.
_WORD = r"[^\W\d]\w*"
_STRING_BODY = r'"(?:[^"\\]|\\[%s])*' % re.escape("".join(_ESCAPES))
_SCANNER = re.compile("[%s]*(?:%s)" % (_BLANKS, "|".join([
    rf"(?P<WORD>{_WORD})",
    r"(?P<COMMENT>//)",
    "(?P<OP>%s)" % "|".join(map(re.escape, _OPERATORS)),
    r"(?P<REAL>\d+(?:\.\d+)?[eE][+-]?\d+|\d+\.\d+)",
    r"(?P<INT>\d+)",
    rf'(?P<STRING>{_STRING_BODY}")',
    rf"(?P<BADSTRING>{_STRING_BODY})",
    r"(?P<ERROR>.)",
])))
_IS_WORD = re.compile(_WORD)
_UNESCAPE = re.compile(r"\\(.)")


def quote(s: str) -> str:
    """The string literal that `tokenize` reads back as `s`."""
    return f'"{s.translate(_QUOTES)}"'


def is_word(s: str) -> bool:
    """True iff `s` reads back as one identifier (or keyword) token."""
    return _IS_WORD.fullmatch(s) is not None and (s[0].isalpha() or s[0] == "_")


def tokenize(text: str, error: type[LocatedError],
             keywords: frozenset[str] = frozenset()) -> list[Token]:
    """Split `text` into tokens. `//` starts a comment running to end of line.

    Identifiers listed in `keywords` are emitted with their own kind so the
    parser can match them directly. Only `\\n` ends a line. Lines and columns
    count from 1, columns in characters. A lexical error raises
    `error(message, line, col)`, the calling reader's own error class. See
    docs/grammar.md, "Lexical structure".
    """
    tokens: list[Token] = []
    append = tokens.append
    lines = text.split("\n")
    for lineno, line in enumerate(lines, 1):
        # without trailing blanks, every search finds a token or ends the line
        for m in _SCANNER.finditer(line.rstrip(_BLANKS)):
            kind = m.lastgroup
            lexeme = m[kind]
            col = m.start(kind) + 1
            if kind == "WORD" and (lexeme[0].isalpha() or lexeme[0] == "_"):
                append(Token(lexeme if lexeme in keywords else "IDENT", lexeme, lineno, col))
            elif kind == "OP":
                append(Token(lexeme, lexeme, lineno, col))
            elif kind == "COMMENT":
                break
            elif kind == "INT" or kind == "REAL":
                after = line[m.end():m.end() + 2]
                if after[:1] in ("e", "E") and after[1:].isdigit() and "e" not in lexeme.lower():
                    # `1e²`: an exponent whose digit is not decimal, so not a word `e²` either
                    raise error(f"unexpected character {after[1]!r}", lineno,
                                col + len(lexeme) + 1)
                try:
                    value = float(lexeme) if kind == "REAL" else int(lexeme)
                except ValueError:  # more digits than the interpreter converts
                    raise error("integer literal too long", lineno, col) from None
                append(Token(kind, value, lineno, col))
            elif kind == "STRING":
                value = _UNESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
                append(Token("STRING", value, lineno, col))
            elif kind == "BADSTRING":
                if line.startswith("\\", m.end()):
                    raise error("bad escape in string", lineno, m.end() + 1)
                raise error("unterminated string", lineno, col)
            else:
                raise error(f"unexpected character {lexeme[0]!r}", lineno, col)
    append(Token("EOF", None, len(lines), len(lines[-1]) + 1))
    return tokens


class TokenStream:
    """Cursor over a token list; `current` is the token under it. `expect`
    raises `error(message, line, col)`."""

    def __init__(self, tokens: list[Token], error: type[LocatedError]):
        self._tokens = tokens
        self._pos = 0
        self.current = tokens[0]
        self.error = error

    def peek(self) -> Token:
        """The token after `current` (EOF at the end)."""
        return self._tokens[min(self._pos + 1, len(self._tokens) - 1)]

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self._pos += 1
            self.current = self._tokens[self._pos]
        return tok

    def accept(self, kind: str) -> bool:
        if self.current.kind == kind:
            self.advance()
            return True
        return False

    def expect(self, *kinds: str) -> Token:
        tok = self.current
        if tok.kind in kinds:
            return self.advance()
        expected = " or ".join(f"'{k}'" if k not in ("IDENT", "INT", "REAL", "STRING", "EOF") else k
                               for k in kinds)
        got = ("end of input" if tok.kind == "EOF"
               else tok.kind if tok.kind in ("IDENT", "INT", "REAL", "STRING")
               else f"'{tok.kind}'")
        raise self.error(f"expected {expected}, got {got}", tok.line, tok.col)
