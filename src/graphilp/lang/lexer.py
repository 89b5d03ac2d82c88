"""Tokenizer shared by the specification language and the model file format."""

from __future__ import annotations

import re
from dataclasses import dataclass


class LexError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, REAL, STRING, a keyword, an operator, or EOF
    value: object
    line: int
    col: int

    def __repr__(self):
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.col})"


# Longest first so '->' wins over '-', '<=' over '<', etc.
_OPERATORS = (
    "->", ":=", "<=", ">=", "==", "!=", "::",
    "{", "}", "(", ")", ":", ";", ",", ".", "|", "&", "!",
    "<", ">", "=", "+", "-", "*", "/",
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_QUOTES = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})

# Alternatives are tried in order. `\d` is a decimal digit of any script and
# `\w` a letter, digit or underscore; a word must start with a letter or `_`,
# which `tokenize` checks because no character class excludes other digits
# (`²`). BADSTRING is the valid prefix of a string that STRING could not
# finish, and ERROR catches every character nothing else accepts.
_STRING_BODY = r'"(?:[^"\\\n]|\\[%s])*' % re.escape("".join(_ESCAPES))
_SCANNER = re.compile("|".join([
    r"(?P<NEWLINE>\n)",
    r"(?P<BLANK>[ \t\r]+)",
    r"(?P<COMMENT>//[^\n]*)",
    rf'(?P<STRING>{_STRING_BODY}")',
    rf"(?P<BADSTRING>{_STRING_BODY})",
    r"(?P<REAL>\d+(?:\.\d+)?[eE][+-]?\d+|\d+\.\d+)",
    r"(?P<INT>\d+)",
    r"(?P<WORD>[^\W\d]\w*)",
    "(?P<OP>%s)" % "|".join(map(re.escape, _OPERATORS)),
    r"(?P<ERROR>.)",
]), re.DOTALL)
_UNESCAPE = re.compile(r"\\(.)")


def quote(s: str) -> str:
    """The string literal that `tokenize` reads back as `s`."""
    return f'"{s.translate(_QUOTES)}"'


def is_word(s: str) -> bool:
    """True iff `s` reads back as one identifier (or keyword) token."""
    m = _SCANNER.fullmatch(s)
    return m is not None and m.lastgroup == "WORD" and (s[0].isalpha() or s[0] == "_")


def tokenize(text: str, keywords: frozenset[str] = frozenset()) -> list[Token]:
    """Split `text` into tokens. `//` starts a comment running to end of line.

    Identifiers listed in `keywords` are emitted with their own kind so the
    parser can match them directly. Lines and columns count from 1, columns
    in characters. See docs/grammar.md, "Lexical structure".
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _SCANNER.finditer(text):
        kind, lexeme = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
        elif kind == "BLANK" or kind == "COMMENT":
            pass
        elif kind == "STRING":
            value = _UNESCAPE.sub(lambda e: _ESCAPES[e[1]], lexeme[1:-1])
            tokens.append(Token("STRING", value, line, col))
        elif kind == "BADSTRING":
            if text.startswith("\\", m.end()):
                raise LexError("bad escape in string", line, m.end() - line_start + 1)
            raise LexError("unterminated string", line, col)
        elif kind == "REAL" or kind == "INT":
            after = text[m.end():m.end() + 2]
            if after[:1] in ("e", "E") and after[1:].isdigit() and "e" not in lexeme.lower():
                # `1e²`: an exponent whose digit is not decimal, so not a word `e²` either
                raise LexError(f"unexpected character {after[1]!r}", line, col + len(lexeme) + 1)
            if kind == "REAL":
                tokens.append(Token("REAL", float(lexeme), line, col))
            else:
                try:
                    value = int(lexeme)
                except ValueError:  # more digits than the interpreter converts
                    raise LexError("integer literal too long", line, col) from None
                tokens.append(Token("INT", value, line, col))
        elif kind == "WORD" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            tokens.append(Token(lexeme if lexeme in keywords else "IDENT", lexeme, line, col))
        elif kind == "OP":
            tokens.append(Token(lexeme, lexeme, line, col))
        else:
            raise LexError(f"unexpected character {lexeme[0]!r}", line, col)
    tokens.append(Token("EOF", None, line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with error reporting helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, ahead: int = 1) -> Token:
        return self._tokens[min(self._pos + ahead, len(self._tokens) - 1)]

    def at(self, *kinds: str) -> bool:
        return self.current.kind in kinds

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def accept(self, *kinds: str) -> Token | None:
        if self.at(*kinds):
            return self.advance()
        return None

    def expect(self, *kinds: str, error: type[Exception]) -> Token:
        if self.at(*kinds):
            return self.advance()
        tok = self.current
        expected = " or ".join(f"'{k}'" if k not in ("IDENT", "INT", "REAL", "STRING", "EOF") else k
                               for k in kinds)
        got = tok.kind if tok.kind in ("IDENT", "INT", "REAL", "STRING", "EOF") else f"'{tok.kind}'"
        raise error(f"expected {expected}, got {got}", tok.line, tok.col)
