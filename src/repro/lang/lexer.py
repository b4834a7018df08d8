r"""Lexer for SHILL's concrete syntax.

Notable rules:

* ``# ...`` comments run to end of line (but the ``#lang`` directive on
  the first line is handled by the module reader before lexing);
* ``+`` immediately followed by a letter lexes as a **privilege literal**
  (``+read``, ``+create-file`` — hyphens allowed inside); addition must
  therefore be written with a space (``a + b``), which matches the
  paper's style;
* ``\/`` and ``/\`` are the contract disjunction/conjunction operators;
* identifiers are ``[A-Za-z_][A-Za-z0-9_]*``.
"""

from __future__ import annotations

from repro.errors import ShillSyntaxError
from repro.lang.tokens import T, Token

def _advance_pos(source: str, start: int, stop: int, line: int, col: int) -> tuple[int, int]:
    """(line, col) after consuming ``source[start:stop]``.  String literals
    may span lines, and a lexer that does not count their newlines reports
    every later token one line short."""
    chunk = source[start:stop]
    newlines = chunk.count("\n")
    if newlines:
        return line + newlines, stop - (source.rfind("\n", start, stop) + 1) + 1
    return line, col + (stop - start)


#: The two-character operators.  No operator is longer, so a match here
#: is the longest match.
_DOUBLE = {
    "->": T.ARROW,
    "\\/": T.OR_CTC,
    "/\\": T.AND_CTC,
    "&&": T.AND,
    "||": T.OR,
    "==": T.EQ,
    "!=": T.NE,
    "<=": T.LE,
    ">=": T.GE,
}

_SIMPLE = {
    "(": T.LPAREN,
    ")": T.RPAREN,
    "{": T.LBRACE,
    "}": T.RBRACE,
    "[": T.LBRACKET,
    "]": T.RBRACKET,
    ",": T.COMMA,
    ";": T.SEMI,
    ":": T.COLON,
    ".": T.DOT,
    "*": T.STAR,
    "%": T.PERCENT,
}


def lex(source: str, filename: str = "<script>") -> list[Token]:
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(msg: str) -> ShillSyntaxError:
        return ShillSyntaxError(msg, line, col, filename)

    def push(ttype: T, value: str) -> None:
        tokens.append(Token(ttype, value, line, col))

    while i < n:
        ch = source[i]
        # whitespace
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        # comments
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        # strings (double quotes; '' ... '' also accepted as in the paper's listings)
        if ch == '"':
            j = i + 1
            out: list[str] = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, "\\" + esc))
                    j += 2
                else:
                    out.append(source[j])
                    j += 1
            if j >= n:
                raise error("unterminated string literal")
            push(T.STRING, "".join(out))
            line, col = _advance_pos(source, i, j + 1, line, col)
            i = j + 1
            continue
        if source.startswith("''", i):
            end = source.find("''", i + 2)
            if end == -1:
                raise error("unterminated string literal")
            push(T.STRING, source[i + 2 : end])
            line, col = _advance_pos(source, i, end + 2, line, col)
            i = end + 2
            continue
        # numbers
        if ch.isdigit():
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            push(T.NUMBER, source[i:j])
            col += j - i
            i = j
            continue
        # identifiers
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            push(T.IDENT, source[i:j])
            col += j - i
            i = j
            continue
        # privilege literal: '+' immediately followed by a letter
        if ch == "+" and i + 1 < n and (source[i + 1].isalpha()):
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "-_"):
                j += 1
            push(T.PRIV, source[i + 1 : j])
            col += j - i
            i = j
            continue
        # two-character operators first (longest match)
        text = source[i : i + 2]
        if text in _DOUBLE:
            push(_DOUBLE[text], text)
            col += 2
            i += 2
        else:
            if ch in _SIMPLE:
                push(_SIMPLE[ch], ch)
            elif ch == "=":
                push(T.ASSIGN, ch)
            elif ch == "<":
                push(T.LT, ch)
            elif ch == ">":
                push(T.GT, ch)
            elif ch == "!":
                push(T.NOT, ch)
            elif ch == "+":
                push(T.PLUS, ch)
            elif ch == "-":
                push(T.MINUS, ch)
            elif ch == "/":
                push(T.SLASH, ch)
            else:
                raise error(f"unexpected character {ch!r}")
            i += 1
            col += 1

    tokens.append(Token(T.EOF, "", line, col))
    return tokens
