"""Tokenizer shared by the context, term, judgment, and spec-command parsers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SyntaxError_

# Multi-character symbols must be listed before their prefixes.
_SYMBOLS = (
    "_|_", "-|", "/\\", "\\/", "::", "++", "->", "|-",
    "\\", "(", ")", "[", "]", ",", ";", ":", ".", "=", "~",
)


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "sym" | "eof"
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched is not None:
            tokens.append(Token("sym", matched, i))
            i += len(matched)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        raise SyntaxError_(f"unexpected character {c!r}", i)
    tokens.append(Token("eof", "", n))
    return tokens


class TokenStream:
    """Cursor over a token list with one-token lookahead."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._i = 0

    @classmethod
    def of(cls, text: str) -> "TokenStream":
        return cls(tokenize(text))

    def peek(self) -> Token:
        return self._tokens[self._i]

    def next(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def eat_sym(self, text: str) -> Token:
        if not self.at_sym(text):
            tok = self.peek()
            raise SyntaxError_(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def eat_ident(self, text: str | None = None) -> Token:
        if not self.at_ident(text):
            tok = self.peek()
            want = text if text is not None else "identifier"
            raise SyntaxError_(f"expected {want!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise SyntaxError_(f"unexpected trailing input {tok.text!r}", tok.pos)
