"""Tokenizer for the SQL dialect, and the literal cutter that lets the
parser work per statement *shape* (see ``parser._PARSE_CACHE``)."""

from __future__ import annotations

import re
from typing import List, Optional

from ..errors import SqlSyntaxError

__all__ = ["Token", "tokenize", "cut_literals", "retag_literals"]

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<qident>"(?:[^"]|"")*")
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<op><>|<=|>=|!=|=|<|>|\(|\)|,|;|\*|\.|-|\+)
""", re.VERBOSE)

#: One string or number literal, cut where ``_TOKEN_RE`` would cut it (the
#: same two sub-patterns; nothing else in SQL text without comments or
#: quoted identifiers contains a quote or a digit outside an identifier,
#: and ``retag_literals`` catches the texts that have those).  A number
#: takes its sign along when the sign touches it — the dialect has no
#: binary minus — and is left in place after ``LIMIT``, a count that
#: belongs to the shape.  The first lookbehind keeps digits inside
#: identifiers (``field0``); the lookahead only lets the scan skip fast
#: over characters that cannot start a literal.
_LITERAL_RE = re.compile(r"""(
    (?=['0-9+-])(?:
        '[^']*(?:''[^']*)*'
      | [-+]?\d(?<![A-Za-z0-9_$]\d)(?<!(?i:limit)\ \d)\d*(?:\.\d+)?
    ))""", re.VERBOSE)

#: ``cut_literals(sql)`` -> ``[text, literal, text, ..., literal, text]``:
#: the even items are the statement's shape, the odd ones its literals
#: as written.
cut_literals = _LITERAL_RE.split


class Token:
    """One lexed token.

    A plain ``__slots__`` class (not a dataclass): workload statements
    are parsed by the thousand and frozen-dataclass construction was
    the single largest lexer cost.  ``upper`` is precomputed for
    identifiers — keyword matching consults it repeatedly — and aliases
    ``text`` for every other kind.
    """

    __slots__ = ("kind", "text", "upper", "pos")

    def __init__(self, kind: str, text: str, upper: str, pos: int):
        self.kind = kind
        self.text = text
        self.upper = upper
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind!r}, {self.text!r}, pos={self.pos})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Token) and self.kind == other.kind
                and self.text == other.text and self.pos == other.pos)


def tokenize(sql: str) -> List[Token]:
    """Split ``sql`` into tokens; raises SqlSyntaxError on garbage."""
    tokens: List[Token] = []
    append = tokens.append
    prev_end = 0
    for match in _TOKEN_RE.finditer(sql):
        pos = match.start()
        if pos != prev_end:
            raise SqlSyntaxError(
                f"unexpected character {sql[prev_end]!r} at offset {prev_end}")
        prev_end = match.end()
        kind = match.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        text = match.group()
        if kind == "ident":
            append(Token("ident", text, text.upper(), pos))
        elif kind == "qident":
            text = text[1:-1].replace('""', '"')
            append(Token("ident", text, text.upper(), pos))
        elif kind == "string":
            text = text[1:-1].replace("''", "'")
            append(Token("string", text, text, pos))
        else:
            append(Token(kind, text, text, pos))
    if prev_end != len(sql):
        raise SqlSyntaxError(
            f"unexpected character {sql[prev_end]!r} at offset {prev_end}")
    tokens.append(Token("eof", "", "", len(sql)))
    return tokens


def retag_literals(tokens: List[Token],
                   pieces: List[str]) -> Optional[List[Token]]:
    """``tokens`` (of the text ``pieces`` was cut from) with every cut
    literal as one ``param`` token, a sign it took along folded in.

    None when the lexer did not see a literal at some cut — the cut fell
    inside a comment or a quoted identifier — so the text cannot be
    handled by shape.
    """
    cuts = set()
    offset = 0
    for i in range(1, len(pieces), 2):
        offset += len(pieces[i - 1])
        cuts.add(offset)
        offset += len(pieces[i])
    retagged = []
    stream = iter(tokens)
    for token in stream:
        start = token.pos
        if start in cuts:
            cuts.discard(start)
            if token.kind == "op":  # the sign: the number follows
                token = next(stream)
            if token.kind != "number" and token.kind != "string":
                return None
            token = Token("param", token.text, token.text, start)
        retagged.append(token)
    return None if cuts else retagged
