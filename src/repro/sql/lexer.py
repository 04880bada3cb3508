"""SQL tokenizer, and the shape pass that keys the plan cache."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from repro.errors import SqlSyntaxError

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
    "OFFSET", "AS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE",
    "BETWEEN", "CASE", "WHEN", "THEN", "ELSE", "END", "JOIN", "INNER",
    "LEFT", "RIGHT", "OUTER", "CROSS", "ON", "ASC", "DESC", "DISTINCT",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE",
    "DROP", "TABLE", "ROW", "COLUMN", "FLEXIBLE", "PRIMARY", "KEY",
    "DEFAULT", "PARTITION", "PARTITIONS", "BY", "HASH", "RANGE",
    "BOUNDARIES", "TRUE", "FALSE", "DATE", "TIMESTAMP", "WITH",
    "EXISTS", "IF", "UNION", "ALL", "CONTAINS", "MERGE", "DELTA",
    "OF", "VIRTUAL", "AT", "BEGIN", "COMMIT", "ROLLBACK", "WORK",
}

_PUNCT = {
    "(", ")", ",", ".", "*", "+", "-", "/", "%", "=", "<", ">", ";",
    "<=", ">=", "<>", "!=", "||",
}


@dataclass(frozen=True)
class Token:
    """One lexical token. ``kind`` is KEYWORD, IDENT, NUMBER, STRING,
    PUNCT, or EOF; ``value`` is the normalised payload."""

    kind: str
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: list[Token] = []
    index = 0
    length = len(text)
    while index < length:
        ch = text[index]
        if ch.isspace():
            index += 1
            continue
        if ch == "-" and text.startswith("--", index):
            newline = text.find("\n", index)
            index = length if newline < 0 else newline + 1
            continue
        if ch == "/" and text.startswith("/*", index):
            end = text.find("*/", index + 2)
            if end < 0:
                raise SqlSyntaxError("unterminated block comment", index)
            index = end + 2
            continue
        if ch == "'":
            value, index = _read_string(text, index)
            tokens.append(Token("STRING", value, index))
            continue
        if ch == '"':
            end = text.find('"', index + 1)
            if end < 0:
                raise SqlSyntaxError("unterminated quoted identifier", index)
            tokens.append(Token("IDENT", text[index + 1 : end], index))
            index = end + 1
            continue
        if ch.isdigit() or (ch == "." and index + 1 < length and text[index + 1].isdigit()):
            start = index
            seen_dot = False
            seen_exp = False
            while index < length:
                current = text[index]
                if current.isdigit():
                    index += 1
                elif current == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    index += 1
                elif current in "eE" and not seen_exp and index > start:
                    seen_exp = True
                    index += 1
                    if index < length and text[index] in "+-":
                        index += 1
                else:
                    break
            tokens.append(Token("NUMBER", text[start:index], start))
            continue
        if ch.isalpha() or ch == "_":
            start = index
            while index < length and (text[index].isalnum() or text[index] == "_"):
                index += 1
            word = text[start:index]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, start))
            else:
                tokens.append(Token("IDENT", word, start))
            continue
        two = text[index : index + 2]
        if two in _PUNCT:
            tokens.append(Token("PUNCT", two, index))
            index += 2
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, index))
            index += 1
            continue
        raise SqlSyntaxError(f"unexpected character {ch!r}", index)
    tokens.append(Token("EOF", "", length))
    return tokens


#: one match per literal: the verbatim run before it — any characters that
#: start no literal, digits right after a word character (inside an
#: identifier, so no literal), quoted identifiers and comments — then the
#: literal itself. A number is exactly what :func:`tokenize` reads as one
#: (greedy digits, one dot, one exponent whose digits may be missing). The
#: run stops only where one of the tail alternatives matches, so nothing
#: backtracks.
_SHAPE = re.compile(
    r"""(?:[^'"?\d./-]+|(?<=\w)\d+|"[^"]*"|--[^\n]*|/\*.*?\*/|\.(?!\d)|/(?!\*)|-(?!-))*
        (?:(?P<string>'(?:[^']|'')*')
          |(?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?)
          |(?P<stray>[?'"]|/\*)
          |\Z)""",
    re.VERBOSE | re.DOTALL,
)


#: a text with more literals than this gets no shape key. Measured by
#: ``benchmarks/bench_shape_cutoff.py`` (EXPERIMENTS.md, E26) on E1's row
#: shape, every cost is linear in the literals: the shape pass ≈ 1.1 µs,
#: recording the parse ≈ 1.1–2.7 µs, a hit ≈ 1.9 µs against a parse of
#: ≈ 8 µs, and the entry holds ≈ 0.4 KB. So a text that repeats pays its
#: recording back at any size; the cutoff caps what a text that never
#: repeats costs, at under a millisecond and ≈ 0.1 MB: at 256 literals it
#: pays ≈ 0.56 ms of extra work (+27 %) and holds a 103 KB entry, where
#: E1's 16 000-literal load INSERT would pay +58 ms (+41 %) and hold 6.7 MB
MAX_LITERALS = 256


def shape(text: str) -> tuple[str, list[Any]] | None:
    """The statement's shape key and its literal values, in one regex pass.

    Every number and string literal is replaced by a typed placeholder —
    ``?i`` (integer), ``?f`` (float), ``?s`` (string) — and its value is
    collected in text order; everything else, including identifiers,
    quoted identifiers and comments, stays verbatim. Two statements share
    a key exactly when they tokenize alike up to literal values, so a
    parse made for one binds to the other (``repro.sql.plancache``).

    ``None`` means the text has no reliable key: a stray ``?`` (which
    would read as a placeholder), an unterminated quote or comment, or a
    malformed number — or is not given one: more than
    :data:`MAX_LITERALS` literals. Such a text is parsed directly (which
    reports what is wrong with it).
    """
    values: list[Any] = []
    pieces: list[str] = []
    start = 0
    for match in _SHAPE.finditer(text):
        kind = match.lastgroup
        if kind is None:  # the end of the text
            break
        if kind == "stray":
            return None
        literal = match.group(kind)
        if kind == "string":
            values.append(literal[1:-1].replace("''", "'"))
            placeholder = "?s"
        else:
            try:
                values.append(number_value(literal))
            except ValueError:
                return None
            placeholder = "?i" if type(values[-1]) is int else "?f"
        if len(values) > MAX_LITERALS:
            return None
        pieces.append(text[start : match.start(kind)])
        pieces.append(placeholder)
        start = match.end()
    pieces.append(text[start:])
    return "".join(pieces), values


def number_value(text: str) -> int | float:
    """A NUMBER token's value: a float when it has a dot or an exponent."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


def _read_string(text: str, index: int) -> tuple[str, int]:
    """Read a single-quoted string with '' escaping."""
    chars: list[str] = []
    cursor = index + 1
    while cursor < len(text):
        ch = text[cursor]
        if ch == "'":
            if text.startswith("''", cursor):
                chars.append("'")
                cursor += 2
                continue
            return "".join(chars), cursor + 1
        chars.append(ch)
        cursor += 1
    raise SqlSyntaxError("unterminated string literal", index)
