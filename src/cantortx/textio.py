"""The on-disk text format, one machine per file.

    TRANSDUCER n=<int> r=<int|0> states=<id,id,...> initial=<id|->
    <state> <letter> -> <state> : <word|e>

r=0 and initial=- mark a plain machine whose states all read letters 0..n-1.
With r>=1 the initial state reads exactly the dotted letters .0 ... .r-1 and
outputs may be dotted words like .1,0,2.  Lines starting with # are comments.
Parsing is strict: every (state, letter) pair must appear exactly once."""

from __future__ import annotations

from .words import InvalidInput, format_word, parse_dotted, parse_word
from .transducer import Transducer
from .initial import InitialTransducer, dot, is_dot, rooted_word


class ParseError(InvalidInput):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _safe_name(q, initial=False):
    """q as the text names it, if a line of the text reads it back: not a
    comment, no arrow, and "-" only where it does not mean "no initial"."""
    s = str(q)
    if (not s or any(ch.isspace() for ch in s) or "," in s or ":" in s
            or s.startswith("#") or "->" in s or (initial and s == "-")):
        raise InvalidInput(f"state name {s!r} cannot be serialized; relabel first")
    return s


def serialize(T):
    """Serialize a plain or initial machine; deterministic ordering."""
    if isinstance(T, InitialTransducer):
        r = T.r
    elif isinstance(T, Transducer):
        r = 0
    else:
        raise InvalidInput(f"cannot serialize {type(T).__name__}")
    names = {q: _safe_name(q) for q in T.states}
    if len(set(names.values())) != len(names):
        raise InvalidInput("state names collide as strings; relabel first")
    initial = _safe_name(T.root, initial=True) if r else "-"
    lines = [f"TRANSDUCER n={T.n} r={r} states={','.join(names.values())} initial={initial}"]
    for q, name in names.items():
        for sym, (w, p) in zip(T.symbols_at(q), T.row(q)):
            lines.append(f"{name} {format_word((sym,))} -> {names[p]} : {format_word(w)}")
    return "\n".join(lines) + "\n"


def _parse_out(text):
    text = text.strip()
    if text.startswith("."):
        return rooted_word(*parse_dotted(text))
    return parse_word(text)


def parse(text):
    """Parse the text format; returns a Transducer or InitialTransducer."""
    header = None
    body = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = (lineno, line)
        else:
            body.append((lineno, line))
    if header is None:
        raise ParseError(0, "empty input")
    lineno, line = header
    if not line.startswith("TRANSDUCER "):
        raise ParseError(lineno, "header must start with TRANSDUCER")
    fields = {}
    for tok in line.split()[1:]:
        key, _, val = tok.partition("=")
        if not _ or key in fields:
            raise ParseError(lineno, f"bad header field {tok!r}")
        fields[key] = val
    if set(fields) != {"n", "r", "states", "initial"}:
        raise ParseError(lineno, "header needs n=, r=, states=, initial=")
    try:
        n = int(fields["n"])
        r = int(fields["r"])
    except ValueError:
        raise ParseError(lineno, "n and r must be integers") from None
    states = fields["states"].split(",")
    if len(set(states)) != len(states) or "" in states:
        raise ParseError(lineno, "bad state list")
    initial = fields["initial"]
    if (r == 0) != (initial == "-"):
        raise ParseError(lineno, "r=0 exactly when initial=-")
    known = set(states)

    entries = {}
    for lineno, line in body:
        try:
            left, right = line.split("->")
            src_tok = left.split()
            dst, _, out_tok = right.partition(":")
            if not _:
                raise ValueError
            dst = dst.strip()
            if len(src_tok) != 2:
                raise ValueError
        except ValueError:
            raise ParseError(
                lineno, "expected '<state> <letter> -> <state> : <word>'"
            ) from None
        src, letter_tok = src_tok
        if src not in known:
            raise ParseError(lineno, f"unknown source state {src!r}")
        if dst not in known:
            raise ParseError(lineno, f"unknown target state {dst!r}")
        if letter_tok.startswith("."):
            try:
                sym = dot(int(letter_tok[1:]))
            except ValueError:
                raise ParseError(lineno, f"bad dotted letter {letter_tok!r}") from None
            if r == 0:
                raise ParseError(lineno, "dotted letter in a plain machine")
            if src != initial:
                raise ParseError(lineno, "dotted letters only from the initial state")
            if not (0 <= sym[1] < r):
                raise ParseError(lineno, f"root letter {letter_tok!r} out of range")
        else:
            try:
                sym = int(letter_tok)
            except ValueError:
                raise ParseError(lineno, f"bad letter {letter_tok!r}") from None
            if not (0 <= sym < n):
                raise ParseError(lineno, f"letter {sym} out of range")
            if r > 0 and src == initial:
                raise ParseError(lineno, "the initial state reads only dotted letters")
        try:
            out = _parse_out(out_tok)
        except InvalidInput as exc:
            raise ParseError(lineno, str(exc)) from None
        if r == 0 and out and is_dot(out[0]):
            raise ParseError(lineno, "dotted output in a plain machine")
        if (src, sym) in entries:
            raise ParseError(lineno, f"duplicate transition {src} {letter_tok}")
        entries[(src, sym)] = (out, dst)

    root_table = {}
    for a in range(r):
        if (initial, dot(a)) not in entries:
            raise ParseError(0, f"missing transition {initial} .{a}")
        root_table[a] = entries[(initial, dot(a))]
    table = {}
    for q in states:
        if r and q == initial:  # a plain machine may name a state "-"
            continue
        row = {}
        for i in range(n):
            if (q, i) not in entries:
                raise ParseError(0, f"missing transition {q} {i}")
            row[i] = entries[(q, i)]
        table[q] = row
    if r == 0:
        return Transducer(n, table)
    return InitialTransducer(n, r, root_table, table, root=initial)
