"""Initial transducers over the disjoint union of r copies of Cantor space.

Inputs are points .a x1 x2 ... : a dotted root letter read once at the initial
state, then ordinary letters.  Outputs are "rooted words": a tuple that may
start with a root marker.  The structural rules are enforced at construction:
until the output root is emitted the machine outputs nothing or a rooted word
(the "pending" region), after it only plain letters; the pending region has no
cycles; and no reachable cycle outputs the empty word.

An initial machine has the row layout of a plain Transducer plus an entry
row: every state q has `row(q)`, the tuple of (output, destination) pairs
indexed by letter, except the initial state, whose entry row is indexed by
root letter (the symbol .a reads cell a).  So the analyses of plain machines
(forced outputs, productivity, partition refinement, preimage search, the
image fixpoint, evaluation) run on initial machines unchanged: on the
non-initial states, or from the initial state with a root symbol first.
"""

from __future__ import annotations

from .words import (
    EvPeriodicWord,
    InvalidInput,
    check_letters,
)
from .transducer import (
    COMPLETE_RESPONSE,
    MINIMAL,
    DegenerateTransducer,
    check_productive,
    common_prefixes,
    evaluate,
    mark,
    marked,
    memoized,
    minimal_rows,
    pump_period,
)


def dot(a):
    """Root marker for root letter a, usable inside word tuples."""
    return ("^", a)


def is_dot(sym):
    return isinstance(sym, tuple) and len(sym) == 2 and sym[0] == "^"


def rooted_word(root, tail):
    """Word .root tail as a marker tuple; root may be None for a plain word."""
    tail = tuple(tail)
    if root is None:
        return tail
    return (dot(root),) + tail


def split_rooted(w):
    """(root or None, plain tail) of a marker tuple."""
    if w and is_dot(w[0]):
        return w[0][1], w[1:]
    return None, w


def check_oword(n, r, w):
    root, tail = split_rooted(w)
    if root is not None and not (0 <= root < r):
        raise InvalidInput(f"root {root} out of range for {r} roots")
    if any(is_dot(sym) for sym in tail):
        raise InvalidInput("root marker not at the start of a word")
    check_letters(n, tail)


PENDING, DONE = "pending", "done"


def _checked_row(n, r, row):
    """A row {symbol index: (output, destination)} as a tuple of checked
    cells; the caller has checked the indices."""
    cells = [None] * len(row)
    for i, (w, p) in row.items():
        w = tuple(w)
        check_oword(n, r, w)
        cells[i] = (w, p)
    return tuple(cells)


class InitialTransducer:
    """A machine inducing a continuous map of the r-rooted n-ary Cantor space.

    `root_table` maps root letter a -> (output rooted word, state);
    `table` maps state -> letter -> (output rooted word, state).
    Only states reachable from the initial state are kept, in breadth-first
    order from it.  The transitions are stored as one row per state: the
    initial state's entry row is indexed by root letter, every other row by
    letter, and `step(q, sym)` reads cell a of the entry row for sym = .a.
    `_memo` keeps the analyses of the machine, as on a plain Transducer."""

    __slots__ = ("n", "r", "root", "states", "_rows", "region", "_hash", "_memo")

    def __init__(self, n, r, root_table, table, root="q0"):
        if n < 2 or r < 1:
            raise InvalidInput("need n >= 2 and r >= 1")
        if set(root_table) != set(range(r)):
            raise InvalidInput("initial state needs exactly one transition per root letter")
        if root in table:
            raise InvalidInput("the initial state reads only root letters")
        rows = {root: _checked_row(n, r, root_table)}
        for q, row in table.items():
            if set(row) != set(range(n)):
                raise InvalidInput(f"state {q!r} must have one transition per letter")
            rows[q] = _checked_row(n, r, row)
        A = InitialTransducer._from_rows(n, r, root, rows)
        for name in self.__slots__:  # the checked machine, as _from_rows builds it
            setattr(self, name, getattr(A, name))

    @classmethod
    def _from_rows(cls, n, r, root, rows):
        """The machine with entry state `root` and rows {state: ((output,
        destination), ...)}, the entry row among them: for tables the
        library builds from checked machines, whose cells need none of the
        constructor's checks.  The accessible part, the re-entry check and
        the structure checks (_classify, _check_structure) still run.

        The builders' cells are well formed because each is made of checked
        words: product_initial runs A's outputs through B, so a cell is an
        output of B; _minimize strips forced outputs off the rows of a
        checked machine and numbers its blocks; the raw inverse of
        invert_initial reads off its preimage walks the input symbols of a
        checked machine, a root symbol only first from its initial state;
        the tree machine of the machines module, which the state wrapper
        builds too, adds empty outputs, rooted words .b w of checked words
        w and the rows of a checked plain machine."""
        A = cls.__new__(cls)
        A.n, A.r, A.root = n, r, root
        # accessible part only, breadth-first
        order = [root]
        seen = {root}
        for q in order:  # grows while it is read
            for _, p in rows[q]:
                if p == root:
                    raise InvalidInput("the initial state cannot be re-entered")
                if p not in rows:
                    raise InvalidInput(f"transition targets unknown state {p!r}")
                if p not in seen:
                    seen.add(p)
                    order.append(p)
        A.states = tuple(order)
        A._rows = {q: rows[q] for q in order}
        A._hash = None
        A._memo = None
        A.region = A._classify()
        A._check_structure()
        return A

    def symbols_at(self, q):
        """The input symbols of state q, in row order: the dotted root
        letters at the initial state, the letters elsewhere."""
        if q == self.root:
            return [dot(a) for a in range(self.r)]
        return range(self.n)

    def step(self, q, sym):
        row = self._rows.get(q)
        if row is not None:
            if q == self.root:
                if is_dot(sym) and isinstance(sym[1], int) and 0 <= sym[1] < self.r:
                    return row[sym[1]]
            elif isinstance(sym, int) and 0 <= sym < self.n:
                return row[sym]
        raise InvalidInput(f"no transition for state {q!r} on {sym!r}")

    def row(self, q):
        """All symbols of state q: the tuple of (output, destination) in the
        order of symbols_at(q)."""
        try:
            return self._rows[q]
        except KeyError:
            raise InvalidInput(f"no transitions for state {q!r}") from None

    def output(self, q, sym):
        return self.step(q, sym)[0]

    def dest(self, q, sym):
        return self.step(q, sym)[1]

    def _classify(self):
        # breadth-first order reaches every state from a state already marked
        region = {self.root: PENDING}
        for q in self.states:
            pending = region[q] is PENDING
            for w, p in self._rows[q]:
                root_emitted, tail = split_rooted(w)
                if pending:
                    if root_emitted is None and tail:
                        raise InvalidInput(
                            f"state {q!r} outputs letters before the output root"
                        )
                    mark = DONE if root_emitted is not None else PENDING
                else:
                    if root_emitted is not None:
                        raise InvalidInput(f"state {q!r} emits a second output root")
                    mark = DONE
                if region.setdefault(p, mark) != mark:
                    raise InvalidInput(
                        f"state {p!r} is reached both before and after the output root"
                    )
        return region

    def _check_structure(self):
        # An edge between pending states outputs the empty word (_classify
        # rejects letters before the output root, and the root leads to a
        # done state), so a pending cycle is an empty-output cycle there.
        interior = self.states[1:]
        try:
            check_productive(self, [q for q in interior if self.region[q] is PENDING])
        except DegenerateTransducer:
            raise InvalidInput("cycle that never emits the output root") from None
        check_productive(self, interior)

    def __eq__(self, other):
        return (
            isinstance(other, InitialTransducer)
            and (self.n, self.r, self.root) == (other.n, other.r, other.root)
            and self._rows == other._rows
        )

    def __hash__(self):
        # the rows in any order, as __eq__ compares them; computed once
        if self._hash is None:
            self._hash = hash((self.n, self.r, self.root, frozenset(self._rows.items())))
        return self._hash

    def __repr__(self):
        return f"<InitialTransducer n={self.n} r={self.r} states={len(self.states)}>"


def evaluate_initial(A, a, w):
    """Run the dotted input .a w from the initial state.
    Returns (output rooted word, end state)."""
    if not (0 <= a < A.r):
        raise InvalidInput(f"root letter {a} out of range")
    return evaluate(A, A.root, (dot(a),) + tuple(w))


def evaluate_periodic_initial(A, a, x):
    """Image of the point .a x, x eventually periodic: (output root, point)."""
    head, q = evaluate_initial(A, a, x.pre)
    pre, per = pump_period(A, head, q, x.per)
    root, tail = split_rooted(pre)
    if root is None or not per:
        raise DegenerateTransducer("initial machine produced a degenerate output")
    return root, EvPeriodicWord(tail, per)


def product_initial(A, B):
    """Composite machine on C_{n,r}: input through A, then through B."""
    if A.n != B.n or A.r != B.r:
        raise InvalidInput("initial product needs matching n and r")
    root = (A.root, B.root)
    rows = {}
    queue = [root]
    seen = {root}
    while queue:
        qa, qb = state = queue.pop()
        row = []
        for w, qa2 in A.row(qa):
            v, qb2 = evaluate(B, qb, w)
            nxt = (qa2, qb2)
            row.append((v, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        rows[state] = tuple(row)
    return InitialTransducer._from_rows(A.n, A.r, root, rows)


def minimize_initial(A):
    """The canonical minimal machine inducing the same map of C_{n,r}:
    accessible, complete response, no pair of equivalent non-initial states,
    states renamed "0" (initial), "1", ... in breadth-first order.

    The non-initial states are a plain machine's rows, reduced by
    minimal_rows with the initial state's row as the fresh entry row, so
    the initial state keeps its behaviour.  The result is marked MINIMAL
    (transducer.mark), and it is kept in A's memo under "minimized", so
    minimizing A again returns it too."""
    if marked(A, MINIMAL):
        return A
    return memoized(A, "minimized", lambda: _minimize(A))


def _minimize(A):
    """minimize_initial(A), computed."""
    interior = A.states[1:]
    c = None if marked(A, COMPLETE_RESPONSE) else common_prefixes(A, states=interior)
    rows = minimal_rows({q: A._rows[q] for q in interior}, c, None, A._rows[A.root])
    M = InitialTransducer._from_rows(A.n, A.r, "0", rows)
    return mark(M, MINIMAL)
