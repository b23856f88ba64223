"""Group arithmetic on core elements: canonical forms, products, inverses,
identity and equality tests, orders, the rotation-class action, and word or
relation checking."""

from __future__ import annotations

from dataclasses import dataclass

from .words import InvalidInput, check_letters, rotation_class_of
from .transducer import (
    SYNCHRONIZING,
    VALID,
    DegenerateTransducer,
    DepthExceeded,
    _plain,
    evaluate,
    mark,
    minimize_rooted,
    product,
)
from .synchronize import (
    NotSynchronizing,
    _destination_rows,
    canonical_core,
    is_synchronizing,
)
from .images import orientation
from .invert import inverse_core
from .signature import require_valid, signature_report


class GroupElement:
    """A core element: canonical minimal core bi-synchronizing machine with
    injective clopen-image states.  A machine is validated where it enters:
    in from_machine or, made into an element directly, when group_product
    or invert_element first meets it.  Products and inverses of valid
    elements are valid, so they carry a passing verdict unchecked.  The
    analyses of an element, its verdict among them, are memoized on its
    machine."""

    __slots__ = ("machine",)

    def __init__(self, machine):
        self.machine = machine

    @classmethod
    def from_machine(cls, T):
        """The element of T's canonical core, validated.  A T with no
        canonical core (it does not synchronize, or a forced output is
        empty on a cycle or infinite) is not valid, and raises the
        InvalidInput of T's own validation."""
        try:
            C = canonical_core(T)
        except (NotSynchronizing, DegenerateTransducer, DepthExceeded):
            require_valid(T)
            raise
        return cls(require_valid(C))

    @property
    def n(self):
        return self.machine.n

    @property
    def signature(self):
        return signature_report(self.machine)

    @property
    def rsig(self):
        return self.signature.rsig

    @property
    def orientation(self):
        return orientation(self.machine)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.machine == other.machine

    def __hash__(self):
        return hash(self.machine)

    def __repr__(self):
        return f"<GroupElement n={self.n} states={len(self.machine.states)}>"


def identity_element(n):
    from .machines import identity_transducer

    return GroupElement.from_machine(identity_transducer(n))


def group_product(g, h):
    """g then h: root the product machine at a pair of states, minimize the
    rooted behaviour, and take the core.  The result is independent of the
    chosen roots.  A factor is validated when it holds no verdict yet; the
    product of valid elements is valid and is marked VALID.

    The minimized product is marked SYNCHRONIZING.  The product P of
    synchronizing cores A and B synchronizes: any word of length level_A
    brings A to one state, and from there, as A is productive, any |A| more
    letters output at least one letter, so any |A| * level_B more letters
    output at least level_B letters, which bring B to one state.  The
    states reachable from the root are closed under the letters, a
    quotient by equivalence maps one end state to one end state, and the
    fresh entry state of minimize_rooted is entered by no edge, so the
    minimized product synchronizes too."""
    require_valid(g.machine)
    require_valid(h.machine)
    if g.n != h.n:
        raise InvalidInput("product of elements over different alphabets")
    P = product(g.machine, h.machine)
    root = (g.machine.states[0], h.machine.states[0])
    M = mark(minimize_rooted(P, root)[0], SYNCHRONIZING)
    return GroupElement(mark(canonical_core(M), VALID))


def invert_element(g):
    """The inverse element: the canonical core of the inverse closure, kept
    in the memo of g's machine (inverse_core).  An element whose machine has
    not been validated yet is validated here, and validation leaves the
    inverse in the memo.  The inverse of a valid element is marked VALID."""
    return GroupElement(mark(inverse_core(require_valid(g.machine)), VALID))


def is_identity(g):
    M = g.machine
    return len(M.states) == 1 and all(
        M.output(M.states[0], i) == (i,) for i in range(M.n)
    )


@dataclass
class OrderResult:
    finite: bool
    value: int | None
    growth: tuple

    def __repr__(self):
        return f"Finite({self.value})" if self.finite else f"ExceedsBound{self.growth}"


def element_order(g, bound, state_cap=512):
    """Test g^1, ..., g^bound for the identity.  `state_cap` is a user
    limit, and the only limit on the products: the loop stops at the first
    power with more than state_cap states.  An ExceedsBound result carries
    the state counts of the powers formed, g^1 up to g^bound at most; when
    the state cap stopped the loop, its last count exceeds the cap."""
    acc = g
    growth = [len(g.machine.states)]
    for k in range(1, bound + 1):
        if is_identity(acc):
            return OrderResult(True, k, tuple(growth))
        if k == bound or len(acc.machine.states) > state_cap:
            break
        acc = group_product(acc, g)
        growth.append(len(acc.machine.states))
    return OrderResult(False, None, tuple(growth))


class CoreInvariantError(RuntimeError):
    """A machine used as a core element broke a property that every valid
    core element has, so it was not a valid core element."""


def loop_state(T, w):
    """The unique state q with the w-cycle q -> q; uniqueness holds for valid
    core elements, and failure signals an invalid input.

    On a machine that synchronizes (is_synchronizing) and a nonempty w, one
    walk q -> q.w from the first state finds it in O(level + |w|) letters:
    w^m forces one state c once m|w| is past the level, so c.w = c.w^(m+1)
    = c, every walk ends at c, and c is the only cycle of the map, so the
    first repeated state is c, fixed by w.  Any other machine runs w from
    every state, in O(|Q| * |w|), and a count other than one raises."""
    _plain(T, "loop_state")
    if w and is_synchronizing(T):
        check_letters(T.n, w)
        rows = _destination_rows(T)
        q, seen = T.states[0], set()
        while q not in seen:
            seen.add(q)
            last = q
            for i in w:
                q = rows[q][i]
        if q != last:
            raise CoreInvariantError(
                f"expected exactly one loop state for {w}, "
                "but its walk closes a cycle of more than one state"
            )
        return q
    hits = [q for q in T.states if evaluate(T, q, w)[1] == q]
    if len(hits) != 1:
        raise CoreInvariantError(
            f"expected exactly one loop state for {w}, found {len(hits)}"
        )
    return hits[0]


def rotation_action(g, c):
    """The permutation induced on rotation classes: read the representative
    around its unique loop state and take the class of the output."""
    w = c.rep
    q = loop_state(g.machine, w)  # checks the letters of w
    rows = g.machine._rows
    out = []
    for i in w:
        piece, q = rows[q][i]
        out += piece
    if not out:
        raise CoreInvariantError("loop output is empty; machine is degenerate")
    return rotation_class_of(out)


def orbit_lengths(g, c, steps):
    """Representative lengths along the orbit of c, including the start;
    strictly growing lengths certify infinite order."""
    check_letters(g.n, c.rep)
    out = [len(c)]
    for _ in range(steps):
        c = rotation_action(g, c)
        out.append(len(c))
    return out


def evaluate_group_word(generators, word):
    """Left-to-right product of (name, +-1) factors; a generator's inverse
    is kept in its machine's memo, so each is inverted once."""
    if not word:
        raise InvalidInput("empty group word; use the identity element")
    acc = None
    for name, exp in word:
        if name not in generators:
            raise InvalidInput(f"unknown generator {name!r}")
        g = generators[name]
        if exp == -1:
            g = invert_element(g)
        elif exp != 1:
            raise InvalidInput("exponents must be +1 or -1")
        acc = g if acc is None else group_product(acc, g)
    return acc


def verify_relation(generators, word):
    return is_identity(evaluate_group_word(generators, word))


def inverse_word(word):
    return [(name, -exp) for name, exp in reversed(word)]


def commutator_word(p, q):
    return inverse_word(p) + inverse_word(q) + list(p) + list(q)
