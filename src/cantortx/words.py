"""Words over {0..n-1}, eventually periodic infinite words, rotation classes,
and clopen subsets of n-ary Cantor space kept in canonical antichain form.

A finite word is a plain tuple of ints.  The n-ary Cantor space is the set of
infinite words; a cone U_w is the set of infinite words with prefix w.  A
clopen set is a finite union of cones and is stored as the unique antichain of
maximal cones it contains, sorted as tuples.

In that order a word sorts before its extensions, and every word sorted
between u and an extension v of u also extends u.  So in a sorted antichain
the cone that is a prefix of a word w, if there is one, is the last cone
sorted at or before w; the cones that extend w follow w directly; and the
n children of a cone, when all are present, sit next to each other.  Every
routine here reads a set through these neighbours: canonicalization is one
sort and one stack pass, and membership, intersection and disjointness
bisect or compare adjacent cones instead of testing all pairs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

Word = tuple  # tuple of ints in range(n)

EMPTY: Word = ()


class InvalidInput(ValueError):
    """Raised when a value violates a documented precondition."""


def check_letters(n, w):
    """Raise InvalidInput naming the first symbol of w that is not a letter
    0..n-1: one out of range, or one that is no int, as a root symbol."""
    for a in w:
        if not (isinstance(a, int) and 0 <= a < n):
            raise InvalidInput(f"letter {a!r} out of range for alphabet of size {n}")


def is_prefix(u, v):
    """True if u is a (non-strict) prefix of v."""
    return v[: len(u)] == u


class SubtractionError(RuntimeError):
    """Internal invariant violation: subtraction of a non-prefix."""


def subtract_prefix(u, v):
    """v - u: the remainder of v after its prefix u.  Hard error otherwise;
    callers rely on invariants that make this impossible on valid machines."""
    if not is_prefix(u, v):
        raise SubtractionError(f"word subtraction of a non-prefix: {u!r} from {v!r}")
    return v[len(u):]


# --- serialization: letters as comma-separated decimals, `e` for the empty word,
# --- dotted roots as `.2`, eventually periodic words as `u|v`.

def format_word(w):
    if not w:
        return "e"
    return ",".join(str(a) for a in w)


def parse_word(text):
    text = text.strip()
    if text == "e" or text == "":
        return EMPTY
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InvalidInput(f"malformed word {text!r}") from None


def parse_dotted(text):
    """Parse `.a` or `.a,x,y,...` into (root, tail)."""
    text = text.strip()
    if not text.startswith("."):
        raise InvalidInput(f"dotted word must start with '.': {text!r}")
    head, _, rest = text[1:].partition(",")
    try:
        root = int(head)
    except ValueError:
        raise InvalidInput(f"malformed dotted word {text!r}") from None
    return root, parse_word(rest) if rest else EMPTY


def _primitive(p):
    # shortest word whose power equals p
    L = len(p)
    for d in range(1, L):
        if L % d == 0 and p == p[:d] * (L // d):
            return p[:d]
    return p


class EvPeriodicWord:
    """An eventually periodic infinite word pre . per^omega in canonical form:
    the period is primitive and the preperiod is as short as possible, so
    equality of the underlying infinite words is structural equality."""

    __slots__ = ("pre", "per")

    def __init__(self, pre, per):
        pre, per = tuple(pre), tuple(per)
        if not per:
            raise InvalidInput("period of an eventually periodic word must be nonempty")
        per = _primitive(per)
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = (per[-1],) + per[:-1]
        self.pre = pre
        self.per = per

    def __eq__(self, other):
        return (
            isinstance(other, EvPeriodicWord)
            and self.pre == other.pre
            and self.per == other.per
        )

    def __hash__(self):
        return hash((self.pre, self.per))

    def __repr__(self):
        return f"EvPeriodicWord({self.pre!r}, {self.per!r})"

    def __str__(self):
        return f"{format_word(self.pre)}|{format_word(self.per)}"

    def letter(self, i):
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def prefix(self, k):
        return (self.pre + self.per * (k // len(self.per) + 1))[:k]

    def with_prefix(self, w):
        return EvPeriodicWord(tuple(w) + self.pre, self.per)

    def drop(self, k):
        """The word past its first k letters."""
        if k <= len(self.pre):
            return EvPeriodicWord(self.pre[k:], self.per)
        r = (k - len(self.pre)) % len(self.per)
        return EvPeriodicWord((), self.per[r:] + self.per[:r])


LESS, EQUAL, GREATER = -1, 0, 1


def first_difference(x, y):
    """The first index at which the eventually periodic words x and y
    differ, math.inf when they are equal.  Words that agree on their first
    max(|pre_x|, |pre_y|) + |per_x| + |per_y| letters are equal (Fine and
    Wilf): past both preperiods the agreeing part has periods |per_x| and
    |per_y| and is at least their sum long, so it has the period
    g = gcd(|per_x|, |per_y|), and both words continue it from there."""
    end = max(len(x.pre), len(y.pre)) + len(x.per) + len(y.per)
    u, v = x.prefix(end), y.prefix(end)
    if u == v:
        return math.inf
    k = 0
    while u[k] == v[k]:
        k += 1
    return k


def lex_compare_evp(x, y):
    """Lexicographic order of two infinite words; returns LESS/EQUAL/GREATER."""
    k = first_difference(x, y)
    if k == math.inf:
        return EQUAL
    return LESS if x.letter(k) < y.letter(k) else GREATER


class RotationClass:
    """A cyclic-rotation class of a nonempty finite word, stored as the
    lexicographically least rotation."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        self.rep = tuple(rep)

    def __eq__(self, other):
        return isinstance(other, RotationClass) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"[{format_word(self.rep)}]"

    def __len__(self):
        return len(self.rep)


def rotation_class_of(w):
    """The rotation class of w: its least rotation, found in O(|w|) by the
    two-pointer scan of the doubled word ww, the bound of Booth's algorithm
    (Booth 1980).  Every start below j but i is known not to be least.  The
    rotations at i and j are compared letter by letter; when they first
    differ at offset k, the start s with the larger letter is not least,
    nor is any of s+1..s+k, as the rotation at s+t runs on from the same
    letters as the one at the other start plus t, up to the same larger
    letter.  So s moves past them (i and j swap if it passes j), k+1 letters
    for the k+1 comparisons, and as the starts stay below 2|w| the scan
    makes O(|w|) comparisons.  It ends with i least when j reaches |w|, or
    when k does: then the two rotations are equal and w is a power.  The least rotation is unique, so
    the class is the one that the min over all |w| rotations gives."""
    w = tuple(w)
    size = len(w)
    if not size:
        raise InvalidInput("rotation class of the empty word is undefined")
    ww = w + w
    i, j, k = 0, 1, 0
    while j < size and k < size:
        a, b = ww[i + k], ww[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        if i > j:
            i, j = j, i
        k = 0
    return RotationClass(ww[i:i + size])


class ClopenSet:
    """A clopen subset of n-ary Cantor space as its canonical antichain: the
    set of maximal cones contained in it, as a sorted tuple of words.  The
    empty antichain is the empty set; the antichain {e} is the whole space.
    Instances are immutable; build them with canonicalize_clopen.

    The image of an initial or pending state of an initial machine is kept
    here too, as cones that each start with their root symbol .a: a root
    symbol is never the letter n-1, so the r root cones never merge, and
    the cones of one set all start with a root symbol or none does.  Only
    the image routines build such sets; is_whole still means the whole
    n-ary space, so it is False on them (images.whole gives the space a
    state maps into).

    Sorted, a cone's prefixes and extensions among the cones are its
    neighbours (see the module docstring), so each query below bisects to
    the one cone that can answer it."""

    __slots__ = ("n", "cones")

    def __init__(self, n, cones):
        self.n = n
        self.cones = cones  # sorted tuple of words, already canonical

    def __eq__(self, other):
        return (
            isinstance(other, ClopenSet)
            and self.n == other.n
            and self.cones == other.cones
        )

    def __hash__(self):
        return hash((self.n, self.cones))

    def __repr__(self):
        inner = ", ".join(map(_format_cone, self.cones))
        return "{" + inner + "}"

    def _check_same(self, other):
        if self.n != other.n:
            raise InvalidInput("clopen sets over different alphabets")

    def is_empty(self):
        return not self.cones

    def is_whole(self):
        """The whole n-ary space; never a rooted image (see above)."""
        return self.cones == (EMPTY,)

    def contains_cone(self, w):
        """True if the full cone U_w lies inside the set: the last cone
        sorted at or before w is a prefix of w."""
        cones = self.cones
        i = bisect_right(cones, w)
        return i > 0 and is_prefix(cones[i - 1], w)

    def meets_cone(self, w):
        """True if U_w intersects the set: a cone is a prefix of w, or the
        first cone sorted at or after w extends w."""
        cones = self.cones
        i = bisect_left(cones, w)
        return (i < len(cones) and is_prefix(w, cones[i])) or (
            i > 0 and is_prefix(cones[i - 1], w)
        )

    def contains_point(self, x: EvPeriodicWord):
        """True if x lies in the set: a cone is a prefix of x's first L
        letters, L the longest cone's length."""
        return bool(self.cones) and self.contains_cone(
            x.prefix(max(map(len, self.cones)))
        )

    def union(self, other):
        self._check_same(other)
        return _merge_cones(self.n, list(self.cones + other.cones))

    def intersection(self, other):
        """The cones of each set that the other covers.  They form an
        antichain with no complete sibling family, as the two antichains
        do, so sorting them (dropping a cone both sets hold) is the
        canonical form."""
        self._check_same(other)
        out = {u for u in self.cones if other.contains_cone(u)}
        out.update(v for v in other.cones if self.contains_cone(v))
        return ClopenSet(self.n, tuple(sorted(out)))

    def complement(self):
        return canonicalize_clopen(self.n, _complement(self.n, list(self.cones)))

    def disjoint(self, other):
        self._check_same(other)
        return pairwise_disjoint((self, other))

    def issubset(self, other):
        """True iff other covers every cone of the set."""
        return all(other.contains_cone(c) for c in self.cones)

    def shift(self, w):
        """The set w . self, every point prefixed by the finite word w.  A
        common prefix keeps the order and the antichain canonical."""
        check_letters(self.n, w)
        w = tuple(w)
        if not w:
            return self
        return ClopenSet(self.n, tuple(w + c for c in self.cones))

    def min_point(self):
        """Lexicographically least point; the set must be nonempty."""
        if not self.cones:
            raise InvalidInput("minimum of the empty clopen set")
        return EvPeriodicWord(self.cones[0], (0,))

    def max_point(self):
        if not self.cones:
            raise InvalidInput("maximum of the empty clopen set")
        return EvPeriodicWord(self.cones[-1], (self.n - 1,))


def _format_cone(w):
    """w as the text format writes it: a root symbol ("^", a) as .a."""
    if w and isinstance(w[0], tuple):
        return ",".join((f".{w[0][1]}", *map(str, w[1:])))
    return format_word(w)


def pairwise_disjoint(sets):
    """True iff the clopen sets, all over one alphabet, are pairwise
    disjoint: no cone of one is a prefix of a cone of another.  If u is a
    prefix of v, every cone sorted between them also extends u, and two
    cones of one antichain never do, so only neighbours in the merged
    sorted order are tested."""
    cones = sorted(c for s in sets for c in s.cones)
    return not any(v[: len(u)] == u for u, v in zip(cones, cones[1:]))


def _complement(n, cones):
    if any(c == EMPTY for c in cones):
        return []
    if not cones:
        return [EMPTY]
    out = []
    for i in range(n):
        sub = [c[1:] for c in cones if c[0] == i]
        out.extend((i,) + w for w in _complement(n, sub))
    return out


def canonicalize_clopen(n, cones):
    """Canonical antichain with the same union of the cones, words over
    {0..n-1}.  The letters are checked here, and then merged by
    _merge_cones, which the union of ClopenSets and the image fixpoint call
    directly: their words are made of cones and machine outputs whose
    letters were checked when they were built."""
    if n < 2:
        raise InvalidInput("alphabet must have at least 2 letters")
    cones = [tuple(c) for c in cones]
    letters = set().union(*cones)
    if any(type(a) is not int for a in letters) or (
        letters and not (0 <= min(letters) and max(letters) < n)
    ):
        for c in cones:
            check_letters(n, c)  # names the first symbol that is no letter
    return _merge_cones(n, cones)


def _merge_cones(n, cones):
    """The ClopenSet of the list of words `cones`, whose letters lie in
    {0..n-1} unchecked: the canonical antichain with the same union, in one
    sorted pass.  A cone that extends the top of the stack, or equals it,
    is skipped.  A cone whose n-1 elder siblings sit on top of the stack
    replaces them by their parent, which may complete a family in turn; the
    n siblings of a family are adjacent in sorted order, so no other merge
    is missed.  The list is sorted in place."""
    cones.sort()
    last = n - 1
    stack = []
    for c in cones:
        if stack and c[: len(stack[-1])] == stack[-1]:
            continue
        while c and c[-1] == last and _elder_siblings(stack, c, last):
            del stack[-last:]
            c = c[:-1]
        stack.append(c)
    return ClopenSet(n, tuple(stack))


def _elder_siblings(stack, c, last):
    """Are the top n-1 = `last` cones of the stack the siblings of c, whose
    last letter is n-1?  They sort before c, so each is c's parent followed
    by a smaller letter, and n-1 of them are all of them."""
    parent = c[:-1]
    return len(stack) >= last and all(w[:-1] == parent for w in stack[-last:])


def whole_space(n):
    return ClopenSet(n, (EMPTY,))


def cone(n, w):
    return canonicalize_clopen(n, [tuple(w)])
