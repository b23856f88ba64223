"""The three workloads: what each op calls, how it is checked, and how
failures are counted.

Every op runs in one closed loop with one client: the next op starts when
the previous one has returned.  A failed op (raised, passed the per-op time
limit, or gave a wrong answer) counts as infinite latency.  When a chain of
ops breaks, the op that broke it and every later op of that chain count as
failed, so the number of attempted ops depends only on the workload and the
seed.

The first pass runs the whole schedule.  Later passes run it again, on a
freshly imported library, until --seconds have passed since the first op;
they only add samples.  Each sample is scaled to the reference host speed
(see `Speedometer`), and an op's latency is the median of its samples."""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product as cartesian
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

SETUP_REPEATS = {"powers": 15, "queries": 3, "verify": 15}

# Per-op time limits ("limit_s"): every op that completes at the seed takes
# under about one second (under 0.1 s at the tiny size), so no limit is near a
# completing op.  The powers limit is wide so that g^32 squares, which fail
# fast at the seed, still fit once the image bound is lifted.  verify has no
# limit: its checks always run to the end.
SIZES = {
    "full": {
        "limit_s": {"powers": 30.0, "queries": 5.0, "verify": None},
        "power_bases": ("T3", "U3", "T5", "U5"),
        "power_words": 2,
        "power_k": 16,
        "power_invert_at": 8,
        "query_chains": {"T3": 7, "U3": 6, "T5": 4, "U5": 3},
        "query_words": 2,
        "verify_suite": "paper",
    },
    "tiny": {
        "limit_s": {"powers": 30.0, "queries": 1.0, "verify": None},
        "power_bases": ("T3",),
        "power_words": 1,
        "power_k": 4,
        "power_invert_at": 4,
        "query_chains": {"T3": 3, "U3": 2, "T5": 2, "U5": 1},
        "query_words": 1,
        "verify_suite": "F-relations",
    },
}

SQUARES = (2, 4, 8, 16, 32)
WORD_MAX_LEN = 6
WORD_N = 4
MAX_WORD_STATES = 4
MAX_POWER4_CONES = 45  # T and U at n = 4: 36 and 37 cones in the images of g^4
QUERY_WORD_SHAPE = (5, 4)  # states and sync level of every seeded query word
ALT_FACTORS = 12
ORBIT_CLASS = (1, 2)
ORBIT_STEPS = 6
# Rotation classes on which products must act as a homomorphism.
HOMOMORPHISM_CLASSES = ((1, 2), (0, 1, 2))


class OpTimeout(BaseException):
    """Raised by SIGALRM when an op passes its time limit.  A BaseException,
    so no `except Exception` inside the library can swallow it."""


class WrongAnswer(Exception):
    """An op returned a result that disagrees with an independent check."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def residue(value, n):
    return (value - 1) % (n - 1) + 1


# --------------------------------------------------------------------------
# Host speed
#
# On a shared host the speed of one process changes by tens of percent from
# one second to the next, and between runs a minute apart.  So calibration
# work runs just before and just after every timed call, and the call's
# seconds are scaled by how fast the calibration ran: a slow spell that slows
# both cancels.  No cantortx code runs in the calibration, so a change to the
# library moves only the call's time.

REFERENCE_S = 2.0e-4  # one calibration call on an idle 2-core Xeon VM, Python 3.11
CAL_SHARE = 0.3  # seconds of the slice after a call, per second of the call
CAL_MIN_CALLS = 20
CAL_MAX_S = 2.0
_CAL_N = 24
_CAL_CYCLE = tuple((i + 1) % _CAL_N for i in range(_CAL_N))
_CAL_SWAP = (1, 0) + tuple(range(2, _CAL_N))


def calibration_call():
    """The orbit of the pair (0, 1) under a 24-cycle and a transposition,
    built breadth first with pairs as dict keys, the way a product of
    machines builds its states.  It always reaches the 552 ordered pairs."""
    seen = {(0, 1): 0}
    todo = [(0, 1)]
    for a, b in todo:
        for f in (_CAL_CYCLE, _CAL_SWAP):
            pair = (f[a], f[b])
            if pair not in seen:
                seen[pair] = len(seen)
                todo.append(pair)
    return len(seen)


def calibration_slice(seconds):
    """The median seconds of a calibration call, over CAL_MIN_CALLS calls or
    more that last at least `seconds` in all."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < CAL_MIN_CALLS or time.perf_counter() < end:
        start = time.perf_counter()
        calibration_call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Speedometer:
    """Scales the seconds of timed calls to the reference speed, the speed
    at which one calibration call takes REFERENCE_S.

    After each call it runs a slice of calibration calls that lasts
    CAL_SHARE of the call (at least CAL_MIN_CALLS calls, at most CAL_MAX_S),
    and the slice after one call is the slice before the next.  A call's
    seconds are scaled by REFERENCE_S over the mean of the median
    calibration call in the slice before it and in the slice after it."""

    def __init__(self, prime_s=0.0):
        self.before = calibration_slice(prime_s)

    def scale(self, seconds):
        """The scale for a call that has just taken `seconds`."""
        after = calibration_slice(min(CAL_SHARE * seconds, CAL_MAX_S))
        before, self.before = self.before, after
        return 2.0 * REFERENCE_S / (before + after)


# --------------------------------------------------------------------------
# Importing the library under test


def fresh_import():
    """Import cantortx from scratch, dropping any copy already loaded, so
    that every setup repetition pays the import again."""
    for name in [m for m in sys.modules if m == "cantortx" or m.startswith("cantortx.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    tx = importlib.import_module("cantortx")
    importlib.import_module("cantortx.textio")
    importlib.import_module("cantortx.verify")
    return tx


# --------------------------------------------------------------------------
# Running ops


@dataclass
class Record:
    """One op of the schedule and the seconds of each of its calls."""

    label: str
    suite: bool = False  # counts toward suite_s
    status: str = "ok"  # ok | timeout | raised ... | skipped ... | wrong ...
    samples: list = field(default_factory=list)  # seconds at the reference speed
    raw: list = field(default_factory=list)  # seconds as measured
    value: object = None  # the result of the latest call

    @property
    def ok(self):
        return self.status == "ok"

    @property
    def seconds(self):
        """The op's latency: the median of its samples, infinite once a call
        failed."""
        return statistics.median(self.samples) if self.ok and self.samples else math.inf

    @property
    def raw_seconds(self):
        return statistics.median(self.raw) if self.ok and self.raw else math.inf


class Runner:
    """Runs ops one at a time under the per-op limit and keeps one record
    per op; in a traced run each op is also a root span.  With a
    Speedometer its samples are scaled to the reference speed; the traced run
    has none, as it measures layers, not the host.  Past the deadline
    (set for the passes after the first) `call` runs nothing and returns
    None; an op that has failed is not run again."""

    def __init__(self, limit_s, tracer=None):
        self.limit_s = limit_s
        self.tracer = tracer
        self.deadline = None
        self.records = {}  # label -> Record, in schedule order
        self.speed = None
        self.wrong = []

    def call(self, label, fn, suite=False):
        if self.deadline is not None and time.perf_counter() >= self.deadline:
            return None
        rec = self.records.get(label)
        if rec is None:
            rec = self.records[label] = Record(label, suite)
        elif not rec.ok:
            return rec
        if self.tracer:
            span = self.tracer.op_span(list(self.records).index(label), label)
        else:
            span = nullcontext()
        if self.limit_s:
            signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        elapsed = None
        start = time.perf_counter()
        try:
            with span:
                value = fn()
            elapsed = time.perf_counter() - start
            rec.value = value
        except OpTimeout:
            rec.status = f"timeout after {self.limit_s:g} s"
            rec.value = None
        except WrongAnswer as exc:
            self.mark_wrong(rec, str(exc))
        except Exception as exc:  # the op failed; the failure is its result
            rec.status = f"raised {type(exc).__name__}: {str(exc)[:120]}"
            rec.value = None
        finally:
            if self.limit_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if elapsed is not None:
            rec.raw.append(elapsed)
            rec.samples.append(elapsed * (self.speed.scale(elapsed) if self.speed else 1.0))
        return rec

    def skip(self, label, cause, suite=False):
        """An op after a broken chain link fails; in a later pass, where the
        op already has a record, it only goes without a sample."""
        if label not in self.records:
            self.records[label] = Record(label, suite, f"skipped: chain broken at {cause}")

    def untraced(self):
        """Checks run outside the recorded spans."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def mark_wrong(self, rec, why):
        rec.status = f"wrong: {why}"
        rec.value = None
        self.wrong.append(f"{rec.label}: {why}")


# --------------------------------------------------------------------------
# Inputs


def _generators(tx, n):
    return {
        "T": tx.GroupElement.from_machine(tx.machine_T(n)),
        "U": tx.GroupElement.from_machine(tx.machine_U(n)),
    }


def random_word(rng):
    """A freely reduced word of length 1..6 in T, U and their inverses."""
    length = rng.randint(1, WORD_MAX_LEN)
    word = []
    while len(word) < length:
        factor = (rng.choice("TU"), rng.choice((1, -1)))
        if word and word[-1] == (factor[0], -factor[1]):
            continue
        word.append(factor)
    return tuple(word)


def word_name(word):
    return "".join(name + ("" if exp == 1 else "'") for name, exp in word)


@dataclass
class Element:
    name: str
    g: object
    factors: tuple  # group elements whose product, left to right, is g
    fixed: bool  # seed-independent, with recorded digests and answers

    @property
    def n(self):
        return self.g.n

    @property
    def machine(self):
        return self.g.machine


def _word_element(tx, word, gens, invs):
    factors = tuple(gens[name] if exp == 1 else invs[name] for name, exp in word)
    acc = factors[0]
    for f in factors[1:]:
        acc = tx.group_product(acc, f)
    return acc, factors


def _word_generators(tx):
    gens = _generators(tx, WORD_N)
    return gens, {k: tx.invert_element(v) for k, v in gens.items()}


def draw_words(tx, workload, seed, size):
    """The workload's seeded words at n = 4, redrawn until `accept` holds.
    The draw is a function of the seed alone.  It makes the inputs, so it
    runs before set-up, which builds only the words drawn."""
    if workload == "powers":
        count, accept = size["power_words"], _like_t_and_u
    elif workload == "queries":
        count = size["query_words"]

        def accept(tx, g):
            # Words of one shape cost about the same to query, so the seed
            # moves op_ms.p50 little.
            return (len(g.machine.states), tx.minimal_sync_level(g.machine)) == QUERY_WORD_SHAPE
    else:
        return ()
    rng = random.Random(seed)
    gens, invs = _word_generators(tx)
    chosen = []
    seen = set()
    for _ in range(500):
        if len(chosen) == count:
            break
        word = random_word(rng)
        if word in seen:
            continue
        seen.add(word)
        if accept(tx, _word_element(tx, word, gens, invs)[0]):
            chosen.append(word)
    if len(chosen) < count:
        raise RuntimeError("no acceptable random word within 500 draws")
    return tuple(chosen)


def _word_elements(tx, words):
    gens, invs = _word_generators(tx)
    return [Element(word_name(w), *_word_element(tx, w, gens, invs), fixed=False) for w in words]


def _fixed_base(tx, name):
    kind, n = name[0], int(name[1:])
    maker = tx.machine_T if kind == "T" else tx.machine_U
    g = tx.GroupElement.from_machine(maker(n))
    return Element(name, g, (g,), fixed=True)


def _like_t_and_u(tx, g):
    """Like T and U: at most 4 states, g.g has at most one state more, and
    the images of g^4 have at most MAX_POWER4_CONES cones.  Bigger words, or
    words whose states or images grow faster, leave the group before g^16 or
    make the slowest ops of the pass, so the failure count and op_ms.p90
    would depend on the seed more than on the code."""
    states = len(g.machine.states)
    if states > MAX_WORD_STATES:
        return False
    g2 = tx.group_product(g, g)
    if len(g2.machine.states) > states + 1:
        return False
    g4 = tx.images.images(tx.group_product(g2, g2).machine)
    return sum(len(c.cones) for c in g4.values()) <= MAX_POWER4_CONES


def setup_powers(tx, words, size):
    bases = [_fixed_base(tx, name) for name in size["power_bases"]]
    return {"bases": bases + _word_elements(tx, words)}


def setup_queries(tx, words, size):
    elements = []
    for name, top in size["query_chains"].items():
        base = _fixed_base(tx, name)
        acc = base.g
        for k in range(1, top + 1):
            if k > 1:
                acc = tx.group_product(acc, base.g)
            elements.append(Element(f"{name}^{k}", acc, base.factors * k, fixed=True))
    elements += _word_elements(tx, words)
    T5, U5 = _fixed_base(tx, "T5").g, _fixed_base(tx, "U5").g
    factors = tuple(T5 if i % 2 == 0 else U5 for i in range(ALT_FACTORS))
    acc = factors[0]
    for f in factors[1:]:
        acc = tx.group_product(acc, f)
    alt = Element(f"TU5x{ALT_FACTORS}", acc, factors, fixed=True)
    return {"elements": elements, "alt": alt}


# --------------------------------------------------------------------------
# Checks that do not go through the product pipeline


def rotation_fold(tx, factors, c):
    for f in factors:
        c = tx.rotation_action(f, c)
    return c


def residue_set(tx, g):
    """{m_q mod n-1} over the states of g: a single value, the rsig."""
    img = tx.images.images(g.machine)
    return {residue(len(s.cones), g.n) for s in img.values()}


def signature_by_subsets(tx, M):
    """(sync level, signature) without enumerating words: push a count of
    words per subset of states through the letters until every subset is a
    single state, then weight each forced state by its image's cone count."""
    img = tx.images.images(M)
    family = {frozenset(M.states): 1}
    level = 0
    while any(len(S) > 1 for S in family):
        nxt = {}
        for S, count in family.items():
            for i in range(M.n):
                T = frozenset(M.dest(q, i) for q in S)
                nxt[T] = nxt.get(T, 0) + count
        family = nxt
        level += 1
    return level, sum(count * len(img[next(iter(S))].cones) for S, count in family.items())


def expected_rsig(tx, factors, n, memo):
    """The reduced signature is multiplicative: rsig of a product is the
    product of the factors' rsigs mod n-1."""
    acc = 1
    for f in factors:
        key = id(f)
        if key not in memo:
            memo[key] = (f, residue_set(tx, f))
        rs = memo[key][1]
        if len(rs) != 1:
            raise WrongAnswer(f"factor m_q residues not constant: {sorted(rs)}")
        acc *= next(iter(rs))
    return residue(acc, n)


# --------------------------------------------------------------------------
# powers


def _finish(tx, p):
    """The rest of a powers op: the identity test of the `tx order` loop,
    and the result serialized and parsed back, as a `tx` pipeline does."""
    text = tx.textio.serialize(p.machine)
    return p, tx.is_identity(p), text, tx.textio.parse(text)


def staged_product(tx, tracer, a, b):
    """group_product stage by stage through the public functions, so each
    stage gets its own span; the outcome must equal group_product's."""
    stage_error = None
    C = None
    try:
        P = tx.transducer.product(a.machine, b.machine)
        M, _ = tx.transducer.minimize_rooted(P, (a.machine.states[0], b.machine.states[0]))
        C = tx.group.canonical_core(M)
        if not tx.synchronize.is_synchronizing(C):
            raise RuntimeError("product left the group: not synchronizing")
        if set(tx.synchronize.core(C).states) != set(C.states):
            raise RuntimeError("product left the group: not core")
        tx.images.images(C)
        if not all(tx.images.is_injective_state(C, q) for q in C.states):
            raise RuntimeError("product left the group: a state is not injective")
        if not tx.synchronize.is_synchronizing(tx.invert.inverse_closure(C)):
            raise RuntimeError("product left the group: inverse not synchronizing")
        tx.synchronize.minimal_sync_level(C)
    except Exception as exc:  # compared with group_product's outcome below
        stage_error = exc
    with tracer.paused():
        try:
            ref = tx.group_product(a, b)
        except Exception:  # the reference failed too; compared below
            ref = None
    if stage_error is None and ref is not None:
        if ref.machine != C:
            raise WrongAnswer("stage-by-stage product differs from group_product")
        return ref
    if stage_error is not None and ref is None:
        raise stage_error
    raise WrongAnswer(
        "stage-by-stage product and group_product disagree on success: "
        f"staged={stage_error!r}, group_product={'ok' if ref else 'failed'}"
    )


def _check_power(tx, label, value, rsig_want, acts_right, fixed, seen):
    """Independent checks of one powers result.  `acts_right(p, c)` tests
    the rotation action of the result p on class c against the actions of
    the op's inputs."""
    p, identity, text, back = value
    if label in seen:
        if seen[label] != text:
            raise WrongAnswer("serialization differs from the first pass")
        return
    seen[label] = text
    if back != p.machine:
        raise WrongAnswer("parse(serialize(x)) != x")
    if identity:
        raise WrongAnswer("power of an infinite-order element is the identity")
    if fixed:
        want = EXPECTED["powers"].get(label)
        if want is not None and digest(text) != want:
            raise WrongAnswer("canonical serialization differs from the recorded digest")
    for c in HOMOMORPHISM_CLASSES:
        if not acts_right(p, tx.rotation_class_of(c)):
            raise WrongAnswer(f"rotation action is not a homomorphism on {c}")
    got = residue_set(tx, p)
    if got != {rsig_want}:
        raise WrongAnswer(f"m_q residues {sorted(got)} != rsig {rsig_want}")


def run_powers(tx, inputs, runner, size, seen, expected_failures, pass_no):
    """One pass: per base, the right-multiplication chain g^2..g^K, the
    squaring chain g^2..g^32, and the inverse of one power.  Each pass starts
    at the next base, so a pass cut short by the deadline samples every base
    in turn."""
    K = size["power_k"]
    inv_at = size["power_invert_at"]
    tracer = runner.tracer
    memo = {}
    if tracer is None:
        mul = lambda a, b: _finish(tx, tx.group_product(a, b))  # noqa: E731
    else:
        mul = lambda a, b: _finish(tx, staged_product(tx, tracer, a, b))  # noqa: E731
    act = tx.rotation_action

    def step(label, fn, rsig_want, acts_right, base, broken):
        suite = base.fixed and label not in expected_failures
        if broken:
            runner.skip(label, broken, suite)
            return None
        rec = runner.call(label, fn, suite)
        if rec is None:  # past the deadline: the chain stops, nothing fails
            return None
        if rec.ok:
            try:
                with runner.untraced():
                    _check_power(tx, label, rec.value, rsig_want, acts_right, base.fixed, seen)
            except WrongAnswer as exc:
                runner.mark_wrong(rec, str(exc))
        return rec.value[0] if rec.ok else None

    bases = inputs["bases"]
    first = pass_no % len(bases)
    for base in bases[first:] + bases[:first]:
        g, n = base.g, base.n
        with runner.untraced():
            r1 = expected_rsig(tx, base.factors, n, memo)
        powers = {1: g}
        broken = None
        for k in range(2, K + 1):
            label = f"{base.name}/rm/{k}"
            prev = powers[k - 1] if not broken else None
            p = step(
                label,
                lambda prev=prev: mul(prev, g),
                residue(r1**k, n),
                lambda p, c, prev=prev: act(p, c) == act(g, act(prev, c)),
                base,
                broken,
            )
            if p is None:
                broken = broken or label
            else:
                powers[k] = p
        acc, broken = g, None
        for k in SQUARES:
            label = f"{base.name}/sq/{k}"
            half = acc
            p = step(
                label,
                lambda half=half: mul(half, half),
                residue(r1**k, n),
                lambda p, c, half=half: act(p, c) == act(half, act(half, c)),
                base,
                broken,
            )
            if p is None:
                broken = broken or label
            else:
                acc = p
        a = powers.get(inv_at)
        step(
            f"{base.name}/inv/{inv_at}",
            lambda a=a: _finish(tx, tx.invert_element(a)),
            residue(pow(r1**inv_at, -1, n - 1), n),
            lambda p, c, a=a: act(a, act(p, c)) == c,
            base,
            None if a is not None else f"{base.name}/rm",
        )


# --------------------------------------------------------------------------
# queries


def query_ops(tx, inputs):
    """(label, element, kind, fn) for every query op, before shuffling."""
    ops = []
    c = tx.rotation_class_of(ORBIT_CLASS)
    for e in inputs["elements"]:
        M, n, g = e.machine, e.n, e.g
        ops.append((f"{e.name}/sig", e, "sig", lambda M=M: _sig(tx, M)))
        for r in range(1, n):
            ops.append(
                (f"{e.name}/member/{r}", e, "member",
                 lambda M=M, r=r: tx.member_over_roots_ordered(M, r))
            )
        ops.append((f"{e.name}/orientation", e, "orientation", lambda M=M: tx.orientation(M).value))
        ops.append((f"{e.name}/irs", e, "irs", lambda M=M: tx.inverse_reduced_signature(M)))
        ops.append((f"{e.name}/orbit", e, "orbit", lambda g=g: tx.orbit_lengths(g, c, ORBIT_STEPS)))
        ops.append((f"{e.name}/realize", e, "realize", lambda M=M, n=n: _realize(tx, M, n)))
    alt = inputs["alt"]
    ops.append((f"{alt.name}/sig", alt, "sig", lambda M=alt.machine: _sig(tx, M)))
    return ops


def _sig(tx, M):
    rep = tx.signature_report(M)
    return (rep.sync_level, rep.sig, rep.rsig, len(rep.per_word_m), sum(rep.per_word_m))


def _realize(tx, M, n):
    A = tx.realize(M, n - 1)
    return A, tx.invert_initial(A)


def _round_trip_ok(tx, A, Ainv, n):
    """Running A and then its inverse returns every input (oracle check on
    all words of length 3 from every root)."""
    evaluate_initial, split_rooted = tx.initial.evaluate_initial, tx.initial.split_rooted
    pad = (0,) * 6
    for a in range(A.r):
        for w in cartesian(range(n), repeat=3):
            out, _ = evaluate_initial(A, a, w + pad)
            b, tail = split_rooted(out)
            back, _ = evaluate_initial(Ainv, b, tail)
            b2, tail2 = split_rooted(back)
            k = min(len(tail2), len(w + pad))
            if b2 != a or tail2[:k] != (w + pad)[:k]:
                return False
    return True


def answer_of(tx, kind, value):
    """The recorded, JSON-comparable form of an op's answer."""
    if kind == "sig":
        return list(value[:3])
    if kind == "realize":
        return [digest(tx.textio.serialize(value[0])), len(value[0].states)]
    if kind == "orbit":
        return list(value)
    return value


def check_query(tx, label, e, kind, value, answers, memo):
    """Independent checks of one query answer; `answers` holds this pass's
    signature answers, for the membership congruence."""
    n = e.n
    m = n - 1
    rsig = expected_rsig(tx, e.factors, n, memo)
    if kind == "sig":
        level, sig, rs, words, total = value
        if words != n**level or total != sig:
            raise WrongAnswer("per-word m values do not add up to the signature")
        if (level, sig) != signature_by_subsets(tx, e.machine):
            raise WrongAnswer("sync level or signature differs from the subset count")
        if rs != residue(sig, n) or rs != rsig:
            raise WrongAnswer(f"rsig {rs} is not the product {rsig} of the factors' rsigs")
    elif kind == "member":
        r = int(label.rsplit("/", 1)[1])
        sig = answers.get(f"{e.name}/sig")
        if sig is not None and value != ((r * (sig[1] - 1)) % m == 0):
            raise WrongAnswer(f"membership at r={r} disagrees with r(sig-1) = 0 mod {m}")
    elif kind == "orientation":
        if value != "preserving":
            raise WrongAnswer("words in T and U preserve the order")
    elif kind == "irs":
        if (value * rsig) % m != 1 % m:
            raise WrongAnswer(f"inverse rsig {value} is not the inverse of {rsig} mod {m}")
    elif kind == "orbit":
        c = tx.rotation_class_of(ORBIT_CLASS)
        direct = tx.rotation_action(e.g, c)
        if direct != rotation_fold(tx, e.factors, c):
            raise WrongAnswer("rotation action is not a homomorphism on the orbit class")
        if value[0] != len(c) or value[1] != len(direct):
            raise WrongAnswer("orbit lengths disagree with the rotation action")
        if e.name.startswith("T3^") and not all(a < b for a, b in zip(value, value[1:])):
            raise WrongAnswer("T:3 orbit lengths must strictly increase")
    elif kind == "realize":
        A, Ainv = value
        if not _round_trip_ok(tx, A, Ainv, n):
            raise WrongAnswer("realized machine and its inverse do not compose to the identity")
    if e.fixed:
        want = EXPECTED["queries"]["answers"].get(label)
        if want is not None and answer_of(tx, kind, value) != want:
            raise WrongAnswer(f"answer differs from the recorded value {want!r}")


def run_queries(tx, inputs, runner, ops, seen, expected_failures):
    memo = {}
    done = []
    for label, e, kind, fn in ops:
        rec = runner.call(label, fn, e.fixed and label not in expected_failures)
        if rec is None:  # past the deadline
            break
        done.append((rec, e, kind))
    answers = {rec.label: rec.value for rec, e, kind in done if rec.ok and kind == "sig"}
    for rec, e, kind in done:
        if not rec.ok:
            continue
        try:
            with runner.untraced():
                form = answer_of(tx, kind, rec.value)
                if rec.label in seen:
                    if seen[rec.label] != form:
                        raise WrongAnswer("answer differs from the first pass")
                    continue
                seen[rec.label] = form
                check_query(tx, rec.label, e, kind, rec.value, answers, memo)
        except WrongAnswer as exc:
            runner.mark_wrong(rec, str(exc))


def check_query_inputs(tx, inputs):
    """Digests of the fixed elements built during setup."""
    wrong = []
    want = EXPECTED["queries"]["elements"]
    for e in inputs["elements"] + [inputs["alt"]]:
        if e.fixed and digest(tx.textio.serialize(e.machine)) != want.get(e.name):
            wrong.append(f"{e.name}: setup element differs from the recorded digest")
    return wrong


# --------------------------------------------------------------------------
# The whole run


@dataclass
class Outcome:
    workload: str
    records: list  # one Record per op, in schedule order
    wrong: list
    setup_s: float
    setup_raw_s: float
    passes: int  # the last one may have been cut short by the deadline
    limit_s: float | None
    expected_failures: list
    layer: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(1 for r in self.records if not r.ok)

    @property
    def samples(self):
        return sum(len(r.samples) for r in self.records)


def reload_inputs(old, tx, inputs):
    """The inputs built with the library `old`, as objects of the freshly
    imported library `tx`, so that a later pass can reuse nothing an earlier
    pass left behind."""
    again = {}

    def element(g):
        if id(g) not in again:
            again[id(g)] = tx.GroupElement(tx.textio.parse(old.textio.serialize(g.machine)))
        return again[id(g)]

    def reload(e):
        return Element(e.name, element(e.g), tuple(map(element, e.factors)), e.fixed)

    return {k: list(map(reload, v)) if isinstance(v, list) else reload(v)
            for k, v in inputs.items()}


def build_inputs(workload, tx, words, size):
    if workload == "powers":
        return setup_powers(tx, words, size)
    if workload == "queries":
        return setup_queries(tx, words, size)
    return {}


def timed_setup(workload, words, size, repeats):
    """Import and build the inputs `repeats` times; returns the last build
    and the median set-up seconds, at the reference speed and as measured."""
    times, raw = [], []
    speed = Speedometer()
    for _ in range(repeats):
        start = time.perf_counter()
        tx = fresh_import()
        inputs = build_inputs(workload, tx, words, size)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * speed.scale(raw[-1]))
    return tx, inputs, statistics.median(times), statistics.median(raw)


def expected_failure_labels(workload, inputs):
    """Ops on the fixed inputs that fail at the seed and stay in the
    schedule, so that the image-round bound and the signature blow-up show
    in failed_share.  (Whether a seeded word's g^32 fails depends on the
    word; those failures are counted too.)"""
    if workload == "powers":
        return [f"{b.name}/sq/32" for b in inputs["bases"] if b.fixed]
    if workload == "queries":
        return [f"{inputs['alt'].name}/sig"]
    return []


def run(workload, seed, seconds, trace, tiny, trace_dir):
    size = SIZES["tiny" if tiny else "full"]
    limit = size["limit_s"][workload]
    repeats = 1 if trace else SETUP_REPEATS[workload]
    if limit:
        signal.signal(signal.SIGALRM, _on_alarm)

    tracer = None
    words = draw_words(fresh_import(), workload, seed, size)
    if trace:
        tx = fresh_import()
        tracer = tracing.Tracer()
        tracer.install(tx)
        start = time.perf_counter()
        with tracer.op_span(-1, "setup"):
            inputs = build_inputs(workload, tx, words, size)
        setup_s = setup_raw_s = time.perf_counter() - start
    else:
        tx, inputs, setup_s, setup_raw_s = timed_setup(workload, words, size, repeats)

    runner = Runner(limit, tracer)
    expected_failures = expected_failure_labels(workload, inputs)
    wrong = []
    check_times = {}  # verify only: seconds of each check
    seen = {}
    order = random.Random(seed)  # the queries order, shuffled anew each pass
    if workload == "queries":
        with runner.untraced():
            wrong += check_query_inputs(tx, inputs)
    deadline = time.perf_counter() + seconds
    if not trace:
        runner.speed = Speedometer(CAL_MAX_S)  # a full slice before the first op
    passes = 0
    # The traced run makes one pass: its spans and counters describe the
    # schedule once.
    while passes == 0 or (not trace and time.perf_counter() < deadline):
        if passes:
            runner.deadline = deadline
            old, tx = tx, fresh_import()
            inputs = reload_inputs(old, tx, inputs)
        if workload == "powers":
            run_powers(tx, inputs, runner, size, seen, expected_failures, passes)
        elif workload == "queries":
            ops = query_ops(tx, inputs)
            order.shuffle(ops)
            run_queries(tx, inputs, runner, ops, seen, expected_failures)
        else:
            # One op is one run of the suite, as `tx verify` makes it.
            rec = runner.call(
                "verify/suite", lambda: tx.verify.run_suite(size["verify_suite"]), suite=True
            )
            for name, ok, detail, secs in (rec.value or ()) if rec else ():
                check_times[name] = check_times.get(name, 0.0) + secs
                if not ok:
                    runner.mark_wrong(rec, f"{name} reported FAIL: {detail}")
        passes += 1
    wrong += runner.wrong

    outcome = Outcome(
        workload=workload,
        records=list(runner.records.values()),
        wrong=wrong,
        setup_s=setup_s,
        setup_raw_s=setup_raw_s,
        passes=passes,
        limit_s=limit,
        expected_failures=expected_failures,
    )
    if tracer is not None:
        tracer.uninstall()
        outcome.layer = _layer_metrics(tx, tracer, check_times)
        path = trace_dir / f"{workload}-seed{seed}{'-tiny' if tiny else ''}.json"
        tracer.write(
            path,
            [
                {"id": i, "label": r.label, "status": r.status,
                 "ms": None if math.isinf(r.seconds) else r.seconds * 1000.0}
                for i, r in enumerate(outcome.records)
            ],
            {"workload": workload, "seed": seed,
             "layer": {k: v for k, (v, _) in outcome.layer.items()}},
        )
        outcome.notes.append(f"trace written to {path}")
    return outcome


def _layer_metrics(tx, tracer, check_times):
    out = tracer.layer_metrics()
    for name, _ in tx.verify.CHECKS:
        out[f"verify.{name}_s"] = (check_times.get(name, 0.0), "s")
    total = sum(check_times.values())
    largest = max(check_times.values(), default=0.0)
    out["verify.outside_largest_s"] = (total - largest, "s")
    out["verify.outside_largest_share"] = ((total - largest) / total if total else 0.0, "ratio")
    out["trace.overhead_s"] = (tracing.span_cost_seconds() * len(tracer.spans), "s")
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
