"""In-memory span recorder for the traced run.

Spans are recorded by wrapping a fixed list of public functions of each
cantortx module from outside the library: the wrapper replaces the function
in every cantortx module namespace that holds it, so calls between modules
are seen as well.  Spans of one benchmark op share the op's id.  Nothing is
wrapped in the timed runs."""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Layer boundaries to record.  Hot primitives (evaluate, forced_state,
# preimage_gcp, clopen-set algebra) are left out: they run millions of times
# in the verify suite and a span each would distort the run.
WRAPPED = {
    "transducer": ("product", "minimize_rooted"),
    "initial": ("minimize_initial", "product_initial"),
    "synchronize": ("is_synchronizing", "core", "minimal_sync_level"),
    "images": ("images", "is_injective_state", "orientation"),
    "invert": ("inverse_closure", "invert_initial", "is_bisynchronizing_core"),
    "signature": (
        "signature_report",
        "validation_failure",
        "member_over_roots",
        "member_over_roots_ordered",
        "inverse_reduced_signature",
    ),
    "machines": ("realize",),
    "group": (
        "canonical_core",
        "group_product",
        "invert_element",
        "is_identity",
        "rotation_action",
        "loop_state",
        "orbit_lengths",
        "element_order",
        "verify_relation",
    ),
    "words": ("rotation_class_of",),
    "textio": ("serialize", "parse"),
}

MODULES = tuple(WRAPPED)


def _cones_total(img):
    return sum(len(c.cones) for c in img.values())


# Exact size counters taken from a call's result: (span name, counter, fn).
COUNTERS = (
    ("transducer.product", "transducer.product_states", lambda r: len(r.states)),
    ("transducer.minimize_rooted", "transducer.minimized_states", lambda r: len(r[0].states)),
    ("group.canonical_core", "group.core_states", lambda r: len(r.states)),
    ("synchronize.minimal_sync_level", "synchronize.sync_level", lambda r: r),
    ("signature.signature_report", "signature.forced_words", lambda r: len(r.per_word_m)),
    ("images.images", "images.cones_total", _cones_total),
    ("images.images", "images.images_calls", lambda r: 1),
    ("invert.inverse_closure", "invert.closure_states", lambda r: len(r.states)),
    ("machines.realize", "initial.realized_states", lambda r: len(r.states)),
    ("group.orbit_lengths", "words.orbit_rep_len", lambda r: r[-1]),
    ("textio.serialize", "textio.bytes", len),
)

# Per-layer time metrics: inclusive time of the outermost spans of a family.
TIMES = (
    ("images.injectivity_ms", ("images.is_injective_state",)),
    ("images.images_ms", ("images.images",)),
    ("images.orientation_ms", ("images.orientation",)),
    ("signature.signature_report_ms", ("signature.signature_report",)),
    ("signature.member_ms", ("signature.member_over_roots", "signature.member_over_roots_ordered")),
    ("signature.inverse_rsig_ms", ("signature.inverse_reduced_signature",)),
    ("signature.validation_ms", ("signature.validation_failure",)),
    ("synchronize.is_synchronizing_ms", ("synchronize.is_synchronizing",)),
    ("synchronize.core_ms", ("synchronize.core",)),
    ("synchronize.minimal_sync_level_ms", ("synchronize.minimal_sync_level",)),
    ("transducer.product_ms", ("transducer.product",)),
    ("transducer.minimize_rooted_ms", ("transducer.minimize_rooted",)),
    ("group.canonical_core_ms", ("group.canonical_core",)),
    ("group.group_product_ms", ("group.group_product",)),
    ("group.invert_element_ms", ("group.invert_element",)),
    ("group.rotation_action_ms", ("group.rotation_action",)),
    ("group.loop_state_ms", ("group.loop_state",)),
    ("invert.inverse_closure_ms", ("invert.inverse_closure",)),
    ("invert.invert_initial_ms", ("invert.invert_initial",)),
    ("machines.realize_ms", ("machines.realize",)),
    ("initial.minimize_initial_ms", ("initial.minimize_initial",)),
    ("words.rotation_class_of_ms", ("words.rotation_class_of",)),
    ("textio.serialize_ms", ("textio.serialize",)),
    ("textio.parse_ms", ("textio.parse",)),
)

COUNTER_NAMES = tuple(dict.fromkeys(name for _, name, _ in COUNTERS))


class Tracer:
    """Records spans [name, op, parent, start, end] and result-size counters.

    `install` wraps the functions in WRAPPED; `uninstall` restores them.
    Recording happens only while `active` is true."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1
        self.active = False
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.op_counters = {}
        self._hooks = {}
        for span, counter, fn in COUNTERS:
            self._hooks.setdefault(span, []).append((counter, fn))
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hooks = self._hooks.get(name, ())
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, self.op, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = clock()
            for counter, measure in hooks:
                self.count(counter, measure(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, counter, value):
        self.counters[counter] += value
        per = self.op_counters.setdefault(self.op, {})
        per[counter] = per.get(counter, 0) + value

    @contextmanager
    def op_span(self, op_id, label):
        """One benchmark op: a root span that the library spans hang under."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append([f"op:{label}", op_id, -1, time.perf_counter(), 0.0])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][4] = time.perf_counter()
            self.op = -1

    @contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Wrap every function of WRAPPED wherever a cantortx module holds it."""
        originals = {}
        for mod, names in WRAPPED.items():
            module = getattr(package, mod)
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self.wrap(f"{mod}.{fname}", fn))
        prefix = package.__name__
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, val in list(vars(module).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, val))
        self.active = True

    def uninstall(self):
        self.active = False
        for module, attr, val in reversed(self._patched):
            setattr(module, attr, val)
        self._patched.clear()

    # -- reduction ---------------------------------------------------------

    def _children_time(self):
        child = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def family_time(self, names):
        """Inclusive seconds of spans in `names` that have no ancestor in
        `names`, so recursion and nesting are counted once."""
        names = set(names)
        spans = self.spans
        total = 0.0
        for name, op, parent, start, end in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][2]
            if p < 0:
                total += end - start
        return total

    def self_times(self):
        """Seconds of self time per module: a span's duration minus the part
        its child spans cover."""
        child = self._children_time()
        out = dict.fromkeys(MODULES, 0.0)
        for i, (name, op, parent, start, end) in enumerate(self.spans):
            mod = name.partition(".")[0]
            if mod in out:
                out[mod] += end - start - child[i]
        return out

    def layer_metrics(self):
        """Every per-layer time and counter metric, in (value, unit) form."""
        out = {}
        for metric, names in TIMES:
            out[metric] = (self.family_time(names) * 1000.0, "ms")
        for mod, secs in self.self_times().items():
            out[f"{mod}.self_ms"] = (secs * 1000.0, "ms")
        for name in COUNTER_NAMES:
            out[name] = (self.counters[name], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path, ops, extra):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "spans": [
                [index[name], op, parent, round(start, 7), round(end, 7)]
                for name, op, parent, start, end in self.spans
            ],
            "ops": ops,
            "counters": self.counters,
            "op_counters": {str(k): v for k, v in sorted(self.op_counters.items())},
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def span_cost_seconds(samples=20000):
    """Measured cost of recording one span, from wrapping a no-op."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe.noop", noop)
    probe.active = True
    clock = time.perf_counter
    start = clock()
    for _ in range(samples):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(samples):
        traced()
    wrapped = clock() - start
    return max(wrapped - bare, 0.0) / samples
