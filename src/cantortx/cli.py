"""Command-line front end `tx`.

Machines stream through the text format of cantortx.textio; `-` means stdin
or stdout, so commands compose in pipelines.  Every subcommand takes --json
for a machine-readable report {command, inputs, result, bounds, elapsed_ms}.
Exit codes: 0 success, 1 domain error, 2 usage error."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .words import InvalidInput, parse_word, rotation_class_of, format_word
from .transducer import (
    DegenerateTransducer,
    DepthExceeded,
    Transducer,
    minimize_rooted,
    product,
    relabel,
)
from .initial import InitialTransducer, minimize_initial, product_initial
from .synchronize import NotSynchronizing, core, minimal_sync_level
from .images import NotClopenImage, analyze
from .invert import EmptyPreimage, invert_initial
from .signature import (
    membership_failure,
    signature_class_partition,
    signature_report,
)
from .machines import (
    NotOrderable,
    RealizeError,
    identity_transducer,
    letter_complement,
    machine_A,
    machine_B,
    machine_T,
    machine_U,
    machine_g4,
    realize,
)
from .group import (
    CoreInvariantError,
    GroupElement,
    element_order,
    group_product,
    invert_element,
    orbit_lengths,
)
from . import textio, verify

DOMAIN_ERRORS = (
    InvalidInput,
    NotSynchronizing,
    DegenerateTransducer,
    DepthExceeded,
    NotClopenImage,
    EmptyPreimage,
    RealizeError,
    NotOrderable,
    CoreInvariantError,
    textio.ParseError,
    KeyError,
)


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise InvalidInput(f"{path}: not UTF-8 text") from None


def _read_machine(path):
    return textio.parse(_read_text(path))


def _plain(machine, what):
    if not isinstance(machine, Transducer):
        raise InvalidInput(f"{what} needs a plain machine (r=0)")
    return machine


def _fresh_names(T):
    names = {q: str(k) for k, q in enumerate(T.states)}
    return relabel(T, names)


def _emit(args, command, inputs, result, bounds, started, machine_text=None):
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
    if args.json:
        print(
            json.dumps(
                {
                    "command": command,
                    "inputs": inputs,
                    "result": result,
                    "bounds": bounds,
                    "elapsed_ms": elapsed_ms,
                },
                sort_keys=True,
            )
        )
    elif machine_text is not None:
        sys.stdout.write(machine_text)
    else:
        if isinstance(result, str):
            print(result)
        else:
            print(json.dumps(result, sort_keys=True))


def cmd_parse(args, started):
    M = _read_machine(args.file)
    text = textio.serialize(M)
    _emit(args, "parse", [args.file], text, {}, started, machine_text=text)


def cmd_minimize(args, started):
    M = _read_machine(args.file)
    if isinstance(M, InitialTransducer):
        out = minimize_initial(M)
    else:
        root = args.root if args.root is not None else M.states[0]
        if root not in M.states:
            raise InvalidInput(f"unknown root state {root!r}")
        out, _ = minimize_rooted(M, root)
    text = textio.serialize(out)
    _emit(args, "minimize", [args.file], text, {}, started, machine_text=text)


def cmd_product(args, started):
    A = _read_machine(args.a)
    B = _read_machine(args.b)
    if isinstance(A, InitialTransducer) and isinstance(B, InitialTransducer):
        out = minimize_initial(product_initial(A, B))
    elif isinstance(A, Transducer) and isinstance(B, Transducer):
        out = _fresh_names(product(A, B))
    else:
        raise InvalidInput("product needs two machines of the same kind")
    text = textio.serialize(out)
    _emit(args, "product", [args.a, args.b], text, {}, started, machine_text=text)


def cmd_invert(args, started):
    M = _read_machine(args.file)
    if isinstance(M, InitialTransducer):
        out = invert_initial(M)
    else:
        out = invert_element(GroupElement(M)).machine
    text = textio.serialize(out)
    _emit(args, "invert", [args.file], text, {}, started, machine_text=text)


def cmd_sync_level(args, started):
    M = _read_machine(args.file)
    level = minimal_sync_level(M)
    _emit(args, "sync-level", [args.file], {"level": level}, {}, started)


def cmd_core(args, started):
    M = _read_machine(args.file)
    out = core(M)
    text = textio.serialize(out)
    _emit(args, "core", [args.file], text, {}, started, machine_text=text)


def cmd_analyze(args, started):
    M = _plain(_read_machine(args.file), "analyze")
    reports, orient = analyze(M)
    rows = {}
    for q in M.states:
        rep = reports[q]
        rows[str(q)] = {
            "image": [format_word(w) for w in rep.image.cones],
            "m": rep.m,
            "injective": rep.injective,
            "homeomorphism": rep.homeomorphism,
        }
    result = {"states": rows, "orientation": orient.value}
    if args.json:
        _emit(args, "analyze", [args.file], result, {}, started)
    else:
        for q, row in rows.items():
            cones = " ".join(row["image"]) or "(empty)"
            print(
                f"{q}: m={row['m']} injective={row['injective']}"
                f" homeomorphism={row['homeomorphism']} image={{{cones}}}"
            )
        print(f"orientation: {orient.value}")


def cmd_sig(args, started):
    M = _plain(_read_machine(args.file), "sig")
    rep = signature_report(M)
    if args.json:
        # the terms of sig, one per forced state, not the n^level per-word values
        forced = [{"state": str(q), "words": words, "m": m}
                  for q, (words, m) in rep.forced.items()]
        result = {"sync_level": rep.sync_level, "forced": forced,
                  "sig": rep.sig, "rsig": rep.rsig}
        _emit(args, "sig", [args.file], result, {}, started)
    else:
        print(f"sync_level={rep.sync_level} sig={rep.sig} rsig={rep.rsig}")


def cmd_member(args, started):
    M = _plain(_read_machine(args.file), "member")
    reason = membership_failure(M, args.r, args.ordered)
    ok = reason is None
    result = {"member": ok, "r": args.r, "ordered": args.ordered, "reason": reason}
    if args.json:
        _emit(args, "member", [args.file], result, {}, started)
    else:
        print("true" if ok else f"false ({reason})")


def cmd_orient(args, started):
    M = _plain(_read_machine(args.file), "orient")
    from .images import orientation

    _emit(args, "orient", [args.file], {"orientation": orientation(M).value}, {}, started)


def _example(name):
    if name == "g4":
        return machine_g4()
    kind, _, arg = name.partition(":")
    if not arg:
        raise InvalidInput(f"unknown example {name!r}")
    try:
        n = int(arg)
    except ValueError:
        raise InvalidInput(f"bad alphabet size in {name!r}") from None
    table = {
        "T": machine_T,
        "U": machine_U,
        "A": machine_A,
        "B": machine_B,
        "piR": letter_complement,
        "id": identity_transducer,
    }
    if kind not in table:
        raise InvalidInput(f"unknown example {name!r}")
    return table[kind](n)


def cmd_example(args, started):
    M = _example(args.name)
    text = textio.serialize(M)
    _emit(args, "example", [args.name], text, {}, started, machine_text=text)


def cmd_realize(args, started):
    M = _plain(_read_machine(args.file), "realize")
    out = realize(M, args.r, ordered=not args.unordered,
                  max_prefix_depth=args.depth)
    text = textio.serialize(out)
    _emit(args, "realize", [args.file], text,
          {"r": args.r, "depth": args.depth}, started, machine_text=text)


def cmd_mul(args, started):
    A = GroupElement.from_machine(_plain(_read_machine(args.a), "mul"))
    B = GroupElement.from_machine(_plain(_read_machine(args.b), "mul"))
    out = group_product(A, B).machine
    text = textio.serialize(out)
    _emit(args, "mul", [args.a, args.b], text, {}, started, machine_text=text)


def cmd_order(args, started):
    g = GroupElement.from_machine(_plain(_read_machine(args.file), "order"))
    res = element_order(g, args.bound, state_cap=args.state_cap)
    result = {
        "finite": res.finite,
        "order": res.value,
        "state_counts": list(res.growth),
    }
    if args.json:
        _emit(args, "order", [args.file], result,
              {"bound": args.bound, "state_cap": args.state_cap}, started)
    else:
        print(f"Finite({res.value})" if res.finite else f"ExceedsBound{res.growth}")


def cmd_orbit(args, started):
    g = GroupElement.from_machine(_plain(_read_machine(args.file), "orbit"))
    cls = rotation_class_of(parse_word(args.cls))
    lens = orbit_lengths(g, cls, args.steps)
    _emit(args, "orbit", [args.file],
          {"class": args.cls, "lengths": lens},
          {"steps": args.steps}, started)


def cmd_partition(args, started):
    sigs = set(args.sigs)
    parts = signature_class_partition(args.n, sigs)
    canon = sorted(sorted(p) for p in parts)
    _emit(args, "partition", [],
          {"n": args.n, "sigs": sorted(sigs), "classes": canon}, {}, started)


def cmd_verify(args, started):
    results = verify.run_suite(args.suite)
    if args.json:
        _emit(args, "verify", [args.suite],
              [{"name": n, "ok": ok, "detail": d, "seconds": round(s, 3)}
               for n, ok, d, s in results],
              {}, started)
    else:
        for name, ok, detail, secs in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name:24s} {secs:8.2f}s  {detail}")
    if not all(ok for _, ok, _, _ in results):
        raise SystemExit(1)


def cmd_edges(args, started):
    M = _read_machine(args.file)
    lines = [
        f"{q} -{textio._fmt_letter(sym)}|{textio._fmt_out(w)}-> {p}"
        for q in M.states
        for sym, (w, p) in zip(M.symbols_at(q), M.row(q))
    ]
    text = "\n".join(lines) + "\n"
    _emit(args, "edges", [args.file], text, {}, started, machine_text=text)


def _count(text):
    """argparse type of a numeric option that may not be negative; the
    message for a non-integer is argparse's own for type=int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _alphabet(text):
    """argparse type of an alphabet size, at least 2."""
    value = _count(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2: {value}")
    return value


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tx",
        description="transducer calculus on n-ary Cantor space",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        return p

    p = add("parse", cmd_parse, help="validate and reprint a machine file")
    p.add_argument("file")

    p = add("minimize", cmd_minimize, help="canonical minimal machine")
    p.add_argument("file")
    p.add_argument("--root", default=None, help="root state for plain machines")

    p = add("product", cmd_product, help="compose two machines (first then second)")
    p.add_argument("a")
    p.add_argument("b")

    p = add("invert", cmd_invert, help="inverse machine")
    p.add_argument("file")

    p = add("sync-level", cmd_sync_level, help="minimal synchronizing level")
    p.add_argument("file")

    p = add("core", cmd_core, help="sub-machine on the forced states")
    p.add_argument("file")

    p = add("analyze", cmd_analyze, help="per-state image report and orientation")
    p.add_argument("file")

    p = add("sig", cmd_sig, help="signature and reduced signature")
    p.add_argument("file")

    p = add("member", cmd_member, help="membership over r roots")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--ordered", action="store_true",
                   help="require circle-order compatibility")

    p = add("orient", cmd_orient, help="lexicographic orientation")
    p.add_argument("file")

    p = add("example", cmd_example, help="write a built-in machine")
    p.add_argument("--name", required=True,
                   help="g4 | T:<n> | U:<n> | A:<n> | B:<n> | piR:<n> | id:<n>")

    p = add("realize", cmd_realize, help="initial machine over r roots with this core")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--unordered", action="store_true",
                   help="drop the circle-order requirement")
    p.add_argument("--depth", type=_count, default=3)

    p = add("mul", cmd_mul, help="group product of two core elements")
    p.add_argument("a")
    p.add_argument("b")

    p = add("order", cmd_order, help="order of a core element, up to a bound")
    p.add_argument("file")
    p.add_argument("--bound", type=_count, default=16)
    p.add_argument("--state-cap", type=_count, default=512)

    p = add("orbit", cmd_orbit, help="rotation-class orbit lengths")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True, help="e.g. 1,2")
    p.add_argument("--steps", type=_count, default=8)

    p = add("partition", cmd_partition, help="root-count classes from signatures")
    p.add_argument("--n", type=_alphabet, required=True)
    p.add_argument("--sigs", type=parse_word, required=True,
                   help="comma-separated reduced signatures")

    p = add("verify", cmd_verify, help="run the reproducibility suite")
    p.add_argument("--suite", default="paper", choices=sorted(verify.SUITES))

    p = add("edges", cmd_edges, help="plain-text edge list dump")
    p.add_argument("file")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "a", None) == getattr(args, "b", None) == "-":
        ap.error("stdin can be read only once: give at most one input as -")
    started = time.perf_counter()
    try:
        args.fn(args, started)
    except SystemExit:
        raise
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
