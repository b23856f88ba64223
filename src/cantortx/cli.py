"""Command-line front end `tx`.

Machines stream through the text format of cantortx.textio; `-` means stdin
or stdout, so commands compose in pipelines.  Each cmd_* returns (result,
text): text is the plain rendering, or None to print a string result as it
is and any other result as JSON.  Every subcommand takes --json, and then
`main` prints the report {command, inputs, result, bounds, elapsed_ms}.
Exit codes: 0 success, 1 domain error or a failing verify, 2 usage error."""

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
    _plain,
    minimize_rooted,
    product,
    relabel,
)
from .initial import InitialTransducer, minimize_initial, product_initial
from .synchronize import NotSynchronizing, core, minimal_sync_level
from .images import NotClopenImage, analyze, orientation
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


def cmd_parse(args):
    return textio.serialize(_read_machine(args.file)), None


def cmd_minimize(args):
    M = _read_machine(args.file)
    if isinstance(M, InitialTransducer):
        if args.root is not None:
            raise InvalidInput("--root applies only to a plain machine (r=0)")
        out = minimize_initial(M)
    else:
        root = args.root if args.root is not None else M.states[0]
        if root not in M.states:
            raise InvalidInput(f"unknown root state {root!r}")
        out, _ = minimize_rooted(M, root)
    return textio.serialize(out), None


def cmd_product(args):
    A = _read_machine(args.a)
    B = _read_machine(args.b)
    if isinstance(A, InitialTransducer) and isinstance(B, InitialTransducer):
        out = minimize_initial(product_initial(A, B))
    elif isinstance(A, Transducer) and isinstance(B, Transducer):
        P = product(A, B)
        out = relabel(P, {q: str(k) for k, q in enumerate(P.states)})
    else:
        raise InvalidInput("product needs two machines of the same kind")
    return textio.serialize(out), None


def cmd_invert(args):
    M = _read_machine(args.file)
    if isinstance(M, InitialTransducer):
        out = invert_initial(M)
    else:
        out = invert_element(GroupElement(M)).machine
    return textio.serialize(out), None


def cmd_sync_level(args):
    return {"level": minimal_sync_level(_read_machine(args.file))}, None


def cmd_core(args):
    return textio.serialize(core(_read_machine(args.file))), None


def cmd_analyze(args):
    M = _plain(_read_machine(args.file), "analyze")
    reports, orient = analyze(M)
    rows, text = {}, ""
    for q in M.states:
        rep = reports[q]
        image = [format_word(w) for w in rep.image.cones]
        rows[str(q)] = {"image": image, "m": rep.m, "injective": rep.injective,
                        "homeomorphism": rep.homeomorphism}
        cones = " ".join(image) or "(empty)"
        text += (f"{q}: m={rep.m} injective={rep.injective}"
                 f" homeomorphism={rep.homeomorphism} image={{{cones}}}\n")
    result = {"states": rows, "orientation": orient.value}
    return result, text + f"orientation: {orient.value}\n"


def cmd_sig(args):
    rep = signature_report(_plain(_read_machine(args.file), "sig"))
    # the terms of sig, one per forced state, not the n^level per-word values
    forced = [{"state": str(q), "words": words, "m": m}
              for q, (words, m) in rep.forced.items()]
    result = {"sync_level": rep.sync_level, "forced": forced,
              "sig": rep.sig, "rsig": rep.rsig}
    return result, f"sync_level={rep.sync_level} sig={rep.sig} rsig={rep.rsig}\n"


def cmd_member(args):
    M = _plain(_read_machine(args.file), "member")
    reason = membership_failure(M, args.r, args.ordered)
    ok = reason is None
    result = {"member": ok, "r": args.r, "ordered": args.ordered, "reason": reason}
    return result, "true\n" if ok else f"false ({reason})\n"


def cmd_orient(args):
    M = _plain(_read_machine(args.file), "orient")
    return {"orientation": orientation(M).value}, None


EXAMPLES = {"T": machine_T, "U": machine_U, "A": machine_A, "B": machine_B,
            "piR": letter_complement, "id": identity_transducer}


def cmd_example(args):
    name = args.name
    kind, _, arg = name.partition(":")
    if name == "g4":
        return textio.serialize(machine_g4()), None
    if not arg:
        raise InvalidInput(f"unknown example {name!r}")
    try:
        n = int(arg)
    except ValueError:
        raise InvalidInput(f"bad alphabet size in {name!r}") from None
    if kind not in EXAMPLES:
        raise InvalidInput(f"unknown example {name!r}")
    return textio.serialize(EXAMPLES[kind](n)), None


def cmd_realize(args):
    M = _plain(_read_machine(args.file), "realize")
    out = realize(M, args.r, ordered=not args.unordered,
                  max_prefix_depth=args.depth)
    return textio.serialize(out), None


def cmd_mul(args):
    A = GroupElement.from_machine(_plain(_read_machine(args.a), "mul"))
    B = GroupElement.from_machine(_plain(_read_machine(args.b), "mul"))
    return textio.serialize(group_product(A, B).machine), None


def cmd_order(args):
    g = GroupElement.from_machine(_plain(_read_machine(args.file), "order"))
    res = element_order(g, args.bound, state_cap=args.state_cap)
    result = {
        "finite": res.finite,
        "order": res.value,
        "state_counts": list(res.growth),
    }
    return result, (f"Finite({res.value})\n" if res.finite
                    else f"ExceedsBound{res.growth}\n")


def cmd_orbit(args):
    g = GroupElement.from_machine(_plain(_read_machine(args.file), "orbit"))
    cls = rotation_class_of(parse_word(args.cls))
    return {"class": args.cls, "lengths": orbit_lengths(g, cls, args.steps)}, None


def cmd_partition(args):
    sigs = set(args.sigs)
    parts = signature_class_partition(args.n, sigs)
    canon = sorted(sorted(p) for p in parts)
    return {"n": args.n, "sigs": sorted(sigs), "classes": canon}, None


def cmd_verify(args):
    results = verify.run_suite(args.suite)
    result = [{"name": n, "ok": ok, "detail": d, "seconds": round(s, 3)}
              for n, ok, d, s in results]
    text = "".join(f"{'PASS' if ok else 'FAIL'}  {name:24s} {secs:8.2f}s  {detail}\n"
                   for name, ok, detail, secs in results)
    return result, text


def cmd_edges(args):
    M = _read_machine(args.file)
    lines = [
        f"{q} -{format_word((sym,))}|{format_word(w)}-> {p}"
        for q in M.states
        for sym, (w, p) in zip(M.symbols_at(q), M.row(q))
    ]
    return "\n".join(lines) + "\n", None


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

    def add(name, fn, inputs=("file",), bounds=(), **kw):
        # inputs and bounds name the attributes that the --json report lists
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn, inputs=inputs, bounds=bounds)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        return p

    p = add("parse", cmd_parse, help="validate and reprint a machine file")
    p.add_argument("file")

    p = add("minimize", cmd_minimize, help="canonical minimal machine")
    p.add_argument("file")
    p.add_argument("--root", default=None, help="root state for plain machines")

    p = add("product", cmd_product, ("a", "b"), help="compose two machines (first then second)")
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

    p = add("example", cmd_example, ("name",), help="write a built-in machine")
    p.add_argument("--name", required=True,
                   help="g4 | T:<n> | U:<n> | A:<n> | B:<n> | piR:<n> | id:<n>")

    p = add("realize", cmd_realize, bounds=("r", "depth"),
            help="initial machine over r roots with this core")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--unordered", action="store_true",
                   help="drop the circle-order requirement")
    p.add_argument("--depth", type=_count, default=3)

    p = add("mul", cmd_mul, ("a", "b"), help="group product of two core elements")
    p.add_argument("a")
    p.add_argument("b")

    p = add("order", cmd_order, bounds=("bound", "state_cap"),
            help="order of a core element, up to a bound")
    p.add_argument("file")
    p.add_argument("--bound", type=_count, default=16)
    p.add_argument("--state-cap", type=_count, default=512)

    p = add("orbit", cmd_orbit, bounds=("steps",), help="rotation-class orbit lengths")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True, help="e.g. 1,2")
    p.add_argument("--steps", type=_count, default=8)

    p = add("partition", cmd_partition, (), help="root-count classes from signatures")
    p.add_argument("--n", type=_alphabet, required=True)
    p.add_argument("--sigs", type=parse_word, required=True,
                   help="comma-separated reduced signatures")

    p = add("verify", cmd_verify, ("suite",), help="run the reproducibility suite")
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
        result, text = args.fn(args)
        if args.json:
            text = json.dumps({
                "command": args.command,
                "inputs": [getattr(args, name) for name in args.inputs],
                "result": result,
                "bounds": {name: getattr(args, name) for name in args.bounds},
                "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
            }, sort_keys=True) + "\n"
        elif text is None:
            text = (result if isinstance(result, str)
                    else json.dumps(result, sort_keys=True) + "\n")
        sys.stdout.write(text)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    if args.command == "verify" and not all(row["ok"] for row in result):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
