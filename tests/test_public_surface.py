"""Every public top-level function and class of the library has a caller
outside its own definition: another library module (cli.py among them), a
demo, a code mention in README.md, or a name that perfbench wraps or
reaches.  A name that only tests call belongs in the tests, so the public
surface cannot grow back unnoticed."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cantortx"
PERFBENCH = ROOT / "perfbench"

# Public names kept with no caller outside the tests.
KEEP = {
    "omega_equivalent",  # documented in README.md
    "evaluate_periodic",  # documented in README.md
    "PrefixExchange",  # the prefix-exchange definition of elements of G_{n,r}
    "from_prefix_exchange",  # the machine of a prefix exchange
}


def definitions():
    """(module file name, top-level node) of every public function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.name, node


def references(tree, modules):
    """Names that tree reads: bare names it does not bind itself (a loop
    variable named like a function calls nothing), and attributes of a
    module name."""
    read, bound = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            read.add(node.attr)
    return read - bound


def code_callers():
    """name -> the places that read it: a top-level statement of a library
    module other than __init__.py, or a demo file."""
    modules = {p.stem for p in SRC.glob("*.py")} | {"cantortx", "tx"}
    callers = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in references(node, modules):
                callers.setdefault(name, []).append((path.name, node))
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in references(tree, modules):
            callers.setdefault(name, []).append((path.name, tree))
    return callers


def readme_names():
    """Identifiers in the inline code spans and fenced blocks of README.md."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def perfbench_names():
    """Every part of a tx.<name> chain of the workloads, and every name that
    the traced run wraps."""
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    chains = re.findall(r"\btx((?:\.[A-Za-z_]\w*)+)", text)
    names = {part for chain in chains for part in chain.lstrip(".").split(".")}
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return names | {name for wrapped in tracing.WRAPPED.values() for name in wrapped}


def test_every_public_name_has_a_caller_outside_the_tests():
    callers = code_callers()
    outside = readme_names() | perfbench_names() | KEEP
    orphans = [
        f"{module}:{node.name}"
        for module, node in definitions()
        if node.name not in outside
        and not any(where is not node for _, where in callers.get(node.name, ()))
    ]
    assert not orphans, orphans


def test_every_kept_name_is_defined():
    assert KEEP <= {node.name for _, node in definitions()}


def python_files():
    """Every Python file of the library, the tests and the demos."""
    for folder in (SRC, ROOT / "tests", ROOT / "demos"):
        yield from sorted(folder.rglob("*.py"))


def test_every_imported_name_is_read():
    """A file reads every name that it imports; the imports of __init__.py
    are the package's surface, read by its users."""
    unread = []
    for path in python_files():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{path.relative_to(ROOT)}:{node.lineno}:{name}"
                       for name in names if name not in read]
    assert not unread, unread


def test_only_transducer_touches_the_memo():
    """A machine's _memo is read and written by transducer.py alone, through
    memoized, mark and marked; elsewhere only the slot's name and a
    constructor's `_memo = None` appear.  No other module spells out the
    key of a fact that mark records."""
    from cantortx import transducer

    facts = {transducer.MINIMAL, transducer.COMPLETE_RESPONSE,
             transducer.SYNCHRONIZING, transducer.VALID}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "transducer.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        cleared = {id(target) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                   and node.value.value is None for target in node.targets}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "_memo" and id(node) not in cleared:
                found.append(f"{path.name}:{node.lineno}: ._memo")
            elif isinstance(node, ast.Constant) and node.value in facts:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found
