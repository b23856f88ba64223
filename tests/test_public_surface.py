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
