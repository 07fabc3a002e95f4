"""The package ships only code that it exports or runs itself, and only its CLI touches files."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spdmean"


def _names(node):
    """Every name a node uses: as a name, an attribute or an imported name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_module_level_def_is_exported_or_used():
    # a function or class that only tests call belongs under tests/
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    init = trees.pop("__init__")
    exported = {a.asname or a.name for node in init.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    unused = []
    for module, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if d.name in exported:
                continue
            if not any(d.name in _names(node) for other in trees.values()
                       for node in other.body if node is not d):
                unused.append(f"{module}.{d.name}")
    assert unused == []



def test_the_cli_imports_no_private_name():
    # the CLI reads its input through the library's API, so it has no refusals of its own
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    aliases = [a for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
               for a in n.names]
    modules = {a.asname or a.name.split(".")[0] for a in aliases}
    private = [a.name for a in aliases if any(s.startswith("_") for s in a.name.split("."))]
    private += [f"{n.value.id}.{n.attr}" for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and isinstance(n.value, ast.Name) and n.value.id in modules
                and n.attr.startswith("_")]
    assert private == []


def _touches_files(func) -> bool:
    """Whether a call's target is open, write_text, write_bytes, unlink or os.remove."""
    if isinstance(func, ast.Name):
        return func.id == "open"
    return isinstance(func, ast.Attribute) and (
        func.attr in {"open", "write_text", "write_bytes", "unlink"}
        or (func.attr == "remove" and isinstance(func.value, ast.Name) and func.value.id == "os"))


def test_only_the_cli_touches_files():
    # the CLI checks every output before solving and writes all or none
    calls = [f"{path.stem}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and _touches_files(node.func)]
    assert calls == []
