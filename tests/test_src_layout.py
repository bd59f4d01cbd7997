"""The source tree holds no helper that only tests call, and no unused import.

Every module-level function, class and constant of attnloc must be named
somewhere in src/ outside its own definition, or in perfbench/*.py.
Names are matched as identifiers, not resolved, so a name used in one
module also covers a same-named definition in another. Methods are not
scanned: a public value type may carry a method only tests call.

Every name a src/ module imports must be used in that module, except
`__future__` imports and the names the module exports in `__all__`.

Whether a number a caller hands the program is in range is decided in
geometry.py (check_number, check_int): no other module compares against
an infinity.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "attnloc").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _names(nodes) -> set[str]:
    """Identifiers the nodes name: names, attributes, imports and dotted string constants."""
    out: set[str] = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.split("."))
    return out


def _defined(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_module_level_names_are_used_outside_tests():
    assert SRC and BENCH
    stmts = [(path.name, stmt) for path in SRC for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    named = [_names([stmt]) for _, stmt in stmts]
    # per name, the number of top-level statements in src/ that name it
    counts = Counter(n for names in named for n in names)
    bench = _names(ast.parse(path.read_text(encoding="utf-8")) for path in BENCH)
    unused = [f"{module}:{n}" for (module, stmt), names in zip(stmts, named)
              for n in _defined(stmt)
              if not n.startswith("__") and n not in bench and counts[n] - (n in names) == 0]
    assert not unused, f"defined in src/ but named only by tests: {unused}"


def test_every_imported_name_is_used():
    assert SRC
    unused = []
    for path in SRC:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [alias.asname or alias.name.partition(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        exported = [name for stmt in tree.body if "__all__" in _defined(stmt) for name in ast.literal_eval(stmt.value)]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
        unused += [f"{path.name}:{name}" for name in imported if name not in used]
    assert not unused, f"imported but never used: {unused}"


def test_only_geometry_compares_against_infinity():
    assert SRC
    found = []
    for path in SRC:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare):
                found += [f"{path.name}:{node.lineno}" for operand in (node.left, *node.comparators)
                          if isinstance(operand, ast.Attribute) and operand.attr == "inf"]
    assert not found, f"range checks outside geometry.check_number: {found}"
