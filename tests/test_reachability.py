"""``src/envlab`` holds only what runs: every definition is reached by
name from ``cli.main`` or from a name that the benchmark's tracer wraps
(its ``TRACED`` table), apart from the branch kernels that only the tests
call.

A name reaches every top-level function, class or assignment of that
name in any module, and a reached definition reaches every name its
source mentions, as a bare name or as an attribute.  The walk may reach
too much but never misses a call, so a definition it leaves unreached is
one that nothing runs.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).parents[1]
# the branch kernels the tests check the information measures against
UNREACHED = {"tensor_core.branch_outcomes", "tensor_core.reduced_spectrum"}


def traced_table() -> dict:
    """The tracer's ``TRACED`` table, {module: names}, read from its source
    so that the benchmark is not imported."""
    tracer = ROOT / "perfbench" / "tracer.py"
    table = next(node.value for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["TRACED"])
    return ast.literal_eval(table)


def definitions() -> dict:
    """{"module.name": node} for each top-level function, class and
    assignment of the envlab modules; ``__init__`` only re-exports."""
    defs = {}
    for path in sorted((ROOT / "src" / "envlab").glob("*.py")):
        if path.stem == "__init__":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [ast.Name(node.name)]
            elif isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            defs.update((f"{path.stem}.{n.id}", node) for t in targets
                        for n in ast.walk(t) if isinstance(n, ast.Name))
    return defs


def reached(defs: dict, roots) -> set:
    """The keys of ``defs`` that the ``roots`` reach by name."""
    by_name = {}
    for key in defs:
        by_name.setdefault(key.split(".", 1)[1], []).append(key)
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo += by_name.get(node.id, [])
            elif isinstance(node, ast.Attribute):
                todo += by_name.get(node.attr, [])
    return seen


def traced_roots() -> list:
    return [f"{module}.{name}" for module, names in traced_table().items()
            for name in names]


def traced_only() -> list:
    """(key, lines) of each definition that a ``TRACED`` name reaches and
    ``cli.main`` does not: what only the benchmark keeps in ``src/``."""
    defs = definitions()
    keep = reached(defs, traced_roots()) - reached(defs, ["cli.main"])
    return [(key, defs[key].end_lineno - defs[key].lineno + 1)
            for key in sorted(keep)]


def test_only_the_test_kernels_are_unreached():
    defs = definitions()
    roots = ["cli.main"] + traced_roots()
    assert set(roots) <= set(defs)
    assert set(defs) - reached(defs, roots) == UNREACHED


def test_the_walk_follows_names_and_attributes():
    source = {
        "a.main": "def main():\n    return b.helper(CONST)\n",
        "b.helper": "def helper(x):\n    return Klass(x)\n",
        "a.CONST": "CONST = 3\n",
        "b.Klass": "class Klass:\n    def __init__(self, x):\n"
                   "        self.x = _inner(x)\n",
        "b._inner": "def _inner(x):\n    return x\n",
        "b.dead": "def dead():\n    return main()\n",
    }
    defs = {key: ast.parse(text).body[0] for key, text in source.items()}
    assert reached(defs, ["a.main"]) == set(defs) - {"b.dead"}
    assert reached(defs, ["b.dead"]) == set(defs)
