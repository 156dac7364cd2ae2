"""Static checks on the source tree that pytest does not make.

Run ``python3 tools/lint.py`` (from any directory). It prints one line
per finding and exits 1 if there is any, else exits 0 silently. It checks
``src/seqcolor`` for assert statements (``python -O`` strips them), reads of
``__debug__`` or ``sys.flags`` (``python -O`` changes them), coverage
pragmas, dataclasses or typing imports, gc use outside cli.py, incidence
attribute reads and dead definitions, ``src/seqcolor`` and ``tests`` for
unused ``from ... import`` names, and ``tests`` for a top-level function
defined in more than one module.
"""

import ast, functools, os, pathlib, sys

# Every path below is relative to the repository root.
os.chdir(pathlib.Path(__file__).resolve().parent.parent)


@functools.cache
def tree(path):
    """The syntax tree of ``path``, parsed once for every check."""
    return ast.parse(path.read_text(), str(path))


hits = [f"assert in src: {path}:{node.lineno}"
        for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
        for node in ast.walk(tree(path))
        if isinstance(node, ast.Assert)]
# Beyond the asserts, python -O changes only __debug__ and sys.flags, so
# with neither read in src the CLI behaves the same under -O (the CLI
# table of tests/test_golden_output.py runs every row both ways).
hits += [f"__debug__ or sys.flags read in src (python -O changes it): {path}:{node.lineno}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         for node in ast.walk(tree(path))
         if (isinstance(node, ast.Name) and node.id == "__debug__")
         or (isinstance(node, ast.Attribute) and node.attr == "flags"
             and isinstance(node.value, ast.Name) and node.value.id == "sys")
         or (isinstance(node, ast.ImportFrom) and node.module == "sys"
             and any(alias.name == "flags" for alias in node.names))]
# No coverage tool runs, so such a marker only hides a branch that
# should be deleted.
hits += [f"coverage pragma in src: {path}:{number}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         for number, line in enumerate(path.read_text().splitlines(), 1)
         if "pragma: no cover" in line]
# dataclasses (which imports inspect) and typing add to the import
# time of every fresh seqcolor process, the benchmark's setup_s: the
# value types subclass graph.Value, and annotations name
# collections.abc.
hits += [f"{module} import in src (adds to setup_s): {path}:{node.lineno}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         for node in ast.walk(tree(path))
         for module in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
         if module.split(".")[0] in ("dataclasses", "typing")]
# The cyclic garbage collector is process-wide state: only the
# program entry, cli.run (which pauses it per command), may import
# or touch gc.
hits += [f"gc use outside cli.py (the collector is process-wide): {path}:{node.lineno}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         if path.name != "cli.py"
         for node in ast.walk(tree(path))
         if (isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "gc" for alias in node.names))
         or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gc")
         or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "gc")]
# Graph caches only what several layers read (degrees, sides, edge_set);
# an index with one reader is built by it. The per-vertex edge-id lists
# are built only in oracle._later_edges, so no code reads an incidence
# attribute.
hits += [f"incidence attribute read in src (build the index where it is read): {path}:{node.lineno}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         for node in ast.walk(tree(path))
         if isinstance(node, ast.Attribute) and node.attr == "incidence"]
# A "from ... import" name that no Name node reads (an attribute base
# is a Name too). __init__.py imports only to re-export.
paths = [p for p in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         if p.name != "__init__.py"] + sorted(pathlib.Path("tests").glob("*.py"))
for path in paths:
    used = {node.id for node in ast.walk(tree(path)) if isinstance(node, ast.Name)}
    hits += [f"unused import: {path}:{node.lineno}: {alias.asname or alias.name}"
             for node in ast.walk(tree(path))
             if isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names
             if (alias.asname or alias.name) not in used]
# A graph family or helper that two test modules define is two copies
# of one corpus: define it once, in tests/conftest.py (the generators
# that the golden digests pin keep names of their own).
defined = {}
for path in sorted(pathlib.Path("tests").glob("*.py")):
    for node in tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.setdefault(node.name, []).append(f"{path}:{node.lineno}")
hits += [f"function defined in more than one tests module (define it once in "
         f"tests/conftest.py): {name}: {', '.join(places)}"
         for name, places in defined.items() if len(places) > 1]
# A function or method defined in src/seqcolor (dunders aside)
# needs a Name or Attribute in src or bench that names it, or a
# string there (the tracer's span lists name functions by string).
# Without one it is dead, or, when a Name or Attribute in tests
# names it, a test reference that belongs in tests/reference.py. A
# string in a test is data (the tamper kind "recolor" in
# tests/test_cli.py, say), and a string in src/seqcolor/__init__.py
# is an __all__ entry, which would keep every export alive, so
# neither counts.
named = {"src": set(), "tests": set(), "bench": set()}
for top, names in named.items():
    for path in sorted(pathlib.Path(top).rglob("*.py")):
        for node in ast.walk(tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and top != "tests"
                  and path != pathlib.Path("src/seqcolor/__init__.py")):
                names.add(node.value)
hits += [f"{'test-only' if node.name in named['tests'] else 'dead'} "
         f"definition in src: {path}:{node.lineno}: {node.name}"
         for path in sorted(pathlib.Path("src/seqcolor").glob("*.py"))
         for node in ast.walk(tree(path))
         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
         and not (node.name.startswith("__") and node.name.endswith("__"))
         and node.name not in named["src"] | named["bench"]]
if hits:
    sys.exit("\n".join(hits))
