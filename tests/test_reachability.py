"""Every public function, class and method in src/ runs in some command,
and the package modules keep their layers.

A name-based walk over the package's ASTs starts from cli.main and every
module-level statement that is not a definition or an import.  A bare name
reaches the module-level definition it names in its own module, or the one
it was imported from; `module.name` reaches the definition in that package
module; any other call `x.name(...)` reaches every method of that name, and
any other read of `x.name` every property of that name, so reading a field
runs no method.  A reached class also runs its dunder methods.  No public
name is exempt: a reference body that tests compare against lives in
tests/oracles.py, not in the package.

The layers: arith and reports import no package module; congruence, dp6,
gausssum and sawtooth import arith alone, and averaged arith and
congruence; only cli, which may import any, prints, logs or reads
sys.stdout or sys.stderr.
"""

import ast
from pathlib import Path

import congruence_lab

PACKAGE = Path(congruence_lab.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(trees):
    # (module, qualified name) -> node, for module-level functions and
    # classes and the methods of those classes
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, node.name] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[mod, f"{node.name}.{item.name}"] = item
    return defs


def _imports(tree):
    # local name -> (package module, name or None for the module itself)
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                out[local] = (node.module, alias.name) if node.module else (alias.name, None)
    return out


def _is_property(node):
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def _references(mod, nodes, imports, defs, methods):
    # the definitions that a bare name, a module attribute or a method
    # attribute in nodes can reach
    out = set()
    for root in nodes:
        called = {id(node.func) for node in ast.walk(root) if isinstance(node, ast.Call)}
        for node in ast.walk(root):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue  # a bound name, as a NamedTuple field, calls nothing
            if isinstance(node, ast.Name):
                if (mod, node.id) in defs:
                    out.add((mod, node.id))
                target = imports.get(node.id)
                if target and target[1] and target in defs:
                    out.add(target)
            elif isinstance(node, ast.Attribute):
                base = node.value
                target = imports.get(base.id) if isinstance(base, ast.Name) else None
                if target and target[1] is None:
                    if (target[0], node.attr) in defs:
                        out.add((target[0], node.attr))
                else:
                    out |= {key for key in methods.get(node.attr, ())
                            if id(node) in called or _is_property(defs[key])}
    return out


def reached_names():
    trees = _modules()
    defs = _definitions(trees)
    imports = {mod: _imports(tree) for mod, tree in trees.items()}
    methods = {}
    for mod, name in defs:
        if "." in name:
            methods.setdefault(name.split(".")[1], set()).add((mod, name))

    def walk(mod, nodes):
        return _references(mod, nodes, imports[mod], defs, methods)

    todo = {("cli", "main")}
    for mod, tree in trees.items():
        top = [node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
        todo |= walk(mod, top)
    reached = set()
    while todo:
        key = todo.pop()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        node = defs[key]
        if isinstance(node, ast.ClassDef):
            body = [item for item in node.body if not isinstance(item, ast.FunctionDef)]
            todo |= walk(mod, [*node.decorator_list, *node.bases, *body])
            todo |= {(mod, f"{name}.{item.name}") for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name.startswith("__")}
        else:
            todo |= walk(mod, [node])
    return defs, reached


def test_every_public_definition_runs_in_some_command():
    defs, reached = reached_names()
    public = {key for key in defs if not any(part.startswith("_") for part in key[1].split("."))}
    unreached = {f"{mod}.{name}" for mod, name in public - reached}
    assert unreached == set()


# module -> the package modules it may import; cli and __init__ may import any
LAYERS = {
    "arith": set(), "reports": set(),
    "congruence": {"arith"}, "dp6": {"arith"}, "gausssum": {"arith"}, "sawtooth": {"arith"},
    "averaged": {"arith", "congruence"},
}


def _package_imports(tree, modules):
    # the package modules that the imports of tree name, at any depth; an
    # import of the package itself, or of a name from its __init__, is __init__
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "congruence_lab" if node.level else node.module
            if node.level and node.module:
                base += f".{node.module}"
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "congruence_lab":
                out.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return out


def test_modules_import_only_their_lower_layers():
    trees = _modules()
    assert set(trees) - {"cli", "__init__"} == set(LAYERS)
    imported = {mod: _package_imports(trees[mod], trees) for mod in LAYERS}
    assert {mod: names - LAYERS[mod] for mod, names in imported.items()} == dict.fromkeys(
        LAYERS, set())


def _talk(tree):
    # the lines that call print, import logging or read sys.stdout or sys.stderr
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(alias.name.split(".")[0] == "logging" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "logging" or (
                node.module == "sys" and any(a.name in ("stdout", "stderr") for a in node.names))
        elif isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id == "print"
        elif isinstance(node, ast.Attribute):
            hit = (isinstance(node.value, ast.Name) and node.value.id == "sys"
                   and node.attr in ("stdout", "stderr"))
        else:
            continue
        if hit:
            out.append(node.lineno)
    return out


def test_only_cli_talks_to_the_user():
    talk = {mod: _talk(tree) for mod, tree in _modules().items() if mod != "cli"}
    assert {mod: lines for mod, lines in talk.items() if lines} == {}
