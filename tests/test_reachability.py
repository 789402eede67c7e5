"""Every public function, class and method in src/ runs in some command.

A name-based walk over the package's ASTs starts from cli.main and every
module-level statement that is not a definition or an import.  A bare name
reaches the module-level definition it names in its own module, or the one
it was imported from; `module.name` reaches the definition in that package
module; any other `.name` reaches every method of that name.  A reached
class also runs its dunder methods.  What stays unreached is only the
delegating scalar cases, each a check plus a call into a body that a
command runs.
"""

import ast
from pathlib import Path

import congruence_lab

PACKAGE = Path(congruence_lab.__file__).parent

# the public names no command reaches, each with the body it delegates to
DELEGATING = {
    "arith.divisors",  # Factorization.divisors
    "arith.mobius",  # factorize
    "arith.phi",  # Factorization.phi
    "arith.sigma_half_inv",  # Factorization.sigma_half_inv
    "arith.tau",  # Factorization.tau
    "congruence.boundary_sums",  # class_sums, which averaged.cell_sums runs
    "congruence.error_envelope",  # _closed_forms, which _reports runs
    "congruence.main_term",  # _closed_forms, which _reports runs
    "dp6.l_t_count",  # _l_t_counts, which m_t_growth runs
    "dp6.rho",  # _euler, which sieve_condition_report runs
    "dp6.sum_over_d",  # _sum_over_d, which _w2_sum runs
    "dp6.w2_sum",  # _w2_sum, which sieve_condition_report runs
    "sawtooth.VaalerPolynomial.evaluate",  # evaluate_many, which majorant_slack runs
}


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


def _references(mod, nodes, imports, defs, methods):
    # the definitions that a bare name, a module attribute or a method
    # attribute in nodes can reach
    out = set()
    for root in nodes:
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
                    out |= methods.get(node.attr, set())
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
    assert unreached == DELEGATING
