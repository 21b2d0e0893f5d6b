"""Every public function, method and option of qreflect has a run-path user.

A run path is a ``src/qreflect`` module other than ``__init__.py``, the
acceptance criteria, or ``perfbench/``.  Code or an option that only unit
tests reach is surface no command, criterion or benchmark needs.

Names: a public module-level function, or a public method of a public class,
must be used on a run path.  A function counts when its name is read or
imported.  A method counts only when it is called as ``.name(...)`` or read
as ``Class.name``, and a property on any attribute access, so a local
variable or another class's field of the same name does not hide a dead
method.  In ``perfbench/`` a string constant counts as a dotted token such
as ``"qsd.NoiseStream.increment_at"``, the form in which the tracer binds
names.

Options: every defaulted parameter of a public function or method (a class's
``__init__`` is called through the class name) must be passed, by keyword or
by position, at some run-path call site.  Forwarding the caller's own
parameter of the same name does not count as setting it.

Constants: no parameter of a public function or method may take one and the
same constant (None, True, a number or a string) at every run-path call site,
when one site at least passes it explicitly; a slot every run fills with
None is a branch that only unit tests reach.  A site that forwards the
caller's own parameter leaves the value to the caller's sites.
"""

import ast
import re
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "qreflect"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_PROPERTIES = {"property", "cached_property"}

# defaulted parameters that no run path sets, each kept for a stated reason
_KEPT_OPTIONS = {
    # the absorber-free periodic grid is the tests' reference for unitarity and
    # time reversal, and the tests force an edge loss and an overlapping start
    "unitary.propagate(absorber=)": "absorber-free reference grid for unitarity tests",
    "unitary.propagate(edge_tolerance=)": "tests force an edge loss",
    "unitary.propagate(check_start=)": "tests start a packet on the barrier",
    "grids.gaussian_state_from_moments(hbar=)": "a physical constant: fixing it is wrong at hbar != 1",
    "model1.total_reflected(p_min=)": "the remedy that the edge-truncation error names",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(_PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def _run_path_trees() -> tuple[list[ast.Module], list[ast.Module]]:
    """(code trees of src and the acceptance criteria, perfbench trees)."""
    code = [*_package_trees().values(), _parse(_ROOT / "tests" / "test_acceptance.py")]
    return code, [_parse(path) for path in sorted((_ROOT / "perfbench").glob("*.py"))]


def _public_classes(tree: ast.Module):
    return (node for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"))


def _is_property(fn: ast.FunctionDef) -> bool:
    return any((d.id if isinstance(d, ast.Name) else getattr(d, "attr", None)) in _PROPERTIES
               for d in fn.decorator_list)


# -- names ------------------------------------------------------------------------


def _used_names(tree: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """(names read or imported, names called as .name(...), attributes read)."""
    names, called, attrs = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return names, called, attrs


def _dotted_tokens(tree: ast.AST) -> set[str]:
    """Every "a.b" pair of adjacent parts of a dotted token in a string constant."""
    pairs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", node.value):
                parts = token.split(".")
                pairs.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
    return pairs


def unreferenced_public_names() -> list[str]:
    """Sorted ``module.name`` of every public function or method with no run-path use."""
    code, bench = _run_path_trees()
    names, called, attrs, tokens = set(), set(), set(), set()
    for tree in code + bench:
        n, c, a = _used_names(tree)
        names, called, attrs = names | n, called | c, attrs | a
    for tree in bench:
        tokens |= _dotted_tokens(tree)
    dead = []
    for module, tree in _package_trees().items():
        for node in tree.body:
            if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                if node.name not in names and node.name not in attrs \
                        and f"{module}.{node.name}" not in tokens:
                    dead.append(f"{module}.{node.name}")
        for cls in _public_classes(tree):
            for fn in cls.body:
                if not isinstance(fn, _FUNCTIONS) or fn.name.startswith("_"):
                    continue
                qual = f"{cls.name}.{fn.name}"
                used = fn.name in (attrs if _is_property(fn) else called)
                if not (used or qual in names or qual in tokens):
                    dead.append(f"{module}.{qual}")
    return sorted(dead)


def test_every_public_function_has_a_run_path_caller():
    dead = unreferenced_public_names()
    assert not dead, f"{len(dead)} public names only unit tests reach: {', '.join(dead)}"


# -- options ----------------------------------------------------------------------


def _parameters(fn: ast.FunctionDef, skip_first: bool) -> dict[str, tuple[int | None, object]]:
    """{name: (position or None, default node or None)} of every named parameter."""
    a = fn.args
    positional = (a.posonlyargs + a.args)[int(skip_first):]
    defaults = [None] * (len(positional) - len(a.defaults)) + list(a.defaults)
    found = {p.arg: (i, d) for i, (p, d) in enumerate(zip(positional, defaults))}
    found.update((p.arg, (None, d)) for p, d in zip(a.kwonlyargs, a.kw_defaults))
    return found


def _signatures() -> dict[str, tuple[str, dict]]:
    """{"module.qualname": (callee name, parameters)} of the public surface."""
    found = {}
    for module, tree in _package_trees().items():
        for node in tree.body:
            if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                found[f"{module}.{node.name}"] = (node.name, _parameters(node, False))
        for cls in _public_classes(tree):
            for fn in cls.body:
                if not isinstance(fn, _FUNCTIONS) or _is_property(fn):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if fn.name == "__init__":
                    found[f"{module}.{cls.name}"] = (cls.name, _parameters(fn, True))
                elif not fn.name.startswith("_"):
                    found[f"{module}.{cls.name}.{fn.name}"] = (fn.name,
                                                               _parameters(fn, not static))
    return found


def _options() -> dict[str, tuple[str, dict[str, int | None]]]:
    """{"module.qualname": (callee name, defaulted parameters)} of the public surface."""
    return {qual: (callee, {name: position for name, (position, default) in params.items()
                            if default is not None})
            for qual, (callee, params) in _signatures().items()}


def _call_sites(tree: ast.AST):
    """(callee name, call, parameter names of the calling function) of every call."""
    def visit(node, own):
        if isinstance(node, _FUNCTIONS):  # a lambda is an adapter: it sets what it passes
            a = node.args
            own = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name:
                yield name, node, own
        for child in ast.iter_child_nodes(node):
            yield from visit(child, own)
    yield from visit(tree, set())


def _set_by(call: ast.Call, own: set[str], params: dict[str, int | None]) -> set[str]:
    """The parameters a call passes, less those that forward the caller's own."""
    def forwarded(name, value):
        return isinstance(value, ast.Name) and value.id == name and name in own

    if any(k.arg is None for k in call.keywords):  # **kwargs may pass any of them
        return set(params)
    out = {k.arg for k in call.keywords if k.arg in params and not forwarded(k.arg, k.value)}
    for name, position in params.items():
        if position is None:
            continue
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):  # *args may reach this position
                out.add(name)
                break
            if i == position:
                if not forwarded(name, arg):
                    out.add(name)
                break
    return out


def unset_options() -> list[str]:
    """Sorted ``module.qualname(param=)`` of every defaulted parameter no run path sets."""
    options = _options()
    by_callee = {}
    for qual, (callee, params) in options.items():
        by_callee.setdefault(callee, []).append(qual)
    code, bench = _run_path_trees()
    passed = {qual: set() for qual in options}
    for tree in code + bench:
        for callee, call, own in _call_sites(tree):
            for qual in by_callee.get(callee, ()):
                passed[qual] |= _set_by(call, own, options[qual][1])
    return sorted(f"{qual}({name}=)" for qual, (_, params) in options.items()
                  for name in params if name not in passed[qual])


def test_every_option_is_set_on_a_run_path():
    unset = unset_options()
    dead = [name for name in unset if name not in _KEPT_OPTIONS]
    assert not dead, f"{len(dead)} options only unit tests set: {', '.join(dead)}"
    stale = sorted(set(_KEPT_OPTIONS) - set(unset))
    assert not stale, f"allow-listed options a run path now sets or that are gone: {stale}"


# -- constant arguments -------------------------------------------------------------

# parameters that every run-path call site passes as one constant, each kept for a
# stated reason
_KEPT_CONSTANTS = {
    # physical inputs whose one run-path caller is a criterion or a fixed rule
    "grids.gaussian_state_from_moments(mean_x=)": "criterion 07 starts off the origin",
    "grids.gaussian_state_from_moments(mean_p=)": "criterion 07 starts off the origin",
    "qsd.NoiseStream.next_increment(dt=)": "criterion 07 draws at its one fine dt",
    "oscquad.panel_nodes(a=)": "model2's near branch takes the unit interval",
    "oscquad.panel_nodes(b=)": "model2's near branch takes the unit interval",
    "oscquad.panel_nodes(n_panels=)": "model2's near branch takes one panel",
}


_VARIES, _FORWARDED = object(), object()


def _argument(call: ast.Call, own: set[str], name: str, position: int | None, default):
    """The constant a call gives the parameter, _VARIES when it is not one constant,
    or _FORWARDED when the call passes on the caller's own parameter of that name."""
    def value(node):
        if isinstance(node, ast.Name) and node.id == name and name in own:
            return _FORWARDED
        return node.value if isinstance(node, ast.Constant) else _VARIES

    if any(k.arg is None for k in call.keywords):  # **kwargs may pass anything
        return _VARIES
    for k in call.keywords:
        if k.arg == name:
            return value(k.value)
    if position is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):  # *args may reach this position
                return _VARIES
            if i == position:
                return value(arg)
    return default.value if isinstance(default, ast.Constant) else _VARIES


def constant_arguments() -> list[str]:
    """Sorted ``module.qualname(param=)`` of every parameter that each run-path call
    site gives the same constant, one site at least passing it explicitly.  A site
    that forwards the caller's own parameter leaves the choice to the caller's sites."""
    signatures = _signatures()
    by_callee = {}
    for qual, (callee, _) in signatures.items():
        by_callee.setdefault(callee, []).append(qual)
    seen = {(qual, name): set() for qual, (_, params) in signatures.items() for name in params}
    explicit = set()
    code, bench = _run_path_trees()
    for tree in code + bench:
        for callee, call, own in _call_sites(tree):
            for qual in by_callee.get(callee, ()):
                for name, (position, default) in signatures[qual][1].items():
                    value = _argument(call, own, name, position, default)
                    if value is _FORWARDED:
                        continue
                    seen[qual, name].add(repr(value) if value is not _VARIES else value)
                    if value is not _VARIES and (
                            any(k.arg == name for k in call.keywords)
                            or position is not None and position < len(call.args)):
                        explicit.add((qual, name))
    return sorted(f"{qual}({name}=)" for (qual, name), values in seen.items()
                  if (qual, name) in explicit and len(values) == 1)


def test_no_parameter_is_one_constant_on_every_run_path():
    found = constant_arguments()
    dead = [name for name in found if name not in _KEPT_CONSTANTS]
    assert not dead, f"{len(dead)} parameters every run path passes as one constant: " \
                     f"{', '.join(dead)}"
    stale = sorted(set(_KEPT_CONSTANTS) - set(found))
    assert not stale, f"allow-listed constant parameters that now vary or are gone: {stale}"
