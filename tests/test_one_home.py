"""Each time-step rule, grid rule and timescale has one home.

The CLI's default dt reads the limit that its integrator checks
(``qsd.dt_limit``, ``unitary.dt_limit``), so ``cli.py`` calls no ``cfl_time``
and reads no ``.energy``; each integrator sizes the grid it steps on
(``qsd.grid_for``, ``unitary.grid_for``), so ``cli.py`` names no
``SpatialGrid`` and calls no ``log2``; and only ``timescales`` assigns the
model-2 cutoffs T_z, T_d_p and T_1, so no second copy of a formula can drift
from the first.  ``qsd.grid_for`` sizes an x-coupled grid for the drift between
two frame moves, and the wavefunction driver moves its frames that often: both
read one constant.  Only ``slices`` forks, so the worker-count rule and the reaping
of children have one home.  Only ``cli._write`` opens an output file, and no
runner prints, so a run that fails leaves no partial output.  numpy is the one runtime dependency: no module
imports scipy, which is for tests only.  Only ``oscquad._panel_counts`` reads the
envelope cap, so a kernel that needs a finer first pass says so through the scale
it passes, not through a second cap.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qreflect"
_CUTOFFS = {"T_z", "T_d_p", "T_1"}
_PROCESS_CALLS = {"fork", "pipe", "_exit", "sched_getaffinity"}
_WRITE_CALLS = {"open", "write_text", "write_bytes"}


def _tree(name: str) -> ast.Module:
    path = _PACKAGE / name
    return ast.parse(path.read_text(), str(path))


def _bound_names(tree: ast.AST):
    """Every name a tree binds: assigned names, attributes and string subscripts,
    dict keys, keyword arguments and parameters."""
    for node in ast.walk(tree):
        if isinstance(getattr(node, "ctx", None), ast.Store):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                yield node.slice.value
        elif isinstance(node, ast.Dict):
            yield from (key.value for key in node.keys if isinstance(key, ast.Constant))
        elif isinstance(node, (ast.keyword, ast.arg)):
            yield node.arg


def test_cli_holds_no_dt_or_timescale_formula():
    bad = []
    for node in ast.walk(_tree("cli.py")):
        if isinstance(node, ast.Attribute) and node.attr in ("cfl_time", "energy"):
            bad.append(f"cli.py:{node.lineno} reads .{node.attr}")
        elif isinstance(node, ast.Name) and node.id == "cfl_time":
            bad.append(f"cli.py:{node.lineno} reads cfl_time")
    assert not bad, "\n".join(bad)


def _name(node: ast.AST) -> str | None:
    """The name that a Name, Attribute or import alias node refers to."""
    if isinstance(node, ast.alias):
        return node.name
    return getattr(node, "id", None) or getattr(node, "attr", None)


def test_cli_builds_no_grid():
    bad = []
    for node in ast.walk(_tree("cli.py")):
        if _name(node) == "SpatialGrid":
            bad.append(f"cli.py:{node.lineno} names SpatialGrid")
        elif isinstance(node, ast.Call) and _name(node.func) == "log2":
            bad.append(f"cli.py:{node.lineno} calls log2")
    assert not bad, "\n".join(bad)


def test_only_timescales_assigns_the_model2_cutoffs():
    bad = [f"{path.name} binds {name}"
           for path in sorted(_PACKAGE.glob("*.py")) if path.name != "timescales.py"
           for name in sorted(set(_bound_names(_tree(path.name))) & _CUTOFFS)]
    assert not bad, "\n".join(bad)


def test_grid_for_and_the_driver_read_one_frame_interval():
    tree = _tree("qsd.py")
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    for name in ("grid_for", "_step_block"):
        nodes = list(ast.walk(functions[name]))
        assert "_FRAME_MOVES" in {_name(node) for node in nodes}, name
        assert not [node.lineno for node in nodes
                    if isinstance(node, ast.Constant) and node.value == 200], name
    assert list(_bound_names(tree)).count("_FRAME_MOVES") == 1


def test_only_the_panel_count_reads_the_envelope_cap():
    reads = [f"{path.name}:{node.lineno}" for path in sorted(_PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path.name))
             if _name(node) == "_ENVELOPE_CAP" and (isinstance(node, ast.alias) or isinstance(
                 getattr(node, "ctx", None), ast.Load))]
    tree = _tree("oscquad.py")
    counts, = (top for top in tree.body
               if isinstance(top, ast.FunctionDef) and top.name == "_panel_counts")
    inside = [f"oscquad.py:{node.lineno}" for node in ast.walk(counts)
              if _name(node) == "_ENVELOPE_CAP"]
    assert len(inside) == 1 and reads == inside, reads
    assert list(_bound_names(tree)).count("_ENVELOPE_CAP") == 1


def test_only_slices_forks():
    bad = [f"{path.name}:{node.lineno} names {_name(node)}"
           for path in sorted(_PACKAGE.glob("*.py")) if path.name != "slices.py"
           for node in ast.walk(_tree(path.name))
           if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
           and _name(node) in _PROCESS_CALLS]
    assert not bad, "\n".join(bad)
    names = {_name(node) for node in ast.walk(_tree("slices.py"))}
    assert _PROCESS_CALLS <= names  # the guard watches the names the helper uses


def test_only_the_writer_opens_a_file_and_no_runner_prints():
    # slices opens the two ends of its pipes, not files; cli._warn prints to stderr at
    # once, so a warning reads ahead of the failure it leads to
    bad = [f"{path.name}:{node.lineno} calls {_name(node.func)}"
           for path in sorted(_PACKAGE.glob("*.py")) if path.name != "slices.py"
           for top in _tree(path.name).body
           if getattr(top, "name", None) != "_write" or path.name != "cli.py"
           for node in ast.walk(top)
           if isinstance(node, ast.Call) and _name(node.func) in _WRITE_CALLS]
    runners = [top for top in _tree("cli.py").body if isinstance(top, ast.FunctionDef)
               and (top.name.startswith("_run_") or top.name == "run_figures")]
    bad += [f"cli.py:{node.lineno} {top.name} calls print" for top in runners
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and _name(node.func) == "print"]
    assert len(runners) == 6 and not bad, "\n".join(bad)
    writer = next(top for top in _tree("cli.py").body if getattr(top, "name", None) == "_write")
    assert "open" in {_name(node) for node in ast.walk(writer)}  # the guard watches its call


def test_no_module_imports_scipy():
    bad = [f"{path.name}:{node.lineno} imports {name}"
           for path in sorted(_PACKAGE.glob("*.py"))
           for node in ast.walk(_tree(path.name))
           if isinstance(node, (ast.Import, ast.ImportFrom))
           for name in ([a.name for a in node.names] if isinstance(node, ast.Import)
                        else [node.module or ""])
           if name.split(".")[0] == "scipy"]
    assert not bad, "\n".join(bad)
