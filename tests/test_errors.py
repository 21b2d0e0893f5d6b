"""One error tree decides every exit code.

Every ``raise`` in ``src/qreflect`` names a class of ``qreflect.errors`` or
re-raises what it caught, and ``cli.main`` catches ``QreflectError`` and
nothing else, so a library bug ends in a traceback, not in a config error.
"""

import ast
import inspect
from pathlib import Path

import pytest

from qreflect import cli, errors

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qreflect"
_TREE = {name for name, obj in vars(errors).items()
         if inspect.isclass(obj) and issubclass(obj, errors.QreflectError)}


def _raise_sites():
    """(module:line, raised expression or None) of every raise in src/qreflect."""
    for path in sorted(_PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                yield f"{path.name}:{node.lineno}", node.exc


def test_every_raise_in_src_names_the_error_tree():
    bad = []
    for site, exc in _raise_sites():
        if exc is None:  # a bare re-raise
            continue
        call = exc.func if isinstance(exc, ast.Call) else exc
        if not (isinstance(call, ast.Name) and call.id in _TREE):
            bad.append(f"{site} raises {ast.unparse(exc)[:60]}")
    assert not bad, "raises outside qreflect.errors:\n" + "\n".join(bad)


def test_cli_main_catches_the_error_tree_alone():
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = [ast.unparse(h.type) if h.type else "bare except"
              for h in ast.walk(main) if isinstance(h, ast.ExceptHandler)]
    assert caught == ["QreflectError"]


def test_a_library_bug_is_a_traceback_not_a_config_error(tmp_path, monkeypatch, capsys):
    def broken(cfg):
        raise ValueError("a bug in the library")

    monkeypatch.setitem(cli._RUNNERS, "timescales", broken)
    with pytest.raises(ValueError, match="a bug in the library"):
        cli.main(["timescales", "--outdir", str(tmp_path)])
    assert "config error" not in capsys.readouterr().err
