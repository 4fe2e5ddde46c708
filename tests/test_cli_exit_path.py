"""The CLI has one exit path: only ``cli.main`` reports a refusal.

A refusal is raised where it is found, as ``_Refused`` (status 1) or as a
``ValueError``/``OSError`` (status 2), and ``main`` prints it and returns
the status.  So no other function of ``src/codazzi/cli.py`` refers to
``sys.stderr`` or has a ``return 1``/``return 2`` statement, and the module
raises no ``SystemExit`` itself; argparse still does for usage errors.  A
verdict computed as an expression, such as ``cmd_verify``'s
``return 0 if report["passed"] else 1``, is not such a statement.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "codazzi" / "cli.py"


def _functions(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _is_sys(node, attr):
    return (
        isinstance(node, ast.Attribute) and node.attr == attr
        and isinstance(node.value, ast.Name) and node.value.id == "sys"
    )


def _exit_statuses(fn):
    """Line numbers of the ``return 1``/``return 2`` statements in ``fn``."""
    return [
        n.lineno for n in ast.walk(fn)
        if isinstance(n, ast.Return) and isinstance(n.value, ast.Constant)
        and type(n.value.value) is int and n.value.value in (1, 2)
    ]


def _stderr_uses(fn):
    return [n.lineno for n in ast.walk(fn) if _is_sys(n, "stderr")]


def test_only_main_writes_to_stderr_or_returns_a_failure_status():
    tree = ast.parse(CLI.read_text())
    offenders = {
        fn.name: _stderr_uses(fn) + _exit_statuses(fn)
        for fn in _functions(tree)
        if fn.name != "main" and _stderr_uses(fn) + _exit_statuses(fn)
    }
    assert not offenders, f"report refusals through main only: {offenders}"
    # the rule is not met by a main that reports nothing either
    (main,) = [fn for fn in _functions(tree) if fn.name == "main"]
    assert _stderr_uses(main)


def test_the_cli_raises_no_system_exit_itself():
    tree = ast.parse(CLI.read_text())
    raised = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, ast.Raise) and n.exc is not None
        and "SystemExit" in {x.id for x in ast.walk(n.exc) if isinstance(x, ast.Name)}
    ]
    exits = [n.lineno for fn in _functions(tree) for n in ast.walk(fn) if _is_sys(n, "exit")]
    assert not raised and not exits, (raised, exits)
