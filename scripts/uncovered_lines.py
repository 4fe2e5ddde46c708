"""List the lines of ``src/codazzi`` that the Tier-1 tests never run.

Runs the Tier-1 suite (``pytest -q`` over ``tests/``) in this process under a
``sys.settrace`` line tracer (standard library only, no coverage package)
and prints every executable library line that no test reached, except the
lines on :data:`ALLOWED`, each of which carries its reason.  Lines run only
in a subprocess (criterion 12's CLI run) are not seen.

    python scripts/uncovered_lines.py        # from the repo root

Exit status: 0 when every unreached line is allowed, 1 when some is not,
and pytest's own status when a test fails.  Tier-1 takes about half as long
again under the tracer.
"""

import dis
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "codazzi")

# (module file, stripped source line) -> why no Tier-1 test runs it.
ALLOWED = {
    ("cli.py", "sys.exit(main())"): "the __main__ line runs only when cli.py is a "
    "script, which criterion 12 does in a subprocess the tracer does not follow",
}


def executable_lines(path):
    """Line numbers that start bytecode in the module at ``path``, nested code included."""
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def run_traced(pytest_args):
    """Run pytest under the tracer; returns ``(status, {path: lines run})``."""
    import pytest

    ran = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return local

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    status, ran = run_traced(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    unreached, allowed = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            text = source[line - 1].strip()
            entry = f"src/codazzi/{name}:{line}: {text}"
            if (name, text) in ALLOWED:
                allowed.append(f"{entry}  [allowed: {ALLOWED[name, text]}]")
            else:
                unreached.append(entry)
    print("\n".join(allowed + unreached))
    print(f"{len(unreached)} unreached line(s) off the allow-list, {len(allowed)} allowed")
    if status:
        return status
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
