"""Every public name of the library is used, and every keyword is set.

A public module-level function or class of ``src/codazzi``, or a public
method of such a class, must be referenced at least once outside its own
definition, in ``src/``, ``tests/``, ``demos/`` or ``perfbench/``.  A
reference is a name or an attribute in the parsed code, so docstrings,
comments and ``__all__`` strings do not count.  A property or cached
property is read as an attribute, so any reference to its name counts; any
other public method counts as used only when some ``obj.method(...)`` call
exists, so a module-level function of the same name does not hide it.

No method of a class in ``src/codazzi`` only returns an attribute of
``self``: its body may not be, after an optional docstring, the single
statement ``return self.<attr>``.  A value an object computes once is the
``cached_property`` itself, read as an attribute, not a method over a
private cached twin.

A parameter with a default, of any function or method in ``src/codazzi``,
must be passed by at least one call in the same four trees, by keyword or
by position, with a value other than its default.  Calls are matched to
definitions by name; a call with ``*args`` counts as passing every
parameter a value other than its default, and so does one with ``**kwargs``
unless that is the enclosing function's own ``**`` parameter.  Such a
forward passes a keyword only as the calls of the forwarding function pass
it, followed along chains of forwards: ``kmax`` reaches ``_trig_sums``
through ``random_displacement`` and ``trig_vector`` with the values that
calls of ``random_displacement`` give it.  A passed value is the
default when it is the same literal (``0`` and ``0.0`` are the same) or the
same expression, as ``PERIODIC`` for a default ``PERIODIC``.  Nor, once
some call passes such a parameter, may every call give it one and the same
literal (a constant, a signed number or ``None``), a call that passes none
giving the default: that value is a constant of the function, not a choice
of its callers.  An unpacked ``*args``, or a ``**kwargs`` that is not
forwarded, counts as any value here too.

No module of ``src/codazzi`` but ``grid`` holds a difference quotient: a
division whose denominator is ``2 * name``, ``2.0 * name`` or ``name ** 2``
and whose numerator is a subtraction or a sum that starts with one.  Such a
quotient is a central difference, and ``grid.central_difference`` is the one
implementation of it.  Tests keep their own finite-difference oracles.

No module of ``src/codazzi`` calls a ``scipy.sparse`` constructor except
``grid._rows_csr``, once: every sparse matrix of the library is built from
fixed-width rows there.  ``scipy.sparse.linalg`` is not a constructor.

scipy enters ``src/codazzi`` in three functions: ``grid._rows_csr`` (the
sparse builder), ``grid._splu`` (the one SuperLU factor) and
``maps._fit_axis`` (the spline's banded LAPACK solve).  Each imports it
once, and no other function, class or module body holds an ``import
scipy...`` or a ``from scipy... import``, so a second factor or a second
builder cannot come in beside them.

A product of 2x2 blocks in ``src/codazzi`` with J, ``ID2``, a unit matrix
(an ``np.eye(...)`` expression) or a conformal metric's ``matrix``, bare or
inside ``inv2(...)``, as an operand is ``jcalc._mul2``, not ``@``: each
entry of such a product has one exact term, so the entrywise product has
the value of the BLAS one without a BLAS call per block.  An operand
counts as such a factor through an attribute, a method call, a
subscript, a sign or a scaling (``J / s @ a``); a local alias hides it, so
the library writes these factors in place.  General products stay ``@``.

A conformal metric's ``matrix``, bare or inside ``inv2(...)`` and in any of
the forms above, is no operand of ``@`` or ``@=`` and no argument of
``jcalc._mul2`` at all.  g = e^{2 phi} delta and its inverse are scalar
fields times the identity, so a product with either is a scaling by
``conformal_factor`` or ``inverse_factor``; ``inverse_factor``, exp(-2 phi),
is then the one g^{-1} of the library, where ``inv2(g.matrix)`` would round
to another value, c / (c c) with c = e^{2 phi}.

Every entry of a module's ``__all__`` names a module-level definition or
import, and every public name that another module of ``src/codazzi``
imports from it, or reads as an attribute of it after ``from . import``,
is listed there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")


def _library_trees():
    for path in sorted((ROOT / "src" / "codazzi").glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _searched_trees():
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            yield ast.parse(path.read_text())


def _is_property(node):
    """True for a ``property`` or ``cached_property``: read as an attribute, never called."""
    return any(
        isinstance(d, ast.Name) and d.id in ("property", "cached_property")
        for d in node.decorator_list
    )


def _public_definitions():
    """(qualified name, name, needs an attribute call) of each public definition."""
    for stem, tree in _library_trees():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        full = f"{stem}.{node.name}.{item.name}"
                        yield full, item.name, not _is_property(item)


def _returns_self_attribute(node):
    """True for a function whose body, after an optional docstring, is ``return self.<attr>``."""
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and isinstance(body[0].value, ast.Attribute)
        and isinstance(body[0].value.value, ast.Name)
        and body[0].value.value.id == "self"
    )


def _references():
    """Names and attributes referenced anywhere, and attributes that are called."""
    names, called = set(), set()
    for tree in _searched_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return names, called


def _defaulted_parameters():
    """(qualified name, function name, parameter, positional index or None, default).

    The positional index counts call arguments, so it skips the ``self`` or
    ``cls`` of a method; keyword-only parameters have index None.  The
    default is its expression node.
    """
    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}.{item.name}", True)
            elif isinstance(item, ast.FunctionDef):
                full = f"{prefix}.{item.name}"
                args = item.args
                positional = args.posonlyargs + args.args
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                if in_class and not static:
                    positional = positional[1:]
                first = len(positional) - len(args.defaults)
                for i, (arg, default) in enumerate(
                    zip(positional[first:], args.defaults), start=first
                ):
                    yield f"{full}({arg.arg})", item.name, arg.arg, i, default
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{full}({arg.arg})", item.name, arg.arg, None, default
                yield from visit(item, full, False)
            else:
                yield from visit(item, prefix, in_class)

    for stem, tree in _library_trees():
        yield from visit(tree, stem, False)


def _calls_in(node, scope=None):
    """(call, innermost enclosing function definition or lambda) of each call under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, scope
        inner = isinstance(child, (ast.FunctionDef, ast.Lambda))
        yield from _calls_in(child, child if inner else scope)


def _forwarder(call, scope):
    """The definition whose own ``**`` parameter ``call`` unpacks, else None."""
    if not isinstance(scope, ast.FunctionDef) or scope.args.kwarg is None:
        return None
    own = scope.args.kwarg.arg
    forwarded = any(
        k.arg is None and isinstance(k.value, ast.Name) and k.value.id == own
        for k in call.keywords
    )
    return scope if forwarded else None


def _calls():
    """Callee name -> list of (positional argument nodes, keyword name -> value node, forwarder).

    The positional list is None when the call unpacks ``*args``; a
    ``**kwargs`` argument is the keyword None.  The forwarder is the
    definition around the call when that argument is its own ``**``
    parameter, else None.
    """
    calls = {}
    for tree in _searched_trees():
        for node, scope in _calls_in(tree):
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            star = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg: k.value for k in node.keywords}
            calls.setdefault(name, []).append(
                (None if star else node.args, keywords, _forwarder(node, scope))
            )
    return calls


def _named_parameters(definition):
    args = definition.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _passed_values(calls, name, param, index, default, forwarders=()):
    """The value node each call of ``name`` gives ``param``.

    That is None for an unpacked one, and the node ``default`` itself for a
    call that passes none.  A call that forwards its function's own
    ``**`` parameter gives what each call of that function passes by keyword;
    ``forwarders`` are the names already followed, where a cycle gives None.
    """
    for args, keywords, forwarder in calls.get(name, ()):
        if param in keywords:
            yield keywords[param]
        elif index is not None and (args is None or len(args) > index):
            yield None if args is None else args[index]
        elif None not in keywords:
            yield default
        elif forwarder is None or forwarder.name in forwarders:
            yield None
        elif param in _named_parameters(forwarder):
            yield default  # a named parameter never travels in the ``**``
        else:
            yield from _passed_values(
                calls, forwarder.name, param, None, default, forwarders + (forwarder.name,)
            )


def _is_default(value, default):
    """True when the node ``value`` is the literal or the expression ``default``."""
    if value is None:
        return False
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(value) == ast.dump(default)


def test_no_public_name_is_unreferenced():
    names, called = _references()
    unused = [
        full
        for full, name, needs_call in _public_definitions()
        if name not in (called if needs_call else names)
    ]
    assert not unused, f"public names nothing references: {unused}"


def test_no_method_only_returns_an_attribute_of_self():
    wrappers = [
        f"{stem}.{cls.name}.{item.name}"
        for stem, tree in _library_trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, ast.FunctionDef) and _returns_self_attribute(item)
    ]
    assert not wrappers, f"methods that only return an attribute of self: {wrappers}"


def test_every_defaulted_parameter_is_passed_by_some_call():
    calls = _calls()
    unset = [
        full
        for full, name, param, index, default in _defaulted_parameters()
        if all(_is_default(v, default) for v in _passed_values(calls, name, param, index, default))
    ]
    assert not unset, f"parameters with defaults that no call passes another value: {unset}"


_NOT_A_LITERAL = object()


def _literal(node):
    """The value of a constant or a signed number; a sentinel for any other node."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        inner = node.operand
        if isinstance(inner, ast.Constant) and type(inner.value) in (int, float, complex):
            return ast.literal_eval(node)
    elif isinstance(node, ast.Constant):
        return node.value
    return _NOT_A_LITERAL


def test_no_defaulted_parameter_has_one_literal_value():
    calls = _calls()
    constant = []
    for full, name, param, index, default in _defaulted_parameters():
        nodes = list(_passed_values(calls, name, param, index, default))
        if all(v is default for v in nodes):
            continue  # no call passes it: the test above reports that
        values = [_NOT_A_LITERAL if v is None else _literal(v) for v in nodes]
        if values[0] is not _NOT_A_LITERAL and all(v == values[0] for v in values):
            constant.append(f"{full} = {values[0]!r}")
    assert not constant, f"parameters that every call passes the same literal: {constant}"


def _starts_with_subtraction(node):
    """A subtraction, or a sum whose leftmost term is one."""
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        node = node.left
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)


def _is_two(node):
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 2


def _is_step_denominator(node):
    """``2 * name``, ``2.0 * name`` or ``name ** 2``."""
    if not isinstance(node, ast.BinOp):
        return False
    if isinstance(node.op, ast.Mult):
        return _is_two(node.left) and isinstance(node.right, ast.Name)
    if isinstance(node.op, ast.Pow):
        return isinstance(node.left, ast.Name) and _is_two(node.right)
    return False


def test_no_difference_quotient_outside_grid():
    quotients = [
        f"{stem}.py:{node.lineno}"
        for stem, tree in _library_trees()
        if stem != "grid"
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and _is_step_denominator(node.right)
        and _starts_with_subtraction(node.left)
    ]
    assert not quotients, f"difference quotients outside grid.central_difference: {quotients}"


_SPARSE_CONSTRUCTORS = frozenset(
    ["csr_matrix", "csc_matrix", "bsr_matrix", "coo_matrix", "diags", "kron", "identity",
     "eye", "block_diag"]
)


def _dotted(node):
    """``a.b.c`` of an attribute chain over a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def _sparse_constructor_calls(tree):
    """(enclosing function, line) of each call of a ``scipy.sparse`` constructor.

    The module may be imported under any name; ``scipy.sparse.linalg`` is
    another module and does not count.
    """
    modules, direct = {"scipy.sparse"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "scipy.sparse" and a.asname)
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == "scipy" and a.name == "sparse":
                    modules.add(a.asname or a.name)
                elif node.module == "scipy.sparse" and a.name in _SPARSE_CONSTRUCTORS:
                    direct.add(a.asname or a.name)
    for call, scope in _calls_in(tree):
        func = call.func
        if (isinstance(func, ast.Name) and func.id in direct) or (
            isinstance(func, ast.Attribute)
            and func.attr in _SPARSE_CONSTRUCTORS
            and _dotted(func.value) in modules
        ):
            yield getattr(scope, "name", "<module>"), call.lineno


def test_sparse_constructor_calls_are_found_under_any_import():
    tree = ast.parse(
        "import scipy.sparse\nimport scipy.sparse as sp\nfrom scipy import sparse\n"
        "from scipy.sparse import diags as d\nimport scipy.sparse.linalg\n"
        "def f():\n    scipy.sparse.kron(a, b)\n    sp.eye(3)\n    sparse.coo_matrix(a)\n"
        "    d(a)\n    scipy.sparse.linalg.splu(a)\n    a.tocsr()\n"
    )
    assert [line for _, line in _sparse_constructor_calls(tree)] == [7, 8, 9, 10]


def test_only_grid_rows_csr_calls_a_sparse_constructor():
    calls = [
        (f"{stem}.{scope}", f"{stem}.py:{line}")
        for stem, tree in _library_trees()
        for scope, line in _sparse_constructor_calls(tree)
    ]
    others = [f"{scope} ({where})" for scope, where in calls if scope != "grid._rows_csr"]
    assert not others, f"scipy.sparse constructors outside grid._rows_csr: {others}"
    assert len(calls) == 1, calls


_SCIPY_ENTRIES = ("grid._rows_csr", "grid._splu", "maps._fit_axis")


def _scipy_imports(node, scope):
    """(qualified scope, line) of each ``import scipy...`` or ``from scipy... import``.

    The scope is the dotted path of the enclosing classes and functions
    under ``scope``, the module's name.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names = [a.name for a in child.names]
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            names = [child.module]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            yield scope, child.lineno
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _scipy_imports(child, f"{scope}.{child.name}" if inner else scope)


def test_scipy_imports_are_found_in_any_form():
    tree = ast.parse(
        "import scipy\nimport numpy, scipy.sparse as sp\nfrom . import grid\n"
        "import scipyish\nclass C:\n    def m(self):\n        from scipy import linalg\n"
        "def f():\n    def g():\n        from scipy.linalg.lapack import dgbsv\n"
    )
    assert list(_scipy_imports(tree, "mod")) == [
        ("mod", 1), ("mod", 2), ("mod.C.m", 7), ("mod.f.g", 10)
    ]


def test_scipy_is_imported_only_by_its_three_entry_functions():
    found = [
        (scope, f"{stem}.py:{line}")
        for stem, tree in _library_trees()
        for scope, line in _scipy_imports(tree, stem)
    ]
    others = [f"{scope} ({where})" for scope, where in found if scope not in _SCIPY_ENTRIES]
    assert not others, f"scipy imported outside {', '.join(_SCIPY_ENTRIES)}: {others}"
    assert sorted(scope for scope, _ in found) == sorted(_SCIPY_ENTRIES), found


def _is_factor(node, leaf):
    """True for a node that ``leaf`` accepts, bare or inside ``inv2(...)``,
    or an attribute, a method call, a subscript, a sign or a scaling of one."""
    if leaf(node):
        return True
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        return _is_factor(node.value, leaf)
    if isinstance(node, ast.UnaryOp):
        return _is_factor(node.operand, leaf)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _is_factor(node.left, leaf) or _is_factor(node.right, leaf)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "inv2":
            return any(_is_factor(arg, leaf) for arg in node.args)
        return isinstance(func, ast.Attribute) and _is_factor(func, leaf)
    return False


def _is_metric_matrix(node):
    """A ``....matrix`` attribute."""
    return isinstance(node, ast.Attribute) and node.attr == "matrix"


def _structured(node):
    """True for a 2x2 factor with one exact term per product entry.

    That is J, ``ID2``, an ``np.eye(...)`` expression or a ``....matrix``
    attribute, in any form that :func:`_is_factor` accepts.
    """
    return _is_factor(node, lambda n: (
        (isinstance(n, ast.Name) and n.id in ("J", "ID2"))
        or _is_metric_matrix(n)
        or (isinstance(n, ast.Call) and _dotted(n.func) in ("np.eye", "numpy.eye"))
    ))


def _matmul_operands(node):
    """The operands of an ``@`` or ``@=``, else ()."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return node.left, node.right
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.MatMult):
        return node.target, node.value
    return ()


def _structured_products(tree):
    """Line of each ``@`` or ``@=`` with a structured operand."""
    for node in ast.walk(tree):
        if any(map(_structured, _matmul_operands(node))):
            yield node.lineno


def _metric_products(tree):
    """Line of each ``@``, ``@=`` or ``_mul2`` call with a conformal metric's matrix as a factor."""
    for node in ast.walk(tree):
        operands = _matmul_operands(node)
        if isinstance(node, ast.Call) and _dotted(node.func) in ("_mul2", "jcalc._mul2"):
            operands = node.args
        if any(_is_factor(op, _is_metric_matrix) for op in operands):
            yield node.lineno


def test_structured_factors_are_found_in_any_form():
    tree = ast.parse(
        "a @ J\nID2 @ a\n-J @ a\nJ / s[..., None] @ a\na @ np.eye(4).reshape(4, 2, 2)\n"
        "g.matrix @ a\ninv2(g.matrix)[..., None, :, :] @ a\na @= self.h0.matrix\n"
        "a @ b\ninv2(a) @ b\nnp.swapaxes(a, -1, -2) @ a\na @ J.T\n"
    )
    assert sorted(_structured_products(tree)) == [1, 2, 3, 4, 5, 6, 7, 8, 12]


def test_structured_2x2_products_use_mul2():
    found = [f"{stem}.py:{line}" for stem, tree in _library_trees()
             for line in sorted(_structured_products(tree))]
    assert not found, f"products with J, ID2, a unit or a metric matrix not through jcalc._mul2: {found}"


def test_metric_factors_are_found_in_any_form():
    tree = ast.parse(
        "_mul2(inv2(g.matrix), h)\n_mul2(a, g.matrix) @ b\ng.matrix @ a\na @= self.h0.matrix\n"
        "_mul2(inv2(g.matrix)[..., None, :, :], d)\n_mul2(-g.matrix.T, a)\n"
        "jcalc._mul2(a, 2.0 * g.matrix)\n_mul2(a, J)\ng.inverse_factor[..., None, None] * h\n"
        "metric_action(a, g.matrix)\n_mul2(inv2(a), b)\nJ @ a\nf(g.matrix) @ a\n"
    )
    assert sorted(_metric_products(tree)) == [1, 2, 3, 4, 5, 6, 7]


def test_no_2x2_product_has_a_conformal_metric_factor():
    found = [f"{stem}.py:{line}" for stem, tree in _library_trees()
             for line in sorted(_metric_products(tree))]
    assert not found, (
        "products with a conformal metric's matrix, not a scaling by conformal_factor "
        f"or inverse_factor: {found}"
    )


def _module_level_names(tree):
    """Names bound at the top level of a module: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return None


def _imported_from_siblings(stem, tree, modules):
    """(module, name) of each public name ``stem`` takes from another library module."""
    aliases = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            if node.module is None and alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
            elif node.module in modules and not alias.name.startswith("_"):
                yield node.module, alias.name
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and not node.attr.startswith("_")
        ):
            yield aliases[node.value.id], node.attr


def test_every_all_entry_exists_and_every_imported_name_is_listed():
    trees = dict(_library_trees())
    problems = []
    for stem, tree in trees.items():
        listed = _declared_all(tree)
        if listed is not None:
            problems += [f"{stem}.{n} listed, not defined" for n in
                         sorted(listed - _module_level_names(tree))]
    for stem, tree in trees.items():
        for module, name in set(_imported_from_siblings(stem, tree, trees)):
            listed = _declared_all(trees[module])
            if listed is not None and name not in listed:
                problems.append(f"{module}.{name} imported by {stem}, not in __all__")
    assert not problems, problems
