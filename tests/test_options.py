"""Every parameter with a default in `src/latgas` is set by some call site.

An option that no caller sets is a configuration that no test and no
benchmark runs; it belongs in a constant.  Call sites are matched by name
only, with no type resolution: a call `x.f(...)` or `f(...)` counts for
every function or method named `f`, a call `C(...)` for `C.__init__`.
A keyword sets that parameter, `k` positional arguments set the first `k`
(after `self`/`cls` for methods), and `*args` or `**kw` set all of them.
Two kinds of call do not count: calls into another library's module
(`np.clip(a, lo, hi)` sets nothing here), and an argument that forwards
the enclosing function's own parameter of the same name (`tol=tol`),
which sets the option only where the enclosing one is set.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latgas"
CALLERS = ("src", "tests", "perfbench", "tools")


def _options(func, method):
    """{name: positional index at a call site, or None} of `func`'s
    parameters with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    shift = 1 if method and positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = {a.arg: i - shift for i, a in enumerate(positional) if i >= first}
    out.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None})
    return out


def _definitions():
    """[(label, call name, {option: index})] for every function in the package."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    opts = _options(child, owner is not None)
                    if opts:
                        name = owner if child.name == "__init__" else child.name
                        label = ".".join(filter(None, (path.stem, owner, child.name)))
                        found.append((label, name, opts))
                    visit(child, None)
        visit(ast.parse(path.read_text()), None)
    return found


def _foreign_modules(tree):
    """Names bound to modules outside the package by `import` statements."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names
                      if a.name.split(".")[0] != "latgas"}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] != "latgas":
            names |= {a.asname or a.name for a in node.names}
    return names


def _calls():
    """{call name: [(positional args or None for *args, {keyword: arg} or
    None for **kw, enclosing function name)]} over every call in the caller
    directories.  An arg is the name of the enclosing function's parameter
    it passes on unchanged, else None."""
    calls = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.resolve() == Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text())
            foreign = _foreign_modules(tree)

            def visit(node, enclosing, params):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        a = child.args
                        visit(child, child.name,
                              {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs})
                        continue
                    if isinstance(child, ast.Call):
                        record(child, enclosing, params)
                    visit(child, enclosing, params)

            def record(call, enclosing, params):
                func = call.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                        and func.value.id in foreign:
                    return
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    return

                def passed(value):
                    return (value.id if isinstance(value, ast.Name)
                            and value.id in params else None)

                pos = (None if any(isinstance(a, ast.Starred) for a in call.args)
                       else [passed(a) for a in call.args])
                kws = (None if any(k.arg is None for k in call.keywords)
                       else {k.arg: passed(k.value) for k in call.keywords})
                calls.setdefault(name, []).append((pos, kws, enclosing))

            visit(tree, None, set())
    return calls


def _setter(call, opt, index):
    """What sets `opt` at one call: True, the (enclosing function name,
    option) whose value it forwards, or None when the call leaves it unset."""
    pos, kws, enclosing = call
    if pos is None or kws is None:
        return True
    if opt in kws:
        given = kws[opt]
    elif index is not None and index < len(pos):
        given = pos[index]
    else:
        return None
    return (enclosing, opt) if given == opt else True


def unset_options():
    calls = _calls()
    defs = _definitions()
    done = set()     # (call name, option) that some caller sets
    grew = True
    while grew:
        grew = False
        for _, name, opts in defs:
            for opt, index in opts.items():
                if (name, opt) in done:
                    continue
                setters = {_setter(c, opt, index) for c in calls.get(name, ())}
                if True in setters or setters & done:
                    done.add((name, opt))
                    grew = True
    return [f"{label}({opt})" for label, name, opts in defs
            for opt in opts if (name, opt) not in done]


def test_every_option_is_set_somewhere():
    unset = unset_options()
    assert not unset, "options no caller sets: " + ", ".join(unset)
