"""The package's shape, checked on its source: only `primeaps.fourier`
may take transforms with numpy.fft, and there only its four-step passes,
its real grid pass, `wedge_grid` and `_self_convolution`, none of them an
n-dimensional one into `out=`, every parameter is read, every default
is both used and overridden by the package's own calls, every def is
reached from the CLI and every field of a reached dataclass is read by
reached code, each CLI handler reads only its own subcommand's flags, only
the declared range types refuse a flag's value, and no module reads the
environment."""

import ast
from pathlib import Path

import pytest

import primeaps
from primeaps import cli

SRC = Path(primeaps.__file__).parent
FFT_HOME = "fourier.py"


def _src_trees() -> dict[str, ast.Module]:
    """The parsed modules of src/primeaps, by module name."""
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _fft_uses(tree: ast.AST) -> list[int]:
    """Line numbers where a module imports numpy.fft or reads the fft
    attribute of numpy (under any name numpy is imported as)."""
    numpy_names = {alias.asname or "numpy"
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name.split(".")[0] == "numpy"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "numpy.fft" or a.name.startswith("numpy.fft.")
                   for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if (node.module == "numpy.fft" or node.module.startswith("numpy.fft.")
                    or (node.module == "numpy"
                        and any(a.name == "fft" for a in node.names))):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "fft"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
    return lines


def test_only_fourier_takes_transforms():
    # fourier is the one place transforms are taken, which is what lets a
    # count of FFT calls be kept in one module
    found = {path.relative_to(SRC).as_posix():
             _fft_uses(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert found.pop(FFT_HOME), "the checker sees no transform in fourier.py"
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.fft.fft(x)",
    "import numpy\nnumpy.fft.rfft(x)",
    "import numpy.fft",
    "import numpy.fft as nf",
    "from numpy import fft",
    "from numpy.fft import rfft",
    "import numpy as xp\ny = xp.fft",
])
def test_fft_checker_flags(source):
    assert _fft_uses(ast.parse(source)) != []


def test_fft_checker_passes_other_fft_names():
    assert _fft_uses(ast.parse("import numpy as np\nfrom . import fourier\n"
                               "fourier.fft(x)\nnp.linalg.norm(x)")) == []


# the defs of fourier that call numpy.fft: the four-step passes, the real
# grid pass of the L^p ladder, the torus grid of wedge_grid and the
# power-of-two self-convolution. Every ladder grid goes through the first
# two, so no full-length transform can come back into the ladder
_FFT_CALLERS = {"_four_step", "_real_grid_powers", "wedge_grid", "_self_convolution"}


def _fft_defs(tree: ast.Module) -> set[str]:
    """The names of a module's top-level defs whose code (nested defs
    included) uses numpy.fft as _fft_uses finds it, and "<module>" when
    code outside them does."""
    imports = [node for node in tree.body if isinstance(node, ast.Import)]
    found = set()
    for node in tree.body:
        scope = [node] if node in imports else [*imports, node]
        if _fft_uses(ast.Module(body=scope, type_ignores=[])):
            found.add(node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      else "<module>")
    return found


def test_only_the_four_step_passes_and_two_grids_call_numpy_fft():
    assert _fft_defs(_src_trees()["fourier"]) == _FFT_CALLERS


def test_fft_def_checker_names_closures_and_module_code():
    source = ("import numpy as np\n"
              "def f(x):\n    def g():\n        return np.fft.fft(x)\n    return g\n"
              "h = np.fft.rfft\n"
              "def k(x):\n    return x\n"
              "def m(x):\n    from numpy.fft import ifft\n    return ifft(x)\n")
    assert _fft_defs(ast.parse(source)) == {"f", "<module>", "m"}


# numpy.fft's n-dimensional transforms. numpy 2.4.6's ifft2 drops its
# `out=` (it hands out=None to the n-dimensional helper), so
# ifft2(x, out=x) leaves x as it was and an in-place caller reads wrong
# values; a transform along one axis at a time, fft(x, axis=0, out=x), is
# right
_ND_FFT = ("fft2", "ifft2", "fftn", "ifftn")


def _nd_fft_out_calls(tree: ast.AST) -> list[int]:
    """Line numbers of calls that pass `out=` (by keyword, or as the fifth
    positional argument) to one of numpy.fft's _ND_FFT, however numpy,
    numpy.fft or the function is imported."""
    numpy_names, fft_names, func_names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "numpy":
                    numpy_names.add(a.asname or "numpy")
                elif a.name == "numpy.fft":
                    (fft_names if a.asname else numpy_names).add(a.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if node.module == "numpy" and a.name == "fft":
                    fft_names.add(a.asname or "fft")
                elif node.module == "numpy.fft" and a.name in _ND_FFT:
                    func_names.add(a.asname or a.name)

    def is_fft_module(expr: ast.AST) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in fft_names
        return (isinstance(expr, ast.Attribute) and expr.attr == "fft"
                and isinstance(expr.value, ast.Name)
                and expr.value.id in numpy_names)

    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        nd = ((isinstance(f, ast.Name) and f.id in func_names)
              or (isinstance(f, ast.Attribute) and f.attr in _ND_FFT
                  and is_fft_module(f.value)))
        if nd and (len(node.args) >= 5
                   or any(k.arg == "out" for k in node.keywords)):
            lines.append(node.lineno)
    return lines


def test_no_n_dimensional_transform_writes_into_out():
    found = {path.relative_to(SRC).as_posix():
             _nd_fft_out_calls(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.fft.ifft2(x, out=x)",
    "import numpy\nnumpy.fft.fftn(x, None, None, None, x)",
    "import numpy.fft\nnumpy.fft.fft2(x, out=y)",
    "import numpy.fft as nf\nnf.ifftn(x, axes=(0, 1), out=x)",
    "from numpy import fft\nfft.ifft2(x, out=x)",
    "from numpy.fft import ifft2 as i2\ni2(x, out=x)",
])
def test_nd_out_checker_flags(source):
    assert _nd_fft_out_calls(ast.parse(source)) != []


def test_nd_out_checker_passes_one_axis_and_no_out():
    assert _nd_fft_out_calls(ast.parse(
        "import numpy as np\nnp.fft.fft(x, axis=0, out=x)\n"
        "np.fft.ifft2(x)\nnp.fft.fftn(x, axes=(0,))\nfrom . import fourier\n"
        "fourier.ifft2(x, out=x)")) == []


def _unread_parameters(tree: ast.AST) -> list[str]:
    """`function.parameter` for every parameter of a function or lambda
    whose body never reads it; self and cls are exempt."""
    dead = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        dead += [f"{name}.{p}" for p in params
                 if p not in read and p not in ("self", "cls")]
    return dead


# every handler takes the (cfg, em) that cli.run and the benchmark's tracer
# call it with; varnavides writes no file, so its handler reads no Emitter
_UNREAD_PARAMETER_EXCEPTIONS = {"cli.py": ["_run_varnavides.em"]}


def test_every_parameter_is_read():
    # a parameter nothing reads is an option that changes nothing, which
    # every caller and test must still consider
    found = {path.relative_to(SRC).as_posix():
             _unread_parameters(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: dead for name, dead in found.items() if dead} == \
        _UNREAD_PARAMETER_EXCEPTIONS


def test_parameter_checker_flags():
    source = ("def f(a, b, *rest, c=1, **extra):\n"
              "    b = 2\n"
              "    return a\n"
              "class K:\n"
              "    def m(self, x):\n"
              "        return lambda y: x\n")
    assert sorted(_unread_parameters(ast.parse(source))) == [
        "<lambda>.y", "f.b", "f.c", "f.extra", "f.rest"]


def test_parameter_checker_passes_reads():
    source = ("def f(a, *rest, c=1, **extra):\n"
              "    def inner():\n"
              "        return a + c\n"
              "    return inner, rest, extra\n")
    assert _unread_parameters(ast.parse(source)) == []


def _functions(tree: ast.Module) -> list:
    """(qualified name, node) of every def in a module, nested ones
    included."""
    found = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((prefix + child.name, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _default_usage(trees: dict[str, ast.Module]) -> dict[str, tuple[int, int]]:
    """`module.function(param)` -> (k, n) for each defaulted parameter of a
    def that n calls in the trees name, by bare or attribute name, of which
    k pass it, positionally or by keyword. A call with *args or **kwargs
    counts as passing what it may pass."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    usage = {}
    for module, tree in trees.items():
        for qualname, node in _functions(tree):
            sites = calls.get(node.name, [])
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param in defaulted if sites else []:
                i = positional.index(param) if param in positional else None
                k = sum(1 for call in sites
                        if any(kw.arg in (param, None) for kw in call.keywords)
                        or (i is not None and (
                            i < len(call.args)
                            or any(isinstance(a, ast.Starred) for a in call.args))))
                usage[f"{module}.{qualname}({param})"] = (k, len(sites))
    return usage


# the in-process entry point for tests; the console script calls main()
_DEFAULT_EXCEPTIONS = {"cli.main(argv)"}


def test_every_default_is_used_and_overridden():
    # a default every call overrides is a second home of a value the caller
    # declares; one no call overrides is an option nobody takes
    trees = _src_trees()
    usage = _default_usage(trees)
    assert _DEFAULT_EXCEPTIONS <= set(usage)
    offenders = [f"{name}: set by {k} of {n} src calls"
                 for name, (k, n) in usage.items()
                 if k in (0, n) and name not in _DEFAULT_EXCEPTIONS]
    assert offenders == [], "make each required or drop it:\n" + "\n".join(offenders)


def test_default_checker_counts_calls():
    source = ("def f(a, b=1, *, c=None):\n"
              "    return a, b, c\n"
              "def g(x=0):\n"
              "    return x\n"
              "def unused(y=0):\n"
              "    return y\n"
              "class K:\n"
              "    def m(self, u, v=2):\n"
              "        return u, v\n"
              "f(1)\n"
              "f(1, 2, c=3)\n"
              "mod.f(*args)\n"
              "g(x=1)\n"
              "g(**kw)\n"
              "K().m(1)\n"
              "obj.m(1, v=3)\n")
    assert _default_usage({"mod": ast.parse(source)}) == {
        "mod.f(b)": (2, 3), "mod.f(c)": (1, 3), "mod.g(x)": (2, 2),
        "mod.K.m(v)": (1, 2)}


def _defs(tree: ast.Module) -> list:
    """(qualified name, node, class qualname or None) of every top-level
    def and class of a module and of every def and class in a class body;
    defs nested in a def are part of it."""
    found = []

    def visit(body, prefix: str, owner) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + node.name, node, owner))
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", prefix + node.name)

    visit(tree.body, "", None)
    return found


def _uses(nodes) -> set[str]:
    """Every name the nodes read or write, as a Name or an Attribute."""
    return {getattr(n, "id", None) or n.attr for node in nodes
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _own_nodes(node) -> list:
    """A def whole, or a class without the defs and classes in its body
    (its bases, decorators and class-level statements)."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.bases, *node.keywords, *node.decorator_list,
            *(s for s in node.body if not isinstance(
                s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))]


def _reach(trees: dict[str, ast.Module], roots: set[str]) -> tuple[dict, set]:
    """The defs and classes of the trees, as `module.qualname` -> (node,
    owning class), and the names of those the roots reach by name.

    A def or class is reached when its name appears, as a Name or an
    Attribute, in a reached def or class, or in a module-level assignment
    whose target a reached def or class uses; the dunder methods of a
    reached class are reached too. Names are not resolved to modules, so
    the rule over-approximates and never calls a used def unreached."""
    defs = {f"{module}.{qualname}": (node, owner and f"{module}.{owner}")
            for module, tree in trees.items()
            for qualname, node, owner in _defs(tree)}
    assigns = [(_uses(stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]),
                stmt.value)
               for tree in trees.values() for stmt in tree.body
               if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value]
    reached = set(roots)
    used = _uses(n for name in roots for n in _own_nodes(defs[name][0]))
    grew = True
    while grew:
        grew = False
        for targets, value in assigns:
            if targets & used and not _uses([value]) <= used:
                used |= _uses([value])
                grew = True
        for name, (node, owner) in defs.items():
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if name not in reached and (node.name in used
                                        or (dunder and owner in reached)):
                reached.add(name)
                used |= _uses(_own_nodes(node))
                grew = True
    return defs, reached


def _unreached(trees: dict[str, ast.Module], roots: set[str]) -> dict[str, int]:
    """`module.qualname` -> line count of each def or class that no root
    reaches (see _reach)."""
    defs, reached = _reach(trees, roots)
    return {name: (node.end_lineno - min(
                [node.lineno] + [d.lineno for d in node.decorator_list]) + 1)
            for name, (node, _) in defs.items() if name not in reached}


# the CLI, and the round-trip readers of the two measure formats it writes
_ROOTS = {"cli.main", "measures.load_measure_csv", "measures.load_measure_binary",
          "measures.measure_from_bytes"}
# argparse calls it
_UNREACHED_EXCEPTIONS = {"cli._Parser.error"}


def test_every_def_is_reached_from_the_cli():
    # src is the program: an oracle or a paper bound that no CLI path runs
    # lives in tests/paper.py, and comes back only with its caller
    trees = _src_trees()
    unreached = _unreached(trees, _ROOTS)
    assert _UNREACHED_EXCEPTIONS <= set(unreached)
    offenders = [f"{name} ({n} lines)" for name, n in unreached.items()
                 if name not in _UNREACHED_EXCEPTIONS]
    assert offenders == [], ("reached by no CLI path; move to tests/paper.py "
                             "or call it:\n" + "\n".join(offenders))


def test_reachability_checker_follows_names():
    source = ("import helpers\n"
              "TABLE = {'a': handler}\n"
              "UNUSED = {'b': orphan}\n"
              "def main():\n"
              "    return TABLE, helpers.attr_called(), Box()\n"
              "def handler():\n"
              "    def inner():\n"
              "        return nested_only()\n"
              "    return inner\n"
              "def nested_only():\n"
              "    pass\n"
              "def attr_called():\n"
              "    pass\n"
              "def orphan():\n"
              "    return attr_called()\n"
              "@decorated\n"
              "def lonely():\n"
              "    pass\n"
              "class Box:\n"
              "    size = 1\n"
              "    def __len__(self):\n"
              "        return self.used()\n"
              "    def used(self):\n"
              "        pass\n"
              "    def unused(self):\n"
              "        return self.used()\n"
              "class Unused:\n"
              "    def __init__(self):\n"
              "        pass\n")
    assert _unreached({"mod": ast.parse(source)}, {"mod.main"}) == {
        "mod.orphan": 2, "mod.lonely": 3, "mod.Box.unused": 2, "mod.Unused": 3,
        "mod.Unused.__init__": 2}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with dataclass, bare, called or as
    an attribute of its module."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _unread_fields(trees: dict[str, ast.Module], roots: set[str]) -> list[str]:
    """`module.Class.field` for each annotated field of a reached dataclass
    whose name no reached def or class loads as an attribute (`x.field`).

    Names are not resolved to classes, so a load of the same name on any
    object counts as a read, and the rule never calls a read field unread."""
    defs, reached = _reach(trees, roots)
    loads = {n.attr for name in reached for node in _own_nodes(defs[name][0])
             for n in ast.walk(node)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{name}.{stmt.target.id}" for name in sorted(reached)
            if isinstance(defs[name][0], ast.ClassDef) and _is_dataclass(defs[name][0])
            for stmt in defs[name][0].body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in loads]


# cli._run_varnavides puts the first whole into the manifest, and the
# report's ledger each of the second, through dataclasses.asdict
_UNREAD_FIELD_EXCEPTIONS = {"roth.VarnavidesBound", "roth.Check"}


def test_every_field_is_read():
    # a result field that no output reads is computed for nobody, and every
    # reader of the class must still consider it
    trees = _src_trees()
    unread = _unread_fields(trees, _ROOTS)
    owners = {name.rsplit(".", 1)[0] for name in unread}
    assert _UNREAD_FIELD_EXCEPTIONS <= owners
    offenders = [name for name in unread
                 if name.rsplit(".", 1)[0] not in _UNREAD_FIELD_EXCEPTIONS]
    assert offenders == [], ("no reached code reads these fields; drop them "
                             "or read them:\n" + "\n".join(offenders))


def test_field_checker_counts_attribute_loads():
    source = ("import dataclasses\n"
              "from dataclasses import dataclass, field\n"
              "@dataclass\n"
              "class Result:\n"
              "    shown: int\n"
              "    unread: int\n"
              "    stored: int\n"
              "    cached: dict = field(default_factory=dict)\n"
              "    def __post_init__(self):\n"
              "        self.stored = self.cached\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class Frozen:\n"
              "    late: int\n"
              "@dataclass\n"
              "class Unused:\n"
              "    never: int\n"
              "class Plain:\n"
              "    note: int\n"
              "def main():\n"
              "    r = Result(1, 2, 3)\n"
              "    return r.shown, Frozen, Plain, unread\n"
              "def orphan(r):\n"
              "    return r.late, r.never\n")
    assert _unread_fields({"mod": ast.parse(source)}, {"mod.main"}) == [
        "mod.Frozen.late", "mod.Result.unread", "mod.Result.stored"]


def _readers(trees: dict[str, ast.Module], name: str) -> set[str]:
    """`module.qualname` of each def that reads `name`, as a Name or an
    Attribute (a def counts what its nested defs read), and `module` for a
    read outside any def."""
    found = set()
    for module, tree in trees.items():
        found |= {f"{module}.{qualname}" for qualname, node in _functions(tree)
                  if name in _uses([node])}
        if any(name in _uses([stmt]) for stmt in tree.body if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))):
            found.add(module)
    return found


def _imported_names(tree: ast.Module) -> set[str]:
    """Each dotted part of every module a module imports, and every name it
    imports from one (`from . import measures` gives "measures")."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {part for a in node.names for part in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            found |= set((node.module or "").split(".")) - {""}
            found |= {a.name for a in node.names}
    return found


def test_the_measure_owns_its_weight():
    # lambda_{b,m,N}'s weight phi(m) log(nm + b) / (mN) has one home, the
    # measure, so the W-trick's alpha is read off it, not summed again;
    # and sieve is the arithmetic under the measures, never above them
    trees = _src_trees()
    assert _readers(trees, "euler_phi") == {"measures.lambda_measure"}
    assert "measures" not in _imported_names(trees["sieve"])


def test_reader_and_import_checkers():
    source = ("import numpy.linalg\n"
              "from . import measures as m\n"
              "from .errors import Oops\n"
              "PHI = sieve.euler_phi\n"
              "def outer():\n"
              "    def inner():\n"
              "        return euler_phi(6)\n"
              "    return inner\n"
              "def other():\n"
              "    return phi(6)\n")
    tree = ast.parse(source)
    assert _readers({"mod": tree}, "euler_phi") == {
        "mod", "mod.outer", "mod.outer.inner"}
    assert _imported_names(tree) == {"numpy", "linalg", "measures", "errors", "Oops"}


def _cfg_reads(tree: ast.Module, function: str) -> set[str]:
    """The attributes of the parameter cfg that a module-level function
    reads or sets, in its body and its closures, and in the module-level
    functions it passes cfg to, positionally or by keyword (under the name
    of their parameter). Any other use of cfg shows as "<escapes>", since
    what the callee reads is unseen."""
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    found, seen = set(), set()
    todo = [(function, "cfg")]
    while todo:
        name, param = todo.pop()
        if (name, param) in seen:
            continue
        seen.add((name, param))
        uses = [node for node in ast.walk(functions[name])
                if isinstance(node, ast.Name) and node.id == param]
        known = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and node.value in uses:
                found.add(node.attr)
                known.add(node.value)
            elif (isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) in functions):
                callee = functions[node.func.id].args
                passed = list(zip([a.arg for a in callee.posonlyargs + callee.args],
                                  node.args))
                passed += [(k.arg, k.value) for k in node.keywords]
                for target, value in passed:
                    if value in uses:
                        todo.append((node.func.id, target))
                        known.add(value)
        if len(known) < len(uses):
            found.add("<escapes>")
    return found


def test_handlers_read_only_their_own_flags(flag_dests):
    # a handler's cfg is its subcommand's parsed flags and nothing else, so
    # an attribute that is not one of them would fail at run time, and the
    # manifest's config would not show what the run read
    tree = ast.parse((SRC / "cli.py").read_text())
    stray = {name: sorted(_cfg_reads(tree, handler.__name__) - flag_dests[name])
             for name, (handler, _) in cli._COMMANDS.items()}
    assert {name: attrs for name, attrs in stray.items() if attrs} == {}


def test_cfg_reads_follow_closures_and_helpers():
    source = ("def helper(em, conf):\n"
              "    return conf.a\n"
              "def handler(cfg, em):\n"
              "    def inner():\n"
              "        return cfg.b\n"
              "    cfg.c = 1\n"
              "    return helper(em, cfg), helper(em, conf=cfg), inner\n"
              "def leaky(cfg, em):\n"
              "    return str(cfg), vars(cfg)\n")
    tree = ast.parse(source)
    assert _cfg_reads(tree, "handler") == {"a", "b", "c"}
    assert _cfg_reads(tree, "leaky") == {"<escapes>"}


def _raisers(tree: ast.Module, name: str) -> set[str]:
    """The qualname of each def whose own body (not a nested def's) raises
    `name`, called or not, as a Name or an Attribute; "<module>" for a
    raise outside any def."""
    found = set()

    def visit(node, prefix: str, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if name in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                    found.add(owner)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", owner)
            else:
                visit(child, prefix, owner)

    visit(tree, "", "<module>")
    return found


def test_only_the_range_types_refuse_a_flag():
    # a flag's own range has one home, its cli._Range in _OPTIONS or
    # _COMMANDS: no other argparse type refuses a value; --constants is a
    # JSON object, not a number
    assert _raisers(_src_trees()["cli"], "ArgumentTypeError") == {
        "_Range.__call__", "_RangeList.__call__", "_constants"}


def test_raiser_checker_finds_the_innermost_def():
    source = ("import argparse\n"
              "def plain(text):\n"
              "    raise argparse.ArgumentTypeError('no')\n"
              "class Kind:\n"
              "    def __call__(self, text):\n"
              "        def inner():\n"
              "            raise ArgumentTypeError\n"
              "        return inner\n"
              "def other():\n"
              "    raise ValueError('x')\n"
              "raise argparse.ArgumentTypeError('top')\n")
    assert _raisers(ast.parse(source), "ArgumentTypeError") == {
        "plain", "Kind.__call__.inner", "<module>"}


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    """Line numbers where a module reads the process environment: an
    environ or getenv of os, as its attribute (under any name os is
    imported as) or imported from it."""
    os_names = {alias.asname or "os" for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                for alias in node.names if alias.name == "os"}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(a.name in _ENV_NAMES for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
              and isinstance(node.value, ast.Name) and node.value.id in os_names):
            lines.append(node.lineno)
    return lines


def _defaulted_parameters(trees: dict[str, ast.Module]) -> set[str]:
    """`module.function(param)` for every parameter with a default."""
    found = set()
    for module, tree in trees.items():
        for qualname, node in _functions(tree):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found |= {f"{module}.{qualname}({param})" for param in defaulted}
    return found


# the defaulted parameters of src besides _DEFAULT_EXCEPTIONS
_DEFAULTED = {"cli._word(end)", "cli._emit_error(stage)",
              "measures.load_measure_csv(signed)", "measures.load_measure_csv(base)"}


def test_no_switch_outside_the_flags():
    # a run is set by its flags alone: no module reads the environment,
    # and no defaulted parameter is added that could select another path
    found = {path.relative_to(SRC).as_posix():
             _env_reads(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _defaulted_parameters(_src_trees()) - _DEFAULT_EXCEPTIONS == _DEFAULTED


@pytest.mark.parametrize("source", [
    "import os\nos.environ.get('X')",
    "import os\nos.getenv('X')",
    "import os as system\nsystem.environ['X']",
    "from os import environ",
    "from os import getenv as read",
    "import os\nos.environb",
])
def test_env_checker_flags(source):
    assert _env_reads(ast.parse(source)) != []


def test_env_checker_passes_other_names():
    source = ("import os\n"
              "os.path.join('a', 'b')\n"
              "environ = {}\n"
              "environ.get('X')\n"
              "from os import path\n")
    assert _env_reads(ast.parse(source)) == []
