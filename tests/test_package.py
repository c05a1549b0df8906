"""The package's public names: every entry of `primeaps.__all__` must
resolve, or `from primeaps import *` fails on the stale one. Only
`primeaps.fourier` may take transforms with numpy.fft, every parameter is
read, and each CLI handler reads only its own subcommand's flags."""

import ast
from pathlib import Path

import pytest

import primeaps
from primeaps import cli


def test_all_names_resolve():
    missing = [name for name in primeaps.__all__ if not hasattr(primeaps, name)]
    assert missing == []
    assert len(set(primeaps.__all__)) == len(primeaps.__all__)
    namespace = {}
    exec("from primeaps import *", namespace)
    assert set(primeaps.__all__) <= set(namespace)


SRC = Path(primeaps.__file__).parent
FFT_HOME = "fourier.py"


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


def test_every_parameter_is_read():
    # a parameter nothing reads is an option that changes nothing, which
    # every caller and test must still consider
    found = {path.relative_to(SRC).as_posix():
             _unread_parameters(ast.parse(path.read_text(), str(path)))
             for path in sorted(SRC.rglob("*.py"))}
    assert {name: dead for name, dead in found.items() if dead} == {}


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
