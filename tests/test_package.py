"""The package's public names: every entry of `primeaps.__all__` must
resolve, or `from primeaps import *` fails on the stale one. And only
`primeaps.fourier` may take transforms with numpy.fft."""

import ast
from pathlib import Path

import pytest

import primeaps


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
