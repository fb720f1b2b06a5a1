"""The package surface: every exported name resolves."""

import importlib
import pkgutil
import subprocess
import sys

import pytest

import text2triple

LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(text2triple.__path__)
    if info.name not in ("__main__", "cli")
)


def test_library_modules_found():
    assert LIBRARY_MODULES == [
        "corpus", "embeddings", "model", "numerics", "scoring", "synthetic", "vocab",
    ]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"text2triple.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_exports_resolve():
    missing = [attr for attr in text2triple.__all__ if not hasattr(text2triple, attr)]
    assert missing == []
    assert len(set(text2triple.__all__)) == len(text2triple.__all__)


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the package pulls in.
    code = ("import sys, text2triple, text2triple.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
