"""The lazy package namespace: every public name resolves, and importing
the package loads no submodule."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pairpack


def test_every_public_name_resolves():
    assert len(pairpack.__all__) == len(set(pairpack.__all__))
    assert "scan_conjecture" in dir(pairpack)
    assert set(pairpack.__all__) <= set(dir(pairpack))
    for name in pairpack.__all__:
        value = getattr(pairpack, name)
        if name != "__version__":
            assert value.__module__.startswith("pairpack."), name


def test_star_import():
    namespace = {}
    exec("from pairpack import *", namespace)
    assert set(pairpack.__all__) <= set(namespace)
    assert namespace["solve_pair_partition"] is pairpack.solve_pair_partition


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        pairpack.nope
    assert not hasattr(pairpack, "nope")


def test_import_loads_no_submodule():
    src = str(Path(pairpack.__file__).resolve().parents[1])
    code = ("import sys, pairpack; "
            "print(sorted(m for m in sys.modules if m.startswith('pairpack.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
