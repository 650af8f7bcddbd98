"""The end-to-end benchmark's layer probes still find their targets.

``benchmarks/e2e/probes.py`` patches ``repro`` attributes by module and
attribute path, so moving or renaming a probed method silently breaks
the traced benchmark run. Resolving every probe here turns such a move
into a tier-1 failure instead.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

_PROBES = (pathlib.Path(__file__).resolve().parent.parent
           / "benchmarks" / "e2e" / "probes.py")


def _load_probes():
    spec = importlib.util.spec_from_file_location("e2e_probes", _PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load_probes()


@pytest.mark.parametrize("name,module,path", probes.LAYER_PROBES,
                         ids=[f"{n}:{p}" for n, _, p in probes.LAYER_PROBES])
def test_probe_target_defined_on_its_owner(name, module, path):
    owner, attr = probes._resolve(module, path)
    assert callable(vars(owner)[attr]), name


def test_setup_probes_are_layer_probes():
    names = {name for name, _, _ in probes.LAYER_PROBES}
    assert set(probes.SETUP_PROBES) <= names
