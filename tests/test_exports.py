"""Every name a ``repro`` package lists in ``__all__`` must resolve."""

import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"{package}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{package}.__all__ names missing attributes: {missing}"
