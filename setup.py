"""Packaging for the Cooperative Scans reproduction.

The package is a plain ``src``-layout distribution with a single runtime
dependency (``numpy``).  It installs without network access or the ``wheel``
package (legacy editable installs)::

    pip install -e . --no-build-isolation --no-use-pep517

The ``dev`` extra pulls in the test runner: ``pip install -e .[dev]``.
"""

import os
import re

from setuptools import find_packages, setup


_HERE = os.path.dirname(os.path.abspath(__file__))


def _read_version() -> str:
    """Single-source the version from ``src/repro/__init__.py``."""
    with open(os.path.join(_HERE, "src", "repro", "__init__.py")) as handle:
        match = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M)
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


def _read_readme() -> str:
    path = os.path.join(_HERE, "README.md")
    if not os.path.exists(path):
        return ""
    with open(path) as handle:
        return handle.read()


setup(
    name="repro-cooperative-scans",
    version=_read_version(),
    description=(
        "Reproduction of 'Cooperative Scans: Dynamic Bandwidth Sharing in a "
        "DBMS' (VLDB 2007) with an open-system query service layer"
    ),
    long_description=_read_readme(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "dev": [
            "pytest>=7",
            "pytest-benchmark",
            "hypothesis",
        ],
    },
)
