"""Setup shim.

The repository declares no package metadata: there is no
``pyproject.toml`` and this file passes nothing to ``setup()``. The
package runs from source with ``PYTHONPATH=src``. The shim exists only
for legacy editable installs (``pip install -e . --no-use-pep517`` or
``python setup.py develop``), where setuptools' automatic discovery
finds the ``src/repro`` package by its src layout.
"""

from setuptools import setup

setup()
