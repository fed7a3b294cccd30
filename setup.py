"""Setup shim for installs without PEP 517 build isolation.

All real metadata lives in ``pyproject.toml``.  On an offline machine
without the ``wheel`` package, pip's editable install and its
``--no-use-pep517`` path both fail; ``python setup.py develop`` still
installs the package in development mode from this file.
"""

from setuptools import setup

setup()
