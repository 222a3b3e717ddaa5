"""Legacy setup shim.

All project metadata lives in ``pyproject.toml``; this file only serves
tools that still call ``setup.py`` directly (``python setup.py --name``
prints ``repro``).  ``pip install .`` builds through ``pyproject.toml``.
"""

from setuptools import setup

setup()
