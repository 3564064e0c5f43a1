"""Setuptools entry point.

Kept as an executable ``setup.py`` (rather than declarative metadata only)
so the package installs in minimal environments without the ``wheel``
package (legacy editable installs fall back to ``setup.py develop``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-manet-trust",
    version="0.8.0",
    description=(
        "Reproduction of an OLSR link-spoofing detection paper: discrete-"
        "event MANET simulator, RFC 3626 OLSR, trust-based detection"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
