"""Setup shim and project metadata.

The environment has setuptools but no ``wheel`` package (and no network to
fetch it), so PEP-517 editable installs fail on ``bdist_wheel``.  This shim
enables the legacy path::

    pip install -e . --no-build-isolation --no-use-pep517

Dependencies: none; the package, including both the ``set`` and
``bitset`` backends, is stdlib-only.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mce",
    version="0.9.0",
    description=("Maximal clique enumeration with hybrid branching and "
                 "early termination (ICDE 2025 reproduction)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
    install_requires=[],
    entry_points={
        "console_scripts": ["repro-mce=repro.cli:main"],
    },
)
