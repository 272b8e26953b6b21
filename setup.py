"""Setuptools entry point.

The project is normally used straight from a checkout (the root
``conftest.py`` puts ``src`` on ``sys.path``); installing is only needed
for the console scripts ``repro-fuzz`` and ``repro-lint``.  Uninstalled
environments run them as ``python -m repro.fuzz`` and
``python -m repro.lint``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-bonomi-icdcs21",
    version="1.0.0",
    description=(
        "Reproduction of Bonomi et al. (ICDCS 2021): Byzantine-resilient "
        "broadcast on partially connected networks"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # Standard library only at run time; the test tooling is listed in
    # requirements-ci.txt.
    install_requires=[],
    entry_points={
        "console_scripts": [
            "repro-fuzz=repro.fuzz.cli:main",
            "repro-lint=repro.lint.cli:main",
        ],
    },
)
