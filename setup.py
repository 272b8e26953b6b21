"""Setuptools entry point.

The project is normally used straight from a checkout (the root
``conftest.py`` puts ``src`` on ``sys.path``); installing is only needed
for the console scripts, most importantly ``repro-sweep-worker`` — the
worker half of the distributed sweep executor
(:mod:`repro.runner.distributed`).  Uninstalled environments can run the
same worker as ``python -m repro.runner.distributed``.
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
    install_requires=["networkx"],
    entry_points={
        "console_scripts": [
            "repro-sweep-worker=repro.runner.distributed:worker_main",
            "repro-fuzz=repro.fuzz.cli:main",
            "repro-lint=repro.lint.cli:main",
        ],
    },
)
