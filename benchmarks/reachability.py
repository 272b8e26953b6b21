"""Which ``src/repro`` functions the workloads reach, module by module.

    python3 benchmarks/reachability.py

Runs, one after the other and each in a fresh process, the observatory's
five workloads (two seconds each, traced), the ten
``benchmarks/bench_*.py`` reproductions, the CI fuzz smoke lane (its 400
cells at seed 0 without the time budget, so the same cells run on any
host) and its ``--validate-corpus`` check, ``python -m repro.lint``
(also with CI's ``--format json``) and the eight ``examples/``.  A
``sitecustomize`` module on ``PYTHONPATH`` installs a ``sys.setprofile``
hook in every Python process they start, pool workers and probe
processes included, and each process writes the code objects it entered
when it exits.

Prints, per module under ``src/repro``, how many functions (methods,
lambdas and class bodies included; comprehensions and module bodies
not) it defines and how many were called, then the names of the ones
never called.  Unit tests are deliberately not among the workloads:
a function only its own tests reach is what this audit looks for.
Takes about ten minutes on two cores; writes nothing under the checkout
but ``benchmarks/results/``, as the benchmarks themselves do.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Code objects that are not functions of their own.
NOT_FUNCTIONS = ("<module>", "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")

HOOK = '''\
import atexit
import os
import sys
import threading
from multiprocessing import util

_SEEN = set()


def _hook(frame, event, arg):
    if event == "call":
        _SEEN.add(frame.f_code)


def _dump():
    src = os.environ["REACHABILITY_SRC"]
    lines = sorted({
        f"{os.path.realpath(code.co_filename)}\\t{code.co_firstlineno}\\t{code.co_qualname}"
        for code in list(_SEEN)  # a copy: the hook still adds while this runs
        if os.path.realpath(code.co_filename).startswith(src)
    })
    path = os.path.join(os.environ["REACHABILITY_OUT"], f"{os.getpid()}.txt")
    with open(path, "a", encoding="utf-8") as handle:
        handle.writelines(line + "\\n" for line in lines)


def _arm_forked_child(_):
    # A forked multiprocessing child leaves through os._exit, which skips
    # atexit but runs the finalizers registered after the fork.
    util.Finalize(None, _dump, exitpriority=0)


atexit.register(_dump)
util.register_after_fork(_arm_forked_child, _arm_forked_child)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

Key = Tuple[str, int, str]


def workloads(scratch: Path) -> Iterator[Tuple[str, List[str]]]:
    python = sys.executable
    for name in ("paper_sparse", "paper_dense", "async_layered", "fuzz_sweep", "asyncio_loopback"):
        yield f"observatory {name}", [
            python, "benchmarks/observatory/run.py", "--workload", name,
            "--seconds", "2", "--trace", "1",
        ]
    benches = sorted(str(path.relative_to(ROOT)) for path in ROOT.glob("benchmarks/bench_*.py"))
    yield "bench_*.py", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches]
    corpus = str(scratch / "corpus")
    yield "fuzz smoke lane", [
        python, "-m", "repro.fuzz", "--corpus-dir", corpus,
        "--cache-dir", str(scratch / "fuzz-cache"),
        "--max-cells", "400", "--seed", "0", "--rco-fraction", "0.2",
        "--behaviour-fraction", "0.25", "--churn-fraction", "0.2",
    ]
    yield "fuzz --validate-corpus", [
        python, "-m", "repro.fuzz", "--corpus-dir", corpus, "--validate-corpus",
    ]
    yield "repro.lint", [python, "-m", "repro.lint"]
    yield "repro.lint, as CI runs it", [
        python, "-m", "repro.lint", "--format", "json",
        "--output", str(scratch / "lint-report.json"),
    ]
    for example in sorted(ROOT.glob("examples/*.py")):
        yield f"examples/{example.name}", [python, str(example.relative_to(ROOT))]


def code_objects(code: CodeType) -> Iterator[CodeType]:
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if const.co_name not in NOT_FUNCTIONS:
                yield const
            yield from code_objects(const)


def defined() -> Dict[str, Set[Key]]:
    """Every function of every ``src/repro`` module, keyed as the hook keys them."""
    table: Dict[str, Set[Key]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = os.path.realpath(path)
        module = compile(path.read_text(encoding="utf-8"), filename, "exec")
        table[str(path.relative_to(SRC))] = {
            (filename, code.co_firstlineno, code.co_qualname) for code in code_objects(module)
        }
    return table


def run(scratch: Path) -> Tuple[Set[Key], List[str]]:
    """What the workloads called, and the labels of those that failed."""
    hook_dir, out_dir = scratch / "hook", scratch / "reached"
    hook_dir.mkdir()
    out_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join((str(hook_dir), str(SRC))),
        "REPRO_WORKERS": "2",
        "REACHABILITY_SRC": os.path.realpath(PACKAGE),
        "REACHABILITY_OUT": str(out_dir),
    }
    failed = []
    for label, command in workloads(scratch):
        result = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        print(f"ran {label} (exit {result.returncode})", file=sys.stderr)
        if result.returncode != 0:
            failed.append(label)
            print(result.stderr[-2000:], file=sys.stderr)
    reached: Set[Key] = set()
    for dump in out_dir.iterdir():
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, line_number, qualname = line.split("\t")
            reached.add((filename, int(line_number), qualname))
    return reached, failed


def main() -> int:
    # No options: ``--help`` prints this module's docstring, anything else
    # is a usage error, and both exit before a workload starts.
    argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    ).parse_args()
    table = defined()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        reached, failed = run(Path(scratch))
    width = max(len(module) for module in table)
    print(f"{'module':<{width}}  defined  reached")
    unreached: Dict[str, List[str]] = defaultdict(list)
    totals = [0, 0]
    for module, functions in table.items():
        hit = functions & reached
        totals[0] += len(functions)
        totals[1] += len(hit)
        print(f"{module:<{width}}  {len(functions):>7}  {len(hit):>7}")
        for _, line_number, qualname in sorted(functions - hit, key=lambda key: key[1]):
            unreached[module].append(f"{qualname} (line {line_number})")
    print(f"{'total':<{width}}  {totals[0]:>7}  {totals[1]:>7}")
    print("\nnever called:")
    for module, names in unreached.items():
        print(f"  {module}: {', '.join(names)}")
    if failed:
        # A workload that stopped early under-reports what it reaches.
        print(f"\nfailed, so the counts are low: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
