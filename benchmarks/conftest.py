"""Benchmark-suite conftest: path shim, results directory, and the
helpers the paper-figure benches share (tables, geomean, residual
shape, one MiniJS workload run)."""

import math
import os
import sys
from typing import Iterable, List, NamedTuple, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.ir.function import Function  # noqa: E402
from repro.jsvm import JSRuntime  # noqa: E402
from repro.jsvm.workloads import WORKLOADS  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
os.makedirs(RESULTS_DIR, exist_ok=True)


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="reduce repeat counts for CI artifact runs (same assertions, "
             "fewer timing rounds)")


def write_result(name: str, text: str) -> None:
    """Persist a paper-style table and echo it for the log."""
    path = os.path.join(RESULTS_DIR, name + ".txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print("\n" + text)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Plain-text table, the way the paper's harness prints results."""
    widths = [len(h) for h in headers]
    rendered = [[str(c) for c in row] for row in rows]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def residual_shape(func: Function) -> Tuple[int, int, int]:
    """(instructions, blocks, non-entry block params) of a residual
    function — the static code-size axes the paper's S6.4 tracks."""
    return (func.num_instrs(), func.num_blocks(), func.total_block_params())


class WorkloadResult(NamedTuple):
    printed: List[str]
    fuel: int


def run_js_workload(name: str, config: str) -> WorkloadResult:
    """Run one MiniJS workload once under ``config`` from a fresh
    runtime (the AOT configs compile their snapshot first)."""
    rt = JSRuntime(WORKLOADS[name], config)
    vm = rt.run()
    return WorkloadResult(list(rt.printed), vm.stats.fuel)
