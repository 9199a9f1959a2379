#!/usr/bin/env python3
"""Ahead-of-time compiling a MiniJS program (the SpiderMonkey S6 story).

Runs one Octane-analog workload under all four engine configurations and
prints the Fig. 11-style comparison for it.  The workloads are the frozen
programs in ``benchmarks/ledger/programs/js/``.

Run:  python examples/minijs_aot.py [workload]
"""

import os
import sys

ROOT = os.path.join(os.path.dirname(__file__), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.jsvm import JSRuntime  # noqa: E402


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "richards"
    with open(os.path.join(ROOT, "benchmarks", "ledger", "programs", "js",
                           f"{name}.js"), encoding="utf-8") as handle:
        source = handle.read()
    print(f"workload: {name}")
    results, outputs = {}, set()
    for config in ("noic", "interp_ic", "wevaled", "wevaled_state"):
        rt = JSRuntime(source, config)
        vm = rt.run()
        results[config] = vm.stats.fuel
        outputs.add(tuple(rt.printed))
        extra = ""
        if rt.compiler is not None:
            extra = (f"  [{rt.specialized_function_count()} functions "
                     f"AOT-compiled, {len(rt.corpus)} IC-corpus stubs]")
        print(f"  {config:14s} output={rt.printed} "
              f"fuel={vm.stats.fuel}{extra}")
    assert len(outputs) == 1, f"configurations disagree: {outputs}"
    base = results["interp_ic"]
    print(f"speedup over Interp+ICs: wevaled "
          f"{base / results['wevaled']:.2f}x, wevaled+state "
          f"{base / results['wevaled_state']:.2f}x")


if __name__ == "__main__":
    main()
