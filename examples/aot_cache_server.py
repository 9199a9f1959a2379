"""Warm-restart AOT via the persistent artifact cache (S6.5).

The paper's production deployment AOT-compiles the interpreter + IC
corpus once and caches the outputs keyed on module hash + request data,
so restarting a server (deploying the same image again) never repeats
the specialization work.  This example simulates exactly that: two
"server boots" of the same MiniJS program share one ``cache_dir``.

* **Boot 1 (cold)** — every residual function is specialized, the
  mid-end runs, backend source is emitted, and everything is written to
  the artifact store.
* **Boot 2 (warm restart)** — a brand-new runtime (fresh module, fresh
  engine, as after a process restart) compiles **zero** functions: all
  residual IR and emitted Python source load from disk, byte-identical
  to the cold boot's, and the served results and deterministic fuel are
  identical.

Run:

    PYTHONPATH=src python examples/aot_cache_server.py
"""

import shutil
import tempfile
import time

from repro.core.specialize import SpecializeOptions
from repro.ir import print_function
from repro.jsvm import JSRuntime

# A small "service": a handler touching objects, ICs, and arithmetic.
SERVICE_SRC = """
function handler(req) {
  var acc = 0;
  var i = 0;
  while (i < req.count) {
    acc = acc + i * req.scale;
    i = i + 1;
  }
  return acc;
}

function serve() {
  var req = {};
  req.count = 50;
  req.scale = 3;
  return handler(req);
}

print(serve());
"""


def boot(label: str, options: SpecializeOptions):
    """One server boot: build the runtime, AOT-compile (through the
    engine + the artifact store ``options.cache_dir`` names), serve one
    request."""
    start = time.perf_counter()
    rt = JSRuntime(SERVICE_SRC, "wevaled_state", options=options)
    rt.aot_compile()
    aot_seconds = time.perf_counter() - start
    vm = rt.run()
    stats = rt.compiler.engine.stats

    print(f"--- {label} ---")
    print(f"AOT compile: {aot_seconds * 1000:7.1f}ms  "
          f"({stats.requests} requests)")
    print(f"  specialized fresh:   {stats.functions_specialized}")
    print(f"  loaded from disk:    {stats.artifact_hits} residuals, "
          f"{stats.backend_source_hits} backend sources")
    print(f"  written to disk:     {stats.artifacts_written}")
    print(f"served: print -> {rt.printed}  fuel={vm.stats.fuel}")
    residuals = {p.function_name:
                 print_function(rt.module.functions[p.function_name],
                                order="id")
                 for p in rt.compiler.processed}
    return stats, rt.printed, vm.stats.fuel, residuals


def main():
    cache_dir = tempfile.mkdtemp(prefix="aot-cache-server-")
    # Engine configuration is said once, here.
    options = SpecializeOptions(backend="py", cache_dir=cache_dir)
    try:
        cold_stats, cold_out, cold_fuel, cold_ir = boot(
            "boot 1 (cold: empty artifact cache)", options)
        print()
        warm_stats, warm_out, warm_fuel, warm_ir = boot(
            "boot 2 (warm restart: same cache_dir)", options)

        print("\n--- warm-restart contract ---")
        assert warm_stats.functions_specialized == 0, \
            "warm boot must compile zero functions"
        assert warm_out == cold_out and warm_fuel == cold_fuel, \
            "warm boot must serve identical results at identical fuel"
        assert warm_ir == cold_ir, \
            "warm residual IR must be byte-identical"
        print("OK: 0 functions compiled on restart, residual IR "
              "byte-identical, served output and fuel identical.")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
