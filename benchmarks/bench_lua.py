"""S7: MiniLua interpreter-heavy benchmarks, interpreted vs wevaled.

Paper: a three-hour port of PUC-Rio Lua reaches 1.84x on trivial
interpreter-heavy benchmarks with context annotations only (no state
intrinsics).  Shape targets: every benchmark speeds up; the factor is
meaningful but smaller than MiniJS's state-opt numbers, since frame
registers stay in memory.
"""

import pytest

from conftest import format_table, geomean, write_result
from repro.luavm import LuaRuntime

PROGRAMS = {
    "fib": """
function fib(n)
  if n < 2 then return n end
  return fib(n-1) + fib(n-2)
end
print(fib(14))
""",
    "sumloop": """
function sumloop(n)
  local total = 0
  for i = 1, n do
    total = total + i * i
  end
  return total
end
print(sumloop(800))
""",
    "nested": """
function inner(a, b)
  return a * b + a - b
end
function outer(n)
  local acc = 0
  for i = 1, n do
    for j = 1, 5 do
      acc = acc + inner(i, j)
    end
  end
  return acc % 1000000
end
print(outer(120))
""",
}


@pytest.fixture(scope="module")
def lua_results():
    results = {}
    for name, source in PROGRAMS.items():
        rt = LuaRuntime(source)
        vm_interp = rt.run_interpreted()
        interp_out = list(rt.printed)
        rt.printed.clear()
        rt.aot_compile()
        vm_aot = rt.run_aot()
        assert rt.printed == interp_out, name
        results[name] = (interp_out, vm_interp.stats.fuel,
                         vm_aot.stats.fuel)
    return results


def test_lua_speedup_table(benchmark, lua_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    ratios = []
    for name, (out, interp, aot) in lua_results.items():
        ratio = interp / aot
        ratios.append(ratio)
        rows.append([name, out[0], interp, aot, f"{ratio:.2f}x"])
    rows.append(["geomean", "", "", "", f"{geomean(ratios):.2f}x"])
    write_result("lua",
                 "S7 analog — MiniLua interpreted vs wevaled (context "
                 "annotations only)\n" + format_table(
                     ["benchmark", "output", "interp fuel", "aot fuel",
                      "speedup"], rows))
    # Shape: all benchmarks improve; dispatch-removal-only territory
    # (paper: 1.84x), clearly positive but not unbounded.
    assert all(r > 1.3 for r in ratios)
    assert geomean(ratios) > 1.8


def test_lua_annotation_overhead(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """S7 reports a +173/-57-line diff for the whole port.  Our
    interpreter's weval annotations are similarly tiny: count them."""
    from repro.luavm.runtime import LUA_INTERP_SRC
    annotations = [l for l in LUA_INTERP_SRC.splitlines()
                   if "weval_" in l]
    total = [l for l in LUA_INTERP_SRC.splitlines() if l.strip()]
    assert 0 < len(annotations) <= 25
    assert len(annotations) / len(total) < 0.2


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lua_wall_clock(benchmark, name):
    rt = LuaRuntime(PROGRAMS[name])
    rt.aot_compile()
    benchmark.pedantic(rt.run_aot, rounds=2, iterations=1)
