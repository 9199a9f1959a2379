"""The paper's figures, drawn in tier 1 from one sweep.

One module-scoped sweep runs each configuration the figures compare
once; every figure is a table over it, and the tables together are the
golden ``tests/golden/paper_figures.txt``: Fig. 8 (Min's sum-to-n, the
two residuals also on the py backend), Fig. 11 (the 13 MiniJS programs
under four configs), Fig. 12's VM-side tier steps, S7 (three MiniLua
programs, interpreted and AOT), S6.2 (static elided / real state sites
from the ``wevaled_state`` runtimes' ``compiler.total_stats``, and
richards' dynamic loads / stores), S6.4 (module size and function count
before and after AOT on those same runtimes; the Fig. 8 residuals by opt
pipeline) and S3.4 (minimal against naive SSA repair).

The golden holds only deterministic columns — fuel, results, printed
output, shape counts and the ratios derived from them — so a change
that moves one shows the figure diff in review, and ``--update-golden``
accepts it.  Each figure's shape asserts keep the thresholds the figures
have always been held to.  Wall clock is the ledger's
(``vm.machine.*_ns_per_fuel``, ``steady_us``), not measured here.

The same sweep pins the residual code itself: ``residual_digests.txt``
holds the size and a digest of the printed residuals of every AOT run,
so a mid-end change that keeps the bytes provably keeps them; and each
of those residuals must read back from its printed text, the form the
artifact store keeps.
"""

import dataclasses
import hashlib
import math
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.core.specialize import SpecializeOptions
from repro.core.stats import SpecializationStats
from repro.frontend import compile_source
from repro.backend import BackendError, emit_function_source
from repro.ir import parse_function, print_function
from repro.ir.parser import direct_callees
from repro.jsvm import JSRuntime
from repro.luavm import LuaRuntime
from repro.luavm.runtime import LUA_INTERP_SRC
from repro.min.harness import (
    SUM_COMPILED_SRC,
    PyMinInterpreter,
    sum_to_n_program,
)
from repro.min.interp import (
    PROGRAM_BASE,
    SPEC_SLOT_STATE,
    build_min_module,
    min_tier_entry,
    specialize_min,
)
from repro.pipeline.host import controller_for
from repro.vm import VM

from tests.helpers import check_golden, corpus_manifest, corpus_program

# Fig. 11's rows in the paper's Octane order: the corpus's ``js/``
# programs, drawn from ``js/<name>.js``.
BENCHMARK_NAMES = (
    "richards", "deltablue", "crypto", "raytrace", "earleyboyer",
    "regexp", "splay", "navierstokes", "pdfjs", "mandreel", "gameboy",
    "codeload", "box2d",
)
CONFIGS = ("noic", "interp_ic", "wevaled", "wevaled_state")
FIG12_SUBSET = ("richards", "deltablue", "splay", "crypto")
ELISION_SUBSET = ("richards", "deltablue", "raytrace", "splay", "box2d",
                  "crypto")
FIG8_N = 2000
# S7's three programs, ``lua/<name>.lua`` in the corpus.
LUA_NAMES = ("fib", "sumloop", "nested")


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

class JSRun(NamedTuple):
    printed: Tuple[str, ...]
    fuel: int
    loads: int
    stores: int


class AotShape(NamedTuple):
    """A ``wevaled_state`` runtime before and after its AOT compile."""
    size_before: int
    funcs_before: int
    size_after: int
    funcs_after: int
    js_funcs: int
    ic_stubs: int
    stats: SpecializationStats


def residual_digest(rt) -> Tuple[int, int, int, str]:
    """``(functions, instrs, blocks, sha256[:16])`` of an AOT runtime's
    residuals, printed in the order its compiler processed them."""
    funcs = [rt.module.functions[p.function_name]
             for p in rt.compiler.processed if p.error is None]
    text = "".join(print_function(func) for func in funcs)
    return (len(funcs), sum(f.num_instrs() for f in funcs),
            sum(f.num_blocks() for f in funcs),
            hashlib.sha256(text.encode()).hexdigest()[:16])


def _emitted(func, module) -> str:
    try:
        return emit_function_source(func, module)[0]
    except BackendError as exc:
        return f"unsupported: {exc}"


def round_trip_misses(rt) -> List[str]:
    """The residuals ``residual_digest`` hashes whose printed text (either
    order) does not parse back to itself, whose parsed form emits other
    Python than the one in memory, or whose direct callees read from the
    text (``direct_callees``, what helper search uses on a residual
    still held as text) are not the parsed body's ``call`` targets."""
    misses = []
    for p in rt.compiler.processed:
        if p.error is not None:
            continue
        func = rt.module.functions[p.function_name]
        text = print_function(func, order="id")
        parsed = parse_function(text, rt.module)
        calls = {instr.imm for block in parsed.blocks.values()
                 for instr in block.instrs if instr.op == "call"}
        if any(print_function(parsed, order=order) !=
               print_function(func, order=order) for order in ("id", "rpo")) \
                or _emitted(parsed, rt.module) != _emitted(func, rt.module) \
                or set(direct_callees(text)) != calls:
            misses.append(p.function_name)
    return misses


def _record_residuals(rt, run: str, residuals: Dict[str, tuple],
                      round_trips: Dict[str, List[str]]) -> None:
    residuals[run] = residual_digest(rt)
    round_trips[run] = round_trip_misses(rt)


def _run_js(rt: JSRuntime) -> JSRun:
    vm = rt.run()
    return JSRun(tuple(rt.printed), vm.stats.fuel, vm.stats.loads,
                 vm.stats.stores)


def _js_sweep(digests: Dict[str, tuple], round_trips: Dict[str, list]):
    runs: Dict[str, Dict[str, JSRun]] = {}
    shapes: Dict[str, AotShape] = {}
    for name in BENCHMARK_NAMES:
        runs[name] = {}
        for config in CONFIGS:
            rt = JSRuntime(corpus_program(f"js/{name}.js"), config)
            before = rt.module.code_size(), len(rt.module.functions)
            runs[name][config] = _run_js(rt)
            if config in ("wevaled", "wevaled_state"):
                _record_residuals(rt, f"{name}/{config}", digests,
                                  round_trips)
            if config == "wevaled_state":
                shapes[name] = AotShape(
                    *before, rt.module.code_size(),
                    len(rt.module.functions), len(rt.compiled.functions),
                    len(rt.corpus), rt.compiler.total_stats)
    return runs, shapes


def _lua_sweep(digests: Dict[str, tuple], round_trips: Dict[str, list]):
    """``name -> (interp output, aot output, interp fuel, aot fuel)``."""
    results = {}
    for name in LUA_NAMES:
        rt = LuaRuntime(corpus_program(f"lua/{name}.lua"))
        interp = rt.run_interpreted()
        interp_out = list(rt.printed)
        rt.printed.clear()
        rt.aot_compile()
        aot = rt.run_aot()
        _record_residuals(rt, f"lua/{name}/aot", digests, round_trips)
        results[name] = (interp_out, list(rt.printed), interp.stats.fuel,
                         aot.stats.fuel)
    return results


def fig8_runs(n: int = FIG8_N, backend: str = "py"):
    """``config -> (result, fuel)``; the host interpreter has no fuel.
    Both residuals compile as one engine batch ("promote everything at
    startup"); the state variant's profile key is its own slot.
    ``backend="py"`` adds ``wevaled_py`` / ``wevaled_state_py``: the
    same residuals through the tier-2 Python backend."""
    program = sum_to_n_program(n)
    module = build_min_module(program)
    compile_source(SUM_COMPILED_SRC).add_to_module(module)
    controller = controller_for(module, [
        min_tier_entry(program, use_intrinsics=False, name="min_wevaled"),
        dataclasses.replace(
            min_tier_entry(program, use_intrinsics=True,
                           name="min_wevaled_state"),
            key=SPEC_SLOT_STATE)],
        SpecializeOptions(backend=backend))
    wevaled, wevaled_state = controller.promote_all()
    compiled = dict(controller.compiler.backend_functions)
    args = [PROGRAM_BASE, len(program.words), 0]

    def on_vm(func, func_args, py_backend=False):
        vm = VM(module)
        if py_backend:
            vm.install_compiled(compiled)
        return vm.call(func, func_args), vm.stats.fuel

    runs = {
        "compiled": on_vm("sum_compiled", [n]),
        "py_interp": (PyMinInterpreter(program).run(0), None),
        "vm_interp": on_vm("min_interp", args),
        "wevaled": on_vm(wevaled, args),
        "wevaled_state": on_vm(wevaled_state, args),
    }
    if backend == "py":
        assert set(compiled) == {wevaled, wevaled_state}
        runs["wevaled_py"] = on_vm(wevaled, args, py_backend=True)
        runs["wevaled_state_py"] = on_vm(wevaled_state, args,
                                         py_backend=True)
    return runs


def _min_residuals():
    """``(n, variant, pipeline) -> (result, instrs, blocks, params)``."""
    rows = {}
    for n in (100, 1000):
        program = sum_to_n_program(n)
        for variant, use_intrinsics in (("plain", False), ("state", True)):
            for pipeline, opt_config in (("O0", "none"),
                                         ("default", "default")):
                module = build_min_module(program)
                func = specialize_min(
                    module, program, use_intrinsics,
                    options=SpecializeOptions(opt_config=opt_config),
                    name=f"min_{variant}_{pipeline}")
                result = VM(module).call(
                    func.name, [PROGRAM_BASE, len(program.words), 0])
                rows[(n, variant, pipeline)] = (
                    result, func.num_instrs(), func.num_blocks(),
                    func.total_block_params())
    return rows


def _ablation():
    """``mode -> (raw params, post-opt params, blocks, fuel, result)``."""
    program = sum_to_n_program(500)
    results = {}
    for mode in ("minimal", "naive"):
        request = SpecializationRequest(
            "min_interp",
            [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
             SpecializedConst(len(program.words)), Runtime()],
            specialized_name=f"min_{mode}")
        raw = specialize(build_min_module(program), request,
                         SpecializeOptions(ssa_mode=mode, opt_config="none"))
        module = build_min_module(program)
        opt = specialize(module, request, SpecializeOptions(ssa_mode=mode))
        module.add_function(opt)
        vm = VM(module)
        value = vm.call(opt.name, [PROGRAM_BASE, len(program.words), 0])
        results[mode] = (raw.total_block_params(), opt.total_block_params(),
                         opt.num_blocks(), vm.stats.fuel, value)
    return results


class Sweep(NamedTuple):
    js: Dict[str, Dict[str, JSRun]]
    aot: Dict[str, AotShape]
    # richards on ``wevaled`` with the mid-end off: the frame traffic
    # the state intrinsics remove on their own (S6.2).
    raw_wevaled: JSRun
    lua: Dict[str, tuple]
    fig8: Dict[str, tuple]
    min_residuals: Dict[tuple, tuple]
    ablation: Dict[str, tuple]
    # ``residual_digest`` of every AOT runtime above, by run.
    residuals: Dict[str, tuple]
    # ``round_trip_misses`` of the same runs.
    round_trips: Dict[str, List[str]]


@pytest.fixture(scope="module")
def sweep() -> Sweep:
    residuals: Dict[str, tuple] = {}
    round_trips: Dict[str, List[str]] = {}
    js, aot = _js_sweep(residuals, round_trips)
    raw_wevaled = _run_js(JSRuntime(
        corpus_program("js/richards.js"), "wevaled",
        options=SpecializeOptions(opt_config="none")))
    return Sweep(js, aot, raw_wevaled, _lua_sweep(residuals, round_trips),
                 fig8_runs(), _min_residuals(), _ablation(), residuals,
                 round_trips)


# ---------------------------------------------------------------------------
# The tables.
# ---------------------------------------------------------------------------

def table(title: str, headers, rows) -> str:
    cells = [list(headers)] + [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    cells.insert(1, ["-" * width for width in widths])
    return "\n".join([title] + [
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
        for row in cells])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig8_table(s: Sweep) -> str:
    base = s.fig8["compiled"][1]
    return table(
        f"Fig. 8 analog — Min (sum 0..{FIG8_N})",
        ["config", "result", "fuel", "fuel vs compiled"],
        [[name, result, "-" if fuel is None else fuel,
          "-" if fuel is None else f"{fuel / base:.2f}x"]
         for name, (result, fuel) in s.fig8.items()])


def fig11_ratios(s: Sweep, config: str) -> Dict[str, float]:
    """Speedup of ``config`` over Interp+ICs, in fuel, per program."""
    return {name: s.js[name]["interp_ic"].fuel / s.js[name][config].fuel
            for name in BENCHMARK_NAMES}


def fig11_table(s: Sweep) -> str:
    wev, state = fig11_ratios(s, "wevaled"), fig11_ratios(s, "wevaled_state")
    rows = [[name, *(s.js[name][c].fuel for c in CONFIGS),
             f"{wev[name]:.2f}x", f"{state[name]:.2f}x"]
            for name in BENCHMARK_NAMES]
    rows.append(["geomean", "", "", "", "", f"{geomean(wev.values()):.2f}x",
                 f"{geomean(state.values()):.2f}x"])
    return table("Fig. 11 analog — MiniJS Octane suite (fuel; speedups vs "
                 "Interp+ICs)",
                 ["benchmark", "noic", "interp_ic", "wevaled",
                  "wevaled+state", "wev x", "wev+state x"], rows)


def fig12_steps(s: Sweep) -> Dict[str, float]:
    def step(slow, fast):
        return geomean(s.js[n][slow].fuel / s.js[n][fast].fuel
                       for n in FIG12_SUBSET)
    return {"generic -> interp+ICs": step("noic", "interp_ic"),
            "interp+ICs -> wevaled+state": step("interp_ic",
                                                "wevaled_state")}


def fig12_table(s: Sweep) -> str:
    return table("Fig. 12 analog — tier progression on the VM (geomean "
                 f"over {', '.join(FIG12_SUBSET)})",
                 ["platform", "step", "speedup"],
                 [["VM ('Wasm')", step, f"{ratio:.2f}x"]
                  for step, ratio in fig12_steps(s).items()])


def lua_ratios(s: Sweep) -> Dict[str, float]:
    return {name: interp / aot
            for name, (_, _, interp, aot) in s.lua.items()}


def lua_annotations() -> Tuple[int, int]:
    """(lines carrying a weval annotation, non-blank lines) of the
    MiniLua interpreter."""
    lines = [line for line in LUA_INTERP_SRC.splitlines() if line.strip()]
    return sum("weval_" in line for line in lines), len(lines)


def lua_table(s: Sweep) -> str:
    ratios = lua_ratios(s)
    rows = [[name, out[0], interp, aot, f"{ratios[name]:.2f}x"]
            for name, (out, _, interp, aot) in s.lua.items()]
    rows.append(["geomean", "", "", "", f"{geomean(ratios.values()):.2f}x"])
    return (table("S7 analog — MiniLua interpreted vs wevaled (context "
                  "annotations only)",
                  ["benchmark", "output", "interp fuel", "aot fuel",
                   "speedup"], rows)
            + "\ninterpreter lines with a weval annotation: "
              "%d of %d" % lua_annotations())


def elision_totals(s: Sweep) -> SpecializationStats:
    total = SpecializationStats()
    for name in ELISION_SUBSET:
        total.merge(s.aot[name].stats)
    return total


def traffic_runs(s: Sweep) -> Dict[str, JSRun]:
    richards = s.js["richards"]
    return {"wevaled (opt none)": s.raw_wevaled,
            "wevaled": richards["wevaled"],
            "wevaled+state": richards["wevaled_state"]}


def elision_table(s: Sweep) -> str:
    t = elision_totals(s)
    rows = [
        ["stack loads", t.stack_loads_elided, t.stack_loads_real,
         f"{t.stack_load_elision_rate():.0%}"],
        ["stack stores", t.stack_stores_elided, t.stack_stores_real,
         f"{t.stack_store_elision_rate():.0%}"],
        ["local loads", t.local_loads_elided, t.local_loads_real,
         f"{t.local_load_elision_rate():.0%}"],
        ["local stores", t.local_stores_elided, t.local_stores_real,
         f"{t.local_store_elision_rate():.0%}"],
    ]
    return "\n\n".join([
        table("S6.2 analog — state-intrinsic elision (static sites, suite "
              "subset)", ["kind", "elided", "real", "elision rate"], rows),
        table("S6.2 analog — richards dynamic memory traffic",
              ["config", "loads", "stores"],
              [[config, run.loads, run.stores]
               for config, run in traffic_runs(s).items()])])


def code_size_table(s: Sweep) -> str:
    return "\n\n".join([
        table("S6.4 analog — module size before/after weval AOT",
              ["workload", "size before", "funcs", "size after",
               "funcs after", "growth", "JS funcs", "IC stubs"],
              [[name, a.size_before, a.funcs_before, a.size_after,
                a.funcs_after, f"{a.size_after / a.size_before:.2f}x",
                a.js_funcs, a.ic_stubs] for name, a in s.aot.items()]),
        table("S6.4 analog — Fig. 8 Min residual code size by opt pipeline",
              ["n", "variant", "pipeline", "instrs", "blocks",
               "block params"],
              [[*key, *shape] for key, (_, *shape)
               in s.min_residuals.items()])])


def ablation_table(s: Sweep) -> str:
    return table("S3.4 ablation — block parameters, naive vs minimal",
                 ["mode", "raw params", "post-opt params", "blocks", "fuel"],
                 [[mode, *r[:4]] for mode, r in s.ablation.items()])


def test_figures_match_golden(request, sweep):
    check_golden(request, "paper_figures", "\n\n".join(
        figure(sweep) for figure in (
            fig8_table, fig11_table, fig12_table, lua_table, elision_table,
            code_size_table, ablation_table)))


def test_residuals_match_golden(request, sweep):
    """The residual code behind the figures, byte for byte: a mid-end
    change that claims to keep the bytes keeps this golden."""
    check_golden(request, "residual_digests", table(
        "Residual digests — every AOT run of the sweep",
        ["run", "functions", "instrs", "blocks", "sha256[:16]"],
        [[run, *digest] for run, digest in sweep.residuals.items()]))


def test_residuals_read_back_from_their_text(sweep):
    """The artifact store keeps a residual as its printed text: on every
    residual above, print ∘ parse is the identity and the parsed
    function emits byte-identical Python."""
    assert len(sweep.round_trips) == len(sweep.residuals)
    assert {run: misses for run, misses in sweep.round_trips.items()
            if misses} == {}


# ---------------------------------------------------------------------------
# The shape of each figure.
# ---------------------------------------------------------------------------

def test_fig8_min(sweep):
    """The interpreter is many times compiled code, weval removes most of
    the gap, the register intrinsics land within ~1% of compiled code;
    the py backend runs the same fuel."""
    assert {result for result, _ in sweep.fig8.values()} \
        == {FIG8_N * (FIG8_N + 1) // 2}
    fuel = {name: f for name, (_, f) in sweep.fig8.items()}
    base, interp = fuel["compiled"], fuel["vm_interp"]
    wevaled, state = fuel["wevaled"], fuel["wevaled_state"]
    assert interp > 5 * base            # interpretation overhead is large
    assert wevaled < interp / 2         # weval removes dispatch
    assert state < wevaled              # state opt removes memory traffic
    assert state <= base * 1.01         # within ~1% of compiled (S5)
    assert fuel["wevaled_py"] == wevaled
    assert fuel["wevaled_state_py"] == state


def test_fig11_rows_are_the_js_corpus():
    """Fig. 11 has one row per ``js/`` program of the corpus: a program
    added there without a row fails here."""
    assert sorted(f"js/{name}.js" for name in BENCHMARK_NAMES) == sorted(
        rel for rel in corpus_manifest() if rel.startswith("js/"))


def test_fig11_octane(sweep):
    """Every configuration prints the same and AOT cuts fuel everywhere;
    wevaled+state-opt is a big geomean win over Interp+ICs, above plain
    wevaled, largest on the hot OO programs, with RegExp and CodeLoad the
    flat outliers."""
    for name in BENCHMARK_NAMES:
        outputs = {run.printed for run in sweep.js[name].values()}
        assert len(outputs) == 1, f"{name}: configs disagree: {outputs}"
    wev = fig11_ratios(sweep, "wevaled")
    state = fig11_ratios(sweep, "wevaled_state")
    assert all(ratio > 1 for ratio in state.values())
    assert geomean(state.values()) > 1.5
    assert geomean(state.values()) > geomean(wev.values())
    assert state["regexp"] < 1.5
    assert state["codeload"] < 1.7
    assert min(state[n] for n in ("richards", "deltablue", "box2d")) > 2.0


def test_fig11_state_opt_factor(sweep):
    """The wevaled -> wevaled+state step (paper: ~1.37x geomean)."""
    assert geomean(sweep.js[n]["wevaled"].fuel
                   / sweep.js[n]["wevaled_state"].fuel
                   for n in BENCHMARK_NAMES) > 1.15


def test_fig12_vm_steps(sweep):
    """Each tier step on the VM platform is a real improvement, and
    weval's is the large one."""
    steps = fig12_steps(sweep)
    assert steps["generic -> interp+ICs"] > 1.0
    assert steps["interp+ICs -> wevaled+state"] > 1.5


def test_lua_s7(sweep):
    """Every MiniLua program prints the same AOT and speeds up: the
    dispatch-removal-only territory of the paper's 1.84x."""
    for name, (interp_out, aot_out, _, _) in sweep.lua.items():
        assert aot_out == interp_out, name
    ratios = lua_ratios(sweep)
    assert all(r > 1.3 for r in ratios.values())
    assert geomean(ratios.values()) > 1.8


def test_lua_annotation_overhead():
    """S7's port is a +173/-57-line diff; the MiniLua interpreter's weval
    annotations are similarly few."""
    annotated, total = lua_annotations()
    assert 0 < annotated <= 25
    assert annotated / total < 0.2


def test_state_elision(sweep):
    """Stack elision is high; locals are flushed at safepoints, so their
    store elision is no higher than the stack's."""
    t = elision_totals(sweep)
    assert t.stack_load_elision_rate() > 0.5
    assert t.stack_store_elision_rate() > 0.3
    assert t.local_store_elision_rate() <= t.stack_store_elision_rate() + 0.05


def test_state_opt_reduces_dynamic_memory_traffic(sweep):
    """On richards the state intrinsics issue far fewer real loads and
    stores: strongly fewer than the unoptimized ``wevaled`` frame (what
    the intrinsics alone buy), and still fewer than the mid-end-optimized
    one, whose load forwarding must respect aliasing the virtualized
    state does not."""
    runs = traffic_runs(sweep)
    state, raw = runs["wevaled+state"], runs["wevaled (opt none)"]
    opt = runs["wevaled"]
    assert raw.printed == state.printed
    assert state.loads < raw.loads * 0.5
    assert state.stores < raw.stores * 0.1
    assert state.loads < opt.loads * 0.85
    assert state.stores < opt.stores * 0.1


def test_code_size(sweep):
    """AOT appends one function per JS function and per IC-corpus stub,
    and grows the module by a bounded factor (paper: ~6.5x)."""
    for name, a in sweep.aot.items():
        assert a.funcs_after == a.funcs_before + a.js_funcs + a.ic_stubs, \
            name
        assert a.size_before < a.size_after < a.size_before * 40, name


def test_min_residual_code_size(sweep):
    """The mid-end never grows the Fig. 8 residuals and strictly shrinks
    the plain variant, where address math and re-loads dominate."""
    rows = sweep.min_residuals
    for (n, _, _), (result, *_) in rows.items():
        assert result == n * (n + 1) // 2
    for n in (100, 1000):
        for variant in ("plain", "state"):
            assert rows[(n, variant, "default")][1] \
                <= rows[(n, variant, "O0")][1]
        assert rows[(n, "plain", "default")][1] \
            < rows[(n, "plain", "O0")][1]


def test_ssa_repair_ablation(sweep):
    """Naive max-SSA passes several-fold more block parameters than the
    minimal cut (paper: up to 5x), and both compute the same."""
    minimal, naive = sweep.ablation["minimal"], sweep.ablation["naive"]
    assert naive[-1] == minimal[-1] == sum(range(501))
    assert naive[0] >= 3 * max(minimal[0], 1)
