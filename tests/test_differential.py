"""Differential tests: generic interpretation vs. specialized residual
code on seeded random programs — across both execution backends.

Fifty seeded random programs across the three guest frontends (Min ISA,
MiniLua, MiniJS) are each run three ways — under the generic interpreter
on the VM, as the specialized (first Futamura projection) residual
function interpreted by the IR VM, and as the same residual compiled to
native Python by the tier-2 backend (:mod:`repro.backend`) — and must
produce identical results, prints, and traps.  The backend comparison
runs on **both emit legs** (:data:`tests.helpers.EMIT_LEGS`: the
structured emission production runs, and the whole-function dispatch
region it falls back to past its nesting budget, forced by lowering the
budget), so the corpus is a three-way differential: VM vs structured vs
forced fallback, with deterministic fuel compared wherever the flow
exposes it.  Every comparison is made at two optimization
levels: ``-O0`` (raw specializer output, no mid-end) and the full
default pipeline, so a miscompiling pass shows up as a divergence
between levels, a specializer bug shows up at both, and a backend bug
shows up as a VM-vs-py divergence at either level.

The **irreducible tier** builds seeded multi-entry cycles directly in
IR (no frontend emits them): the structured emitter must carve them
into per-region dispatch fallbacks (``dispatch_regions >= 1``) and
still agree with the VM and the forced fallback on results, traps,
``OutOfFuel``, and exact fuel.

The **tiered tier** runs the same seeded programs under profile-guided
dynamic tier-up (:mod:`repro.pipeline.tiering`) at the two degenerate
thresholds: ``float("inf")`` never promotes, so prints/traps/fuel must
be identical to the generic interpreter, and ``1`` promotes at the
first call boundary, so they must be identical to the pure-AOT flow —
the tiering machinery may move *when* compilation happens, never what
executes.  The Min tier additionally arms guarded value speculation
with an input that changes mid-workload, exercising the guard-failure
deopt path (identical results, exactly one demotion).

The **inlined tier** drives seeded hot call chains through a
first-class dispatcher under speculative inlining
(:mod:`repro.opt.inline`): inlining-off must stay bit-identical to the
existing staged tiered flow, inlining-on must preserve prints exactly
(some seeds switch callees mid-run, so the polymorphic site guard's
miss/demote path is exercised), and both emit legs must agree on fuel
within each configuration.

The generators are structured (bounded counted loops, forward skips,
guarded conditionals) so every program terminates; MiniLua programs
include integer division and remainder whose divisors may reach zero,
exercising trap equivalence.
"""

import random

import pytest

from repro.backend import emit_function_source
from repro.core.specialize import SpecializeOptions
from repro.jsvm import JSRuntime
from repro.luavm.runtime import LuaRuntime
from repro.min.harness import PyMinInterpreter, make_tiered_min
from repro.min.interp import PROGRAM_BASE, build_min_module, specialize_min
from repro.min.isa import assemble
from repro.vm import VM
from repro.vm.machine import VMTrap

from tests.helpers import EMIT_LEGS, IRText, compile_legs, emit_leg, target

N_MIN, N_LUA, N_JS = 24, 20, 6  # 50 programs total

OPT_LEVELS = {
    "O0": SpecializeOptions(opt_config="none", backend="vm"),
    "full": SpecializeOptions(backend="vm"),
}

TIERED_OPTIONS = SpecializeOptions(backend="vm")
INF = float("inf")


# ---------------------------------------------------------------------------
# Min ISA
# ---------------------------------------------------------------------------

def random_min_program(rng: random.Random):
    """A random Min program with a bounded counted loop (register 7),
    forward skips, and input-dependent data flow (input lands in r5)."""
    lines = [("STORE_REG", 5)]  # capture the input accumulator
    for reg in range(4):
        lines.append(("LOAD_IMMEDIATE", rng.randint(0, 1 << 16)))
        lines.append(("STORE_REG", reg))
    lines.append(("LOAD_IMMEDIATE", rng.randint(1, 5)))
    lines.append(("STORE_REG", 7))
    lines.append(("label", "loop"))
    fresh = iter(range(1000))
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.15:
            lines.append(("LOAD_IMMEDIATE", rng.randint(-50, 1000)))
        elif roll < 0.40:
            lines.append((rng.choice(("ADD", "SUB", "MUL")),
                          rng.randint(0, 3), rng.randint(0, 3)))
        elif roll < 0.55:
            lines.append(("ADD_IMMEDIATE", rng.randint(-50, 50)))
        elif roll < 0.70:
            lines.append(("LOAD_REG", rng.choice((0, 1, 2, 3, 5))))
        elif roll < 0.85:
            lines.append(("STORE_REG", rng.randint(0, 3)))
        elif roll < 0.93:
            label = f"skip{next(fresh)}"
            lines.append(("JMPNZ", label))  # input-dependent forward skip
            lines.append(("ADD", rng.randint(0, 3), rng.randint(0, 3)))
            lines.append(("label", label))
        else:
            label = f"over{next(fresh)}"
            lines.append(("JMP", label))
            lines.append(("ADD_IMMEDIATE", 999))  # skipped dead code
            lines.append(("label", label))
    lines.extend([
        ("LOAD_REG", 7),
        ("ADD_IMMEDIATE", -1),
        ("STORE_REG", 7),
        ("JMPNZ", "loop"),
        ("ADD", rng.randint(0, 3), rng.randint(0, 5)),
        ("HALT",),
    ])
    return assemble(lines)


@pytest.mark.parametrize("seed", range(N_MIN))
def test_min_differential(seed):
    rng = random.Random(0xA11CE + seed)
    program = random_min_program(rng)
    use_intrinsics = bool(seed % 2)
    inputs = (0, rng.randint(1, 99))

    module = build_min_module(program)
    expected = {}
    for value in inputs:
        expected[value] = VM(module).call(
            "min_interp", [PROGRAM_BASE, len(program.words), value])
        # The pure-Python reference interpreter must agree too.
        assert PyMinInterpreter(program).run(value) == expected[value]

    for level, options in OPT_LEVELS.items():
        spec_module = build_min_module(program)
        func = specialize_min(spec_module, program, use_intrinsics,
                              options=options, name=f"spec_{level}")
        # Any sound schedule yields these bytes only while the round cap
        # never decides them; the AOT legs of all three guests pin that.
        assert func._weval_stats.opt.fixpoint_cap_hits == 0  # noqa: SLF001
        compiled = compile_legs(func, spec_module)
        for value in inputs:
            vm = VM(spec_module)
            got = vm.call(
                func.name, [PROGRAM_BASE, len(program.words), value])
            assert got == expected[value], (
                f"seed {seed} level {level} input {value}: "
                f"specialized {got} != interpreted {expected[value]}")
            # Tier-2 backend, both emit legs: the same residual
            # compiled to Python must agree on the result *and* on
            # deterministic fuel (VM ≡ structured ≡ forced fallback).
            for mode in EMIT_LEGS:
                vm_py = VM(spec_module)
                vm_py.install_compiled({func.name: compiled[mode]})
                got_py = vm_py.call(
                    func.name, [PROGRAM_BASE, len(program.words), value])
                assert got_py == expected[value], (
                    f"seed {seed} level {level} input {value} "
                    f"mode {mode}: py-compiled {got_py} != "
                    f"interpreted {expected[value]}")
                assert vm_py.stats.fuel == vm.stats.fuel, (
                    f"seed {seed} level {level} input {value} "
                    f"mode {mode}: backend fuel {vm_py.stats.fuel} != "
                    f"VM fuel {vm.stats.fuel}")


@pytest.mark.parametrize("seed", range(N_MIN))
def test_min_tiered(seed):
    """Tiered tier: threshold ∞ ≡ interp, threshold 1 ≡ AOT (fuel and
    results), plus a guard-failure deopt exercised via speculation."""
    rng = random.Random(0xA11CE + seed)
    program = random_min_program(rng)
    use_intrinsics = bool(seed % 2)
    inputs = (0, rng.randint(1, 99))
    args = lambda value: [PROGRAM_BASE, len(program.words), value]  # noqa: E731

    # References: cumulative fuel over both inputs on one VM each.
    module = build_min_module(program)
    vm_interp = VM(module)
    expected = [vm_interp.call("min_interp", args(v)) for v in inputs]
    aot_module = build_min_module(program)
    func = specialize_min(aot_module, program, use_intrinsics,
                          options=TIERED_OPTIONS, name="spec_ref")
    vm_aot = VM(aot_module)
    aot_results = [vm_aot.call(func.name, args(v)) for v in inputs]
    assert aot_results == expected

    # Threshold ∞: pure tier 0, identical to the generic interpreter.
    vm_inf, controller_inf = make_tiered_min(
        program, threshold=INF, use_intrinsics=use_intrinsics,
        options=TIERED_OPTIONS)
    assert [vm_inf.call("min_interp", args(v)) for v in inputs] == expected
    assert vm_inf.stats.fuel == vm_interp.stats.fuel, (
        f"seed {seed}: tiered-inf fuel {vm_inf.stats.fuel} != interp "
        f"{vm_interp.stats.fuel}")
    assert controller_inf.stats.promotions == 0

    # Threshold 1: promoted at the first call boundary, identical to AOT.
    vm_one, controller_one = make_tiered_min(
        program, threshold=1, use_intrinsics=use_intrinsics,
        options=TIERED_OPTIONS)
    assert [vm_one.call("min_interp", args(v)) for v in inputs] == expected
    assert vm_one.stats.fuel == vm_aot.stats.fuel, (
        f"seed {seed}: tiered-1 fuel {vm_one.stats.fuel} != AOT "
        f"{vm_aot.stats.fuel}")
    assert controller_one.stats.promotions == 1

    # Guard-failure deopt: speculate on the input seen in the first two
    # calls, then change it — the guard must fail, the call must fall
    # back to the generic interpreter with identical results, and the
    # function must demote (and respecialize) exactly once.
    stable, changed = inputs[1], inputs[1] + 1
    vm_spec, controller = make_tiered_min(
        program, threshold=2, speculate=True,
        use_intrinsics=use_intrinsics, options=TIERED_OPTIONS)
    plain = VM(build_min_module(program))
    for value in (stable, stable, changed, changed):
        got = vm_spec.call("min_interp", args(value))
        want = plain.call("min_interp", args(value))
        assert got == want, (
            f"seed {seed}: speculative tiered {got} != interp {want} "
            f"for input {value}")
    assert controller.stats.speculative_promotions == 1
    assert controller.stats.deopts >= 1
    assert controller.stats.demotions == 1  # demotes exactly once


# ---------------------------------------------------------------------------
# MiniLua
# ---------------------------------------------------------------------------

def _lua_expr(rng: random.Random, names, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return str(rng.randint(-9, 9))
        return rng.choice(names)
    op = rng.choice(("+", "-", "*", "+", "-", "*", "/", "%"))
    left = _lua_expr(rng, names, depth - 1)
    right = _lua_expr(rng, names, depth - 1)
    # Division and remainder keep their random (possibly zero) divisors:
    # trap equivalence is part of the differential contract.
    return f"({left} {op} {right})"


def _lua_cond(rng: random.Random, names) -> str:
    cmp_op = rng.choice(("<", "<=", ">", ">=", "==", "~="))
    base = (f"{_lua_expr(rng, names, 1)} {cmp_op} "
            f"{_lua_expr(rng, names, 1)}")
    roll = rng.random()
    if roll < 0.2:
        return f"not ({base})"
    if roll < 0.4:
        other = (f"{rng.choice(names)} "
                 f"{rng.choice(('<', '~=', '>='))} {rng.randint(-5, 5)}")
        return f"({base}) {rng.choice(('and', 'or'))} ({other})"
    return base


def _lua_stmts(rng: random.Random, names, counters, depth: int):
    lines = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.45 or depth <= 0:
            lines.append(f"{rng.choice(names)} = "
                         f"{_lua_expr(rng, names, 2)}")
        elif roll < 0.6:
            lines.append(f"print({_lua_expr(rng, names, 2)})")
        elif roll < 0.8:
            body = _lua_stmts(rng, names, counters, depth - 1)
            orelse = _lua_stmts(rng, names, counters, depth - 1)
            lines.append(f"if {_lua_cond(rng, names)} then")
            lines.extend("  " + s for s in body)
            lines.append("else")
            lines.extend("  " + s for s in orelse)
            lines.append("end")
        elif roll < 0.9 and counters:
            counter = counters.pop()
            body = _lua_stmts(rng, names, counters, depth - 1)
            lines.append(f"{counter} = {rng.randint(1, 4)}")
            lines.append(f"while {counter} > 0 do")
            lines.extend("  " + s for s in body)
            lines.append(f"  {counter} = {counter} - 1")
            lines.append("end")
        else:
            var = f"k{rng.randint(0, 99)}"
            body = _lua_stmts(rng, names, counters, depth - 1)
            lines.append(f"for {var} = 1, {rng.randint(1, 4)} do")
            lines.extend("  " + s for s in body)
            lines.append("end")
    return lines


def random_lua_chunk(rng: random.Random) -> str:
    names = ["a", "b", "c", "d"]
    counters = ["t1", "t2"]
    lines = []
    if rng.random() < 0.6:
        lines.append("function helper(x, y)")
        lines.append(f"  local r = {_lua_expr(rng, ['x', 'y'], 2)}")
        lines.append(f"  if {_lua_cond(rng, ['x', 'y', 'r'])} then")
        lines.append(f"    r = {_lua_expr(rng, ['x', 'y', 'r'], 1)}")
        lines.append("  end")
        lines.append("  return r")
        lines.append("end")
        names.append("helper_result")
    for name in names:
        lines.append(f"local {name} = {rng.randint(-9, 9)}")
    for counter in counters:
        lines.append(f"local {counter} = 0")
    lines.extend(_lua_stmts(rng, names[:4], list(counters), 2))
    if "helper_result" in names:
        lines.append(f"helper_result = helper({_lua_expr(rng, names[:4], 1)},"
                     f" {_lua_expr(rng, names[:4], 1)})")
    lines.append(f"print({' + '.join(names)})")
    return "\n".join(lines)


def _run_lua(source: str, aot: bool, options=None, backend=None):
    runtime = LuaRuntime(source)
    try:
        if aot:
            runtime.aot_compile(options)
            assert runtime.compiler.total_stats.opt.fixpoint_cap_hits == 0
            vm = runtime.run_aot(backend)
        else:
            vm = runtime.run_interpreted()
        return ("ok", vm.result, tuple(runtime.printed))
    except VMTrap:
        return ("trap", None, tuple(runtime.printed))


@pytest.mark.parametrize("seed", range(N_LUA))
def test_lua_differential(seed):
    rng = random.Random(0xB0B + seed)
    source = random_lua_chunk(rng)
    expected = _run_lua(source, aot=False)
    for level, options in OPT_LEVELS.items():
        got = _run_lua(source, aot=True, options=options)
        assert got == expected, (
            f"seed {seed} level {level}:\n{source}\n"
            f"interp={expected!r} aot={got!r}")
        for mode in EMIT_LEGS:
            with emit_leg(mode):
                got_py = _run_lua(source, aot=True, options=options,
                                  backend="py")
            assert got_py == expected, (
                f"seed {seed} level {level} backend=py mode {mode}:\n"
                f"{source}\ninterp={expected!r} aot={got_py!r}")


def _run_lua_mode(source: str, mode: str, threshold: float = None):
    """Run a chunk interp / aot / tiered; returns (status, result,
    prints, fuel) with fuel None on trap (the VM is unreachable)."""
    runtime = LuaRuntime(source, options=TIERED_OPTIONS)
    try:
        if mode == "interp":
            vm = runtime.run_interpreted()
        elif mode == "aot":
            runtime.aot_compile()
            vm = runtime.run_aot()
        else:
            vm = runtime.run_tiered(threshold=threshold)
        return ("ok", vm.result, tuple(runtime.printed), vm.stats.fuel)
    except VMTrap:
        return ("trap", None, tuple(runtime.printed), None)


@pytest.mark.parametrize("seed", range(N_LUA))
def test_lua_tiered(seed):
    """Tiered tier for MiniLua: threshold ∞ ≡ interp and threshold 1 ≡
    AOT, including prints, traps, and deterministic fuel."""
    rng = random.Random(0xB0B + seed)
    source = random_lua_chunk(rng)
    interp = _run_lua_mode(source, "interp")
    aot = _run_lua_mode(source, "aot")
    tiered_inf = _run_lua_mode(source, "tiered", threshold=INF)
    tiered_one = _run_lua_mode(source, "tiered", threshold=1)
    assert tiered_inf == interp, (
        f"seed {seed}:\n{source}\ninterp={interp!r} "
        f"tiered-inf={tiered_inf!r}")
    assert tiered_one == aot, (
        f"seed {seed}:\n{source}\naot={aot!r} tiered-1={tiered_one!r}")


# ---------------------------------------------------------------------------
# MiniJS
# ---------------------------------------------------------------------------

def _js_expr(rng: random.Random, names, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.4:
            return str(rng.randint(-9, 9))
        return rng.choice(names)
    op = rng.choice(("+", "-", "*"))
    return (f"({_js_expr(rng, names, depth - 1)} {op} "
            f"{_js_expr(rng, names, depth - 1)})")


def random_js_source(rng: random.Random) -> str:
    names = ["a", "b", "c"]
    lines = [f"var {name} = {rng.randint(-9, 9)};" for name in names]
    lines.append(f"var o = {{x: {rng.randint(0, 9)}, "
                 f"y: {rng.randint(0, 9)}}};")
    props = ["o.x", "o.y"]
    everything = names + props
    for index in range(rng.randint(3, 6)):
        roll = rng.random()
        if roll < 0.35:
            lines.append(f"{rng.choice(names)} = "
                         f"{_js_expr(rng, everything, 2)};")
        elif roll < 0.55:
            lines.append(f"{rng.choice(props)} = "
                         f"{_js_expr(rng, everything, 2)};")
        elif roll < 0.7:
            lines.append(f"print({_js_expr(rng, everything, 2)});")
        elif roll < 0.85:
            cmp_op = rng.choice(("<", "<=", ">", "!=="))
            target = rng.choice(names)
            lines.append(
                f"if ({rng.choice(everything)} {cmp_op} "
                f"{rng.choice(everything)}) "
                f"{{ {target} = {_js_expr(rng, everything, 1)}; }} "
                f"else {{ {target} = {_js_expr(rng, everything, 1)}; }}")
        else:
            counter = f"i{index}"
            lines.append(f"var {counter} = {rng.randint(1, 4)};")
            lines.append(f"while ({counter} > 0) {{ "
                         f"{rng.choice(names)} = "
                         f"{_js_expr(rng, everything, 1)}; "
                         f"{counter} = {counter} - 1; }}")
    lines.append("print(a + b + c + o.x + o.y);")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(N_JS))
def test_js_differential(seed):
    rng = random.Random(0xCAFE + seed)
    source = random_js_source(rng)
    reference = JSRuntime(source, "interp_ic")
    reference.run()
    config = "wevaled_state" if seed % 2 else "wevaled"
    for level, options in OPT_LEVELS.items():
        runtime = JSRuntime(source, config, options=options)
        vm = runtime.run()
        assert runtime.compiler.total_stats.opt.fixpoint_cap_hits == 0
        assert runtime.printed == reference.printed, (
            f"seed {seed} config {config} level {level}:\n{source}\n"
            f"interp={reference.printed!r} aot={runtime.printed!r}")
        # Tier-2 backend over the same snapshot, both emit legs:
        # identical prints and identical deterministic fuel.
        for mode in EMIT_LEGS:
            mode_runtime = JSRuntime(source, config, options=options)
            with emit_leg(mode):
                vm_py = mode_runtime.run(backend="py")
            assert mode_runtime.printed == reference.printed, (
                f"seed {seed} config {config} level {level} backend=py "
                f"mode {mode}:\n{source}\n"
                f"interp={reference.printed!r} py={mode_runtime.printed!r}")
            assert vm_py.stats.fuel == vm.stats.fuel, (
                f"seed {seed} config {config} level {level} mode {mode}: "
                f"backend fuel {vm_py.stats.fuel} != VM fuel "
                f"{vm.stats.fuel}")


@pytest.mark.parametrize("seed", range(N_JS))
def test_js_tiered(seed):
    """Tiered tier for MiniJS: threshold ∞ ≡ interp_ic and threshold 1
    ≡ the AOT snapshot flow (prints and deterministic fuel), across
    both JS functions and the IC-stub corpus."""
    rng = random.Random(0xCAFE + seed)
    source = random_js_source(rng)
    reference = JSRuntime(source, "interp_ic")
    vm_ref = reference.run()
    config = "wevaled_state" if seed % 2 else "wevaled"

    aot_rt = JSRuntime(source, config, options=TIERED_OPTIONS)
    vm_aot = aot_rt.run()
    assert aot_rt.printed == reference.printed

    rt_inf = JSRuntime(source, config, options=TIERED_OPTIONS)
    vm_inf = rt_inf.run(mode="tiered", threshold=INF)
    assert rt_inf.printed == reference.printed, (
        f"seed {seed} config {config}:\n{source}\n"
        f"interp={reference.printed!r} tiered-inf={rt_inf.printed!r}")
    assert vm_inf.stats.fuel == vm_ref.stats.fuel, (
        f"seed {seed} config {config}: tiered-inf fuel "
        f"{vm_inf.stats.fuel} != interp {vm_ref.stats.fuel}")
    assert rt_inf.controller.stats.promotions == 0

    rt_one = JSRuntime(source, config, options=TIERED_OPTIONS)
    vm_one = rt_one.run(mode="tiered", threshold=1)
    assert rt_one.printed == reference.printed, (
        f"seed {seed} config {config}:\n{source}\n"
        f"interp={reference.printed!r} tiered-1={rt_one.printed!r}")
    assert vm_one.stats.fuel == vm_aot.stats.fuel, (
        f"seed {seed} config {config}: tiered-1 fuel "
        f"{vm_one.stats.fuel} != AOT {vm_aot.stats.fuel}")


# ---------------------------------------------------------------------------
# Inlined tier: hot MiniJS call chains under speculative inlining.
# ---------------------------------------------------------------------------

N_INLINE = 4


def random_js_callchain(rng: random.Random) -> str:
    """A seeded MiniJS program whose heat is a call chain through a
    first-class dispatcher: warm-up loops tier the leaf callees, then a
    hot loop drives them through ``apply`` so the dispatch site is
    nearly monomorphic — and, on odd seeds, switches callee mid-run to
    exercise the polymorphic guard's miss path."""
    leaves = []
    for n in range(3):
        body = _js_expr(rng, ["x"], 2)
        leaves.append(f"function f{n}(x) {{ return {body}; }}")
    first, second = rng.sample(range(3), 2)
    lines = leaves + [
        "function apply(f, x) { return f(x); }",
        "var w = 0;",
        "var k = 0;",
        f"while (k < 8) {{ w = w + f{first}(k) + f{second}(k); "
        "k = k + 1; }",
        "var t = w;",
        "var i = 0;",
        f"while (i < {rng.randint(20, 30)}) "
        f"{{ t = t + apply(f{first}, i); i = i + 1; }}",
    ]
    if rng.random() < 0.5:  # phase change: the guard must miss
        lines.extend([
            "var j = 0;",
            f"while (j < {rng.randint(15, 25)}) "
            f"{{ t = t + apply(f{second}, j); j = j + 1; }}",
        ])
    lines.append("print(t);")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", range(N_INLINE))
def test_js_inlined_differential(seed):
    """Three-way differential on hot call chains: the interpreter, the
    staged tiered flow with inlining off, and with inlining on must
    print identically; within each config the two emit legs must agree
    on deterministic fuel.  Inlining-off stays bit-identical (fuel
    included) across this sweep; inlining-on may change fuel (it
    executes different residual code) but never output."""
    rng = random.Random(0x111E + seed)
    source = random_js_callchain(rng)
    reference = JSRuntime(source, "interp_ic")
    reference.run()

    fuel = {}
    for inline in (False, True):
        for mode in EMIT_LEGS:
            options = SpecializeOptions(backend="py")
            runtime = JSRuntime(source, "wevaled", options=options)
            kwargs = dict(threshold=2, compile_threshold=3)
            if inline:
                kwargs.update(inline=True, inline_min_site_calls=2)
            with emit_leg(mode):
                vm = runtime.run_tiered(**kwargs)
            assert runtime.printed == reference.printed, (
                f"seed {seed} inline={inline} mode {mode}:\n{source}\n"
                f"interp={reference.printed!r} got={runtime.printed!r}")
            fuel[(inline, mode)] = vm.stats.fuel
            stats = runtime.controller.stats
            if not inline:
                assert stats.inline_sites_planned == 0
            else:
                # Demotion, when exercised, retires per site and at
                # most once per site (one dispatch site here).
                assert stats.site_demotions <= 1
                assert stats.demotions == 0
    for inline in (False, True):
        modes_fuel = {fuel[(inline, mode)] for mode in EMIT_LEGS}
        assert len(modes_fuel) == 1, (
            f"seed {seed} inline={inline}: emit legs disagree on fuel "
            f"{modes_fuel}")


# ---------------------------------------------------------------------------
# Irreducible CFGs: the structured emitter's dispatch-region fallback.
# ---------------------------------------------------------------------------

N_IRREDUCIBLE = 6


def _irreducible_module(seed: int):
    """A seeded function whose core is a two-entry cycle B <-> C — the
    canonical irreducible shape (no frontend in this repo emits one, so
    the fallback is exercised by writing the IR as text).

    ``f(n, sel)``: entry branches on ``sel`` *into the middle* of the
    cycle; each cycle block folds a seeded constant into the
    accumulator and decrements the trip counter; both blocks exit to a
    shared return once the counter hits zero.  Total trips = ``n``
    regardless of the entry arm, so the result depends on seed, ``n``,
    and ``sel`` (which arm runs first).
    """
    from repro.ir import Module, parse_function
    rng = random.Random(0x1BBED + seed)
    ir = IRText(f"func @irr{seed}(v0: i64, v1: i64) -> i64 {{", 2)
    n, sel = 0, 1
    b, (i_b, acc_b) = ir.block(2)
    c, (i_c, acc_c) = ir.block(2)
    exit_b, (result,) = ir.block(1)
    zero = ir.const(0)
    start = ir.const(rng.randint(0, 1 << 12))
    ir.line(f"br_if v{sel}, {target(b, [n, start])}, {target(c, [n, start])}")

    ir.current = b
    acc_b2 = ir.define(f"iadd v{acc_b}, v{ir.const(rng.randint(1, 1 << 10))}")
    if rng.random() < 0.5:
        acc_b2 = ir.define(
            f"imul v{acc_b2}, v{ir.const(rng.randint(2, 5))}")
    i_b2 = ir.define(f"isub v{i_b}, v{ir.const(1)}")
    more_b = ir.define(f"ine v{i_b2}, v{zero}")
    ir.line(f"br_if v{more_b}, {target(c, [i_b2, acc_b2])}, "
            f"{target(exit_b, [acc_b2])}")

    ir.current = c
    acc_c2 = ir.define(f"ixor v{acc_c}, v{ir.const(rng.randint(1, 1 << 10))}")
    i_c2 = ir.define(f"isub v{i_c}, v{ir.const(1)}")
    more_c = ir.define(f"ine v{i_c2}, v{zero}")
    ir.line(f"br_if v{more_c}, {target(b, [i_c2, acc_c2])}, "
            f"{target(exit_b, [acc_c2])}")

    ir.current = exit_b
    ir.line(f"return v{result}")
    func = parse_function(ir.text())
    module = Module(memory_size=64)
    module.add_function(func)
    return module, func


def _run_irr(module, name, compiled_fn, args, fuel_limit):
    from repro.vm import OutOfFuel
    vm = VM(module, fuel_limit=fuel_limit)
    if compiled_fn is not None:
        vm.install_compiled({name: compiled_fn})
    try:
        return ("ok", vm.call(name, list(args)), vm.stats.fuel)
    except VMTrap as trap:
        return ("trap", str(trap), None)
    except OutOfFuel:
        return ("out-of-fuel", None, vm.stats.fuel)


@pytest.mark.parametrize("seed", range(N_IRREDUCIBLE))
def test_irreducible_three_way(seed):
    module, func = _irreducible_module(seed)
    compiled = compile_legs(func, module)
    # The structured leg must keep its structured skeleton (checked by
    # ``compile_legs``) and carve the multi-entry cycle into a dispatch
    # region of its own.
    structured = emit_function_source(func, module)[2]
    assert structured.dispatch_regions >= 1, (
        f"seed {seed}: irreducible cycle did not produce a dispatch "
        f"region")
    assert structured.dispatch_region_blocks >= 2

    for n in (1, 2, 3, 17):
        for sel in (0, 1):
            reference = _run_irr(module, func.name, None, (n, sel), None)
            assert reference[0] == "ok"
            for mode in EMIT_LEGS:
                got = _run_irr(module, func.name, compiled[mode],
                               (n, sel), None)
                assert got == reference, (
                    f"seed {seed} n={n} sel={sel} mode {mode}: "
                    f"{got!r} != VM {reference!r}")
    # OutOfFuel agreement at every limit up to a full run: the fuel
    # batching in structured mode must still trap at the exact VM
    # block boundary.
    full = _run_irr(module, func.name, None, (3, 1), None)[2]
    for limit in range(1, full + 1):
        reference = _run_irr(module, func.name, None, (3, 1), limit)
        for mode in EMIT_LEGS:
            got = _run_irr(module, func.name, compiled[mode],
                           (3, 1), limit)
            assert got == reference, (
                f"seed {seed} limit {limit} mode {mode}: {got!r} != "
                f"VM {reference!r}")
