"""Fixpoint tier: the mid-end's schedule against a reference loop, the
specializer's convergence, and the single-predecessor meet against the
full one.

**Schedule oracle.**  :func:`~repro.opt.pipeline.optimize_function` runs
``PASSES`` round-robin and stops as soon as every pass in a row has
reported zero changes.  The reference it must agree with is the plainest
schedule there is, written out below: whole rounds of every pass until a
whole round changes nothing.  Over seeded random programs on all three
guest frontends plus the richards macro-workload, each pre-mid-end
residual (``opt_config="none"``) is cloned and optimized both ways; the
printed IR (what the artifact store keeps) and the per-pass change
totals must be equal.

**The specializer's fixpoint.**  Its meet is monotone, so it converges
without a damper: a loop that grows the operand stack on every trip
specializes in a handful of visits, and generated CFGs over the state
intrinsics specialize under ``REPRO_OPT_VERIFY=1`` — which checks every
rebuild's descent and every single-predecessor meet against the full
one — into residuals that compute what the reference lowering does.
"""

import importlib
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.core import Runtime, SpecializationRequest, specialize
from repro.core.intrinsics import register_weval_imports
from repro.core.specialize import SpecializeError, SpecializeOptions
from repro.ir import (
    Module,
    parse_function,
    print_function,
    verify_function,
)
from repro.jsvm import JSRuntime
from repro.luavm.runtime import LuaRuntime
from repro.min.interp import build_min_module, specialize_min
from repro.opt import PASSES, optimize_function, remove_unreachable_blocks
from repro.opt.pipeline import OPT_MAX_ROUNDS
from repro.vm import VM
from test_differential import (
    random_js_source,
    random_lua_chunk,
    random_min_program,
)

from tests.helpers import (
    IRText,
    assert_text_round_trips,
    clone,
    corpus_manifest,
    corpus_program,
    target,
)

N_MIN, N_LUA, N_JS = 10, 8, 4
RICHARDS = corpus_program("js/richards.js")

FAST = SpecializeOptions(backend="vm")
UNOPTIMIZED = SpecializeOptions(backend="vm", opt_config="none")


def _reference_schedule(func):
    """Whole rounds of every pass until one changes nothing (or the
    cap); returns the per-pass change totals."""
    remove_unreachable_blocks(func)
    changes = {name: 0 for name, _ in PASSES}
    for _ in range(OPT_MAX_ROUNDS):
        changed = 0
        for name, fn in PASSES:
            delta = fn(func)
            changes[name] += delta
            changed += delta
        if not changed:
            break
    return changes


def _assert_schedule_oracle(tag, residuals, module):
    """``optimize_function`` ≡ the reference loop on every residual;
    returns the most rounds it needed for any one function."""
    most_rounds = 0
    for name, func in residuals.items():
        managed, reference = clone(func, module), clone(func, module)
        stats = optimize_function(managed, module=module)
        changes = _reference_schedule(reference)
        managed_ir = print_function(managed, order="id")
        reference_ir = print_function(reference, order="id")
        assert managed_ir == reference_ir, (
            f"{tag}: residual IR for {name} diverged between "
            f"optimize_function and the reference loop:\n"
            f"--- managed ---\n{managed_ir}\n"
            f"--- reference ---\n{reference_ir}")
        assert {n: p.changes for n, p in stats.per_pass.items()} == \
            changes, f"{tag}: per-pass change totals for {name} diverged"
        most_rounds = max(most_rounds, stats.rounds)
    return most_rounds


def _residuals(runtime):
    return {p.function_name: runtime.module.functions[p.function_name]
            for p in runtime.compiler.processed}


@pytest.mark.parametrize("seed", range(N_MIN))
def test_min_fixpoint_determinism(seed):
    program = random_min_program(random.Random(0xF1A + seed))
    module = build_min_module(program)
    func = specialize_min(module, program, bool(seed % 2),
                          options=UNOPTIMIZED, name="spec")
    _assert_schedule_oracle(f"min seed {seed}", {"spec": func}, module)


@pytest.mark.parametrize("seed", range(N_LUA))
def test_lua_fixpoint_determinism(seed):
    rt = LuaRuntime(random_lua_chunk(random.Random(0xF1B + seed)))
    rt.aot_compile(UNOPTIMIZED)
    _assert_schedule_oracle(f"lua seed {seed}", _residuals(rt), rt.module)


@pytest.mark.parametrize("seed", range(N_JS))
def test_js_fixpoint_determinism(seed):
    source = random_js_source(random.Random(0xF1C + seed))
    config = "wevaled_state" if seed % 2 else "wevaled"
    rt = JSRuntime(source, config, options=UNOPTIMIZED)
    rt.aot_compile()
    _assert_schedule_oracle(f"js seed {seed}", _residuals(rt), rt.module)


# ---------------------------------------------------------------------------
# Richards: the S6.5 macro-workload — the schedule oracle again, plus
# how fast both fixpoints converge.
# ---------------------------------------------------------------------------

def test_richards_fixpoint_determinism():
    raw = JSRuntime(RICHARDS, "wevaled_state", options=UNOPTIMIZED)
    raw.aot_compile()
    most_rounds = _assert_schedule_oracle("richards", _residuals(raw),
                                          raw.module)
    assert most_rounds <= 3, (
        f"a richards residual took {most_rounds} mid-end rounds")

    rt = JSRuntime(RICHARDS, "wevaled_state", options=FAST)
    rt.aot_compile()
    stats = rt.compiler.total_stats
    assert stats.opt.fixpoint_cap_hits == 0
    assert stats.block_revisits < 1000  # priority worklist converges
    assert stats.revisit_rate() < 0.6, (
        f"specializer revisit rate {stats.revisit_rate():.2f}/visit")
    # Reducible interpreter CFGs make one-predecessor blocks dominant:
    # the sole-contributor fast path must cover most meets.
    assert stats.meets_single_pred * 2 >= stats.meets_performed, (
        f"single-pred fast path took {stats.meets_single_pred} of "
        f"{stats.meets_performed} meets")
    rt.run()
    assert rt.printed == ["13120"]


# ---------------------------------------------------------------------------
# Sole-contributor meet fast path: under REPRO_OPT_VERIFY=1 the
# specializer recomputes every such meet with the full meet_states and
# requires the same state, so the residual bytes cannot differ.
# ---------------------------------------------------------------------------

def _specialize_errors(program):
    """Specialize one of the four seeded Min programs (an ``int``) or
    richards; returns the stats and the contained compile errors."""
    if program == "richards":
        rt = JSRuntime(RICHARDS, "wevaled_state", options=FAST)
        rt.aot_compile()
        return (rt.compiler.total_stats,
                [p.error for p in rt.compiler.processed if p.error])
    rng = random.Random(0x51D + program)
    min_program = random_min_program(rng)
    module = build_min_module(min_program)
    try:
        func = specialize_min(module, min_program, bool(program % 2),
                              options=FAST, name="spec")
    except SpecializeError as exc:
        return None, [str(exc)]
    return func._weval_stats, []  # noqa: SLF001


@pytest.mark.parametrize("program", [0, 1, 2, 3, "richards"])
def test_single_pred_meet_byte_identity(program, monkeypatch):
    """The fast path engages and agrees with the full meet at every
    meet; a fast path that loses one env binding is refused."""
    monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
    stats, errors = _specialize_errors(program)
    assert errors == []
    assert stats.meets_single_pred > 0, (
        f"{program}: sole-contributor fast path did not engage")

    specialize_mod = importlib.import_module("repro.core.specialize")
    real = specialize_mod.single_pred_entry_state

    def lossy(state, overrides, env_domain):
        meet = real(state, overrides, env_domain)
        if meet.state.env:
            del meet.state.env[min(meet.state.env)]
        return meet

    monkeypatch.setattr(specialize_mod, "single_pred_entry_state", lossy)
    _, errors = _specialize_errors(program)
    assert errors and all("differs from the full meet" in error
                          for error in errors)


# ---------------------------------------------------------------------------
# Convergence without a damper.
# ---------------------------------------------------------------------------

def test_stack_growing_loop_converges(monkeypatch):
    """A loop that pushes one operand-stack slot per trip, entered with
    one slot pushed: the stack dropped at the loop header for a depth
    mismatch stays dropped, so the fixpoint stops in a few visits
    instead of re-growing the stack until the iteration cap."""
    monkeypatch.setattr(importlib.import_module("repro.core.specialize"),
                        "MAX_ITERATIONS", 20_000)
    module = Module(memory_size=256)
    register_weval_imports(module)
    module.add_function(parse_function("""\
func @g(v0: i64) -> i64 {
block0:
  v1 = iconst 64
  call @weval.push v1, v0
  jump block1
block1:
  v2 = iconst 72
  call @weval.push v2, v0
  br_if v0, block1, block2
block2:
  return v0
}""", module))
    func = specialize(module, SpecializationRequest("g", [Runtime()]),
                      SpecializeOptions(opt_config="none"))
    assert func._weval_stats.block_visits <= 10  # noqa: SLF001


# ---------------------------------------------------------------------------
# S6.2's counters count the residual.
# ---------------------------------------------------------------------------

SUITE_MAINS = [name for name in corpus_manifest()
               if name.startswith(("js/", "lua/"))]


@pytest.mark.parametrize("program", SUITE_MAINS)
def test_real_state_sites_are_residual_sites(program):
    """A real state load or store the specializer counts is one in the
    residual, not one of a build the fixpoint threw away: with the
    mid-end off, the real loads are at most the residual's ``load64``s
    and the real stores at most its ``store64``s."""
    options = SpecializeOptions(opt_config="none")
    source = corpus_program(program)
    rt = (LuaRuntime(source, options=options) if program.startswith("lua/")
          else JSRuntime(source, "wevaled_state", options=options))
    rt.aot_compile()
    ops = Counter(instr.op for p in rt.compiler.processed
                  if p.error is None
                  for block in rt.module.functions[p.function_name]
                  .blocks.values() for instr in block.instrs)
    stats = rt.compiler.total_stats
    assert stats.stack_loads_real + stats.local_loads_real <= ops["load64"]
    assert stats.stack_stores_real + stats.local_stores_real \
        <= ops["store64"]


# ---------------------------------------------------------------------------
# The generated fixpoint oracle: loop nests over the state intrinsics,
# specialized under the verify checks and run against the same CFG with
# every state intrinsic lowered to its memory op.
# ---------------------------------------------------------------------------

SP_CELL = 8           # the final stack pointer is stored here
LOCALS_BASE = 64      # local ``k`` lives at LOCALS_BASE + 8 * k
STACK_BASE = 2048     # the operand stack grows up from here
SOURCES = st.sampled_from(["acc", "n", "i", 0, 5])
OPS = st.one_of(
    st.tuples(st.just("push"), SOURCES),
    st.tuples(st.just("pop")),
    st.tuples(st.just("read_stack")),
    st.tuples(st.just("write_stack"), SOURCES),
    st.tuples(st.just("write_local"), st.integers(0, 2), SOURCES),
    st.tuples(st.just("read_local"), st.integers(0, 2)),
    st.tuples(st.just("merge"), st.sampled_from([1, 2, 4]),
              st.integers(0, 9)),
    st.tuples(st.just("context"), st.integers(0, 2)))


@st.composite
def _loops(draw, depth=1):
    """``("loop", trips, body)``: ``trips`` is a constant or ``n & 3``,
    and the body's own pushes and pops net -1, 0 or +1 per trip."""
    trips = draw(st.sampled_from([1, 2, 3, "n"]))
    body = draw(st.lists(OPS, max_size=4))
    net = sum({"push": 1, "pop": -1}.get(op[0], 0) for op in body)
    effect = draw(st.integers(-1, 1))
    body += [("push", "i")] * (effect - net) + [("pop",)] * (net - effect)
    if depth < 3 and draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))),
                    draw(_loops(depth + 1)))
    return ("loop", trips, body)


@st.composite
def fixpoint_programs(draw):
    return (draw(st.lists(OPS, max_size=3)) + [draw(_loops())]
            + draw(st.lists(OPS, max_size=2)))


def _render(name, program, lowered):
    """``program`` as the text of the function ``name(n)``.  With
    ``lowered`` each state intrinsic is its memory op instead: push,
    write_local and write_stack store, pop, read_local and read_stack
    load, and flush is nothing."""
    ir = IRText(f"func @{name}(v0: i64) -> i64 {{", 1)  # v0 is n
    const = ir.const
    eight = const(8)
    state = {"acc": const(1), "sp": const(STACK_BASE), "i": 0, "n": 0}

    def value(src):
        return state[src] if isinstance(src, str) else const(src)

    def intrinsic(short, args, memory_op, has_result=False):
        if lowered:
            if memory_op == "load":
                return ir.define(f"load64 v{args[-1]}")
            ir.line(f"store64 v{args[-2]}, v{args[-1]}")
            return None
        call = f"call @weval.{short} " + ", ".join(f"v{a}" for a in args)
        return ir.define(call) if has_result else ir.line(call)

    def add(value_id):
        state["acc"] = ir.define(f"iadd v{state['acc']}, v{value_id}")

    def below(sp):
        return ir.define(f"isub v{sp}, v{eight}")

    def emit(op):
        kind = op[0]
        sp = state["sp"]
        if kind == "push":
            intrinsic("push", [sp, value(op[1])], "store")
            state["sp"] = ir.define(f"iadd v{sp}, v{eight}")
        elif kind == "pop":
            state["sp"] = below(sp)
            add(intrinsic("pop", [state["sp"]], "load", True))
        elif kind == "read_stack":
            add(intrinsic("read_stack", [const(0), below(sp)], "load", True))
        elif kind == "write_stack":
            intrinsic("write_stack", [const(0), below(sp), value(op[1])],
                      "store")
        elif kind == "write_local":
            intrinsic("write_local", [const(op[1]),
                                      const(LOCALS_BASE + 8 * op[1]),
                                      value(op[2])], "store")
        elif kind == "read_local":
            add(intrinsic("read_local", [const(op[1]),
                                         const(LOCALS_BASE + 8 * op[1])],
                          "load", True))
        elif kind == "merge":
            arm_const, arm_runtime = ir.block()[0], ir.block()[0]
            join, (joined,) = ir.block(1)
            mask = const(op[1])
            cond = ir.define(f"iand v0, v{mask}")
            ir.line(f"br_if v{cond}, block{arm_const}, block{arm_runtime}")
            ir.current = arm_const
            ir.line(f"jump {target(join, [const(op[2])])}")
            ir.current = arm_runtime
            arm = ir.define(f"iadd v{state['acc']}, v0")
            ir.line(f"jump {target(join, [arm])}")
            ir.current = join
            state["acc"] = joined
        elif kind == "context":
            ir.line(f"call @weval.update_context v{const(op[1])}")
        else:
            _, trips, body = op
            header, params = ir.block(3)
            loop_body, loop_exit = ir.block()[0], ir.block()[0]
            count = ir.define(f"iand v0, v{const(3)}") if trips == "n" \
                else const(trips)
            outer_i = state["i"]
            ir.line(f"jump {target(header, [count, sp, state['acc']])}")
            ir.current = header
            state["i"], state["sp"], state["acc"] = params
            carried = dict(state)
            ir.line(f"br_if v{state['i']}, block{loop_body}, "
                    f"block{loop_exit}")
            ir.current = loop_body
            for inner in body:
                emit(inner)
            one = const(1)
            back = [ir.define(f"isub v{state['i']}, v{one}"), state["sp"],
                    state["acc"]]
            ir.line(f"jump {target(header, back)}")
            ir.current = loop_exit
            state.update(carried, i=outer_i)

    for op in program:
        emit(op)
    if not lowered:
        ir.line("call @weval.flush")
    ir.line(f"store64 v{const(SP_CELL)}, v{state['sp']}")
    ir.line(f"return v{state['acc']}")
    return ir.text()


@given(fixpoint_programs())
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_fixpoint_oracle(monkeypatch, program):
    """Specialization converges with both verify checks on, the residual
    verifies, and for several inputs it returns what the reference
    lowering returns and leaves the heap below the final stack pointer
    as the reference does (popped slots above it are dead)."""
    monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
    monkeypatch.setattr(importlib.import_module("repro.core.specialize"),
                        "MAX_ITERATIONS", 20_000)
    module = Module(memory_size=4096)
    register_weval_imports(module)
    generic = module.add_function(parse_function(
        _render("f", program, lowered=False), module))
    module.add_function(parse_function(_render("ref", program, lowered=True)))
    note(print_function(generic, order="id"))
    func = specialize(module, SpecializationRequest("f", [Runtime()]))
    module.add_function(func)
    verify_function(func, module)
    assert_text_round_trips(func, module)
    for arg in (0, 3, 5, 6):
        reference, residual = VM(module), VM(module)
        want = reference.call("ref", [arg])
        assert residual.call(func.name, [arg]) == want, arg
        top = int.from_bytes(reference.memory[SP_CELL:SP_CELL + 8], "little")
        assert residual.memory[:top] == reference.memory[:top], arg
