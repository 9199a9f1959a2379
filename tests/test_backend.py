"""Property tests for the tier-2 Python backend (:mod:`repro.backend`).

The backend's contract is observational equivalence with the IR VM:
identical results, identical prints, identical trap kinds/messages, and
identical deterministic fuel on every execution that completes or traps
at a block boundary.  These tests pin that contract on three axes the
differential corpus does not isolate:

* random verified functions (via the mini-C frontend) over adversarial
  i64 inputs, including both trap arms of division/remainder;
* signedness/wraparound at the ``2**63`` boundary for every integer
  binop and comparison, one op at a time;
* ``br_table`` out-of-range defaulting (including huge indices) and
  branch-argument passing on table edges;
* fuel determinism and ``OutOfFuel`` agreement under a fuel limit;
* compare->branch fusion: which compares the emitter tests in place at
  their ``br_if`` and which keep ``_int(...)``, so nothing but branch
  truthiness ever sees a Python ``bool``;
* malformed IR the emitter rejects is one failed engine request;
* the emitter's two nesting limits: past its indent budget or past
  CPython's 20 static blocks the function is re-emitted flat, so a loop
  nest on either side of the static-block cliff reaches tier 2;
* the out-of-line traps (``_oof`` and each memory row's checked
  accessor): the VM's exception type and message, and the VM's fuel at
  the raise;
* what a block costs: a dispatch region's tree has leaves only for its
  entries and joins, a block pays one fuel charge, and a constant is a
  literal at each use — each against the VM at every fuel limit, with
  a source guard over the pin corpus and two suite residuals.
"""

import collections
import math
import random
import re

import pytest

from repro.backend import (
    BackendError,
    compile_python_source,
    emit_function_source,
    emitter,
)
from repro.core.specialize import SpecializeOptions
from repro.ir import F64, I64, Module, parse_function
from repro.ir.instructions import OPCODES, Ret, Trap
from repro.ir.printer import float_text
from repro.ir.semantics import LOADS, PURE_EXPRS, STORES
from repro.jsvm import JSRuntime
from repro.min.interp import PROGRAM_BASE, build_min_module, specialize_min
from repro.min.harness import sum_to_n_program
from repro.pipeline.engine import CompilationEngine
from repro.vm import VM, OutOfFuel, VMTrap

from tests.helpers import (
    COMPARE_OPS,
    EMIT_LEGS,
    FLOAT_BIT_PATTERNS,
    MAX_COMPILABLE_LOOP_NEST,
    IRText,
    branch_chain,
    build_module,
    compare_module,
    compile_legs,
    compile_py,
    corpus_program,
    emit_leg,
    loop_nest,
    single_op_module,
    target,
)
from tests.test_golden_backend import pin_functions

TWO63 = 1 << 63
MASK64 = (1 << 64) - 1

BOUNDARY_VALUES = (0, 1, 2, TWO63 - 1, TWO63, TWO63 + 1, MASK64)


def _run(module: Module, name: str, args, pyfunc=None, fuel_limit=None):
    """``(status, payload, fuel)`` of one call, on the IR VM or with
    ``pyfunc`` installed for ``name``."""
    vm = VM(module, fuel_limit=fuel_limit)
    if pyfunc is not None:
        vm.install_compiled({name: pyfunc})
    try:
        return ("ok", vm.call(name, list(args)), vm.stats.fuel)
    except VMTrap as trap:
        return ("trap", str(trap), None)
    except OutOfFuel as exc:
        return ("out-of-fuel", str(exc), vm.stats.fuel)


def _run_both(module: Module, name: str, args,
              fuel_limit=None):
    """Run one function on the IR VM and as compiled Python; return
    ``((status, payload, fuel), ...)`` for each backend.  Both emit
    legs run, and must agree with each other exactly."""
    compiled = compile_legs(module.functions[name], module)
    got_py, got_flat = (_run(module, name, args, compiled[leg],
                             fuel_limit) for leg in EMIT_LEGS)
    assert got_flat == got_py, f"{name}{tuple(args)}: legs disagree"
    return _run(module, name, args, None, fuel_limit), got_py


# ---------------------------------------------------------------------------
# Random verified functions.
# ---------------------------------------------------------------------------

_BINOPS = ("+", "-", "*", "&", "|", "^", "<", "<=", "==", "!=")
_CALLOPS = ("sdiv", "srem", "slt", "sle")


def _expr(rng: random.Random, names, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return rng.choice(names)
        if roll < 0.8:
            return str(rng.randint(0, 9))
        return str(rng.choice(BOUNDARY_VALUES))
    left = _expr(rng, names, depth - 1)
    right = _expr(rng, names, depth - 1)
    roll = rng.random()
    if roll < 0.6:
        return f"({left} {rng.choice(_BINOPS)} {right})"
    if roll < 0.75:
        # Division/remainder keep possibly-zero divisors: trap-message
        # equality is part of the property.
        return f"({left} {rng.choice(('/', '%'))} {right})"
    if roll < 0.9:
        return f"{rng.choice(_CALLOPS)}({left}, {right})"
    return f"({left} {rng.choice(('<<', '>>'))} ({right} & 63))"


def _random_source(rng: random.Random) -> str:
    names = ["x", "y", "a", "b"]
    body = [f"  u64 a = {_expr(rng, ['x', 'y'], 2)};",
            f"  u64 b = {_expr(rng, ['x', 'y'], 2)};",
            f"  u64 i = {rng.randint(1, 6)};",
            "  while (i != 0) {",
            f"    a = {_expr(rng, names + ['i'], 2)};",
            f"    if ({_expr(rng, names, 1)} < {_expr(rng, names, 1)}) {{",
            f"      b = {_expr(rng, names, 2)};",
            "    } else {",
            f"      a = {_expr(rng, names + ['i'], 1)};",
            "    }",
            "    i = i - 1;",
            "  }",
            "  return a + b;"]
    return "u64 f(u64 x, u64 y) {\n" + "\n".join(body) + "\n}\n"


@pytest.mark.parametrize("seed", range(20))
def test_random_function_differential(seed):
    rng = random.Random(0xBAC0 + seed)
    module = build_module(_random_source(rng))
    inputs = [(0, 1), (TWO63, TWO63 - 1), (MASK64, 12345),
              (rng.randint(0, MASK64), rng.randint(0, MASK64))]
    for args in inputs:
        got_vm, got_py = _run_both(module, "f", args)
        if got_vm[0] == "ok":
            assert got_py == got_vm, (
                f"seed {seed} args {args}: vm={got_vm!r} py={got_py!r}")
        else:
            # Traps must agree in kind and message; fuel may legitimately
            # differ on a mid-block trap (the backend charges per block).
            assert got_py[:2] == got_vm[:2], (
                f"seed {seed} args {args}: vm={got_vm!r} py={got_py!r}")


# ---------------------------------------------------------------------------
# Signedness and wraparound at the 2**63 boundary, one op at a time.
# ---------------------------------------------------------------------------

_SINGLE_OPS = ["a + b", "a - b", "a * b", "a / b", "a % b",
               "sdiv(a, b)", "srem(a, b)",
               "a << (b & 63)", "a >> (b & 63)",
               "a < b", "a <= b", "a == b", "a != b",
               "slt(a, b)", "sle(a, b)"]


@pytest.mark.parametrize("op", _SINGLE_OPS)
def test_i64_boundary_semantics(op):
    module = build_module(f"u64 f(u64 a, u64 b) {{ return {op}; }}")
    for a in BOUNDARY_VALUES:
        for b in BOUNDARY_VALUES:
            got_vm, got_py = _run_both(module, "f", (a, b))
            if got_vm[0] == "ok":
                assert got_py == got_vm, (
                    f"{op} a={a} b={b}: vm={got_vm!r} py={got_py!r}")
                assert 0 <= got_vm[1] <= MASK64
            else:
                assert got_py[:2] == got_vm[:2], (
                    f"{op} a={a} b={b}: vm={got_vm!r} py={got_py!r}")


def test_sdiv_min_by_minus_one_wraps():
    """-2**63 / -1 wraps back to -2**63 (no Python bignum escape)."""
    module = build_module("u64 f(u64 a, u64 b) { return sdiv(a, b); }")
    got_vm, got_py = _run_both(module, "f", (TWO63, MASK64))
    assert got_vm == got_py
    assert got_vm[1] == TWO63


# ---------------------------------------------------------------------------
# BrTable out-of-range defaulting.
# ---------------------------------------------------------------------------

def _brtable_function(ncases: int) -> Module:
    """``f(x)``: br_table over x with per-edge branch arguments; case i
    returns 100 + i, out-of-range returns 999."""
    ret = ncases + 2  # block1's parameter
    cases = ", ".join(f"block{2 + i}" for i in range(ncases))
    lines = ["func @bt(v0: i64) -> i64 {", "block0:"]
    lines += [f"  v{1 + i} = iconst {100 + i}" for i in range(ncases)]
    lines += [f"  v{ncases + 1} = iconst 999",
              f"  br_table v0, [{cases}], default block1(v{ncases + 1})",
              f"block1(v{ret}: i64):",
              f"  return v{ret}"]
    for i in range(ncases):
        lines += [f"block{2 + i}:", f"  jump block1(v{1 + i})"]
    module = Module(memory_size=4096)
    module.add_function(parse_function("\n".join(lines + ["}"])))
    return module


@pytest.mark.parametrize("ncases", [0, 1, 3, 7])
def test_brtable_out_of_range_defaulting(ncases):
    module = _brtable_function(ncases)
    probes = list(range(ncases + 2)) + [TWO63, MASK64]
    for x in probes:
        got_vm, got_py = _run_both(module, "bt", (x,))
        assert got_vm == got_py, f"x={x}: vm={got_vm!r} py={got_py!r}"
        expected = 100 + x if x < ncases else 999
        assert got_vm[1] == expected


# ---------------------------------------------------------------------------
# Fuel determinism and OutOfFuel agreement.
# ---------------------------------------------------------------------------

def _min_residual():
    program = sum_to_n_program(50)
    module = build_min_module(program)
    func = specialize_min(module, program, use_intrinsics=False,
                          options=SpecializeOptions(backend="vm"),
                          name="fuel_probe")
    return module, func, [PROGRAM_BASE, len(program.words), 0]


def test_fuel_determinism_on_residual():
    module, func, args = _min_residual()
    got_vm, got_py = _run_both(module, func.name, args)
    assert got_vm[0] == got_py[0] == "ok"
    assert got_vm[1] == got_py[1] == 50 * 51 // 2
    assert got_vm[2] == got_py[2], "backend fuel must match the VM"


def test_out_of_fuel_agreement():
    module, func, args = _min_residual()
    full_fuel = _run_both(module, func.name, args)[0][2]
    for limit in (1, full_fuel // 3):
        got_vm, got_py = _run_both(module, func.name, args,
                                   fuel_limit=limit)
        assert got_vm[0] == got_py[0] == "out-of-fuel", (
            f"limit {limit}: vm={got_vm!r} py={got_py!r}")
    # Near the exact total the VM may or may not hit the limit (it only
    # checks at block boundaries) — the backend must agree either way.
    for limit in range(max(full_fuel - 4, 1), full_fuel + 1):
        got_vm, got_py = _run_both(module, func.name, args,
                                   fuel_limit=limit)
        assert got_vm == got_py, (
            f"limit {limit}: vm={got_vm!r} py={got_py!r}")
    got_vm, got_py = _run_both(module, func.name, args,
                               fuel_limit=full_fuel)
    assert got_vm[0] == got_py[0] == "ok"


# ---------------------------------------------------------------------------
# Fallback for unsupported constructs.
# ---------------------------------------------------------------------------

_CALLING_SRC = """
u64 helper(u64 x) {
  u64 i = x;
  u64 s = 0;
  while (i != 0) { s = s + i * 3; i = i - 1; }
  return s;
}
u64 f(u64 n) {
  u64 t = helper(n) + helper(n + 1) * 2;
  return t + 7;
}
"""


def test_out_of_fuel_agreement_across_calls():
    """Fuel-limit checks inside a *callee* observe the shared counter,
    so the backend must not pre-charge instructions that come after a
    call in the caller's block (the call here is mid-block, followed by
    arithmetic).  Sweep every limit and require exact agreement."""
    module = build_module(_CALLING_SRC)
    compiled = {name: compile_legs(func, module)
                for name, func in module.functions.items()}

    def run(leg, limit):
        vm = VM(module, fuel_limit=limit)
        if leg is not None:
            vm.install_compiled({name: legs[leg]
                                 for name, legs in compiled.items()})
        try:
            return ("ok", vm.call("f", [9]), vm.stats.fuel)
        except OutOfFuel:
            return ("out-of-fuel", None, vm.stats.fuel)

    total = run(None, None)[2]
    for limit in range(1, total + 2):
        got_vm = run(None, limit)
        for leg in EMIT_LEGS:
            got_py = run(leg, limit)
            assert got_vm == got_py, (
                f"limit {limit} {leg}: vm={got_vm!r} py={got_py!r}")


# ---------------------------------------------------------------------------
# Compare->branch fusion.
# ---------------------------------------------------------------------------

_INT_PAIRS = ((0, 0), (0, 1), (1, 0), (TWO63, TWO63), (TWO63 - 1, TWO63),
              (TWO63, TWO63 - 1), (MASK64, 0), (0, MASK64))
_FLOAT_PAIRS = ((1.0, 2.0), (2.0, 1.0), (1.5, 1.5), (0.0, -0.0),
                (-0.0, 0.0), (math.nan, 1.0), (1.0, math.nan),
                (math.nan, math.nan), (math.inf, -math.inf))


def _pairs(op):
    return _FLOAT_PAIRS if op.startswith("f") else _INT_PAIRS


def _bare_compare(op, a, b):
    """The text a fused ``br_if`` tests: the row without its ``_int``."""
    bare = PURE_EXPRS[op][len("_int("):-1]
    return re.sub(r"\b[ab]\b",
                  lambda m: f"v{a if m.group() == 'a' else b}", bare)


def _run_stats(module, args, pyfunc=None, fuel_limit=None):
    """``(status, payload, type of payload, fuel)`` of one ``f`` call."""
    vm = VM(module, fuel_limit=fuel_limit)
    if pyfunc is not None:
        vm.install_compiled({"f": pyfunc})
    try:
        result = vm.call("f", list(args))
        return ("ok", result, type(result), vm.stats.fuel)
    except VMTrap as trap:
        return ("trap", str(trap), None, vm.stats.fuel)
    except OutOfFuel:
        return ("out-of-fuel", None, None, vm.stats.fuel)


def _legs(func, module):
    """``(leg, source, pyfunc)`` for each emit leg."""
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            source, mode_used, _ = emit_function_source(func, module)
        assert mode_used == leg, leg
        yield leg, source, compile_python_source(func.name, source)


@pytest.mark.parametrize("op", COMPARE_OPS)
def test_single_use_compare_is_fused_into_its_branch(op):
    module, c = compare_module(op, "branch")
    func = module.functions["f"]
    a, b = (v for v, _ in func.entry_block().params)
    for leg, source, pyfunc in _legs(func, module):
        assert "_int(" not in source and f"v{c} =" not in source, leg
        assert source.count(f"if {_bare_compare(op, a, b)}:") == 1, leg
        for args in _pairs(op):
            reference = _run_stats(module, args)
            assert reference[0] == "ok" and reference[1] in (11, 22)
            assert _run_stats(module, args, pyfunc) == reference
            # OutOfFuel at every limit, as across calls above.
            for limit in range(1, reference[3] + 2):
                assert _run_stats(module, args, pyfunc, limit) \
                    == _run_stats(module, args, None, limit), (args, limit)


@pytest.mark.parametrize("shape", ("returned", "stored", "probed", "looped"))
@pytest.mark.parametrize("op", COMPARE_OPS)
def test_compare_with_another_use_stays_an_int(op, shape):
    seen = []
    module, c = compare_module(
        op, shape, probe=lambda vm, x: seen.append(type(x)))
    func = module.functions["f"]
    for leg, source, pyfunc in _legs(func, module):
        assert f"v{c} = _int(" in source, leg
        assert f"if v{c}:" in source, leg
        for args in _pairs(op):
            reference = _run_stats(module, args)
            assert reference[:3] in (("ok", 0, int), ("ok", 1, int))
            assert _run_stats(module, args, pyfunc) == reference
    assert all(ty is int for ty in seen)
    assert bool(seen) == (shape == "probed")


@pytest.mark.parametrize("op", COMPARE_OPS)
def test_fused_compare_behind_a_trapping_load(op):
    """The load's bounds line still runs first: same trap text, and the
    block's whole fuel charge — load and compare — is already in
    ``stats``, exactly as when the compare was a statement of its own.
    (The IR VM charges per instruction, so it traps at fuel 1 having
    counted the one load.)"""
    module, _ = compare_module(op, "after_load")
    func = module.functions["f"]
    args = _pairs(op)[0]
    for addr in (57, 64, MASK64):
        vm = VM(module)
        with pytest.raises(VMTrap, match=f"oob load64 at {addr:#x}"):
            vm.call("f", list(args + (addr,)))
        assert (vm.stats.fuel, vm.stats.loads) == (1, 1)
    for leg, source, pyfunc in _legs(func, module):
        assert "_int(" not in source, leg
        for addr in (57, 64, MASK64):
            assert _run_stats(module, args + (addr,), pyfunc) \
                == ("trap", f"oob load64 at {addr:#x}", None, 2)
        assert _run_stats(module, args + (56,), pyfunc) \
            == _run_stats(module, args + (56,))


@pytest.mark.parametrize("shape", ("other_block", "two_branches"))
@pytest.mark.parametrize("op", COMPARE_OPS)
def test_compare_is_fused_only_into_its_own_blocks_one_branch(op, shape):
    module, c = compare_module(op, shape)
    func = module.functions["f"]
    branches = 1 if shape == "other_block" else 2
    for leg, source, pyfunc in _legs(func, module):
        assert f"v{c} = _int(" in source, leg
        assert source.count(f"if v{c}:") == branches, leg
        for args in _pairs(op):
            assert _run_stats(module, args, pyfunc) \
                == _run_stats(module, args)


def test_unsupported_opcode_is_a_failed_request():
    """Malformed IR is a ``BackendError``, which the engine contains as
    one failed request: nothing compiled, nothing remembered."""
    func = parse_function("""\
func @weird() -> i64 {
block0:
  v0 = iconst 1
  v1 = iadd v0, v0
  return v1
}""")
    func.entry_block().instrs[1].op = "frobnicate"  # no text spells this
    module = Module(memory_size=64)
    module.add_function(func)

    with pytest.raises(BackendError, match="frobnicate"):
        emit_function_source(func, module)
    engine = CompilationEngine(module, SpecializeOptions())
    assert engine.compile_backend_functions(["weird"]) == {}
    assert engine.stats.requests_failed == 1


# ---------------------------------------------------------------------------
# The two nesting limits.
# ---------------------------------------------------------------------------

def test_branch_chain_past_the_indent_budget_is_emitted_flat():
    """Un-forced: a chain two short of the budget (the def and the try
    are the first two levels) stays structured, one level more takes
    the fallback — one dispatch region around every block — and agrees
    with the VM on results and on ``OutOfFuel`` at every limit."""
    depth = emitter._MAX_DEPTH - 1
    shallow = branch_chain(depth - 1)
    assert emit_function_source(shallow.functions["chain"],
                                shallow)[1] == "structured"
    module = branch_chain(depth)
    func = module.functions["chain"]
    pyfunc, used = compile_py(func, module)
    assert used.mode_used == "dispatch"
    assert (used.dispatch_regions, used.dispatch_region_blocks) \
        == (1, len(func.blocks))
    for n in (0, 1, depth // 2, depth - 1, depth, TWO63):
        reference = _run(module, "chain", (n,))
        assert reference[:2] == ("ok", min(n, depth))
        assert _run(module, "chain", (n,), pyfunc) == reference
    full = _run(module, "chain", (depth,))[2]
    for limit in range(1, full + 1):
        assert _run(module, "chain", (depth,), pyfunc, limit) \
            == _run(module, "chain", (depth,), None, limit), limit


def test_loop_nest_at_the_static_block_limit():
    """The deepest loop nest CPython compiles structured stays
    structured; one loop more — still inside the indent budget — would
    be a 21st static block, so it is re-emitted as one dispatch region
    and reaches tier 2 through the engine.  Both agree with the VM."""
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST)
    pyfunc, used = compile_py(module.functions["nest"], module)
    assert used.mode_used == "structured"
    assert _run(module, "nest", (1,), pyfunc) \
        == _run(module, "nest", (1,))
    # Every backedge taken, on a nest shallow enough to run 3**6 trips.
    got_vm, got_py = _run_both(loop_nest(6), "nest", (3,))
    assert got_vm == got_py and got_vm[1] == 3 ** 6

    module = loop_nest(MAX_COMPILABLE_LOOP_NEST + 1)
    engine = CompilationEngine(module, SpecializeOptions())
    compiled = engine.compile_backend_functions(["nest"])
    assert list(compiled) == ["nest"] and engine.stats.requests_failed == 0
    assert emit_function_source(module.functions["nest"],
                                module)[1] == "dispatch"
    reference = _run(module, "nest", (1,))
    assert reference[:2] == ("ok", 1)
    assert _run(module, "nest", (1,), compiled["nest"]) == reference


def test_loop_nest_past_the_static_block_limit_reaches_tier_2():
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST + 1)
    pyfunc, used = compile_py(module.functions["nest"], module)
    assert used.mode_used == "dispatch"
    assert _run(module, "nest", (1,), pyfunc) \
        == _run(module, "nest", (1,))


@pytest.mark.parametrize("depth", range(MAX_COMPILABLE_LOOP_NEST - 2,
                                        MAX_COMPILABLE_LOOP_NEST + 5))
def test_loop_nests_across_the_static_block_limit(depth):
    """Nests that straddle the 20-block cliff, at every fuel limit from
    0 to the call's whole fuel: compiled code gives the VM's result, or
    its ``OutOfFuel`` with the same message and the same ``S.fuel`` at
    the raise.  Only the nests past the cliff are emitted flat."""
    module = loop_nest(depth)
    pyfunc, used = compile_py(module.functions["nest"], module)
    assert used.mode_used == ("structured"
                              if depth <= MAX_COMPILABLE_LOOP_NEST
                              else "dispatch")
    full = _run(module, "nest", (1,))
    assert full[:2] == ("ok", 1)
    for limit in range(full[2] + 1):
        assert _run(module, "nest", (1,), pyfunc, limit) \
            == _run(module, "nest", (1,), None, limit), limit


# ---------------------------------------------------------------------------
# What a block costs: a dispatch tree over entries and joins only, one
# fuel charge per block, constants as literals.
# ---------------------------------------------------------------------------

_LEAF = re.compile(r"# block(\d+) \[_b=\d+\]")


def _region_shapes(loops: int):
    """``shapes(n, sel)`` (``n >= 1``): ``loops`` nested loops, each
    left after one trip, around an irreducible cycle with two entries,
    ``a`` and ``b`` (``sel`` picks the first), that ``n`` trips leave.
    Inside the cycle ``a`` reaches ``b`` directly or through the
    single-predecessor chain ``c -> d``; the cycle's two
    single-predecessor exits join at ``out``.  Returns ``(module,
    func, blocks)``, ``blocks`` naming ``a``, ``b``, ``out`` and the
    loop ``headers``."""
    ir = IRText("func @shapes(v0: i64, v1: i64) -> i64 {", 2)
    n, sel = 0, 1
    zero, one, three, five, seven, never = (
        ir.const(value) for value in (0, 1, 3, 5, 7, MASK64))
    headers = [ir.block(1) for _ in range(loops)]
    latches = [ir.block(1) for _ in range(loops)]
    (a, (i_a, acc_a)), (b, (i_b, acc_b)), (c, (i_c, acc_c)), \
        (d, (i_d, acc_d)) = (ir.block(2) for _ in range(4))
    (exit_a, (r_a,)), (exit_b, (r_b,)), (out, (r,)), (done, (result,)) = (
        ir.block(1) for _ in range(4))

    def enter(acc):
        return (f"br_if v{sel}, {target(a, [n, acc])}, "
                f"{target(b, [n, acc])}")

    ir.line(f"jump {target(headers[0][0], [zero])}" if loops
            else enter(zero))
    for k, (header, (acc,)) in enumerate(headers):
        ir.current = header
        ir.line(f"jump {target(headers[k + 1][0], [acc])}"
                if k + 1 < loops else enter(acc))
    for k, (latch, (acc,)) in enumerate(latches):
        ir.current = latch
        again = ir.define(f"ieq v{acc}, v{never}")
        leave = latches[k - 1][0] if k else done
        ir.line(f"br_if v{again}, {target(headers[k][0], [acc])}, "
                f"{target(leave, [acc])}")
    ir.current = a
    acc = ir.define(f"iadd v{acc_a}, v{three}")
    trips = ir.define(f"isub v{i_a}, v{one}")
    more = ir.define(f"ine v{trips}, v{zero}")
    ir.line(f"br_if v{more}, {target(c, [trips, acc])}, "
            f"{target(exit_a, [acc])}")
    ir.current = c
    acc = ir.define(f"imul v{acc_c}, v{five}")
    odd = ir.define(f"iand v{acc}, v{one}")
    ir.line(f"br_if v{odd}, {target(d, [i_c, acc])}, "
            f"{target(b, [i_c, acc])}")
    ir.current = d
    acc = ir.define(f"ixor v{acc_d}, v{seven}")
    ir.line(f"jump {target(b, [i_d, acc])}")
    ir.current = b
    acc = ir.define(f"iadd v{acc_b}, v{i_b}")
    trips = ir.define(f"isub v{i_b}, v{one}")
    more = ir.define(f"ine v{trips}, v{zero}")
    ir.line(f"br_if v{more}, {target(a, [trips, acc])}, "
            f"{target(exit_b, [acc])}")
    ir.current = exit_a
    ir.line(f"jump {target(out, [r_a])}")
    ir.current = exit_b
    bumped = ir.define(f"iadd v{r_b}, v{one}")
    ir.line(f"jump {target(out, [bumped])}")
    ir.current = out
    ir.line(f"jump {target(latches[-1][0] if loops else done, [r])}")
    ir.current = done
    ir.line(f"return v{result}")
    module = Module(memory_size=64)
    func = parse_function(ir.text())
    module.add_function(func)
    return module, func, {"a": a, "b": b, "out": out,
                          "headers": [h for h, _ in headers]}


def _agree_at_every_limit(module, name, args, compiled):
    """VM ≡ every compiled callable at every fuel limit up to one past
    the call's whole fuel: the result, or ``OutOfFuel`` with the same
    message and the same ``S.fuel`` at the raise."""
    full = _run(module, name, args)
    assert full[0] == "ok", full
    for limit in range(full[2] + 2):
        reference = _run(module, name, args, None, limit)
        for label, pyfunc in compiled.items():
            assert _run(module, name, args, pyfunc, limit) == reference, (
                args, limit, label)


@pytest.mark.parametrize("loops", (2, MAX_COMPILABLE_LOOP_NEST))
def test_dispatch_trees_branch_only_to_entries_and_joins(loops):
    """A dispatch region's ``_b`` tree has a leaf for each of its
    entries and joins and for nothing else: the single-predecessor
    chain inside the cycle, its exits and the loop latches are inlined
    at their one incoming edge.  With two loops the structured leg
    keeps its skeleton and the cycle is the region (entries ``a`` and
    ``b``); with 19 the cycle's dispatch loop is a 21st static block,
    so both legs emit the whole function as one region, whose leaves
    are the entry block, the loop headers, ``a``, ``b`` and ``out``.
    Every leg agrees with the VM at every fuel limit."""
    module, func, blocks = _region_shapes(loops)
    whole = {func.entry, blocks["a"], blocks["b"], blocks["out"],
             *blocks["headers"]}
    cycle = {blocks["a"], blocks["b"]}
    compiled = {}
    for leg in EMIT_LEGS:
        with emit_leg(leg):
            source, mode_used, _ = emit_function_source(func, module)
        assert mode_used == ("dispatch" if loops > 2 else leg), leg
        leaves = {int(bid) for bid in _LEAF.findall(source)}
        assert leaves == (whole if mode_used == "dispatch" else cycle), leg
        compiled[leg] = compile_python_source(func.name, source)
    for sel in (0, 1):
        _agree_at_every_limit(module, "shapes", (3, sel), compiled)


def test_branch_chain_twice_the_indent_budget_compiles_flat():
    """Inlining inside a region stops ``_MAX_INLINE_DEPTH`` levels below
    a leaf, so a chain of ``2 * _MAX_DEPTH`` single-predecessor branches
    (an unbounded inliner nests it past CPython's 100 indent levels)
    compiles as one region whose extra leaves are chain links, and
    agrees with the VM at every fuel limit.  The forced dispatch leg
    emits the same bytes: it lowers ``_MAX_DEPTH``, which the inliner
    does not read."""
    depth = 2 * emitter._MAX_DEPTH
    module = branch_chain(depth)
    func = module.functions["chain"]
    source, mode_used, _ = emit_function_source(func, module)
    assert mode_used == "dispatch"
    with emit_leg("dispatch"):
        assert emit_function_source(func, module)[0] == source
    leaves = [int(bid) for bid in _LEAF.findall(source)]
    preds = collections.Counter(
        call.block for block in func.blocks.values()
        for call in block.terminator.targets())
    # Past the entry every leaf is a chain link the bound cut.
    assert leaves[0] == func.entry and len(leaves) > 2
    assert all(preds[bid] == 1 for bid in leaves[1:])
    indents = [len(line) - len(line.lstrip(" ")) for line in
               source.splitlines()]
    assert max(indents) // len(emitter._INDENT) < 100 - 30
    pyfunc = compile_python_source(func.name, source)
    for n in (0, 1, depth // 2, depth - 1, depth, TWO63):
        reference = _run(module, "chain", (n,))
        assert reference[:2] == ("ok", min(n, depth))
        assert _run(module, "chain", (n,), pyfunc) == reference
    _agree_at_every_limit(module, "chain", (depth,), {"dispatch": pyfunc})


def _charge_violations(func, source):
    """Where ``source`` breaks the one-charge rule: a block whose code
    before its fuel-limit check holds more than one ``_fu +=``, or a
    count of the ``_fu += 1`` lines after the checks other than one per
    ``return`` / ``trap`` terminator and per edge into the entry
    block."""
    reached, work = {func.entry}, [func.entry]
    while work:
        for call in func.blocks[work.pop()].terminator.targets():
            if call.block not in reached:
                reached.add(call.block)
                work.append(call.block)
    blocks = [func.blocks[bid] for bid in reached]
    owed = sum(isinstance(block.terminator, (Ret, Trap)) for block in blocks)
    owed += sum(call.block == func.entry for block in blocks
                for call in block.terminator.targets())
    problems, after_checks = [], 0
    chunks = re.split(r"\n\s*# block\d+[^\n]*", source)[1:]
    for chunk in chunks:
        before, _, after = chunk.partition("if _L is not None")
        if len(re.findall(r"^\s*_fu \+=", before, re.M)) > 1:
            problems.append(before)
        charges = re.findall(r"^\s*_fu \+= (\d+)$", after, re.M)
        if set(charges) - {"1"}:
            problems.append(after)
        after_checks += len(charges)
    if after_checks != owed:
        problems.append(f"{after_checks} unit charges, {owed} owed")
    return problems


_REENTERED_ENTRY = """\
func @f(v0: i64, v1: i64) -> i64 {
block0:
  v2 = iconst 1
  v3 = iconst 0
  v4 = iadd v1, v0
  v5 = isub v0, v2
  v6 = ine v5, v3
  br_if v6, block1, block2
block1:
  v7 = iand v5, v2
  br_if v7, block0(v5, v4), block3
block2:
  return v4
block3:
  jump block0(v5, v1)
}"""


def test_edges_back_into_the_entry_block_charge_their_branch():
    """The entry block's charge cannot count the branch that entered
    it, since a call enters it too: each edge back into it charges its
    own unit, as the ``return`` charges its own.  Both legs agree with
    the VM at every fuel limit."""
    func = parse_function(_REENTERED_ENTRY)
    module = Module(memory_size=64)
    module.add_function(func)
    compiled = {}
    for leg, source, pyfunc in _legs(func, module):
        # Two edges into block0 and one return owe a unit each.
        assert _charge_violations(func, source) == [], leg
        assert re.search(r"_fu \+= 1\n\s*v0, v1 = v5, v4\n", source), leg
        compiled[leg] = pyfunc
    for n in (1, 2, 7):
        _agree_at_every_limit(module, "f", (n, 5), compiled)


def _assigned_constants(func, source):
    """The constants ``source`` names: every ``iconst`` and finite
    ``fconst`` should print as a literal at each use."""
    named = []
    for block in func.blocks.values():
        for instr in block.instrs:
            if instr.op == "iconst" or (instr.op == "fconst"
                                        and math.isfinite(instr.imm)):
                if re.search(rf"\bv{instr.result}\b", source):
                    named.append(instr.result)
    return named


def _suite_residual(program, pick):
    runtime = JSRuntime(corpus_program(program), "wevaled_state")
    runtime.aot_compile()
    return pick(runtime), runtime.module


def test_one_charge_per_block_and_no_constant_is_assigned():
    """A source guard over the emitter-pin corpus (both legs),
    richards' largest residual and mandreel's ``js$body``: no block
    emits two ``_fu +=`` charges, the only charges after a fuel-limit
    check are the units of returns, traps and edges into the entry
    block, and no ``iconst`` or finite ``fconst`` is named."""
    functions = list(pin_functions())
    functions.append(_suite_residual("js/richards.js", lambda runtime: max(
        (runtime.module.functions[item.function_name]
         for item in runtime.compiler.processed),
        key=lambda func: func.num_instrs())))
    functions.append(_suite_residual(
        "js/mandreel.js", lambda runtime: runtime.module.functions["js$body"]))
    checked = 0
    for func, module in functions:
        for leg in EMIT_LEGS:
            with emit_leg(leg):
                source = emit_function_source(func, module)[0]
            assert _charge_violations(func, source) == [], (func.name, leg)
            assert _assigned_constants(func, source) == [], (func.name, leg)
            checked += 1
    assert checked == 2 * len(functions)


_NEGATIVE_FLOATS = """\
func @f(v0: f64) -> i64 {
block0:
  v1 = fconst %s
  v2 = fneg v1
  v3 = fsub v0, v1
  v4 = fsub v1, v0
  v5 = fadd v2, v3
  v6 = fsub v4, v5
  v7 = bits_ftoi v2
  v8 = bits_ftoi v6
  v9 = ixor v7, v8
  v10 = bits_ftoi v3
  v11 = ixor v9, v10
  return v11
}"""


@pytest.mark.parametrize("text", ("-0.0", "-1.5", "0.0", "-5e-324",
                                  "-1.7976931348623157e+308"))
def test_negative_float_literals_stay_bit_exact(text):
    """A negative constant prints parenthesized, so ``fneg`` and
    ``fsub`` of it keep every bit — the sign of ``-0.0`` included — on
    both legs, against the VM, over operands that include both zeros,
    both infinities and a NaN."""
    func = parse_function(_NEGATIVE_FLOATS % text)
    module = Module(memory_size=64)
    module.add_function(func)
    value = float(text)
    for leg, source, pyfunc in _legs(func, module):
        if math.copysign(1.0, value) < 0:
            assert f"({value!r})" in source, leg
        assert "--" not in source and "- -" not in source, leg
        for operand in (0.0, -0.0, 1.5, -1.5, math.inf, -math.inf,
                        math.nan):
            assert _run(module, "f", (operand,), pyfunc) \
                == _run(module, "f", (operand,)), (leg, operand)


def test_out_of_line_trap_raisers_keep_the_vm_text():
    """Every ``LOADS``/``STORES`` row's checked accessor (the arm its
    mask test sends an out-of-bounds address to) and the per-block
    fuel-limit guard's ``_oof`` raise the VM's exception type and exact
    message, on both emit legs, and for fuel the VM's ``S.fuel`` at the
    raise."""
    memory_size = 64
    for op in sorted(LOADS) + sorted(STORES):
        info = OPCODES[op]
        if op in LOADS:
            module = single_op_module(op, (I64,), info.result)
        else:
            module = single_op_module(op, info.arg_types, None)
        compiled = compile_legs(module.functions["f"], module)
        size = (LOADS.get(op) or STORES[op]).size
        value = () if op in LOADS else (
            (1.5,) if info.arg_types[1] == F64 else (7,))
        for addr in (memory_size - size + 1, memory_size, TWO63, MASK64):
            args = (addr,) + value
            reference = _run(module, "f", args)
            assert reference == ("trap", f"oob {op} at {addr:#x}", None)
            for leg in EMIT_LEGS:
                assert _run(module, "f", args, compiled[leg]) \
                    == reference, (op, addr, leg)

    module = loop_nest(3)
    compiled = compile_legs(module.functions["nest"], module)
    full = _run(module, "nest", (2,))[2]
    for limit in range(full + 2):
        reference = _run(module, "nest", (2,), None, limit)
        # The VM checks at block boundaries, so a limit just short of
        # the total may still finish.
        assert reference[:2] in (("ok", 8), ("out-of-fuel",
                                             f"fuel limit {limit} exceeded"))
        assert limit > full - 8 or reference[0] == "out-of-fuel"
        for leg in EMIT_LEGS:
            assert _run(module, "nest", (2,), compiled[leg], limit) \
                == reference, (limit, leg)


def test_backend_option_validation_and_env(monkeypatch):
    with pytest.raises(ValueError, match="bad backend"):
        SpecializeOptions(backend="jit")
    # The option is the only selector: the environment switch is gone.
    monkeypatch.setenv("REPRO_BACKEND", "py")
    assert SpecializeOptions().backend == "vm"


# ---------------------------------------------------------------------------
# Float-literal bit exactness.
#
# ``fconst`` immediates travel through emitted *source text*, so the
# literal the emitter prints must reconstruct the exact IEEE-754 bit
# pattern the VM holds as a live float — including the sign of -0.0,
# both infinities, and every NaN payload.  ``bits_ftoi`` exposes the
# bits as an i64 on both tiers, making the comparison exact.
# ---------------------------------------------------------------------------

def _bits_to_float(bits: int) -> float:
    import struct
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _fconst_bits_module(bits: int) -> Module:
    """A function returning ``bits_ftoi(fconst)`` for the given pattern."""
    module = Module(memory_size=64)
    module.add_function(parse_function("\n".join((
        "func @fbits() -> i64 {",
        "block0:",
        f"  v0 = fconst {float_text(_bits_to_float(bits))}",
        "  v1 = bits_ftoi v0",
        "  return v1",
        "}"))))
    return module


def _fconst_roundtrip(bits: int):
    module = _fconst_bits_module(bits)
    vm_got = VM(module).call("fbits", [])
    compiled = compile_legs(module.functions["fbits"], module)
    for mode in EMIT_LEGS:
        vm = VM(module)
        vm.install_compiled({"fbits": compiled[mode]})
        py_got = vm.call("fbits", [])
        assert py_got == vm_got == bits, (
            f"fconst bits {bits:#018x} ({mode}): vm={vm_got:#018x} "
            f"py={py_got:#018x}")


@pytest.mark.parametrize("bits", FLOAT_BIT_PATTERNS,
                         ids=lambda b: f"{b:#018x}")
def test_fconst_bit_patterns_roundtrip(bits):
    _fconst_roundtrip(bits)


@pytest.mark.parametrize("seed", range(4))
def test_fconst_random_bit_patterns_roundtrip(seed):
    rng = random.Random(0xF10A7 + seed)
    for _ in range(64):
        _fconst_roundtrip(rng.getrandbits(64))


def test_float_literal_source_forms():
    """The emitter uses plain literals for finite values (including
    -0.0, whose repr keeps the sign) and the bit-pattern helper only
    for non-finite ones."""
    from repro.backend.emitter import _float_literal
    literal, needs = _float_literal(-0.0)
    assert literal == "-0.0" and not needs
    for bits in (0x7FF0000000000000, 0xFFF0000000000000,
                 0x7FF8DEADBEEFCAFE):
        literal, needs = _float_literal(_bits_to_float(bits))
        assert needs and literal == f"_bits_itof({bits:#x})"
