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
* per-function fallback for constructs the emitter rejects;
* the emitter's two nesting limits: past its own indent budget the
  function is re-emitted flat, past CPython's static-block limit
  ``compile()`` refuses the source and the function stays on the IR VM.
"""

import math
import random
import re

import pytest

from repro.backend import UnsupportedConstruct, compile_function, emitter
from repro.core.specialize import SpecializeOptions
from repro.ir.function import Function, Signature
from repro.ir.instructions import BlockCall, BrTable, Instr, Jump, Ret
from repro.ir.module import Module
from repro.ir.semantics import PURE_EXPRS
from repro.ir.types import I64
from repro.min.interp import PROGRAM_BASE, build_min_module, specialize_min
from repro.min.harness import sum_to_n_program
from repro.pipeline.engine import CompilationEngine
from repro.vm import VM, OutOfFuel, VMTrap

from tests.helpers import (
    COMPARE_OPS,
    EMIT_LEGS,
    MAX_COMPILABLE_LOOP_NEST,
    branch_chain,
    build_module,
    compare_module,
    compile_legs,
    loop_nest,
)

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
    except OutOfFuel:
        return ("out-of-fuel", None, vm.stats.fuel)


def _run_both(module: Module, name: str, args,
              fuel_limit=None):
    """Run one function on the IR VM and as compiled Python; return
    ``((status, payload, fuel), ...)`` for each backend.  Both emit
    legs run, and must agree with each other exactly."""
    compiled = compile_legs(module.functions[name], module)
    got_py, got_flat = (_run(module, name, args, compiled[leg].pyfunc,
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
    func = Function("bt", Signature((I64,), (I64,)))
    entry = func.new_block()
    func.entry = entry.id
    index = func.add_block_param(entry, I64)
    cases = []
    consts = []
    for i in range(ncases):
        cid = func.new_value(I64)
        entry.instrs.append(Instr("iconst", cid, (), 100 + i, I64))
        consts.append(cid)
    default_const = func.new_value(I64)
    entry.instrs.append(Instr("iconst", default_const, (), 999, I64))

    ret_block = func.new_block()
    param = func.add_block_param(ret_block, I64)
    ret_block.terminator = Ret((param,))

    for cid in consts:
        case_block = func.new_block()
        case_block.terminator = Jump(BlockCall(ret_block.id, (cid,)))
        cases.append(BlockCall(case_block.id, ()))
    entry.terminator = BrTable(index, cases,
                               BlockCall(ret_block.id, (default_const,)))

    module = Module(memory_size=4096)
    module.add_function(func)
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
            vm.install_compiled({name: legs[leg].pyfunc
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


@pytest.mark.parametrize("op", COMPARE_OPS)
def test_single_use_compare_is_fused_into_its_branch(op):
    module, c = compare_module(op, "branch")
    func = module.functions["f"]
    a, b = (v for v, _ in func.entry_block().params)
    for leg, compiled in compile_legs(func, module).items():
        source = compiled.source
        assert "_int(" not in source and f"v{c} =" not in source, leg
        assert source.count(f"if {_bare_compare(op, a, b)}:") == 1, leg
        for args in _pairs(op):
            reference = _run_stats(module, args)
            assert reference[0] == "ok" and reference[1] in (11, 22)
            assert _run_stats(module, args, compiled.pyfunc) == reference
            # OutOfFuel at every limit, as across calls above.
            for limit in range(1, reference[3] + 2):
                assert _run_stats(module, args, compiled.pyfunc, limit) \
                    == _run_stats(module, args, None, limit), (args, limit)


@pytest.mark.parametrize("shape", ("returned", "stored", "probed", "looped"))
@pytest.mark.parametrize("op", COMPARE_OPS)
def test_compare_with_another_use_stays_an_int(op, shape):
    seen = []
    module, c = compare_module(
        op, shape, probe=lambda vm, x: seen.append(type(x)))
    func = module.functions["f"]
    for leg, compiled in compile_legs(func, module).items():
        assert f"v{c} = _int(" in compiled.source, leg
        assert f"if v{c}:" in compiled.source, leg
        for args in _pairs(op):
            reference = _run_stats(module, args)
            assert reference[:3] in (("ok", 0, int), ("ok", 1, int))
            assert _run_stats(module, args, compiled.pyfunc) == reference
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
    for leg, compiled in compile_legs(func, module).items():
        assert "_int(" not in compiled.source, leg
        for addr in (57, 64, MASK64):
            assert _run_stats(module, args + (addr,), compiled.pyfunc) \
                == ("trap", f"oob load64 at {addr:#x}", None, 2)
        assert _run_stats(module, args + (56,), compiled.pyfunc) \
            == _run_stats(module, args + (56,))


@pytest.mark.parametrize("shape", ("other_block", "two_branches"))
@pytest.mark.parametrize("op", COMPARE_OPS)
def test_compare_is_fused_only_into_its_own_blocks_one_branch(op, shape):
    module, c = compare_module(op, shape)
    func = module.functions["f"]
    branches = 1 if shape == "other_block" else 2
    for leg, compiled in compile_legs(func, module).items():
        assert f"v{c} = _int(" in compiled.source, leg
        assert compiled.source.count(f"if v{c}:") == branches, leg
        for args in _pairs(op):
            assert _run_stats(module, args, compiled.pyfunc) \
                == _run_stats(module, args)


def test_unsupported_opcode_falls_back():
    func = Function("weird", Signature((), (I64,)))
    entry = func.new_block()
    func.entry = entry.id
    vid = func.new_value(I64)
    entry.instrs.append(Instr("iconst", vid, (), 1, I64))
    bogus = func.new_value(I64)
    entry.instrs.append(Instr("frobnicate", bogus, (vid,), None, I64))
    entry.terminator = Ret((bogus,))
    module = Module(memory_size=64)
    module.add_function(func)

    with pytest.raises(UnsupportedConstruct, match="frobnicate"):
        compile_function(func, module)
    compiled, fallbacks = CompilationEngine(
        module, SpecializeOptions()).compile_backend_functions(["weird"])
    assert compiled == {}
    assert fallbacks and fallbacks[0][0] == "weird"
    assert "frobnicate" in fallbacks[0][1]


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
    assert compile_function(shallow.functions["chain"],
                            shallow).mode_used == "structured"
    module = branch_chain(depth)
    func = module.functions["chain"]
    compiled = compile_function(func, module)
    assert compiled.mode_used == "dispatch"
    assert (compiled.dispatch_regions, compiled.dispatch_region_blocks) \
        == (1, len(func.blocks))
    for n in (0, 1, depth // 2, depth - 1, depth, TWO63):
        reference = _run(module, "chain", (n,))
        assert reference[:2] == ("ok", min(n, depth))
        assert _run(module, "chain", (n,), compiled.pyfunc) == reference
    full = _run(module, "chain", (depth,))[2]
    for limit in range(1, full + 1):
        assert _run(module, "chain", (depth,), compiled.pyfunc, limit) \
            == _run(module, "chain", (depth,), None, limit), limit


def test_loop_nest_at_the_static_block_limit():
    """The deepest loop nest ``compile()`` accepts stays structured and
    agrees with the VM; one loop more is ROADMAP item 2(a)'s cliff —
    still inside the indent budget, so no flat re-emission, but
    ``compile()`` refuses it and the function runs on the IR VM with
    exactly one recorded fallback."""
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST)
    compiled = compile_function(module.functions["nest"], module)
    assert compiled.mode_used == "structured"
    assert _run(module, "nest", (1,), compiled.pyfunc) \
        == _run(module, "nest", (1,))
    # Every backedge taken, on a nest shallow enough to run 3**6 trips.
    got_vm, got_py = _run_both(loop_nest(6), "nest", (3,))
    assert got_vm == got_py and got_vm[1] == 3 ** 6

    module = loop_nest(MAX_COMPILABLE_LOOP_NEST + 1)
    engine = CompilationEngine(module, SpecializeOptions())
    compiled, fallbacks = engine.compile_backend_functions(["nest"])
    assert compiled == {}
    assert [name for name, _ in fallbacks] == ["nest"]
    assert "too many statically nested blocks" in fallbacks[0][1]
    assert engine.stats.backend_fallbacks == 1
    assert _run(module, "nest", (1,))[:2] == ("ok", 1)


@pytest.mark.xfail(strict=True, raises=UnsupportedConstruct,
                   reason="ROADMAP item 2(a): the emitter budgets indent "
                          "levels, not CPython's statically nested blocks")
def test_loop_nest_past_the_static_block_limit_reaches_tier_2():
    module = loop_nest(MAX_COMPILABLE_LOOP_NEST + 1)
    compiled = compile_function(module.functions["nest"], module)
    assert _run(module, "nest", (1,), compiled.pyfunc) \
        == _run(module, "nest", (1,))


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

_FLOAT_BIT_PATTERNS = (
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0 (repr must keep the sign)
    0x0000000000000001,  # smallest subnormal
    0x8000000000000001,  # -smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x0010000000000000,  # smallest normal
    0x7FEFFFFFFFFFFFFF,  # largest finite
    0xFFEFFFFFFFFFFFFF,  # -largest finite
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
    0x7FF8000000000000,  # canonical quiet NaN
    0xFFF8000000000000,  # negative quiet NaN
    0x7FF8DEADBEEFCAFE,  # quiet NaN with payload
    0xFFFFFFFFFFFFFFFF,  # NaN, all payload bits set
    0x3FF0000000000000,  # 1.0
    0x3FB999999999999A,  # 0.1 (shortest-repr round-trip)
)


def _bits_to_float(bits: int) -> float:
    import struct
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _fconst_bits_module(bits: int) -> Module:
    """A function returning ``bits_ftoi(fconst)`` for the given pattern."""
    from repro.ir import FunctionBuilder
    fb = FunctionBuilder("fbits", Signature((), (I64,)))
    v = fb.fconst(_bits_to_float(bits))
    fb.ret(fb.emit("bits_ftoi", (v,)))
    module = Module(memory_size=64)
    module.add_function(fb.finish())
    return module


def _fconst_roundtrip(bits: int):
    module = _fconst_bits_module(bits)
    vm_got = VM(module).call("fbits", [])
    compiled = compile_legs(module.functions["fbits"], module)
    for mode in EMIT_LEGS:
        vm = VM(module)
        vm.install_compiled({"fbits": compiled[mode].pyfunc})
        py_got = vm.call("fbits", [])
        assert py_got == vm_got == bits, (
            f"fconst bits {bits:#018x} ({mode}): vm={vm_got:#018x} "
            f"py={py_got:#018x}")


@pytest.mark.parametrize("bits", _FLOAT_BIT_PATTERNS,
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
