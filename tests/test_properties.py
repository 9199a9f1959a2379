"""Property-based tests (hypothesis) for core invariants.

The headline property is the Futamura equivalence: for *random* Min
bytecode programs, the specialized function computes exactly what the
interpreter computes.  Also covered: mini-C arithmetic matches a Python
model.  (Folder ≡ VM ≡ emitted code, op by op, is tests/test_semantics.py.)
"""

from hypothesis import given, settings, strategies as st

from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
    specialize,
)
from repro.frontend import compile_source
from repro.ir import Module, verify_module
from repro.ir.instructions import wrap_i64
from repro.min import PROGRAM_BASE, PyMinInterpreter, build_min_module
from repro.min.isa import MinProgram
from repro.vm import VM

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
small = st.integers(min_value=0, max_value=300)


# ---------------------------------------------------------------------------
# mini-C expressions match a Python model.
# ---------------------------------------------------------------------------
@given(a=u64, b=u64, c=st.integers(min_value=1, max_value=(1 << 64) - 1))
@settings(max_examples=100, deadline=None)
def test_minic_arithmetic_model(a, b, c):
    src = "u64 f(u64 a, u64 b, u64 c) { return (a + b) * 3 ^ (a >> 5) | b / c; }"
    module = Module(memory_size=64)
    compile_source(src).add_to_module(module)
    got = VM(module).call("f", [a, b, c])
    expected = (wrap_i64(wrap_i64(a + b) * 3) ^ (a >> 5)) | (b // c)
    assert got == wrap_i64(expected)


# ---------------------------------------------------------------------------
# Random straight-line-plus-loops Min programs: interpreter == weval.
# ---------------------------------------------------------------------------
@st.composite
def min_programs(draw):
    """Random well-formed Min programs: straight-line arithmetic over a
    few registers, with an optional bounded countdown loop, ending in
    LOAD_REG/HALT."""
    words = []
    num_ops = draw(st.integers(min_value=1, max_value=12))
    regs = st.integers(min_value=0, max_value=3)
    for _ in range(num_ops):
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 0:
            words += [0, draw(st.integers(0, 1000))]   # LOAD_IMMEDIATE
        elif choice == 1:
            words += [1, draw(regs)]                    # STORE_REG
        elif choice == 2:
            words += [2, draw(regs)]                    # LOAD_REG
        elif choice == 3:
            words += [3, draw(regs), draw(regs)]        # ADD
        else:
            words += [6, draw(st.integers(0, 50))]      # ADD_IMMEDIATE
    # Optional countdown loop: LOADI k; STORE r3; loop: LOAD r3;
    # ADDI -1; STORE r3; JMPNZ loop.
    if draw(st.booleans()):
        k = draw(st.integers(1, 5))
        words += [0, k, 1, 3]
        loop_start = len(words)
        words += [2, 3, 6, wrap_i64(-1), 1, 3, 7, loop_start]
    words += [2, draw(regs), 9]                         # LOAD_REG; HALT
    return MinProgram(list(words), {})


@given(program=min_programs(),
       input_value=st.integers(min_value=0, max_value=1000),
       use_intrinsics=st.booleans())
@settings(max_examples=40, deadline=None)
def test_futamura_equivalence_on_random_programs(program, input_value,
                                                 use_intrinsics):
    expected = PyMinInterpreter(program).run(input_value)

    module = build_min_module(program)
    generic = "min_interp_spec" if use_intrinsics else "min_interp"
    request = SpecializationRequest(
        generic,
        [SpecializedMemory(PROGRAM_BASE, program.size_bytes()),
         SpecializedConst(len(program.words)), Runtime()],
        specialized_name="prop_spec")
    func = specialize(module, request)
    module.add_function(func)
    verify_module(module)

    vm = VM(module)
    interp_got = vm.call("min_interp",
                         [PROGRAM_BASE, len(program.words), input_value])
    vm2 = VM(module)
    spec_got = vm2.call("prop_spec",
                        [PROGRAM_BASE, len(program.words), input_value])
    assert interp_got == expected
    assert spec_got == expected


# ---------------------------------------------------------------------------
# Random mini-C functions: optimizer passes preserve behaviour.
# ---------------------------------------------------------------------------
@given(n=small, m=small, flip=st.booleans())
@settings(max_examples=60, deadline=None)
def test_optimizer_preserves_loop_semantics(n, m, flip):
    src = """
u64 f(u64 n, u64 m, u64 flip) {
  u64 acc = 0;
  for (u64 i = 0; i < n; i++) {
    if (flip) { acc += i * m; } else { acc += i + m; }
    if (acc > 100000) { break; }
  }
  return acc;
}
"""
    module = Module(memory_size=4096)
    compile_source(src).add_to_module(module)
    baseline = VM(module).call("f", [n, m, int(flip)])
    from repro.opt import optimize_function
    optimize_function(module.functions["f"])
    verify_module(module)
    assert VM(module).call("f", [n, m, int(flip)]) == baseline


# ---------------------------------------------------------------------------
# NaN-boxing roundtrips.
# ---------------------------------------------------------------------------
@given(value=st.floats(allow_nan=False, allow_infinity=True))
@settings(max_examples=200, deadline=None)
def test_nan_boxing_roundtrip(value):
    from repro.jsvm.values import (
        TAG_ARRAY, TAG_BOOL, box_double, tag_of, unbox_double)
    boxed = box_double(value)
    assert not TAG_BOOL <= tag_of(boxed) <= TAG_ARRAY
    back = unbox_double(boxed)
    assert back == value or (back != back and value != value)
