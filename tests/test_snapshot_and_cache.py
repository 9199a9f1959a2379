"""Tests for the Wizer-style snapshot workflow and the cache (S3.5/S6.5)."""

import pytest

from repro.core import (
    Runtime,
    SnapshotCompiler,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
)
from repro.core.cache import body_fingerprint, request_key
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source
from repro.ir import FunctionBuilder, I64, Module, Signature, verify_module
from repro.pipeline import CompilationEngine
from repro.vm import VM

INTERP = """
u64 interp(u64 program, u64 proglen, u64 input) {
  u64 pc = 0;
  u64 acc = input;
  weval_push_context(pc);
  while (1) {
    u64 op = load64(program + pc * 8);
    pc = pc + 1;
    switch (op) {
    case 0: { acc = acc + load64(program + pc * 8); pc = pc + 1; break; }
    case 1: { return acc; }
    default: { abort(); }
    }
    weval_update_context(pc);
  }
  return 0;
}

u64 dispatch(u64 fnptr_addr, u64 program, u64 proglen, u64 input) {
  u64 spec = load64(fnptr_addr);
  if (spec != 0) {
    return icall3(spec, program, proglen, input);
  }
  return interp(program, proglen, input);
}
"""

BASE = 0x800
FNPTR = 0x100


def build():
    module = Module(memory_size=1 << 14)
    compile_source(INTERP).add_to_module(module)
    code = [0, 5, 0, 7, 1]  # ADDI 5; ADDI 7; HALT
    for i, word in enumerate(code):
        module.write_init_u64(BASE + i * 8, word)
    return module, code


def make_request(code, name="spec_fn"):
    return SpecializationRequest(
        "interp",
        [SpecializedMemory(BASE, len(code) * 8),
         SpecializedConst(len(code)), Runtime()],
        specialized_name=name)


class TestSnapshotCompiler:
    def test_full_lifecycle(self):
        module, code = build()
        compiler = SnapshotCompiler(module)
        compiler.instantiate()
        compiler.enqueue(make_request(code), FNPTR)
        processed = compiler.process_requests()
        assert len(processed) == 1
        assert processed[0].table_index > 0
        compiler.freeze()
        verify_module(module)

        # Resume: the heap survives freeze -> resume (the function
        # pointer patched into the live heap is in the snapshot), and
        # dispatch routes through the specialized code.
        vm = compiler.resume()
        assert vm.load_u64(FNPTR) == processed[0].table_index
        result = vm.call("dispatch", [FNPTR, BASE, len(code), 30])
        assert result == 42
        assert vm.stats.indirect_calls == 1

    def test_unpatched_pointer_falls_back_to_interpreter(self):
        module, code = build()
        vm = VM(module)
        assert vm.call("dispatch", [FNPTR, BASE, len(code), 30]) == 42
        assert vm.stats.indirect_calls == 0

    def test_duplicate_names_are_uniqued(self):
        module, code = build()
        compiler = SnapshotCompiler(module)
        compiler.instantiate()
        compiler.enqueue(make_request(code, "dup"), FNPTR)
        compiler.enqueue(make_request(code, "dup"), FNPTR + 8)
        processed = compiler.process_requests()
        names = {p.function_name for p in processed}
        assert len(names) == 2


def compile_one(module, request, cache_dir):
    """One request through a fresh engine over ``cache_dir``."""
    engine = CompilationEngine(module,
                               SpecializeOptions(cache_dir=str(cache_dir)))
    (result,) = engine.compile_batch([request])
    return result


class TestSpecializationCache:
    """The S6.5 cache is ``request_key`` + the artifact store."""

    def test_hit_on_identical_request(self, tmp_path):
        module, code = build()
        first = compile_one(module, make_request(code, "a"), tmp_path)
        second = compile_one(module, make_request(code, "b"), tmp_path)
        assert first.specialized and second.artifact_hit
        assert second.function.name == "b"  # loaded under its own name

    def test_miss_on_changed_bytecode(self, tmp_path):
        module, code = build()
        compile_one(module, make_request(code, "a"), tmp_path)
        module.write_init_u64(BASE + 8, 6)  # ADDI 6 instead of 5
        assert compile_one(module, make_request(code, "c"),
                           tmp_path).specialized

    def test_cached_clone_is_functional(self, tmp_path):
        module, code = build()
        compile_one(module, make_request(code, "a"), tmp_path)
        loaded = compile_one(module, make_request(code, "fresh"), tmp_path)
        assert loaded.artifact_hit
        module.add_function(loaded.function)
        verify_module(module)
        vm = VM(module)
        assert vm.call("fresh", [BASE, len(code), 1]) == 13

    def test_shared_cache_fingerprints_each_generic_it_is_shown(self):
        """One key constructor serves many runtimes, and CPython hands a
        collected function's address to the next one allocated: a
        fingerprint remembered by ``id(generic)`` would go to the wrong
        body."""
        request = SpecializationRequest("g", [Runtime()],
                                        specialized_name="g.spec")
        for k in range(50):
            fb = FunctionBuilder("g", Signature((I64,), (I64,)))
            fb.ret(fb.iadd(fb.entry.params[0][0], fb.iconst(k)))
            module = Module(memory_size=64)
            generic = module.add_function(fb.finish())
            key = request_key(module, request, None,
                              bytes(module.memory_init))
            assert key[0] == body_fingerprint(generic), k
            del fb, module, generic


class TestOptionKeyMembership:
    """Which cache key an option belongs to is declared on the field
    (``metadata={"key": ...}``), not in comments."""

    # A second legal value per field, so "flip it" is well-defined.
    FLIPPED = {
        "ssa_mode": "naive", "opt_config": "none", "backend": "py",
        "cache_dir": "/tmp/elsewhere",
        "fault_plan": object(),
    }

    def test_every_field_is_tagged_and_keys_follow_the_tags(self):
        import dataclasses

        from repro.core.cache import options_key
        from repro.core.specialize import SpecializeOptions
        fields = dataclasses.fields(SpecializeOptions)
        # Pinned on purpose: a new knob has to come through this test
        # and say whether the residual key holds it.
        assert len(fields) == 5
        assert {f.name for f in fields} == set(self.FLIPPED)
        # Residual IR is backend-independent: a store filled under one
        # backend must warm-start a worker running the other.
        by_name = {f.name: f.metadata["key"] for f in fields}
        assert by_name["backend"] is None
        base = SpecializeOptions(backend="vm")
        for field in fields:
            # No option shapes emitted source: the ``py/`` key is the
            # residual's fingerprint and the emitter version alone.
            assert field.metadata["key"] in ("residual", None), field.name
            flipped = dataclasses.replace(
                base, **{field.name: self.FLIPPED[field.name]})
            residual_moved = options_key(flipped) != options_key(base)
            assert residual_moved == (field.metadata["key"] == "residual"), \
                field.name

    def test_emit_mode_is_not_an_option(self):
        from repro.core.specialize import SpecializeOptions
        with pytest.raises(TypeError, match="emit_mode"):
            SpecializeOptions(emit_mode="dispatch")
        # The constant the ledger's ``_measure_emitted`` still reads.
        assert SpecializeOptions().emit_mode == "structured"

    def test_default_key_keeps_its_seats_minus_backend(self):
        from repro.core.cache import options_key
        from repro.core.specialize import SpecializeOptions
        for backend in ("vm", "py"):
            options = SpecializeOptions(backend=backend)
            assert options_key(options) == ("minimal", "default", 6)
