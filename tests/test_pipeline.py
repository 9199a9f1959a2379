"""Tests for the compilation pipeline: the CompilationEngine and the
on-disk artifact store.

The contracts under test (ISSUE/ROADMAP "production story" layer):

* **Warm-start proof** — a second engine run over the same module and
  requests specializes *zero* functions: every residual loads from
  disk, its printed IR is byte-identical to the cold compile's, and the
  resumed snapshot runs with identical results and identical
  deterministic fuel.
* **Corruption safety** — truncated/garbage artifacts, version skew,
  and fingerprint mismatches are silently treated as misses (fresh
  recompile), never crashes.
* **One cache** — the store is the only cache: a second engine in the
  same process over the same ``cache_dir`` takes artifact hits, and a
  duplicate request inside one batch shares its producer's compile.
* **Keys are bits** — an f64 request value is keyed by its bit pattern,
  so ``0.0``/``-0.0`` and NaN payloads never share a residual.
"""

import dataclasses
import glob
import json
import os
import re
import shutil

import pytest

from repro.core import (
    Runtime,
    SnapshotCompiler,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
)
from repro.core.cache import request_key
from repro.core.specialize import SpecializeOptions
from repro.core.stats import EngineStats
from repro.frontend import compile_source
from repro.ir import (
    IRParseError,
    Module,
    parse_function,
    print_function,
    verify_module,
)
from repro.ir.parser import parse_header
from repro.ir.semantics import _bits_itof
from repro.ir.verifier import verify_function
from repro.jsvm import JSRuntime
from repro.luavm import LuaRuntime
from repro.pipeline import (
    ARTIFACT_VERSION,
    ArtifactStore,
    CompilationEngine,
    artifacts,
    locked_write_json,
)
from repro.pipeline.artifacts import unread
from repro.vm import VM

from tests.helpers import FLOAT_BIT_PATTERNS, corpus_manifest, corpus_program

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
    case 1: { acc = acc * load64(program + pc * 8); pc = pc + 1; break; }
    case 2: { return acc; }
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

BASE_A = 0x800
BASE_B = 0x900
FNPTR_A = 0x100
FNPTR_B = 0x108

CODE_A = [0, 5, 1, 3, 2]   # (x + 5) * 3
CODE_B = [1, 7, 0, 2, 2]   # x * 7 + 2


def build_module() -> Module:
    module = Module(memory_size=1 << 14)
    compile_source(INTERP).add_to_module(module)
    for base, code in ((BASE_A, CODE_A), (BASE_B, CODE_B)):
        for i, word in enumerate(code):
            module.write_init_u64(base + i * 8, word)
    return module


def make_requests():
    return [
        SpecializationRequest(
            "interp",
            [SpecializedMemory(BASE_A, len(CODE_A) * 8),
             SpecializedConst(len(CODE_A)), Runtime()],
            specialized_name="spec_a"),
        SpecializationRequest(
            "interp",
            [SpecializedMemory(BASE_B, len(CODE_B) * 8),
             SpecializedConst(len(CODE_B)), Runtime()],
            specialized_name="spec_b"),
    ]


def run_snapshot(options: SpecializeOptions):
    """One full cold-or-warm AOT flow; returns (compiler, outputs)
    where outputs maps function name -> (result, fuel, ir_text)."""
    module = build_module()
    compiler = SnapshotCompiler(module, options)
    compiler.instantiate()
    for request, fnptr in zip(make_requests(), (FNPTR_A, FNPTR_B)):
        compiler.enqueue(request, fnptr)
    compiler.process_requests()
    compiler.freeze()
    verify_module(module)
    outputs = {}
    for processed, (base, code, arg) in zip(
            compiler.processed,
            ((BASE_A, CODE_A, 10), (BASE_B, CODE_B, 10))):
        vm = compiler.resume()
        fnptr = processed.result_addr
        result = vm.call("dispatch", [fnptr, base, len(code), arg])
        outputs[processed.function_name] = (
            result, vm.stats.fuel,
            print_function(module.functions[processed.function_name],
                           order="id"))
    return compiler, outputs


EXPECTED = {"spec_a": (10 + 5) * 3, "spec_b": 10 * 7 + 2}


def check_outputs(outputs):
    for name, (result, _fuel, _ir) in outputs.items():
        assert result == EXPECTED[name]


# ---------------------------------------------------------------------------
# The IR text: a residual is stored as its print and parsed back.
# ---------------------------------------------------------------------------
def _flip_mid_line(text: str) -> str:
    """Flip one bit of the middle character of the first ``iadd``."""
    start = text.index(" = iadd ")
    start = text.rindex("\n", 0, start) + 1
    end = text.index("\n", start)
    mid = (start + end) // 2
    return text[:mid] + chr(ord(text[mid]) ^ 0x20) + text[mid + 1:]


MALFORMED_TEXTS = {
    "truncated": lambda t: t[:len(t) // 2],
    "unknown-opcode": lambda t: t.replace(" = iadd ", " = iadd2 ", 1),
    "unknown-terminator": lambda t: t.replace("  return ", "  yield ", 1),
    "bad-type": lambda t: t.replace(": i64", ": i32", 1),
    "dangling-entry": lambda t: t[:t.index("\n")] + "\n}",
    "flipped-byte": _flip_mid_line,
}


class TestParse:
    def _residual(self):
        module = build_module()
        engine = CompilationEngine(module)
        return module, engine.compile_batch(make_requests()[:1])[0].function

    def test_round_trip_is_identical(self):
        module, func = self._residual()
        text = print_function(func, order="id")
        clone = parse_function(text, module)
        assert print_function(clone, order="id") == text
        assert print_function(clone) == print_function(func)

    def test_rename_on_load(self):
        module, func = self._residual()
        clone = parse_function(print_function(func, order="id"), module,
                               name="renamed")
        assert clone.name == "renamed"

    @pytest.mark.parametrize("mutilate", MALFORMED_TEXTS.values(),
                             ids=MALFORMED_TEXTS.keys())
    def test_malformed_text_raises(self, mutilate):
        module, func = self._residual()
        text = print_function(func, order="id")
        assert mutilate(text) != text
        with pytest.raises(IRParseError):
            parse_function(mutilate(text), module)

    def test_header_alone(self):
        """A stored residual's name and signature come from its header
        line, without reading the body."""
        module, func = self._residual()
        text = print_function(func, order="id")
        assert parse_header(text) == (func.name, func.sig)
        with pytest.raises(IRParseError):
            parse_header(text[:len(text) // 2])
        with pytest.raises(IRParseError):
            parse_header(text.replace(": i64", ": i32", 1))

    def test_duplicate_block_id_rejected(self):
        """Duplicate block ids must read as corruption, not silently
        last-write-wins into a different program."""
        module, func = self._residual()
        text = print_function(func, order="id")
        blocks = slice(text.index("\nblock0:"), text.rindex("\n}"))
        doubled = text[:blocks.stop] + text[blocks] + text[blocks.stop:]
        with pytest.raises(IRParseError, match="duplicate block"):
            parse_function(doubled, module)


# ---------------------------------------------------------------------------
# Warm start.
# ---------------------------------------------------------------------------
class TestWarmStart:
    def test_second_run_compiles_zero_functions(self, tmp_path):
        options = SpecializeOptions(cache_dir=str(tmp_path))
        cold, cold_out = run_snapshot(options)
        assert cold.engine.stats.functions_specialized == 2
        assert cold.engine.stats.artifacts_written == 2
        check_outputs(cold_out)

        warm, warm_out = run_snapshot(options)
        assert warm.engine.stats.functions_specialized == 0
        assert warm.engine.stats.artifact_hits == 2
        check_outputs(warm_out)
        # Byte-identical residual IR print, identical deterministic fuel.
        assert warm_out == cold_out
        assert all(p.artifact_hit for p in warm.processed)

    def test_warm_py_backend_reuses_source_and_fuel(self, tmp_path):
        options = SpecializeOptions(cache_dir=str(tmp_path), backend="py")
        cold, cold_out = run_snapshot(options)
        assert cold.engine.stats.backend_emitted == 2
        check_outputs(cold_out)
        warm, warm_out = run_snapshot(options)
        assert warm.engine.stats.functions_specialized == 0
        assert warm.engine.stats.backend_emitted == 0
        assert warm.engine.stats.backend_source_hits == 2
        # Every source hit came back as a marshalled code object, so
        # the warm start skipped CPython's parse + compile as well.
        assert warm.engine.stats.backend_code_hits == 2
        assert warm_out == cold_out  # results, fuel, and IR all identical
        assert set(warm.backend_functions) == {"spec_a", "spec_b"}

    def test_a_retired_fallback_entry_reads_invalid(self, tmp_path):
        """A ``py/`` entry in the retired fallback shape (no source, a
        reason) under the current key is invalid, like any entry without
        a source string: the warm engine counts it, emits the residual
        again, stores a source entry over it, and the function reaches
        tier 2 — so the schema change bumps neither version."""
        options = SpecializeOptions(cache_dir=str(tmp_path), backend="py")
        cold, cold_out = run_snapshot(options)
        entries = sorted(glob.glob(str(tmp_path / "py" / "*.json")))
        assert len(entries) == 2
        for path in entries:
            with open(path, "w") as handle:
                json.dump({"version": ARTIFACT_VERSION, "source": None,
                           "fallback": "spec: emitted source does not "
                                       "compile"}, handle)
        warm, warm_out = run_snapshot(options)
        stats = warm.engine.stats
        assert stats.artifact_invalid == 2
        assert (stats.backend_emitted, stats.backend_source_hits) == (2, 0)
        assert set(warm.backend_functions) == {"spec_a", "spec_b"}
        assert warm_out == cold_out
        for path in entries:
            with open(path) as handle:
                stored = json.load(handle)
            assert isinstance(stored["source"], str)
            assert "fallback" not in stored

    def test_a_refused_source_is_not_stored(self, tmp_path, monkeypatch):
        """A source ``compile()`` refuses fails its request and writes
        nothing to ``py/``: no verdict is remembered, so the next engine
        emits it again.  Every source the emitter writes compiles, so
        the cold engine's ``compile()`` refuses this one by hand."""
        import builtins

        from tests.helpers import loop_nest
        options = SpecializeOptions(cache_dir=str(tmp_path))
        real_compile = builtins.compile

        def refusing_compile(source, filename, *args, **kwargs):
            if filename == "<pybackend:nest>":
                raise SyntaxError("too many statically nested blocks")
            return real_compile(source, filename, *args, **kwargs)

        cold = CompilationEngine(loop_nest(3), options)
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "compile", refusing_compile)
            assert cold.compile_backend_functions(["nest"]) == {}
        assert cold.stats.requests_failed == 1
        assert os.listdir(tmp_path / "py") == []

        warm = CompilationEngine(loop_nest(3), options)
        assert list(warm.compile_backend_functions(["nest"])) == ["nest"]
        assert (warm.stats.backend_emitted, warm.stats.requests_failed) \
            == (1, 0)
        assert len(os.listdir(tmp_path / "py")) == 1

    def test_residual_artifacts_are_shared_across_backends(self, tmp_path):
        """backend is not part of the residual key (residual IR is
        backend-independent): a vm-compiled store satisfies a py-backend
        run's specialize stage, which then only has to emit."""
        run_snapshot(SpecializeOptions(cache_dir=str(tmp_path),
                                       backend="vm"))
        warm, outputs = run_snapshot(SpecializeOptions(
            cache_dir=str(tmp_path), backend="py"))
        check_outputs(outputs)
        assert warm.engine.stats.functions_specialized == 0
        assert warm.engine.stats.artifact_hits == 2
        assert warm.engine.stats.backend_emitted == 2

    def test_js_runtime_warm_start(self, tmp_path):
        """End-to-end through JSRuntime: the residuals contain
        ``call_indirect`` (Signature immediates) and IC-corpus stubs, so
        this exercises the full IR text surface."""
        from repro.jsvm import JSRuntime
        src = ("function compute() { var o = {}; o.x = 3; o.y = 4;\n"
               "  return o.x * o.y; }\n"
               "print(compute());")
        options = SpecializeOptions(cache_dir=str(tmp_path))
        cold = JSRuntime(src, "wevaled_state", options=options)
        vm_cold = cold.run()
        assert cold.compiler.engine.stats.functions_specialized > 0
        warm = JSRuntime(src, "wevaled_state", options=options)
        vm_warm = warm.run()
        assert warm.compiler.engine.stats.functions_specialized == 0
        assert warm.printed == cold.printed == ["12"]
        assert vm_warm.stats.fuel == vm_cold.stats.fuel
        for p_cold, p_warm in zip(cold.compiler.processed,
                                  warm.compiler.processed):
            assert print_function(
                cold.module.functions[p_cold.function_name],
                order="id") == print_function(
                warm.module.functions[p_warm.function_name], order="id")

    def test_memory_change_invalidates(self, tmp_path):
        options = SpecializeOptions(cache_dir=str(tmp_path))
        run_snapshot(options)

        module = build_module()
        module.write_init_u64(BASE_A + 8, 6)  # ADDI 6 instead of 5
        compiler = SnapshotCompiler(module, options)
        compiler.instantiate()
        for request, fnptr in zip(make_requests(), (FNPTR_A, FNPTR_B)):
            compiler.enqueue(request, fnptr)
        compiler.process_requests()
        # spec_a's promised-constant bytes changed -> fresh compile;
        # spec_b still loads from disk.
        assert compiler.engine.stats.functions_specialized == 1
        assert compiler.engine.stats.artifact_hits == 1


NAN_SRC = ("u64 g(u64 p) { storef64(p, ffrombits(0x7ff8000000000001)); "
           "return load64(p); }")


@pytest.mark.parametrize("backend", ["vm", "py"])
def test_nan_constant_survives_a_warm_start(tmp_path, backend):
    """A NaN's payload is part of its constant: the residual folds the
    bit pattern into an ``fconst``, and a warm start over the store
    returns the bits a cold start does."""
    def run():
        module = Module(memory_size=4096)
        compile_source(NAN_SRC).add_to_module(module)
        engine = CompilationEngine(module, SpecializeOptions(
            cache_dir=str(tmp_path), backend=backend))
        (result,) = engine.compile_batch([SpecializationRequest(
            "g", [Runtime()], specialized_name="g_spec")])
        module.add_function(result.function)
        vm = VM(module)
        if result.pyfunc is not None:
            vm.install_compiled({"g_spec": result.pyfunc})
        return vm.call("g_spec", [64]), result.artifact_hit

    assert run() == (0x7ff8000000000001, False)
    assert run() == (0x7ff8000000000001, True)


# An f64 request value is keyed by its bits: ``==`` merges 0.0 with -0.0
# and ``repr`` merges NaN payloads, in the request key and the store.
STORE_F64_SRC = "u64 f(f64 x, u64 p) { storef64(p, x); return load64(p); }"


def _f64_batch(bit_patterns, cache_dir=None):
    """One engine batch specializing ``f`` on each pattern; returns
    ``(engine, [(bits it returns, result), ...])``."""
    module = Module(memory_size=4096)
    compile_source(STORE_F64_SRC).add_to_module(module)
    engine = CompilationEngine(module, SpecializeOptions(cache_dir=cache_dir))
    results = engine.compile_batch([SpecializationRequest(
        "f", [SpecializedConst(_bits_itof(bits)), Runtime()],
        specialized_name=f"f_{bits:x}") for bits in bit_patterns])
    for result in results:
        module.add_function(result.function)
    return engine, [(VM(module).call(result.function.name, [0, 64]), result)
                    for result in results]


def test_signed_zeros_are_two_requests_in_one_batch():
    engine, runs = _f64_batch([0, 0x8000000000000000])
    snapshot = bytes(engine.module.memory_init)
    keys = [request_key(engine.module, result.request, engine.options,
                        snapshot) for _, result in runs]
    assert keys[0] != keys[1]
    assert [bits for bits, _ in runs] == [0, 0x8000000000000000]


def test_nan_payloads_are_two_store_keys(tmp_path):
    for payload in (0x7ff8000000000001, 0x7ff8000000000002):
        _, runs = _f64_batch([payload], str(tmp_path))
        assert [(bits, result.artifact_hit) for bits, result in runs] == [
            (payload, False)]


def test_nan_request_names_do_not_depend_on_batch_order(tmp_path):
    """An unnamed request spells a NaN by its bits, as the printer does:
    two payloads get two names and neither is suffixed, so a warm start
    that enqueues them in the other order still hits the ``py/`` code,
    whose key hashes the name."""
    a, b = 0x7ff8000000000001, 0x7ff8000000000002

    def batch(order):
        module = Module(memory_size=4096)
        compile_source(STORE_F64_SRC).add_to_module(module)
        compiler = SnapshotCompiler(module, SpecializeOptions(
            cache_dir=str(tmp_path), backend="py"))
        for slot, bits in enumerate(order):
            compiler.enqueue(SpecializationRequest(
                "f", [SpecializedConst(_bits_itof(bits)), Runtime()]),
                256 + 8 * slot)
        names = [p.function_name for p in compiler.process_requests()]
        stats = compiler.engine.stats
        return names, (stats.artifact_hits, stats.backend_emitted,
                       stats.backend_code_hits)

    name = {bits: f"f.spec.cnan:{bits:#018x}_r" for bits in (a, b)}
    assert batch([a, b]) == ([name[a], name[b]], (0, 2, 0))
    assert batch([b, a]) == ([name[b], name[a]], (2, 0, 2))


def test_every_f64_pattern_survives_the_store(tmp_path):
    cold, runs = _f64_batch(FLOAT_BIT_PATTERNS, str(tmp_path))
    assert [bits for bits, _ in runs] == list(FLOAT_BIT_PATTERNS)
    assert cold.stats.functions_specialized == len(FLOAT_BIT_PATTERNS)
    warm, runs = _f64_batch(FLOAT_BIT_PATTERNS, str(tmp_path))
    assert [bits for bits, _ in runs] == list(FLOAT_BIT_PATTERNS)
    assert warm.stats.artifact_hits == len(FLOAT_BIT_PATTERNS)
    assert warm.stats.functions_specialized == 0


# ---------------------------------------------------------------------------
# Corruption, truncation, version skew.
# ---------------------------------------------------------------------------
def _spec_files(tmp_path):
    spec_dir = os.path.join(str(tmp_path), "spec")
    return [os.path.join(spec_dir, f) for f in sorted(os.listdir(spec_dir))]


class TestArtifactRobustness:
    BACKEND = "vm"

    def _warm_after(self, tmp_path, damage):
        options = SpecializeOptions(cache_dir=str(tmp_path),
                                    backend=self.BACKEND)
        _, cold_outputs = run_snapshot(options)
        for path in _spec_files(tmp_path):
            damage(path)
        warm, outputs = run_snapshot(options)
        check_outputs(outputs)
        assert outputs == cold_outputs
        return warm

    def test_truncated_artifact_recompiles(self, tmp_path):
        def damage(path):
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_garbage_artifact_recompiles(self, tmp_path):
        def damage(path):
            with open(path, "wb") as handle:
                handle.write(b"\x00\xffnot json at all")
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_version_mismatch_recompiles(self, tmp_path):
        def damage(path):
            with open(path) as handle:
                data = json.load(handle)
            data["version"] = ARTIFACT_VERSION + 1
            with open(path, "w") as handle:
                json.dump(data, handle)
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_fingerprint_mismatch_recompiles(self, tmp_path):
        def damage(path):
            with open(path) as handle:
                data = json.load(handle)
            data["memory_fingerprint"] = "0" * 64
            with open(path, "w") as handle:
                json.dump(data, handle)
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_mangled_ir_payload_recompiles(self, tmp_path):
        # One entry gets an unknown terminator, the other no text at all.
        manglings = iter([lambda text: text.replace("  return ", "  yield "),
                          lambda text: 5])

        def damage(path):
            with open(path) as handle:
                data = json.load(handle)
            data["ir_text"] = next(manglings)(data["ir_text"])
            with open(path, "w") as handle:
                json.dump(data, handle)
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_semantically_invalid_ir_recompiles(self, tmp_path):
        """A parseable artifact whose function fails the verifier is
        rejected like corruption (artifacts sit outside the trust
        boundary)."""
        def damage(path):
            with open(path) as handle:
                data = json.load(handle)
            # Use-before-def: clobber every instruction's operands.
            lines = []
            for line in data["ir_text"].split("\n"):
                lhs, sep, rhs = line.partition(" = ")
                lines.append(lhs + sep + re.sub(r"\bv\d+", "v999999", rhs))
            data["ir_text"] = "\n".join(lines)
            with open(path, "w") as handle:
                json.dump(data, handle)
        warm = self._warm_after(tmp_path, damage)
        assert warm.engine.stats.functions_specialized == 2
        assert warm.engine.stats.artifact_invalid == 2

    def test_only_py_code_hits_stay_text(self, tmp_path):
        """A warm start from a store the py backend filled leaves a
        residual's body as text on the py backend, where its code object
        is all that runs, and reads it at once on the VM."""
        run_snapshot(SpecializeOptions(cache_dir=str(tmp_path),
                                       backend="py"))
        compiler = SnapshotCompiler(build_module(), SpecializeOptions(
            cache_dir=str(tmp_path), backend=self.BACKEND))
        for request, fnptr in zip(make_requests(), (FNPTR_A, FNPTR_B)):
            compiler.enqueue(request, fnptr)
        processed = compiler.process_requests()
        assert [unread(compiler.module.functions[p.function_name])
                for p in processed] == [self.BACKEND == "py"] * 2

    def test_store_statuses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        func, status = store.load_residual(("nope",), "g", "m",
                                           build_module())
        assert func is None and status == "miss"
        source, status = store.load_py_source("0" * 64)
        assert source is None and status == "miss"


class TestArtifactRobustnessLazy(TestArtifactRobustness):
    """The six damage cases again on the py backend, where an intact
    residual whose ``py/`` code object hits stays text: a damaged
    text's sha256 finds no code entry, so it is read — and rejected —
    at once, exactly as on the VM."""
    BACKEND = "py"


# ---------------------------------------------------------------------------
# A warm start reads only what it runs: the 16 ledger programs.
# ---------------------------------------------------------------------------
SUITE = tuple(rel for rel in corpus_manifest()
              if rel.startswith(("js/", "lua/")))


def _suite_start(rel, cache_dir):
    """AOT-compile one suite program the way the ledger does (py
    backend, over ``cache_dir``) and run its main once; returns
    ``(runtime, compiler, prints, fuel)``."""
    options = SpecializeOptions(backend="py", cache_dir=cache_dir)
    if rel.startswith("js/"):
        runtime = JSRuntime(corpus_program(rel), "wevaled_state",
                            options=options)
    else:
        runtime = LuaRuntime(corpus_program(rel), options=options)
    compiler = runtime.aot_compile()
    compiler.compile_backend()
    vm = runtime.run() if rel.startswith("js/") else runtime.run_aot()
    return runtime, compiler, [str(item) for item in runtime.printed], \
        vm.stats.fuel


def _suite_dir(root, rel):
    return os.path.join(str(root), rel.replace("/", "_"))


@pytest.fixture(scope="module")
def suite_store(tmp_path_factory):
    """One cold pass of the suite, one store per program; returns the
    root and each program's ``(prints, fuel)``."""
    root = tmp_path_factory.mktemp("suite")
    cold = {}
    for rel in SUITE:
        _, compiler, prints, fuel = _suite_start(rel, _suite_dir(root, rel))
        assert compiler.engine.stats.functions_specialized > 0
        cold[rel] = prints, fuel
    return root, cold


def _stored_texts(root):
    texts = set()
    for path in glob.glob(os.path.join(str(root), "*", "spec", "*.json")):
        with open(path) as handle:
            texts.add(json.load(handle)["ir_text"])
    return texts


class TestLazyWarmStart:
    def test_code_hits_read_no_body(self, suite_store, monkeypatch):
        """A warm start parses only the bodies the IR VM runs, and every
        suite function reaches tier 2, so none: every residual stays
        text until read, and then reads back as the eager load would
        have: parsed, verified and printed byte-identical to its stored
        text."""
        root, cold = suite_store
        parses = []
        real_parse = artifacts.parse_function

        def counting_parse(text, *args, **kwargs):
            parses.append(text)
            return real_parse(text, *args, **kwargs)

        monkeypatch.setattr(artifacts, "parse_function", counting_parse)
        totals = EngineStats()
        residuals = []
        for rel in SUITE:
            runtime, compiler, prints, fuel = _suite_start(
                rel, _suite_dir(root, rel))
            assert (prints, fuel) == cold[rel]
            totals.merge(compiler.engine.stats)
            residuals += [(runtime.module,
                           runtime.module.functions[p.function_name])
                          for p in compiler.processed]
        assert totals.functions_specialized == 0
        assert totals.backend_code_hits == totals.requests == len(residuals)
        assert len(parses) == 0
        assert sum(unread(func) for _, func in residuals) \
            == totals.backend_code_hits
        stored = _stored_texts(root)
        for module, func in residuals:
            if unread(func):
                text = func.text
                func.read_body()
                assert parses[-1] == text
                assert print_function(func, order="id") == text
            verify_function(func, module)
            assert print_function(func, order="id") in stored
        assert sum(func.num_instrs() for _, func in residuals) == 6167

    def test_cross_interpreter_store_reads_every_body(self, suite_store,
                                                       tmp_path):
        """Entries another interpreter wrote carry its bytecode magic:
        every ``py/`` hit is then source-only, each body is read at
        once, and prints and fuel are unchanged."""
        root, cold = suite_store
        skewed = tmp_path / "skewed"
        shutil.copytree(str(root), str(skewed))
        for path in glob.glob(str(skewed / "*" / "py" / "*.json")):
            with open(path) as handle:
                data = json.load(handle)
            if "py_magic" in data:
                data["py_magic"] = "00000000"
                with open(path, "w") as handle:
                    json.dump(data, handle)
        for rel in SUITE:
            runtime, compiler, prints, fuel = _suite_start(
                rel, _suite_dir(skewed, rel))
            stats = compiler.engine.stats
            assert (prints, fuel) == cold[rel]
            assert stats.functions_specialized == 0
            assert stats.backend_code_hits == 0
            assert stats.backend_source_hits == stats.requests
            assert not any(unread(runtime.module.functions[p.function_name])
                           for p in compiler.processed)


def test_staged_worker_warm_starts_from_aot_store(tmp_path):
    """A staged tiered worker (``compile_threshold > 0``: residual IR
    first, backend emit when a function earns tier 2) over a store
    filled by unstaged ``backend="py"`` AOT re-specializes nothing."""
    from repro.jsvm import JSRuntime
    src = ("function add(a, b) { return a + b; }\n"
           "function main() { var t = 0; var i = 0;\n"
           "  while (i < 12) { t = add(t, i); i = i + 1; }\n"
           "  return t; }\n"
           "print(main());")
    options = SpecializeOptions(backend="py", cache_dir=str(tmp_path))
    aot = JSRuntime(src, "wevaled_state", options=options)
    aot.run()
    assert aot.compiler.engine.stats.functions_specialized > 0
    staged = JSRuntime(src, "wevaled_state", options=options)
    staged.run(mode="tiered", threshold=1, compile_threshold=2)
    stats = staged.controller.compiler.engine.stats
    assert stats.requests > 0
    assert stats.functions_specialized == 0
    assert stats.artifact_hits == stats.requests
    assert staged.printed == aot.printed == ["66"]


# ---------------------------------------------------------------------------
# Engine surface details.
# ---------------------------------------------------------------------------
class TestEngineSurface:
    def test_second_engine_over_same_cache_dir_takes_artifact_hits(
            self, tmp_path):
        """The store is the one cache: a second engine in the same
        process over the same ``cache_dir`` — and a later batch of the
        same engine under new names — specializes nothing."""
        options = SpecializeOptions(cache_dir=str(tmp_path))
        run_snapshot(options)  # populate disk
        engine = CompilationEngine(build_module(), options)
        first = engine.compile_batch(make_requests())
        again = engine.compile_batch([
            dataclasses.replace(r, specialized_name=r.specialized_name
                                + ".2") for r in make_requests()])
        assert all(r.artifact_hit for r in first + again)
        assert [r.function.name for r in again] == ["spec_a.2", "spec_b.2"]
        assert engine.stats.artifact_hits == 4
        assert engine.stats.functions_specialized == 0

    def test_duplicate_keys_are_independent_requests(self):
        """The store is the one cache: a second request of a key in the
        same batch specializes for itself, under its own name."""
        engine = CompilationEngine(build_module())
        request = make_requests()[0]
        twin = dataclasses.replace(request, specialized_name="spec_twin")
        results = engine.compile_batch([request, twin])
        assert engine.stats.functions_specialized == 2
        assert all(r.specialized for r in results)
        assert [r.function.name for r in results] == ["spec_a", "spec_twin"]

    def test_uncreatable_cache_dir_degrades_to_no_cache(self, tmp_path):
        """A cache_dir that cannot be created (path collides with a
        file) degrades to 'no cache', never a failed build."""
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        options = SpecializeOptions(
            cache_dir=str(blocker / "cache"))
        engine = CompilationEngine(build_module(), options)
        assert engine.store is None
        results = engine.compile_batch(make_requests())
        assert engine.stats.functions_specialized == 2
        assert [r.function.name for r in results] == ["spec_a", "spec_b"]

    def test_engine_results_in_request_order(self):
        module = build_module()
        engine = CompilationEngine(module)
        requests = make_requests()
        results = engine.compile_batch(requests)
        assert [r.request.specialized_name for r in results] == \
            [r.specialized_name for r in requests]


# ---------------------------------------------------------------------------
# Cross-process artifact-store safety.
# ---------------------------------------------------------------------------

def _hammer_store(cache_dir: str, barrier, rounds: int) -> None:
    """Child-process body: repeatedly cold-compile the shared request
    set into one cache_dir, overlapping with a sibling writer.

    Every iteration rewrites the same artifact files (the advisory-lock
    + reread-validation path), and asserts its own outputs so a torn
    read in the child surfaces as a nonzero exit code.
    """
    barrier.wait()  # maximize writer overlap
    options = SpecializeOptions(cache_dir=cache_dir, backend="py")
    for _ in range(rounds):
        _, outputs = run_snapshot(options)
        check_outputs(outputs)


class TestCrossProcessStore:
    def test_two_process_writers_leave_valid_store(self, tmp_path):
        """Two processes hammering one cache_dir concurrently must not
        interleave torn state: afterwards every entry loads as a clean
        hit and a fresh engine warm-starts with zero fresh compiles."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_hammer_store,
                        args=(str(tmp_path), barrier, 4))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        # The surviving store state must be fully valid: a cold process
        # warm-starts entirely from disk, with no invalid entries.
        options = SpecializeOptions(cache_dir=str(tmp_path), backend="py")
        module = build_module()
        engine = CompilationEngine(module, options)
        results = engine.compile_batch(make_requests())
        assert engine.stats.functions_specialized == 0
        assert engine.stats.artifact_invalid == 0
        assert all(r.artifact_hit for r in results)
        assert all(r.pyfunc is not None for r in results)

    def test_failed_validation_reports_not_stored(self, tmp_path,
                                                  monkeypatch):
        """A write whose reread does not validate (e.g. truncated by the
        filesystem) is reported as not stored, never as success."""
        store = ArtifactStore(str(tmp_path))
        original = ArtifactStore._read_json

        def truncated_read(path):
            data, status = original(path)
            if data is not None and "ir_text" in data:
                # Simulate a torn payload.
                data = dict(data, ir_text=data["ir_text"][:-1])
            return data, status

        monkeypatch.setattr(ArtifactStore, "_read_json",
                            staticmethod(truncated_read))
        text = print_function(build_module().functions["interp"],
                              order="id")
        ok = store.store_residual(("k",), text, "gfp", "mfp")
        assert not ok


def _hammer_store_nofcntl(cache_dir: str, barrier, rounds: int) -> None:
    """Like :func:`_hammer_store` but with the non-POSIX lock-free
    fallback forced on (``fcntl = None``), exercising the degraded
    write path under real cross-process contention."""
    from repro.pipeline import artifacts
    artifacts.fcntl = None
    _hammer_store(cache_dir, barrier, rounds)


class TestCrossProcessStoreNoFcntl:
    """The non-POSIX fallback (no advisory locks): writes stay atomic
    (temp file + rename) and reread-validated, so concurrent writers
    may waste work but can never leave torn state behind."""

    def test_two_lock_free_writers_leave_valid_store(self, tmp_path,
                                                     monkeypatch):
        import multiprocessing

        from repro.pipeline import artifacts
        monkeypatch.setattr(artifacts, "fcntl", None)
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_hammer_store_nofcntl,
                        args=(str(tmp_path), barrier, 4))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        options = SpecializeOptions(cache_dir=str(tmp_path), backend="py")
        engine = CompilationEngine(build_module(), options)
        results = engine.compile_batch(make_requests())
        assert engine.stats.functions_specialized == 0
        assert engine.stats.artifact_invalid == 0
        assert all(r.artifact_hit for r in results)

    def test_store_lock_is_inert_without_fcntl(self, tmp_path,
                                               monkeypatch):
        from repro.pipeline import artifacts
        monkeypatch.setattr(artifacts, "fcntl", None)
        lock = artifacts._StoreLock(str(tmp_path))
        with lock:
            assert lock._handle is None
        assert not os.path.exists(os.path.join(str(tmp_path), ".lock"))


# ---------------------------------------------------------------------------
# _StoreLock lifecycle and the atomic-write failure paths.
# ---------------------------------------------------------------------------
class TestStoreLockLifecycle:
    def test_handle_closes_when_body_raises(self, tmp_path):
        from repro.pipeline.artifacts import _StoreLock
        lock = _StoreLock(str(tmp_path))
        with pytest.raises(RuntimeError, match="body"):
            with lock:
                handle = lock._handle
                assert handle is not None and not handle.closed
                raise RuntimeError("body")
        assert lock._handle is None
        assert handle.closed

    def test_handle_closes_even_if_unlock_fails(self, tmp_path):
        """An unlock error (here: the locked body closed the handle, so
        LOCK_UN raises on the dead file) must neither leak the handle
        nor raise out of ``__exit__``."""
        from repro.pipeline.artifacts import _StoreLock
        lock = _StoreLock(str(tmp_path))
        with lock:
            handle = lock._handle
            handle.close()  # fileno() in LOCK_UN now raises ValueError
        assert lock._handle is None
        assert handle.closed

    def test_unopenable_lock_degrades_to_lock_free(self, tmp_path):
        """A cache_dir whose lock path cannot be opened (here it is a
        directory) degrades to lock-free operation: the locked body
        still runs, nothing raises."""
        from repro.pipeline.artifacts import _StoreLock
        os.mkdir(tmp_path / ".lock")
        ran = []
        lock = _StoreLock(str(tmp_path))
        with lock:
            ran.append(lock._handle)
        assert ran == [None]

    def test_reentry_after_degrade_is_clean(self, tmp_path):
        """A degraded acquisition leaves no state that poisons the next
        one: remove the blocker and the lock works again."""
        from repro.pipeline.artifacts import _StoreLock
        os.mkdir(tmp_path / ".lock")
        lock = _StoreLock(str(tmp_path))
        with lock:
            pass
        os.rmdir(tmp_path / ".lock")
        with lock:
            assert lock._handle is not None
        assert lock._handle is None


class TestAtomicWriteFailurePaths:
    def _target(self, tmp_path):
        return str(tmp_path / "entry.json")

    def test_unwritable_directory_returns_false(self, tmp_path):
        ok = locked_write_json(
            str(tmp_path), str(tmp_path / "missing" / "entry.json"),
            {"k": 1}, lambda path: True)
        assert not ok

    def test_unencodable_payload_cleans_up_temp(self, tmp_path):
        ok = locked_write_json(str(tmp_path), self._target(tmp_path),
                               {"k": object()}, lambda path: True)
        assert not ok
        leftovers = [f for f in os.listdir(str(tmp_path))
                     if f.endswith(".tmp")]
        assert leftovers == []
        assert not os.path.exists(self._target(tmp_path))

    def test_fdopen_failure_releases_fd_and_temp(self, tmp_path,
                                                 monkeypatch):
        seen = []
        real_fdopen = os.fdopen

        def failing_fdopen(fd, *args, **kwargs):
            seen.append(fd)
            raise OSError("simulated fdopen failure")

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        ok = locked_write_json(str(tmp_path), self._target(tmp_path),
                               {"k": 1}, lambda path: True)
        monkeypatch.setattr(os, "fdopen", real_fdopen)
        assert not ok
        assert len(seen) == 1
        # The raw fd was closed on the failure path.
        with pytest.raises(OSError):
            os.fstat(seen[0])
        assert [f for f in os.listdir(str(tmp_path))
                if f.endswith(".tmp")] == []

    def test_validation_failure_reports_false(self, tmp_path):
        ok = locked_write_json(str(tmp_path), self._target(tmp_path),
                               {"k": 1}, lambda path: False)
        assert not ok

    def test_success_round_trip(self, tmp_path):
        target = self._target(tmp_path)

        def validate(path):
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle) == {"k": 1}

        assert locked_write_json(str(tmp_path), target, {"k": 1}, validate)
        assert [f for f in os.listdir(str(tmp_path))
                if f.endswith(".tmp")] == []


# ---------------------------------------------------------------------------
# Fault containment (PR 9): per-request isolation, store degradation.
# ---------------------------------------------------------------------------
class TestFaultContainment:
    def test_specialize_fault_fails_only_that_request(self):
        from repro.pipeline.faults import FaultPlan
        module = build_module()
        engine = CompilationEngine(
            module, SpecializeOptions(fault_plan=FaultPlan.once(
                "specialize", index=0)))
        results = engine.compile_batch(make_requests())
        assert results[0].error is not None
        assert results[0].function is None
        assert results[1].error is None
        assert results[1].function.name == "spec_b"
        assert engine.stats.requests_failed == 1
        assert engine.stats.functions_specialized == 1

    def test_errored_request_writes_nothing(self, tmp_path):
        from repro.pipeline.faults import FaultPlan
        # Both walks: a specialize crash has no residual to store, an
        # emit crash has one and must still not store it.  (A loop, not
        # a parametrization, so the test keeps its id.)
        for seam in ("specialize", "emit"):
            options = SpecializeOptions(
                cache_dir=str(tmp_path / seam), backend="py",
                fault_plan=FaultPlan.once(seam, index=0))
            engine = CompilationEngine(build_module(), options)
            results = engine.compile_batch(make_requests())
            assert results[0].error is not None
            assert results[1].error is None
            assert len(os.listdir(engine.store.spec_dir)) == 1, seam
            # The store holds no state for the failed request; a retry
            # compiles it fresh and writes it.
            retry = engine.compile_batch(make_requests())
            assert retry[0].error is None
            assert retry[0].specialized  # fresh compile, not a stale hit
            assert retry[1].artifact_hit
            assert engine.stats.artifacts_written == 2

    def test_emit_fault_fails_request(self):
        from repro.pipeline.faults import FaultPlan
        module = build_module()
        engine = CompilationEngine(
            module, SpecializeOptions(
                backend="py",
                fault_plan=FaultPlan.once("emit", index=0)))
        results = engine.compile_batch(make_requests())
        assert results[0].error is not None
        assert results[1].error is None
        assert results[1].pyfunc is not None

    def test_mid_batch_store_corruption_recompiles(self, tmp_path):
        """An artifact that goes bad *between* the existence probe and
        the read inside one batch (a concurrent eviction or truncation)
        is a silent recompile, never a crash."""
        from repro.pipeline.faults import FaultPlan
        warm = CompilationEngine(build_module(),
                                 SpecializeOptions(cache_dir=str(tmp_path)))
        warm.compile_batch(make_requests())  # populate the store
        options = SpecializeOptions(
            cache_dir=str(tmp_path),
            fault_plan=FaultPlan.once("store_read", index=0))
        engine = CompilationEngine(build_module(), options)
        results = engine.compile_batch(make_requests())
        assert all(r.error is None for r in results)
        assert engine.stats.artifact_invalid == 1
        assert engine.stats.functions_specialized == 1  # the corrupt one
        assert engine.stats.artifact_hits == 1          # the healthy one
        assert print_function(results[0].function, order="id") == \
            print_function(warm.compile_batch(make_requests())[0].function,
                           order="id")

    def test_store_write_outage_degrades_to_memory(self, tmp_path):
        from repro.pipeline.faults import FaultPlan
        from repro.pipeline.artifacts import DEGRADE_AFTER_WRITE_FAILURES
        options = SpecializeOptions(
            cache_dir=str(tmp_path),
            fault_plan=FaultPlan.always("store_write"))
        engine = CompilationEngine(build_module(), options)
        first = engine.compile_batch(make_requests())
        assert all(r.error is None for r in first)
        store = engine.store
        assert store.write_failures >= 2
        # Keep compiling until the degrade threshold trips.
        engine.compile_batch([
            dataclasses.replace(r, specialized_name=r.specialized_name
                                + ".2") for r in make_requests()])
        assert store.degraded
        assert store.health()["memory_entries"] > 0
        assert engine.stats.store_degraded == 1
        # Nothing leaked to disk, but the memory overlay now serves
        # warm loads within this process.
        fresh = CompilationEngine(build_module(),
                                  SpecializeOptions(cache_dir=str(tmp_path)))
        assert fresh.compile_batch(
            make_requests())[0].specialized  # disk really is empty
        again = engine.compile_batch(make_requests())
        assert all(r.artifact_hit for r in again)
