"""MiniJS runtime assembly and execution configurations (S6).

A :class:`JSRuntime` builds one module for one source program in one of
four configurations (Fig. 11):

* ``noic`` — generic interpreter, property ops always take the host slow
  path ("Generic Interp");
* ``interp_ic`` — interpreter with inline-cache chains; stubs are
  CacheIR sequences attached lazily by the slow path and run by the
  generic CacheIR interpreter ("Interp + ICs", the baseline);
* ``wevaled`` — AOT: every JS function and every IC-corpus stub is
  specialized through weval, *without* state intrinsics;
* ``wevaled_state`` — same, with virtualized locals/stack/registers
  ("wevaled + state opt", the paper's final configuration).

The AOT flow follows the paper: the IC corpus is pre-collected (we
enumerate every shape x property at snapshot time, S6's "pre-collected
set of IC bodies ... in a lookup table"), each corpus stub's CacheIR is
specialized, and at run time the slow path merely *attaches* corpus
stubs to sites — dynamism lives in data (which stub a site points to),
never in new code.

As a guest on :class:`~repro.pipeline.host.GuestRuntime` the runtime
supplies two methods — :meth:`JSRuntime.tier_entries` (one entry per JS
function and per IC-corpus stub) and :meth:`JSRuntime.enter` (set up
main's frame and dispatch through its ``spec`` slot); AOT compilation
and the ``interp``/``aot``/``tiered`` run modes come from the base.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core import (
    Runtime as RuntimeArg,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
)
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source, interpreter_image
from repro.ir import Module
from repro.jsvm.bytecode import JSFunction
from repro.jsvm.frontend import JSCompileError, compile_js
from repro.jsvm.interp_src import ic_interp_source, js_interp_source
from repro.jsvm.shapes import OBJECT_SLOT_CAPACITY
from repro.jsvm.values import (
    TAG_ARRAY,
    TAG_OBJECT,
    VALUE_UNDEFINED,
    box_double,
    describe,
    payload,
    tag_of,
    unbox_double,
)
from repro.pipeline.host import GuestRuntime
from repro.pipeline.tiering import TierEntry
from repro.vm import VM

FUNC_TABLE_PTR_ADDR = 24
HEAP_PTR_ADDR = 32
FUNC_STRUCT_WORDS = 10
SPEC_FIELD_WORD = 8

# CacheIR opcodes (see interp_src.ic_interp_source).
CIR_GUARD_SHAPE = 0
CIR_LOAD_SLOT = 1
CIR_STORE_SLOT = 2
CIR_RET = 3

CONFIGS = ("noic", "interp_ic", "wevaled", "wevaled_state")
AOT_CONFIGS = ("wevaled", "wevaled_state")

# Deterministic fuel charges for work done by host ("native runtime")
# helpers.  The real engine pays these costs in code the VM would count;
# our Python host does them for free, so we charge a cost model instead:
# a megamorphic property lookup is a hash probe + proto walk (hundreds of
# instructions in SpiderMonkey's C++), and the engine frontend
# (parse + bytecode emission) costs per bytecode word are identical in
# every configuration (which is what makes CodeLoad flat in Fig. 11).
SLOW_PATH_FUEL = 300
CODE_LOAD_FUEL_PER_WORD = 60


def regex_match_count_host(text_values, pattern_values) -> int:
    """Host-side 'regex engine': counts occurrences of ``pattern`` in
    ``text`` (both lists of numbers).  This models the separate regex
    interpreter that weval does not specialize (the Fig. 11 RegExp
    outlier)."""
    count = 0
    n, m = len(text_values), len(pattern_values)
    for start in range(n - m + 1):
        if all(text_values[start + j] == pattern_values[j]
               for j in range(m)):
            count += 1
    return count


@dataclasses.dataclass
class _StubInfo:
    addr: int
    cacheir_ptr: int
    cacheir_words: int


class JSRuntime(GuestRuntime):
    """One MiniJS program instantiated in one engine configuration."""

    def __init__(self, source: str, config: str = "interp_ic",
                 memory_size: int = 1 << 22,
                 options: Optional[SpecializeOptions] = None):
        if config not in CONFIGS:
            raise ValueError(f"bad config {config!r}")
        self.config = config
        self.default_mode = "aot" if config in AOT_CONFIGS else "interp"
        self.compiled = compile_js(source)
        self.names = self.compiled.names
        self.shapes = self.compiled.shapes
        self.module = Module(memory_size=memory_size)
        self.printed: List[str] = []
        self.printed_values: List[int] = []
        self.slow_getprop_calls = 0
        self.slow_setprop_calls = 0
        self.ic_attaches = 0
        self.options = options or SpecializeOptions()

        self._add_interpreters()
        self.func_addrs: Dict[int, int] = {}
        self.corpus: Dict[Tuple[str, int, int], _StubInfo] = {}
        self._layout()
        self.frame_base = memory_size * 3 // 4

    # ------------------------------------------------------------------
    # Module assembly.
    # ------------------------------------------------------------------
    def _add_interpreters(self) -> None:
        externs = {
            "js_getprop_slow": self._host_getprop_slow,
            "js_setprop_slow": self._host_setprop_slow,
            "js_print": self._host_print,
            "js_trap": self._host_trap,
            "js_hostcall": self._host_hostcall,
        }
        if self.config == "noic":
            sources = [js_interp_source("js_interp_noic", use_ics=False,
                                        use_state=False,
                                        fallback="js_interp_noic")]
            self.generic_entry = "js_interp_noic"
        else:
            sources = [
                ic_interp_source("ic_interp", use_state=False),
                js_interp_source("js_interp", use_ics=True,
                                 use_state=False, fallback="js_interp"),
            ]
            self.generic_entry = "js_interp"
            if self.config == "wevaled_state":
                sources.append(ic_interp_source("ic_interp_s",
                                                use_state=True))
                sources.append(js_interp_source(
                    "js_interp_s", use_ics=True, use_state=True,
                    fallback="js_interp"))
        # One program: js_interp calls ic_interp directly.
        interpreter_image("\n".join(sources), compile_source).add_to_module(
            self.module, externs=externs)

    def _layout(self) -> None:
        module = self.module
        cursor = 0x2000
        per_func: Dict[int, Dict[str, int]] = {}
        for func in self.compiled.functions:
            info = {"code": cursor}
            for i, word in enumerate(func.code):
                module.write_init_u64(cursor + i * 8, word)
            cursor += len(func.code) * 8
            info["consts"] = cursor
            for i, value in enumerate(func.constants):
                module.write_init_u64(cursor + i * 8, value)
            cursor += max(len(func.constants), 1) * 8
            info["sites"] = cursor
            cursor += max(func.num_ic_sites, 1) * 8  # zero-initialized
            per_func[func.index] = info

        table_ptr = cursor
        cursor += len(self.compiled.functions) * 8
        module.write_init_u64(FUNC_TABLE_PTR_ADDR, table_ptr)
        self.func_table_ptr = table_ptr

        for func in self.compiled.functions:
            struct_ptr = cursor
            cursor += FUNC_STRUCT_WORDS * 8
            info = per_func[func.index]
            fields = [info["code"], len(func.code), info["consts"],
                      len(func.constants), func.num_params,
                      func.num_locals, info["sites"], func.num_ic_sites,
                      0, func.frame_slots]
            for i, value in enumerate(fields):
                module.write_init_u64(struct_ptr + i * 8, value)
            module.write_init_u64(table_ptr + func.index * 8, struct_ptr)
            self.func_addrs[func.index] = struct_ptr

        # IC corpus: one get-stub and one set-stub per (shape, property).
        if self.config != "noic":
            for shape_id, name_id, slot in self.shapes.all_property_pairs():
                cursor = self._build_stub(cursor, "get", shape_id, name_id,
                                          slot)
                cursor = self._build_stub(cursor, "set", shape_id, name_id,
                                          slot)
        self.data_end = cursor
        module.write_init_u64(HEAP_PTR_ADDR, self._align(cursor))

    @staticmethod
    def _align(addr: int) -> int:
        return (addr + 63) & ~63

    def _build_stub(self, cursor: int, kind: str, shape_id: int,
                    name_id: int, slot: int) -> int:
        """Write a CacheIR body + stub struct into the heap image."""
        module = self.module
        if kind == "get":
            # r0 = object; guard shape; r2 = slot; return r2.
            cacheir = [
                CIR_GUARD_SHAPE, 0, shape_id, 0,
                CIR_LOAD_SLOT, 2, 0, slot,
                CIR_RET, 2, 0, 0,
            ]
        else:
            # r0 = object, r1 = value; guard; store; return value.
            cacheir = [
                CIR_GUARD_SHAPE, 0, shape_id, 0,
                CIR_STORE_SLOT, 0, slot, 1,
                CIR_RET, 1, 0, 0,
            ]
        cacheir_ptr = cursor
        for i, word in enumerate(cacheir):
            module.write_init_u64(cacheir_ptr + i * 8, word)
        cursor += len(cacheir) * 8
        stub_ptr = cursor
        # [cacheir, cacheir_len, next, spec]
        for i, value in enumerate([cacheir_ptr, len(cacheir), 0, 0]):
            module.write_init_u64(stub_ptr + i * 8, value)
        cursor += 4 * 8
        self.corpus[(kind, shape_id, name_id)] = _StubInfo(
            stub_ptr, cacheir_ptr, len(cacheir))
        return cursor

    # ------------------------------------------------------------------
    # Host slow paths ("the rest of the runtime").
    # ------------------------------------------------------------------
    def _object_addr(self, boxed: int) -> int:
        if tag_of(boxed) != TAG_OBJECT:
            raise RuntimeError(
                f"property access on non-object: {describe(boxed)}")
        return payload(boxed)

    def _attach_stub(self, vm, kind: str, shape_id: int, name_id: int,
                     site: int) -> None:
        stub = self.corpus.get((kind, shape_id, name_id))
        if stub is None or site == 0:
            return
        # Push onto the site's chain (stub.next := old head; head := stub).
        old_head = vm.load_u64(site)
        vm.store_u64(stub.addr + 16, old_head)
        vm.store_u64(site, stub.addr)
        self.ic_attaches += 1

    def _host_getprop_slow(self, vm, obj, name_id, site):
        self.slow_getprop_calls += 1
        vm.stats.fuel += SLOW_PATH_FUEL
        addr = self._object_addr(obj)
        shape_id = vm.load_u64(addr)
        slot = self.shapes.lookup(shape_id, name_id)
        if slot is None:
            return VALUE_UNDEFINED
        if self.config != "noic":
            self._attach_stub(vm, "get", shape_id, name_id, site)
        return vm.load_u64(addr + 8 + slot * 8)

    def _host_setprop_slow(self, vm, obj, name_id, value, site):
        self.slow_setprop_calls += 1
        vm.stats.fuel += SLOW_PATH_FUEL
        addr = self._object_addr(obj)
        shape_id = vm.load_u64(addr)
        slot = self.shapes.lookup(shape_id, name_id)
        if slot is None:
            # Shape transition: add the property (capacity is fixed).
            new_shape = self.shapes.transition(shape_id, name_id)
            slot = self.shapes.lookup(new_shape, name_id)
            if slot >= OBJECT_SLOT_CAPACITY:
                raise RuntimeError("object slot capacity exceeded")
            vm.store_u64(addr, new_shape)
        elif self.config != "noic":
            self._attach_stub(vm, "set", shape_id, name_id, site)
        vm.store_u64(addr + 8 + slot * 8, value)
        return value

    def _host_print(self, vm, value):
        self.printed.append(describe(value))
        self.printed_values.append(value)
        return None

    def _host_trap(self, vm, code):
        raise RuntimeError(f"MiniJS runtime error #{code}")

    def _read_array(self, vm, boxed):
        if tag_of(boxed) != TAG_ARRAY:
            raise RuntimeError("host call expects an array")
        addr = payload(boxed)
        length = vm.load_u64(addr)
        return [unbox_double(vm.load_u64(addr + 16 + i * 8))
                for i in range(length)]

    def _host_hostcall(self, vm, host_id, arg1, arg2):
        """Host helper dispatch — the analog of runtime subsystems (like
        the regex engine) that live outside the wevaled interpreter."""
        if host_id == 0:
            text = self._read_array(vm, arg1)
            pattern = self._read_array(vm, arg2)
            # Charge deterministic fuel for the host-side engine so the
            # fuel metric reflects time spent outside specialized code.
            vm.stats.fuel += 100 * max(len(text) - len(pattern) + 1, 0)
            return box_double(float(regex_match_count_host(text, pattern)))
        raise RuntimeError(f"unknown host function {host_id}")

    # ------------------------------------------------------------------
    # What can tier up: specialization requests and tier entries.
    # ------------------------------------------------------------------
    def _js_request(self, func: JSFunction,
                    js_generic: str) -> SpecializationRequest:
        """The specialization request for one JS function (shared by the
        AOT batch and dynamic promotion — identical cache keys)."""
        struct_ptr = self.func_addrs[func.index]
        code_ptr = self.module.read_init_u64(struct_ptr)
        consts_ptr = self.module.read_init_u64(struct_ptr + 16)
        return SpecializationRequest(
            js_generic,
            [SpecializedConst(struct_ptr), RuntimeArg()],
            specialized_name=f"js${func.name}",
            extra_const_memory=[
                (FUNC_TABLE_PTR_ADDR, 8),
                (self.func_table_ptr,
                 len(self.compiled.functions) * 8),
                (struct_ptr, SPEC_FIELD_WORD * 8),      # not `spec`
                (struct_ptr + 72, 8),                    # frame_slots
                (code_ptr, len(func.code) * 8),
                (consts_ptr, max(len(func.constants), 1) * 8),
                # Callee struct headers (for CALL's frame_slots and
                # arity reads) — every function's non-spec words.
                *[(self.func_addrs[f.index], SPEC_FIELD_WORD * 8)
                  for f in self.compiled.functions],
                *[(self.func_addrs[f.index] + 72, 8)
                  for f in self.compiled.functions],
            ])

    def _ic_request(self, kind: str, shape_id: int, name_id: int,
                    stub: _StubInfo,
                    ic_generic: str) -> SpecializationRequest:
        """The specialization request for one IC-corpus stub."""
        return SpecializationRequest(
            ic_generic,
            [SpecializedMemory(stub.cacheir_ptr,
                               stub.cacheir_words * 8),
             SpecializedConst(stub.cacheir_words),
             RuntimeArg(), RuntimeArg()],
            specialized_name=f"ic${kind}${shape_id}${name_id}")

    def tier_entries(self) -> List:
        """Every tierable function of this runtime: one entry per JS
        function (watched at the generic ``js_interp`` fallback, keyed
        by function-struct pointer, frame pointer speculation-eligible)
        and one per IC-corpus stub (watched at ``ic_interp``, keyed by
        CacheIR pointer) — the paper's pre-collected corpus, now
        promoted on demand instead of all at snapshot time."""
        if self.config not in AOT_CONFIGS:
            raise RuntimeError(f"config {self.config} is not AOT: it has "
                               f"no tier-up targets")
        use_state = self.config == "wevaled_state"
        js_generic = "js_interp_s" if use_state else "js_interp"
        ic_generic = "ic_interp_s" if use_state else "ic_interp"
        entries = []
        for func in self.compiled.functions:
            struct_ptr = self.func_addrs[func.index]
            entries.append(TierEntry(
                generic="js_interp",
                key=struct_ptr,
                request=self._js_request(func, js_generic),
                result_addr=struct_ptr + SPEC_FIELD_WORD * 8,
                speculate_args=(1,),
                inline_gate=self._inline_gate,
            ))
        # One entry per IC-corpus stub (the paper's 2320-stub corpus).
        for (kind, shape_id, name_id), stub in sorted(self.corpus.items()):
            entries.append(TierEntry(
                generic="ic_interp",
                key=stub.cacheir_ptr,
                request=self._ic_request(kind, shape_id, name_id, stub,
                                         ic_generic),
                result_addr=stub.addr + 24,
                inline_gate=self._inline_gate,
            ))
        return entries

    def _inline_gate(self, name: str) -> bool:
        """Embedder policy for speculative inlining: JS function
        residuals (``js$...``) are always admissible; IC stub residuals
        (``ic$kind$shape$name``) only while their shape/property pair is
        still live in the runtime's :class:`ShapeTable` — splicing a
        stub for a retired shape would bake dead layout knowledge into
        a caller that outlives it."""
        base = name.split(".", 1)[0]
        if not base.startswith("ic$"):
            return True
        parts = base.split("$")
        if len(parts) != 4:
            return False
        try:
            shape_id, name_id = int(parts[2]), int(parts[3])
        except ValueError:
            return False
        return self.shapes.lookup(shape_id, name_id) is not None

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def enter(self, vm: VM) -> VM:
        """Run main on ``vm`` (result on ``vm.result``)."""
        # Engine-frontend cost model: parsing and bytecode emission are
        # identical across configurations.
        vm.stats.fuel += CODE_LOAD_FUEL_PER_WORD * sum(
            len(f.code) for f in self.compiled.functions)
        main_struct = self.func_addrs[0]
        # main's frame: `this` local is undefined.
        vm.store_u64(self.frame_base, VALUE_UNDEFINED)
        # A zero ``spec`` slot means main has no specialization (not AOT,
        # not yet promoted, or its compile failed and was contained): run
        # it generic, the way guest-level calls dispatch on the same slot.
        spec = vm.load_u64(main_struct + SPEC_FIELD_WORD * 8)
        if spec:
            vm.result = vm.call_table(spec, [main_struct, self.frame_base])
        else:
            vm.result = vm.call(self.generic_entry,
                                [main_struct, self.frame_base])
        return vm

    def specialized_function_count(self) -> int:
        return len(self.compiler.processed) if self.compiler else 0
