"""The shared host glue (``repro.pipeline.host``).

* **Fourth guest** — the RPN calculator of
  ``examples/custom_interpreter.py`` becomes a guest runtime by
  supplying ``tier_entries()`` and ``enter(vm)``; the base gives it AOT
  compilation and the three run modes, which must agree the way they do
  for the in-tree guests.
* **Every controller feature reaches every guest** — tiering keywords
  pass through as ``**tiering`` (``inline=`` used to stop at MiniJS).
* **Said once** — engine configuration is ``SpecializeOptions`` and
  nothing else: no callable under ``src/repro`` has a parameter named
  ``jobs``, ``cache``, ``cache_dir`` or ``pool``, and nothing imports
  ``concurrent.futures`` or ``multiprocessing``; one class lowers a CFG
  to Python and nothing takes ``batch_fuel`` or ``emit_mode``; each
  fixpoint engine has one schedule and no identifier names a work
  detector or an exhaustive switch; the engine has one per-request
  record and one emit body; every stats field has a reader; compiled
  code has one calling convention; helpers are found when a batch
  compiles, never when a run resumes; the paper's figures are drawn in
  one place, ``tests/test_paper_figures.py``, and ``benchmarks/`` is
  the ledger alone; the guest benchmark programs are kept once, as the
  ledger's frozen corpus, and the tests read them through one loader
  that refuses a file its ``MANIFEST.json`` does not pin; there is one
  site-guard form, and only an entry guard unwinds (no per-site
  ``GuardFailed``, deopt hook or transition fallback, no effect-free
  dataflow, one miss block for clean and effectful callers); the
  specializer's fixpoint has no convergence damper and its fast meet no
  kill switch, and ``meet_states`` takes no parameter that forces block
  parameters; compiled code counts only fuel; IR is written by hand as
  its text, ``FunctionBuilder`` keeps what the mini-C lowering calls,
  and one function rewrites a terminator; the mid-end is one function
  over one pass list, with one round cap and one verifier module; the
  artifact store is the engine's one cache (no in-batch dedupe), and a
  failed speculation is demoted once by construction (no deopt-storm
  breaker); the emitter spells no fuel-limit or bounds raise (emitted
  code calls ``_oof`` and each memory row's checked accessor), defines
  no exception but ``BackendError`` and prints a function once, and
  CPython's two nesting limits are constants read by one function,
  ``recover_structure``; constants have one owner per stage
  (the specializer's ``_mat``, GVN's walk: no ``opt/fold.py``,
  ``opt/copyprop.py`` or ``const_cache``); a failed emit is a failed
  request (no ``UnsupportedConstruct``, ``fallback_reason`` or
  ``tier2_attempted``, no ``fallback`` in a ``py/`` entry, and
  ``backend_fallbacks`` only as ``EngineStats``' constant 0).
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import re
import shutil
import subprocess
import sys
import tokenize

import pytest

from repro.core import (
    Runtime,
    SpecializationRequest,
    SpecializedConst,
    SpecializedMemory,
)
from repro.core import stats as stats_module
from repro.core.specialize import SpecializeOptions
from repro.backend import emit_function_source
from repro.core.state import meet_states
from repro.frontend import compile_source
from repro.ir import Module, print_function
from repro.jsvm import JSRuntime
from repro.luavm import LuaRuntime
from repro.min.harness import (
    PyMinInterpreter,
    make_tiered_min,
    sum_to_n_program,
)
from repro.min.interp import PROGRAM_BASE
from repro.opt.pipeline import optimize_function
from repro.pipeline import (
    CompilationEngine,
    GuestRuntime,
    TierEntry,
    TieringController,
)
from repro.vm import VM
from repro.vm.machine import ExecStats, GuardFailed

from tests.helpers import (
    CORPUS_DIR,
    branch_chain,
    corpus_manifest,
    corpus_program,
)
from tests.test_golden_backend import _pin_corpus
from tests.test_inline import miss_block_shape, spliced

ROOT = pathlib.Path(__file__).resolve().parent.parent
INF = float("inf")


def _example(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "examples" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


calc_source = _example("custom_interpreter").calc_source

# ---------------------------------------------------------------------------
# The fourth guest: everything the calculator has to say about itself.
# ---------------------------------------------------------------------------
BASE, SLOT = 0x4000, 0x100
PROGRAM = [5, 0, 2, 1, 5, 0, 3, 1, 2, 6]      # (arg + 2) * (arg + 3)


class CalcGuest(GuestRuntime):
    def __init__(self, options=None, arg=7):
        self.options, self.arg = options, arg
        self.module = Module(memory_size=1 << 16)
        compile_source(calc_source("calc", False)).add_to_module(self.module)
        compile_source(calc_source("calc_s", True)).add_to_module(self.module)
        for i, word in enumerate(PROGRAM):
            self.module.write_init_u64(BASE + i * 8, word)

    def tier_entries(self):
        request = SpecializationRequest(
            "calc_s", [SpecializedMemory(BASE, len(PROGRAM) * 8),
                       SpecializedConst(len(PROGRAM)), Runtime()],
            specialized_name="calc_compiled")
        return [TierEntry(generic="calc", key=BASE, request=request,
                          result_addr=SLOT)]

    def enter(self, vm):
        args = [BASE, len(PROGRAM), self.arg]
        spec = vm.load_u64(SLOT)
        vm.result = (vm.call_table(spec, args) if spec
                     else vm.call("calc", args))
        return vm


@pytest.mark.parametrize("backend", ["vm", "py"])
def test_fourth_guest_modes_agree(backend):
    def run(mode, **tiering):
        vm = CalcGuest(SpecializeOptions(backend=backend)).run(mode,
                                                               **tiering)
        return vm.result, vm.stats.fuel

    interp, aot = run("interp"), run("aot")
    assert interp[0] == aot[0] == (7 + 2) * (7 + 3)
    assert aot[1] < interp[1]                  # dispatch really went away
    assert run("tiered", threshold=1) == aot
    assert run("tiered", threshold=INF) == interp


def test_fourth_guest_default_mode_and_spellings():
    guest = CalcGuest(SpecializeOptions(backend="vm"))
    assert guest.run().stats.fuel == guest.run_interpreted().stats.fuel
    assert guest.compiler is None and guest.controller is None
    compiler = guest.aot_compile()
    assert guest.compiler is compiler and len(compiler.processed) == 1
    assert guest.run_aot("py").result == guest.run_aot().result == 90
    with pytest.raises(ValueError, match="bad mode"):
        guest.run("jit")


# ---------------------------------------------------------------------------
# ``**tiering`` reaches the controller from every guest.
# ---------------------------------------------------------------------------
LUA_SRC = """
function add(a, b) return a + b end
local t = 0
local i = 0
while i < 20 do t = add(t, i) i = i + 1 end
print(t)
"""
STAGED_INLINE = dict(threshold=2, compile_threshold=2, inline=True,
                     inline_min_site_calls=2)


def test_lua_tiered_run_accepts_inline():
    reference = LuaRuntime(LUA_SRC)
    reference.run_interpreted()
    runtime = LuaRuntime(LUA_SRC, options=SpecializeOptions(backend="py"))
    runtime.run_tiered(**STAGED_INLINE)
    assert runtime.printed == reference.printed == [190]
    assert runtime.controller.inline
    assert runtime.controller.stats.tier2_installs > 0


def test_min_tiered_run_accepts_inline():
    program = sum_to_n_program(25)
    vm, controller = make_tiered_min(
        program, options=SpecializeOptions(backend="py"), **STAGED_INLINE)
    args = [PROGRAM_BASE, len(program.words), 0]
    assert [vm.call("min_interp", args) for _ in range(6)] == \
        [PyMinInterpreter(program).run(0)] * 6
    assert controller.inline and controller.stats.tier2_installs == 1


# ---------------------------------------------------------------------------
# Said once.
# ---------------------------------------------------------------------------
ENGINE_SETTINGS = {"jobs", "cache", "cache_dir", "pool"}
# ``open_profile_store(cache_dir)`` names the root of a store to open,
# not an engine setting.
EXEMPT = {("repro/pipeline/profiles.py", "open_profile_store")}


def _sources():
    for path in sorted((ROOT / "src").rglob("*.py")):
        yield (path.relative_to(ROOT / "src").as_posix(),
               ast.parse(path.read_text()))


def _callables_taking(names):
    """``(file, callable, parameters)`` for every ``def`` or ``lambda``
    under ``src/`` with a parameter named in ``names``."""
    found = []
    for name, tree in _sources():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = {a.arg for a in (args.posonlyargs + args.args
                                      + args.kwonlyargs)}
            if params & names:
                found.append((name, getattr(node, "name", "<lambda>"),
                              sorted(params & names)))
    return found


def test_engine_configuration_is_said_once():
    assert [found for found in _callables_taking(ENGINE_SETTINGS)
            if found[:2] not in EXEMPT] == []


def test_one_emitter(monkeypatch):
    """One CFG -> Python lowering: one class defines ``emit_source``,
    nothing takes the two deleted knobs as a parameter, and the package
    no longer exports the second lowering's names.  The backend defines
    no exception class but ``BackendError`` (no internal verdict is
    thrown and caught), and ``emit_source`` recovers the structure once
    and prints each block once, even for a function too deep to stay
    structured."""
    import repro.backend
    from repro.backend import emitter
    modules = [importlib.import_module(f"repro.backend.{info.name}")
               for info in pkgutil.iter_modules(repro.backend.__path__)]
    assert [(obj.__module__, name) for module in modules
            for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__] \
        == [("repro.backend.emitter", "BackendError")]
    recovered, printed = [], []
    recover, print_block = (emitter.recover_structure,
                            emitter.StructuredEmitter._print_block)
    monkeypatch.setattr(emitter, "recover_structure", lambda func: (
        recovered.append(func.name), recover(func))[1])
    monkeypatch.setattr(emitter.StructuredEmitter, "_print_block",
                        lambda self, node: (printed.append(node.bid),
                                            print_block(self, node)))
    module = branch_chain(emitter._MAX_DEPTH)
    func = module.functions["chain"]
    assert emit_function_source(func, module)[1] == "dispatch"
    assert recovered == ["chain"]
    assert sorted(printed) == sorted(func.blocks)
    definers = [
        (name, node.name) for name, tree in _sources()
        if name.startswith("repro/backend/")
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef)
                and item.name == "emit_source" for item in node.body)]
    assert definers == [("repro/backend/emitter.py", "StructuredEmitter")]
    assert _callables_taking({"batch_fuel", "emit_mode"}) == []
    assert not {"PyEmitter", "EMIT_MODES", "compile_functions"} \
        & set(repro.backend.__all__)


def test_trap_raises_are_out_of_line_and_the_block_limit_said_once():
    """Emitted guards raise out of line, through ``backend/runtime.py``'s
    ``_oof`` and each memory row's checked accessor: the emitter spells
    neither the fuel-limit nor the bounds raise.
    CPython's two nesting limits, the indent budget and the static-block
    limit, are each one named constant, assigned once and read only by
    the too-deep check in ``recover_structure``, before anything is
    printed."""
    emitter_text = (ROOT / "src/repro/backend/emitter.py").read_text()
    for spelling in ("raise OutOfFuel(", 'raise VMTrap("oob',
                     'raise VMTrap(f"oob'):
        assert spelling not in emitter_text, spelling
    for limit in ("_MAX_STATIC_BLOCKS", "_MAX_DEPTH"):
        assert _functions_mentioning(limit, "repro/") == \
            [("repro/backend/emitter.py", "recover_structure")], limit
        assert [file for file, tree in _sources()
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == limit
                and isinstance(node.ctx, ast.Store)] \
            == ["repro/backend/emitter.py"], limit


def test_deleted_engine_settings_are_type_errors():
    module = Module(memory_size=64)
    for call in (lambda: SpecializeOptions(jobs=2),
                 lambda: SpecializeOptions(optimize=False),
                 lambda: SpecializeOptions(debug_exhaustive=True),
                 lambda: optimize_function(None, exhaustive=True),
                 lambda: CompilationEngine(module, SpecializeOptions(),
                                           cache={}),
                 lambda: VM(module, compiled={}),
                 lambda: TieringController(module, inline_max_targets=1)):
        with pytest.raises(TypeError):
            call()


def _identifiers():
    """Every identifier token under ``src/``."""
    names = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        with tokenize.open(path) as handle:
            names.update(
                token.string
                for token in tokenize.generate_tokens(handle.readline)
                if token.type == tokenize.NAME)
    return names


def test_one_schedule_per_fixpoint_engine():
    """A pass or a meet is run, never proven idle ahead of time: no
    identifier under ``src/`` names a work detector or the switch that
    turned them off."""
    # ``workcheck_seconds`` is the constant 0.0 the ledger's
    # ``layer_metrics`` still reads (``PipelineStats``).
    assert sorted(name for name in _identifiers() - {"workcheck_seconds"}
                  if "has_work" in name or "workcheck" in name
                  or "debug_exhaustive" in name) == []


def _functions_mentioning(name, prefix):
    """``(file, function)`` for every ``def`` in a file under ``prefix``
    whose body names ``name`` (bare or as an attribute)."""
    return [
        (file, node.name) for file, tree in _sources()
        if file.startswith(prefix)
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        and any(getattr(inner, "id", getattr(inner, "attr", None)) == name
                for inner in ast.walk(node))]


def test_one_engine_record_and_emit_body():
    """The engine relays a request through one record and turns a
    residual into a callable in one place, whichever road asked: no
    other function under ``src/`` names both halves of emission."""
    engine = dict(_sources())["repro/pipeline/engine.py"]
    assert [node.name for node in engine.body
            if isinstance(node, ast.ClassDef) and node.decorator_list] \
        == ["EngineResult"]
    assert [node.name for node in engine.body
            if isinstance(node, ast.FunctionDef)] == ["_open_store"]
    for name in ("emit_function_source", "compile_python_source"):
        assert _functions_mentioning(name, "repro/") == \
            [("repro/pipeline/engine.py", "_emit")]
    assert not _identifiers() & {
        "_Plan", "_finalize", "_specialize_one", "_backend_compiled",
        "_intern_tls"}


def test_one_cache_and_no_deopt_breaker():
    """Two requests of one key in a batch are two requests: the engine
    counts no in-batch hit (``cache_hits`` is the constant 0 the ledger
    reads), and clones no producer's residual, since nothing under
    ``src/`` clones IR (the S3.3 guard below).  No storm breaker pins a
    function: ``check_invariants`` holds the bound."""
    assert not _identifiers() & {
        "STORM_DEOPTS", "STORM_WINDOW", "storm_deopts", "storm_window",
        "storm_pins", "pinned_generic", "deopt_marks",
        "_record_deopt_event", "cache_hit"}
    engine_stats = stats_module.EngineStats
    assert "cache_hits" not in {
        field.name for field in dataclasses.fields(engine_stats)}
    assert engine_stats().cache_hits == 0


def test_one_way_to_specialize_a_data_dependent_branch():
    """S3.3 is reproduced in its structural form only: each arm of a
    data-dependent branch updates the context and continues.  No
    value-specializing intrinsic, per-value sub-context or split of the
    generic body is left, and so no IR clone."""
    assert not _identifiers() & {
        "specialized_value", "push_value", "_split_after_specialized_value",
        "_emit_value_specialization", "MAX_VALUE_SPECIALIZATIONS",
        "clone_function"}
    assert not (ROOT / "src" / "repro" / "ir" / "clone.py").exists()


def test_every_stats_field_has_a_reader():
    """A counter nobody reads is a write on a hot path and a line of
    documentation for nothing: every field of the stats dataclasses is
    loaded somewhere — an attribute read, or a string of that name for
    the ledger's ``getattr`` loops.  (``x.field += 1`` is a store.)"""
    read = set()
    for tree_name in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / tree_name).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) \
                        and isinstance(node.value, str):
                    read.add(node.value)
    classes = [cls for cls in vars(stats_module).values()
               if dataclasses.is_dataclass(cls)]
    assert len(classes) == 5
    assert [(cls.__name__, field.name) for cls in classes
            for field in dataclasses.fields(cls)
            if field.name not in read] == []


def test_helpers_are_found_per_batch_never_per_run(monkeypatch):
    """``resume()`` runs on every guest run: a resume with nothing new
    to compile must search no residual for helpers (searching there
    re-ran ``retreating_edges(js_interp)`` per run and took a MiniJS
    program's per-run code load from 0.5 to 9.7 ms)."""
    runtime = LuaRuntime(LUA_SRC, options=SpecializeOptions(backend="vm"))
    compiler = runtime.aot_compile()
    searched = []
    real = CompilationEngine.compile_helpers

    def counting(engine, func):
        searched.append(func.name)
        return real(engine, func)

    monkeypatch.setattr(CompilationEngine, "compile_helpers", counting)
    runtime.enter(compiler.resume("py"))          # compiles: searches
    assert sorted(searched) == sorted(
        item.function_name for item in compiler.processed)
    del searched[:]
    runtime.enter(compiler.resume("py"))
    assert searched == []
    assert compiler.engine.stats.helpers == 1
    assert runtime.printed == [190, 190]


def test_one_calling_convention():
    """Every compiled callable is the emitter's fixed-arity entry point:
    nothing under ``src/`` probes for ``_nparams`` with ``getattr``
    (the boxed convention's test), it is read as an attribute."""
    assert [file for file, tree in _sources() for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and node.value == "_nparams"] == []


def test_no_worker_pool_under_src():
    """Compilation is in-process: nothing under ``src/`` imports
    ``concurrent.futures`` or ``multiprocessing``."""
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            for module in imported:
                assert module.split(".")[0] not in (
                    "concurrent", "multiprocessing"), name


# The names the figures' old scaffolding went by, spelled in pieces so
# this file does not name them itself.
FIGURE_SCAFFOLDING = ("repro.jsvm." "native", "run_fig8" "_configs",
                      "write" "_result", "benchmark" ".pedantic",
                      "pytest" "_benchmark")


def _program_files():
    """The code, tests, examples, docs and CI of the repo."""
    yield from sorted(ROOT.glob("*.py"))
    for tree in ("src", "tests", "examples", "benchmarks", "docs",
                 ".github"):
        yield from sorted(path for path in (ROOT / tree).rglob("*")
                          if path.suffix in (".py", ".md", ".yml"))


def test_the_figures_are_tier_1_and_benchmarks_is_the_ledger():
    """The paper's figures are ``tests/test_paper_figures.py`` and its
    golden.  Nothing names the stopwatch scaffolding they used to run on
    or takes a ``benchmark`` fixture, and after a root ``pytest``
    collects the ledger's smoke test — every tier-1 run does —
    ``benchmarks/`` holds the ledger and nothing else (no results
    directory left behind)."""
    named = []
    for path in _program_files():
        text = path.read_text(encoding="utf-8")
        named += [(path.relative_to(ROOT).as_posix(), name)
                  for name in FIGURE_SCAFFOLDING if name in text]
        if path.suffix == ".py":
            named += [(path.relative_to(ROOT).as_posix(), node.name)
                      for node in ast.walk(ast.parse(text))
                      if isinstance(node, ast.FunctionDef)
                      and "benchmark" in {a.arg for a in node.args.args}]
    assert named == []
    subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                    "-p", "no:cacheprovider",
                    "benchmarks/ledger/test_ledger_smoke.py"],
                   cwd=ROOT, capture_output=True, check=True, timeout=120)
    assert sorted(path.name for path in (ROOT / "benchmarks").iterdir()
                  if path.name != "__pycache__") == ["ledger"]


# A spelled-out path to the corpus: the ledger's directory name joined
# to ``programs`` by a slash, a ``/`` on paths or a comma between
# ``os.path.join`` parts.
CORPUS_PATH = re.compile(r"ledger['\"]?\s*[,/]\s*['\"]?programs")


def test_one_program_corpus():
    """The guest benchmark programs live once, in the ledger's frozen
    corpus: no module under ``src/repro`` holds a copy of one (checked by
    each ``js/`` and ``lua/`` program's first non-blank line), and among
    the tests only ``tests/helpers.py``, the loader, spells its path."""
    assert importlib.util.find_spec("repro.jsvm.workloads") is None
    first_lines = [
        next(line for line in corpus_program(rel).splitlines()
             if line.strip())
        for rel in corpus_manifest() if rel.startswith(("js/", "lua/"))]
    assert len(first_lines) == 16
    copies = [(path.relative_to(ROOT).as_posix(), line)
              for path in sorted((ROOT / "src" / "repro").rglob("*"))
              if path.is_file() and "__pycache__" not in path.parts
              for line in first_lines
              if line.encode() in path.read_bytes()]
    assert copies == []
    assert [path.name for path in sorted((ROOT / "tests").glob("*.py"))
            if CORPUS_PATH.search(path.read_text(encoding="utf-8"))] \
        == ["helpers.py"]


def test_the_corpus_loader_refuses_drift(tmp_path):
    """One changed byte in a corpus file is refused, and the refusal
    names the file; the files the manifest still pins load."""
    copy = tmp_path / "programs"
    shutil.copytree(CORPUS_DIR, copy)
    crypto = copy / "js" / "crypto.js"
    data = bytearray(crypto.read_bytes())
    data[0] ^= 0x20                            # "function" -> "Function"
    crypto.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="js/crypto.js"):
        corpus_program("js/crypto.js", root=str(copy))
    assert corpus_program("js/richards.js", root=str(copy)) \
        == corpus_program("js/richards.js")


def test_one_jump_threading_rule():
    """simplify-cfg threads jumps by one rule that needs no dominance:
    ``repro.opt.simplify_cfg`` imports nothing from ``repro.ir.dominance``,
    defines one forwarder predicate, and none of the names of the two
    rules and the forwarder map it replaced."""
    tree = dict(_sources())["repro/opt/simplify_cfg.py"]
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names]
    assert not [name for name in imported if "dominance" in name]
    defined = [node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)]
    assert not {"thread_constant_branches", "thread_trivial_jumps",
                "_forwarder_map"} & set(defined)
    assert [name for name in defined if "forwarder" in name] \
        == ["_forwarders"]


def test_the_specializer_fixpoint_has_no_escape_hatch():
    """The meet is monotone, so the fixpoint needs no damper and the
    fast meet no kill switch: nothing under ``src/`` names either, and
    ``meet_states`` takes no parameter that forces block parameters."""
    assert not _identifiers() & {"MAX_REVISITS", "pinned_slots",
                                 "force_all_params", "unstable_slots",
                                 "SINGLE_PRED_FAST_MEET"}
    assert list(inspect.signature(meet_states).parameters) == [
        "contributions", "env_domain", "value_type", "param_for", "naive",
        "prior_depth"]


def test_one_site_guard_form():
    """Only an entry guard unwinds.  ``GuardFailed`` names no site, the
    controller's deopt hook takes only the function and its transition
    no ``fallback``; nothing under ``src/`` names the effect-free
    dataflow, the clean-site proof or the resuming predicate, or spells
    the retired ``"resume"`` tag; and a clean and an effectful caller
    get the same miss block from the same plan."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(GuardFailed.__init__) == ["self", "function", "message"]
    assert params(TieringController._on_deopt) == ["self", "name"]
    assert "fallback" not in params(TieringController._transition)
    assert not _identifiers() & {"_effect_free_dataflow", "_site_is_clean",
                                 "guard_is_resuming"}
    assert [file for file, tree in _sources() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value == "resume"] \
        == []
    clean, effectful = (
        miss_block_shape(spliced(prefix=prefix)[0].functions["caller"])
        for prefix in ("none", "store"))
    assert clean == effectful == [(("guard", "call_indirect"), "Jump")]


def test_compiled_code_counts_only_fuel():
    """Fuel is the one counter compiled code keeps: every ``S.<attr>``
    in the emitted source of the emitter-pin corpus and of richards'
    largest residual is ``S.fuel``; nothing under ``src/`` names the
    batched counter locals or a host-call counter; and ``ExecStats`` is
    fuel, the four counters the IR VM keeps, and tier 0's backedges."""
    runtime = JSRuntime(corpus_program("js/richards.js"), "wevaled_state")
    runtime.aot_compile()
    richards = max((runtime.module.functions[item.function_name]
                    for item in runtime.compiler.processed),
                   key=lambda func: func.num_instrs())
    sources = [*_pin_corpus(),
               emit_function_source(richards, runtime.module)[0]]
    assert {attr for source in sources
            for attr in re.findall(r"\bS\.(\w+)", source)} == {"fuel"}
    assert not _identifiers() & {"_COUNTER_LOCALS", "host_calls"}
    assert [field.name for field in dataclasses.fields(ExecStats)] == [
        "fuel", "loads", "stores", "calls", "indirect_calls", "backedges"]


def test_one_ir_text(tmp_path):
    """A residual has one text, the printed IR, and the parser reads it
    back: the JSON encoding's module is gone, nothing under ``src/``
    names its functions or its error, and a ``spec/`` entry the engine
    writes holds the version, the two fingerprints and the text."""
    assert importlib.util.find_spec("repro.pipeline.serialize") is None
    assert not _identifiers() & {"function_to_dict", "function_from_dict",
                                 "SerializationError"}
    guest = CalcGuest(SpecializeOptions(cache_dir=str(tmp_path)))
    guest.run(mode="aot")
    (entry,) = (tmp_path / "spec").iterdir()
    stored = json.loads(entry.read_text())
    assert sorted(stored) == ["generic_fingerprint", "ir_text",
                              "memory_fingerprint", "version"]
    assert stored["ir_text"] == print_function(
        guest.module.functions["calc_compiled"], order="id")


def test_a_failed_emit_is_a_failed_request(tmp_path):
    """A failed emit has one outcome, ``EngineResult.error``: nothing
    under ``src/`` names the retired verdict, its reason or the staged
    tier-1-for-good flag; ``backend_fallbacks`` survives only as
    ``EngineStats``' constant 0 the ledger reads; and a ``py/`` entry
    the engine writes holds a source, never a ``fallback``."""
    assert not _identifiers() & {"UnsupportedConstruct", "fallback_reason",
                                 "tier2_attempted"}
    assert [(file, type(node).__name__) for file, tree in _sources()
            for node in ast.walk(tree)
            if "backend_fallbacks" in (getattr(node, "id", None),
                                       getattr(node, "attr", None))] \
        == [("repro/core/stats.py", "Name")]
    engine_stats = stats_module.EngineStats
    assert "backend_fallbacks" not in {
        field.name for field in dataclasses.fields(engine_stats)}
    assert vars(engine_stats)["backend_fallbacks"] == 0
    guest = CalcGuest(SpecializeOptions(cache_dir=str(tmp_path),
                                        backend="py"))
    guest.run(mode="aot")
    (entry,) = (tmp_path / "py").iterdir()
    assert sorted(json.loads(entry.read_text())) == [
        "code", "py_magic", "source", "version"]


def _imports(tree):
    """``(module, name)`` for every name an ``import`` statement binds;
    ``name`` is ``None`` for ``import module``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.module, alias.name) for alias in node.names)


def test_ir_is_written_by_hand_as_its_text():
    """A test writes IR as the printed text ``parse_function`` reads: no
    test imports ``FunctionBuilder``; under ``src/`` only the mini-C
    lowering imports ``repro.ir.builder``, and the builder keeps only
    the nine methods it calls; ``compile_function`` and
    ``CompiledFunction``, a second body that turned IR into a callable,
    are gone; and one function rewrites a terminator."""
    import repro.backend
    tests = sorted((ROOT / "tests").rglob("*.py"))
    assert [path.name for path in tests
            for module, name in _imports(ast.parse(path.read_text()))
            if "FunctionBuilder" in (module, name)
            or module == "repro.ir.builder"
            or (module, name) == ("repro.ir", "builder")] == []
    assert [file for file, tree in _sources()
            for module, name in _imports(tree)
            if module == "repro.ir.builder"
            or (module, name) == ("repro.ir", "builder")] \
        == ["repro/frontend/compiler.py"]
    builder = importlib.import_module("repro.ir.builder").FunctionBuilder
    assert sorted(name for name, value in vars(builder).items()
                  if callable(value) and not name.startswith("_")) == [
        "call", "call_indirect", "emit", "fconst", "global_get",
        "global_set", "iconst", "new_block", "switch_to"]
    assert not {"compile_function", "CompiledFunction"} \
        & set(repro.backend.__all__)
    assert not _identifiers() & {"_clone_terminator", "_retarget_terminator",
                                 "map_terminator_values"}


def test_the_mid_end_is_one_function():
    """The mid-end is ``optimize_function`` over one pass list: nothing
    under ``src/`` names the pass manager, its registry or its named
    pipelines; ``optimize_function`` takes no round cap, verify switch
    or pass list; the cap is defined once; and there is one verifier
    module."""
    removed = re.compile(r"\b(PassManager|register_pass|get_pass"
                         r"|available_passes|PIPELINES)\b")
    texts = {path.relative_to(ROOT / "src").as_posix(): path.read_text()
             for path in sorted((ROOT / "src").rglob("*.py"))}
    assert [name for name, text in texts.items()
            if removed.search(text)] == []
    assert list(inspect.signature(optimize_function).parameters) == [
        "func", "config", "module", "stats"]
    assert [name for name, text in texts.items()
            for line in text.splitlines()
            if re.match(r"\s*OPT_MAX_ROUNDS\s*=", line)] \
        == ["repro/opt/pipeline.py"]
    assert not (ROOT / "src" / "repro" / "ir" / "verify.py").exists()


def test_constants_have_one_owner():
    """Constants have one owner per stage: the specializer's ``_mat``
    defines each once per function, and GVN's walk folds and propagates
    copies, so ``repro.opt`` has no ``fold`` or ``copyprop`` module and
    no function under ``src/`` threads a ``const_cache``."""
    for name in ("fold", "copyprop"):
        assert importlib.util.find_spec(f"repro.opt.{name}") is None, name
    assert "const_cache" not in _identifiers()
    tree = dict(_sources())["repro/core/specialize.py"]
    spellings = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value == "iconst"]
    assert len(spellings) == 1
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and spellings[0] in ast.walk(node)] == ["_mat"]


def test_a_decided_branch_has_one_rule():
    """Each compile decision is made once: the arm a known selector
    takes is its terminator's ``taken`` (the VM, the oracle, keeps its
    own spelling), GVN folds every decided branch, and every residual
    id is fresh from ``new_value``.  No identifier under ``src/`` names
    the retired branch fold, its arm rule or the mint cache, and outside
    ``ir/instructions.py`` and ``vm/machine.py`` nothing subscripts a
    ``cases`` attribute."""
    assert not _identifiers() & {"fold_branches", "_decided", "_mint",
                                 "minted", "mint_pos"}
    assert [file for file, tree in _sources()
            if file not in ("repro/ir/instructions.py", "repro/vm/machine.py")
            for node in ast.walk(tree) if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "cases"] == []
