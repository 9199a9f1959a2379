"""The interpreter image (``repro.frontend.image``): each interpreter
text is compiled once per process, frozen, and shared by reference.

* **Counters** — the sixteen ledger programs cost two frontend compiles.
* **Ownership** — ``compile_source`` still hands out fresh, mutable,
  unfrozen functions.
* **Immutability, end to end** — nothing the stack does to a runtime
  (AOT, tiering, speculation, inlining, deopt) changes a frozen body,
  and a runtime built from a much-used image writes the same store
  bytes as a fresh process does.
* **Bounds** — the memo holds at most ``_CAP`` programs and compiles a
  text once however many threads ask for it first.
* **The oracle** — under ``REPRO_OPT_VERIFY=1`` a mutated frozen
  function is refused by ``add_to_module``.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.core.cache import body_fingerprint, check_frozen
from repro.core.specialize import SpecializeOptions
from repro.frontend import compile_source, image, interpreter_image
from repro.frontend.image import ImageMemo
from repro.ir import Module
from repro.ir.verifier import VerificationError
from repro.jsvm import JSRuntime
from repro.luavm import LuaRuntime
from repro.min import sum_to_n_program
from repro.min.harness import make_tiered_min
from repro.min.interp import PROGRAM_BASE
from repro.opt.pipeline import optimize_function
from repro.vm import VM

from tests.helpers import corpus_manifest, corpus_program

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

TINY = "u64 tiny(u64 x) { u64 y = x + 0; return y * 1 + %d; }"

# ``apply``'s call site is speculated on ``inc`` and misses when the
# loop switches to ``dbl`` (tests/test_inline.py); objects give the IC
# interpreter work.
JS_SRC = "\n".join([
    "function inc(x) { return x + 1; }",
    "function dbl(x) { return x * 2; }",
    "function apply(f, x) { return f(x); }",
    "var p = {a: 1, b: 2};",
    "var w = 0;",
    "var k = 0;",
    "while (k < 8) { w = inc(w) + p.a; k = k + 1; }",
    "var t = w;",
    "var i = 0;",
    "while (i < 30) { t = t + apply(inc, i); i = i + 1; }",
    "var j = 0;",
    "while (j < 30) { t = t + apply(dbl, j) + p.b; j = j + 1; }",
    "print(t);",
])

# ``leaf`` is promoted with a speculated frame pointer and deopts when
# ``mid`` calls it from a deeper frame (tests/test_tiering.py).
LUA_SRC = "\n".join([
    "function leaf(x)", "  return x + 1", "end",
    "function mid(x)", "  return leaf(x) * 10", "end",
    "local t = 0",
    "for i = 1, 6 do", "  t = t + leaf(i)", "end",
    "t = t + mid(3)",
    "print(t)",
])


@pytest.fixture
def memo(monkeypatch):
    """A process-wide memo of this test's own: empty, and nothing the
    test freezes (or breaks) outlives it."""
    fresh = ImageMemo()
    monkeypatch.setattr(image, "IMAGES", fresh)
    return fresh


def _frozen(*modules):
    funcs = [func for module in modules
             for func in module.functions.values()
             if func.fingerprint is not None]
    assert funcs
    return funcs


def _store_files(root):
    files = {}
    for sub in ("spec", "py"):
        for entry in sorted(os.listdir(os.path.join(root, sub))):
            with open(os.path.join(root, sub, entry), "rb") as handle:
                files[f"{sub}/{entry}"] = handle.read()
    assert files
    return files


def _aot_into(cache_dir):
    runtime = JSRuntime(JS_SRC, "wevaled_state", options=SpecializeOptions(
        backend="py", cache_dir=str(cache_dir)))
    runtime.run()
    return runtime


# ---------------------------------------------------------------------------
# (a) Counters.
# ---------------------------------------------------------------------------
def test_ledger_suite_compiles_each_interpreter_once(memo):
    builds = {"js": lambda s: JSRuntime(s, "wevaled_state"),
              "lua": LuaRuntime}
    runtimes = [builds[rel.split("/")[0]](corpus_program(rel))
                for rel in corpus_manifest()
                if rel.split("/")[0] in builds]
    assert len(runtimes) == 16
    assert (memo.builds, memo.hits) == (2, 14)
    with pytest.raises(AttributeError):
        memo.builds = 0
    # By reference: one Function object serves every module.
    js = [rt for rt in runtimes if isinstance(rt, JSRuntime)]
    assert len({id(rt.module.functions["js_interp_s"]) for rt in js}) == 1


# ---------------------------------------------------------------------------
# (b) compile_source keeps handing out the caller's own functions.
# ---------------------------------------------------------------------------
def test_compile_source_is_not_memoized():
    text = TINY % 7
    first = compile_source(text).functions["tiny"]
    second = compile_source(text).functions["tiny"]
    assert first is not second
    assert first.fingerprint is None and second.fingerprint is None
    before = body_fingerprint(second)
    optimize_function(first)
    assert body_fingerprint(first) != before
    assert body_fingerprint(second) == before


# ---------------------------------------------------------------------------
# (c) Immutability end to end.
# ---------------------------------------------------------------------------
def test_images_survive_everything_a_runtime_does(tmp_path):
    aot = _aot_into(tmp_path / "a")

    reference = JSRuntime(JS_SRC, "interp_ic")
    reference.run()
    assert aot.printed == reference.printed
    inlined = JSRuntime(JS_SRC, "wevaled",
                        options=SpecializeOptions(backend="py"))
    inlined.run_tiered(threshold=2, compile_threshold=3, inline=True,
                       inline_min_site_calls=2)
    assert inlined.printed == reference.printed
    assert inlined.controller.stats.inline_sites_planned >= 1
    assert inlined.controller.stats.site_demotions == 1

    lua = LuaRuntime(LUA_SRC, options=SpecializeOptions(backend="vm"))
    lua.run_tiered(threshold=4, speculate=True)
    assert lua.controller.stats.deopts >= 1

    program = sum_to_n_program(25)
    vm, controller = make_tiered_min(
        program, threshold=2, speculate=True,
        options=SpecializeOptions(backend="vm"))
    for value in (3, 3, 9, 3, 9, 9):
        vm.call("min_interp", [PROGRAM_BASE, len(program.words), value])
    assert controller.stats.deopts == 1

    frozen = _frozen(aot.module, inlined.module, lua.module, vm.module)
    assert any(func.prepared is not None for func in frozen)
    for func in frozen:
        check_frozen(func)

    # Runtime B, from the images A has been using, against a process
    # that has never built one.
    _aot_into(tmp_path / "b")
    script = "\n".join([
        "import sys",
        "from repro.core.specialize import SpecializeOptions",
        "from repro.frontend import image",
        "from repro.jsvm import JSRuntime",
        "JSRuntime(sys.argv[1], 'wevaled_state', options=SpecializeOptions(",
        "    backend='py', cache_dir=sys.argv[2])).run()",
        "assert (image.IMAGES.builds, image.IMAGES.hits) == (1, 0)",
    ])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", script, JS_SRC,
                    str(tmp_path / "c")], check=True, env=env)
    assert _store_files(tmp_path / "a") == _store_files(tmp_path / "b") \
        == _store_files(tmp_path / "c")


# ---------------------------------------------------------------------------
# (d) Bounds.
# ---------------------------------------------------------------------------
def test_memo_is_bounded_lru():
    cap = image._CAP
    bounded = ImageMemo()
    for k in range(cap + 1):
        bounded.get(TINY % k, compile_source)
        assert len(bounded) <= cap
    assert (bounded.builds, bounded.hits) == (cap + 1, 0)
    bounded.get(TINY % cap, compile_source)    # still held
    bounded.get(TINY % 0, compile_source)      # the oldest was dropped
    assert (bounded.builds, bounded.hits, len(bounded)) == (cap + 2, 1, cap)


def test_concurrent_first_build_compiles_once():
    shared = ImageMemo()
    entered = threading.Event()
    release = threading.Event()
    calls = []

    def slow_compile(text):
        calls.append(text)
        entered.set()
        assert release.wait(10)
        return compile_source(text)

    results = []
    threads = [threading.Thread(
        target=lambda: results.append(shared.get(TINY % 1, slow_compile)))
        for _ in range(2)]
    threads[0].start()
    assert entered.wait(10)
    threads[1].start()          # arrives while the first is compiling
    release.set()
    for thread in threads:
        thread.join(10)
    assert len(calls) == 1
    assert (shared.builds, shared.hits) == (1, 1)
    assert results[0] is results[1]


# ---------------------------------------------------------------------------
# (e) The oracle.
# ---------------------------------------------------------------------------
def test_mutated_image_function_is_refused_under_verify(memo, monkeypatch):
    program = interpreter_image(TINY % 3, compile_source)
    with pytest.raises(TypeError):
        program.functions["other"] = program.functions["tiny"]
    monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
    module = Module(memory_size=64)
    program.add_to_module(module)
    assert VM(module).call("tiny", [4]) == 7

    optimize_function(program.functions["tiny"])
    with pytest.raises(VerificationError, match="'tiny' was mutated"):
        interpreter_image(TINY % 3, compile_source).add_to_module(
            Module(memory_size=64))
    assert (memo.builds, memo.hits) == (1, 1)

