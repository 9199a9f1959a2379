"""The guest heap: one private, lazily-zero mapping per VM, filled from
the frozen image's page-run index.

* **oracle** — instantiate ≡ image: hypothesis-drawn sequences of
  ``write_init`` / ``write_init_u64`` / guest stores / ``freeze`` (writes
  after a VM was made included) against a plain ``bytearray`` model, and
  the ``REPRO_OPT_VERIFY=1`` check every ``VM(module)`` runs;
* **index** — what the two writers record, and that ``VM()`` /
  ``resume()`` read the indexed pages of the image and nothing else;
* **fork** — a forked child's guest stores stay in the child;
* **bounds** — an empty heap stays empty, a heap never grows;
* **said once** — one ``mmap.mmap`` call under ``src/``, no
  ``bytearray`` in the three files that own the heap, and one heap per
  VM: ``VM.memory`` is assigned in ``VM.__init__`` alone, which is also
  the one caller of ``heap_views``, the one function that casts a view
  of it — so no view compiled code reads can outlive its heap.
"""

import ast
import os
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SnapshotCompiler
from repro.ir import Module, parse_function
from repro.ir.module import PAGE
from repro.vm import VM, VMTrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZE = 3 * PAGE + 17          # ends inside a page
MASK64 = (1 << 64) - 1


POKE = """\
func @poke(v0: i64, v1: i64) {
block0:
  store64 v0, v1
  return
}"""


def build(memory_size=SIZE):
    """A module whose ``poke(addr, value)`` is a guest ``store64``."""
    module = Module(memory_size=memory_size)
    module.add_function(parse_function(POKE))
    return module


def assert_instantiates(module, model=None):
    image = bytes(module.memory_init)
    assert bytes(VM(module).memory) == image
    assert model is None or image == bytes(model)


# ---------------------------------------------------------------------------
# Oracle.
# ---------------------------------------------------------------------------
_ADDR = st.one_of(
    st.integers(0, SIZE - 8),
    st.sampled_from([0, PAGE - 8, PAGE - 3, PAGE, 2 * PAGE - 1,
                     3 * PAGE - 4, SIZE - 8]))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _ADDR,
              st.binary(max_size=2 * PAGE + 5)),
    st.tuples(st.just("write_u64"), _ADDR, st.integers(0, MASK64)),
    st.tuples(st.just("vm")),
    st.tuples(st.just("run"), _ADDR, st.integers(0, MASK64)),
    st.tuples(st.just("freeze")),
), max_size=12)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_instantiate_equals_image(ops):
    module = build()
    compiler = SnapshotCompiler(module)
    image = bytearray(SIZE)      # the model of module.memory_init
    live = None                  # the model of compiler.vm.memory
    for op in ops:
        if op[0] == "write":
            data = op[2][:SIZE - op[1]]
            module.write_init(op[1], data)
            image[op[1]:op[1] + len(data)] = data
        elif op[0] == "write_u64":
            module.write_init_u64(op[1], op[2])
            image[op[1]:op[1] + 8] = op[2].to_bytes(8, "little")
        else:
            # The compiler's VM is made from the image as it is now;
            # later image writes must not disturb it.
            vm = compiler.instantiate()
            if live is None:
                live = bytearray(image)
            if op[0] == "run":
                vm.call("poke", [op[1], op[2]])
                live[op[1]:op[1] + 8] = op[2].to_bytes(8, "little")
            elif op[0] == "freeze":
                compiler.freeze()
                image = bytearray(live)
        assert_instantiates(module, image)
        if live is not None:
            assert bytes(compiler.vm.memory) == bytes(live)
    assert bytes(compiler.resume().memory) == bytes(image)


def test_verify_flag_checks_every_vm(monkeypatch):
    monkeypatch.setenv("REPRO_OPT_VERIFY", "1")
    module = build()
    module.write_init_u64(PAGE + 8, 7)
    VM(module)
    # A write behind the index's back is what the oracle exists to catch.
    module.memory_init[2 * PAGE] = 1
    with pytest.raises(AssertionError, match="sparse instantiation"):
        VM(module)


# ---------------------------------------------------------------------------
# The index.
# ---------------------------------------------------------------------------
def test_write_init_indexes_the_pages_it_touches():
    module = build()
    assert module.init_runs() == ()
    module.write_init(PAGE - 1, b"ab")            # straddles pages 0 and 1
    assert module.init_runs() == ((0, 2 * PAGE),)
    module.write_init_u64(SIZE - 8, 1)            # the partial last page
    assert module.init_runs() == ((0, 2 * PAGE), (3 * PAGE, SIZE))
    module.write_init(5, b"")                     # nothing written
    assert module.init_runs() == ((0, 2 * PAGE), (3 * PAGE, SIZE))
    assert_instantiates(module)


def test_freeze_indexes_non_zero_pages_only():
    module = build()
    module.write_init_u64(0, 1)
    module.write_init_u64(PAGE, 2)
    compiler = SnapshotCompiler(module)
    vm = compiler.instantiate()
    vm.call("poke", [PAGE, 0])                    # page 1 back to zeros
    vm.call("poke", [2 * PAGE + 8, 3])
    compiler.freeze()
    assert module.init_runs() == ((0, PAGE), (2 * PAGE, 3 * PAGE))
    assert module.memory_init is not vm.memory
    assert_instantiates(module, bytes(vm.memory))
    assert module.read_init_u64(2 * PAGE + 8) == 3


class _Spy:
    """Stands in for the image: counts the bytes sliced out of it and,
    having no buffer interface, fails any whole-image copy."""

    def __init__(self, image):
        self.image = image
        self.read = 0

    def __getitem__(self, key):
        chunk = self.image[key]
        self.read += len(chunk)
        return chunk


def test_vm_and_resume_read_only_the_indexed_pages(monkeypatch):
    monkeypatch.delenv("REPRO_OPT_VERIFY", raising=False)
    module = build(memory_size=1 << 22)
    module.write_init_u64(8, 1)
    module.write_init_u64(700 * PAGE, 2)
    compiler = SnapshotCompiler(module)
    compiler.freeze()
    module.memory_init = spy = _Spy(module.memory_init)
    vm = compiler.resume()
    assert spy.read == 2 * PAGE
    VM(module)
    assert spy.read == 4 * PAGE
    assert (vm.load_u64(8), vm.load_u64(700 * PAGE), vm.load_u64(16)) \
        == (1, 2, 0)


# ---------------------------------------------------------------------------
# Fork.
# ---------------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_cannot_write_the_parents_heap():
    module = build()
    module.write_init_u64(16, 0x1111)
    compiler = SnapshotCompiler(module)
    vm = compiler.instantiate()
    vm.call("poke", [PAGE, 0x2222])
    before = bytes(vm.memory)
    image_before = bytes(module.memory_init)
    pid = os.fork()
    if pid == 0:
        status = 2
        try:
            vm.call("poke", [16, 0xDEAD])          # a page the parent wrote
            vm.call("poke", [2 * PAGE, 0xBEEF])    # and one nobody has
            module.write_init_u64(16, 0xF00D)
            status = 0 if (vm.load_u64(16), vm.load_u64(2 * PAGE),
                           module.read_init_u64(16)) \
                == (0xDEAD, 0xBEEF, 0xF00D) else 1
        finally:
            os._exit(status)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    assert bytes(vm.memory) == before
    assert bytes(module.memory_init) == image_before
    compiler.freeze()
    assert bytes(module.memory_init) == before
    assert_instantiates(module)


# ---------------------------------------------------------------------------
# Bounds.
# ---------------------------------------------------------------------------
def test_empty_heap_stays_empty():
    module = build(memory_size=0)
    compiler = SnapshotCompiler(module)
    vm = compiler.instantiate()
    assert len(vm.memory) == 0 and len(module.memory_init) == 0
    with pytest.raises(VMTrap, match=r"^oob store64 at 0x0$"):
        vm.call("poke", [0, 1])
    with pytest.raises(VMTrap, match=r"^oob load64 at 0x0$"):
        vm.load_u64(0)
    with pytest.raises(ValueError, match="exceeds memory"):
        module.write_init(0, b"x")
    module.write_init(0, b"")
    compiler.freeze()
    assert len(compiler.resume().memory) == 0
    assert bytes(module.memory_init) == b""


def test_a_heap_never_grows():
    vm = VM(build())
    with pytest.raises((IndexError, ValueError)):
        vm.memory[SIZE - 4:SIZE + 4] = bytes(8)   # a bytearray would grow
    assert len(vm.memory) == SIZE
    with pytest.raises(VMTrap, match=rf"^oob store64 at {SIZE - 7:#x}$"):
        vm.store_u64(SIZE - 7, 1)
    assert vm.memory[SIZE - 8:SIZE] == bytes(8)
    assert type(vm.memory[0:4]) is bytes


# ---------------------------------------------------------------------------
# Said once.
# ---------------------------------------------------------------------------
def test_one_way_to_make_a_heap():
    made = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "mmap" \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "mmap":
                made.append(path.relative_to(ROOT / "src").as_posix())
    assert made == ["repro/ir/module.py"]


@pytest.mark.parametrize("relpath", ["repro/ir/module.py",
                                     "repro/vm/machine.py",
                                     "repro/core/snapshot.py"])
def test_no_bytearray_where_the_heap_lives(relpath):
    tree = ast.parse((ROOT / "src" / relpath).read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "bytearray"]


def _scoped_nodes(tree, scope=""):
    """``(qualified name of the innermost def or class, node)`` for
    every node under ``tree``."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
        yield inner, child
        yield from _scoped_nodes(child, inner)


def test_one_heap_per_vm_and_one_place_views_it():
    assigned, casts, built = [], [], []
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = path.relative_to(ROOT / "src").as_posix()
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            assigned += [(where, scope) for target in targets
                         if isinstance(target, ast.Attribute)
                         and target.attr == "memory"]
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) \
                    or getattr(node.func, "id", None)
                if name == "cast":
                    casts.append((where, scope))
                elif name == "heap_views":
                    built.append((where, scope))
    assert assigned == built == [("repro/vm/machine.py", "VM.__init__")]
    assert casts and set(casts) == {("repro/ir/semantics.py", "heap_views")}
