"""The host side of a guest runtime: the one path from its
``tier_entries()`` to installed code.

A guest (MiniJS, MiniLua, Min, the next interpreter somebody brings)
knows two things nobody else can: which functions can tier up — its
:class:`~repro.pipeline.tiering.TierEntry` list — and how to enter its
main on a VM.  Everything between the two is the same for every guest
and lives here: :func:`controller_for` builds the
:class:`~repro.pipeline.tiering.TieringController` (the only place one
is constructed), and :class:`GuestRuntime` turns it into the snapshot
workflow (``aot_compile``: promote everything, freeze) and the three
execution modes.  Tiering policy travels as ``**tiering`` keywords
straight to the controller, so every controller feature reaches every
guest; engine configuration is not a keyword anywhere — it is the
guest's :class:`~repro.core.specialize.SpecializeOptions`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from repro.core.snapshot import SnapshotCompiler
from repro.core.specialize import SpecializeOptions
from repro.ir.module import Module
from repro.pipeline.tiering import TierEntry, TieringController
from repro.vm.machine import VM


def controller_for(module: Module, entries: Iterable[TierEntry],
                   options: Optional[SpecializeOptions] = None,
                   **tiering) -> TieringController:
    """A controller over ``module`` with every entry registered (all
    tier 0 until :meth:`~TieringController.promote_all`, a profile, or
    adopted fleet heat says otherwise)."""
    controller = TieringController(module, options, **tiering)
    for entry in entries:
        controller.register(entry)
    return controller


class GuestRuntime:
    """Base of a guest runtime.  The guest sets ``module`` (and
    ``options``, if it has any) and supplies two methods:

    * ``tier_entries()`` — one :class:`TierEntry` per tierable function;
    * ``enter(vm)`` — run main on ``vm`` (dispatching through its slot
      the way guest code does) and return the VM, result on
      ``vm.result``.
    """

    module: Module
    options: Optional[SpecializeOptions] = None
    compiler: Optional[SnapshotCompiler] = None
    controller: Optional[TieringController] = None  # set by tiered runs
    default_mode = "interp"

    def tier_entries(self) -> list:
        raise NotImplementedError

    def enter(self, vm: VM) -> VM:
        raise NotImplementedError

    def make_controller(self, options: Optional[SpecializeOptions] = None,
                        backend: Optional[str] = None,
                        **tiering) -> TieringController:
        """A controller over this guest's entries; ``options`` replaces
        the guest's own and ``backend`` overrides the options' backend."""
        options = options or self.options or SpecializeOptions()
        if backend is not None:
            options = dataclasses.replace(options, backend=backend)
        return controller_for(self.module, self.tier_entries(), options,
                              **tiering)

    def aot_compile(self, options: Optional[SpecializeOptions] = None
                    ) -> SnapshotCompiler:
        """The paper's snapshot workflow, expressed as "promote
        everything at startup": one engine batch, then freeze."""
        controller = self.make_controller(options)
        controller.promote_all()
        controller.compiler.freeze()
        self.compiler = controller.compiler
        return self.compiler

    def run(self, mode: Optional[str] = None, backend: Optional[str] = None,
            **tiering) -> VM:
        """Execute main; returns the VM.

        ``mode`` is ``"interp"`` (the generic interpreter), ``"aot"``
        (resume the snapshot, compiling it first if needed) or
        ``"tiered"`` (no ahead-of-time work: profile-guided tier-up
        under a controller built from ``**tiering`` and left on
        ``self.controller``; ``threshold=1`` reproduces the AOT
        execution bit for bit, ``float("inf")`` the interpreter's).
        ``backend`` overrides ``options.backend`` for this run: ``"py"``
        executes residuals as compiled Python, ``"vm"`` interprets the
        residual IR.
        """
        mode = mode or self.default_mode
        if mode != "aot" and self.compiler is not None:
            # The frozen image dispatches to the residuals, and this VM
            # runs them as IR.
            self.compiler.read_bodies()
        if mode == "interp":
            vm = VM(self.module)
        elif mode == "aot":
            if self.compiler is None:
                self.aot_compile()
            vm = self.compiler.resume(backend)
        elif mode == "tiered":
            self.controller = self.make_controller(backend=backend,
                                                   **tiering)
            vm = self.controller.attach(VM(self.module))
        else:
            raise ValueError(f"bad mode {mode!r}")
        return self.enter(vm)

    def run_interpreted(self) -> VM:
        return self.run("interp")

    def run_aot(self, backend: Optional[str] = None) -> VM:
        return self.run("aot", backend)

    def run_tiered(self, **tiering) -> VM:
        return self.run("tiered", **tiering)
