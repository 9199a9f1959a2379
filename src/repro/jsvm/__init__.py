"""MiniJS: the S6 case study (SpiderMonkey/PBL analog).

A dynamic language engine with:

* NaN-boxed 64-bit values (:mod:`repro.jsvm.values`);
* shape-based objects with host-managed shape transitions
  (:mod:`repro.jsvm.shapes`);
* a stack bytecode compiled from a JS-like source language
  (:mod:`repro.jsvm.frontend`);
* **two interpreter loops in mini-C** — JS bytecode and CacheIR — as in
  SpiderMonkey's Portable Baseline Interpreter, in generic and
  state-intrinsic variants (:mod:`repro.jsvm.interp_src`);
* inline-cache chains whose stubs are CacheIR sequences, pre-collected
  into an AOT *IC corpus* and attached to sites at run time by the slow
  path — the paper's key insight that ICs push dynamism into late-bound
  data (:mod:`repro.jsvm.runtime`);
* the Octane-analog suite Fig. 11 and Fig. 12 run
  (:mod:`repro.jsvm.workloads`; ``tests/test_paper_figures.py`` draws
  both figures).
"""

from repro.jsvm.runtime import JSRuntime, JSCompileError

__all__ = ["JSRuntime", "JSCompileError"]
