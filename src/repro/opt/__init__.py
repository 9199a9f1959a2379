"""Post-specialization optimization passes (the mid-end).

The weval transform already const-folds while transcribing; these passes
clean up the residual code.  The roster is one list,
:data:`~repro.opt.pipeline.PASSES`, in schedule order:

* ``gvn`` — one dominator-tree walk that propagates copies through
  algebraic identities and degenerate ``select``\\ s, folds pure ops
  over constants in place, pools every constant in the entry block,
  numbers what is left (CSE) and folds every decided branch: on a
  constant selector, on a condition an edge decided, or with agreeing
  arms (:func:`~repro.opt.gvn.global_value_numbering`);
* ``prune-params`` — redundant block-parameter pruning, the paper S3.4
  "minimal cut" cleanup
  (:func:`~repro.opt.prune_params.prune_block_params`);
* ``simplify-cfg`` — unreachable-block removal, jump threading through
  empty forwarders (decided by a ``jump`` or a constant selector), and
  straight-line merging
  (:func:`~repro.opt.simplify_cfg.simplify_cfg`);
* ``load-forward`` — cross-block redundant-load and store-to-load
  forwarding for same-address accesses with no intervening may-aliasing
  store (:func:`~repro.opt.load_forward.forward_loads`);
* ``dce`` — dead pure-instruction elimination, keeping an op that can
  trap (:func:`~repro.opt.dce.eliminate_dead_code`).

:func:`~repro.opt.pipeline.optimize_function` runs them to a fixpoint,
collects per-pass change/timing stats into
:class:`~repro.core.stats.PipelineStats`, and runs the IR verifier after
every pass under ``REPRO_OPT_VERIFY=1``.
"""

from repro.opt.gvn import global_value_numbering
from repro.opt.load_forward import forward_loads
from repro.opt.dce import eliminate_dead_code
from repro.opt.simplify_cfg import (
    remove_unreachable_blocks,
    simplify_cfg,
    thread_jumps,
)
from repro.opt.prune_params import prune_block_params
from repro.opt.pipeline import PASSES, optimize_function

__all__ = [
    "global_value_numbering",
    "forward_loads",
    "eliminate_dead_code",
    "simplify_cfg",
    "remove_unreachable_blocks",
    "thread_jumps",
    "prune_block_params",
    "PASSES",
    "optimize_function",
]
