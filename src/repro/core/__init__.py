"""weval: the partial-evaluation transform (the paper's contribution).

The public surface:

* :class:`~repro.core.request.SpecializationRequest` with argument modes
  ``Runtime`` / ``SpecializedConst`` / ``SpecializedMemory`` (paper S3.5);
* :func:`~repro.core.specialize.specialize` — the context-controlled
  constant-propagation transform (S3.1-S3.4, Fig. 5);
* :class:`~repro.core.snapshot.SnapshotCompiler` — the Wizer-style
  enqueue -> snapshot -> specialize -> resume workflow;
* :func:`~repro.core.cache.request_key` — the S6.5 specialization
  cache's key (the cache is :mod:`repro.pipeline.artifacts`);
* :class:`~repro.core.stats.SpecializationStats` — elided load/store and
  code-size accounting (S6.2, S6.4).
"""

from repro.core.request import (
    ArgMode,
    Runtime,
    SpecializedConst,
    SpecializedMemory,
    SpeculatedConst,
    SpecializationRequest,
)
from repro.core.specialize import specialize, SpecializeError
from repro.core.intrinsics import (
    INTRINSICS,
    register_weval_imports,
    intrinsic_name,
)
from repro.core.snapshot import SnapshotCompiler
from repro.core.stats import SpecializationStats

__all__ = [
    "ArgMode",
    "Runtime",
    "SpecializedConst",
    "SpecializedMemory",
    "SpeculatedConst",
    "SpecializationRequest",
    "specialize",
    "SpecializeError",
    "INTRINSICS",
    "register_weval_imports",
    "intrinsic_name",
    "SnapshotCompiler",
    "SpecializationStats",
]
