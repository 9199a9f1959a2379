"""Versioned on-disk artifact store for the compilation pipeline (S6.5).

The paper's production deployment caches specialization outputs keyed on
the module hash plus the request's argument data, so the unchanging AOT
IC corpus is never recompiled and the compiled code ships with the
snapshot.  This module is that cache: it stores

* **residual IR** (``spec/``) keyed by
  :func:`~repro.core.cache.request_key` — the generic function's
  printed body, the request's argument modes, the contents of every
  promised-constant memory range, and the specialization options that
  shape it (SSA mode, opt config; not the backend, residual IR is
  backend-independent).  An entry holds the residual as its printed
  IR text (``print_function(..., order="id")``), the same text its
  fingerprints hash.  A load reads only the header line and returns a
  :class:`StoredResidual`; the body is read back with
  :func:`~repro.ir.parser.parse_function`, and verified, when something
  first reads it, which on a warm start of compiled code is nothing —
  and
* **emitted backend source** (``py/``) keyed by the *residual*
  function's printed-IR fingerprint plus the emitter version, so a
  residual loaded warm reuses the same Python source, and its compiled
  code object, without re-emitting.  Only a source ``compile()``
  accepted is ever stored: one it refuses writes nothing, and the next
  process emits it again.
  The fingerprint of a loaded residual is that of its stored text, so
  the restart the paper describes — the compiled code ships with the
  snapshot — costs about the reading of that code.

Key anatomy (one file per entry, file name = sha256 of the key):

    spec/<sha256((generic_fp, request_key, memory_fp, options_key))>.json
        {version, generic_fingerprint, memory_fingerprint, ir_text}
    py/<sha256((residual_fp, EMITTER_VERSION))>.json

Invalidation is entirely by construction: change the interpreter body,
the bytecode bytes, the opt pipeline, or the emitter, and the key
changes, so the stale artifact is simply never looked up again.  Loads
are paranoid and never raise for bad cache state: a version skew,
fingerprint mismatch, JSON error, truncated file or IR text whose header
does not parse yields status ``"invalid"`` and the engine silently
recompiles — as it does for a body that does not parse or verify when
it is read.  Writes go through a
same-directory temp file + ``os.replace`` so a crashed process cannot
leave a torn artifact behind, and an unwritable cache directory
degrades to "no cache", never to a failed compile.

**Cross-process safety.**  One ``cache_dir`` may be shared by many
concurrent writer processes (parallel CI shards, several tiered
runtimes promoting against one store).  Two layers keep that safe:
every write holds an advisory ``flock`` on ``<root>/.lock`` around its
temp-file + ``os.replace`` sequence, so replaces of one entry are
serialized even on filesystems where rename ordering is weak; and
after the replace, the writer *re-reads its own entry* and validates
the stored fingerprints before reporting success, so a lost race, a
torn page, or an out-of-space truncation is reported as "not stored"
(the entry recompiles next process) rather than poisoning the store.
Readers stay lock-free: an entry file is only ever observed in a
whole-before or whole-after state thanks to the atomic replace, and
anything else fails fingerprint validation on load.  On platforms
without ``fcntl`` the lock degrades to the (already atomic) plain
write; the reread validation still applies.

The store keeps no hit/miss counters: every load returns a status
string and the engine aggregates them into
:class:`~repro.core.stats.EngineStats`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Callable, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.ir.function import Function, Signature
from repro.ir.module import Module
from repro.ir.parser import IRParseError, parse_function, parse_header

# Bump on any change to the artifact schema, the IR text, or the
# semantics of specialization outputs that the key cannot see.
# 4: one site-guard form — a (site, values) guard resumes, only an int
# guard unwinds.
# 5: a residual is stored as its printed IR text alone.
# 6: DCE keeps a dead op that can trap and GVN no longer commutes
# fadd/fmul, so a residual stored at 5 may differ from what the mid-end
# now makes from the same key (the key cannot see pass code).
# 7: the specializer defines each constant once, in the entry block, and
# GVN's walk folds and propagates copies, so residual bytes move.
ARTIFACT_VERSION = 7

# Bump on any change to the Python backend's emitted-code shape (the
# ``py/`` entries cache emitter *output*, so the emitter itself is part
# of their identity).
# 6: sized memory ops through the table's struct codecs, compare->branch
# fusion, NaN-box casts inline (tests/golden/emitter_pin.txt trips when
# emitted bytes change under an unchanged version).
# 7: compiled code charges only ``S.fuel``.
# 8: a function past CPython's static-block limit is re-emitted as one
# dispatch region; fuel-limit and bounds traps raise through ``_oof`` and
# ``_oob``.
# 9: the pinned corpus re-specializes into the residuals of
# ARTIFACT_VERSION 7, so its emitted bytes move with them.
# 10: sized loads and stores subscript the VM's typed heap views behind
# one mask test, with the checked accessor out of line; the NaN-box
# casts go through the VM's scratch word; ``_oob`` and ``_ML`` are gone.
# 11: a dispatch region's tree dispatches only to its entries and
# joins; a block's one ``_fu += k`` counts the branch that entered it;
# constants print as literals.
EMITTER_VERSION = 11

HIT = "hit"
MISS = "miss"
INVALID = "invalid"  # present but unusable: version/fp skew, corruption

# Consecutive write failures (OSError, lost reread validation, injected
# outage) after which a store stops touching the disk and degrades to a
# memory-only overlay for the rest of the process.  Write failures under
# healthy operation are one-off (a lost cross-process race); a run of
# them means the disk is gone (full, read-only, revoked) and every
# further attempt would burn a temp-file round trip per artifact on the
# serving path.
DEGRADE_AFTER_WRITE_FAILURES = 3


def _digest(parts: Tuple) -> str:
    """Stable hex digest of a key tuple (reprs of ints/strs/tuples are
    deterministic across processes)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def residual_fingerprint(ir_text: str) -> str:
    """Fingerprint of a residual function's printed IR."""
    return hashlib.sha256(ir_text.encode()).hexdigest()


# What a residual's body is: the attributes :func:`parse_function` fills.
_BODY = ("blocks", "entry", "value_types", "_next_value", "_next_block")


class StoredResidual(Function):
    """A residual loaded from the store, whose body is its stored text
    until something reads it.

    ``name`` and ``sig`` come from the text's header line.  The body
    (:data:`_BODY`) is filled in on its first read — ``__getattr__``
    fires only for an attribute the instance lacks, so an ordinary
    :class:`Function` pays nothing — by :func:`parse_function` and then
    ``verify``, exactly as an eager load reads it; the first read
    consults the fault plan's ``body`` seam.  A residual whose
    marshalled code is all that runs is never parsed, verified or
    printed: ``text`` is already ``print_function(body, order="id")``.
    """

    def __init__(self, text: str, name: str, sig: Signature,
                 module: Module,
                 verify: Optional[Callable[[Function], None]],
                 fault_plan=None):
        self.name, self.sig, self.text = name, sig, text
        self.fingerprint = self.prepared = None
        self._module, self._verify, self._fault_plan = \
            module, verify, fault_plan

    def parsed(self, name: Optional[str] = None) -> Function:
        """A new function read from the text (named ``name``, else the
        header's) and verified.  Raises :class:`IRParseError`, or the
        verifier's error."""
        func = parse_function(self.text, self._module,
                              name=name or self.name)
        if self._verify is not None:
            self._verify(func)
        return func

    def take_body(self, func: Function) -> None:
        """Make ``func``'s body this function's."""
        for attr in _BODY:
            setattr(self, attr, getattr(func, attr))

    def read_body(self) -> None:
        """Fill in the body if it is still text (a late read: the
        ``body`` seam is consulted first)."""
        if "blocks" not in self.__dict__:
            if self._fault_plan is not None:
                self._fault_plan.check("body")
            self.take_body(self.parsed())

    def __getattr__(self, attr: str):
        if attr not in _BODY:
            raise AttributeError(attr)
        self.read_body()
        return self.__dict__[attr]


def unread(func: Function) -> bool:
    """Whether ``func`` is a stored residual nothing has read the body
    of yet."""
    return isinstance(func, StoredResidual) and "blocks" not in vars(func)


class _StoreLock:
    """Advisory cross-process lock over one artifact directory.

    A fresh file handle per acquisition (re-entrant across threads is
    not needed — engine writes are single-threaded per process); any
    failure to lock degrades to lock-free operation, never to a failed
    write.
    """

    def __init__(self, root: str):
        self._path = os.path.join(root, ".lock")
        self._handle = None

    def __enter__(self) -> "_StoreLock":
        if fcntl is not None:
            try:
                self._handle = open(self._path, "a+b")
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
            except OSError:
                # A read-only store (unopenable lock file) or an
                # flock-less filesystem degrades to lock-free; reads
                # still hit and the write path reports its own failure.
                if self._handle is not None:
                    try:
                        self._handle.close()
                    except OSError:
                        pass
                self._handle = None
        return self

    def __exit__(self, *exc) -> None:
        # The handle must close (and the lock release with it) no matter
        # what the locked body or the explicit LOCK_UN did: an unlock
        # error (EBADF after an interleaved close, ValueError on a
        # closed file, fcntl monkeypatched away mid-run) must neither
        # leak the fd nor mask the body's own exception.
        handle, self._handle = self._handle, None
        if handle is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except (OSError, ValueError):
            pass
        finally:
            try:
                handle.close()
            except OSError:
                pass


def atomic_write_json(path: str, data: dict,
                      validate: Callable[[str], bool]) -> bool:
    """Temp-file + ``os.replace`` publish of ``data`` at ``path``, with
    a ``validate`` reread before success is reported — a write that
    cannot be read back whole is a failed write, not a poisoned store.

    Every failure path releases the temp fd and unlinks the temp file;
    an unwritable directory or an unencodable payload returns ``False``,
    never raises.  Callers that need cross-process exclusion wrap this
    in a :class:`_StoreLock` (see :func:`locked_write_json`) — ``flock``
    conflicts between two fds of one process, so the lock must be taken
    exactly once per critical section, never nested.
    """
    directory = os.path.dirname(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError:
        return False
    try:
        handle = os.fdopen(fd, "w", encoding="utf-8")
    except OSError:
        # fdopen failed: the raw fd is still ours to release.
        try:
            os.close(fd)
        except OSError:
            pass
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    try:
        with handle:
            json.dump(data, handle)
        os.replace(tmp, path)
    except (OSError, TypeError, ValueError):
        # Write/replace failure or a payload json cannot express: the
        # temp file must not linger in the shared directory.
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return validate(path)


def locked_write_json(lock_root: str, path: str, data: dict,
                      validate: Callable[[str], bool]) -> bool:
    """:func:`atomic_write_json` under ``lock_root``'s advisory lock
    (concurrent writers of one shared directory are serialized).

    Shared by the artifact store and the persisted profile store
    (:mod:`repro.pipeline.profiles`) so both follow one write
    discipline.
    """
    with _StoreLock(lock_root):
        return atomic_write_json(path, data, validate)


class ArtifactStore:
    """One directory of compilation artifacts, shared across processes.

    **Degraded mode.**  Store writes must never fail a build, and they
    must also never *bleed* — a dead disk turning every compile into a
    temp-file dance.  After :data:`DEGRADE_AFTER_WRITE_FAILURES`
    consecutive write failures the store flips to a memory-only overlay:
    writes land in ``self._memory`` (so warm reuse within this process
    still works), the disk is left alone, and the condition is surfaced
    through :meth:`health` (and from there
    ``EngineStats.store_degraded`` / the tiering report) instead of
    ever raising into a serving request.  ``fault_plan`` injects
    read-corruption and write-failure faults at this store's seams
    (:mod:`repro.pipeline.faults`).
    """

    def __init__(self, root: str, fault_plan=None):
        self.root = root
        self.spec_dir = os.path.join(root, "spec")
        self.py_dir = os.path.join(root, "py")
        os.makedirs(self.spec_dir, exist_ok=True)
        os.makedirs(self.py_dir, exist_ok=True)
        self.fault_plan = fault_plan
        self.degraded = False
        self.write_failures = 0
        self._consecutive_write_failures = 0
        # path -> payload dict; populated only in degraded mode, and
        # consulted before the disk so degraded-mode writes stay
        # observable to this process's loads.
        self._memory: dict = {}

    def health(self) -> dict:
        """The store's fault-containment state, for stats surfaces."""
        return {"degraded": self.degraded,
                "write_failures": self.write_failures,
                "memory_entries": len(self._memory)}

    # ------------------------------------------------------------------
    # Low-level IO.
    # ------------------------------------------------------------------
    @staticmethod
    def _read_json(path: str) -> Tuple[Optional[dict], str]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None, MISS
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ValueError):
            return None, INVALID
        if not isinstance(data, dict) or \
                data.get("version") != ARTIFACT_VERSION:
            return None, INVALID
        return data, HIT

    def _load_json(self, path: str) -> Tuple[Optional[dict], str]:
        """Entry load: the degraded-mode memory overlay shadows the
        disk, and an injected read fault reads as corruption (the
        ``INVALID`` path the engine already treats as "recompile")."""
        overlay = self._memory.get(path)
        if overlay is not None:
            if not isinstance(overlay, dict) or \
                    overlay.get("version") != ARTIFACT_VERSION:
                return None, INVALID
            return overlay, HIT
        plan = self.fault_plan
        if plan is not None and plan.fires("store_read"):
            return None, INVALID
        return self._read_json(path)

    def _write_json(self, path: str, data: dict,
                    stored_ok: Callable[[dict], bool]) -> bool:
        """Atomically publish ``data`` at ``path`` and prove it landed.

        Delegates to :func:`locked_write_json` (advisory lock + temp
        file + ``os.replace``), validating the reread with ``stored_ok``
        — a write that cannot be read back whole is a failed write, not
        a poisoned store.  Failures accumulate toward degraded mode
        (see the class docstring); in degraded mode the entry lands in
        the memory overlay and the call reports success.
        """
        if self.degraded:
            self._memory[path] = data
            return True

        def validate(written: str) -> bool:
            reread, status = self._read_json(written)
            return status == HIT and reread is not None \
                and stored_ok(reread)

        plan = self.fault_plan
        ok = False
        if plan is None or not plan.fires("store_write"):
            try:
                ok = locked_write_json(self.root, path, data, validate)
            except Exception:
                # The write helpers are designed never to raise; this
                # is the containment backstop for the unforeseen (and
                # for hostile monkeypatching in the chaos tier).
                ok = False
        if ok:
            self._consecutive_write_failures = 0
            return True
        self.write_failures += 1
        self._consecutive_write_failures += 1
        if self._consecutive_write_failures >= DEGRADE_AFTER_WRITE_FAILURES:
            self.degraded = True
            self._memory[path] = data
            return True
        return False

    # ------------------------------------------------------------------
    # Residual IR artifacts.
    # ------------------------------------------------------------------
    def spec_path(self, key: Tuple) -> str:
        return os.path.join(self.spec_dir, _digest(key) + ".json")

    def load_residual(self, key: Tuple, generic_fingerprint: str,
                      memory_fingerprint: str, module: Module,
                      verify: Optional[Callable[[Function], None]] = None
                      ) -> Tuple[Optional["StoredResidual"], str]:
        """Load the residual for ``key`` as ``(function, status)``; the
        function is ``None`` unless status is ``"hit"``.  It is a
        :class:`StoredResidual`: the name and signature are read from
        the text's header line, and the body stays text until something
        reads it, when it is parsed against ``module``, where it will
        run (a ``call``'s result type is its callee's), and checked by
        ``verify``.

        The fingerprints are stored redundantly inside the artifact and
        re-checked here, so a digest collision or a hand-edited file is
        caught the same way as corruption: silent recompile.
        """
        data, status = self._load_json(self.spec_path(key))
        if data is None:
            return None, status
        if data.get("generic_fingerprint") != generic_fingerprint or \
                data.get("memory_fingerprint") != memory_fingerprint:
            return None, INVALID
        text = data.get("ir_text")
        if not isinstance(text, str):
            return None, INVALID
        try:
            name, sig = parse_header(text)
        except IRParseError:
            return None, INVALID
        return StoredResidual(text, name, sig, module, verify,
                              self.fault_plan), HIT

    def store_residual(self, key: Tuple, ir_text: str,
                       generic_fingerprint: str,
                       memory_fingerprint: str) -> bool:
        """Persist one residual as its printed IR text (``order="id"``)."""
        return self._write_json(self.spec_path(key), {
            "version": ARTIFACT_VERSION,
            "generic_fingerprint": generic_fingerprint,
            "memory_fingerprint": memory_fingerprint,
            "ir_text": ir_text,
        }, stored_ok=lambda d: (
            d.get("generic_fingerprint") == generic_fingerprint
            and d.get("memory_fingerprint") == memory_fingerprint
            and d.get("ir_text") == ir_text))

    # ------------------------------------------------------------------
    # Emitted backend source artifacts.
    # ------------------------------------------------------------------
    def py_path(self, residual_fp: str) -> str:
        return os.path.join(self.py_dir,
                            _digest((residual_fp, EMITTER_VERSION))
                            + ".json")

    def load_py_source(self, residual_fp: str
                       ) -> Tuple[Optional[Tuple[str, Optional[object]]],
                                  str]:
        """Return ``((source, code), status)``; an entry without a
        source string is ``"invalid"``.

        ``code`` is the tier-3½ rung: an entry that carries a marshaled
        code object *for this interpreter's bytecode magic* yields it
        unmarshaled, so the caller skips ``compile()``.
        Any skew — missing field, different magic (another Python
        version wrote the entry), marshal format drift, corrupt payload
        — silently yields ``None``; the source is still a full hit.
        """
        data, status = self._load_json(self.py_path(residual_fp))
        if data is None:
            return None, status
        source = data.get("source")
        if not isinstance(source, str):
            return None, INVALID
        return (source, self._decode_code(data)), HIT

    @staticmethod
    def _decode_code(data: dict) -> Optional[object]:
        import importlib.util
        import marshal
        encoded = data.get("code")
        if not isinstance(encoded, str) or \
                data.get("py_magic") != importlib.util.MAGIC_NUMBER.hex():
            return None
        import base64
        try:
            code = marshal.loads(base64.b64decode(encoded))
        except (ValueError, EOFError, TypeError):
            return None
        import types
        return code if isinstance(code, types.CodeType) else None

    def store_py_source(self, residual_fp: str, source: str,
                        code_bytes: Optional[bytes] = None) -> bool:
        """Persist one emitted-source entry; ``code_bytes`` optionally
        attaches ``marshal.dumps`` of the compiled code object, tagged
        with this interpreter's bytecode magic so readers on another
        Python version fall back to the source."""
        payload = {
            "version": ARTIFACT_VERSION,
            "source": source,
        }
        if code_bytes is not None:
            import base64
            import importlib.util
            payload["code"] = base64.b64encode(code_bytes).decode("ascii")
            payload["py_magic"] = importlib.util.MAGIC_NUMBER.hex()
        return self._write_json(self.py_path(residual_fp), payload,
                                stored_ok=lambda d: d.get("source") == source)
