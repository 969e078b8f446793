"""Repo-specific configuration for mpxlint checks.

Everything a check needs to know about this codebase's conventions lives
here — modeled-file sets, the lock-rank table, deny-lists — so the engines
and checks stay generic."""

from __future__ import annotations

# Declared lock ranks, mirroring include/mpx/base/lock_rank.hpp. A thread
# may only acquire locks of strictly increasing rank; `none` is exempt.
LOCK_RANKS = {
    "none": 0,
    "control": 50,
    "vci": 100,
    "stream": 200,
    "task_queue": 300,
    "transport": 400,
    "transport_channel": 410,
}

# Files whose lock-acquisition sites are the lock *implementations*, not
# users — their internal lock()/unlock() bodies are not acquisition edges.
LOCK_IMPL_FILES = (
    "include/mpx/base/instrumented_mutex.hpp",
    "include/mpx/base/spinlock.hpp",
    "include/mpx/base/thread_safety.hpp",
    "include/mpx/base/lock_rank.hpp",
    "src/base/lock_rank.cpp",
    "include/mpx/mc/sync.hpp",
    "include/mpx/mc/mc.hpp",
    "src/mc/",
)

# The mc:: shim layer itself forwards memory orders and wraps raw atomics
# by design — excluded from mc-coverage and memory-order member analysis.
MC_SHIM_FILES = (
    "include/mpx/mc/",
    "src/mc/",
)

# Modeled protocol files (mc-coverage check): code whose interleavings the
# mpx::mc explorer is expected to cover. Raw std:: sync primitives here are
# invisible to the model checker and therefore findings.
MODELED_FILES = (
    "include/mpx/shm/shm_transport.hpp",
    "src/shm/shm_transport.cpp",
    "src/core/matching.hpp",
    "include/mpx/base/spinlock.hpp",
    "include/mpx/core/detail/request_impl.hpp",
    "include/mpx/base/queue.hpp",
    "include/mpx/base/instrumented_mutex.hpp",
    "src/core/internal.hpp",
    # The collective schedule cache (RCU publish protocol) and executor
    # (cursor inbox + pending gate) — modeled by test_mc_coll_cache.cpp
    # and driven through every interleaving the suite explores.
    "include/mpx/coll/ir_cache.hpp",
    "src/coll/ir_exec.cpp",
    # The control-plane/datapath topology seam (RCU snapshot publication,
    # epoch quiescence, pair in-flight counters) — modeled by
    # test_mc_topology_swap.cpp (publish/read/reclaim interleavings).
    "include/mpx/core/topology.hpp",
    "src/core/world_layers.hpp",
    # Fixture self-tests exercise the modeled-file rules on these. Listed
    # individually (not as a directory prefix) because the mc-coverage
    # inverse guard needs a fixture that is NOT in the modeled set
    # (mc_shim_unlisted.cpp) living in the same directory.
    "tools/mpxlint/fixtures/blocking_poll.cpp",
    "tools/mpxlint/fixtures/clean.cpp",
    "tools/mpxlint/fixtures/engine_worker_blocking.cpp",
    "tools/mpxlint/fixtures/exec_blocking_poll.cpp",
    "tools/mpxlint/fixtures/rank_inversion.cpp",
    "tools/mpxlint/fixtures/raw_atomic_modeled.cpp",
    "tools/mpxlint/fixtures/unannotated_guarded.cpp",
    "tools/mpxlint/fixtures/unpaired_release.cpp",
    "tools/mpxlint/fixtures/verify_in_poll.cpp",
    "tools/mpxlint/fixtures/topology_swap_in_poll.cpp",
)

# shared-counter: the point-to-point datapath. Every message runs through
# these files, so an RMW on a process-wide (namespace-scope or static)
# atomic here writes a cache line that every VCI's thread shares.
DATAPATH_FILES = (
    "src/core/protocol.cpp",
    "src/core/progress.cpp",
    "src/core/request.cpp",
    "src/shm/",
    "src/net/",
    "src/base/pool.cpp",
    "include/mpx/core/detail/request_impl.hpp",
    "tools/mpxlint/fixtures/shared_counter.cpp",
)

# progress-contract: names that block (or re-enter the progress engine).
# Exact function-name matches on the call graph reachable from
# ProgressSource::poll / idle implementations.
BLOCKING_CALL_NAMES = {
    "wait",
    "wait_all",
    "wait_any",
    "wait_on_stream",
    "progress_until",
    "progress_test",
    "stream_progress",
    "vci_poll",
}

# progress-contract: external progress-driver roots. These drive progress
# from OUTSIDE a poll context (ProgressThread's loop — the stream-scoped
# helper that is also the engine's dedicated poller — and the adaptive
# engine's shared poll, which ProgressThread::run reaches through a
# std::function the call graph cannot follow, so it is rooted itself), so
# calling a progress entry point is their whole job — the
# names in PROGRESS_ENTRY_CALL_NAMES are allowed boundaries for them — but
# everything else about the contract still holds: no blocking waits, no
# vci/stream-ranked lock acquisitions (vci_poll takes the VCI lock itself;
# holding one across the call re-enters the engine).
PROGRESS_DRIVER_ROOTS = {
    ("ProgressEngine", "poll_shared"),
    ("ProgressThread", "run"),
}
PROGRESS_ENTRY_CALL_NAMES = {
    "vci_poll",
    "progress_test",
    "stream_progress",
}

# progress-contract: entry points of the collective schedule verifier
# (src/coll/ir_verify.cpp). The verifier is a compile-path tool — it
# allocates freely and builds a global event graph — and must never run
# on the progress path, so any call reachable from ProgressSource::poll /
# idle is a finding (same mechanics as BLOCKING_CALL_NAMES).
PROGRESS_VERIFIER_CALL_NAMES = {
    "verify_ranks",
    "verify_local",
}

# progress-contract: control-plane mutation entry points (World topology
# publication). They take the control mutex (rank 50, BELOW vci) and drive
# progress while holding it, so calling one from inside a poll context —
# which already runs under a vci-ranked lock — both inverts the lock order
# and re-enters the engine mid-swap. Snapshot *reads* (the TopoRef
# acquire-load) are poll-safe; these writers are not.
PROGRESS_CONTROL_CALL_NAMES = {
    "swap_topology_for_test",
}

# progress-contract: lock ranks a progress source must never (transitively)
# acquire. poll()/idle() already run under a `vci`-ranked lock; reaching
# another vci/stream acquisition re-enters the progress engine — the
# paper's progress-reentrancy deadlock (§3.4).
PROGRESS_FORBIDDEN_RANKS = {"vci", "stream"}

# Base class whose poll/idle overrides are progress-contract roots.
PROGRESS_SOURCE_BASE = "ProgressSource"

# tsa-ratchet: member types that are internally synchronized — not
# candidates for MPX_GUARDED_BY even inside a mutex-owning class.
INTERNALLY_SYNCED_TYPES = (
    "MpscQueue",
    "SpscRing",
    "ProgressRegistry",
    "LockRank",
    "Coordinator",
    "WaitLadderCounters",
    # RCU publication point: one atomic pointer, synchronized by the
    # publish/pin/quiesce protocol in topology.hpp.
    "TopologyHandle",
)

# Return types of well-known accessor helpers, used by the textual engine
# to type `auto&` locals (e.g. `auto& ch = chan(rank, vci);`).
ACCESSOR_RETURN_TYPES = {
    "chan": "Channel",
    "channel": "Channel",
    "chan_of": "Channel",
    "ep": "Endpoint",
    "ep_of": "Endpoint",
    "endpoint": "Endpoint",
}

# Ops that take a trailing memory-order argument, and the annotation that
# opts a deliberate seq_cst site out.
ATOMIC_ORDER_METHODS = (
    "load", "store", "exchange",
    "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
    "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set",
)
SEQ_CST_INTENTIONAL_RE = r"mo:\s*seq_cst\s+intentional"

# Inline suppression comment:  // mpxlint: allow(check-id) reason
ALLOW_RE = r"mpxlint:\s*allow\(([a-z0-9_,\- ]+)\)"

# File extensions scanned.
SOURCE_EXTS = (".hpp", ".h", ".cpp", ".cc", ".cxx")
