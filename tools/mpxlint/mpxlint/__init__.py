"""mpxlint: static invariant checker for the mpx concurrency model.

Five checks, each a plugin over an engine-built CodeModel:

  lock-rank          held-while-acquiring graph must respect LockRank order
  mc-coverage        modeled protocol files use mc:: shims + PLAIN annotations
  memory-order       release/acquire pairing per atomic member, implicit
                     seq_cst detection
  progress-contract  ProgressSource::poll/idle must not block or re-enter
                     progress-engine locks
  tsa-ratchet        mutex-guarded fields must carry MPX_GUARDED_BY

Two engines produce the same CodeModel: a libclang (clang.cindex) engine
driven by compile_commands.json, and a textual engine (comment/string
stripping + brace tracking) used when libclang is unavailable.
"""

__version__ = "1.0"
