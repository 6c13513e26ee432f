"""Index aliases: a stable name that atomically re-points to an index dir.

The blue/green reindex primitive (Elasticsearch alias-swap analog): serve
queries through ``<alias>.alias.json`` while a rebuild (new analyzer,
compaction, upsert batch) lands in a fresh directory, then ``set_alias``
re-points readers in one ``os.replace`` — POSIX-atomic on a filesystem, so
a concurrently starting task sees either the old or the new target, never a
torn file. Query tasks resolve the alias when they build their executor
(``state.generations`` keys each worker's cached view by the resolved
directory), so the first task to start after ``set_alias`` serves the new
target, while a task already running finishes on the generation it opened —
the standard searcher-generation contract, not a mid-query switch.

Reference analog: the reference has no serving layer at all (one-shot MPI
job, results printed on rank 0 — src/flexible_mpi.c:549-565); aliases are
part of the index lifecycle (merge/compact/upsert) this engine adds.
"""

from __future__ import annotations

import json
import os

_SUFFIX = ".alias.json"


def alias_path(name_or_dir: str) -> str:
    """The on-disk file for an alias name (idempotent if already suffixed)."""
    return name_or_dir if name_or_dir.endswith(_SUFFIX) else name_or_dir + _SUFFIX


def set_alias(alias: str, index_dir: str) -> str:
    """Point ``alias`` at ``index_dir`` atomically; returns the alias file.

    The target must look like a built index (index_meta.json present) —
    re-pointing to a half-written directory is exactly the failure mode the
    alias exists to prevent.
    """
    if not os.path.exists(os.path.join(index_dir, "index_meta.json")):
        raise ValueError(f"not a built index (no index_meta.json): {index_dir}")
    path = alias_path(alias)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"index_dir": os.path.abspath(index_dir)}, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)  # atomic: readers see old or new, never torn
    return path


def resolve_index(path: str) -> str:
    """Resolve a path that may be an alias (``x.alias.json`` or a name whose
    alias file exists) to its index dir; plain index dirs pass through.
    One level only — an alias pointing at an alias is a config error."""
    p = alias_path(path) if not path.endswith(_SUFFIX) else path
    if os.path.exists(p):
        with open(p) as f:
            target = json.load(f)["index_dir"]
        if os.path.exists(alias_path(target)) and not os.path.isdir(target):
            raise ValueError(f"alias chain not supported: {path} -> {target}")
        return target
    return path
