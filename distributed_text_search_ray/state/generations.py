"""Index generations: the key a process caches an opened index under.

A query stage runs as Ray tasks, and a task worker process lives across
tasks and calls. What the worker opened for an index (the ``IndexView``: its
metadata, tombstones, segment readers, decoded postings and term dictionary)
is kept (``stages.executor.open_view``) and shared by every task the worker
runs, as long as the index stays the same *generation*.

A generation is named by :func:`generation_key`: the real path of the
directory the given path resolves to (aliases followed), plus the identity
(inode, mtime, size) of its ``index_meta.json`` and ``deleted.parquet``.
Every index write that readers must see replaces one of those two files
(``delete_docs`` swaps in a new tombstone file; builds, merges and
compactions write a new ``index_meta.json``), and ``set_alias`` changes the
resolved directory. So the next task after such a write or swap opens the new
generation; a task that already started finishes on the one it opened.
"""

from __future__ import annotations

import os

from distributed_text_search_ray.state.alias import resolve_index

GENERATION_FILES = ("index_meta.json", "deleted.parquet")


def _identity(path: str) -> tuple[int, int, int] | None:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def generation_key(index_path: str) -> tuple[tuple, str]:
    """(generation key, resolved index dir) for a path or alias."""
    target = resolve_index(index_path)
    real = os.path.realpath(target)
    key = (real,) + tuple(_identity(os.path.join(real, f)) for f in GENERATION_FILES)
    return key, target
