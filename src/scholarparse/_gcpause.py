"""Run a per-document entry point with automatic garbage collection paused.

Parsing, extracting and exporting one document allocate many container
objects (element trees, token tuples, tuple records) and form no
reference cycles, so reference counting frees all of them.  The cyclic
collector still runs, set off by those allocations alone, and each of its
collections walks the caller's whole live heap: models, modules, inputs and
kept results.  Pausing it for the call removes that work and changes no
output.

``gc`` is process-wide: while a paused call runs, every other thread of the
process also runs without automatic collection.  A caller that had
disabled the collector finds it still disabled afterwards.

The pause defers the collection of what a call allocated; it does not
drop it.  The collector comes back on with the young generation's count
still holding every container object the call left alive, so the next
container object the process allocates, from anywhere, sets off one young
collection over everything the call returned, a whole parsed document.
Only objects reused from the interpreter's free lists (small tuples, for
one) do not count.  A caller whose own code allocates nothing between two
paused calls (``parse_rich_xml``, then ``extract_document``) can still pay
that collection, because the interpreter allocates for it.  On CPython
3.11.7, in a loop of such calls, it fired at either of:
- the tuple iterator that unpacks the returned ``(document, report)`` in
  code that has run too few times to be specialized;
- under ``sys.setprofile``, the profiler's call on the return of
  ``gc.enable()``, which puts the collection inside the paused call.
"""

from __future__ import annotations

import gc
from functools import wraps


def gc_paused(func):
    """``func`` with automatic collection off for the length of each call;
    the collector's previous state is restored on return and on raise."""

    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused
