"""Request tracing: a column-ring span store with deterministic IDs.

Recording (:meth:`Tracer.start` / :meth:`~Tracer.tag` /
:meth:`~Tracer.finish`) writes into tracer-owned parallel columns —
start, end, parent id, name, one flat tag tuple — used as a
fixed-capacity ring, and call sites hold a plain **int span id**.  Id 0
means "not recorded" (observability off, request sampled out, or tree
evicted): a child of 0 is 0 and tagging or finishing 0 does nothing, so
an untraced request costs a few int tests.  Recording creates nothing
the cyclic garbage collector tracks: the columns hold floats, ints,
constant strings and tuples of plain values (untracked on their first
collection).  They are lists because an indexed store into an
``array('d')`` parses its argument: ~40 ns against ~6 ns.

Reading (:attr:`Tracer.roots`, :meth:`Tracer.spans`,
:meth:`Tracer.to_json` and the helpers below) builds :class:`Span`
views — children lists, tag dicts, rounded and stringified values —
from the columns on demand.

Span ids are a monotonic counter and the simulation is deterministic,
so same-seed traces are byte-identical.  The tracer takes a ``now_fn``
rather than a Simulator so ``repro.sim.core`` can import this module.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["DETACHED", "Span", "Tracer", "render_tree", "critical_path",
           "containment_violations", "spans_named"]

SPANS_PER_ROOT = 16  # ring slots per retained root (knob: ``max_roots``)
#: Parent of a background root: a tree of its own that no client asked
#: for by name (``txn.cleanup``, ``raft.snapshot``), exempt from sampling.
DETACHED = -1


class Span:
    """Read-only view of one recorded span, built at export time."""

    __slots__ = ("span_id", "name", "parent", "children",
                 "start_ms", "end_ms", "tags", "_now_fn")

    @property
    def duration_ms(self) -> float:
        end = self.end_ms if self.end_ms is not None else self._now_fn()
        return max(0.0, end - self.start_ms)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first in creation order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span

    def to_dict(self) -> Dict:
        out = {"span_id": self.span_id, "name": self.name,
               "start_ms": round(self.start_ms, 6),
               "end_ms": round(self.end_ms, 6) if self.end_ms is not None
               else None,
               "duration_ms": round(self.duration_ms, 6)}
        if self.tags:
            out["tags"] = {k: self.tags[k] for k in sorted(self.tags)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span(#{self.span_id} {self.name} "
                f"[{self.start_ms:.2f}→{self.end_ms}])")


def _export_value(value):
    """Tags are stored raw: round durations, stringify objects, here."""
    if isinstance(value, float):
        return round(value, 3)
    if value is None or isinstance(value, (int, str)):
        return value
    return str(value)


class Tracer:
    """Records spans into a ring of columns; builds views on demand.

    Names and tag keys are string literals at the call site; tags are
    one flat ``(key, value, ...)`` tuple, extended by :meth:`tag`.

    ``max_roots`` bounds memory: at most that many trees are retained,
    in a ring of ``max_roots * SPANS_PER_ROOT`` slots.  At either limit
    the oldest *whole* trees are dropped (``dropped_roots`` counts
    them) and their ids behave like 0.  ``max_roots=0`` is the disabled
    tracer: no ring, every start returns 0.

    ``sample_every`` keeps 1 of every N *requests*: only client-entry
    roots (``parent=None``: ``sql.stmt``, an explicit ``txn``, a KV call
    with no trace context) advance the counter.  Whatever a request
    causes — :data:`DETACHED` background roots like ``txn.cleanup``
    included — is only started when the request's own id is nonzero, and
    so follows its decision.
    """

    def __init__(self, now_fn: Callable[[], float], max_roots: int = 4096,
                 sample_every: int = 1):
        self._now_fn = now_fn
        self.max_roots = max_roots
        self.sample_every = max(1, int(sample_every))
        self.dropped_roots = 0
        self.sampled_out_roots = 0
        self._requests_seen = 0
        #: Ring capacity, fixed.  The columns double as the ring first
        #: fills: a run pays for the spans it records, not the capacity.
        self._cap = max_roots * SPANS_PER_ROOT
        self._start: List[float] = []
        self._end: List[Optional[float]] = []  # None until finished
        self._parent: List[int] = []
        self._name: List[str] = []
        self._tags: List[Optional[tuple]] = []  # flat (key, value, ...)
        self._next = 1
        #: Eviction watermark: ids below it are gone.  It only ever
        #: moves to a root's id (or past everything), so trees go whole.
        self._low = 1
        #: Highest id :meth:`start` can record before :meth:`_make_room`.
        self._limit = 0
        self._root_ids: deque = deque()
        self._views: Dict[int, Span] = {}

    # -- recording ---------------------------------------------------------

    def start(self, name: str, parent: Optional[int] = None,
              tags: Optional[tuple] = None) -> int:
        """Start a child of ``parent`` (0 in, 0 out), a client-entry root
        (None: counted by sampling) or a :data:`DETACHED` root."""
        sid = self._next
        if parent is None or parent < 0:
            if not self._cap:
                return 0
            if parent is None:
                self._requests_seen += 1
                if (self._requests_seen - 1) % self.sample_every:
                    self.sampled_out_roots += 1
                    return 0
            parent = 0
            root_ids = self._root_ids
            root_ids.append(sid)
            if len(root_ids) > self.max_roots:
                root_ids.popleft()
                self.dropped_roots += 1
                self._low = root_ids[0]
        elif parent < self._low:
            return 0
        if sid > self._limit:
            self._make_room()
        slot = sid % self._cap
        self._parent[slot] = parent
        self._name[slot] = name
        self._start[slot] = self._now_fn()
        self._end[slot] = None
        self._tags[slot] = tags
        self._next = sid + 1
        return sid

    def _make_room(self) -> None:
        """Slow path of :meth:`start`: back more of the ring, or once it
        is full drop the oldest whole trees to free the next slots."""
        cap, size = self._cap, len(self._start)
        if size < cap:
            add = min(max(size, 1024), cap - size)
            for column in (self._start, self._end, self._parent, self._name,
                           self._tags):
                column.extend([None] * add)
            self._limit = size + add - 1
            if size + add < cap:
                return
        occupant = self._next - cap
        if occupant >= self._low:
            root_ids = self._root_ids
            while root_ids and root_ids[0] <= occupant:
                root_ids.popleft()
                self.dropped_roots += 1
            self._low = root_ids[0] if root_ids else self._next
        self._limit = self._low + cap - 1

    def tag(self, span: int, key: str, value) -> None:
        """Attach a tag; later values win.  No-op on 0 or an evicted id."""
        if span >= self._low:
            slot = span % self._cap
            old = self._tags[slot]
            self._tags[slot] = ((key, value) if old is None
                                else old + (key, value))

    def finish(self, span: int, key: Optional[str] = None,
               value=None) -> None:
        """End the span now, optionally attaching one tag.  Idempotent:
        only the first call sets the end, a late one only tags.  No-op on
        0 or an evicted id."""
        if span >= self._low:
            slot = span % self._cap
            if key is not None:
                old = self._tags[slot]
                self._tags[slot] = ((key, value) if old is None
                                    else old + (key, value))
            if self._end[slot] is None:
                self._end[slot] = self._now_fn()

    # -- export-time views -------------------------------------------------

    @property
    def roots(self) -> List[Span]:
        """Retained root spans as :class:`Span` trees, oldest first:
        rebuilt from the columns on every access, each span keeping the
        same view object (``roots`` and ``spans()`` agree by identity)."""
        old_views = self._views
        views: Dict[int, Span] = {}
        out: List[Span] = []
        for sid in range(self._low, self._next):
            slot = sid % self._cap
            parent_id = self._parent[slot]
            parent = views.get(parent_id)
            if parent_id and parent is None:
                continue  # a straggler of a tree whose root was dropped
            span = old_views.get(sid) or Span()
            views[sid] = span
            span.span_id = sid
            span.name = self._name[slot]
            span.parent = parent
            span.children = []
            span.start_ms = self._start[slot]
            span.end_ms = self._end[slot]
            span._now_fn = self._now_fn
            stored = self._tags[slot] or ()
            span.tags = {stored[i]: _export_value(stored[i + 1])
                         for i in range(0, len(stored), 2)}
            if parent is None:
                out.append(span)
            else:
                parent.children.append(span)
        self._views = views
        return out

    def spans(self) -> Iterator[Span]:
        """Every retained span, all trees, creation order within a tree."""
        for root in self.roots:
            yield from root.walk()

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps([root.to_dict() for root in self.roots],
                          indent=indent, sort_keys=True)


# -- analysis helpers ------------------------------------------------------


def spans_named(root: Span, name: str) -> List[Span]:
    return [span for span in root.walk() if span.name == name]


def containment_violations(root: Span, epsilon: float = 1e-6) -> List[str]:
    """Children whose sim-time window escapes their parent's.

    An empty list means durations "sum consistently": every child's
    interval lies within its parent's (child ≤ parent).  Spans that were
    never finished are reported too — an unfinished span has no
    defensible duration.
    """
    problems: List[str] = []
    for span in root.walk():
        if span.end_ms is None:
            problems.append(f"span #{span.span_id} {span.name} never finished")
            continue
        for child in span.children:
            if child.start_ms < span.start_ms - epsilon:
                problems.append(
                    f"child #{child.span_id} {child.name} starts before "
                    f"parent #{span.span_id} {span.name}")
            if child.end_ms is not None and span.end_ms is not None \
                    and child.end_ms > span.end_ms + epsilon:
                problems.append(
                    f"child #{child.span_id} {child.name} ends after "
                    f"parent #{span.span_id} {span.name}")
    return problems


def critical_path(root: Span) -> List[Span]:
    """The chain of spans ending latest at each level — the spans that
    gate the root's completion."""
    path = [root]
    span = root
    while span.children:
        finished = [c for c in span.children if c.end_ms is not None]
        if not finished:
            break
        span = max(finished, key=lambda c: (c.end_ms, c.start_ms, c.span_id))
        path.append(span)
    return path


def render_tree(root: Span) -> str:
    """ASCII tree of one span and its descendants with sim-time windows."""
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        indent = "  " * depth
        end = f"{span.end_ms:.2f}" if span.end_ms is not None else "…"
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
        lines.append(
            f"{indent}{span.name} #{span.span_id} "
            f"[{span.start_ms:.2f} → {end} ms] "
            f"({span.duration_ms:.2f} ms)" + (f"  {{{tags}}}" if tags else ""))
        for child in span.children:
            emit(child, depth + 1)

    emit(root, 0)
    return "\n".join(lines)
