"""Spans and counters recorded from outside sweeplab.

The tracer replaces the module attributes through which one sweeplab module
calls another (and a few hot intra-module helpers) with thin wrappers, so the
program itself is unchanged.  Each wrapper records a span (name, start, end,
parent) in compact in-memory arrays, or bumps a counter.  ``uninstall``
restores the original attributes, which is how the benchmark runs untraced
passes in the same process.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self, sl):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._patches = []
        self._installed = False
        _add_boundaries(self, sl)

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        t0 = _clock()
        try:
            yield
        finally:
            self.end[i] = _clock()
            self.start[i] = t0
            self._stack.pop()

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def timed(self, fn, name: str, after=None):
        """Wrap fn in a span; ``after(args, kwargs, result)`` runs untimed."""
        nid = self._id(name)
        open_, stack, starts, ends = self._open, self._stack, self.start, self.end

        def wrapper(*args, **kwargs):
            i = open_(nid)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = _clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def install(self) -> None:
        if not self._installed:
            for owner, attr, _orig, repl in self._patches:
                setattr(owner, attr, repl)
            self._installed = True

    def uninstall(self) -> None:
        if self._installed:
            for owner, attr, orig, _repl in reversed(self._patches):
                setattr(owner, attr, orig)
            self._installed = False

    # -- analysis ------------------------------------------------------------

    def mark(self):
        """Position in the span log plus a copy of the counters."""
        return len(self.name), dict(self.counts)

    def arrays(self, lo: int = 0, hi: int | None = None):
        hi = len(self.name) if hi is None else hi
        # Copies, so that no buffer export blocks later appends to the log.
        return tuple(
            np.frombuffer(a, dtype=dt)[lo:hi].copy()
            for a, dt in (
                (self.name, np.int32),
                (self.parent, np.int32),
                (self.start, np.float64),
                (self.end, np.float64),
            )
        )

    def layer_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name: (calls, inclusive seconds, self seconds) over [lo, hi).

        A span's self time is its duration minus the durations of its direct
        children, which nest inside it.  Spans in [lo, hi) whose parent lies
        before lo keep their full duration.
        """
        name, parent, start, end = self.arrays(lo, hi)
        dur = end - start
        n = len(dur)
        rel = parent - lo
        inside = rel >= 0
        child = np.bincount(rel[inside], weights=dur[inside], minlength=n)[:n]
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=own, minlength=k)
        return {
            nm: (int(calls[i]), float(incl[i]), float(selft[i]))
            for i, nm in enumerate(self.names)
        }

    def calls_within(self, prefix: str, lo: int = 0, hi: int | None = None) -> dict:
        """Calls per span name inside each span whose name starts with prefix.

        Spans are logged in start order, so a span's descendants are exactly
        the entries after it that start before it ends.
        """
        name, _parent, start, end = self.arrays(lo, hi)
        ids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix)]
        out = {}
        for r in np.flatnonzero(np.isin(name, ids)):
            stop = np.searchsorted(start, end[r], side="right")
            counts = np.bincount(name[r + 1 : stop], minlength=len(self.names))
            out[self.names[name[r]]] = {self.names[i]: int(counts[i]) for i in np.flatnonzero(counts)}
        return out

    def save(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            start=start,
            end=end,
        )


# ---------------------------------------------------------------------------
# The boundaries that are wrapped


def _add_boundaries(tr: Tracer, sl) -> None:
    poly, sw, cr, sc, cli = sl.polyhedra, sl.sweeping, sl.crawler, sl.scenarios, sl.cli

    def timed_at(owners, attr, name, after=None):
        for owner in owners:
            tr.patch(owner, attr, tr.timed(getattr(owner, attr), name, after))

    # signals: phase tables, wrapped where sweeping and crawler bound eval_many
    timed_at([sw, cr], "eval_many", "signals.eval_many")

    # polyhedra: subset table (cache hits are spans too; builds add entries).
    # Holding each table keeps its id from being reused by a later one.
    seen_tables = {}

    def on_table(args, kwargs, table):
        if id(table) not in seen_tables:
            seen_tables[id(table)] = table
            tr.bump("polyhedra.subset_table_entries", len(table[0]))

    timed_at([poly, sw], "_subset_table", "polyhedra.subset_table", on_table)
    tr.patch(
        poly.MovingPolyhedron,
        "__init__",
        tr.timed(poly.MovingPolyhedron.__init__, "polyhedra.MovingPolyhedron"),
    )
    timed_at([poly], "vertices", "polyhedra.vertices")

    def on_project(args, kwargs, result):
        table, hint = args[2], (args[5] if len(args) > 5 else kwargs.get("hint"))
        subset = result[2]
        if not subset:
            tr.bump("polyhedra.interior_steps")
            return
        if hint and tuple(hint) == subset:
            tr.bump("polyhedra.hint_hits")
            return
        index = table[1]
        tried = index[subset] + 1
        if hint and tuple(hint) in index:
            tried += 1
        tr.bump("polyhedra.full_searches")
        tr.bump("polyhedra.candidates_tried", tried)

    timed_at([sw], "_project_raw", "polyhedra.project", on_project)

    # sweeping
    timed_at([sw, cr, cli], "simulate", "sweeping.simulate")
    timed_at([sw], "_active_mask", "sweeping.active_mask")
    timed_at([sw, cli], "convergence_report", "sweeping.convergence_report")
    timed_at([cli], "write_trajectory_csv", "sweeping.write_trajectory_csv")

    # crawler
    timed_at([cr], "_margin_gate", "crawler.margin_gate")
    tr.patch(cr, "margin_at", tr.counted(cr.margin_at, "crawler.margin_evals"))
    timed_at([cr, cli], "build_moving_set", "crawler.build_moving_set")
    timed_at([cr], "assemble_positions", "crawler.assemble_positions")
    timed_at([cr, cli], "simulate_reduced", "crawler.simulate_reduced")
    timed_at([cr, cli], "incremental_oracle", "crawler.incremental_oracle")
    tr.patch(cr, "_oracle_step", tr.counted(cr._oracle_step, "crawler.oracle_steps"))
    tr.patch(cr, "_try_pattern", tr.counted(cr._try_pattern, "crawler.oracle_patterns_tried"))

    # cli
    timed_at([cli], "write_motion_csv", "cli.write_motion_csv")
    timed_at([cli], "write_json", "cli.write_json")

    # scenarios
    timed_at([sc, cli], "catalog", "scenarios.catalog")
