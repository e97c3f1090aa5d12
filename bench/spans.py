"""Per-layer tracing from outside the package.

``install(recorder)`` replaces the public functions of each posrep module
with wrappers that record one span per call: name, start, end, parent span
and item id.  A wrapper replaces the name in every module that holds it
(``transport`` is imported by name into ``repbuild``, ``verify`` and
``cli``; ``check_modified_relations`` is a global looked up inside
``build_modified``), so every call site is seen.  Moves inside a transport
come from its public ``trace=`` argument: the wrapper passes a list whose
``append`` stamps the time, so each move becomes a span of its own.

Spans stay in memory; ``layer_sums`` folds them into additive sums that
``layer_metrics`` turns into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# The per-layer metrics of BENCHMARK.json, with their units.
PER_LAYER = {
    "qtorus.mul.calls": "count",
    "qtorus.mul.s": "s",
    "qtorus.mul.pairs": "count",
    "qtorus.mul.terms_out": "count",
    "qtorus.mul.collapse": "ratio",
    "qtorus.mul.ns_per_pair": "ns",
    "qtorus.lin.calls": "count",
    "qtorus.lin.s": "s",
    "qtorus.rebracket.calls": "count",
    "qtorus.rebracket.s": "s",
    "qtorus.rebracket.terms": "count",
    "transport.calls": "count",
    "transport.s": "s",
    "transport.braid.moves": "count",
    "transport.braid.s": "s",
    "transport.braid.terms_in": "count",
    "transport.braid.terms_out": "count",
    "transport.braid.ns_per_term": "ns",
    "transport.commute.moves": "count",
    "transport.commute.s": "s",
    "transport.commute.terms": "count",
    "transport.commute.ns_per_term": "ns",
    "transport.peak_terms": "count",
    "words.apply_move.calls": "count",
    "words.apply_move.s": "s",
    "words.braid_path.calls": "count",
    "words.braid_path.s": "s",
    "words.braid_path.moves": "count",
    "repbuild.build_rep.calls": "count",
    "repbuild.build_rep.self_s": "s",
    "repbuild.build_E.s": "s",
    "verify.check_relations.s": "s",
    "verify.check_relations.self_s": "s",
    "verify.q2_chain.s": "s",
    "verify.path_independence.self_s": "s",
    "moddouble.build_modified.self_s": "s",
    "moddouble.modified_relations.calls": "count",
    "moddouble.modified_relations.s": "s",
    "moddouble.cross_parity.s": "s",
    "moddouble.qtori.s": "s",
    "moddouble.commutant.s": "s",
    "cli.main.self_s": "s",
    "cli.render.s": "s",
    "cli.render.bytes": "B",
    "trace.overhead_s": "s",
}
TIMED_UNITS = ("s", "ns")

# Span fields: [name, start, end, parent index, item id, extra].
NAME, START, END, PARENT, ITEM, EXTRA = range(6)

LIN_METHODS = ("__add__", "__sub__", "__neg__", "scale", "scale_v")
RENDER = "cli.render"
LIN = "qtorus.lin"
MOVE_SPANS = ("transport.braid", "transport.commute")


class Recorder:
    """Collects spans while an item is active (``item`` is not None)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, measure=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.item is None:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if measure is not None:
                rec.spans[idx][EXTRA] = measure(args, out)
            return out

        return wrapper


class MoveTrace(list):
    """A transport ``trace`` list that turns every appended step into a span.

    Each entry is (move, word, n_monomials); the monomials in are those of
    the previous entry.  Spans recorded since the previous step under the
    transport span (the ``apply_move`` that validates the move) become
    children of the move span.  Entries are also appended to the caller's
    own list, when there is one.
    """

    def __init__(self, rec: Recorder, transport_idx: int, n_in: int, caller):
        super().__init__()
        self.rec = rec
        self.transport_idx = transport_idx
        self.caller = caller
        self.mark = time.perf_counter()
        self.mark_idx = len(rec.spans)
        self.n_in = n_in

    def append(self, entry) -> None:
        now = time.perf_counter()
        move, _word, n_out = entry
        rec = self.rec
        idx = len(rec.spans)
        rec.spans.append(
            [f"transport.{move.kind}", self.mark, now, self.transport_idx,
             rec.item, (self.n_in, n_out)]
        )
        for k in range(self.mark_idx, idx):
            if rec.spans[k][PARENT] == self.transport_idx:
                rec.spans[k][PARENT] = idx
        self.mark, self.mark_idx, self.n_in = now, idx + 1, n_out
        super().append(entry)
        if self.caller is not None:
            self.caller.append(entry)


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap the public functions of every posrep layer with span recorders."""
    cli, moddouble, qtorus, repbuild, transport, verify, words = (
        importlib.import_module(f"posrep.{name}")
        for name in ("cli", "moddouble", "qtorus", "repbuild", "transport", "verify", "words")
    )
    modules = [m for name, m in sys.modules.items() if name == "posrep" or name.startswith("posrep.")]

    op_cls = qtorus.QOperator
    op_cls.__mul__ = rec.wrap(
        "qtorus.mul", op_cls.__mul__,
        lambda args, out: (len(args[0]) * len(args[1]), len(out)),
    )
    for meth in LIN_METHODS:
        setattr(op_cls, meth, rec.wrap(LIN, getattr(op_cls, meth)))

    inner_transport = transport.transport

    def traced_transport(op, word, path, max_terms=None, trace=None):
        if rec.item is None:
            return inner_transport(op, word, path, max_terms, trace)
        moves = MoveTrace(rec, rec.stack[-1], len(op), trace)
        return inner_transport(op, word, path, max_terms, moves)

    def bytes_out(args, out):
        return len(out.encode()) if isinstance(out, str) else 0

    targets = [
        (qtorus.rebracket, "qtorus.rebracket", lambda args, out: len(out)),
        (words.apply_move, "words.apply_move", None),
        (words.braid_path, "words.braid_path", lambda args, out: len(out)),
        (repbuild.build_rep, "repbuild.build_rep", None),
        (repbuild.build_E, "repbuild.build_E", None),
        (verify.check_relations, "verify.check_relations", None),
        (verify.q2_chain_certificate, "verify.q2_chain", None),
        (verify.path_independence, "verify.path_independence", None),
        (moddouble.build_modified, "moddouble.build_modified", None),
        (moddouble.check_modified_relations, "moddouble.modified_relations", None),
        (moddouble.cross_parity_certificate, "moddouble.cross_parity", None),
        (moddouble.qtori_certificate, "moddouble.qtori", None),
        (moddouble.commutant_check, "moddouble.commutant", None),
        (cli.main, "cli.main", None),
        (cli.operator_to_json, RENDER, bytes_out),
        (repbuild.operator_text, RENDER, bytes_out),
        (cli.dump_json, RENDER, bytes_out),
    ]
    for fn, name, measure in targets:
        _replace_everywhere(modules, fn, rec.wrap(name, fn, measure))
    _replace_everywhere(
        modules, inner_transport,
        rec.wrap("transport", functools.wraps(inner_transport)(traced_transport)),
    )


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def layer_sums(spans: list[list]) -> dict:
    """Additive per-layer sums over a list of spans (``peak_terms`` is a max)."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    sums: dict[str, float] = {"transport.peak_terms": 0}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for idx, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None
        if name in (LIN, RENDER) and parent == name:
            continue  # nested call of the same layer: counted once, at the top
        add(f"{name}.calls", 1)
        add(f"{name}.s", dur)
        add(f"{name}.self_s", dur - child_time[idx])
        extra = s[EXTRA]
        if name == "qtorus.mul":
            add("qtorus.mul.pairs", extra[0])
            add("qtorus.mul.terms_out", extra[1])
        elif name in MOVE_SPANS:
            add(f"{name}.terms_in", extra[0])
            add(f"{name}.terms_out", extra[1])
            sums["transport.peak_terms"] = max(sums["transport.peak_terms"], *extra)
        elif name == "qtorus.rebracket":
            add("qtorus.rebracket.terms", extra)
        elif name == "words.braid_path":
            add("words.braid_path.moves", extra)
        elif name == RENDER:
            add("cli.render.bytes", extra)
    return sums


def merge_sums(parts: list[dict]) -> dict:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            if key == "transport.peak_terms":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# Metrics that read a sum under another name.
RENAMED = {
    "transport.braid.moves": "transport.braid.calls",
    "transport.commute.moves": "transport.commute.calls",
    "transport.commute.terms": "transport.commute.terms_in",
}


def layer_metrics(sums: dict) -> dict[str, float]:
    """The per-layer metrics (without ``trace.overhead_s``) from merged sums."""
    g = lambda key: sums.get(key, 0)
    metrics = {name: g(RENAMED.get(name, name)) for name in PER_LAYER if name != "trace.overhead_s"}
    metrics.update({
        "qtorus.mul.collapse": _ratio(g("qtorus.mul.terms_out"), g("qtorus.mul.pairs")),
        "qtorus.mul.ns_per_pair": _ratio(g("qtorus.mul.s"), g("qtorus.mul.pairs"), 1e9),
        "transport.braid.ns_per_term": _ratio(g("transport.braid.s"), g("transport.braid.terms_in"), 1e9),
        "transport.commute.ns_per_term": _ratio(g("transport.commute.s"), g("transport.commute.terms_in"), 1e9),
    })
    return metrics
