"""Per-layer spans for braidcover, recorded from outside the package.

`SpanRecorder.install` wraps the public functions listed in LAYERS and
rebinds each one in every `braidcover.*` module namespace that holds it,
so calls between modules and inside a module (say `_prepare_type1`
calling `classify_baldwin`) are recorded too.  A listed name that no
longer exists is reported in `missing` and skipped.

Small helpers that run once per letter or per move (`apply_move`,
`reduce_letters`, `format_word`, `parse_word`, ...) are left unwrapped on
purpose: their time stays in the caller's self time, and wrapping them
would make the tracing cost larger than the work measured.

Spans are kept in memory as [name, start, end, parent, op, status,
counters, observe_s] and written out when the run ends.  The counters are
read from a span's returned value after its end is stamped; observe_s is
the time that took, which `self_times` keeps out of every span's time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> {function or Class.method: time metric its self time adds to}
LAYERS = {
    "braid": {
        "parse_braid": "braid.parse_s",
        "format_braid": "braid.parse_s",
        "exponent_sum": "braid.parse_s",
        "expand_fulltwist": "braid.parse_s",
        "classify_baldwin": "braid.classify_s",
        "twist_search": "braid.classify_s",
        "normalize_type1_d1": "braid.normalize_s",
        "normalize_type1_dm1": "braid.normalize_s",
        "replay_moves": "braid.replay_s",
        "words_cyclically_equal": "braid.replay_s",
    },
    "diagram": {
        "closure_white_graph": "diagram.white_graph_s",
        "goeritz_matrix": "diagram.goeritz_s",
        "GoeritzMatrix.determinant": "diagram.goeritz_s",
        "to_decorated": "diagram.to_decorated_s",
    },
    "presentation": {
        "greene_presentation": "presentation.greene_s",
        "cycle_presentation": "presentation.cycle_presentation_s",
        "abelianize": "presentation.abelianize_s",
        "tietze_simplify": "presentation.tietze_s",
    },
    "rewrite": {
        "verify_lemma_x": "rewrite.lemma_s",
        "verify_lemma_y": "rewrite.lemma_s",
        "verify_lemma_left": "rewrite.lemma_s",
        "verify_lemma_right": "rewrite.lemma_s",
        "verify_product_relation": "rewrite.lemma_s",
        "left_elimination": "rewrite.lemma_s",
        "right_elimination": "rewrite.lemma_s",
    },
    "ordercheck": {
        "todd_coxeter": "ordercheck.coset_enum_s",
        "certify_cycle_non_lo": "ordercheck.certify_s",
        "verify_certificate": "ordercheck.recheck_s",
    },
    "cli": {
        "run_batch": "cli.self_s",
        "run_pipeline": "cli.self_s",
    },
}

# counter -> the spans it counts
CALL_COUNTS = {
    "braid.classify_calls": {"braid.classify_baldwin"},
    "diagram.white_graph_calls": {"diagram.closure_white_graph"},
    "rewrite.lemma_left_calls": {"rewrite.verify_lemma_left"},
    "rewrite.lemma_calls": {"rewrite.verify_lemma_x", "rewrite.verify_lemma_y",
                            "rewrite.verify_lemma_left", "rewrite.verify_lemma_right",
                            "rewrite.verify_product_relation"},
    "ordercheck.recheck_calls": {"ordercheck.verify_certificate"},
}


def _canon_len(data):
    return len(json.dumps(data, sort_keys=True, separators=(",", ":")))


def _lemma_words(result):
    return {"rewrite.max_word_len": max(len(w) for w in result[1])}


# span name -> function of the returned value giving counters; counters
# named max_* keep the largest value, the others add up
OBSERVERS = {
    "braid.twist_search": lambda r: {"braid.twist_states": len(r)},
    "braid.normalize_type1_d1": lambda r: {"braid.transcript_moves": len(r.transcript)},
    "braid.normalize_type1_dm1": lambda r: {"braid.transcript_moves": len(r.transcript)},
    "diagram.closure_white_graph": lambda r: {"diagram.graph_edges": len(r.edges)},
    "presentation.tietze_simplify": lambda r: {
        "presentation.max_relator_len": max((len(x) for x in r.relators), default=0)},
    "rewrite.verify_lemma_left": _lemma_words,
    "rewrite.verify_lemma_right": _lemma_words,
    "rewrite.verify_product_relation": lambda r: {
        "rewrite.max_word_len": len(r.results["product"])},
    "ordercheck.todd_coxeter": lambda r: {"ordercheck.cosets_defined": r.cosets_defined,
                                          "ordercheck.group_order_sum": r.order},
    "ordercheck.certify_cycle_non_lo": lambda r: {
        "ordercheck.cert_bytes": _canon_len(r.to_json())},
    "cli.run_batch": lambda r: {
        "cli.report_bytes": sum(_canon_len(e) for e in r[0])},
}

# unit of every counter the observers give; group_order_sum only feeds
# coset_yield and is not reported itself
COUNTER_UNITS = {
    "braid.twist_states": "count",
    "braid.transcript_moves": "count",
    "diagram.graph_edges": "count",
    "presentation.max_relator_len": "letters",
    "rewrite.max_word_len": "letters",
    "ordercheck.cosets_defined": "count",
    "ordercheck.cert_bytes": "bytes",
    "cli.report_bytes": "bytes",
}
HIDDEN_COUNTERS = ("ordercheck.group_order_sum",)

# per-layer metrics computed from the others or outside the spans
DERIVED = {
    "ordercheck.coset_yield": "ratio",
    "ordercheck.exhausted": "count",
    "cli.fanout_speedup": "x",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, OP, STATUS, COUNTERS, OBSERVE_S = range(8)


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op = -1            # index of the op in its pass, set by the caller
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        stack = self._stack
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, "ok", None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[STATUS] = type(e).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                t0 = clock()
                span[COUNTERS] = observe(result)
                span[OBSERVE_S] = clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every function named in LAYERS; braidcover must be importable."""
        self.missing = []
        importlib.import_module("braidcover")
        for module_name, names in LAYERS.items():
            module = importlib.import_module("braidcover." + module_name)
            for qualname in names:
                name = "%s.%s" % (module_name, qualname)
                owner, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner, None) if owner else module
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                if owner is not module:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("braidcover"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self):
        """The spans recorded so far; the recorder starts a new list."""
        out, self.spans = self.spans, []
        return out


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    A child's observer runs after the child's end, inside its parent's
    time; that time is the benchmark's, so it is taken off the parent."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START] + s[OBSERVE_S]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def time_metrics():
    """Every time metric named in LAYERS, in order of first appearance."""
    return list(dict.fromkeys(m for names in LAYERS.values() for m in names.values()))


def per_layer_units():
    """Every per-layer metric the traced run reports, with its unit."""
    units = dict.fromkeys(time_metrics(), "s")
    units.update(dict.fromkeys(CALL_COUNTS, "count"))
    units.update(COUNTER_UNITS)
    units.update(DERIVED)
    return units


def layer_metrics(spans):
    """Per-layer numbers of one traced pass: self times, call counts and
    counters read from the returned values."""
    group = {"%s.%s" % (mod, q): metric
             for mod, names in LAYERS.items() for q, metric in names.items()}
    out = dict.fromkeys(time_metrics(), 0.0)
    for s, self_s in zip(spans, self_times(spans)):
        out[group[s[NAME]]] += self_s
    for counter, names in CALL_COUNTS.items():
        out[counter] = sum(1 for s in spans if s[NAME] in names)
    counters = dict.fromkeys(list(COUNTER_UNITS) + list(HIDDEN_COUNTERS), 0)
    for s in spans:
        for key, value in (s[COUNTERS] or {}).items():
            counters[key] = max(counters[key], value) if ".max_" in key \
                else counters[key] + value
    order_sum = counters.pop("ordercheck.group_order_sum")
    out.update(counters)
    closed = counters["ordercheck.cosets_defined"]
    out["ordercheck.coset_yield"] = order_sum / closed if closed else 0.0
    out["ordercheck.exhausted"] = sum(1 for s in spans if s[NAME] == "ordercheck.todd_coxeter"
                                      and s[STATUS] == "Exhausted")
    return out
