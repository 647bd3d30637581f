"""Outside-in layer tracing for the codec benchmark.

`Tracer.install` replaces each layer entry point with a timing wrapper in
every `rvqcodec` module that holds it by name (so calls made through
`from .quantizers import nn_quantize` are caught as well as module-internal
ones), and `Tracer.uninstall` puts the originals back.  Nothing in the
package is edited: the spans are taken at the boundaries a caller can see.

A span is (layer, start_ns, end_ns, parent, work), where `work` is the
layer's own unit count computed from the call's arguments or result:
distance evaluations n*K, table entries levels*support, symbols coded,
indices packed, latent elements predicted.  Spans stay in memory and are
summarised when the run ends; a layer's self time is its span durations
minus the durations of its direct children (calls are strictly nested in
this single-threaded program, so children never overlap).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter_ns


def _n_k(args, kwargs, result):
    vectors, codewords = args[0], args[1]
    return int(vectors.shape[0]) * int(codewords.shape[0])


def _predict_elems(args, kwargs, result):
    mu, _ = result
    return int(mu.size)


def _table_entries(args, kwargs, result):
    freqs, _ = result
    return int(freqs.size)


def _encode_symbols(args, kwargs, result):
    return len(args[0])


def _decode_symbols(args, kwargs, result):
    return len(result)


def _stack_indices(stacks):
    return sum(s.count * s.stages for s in stacks if s is not None)


def _packed_indices(args, kwargs, result):
    hyper_stack, group_stacks = args[1], args[2]
    return _stack_indices((hyper_stack, *group_stacks))


def _unpacked_indices(args, kwargs, result):
    _, hyper_stack, group_stacks = result
    return _stack_indices((hyper_stack, *group_stacks))


# Module-level functions: (module, attribute) -> (layer name, work counter).
# The attribute is looked up in every rvqcodec module and replaced wherever
# it is the same object as the module's original.
FUNCTION_LAYERS = {
    ("quantizers", "_sq_distances"): ("quantizers.distances", _n_k),
    ("quantizers", "nn_quantize"): ("quantizers.nn_quantize", None),
    ("quantizers", "rvq_quantize"): ("quantizers.rvq_quantize", None),
    ("quantizers", "train_codebook"): ("quantizers.train_codebook", None),
    ("quantizers", "train_rvq"): ("quantizers.train_rvq", None),
    ("schemes", "_rvq_reconstruct"): ("quantizers.reconstruct", None),
    ("schemes", "_predict_with"): ("schemes.predict_fit", _predict_elems),
    ("schemes", "_fit_group_heads"): ("schemes.fit_heads", None),
    ("grids", "partition_quadtree"): ("grids.partition", None),
    ("grids", "merge_groups"): ("grids.merge", None),
    ("grids", "extract_hyper_context"): ("grids.hyper", None),
    ("rans", "gaussian_table_batch"): ("rans.tables", _table_entries),
    ("rans", "_encode_core"): ("rans.encode", _encode_symbols),
    ("rans", "_decode_core"): ("rans.decode", _decode_symbols),
    # Operation roots, called by the benchmark itself.
    ("schemes", "rd_encode"): ("schemes.rd_encode", None),
    ("schemes", "rd_decode"): ("schemes.rd_decode", None),
    ("schemes", "iq_encode"): ("schemes.iq_encode", None),
    ("schemes", "iq_decode"): ("schemes.iq_decode", None),
    ("schemes", "cm_encode"): ("schemes.cm_encode", None),
    ("schemes", "cm_decode"): ("schemes.cm_decode", None),
    ("schemes", "train_rd_model"): ("schemes.train_rd", None),
    ("schemes", "train_iq_model"): ("schemes.train_iq", None),
    ("schemes", "train_cm_model"): ("schemes.train_cm", None),
    ("bitstream", "pack"): ("bitstream.pack", _packed_indices),
    ("bitstream", "unpack"): ("bitstream.unpack", _unpacked_indices),
    ("bitstream", "write_bitstream_file"): ("bitstream.container", None),
    ("bitstream", "read_bitstream_file"): ("bitstream.container", None),
}

# Methods: (module, class, attribute) -> (layer name, work counter).
METHOD_LAYERS = {
    ("schemes", "ContextPredictor", "predict"): ("schemes.predict", _predict_elems),
}

MODULES = ("grids", "quantizers", "schemes", "rans", "bitstream", "analysis")


class _Span:
    __slots__ = ("tracer", "layer", "span")

    def __init__(self, tracer, layer):
        self.tracer, self.layer = tracer, layer

    def __enter__(self) -> list:
        spans, stack = self.tracer.spans, self.tracer._stack
        self.span = [self.layer, perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
        stack.append(len(spans))
        spans.append(self.span)
        return self.span

    def __exit__(self, *exc):
        self.span[2] = perf_counter_ns()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans around the layer entry points of rvqcodec."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, layer: str) -> _Span:
        """A span around a block of code; entering it returns the span."""
        return _Span(self, layer)

    def wrap(self, layer: str, fn, work=None):
        """``fn`` with every call recorded as a span of ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as span:
                result = fn(*args, **kwargs)
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Patch every entry point of FUNCTION_LAYERS and METHOD_LAYERS."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [getattr(package, name) for name in MODULES]
        for (home, attr), (layer, work) in FUNCTION_LAYERS.items():
            original = getattr(getattr(package, home), attr)
            traced = self.wrap(layer, original, work)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for (home, cls_name, attr), (layer, work) in METHOD_LAYERS.items():
            cls = getattr(getattr(package, home), cls_name)
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.wrap(layer, original, work))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def clear(self) -> None:
        """Drop the recorded spans."""
        if self._stack:
            raise RuntimeError("cannot clear spans while one is open")
        self.spans.clear()

    def summary(self) -> dict:
        """Per-layer calls, work and self time, overall and per root span.

        The root of a span is its outermost ancestor: an operation or a
        training call made by the benchmark.  Call it, and `clear`, only
        between operations, when no span is open.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        totals = defaultdict(lambda: {"calls": 0, "work": 0, "total_ns": 0, "self_ns": 0})
        by_root = defaultdict(lambda: defaultdict(lambda: {"self_ns": 0, "total_ns": 0}))
        for i, (layer, start, end, _, work) in enumerate(spans):
            dur = end - start
            t = totals[layer]
            t["calls"] += 1
            t["work"] += work
            t["total_ns"] += dur
            t["self_ns"] += dur - child_ns[i]
            r = by_root[spans[root[i]][0]][layer]
            r["self_ns"] += dur - child_ns[i]
            r["total_ns"] += dur
        return {
            "spans": len(spans),
            "layers": {k: dict(v) for k, v in sorted(totals.items())},
            "by_root": {k: {l: dict(v) for l, v in sorted(d.items())}
                        for k, d in sorted(by_root.items())},
        }
