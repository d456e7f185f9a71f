"""Per-layer tracing of tokmri by wrapping its public functions from outside.

No source file of the program changes.  `Tracer.install` replaces each
function named in `FUNCTIONS` with a wrapper that records a span (id,
parent, name, start, end) in memory.  The package imports names with
``from .x import f``, so a function is replaced at every ``tokmri`` module
that binds it, not only at its home module.  A function that no longer
exists is skipped and listed in `Tracer.skipped`.

Tape nodes are attributed by kind: forward time comes from the ``t_*``
builders, backward time from the closures handed to ``Tape.push`` while a
builder of that kind is running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path

PACKAGE = "tokmri"

# Layer (module of the package) -> functions, as attribute paths in the module.
FUNCTIONS = {
    "phantoms": ["random_ellipse_phantom"],
    "storage": ["atomic_write_bytes", "load_ctns", "read_json"],
    "fourier": ["forward_fft", "inverse_fft", "acquire"],
    "tokenizer": ["train_tokenizer", "kmeans", "nearest_entry_indices",
                  "Tokenizer.encode", "Tokenizer.quantize", "Tokenizer.decode"],
    "autodiff": ["Tape.backward"],
    "model": ["LatentTransformer.predict", "batch_loss_and_grads",
              "train_model", "tokenize_image", "reconstruct"],
    "gradients": ["pipeline_forward", "backward_to_kspace",
                  "line_gradient_scores"],
    "policies": ["run_acquisition", "entropy_map", "les_select",
                 "geo_select", "random_select"],
    "metrics": ["evaluate", "ssim"],
    "experiment": ["cmd_gen_data", "cmd_train", "cmd_run"],
}

# Tape node kinds; the forward builder of kind k is autodiff.t_<k>.
TAPE_KINDS = ("attention", "ffn", "layer_norm", "affine", "ifft2c",
              "channel_norm", "ste_quantize", "entropy_sum", "cross_entropy")

_FWD = "autodiff.fwd."
_BWD = "autodiff.bwd."
# Counters kept beside a function's calls and self time: name -> unit.
FUNCTION_COUNTERS = {
    "storage.atomic_write_bytes": ("bytes", "B"),
    "tokenizer.kmeans": ("iters", "count"),
}
NODES = "autodiff.tape.nodes"
NODES_SWEPT = "autodiff.tape.nodes_swept"
SWEPT_RATIO = "autodiff.tape.swept_ratio"
OVERHEAD = "trace.overhead_ratio"
WALL_CPU = "ops.wall_cpu_ratio"   # wall over CPU time of every operation


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    out = []
    for layer, funcs in FUNCTIONS.items():
        for fn in funcs:
            base = f"{layer}.{fn}"
            out.append({"name": base + ".calls", "unit": "count", "better": "lower"})
            out.append({"name": base + ".self_ms", "unit": "ms", "better": "lower"})
            if base in FUNCTION_COUNTERS:
                suffix, unit = FUNCTION_COUNTERS[base]
                out.append({"name": f"{base}.{suffix}", "unit": unit,
                            "better": "lower"})
        if layer == "autodiff":
            for name in (NODES, NODES_SWEPT):
                out.append({"name": name, "unit": "count", "better": "lower"})
            out.append({"name": SWEPT_RATIO, "unit": "ratio", "better": "higher"})
            for kind in TAPE_KINDS:
                for prefix in (_FWD, _BWD):
                    out.append({"name": f"{prefix}{kind}.self_ms", "unit": "ms",
                                "better": "lower"})
    out.append({"name": OVERHEAD, "unit": "ratio", "better": "lower"})
    out.append({"name": WALL_CPU, "unit": "ratio", "better": "lower"})
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    `segment` labels the spans and counts recorded from now on, so that a
    run can normalise each part of itself (set-up, one phase) separately.
    """

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start_ns, end_ns, segment)
        self.counts: dict[tuple, float] = defaultdict(float)  # (segment, name)
        self.segment = "setup"
        self.skipped: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._patches: list[tuple] = []
        self._swept = weakref.WeakSet()

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack):
        if stack:
            return stack[-1][0]
        # a pool thread's outermost span hangs under the main thread's open one
        main = self._stacks.get(self._main)
        return main[-1][0] if main else None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append((sid, name))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self.segment))

    def count(self, name, value=1):
        self.counts[(self.segment, name)] += value

    def _current_kind(self):
        stack = self._stack()
        if stack and stack[-1][1].startswith(_FWD):
            return stack[-1][1][len(_FWD):]
        return None

    def _span_wrapper(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            out = tracer.call(name, fn, args, kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, orig, wrapper):
        for mname, module in list(sys.modules.items()):
            if module is None or not (mname == PACKAGE
                                      or mname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, key, orig))
                    setattr(module, key, wrapper)

    def _patch(self, module, path, make_wrapper):
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = None if owner is None else inspect.getattr_static(owner, attr, None)
        if orig is None:
            self.skipped.append(f"{module.__name__}.{path}")
            return
        wrapper = make_wrapper(orig)
        if owner_name:
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
        else:
            self._replace_everywhere(orig, wrapper)

    def install(self) -> None:
        """Wrap every traced function; safe to call again after `uninstall`."""
        self.skipped = []
        modules = {}
        for layer in FUNCTIONS:
            try:
                modules[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.skipped.append(f"{PACKAGE}.{layer}")
        hooks = {
            "storage.atomic_write_bytes": dict(before=self._count_bytes),
            "tokenizer.kmeans": dict(after=self._count_iters),
            "autodiff.Tape.backward": dict(before=self._count_swept),
        }
        for layer, funcs in FUNCTIONS.items():
            if layer not in modules:
                continue
            for path in funcs:
                name = f"{layer}.{path}"
                self._patch(modules[layer], path,
                            lambda fn, name=name: self._span_wrapper(
                                name, fn, **hooks.get(name, {})))
        ad = modules.get("autodiff")
        if ad is None:
            return
        for kind in TAPE_KINDS:
            self._patch(ad, f"t_{kind}",
                        lambda fn, kind=kind: self._span_wrapper(_FWD + kind, fn))
        self._patch(ad, "Tape.push", self._push_wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- hooks -----------------------------------------------------------------

    def _count_bytes(self, args, kwargs):
        data = args[1] if len(args) > 1 else kwargs.get("data", b"")
        self.count("storage.atomic_write_bytes.bytes", len(data))

    def _count_iters(self, out):
        self.count("tokenizer.kmeans.iters", len(out[2]))

    def _count_swept(self, args, kwargs):
        tape = args[0]
        if tape not in self._swept:
            self._swept.add(tape)
            self.count(NODES_SWEPT, len(getattr(tape, "nodes", ())))

    def _push_wrapper(self, push):
        tracer = self
        params = list(inspect.signature(push).parameters)
        pos = params.index("backward") if "backward" in params else None

        @functools.wraps(push)
        def wrapper(*args, **kwargs):
            tracer.count(NODES)
            kind = tracer._current_kind()
            if kind is not None and pos is not None:
                if len(args) > pos:
                    args = (*args[:pos], tracer._backward_wrapper(kind, args[pos]),
                            *args[pos + 1:])
                elif "backward" in kwargs:
                    kwargs["backward"] = tracer._backward_wrapper(
                        kind, kwargs["backward"])
            return push(*args, **kwargs)

        return wrapper

    def _backward_wrapper(self, kind, backward):
        name = _BWD + kind

        def wrapper(*args, **kwargs):
            return self.call(name, backward, args, kwargs)

        return wrapper

    # -- results ---------------------------------------------------------------

    def layer_values(self, per_segment: dict[str, float]) -> dict[str, float]:
        """Per-layer metric values, each segment's share scaled by its weight.

        A weight of 1/n for a segment of n identical rounds gives per-round
        figures, so call counts come out exact.
        """
        covered = _child_cover(self.spans)
        values: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, seg in self.spans:
            w = per_segment.get(seg, 0.0)
            if not name.startswith((_FWD, _BWD)):
                values[name + ".calls"] += w
            values[name + ".self_ms"] += w * (t1 - t0 - covered.get(sid, 0)) / 1e6
        for (seg, name), v in self.counts.items():
            values[name] += per_segment.get(seg, 0.0) * v
        nodes = values.get(NODES, 0.0)
        values[SWEPT_RATIO] = (values.get(NODES_SWEPT, 0.0) / nodes
                               if nodes else 0.0)
        return values

    def write(self, path: Path, summary: dict) -> None:
        """Spans as JSON lines, then a summary file beside them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, seg in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": t0, "end_ns": t1,
                                     "segment": seg}, separators=(",", ":")))
                fh.write("\n")
        summary = dict(summary, skipped=self.skipped, spans=len(self.spans))
        path.with_suffix(".summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _child_cover(spans) -> dict[int, int]:
    """For each span id, the ns of its interval that its children cover."""
    bounds = {sid: (t0, t1) for sid, _, _, t0, t1, _ in spans}
    children = defaultdict(list)
    for sid, parent, _, t0, t1, _ in spans:
        if parent in bounds:
            children[parent].append((t0, t1))
    covered = {}
    for parent, ivs in children.items():
        lo_p, hi_p = bounds[parent]
        total, end = 0, lo_p
        for lo, hi in sorted(ivs):
            lo, hi = max(lo, end), min(hi, hi_p)
            if hi > lo:
                total += hi - lo
                end = hi
        covered[parent] = total
    return covered
