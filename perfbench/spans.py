"""In-memory span tracer around the public functions of rhombuscode's layers.

``Tracer.install`` wraps every public function defined in a layer module
and rebinds it in every namespace that holds it by name (for example
``engine`` imports ``commutes`` from ``pauli``, and ``dephasing`` imports
``codeword_zero`` from ``engine``). ``uninstall`` restores the originals.

Each wrapped call records its duration and its self time (duration minus
the wrapped calls it made). Calls of non-leaf functions also become spans
``(id, name, start, end, parent id)``; leaf functions, which are called
very often, are only aggregated to count, total and self time. Wrappers
record nothing while ``active`` is false, so the benchmark's own checks
never enter the numbers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

MARK = "__perfbench_wrapped__"

Hook = Callable[[Dict[str, float], inspect.BoundArguments, object], None]


class _ThreadState:
    def __init__(self):
        self.stack: List[list] = []
        self.totals: Dict[str, list] = {}
        self.spans: List[Tuple] = []
        self.counters: Dict[str, float] = {}


class Tracer:
    """Wraps layer functions; one instance per traced run."""

    def __init__(
        self,
        layers: Dict[str, object],
        namespaces: Iterable[object],
        is_leaf: Callable[[str], bool],
        hooks: Optional[Dict[str, Hook]] = None,
    ):
        self.layers = layers
        self.namespaces = list(namespaces)
        self.is_leaf = is_leaf
        self.hooks = hooks or {}
        self.active = False
        self._patched: List[Tuple[object, str, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, module in self.layers.items():
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for ns in self.namespaces:
            for name, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((ns, name, obj))
                    setattr(ns, name, hit[1])

    def uninstall(self) -> None:
        self.active = False
        while self._patched:
            ns, name, original = self._patched.pop()
            setattr(ns, name, original)
        left = find_wrappers(self.namespaces)
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    # --- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _wrap(self, fn, name: str):
        tracer = self
        leaf = self.is_leaf(name)
        hook = self.hooks.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            span_id = parent_span if leaf else next(tracer._ids)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                if not leaf:
                    state.spans.append((span_id, name, start, end, parent_span))
            if hook is not None:
                hook(state.counters, signature.bind(*args, **kwargs), result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # --- results ----------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds), merged over threads."""
        merged: Dict[str, list] = {}
        for state in self._states:
            for name, (calls, total, own) in state.totals.items():
                acc = merged.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return {name: tuple(v) for name, v in merged.items()}

    def counters(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for state in self._states:
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def spans(self) -> List[Tuple]:
        return sorted(s for state in self._states for s in state.spans)


def find_wrappers(namespaces: Iterable[object]) -> List[str]:
    """Qualified names of tracer wrappers bound in the given namespaces."""
    return [
        f"{ns.__name__}.{name}"
        for ns in namespaces
        for name, obj in vars(ns).items()
        if hasattr(obj, MARK)
    ]
