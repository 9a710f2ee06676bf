"""In-memory spans around the calls into leafsep's layers, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in every
loaded ``leafsep`` module that binds it, so calls made through a module
attribute (``analysis.distribution_table``) and through a name imported into
another module (``synthesis.leaf_amplitude_table``) are both seen.
``uninstall`` puts the originals back, so untraced work runs the library's own
functions with nothing in between.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass

# span name -> (module, attribute) of the function it times
TRACED = {
    "experiments.random_leaf_separable": ("leafsep.experiments", "random_leaf_separable"),
    "experiments.random_mixed_leaf_separable": ("leafsep.experiments",
                                                "random_mixed_leaf_separable"),
    "experiments.random_fixed_weight_state": ("leafsep.experiments",
                                              "random_fixed_weight_state"),
    "analysis.is_leaf_separable": ("leafsep.analysis", "is_leaf_separable"),
    "analysis.distribution_table": ("leafsep.analysis", "distribution_table"),
    "analysis.leaf_amplitude_table": ("leafsep.analysis", "leaf_amplitude_table"),
    "analysis.weight_split_amplitudes": ("leafsep.analysis", "weight_split_amplitudes"),
    "analysis.node_weight_norms": ("leafsep.analysis", "node_weight_norms"),
    "synthesis.synthesize_full": ("leafsep.synthesis", "synthesize_full"),
    "synthesis.synthesize_gwdb_tree": ("leafsep.synthesis", "synthesize_gwdb_tree"),
    "synthesis.synthesize_gwdb": ("leafsep.synthesis", "synthesize_gwdb"),
    "synthesis.synthesize_leaf_encoders": ("leafsep.synthesis", "synthesize_leaf_encoders"),
    "synthesis.synthesize_hwk_encoder": ("leafsep.synthesis", "synthesize_hwk_encoder"),
    "synthesis.synthesize_general_baseline": ("leafsep.synthesis",
                                              "synthesize_general_baseline"),
    "circuit.cost": ("leafsep.circuit", "cost"),
    "circuit.export_text": ("leafsep.circuit", "export_text"),
    "circuit.parse_text": ("leafsep.circuit", "parse_text"),
    "simulator.simulate": ("leafsep.simulator", "simulate"),
}

# spans whose return value is kept: their gates give the per-stage gate counts
KEEP_RESULT = {"synthesis.synthesize_gwdb_tree", "synthesis.synthesize_gwdb",
               "synthesis.synthesize_leaf_encoders"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    target: int | None      # timed-loop iteration, None during set-up
    phase: str              # "setup", "compile", "text", "verify" or "check"
    parent: int | None      # index of the enclosing span, if any
    result: object = None   # the return value, for names in KEEP_RESULT

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.target: int | None = None
        self.phase = "setup"
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}
        self._wrapped: dict[str, object] = {}

    def install(self) -> None:
        if self._originals:
            return
        for name, (module, attr) in TRACED.items():
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                continue  # the function no longer exists; its metric reads 0
            self._originals[name] = original
            self._wrapped[name] = self._wrap(name, original)
            self._rebind(original, self._wrapped[name])

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            self._rebind(self._wrapped[name], original)
        self._originals, self._wrapped = {}, {}

    def _rebind(self, old, new) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "leafsep" and not mod_name.startswith("leafsep."):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attr, new)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self.target, self.phase,
                        self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if name in KEEP_RESULT:
                span.result = result
            return result

        return traced

    def write(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "target": s.target,
                 "phase": s.phase, "parent": s.parent} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def top_level(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that no other span named in ``names`` encloses."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(s)
    return out
