"""Layer spans recorded around the public functions of the qbeats modules.

The tracer wraps, from outside the package, every public module-level
function of the layers in ``LAYERS`` plus ``BlockHamiltonian.eig``. A wrapped
function is swapped in wherever another qbeats module holds a reference to
it, so the spans sit at layer boundaries: a call from a module into its own
helpers stays unwrapped (and cheap), and its time is that layer's own time.
``INTRA`` names the few functions whose calls from their own module are
wrapped too, because a metric counts them.

A span's self time is its duration minus the durations of the spans it
caused. Summed per layer, self times partition the root span exactly.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "config", "pipeline", "noisemethods", "hamiltonians",
          "dynamics", "relaxation", "backends", "noisecal", "postprocess")
INTRA = {"cli.write_csv", "noisemethods.echo_target_stats"}
PROPAGATORS = ("dynamics.pair_trajectory_pure", "dynamics.pair_trajectory_density",
               "dynamics.singlet_trace_pure", "dynamics.evolve")
CHANNEL = "relaxation.infinite_temperature_thermal_channel"
EIG = "dynamics.eig"  # BlockHamiltonian.eig, the eigendecomposition step of propagation


class Tracer:
    """Spans kept in memory as (name, parent index, start, end, self seconds)."""

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, float]] = []
        self.counts: Counter = Counter()
        self.echo_keys: set = set()
        self._stack: list[list] = []  # [span index, child seconds] per open span
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.echo_keys.clear()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recorded as span ``name``; ``hook(tracer, args, kwargs)`` runs first."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name, parent, start, end, end - start - frame[1])

        return traced

    def install(self) -> None:
        """Swap wrapped functions into every loaded qbeats module."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qbeats" or k.startswith("qbeats."))]
        for layer in LAYERS:
            module = importlib.import_module(f"qbeats.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, _hook_for(name, fn))
                for target in modules:
                    if target is module and name not in INTRA:
                        continue
                    for key, value in list(vars(target).items()):
                        if value is fn:
                            self._set(target, key, traced)
        hamiltonians = importlib.import_module("qbeats.hamiltonians")
        cls = hamiltonians.BlockHamiltonian
        self._set(cls, "eig", self.wrap(EIG, cls.eig, _count_decomposition))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)


def _count_decomposition(tracer, args, kwargs):
    # BlockHamiltonian caches its eigenpairs; count only the computed ones
    if getattr(args[0], "_eig", None) is None:
        tracer.counts["dynamics.eig_calls"] += 1


def _hook_for(name: str, fn):
    if name in PROPAGATORS:
        sig = inspect.signature(fn)

        def amplitudes(tracer, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            tracer.counts["dynamics.amplitudes"] += bound["H"].dim * len(bound["times"])
        return amplitudes
    if name == "backends.run_density":
        def gates(tracer, args, kwargs):
            circuit = args[0] if args else kwargs["circuit"]
            tracer.counts["backends.gates"] += len(circuit.gates)
        return gates
    if name == "noisemethods.echo_target_stats":
        sig = inspect.signature(fn)

        def distinct(tracer, args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            tracer.echo_keys.add((float(bound["t"]), bound["T1"], bound["T2"],
                                  bound["hardware"]))
        return distinct
    return None


def layer_metrics(tracer: Tracer, total_s: float) -> dict[str, float]:
    """Per-layer self times and work counts of one traced command."""
    self_s: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for name, _parent, _start, _end, own in tracer.spans:
        self_s[name] += own
        calls[name] += 1

    def layer(prefix: str, exclude=()) -> float:
        return sum(v for k, v in self_s.items()
                   if k.startswith(prefix + ".") and k not in exclude)

    metrics = {
        "dynamics.propagate_s": layer("dynamics", {EIG}),
        "dynamics.propagate_calls": sum(calls[n] for n in PROPAGATORS),
        "dynamics.amplitudes": tracer.counts["dynamics.amplitudes"],
        "dynamics.eig_s": self_s[EIG],
        "dynamics.eig_calls": tracer.counts["dynamics.eig_calls"],
        "backends.run_density_s": layer("backends"),
        "backends.run_density_calls": calls["backends.run_density"],
        "backends.gates": tracer.counts["backends.gates"],
        "relaxation.channel_builds": calls[CHANNEL],
        "relaxation.channel_s": self_s[CHANNEL],
        "relaxation.relax_s": layer("relaxation", {CHANNEL}),
        "noisemethods.self_s": layer("noisemethods"),
        "noisemethods.echo_target_calls": calls["noisemethods.echo_target_stats"],
        "noisemethods.echo_target_distinct": len(tracer.echo_keys),
        "hamiltonians.build_s": layer("hamiltonians"),
        "hamiltonians.build_calls": sum(v for k, v in calls.items()
                                        if k.startswith("hamiltonians.build_")),
        "pipeline.self_s": layer("pipeline"),
        "noisecal.s": layer("noisecal"),
        "postprocess.s": layer("postprocess"),
        "cli.write_csv_s": self_s["cli.write_csv"],
        "cli.self_s": layer("cli", {"cli.write_csv"}),
        "config.load_s": layer("config"),
    }
    accounted = sum(v for k, v in metrics.items() if k.endswith("_s") or k.endswith(".s"))
    metrics["trace.total_s"] = total_s
    metrics["trace.self_share"] = 100.0 * accounted / total_s
    return metrics
