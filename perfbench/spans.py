"""Spans around the public functions of every bilbt module, installed from
outside the package.

`Tracer.install()` replaces each public function (plus the few private entry
points in `EXTRA`) with a wrapper in every bilbt namespace that holds a
reference to it: the defining module, each module that imported it by name,
the package root, and dicts such as the CLI's command table.  While
`enabled` is false a wrapper only forwards the call.  While it is true it
records a span (name, start, end, parent) and, for a few functions, counts
the work the call did.  Spans stay in memory until `write_spans`.

The tracing overhead is the number of spans times the measured cost of one
span around a no-op, plus the time the wrappers spend counting work, which
they time themselves.  It is not a traced round's time minus an untraced
one's: on a shared host two rounds of the same work differ by more than
tracing costs.

Allocation peaks are not taken while spans are timed, because tracemalloc
slows allocation-heavy Python loops several fold.  Instead the first call of
each shape into `matrix_equations` and `simulation.simulate` is kept, and
`replay_allocations` runs those calls again under tracemalloc after the
timed rounds.
"""

import functools
import hashlib
import importlib
import inspect
import json
import math
import pkgutil
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("kronecker", "system", "matrix_equations", "gramians", "balancing",
           "simulation", "verification", "cli")
EXTRA = {"cli": ("_cmd_campaign",)}

VERIFICATION_CHECKS = ("check_error_bound", "check_reach_energy",
                       "check_observ_energy", "check_gronwall_P2",
                       "check_mixed_side_conditions")
GRAMIAN_FUNCTIONS = {"type1": "type1_gramians", "type2": "type2_gramians",
                     "p2": "stochastic_type2_P2", "mixed": "mixed_pair_Q1_P2"}
ALLOC_LAYERS = ("matrix_equations", "simulation")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("kronecker.ms_abscissa.calls", "count"), ("kronecker.ms_abscissa.s", "s"),
        ("kronecker.operator_bytes", "bytes"),
        ("system.stability_report.calls", "count"), ("system.stability_report.s", "s"),
        ("matrix_equations.lyapunov.calls", "count"),
        ("matrix_equations.lyapunov.s", "s"),
        ("matrix_equations.lyapunov.kronecker_direct.calls", "count"),
        ("matrix_equations.lyapunov.fixed_point.calls", "count"),
        ("matrix_equations.riccati.calls", "count"),
        ("matrix_equations.riccati.s", "s"),
        ("matrix_equations.riccati.iterations", "count"),
        ("matrix_equations.riccati.delta_halvings", "count"),
        ("matrix_equations.riccati.equality_wins", "count"),
        ("matrix_equations.riccati.trace_P", "1"),
        ("matrix_equations.peak_alloc_mb", "MB"),
    ]
    for short in GRAMIAN_FUNCTIONS:
        names += [(f"gramians.{short}.calls", "count"), (f"gramians.{short}.s", "s")]
    names.append(("gramians.p2.calls_per_system", "1"))
    for fn in ("square_root_balance", "truncate"):
        names += [(f"balancing.{fn}.calls", "count"), (f"balancing.{fn}.s", "s")]
    names += [
        ("simulation.simulate.calls", "count"), ("simulation.simulate.s", "s"),
        ("simulation.simulate.steps", "count"),
        ("simulation.simulate.us_per_step", "us"),
        ("simulation.simulate.repeat_share", "1"),
        ("simulation.peak_alloc_mb", "MB"),
    ]
    for check in VERIFICATION_CHECKS:
        names += [(f"verification.{check}.calls", "count"),
                  (f"verification.{check}.self_s", "s")]
    names += [
        ("verification.campaign.self_s", "s"),
        ("cli.campaign.self_s", "s"), ("cli.report_bytes", "bytes"),
        ("trace.spans", "count"), ("trace.overhead_s", "s"),
    ]
    return names


def _digest(*arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def system_key(sys):
    return _digest(sys.A, sys.B, sys.C, *sys.N)


def control_key(u):
    parts = [u.kind, repr(u.m), repr(u.k_bound)]
    for name in sorted(u.params):
        value = u.params[name]
        parts.append(name + ":" + (_digest(value) if isinstance(value, np.ndarray)
                                   else repr(value)))
    return "|".join(parts)


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []  # open spans: [span id, name, start, time covered by children]
        self.spans = []  # closed spans: (id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counters = defaultdict(float)
        self.trace_P_logs = []
        self.gramian_systems = set()
        self.simulated = set()
        self.alloc_samples = {}  # (layer, shape signature) -> (function, args, kwargs)
        self.hook_s = 0.0  # time spent counting work and keeping replay samples
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self):
        import bilbt

        wrappers = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            module = importlib.import_module(f"bilbt.{short}")
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not n.startswith("_")]
            for name in names + list(EXTRA.get(short, ())):
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{short}.{name}", original))

        def swap(table):
            for key, value in list(table.items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if value is original:
                    table[key] = wrapper

        namespaces = [vars(bilbt)] + [vars(importlib.import_module(info.name))
                                      for info in pkgutil.iter_modules(bilbt.__path__,
                                                                       "bilbt.")]
        for ns in namespaces:
            swap(ns)
            for value in list(ns.values()):
                if isinstance(value, dict) and value is not ns.get("__builtins__"):
                    swap(value)  # tables of functions, such as the CLI's commands

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        post = _POST.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if layer == "matrix_equations" or name == "simulation.simulate":
                hook = time.perf_counter()
                self._keep_alloc_sample(layer, name, fn, args, kwargs)
                self.hook_s += time.perf_counter() - hook
            parent = self.stack[-1] if self.stack else None
            self._next_id += 1
            frame = [self._next_id, name, 0.0, 0.0]
            self.stack.append(frame)
            frame[2] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[3]
                if parent is not None:
                    parent[3] += duration
                self.spans.append((frame[0], parent[0] if parent else None, name,
                                   start, end))
            if post is not None:
                hook = time.perf_counter()
                post(self, args, kwargs, result)
                self.hook_s += time.perf_counter() - hook
            return result

        return wrapper

    def _keep_alloc_sample(self, layer, name, fn, args, kwargs):
        if any(frame[1].startswith(layer + ".") for frame in self.stack):
            return  # only the outermost call into the layer is replayed
        # allocation depends on the shapes involved (and, for simulate, on
        # the number of steps), not on the values
        shape = [np.shape(getattr(a, field)) for a in args
                 for field in ("M", "A_shifted", "A") if hasattr(a, field)]
        shape += [np.shape(a) for a in args if isinstance(a, np.ndarray)]
        if name == "simulation.simulate":
            shape += [args[2].m, repr(args[3]), repr(args[4] if len(args) > 4
                                                     else kwargs.get("h"))]
        self.alloc_samples.setdefault((layer, name, repr(shape)), (fn, args, kwargs))

    def begin_round(self):
        """Start a traced round: repeats are counted within one round."""
        self.simulated.clear()
        self.enabled = True

    # -- results ------------------------------------------------------------

    @staticmethod
    def span_cost():
        """Seconds one span adds to a call: a no-op wrapped by an enabled
        tracer of its own against the bare no-op, median of five batches."""
        def noop():
            return None

        probe = Tracer()
        wrapped = probe._wrap("probe.noop", noop)
        probe.enabled = True
        calls, costs = 20000, []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
        return statistics.median(costs)

    def replay_allocations(self):
        """Peak traced allocation (MB) per layer over the kept calls."""
        was_enabled, self.enabled = self.enabled, False
        peaks = {layer: 0.0 for layer in ALLOC_LAYERS}
        try:
            for (layer, _name, _shape), (fn, args, kwargs) in self.alloc_samples.items():
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    fn(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks[layer] = max(peaks[layer], (peak - base) / 1e6)
        finally:
            self.enabled = was_enabled
        return peaks

    def layer_metrics(self, rounds, peaks, extra):
        """Per-layer metrics, each divided by the number of traced rounds."""
        c, t, s = self.calls, self.total, self.self_time
        g = self.counters
        per = 1.0 / rounds
        steps = g["simulation.steps"]
        gram_calls = sum(c[f"gramians.{fn}"] for fn in GRAMIAN_FUNCTIONS.values())
        values = {
            "kronecker.ms_abscissa.calls": c["kronecker.ms_abscissa"] * per,
            "kronecker.ms_abscissa.s": t["kronecker.ms_abscissa"] * per,
            "kronecker.operator_bytes": g["kronecker.operator_bytes"] * per,
            "system.stability_report.calls": c["system.stability_report"] * per,
            "system.stability_report.s": t["system.stability_report"] * per,
            "matrix_equations.lyapunov.calls":
                c["matrix_equations.solve_generalized_lyapunov"] * per,
            "matrix_equations.lyapunov.s":
                t["matrix_equations.solve_generalized_lyapunov"] * per,
            "matrix_equations.lyapunov.kronecker_direct.calls":
                g["lyapunov.kronecker_direct"] * per,
            "matrix_equations.lyapunov.fixed_point.calls": g["lyapunov.fixed_point"] * per,
            "matrix_equations.riccati.calls": c["matrix_equations.solve_type2_riccati"] * per,
            "matrix_equations.riccati.s": t["matrix_equations.solve_type2_riccati"] * per,
            "matrix_equations.riccati.iterations": g["riccati.iterations"] * per,
            "matrix_equations.riccati.delta_halvings": g["riccati.delta_halvings"] * per,
            "matrix_equations.riccati.equality_wins": g["riccati.equality_wins"] * per,
            "matrix_equations.riccati.trace_P":
                math.exp(sum(self.trace_P_logs) / len(self.trace_P_logs))
                if self.trace_P_logs else 0.0,
            "matrix_equations.peak_alloc_mb": peaks["matrix_equations"],
            "gramians.p2.calls_per_system":
                c["gramians.stochastic_type2_P2"] * per / len(self.gramian_systems)
                if gram_calls else 0.0,
            "simulation.simulate.calls": c["simulation.simulate"] * per,
            "simulation.simulate.s": t["simulation.simulate"] * per,
            "simulation.simulate.steps": steps * per,
            "simulation.simulate.us_per_step":
                1e6 * t["simulation.simulate"] / steps if steps else 0.0,
            "simulation.simulate.repeat_share":
                g["simulation.repeats"] / c["simulation.simulate"]
                if c["simulation.simulate"] else 0.0,
            "simulation.peak_alloc_mb": peaks["simulation"],
            "verification.campaign.self_s":
                s["verification.benchmark_campaign"] * per,
            "cli.campaign.self_s": (t["cli._cmd_campaign"]
                                    - t["verification.benchmark_campaign"]) * per,
            "trace.spans": len(self.spans) * per,
            "trace.overhead_s": (len(self.spans) * self.span_cost() + self.hook_s) * per,
        }
        for short, fn in GRAMIAN_FUNCTIONS.items():
            values[f"gramians.{short}.calls"] = c[f"gramians.{fn}"] * per
            values[f"gramians.{short}.s"] = t[f"gramians.{fn}"] * per
        for fn in ("square_root_balance", "truncate"):
            values[f"balancing.{fn}.calls"] = c[f"balancing.{fn}"] * per
            values[f"balancing.{fn}.s"] = t[f"balancing.{fn}"] * per
        for check in VERIFICATION_CHECKS:
            values[f"verification.{check}.calls"] = c[f"verification.{check}"] * per
            values[f"verification.{check}.self_s"] = s[f"verification.{check}"] * per
        values.update(extra)
        return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                for name, unit in per_layer_names()}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


# -- work counted at a boundary, after the span has closed --------------------

def _post_reach_operator(tracer, args, kwargs, result):
    n = np.shape(args[0] if args else kwargs["M"])[0]
    tracer.counters["kronecker.operator_bytes"] += 8.0 * n ** 4


def _post_lyapunov(tracer, args, kwargs, result):
    tracer.counters[f"lyapunov.{result[1].method}"] += 1


def _post_riccati(tracer, args, kwargs, result):
    X, diag, delta_used = result
    prob = args[0] if args else kwargs["prob"]
    g = tracer.counters
    g["riccati.iterations"] += diag.iterations
    g["riccati.delta_halvings"] += round(math.log2(float(prob.delta) / delta_used))
    g["riccati.equality_wins"] += diag.method == "newton"
    tracer.trace_P_logs.append(math.log(float(np.trace(np.linalg.inv(X)))))


def _post_simulate(tracer, args, kwargs, result):
    sys, x0, u, T = args[:4]
    h = args[4] if len(args) > 4 else kwargs.get("h")
    tracer.counters["simulation.steps"] += result.grid.size - 1
    key = (system_key(sys), _digest(x0), control_key(u), repr(T), repr(h))
    if key in tracer.simulated:
        tracer.counters["simulation.repeats"] += 1
    tracer.simulated.add(key)


def _post_gramians(tracer, args, kwargs, result):
    tracer.gramian_systems.add(system_key(args[0] if args else kwargs["sys"]))


_POST = {
    "kronecker.reach_operator": _post_reach_operator,
    "matrix_equations.solve_generalized_lyapunov": _post_lyapunov,
    "matrix_equations.solve_type2_riccati": _post_riccati,
    "simulation.simulate": _post_simulate,
}
_POST.update({f"gramians.{fn}": _post_gramians for fn in GRAMIAN_FUNCTIONS.values()})
