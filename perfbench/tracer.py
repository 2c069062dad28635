"""Per-layer tracing for the benchmark, installed from outside the program.

Every public function of every ``sidonbasis`` module (except ``cli``) is
wrapped, on every module attribute that binds it, because the modules
import names directly (``builder.dlog``, ``cli.verify_sidon``, ...). Each
module is one layer. Calls into ``ffpoly`` and ``gbase`` are leaves: they
are counted and their time summed, but not kept as one span each. Calls
into every other layer are kept as spans (id, name, start, end, parent).
A benchmark stage is a span of the ``cli`` layer, so ``cli.self_s`` is
the stage time outside any library call.

A layer's self time is the time inside its calls minus the time of the
traced calls they make, so the self times of all layers add up to the
traced stage time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "sidonbasis"
LEAF_LAYERS = frozenset({"ffpoly", "gbase"})

# The order of the layer table: per-module self times print in this order.
LAYERS = (
    "unitgroup",
    "ffpoly",
    "builder",
    "analyzer",
    "gbase",
    "auxset",
    "equidist",
    "primes",
    "cli",
)

# Functions whose every call duration is kept, for percentiles.
SAMPLED = frozenset({"builder.decode_entry"})


def _percentile(sorted_vals: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


class Tracer:
    """Wraps the package's public functions and accumulates spans,
    call counts, inclusive times and per-layer self times."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.next_id = 0
        # Frames: [name, time covered by traced children, span id in scope].
        self.stack: list[list] = [["<root>", 0.0, None]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.time_s: dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._tables_seen: set = set()
        self._unitgroup = None

    # -- installation ------------------------------------------------

    def install(self) -> None:
        """Wrap every public library function on every package module
        attribute bound to it."""
        wrappers: dict = {}
        targets = []
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith(PACKAGE + ".") or mod is None:
                continue
            for attr, val in vars(mod).items():
                if self._traceable(val):
                    targets.append((mod, attr, val))
        for mod, attr, fn in targets:
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            setattr(mod, attr, wrappers[fn])
        self._unitgroup = sys.modules.get(PACKAGE + ".unitgroup")

    @staticmethod
    def _traceable(val) -> bool:
        if not inspect.isfunction(val) or getattr(val, "__traced__", False):
            return False
        home = val.__module__ or ""
        return (
            home.startswith(PACKAGE + ".")
            and home != PACKAGE + ".cli"
            and not val.__name__.startswith("_")
        )

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[1]
        name = f"{layer}.{fn.__name__}"
        leaf = layer in LEAF_LAYERS
        sampled = name in SAMPLED
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        stack = self.stack
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        time_s = self.time_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if leaf:
                sid = parent[2]
            else:
                sid = self.next_id
                self.next_id += 1
            frame = [name, 0.0, sid]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                parent[1] += d
                self_s[layer] += d - frame[1]
                calls[name] += 1
                time_s[name] += d
                if not leaf:
                    spans.append((sid, name, t0, t1, parent[2]))
                if sampled:
                    self.samples[name].append(d)
            if hook is not None:
                hook(args, kwargs, result, d, parent)
            return result

        wrapper.__traced__ = True
        return wrapper

    @contextlib.contextmanager
    def stage(self, label: str):
        """A benchmark stage: one span of the cli layer."""
        parent = self.stack[-1]
        sid = self.next_id
        self.next_id += 1
        frame = [f"cli.{label}", 0.0, sid]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            parent[1] += t1 - t0
            self.self_s["cli"] += t1 - t0 - frame[1]
            self.spans.append((sid, frame[0], t0, t1, parent[2]))

    # -- hooks: counts that need a call's arguments or result ---------

    def _hook_unitgroup_dlog(self, args, kwargs, result, d, parent):
        gen = args[0] if args else kwargs["gen"]
        path = "ph" if gen.order > self._unitgroup.DLOG_SCAN_LIMIT else "table"
        self.counters[f"unitgroup.dlog.{path}_calls"] += 1
        self.counters[f"unitgroup.dlog.{path}_s"] += d

    def _hook_unitgroup_dlog_table(self, args, kwargs, result, d, parent):
        gen = args[0] if args else kwargs["gen"]
        key = (gen.g.q.q, gen.g.coeffs, gen.omega.coeffs)
        if key not in self._tables_seen:
            self._tables_seen.add(key)
            self.counters["unitgroup.dlog_table.builds"] += 1
            self.counters["unitgroup.dlog_table.build_s"] += d

    def _hook_ffpoly_poly_divmod(self, args, kwargs, result, d, parent):
        # A divmod made by poly_mod is the same reduction; count it once.
        if parent[0] != "ffpoly.poly_mod":
            self.counters["ffpoly.reductions"] += 1

    def _hook_ffpoly_poly_mod(self, args, kwargs, result, d, parent):
        self.counters["ffpoly.reductions"] += 1

    def _hook_analyzer_verify_sidon(self, args, kwargs, result, d, parent):
        n = len(args[0] if args else kwargs["values"])
        self.counters["analyzer.verify_sidon.pair_sums"] += n * (n + 1) // 2

    def _hook_analyzer_monte_carlo_coverage(self, args, kwargs, result, d, parent):
        self.counters["analyzer.coverage.trials"] += result.trials

    def _hook_equidist_triple_histogram(self, args, kwargs, result, d, parent):
        self.counters["equidist.triples"] += math.comb(result.pool_size, 3)
        self.counters["equidist.residue_classes"] += result.q.q ** result.g.degree

    # -- results -----------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, in the order of the layer table.
        A function that never ran reads 0."""
        c, t, k = self.calls, self.time_s, self.counters
        decode = sorted(self.samples["builder.decode_entry"])
        n_compute = c["builder.compute_entry"]
        sidon_s = t["analyzer.verify_sidon"]
        pair_sums = k["analyzer.verify_sidon.pair_sums"]
        out = {
            "unitgroup.dlog.calls": (c["unitgroup.dlog"], "count"),
            "unitgroup.dlog.ph_calls": (k["unitgroup.dlog.ph_calls"], "count"),
            "unitgroup.dlog.table_calls": (k["unitgroup.dlog.table_calls"], "count"),
            "unitgroup.dlog.ph_s": (k["unitgroup.dlog.ph_s"], "s"),
            "unitgroup.dlog.table_s": (k["unitgroup.dlog.table_s"], "s"),
            "unitgroup.dlog_table.builds": (k["unitgroup.dlog_table.builds"], "count"),
            "unitgroup.dlog_table.build_s": (k["unitgroup.dlog_table.build_s"], "s"),
            "unitgroup.find_generator.s": (t["unitgroup.find_generator"], "s"),
            "unitgroup.self_s": (self.self_s["unitgroup"], "s"),
            "ffpoly.poly_mul.calls": (c["ffpoly.poly_mul"], "count"),
            "ffpoly.poly_mod.calls": (k["ffpoly.reductions"], "count"),
            "ffpoly.poly_powmod.calls": (c["ffpoly.poly_powmod"], "count"),
            "ffpoly.is_irreducible.calls": (c["ffpoly.is_irreducible"], "count"),
            "ffpoly.is_irreducible.s": (t["ffpoly.is_irreducible"], "s"),
            "ffpoly.crt.calls": (c["ffpoly.crt"], "count"),
            "ffpoly.enumerate_irreducibles.s": (t["ffpoly.enumerate_irreducibles"], "s"),
            "ffpoly.self_s": (self.self_s["ffpoly"], "s"),
            "builder.compute_entry.calls": (n_compute, "count"),
            "builder.compute_entry.mean_us": (
                1e6 * t["builder.compute_entry"] / n_compute if n_compute else 0.0,
                "us",
            ),
            "builder.decode_entry.calls": (c["builder.decode_entry"], "count"),
            "builder.decode_entry.p50_us": (1e6 * _percentile(decode, 50), "us"),
            # p99 keeps at least ten samples beyond it from 1000 decodes on;
            # every workload that decodes makes more than that.
            "builder.decode_entry.p99_us": (1e6 * _percentile(decode, 99), "us"),
            "builder.json_s": (t["builder.seq_to_json"] + t["builder.seq_from_json"], "s"),
            "builder.self_s": (self.self_s["builder"], "s"),
            "analyzer.verify_sidon.s": (sidon_s, "s"),
            "analyzer.verify_sidon.pair_sums": (pair_sums, "count"),
            "analyzer.verify_sidon.pair_sums_per_s": (
                pair_sums / sidon_s if sidon_s else 0.0,
                "1/s",
            ),
            "analyzer.monte_carlo_coverage.s": (t["analyzer.monte_carlo_coverage"], "s"),
            "analyzer.coverage.trials": (k["analyzer.coverage.trials"], "count"),
            "analyzer.decompose.calls": (c["analyzer.decompose"], "count"),
            "analyzer.decompose.s": (t["analyzer.decompose"], "s"),
            "analyzer.self_s": (self.self_s["analyzer"], "s"),
            "gbase.encode.calls": (c["gbase.encode"], "count"),
            "gbase.decode.calls": (c["gbase.decode"], "count"),
            "gbase.self_s": (self.self_s["gbase"], "s"),
            "auxset.search.s": (t["auxset.search"], "s"),
            "auxset.build_y_table.s": (t["auxset.build_y_table"], "s"),
            "auxset.self_s": (self.self_s["auxset"], "s"),
            "equidist.triple_histogram.s": (t["equidist.triple_histogram"], "s"),
            "equidist.triples": (k["equidist.triples"], "count"),
            "equidist.residue_classes": (k["equidist.residue_classes"], "count"),
            "equidist.unit_codes.s": (t["equidist.unit_codes"], "s"),
            "equidist.deviation_report.s": (t["equidist.deviation_report"], "s"),
            "equidist.self_s": (self.self_s["equidist"], "s"),
            "primes.factorize.calls": (c["primes.factorize"], "count"),
            "primes.self_s": (self.self_s["primes"], "s"),
            "cli.self_s": (self.self_s["cli"], "s"),
        }
        return out

    def layer_self_s(self) -> dict[str, float]:
        return {layer: self.self_s[layer] for layer in LAYERS}

    def write_spans(self, path) -> None:
        """All spans, one JSON object a line, written once."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "workload": self.workload,
                            "seed": self.seed,
                        }
                    )
                    + "\n"
                )
