"""Per-layer spans and counts, taken from outside the package.

install() replaces the names through which each cddmac module calls the
next (cli -> rates/region/bounds/channel, rates/region -> channel,
rates -> linalg, and numpy.linalg.eigvalsh) with wrappers that record a
span per call.  A span's self time is its duration minus the spans nested
in it; summing self times by layer splits the whole call between the
package's modules.  Spans stay in memory; per_layer() reduces them to the
benchmark's per-layer metrics.  Only the calling process is traced: work
done inside pool workers is seen as the time the caller waits for it.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

from cddmac import bounds, cli, rates, region

LAYERS = ("cli", "channel", "rates", "region", "linalg", "bounds")


class Tracer:
    def __init__(self):
        self.stack = []                   # open spans: [key, child seconds]
        self.total = defaultdict(float)   # inclusive seconds by (key, parent)
        self.self_key = defaultdict(float)
        self.self_layer = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def wrap(self, fn, layer, key, count=None):
        """fn wrapped in a span; count(counts, bound_args) runs per call."""
        sig = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments)
            parent = self.stack[-1][0] if self.stack else None
            frame = [key, 0.0]
            self.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += took
                self.total[(key, parent)] += took
                self.self_key[key] += took - frame[1]
                self.self_layer[layer] += took - frame[1]
                self.calls[key] += 1

        return traced

    def patch(self, owner, name, layer, key, count=None):
        setattr(owner, name, self.wrap(getattr(owner, name), layer, key,
                                       count))

    def inclusive(self, key, parent=...):
        """Inclusive seconds of key's spans, optionally under one parent."""
        return sum(t for (k, p), t in self.total.items()
                   if k == key and (parent is ... or p == parent))

    def per_layer(self) -> dict:
        def ratio(num, den, scale):
            return scale * num / den if den else 0.0

        trials = self.counts["trials"]
        sample = self.inclusive("channel.block")
        scalar = self.inclusive("channel.scalar")
        eig = self.inclusive("linalg.eigvalsh", "rates.sweep")
        sweep_self = self.self_key["rates.sweep"]
        direct = self.inclusive("rates.direct")
        logdet = self.inclusive("linalg.logdet")
        out = {
            "channel.trials_drawn": (trials, "count"),
            "channel.sample_s": (sample, "s"),
            "channel.sample_us_per_trial": (ratio(sample, trials, 1e6), "us"),
            "channel.scalar_calls": (self.calls["channel.scalar"], "count"),
            "channel.scalar_us_per_call":
                (ratio(scalar, self.calls["channel.scalar"], 1e6), "us"),
            "rates.sweep_self_s": (sweep_self, "s"),
            "rates.eigvalsh_s": (eig, "s"),
            "rates.sweep_ns_per_trial_point":
                (ratio(sweep_self + eig, self.counts["trial_points"], 1e9),
                 "ns"),
            "rates.chunk_temp_mb": (self.counts["chunk_temp_bytes"] / 1e6,
                                    "MB"),
            "rates.direct_calls": (self.calls["rates.direct"], "count"),
            "rates.direct_us_per_call":
                (ratio(direct, self.calls["rates.direct"], 1e6), "us"),
            "linalg.logdet_calls": (self.calls["linalg.logdet"], "count"),
            "linalg.logdet_us_per_call":
                (ratio(logdet, self.calls["linalg.logdet"], 1e6), "us"),
            "region.calls": (self.calls["region"], "count"),
            "region.self_s": (self.self_key["region"], "s"),
            "region.pools_started": (self.counts["pools"], "count"),
            "bounds.s": (self.self_layer["bounds"], "s"),
            "cli.self_s": (self.self_layer["cli"], "s"),
        }
        for name, _ in cli.CHECKS:
            out[f"cli.verify.{name}_s"] = (
                self.inclusive(f"cli.verify.{name}"), "s")
        return out


def _count_trials(counts, args):
    counts["trials"] += args["stop"] - args["start"]


def _count_sweep(counts, args):
    """Trial-points and the largest log-sum temporary, from array shapes."""
    cfg, metrics = args["cfg"], args["metrics"]
    points = np.size(cfg.snr if args["snr"] is None else args["snr"])
    counts["trial_points"] += cfg.trials * points
    batch = min(rates.CHUNK, cfg.trials)
    temp = 0
    if {"cdd", "diff"} & set(metrics):   # (S, B, n_tx, min(n_rx, users))
        temp = points * batch * cfg.n_tx * min(cfg.n_rx, cfg.users) * 8
    if {"cap", "diff"} & set(metrics):   # (S, B, min(n_rx, users * n_tx))
        temp = max(temp, points * batch
                   * min(cfg.n_rx, cfg.users * cfg.n_tx) * 8)
    counts["chunk_temp_bytes"] = max(counts["chunk_temp_bytes"], temp)


def install() -> Tracer:
    """Wrap every layer boundary of the imported package; return the tracer."""
    tracer = Tracer()
    tracer.patch(cli, "run", "cli", "cli.run")
    tracer.patch(cli, "verify", "cli", "cli.verify")
    cli.CHECKS = tuple((name, tracer.wrap(fn, "cli", f"cli.verify.{name}"))
                       for name, fn in cli.CHECKS)
    tracer.patch(cli, "monte_carlo_sweep", "rates", "rates.sweep",
                 _count_sweep)
    for name in ("rate_cdd", "rate_cdd_reduced", "sum_capacity"):
        tracer.patch(cli, name, "rates", "rates.direct")
    for name in ("region_capacity", "region_cdd"):
        tracer.patch(cli, name, "region", "region")
    for owner in (cli, rates, region):
        tracer.patch(owner, "sample_channel_block", "channel",
                     "channel.block", _count_trials)
    tracer.patch(cli, "sample_channels", "channel", "channel.scalar")
    tracer.patch(rates, "effective_channel", "channel", "channel.effective")
    tracer.patch(rates, "logdet_hermitian_psd", "linalg", "linalg.logdet")
    tracer.patch(np.linalg, "eigvalsh", "linalg", "linalg.eigvalsh")
    for name, fn in vars(bounds).items():
        if inspect.isfunction(fn) and fn.__module__ == bounds.__name__ \
                and not name.startswith("_"):
            tracer.patch(bounds, name, "bounds", "bounds")

    class CountingPool(region.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.counts["pools"] += 1
            super().__init__(*args, **kwargs)

    region.ProcessPoolExecutor = CountingPool
    return tracer
