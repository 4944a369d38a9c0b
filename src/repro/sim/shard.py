"""Cluster-sharded fleet execution with epoch-barrier merges.

The per-event engine (``run_scenario_benchmark``) is capped at the event
kernel's own event rate. This module trades its record-for-record
determinism contract for bulk throughput: it
executes a fleet scenario as a *bulk-synchronous* computation whose only
determinism contract is with **itself** — a fixed ``(scenario, seed)``
produces byte-identical results for **every** shard count (``jobs=1``
vs ``jobs=N`` is a committed CI assert), because every random draw is
keyed to the entity that consumes it, never to scheduling order.

Execution model (one *epoch* = one scrape interval):

* The **parent** owns the control plane — the real, unmodified
  :class:`~repro.core.controller.L3Controller` reading the real
  :class:`~repro.telemetry.query.PromMetricsSource` over a real
  :class:`~repro.telemetry.timeseries.TimeSeriesStore` — plus the
  open-loop arrival schedule and the weighted backend picks. Weights
  activate ``propagation_delay_s`` after each reconcile, forming a
  piecewise-constant *weight window* table; since reconciles happen
  only at epoch barriers and the propagation delay is shorter than an
  epoch, every window covering an epoch is known before its arrivals
  are picked (one vectorized ``searchsorted`` through the cumulative
  weights per window).
* **Workers** own whole clusters (cluster ``i`` of the sorted list goes
  to shard ``i % jobs``). Per epoch a worker receives each owned
  cluster's picked arrivals and computes them to completion in one
  vectorized pass: WAN out-leg draws from the cluster's private stream,
  round-robin replica assignment in backend-arrival order, log-normal
  service draws against the profile series evaluated at the backend
  arrival time, an exact c-server FIFO recurrence per replica (a heap
  of free-at times that persists across epochs), then the WAN back-leg
  with drift evaluated at completion time. Request outcomes return to
  the parent at the barrier together with a telemetry snapshot cut at
  the barrier time (completions with ``end <= T`` folded into
  cumulative counters and histogram buckets; later completions stay
  pending), which the parent appends to the store exactly as the
  scraper would — so the controller sees the same metric shapes, names
  and cadence as in the event-driven engines.

Modeling deltas vs. the event kernel (deliberate, documented, and
identical for all shard counts): WAN jitter normals come from
``standard_normal`` rather than the Kinderman–Monahan rejection loop;
the service time is drawn at the backend's *arrival* time rather than
at execution start; and FIFO admission is resolved in epoch batches, so
a late-arriving request of epoch ``k`` can occupy a server slot ahead
of an earlier-arriving request of epoch ``k+1``. None of these depend
on shard count — the epoch structure, the per-entity streams, and the
per-cluster batch contents are all functions of ``(scenario, seed)``
alone.

Scope: the shard engine runs the paper's controller algorithms
(``"l3"``, ``"l3-peak"``) on topology-carrying fleet scenarios, without
retries, deadlines, ejection, faults or tracing — anything else raises
:class:`~repro.errors.ConfigError` up front rather than silently
diverging.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import random
from dataclasses import replace
from heapq import heapreplace

from repro.core.config import L3Config
from repro.core.controller import L3Controller
from repro.errors import ConfigError
from repro.mesh.cluster import backend_name
from repro.mesh.network import LOCAL_LINK, WanLink
from repro.mesh.request import RequestRecord
from repro.sim.rng import Z_P99
from repro.sim.vectorpath import require_numpy
from repro.telemetry import names as metric_names
from repro.telemetry.histogram import DEFAULT_BUCKET_BOUNDS_S
from repro.telemetry.query import PromMetricsSource
from repro.telemetry.timeseries import TimeSeriesStore

#: Algorithms the shard engine can run (controller + TrafficSplit pairs
#: whose controllers are transport-agnostic).
SHARD_ALGORITHMS = ("l3", "l3-peak")

# The client proxy's forwarding overhead (ClientProxy default).
_FORWARD_OVERHEAD_S = 0.0002

_ARRIVALS = ("uniform", "poisson")


def _stream_seed_words(seed: int, name: str) -> list[int]:
    """Four 32-bit key words for an entity's private RandomState.

    blake2b keeps the derivation independent of PYTHONHASHSEED and of
    process boundaries — the same ``(seed, name)`` yields the same
    stream in the parent, in a forked worker, and in a spawned one.
    """
    digest = hashlib.blake2b(
        f"{seed}/{name}".encode("utf-8"), digest_size=16).digest()
    return [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]


def _stream_state(seed: int, name: str, np):
    return np.random.RandomState(
        np.asarray(_stream_seed_words(seed, name), dtype=np.uint32))


def _series_at(series, times, np, knots=None):
    """Vectorized ``PiecewiseSeries.value_at`` over an array of times.

    ``np.interp`` handles the interior and the edge clamps; a periodic
    series additionally wraps across the seam with the same formula as
    the scalar ``_wrap_interpolate``. ``knots`` is an optional
    pre-converted ``(times, values)`` array pair (hot callers evaluate
    the same series every epoch).
    """
    if series._constant:
        return np.full(times.shape, series._values[0])
    period = series.period_s
    t = times if period is None else times % period
    if knots is None:
        out = np.interp(t, series._times, series._values)
    else:
        out = np.interp(t, knots[0], knots[1])
    if period is not None:
        t_first, t_last = series._times[0], series._times[-1]
        v_first, v_last = series._values[0], series._values[-1]
        outside = (t <= t_first) | (t >= t_last)
        if outside.any():
            gap = (period - t_last) + t_first
            if gap <= 0:
                out = np.where(outside, v_first, out)
            else:
                offset = np.where(t >= t_last, t - t_last,
                                  (period - t_last) + t)
                wrapped = v_last + (v_first - v_last) * offset / gap
                out = np.where(outside, wrapped, out)
    return out


def _wan_delay(link: WanLink, z, spike_u, times, np):
    """Vectorized one-way WAN delays for requests crossing at ``times``.

    Same distribution family as ``WanLink.delay`` (log-normal around a
    drifting median, plus rare spikes); ``z``/``spike_u`` are the
    pre-drawn per-request normals and spike uniforms.
    """
    n = times.shape[0]
    base = link.base_delay_s
    if base == 0.0:
        return np.zeros(n)
    if link.drift_amplitude > 0.0:
        drift = 1.0 + link.drift_amplitude * np.sin(
            2.0 * np.pi * times / link.drift_period_s)
        median = base * drift
    else:
        median = np.full(n, base)
    if link.jitter_p99_ratio > 1.0:
        mu = np.log(median)
        sigma = (np.log(median * link.jitter_p99_ratio) - mu) / Z_P99
        delay = np.exp(mu + z * sigma)
    else:
        delay = median
    if link.spike_prob > 0.0:
        delay = np.where(spike_u < link.spike_prob,
                         delay * link.spike_multiplier, delay)
    return delay


class _ClusterState:
    """One cluster's backend: streams, FIFO replicas, telemetry."""

    __slots__ = ("cluster", "profile", "out_link", "back_link", "heaps",
                 "wan_state", "svc_state", "rr", "has_failures",
                 "dispatched", "completed", "failures", "succ_buckets",
                 "fail_buckets", "succ_sum", "succ_count", "_pend_end",
                 "_pend_lat", "_pend_succ", "bounds", "np",
                 "_median_knots", "_p99_knots")

    def __init__(self, cluster: str, profile, out_link: WanLink,
                 back_link: WanLink, replicas: int, capacity: int,
                 seed: int, bounds, np):
        self.cluster = cluster
        self.profile = profile
        self.out_link = out_link
        self.back_link = back_link
        # Exact c-server FIFO state: per replica, a heap of the times
        # its ``capacity`` slots become free. All-zero lists are valid
        # heaps already.
        self.heaps = [[0.0] * capacity for _ in range(replicas)]
        self.wan_state = _stream_state(seed, f"wan/{cluster}", np)
        self.svc_state = _stream_state(seed, f"svc/{cluster}", np)
        self.rr = 0
        series = profile.failure_prob
        self.has_failures = not (series._constant
                                 and series._values[0] <= 0.0)
        self.dispatched = 0
        self.completed = 0
        self.failures = 0
        self.succ_buckets = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.fail_buckets = np.zeros(len(bounds) + 1, dtype=np.int64)
        self.succ_sum = 0.0
        self.succ_count = 0
        self._pend_end: list = []
        self._pend_lat: list = []
        self._pend_succ: list = []
        self.bounds = np.asarray(bounds)
        self.np = np

        def knots(series):
            if series._constant:
                return None
            return (np.asarray(series._times), np.asarray(series._values))

        self._median_knots = knots(profile.median_latency_s)
        self._p99_knots = knots(profile.p99_latency_s)

    def run_epoch(self, idx, t):
        """Compute one epoch's arrivals for this cluster to completion.

        Args:
            idx: global request indices, in arrival order.
            t: client send times (== intended starts), same order.

        Returns:
            ``(idx, end, success)`` arrays in backend-arrival order.
        """
        np = self.np
        n = t.shape[0]
        self.dispatched += n
        # One RNG call per kind per epoch: the out-leg normals/uniforms
        # occupy the first half of each block (arrival order), the
        # back-leg the second half (backend-arrival order).
        wan_z = self.wan_state.standard_normal(2 * n)
        wan_u = self.wan_state.random_sample(2 * n)
        wan_out = _wan_delay(self.out_link, wan_z[:n], wan_u[:n], t, np)
        arrival = t + _FORWARD_OVERHEAD_S + wan_out
        order = np.argsort(arrival, kind="stable")
        arrival = arrival[order]
        idx = idx[order]
        t = t[order]

        # Round-robin replica assignment in backend-arrival order; the
        # cursor persists across epochs.
        replicas = len(self.heaps)
        r_idx = (self.rr + np.arange(n)) % replicas
        self.rr = (self.rr + n) % replicas

        profile = self.profile
        median = _series_at(profile.median_latency_s, arrival, np,
                            self._median_knots)
        median = np.maximum(median, 1e-6)
        p99 = _series_at(profile.p99_latency_s, arrival, np,
                         self._p99_knots)
        z = self.svc_state.standard_normal(n)
        mu = np.log(median)
        with np.errstate(invalid="ignore", divide="ignore"):
            sigma = (np.log(np.maximum(p99, 1e-300)) - mu) / Z_P99
            service = np.where(p99 <= median, median,
                               np.exp(mu + z * sigma))
        if self.has_failures:
            fail_u = self.svc_state.random_sample(n)
            prob = _series_at(profile.failure_prob, arrival, np)
            failed = fail_u < prob
            # A failing request occupies its slot for the (fast) error
            # latency, as on the per-event replica leg.
            service = np.where(failed, profile.failure_latency_s, service)
            success = ~failed
        else:
            success = np.ones(n, dtype=bool)

        # The FIFO recurrence is the one per-request scalar loop left:
        # free = heap[0]; start = max(arrival, free); heapreplace.
        heaps = self.heaps
        arr_list = arrival.tolist()
        svc_list = service.tolist()
        ridx_list = r_idx.tolist()
        comp_list = [0.0] * n
        for i in range(n):
            heap = heaps[ridx_list[i]]
            free = heap[0]
            a = arr_list[i]
            start = a if a >= free else free
            c = start + svc_list[i]
            heapreplace(heap, c)
            comp_list[i] = c
        comp = np.asarray(comp_list)

        wan_back = _wan_delay(self.back_link, wan_z[n:], wan_u[n:],
                              comp, np)
        end = comp + wan_back
        # Client-perceived latency, as the proxy's telemetry records it.
        self._pend_end.append(end)
        self._pend_lat.append(end - t)
        self._pend_succ.append(success)
        return idx, end, success

    def snapshot(self, barrier: float):
        """Fold completions up to ``barrier`` and cut a scrape sample."""
        np = self.np
        if self._pend_end:
            end = np.concatenate(self._pend_end)
            lat = np.concatenate(self._pend_lat)
            succ = np.concatenate(self._pend_succ)
            done = end <= barrier
            if done.any():
                keep = ~done
                self._pend_end = [end[keep]]
                self._pend_lat = [lat[keep]]
                self._pend_succ = [succ[keep]]
                lat_done = lat[done]
                succ_done = succ[done]
                n_done = int(done.sum())
                n_fail = n_done - int(succ_done.sum())
                self.completed += n_done
                self.failures += n_fail
                ok = lat_done[succ_done]
                if ok.shape[0]:
                    idx = np.searchsorted(self.bounds, ok, side="left")
                    self.succ_buckets += np.bincount(
                        idx, minlength=self.succ_buckets.shape[0])
                    self.succ_sum += float(ok.sum())
                    self.succ_count += ok.shape[0]
                if n_fail:
                    bad = lat_done[~succ_done]
                    idx = np.searchsorted(self.bounds, bad, side="left")
                    self.fail_buckets += np.bincount(
                        idx, minlength=self.fail_buckets.shape[0])
        return metric_names.ProxySample(
            float(self.completed),
            float(self.failures),
            tuple(np.cumsum(self.succ_buckets).tolist()),
            self.succ_sum,
            float(self.succ_count),
            tuple(np.cumsum(self.fail_buckets).tolist()),
            float(self.dispatched - self.completed),
        )


class _ShardWorker:
    """All clusters owned by one shard; runs inline or in a subprocess."""

    def __init__(self, payload: dict):
        np = require_numpy()
        seed = payload["seed"]
        bounds = payload["bounds"]
        self.clusters = {
            cluster: _ClusterState(
                cluster, spec["profile"], spec["out_link"],
                spec["back_link"], spec["replicas"], spec["capacity"],
                seed, bounds, np)
            for cluster, spec in payload["clusters"].items()
        }
        self._order = sorted(self.clusters)

    def run_epoch(self, batches: dict, barrier: float):
        """One epoch: compute batches, fold to the barrier, snapshot.

        Returns ``(results, telemetry)``: request outcome arrays per
        cluster with a non-empty batch, and one scrape snapshot per
        owned cluster (the scraper samples idle backends too).
        """
        results = {}
        telemetry = {}
        for cluster in self._order:
            state = self.clusters[cluster]
            batch = batches.get(cluster)
            if batch is not None:
                results[cluster] = state.run_epoch(*batch)
            telemetry[cluster] = state.snapshot(barrier)
        return results, telemetry


def _worker_main(conn, payload: dict) -> None:
    """Subprocess loop: one epoch per message, ``None`` to stop."""
    worker = _ShardWorker(payload)
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            batches, barrier = message
            conn.send(worker.run_epoch(batches, barrier))
    finally:
        conn.close()


class _WeightWindows:
    """Piecewise-constant active weights; the controller's WeightSink.

    Each ``set_weights`` at reconcile time ``T`` opens a window at
    ``T + propagation_delay_s`` (TrafficSplit's control-plane push
    latency). Windows are cumulative-weight tables in backend order, so
    one ``searchsorted`` resolves a whole epoch of picks.
    """

    def __init__(self, names: list[str], propagation_delay_s: float, np):
        self.names = list(names)
        self.propagation_delay_s = propagation_delay_s
        self.np = np
        self._active = {name: 1 for name in self.names}
        self.times = [0.0]
        self.cums = [np.cumsum(
            np.asarray([1.0] * len(self.names)))]
        self.update_count = 0

    def set_weights(self, weights: dict[str, int], now: float) -> None:
        for name in weights:
            if name not in self._active:
                raise ConfigError(f"unknown backend in weights: {name!r}")
        self._active.update(weights)
        cum = self.np.cumsum(self.np.asarray(
            [float(self._active[name]) for name in self.names]))
        self.times.append(now + self.propagation_delay_s)
        self.cums.append(cum)
        self.update_count += 1

    def pick(self, times, uniforms):
        """Backend index per request (vectorized weighted pick)."""
        np = self.np
        window = np.searchsorted(
            np.asarray(self.times), times, side="right") - 1
        out = np.empty(times.shape[0], dtype=np.int64)
        last = len(self.names) - 1
        for w in np.unique(window).tolist():
            sel = window == w
            cum = self.cums[w]
            total = cum[-1]
            # bisect_right semantics with the same end clamp as
            # TrafficSplit.pick.
            pos = np.searchsorted(cum, uniforms[sel] * total,
                                  side="right")
            out[sel] = np.minimum(pos, last)
        return out


class _ArrivalSchedule:
    """The open-loop arrival trajectory, pulled one epoch at a time.

    Mirrors ``OpenLoopLoadGenerator``: each gap is evaluated at the
    previous arrival's time; the terminal gap crossing the deadline is
    discarded. Poisson gaps draw from a dedicated scalar stream (parent
    side, so shard-count invariant by construction).
    """

    def __init__(self, rps, total_s: float, arrival: str, seed: int):
        self.rps = rps
        self.total_s = total_s
        self.poisson = arrival == "poisson"
        self._rng = random.Random(
            int.from_bytes(hashlib.blake2b(
                f"{seed}/shard-arrivals".encode("utf-8"),
                digest_size=8).digest(), "big"))
        self._next = self._advance(0.0)

    def _advance(self, t: float):
        series = self.rps
        rate = series._values[0] if series._constant else series.value_at(t)
        if rate < 1e-9:
            rate = 1e-9
        gap = self._rng.expovariate(rate) if self.poisson else 1.0 / rate
        nxt = t + gap
        return nxt if nxt < self.total_s else None

    def pull(self, limit: float) -> list[float]:
        """All arrivals strictly before ``limit``, in time order."""
        out: list[float] = []
        nxt = self._next
        if nxt is None or nxt >= limit:
            return out
        # This loop runs once per request; locals shave ~40% off it.
        append = out.append
        value_at = self.rps.value_at
        total = self.total_s
        if self.poisson:
            expovariate = self._rng.expovariate
            while nxt is not None and nxt < limit:
                append(nxt)
                rate = value_at(nxt)
                candidate = nxt + expovariate(
                    rate if rate >= 1e-9 else 1e-9)
                nxt = candidate if candidate < total else None
        else:
            while nxt < limit:
                append(nxt)
                rate = value_at(nxt)
                candidate = nxt + 1.0 / (rate if rate >= 1e-9 else 1e-9)
                if candidate >= total:
                    nxt = None
                    break
                nxt = candidate
        self._next = nxt
        return out


def run_sharded_benchmark(scenario, algorithm: str = "l3",
                          duration_s: float = 600.0, seed: int = 1,
                          l3_config: L3Config | None = None,
                          env=None, jobs: int = 1):
    """Run one fleet scenario through the sharded bulk engine.

    Args:
        scenario: a topology-carrying :class:`Scenario` (from
            :func:`repro.workloads.fleet.build_fleet_scenario`).
        algorithm: one of :data:`SHARD_ALGORITHMS`.
        duration_s: measured duration (warm-up prepended from ``env``).
        seed: master seed; with the scenario it fully determines the
            run, for every ``jobs`` value.
        l3_config: controller tunables.
        env: :class:`~repro.bench.coordinator.ScenarioBenchConfig`;
            resilience knobs must be off (the engine's scope).
        jobs: worker process count; ``1`` runs the shard inline.

    Returns:
        A :class:`~repro.bench.coordinator.BenchmarkResult` whose
        records are sorted by ``(end_s, request_id)`` (completion
        order). ``events_processed`` is 0 — there is no event kernel;
        ``bench_fleet.py`` reports equivalent events/sec instead.
    """
    np = require_numpy()
    from repro.bench.coordinator import (
        SCENARIO_SERVICE,
        BenchmarkResult,
        ScenarioBenchConfig,
    )

    env = env or ScenarioBenchConfig()
    if algorithm not in SHARD_ALGORITHMS:
        raise ConfigError(
            f"the shard engine runs {SHARD_ALGORITHMS}; {algorithm!r} "
            "needs a per-event engine (engine=\"fast\")")
    topology = getattr(scenario, "topology", None)
    if topology is None:
        raise ConfigError(
            f"scenario {scenario.name!r} carries no FleetTopology; the "
            "shard engine partitions clusters along one (see "
            "repro.workloads.fleet.build_fleet_scenario)")
    if scenario.faults:
        raise ConfigError(
            "the shard engine does not run fault schedules; use the "
            "per-event engines")
    if getattr(scenario, "autoscale", None) is not None:
        raise ConfigError(
            "the shard engine runs fixed replica sets; autoscaling "
            "scenarios need the per-event engines")
    if env.max_retries or env.request_timeout_s is not None \
            or env.outlier_ejection is not None:
        raise ConfigError(
            "the shard engine supports no retries, deadlines or "
            "ejection; disable them or use the per-event engines")
    if env.arrival not in _ARRIVALS:
        raise ConfigError(
            f"arrival must be one of {_ARRIVALS}: {env.arrival!r}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1: {jobs}")
    if duration_s <= 0:
        raise ConfigError(f"duration must be positive: {duration_s}")
    epoch_s = env.scrape_interval_s
    if epoch_s <= 0:
        raise ConfigError(
            f"scrape interval must be positive: {epoch_s}")
    if not 0.0 <= env.propagation_delay_s < epoch_s:
        raise ConfigError(
            "the shard engine needs 0 <= propagation delay < the scrape "
            f"interval: {env.propagation_delay_s} vs {epoch_s}")

    config = l3_config or L3Config()
    config = replace(config, use_peak_ewma=(algorithm == "l3-peak"))
    ticks_per_reconcile = round(config.reconcile_interval_s / epoch_s)
    if ticks_per_reconcile < 1 or abs(
            ticks_per_reconcile * epoch_s
            - config.reconcile_interval_s) > 1e-9:
        raise ConfigError(
            "the shard engine reconciles at epoch barriers: "
            "reconcile_interval_s must be a positive multiple of the "
            f"scrape interval ({config.reconcile_interval_s} vs {epoch_s})")

    clusters = sorted(scenario.cluster_profiles)
    client = topology.client_cluster
    names = [backend_name(SCENARIO_SERVICE, c) for c in clusters]
    bounds = DEFAULT_BUCKET_BOUNDS_S

    # --- control plane (parent) ---------------------------------------- #
    store = TimeSeriesStore()
    proxy_series = [store.series(metric_names.scoped_series_name(client, n),
                                 metric_names.PROXY_SAMPLE) for n in names]
    source = PromMetricsSource(store, scope=client)
    sink = _WeightWindows(names, env.propagation_delay_s, np)
    controller = L3Controller(names, source, sink, config=config,
                              start_time=0.0)

    total = env.warmup_s + duration_s
    schedule = _ArrivalSchedule(scenario.rps, total, env.arrival, seed)
    pick_state = _stream_state(seed, "shard-picks", np)

    # --- shard the clusters -------------------------------------------- #
    def cluster_payload(cluster: str) -> dict:
        if cluster == client:
            out_link = back_link = LOCAL_LINK
        else:
            out_link = topology.links[(client, cluster)]
            back_link = topology.links[(cluster, client)]
        return {
            "profile": scenario.cluster_profiles[cluster],
            "out_link": out_link,
            "back_link": back_link,
            "replicas": topology.replicas[cluster],
            "capacity": topology.capacities[cluster],
        }

    jobs = min(jobs, len(clusters))
    shard_of = {c: i % jobs for i, c in enumerate(clusters)}
    payloads = [
        {"seed": seed, "bounds": bounds,
         "clusters": {c: cluster_payload(c)
                      for c in clusters if shard_of[c] == s}}
        for s in range(jobs)
    ]

    workers: list = []
    pipes: list = []
    procs: list = []
    if jobs == 1:
        workers = [_ShardWorker(payloads[0])]
    else:
        ctx = multiprocessing.get_context()
        for s in range(jobs):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(child_conn, payloads[s]),
                name=f"shard-{s}", daemon=True)
            proc.start()
            child_conn.close()
            pipes.append(parent_conn)
            procs.append(proc)

    n_epochs = max(1, math.ceil(total / epoch_s - 1e-9))
    generated = 0
    t_chunks: list = []
    pick_chunks: list = []
    idx_chunks: list = []
    end_chunks: list = []
    succ_chunks: list = []

    try:
        for k in range(n_epochs):
            barrier = (k + 1) * epoch_s
            arrivals = schedule.pull(min(barrier, total))
            batches: list[dict] = [{} for _ in range(jobs)]
            if arrivals:
                t_arr = np.asarray(arrivals)
                u_arr = pick_state.random_sample(t_arr.shape[0])
                picks = sink.pick(t_arr, u_arr)
                idx_arr = np.arange(
                    generated, generated + t_arr.shape[0], dtype=np.int64)
                generated += t_arr.shape[0]
                t_chunks.append(t_arr)
                pick_chunks.append(picks)
                for b in np.unique(picks).tolist():
                    sel = picks == b
                    cluster = clusters[b]
                    batches[shard_of[cluster]][cluster] = (
                        idx_arr[sel], t_arr[sel])
            if jobs == 1:
                replies = [workers[0].run_epoch(batches[0], barrier)]
            else:
                for s in range(jobs):
                    pipes[s].send((batches[s], barrier))
                replies = [pipes[s].recv() for s in range(jobs)]

            # Merge: outcomes keyed by global request index, telemetry
            # appended in fixed backend order — both independent of how
            # clusters were sharded.
            telemetry: dict = {}
            for results, telem in replies:
                for r_idx, r_end, r_succ in results.values():
                    idx_chunks.append(r_idx)
                    end_chunks.append(r_end)
                    succ_chunks.append(r_succ)
                telemetry.update(telem)
            if barrier <= total + 1e-9:
                for cluster, series in zip(clusters, proxy_series):
                    series.append(barrier, telemetry[cluster])
                if (k + 1) % ticks_per_reconcile == 0:
                    controller.reconcile(barrier)
    finally:
        if jobs > 1:
            for pipe in pipes:
                try:
                    pipe.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for proc in procs:
                proc.join(timeout=30.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
            for pipe in pipes:
                pipe.close()

    # --- assemble the result ------------------------------------------- #
    records = []
    if generated:
        t_all = np.concatenate(t_chunks)
        picks_all = np.concatenate(pick_chunks)
        end_all = np.empty(generated)
        succ_all = np.zeros(generated, dtype=bool)
        scatter = np.concatenate(idx_chunks)
        end_all[scatter] = np.concatenate(end_chunks)
        succ_all[scatter] = np.concatenate(succ_chunks)
        # All arrivals are < total by construction; the measured window
        # only trims the warm-up, and records come out in completion
        # order (end, then request id) as the event engines report them.
        measured = np.nonzero(t_all >= env.warmup_s)[0]
        order = measured[np.lexsort(
            (measured, end_all[measured]))]
        records = [
            RequestRecord(i, SCENARIO_SERVICE, client, names[b],
                          t, t, e, ok)
            for i, b, t, e, ok in zip(
                order.tolist(), picks_all[order].tolist(),
                t_all[order].tolist(), end_all[order].tolist(),
                succ_all[order].tolist())
        ]
    return BenchmarkResult(
        scenario=scenario.name, algorithm=algorithm, seed=seed,
        duration_s=duration_s, records=records,
        controller_weights=dict(controller.last_weights),
        events_processed=0)
