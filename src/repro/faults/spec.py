"""Parse compact fault specifications (the CLI's ``--faults`` flag).

Grammar (whitespace around separators is ignored)::

    spec     := entry (";" entry)*
    entry    := kind "@" start ["+" duration] (":" key "=" value)*
    start    := seconds (relative to the measured period)
    duration := seconds

Examples::

    cluster-outage@60+30:cluster=cluster-2:mode=blackhole
    replica-crash@10+40:service=api:cluster=cluster-1:index=2
    link-partition@30+20:src=cluster-1:dst=cluster-2
    link-degradation@30+60:src=cluster-1:dst=cluster-3:multiplier=5
    scrape-outage@40+25:mode=stall
    controller-pause@50+15
    controller-crash@20+30:replica=0
    cluster-outage@60+30:cluster=cluster-2 ; scrape-outage@90+10

Each kind maps onto the dataclass of the same name in
:mod:`repro.faults.faults`; keys map onto its remaining fields. One spec
string drives both substrates: the simulator's
:class:`~repro.faults.base.FaultInjector` and the live testbed's
:class:`~repro.live.chaos.LiveFaultInjector` consume the same parsed
fault list.

Every structural problem raises :class:`~repro.errors.FaultSpecError`
(a :class:`~repro.errors.ConfigError`) **at parse time**: unknown kinds
or keys, missing required keys, bad numbers, negative windows — and,
via :func:`validate_fault_spec`, target names that do not exist in the
topology and overlapping windows on the same target, both of which used
to surface only minutes into a run (or not at all).
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError, FaultSpecError
from repro.faults.base import Fault
from repro.faults.faults import (
    ClusterOutage,
    ControllerCrash,
    ControllerPause,
    LinkDegradation,
    LinkPartition,
    ReplicaCrash,
    ReplicaRestart,
    ScrapeOutage,
)

# kind -> (fault class, {spec key -> constructor kwarg}, required keys)
_KINDS: dict[str, tuple[type, dict[str, str], tuple[str, ...]]] = {
    "replica-crash": (
        ReplicaCrash,
        {"service": "service", "cluster": "cluster",
         "index": "replica_index", "mode": "mode"},
        ("service", "cluster")),
    "replica-restart": (
        ReplicaRestart,
        {"service": "service", "cluster": "cluster",
         "index": "replica_index"},
        ("service", "cluster")),
    "cluster-outage": (
        ClusterOutage,
        {"cluster": "cluster", "mode": "mode", "service": "service"},
        ("cluster",)),
    "link-partition": (
        LinkPartition,
        {"src": "src", "dst": "dst", "symmetric": "symmetric"},
        ("src", "dst")),
    "link-degradation": (
        LinkDegradation,
        {"src": "src", "dst": "dst", "multiplier": "multiplier",
         "extra": "extra_delay_s", "symmetric": "symmetric"},
        ("src", "dst")),
    "scrape-outage": (ScrapeOutage, {"mode": "mode"}, ()),
    "controller-pause": (ControllerPause, {}, ()),
    "controller-crash": (ControllerCrash, {"replica": "replica_index"}, ()),
}

FAULT_KINDS = tuple(sorted(_KINDS))

_INT_KWARGS = ("replica_index",)
_FLOAT_KWARGS = ("multiplier", "extra_delay_s")
_BOOL_KWARGS = ("symmetric",)

# Constructor kwargs naming a cluster / a service, for topology checks.
_CLUSTER_KWARGS = ("cluster", "src", "dst")
_SERVICE_KWARGS = ("service",)


def _coerce(kwarg: str, value: str):
    try:
        if kwarg in _INT_KWARGS:
            return int(value)
        if kwarg in _FLOAT_KWARGS:
            return float(value)
    except ValueError:
        raise FaultSpecError(
            f"fault spec: {kwarg} needs a number, got {value!r}") from None
    if kwarg in _BOOL_KWARGS:
        lowered = value.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise FaultSpecError(
            f"fault spec: {kwarg} needs a boolean, got {value!r}")
    return value


def _parse_seconds(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FaultSpecError(
            f"fault spec: {what} needs seconds, got {text!r}") from None


def parse_fault_entry(entry: str) -> Fault:
    """Parse one ``kind@start[+duration][:key=value...]`` entry."""
    entry = entry.strip()
    if not entry:
        raise FaultSpecError("fault spec: empty entry")
    head, _, params = entry.partition(":")
    kind, at, timing = head.partition("@")
    kind = kind.strip()
    if kind not in _KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
    if not at:
        raise FaultSpecError(
            f"fault spec: {kind} needs a start time ('{kind}@SECONDS')")
    cls, key_map, required = _KINDS[kind]

    timing, plus, duration_text = timing.partition("+")
    kwargs: dict[str, typing.Any] = {
        "at_s": _parse_seconds(timing.strip(), f"{kind} start")}
    if plus:
        kwargs["duration_s"] = _parse_seconds(
            duration_text.strip(), f"{kind} duration")

    seen = set()
    if params:
        for pair in params.split(":"):
            key, eq, value = pair.partition("=")
            key = key.strip()
            if not eq or not key:
                raise FaultSpecError(
                    f"fault spec: expected key=value, got {pair.strip()!r}")
            kwarg = key_map.get(key)
            if kwarg is None:
                raise FaultSpecError(
                    f"fault spec: {kind} does not take {key!r}; "
                    f"accepted keys: {tuple(sorted(key_map)) or '(none)'}")
            if key in seen:
                raise FaultSpecError(f"fault spec: duplicate key {key!r}")
            seen.add(key)
            kwargs[kwarg] = _coerce(kwarg, value.strip())
    missing = [key for key in required if key not in seen]
    if missing:
        raise FaultSpecError(
            f"fault spec: {kind} needs {', '.join(repr(m) for m in missing)}")

    try:
        fault = cls(**kwargs)
        fault.validate()
    except FaultSpecError:
        raise
    except ConfigError as exc:
        # Field-level validation (bad modes, negative indices, negative
        # windows) surfaces as a spec error when it comes from a spec.
        raise FaultSpecError(f"fault spec: {entry}: {exc}") from exc
    return fault


def validate_fault_spec(faults: typing.Sequence[Fault],
                        clusters: typing.Collection[str] | None = None,
                        services: typing.Collection[str] | None = None,
                        ) -> None:
    """Reject schedules that cannot run as written.

    Args:
        faults: the parsed (or directly constructed) fault list.
        clusters: known cluster names; when given, any fault naming a
            cluster (``cluster``/``src``/``dst``) outside this set raises
            — a fault that targets nothing used to fail only mid-run.
        services: known service names, checked the same way.

    Raises:
        FaultSpecError: on an unknown target name, or when two faults of
            the same kind hit the same target with overlapping
            ``[start, start+duration)`` windows (the second apply or the
            first revert would clobber the other's state).
    """
    for fault in faults:
        fault.validate()
        if clusters is not None:
            for kwarg in _CLUSTER_KWARGS:
                name = getattr(fault, kwarg, None)
                if name is not None and name not in clusters:
                    raise FaultSpecError(
                        f"fault spec: {fault} names unknown cluster "
                        f"{name!r}; known clusters: "
                        f"{tuple(sorted(clusters))}")
        if services is not None:
            for kwarg in _SERVICE_KWARGS:
                name = getattr(fault, kwarg, None)
                if name is not None and name not in services:
                    raise FaultSpecError(
                        f"fault spec: {fault} names unknown service "
                        f"{name!r}; known services: "
                        f"{tuple(sorted(services))}")

    windows: dict[typing.Any, list[tuple[float, float, Fault]]] = {}
    for fault in faults:
        start, end = fault.window()
        if start >= end:  # instantaneous events cannot overlap anything
            continue
        for target in fault.targets():
            windows.setdefault(target, []).append((start, end, fault))
    for target, entries in windows.items():
        entries.sort(key=lambda item: item[:2])
        for (_s1, end1, first), (s2, _e2, second) in zip(entries,
                                                         entries[1:]):
            if s2 < end1:
                raise FaultSpecError(
                    f"fault spec: overlapping windows on the same target "
                    f"{target}: {first} is still active at {s2} when "
                    f"{second} starts")


def check_controller_faults(faults: typing.Sequence[Fault], algorithm: str,
                            has_controller: bool, ha_replicas: int = 1,
                            ) -> None:
    """Raise :class:`FaultSpecError` before a run whose controller faults
    cannot run: both kinds need a controller, and a crash needs HA mode
    and an existing replica index (the simulator runs no HA replicas)."""
    for fault in faults:
        if not isinstance(fault, (ControllerCrash, ControllerPause)):
            continue
        if not has_controller:
            raise FaultSpecError(
                f"fault spec: {fault} targets the controller, but "
                f"{algorithm} runs without one")
        if isinstance(fault, ControllerCrash):
            if ha_replicas < 2:
                raise FaultSpecError(
                    f"fault spec: {fault} needs HA mode "
                    f"(ha_replicas > 1); got {ha_replicas}")
            if fault.replica_index >= ha_replicas:
                raise FaultSpecError(
                    f"fault spec: {fault} names replica "
                    f"{fault.replica_index}, but only "
                    f"{ha_replicas} run")


def parse_fault_spec(spec: str,
                     clusters: typing.Collection[str] | None = None,
                     services: typing.Collection[str] | None = None,
                     ) -> list[Fault]:
    """Parse a full ``;``-separated fault specification string.

    With ``clusters``/``services`` given, target names are checked
    against the topology and overlapping same-target windows are
    rejected — see :func:`validate_fault_spec` (always run; the name
    checks are skipped when the topology is unknown).
    """
    entries = [entry for entry in spec.split(";") if entry.strip()]
    if not entries:
        raise FaultSpecError(f"fault spec is empty: {spec!r}")
    faults = [parse_fault_entry(entry) for entry in entries]
    validate_fault_spec(faults, clusters=clusters, services=services)
    return faults


def fault_to_dict(fault: Fault) -> dict:
    """Serialise a fault as ``{"kind": ..., <fields>}`` (trace JSON)."""
    import dataclasses

    for kind, (cls, _key_map, _required) in _KINDS.items():
        if type(fault) is cls:
            doc = dataclasses.asdict(fault)
            doc["kind"] = kind
            return doc
    raise ConfigError(
        f"cannot serialise unregistered fault type: "
        f"{type(fault).__name__}")


def fault_from_dict(data: dict) -> Fault:
    """Rebuild a fault from :func:`fault_to_dict` output."""
    fields = dict(data)
    kind = fields.pop("kind", None)
    if kind not in _KINDS:
        raise ConfigError(
            f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}")
    cls = _KINDS[kind][0]
    try:
        fault = cls(**fields)
    except TypeError as error:
        raise ConfigError(f"bad fields for fault {kind!r}: {error}") from None
    fault.validate()
    return fault
