"""Drive requests through the dispatch path the benchmarks run."""

from __future__ import annotations

from repro.balancers.static_weights import StaticWeightBalancer
from repro.mesh.mesh import ServiceMesh
from repro.mesh.network import WanLink


def start(sim, target, intended_start_s=None, body_factory=None) -> list:
    """Dispatch one request on ``target`` (a proxy or a call-graph app).

    Returns the list its record is appended to on completion — empty
    while the request is still in flight.
    """
    done: list = []
    if intended_start_s is None:
        intended_start_s = sim.now
    if body_factory is None:
        target.dispatch(intended_start_s, done.append)
    else:
        target.dispatch(intended_start_s, done.append, body_factory)
    return done


def drive(sim, target, intended_start_s=None, body_factory=None):
    """Dispatch one request, run the agenda dry, return its record."""
    done = start(sim, target, intended_start_s, body_factory)
    sim.run()
    (record,) = done
    return record


def local_proxy(sim, rng_registry, profile, replicas=1, capacity=64):
    """A proxy pinned to service ``svc`` in a one-cluster mesh.

    Zero forwarding overhead and a zero-delay local link: a request's
    timing is exactly its replica's queueing and service time. The
    backend is ``backend_of(proxy)``.
    """
    mesh = ServiceMesh(sim, rng_registry, clusters=["cluster-1"])
    mesh.network.set_link("cluster-1", "cluster-1",
                          WanLink(base_delay_s=0.0))
    mesh.deploy_service("svc", profiles={"cluster-1": profile},
                        replicas=replicas, replica_capacity=capacity)
    return mesh.client_proxy(
        "cluster-1", "svc", StaticWeightBalancer({"svc/cluster-1": 1.0}),
        forward_overhead_s=0.0)


def backend_of(proxy):
    return proxy.mesh.deployment(proxy.service).backend_in(
        proxy.source_cluster)
