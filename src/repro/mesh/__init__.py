"""The multi-cluster service-mesh data plane.

Models the paper's test environment (§5.1): multiple Kubernetes clusters
joined by a multi-cluster mesh, sidecar proxies recording data-plane
metrics, WAN links with configurable (and time-varying) delay, and SMI
TrafficSplit objects steering traffic between per-cluster backends.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Backend",
    "ClientProxy",
    "Cluster",
    "NetworkModel",
    "Replica",
    "RequestRecord",
    "ServiceDeployment",
    "ServiceMesh",
    "TrafficSplit",
    "WanLink",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mesh.cluster": ("Cluster",),
    "repro.mesh.mesh": ("ServiceMesh",),
    "repro.mesh.network": ("NetworkModel", "WanLink"),
    "repro.mesh.proxy": ("ClientProxy",),
    "repro.mesh.replica": ("Replica",),
    "repro.mesh.request": ("RequestRecord",),
    "repro.mesh.service": ("Backend", "ServiceDeployment"),
    "repro.mesh.traffic_split": ("TrafficSplit",),
})
