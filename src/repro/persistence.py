"""Persistence: save and load built overlays as binary snapshots.

Building a framework runs the full stochastic pipeline (topology draw,
landmark embedding, clustering). For reproducible experiment artifacts —
"the exact overlay these numbers came from" — this module serialises a
built :class:`~repro.core.framework.HFCFramework` and restores it
byte-for-byte equivalent: same topology, same coordinates, same
clustering, same borders, so every router built on top routes
identically.

A snapshot (:func:`save_snapshot` / :func:`load_snapshot`) is one ``.npz``
archive holding the columnar overlay state
(:class:`~repro.state.columnar.ColumnarOverlayState`) as raw float64 /
int64 arrays plus one JSON metadata string. Arrays move between disk and
the kernels without any per-node Python conversion, which is what makes
warm starts an order of magnitude faster than a cold build. Snapshots
carry the :class:`~repro.core.versioning.OverlayVersion` they were
captured at, and optionally the state plane (SCT tables + delta streams,
see ``StateDistributionProtocol.snapshot_state_plane``) so crash/restart
scenarios can reload knowledge instead of re-learning it.

Delay-oracle caches are rebuilt lazily after loading; measurement-noise RNG
state is *not* preserved (a loaded framework issues fresh measurements).
"""

from __future__ import annotations

import dataclasses
import json
import zipfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from repro.cluster.mstcluster import ClusteringConfig
from repro.coords.embedding import EmbeddingReport
from repro.core.config import FrameworkConfig
from repro.core.framework import HFCFramework
from repro.core.versioning import OverlayVersion
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import PhysicalTopology, TransitStubConfig
from repro.services.catalog import ServiceCatalog
from repro.state.columnar import ColumnarOverlayState, HierarchyLevel
from repro.util.errors import ReproError

#: binary snapshot schema version; bump on incompatible changes
SNAPSHOT_FORMAT_VERSION = 1


@dataclass
class OverlaySnapshot:
    """One restored binary snapshot: framework + columnar state + version.

    ``framework`` is fully usable (route, run protocols, wrap in a
    :class:`~repro.membership.churn.DynamicOverlay` via
    ``DynamicOverlay.from_snapshot``); its topology carries ``columnar``
    attached, so routing table construction reads the restored arrays
    directly. ``state_plane``, when the snapshot carried one, maps
    ``str(proxy)`` to the capture ``StateDistributionProtocol.
    restore_state`` accepts.
    """

    framework: HFCFramework
    columnar: ColumnarOverlayState
    version: OverlayVersion
    state_plane: Optional[Dict[str, Any]] = None


def _snapshot_parts(target: Any) -> tuple:
    """``(framework, columnar)`` of a framework or dynamic overlay.

    Both paths materialise a *fresh* columnar state rather than reusing
    the build-time attachment: the state protocol mutates
    ``overlay.placement`` in place (``wipe_state`` with a service change,
    ``update_local_services``), which the attached state — captured at
    construction — would not reflect.
    """
    framework = getattr(target, "framework", None)
    if framework is None:
        fresh = ColumnarOverlayState.from_framework(target)
        attached = getattr(target.hfc, "columnar", None)
        if attached is not None and attached.levels:
            # carry the recursive hierarchy's level stack into the capture
            fresh.attach_levels(attached.levels)
        return target, fresh
    return framework, target.columnar()


def save_snapshot(
    target: Any,
    path: str,
    *,
    state_plane: Optional[Dict[str, Any]] = None,
) -> None:
    """Write *target* to *path* as one binary ``.npz`` snapshot.

    *target* is a built :class:`HFCFramework` or a
    :class:`~repro.membership.churn.DynamicOverlay` (whose live state —
    churned membership, borders, version — is captured, not the original
    framework's). *state_plane* is an optional
    ``StateDistributionProtocol.snapshot_state_plane()`` capture to embed.
    The archive is uncompressed on purpose: coordinates are incompressible
    float noise and save/load wall-clock is the point (the end-to-end
    benchmark's ``persistence.save_s`` / ``persistence.load_s``).
    """
    framework, columnar = _snapshot_parts(target)
    topo = framework.physical.topology
    nodes = range(topo.node_count)
    kinds: List[str] = sorted(set(topo.node_kind.values()))
    kind_code = {kind: i for i, kind in enumerate(kinds)}
    report = framework.embedding_report
    meta = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "config": {
            "base": {
                k: v
                for k, v in dataclasses.asdict(framework.config).items()
                if k not in ("clustering", "transit_stub")
            },
            "clustering": dataclasses.asdict(framework.config.clustering),
            "transit_stub": dataclasses.asdict(framework.config.transit_stub),
        },
        "noise": framework.physical.noise,
        "catalog": {
            "names": list(framework.catalog.names),
            "descriptions": dict(framework.catalog.descriptions),
        },
        "service_names": list(columnar.service_names),
        "node_kinds": kinds,
        "embedding": {
            "dimension": report.dimension,
            "measurement_count": report.measurement_count,
            "landmark_fit_error": report.landmark_fit_error,
        },
        "version": {"epoch": columnar.epoch, "step": columnar.step},
        "hierarchy_levels": len(columnar.levels),
        "state_plane": state_plane,
    }
    level_arrays: Dict[str, np.ndarray] = {}
    for k, level in enumerate(columnar.levels):
        level_arrays[f"level{k}_parent"] = level.parent
        level_arrays[f"level{k}_ptr"] = level.ptr
        level_arrays[f"level{k}_members"] = level.members
        level_arrays[f"level{k}_borders"] = level.border_matrix
        level_arrays[f"level{k}_centroids"] = level.centroids
    with open(path, "wb") as handle:
        np.savez(
            handle,
            meta=np.array(json.dumps(meta)),
            **level_arrays,
            phys_nodes=np.arange(topo.node_count, dtype=np.int64),
            phys_pos=np.array(
                [topo.positions[n] for n in nodes], dtype=float
            ),
            phys_kind=np.array(
                [kind_code[topo.node_kind[n]] for n in nodes], dtype=np.int64
            ),
            phys_stub=np.array(
                [topo.stub_domain.get(n, -1) for n in nodes], dtype=np.int64
            ),
            # links in generation order: a restored network derives the same
            # adjacency order, hence the same choice among equal-delay routes
            edge_uv=np.column_stack([topo.edge_u, topo.edge_v]),
            edge_w=topo.edge_w,
            landmark_ids=np.array(report.landmark_ids, dtype=np.int64),
            landmark_coords=np.asarray(report.landmark_coordinates, dtype=float),
            proxies=columnar.proxies,
            coords=columnar.coords,
            labels=columnar.labels,
            cluster_ptr=columnar.cluster_ptr,
            cluster_members=columnar.cluster_members,
            border_matrix=columnar.border_matrix,
            placement_ptr=columnar.placement_ptr,
            placement_codes=columnar.placement_codes,
        )


def load_snapshot(path: str) -> OverlaySnapshot:
    """Load a snapshot previously written by :func:`save_snapshot`.

    The restored framework's coordinate space is built zero-copy over the
    snapshot's coordinate array (:meth:`ColumnarOverlayState.space_view`),
    and the topology gets the columnar state attached, so post-restore
    query-table construction consumes the loaded arrays directly.
    """
    try:
        with np.load(path, allow_pickle=False) as data:

            def array(name: str) -> np.ndarray:
                if name not in data.files:
                    raise ReproError(f"snapshot {path!r} has no array {name!r}")
                return data[name]

            meta = json.loads(str(array("meta")))
            version = meta.get("format_version")
            if version != SNAPSHOT_FORMAT_VERSION:
                raise ReproError(
                    f"unsupported snapshot format {version!r} "
                    f"(expected {SNAPSHOT_FORMAT_VERSION})"
                )
            arrays = {
                name: array(name)
                for name in (
                    "phys_nodes",
                    "phys_pos",
                    "phys_kind",
                    "phys_stub",
                    "edge_uv",
                    "edge_w",
                    "landmark_ids",
                    "landmark_coords",
                    "proxies",
                    "coords",
                    "labels",
                    "cluster_ptr",
                    "cluster_members",
                    "border_matrix",
                    "placement_ptr",
                    "placement_codes",
                )
            }
            levels = [
                HierarchyLevel(
                    parent=array(f"level{k}_parent"),
                    ptr=array(f"level{k}_ptr"),
                    members=array(f"level{k}_members"),
                    border_matrix=array(f"level{k}_borders"),
                    centroids=array(f"level{k}_centroids"),
                )
                for k in range(int(meta.get("hierarchy_levels", 0)))
            ]
    except (zipfile.BadZipFile, EOFError, ValueError) as err:
        raise ReproError(
            f"snapshot {path!r} is truncated or not an .npz archive: {err}"
        ) from err

    # snapshots written before the construction/pool selectors were retired
    # carry their keys in the config block; only current fields are restored
    known = {f.name for f in dataclasses.fields(FrameworkConfig)}
    config = FrameworkConfig(
        **{k: v for k, v in meta["config"]["base"].items() if k in known},
        clustering=ClusteringConfig(**meta["config"]["clustering"]),
        transit_stub=TransitStubConfig(**meta["config"]["transit_stub"]),
    )
    kinds = meta["node_kinds"]
    nodes = arrays["phys_nodes"]
    if not np.array_equal(nodes, np.arange(len(nodes))):
        raise ReproError(f"snapshot {path!r}: routers are not numbered 0..n-1")
    edge_uv = arrays["edge_uv"].reshape(-1, 2)
    topology = PhysicalTopology(
        edge_u=edge_uv[:, 0],
        edge_v=edge_uv[:, 1],
        edge_w=arrays["edge_w"],
        positions=dict(enumerate(map(tuple, arrays["phys_pos"].tolist()))),
        node_kind=dict(enumerate(kinds[k] for k in arrays["phys_kind"].tolist())),
        stub_domain={n: d for n, d in enumerate(arrays["phys_stub"].tolist()) if d >= 0},
    )
    physical = PhysicalNetwork(topology, noise=meta["noise"])

    columnar = ColumnarOverlayState(
        proxies=arrays["proxies"],
        coords=arrays["coords"],
        labels=arrays["labels"],
        cluster_ptr=arrays["cluster_ptr"],
        cluster_members=arrays["cluster_members"],
        border_matrix=arrays["border_matrix"],
        service_names=list(meta["service_names"]),
        placement_ptr=arrays["placement_ptr"],
        placement_codes=arrays["placement_codes"],
        epoch=int(meta["version"]["epoch"]),
        step=int(meta["version"]["step"]),
        levels=levels,
    )
    columnar.validate()
    hfc = columnar.hfc_view(physical)

    catalog = ServiceCatalog(
        names=meta["catalog"]["names"],
        descriptions=meta["catalog"]["descriptions"],
    )
    embedding = EmbeddingReport(
        landmark_ids=[int(x) for x in arrays["landmark_ids"]],
        landmark_coordinates=arrays["landmark_coords"],
        dimension=meta["embedding"]["dimension"],
        measurement_count=meta["embedding"]["measurement_count"],
        landmark_fit_error=meta["embedding"]["landmark_fit_error"],
    )
    framework = HFCFramework(
        config=config,
        physical=physical,
        overlay=hfc.overlay,
        catalog=catalog,
        space=hfc.space,
        embedding_report=embedding,
        clustering=hfc.clustering,
        hfc=hfc,
    )
    return OverlaySnapshot(
        framework=framework,
        columnar=columnar,
        version=columnar.version,
        state_plane=meta.get("state_plane"),
    )
