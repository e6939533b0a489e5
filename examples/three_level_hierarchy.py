"""A third hierarchy level: scaling the HFC design past bi-level.

Groups the paper's level-1 clusters into super-clusters, prints the state
footprint of flat / bi-level / three-level organisation side by side, and
routes the same requests through the bi-level and three-level routers to
show the path-quality price of the extra aggregation.

Run:  python examples/three_level_hierarchy.py [proxy_count] [seed]
"""

import sys

import numpy as np

from repro.core import HFCFramework
from repro.routing import validate_path
from repro.state import coordinates_node_states, service_node_states


def main() -> None:
    proxy_count = int(sys.argv[1]) if len(sys.argv) > 1 else 150
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7

    framework = HFCFramework.build(proxy_count=proxy_count, seed=seed)
    print(framework.describe())

    hierarchy = framework.build_hierarchy(levels=3)
    sizes = [
        len(hierarchy.base_clusters_of(sid)) for sid in range(hierarchy.top_count)
    ]
    print(f"super-clusters: {hierarchy.top_count} "
          f"(clusters per super: {sorted(sizes)})")
    print(f"super-border proxies: {len(hierarchy.all_top_borders())}")
    print()

    flat = framework.overlay.size
    coord2 = np.mean(list(coordinates_node_states(framework.hfc).values()))
    coord3 = np.mean(list(hierarchy.coordinates_node_states().values()))
    svc2 = np.mean(list(service_node_states(framework.hfc).values()))
    svc3 = np.mean(list(hierarchy.service_node_states().values()))
    print("per-proxy state (node-states):")
    print(f"  {'organisation':<14} {'coordinates':>12} {'service':>10}")
    print(f"  {'flat':<14} {flat:>12.1f} {flat:>10.1f}")
    print(f"  {'bi-level':<14} {coord2:>12.1f} {svc2:>10.1f}")
    print(f"  {'three-level':<14} {coord3:>12.1f} {svc3:>10.1f}")
    print()

    two = framework.hierarchical_router()
    three = framework.hierarchy_router(levels=3)
    d2, d3 = [], []
    for s in range(40):
        request = framework.random_request(seed=seed + 100 + s)
        p2 = two.route(request)
        p3 = three.route(request)
        validate_path(p3, request, framework.overlay)
        d2.append(p2.true_delay(framework.overlay))
        d3.append(p3.true_delay(framework.overlay))
    print(f"mean true path delay over 40 requests:")
    print(f"  bi-level    : {np.mean(d2):7.1f} ms")
    print(f"  three-level : {np.mean(d3):7.1f} ms "
          f"({(np.mean(d3) / np.mean(d2) - 1):+.1%})")
    print()
    print("the third level trades path quality for another round of state")
    print("aggregation — worthwhile only past the paper's Table 1 scales.")


if __name__ == "__main__":
    main()
