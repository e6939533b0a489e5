"""Scaling study: regenerate Fig 9 and Fig 10 at a configurable scale.

Run:  python examples/scaling_study.py [scale]

``scale`` defaults to 0.2 (a fifth of the paper's Table 1 sizes); pass 1.0
for the full 250/500/750/1000-proxy sweep (slow in pure Python).
"""

import sys

from repro.experiments import (
    ascii_table,
    run_overhead_experiment,
    run_path_efficiency,
    scaled_table1,
)


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.2
    specs = scaled_table1(scale)
    sizes = [s.proxies for s in specs]
    print(f"Environments (scale {scale}): proxies {sizes}")
    print()

    print("Regenerating Fig 9 (state-maintenance overhead)...")
    overhead = run_overhead_experiment(specs, topologies_per_size=3, seed=1)
    print("Fig 9(a) coordinates / Fig 9(b) service node-states per proxy")
    print(ascii_table(
        ["proxies", "flat", "(a) hierarchical", "(b) hierarchical"],
        [[c.proxies, c.flat, c.hierarchical, s.hierarchical]
         for c, s in zip(overhead.coordinates, overhead.service)],
    ))
    print()

    print("Regenerating Fig 10 (service-path efficiency)...")
    efficiency = run_path_efficiency(
        specs,
        strategies=("mesh", "hfc_agg", "hfc_full"),
        topologies_per_size=2,
        requests_per_topology=150,
        seed=2,
    )
    print("Fig 10 — avg. service path length (true delay units)")
    print(ascii_table(
        ["proxies", *efficiency.strategies],
        [[p.proxies, *(p.mean_delay[name] for name in efficiency.strategies)]
         for p in efficiency.points],
    ))
    print()

    last = efficiency.points[-1]
    mesh, agg, full = (
        last.mean_delay["mesh"],
        last.mean_delay["hfc_agg"],
        last.mean_delay["hfc_full"],
    )
    print(f"At n={last.proxies}: mesh={mesh:.1f}, HFC w/ agg={agg:.1f}, "
          f"HFC w/o agg={full:.1f}")
    print(f"  HFC w/ aggregation vs mesh      : {(mesh - agg) / mesh:+.1%}")
    print(f"  price of aggregation (agg-full) : {(agg - full) / full:+.1%}")


if __name__ == "__main__":
    main()
