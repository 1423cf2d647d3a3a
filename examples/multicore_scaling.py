#!/usr/bin/env python
"""Multicore consolidation scaling (extension; multi-programmed, non-SMT).

Runs 1, 2 and 4 server workloads on the multicore substrate — private
L1/L2/TLB hierarchies, shared LLC and DRAM — and shows how aggregate
throughput scales as the shared levels saturate, with and without
iTP+xPTP on each core.

Run:  python examples/multicore_scaling.py
"""

from repro import ServerWorkload, scaled_config
from repro.core.simulator import simulate_multicore
from repro.experiments.reporting import format_table


def workloads(n):
    return [
        ServerWorkload(f"w{i}", seed=60 + i, code_pages=256, data_pages=6000,
                       hot_data_pages=96, warm_pages=1600, local_pages=32)
        for i in range(n)
    ]


def main() -> None:
    base = scaled_config()
    prop = base.with_policies(stlb="itp", l2c="xptp")
    rows = []
    for cores in (1, 2, 4):
        wls = workloads(cores)
        measure = 60_000 * cores
        lru = simulate_multicore(base, wls, 20_000 * cores, measure)
        itp = simulate_multicore(prop, wls, 20_000 * cores, measure)
        rows.append([
            cores,
            lru.ipc,
            lru.get("llc.mpki"),
            100.0 * (itp.ipc / lru.ipc - 1.0),
        ])
        print(f"finished {cores} core(s)")
    print()
    print(format_table(
        ["cores", "aggregate_ipc (LRU)", "llc_mpki", "itp+xptp_gain_%"], rows
    ))
    print()
    print("Aggregate IPC grows sub-linearly as the shared LLC and DRAM "
          "bandwidth saturate; iTP+xPTP keeps helping each core's private "
          "STLB/L2C regardless of core count.")


if __name__ == "__main__":
    main()
