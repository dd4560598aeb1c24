"""Bench: Fig 6 — TPC-C throughput scales linearly with regions.

Shape requirements (§7.4):
* Throughput grows ~linearly from 4 to 26 regions (the paper reports
  >= 97% TPC-C efficiency; we assert >= 85% per-warehouse efficiency
  relative to the 4-region run).
* p50 latencies stay flat as regions are added (requests do not cross
  regions in the common case).
* PLACEMENT RESTRICTED does not change p50 latency vs DEFAULT.
"""

from repro.harness.experiments.fig6 import (
    run_fig6,
    run_fig6_placement_comparison,
)
from repro.obs.report import Summary


def test_fig6_tpcc_scalability(benchmark):
    result = benchmark.pedantic(
        lambda: run_fig6(region_counts=(4, 10, 26), txns_per_client=10),
        rounds=1, iterations=1)
    result.table().print()

    base = result.points[0]
    for point in result.points[1:]:
        assert result.efficiency(point) >= 0.85, \
            f"{point.regions} regions efficiency {result.efficiency(point)}"

    # p50 stays flat: the median new-order latency of the largest
    # cluster is within 2x of the smallest.
    def median_p50(point):
        p50s = []
        for label in point.recorder.labels():
            if label[0] == "new_order":
                summary = Summary(point.recorder.samples(*label))
                if summary.count:
                    p50s.append(summary.p50)
        p50s.sort()
        return p50s[len(p50s) // 2]

    assert median_p50(result.points[-1]) < 2.0 * median_p50(base)


def test_fig6_placement_restricted_latency(benchmark):
    points = benchmark.pedantic(
        lambda: run_fig6_placement_comparison(n_regions=10,
                                              txns_per_client=10),
        rounds=1, iterations=1)

    def p50(point):
        return Summary(point.recorder.samples("new_order")).p50

    default_p50 = p50(points["default"])
    restricted_p50 = p50(points["restricted"])
    print(f"\nnew-order p50: DEFAULT {default_p50:.1f} ms, "
          f"RESTRICTED {restricted_p50:.1f} ms")
    # §7.4: non-voters everywhere do not increase latency.
    assert default_p50 <= restricted_p50 * 1.5 + 10.0
