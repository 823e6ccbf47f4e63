//! Figure 15 (repo extension) — scatter-gather region-query fan-out.
//!
//! The paper's front-end tier exists so index maintenance *and* query
//! work scale with the fleet (§3.2.1: BigTable "provides parallelism to
//! read data from multiple ranges"). Before fan-out, `MoistCluster`
//! routed a region query to the single shard owning the rectangle's
//! centre cell, serializing the whole scan on one server while the rest
//! idled. This bin sweeps **region size × shard count** and compares, on
//! identical stores:
//!
//! * **anchor** — the old routing ([`moist_bench::anchored_region`]): the
//!   shard owning the rectangle's centre scans every planned range back
//!   to back;
//! * **fanout** — scatter-gather ([`MoistCluster::region`]): the plan is
//!   owner-sliced, each slice scans on a pooled worker against its shard,
//!   and the client-visible cost is the slowest slice.
//!
//! Client-visible QPS is `1e6 / mean cost_us` over the probe set; both
//! paths must return identical answers (asserted per query). The full run
//! asserts the acceptance bar: ≥2× client-visible speedup for the
//! largest region at 10 shards. Results land in
//! `bench_results/fig15_fanout{,_smoke}.json` and feed the CI
//! `bench_trend --check` gate.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Rect, Velocity};
use moist_bench::{anchored_region, smoke_mode, Figure, Series};

struct Scale {
    shard_counts: Vec<usize>,
    objects: u64,
    region_sides: Vec<f64>,
    queries_per_side: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            shard_counts: vec![1, 2, 5, 10],
            objects: 20_000,
            region_sides: vec![125.0, 250.0, 500.0, 1000.0],
            queries_per_side: 8,
        }
    }

    fn smoke() -> Self {
        Scale {
            shard_counts: vec![4],
            objects: 2_500,
            region_sides: vec![250.0, 1000.0],
            queries_per_side: 4,
        }
    }
}

/// Deterministic xorshift scatter in (0, 1000)².
fn scattered(n: u64) -> Vec<(u64, f64, f64)> {
    let mut state = 0x853C_49E6_748F_EA9Bu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| (i, 2.0 + next() * 996.0, 2.0 + next() * 996.0))
        .collect()
}

/// Probe rectangles of side `side`, centres marching across the map.
fn probe_rects(side: f64, count: usize) -> Vec<Rect> {
    (0..count)
        .map(|q| {
            let f = (q as f64 + 0.5) / count as f64;
            let cx = (side / 2.0) + f * (1000.0 - side).max(0.0);
            let cy = (side / 2.0) + (1.0 - f) * (1000.0 - side).max(0.0);
            Rect::new(
                cx - side / 2.0,
                cy - side / 2.0,
                cx + side / 2.0,
                cy + side / 2.0,
            )
        })
        .collect()
}

struct Measured {
    anchor_qps: f64,
    fanout_qps: f64,
    mean_scatter: f64,
}

fn run_one(shards: usize, side: f64, scale: &Scale) -> Measured {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3, // 64 cells across the shards
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(shards)
        .build()
        .expect("cluster");
    for &(i, x, y) in &scattered(scale.objects) {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(i),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::ZERO,
            })
            .expect("update");
    }

    let rects = probe_rects(side, scale.queries_per_side);
    let mut anchor_us = 0.0;
    let mut fanout_us = 0.0;
    let mut scatter = 0usize;
    for rect in &rects {
        let (a_hits, a_stats) =
            anchored_region(&cluster, rect, Timestamp::ZERO, 0.0).expect("anchor region");
        let (f_hits, f_stats) = cluster
            .region(rect, Timestamp::ZERO, 0.0)
            .expect("fanout region");
        let a_ids: Vec<u64> = a_hits.iter().map(|n| n.oid.0).collect();
        let f_ids: Vec<u64> = f_hits.iter().map(|n| n.oid.0).collect();
        assert_eq!(a_ids, f_ids, "fan-out must return the anchor answer");
        anchor_us += a_stats.cost_us;
        fanout_us += f_stats.cost_us;
        scatter += f_stats.shards_scattered;
    }
    let n = rects.len() as f64;
    Measured {
        anchor_qps: 1e6 / (anchor_us / n).max(1e-9),
        fanout_qps: 1e6 / (fanout_us / n).max(1e-9),
        mean_scatter: scatter as f64 / n,
    }
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig15_fanout_smoke"
    } else {
        "fig15_fanout"
    };
    let mut fig = Figure::new(
        id,
        "Region-query fan-out: client-visible QPS, anchor routing vs scatter-gather",
        "region side (world units)",
        "queries/s (virtual)",
    );
    println!(
        "{:>7} {:>10} {:>14} {:>14} {:>9} {:>9}",
        "shards", "side", "anchor q/s", "fanout q/s", "speedup", "slices"
    );
    let mut headline_speedup = 0.0;
    for &shards in &scale.shard_counts {
        let mut anchor_series = Series::new(format!("anchor {shards} shards"));
        let mut fanout_series = Series::new(format!("fanout {shards} shards"));
        for &side in &scale.region_sides {
            let m = run_one(shards, side, &scale);
            let speedup = m.fanout_qps / m.anchor_qps.max(1e-9);
            println!(
                "{shards:>7} {side:>10.0} {:>14.1} {:>14.1} {:>8.2}x {:>9.1}",
                m.anchor_qps, m.fanout_qps, speedup, m.mean_scatter
            );
            anchor_series.push(side, m.anchor_qps);
            fanout_series.push(side, m.fanout_qps);
            let is_headline = shards == *scale.shard_counts.last().unwrap()
                && side == *scale.region_sides.last().unwrap();
            if is_headline {
                headline_speedup = speedup;
            }
        }
        fig.add(anchor_series);
        fig.add(fanout_series);
    }
    fig.print();
    fig.save().expect("save");
    // The acceptance bar (virtual cost is deterministic, so this is a
    // stable assertion, not a wobbling wall-clock one): the largest
    // region at the largest fleet must fan out to >= 2x.
    let bar = if smoke { 1.2 } else { 2.0 };
    assert!(
        headline_speedup >= bar,
        "largest-region fan-out speedup {headline_speedup:.2}x is below the {bar}x bar"
    );
    println!(
        "largest region at {} shards: {:.2}x client-visible speedup over anchor routing",
        scale.shard_counts.last().unwrap(),
        headline_speedup
    );
}
