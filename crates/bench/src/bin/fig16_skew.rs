//! Figure 16 (repo extension) — load-aware placement under a hot-spot
//! workload.
//!
//! The paper's load is skewed by construction: "business centers" draw
//! most of the updates and queries (§3.4.2 builds FLAG on exactly that
//! observation), yet unweighted rendezvous placement assigns clustering
//! cells to shards as if all cells cost the same. This bin drives the
//! canonical skew — **80% of updates into ~5% of the clustering cells** —
//! at several fleet sizes and compares, on identically seeded stores:
//!
//! * **baseline** — the pre-load-aware tier: unweighted rendezvous
//!   ownership, no hot-cell splits, no rebalancing;
//! * **load-aware** — the same tier calling
//!   [`MoistCluster::rebalance`] every `REBALANCE_EVERY_SECS` of virtual
//!   time: per-shard weights from measured utilization, hot cells split
//!   one level finer, region fan-out balancing priced by the measured
//!   per-cell rates.
//!
//! Reported per shard count (all virtual-time, fully deterministic — the
//! driver is single-threaded, so the bench gate can trust the numbers):
//!
//! * **client-visible QPS** — `store QPS / (1 − shed)` of the busiest
//!   shard, as in `fig14_scaleout`;
//! * **utilization skew** — busiest-shard elapsed over mean elapsed
//!   ([`moist::core::ClusterStats::utilization_skew`]); 1.0 is a level
//!   fleet;
//! * **whole-map region fan-out speedup** — scatter-gather vs anchor
//!   routing on the load-aware cluster, which must stay at least as good
//!   as `fig15_fanout`'s bar (slice balancing should *raise* it).
//!
//! The full run asserts the acceptance bars at 10 shards: load-aware
//! beats the baseline on client-visible QPS, cuts utilization skew ≥ 2×,
//! and keeps the whole-map fan-out speedup ≥ 2×.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Velocity};
use moist_bench::{anchored_region, smoke_mode, Figure, Series, STORE_WRITE_CAPACITY_OPS};

/// Virtual seconds between rebalance steps on the load-aware cluster.
const REBALANCE_EVERY_SECS: u64 = 10;

struct Scale {
    shard_counts: Vec<usize>,
    objects: u64,
    warmup_secs: u64,
    measure_secs: u64,
    updates_per_sec: u64,
    /// Business centers taking 80% of the traffic, each inside one
    /// clustering cell at level 3 (64 cells ⇒ 3 spots ≈ 5% of the map).
    hot_spots: &'static [(f64, f64)],
}

impl Scale {
    fn full() -> Self {
        Scale {
            shard_counts: vec![4, 10],
            objects: 4_000,
            warmup_secs: 60,
            measure_secs: 180,
            updates_per_sec: 400,
            hot_spots: &[(187.0, 187.0), (687.0, 312.0), (437.0, 812.0)],
        }
    }

    fn smoke() -> Self {
        Scale {
            shard_counts: vec![4],
            objects: 800,
            warmup_secs: 40,
            measure_secs: 80,
            updates_per_sec: 120,
            // One business center: at 4 shards a 3-spot hot set already
            // spreads evenly by hash, so the smoke run concentrates the
            // skew to keep the (cheap) scenario meaningful.
            hot_spots: &[(187.0, 187.0)],
        }
    }
}

fn config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// Deterministic xorshift stream.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One update of the hot-spot stream: 80% of traffic jitters around the
/// business centers (object ids partitioned per spot so schools can form
/// and shed), 20% scatters uniformly.
fn skewed_update(rng: &mut Rng, scale: &Scale, at_secs: f64) -> UpdateMessage {
    let objects = scale.objects;
    let spots = scale.hot_spots;
    let hot = rng.next() < 0.8;
    let (oid, x, y) = if hot {
        let spot = (rng.next() * spots.len() as f64) as usize % spots.len();
        let (cx, cy) = spots[spot];
        // Stay well inside the 125-unit clustering cell.
        let oid_pool = objects * 8 / 10 / spots.len() as u64;
        let oid = spot as u64 * oid_pool + (rng.next() * oid_pool as f64) as u64;
        (
            oid,
            cx + rng.next() * 40.0 - 20.0,
            cy + rng.next() * 40.0 - 20.0,
        )
    } else {
        let oid = objects * 8 / 10 + (rng.next() * (objects / 5) as f64) as u64;
        (oid, 5.0 + rng.next() * 990.0, 5.0 + rng.next() * 990.0)
    };
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::ZERO,
        ts: Timestamp::from_secs_f64(at_secs),
    }
}

struct Measured {
    client_qps: f64,
    skew: f64,
    fanout_speedup: f64,
    fanout_cost_us: f64,
    split_cells: usize,
}

/// Drives the hot-spot stream against one cluster for `[from, to)`
/// virtual seconds, ticking clustering (and, when `rebalance` is set,
/// the load-aware rebalance step) once per second.
fn drive(
    cluster: &MoistCluster,
    rng: &mut Rng,
    scale: &Scale,
    from: u64,
    to: u64,
    rebalance: bool,
) {
    for sec in from..to {
        for i in 0..scale.updates_per_sec {
            let at = sec as f64 + i as f64 / scale.updates_per_sec as f64;
            cluster
                .update(&skewed_update(rng, scale, at))
                .expect("update");
        }
        let now = Timestamp::from_secs(sec + 1);
        cluster.run_due_clustering(now).expect("clustering");
        if rebalance && (sec + 1) % REBALANCE_EVERY_SECS == 0 {
            cluster.rebalance(now).expect("rebalance drain failed");
        }
    }
}

fn run_one(shards: usize, scale: &Scale, rebalance: bool) -> Measured {
    let store = Bigtable::new();
    let cfg = config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(shards)
        .build()
        .expect("cluster");
    let mut rng = Rng(0xC0FF_EE00_D15E_A5E5);
    // Warm-up: register the population, let schools form and (load-aware
    // only) let the first rebalances converge, then measure from clean
    // clocks.
    drive(&cluster, &mut rng, scale, 0, scale.warmup_secs, rebalance);
    cluster.reset_clocks();
    let before = cluster.stats();
    drive(
        &cluster,
        &mut rng,
        scale,
        scale.warmup_secs,
        scale.warmup_secs + scale.measure_secs,
        rebalance,
    );
    let after = cluster.stats();
    let end = Timestamp::from_secs(scale.warmup_secs + scale.measure_secs);

    let updates = after.updates - before.updates;
    let shed = (after.shed - before.shed) as f64 / updates.max(1) as f64;
    let busiest_secs = cluster.max_elapsed_us() / 1e6;
    let store_qps =
        ((updates as f64 * (1.0 - shed)) / busiest_secs.max(1e-9)).min(STORE_WRITE_CAPACITY_OPS);
    let client_qps = store_qps / (1.0 - shed).max(0.05);
    let cstats = cluster.cluster_stats(end);
    let skew = cstats.utilization_skew();

    // Whole-map scattered region vs anchor routing on this cluster: the
    // fan-out bar from fig15 must hold (and slice balancing should beat
    // it — the largest owner slice no longer caps the speedup).
    let (anchor_hits, anchor_stats) =
        anchored_region(&cluster, &cfg.space.world, end, 0.0).unwrap();
    let (fan_hits, fan_stats) = cluster.region(&cfg.space.world, end, 0.0).unwrap();
    let a: Vec<u64> = anchor_hits.iter().map(|n| n.oid.0).collect();
    let f: Vec<u64> = fan_hits.iter().map(|n| n.oid.0).collect();
    assert_eq!(a, f, "fan-out must return the anchor answer");
    let fanout_speedup = anchor_stats.cost_us / fan_stats.cost_us.max(1e-9);
    if std::env::var("FIG16_DEBUG").is_ok() {
        eprintln!(
            "[debug] rebalance={rebalance} fan={fan_stats:?} anchor={anchor_stats:?} splits={:?} weights={:?}",
            cluster.split_cells(),
            cluster.shard_weights()
        );
    }

    Measured {
        client_qps,
        skew,
        fanout_speedup,
        fanout_cost_us: fan_stats.cost_us,
        split_cells: cluster.split_cells().len(),
    }
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig16_skew_smoke"
    } else {
        "fig16_skew"
    };
    let mut fig = Figure::new(
        id,
        "Hot-spot skew (80% of updates in ~5% of cells): load-aware vs unweighted placement",
        "shards",
        "updates/s (virtual) / ratio (x)",
    );
    let mut base_qps_series = Series::new("baseline client QPS");
    let mut aware_qps_series = Series::new("load-aware client QPS");
    let mut skew_cut_series = Series::new("skew cut (x)");
    let mut fanout_series = Series::new("load-aware fan-out speedup (x)");
    println!(
        "{:>7} {:>14} {:>14} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "shards",
        "base q/s",
        "aware q/s",
        "base skew",
        "aware skew",
        "skew cut",
        "fanout",
        "splits"
    );
    let mut headline: Option<(Measured, Measured)> = None;
    for &shards in &scale.shard_counts {
        let base = run_one(shards, &scale, false);
        let aware = run_one(shards, &scale, true);
        let skew_cut = base.skew / aware.skew.max(1e-9);
        println!(
            "{shards:>7} {:>14.0} {:>14.0} {:>10.2} {:>10.2} {:>8.2}x {:>7.2}x {:>8}",
            base.client_qps,
            aware.client_qps,
            base.skew,
            aware.skew,
            skew_cut,
            aware.fanout_speedup,
            aware.split_cells
        );
        base_qps_series.push(shards as f64, base.client_qps);
        aware_qps_series.push(shards as f64, aware.client_qps);
        skew_cut_series.push(shards as f64, skew_cut);
        fanout_series.push(shards as f64, aware.fanout_speedup);
        if shards == *scale.shard_counts.last().unwrap() {
            headline = Some((base, aware));
        }
    }
    fig.add(base_qps_series);
    fig.add(aware_qps_series);
    fig.add(skew_cut_series);
    fig.add(fanout_series);
    fig.print();
    fig.save().expect("save");

    // Acceptance bars at the largest fleet (virtual-time numbers from a
    // single-threaded driver: deterministic, safe to assert on).
    let (base, aware) = headline.expect("at least one shard count");
    let skew_bar = if smoke { 1.3 } else { 2.0 };
    assert!(
        aware.client_qps >= base.client_qps,
        "load-aware QPS {:.0} must beat the unweighted baseline {:.0}",
        aware.client_qps,
        base.client_qps
    );
    let skew_cut = base.skew / aware.skew.max(1e-9);
    assert!(
        skew_cut >= skew_bar,
        "skew cut {skew_cut:.2}x is below the {skew_bar}x bar ({:.2} -> {:.2})",
        base.skew,
        aware.skew
    );
    // Whole-map scattered-region latency must be no worse than the PR-4
    // tier's on the same store (small tolerance for extra range headers
    // the balancer introduces). The uniform-workload ≥2x speedup bar
    // stays enforced by fig15_fanout itself.
    assert!(
        aware.fanout_cost_us <= base.fanout_cost_us * 1.05,
        "load-aware whole-map fan-out {:.0}us regressed vs the unweighted tier's {:.0}us",
        aware.fanout_cost_us,
        base.fanout_cost_us
    );
    assert!(
        aware.split_cells > 0,
        "the hot-spot workload must split at least one cell"
    );
    println!(
        "load-aware at {} shards: {:.2}x QPS, {skew_cut:.2}x skew cut, {:.2}x fan-out",
        scale.shard_counts.last().unwrap(),
        aware.client_qps / base.client_qps.max(1e-9),
        aware.fanout_speedup
    );
}
