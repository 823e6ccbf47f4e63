//! Shared harness for the figure-reproduction benchmarks.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the MOIST
//! paper (see DESIGN.md's experiment index). This library provides the
//! common pieces: result tables, JSON output, cost-profile presets for the
//! comparators, and the multi-server capacity model.

#![warn(missing_docs)]

use moist::baselines::{BxConfig, BxTree};
use moist::bigtable::{Bigtable, CostProfile, Timestamp};
use moist::core::{
    MoistCluster, MoistConfig, MoistServer, Neighbor, ObjectId, RegionStats, UpdateMessage,
};
use moist::spatial::{Rect, Space};
use moist::workload::UniformSim;
use serde::Serialize;
use std::io::Write as _;
use std::path::PathBuf;

/// One plotted series: label plus `(x, y)` points.
#[derive(Debug, Clone, Serialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure's worth of series, printable and dumpable.
#[derive(Debug, Clone, Serialize)]
pub struct Figure {
    /// Figure id, e.g. `"fig09a"`.
    pub id: String,
    /// Human title (the paper's caption).
    pub title: String,
    /// Axis names.
    pub x_label: String,
    /// Axis names.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series.
    pub fn add(&mut self, series: Series) {
        self.series.push(series);
    }

    /// Prints the figure as an aligned text table (x column + one column
    /// per series).
    pub fn print(&self) {
        println!("\n=== {} — {} ===", self.id, self.title);
        print!("{:>14}", self.x_label);
        for s in &self.series {
            print!("  {:>18}", truncate(&s.label, 18));
        }
        println!("    ({})", self.y_label);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.0).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            print!("{x:>14.3}");
            for s in &self.series {
                match s.points.get(i) {
                    Some(&(_, y)) => print!("  {y:>18.3}"),
                    None => print!("  {:>18}", "-"),
                }
            }
            println!();
        }
    }

    /// Writes the figure as JSON under `bench_results/<id>.json` (relative
    /// to the workspace root) so EXPERIMENTS.md tables can be regenerated.
    pub fn save(&self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.id));
        let mut f = std::fs::File::create(&path)?;
        let json = serde_json::to_string_pretty(self).expect("figure serialises");
        f.write_all(json.as_bytes())?;
        println!("[saved {}]", path.display());
        Ok(path)
    }
}

/// Whether the current invocation asked for smoke mode (`--smoke` on the
/// command line or `MOIST_SMOKE=1`): tiny populations and few ticks, for
/// CI runs that only check the bins still work and archive their JSON.
///
/// Bins in smoke mode save under a `<id>_smoke` figure id so quick runs
/// never clobber full-scale results in `bench_results/`.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("MOIST_SMOKE")
            .map(|v| v == "1")
            .unwrap_or(false)
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((i, _)) => &s[..i],
        None => s,
    }
}

/// `bench_results/` at the workspace root (falls back to CWD).
///
/// `MOIST_BENCH_RESULTS_DIR` overrides the location entirely — CI uses it
/// to write the extra median-of-3 smoke runs of the interleaving-sensitive
/// figures into scratch directories instead of clobbering the main run.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("MOIST_BENCH_RESULTS_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two levels up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .parent()
            .and_then(|p| p.parent())
            .map(|p| p.join("bench_results"))
            .unwrap_or_else(|| PathBuf::from("bench_results")),
        Err(_) => PathBuf::from("bench_results"),
    }
}

/// Cost profile of the disk-based B+-tree testbed the Bx-tree numbers in
/// the paper come from (Chen et al.'s benchmark, the paper's ref. 6): every index operation
/// is a buffered disk-page access, far costlier than a BigTable memtable
/// op. Calibrated so one Bx update (delete + insert) lands near the
/// ~0.3 ms / ≈3k QPS the paper quotes for that benchmark's hardware.
pub fn disk_btree_profile() -> CostProfile {
    CostProfile {
        rpc_base_us: 140.0,
        index_level_us: 1.2,
        read_row_us: 20.0,
        mutation_us: 12.0,
        scan_row_us: 4.0,
        batch_row_us: 10.0,
        disk_read_us: 2500.0,
        byte_us: 0.004,
        wal_append_us: 4.0,
        wal_fsync_us: 220.0,
        wal_replay_us: 2.0,
    }
}

/// The single-shard region baseline the fan-out figures compare
/// scatter-gather against: the whole query runs on the shard owning the
/// rectangle's centre cell, scanning every planned range back to back.
pub fn anchored_region(
    cluster: &MoistCluster,
    rect: &Rect,
    at: Timestamp,
    margin: f64,
) -> moist::core::Result<(Vec<Neighbor>, RegionStats)> {
    cluster.with_shard_read(cluster.shard_for_point(&rect.center()), |s| {
        s.region(rect, at, margin)
    })?
}

/// `(objects, measured updates)` of the `headline` figure's smoke run.
pub const HEADLINE_SMOKE_ROWS: (u64, usize) = (60_000, 5_000);

/// Single-server MOIST update throughput, in updates per virtual second,
/// at `n` objects with schooling off: registers a [`UniformSim`]
/// population, then applies `measured_updates` reports of its velocity
/// walk. Row 2 of the `headline` figure.
pub fn moist_update_qps(n: u64, measured_updates: usize) -> f64 {
    let cfg = MoistConfig::without_schooling();
    let store = Bigtable::new();
    let mut server = MoistServer::new(&store, cfg).expect("server");
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut sim = UniformSim::new(world, n, 2.0, 5.0, 5).with_velocity_walk(0.5);
    // Register everyone (charged, then reset).
    for (oid, loc, vel) in sim.positions() {
        server
            .update(&UpdateMessage {
                oid: ObjectId(oid),
                loc,
                vel,
                ts: Timestamp::from_secs(1),
            })
            .expect("register");
    }
    server.session_mut().reset();
    let updates = sim.next_updates(measured_updates);
    for u in &updates {
        server
            .update(&UpdateMessage {
                oid: ObjectId(u.oid),
                loc: u.loc,
                vel: u.vel,
                ts: Timestamp::from_secs_f64(1.0 + u.at_secs),
            })
            .expect("update");
    }
    updates.len() as f64 / (server.elapsed_us() / 1e6)
}

/// The Bx-tree's update throughput on the same population and reports,
/// priced with [`disk_btree_profile`]. Row 1 of the `headline` figure.
pub fn bx_update_qps(n: u64, measured_updates: usize) -> f64 {
    let store = Bigtable::new();
    let mut tree = BxTree::new(
        &store,
        Space::paper_map(),
        BxConfig {
            v_max: 3.0,
            ..BxConfig::default()
        },
        "bx_headline",
    )
    .expect("bxtree");
    let mut session = store.session_with(disk_btree_profile());
    let world = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let mut sim = UniformSim::new(world, n, 2.0, 5.0, 5).with_velocity_walk(0.5);
    for (oid, loc, vel) in sim.positions() {
        tree.update(&mut session, oid, &loc, &vel, Timestamp::from_secs(1))
            .expect("insert");
    }
    session.reset();
    let updates = sim.next_updates(measured_updates);
    for u in &updates {
        tree.update(
            &mut session,
            u.oid,
            &u.loc,
            &u.vel,
            Timestamp::from_secs_f64(1.0 + u.at_secs),
        )
        .expect("update");
    }
    updates.len() as f64 / (session.elapsed_us() / 1e6)
}

/// Aggregate write capacity of the shared store, ops per virtual second.
///
/// The paper's BigTable quota caps how far multi-server deployments scale:
/// 5 servers stay under it (near-linear speedup, Fig. 13b), 10 servers
/// saturate it around 60k updates/s with visible instability (Fig. 13c).
pub const STORE_WRITE_CAPACITY_OPS: f64 = 62_000.0;

/// Applies the shared-capacity model to per-server demand for one second of
/// virtual time: returns `(served, failed)` aggregate ops.
///
/// Below capacity everything is served. Above it, the store serves the
/// capacity (with a deterministic ±8% wobble — overload makes BigTable
/// throughput "not very stable over time", §4.3.3) and the excess fails.
pub fn capacity_step(demand_ops: f64, second: u64, seed: u64) -> (f64, f64) {
    if demand_ops <= STORE_WRITE_CAPACITY_OPS {
        return (demand_ops, 0.0);
    }
    // Deterministic wobble from a splitmix-style hash of (second, seed).
    let mut z = second
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let unit = ((z >> 11) as f64) / (1u64 << 53) as f64; // [0,1)
    let wobble = 0.92 + 0.16 * unit; // [0.92, 1.08)
    let served = (STORE_WRITE_CAPACITY_OPS * wobble).min(demand_ops);
    (served, demand_ops - served)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_printing_and_saving_roundtrip() {
        let mut fig = Figure::new("test_fig", "a test", "x", "y");
        let mut s = Series::new("s1");
        s.push(1.0, 2.0);
        s.push(2.0, 4.0);
        fig.add(s);
        fig.print();
        let path = fig.save().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"test_fig\""));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn disk_btree_profile_is_much_slower_per_update() {
        let bx = disk_btree_profile();
        let bt = CostProfile::default();
        // One Bx update = delete + insert.
        let bx_update = 2.0 * bx.write_us(1_000_000, 1, 40);
        let bt_update = bt.point_read_us(1_000_000, 24, false)
            + bt.write_us(1_000_000, 1, 56)
            + bt.batch_write_us(2, 2, 80);
        assert!(bx_update > 1.8 * bt_update, "{bx_update} vs {bt_update}");
        let qps = 1e6 / bx_update;
        assert!(qps > 2000.0 && qps < 4500.0, "Bx calibration off: {qps}");
    }

    #[test]
    fn capacity_model_caps_and_wobbles() {
        let (ok, bad) = capacity_step(40_000.0, 3, 1);
        assert_eq!(ok, 40_000.0);
        assert_eq!(bad, 0.0);
        let (ok1, bad1) = capacity_step(85_000.0, 3, 1);
        assert!(ok1 < 80_000.0 && ok1 > 60_000.0);
        assert!(bad1 > 0.0);
        // Deterministic per (second, seed); varies across seconds.
        let (ok2, _) = capacity_step(85_000.0, 3, 1);
        assert_eq!(ok1, ok2);
        let (ok3, _) = capacity_step(85_000.0, 4, 1);
        assert_ne!(ok1, ok3);
    }
}
