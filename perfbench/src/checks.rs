//! Correctness checks run at quiescent points. A failed check fails the
//! run; it is never folded into a metric.

use crate::workload::{derive, region_window, Rng, MAP, NN_K, REGION_MARGIN};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistCluster, MoistConfig, MoistServer, Neighbor, ObjectId, Result};
use moist::spatial::Point;
use std::sync::Arc;

/// Sampled NN and region queries per oracle check.
const NN_SAMPLES: usize = 16;
const REGION_SAMPLES: usize = 8;

fn ids(hits: &[Neighbor]) -> Vec<u64> {
    hits.iter().map(|n| n.oid.0).collect()
}

fn sorted_ids(hits: &[Neighbor]) -> Vec<u64> {
    let mut v = ids(hits);
    v.sort_unstable();
    v
}

/// The FLAG level each shard searches `c` at, by shard. Each server
/// caches its own level, and the tier anchors an NN on one of the shards
/// that replicate `c`'s cell, chosen by load. Asking every shard fills
/// every cache, so the tier's next NN at `c` searches at one of these.
pub fn flag_levels(cluster: &MoistCluster, c: &Point, at: Timestamp) -> Result<Vec<u8>> {
    (0..cluster.num_shards())
        .map(|i| cluster.with_shard_read(i, |s| s.flag_level(c, at))?)
        .collect()
}

/// What one oracle check found.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// One line per mismatch.
    pub failures: Vec<String>,
    /// Sampled NN queries the tier scattered over more than one shard.
    pub nn_scattered: usize,
    /// Sampled NN queries whose shards disagreed on the FLAG level.
    pub nn_split_levels: usize,
}

impl OracleReport {
    /// One line for people: what the check covered.
    pub fn summary(&self, on: &str) -> String {
        format!(
            "oracle on the {on}: {NN_SAMPLES} NN ({} scattered over shards, {} where \
             shards' FLAG levels differed), {REGION_SAMPLES} region",
            self.nn_scattered, self.nn_split_levels
        )
    }
}

/// A seeded sample of NN and region answers from the tier must equal
/// those of a single `MoistServer` opened on the same store with the same
/// config. NN goes through the tier's own path (`MoistCluster::nn`: FLAG
/// on the anchor, ring scatter and merge, or the frontier fallback).
pub fn oracle(
    cluster: &MoistCluster,
    store: &Arc<Bigtable>,
    cfg: MoistConfig,
    seed: u64,
    at: Timestamp,
    salt: u64,
) -> Result<OracleReport> {
    let oracle = MoistServer::new(store, cfg)?;
    let mut rng = Rng::new(derive(seed, 7, salt));
    let mut report = OracleReport::default();
    for _ in 0..NN_SAMPLES {
        let c = Point::new(rng.unit() * MAP, rng.unit() * MAP);
        // The answer depends on the search level (followers are reached
        // through the leaders the search visits), so the tier's answer is
        // compared at the level its anchor searched: one of the shards'.
        let mut levels = flag_levels(cluster, &c, at)?;
        levels.sort_unstable();
        levels.dedup();
        if levels.len() > 1 {
            report.nn_split_levels += 1;
        }
        let (got, stats) = cluster.nn(c, NN_K, at)?;
        if stats.shards_scattered > 1 {
            report.nn_scattered += 1;
        }
        let mut wanted = Vec::new();
        for &level in &levels {
            let (want, _) = oracle.nn_at_level(c, NN_K, at, level)?;
            wanted.push((level, ids(&want)));
        }
        if !wanted.iter().any(|(_, want)| *want == ids(&got)) {
            report.failures.push(format!(
                "nn at ({:.1}, {:.1}): tier {:?} != oracle (level, ids) {:?}",
                c.x,
                c.y,
                ids(&got),
                wanted
            ));
        }
    }
    for _ in 0..REGION_SAMPLES {
        let c = Point::new(rng.unit() * MAP, rng.unit() * MAP);
        let rect = region_window(&mut rng, c);
        let (got, _) = cluster.region(&rect, at, REGION_MARGIN)?;
        let (want, _) = oracle.region(&rect, at, REGION_MARGIN)?;
        if sorted_ids(&got) != sorted_ids(&want) {
            report.failures.push(format!(
                "region {rect:?}: tier has {} objects, oracle {}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(report)
}

/// Every object's position through the tier at `at`, by object id.
pub fn positions(
    cluster: &MoistCluster,
    population: u64,
    at: Timestamp,
) -> Result<Vec<Option<Point>>> {
    (0..population)
        .map(|oid| cluster.position(ObjectId(oid), at))
        .collect()
}

/// After recovery, every object must resolve to the position the drained
/// tier gave it before the crash: an update acknowledged after the
/// checkpoint and lost by replay shows as a moved or missing object.
pub fn same_positions(
    cluster: &MoistCluster,
    before: &[Option<Point>],
    at: Timestamp,
) -> Result<Vec<String>> {
    let mut differ = 0u64;
    let mut first = None;
    for (oid, want) in before.iter().enumerate() {
        let got = cluster.position(ObjectId(oid as u64), at)?;
        if want.is_none() || got != *want {
            differ += 1;
            first.get_or_insert((oid, *want, got));
        }
    }
    Ok(match first {
        None => Vec::new(),
        Some((oid, want, got)) => vec![format!(
            "{differ} acknowledged objects do not resolve to their pre-crash position \
             after recovery (first: oid {oid}, before {want:?}, after {got:?})"
        )],
    })
}
