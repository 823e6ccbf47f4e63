//! Scatter-gather fan-out under shard churn: a region query whose plan
//! spans several owners races live `add_shard`/`remove_shard` calls.
//!
//! The contract:
//!
//! * **no lost objects** — every scattered answer contains exactly the
//!   objects the single-shard oracle returns, on every iteration, while
//!   the membership (and therefore the owner slicing) changes underneath;
//! * **no duplicated objects** — the merge dedups per object across the
//!   shards' partials, even when a school expansion and a spatial entry
//!   surface the same object from two slices;
//! * **scattered NN stays exact** — boundary-hugging NN probes agree with
//!   the single-server frontier search through the churn.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{
    plan_region_ranges, slice_ranges_by_replicas, MoistCluster, MoistConfig, MoistServer, ObjectId,
    ShardWeight, SplitTable, UpdateMessage,
};
use moist::spatial::{Point, Velocity};
use moist::workload::ClientPool;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

mod common;

const SHARDS: usize = 4;
const QUERIERS: usize = 4;
const QUERY_ROUNDS: usize = 40;
/// Margin covering a school's displacement span (clustering cells at
/// level 3 are 125 world units; the diagonal bounds any school radius).
const MARGIN: f64 = 200.0;

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3, // 64 cells across the shards
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// Deterministic xorshift scatter in (0, 1000)².
fn scattered(n: u64) -> Vec<(u64, f64, f64)> {
    let mut state = 0xA076_1D64_78BD_642Fu64;
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

fn sorted_ids(hits: &[moist::core::Neighbor]) -> Vec<u64> {
    let mut ids: Vec<u64> = hits.iter().map(|n| n.oid.0).collect();
    ids.sort_unstable();
    ids
}

#[test]
fn region_fanout_matches_the_oracle_while_shards_join_and_leave() {
    let store = Bigtable::new();
    let cfg = tier_config();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(SHARDS)
        .build()
        .unwrap();
    for &(i, x, y) in &scattered(400) {
        cluster
            .update(&UpdateMessage {
                oid: ObjectId(i),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::ZERO,
            })
            .unwrap();
    }
    // One full clustering sweep: co-located zero-velocity leaders merge
    // into schools, so region answers exercise the school expansion and
    // the cross-shard dedup, not just raw spatial entries.
    cluster
        .run_due_clustering(Timestamp::from_secs(25))
        .unwrap();

    // The whole-map plan must genuinely span several owners, or the race
    // below would not scatter at all.
    let world = cfg.space.world;
    let ranges = plan_region_ranges(&cfg, &world, MARGIN);
    let members: Vec<ShardWeight> = cluster
        .shard_ids()
        .into_iter()
        .map(ShardWeight::unit)
        .collect();
    let slices = slice_ranges_by_replicas(
        &ranges,
        cfg.clustering_level,
        cfg.space.leaf_level,
        &members,
        &SplitTable::new(),
        1,
        |_| 0.0,
    );
    assert!(
        slices.len() >= 3,
        "whole-map plan must span >= 3 owners, got {}",
        slices.len()
    );

    // The single-shard oracle: one plain server over the same store.
    let oracle = MoistServer::new(&store, cfg).unwrap();
    let (expected, _) = oracle.region(&world, Timestamp::ZERO, MARGIN).unwrap();
    let expected_ids = sorted_ids(&expected);
    assert_eq!(expected_ids.len(), 400, "the oracle sees every object");
    let nn_probe = Point::new(499.9, 500.1); // hugs a cell boundary
    let nn_level = oracle.flag_level(&nn_probe, Timestamp::ZERO).unwrap();
    let (nn_expected, _) = oracle
        .nn_at_level(nn_probe, 12, Timestamp::ZERO, nn_level)
        .unwrap();
    let nn_expected_ids: Vec<u64> = nn_expected.iter().map(|n| n.oid.0).collect();

    // Race: worker 0 churns the membership (three joins, one leave) while
    // the queriers fan region + NN queries out across the moving slices.
    let churned = AtomicBool::new(false);
    let scattered_answers = AtomicU64::new(0);
    ClientPool::run(QUERIERS + 1, |w| {
        if w == 0 {
            for round in 0..3 {
                std::thread::sleep(std::time::Duration::from_millis(7));
                let joiner = cluster.add_shard().expect("live join under queries");
                if round == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(7));
                    cluster
                        .remove_shard(joiner)
                        .expect("live leave under queries");
                }
            }
            churned.store(true, Ordering::SeqCst);
            return;
        }
        for round in 0..QUERY_ROUNDS {
            let (hits, stats) = cluster
                .region(&world, Timestamp::ZERO, MARGIN)
                .expect("region must answer through churn");
            let ids = sorted_ids(&hits);
            let mut unique = ids.clone();
            unique.dedup();
            assert_eq!(unique.len(), ids.len(), "round {round}: duplicated objects");
            assert_eq!(ids, expected_ids, "round {round}: lost or phantom objects");
            if stats.shards_scattered >= 3 {
                scattered_answers.fetch_add(1, Ordering::Relaxed);
            }

            let (nn, _) = cluster
                .nn(nn_probe, 12, Timestamp::ZERO)
                .expect("NN must answer through churn");
            let nn_ids: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
            assert_eq!(nn_ids, nn_expected_ids, "round {round}: NN diverged");
        }
    });

    assert!(churned.load(Ordering::SeqCst), "the churner must finish");
    assert!(
        scattered_answers.load(Ordering::Relaxed) > 0,
        "at least some answers must have genuinely scattered across >= 3 shards"
    );
    // Post-churn: 4 + 3 joins − 1 leave = 6 shards, ownership still an
    // exact partition, and the scattered answer still matches the oracle.
    assert_eq!(cluster.num_shards(), SHARDS + 2);
    common::sole_owner_positions(&cluster);
    let (hits, stats) = cluster.region(&world, Timestamp::ZERO, MARGIN).unwrap();
    assert_eq!(sorted_ids(&hits), expected_ids);
    assert!(stats.shards_scattered >= 3, "stats: {stats:?}");
}
