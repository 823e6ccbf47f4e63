//! Property tests for rendezvous cell ownership — the minimal-remap
//! contract elastic membership rests on (vendored proptest):
//!
//! 1. **join** — adding one shard to an N-shard membership remaps at most
//!    ⌈cells/(N+1)⌉ plus statistical slack, and every remapped cell moves
//!    *to the joiner* (an exact structural property, not a bound);
//! 2. **leave** — removing one shard remaps exactly the departed shard's
//!    cells and nothing else;
//! 3. **order independence** — ownership is a function of the membership
//!    *set*, not the order the ids are listed in;
//! 4. **agreement** — [`ClusterScheduler::for_member`] slices form an
//!    exact partition that agrees with [`rendezvous_owner`], so routing
//!    and clustering can never disagree about a cell's home shard.
//!
//! The load-aware placement layer extends the contract (same suite):
//!
//! 5. **proportional share** — under [`weighted_rendezvous_owner`] each
//!    member owns a key share proportional to its weight, within
//!    statistical slack;
//! 6. **weight-change minimality** — raising one member's weight only
//!    moves keys *to* it, lowering it only moves keys *away* from it;
//! 7. **split-table agreement** — with weights and hot-cell splits in
//!    play, [`ClusterScheduler::for_placement`] slices still partition
//!    the routing keys exactly and agree with the weighted owner of every
//!    leaf's routing key, and [`slice_ranges_by_replicas`] remains an
//!    exact partition of any range set.
//!
//! The replicated-ownership layer extends it again (same suite):
//!
//! 8. **rank-0 pin** — `rendezvous_owners(key, m, 1)` is bit-identical to
//!    the single `rendezvous_owner` (weighted variant included), so a
//!    `replicas == 1` tier is exactly the pre-replica tier;
//! 9. **prefix stability** — a join or leave never reorders the surviving
//!    members of a replica set: a leave promotes the next-ranked member in
//!    place, a join can only insert the joiner (possibly displacing the
//!    tail) — the property instant follower promotion rests on;
//! 10. **replica slicing** — for 1–3 replicas, split cells and any load
//!     signal, [`slice_ranges_by_replicas`] partitions a range set
//!     exactly and hands each piece to a member of its key's replica set:
//!     the weighted primary at one replica, a follower only when it is
//!     strictly less loaded.
//!
//! The pipelined ingestion layer extends it again (same suite):
//!
//! 11. **epoch-crossing flush** — a batch enqueued under epoch E and
//!     drained by a join or leave under epoch E+1 lands every update on
//!     its key's *current* rank-0 primary exactly once: enqueue-time
//!     routing is advisory, apply-time routing is authoritative.

use moist_bigtable::{Bigtable, Timestamp};
use moist_core::{
    rendezvous_owner, rendezvous_owners, slice_ranges_by_replicas, weighted_rendezvous_owner,
    weighted_rendezvous_owners, ClusterScheduler, IngestConfig, MoistCluster, MoistConfig,
    ObjectId, ShardWeight, SplitTable, SubmitOutcome, UpdateMessage,
};
use moist_spatial::{Point, Velocity};
use proptest::prelude::*;
use std::collections::HashMap;

/// A membership of 1–12 distinct shard ids drawn from a wide id space
/// (ids are never reused in the tier, so gaps and large values are the
/// norm after churn).
fn membership(rng: &mut TestRng, max_len: usize) -> Vec<u64> {
    let len = 1 + (rng.below(max_len as u64) as usize);
    let mut ids = Vec::with_capacity(len);
    while ids.len() < len {
        let id = rng.below(1 << 20);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

/// Fisher–Yates shuffle driven by the deterministic test RNG.
fn shuffled(rng: &mut TestRng, mut ids: Vec<u64>) -> Vec<u64> {
    for i in (1..ids.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids
}

/// Up to `max` disjoint, non-adjacent merged ranges over the leaf span —
/// the shape `plan_region_ranges` produces (gaps of 1..=`gap` keep them
/// maximal); the full span when the level is too small for any.
fn random_ranges(rng: &mut TestRng, leaf_level: u8, max: usize, gap: u64) -> Vec<(u64, u64)> {
    let leaf_span = 1u64 << (2 * leaf_level as u64);
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut cursor = rng.below(8);
    while cursor < leaf_span && ranges.len() < max {
        let len = 1 + rng.below(leaf_span.div_ceil(6).max(1));
        let end = (cursor + len).min(leaf_span);
        ranges.push((cursor, end));
        cursor = end + 1 + rng.below(gap);
    }
    if ranges.is_empty() {
        ranges.push((0, leaf_span));
    }
    ranges
}

/// An arbitrary per-shard load, non-finite values included: the slicer
/// must partition exactly whatever the load signal reads.
fn random_loads(rng: &mut TestRng, ids: &[u64]) -> HashMap<u64, f64> {
    let choices = [0.0, 1.0, 5.0, 250.0, f64::INFINITY, f64::NAN];
    ids.iter()
        .map(|&id| (id, choices[rng.below(choices.len() as u64) as usize]))
        .collect()
}

/// Flattens every shard's slices, checks they never overlap, and
/// re-merges adjacent pieces: an exact partition rebuilds the input
/// range set — no leaf index dropped, duplicated, or moved.
fn rebuilt(slices: &[(u64, Vec<(u64, u64)>)]) -> Vec<(u64, u64)> {
    let mut flat: Vec<(u64, u64)> = slices.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    flat.sort_unstable();
    for pair in flat.windows(2) {
        prop_assert!(pair[0].1 <= pair[1].0, "overlapping slices: {:?}", pair);
    }
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, end) in flat {
        match out.last_mut() {
            Some((_, e)) if *e == start => *e = end,
            _ => out.push((start, end)),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn join_remaps_at_most_its_fair_share_and_only_to_the_joiner(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("join_remap", seed);
        let ids = membership(&mut rng, 12);
        let joiner = loop {
            let id = rng.below(1 << 20) + (1 << 20); // disjoint from members
            if !ids.contains(&id) {
                break id;
            }
        };
        let mut grown = ids.clone();
        grown.push(joiner);
        let cells: u64 = 1024;
        let n1 = grown.len() as u64;

        let mut remapped = 0u64;
        for cell in 0..cells {
            let before = rendezvous_owner(cell, &ids);
            let after = rendezvous_owner(cell, &grown);
            if before != after {
                remapped += 1;
                // Exact structural property: a cell only ever moves to the
                // joiner — the incumbents' weights did not change.
                prop_assert_eq!(after, joiner, "cell {} moved between incumbents", cell);
            }
        }
        // The joiner's fair share is cells/(N+1). The winner counts are
        // binomial-ish, so allow generous slack — but stay far below the
        // near-total remap a modular hash over the count would cause.
        let fair = cells.div_ceil(n1);
        let slack = fair / 2 + 32;
        prop_assert!(
            remapped <= fair + slack,
            "remapped {} of {} cells; fair share {} (+{} slack) with {} members",
            remapped, cells, fair, slack, n1
        );
    }

    #[test]
    fn leave_remaps_exactly_the_departed_shards_cells(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("leave_remap", seed);
        let mut ids = membership(&mut rng, 12);
        if ids.len() < 2 {
            ids.push(ids[0] + 1);
        }
        let departed = ids[rng.below(ids.len() as u64) as usize];
        let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();

        for cell in 0..1024u64 {
            let before = rendezvous_owner(cell, &ids);
            let after = rendezvous_owner(cell, &survivors);
            if before == departed {
                // The departed shard's cells land on some survivor.
                prop_assert!(survivors.contains(&after));
            } else {
                // Everyone else's cells do not move at all.
                prop_assert_eq!(after, before, "cell {} moved without cause", cell);
            }
        }
    }

    #[test]
    fn ownership_is_independent_of_membership_list_order(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("order_independence", seed);
        let ids = membership(&mut rng, 12);
        let reordered = shuffled(&mut rng, ids.clone());
        for cell in 0..512u64 {
            prop_assert_eq!(
                rendezvous_owner(cell, &ids),
                rendezvous_owner(cell, &reordered),
                "cell {} owner depends on list order", cell
            );
        }
    }

    #[test]
    fn owner_sliced_ranges_exactly_partition_the_range_set(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("owner_slices", seed);
        let ids = membership(&mut rng, 10);
        let members: Vec<ShardWeight> = ids.iter().map(|&id| ShardWeight::unit(id)).collect();
        let clustering_level = (rng.below(6) + 1) as u8; // 1..=6
        let leaf_level = clustering_level + (rng.below(5) as u8); // up to +4 finer
        let shift = 2 * (leaf_level - clustering_level) as u64;
        let ranges = random_ranges(&mut rng, leaf_level, 24, 16);
        let loads = random_loads(&mut rng, &ids);

        let slices = slice_ranges_by_replicas(
            &ranges,
            clustering_level,
            leaf_level,
            &members,
            &SplitTable::new(),
            1,
            |id| loads[&id],
        );

        // Every slice belongs to the rendezvous owner of every clustering
        // cell it spans.
        for (owner, slice) in &slices {
            prop_assert!(ids.contains(owner));
            for &(start, end) in slice {
                prop_assert!(start < end, "empty slice range");
                for cell in (start >> shift)..=((end - 1) >> shift) {
                    prop_assert_eq!(
                        rendezvous_owner(cell, &ids), *owner,
                        "slice [{}, {}) spans cell {} owned elsewhere", start, end, cell
                    );
                }
            }
        }
        prop_assert_eq!(rebuilt(&slices), ranges, "slices do not rebuild the input range set");
    }

    #[test]
    fn replica_sliced_ranges_exactly_partition_the_range_set(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("replica_slices", seed);
        let ids = membership(&mut rng, 8);
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: 0.5 + rng.below(6) as f64 / 2.0,
            })
            .collect();
        let clustering_level = (rng.below(5) + 1) as u8; // 1..=5
        let leaf_level = clustering_level + (rng.below(5) as u8); // up to +4 finer
        let mut splits = SplitTable::new();
        if leaf_level > clustering_level {
            let cells = 1u64 << (2 * clustering_level as u64);
            for _ in 0..rng.below(4) {
                splits.split(rng.below(cells));
            }
        }
        let replicas = 1 + rng.below(3) as usize; // 1..=3
        let ranges = random_ranges(&mut rng, leaf_level, 24, 16);
        let loads = random_loads(&mut rng, &ids);
        let load = |id: u64| loads[&id];

        let slices = slice_ranges_by_replicas(
            &ranges,
            clustering_level,
            leaf_level,
            &members,
            &splits,
            replicas,
            load,
        );
        prop_assert_eq!(rebuilt(&slices), ranges, "slices do not rebuild the input range set");

        // Walk every slice at routing-key granularity (child cells when
        // split cells are possible): each key's piece went to a member of
        // its replica set — exactly the weighted primary at `replicas == 1`,
        // and a follower only when it is strictly less loaded.
        let step = 2 * (leaf_level - clustering_level).saturating_sub(1) as u64;
        for (reader, slice) in &slices {
            for &(start, end) in slice {
                for unit in (start >> step)..=((end - 1) >> step) {
                    let leaf = (unit << step).max(start);
                    let key = splits.route_leaf(leaf, clustering_level, leaf_level);
                    let set = weighted_rendezvous_owners(key, &members, replicas);
                    prop_assert!(
                        set.contains(reader),
                        "leaf {} (key {:#x}) read by {} outside its replica set {:?}",
                        leaf, key, reader, set
                    );
                    if replicas == 1 {
                        prop_assert_eq!(*reader, weighted_rendezvous_owner(key, &members));
                    } else if *reader != set[0] {
                        prop_assert!(load(*reader) < load(set[0]), "follower read without a load win");
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_ownership_share_tracks_weight(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("weighted_share", seed);
        let ids = membership(&mut rng, 6);
        let weight_choices = [0.5, 1.0, 2.0, 4.0];
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: weight_choices[rng.below(weight_choices.len() as u64) as usize],
            })
            .collect();
        let total_weight: f64 = members.iter().map(|m| m.weight).sum();
        let keys = 4096u64;
        let mut won = vec![0u64; members.len()];
        for key in 0..keys {
            let owner = weighted_rendezvous_owner(key, &members);
            let pos = members.iter().position(|m| m.id == owner).unwrap();
            won[pos] += 1;
        }
        for (pos, m) in members.iter().enumerate() {
            let expect = keys as f64 * m.weight / total_weight;
            let got = won[pos] as f64;
            // Binomial-ish noise: half the expectation plus a flat floor
            // covers the small-share members without hiding a broken
            // weighting (which would be off by integer factors).
            prop_assert!(
                (got - expect).abs() <= expect * 0.5 + 48.0,
                "member {} (w={}) won {} of {} keys, expected ≈{:.0}",
                m.id, m.weight, got, keys, expect
            );
        }
    }

    #[test]
    fn weight_change_remaps_only_toward_or_away_from_the_reweighted_shard(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("weight_change_remap", seed);
        let ids = membership(&mut rng, 8);
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: 0.5 + rng.below(8) as f64 / 2.0,
            })
            .collect();
        let target = members[rng.below(members.len() as u64) as usize].id;
        let rescale = |factor: f64| -> Vec<ShardWeight> {
            members
                .iter()
                .map(|m| ShardWeight {
                    id: m.id,
                    weight: if m.id == target { m.weight * factor } else { m.weight },
                })
                .collect()
        };
        let raised = rescale(2.0);
        let lowered = rescale(0.5);
        let mut toward = 0u64;
        for key in 0..1024u64 {
            let before = weighted_rendezvous_owner(key, &members);
            let up = weighted_rendezvous_owner(key, &raised);
            if up != before {
                // An exact structural property: only the raised member's
                // score changed, so keys can only move *to* it.
                prop_assert_eq!(up, target, "key {} moved between bystanders", key);
                toward += 1;
            }
            let down = weighted_rendezvous_owner(key, &lowered);
            if down != before {
                prop_assert_eq!(before, target, "key {} left an un-reweighted shard", key);
                prop_assert!(down != target);
            }
        }
        // Doubling a weight must actually attract keys (unless the member
        // already owned essentially everything).
        let owned_before = (0..1024u64)
            .filter(|&k| weighted_rendezvous_owner(k, &members) == target)
            .count();
        prop_assert!(
            toward > 0 || owned_before > 900,
            "doubling member {}'s weight attracted nothing (owned {} before)",
            target, owned_before
        );
    }

    #[test]
    fn split_table_routing_agrees_with_scheduler_partitioning(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("split_table_agreement", seed);
        let ids = membership(&mut rng, 6);
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: 0.5 + rng.below(6) as f64 / 2.0,
            })
            .collect();
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            ..MoistConfig::default()
        };
        let mut splits = SplitTable::new();
        for _ in 0..(1 + rng.below(3)) {
            splits.split(rng.below(64));
        }

        // The for_placement slices partition the routing keys exactly.
        let scheds: Vec<ClusterScheduler> = ids
            .iter()
            .map(|&m| ClusterScheduler::for_placement(&cfg, m, &members, &splits))
            .collect();
        let keys = splits.routing_keys(cfg.clustering_level);
        let total: usize = scheds.iter().map(|s| s.owned_count()).sum();
        prop_assert_eq!(total, keys.len(), "schedulers must partition the routing keys");
        for &key in &keys {
            let winner = weighted_rendezvous_owner(key, &members);
            for (pos, sched) in scheds.iter().enumerate() {
                prop_assert_eq!(
                    sched.owns(key),
                    ids[pos] == winner,
                    "routing key {:#x} ownership disagrees with routing", key
                );
            }
        }

        // Sampled leaves route to a key owned by exactly the shard that
        // schedules it — update routing and clustering can never disagree,
        // split cells included.
        let leaf_level = cfg.space.leaf_level;
        let leaf_span = 1u64 << (2 * leaf_level as u64);
        for _ in 0..128 {
            let leaf = rng.below(leaf_span);
            let key = splits.route_leaf(leaf, cfg.clustering_level, leaf_level);
            prop_assert!(keys.contains(&key));
            let winner = weighted_rendezvous_owner(key, &members);
            let pos = ids.iter().position(|&m| m == winner).unwrap();
            prop_assert!(scheds[pos].owns(key), "leaf {} schedules elsewhere", leaf);
        }

        // The range slicer stays an exact partition with weights and
        // splits in play, and every slice's leaves route to its owner.
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut cursor = rng.below(1 << 8);
        while cursor < leaf_span && ranges.len() < 16 {
            let len = 1 + rng.below(leaf_span / 5);
            let end = (cursor + len).min(leaf_span);
            ranges.push((cursor, end));
            cursor = end + 1 + rng.below(1 << 30);
        }
        if ranges.is_empty() {
            ranges.push((0, leaf_span));
        }
        let loads = random_loads(&mut rng, &ids);
        let slices = slice_ranges_by_replicas(
            &ranges,
            cfg.clustering_level,
            leaf_level,
            &members,
            &splits,
            1,
            |id| loads[&id],
        );
        prop_assert_eq!(rebuilt(&slices), ranges, "placement slices do not rebuild the input");
        for (owner, slice) in &slices {
            for &(start, end) in slice {
                for leaf in [start, end - 1] {
                    let key = splits.route_leaf(leaf, cfg.clustering_level, leaf_level);
                    prop_assert_eq!(weighted_rendezvous_owner(key, &members), *owner);
                }
            }
        }
    }

    #[test]
    fn scheduler_slices_partition_the_level_and_agree_with_routing(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("scheduler_agreement", seed);
        let ids = membership(&mut rng, 8);
        let cfg = MoistConfig {
            clustering_level: 4, // 256 cells
            ..MoistConfig::default()
        };
        let scheds: Vec<ClusterScheduler> = ids
            .iter()
            .map(|&m| ClusterScheduler::for_member(&cfg, m, &ids))
            .collect();
        let total: usize = scheds.iter().map(|s| s.owned_count()).sum();
        prop_assert_eq!(total, 256, "members {:?} must partition the level", ids);
        for cell in 0..256u64 {
            let winner = rendezvous_owner(cell, &ids);
            for (pos, sched) in scheds.iter().enumerate() {
                prop_assert_eq!(
                    sched.owns(cell),
                    ids[pos] == winner,
                    "cell {} ownership disagrees with routing", cell
                );
            }
        }
    }

    #[test]
    fn replica_set_rank_zero_is_the_single_owner_bit_identically(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("replica_rank0", seed);
        let ids = membership(&mut rng, 12);
        // Mix equal and unequal weights so the PR-5 tie-break (hash, then
        // smaller id) is exercised, not just the score comparison.
        let members: Vec<ShardWeight> = ids
            .iter()
            .map(|&id| ShardWeight {
                id,
                weight: if rng.below(2) == 0 { 1.0 } else { 0.5 + rng.below(6) as f64 / 2.0 },
            })
            .collect();
        for key in 0..1024u64 {
            // k = 1 is the pre-replica tier, bit for bit.
            prop_assert_eq!(
                rendezvous_owners(key, &ids, 1),
                vec![rendezvous_owner(key, &ids)]
            );
            prop_assert_eq!(
                weighted_rendezvous_owners(key, &members, 1),
                vec![weighted_rendezvous_owner(key, &members)]
            );
            // And rank 0 of any larger set is still that winner, with all
            // members distinct and the set clamped to the membership.
            let k = 1 + (rng.below(4) as usize);
            let owners = weighted_rendezvous_owners(key, &members, k);
            prop_assert_eq!(owners.len(), k.min(members.len()));
            prop_assert_eq!(owners[0], weighted_rendezvous_owner(key, &members));
            let mut dedup = owners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), owners.len(), "replica set repeats a member");
        }
    }

    #[test]
    fn replica_sets_are_prefix_stable_under_join_and_leave(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("replica_prefix", seed);
        let mut ids = membership(&mut rng, 10);
        if ids.len() < 2 {
            ids.push(ids[0] + 1);
        }
        let k = 2 + (rng.below(2) as usize); // 2..=3, the practical range
        let departed = ids[rng.below(ids.len() as u64) as usize];
        let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();
        let joiner = loop {
            let id = rng.below(1 << 20) + (1 << 20);
            if !ids.contains(&id) {
                break id;
            }
        };
        let mut grown = ids.clone();
        grown.push(joiner);

        for key in 0..1024u64 {
            let before = rendezvous_owners(key, &ids, k);

            // Leave: the departed member drops out of every set it was in;
            // everyone else keeps their relative rank (a rank-0 departure
            // promotes the rank-1 follower in place — instant promotion),
            // and only the freed tail slot is refilled.
            let after_leave = rendezvous_owners(key, &survivors, k);
            let kept: Vec<u64> = before.iter().copied().filter(|&m| m != departed).collect();
            prop_assert!(
                after_leave.starts_with(&kept),
                "key {}: leave reordered survivors ({:?} -> {:?})", key, before, after_leave
            );

            // Join: incumbents never reorder — stripping the joiner from
            // the new set leaves a prefix of the old one.
            let after_join = rendezvous_owners(key, &grown, k);
            let incumbents: Vec<u64> =
                after_join.iter().copied().filter(|&m| m != joiner).collect();
            prop_assert!(
                before.starts_with(&incumbents),
                "key {}: join reordered incumbents ({:?} -> {:?})", key, before, after_join
            );
        }
    }

    #[test]
    fn epoch_crossing_flushes_land_once_on_the_current_primary(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("epoch_cross_flush", seed);
        let store = Bigtable::new();
        let shards = 2 + rng.below(4) as usize; // 2..=5 live shards
        let cluster = MoistCluster::builder(&store, MoistConfig::default())
            .shards(shards)
            .ingest(IngestConfig {
                batch_size: 4096, // nothing size-flushes: only the epoch bump drains
                ..IngestConfig::default()
            })
            .build()
            .unwrap();

        // Enqueue a randomized spread of registrations under epoch E.
        let n = 24 + rng.below(25) as usize; // 24..=48
        let mut msgs = Vec::with_capacity(n);
        for i in 0..n {
            let m = UpdateMessage {
                oid: ObjectId(i as u64),
                loc: Point::new(5.0 + rng.below(991) as f64, 5.0 + rng.below(991) as f64),
                vel: Velocity::new(1.0, 0.0),
                ts: Timestamp::from_secs(1),
            };
            prop_assert!(matches!(
                cluster.submit(&m).unwrap(),
                SubmitOutcome::Enqueued { .. }
            ));
            msgs.push(m);
        }
        let epoch_before = cluster.epoch();
        prop_assert_eq!(cluster.stats().updates, 0, "nothing may apply before the flush");
        prop_assert_eq!(cluster.ingest_stats().queued, n as u64);

        // Cross an epoch: a join or a leave, either of which publishes the
        // new membership *first* and then drains the queues under it.
        if rng.below(2) == 0 {
            cluster.add_shard().unwrap();
        } else {
            let ids = cluster.shard_ids();
            let victim = ids[rng.below(ids.len() as u64) as usize];
            cluster.remove_shard(victim).unwrap();
        }
        prop_assert_eq!(cluster.epoch(), epoch_before + 1);

        // Exactly once: every buffered update applied, none left, none doubled.
        let is = cluster.ingest_stats();
        prop_assert_eq!(is.queued, 0);
        prop_assert_eq!(is.flushed_updates, n as u64);
        prop_assert!(is.drain_flushes >= 1);
        prop_assert_eq!(is.backpressure + is.overload_shed, 0);
        prop_assert_eq!(cluster.stats().updates, n as u64);

        // ...and every one landed on its key's *current* rank-0 primary:
        // per-shard counters match the counts predicted by post-bump
        // routing, shard by shard (a departed victim absorbed nothing, so
        // the live shards account for the whole batch).
        let mut predicted = vec![0u64; cluster.shard_ids().len()];
        for m in &msgs {
            predicted[cluster.shard_for_point(&m.loc)] += 1;
        }
        let live: Vec<u64> = cluster.shard_stats().iter().map(|s| s.updates).collect();
        prop_assert_eq!(live, predicted);
    }
}
