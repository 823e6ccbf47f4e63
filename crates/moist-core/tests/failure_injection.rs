//! Failure injection: corrupted stored values, schema drift and hostile
//! inputs must surface as typed errors, never panics, and must not corrupt
//! unrelated state.

use moist_bigtable::{Bigtable, CostProfile, Mutation, RowKey, Session, Timestamp};
use moist_core::{
    apply_update, nn_query, LfRecord, MoistCluster, MoistConfig, MoistError, MoistServer,
    MoistTables, NnOptions, ObjectId, UpdateMessage, UpdateOutcome,
};
use moist_spatial::{CellId, Point, Rect, Velocity};
use std::sync::Arc;

fn setup() -> (
    Arc<Bigtable>,
    MoistTables,
    moist_bigtable::Session,
    MoistConfig,
) {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let tables = MoistTables::create(&store, &cfg).unwrap();
    let session = store.session_with(CostProfile::free());
    (store, tables, session, cfg)
}

fn msg(oid: u64, x: f64, y: f64) -> UpdateMessage {
    UpdateMessage {
        oid: ObjectId(oid),
        loc: Point::new(x, y),
        vel: Velocity::new(1.0, 0.0),
        ts: Timestamp::from_secs(1),
    }
}

#[test]
fn corrupted_lf_record_is_a_codec_error_not_a_panic() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Corrupt object 1's L/F record with garbage bytes.
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "lf",
                "lf",
                Timestamp::from_secs(2),
                vec![0xFF, 0x00, 0x13],
            )],
        )
        .unwrap();
    let err = apply_update(&mut s, &tables, &cfg, &msg(1, 101.0, 100.0)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)), "got {err:?}");
    // Other objects keep working.
    apply_update(&mut s, &tables, &cfg, &msg(2, 200.0, 200.0)).unwrap();
}

#[test]
fn corrupted_spatial_record_fails_queries_cleanly() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Overwrite the spatial row's record with a short buffer.
    let leaf = cfg.space.leaf_cell(&Point::new(100.0, 100.0)).index;
    tables
        .spatial
        .mutate_row(
            &RowKey::composite(leaf, 1),
            &[Mutation::put(
                "id",
                "r",
                Timestamp::from_secs(2),
                vec![1, 2, 3],
            )],
        )
        .unwrap();
    let err = nn_query(
        &mut s,
        &tables,
        &cfg,
        Point::new(100.0, 100.0),
        Timestamp::from_secs(2),
        &NnOptions::new(1, 4),
    )
    .unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn corrupted_follower_displacement_is_detected() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    // Plant a malformed Follower Info column on the leader's row.
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "followers",
                "00000000000000ff",
                Timestamp::from_secs(2),
                vec![9u8; 5], // too short for a displacement
            )],
        )
        .unwrap();
    let err = tables.followers(&mut s, ObjectId(1)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn malformed_follower_qualifier_is_detected() {
    let (_store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    tables
        .affiliation
        .mutate_row(
            &RowKey::from_u64(1),
            &[Mutation::put(
                "followers",
                "not-hex!",
                Timestamp::from_secs(2),
                moist_core::codec::encode_displacement(moist_spatial::Displacement::ZERO).to_vec(),
            )],
        )
        .unwrap();
    let err = tables.followers(&mut s, ObjectId(1)).unwrap_err();
    assert!(matches!(err, MoistError::Codec(_)));
}

#[test]
fn non_finite_inputs_rejected_everywhere() {
    let (_store, tables, mut s, cfg) = setup();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let m = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(bad, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::from_secs(1),
        };
        let err = apply_update(&mut s, &tables, &cfg, &m).unwrap_err();
        assert!(matches!(err, MoistError::InvalidInput(_)), "got {err:?}");
        let m = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(0.0, 0.0),
            vel: Velocity::new(0.0, bad),
            ts: Timestamp::from_secs(1),
        };
        let err = apply_update(&mut s, &tables, &cfg, &m).unwrap_err();
        assert!(matches!(err, MoistError::InvalidInput(_)), "got {err:?}");
    }
    // Nothing was registered by the rejected updates.
    assert!(tables.lf(&mut s, ObjectId(1)).unwrap().is_none());
}

#[test]
fn non_finite_query_centres_and_rects_are_invalid_input() {
    let store = Bigtable::new();
    let cfg = MoistConfig::default();
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(2)
        .build()
        .unwrap();
    let server = MoistServer::new(&store, cfg).unwrap();
    cluster.update(&msg(1, 100.0, 100.0)).unwrap();
    let at = Timestamp::from_secs(1);
    fn invalid<T: std::fmt::Debug>(r: Result<T, MoistError>, what: &str) {
        match r {
            Err(MoistError::InvalidInput(_)) => {}
            other => panic!("{what}: expected InvalidInput, got {other:?}"),
        }
    }
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let centre = Point::new(bad, 100.0);
        invalid(server.nn(centre, 1, at), "server nn");
        invalid(server.nn_at_level(centre, 1, at, 8), "server nn_at_level");
        invalid(cluster.nn(centre, 1, at), "cluster nn");
        invalid(cluster.nn_at_level(centre, 1, at, 8), "cluster nn_at_level");
        // `Rect::new` drops a NaN corner, so build the corners directly.
        let rect = Rect {
            min_x: 0.0,
            min_y: bad,
            max_x: 200.0,
            max_y: 200.0,
        };
        invalid(server.region(&rect, at, 0.0), "server region");
        invalid(cluster.region(&rect, at, 0.0), "cluster region");
    }
    // Finite inputs still answer.
    let (nn, _) = cluster.nn(Point::new(100.0, 100.0), 1, at).unwrap();
    assert_eq!(nn[0].oid, ObjectId(1));
}

#[test]
fn far_out_of_bounds_locations_are_clamped_not_lost() {
    let (_store, tables, mut s, cfg) = setup();
    // GPS glitches far outside the map still index (clamped to the border).
    apply_update(&mut s, &tables, &cfg, &msg(1, -5000.0, 90210.0)).unwrap();
    let (nn, _) = nn_query(
        &mut s,
        &tables,
        &cfg,
        Point::new(0.0, 1000.0),
        Timestamp::from_secs(1),
        &NnOptions::new(1, 4),
    )
    .unwrap();
    assert_eq!(nn.len(), 1);
    assert_eq!(nn[0].oid, ObjectId(1));
}

#[test]
fn dropped_table_surfaces_as_store_error() {
    let (store, tables, mut s, cfg) = setup();
    apply_update(&mut s, &tables, &cfg, &msg(1, 100.0, 100.0)).unwrap();
    store.drop_table(moist_core::table_names::LOCATION).unwrap();
    // Existing handles still work (the Arc keeps the data)…
    apply_update(&mut s, &tables, &cfg, &msg(1, 101.0, 100.0)).unwrap();
    // …but re-opening fails loudly.
    match MoistTables::open(&store) {
        Err(MoistError::Store(_)) => {}
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("open must fail after drop"),
    }
}

// ---- split-cell races between a leader's move and a child's merge ----
//
// Two shards own the two halves of a split clustering cell. A leader
// moving across the children's shared edge is applied by the new child's
// owner while the old child's owner may be mid-merge, so the move must
// take the spatial-row guard. The merge is driven step by step through the
// table calls `cluster_cell` makes (scan, guarded delete, affiliation
// rewrites), holding the old child owner's lock, and the move runs in
// between; a seed places the objects along the edge.

/// A 4-shard tier whose hot clustering cell is split, and two adjacent
/// children `a` and `b` of that cell owned by different shards.
struct SplitTier {
    store: Arc<Bigtable>,
    cluster: MoistCluster,
    cfg: MoistConfig,
    a: CellId,
    owner_a: usize,
    b: CellId,
    owner_b: usize,
}

fn split_tier() -> SplitTier {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        clustering_level: 3,
        ..MoistConfig::default()
    };
    let cluster = MoistCluster::builder(&store, cfg)
        .shards(4)
        .build()
        .unwrap();
    // 80% of the traffic hammers one cell, so the rebalance splits it.
    let hot = Point::new(437.0, 437.0);
    for sec in 0..40u64 {
        for i in 0..25u64 {
            let oid = sec * 25 + i;
            let (x, y) = if i < 20 {
                (hot.x + (i % 5) as f64, hot.y + (i / 5) as f64)
            } else {
                (
                    31.0 + 211.0 * (oid % 4) as f64,
                    31.0 + 311.0 * (oid % 3) as f64,
                )
            };
            let m = UpdateMessage {
                oid: ObjectId(oid % 600),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs_f64(sec as f64 + i as f64 / 25.0),
            };
            cluster.update(&m).unwrap();
        }
    }
    cluster.rebalance(Timestamp::from_secs(40)).unwrap();
    let hot_cell = cfg.space.cell_at(cfg.clustering_level, &hot);
    assert!(cluster.split_cells().contains(&hot_cell.index));
    // Consecutive Hilbert children share an edge.
    let children = hot_cell.children().unwrap();
    let (a, b) = children
        .windows(2)
        .map(|w| (w[0], w[1]))
        .find(|(a, b)| cluster.shard_for_cell(*a) != cluster.shard_for_cell(*b))
        .expect("a split cell's children spread over shards");
    let (owner_a, owner_b) = (cluster.shard_for_cell(a), cluster.shard_for_cell(b));
    SplitTier {
        store,
        cluster,
        cfg,
        a,
        owner_a,
        b,
        owner_b,
    }
}

/// A point in `from`, `frac` of the way from its centre to `to`'s centre,
/// shifted `along` (a fraction of the cell side) parallel to their edge.
fn toward(cfg: &MoistConfig, from: CellId, to: CellId, frac: f64, along: f64) -> Point {
    let c = |cell: CellId| cfg.space.to_world(&cell.center(cfg.space.curve));
    let (p, q) = (c(from), c(to));
    let (dx, dy) = (q.x - p.x, q.y - p.y);
    Point::new(p.x + frac * dx - along * dy, p.y + frac * dy + along * dx)
}

/// Object `oid`'s spatial rows inside `cells`.
fn spatial_rows(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    cells: &[CellId],
    oid: ObjectId,
) -> usize {
    cells
        .iter()
        .map(|&cell| {
            let rows = tables
                .spatial_scan_cell(s, cell, cfg.space.leaf_level, None)
                .unwrap();
            rows.iter().filter(|e| e.oid == oid).count()
        })
        .sum()
}

#[test]
fn a_child_boundary_crossing_takes_the_guard_against_the_childs_merge() {
    let SplitTier {
        store,
        cluster,
        cfg,
        a,
        owner_a,
        b,
        owner_b,
    } = split_tier();
    let tables = MoistTables::open(&store).unwrap();
    let mut probe = store.session_with(CostProfile::free());
    let mut rng = 0x5EED_u64;
    for seed in 0..8u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let along = ((rng >> 33) % 1000) as f64 / 1000.0 * 0.6 - 0.3;
        let depth = 0.30 + ((rng >> 17) % 100) as f64 / 100.0 * 0.18;
        let (start, end) = (
            toward(&cfg, a, b, depth, along),
            toward(&cfg, a, b, 1.0 - depth, along),
        );
        assert_eq!(cluster.shard_for_point(&start), owner_a);
        assert_eq!(cluster.shard_for_point(&end), owner_b);
        // Survivor `sv` and absorbed `j`: same velocity (one hex bin), no
        // followers, so the smaller id survives.
        let (sv, j) = (ObjectId(10_000 + 2 * seed), ObjectId(10_001 + 2 * seed));
        let now = Timestamp::from_secs(100 + 10 * seed);
        let report = |oid, loc, ts| UpdateMessage {
            oid,
            loc,
            vel: Velocity::new(1.0, 0.0),
            ts,
        };
        cluster.update(&report(sv, start, now)).unwrap();
        cluster.update(&report(j, start, now)).unwrap();
        let move_j = report(j, end, Timestamp(now.0 + 1));
        // Even seeds: the move lands between the merge's scan and its
        // commit, so the merge aborts. Odd seeds: the merge commits first,
        // so the move backs off until the merge has re-affiliated `j`.
        let move_first = seed % 2 == 0;
        cluster
            .with_shard(owner_a, |server| {
                let s = server.session_mut();
                let scanned = tables
                    .spatial_scan_cell(s, a, cfg.space.leaf_level, None)
                    .unwrap();
                let entry = *scanned.iter().find(|e| e.oid == j).unwrap();
                let survivor = *scanned.iter().find(|e| e.oid == sv).unwrap();
                if !move_first {
                    assert!(tables.spatial_check_and_delete(s, &entry).unwrap());
                }
                let before = store.metrics_snapshot();
                assert_eq!(
                    cluster.update(&move_j).unwrap(),
                    UpdateOutcome::LeaderUpdated
                );
                let d = store.metrics_snapshot().delta(&before);
                if move_first {
                    assert_eq!(
                        d.cas_ops, 1,
                        "seed {seed}: the crossing must take the guard"
                    );
                } else {
                    // The guard's read finds the row the merge deleted: the
                    // move writes its Location row and nothing else.
                    let ops = (d.read_ops, d.write_ops, d.batch_ops, d.cas_ops);
                    assert_eq!(ops, (2, 1, 0, 0), "seed {seed}: the move must back off");
                }
                if move_first {
                    assert!(
                        !tables.spatial_check_and_delete(s, &entry).unwrap(),
                        "the merge must abort after the move won"
                    );
                    return;
                }
                let disp = survivor.record.loc.displacement_to(&entry.record.loc);
                tables
                    .affiliation_batch(
                        s,
                        &[
                            MoistTables::clear_followers_mutation(j),
                            MoistTables::add_follower_mutation(sv, j, disp, now),
                        ],
                    )
                    .unwrap();
                let lf = LfRecord::Follower {
                    leader: sv,
                    displacement: disp,
                    since_us: now.0,
                };
                tables.set_lf(s, j, &lf, now).unwrap();
            })
            .unwrap();
        // Never a double sighting: `j` holds a spatial row exactly when it
        // leads, and a merged `j` sits in the survivor's school instead.
        let rows = spatial_rows(&mut probe, &tables, &cfg, &[a, b], j);
        let lf = tables.lf(&mut probe, j).unwrap().unwrap();
        if move_first {
            assert!(
                lf.is_leader() && rows == 1,
                "seed {seed}: {lf:?}, {rows} rows"
            );
        } else {
            assert_eq!(rows, 0, "seed {seed}: the backed-off move wrote no row");
            assert!(matches!(lf, LfRecord::Follower { leader, .. } if leader == sv));
            let school = tables.followers(&mut probe, sv).unwrap();
            assert!(school.iter().any(|&(f, _)| f == j));
        }
        // The next report decides against whatever school `j` is in.
        cluster
            .update(&report(j, end, Timestamp(now.0 + 2)))
            .unwrap();
        let rows = spatial_rows(&mut probe, &tables, &cfg, &[a, b], j);
        let leads = tables.lf(&mut probe, j).unwrap().unwrap().is_leader();
        assert_eq!(rows, usize::from(leads), "seed {seed}");
    }
}

#[test]
fn a_same_route_move_waits_for_the_owners_lock() {
    let SplitTier {
        store,
        cluster,
        cfg,
        a,
        owner_a,
        b,
        ..
    } = split_tier();
    let tables = MoistTables::open(&store).unwrap();
    let j = ObjectId(20_000);
    let (start, end) = (toward(&cfg, a, b, 0.1, 0.0), toward(&cfg, a, b, 0.2, 0.0));
    let leaf = |p: &Point| cfg.space.leaf_cell(p).index;
    assert_ne!(leaf(&start), leaf(&end));
    assert_eq!(cfg.space.cell_at(cfg.clustering_level + 1, &end), a);
    let report = |loc, secs| UpdateMessage {
        oid: j,
        loc,
        vel: Velocity::new(1.0, 0.0),
        ts: Timestamp::from_secs(secs),
    };
    cluster.update(&report(start, 100)).unwrap();
    let before = store.metrics_snapshot();
    let outcome = std::thread::scope(|scope| {
        let mover = cluster
            .with_shard(owner_a, |server| {
                // Child `a`'s owner is busy (as a merge of `a` would be):
                // the move routes to the same owner and must wait.
                let mover = scope.spawn(|| cluster.update(&report(end, 101)));
                std::thread::sleep(std::time::Duration::from_millis(100));
                assert!(
                    !mover.is_finished(),
                    "the move must wait for the owner's lock"
                );
                let s = server.session_mut();
                let rows = tables
                    .spatial_scan_cell(s, a, cfg.space.leaf_level, None)
                    .unwrap();
                let row = rows.iter().find(|e| e.oid == j).unwrap();
                assert_eq!(row.leaf_index, leaf(&start), "nothing moved under the lock");
                mover
            })
            .unwrap();
        mover.join().unwrap().unwrap()
    });
    assert_eq!(outcome, UpdateOutcome::LeaderUpdated);
    let delta = store.metrics_snapshot().delta(&before);
    assert_eq!(delta.cas_ops, 0, "a same-route move needs no guard");
    let mut s = store.session_with(CostProfile::free());
    let rows = tables
        .spatial_scan_cell(&mut s, a, cfg.space.leaf_level, None)
        .unwrap();
    let moved: Vec<_> = rows.iter().filter(|e| e.oid == j).collect();
    assert_eq!(moved.len(), 1);
    assert_eq!(moved[0].leaf_index, leaf(&end));
}
