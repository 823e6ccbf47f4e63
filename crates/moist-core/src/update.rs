//! The MOIST update procedure (Algorithm 1, §3.3.1).
//!
//! An update message is the 4-tuple `(ID, Loc, V, t)`. The procedure has
//! three branches: leader update, shed follower update, and follower
//! departure. A fourth branch — first sight of an object — registers it as
//! the leader of a fresh single-member school (the paper leaves
//! registration implicit).
//!
//! One implementation serves one message and many: a call reads a view of
//! its messages' rows first (point reads for one message, one multi-get
//! per table for more), runs each message's step against it, and buffers
//! the plain writes in a [`WriteBatch`]. One message's writes go out as
//! single-row writes, a batch's as one multi-row RPC per table.
//!
//! **Which leader moves are guarded.** An update runs on the owner of its
//! new leaf's routing key, under that owner's lock; the old leaf's cell is
//! clustered by the owner of the old leaf's key. A key is a clustering
//! cell, or one of its children at `clustering_level + 1` when the cell is
//! split, so two leaves in one level+1 cell share a key under every split
//! table ([`SplitTable::split_safe_cell`]). A move inside one level+1 cell
//! serializes with the merge on one lock and takes the plain delete+put. A
//! move across a level+1 boundary may run beside the old cell's merge on
//! another shard: it deletes the old spatial row by check-and-mutate on
//! the value it read, the guard a merge commits through, so exactly one
//! wins, and a move that loses skips its spatial and L/F rewrites.
//!
//! The leader's `last_leaf` L/F write lands just past the head timestamp
//! line 1 read ([`supersede_ts`]), with no second read: a merge that could
//! rewrite that head is excluded by the lock (same key) or by the won
//! guard (across keys).

use crate::cluster::SplitTable;
use crate::codec::{LfRecord, LocationRecord};
use crate::config::MoistConfig;
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use crate::school::within_school;
use crate::tables::{supersede_ts, MoistTables, WriteBatch};
use moist_bigtable::{Session, Timestamp};
use moist_spatial::{Point, Velocity};

/// One location update from a mobile client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateMessage {
    /// The reporting object.
    pub oid: ObjectId,
    /// Reported world-coordinate location.
    pub loc: Point,
    /// Reported velocity.
    pub vel: Velocity,
    /// Report time.
    pub ts: Timestamp,
}

impl UpdateMessage {
    /// Rejects a non-finite location or velocity as
    /// [`MoistError::InvalidInput`].
    pub fn validate(&self) -> Result<()> {
        if self.loc.is_finite() && self.vel.is_finite() {
            return Ok(());
        }
        let why = format!("non-finite update for {}", self.oid);
        Err(MoistError::InvalidInput(why))
    }
}

/// What the update procedure did with a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// First sight: the object became the leader of a new school.
    Registered,
    /// Leader branch: Location (and, unless a racing clustering merge
    /// absorbed the object mid-move, Spatial Index) tables updated.
    LeaderUpdated,
    /// Follower within ε of its estimate: the update was shed — zero
    /// writes reached the store.
    Shed,
    /// Follower left its school and became a leader of a new school.
    Departed {
        /// The school it left.
        old_leader: ObjectId,
    },
}

/// Applies Algorithm 1 for one message ([`apply_update_batch`] with a
/// batch of one). Returns what happened, so callers can track shed ratios.
pub fn apply_update(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    msg: &UpdateMessage,
) -> Result<UpdateOutcome> {
    Ok(apply_update_batch(s, tables, cfg, std::slice::from_ref(msg))?[0])
}

/// Applies Algorithm 1 to messages in order; the outcomes align with
/// `msgs`, and the store ends as if each message had been applied alone.
///
/// The view keeps a batch honest: once the batch writes (or buffers a
/// write for) an object, a later message for that object, or for a
/// follower of it, flushes the buffer and runs alone against rows read
/// afresh. Every message is validated up front, so a malformed message
/// fails the whole batch before any store access.
pub fn apply_update_batch(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    msgs: &[UpdateMessage],
) -> Result<Vec<UpdateOutcome>> {
    for msg in msgs {
        msg.validate()?;
    }
    let flush = |s: &mut Session, wb: &mut WriteBatch| match msgs.len() {
        1 => tables.flush_unbatched(s, wb),
        _ => tables.flush_write_batch(s, wb),
    };
    let mut view = View::read(s, tables, cfg, msgs)?;
    let mut wb = WriteBatch::new();
    let mut out = Vec::with_capacity(msgs.len());
    for msg in msgs {
        let stepped = if view.is_fresh_for(msg) {
            step(s, tables, cfg, &view, msg, &mut wb)?
        } else {
            None
        };
        let outcome = match stepped {
            Some(outcome) => outcome,
            None => {
                flush(s, &mut wb)?;
                apply_alone(s, tables, cfg, msg)?
            }
        };
        // A shed writes nothing, so the view stays valid for the object.
        if outcome != UpdateOutcome::Shed {
            view.mark_written(msg.oid);
        }
        out.push(outcome);
    }
    flush(s, &mut wb)?;
    Ok(out)
}

/// Runs one message against rows read for it alone, re-reading after each
/// lost promotion guard: a racing merge re-affiliated the object, and the
/// retry decides against the new school.
fn apply_alone(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    msg: &UpdateMessage,
) -> Result<UpdateOutcome> {
    loop {
        let view = View::read(s, tables, cfg, std::slice::from_ref(msg))?;
        let mut wb = WriteBatch::new();
        let stepped = step(s, tables, cfg, &view, msg, &mut wb)?;
        tables.flush_unbatched(s, &mut wb)?;
        if let Some(outcome) = stepped {
            return Ok(outcome);
        }
    }
}

/// Whether a leader moving from `old_leaf` to `new_leaf` stays inside one
/// routing key under any split table (see the module docs).
fn same_route(cfg: &MoistConfig, old_leaf: u64, new_leaf: u64) -> bool {
    let (cl, ll) = (cfg.clustering_level, cfg.space.leaf_level);
    SplitTable::split_safe_cell(old_leaf, cl, ll) == SplitTable::split_safe_cell(new_leaf, cl, ll)
}

/// Everything the messages of one call read, fetched before any write.
/// Each list is sorted by object id; the first message per object decides
/// what is read for it.
struct View {
    /// Line 1: each object's L/F head with its timestamp.
    lf: Vec<(ObjectId, Option<(Timestamp, LfRecord)>)>,
    /// Whether the call has written each object of `lf` since the read.
    written: Vec<bool>,
    /// Lines 5–6: each follower's leader's latest location.
    leader_locs: Vec<(ObjectId, Option<(Timestamp, LocationRecord)>)>,
    /// Each guarded move's old spatial row value: the guard's expectation.
    guards: Vec<(ObjectId, Option<Vec<u8>>)>,
}

/// The entry of `oid` in a list sorted by object id.
fn entry<T>(list: &[(ObjectId, T)], oid: ObjectId) -> Option<&T> {
    let i = list.binary_search_by_key(&oid, |e| e.0).ok()?;
    Some(&list[i].1)
}

impl View {
    /// Reads the L/F heads, then what they call for: the followers'
    /// leader locations and the guarded moves' old spatial rows. A single
    /// row is a point read, several one multi-get per table.
    fn read(
        s: &mut Session,
        tables: &MoistTables,
        cfg: &MoistConfig,
        msgs: &[UpdateMessage],
    ) -> Result<View> {
        let mut oids: Vec<ObjectId> = msgs.iter().map(|m| m.oid).collect();
        oids.sort_unstable();
        oids.dedup();
        let heads = match oids.as_slice() {
            [] => Vec::new(),
            [oid] => vec![tables.lf_versioned(s, *oid)?],
            _ => tables.batch_lf_versions(s, &oids)?,
        };
        let lf: Vec<_> = oids.into_iter().zip(heads).collect();

        let (mut leaders, mut moves) = (Vec::new(), Vec::new());
        for msg in msgs {
            match entry(&lf, msg.oid) {
                Some(Some((_, LfRecord::Follower { leader, .. }))) => leaders.push(*leader),
                Some(Some((_, LfRecord::Leader { last_leaf, .. }))) => {
                    let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
                    if !same_route(cfg, *last_leaf, new_leaf) {
                        moves.push((*last_leaf, msg.oid));
                    }
                }
                _ => {}
            }
        }
        leaders.sort_unstable();
        leaders.dedup();
        moves.sort_by_key(|&(_, oid)| oid);
        moves.dedup_by_key(|&mut (_, oid)| oid);
        let locs = match leaders.as_slice() {
            [] => Vec::new(),
            [leader] => vec![tables.latest_location(s, *leader)?],
            _ => tables.batch_latest_locations(s, &leaders)?,
        };
        let values = match moves.as_slice() {
            [] => Vec::new(),
            [(leaf, oid)] => vec![tables.spatial_value(s, *leaf, *oid)?],
            _ => tables.batch_spatial_values(s, &moves)?,
        };
        Ok(View {
            written: vec![false; lf.len()],
            lf,
            leader_locs: leaders.into_iter().zip(locs).collect(),
            guards: moves.into_iter().map(|(_, oid)| oid).zip(values).collect(),
        })
    }

    fn is_written(&self, oid: ObjectId) -> bool {
        let i = self.lf.binary_search_by_key(&oid, |e| e.0);
        i.is_ok_and(|i| self.written[i])
    }

    fn mark_written(&mut self, oid: ObjectId) {
        if let Ok(i) = self.lf.binary_search_by_key(&oid, |e| e.0) {
            self.written[i] = true;
        }
    }

    /// Whether the view still describes `msg`'s rows: neither the object
    /// nor (for a follower) its leader has been written since the read.
    fn is_fresh_for(&self, msg: &UpdateMessage) -> bool {
        !self.is_written(msg.oid)
            && match entry(&self.lf, msg.oid) {
                Some(Some((_, LfRecord::Follower { leader, .. }))) => !self.is_written(*leader),
                _ => true,
            }
    }
}

/// Algorithm 1 for one message against `view`, buffering its plain writes
/// in `wb`; guarded commits run at once. Returns `None` when a racing
/// clustering merge re-affiliated the object before its guarded
/// promotion: the caller re-reads and runs it again.
fn step(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    view: &View,
    msg: &UpdateMessage,
    wb: &mut WriteBatch,
) -> Result<Option<UpdateOutcome>> {
    let new_leaf = cfg.space.leaf_cell(&msg.loc).index;
    let record = LocationRecord {
        loc: msg.loc,
        vel: msg.vel,
        leaf_index: new_leaf,
    };
    // Line 1: is the object a leader or a follower?
    match *entry(&view.lf, msg.oid).expect("the view reads every message's object") {
        None => {
            // First sight: become a leader of a new (singleton) school. No
            // head version exists, so the L/F write lands at the report time.
            let lf = LfRecord::Leader {
                since_us: msg.ts.0,
                last_leaf: new_leaf,
            };
            wb.set_lf_at(msg.oid, &lf, msg.ts);
            wb.put_location(msg.oid, &record, msg.ts);
            wb.spatial_insert(new_leaf, msg.oid, &record, msg.ts);
            Ok(Some(UpdateOutcome::Registered))
        }
        Some((
            head_ts,
            LfRecord::Leader {
                since_us,
                last_leaf,
            },
        )) => {
            // Lines 2–3: leader path.
            wb.put_location(msg.oid, &record, msg.ts);
            if same_route(cfg, last_leaf, new_leaf) {
                wb.spatial_move(last_leaf, new_leaf, msg.oid, &record, msg.ts);
            } else {
                let expected = entry(&view.guards, msg.oid).expect("the view reads each guard");
                let won = match expected.as_deref() {
                    Some(expected) => {
                        tables.spatial_check_and_delete_value(s, last_leaf, msg.oid, expected)?
                    }
                    None => false,
                };
                if !won {
                    // A merge absorbed the object: the next update takes
                    // the follower branch against the merged school.
                    return Ok(Some(UpdateOutcome::LeaderUpdated));
                }
                wb.spatial_insert(new_leaf, msg.oid, &record, msg.ts);
            }
            if last_leaf != new_leaf {
                let lf = LfRecord::Leader {
                    since_us,
                    last_leaf: new_leaf,
                };
                wb.set_lf_at(msg.oid, &lf, supersede_ts(Some(head_ts), msg.ts));
            }
            Ok(Some(UpdateOutcome::LeaderUpdated))
        }
        Some((
            _,
            observed @ LfRecord::Follower {
                leader,
                displacement,
                ..
            },
        )) => {
            // Lines 5–6: estimate the follower's location from its leader.
            let leader_loc = entry(&view.leader_locs, leader).expect("the view reads each leader");
            let Some((leader_ts, leader_rec)) = *leader_loc else {
                // The leader's hot Location row is gone (aged out to the
                // disk family after a long quiet spell): self-heal by
                // promotion rather than estimating from stale data.
                return promote_to_leader(s, tables, msg, &record, new_leaf, &observed, None);
            };
            // Lines 7–8: within ε → shed, zero store writes.
            if within_school(
                &leader_rec,
                leader_ts,
                displacement,
                &msg.loc,
                msg.ts,
                cfg.epsilon,
            ) {
                return Ok(Some(UpdateOutcome::Shed));
            }
            // Lines 10–13: departure — become a leader of a new school.
            promote_to_leader(s, tables, msg, &record, new_leaf, &observed, Some(leader))
        }
    }
}

/// Lines 10–13 of Algorithm 1: remove the follower from its old school (if
/// any) and set it up as a leader.
///
/// The leader flag is flipped under a check-and-mutate guard on `observed`
/// (the affiliation record the departure decision was made against): a
/// clustering merge running on another shard may have re-affiliated the
/// object to a surviving leader between our read and this write, and a
/// blind overwrite would leave the object both inside the survivor's
/// school *and* holding its own spatial row — a permanent double sighting.
/// Returns `Ok(None)` when the guard fails, so the caller re-reads the
/// affiliation and re-decides against the new school.
fn promote_to_leader(
    s: &mut Session,
    tables: &MoistTables,
    msg: &UpdateMessage,
    record: &LocationRecord,
    new_leaf: u64,
    observed: &LfRecord,
    old_leader: Option<ObjectId>,
) -> Result<Option<UpdateOutcome>> {
    // Line 11: label ID a leader — only if nothing re-affiliated it since.
    let promoted = tables.lf_check_and_set(
        s,
        msg.oid,
        observed,
        &LfRecord::Leader {
            since_us: msg.ts.0,
            last_leaf: new_leaf,
        },
        msg.ts,
    )?;
    if !promoted {
        return Ok(None);
    }
    if let Some(leader) = old_leader {
        // Line 10: delete ID's entry from the old leader's Follower Info
        // *before* inserting the spatial row, so no instant shows the
        // object both as a school member and as a row of its own.
        tables.remove_follower(s, leader, msg.oid)?;
    }
    // A promoted follower owns no Spatial Index entry to clean up: the
    // clustering merge that demoted it deleted its row under a
    // check-and-mutate guard on the scanned value, so the row the merge
    // removed is exactly the row the object's last leader-path write
    // created (a racing move fails the guard and aborts the merge).
    // Line 12: Location Table.
    tables.put_location(s, msg.oid, record, msg.ts)?;
    // Line 13: Spatial Index Table.
    tables.spatial_insert(s, new_leaf, msg.oid, record, msg.ts)?;
    Ok(Some(match old_leader {
        Some(old_leader) => UpdateOutcome::Departed { old_leader },
        None => UpdateOutcome::Registered,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LfRecord;
    use moist_bigtable::{Bigtable, CostProfile};
    use moist_spatial::Displacement;
    use std::sync::Arc;

    fn setup(epsilon: f64) -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon,
            ..MoistConfig::default()
        };
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session, cfg)
    }

    fn msg(oid: u64, x: f64, y: f64, vx: f64, secs: u64) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(x, y),
            vel: Velocity::new(vx, 0.0),
            ts: Timestamp::from_secs(secs),
        }
    }

    #[test]
    fn first_update_registers_a_leader() {
        let (_st, t, mut s, cfg) = setup(5.0);
        let out = apply_update(&mut s, &t, &cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        assert_eq!(out, UpdateOutcome::Registered);
        assert!(t.lf(&mut s, ObjectId(1)).unwrap().unwrap().is_leader());
        let (_, rec) = t.latest_location(&mut s, ObjectId(1)).unwrap().unwrap();
        assert_eq!(rec.loc, Point::new(100.0, 100.0));
        // Present in the spatial index.
        let cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
    }

    #[test]
    fn leader_update_moves_spatial_entry_exactly_once() {
        let (_st, t, mut s, cfg) = setup(5.0);
        apply_update(&mut s, &t, &cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        let out = apply_update(&mut s, &t, &cfg, &msg(1, 600.0, 600.0, 1.0, 1)).unwrap();
        assert_eq!(out, UpdateOutcome::LeaderUpdated);
        // Old cell empty, new cell has exactly one entry.
        let old_cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let new_cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(600.0, 600.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, old_cc, cfg.space.leaf_level)
                .unwrap(),
            0
        );
        assert_eq!(
            t.spatial_count_cell(&mut s, new_cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
        // The LF record tracks the new leaf.
        match t.lf(&mut s, ObjectId(1)).unwrap().unwrap() {
            LfRecord::Leader { last_leaf, .. } => {
                assert_eq!(
                    last_leaf,
                    cfg.space.leaf_cell(&Point::new(600.0, 600.0)).index
                );
            }
            _ => panic!("leader expected"),
        }
    }

    /// A clustering tick can stamp an L/F head far ahead of the object's
    /// own clock. The leader's `last_leaf` write, clamped against the head
    /// line 1 read, must still become the newest version, alone or in a
    /// batch.
    #[test]
    fn a_leader_move_supersedes_an_lf_head_stamped_ahead_of_its_clock() {
        let (_st, t, mut s, cfg) = setup(5.0);
        for (oid, batched) in [(1u64, false), (2, true)] {
            apply_update(&mut s, &t, &cfg, &msg(oid, 100.0, 100.0, 1.0, 0)).unwrap();
            let lf = t.lf(&mut s, ObjectId(oid)).unwrap().unwrap();
            t.set_lf(&mut s, ObjectId(oid), &lf, Timestamp::from_secs(1000))
                .unwrap();
            let moved = [msg(oid, 101.0, 100.0, 1.0, 5), msg(99, 50.0, 50.0, 0.0, 5)];
            let msgs = if batched { &moved[..] } else { &moved[..1] };
            apply_update_batch(&mut s, &t, &cfg, msgs).unwrap();
            let want = cfg.space.leaf_cell(&Point::new(101.0, 100.0)).index;
            match t.lf_versioned(&mut s, ObjectId(oid)).unwrap().unwrap() {
                (ts, LfRecord::Leader { last_leaf, .. }) => {
                    assert_eq!(last_leaf, want, "batched: {batched}");
                    assert_eq!(ts, Timestamp(Timestamp::from_secs(1000).0 + 1));
                }
                other => panic!("leader expected, got {other:?}"),
            }
        }
    }

    /// Builds a two-object school: 1 leads, 2 follows at displacement (0,2).
    fn build_school(t: &MoistTables, s: &mut Session, cfg: &MoistConfig) {
        apply_update(s, t, cfg, &msg(1, 100.0, 100.0, 1.0, 0)).unwrap();
        t.set_lf(
            s,
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: Displacement::new(0.0, 2.0),
                since_us: 0,
            },
            Timestamp::ZERO,
        )
        .unwrap();
        t.add_follower(
            s,
            ObjectId(1),
            ObjectId(2),
            Displacement::new(0.0, 2.0),
            Timestamp::ZERO,
        )
        .unwrap();
    }

    #[test]
    fn follower_within_epsilon_is_shed() {
        let (st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        let writes_before = st.metrics_snapshot();
        // Leader at t=0 at (100,100) moving (1,0): estimate for follower at
        // t=10 is (110, 102). Report (111, 102): 1 unit off, ε=5 → shed.
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 111.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(out, UpdateOutcome::Shed);
        let writes_after = st.metrics_snapshot();
        assert_eq!(
            writes_after.write_ops + writes_after.batch_ops,
            writes_before.write_ops + writes_before.batch_ops,
            "a shed update must not write"
        );
        // Follower has no Location Table row of its own.
        assert!(t.latest_location(&mut s, ObjectId(2)).unwrap().is_none());
    }

    #[test]
    fn follower_beyond_epsilon_departs_and_leads() {
        let (_st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        // Report 300 units away from the estimate.
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 400.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(
            out,
            UpdateOutcome::Departed {
                old_leader: ObjectId(1)
            }
        );
        // Now a leader with its own rows.
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
        assert!(t.latest_location(&mut s, ObjectId(2)).unwrap().is_some());
        // Removed from the old leader's Follower Info.
        assert!(t.followers(&mut s, ObjectId(1)).unwrap().is_empty());
        // And it is in the spatial index at its reported location.
        let cc = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(400.0, 102.0));
        assert_eq!(
            t.spatial_count_cell(&mut s, cc, cfg.space.leaf_level)
                .unwrap(),
            1
        );
    }

    #[test]
    fn epsilon_zero_sheds_nothing() {
        let (_st, t, mut s, cfg) = setup(0.0);
        build_school(&t, &mut s, &cfg);
        // Even a perfect report departs under ε=0 *if* it deviates at all;
        // an exact match is still within the school (distance 0 ≤ 0).
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 110.0, 102.0, 1.0, 10)).unwrap();
        assert_eq!(out, UpdateOutcome::Shed, "exact estimate is distance 0");
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 110.1, 102.0, 1.0, 10)).unwrap();
        assert!(matches!(out, UpdateOutcome::Departed { .. }));
    }

    #[test]
    fn follower_with_vanished_leader_self_heals() {
        let (_st, t, mut s, cfg) = setup(5.0);
        // A follower whose leader has no Location row at all.
        t.set_lf(
            &mut s,
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: Displacement::ZERO,
                since_us: 0,
            },
            Timestamp::ZERO,
        )
        .unwrap();
        let out = apply_update(&mut s, &t, &cfg, &msg(2, 50.0, 50.0, 0.0, 1)).unwrap();
        assert_eq!(out, UpdateOutcome::Registered);
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
    }

    /// Store ops one call costs: `(reads, writes, batches, CAS)`. A CAS
    /// also counts as a read, plus a write when it applied.
    fn ops<R>(st: &Bigtable, f: impl FnOnce() -> R) -> (R, (u64, u64, u64, u64)) {
        let before = st.metrics_snapshot();
        let out = f();
        let d = st.metrics_snapshot().delta(&before);
        (out, (d.read_ops, d.write_ops, d.batch_ops, d.cas_ops))
    }

    /// From a leaf centre `base`: a spot in the same leaf, a leaf in the
    /// same routing key, and a leaf across a routing-key boundary.
    fn move_targets(cfg: &MoistConfig, base: Point) -> (Point, Point, Point) {
        let leaf = |p: &Point| cfg.space.leaf_cell(p).index;
        let same_leaf = Point::new(base.x + 1e-5, base.y);
        let near = Point::new(base.x + 1.0, base.y);
        let far = Point::new(base.x + 50.0, base.y);
        assert_eq!(leaf(&same_leaf), leaf(&base));
        assert!(leaf(&near) != leaf(&base) && same_route(cfg, leaf(&base), leaf(&near)));
        assert!(!same_route(cfg, leaf(&base), leaf(&far)));
        (same_leaf, near, far)
    }

    /// The centre of the leaf containing `p`.
    fn leaf_centre(cfg: &MoistConfig, p: Point) -> Point {
        let leaf = cfg.space.leaf_cell(&p);
        cfg.space.to_world(&leaf.center(cfg.space.curve))
    }

    fn at(oid: u64, p: Point, secs: u64) -> UpdateMessage {
        msg(oid, p.x, p.y, 1.0, secs)
    }

    /// Algorithm 1's op budget, one message at a time. A leader move
    /// inside one routing key costs the paper's one read, no CAS and at
    /// most three write RPCs; only a move across a routing key pays the
    /// guard's read and CAS.
    #[test]
    fn each_outcome_costs_its_pinned_store_ops_one_message_at_a_time() {
        let (st, t, mut s, cfg) = setup(5.0);
        let base = leaf_centre(&cfg, Point::new(100.3, 60.3));
        let (same_leaf, near, far) = move_targets(&cfg, base);
        let cases = [
            (at(7, base, 1), UpdateOutcome::Registered, (1, 3, 0, 0)),
            (
                at(7, same_leaf, 2),
                UpdateOutcome::LeaderUpdated,
                (1, 2, 0, 0),
            ),
            (at(7, near, 3), UpdateOutcome::LeaderUpdated, (1, 2, 1, 0)),
            (at(7, far, 4), UpdateOutcome::LeaderUpdated, (3, 4, 0, 1)),
        ];
        for (m, want, budget) in cases {
            let (out, cost) = ops(&st, || apply_update(&mut s, &t, &cfg, &m).unwrap());
            assert_eq!((out, cost), (want, budget), "{m:?}");
        }
        let (_, writes, batches, _) = cases[2].2;
        assert!(
            writes + batches <= 3,
            "same-route move: at most 3 write RPCs"
        );
        // Every move landed: one spatial row, at the last leaf.
        let far_leaf = cfg.space.leaf_cell(&far).index;
        match t.lf(&mut s, ObjectId(7)).unwrap().unwrap() {
            LfRecord::Leader { last_leaf, .. } => assert_eq!(last_leaf, far_leaf),
            other => panic!("leader expected, got {other:?}"),
        }
        let cc = cfg.space.cell_at(cfg.clustering_level, &far);
        let rows = t
            .spatial_scan_cell(&mut s, cc, cfg.space.leaf_level, None)
            .unwrap();
        assert_eq!(rows.iter().filter(|e| e.oid == ObjectId(7)).count(), 1);

        build_school(&t, &mut s, &cfg);
        let follower_cases = [
            (
                msg(2, 111.0, 102.0, 1.0, 10),
                UpdateOutcome::Shed,
                (2, 0, 0, 0),
            ),
            (
                msg(2, 400.0, 102.0, 1.0, 10),
                UpdateOutcome::Departed {
                    old_leader: ObjectId(1),
                },
                (4, 4, 0, 1),
            ),
        ];
        for (m, want, budget) in follower_cases {
            let (out, cost) = ops(&st, || apply_update(&mut s, &t, &cfg, &m).unwrap());
            assert_eq!((out, cost), (want, budget), "{m:?}");
        }
    }

    /// The same budget for batches of three distinct objects: one
    /// multi-get per table read, one multi-row RPC per table written,
    /// and only the guards and promotions issued per message.
    #[test]
    fn each_outcome_costs_its_pinned_store_ops_in_a_batch() {
        let (st, t, mut s, cfg) = setup(5.0);
        let (out, cost) = ops(&st, || apply_update_batch(&mut s, &t, &cfg, &[]).unwrap());
        assert_eq!(
            (out, cost),
            (vec![], (0, 0, 0, 0)),
            "an empty batch is free"
        );
        let bases: Vec<Point> = (0..3)
            .map(|i| leaf_centre(&cfg, Point::new(100.3, 60.3 + 10.0 * i as f64)))
            .collect();
        let targets: Vec<(Point, Point, Point)> =
            bases.iter().map(|&b| move_targets(&cfg, b)).collect();
        let batch = |pick: &dyn Fn(usize) -> Point, secs: u64| -> Vec<UpdateMessage> {
            (0..3).map(|i| at(10 + i as u64, pick(i), secs)).collect()
        };
        let cases = [
            (
                batch(&|i| bases[i], 1),
                UpdateOutcome::Registered,
                (1, 0, 3, 0),
            ),
            (
                batch(&|i| targets[i].0, 2),
                UpdateOutcome::LeaderUpdated,
                (1, 0, 2, 0),
            ),
            (
                batch(&|i| targets[i].1, 3),
                UpdateOutcome::LeaderUpdated,
                (1, 0, 3, 0),
            ),
            (
                batch(&|i| targets[i].2, 4),
                UpdateOutcome::LeaderUpdated,
                (5, 3, 3, 3),
            ),
        ];
        for (msgs, want, budget) in cases {
            let (out, cost) = ops(&st, || apply_update_batch(&mut s, &t, &cfg, &msgs).unwrap());
            assert_eq!((out, cost), (vec![want; 3], budget), "{msgs:?}");
        }

        build_school(&t, &mut s, &cfg);
        for (f, dy) in [(3u64, 4.0), (4, 6.0)] {
            let d = Displacement::new(0.0, dy);
            let lf = LfRecord::Follower {
                leader: ObjectId(1),
                displacement: d,
                since_us: 0,
            };
            t.set_lf(&mut s, ObjectId(f), &lf, Timestamp::ZERO).unwrap();
            t.add_follower(&mut s, ObjectId(1), ObjectId(f), d, Timestamp::ZERO)
                .unwrap();
        }
        let followers = |x: f64| -> Vec<UpdateMessage> {
            [(2u64, 102.0), (3, 104.0), (4, 106.0)]
                .iter()
                .map(|&(f, y)| msg(f, x, y, 1.0, 10))
                .collect()
        };
        let (out, cost) = ops(&st, || {
            apply_update_batch(&mut s, &t, &cfg, &followers(111.0)).unwrap()
        });
        assert_eq!((out, cost), (vec![UpdateOutcome::Shed; 3], (2, 0, 0, 0)));
        let departed = UpdateOutcome::Departed {
            old_leader: ObjectId(1),
        };
        let (out, cost) = ops(&st, || {
            apply_update_batch(&mut s, &t, &cfg, &followers(400.0)).unwrap()
        });
        assert_eq!((out, cost), (vec![departed; 3], (8, 12, 0, 3)));
        assert!(t.followers(&mut s, ObjectId(1)).unwrap().is_empty());
    }

    /// A batch re-runs a message alone, against freshly read rows, once
    /// the batch has written its object or its leader: the outcomes and
    /// the final rows are those of applying the messages one by one.
    #[test]
    fn batch_reruns_messages_whose_rows_it_already_wrote() {
        let (_st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        let batch = vec![
            msg(3, 200.0, 200.0, 1.0, 1),  // first sight: register
            msg(1, 101.0, 100.0, 1.0, 2),  // leader move (writes 1)
            msg(2, 111.0, 102.0, 1.0, 10), // follower of written leader 1: shed
            msg(1, 600.0, 600.0, 1.0, 12), // written object: cross-route move
            msg(2, 900.0, 102.0, 1.0, 14), // departure
            msg(3, 205.0, 200.0, 1.0, 15), // written object: leader move
        ];
        let out = apply_update_batch(&mut s, &t, &cfg, &batch).unwrap();
        let departed = UpdateOutcome::Departed {
            old_leader: ObjectId(1),
        };
        let led = UpdateOutcome::LeaderUpdated;
        assert_eq!(
            out,
            vec![
                UpdateOutcome::Registered,
                led,
                UpdateOutcome::Shed,
                led,
                departed,
                led
            ]
        );
        for (oid, p) in [
            (1u64, (600.0, 600.0)),
            (2, (900.0, 102.0)),
            (3, (205.0, 200.0)),
        ] {
            let p = Point::new(p.0, p.1);
            match t.lf(&mut s, ObjectId(oid)).unwrap().unwrap() {
                LfRecord::Leader { last_leaf, .. } => {
                    assert_eq!(last_leaf, cfg.space.leaf_cell(&p).index, "object {oid}")
                }
                other => panic!("object {oid} must lead, got {other:?}"),
            }
            let (_, rec) = t.latest_location(&mut s, ObjectId(oid)).unwrap().unwrap();
            assert_eq!(rec.loc, p);
            let cc = cfg.space.cell_at(cfg.clustering_level, &p);
            let rows = t
                .spatial_scan_cell(&mut s, cc, cfg.space.leaf_level, None)
                .unwrap();
            assert_eq!(rows.iter().filter(|e| e.oid == ObjectId(oid)).count(), 1);
        }
    }

    /// A batch that is pure steady-state traffic (sheds + same-leaf
    /// leader refreshes) must write strictly fewer, batched ops than
    /// the synchronous replay — the whole point of the pipeline.
    #[test]
    fn batch_apply_sheds_without_writes_and_batches_the_rest() {
        let (st, t, mut s, cfg) = setup(5.0);
        build_school(&t, &mut s, &cfg);
        let before = st.metrics_snapshot();
        let batch = vec![
            msg(2, 111.0, 102.0, 1.0, 10), // shed
            msg(2, 112.0, 102.0, 1.0, 11), // shed again (not dirty: no writes)
        ];
        let out = apply_update_batch(&mut s, &t, &cfg, &batch).unwrap();
        assert_eq!(out, vec![UpdateOutcome::Shed, UpdateOutcome::Shed]);
        let after = st.metrics_snapshot();
        assert_eq!(
            after.write_ops + after.batch_ops,
            before.write_ops + before.batch_ops,
            "an all-shed batch must not write"
        );
    }

    #[test]
    fn batch_apply_rejects_bad_messages_before_writing_anything() {
        let (st, t, mut s, cfg) = setup(5.0);
        let bad = UpdateMessage {
            oid: ObjectId(9),
            loc: Point::new(f64::NAN, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::ZERO,
        };
        let before = st.metrics_snapshot();
        let batch = vec![msg(1, 100.0, 100.0, 1.0, 0), bad];
        assert!(apply_update_batch(&mut s, &t, &cfg, &batch).is_err());
        let after = st.metrics_snapshot();
        assert_eq!(
            after.write_ops + after.batch_ops,
            before.write_ops + before.batch_ops,
            "validation must fail the batch before any store write"
        );
    }

    #[test]
    fn non_finite_updates_are_rejected() {
        let (_st, t, mut s, cfg) = setup(5.0);
        let bad = UpdateMessage {
            oid: ObjectId(1),
            loc: Point::new(f64::NAN, 0.0),
            vel: Velocity::ZERO,
            ts: Timestamp::ZERO,
        };
        let err = apply_update(&mut s, &t, &cfg, &bad).unwrap_err();
        assert!(matches!(err, MoistError::InvalidInput(_)), "got {err:?}");
    }
}
