//! Typed wrappers around the three MOIST tables (§3.1).
//!
//! * **Location Table** — keyed by OID; one in-memory column of recent
//!   timestamped location records plus a disk column for aged records.
//! * **Spatial Index Table** — keyed by `leaf-cell-index ∥ OID`; one row per
//!   *leader*, valued with its latest location record. Composite keys make a
//!   cell a contiguous row range, so NN search and clustering read whole
//!   cells with one batch scan (§3.4.1).
//! * **Affiliation Table** — keyed by OID; the `L/F` column family holds the
//!   object's leader/follower record, the `Follower Info` family holds, on
//!   leader rows, one column per follower valued with the displacement
//!   `leader → follower`.
//!
//! One deliberate deviation from Figure 2: the paper stores Follower Info as
//! a single concatenated value; we store one column per follower in the same
//! row. Row-level atomicity and read cost are identical (BigTable returns
//! the whole row either way), but membership changes touch one column
//! instead of rewriting the concatenation.

use crate::codec::{
    decode_displacement, encode_displacement, follower_qualifier, parse_follower_qualifier,
    LfRecord, LocationRecord,
};
use crate::config::{table_names, MoistConfig};
use crate::error::{MoistError, Result};
use crate::ids::ObjectId;
use moist_bigtable::{
    Bigtable, ColumnFamily, Mutation, ReadOptions, RowKey, RowMutation, ScanRange, Session, Table,
    TableSchema, Timestamp,
};
use moist_spatial::{CellId, Displacement};
use std::sync::Arc;

/// Column family / qualifier names.
mod cols {
    /// Location Table: in-memory location-signal family.
    pub const LOC_MEM: &str = "loc";
    /// Location Table: disk family for aged records.
    pub const LOC_DISK: &str = "loc_disk";
    /// Location Table: record qualifier.
    pub const LOC_Q: &str = "r";
    /// Spatial Index Table: id family.
    pub const SPATIAL: &str = "id";
    /// Spatial Index Table: record qualifier.
    pub const SPATIAL_Q: &str = "r";
    /// Affiliation Table: in-memory L/F family.
    pub const LF_MEM: &str = "lf";
    /// Affiliation Table: disk L/F family (aged records).
    pub const LF_DISK: &str = "lf_disk";
    /// Affiliation Table: L/F qualifier.
    pub const LF_Q: &str = "lf";
    /// Affiliation Table: Follower Info family.
    pub const FOLLOWERS: &str = "followers";
}

/// Handles to the three tables.
#[derive(Clone)]
pub struct MoistTables {
    /// The Location Table.
    pub location: Arc<Table>,
    /// The Spatial Index Table.
    pub spatial: Arc<Table>,
    /// The Affiliation Table.
    pub affiliation: Arc<Table>,
}

impl MoistTables {
    /// Creates the three tables in `store` (errors if any already exists).
    pub fn create(store: &Arc<Bigtable>, cfg: &MoistConfig) -> Result<Self> {
        cfg.validate()?;
        let location = store.create_table(TableSchema::new(
            table_names::LOCATION,
            vec![
                ColumnFamily::in_memory(cols::LOC_MEM, cfg.memory_records_per_object.max(1)),
                ColumnFamily::on_disk(cols::LOC_DISK, usize::MAX),
            ],
        )?)?;
        let spatial = store.create_table(TableSchema::new(
            table_names::SPATIAL_INDEX,
            vec![ColumnFamily::in_memory(cols::SPATIAL, 1)],
        )?)?;
        let affiliation = store.create_table(TableSchema::new(
            table_names::AFFILIATION,
            vec![
                ColumnFamily::in_memory(cols::LF_MEM, 1),
                ColumnFamily::on_disk(cols::LF_DISK, usize::MAX),
                ColumnFamily::in_memory(cols::FOLLOWERS, 1),
            ],
        )?)?;
        Ok(MoistTables {
            location,
            spatial,
            affiliation,
        })
    }

    /// Opens tables previously created by [`MoistTables::create`].
    pub fn open(store: &Arc<Bigtable>) -> Result<Self> {
        Ok(MoistTables {
            location: store.open_table(table_names::LOCATION)?,
            spatial: store.open_table(table_names::SPATIAL_INDEX)?,
            affiliation: store.open_table(table_names::AFFILIATION)?,
        })
    }

    // ---------- Location Table ----------

    /// Appends a timestamped location record for `oid`.
    pub fn put_location(
        &self,
        s: &mut Session,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.location,
            &RowKey::from_u64(oid.0),
            &[Mutation::put(
                cols::LOC_MEM,
                cols::LOC_Q,
                ts,
                rec.encode().to_vec(),
            )],
        )?;
        Ok(())
    }

    /// Latest location record of `oid` with its timestamp.
    pub fn latest_location(
        &self,
        s: &mut Session,
        oid: ObjectId,
    ) -> Result<Option<(Timestamp, LocationRecord)>> {
        match s.get_latest(
            &self.location,
            &RowKey::from_u64(oid.0),
            cols::LOC_MEM,
            cols::LOC_Q,
        )? {
            None => Ok(None),
            Some(cell) => Ok(Some((cell.ts, LocationRecord::decode(&cell.value)?))),
        }
    }

    /// Batch-fetches the latest location records of many objects.
    pub fn batch_latest_locations(
        &self,
        s: &mut Session,
        oids: &[ObjectId],
    ) -> Result<Vec<Option<(Timestamp, LocationRecord)>>> {
        let keys: Vec<RowKey> = oids.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.location,
            &keys,
            &ReadOptions::latest_in(cols::LOC_MEM),
        )?;
        rows.into_iter()
            .map(|row| match row {
                None => Ok(None),
                Some(r) => match r.latest(cols::LOC_MEM, cols::LOC_Q) {
                    None => Ok(None),
                    Some(cell) => Ok(Some((cell.ts, LocationRecord::decode(&cell.value)?))),
                },
            })
            .collect()
    }

    /// Moves location records older than `cutoff` to the disk column
    /// (aged-data treatment, §3.1.2).
    pub fn age_locations(&self, cutoff: Timestamp) -> Result<usize> {
        Ok(self
            .location
            .age_transfer(cols::LOC_MEM, cols::LOC_DISK, cutoff)?)
    }

    // ---------- Spatial Index Table ----------

    fn spatial_key(leaf_index: u64, oid: ObjectId) -> RowKey {
        RowKey::composite(leaf_index, oid.0)
    }

    /// Inserts (or refreshes) a leader's entry under `leaf_index`.
    pub fn spatial_insert(
        &self,
        s: &mut Session,
        leaf_index: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.spatial,
            &Self::spatial_key(leaf_index, oid),
            &[Mutation::put(
                cols::SPATIAL,
                cols::SPATIAL_Q,
                ts,
                rec.encode().to_vec(),
            )],
        )?;
        Ok(())
    }

    /// All leaders inside `cell` (any level): one contiguous range scan over
    /// the cell's descendant leaf range.
    pub fn spatial_scan_cell(
        &self,
        s: &mut Session,
        cell: CellId,
        leaf_level: u8,
        limit: Option<usize>,
    ) -> Result<Vec<SpatialEntry>> {
        let (start, end) = cell
            .descendant_range(leaf_level)
            .ok_or(MoistError::Codec("cell finer than leaf level"))?;
        self.spatial_scan_range(s, start, end, limit)
    }

    /// All leaders in the contiguous leaf-index range `[start, end)` —
    /// one scan RPC (region queries scan merged ranges directly).
    pub fn spatial_scan_range(
        &self,
        s: &mut Session,
        start: u64,
        end: u64,
        limit: Option<usize>,
    ) -> Result<Vec<SpatialEntry>> {
        let rows = s.scan(
            &self.spatial,
            &ScanRange::between(RowKey::composite(start, 0), RowKey::composite(end, 0)),
            &ReadOptions::latest_in(cols::SPATIAL),
            limit,
        )?;
        rows.into_iter()
            .map(|row| {
                let (leaf, oid) = row
                    .key
                    .split_composite()
                    .ok_or(MoistError::Codec("malformed spatial key"))?;
                let cell = row
                    .latest(cols::SPATIAL, cols::SPATIAL_Q)
                    .ok_or(MoistError::Codec("spatial row without record"))?;
                Ok(SpatialEntry {
                    leaf_index: leaf,
                    oid: ObjectId(oid),
                    record: LocationRecord::decode(&cell.value)?,
                    ts: cell.ts,
                })
            })
            .collect()
    }

    /// Number of leaders inside `cell` (a charged scan; FLAG's `m`).
    pub fn spatial_count_cell(
        &self,
        s: &mut Session,
        cell: CellId,
        leaf_level: u8,
    ) -> Result<usize> {
        Ok(self.spatial_scan_cell(s, cell, leaf_level, None)?.len())
    }

    /// Builds (without applying) a delete mutation for a spatial entry.
    pub fn spatial_delete_mutation(leaf_index: u64, oid: ObjectId) -> RowMutation {
        RowMutation::new(
            Self::spatial_key(leaf_index, oid),
            vec![Mutation::DeleteRow],
        )
    }

    /// Atomically deletes a scanned leader's spatial row *only if* it
    /// still holds exactly the scanned record — the store's
    /// check-and-mutate under one tablet write lock. This is the commit
    /// point of a school merge: if the object updated or moved between
    /// the clustering scan and the commit, the row's value changed (or
    /// the row is gone), the guard fails, and the caller aborts that
    /// object's merge instead of demoting a live leader.
    pub fn spatial_check_and_delete(&self, s: &mut Session, entry: &SpatialEntry) -> Result<bool> {
        let expected = entry.record.encode();
        Ok(s.check_and_mutate(
            &self.spatial,
            &Self::spatial_key(entry.leaf_index, entry.oid),
            cols::SPATIAL,
            cols::SPATIAL_Q,
            Some(expected.as_ref()),
            &[Mutation::DeleteRow],
        )?)
    }

    // ---------- Affiliation Table ----------

    /// The L/F record of `oid` (None for never-seen objects).
    pub fn lf(&self, s: &mut Session, oid: ObjectId) -> Result<Option<LfRecord>> {
        Ok(self.lf_versioned(s, oid)?.map(|(_, lf)| lf))
    }

    /// The L/F record of `oid` *with its head timestamp* — line 1 of
    /// Algorithm 1 reads it once and clamps the leader's `last_leaf`
    /// write against that timestamp locally ([`supersede_ts`]) instead of
    /// re-reading the head.
    pub fn lf_versioned(
        &self,
        s: &mut Session,
        oid: ObjectId,
    ) -> Result<Option<(Timestamp, LfRecord)>> {
        match s.get_latest(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
        )? {
            None => Ok(None),
            Some(cell) => Ok(Some((cell.ts, LfRecord::decode(&cell.value)?))),
        }
    }

    /// Batch-fetches L/F records *with their head timestamps* — the
    /// multi-row form of [`lf_versioned`](Self::lf_versioned) that a
    /// batched apply reads line 1 through.
    pub fn batch_lf_versions(
        &self,
        s: &mut Session,
        oids: &[ObjectId],
    ) -> Result<Vec<Option<(Timestamp, LfRecord)>>> {
        let keys: Vec<RowKey> = oids.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.affiliation,
            &keys,
            &ReadOptions::latest_in(cols::LF_MEM),
        )?;
        rows.into_iter()
            .map(|row| match row {
                None => Ok(None),
                Some(r) => match r.latest(cols::LF_MEM, cols::LF_Q) {
                    None => Ok(None),
                    Some(cell) => Ok(Some((cell.ts, LfRecord::decode(&cell.value)?))),
                },
            })
            .collect()
    }

    /// The raw value of the spatial row `(leaf, oid)` — exactly what a
    /// subsequent [`spatial_check_and_delete_value`] must present as its
    /// expected value (the guard of a move that crosses a routing key).
    ///
    /// [`spatial_check_and_delete_value`]: Self::spatial_check_and_delete_value
    pub fn spatial_value(
        &self,
        s: &mut Session,
        leaf_index: u64,
        oid: ObjectId,
    ) -> Result<Option<Vec<u8>>> {
        Ok(s.get_latest(
            &self.spatial,
            &Self::spatial_key(leaf_index, oid),
            cols::SPATIAL,
            cols::SPATIAL_Q,
        )?
        .map(|cell| cell.value.to_vec()))
    }

    /// Batch-fetches the raw spatial-row values of many `(leaf, oid)`
    /// entries at once — the multi-row form of
    /// [`spatial_value`](Self::spatial_value).
    pub fn batch_spatial_values(
        &self,
        s: &mut Session,
        entries: &[(u64, ObjectId)],
    ) -> Result<Vec<Option<Vec<u8>>>> {
        let keys: Vec<RowKey> = entries
            .iter()
            .map(|&(leaf, oid)| Self::spatial_key(leaf, oid))
            .collect();
        let rows = s.batch_get(&self.spatial, &keys, &ReadOptions::latest_in(cols::SPATIAL))?;
        Ok(rows
            .into_iter()
            .map(|row| {
                row.and_then(|r| {
                    r.latest(cols::SPATIAL, cols::SPATIAL_Q)
                        .map(|cell| cell.value.to_vec())
                })
            })
            .collect())
    }

    /// Atomically deletes the spatial row `(leaf, oid)` *only if* it still
    /// holds exactly `expected` (one check-and-mutate under the tablet
    /// lock) — the guard of a leader move that crosses a routing key.
    /// A clustering merge commits through the same guard
    /// ([`spatial_check_and_delete`](Self::spatial_check_and_delete)), so
    /// the old row is the *mutual-exclusion point* between the move and
    /// the old cell's merge: exactly one of them deletes it. Returns
    /// `false` when the row is gone or changed (the merge won); the
    /// caller must then skip the superseded spatial rewrite, which would
    /// resurrect an absorbed leader.
    pub fn spatial_check_and_delete_value(
        &self,
        s: &mut Session,
        leaf_index: u64,
        oid: ObjectId,
        expected: &[u8],
    ) -> Result<bool> {
        Ok(s.check_and_mutate(
            &self.spatial,
            &Self::spatial_key(leaf_index, oid),
            cols::SPATIAL,
            cols::SPATIAL_Q,
            Some(expected),
            &[Mutation::DeleteRow],
        )?)
    }

    /// Applies a deferred [`WriteBatch`]: at most one multi-row RPC per
    /// touched table, so the store's batch discount (rpc base charged
    /// once per table, per-row cost at batch rates) is actually
    /// exercised. Returns the number of rows written and leaves the
    /// batch empty.
    pub fn flush_write_batch(&self, s: &mut Session, wb: &mut WriteBatch) -> Result<usize> {
        self.flush(s, wb, true)
    }

    /// Applies a [`WriteBatch`] holding one message's writes the way
    /// Algorithm 1 issues them alone: per table, one row as a single-row
    /// write and several (a spatial move's delete and put) as one
    /// multi-row RPC. Returns the number of rows written and leaves the
    /// batch empty.
    pub fn flush_unbatched(&self, s: &mut Session, wb: &mut WriteBatch) -> Result<usize> {
        self.flush(s, wb, false)
    }

    fn flush(&self, s: &mut Session, wb: &mut WriteBatch, batch_one_row: bool) -> Result<usize> {
        let mut written = 0;
        for (table, rows) in [
            (&self.location, &mut wb.location),
            (&self.spatial, &mut wb.spatial),
            (&self.affiliation, &mut wb.affiliation),
        ] {
            match rows.as_slice() {
                [] => {}
                [row] if !batch_one_row => {
                    s.mutate_row(table, &row.key, &row.mutations)?;
                    written += 1;
                }
                _ => written += s.mutate_rows(table, rows)?,
            }
            rows.clear();
        }
        Ok(written)
    }

    /// Writes the L/F record of `oid`. The write lands at a clamped
    /// timestamp (`lf_supersede_ts`): an L/F
    /// write always supersedes the current record, even when the writer's
    /// virtual clock trails a clustering tick that stamped the head far
    /// ahead of it.
    pub fn set_lf(
        &self,
        s: &mut Session,
        oid: ObjectId,
        lf: &LfRecord,
        ts: Timestamp,
    ) -> Result<()> {
        let ts = self.lf_supersede_ts(s, oid, ts)?;
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            &[Mutation::put(cols::LF_MEM, cols::LF_Q, ts, lf.encode())],
        )?;
        Ok(())
    }

    /// Timestamp at which a *superseding* L/F write must land to become
    /// the row's newest version.
    ///
    /// L/F records are a state machine — only the latest matters — but the
    /// store orders cell versions by timestamp, and the tier's actors run
    /// on skewed virtual clocks: a clustering tick can stamp a record far
    /// ahead of the object's own report clock. A transition written at the
    /// object's (older) clock would land *behind* the head version — or be
    /// truncated away outright — and every read would keep resurrecting
    /// the superseded affiliation. Clamping to just past the head keeps
    /// the version order equal to the commit order.
    fn lf_supersede_ts(&self, s: &mut Session, oid: ObjectId, ts: Timestamp) -> Result<Timestamp> {
        let head = s.get_latest(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
        )?;
        Ok(supersede_ts(head.map(|cell| cell.ts), ts))
    }

    /// Atomically replaces `oid`'s L/F record *only if* it still equals
    /// `expected` (the store's check-and-mutate). The clustering merge
    /// re-affiliates an absorbed leader's followers through this guard: a
    /// follower that promoted concurrently (its update rewrote the record
    /// on another shard) fails the check and keeps its self-chosen
    /// affiliation. The replacement lands at a clamped timestamp
    /// (`lf_supersede_ts`) so a writer with a
    /// lagging clock still supersedes the record it matched.
    pub fn lf_check_and_set(
        &self,
        s: &mut Session,
        oid: ObjectId,
        expected: &LfRecord,
        new: &LfRecord,
        ts: Timestamp,
    ) -> Result<bool> {
        let ts = self.lf_supersede_ts(s, oid, ts)?;
        Ok(s.check_and_mutate(
            &self.affiliation,
            &RowKey::from_u64(oid.0),
            cols::LF_MEM,
            cols::LF_Q,
            Some(&expected.encode()),
            &[Mutation::put(cols::LF_MEM, cols::LF_Q, ts, new.encode())],
        )?)
    }

    /// The Follower Info of a leader: each follower with its displacement.
    pub fn followers(
        &self,
        s: &mut Session,
        leader: ObjectId,
    ) -> Result<Vec<(ObjectId, Displacement)>> {
        let row = s.get_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &ReadOptions::latest_in(cols::FOLLOWERS),
        )?;
        let mut out = Vec::new();
        if let Some(row) = row {
            for entry in row.family(cols::FOLLOWERS) {
                let oid = parse_follower_qualifier(&entry.qualifier)?;
                let disp = decode_displacement(&entry.cells[0].value)?;
                out.push((oid, disp));
            }
        }
        Ok(out)
    }

    /// Batch-fetches the Follower Info of many leaders at once.
    pub fn batch_followers(
        &self,
        s: &mut Session,
        leaders: &[ObjectId],
    ) -> Result<Vec<Vec<(ObjectId, Displacement)>>> {
        let keys: Vec<RowKey> = leaders.iter().map(|o| RowKey::from_u64(o.0)).collect();
        let rows = s.batch_get(
            &self.affiliation,
            &keys,
            &ReadOptions::latest_in(cols::FOLLOWERS),
        )?;
        rows.into_iter()
            .map(|row| {
                let mut out = Vec::new();
                if let Some(row) = row {
                    for entry in row.family(cols::FOLLOWERS) {
                        let oid = parse_follower_qualifier(&entry.qualifier)?;
                        let disp = decode_displacement(&entry.cells[0].value)?;
                        out.push((oid, disp));
                    }
                }
                Ok(out)
            })
            .collect()
    }

    /// Adds `follower` to `leader`'s Follower Info.
    pub fn add_follower(
        &self,
        s: &mut Session,
        leader: ObjectId,
        follower: ObjectId,
        disp: Displacement,
        ts: Timestamp,
    ) -> Result<()> {
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &[Mutation::put(
                cols::FOLLOWERS,
                follower_qualifier(follower),
                ts,
                encode_displacement(disp).to_vec(),
            )],
        )?;
        Ok(())
    }

    /// Builds (without applying) the add-follower mutation.
    pub fn add_follower_mutation(
        leader: ObjectId,
        follower: ObjectId,
        disp: Displacement,
        ts: Timestamp,
    ) -> RowMutation {
        RowMutation::new(
            RowKey::from_u64(leader.0),
            vec![Mutation::put(
                cols::FOLLOWERS,
                follower_qualifier(follower),
                ts,
                encode_displacement(disp).to_vec(),
            )],
        )
    }

    /// Removes `follower` from `leader`'s Follower Info.
    pub fn remove_follower(
        &self,
        s: &mut Session,
        leader: ObjectId,
        follower: ObjectId,
    ) -> Result<()> {
        s.mutate_row(
            &self.affiliation,
            &RowKey::from_u64(leader.0),
            &[Mutation::delete_column(
                cols::FOLLOWERS,
                follower_qualifier(follower),
            )],
        )?;
        Ok(())
    }

    /// Builds a mutation clearing a leader's whole Follower Info (used when
    /// the leader is merged into another school).
    pub fn clear_followers_mutation(leader: ObjectId) -> RowMutation {
        RowMutation::new(
            RowKey::from_u64(leader.0),
            vec![Mutation::DeleteFamily {
                family: cols::FOLLOWERS.into(),
            }],
        )
    }

    /// Applies a prepared affiliation batch (clustering write phase).
    pub fn affiliation_batch(&self, s: &mut Session, batch: &[RowMutation]) -> Result<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        Ok(s.mutate_rows(&self.affiliation, batch)?)
    }

    /// Moves aged L/F records to the disk family (§3.1.1).
    pub fn age_affiliations(&self, cutoff: Timestamp) -> Result<usize> {
        Ok(self
            .affiliation
            .age_transfer(cols::LF_MEM, cols::LF_DISK, cutoff)?)
    }
}

/// Timestamp at which an L/F write stamped `ts` must land to supersede a
/// head version stamped `head`: just past the head when the head is not
/// older than `ts`, else `ts` itself. L/F writes go through this clamp
/// because the tier's actors run on skewed virtual clocks (see
/// [`MoistTables::set_lf`]).
pub fn supersede_ts(head: Option<Timestamp>, ts: Timestamp) -> Timestamp {
    match head {
        Some(head) if head >= ts => Timestamp(head.0 + 1),
        _ => ts,
    }
}

/// A write buffer for Algorithm 1's plain (unguarded) row writes. They
/// land via [`MoistTables::flush_write_batch`] as one multi-row RPC per
/// table, or via [`MoistTables::flush_unbatched`] as one message's writes.
///
/// Only writes whose rows no concurrent actor can touch may be deferred —
/// the batch holds the routing key's shard lock, every buffered row is
/// keyed by an OID this batch owns exclusively (enforced by the caller's
/// dirty-set), and guarded check-and-mutate commits (the cross-shard
/// mutual-exclusion points) are never buffered. Deferral therefore
/// reorders only writes to disjoint rows, and every mutation carries its
/// own explicit timestamp, so the final store state is the one writing
/// each row immediately would leave.
#[derive(Debug, Default)]
pub struct WriteBatch {
    location: Vec<RowMutation>,
    spatial: Vec<RowMutation>,
    affiliation: Vec<RowMutation>,
}

impl WriteBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.location.is_empty() && self.spatial.is_empty() && self.affiliation.is_empty()
    }

    /// Number of row mutations currently buffered across all tables.
    pub fn rows(&self) -> usize {
        self.location.len() + self.spatial.len() + self.affiliation.len()
    }

    /// Defers [`MoistTables::put_location`].
    pub fn put_location(&mut self, oid: ObjectId, rec: &LocationRecord, ts: Timestamp) {
        self.location.push(RowMutation::new(
            RowKey::from_u64(oid.0),
            vec![Mutation::put(
                cols::LOC_MEM,
                cols::LOC_Q,
                ts,
                rec.encode().to_vec(),
            )],
        ));
    }

    /// Defers a leader's spatial move (Algorithm 1, line 3): the old
    /// row's delete, when the leaf changed, and the new row's put. Only
    /// for moves inside one routing key, which the shard lock serializes
    /// against the cell's clustering.
    pub fn spatial_move(
        &mut self,
        old_leaf: u64,
        new_leaf: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) {
        if old_leaf != new_leaf {
            self.spatial
                .push(MoistTables::spatial_delete_mutation(old_leaf, oid));
        }
        self.spatial_insert(new_leaf, oid, rec, ts);
    }

    /// Defers [`MoistTables::spatial_insert`].
    pub fn spatial_insert(
        &mut self,
        leaf_index: u64,
        oid: ObjectId,
        rec: &LocationRecord,
        ts: Timestamp,
    ) {
        self.spatial.push(RowMutation::new(
            RowKey::composite(leaf_index, oid.0),
            vec![Mutation::put(
                cols::SPATIAL,
                cols::SPATIAL_Q,
                ts,
                rec.encode().to_vec(),
            )],
        ));
    }

    /// Defers an L/F write landing at exactly `ts`. The caller owns
    /// supersede-clamping: pass a timestamp already clamped past the head
    /// it read ([`supersede_ts`]).
    pub fn set_lf_at(&mut self, oid: ObjectId, lf: &LfRecord, ts: Timestamp) {
        self.affiliation.push(RowMutation::new(
            RowKey::from_u64(oid.0),
            vec![Mutation::put(cols::LF_MEM, cols::LF_Q, ts, lf.encode())],
        ));
    }
}

/// One decoded Spatial Index Table row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialEntry {
    /// Leaf cell the leader is filed under.
    pub leaf_index: u64,
    /// The leader's id.
    pub oid: ObjectId,
    /// The leader's location record at its last update.
    pub record: LocationRecord,
    /// Timestamp of that update.
    pub ts: Timestamp,
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_bigtable::CostProfile;
    use moist_spatial::{Point, Velocity};

    fn setup() -> (Arc<Bigtable>, MoistTables, Session) {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session)
    }

    fn rec(x: f64, y: f64, leaf: u64) -> LocationRecord {
        LocationRecord {
            loc: Point::new(x, y),
            vel: Velocity::new(1.0, 0.0),
            leaf_index: leaf,
        }
    }

    #[test]
    fn create_twice_fails_open_succeeds() {
        let (store, _t, _s) = setup();
        assert!(MoistTables::create(&store, &MoistConfig::default()).is_err());
        assert!(MoistTables::open(&store).is_ok());
    }

    #[test]
    fn location_roundtrip_keeps_the_newest_record_latest() {
        let (_store, t, mut s) = setup();
        let oid = ObjectId(5);
        for ts in [1u64, 3, 2] {
            t.put_location(&mut s, oid, &rec(ts as f64, 0.0, 9), Timestamp(ts))
                .unwrap();
        }
        let (ts, latest) = t.latest_location(&mut s, oid).unwrap().unwrap();
        assert_eq!(ts, Timestamp(3));
        assert_eq!(latest.loc.x, 3.0);
        assert!(t.latest_location(&mut s, ObjectId(99)).unwrap().is_none());
    }

    #[test]
    fn batch_latest_locations_aligns_with_input() {
        let (_store, t, mut s) = setup();
        t.put_location(&mut s, ObjectId(1), &rec(1.0, 0.0, 0), Timestamp(1))
            .unwrap();
        t.put_location(&mut s, ObjectId(3), &rec(3.0, 0.0, 0), Timestamp(1))
            .unwrap();
        let got = t
            .batch_latest_locations(&mut s, &[ObjectId(1), ObjectId(2), ObjectId(3)])
            .unwrap();
        assert!(got[0].is_some() && got[1].is_none() && got[2].is_some());
        assert_eq!(got[2].unwrap().1.loc.x, 3.0);
    }

    #[test]
    fn spatial_insert_scan_move_remove() {
        let (_store, t, mut s) = setup();
        let cfg = MoistConfig::default();
        let leaf_level = cfg.space.leaf_level;
        let p = Point::new(100.0, 100.0);
        let leaf = cfg.space.leaf_cell(&p).index;
        t.spatial_insert(
            &mut s,
            leaf,
            ObjectId(7),
            &rec(100.0, 100.0, leaf),
            Timestamp(1),
        )
        .unwrap();
        // Scan the enclosing clustering cell.
        let cc = cfg.space.cell_at(cfg.clustering_level, &p);
        let entries = t.spatial_scan_cell(&mut s, cc, leaf_level, None).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].oid, ObjectId(7));
        assert_eq!(entries[0].leaf_index, leaf);
        // Move to another cell.
        let p2 = Point::new(900.0, 900.0);
        let leaf2 = cfg.space.leaf_cell(&p2).index;
        let mut wb = WriteBatch::new();
        wb.spatial_move(
            leaf,
            leaf2,
            ObjectId(7),
            &rec(900.0, 900.0, leaf2),
            Timestamp(2),
        );
        // Delete and put leave as one two-row RPC.
        assert_eq!(t.flush_unbatched(&mut s, &mut wb).unwrap(), 2);
        assert!(t
            .spatial_scan_cell(&mut s, cc, leaf_level, None)
            .unwrap()
            .is_empty());
        let cc2 = cfg.space.cell_at(cfg.clustering_level, &p2);
        assert_eq!(t.spatial_count_cell(&mut s, cc2, leaf_level).unwrap(), 1);
    }

    #[test]
    fn lf_and_followers_roundtrip() {
        let (_store, t, mut s) = setup();
        let leader = ObjectId(4);
        let f1 = ObjectId(2);
        let f2 = ObjectId(7);
        t.set_lf(
            &mut s,
            leader,
            &LfRecord::Leader {
                since_us: 1,
                last_leaf: 0,
            },
            Timestamp(1),
        )
        .unwrap();
        let d1 = Displacement::new(1.0, 0.0);
        let d2 = Displacement::new(0.0, 2.0);
        t.add_follower(&mut s, leader, f1, d1, Timestamp(1))
            .unwrap();
        t.add_follower(&mut s, leader, f2, d2, Timestamp(1))
            .unwrap();
        t.set_lf(
            &mut s,
            f1,
            &LfRecord::Follower {
                leader,
                displacement: d1,
                since_us: 1,
            },
            Timestamp(1),
        )
        .unwrap();
        assert!(t.lf(&mut s, leader).unwrap().unwrap().is_leader());
        assert!(!t.lf(&mut s, f1).unwrap().unwrap().is_leader());
        assert!(t.lf(&mut s, ObjectId(42)).unwrap().is_none());
        let mut followers = t.followers(&mut s, leader).unwrap();
        followers.sort_by_key(|(o, _)| o.0);
        assert_eq!(followers, vec![(f1, d1), (f2, d2)]);
        t.remove_follower(&mut s, leader, f1).unwrap();
        assert_eq!(t.followers(&mut s, leader).unwrap().len(), 1);
        // Clear the rest via the batch mutation builder.
        t.affiliation_batch(&mut s, &[MoistTables::clear_followers_mutation(leader)])
            .unwrap();
        assert!(t.followers(&mut s, leader).unwrap().is_empty());
        // L/F record survives the follower-family clear.
        assert!(t.lf(&mut s, leader).unwrap().is_some());
    }

    #[test]
    fn batch_lf_versions_and_batch_followers() {
        let (_store, t, mut s) = setup();
        t.set_lf(
            &mut s,
            ObjectId(1),
            &LfRecord::Leader {
                since_us: 0,
                last_leaf: 0,
            },
            Timestamp(0),
        )
        .unwrap();
        t.add_follower(
            &mut s,
            ObjectId(1),
            ObjectId(9),
            Displacement::ZERO,
            Timestamp(0),
        )
        .unwrap();
        let lfs = t
            .batch_lf_versions(&mut s, &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert!(lfs[0].is_some() && lfs[1].is_none());
        let fols = t
            .batch_followers(&mut s, &[ObjectId(1), ObjectId(2)])
            .unwrap();
        assert_eq!(fols[0].len(), 1);
        assert!(fols[1].is_empty());
    }

    #[test]
    fn write_batch_flush_lands_identical_rows() {
        let (_store, t, mut s) = setup();
        let r = rec(10.0, 20.0, 3);
        let mut wb = WriteBatch::new();
        assert!(wb.is_empty());
        wb.put_location(ObjectId(1), &r, Timestamp(5));
        wb.spatial_insert(3, ObjectId(1), &r, Timestamp(5));
        wb.set_lf_at(
            ObjectId(1),
            &LfRecord::Leader {
                since_us: 5,
                last_leaf: 3,
            },
            Timestamp(5),
        );
        assert_eq!(wb.rows(), 3);
        let written = t.flush_write_batch(&mut s, &mut wb).unwrap();
        assert_eq!(written, 3);
        assert!(wb.is_empty(), "flush must leave the batch reusable");
        // The rows read back exactly as the synchronous writers would
        // have left them.
        let (ts, got) = t.latest_location(&mut s, ObjectId(1)).unwrap().unwrap();
        assert_eq!((ts, got.loc), (Timestamp(5), r.loc));
        assert!(t.lf(&mut s, ObjectId(1)).unwrap().unwrap().is_leader());
        let heads = t
            .batch_lf_versions(&mut s, &[ObjectId(1), ObjectId(9)])
            .unwrap();
        assert_eq!(heads[0].as_ref().unwrap().0, Timestamp(5));
        assert!(heads[1].is_none());
        // The single-row reads agree with their multi-row forms.
        assert_eq!(t.lf_versioned(&mut s, ObjectId(1)).unwrap(), heads[0]);
        assert!(t.lf_versioned(&mut s, ObjectId(9)).unwrap().is_none());
        let vals = t
            .batch_spatial_values(&mut s, &[(3, ObjectId(1)), (4, ObjectId(1))])
            .unwrap();
        assert_eq!(vals[0].as_deref(), Some(r.encode().as_ref()));
        assert!(vals[1].is_none());
        assert_eq!(t.spatial_value(&mut s, 3, ObjectId(1)).unwrap(), vals[0]);
        assert!(t.spatial_value(&mut s, 4, ObjectId(1)).unwrap().is_none());
        // The guarded delete against the prefetched value wins exactly
        // once.
        let expected = vals[0].clone().unwrap();
        assert!(t
            .spatial_check_and_delete_value(&mut s, 3, ObjectId(1), &expected)
            .unwrap());
        assert!(!t
            .spatial_check_and_delete_value(&mut s, 3, ObjectId(1), &expected)
            .unwrap());
    }

    #[test]
    fn aging_moves_records_to_disk_families() {
        let (_store, t, mut s) = setup();
        let oid = ObjectId(1);
        t.put_location(&mut s, oid, &rec(0.0, 0.0, 0), Timestamp::from_secs(1))
            .unwrap();
        t.put_location(&mut s, oid, &rec(1.0, 0.0, 0), Timestamp::from_secs(100))
            .unwrap();
        let moved = t.age_locations(Timestamp::from_secs(50)).unwrap();
        assert_eq!(moved, 1);
        // Latest (hot) record still served from memory.
        let (_, latest) = t.latest_location(&mut s, oid).unwrap().unwrap();
        assert_eq!(latest.loc.x, 1.0);
        t.set_lf(
            &mut s,
            oid,
            &LfRecord::Leader {
                since_us: 0,
                last_leaf: 0,
            },
            Timestamp(0),
        )
        .unwrap();
        let aged = t.age_affiliations(Timestamp::from_secs(50)).unwrap();
        assert_eq!(aged, 1);
    }
}
