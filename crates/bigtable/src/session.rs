//! Cost-charged sessions.
//!
//! A [`Session`] wraps store operations and charges their modelled cost to a
//! private [`SimClock`](crate::cost::SimClock). Each simulated front-end server or client owns one
//! session; virtual elapsed time divided into operation counts yields the
//! modelled QPS the benchmarks report.

use crate::cost::{CostMeter, CostProfile, MeterHub};
use crate::error::Result;
use crate::store::Bigtable;
use crate::table::{Mutation, OwnedRow, ReadOptions, RowMutation, ScanRange, Table};
use crate::types::{Cell, Locality, RowKey};
use std::sync::Arc;

/// A cost-charged view of a store.
///
/// A plain session charges a private [`CostMeter`]. A hub-attached
/// session (see [`Bigtable::session_with_hub`]) additionally mirrors
/// every charge into a shared [`MeterHub`] *and* seeds its private meter
/// from the hub's current totals, so:
///
/// * absolute `elapsed_us()` reads mid-call match what one shared clock
///   would have shown (single-threaded runs stay bit-identical), and
/// * concurrent calls each own a meter — no `&mut` clock contention —
///   while the hub accumulates the server-wide totals.
pub struct Session {
    store: Arc<Bigtable>,
    profile: CostProfile,
    meter: CostMeter,
    hub: Option<Arc<MeterHub>>,
}

impl Session {
    pub(crate) fn new(store: Arc<Bigtable>, profile: CostProfile) -> Self {
        Session {
            store,
            profile,
            meter: CostMeter::new(),
            hub: None,
        }
    }

    pub(crate) fn with_hub(store: Arc<Bigtable>, profile: CostProfile, hub: Arc<MeterHub>) -> Self {
        Session {
            store,
            profile,
            meter: CostMeter::starting_at(hub.elapsed_us(), hub.op_count()),
            hub: Some(hub),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Bigtable> {
        &self.store
    }

    /// The session's cost profile.
    pub fn profile(&self) -> &CostProfile {
        &self.profile
    }

    /// The shared hub this session mirrors charges into, if any.
    pub fn hub(&self) -> Option<&Arc<MeterHub>> {
        self.hub.as_ref()
    }

    /// Virtual microseconds consumed so far (per-call meter view).
    pub fn elapsed_us(&self) -> f64 {
        self.meter.elapsed_us()
    }

    /// Virtual seconds consumed so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.meter.elapsed_us() / 1e6
    }

    /// Operations issued so far.
    pub fn op_count(&self) -> u64 {
        self.meter.op_count()
    }

    /// Resets the clock and op counter, returning elapsed microseconds.
    ///
    /// On a hub-attached session this resets the shared hub too and
    /// returns the hub's (authoritative, server-wide) elapsed total.
    pub fn reset(&mut self) -> f64 {
        if let Some(hub) = &self.hub {
            let elapsed = hub.reset();
            self.meter.reset();
            elapsed
        } else {
            self.meter.reset()
        }
    }

    /// Charges `us` to the private meter and mirrors it into the hub.
    /// All cost accounting funnels through here so the hub sees the
    /// exact per-op addition sequence (not a coarse end-of-call fold).
    #[inline]
    fn charge(&mut self, us: f64) {
        self.meter.charge_us(us);
        if let Some(hub) = &self.hub {
            hub.charge_us(us);
        }
    }

    #[inline]
    fn note_op(&mut self) {
        self.meter.note_op();
        if let Some(hub) = &self.hub {
            hub.note_op();
        }
    }

    /// Adds non-store work (e.g. server CPU) to the virtual timeline.
    pub fn charge_extra_us(&mut self, us: f64) {
        self.charge(us);
    }

    /// Durability surcharge for one write RPC on `table` that logged
    /// roughly `bytes` of mutations (plus frame overhead). Zero on
    /// non-durable tables, so `Durability::None` stays bit-identical.
    fn charge_wal(&mut self, table: &Table, bytes: u64) {
        if let Some(every) = table.wal_fsync_every() {
            let us = self.profile.wal_write_us(bytes + 32, every);
            self.charge(us);
        }
    }

    fn family_touches_disk(table: &Table, opts: &ReadOptions) -> bool {
        match &opts.families {
            None => table
                .schema()
                .families
                .iter()
                .any(|f| f.locality == Locality::Disk),
            Some(names) => names.iter().any(|n| {
                table
                    .schema()
                    .family(n)
                    .map(|(_, f)| f.locality == Locality::Disk)
                    .unwrap_or(false)
            }),
        }
    }

    /// Charged [`Table::get_latest`].
    pub fn get_latest(
        &mut self,
        table: &Table,
        key: &RowKey,
        family: &str,
        qualifier: &str,
    ) -> Result<Option<Cell>> {
        let cell = table.get_latest(key, family, qualifier)?;
        let bytes = cell.as_ref().map_or(0, |c| c.value.len() as u64);
        let disk = table
            .schema()
            .family(family)
            .map(|(_, f)| f.locality == Locality::Disk)
            .unwrap_or(false);
        let us = self
            .profile
            .point_read_us(table.approx_row_count(), bytes, disk);
        self.charge(us);
        self.note_op();
        Ok(cell)
    }

    /// Charged [`Table::get_row`].
    pub fn get_row(
        &mut self,
        table: &Table,
        key: &RowKey,
        opts: &ReadOptions,
    ) -> Result<Option<OwnedRow>> {
        let row = table.get_row(key, opts)?;
        let bytes = row.as_ref().map_or(0, |r| r.payload_bytes() as u64);
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .point_read_us(table.approx_row_count(), bytes, disk);
        self.charge(us);
        self.note_op();
        Ok(row)
    }

    /// Charged [`Table::batch_get`]: one RPC, per-row cost at scan (not
    /// point-read) rates — BigTable's multi-get amortisation.
    pub fn batch_get(
        &mut self,
        table: &Table,
        keys: &[RowKey],
        opts: &ReadOptions,
    ) -> Result<Vec<Option<OwnedRow>>> {
        let rows = table.batch_get(keys, opts)?;
        let bytes: u64 = rows
            .iter()
            .flatten()
            .map(|r| r.payload_bytes() as u64)
            .sum();
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .scan_us(table.approx_row_count(), keys.len() as u64, bytes, disk);
        self.charge(us);
        self.note_op();
        Ok(rows)
    }

    /// Charged [`Table::mutate_row`].
    pub fn mutate_row(
        &mut self,
        table: &Table,
        key: &RowKey,
        mutations: &[Mutation],
    ) -> Result<()> {
        table.mutate_row(key, mutations)?;
        let bytes: u64 = mutations
            .iter()
            .map(|m| match m {
                Mutation::Put { value, .. } => value.len() as u64 + 16,
                _ => 16,
            })
            .sum();
        let us = self
            .profile
            .write_us(table.approx_row_count(), mutations.len() as u64, bytes);
        self.charge(us);
        self.charge_wal(table, bytes);
        self.note_op();
        Ok(())
    }

    /// Charged [`Table::mutate_rows`] (batch; the cheap path clustering uses).
    pub fn mutate_rows(&mut self, table: &Table, batch: &[RowMutation]) -> Result<usize> {
        let n = table.mutate_rows(batch)?;
        let muts: u64 = batch.iter().map(|rm| rm.mutations.len() as u64).sum();
        let bytes: u64 = batch
            .iter()
            .flat_map(|rm| rm.mutations.iter())
            .map(|m| match m {
                Mutation::Put { value, .. } => value.len() as u64 + 16,
                _ => 16,
            })
            .sum();
        let us = self.profile.batch_write_us(batch.len() as u64, muts, bytes);
        self.charge(us);
        self.charge_wal(table, bytes);
        self.note_op();
        Ok(n)
    }

    /// Charged [`Table::check_and_mutate`]: costs a point read plus, when
    /// the guard matches, the write.
    #[allow(clippy::too_many_arguments)]
    pub fn check_and_mutate(
        &mut self,
        table: &Table,
        key: &RowKey,
        family: &str,
        qualifier: &str,
        expected: Option<&[u8]>,
        mutations: &[Mutation],
    ) -> Result<bool> {
        let applied = table.check_and_mutate(key, family, qualifier, expected, mutations)?;
        let rows = table.approx_row_count();
        let mut us = self.profile.point_read_us(rows, 0, false);
        if applied {
            let bytes: u64 = mutations
                .iter()
                .map(|m| match m {
                    Mutation::Put { value, .. } => value.len() as u64 + 16,
                    _ => 16,
                })
                .sum();
            us += self.profile.write_us(rows, mutations.len() as u64, bytes);
            self.charge_wal(table, bytes);
        }
        self.charge(us);
        self.note_op();
        Ok(applied)
    }

    /// Charged [`Table::scan`].
    pub fn scan(
        &mut self,
        table: &Table,
        range: &ScanRange,
        opts: &ReadOptions,
        limit: Option<usize>,
    ) -> Result<Vec<OwnedRow>> {
        let rows = table.scan(range, opts, limit)?;
        let bytes: u64 = rows.iter().map(|r| r.payload_bytes() as u64).sum();
        let disk = Self::family_touches_disk(table, opts);
        let us = self
            .profile
            .scan_us(table.approx_row_count(), rows.len() as u64, bytes, disk);
        self.charge(us);
        self.note_op();
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnFamily, TableSchema};
    use crate::types::Timestamp;

    fn setup() -> (Arc<Bigtable>, Arc<Table>) {
        let store = Bigtable::new();
        let t = store
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnFamily::in_memory("mem", 4),
                        ColumnFamily::on_disk("disk", 4),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        (store, t)
    }

    #[test]
    fn session_charges_time_per_op() {
        let (store, t) = setup();
        let mut s = store.session();
        assert_eq!(s.elapsed_us(), 0.0);
        s.mutate_row(
            &t,
            &RowKey::from_u64(1),
            &[Mutation::put("mem", "q", Timestamp(0), &b"hello"[..])],
        )
        .unwrap();
        let after_write = s.elapsed_us();
        assert!(after_write > 0.0);
        let cell = s.get_latest(&t, &RowKey::from_u64(1), "mem", "q").unwrap();
        assert!(cell.is_some());
        assert!(s.elapsed_us() > after_write);
        assert_eq!(s.op_count(), 2);
        let elapsed = s.reset();
        assert!(elapsed > 0.0);
        assert_eq!(s.op_count(), 0);
    }

    #[test]
    fn disk_family_reads_cost_more() {
        let (store, t) = setup();
        let mut s = store.session();
        let k = RowKey::from_u64(1);
        s.mutate_row(
            &t,
            &k,
            &[Mutation::put("mem", "q", Timestamp(0), &b"x"[..])],
        )
        .unwrap();
        s.mutate_row(
            &t,
            &k,
            &[Mutation::put("disk", "q", Timestamp(0), &b"x"[..])],
        )
        .unwrap();
        s.reset();
        let _ = s.get_latest(&t, &k, "mem", "q").unwrap();
        let mem_cost = s.reset();
        let _ = s.get_latest(&t, &k, "disk", "q").unwrap();
        let disk_cost = s.reset();
        assert!(disk_cost > 5.0 * mem_cost, "{disk_cost} vs {mem_cost}");
    }

    #[test]
    fn batch_cheaper_than_singles() {
        let (store, t) = setup();
        let mut s = store.session();
        let batch: Vec<RowMutation> = (0..100u64)
            .map(|i| {
                RowMutation::new(
                    RowKey::from_u64(i),
                    vec![Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
                )
            })
            .collect();
        s.mutate_rows(&t, &batch).unwrap();
        let batch_cost = s.reset();
        for i in 100..200u64 {
            s.mutate_row(
                &t,
                &RowKey::from_u64(i),
                &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
            )
            .unwrap();
        }
        let single_cost = s.reset();
        assert!(batch_cost < single_cost / 4.0);
    }

    #[test]
    fn free_profile_charges_nothing() {
        let (store, t) = setup();
        let mut s = store.session_with(CostProfile::free());
        s.mutate_row(
            &t,
            &RowKey::from_u64(1),
            &[Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
        )
        .unwrap();
        assert_eq!(s.elapsed_us(), 0.0);
        assert_eq!(s.op_count(), 1);
    }

    #[test]
    fn scan_charges_per_row() {
        let (store, t) = setup();
        let mut s = store.session();
        let batch: Vec<RowMutation> = (0..50u64)
            .map(|i| {
                RowMutation::new(
                    RowKey::from_u64(i),
                    vec![Mutation::put("mem", "q", Timestamp(0), &b"v"[..])],
                )
            })
            .collect();
        s.mutate_rows(&t, &batch).unwrap();
        s.reset();
        let small = s
            .scan(
                &t,
                &ScanRange::between(RowKey::from_u64(0), RowKey::from_u64(5)),
                &ReadOptions::latest_in("mem"),
                None,
            )
            .unwrap();
        let small_cost = s.reset();
        let big = s
            .scan(&t, &ScanRange::all(), &ReadOptions::latest_in("mem"), None)
            .unwrap();
        let big_cost = s.reset();
        assert_eq!(small.len(), 5);
        assert_eq!(big.len(), 50);
        assert!(big_cost > small_cost);
    }
}
