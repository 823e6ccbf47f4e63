//! The load-signal layer: measured per-cell and per-shard demand.
//!
//! The paper's premise is that update/query load on a moving-object store
//! is wildly skewed — business-center cells dominate (§3.4.2 motivates
//! FLAG with exactly that skew) — yet placement decisions (which shard
//! owns which clustering cell, how a scattered query is sliced) are blind
//! without a measured signal. This module is that signal, consumed at
//! three layers:
//!
//! 1. **weighted rendezvous** ([`crate::cluster::weighted_rendezvous_owner`])
//!    — per-shard weights derived from measured utilization shift whole
//!    cells between shards with minimal remap;
//! 2. **hot-cell splitting** ([`crate::cluster::SplitTable`]) — the
//!    hottest clustering cells split ownership one level finer, so a
//!    single business-center cell stops pinning a shard;
//! 3. **fan-out slice balancing** ([`crate::region::balance_slices`]) —
//!    per-cell rates price a scattered region slice, so the planner can
//!    subdivide the costliest slices across idle shards.
//!
//! A [`LoadTracker`] lives inside every [`crate::server::MoistServer`]
//! (next to the FLAG machinery, which estimates *density* where this
//! tracks *demand*): updates and queries feed per-clustering-cell EWMA
//! rates in **virtual time** (the timestamps the operations carry), so the
//! signal is deterministic for a given workload and independent of
//! wall-clock scheduling. The cluster tier rolls the per-cell rates up
//! into per-shard utilization through
//! [`crate::cluster_tier::MoistCluster::cluster_stats`] and consumes them
//! in [`crate::cluster_tier::MoistCluster::rebalance`].

use moist_bigtable::Timestamp;
use std::collections::HashMap;

/// EWMA window length in virtual seconds: rates fold once per window.
const WINDOW_SECS: f64 = 5.0;

/// EWMA smoothing factor per folded window (higher = more reactive).
const ALPHA: f64 = 0.5;

/// Rates below this (events per virtual second) with nothing pending are
/// pruned — a cell that went cold stops occupying tracker memory.
const PRUNE_RATE: f64 = 1e-6;

/// EWMA smoothing for per-cell measured scan cost. Scan samples are
/// rarer than updates (one per fan-out slice), so smoothing is gentler
/// than the demand ALPHA: a single anomalous scan should not reprice a
/// cell.
const SCAN_COST_ALPHA: f64 = 0.3;

/// One cell's smoothed demand, in events per virtual second.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellRates {
    /// EWMA update arrivals per virtual second.
    pub update_rate: f64,
    /// EWMA query arrivals per virtual second (queries anchored in the
    /// cell — scattered partial scans are *not* counted per cell, they are
    /// accounted by [`LoadTracker::note_scatter_slice`]).
    pub query_rate: f64,
}

impl CellRates {
    /// Combined demand rate (updates dominate store cost; queries count
    /// the same here — callers wanting a different mix read the fields).
    pub fn total(&self) -> f64 {
        self.update_rate + self.query_rate
    }
}

/// Per-cell windowed counters plus the folded EWMA.
#[derive(Debug, Clone, Copy)]
struct CellWindow {
    rates: CellRates,
    pending_updates: u64,
    pending_queries: u64,
    window_start_us: u64,
}

/// Per-clustering-cell EWMA demand rates, accumulated in virtual time.
///
/// Events are bucketed into fixed windows of the *operation timestamps*;
/// when a window closes (lazily, on the next event or read) the bucket
/// folds into the EWMA: `rate = (1 − α)·rate + α·count/window`. Windows
/// with no events decay the rate by `(1 − α)` each, so a cell that goes
/// quiet fades out instead of pinning its peak forever. Everything is
/// driven by the timestamps the workload carries, so a given update/query
/// stream produces the same rates regardless of thread interleaving.
#[derive(Debug)]
pub struct LoadTracker {
    window_us: u64,
    cells: HashMap<u64, CellWindow>,
    /// Scattered partial scans served by this shard (region + NN slices).
    scatter_slices: u64,
    /// Total virtual µs spent serving scattered partial scans.
    scatter_us: f64,
    /// Measured scan cost per clustering cell, in virtual µs per
    /// *full-cell* scan (samples covering a fraction of a cell are
    /// extrapolated before folding). Fed from the per-range costs the
    /// region fan-out already pays for ([`Self::note_cell_scan`]).
    scan_costs: HashMap<u64, f64>,
}

impl Default for LoadTracker {
    fn default() -> Self {
        LoadTracker::new(WINDOW_SECS)
    }
}

impl LoadTracker {
    /// Creates a tracker folding its EWMA every `window_secs` of virtual
    /// time.
    pub fn new(window_secs: f64) -> Self {
        LoadTracker {
            window_us: ((window_secs.max(1e-3)) * 1e6) as u64,
            cells: HashMap::new(),
            scatter_slices: 0,
            scatter_us: 0.0,
            scan_costs: HashMap::new(),
        }
    }

    /// Records one update landing in clustering cell `cell` at `now`.
    pub fn observe_update(&mut self, cell: u64, now: Timestamp) {
        self.observe(cell, now, true);
    }

    /// Records one query anchored in clustering cell `cell` at `now`.
    pub fn observe_query(&mut self, cell: u64, now: Timestamp) {
        self.observe(cell, now, false);
    }

    fn observe(&mut self, cell: u64, now: Timestamp, update: bool) {
        let window_us = self.window_us;
        let w = self.cells.entry(cell).or_insert(CellWindow {
            rates: CellRates::default(),
            pending_updates: 0,
            pending_queries: 0,
            window_start_us: now.0,
        });
        fold(w, now.0, window_us);
        if update {
            w.pending_updates += 1;
        } else {
            w.pending_queries += 1;
        }
    }

    /// Records one scattered partial scan (a region or NN slice) this
    /// shard served, costing `cost_us` virtual µs.
    pub fn note_scatter_slice(&mut self, cost_us: f64) {
        self.scatter_slices += 1;
        self.scatter_us += cost_us.max(0.0);
    }

    /// `(slices served, total virtual µs)` of scattered partial scans.
    pub fn scatter_slice_stats(&self) -> (u64, f64) {
        (self.scatter_slices, self.scatter_us)
    }

    /// Folds one measured scan sample for clustering cell `cell`:
    /// `cost_us` virtual µs were spent scanning `frac` of the cell's key
    /// span (`0 < frac ≤ 1`). The sample is extrapolated to a full-cell
    /// cost and folded into a per-cell EWMA, replacing the span×density
    /// *prior* with a *measured* price the next time the fan-out planner
    /// slices a scattered query.
    pub fn note_cell_scan(&mut self, cell: u64, frac: f64, cost_us: f64) {
        // NaN fracs/costs are rejected along with non-positive ones.
        if frac.is_nan() || frac <= 0.0 || cost_us.is_nan() || cost_us < 0.0 {
            return;
        }
        let sample = cost_us / frac.min(1.0);
        self.scan_costs
            .entry(cell)
            .and_modify(|c| *c = (1.0 - SCAN_COST_ALPHA) * *c + SCAN_COST_ALPHA * sample)
            .or_insert(sample);
    }

    /// The learned per-cell scan costs (virtual µs per full-cell scan),
    /// in ascending cell order. Cells never scanned are absent — callers
    /// fall back to their prior for those.
    pub fn cell_scan_costs(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.scan_costs.iter().map(|(&c, &v)| (c, v)).collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }

    /// The per-cell rates as of `now`: every cell's pending windows fold
    /// first, so a cell that went quiet decays even though no event
    /// touched it. Cells whose rate decayed to ~0 are pruned. Returned in
    /// ascending cell order (deterministic for tests and rebalance).
    pub fn rates(&mut self, now: Timestamp) -> Vec<(u64, CellRates)> {
        let window_us = self.window_us;
        self.cells.retain(|_, w| {
            fold(w, now.0, window_us);
            w.rates.total() > PRUNE_RATE || w.pending_updates + w.pending_queries > 0
        });
        let mut out: Vec<(u64, CellRates)> =
            self.cells.iter().map(|(&c, w)| (c, w.rates)).collect();
        out.sort_unstable_by_key(|&(c, _)| c);
        out
    }

    /// Total `(update rate, query rate)` across all tracked cells at
    /// `now` — this shard's demand rollup.
    pub fn totals(&mut self, now: Timestamp) -> (f64, f64) {
        self.rates(now).iter().fold((0.0, 0.0), |(u, q), (_, r)| {
            (u + r.update_rate, q + r.query_rate)
        })
    }
}

/// Folds every window that closed before `now_us` into the EWMA: the
/// pending bucket contributes `α·count/window` once, then `k − 1` empty
/// windows decay by `(1 − α)` each. Events timestamped before the current
/// window (late arrivals from a concurrent client) count into the current
/// bucket — slightly smeared, never lost.
fn fold(w: &mut CellWindow, now_us: u64, window_us: u64) {
    if now_us < w.window_start_us + window_us {
        return;
    }
    let k = (now_us - w.window_start_us) / window_us;
    let window_secs = window_us as f64 / 1e6;
    let decay = (1.0 - ALPHA).powi(k.min(1_000) as i32);
    let fresh = ALPHA * (1.0 - ALPHA).powi((k.min(1_000) - 1) as i32);
    w.rates.update_rate =
        w.rates.update_rate * decay + fresh * w.pending_updates as f64 / window_secs;
    w.rates.query_rate =
        w.rates.query_rate * decay + fresh * w.pending_queries as f64 / window_secs;
    w.pending_updates = 0;
    w.pending_queries = 0;
    w.window_start_us += k * window_us;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: f64) -> Timestamp {
        Timestamp::from_secs_f64(secs)
    }

    #[test]
    fn steady_stream_converges_to_its_arrival_rate() {
        let mut t = LoadTracker::new(1.0);
        // 10 updates per virtual second for 30 seconds.
        for sec in 0..30u64 {
            for i in 0..10u64 {
                t.observe_update(7, at(sec as f64 + i as f64 / 10.0));
            }
        }
        let rates = t.rates(at(30.0));
        assert_eq!(rates.len(), 1);
        let r = rates[0].1.update_rate;
        assert!(
            (r - 10.0).abs() < 0.5,
            "EWMA should converge to 10/s, got {r}"
        );
        assert_eq!(rates[0].1.query_rate, 0.0);
    }

    #[test]
    fn quiet_cells_decay_and_eventually_prune() {
        let mut t = LoadTracker::new(1.0);
        for i in 0..20u64 {
            t.observe_update(3, at(i as f64 / 20.0));
        }
        let hot = t.rates(at(2.0))[0].1.update_rate;
        assert!(hot > 1.0);
        // A few quiet windows halve the rate each time.
        let later = t.rates(at(6.0))[0].1.update_rate;
        assert!(later < hot / 4.0, "{later} vs {hot}");
        // Long silence prunes the cell entirely.
        assert!(t.rates(at(500.0)).is_empty());
        assert!(t.cells.is_empty());
    }

    #[test]
    fn skewed_cells_rank_above_uniform_ones() {
        let mut t = LoadTracker::default();
        // Cell 1 takes 80% of the traffic, cells 2..=5 split the rest.
        for sec in 0..40u64 {
            for i in 0..10u64 {
                let cell = if i < 8 { 1 } else { 2 + (sec + i) % 4 };
                t.observe_update(cell, at(sec as f64 + i as f64 / 10.0));
            }
        }
        let rates = t.rates(at(40.0));
        let hot = rates.iter().find(|(c, _)| *c == 1).unwrap().1.update_rate;
        let cold: f64 = rates
            .iter()
            .filter(|(c, _)| *c != 1)
            .map(|(_, r)| r.update_rate)
            .sum::<f64>()
            / 4.0;
        assert!(
            hot > 10.0 * cold,
            "hot cell must dominate: {hot} vs mean cold {cold}"
        );
        let (u, q) = t.totals(at(40.0));
        assert!(u > 0.0 && q == 0.0);
    }

    #[test]
    fn queries_and_updates_are_tracked_separately() {
        let mut t = LoadTracker::new(1.0);
        for i in 0..40u64 {
            t.observe_update(9, at(i as f64 / 4.0));
            if i % 2 == 0 {
                t.observe_query(9, at(i as f64 / 4.0));
            }
        }
        let r = t.rates(at(11.0))[0].1;
        assert!(r.update_rate > 1.5 * r.query_rate);
        assert!(r.query_rate > 0.0);
        assert!((r.total() - r.update_rate - r.query_rate).abs() < 1e-12);
    }

    #[test]
    fn scatter_slice_counters_accumulate() {
        let mut t = LoadTracker::default();
        assert_eq!(t.scatter_slice_stats(), (0, 0.0));
        t.note_scatter_slice(120.0);
        t.note_scatter_slice(80.0);
        t.note_scatter_slice(-5.0); // clamped, never subtracts
        let (n, us) = t.scatter_slice_stats();
        assert_eq!(n, 3);
        assert!((us - 200.0).abs() < 1e-9);
    }

    #[test]
    fn cell_scan_costs_extrapolate_and_smooth() {
        let mut t = LoadTracker::default();
        assert!(t.cell_scan_costs().is_empty());
        // Half of cell 5 cost 100µs → a full-cell estimate of 200µs.
        t.note_cell_scan(5, 0.5, 100.0);
        assert_eq!(t.cell_scan_costs(), vec![(5, 200.0)]);
        // A second, pricier sample moves the EWMA toward it, gently.
        t.note_cell_scan(5, 1.0, 1000.0);
        let cost = t.cell_scan_costs()[0].1;
        assert!(cost > 200.0 && cost < 1000.0, "EWMA in between: {cost}");
        // Degenerate samples are ignored.
        t.note_cell_scan(6, 0.0, 50.0);
        t.note_cell_scan(7, 0.5, -1.0);
        assert_eq!(t.cell_scan_costs().len(), 1);
        // A dense cell prices above a sparse one.
        t.note_cell_scan(8, 1.0, 10.0);
        let costs = t.cell_scan_costs();
        assert!(costs[0].1 > costs[1].1);
        assert_eq!((costs[0].0, costs[1].0), (5, 8));
    }

    #[test]
    fn late_events_are_counted_not_lost() {
        let mut t = LoadTracker::new(1.0);
        t.observe_update(4, at(10.0));
        // A concurrent client's late timestamp lands in the current bucket.
        t.observe_update(4, at(3.0));
        let r = t.rates(at(12.0))[0].1;
        assert!(r.update_rate > 0.0, "both events must contribute: {r:?}");
    }
}
