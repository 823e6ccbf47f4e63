//! Region queries: all objects inside a rectangle.
//!
//! §3.2.1: "An arbitrary region can be approximated by a collection of
//! cells" and "any query for … objects on 2-D space can be transformed to a
//! combination of queries on the 1-D key space for which BigTable provides
//! parallelism to read data from multiple ranges." We cover the region with
//! cells at an adaptive level, merge adjacent cells into maximal contiguous
//! key ranges (one scan RPC each), and expand schools like NN search does.
//!
//! The query is split into three separable stages so a cluster tier can
//! scatter it across shards ([`crate::cluster_tier::MoistCluster::region`]):
//!
//! 1. [`plan_region_ranges`] — pure planning: the merged contiguous
//!    leaf-index ranges covering the margin-enlarged window;
//! 2. [`region_partial_scan`] — scan any subset of those ranges and expand
//!    schools, returning a mergeable [`RegionPartial`] (no sort, no dedup);
//! 3. [`merge_region_partials`] — fold partials *by move* into the final
//!    answer, deduplicating each object exactly once at the merge.
//!
//! [`region_query`] runs all three on one session — the single-server path.

use crate::config::MoistConfig;
use crate::error::Result;
use crate::nn::Neighbor;
use crate::tables::MoistTables;
use moist_bigtable::{Session, Timestamp};
use moist_spatial::{cover_rect, Rect};

/// One `[start, end)` leaf-index range.
pub type LeafRange = (u64, u64);

/// Owner-keyed slices of a scattered region plan: `(shard id, that
/// shard's merged leaf ranges)` pairs, as produced by
/// [`crate::cluster::slice_ranges_by_replicas`] and rebalanced by
/// [`balance_slices`].
pub type OwnerSlices = Vec<(u64, Vec<LeafRange>)>;

/// Statistics of one region query.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionStats {
    /// Contiguous key ranges scanned (one RPC each).
    pub ranges_scanned: usize,
    /// Leader rows retrieved.
    pub leaders_fetched: usize,
    /// Shards that contributed partial scans (1 for single-server runs).
    pub shards_scattered: usize,
    /// Range pieces the balancing pass moved off their owner shard onto an
    /// idler one ([`balance_slices`]; 0 for single-server and unbalanced
    /// runs).
    pub slices_rebalanced: usize,
    /// Client-visible virtual µs. Partials scanned in parallel overlap, so
    /// a merged query reports the *slowest* partial, not the sum.
    pub cost_us: f64,
}

/// One shard's share of a (possibly scattered) region query: raw hits plus
/// that scan's counters. Hits are unordered and may contain duplicates
/// across partials — partials are scanned by different shards at
/// different instants, so an object moving between slices mid-scatter can
/// be sighted by two of them. Deduplication happens exactly once, in
/// [`merge_region_partials`].
#[derive(Debug, Default)]
pub struct RegionPartial {
    /// Raw hits (objects inside the query rectangle), unsorted, undeduped.
    pub hits: Vec<Neighbor>,
    /// This partial's own scan counters and virtual cost.
    pub stats: RegionStats,
    /// Measured virtual µs per scanned leaf range: `(range, cost_us)` in
    /// scan order. This is the raw signal for per-cell scan-cost learning
    /// — the serving shard apportions each range's measured cost onto the
    /// clustering cells it overlaps and feeds
    /// [`crate::load::LoadTracker::note_cell_scan`]. Only the range scans
    /// themselves are attributed; school expansion cost stays in the
    /// aggregate `stats.cost_us` (followers are fetched in one batch
    /// across ranges, so splitting that cost per range would be a guess).
    pub range_costs: Vec<(LeafRange, f64)>,
}

/// Plans a region query: the maximal contiguous leaf-index ranges covering
/// the `margin`-enlarged window around `rect`, in curve order.
///
/// Pure computation — no store access, no cost charged — so a cluster tier
/// can plan once, slice the ranges by shard owner, and hand each shard its
/// slice without any shard re-planning.
pub fn plan_region_ranges(cfg: &MoistConfig, rect: &Rect, margin: f64) -> Vec<(u64, u64)> {
    let m = margin.max(0.0);
    let scan_rect = Rect::new(
        rect.min_x - m,
        rect.min_y - m,
        rect.max_x + m,
        rect.max_y + m,
    );
    let unit = cfg.space.rect_to_unit(&scan_rect);
    // Adaptive cover level: at most a 16×16 cell grid over the region, so
    // enumeration stays bounded while ranges stay tight.
    let mut cover_level = cfg.space.leaf_level;
    while cover_level > 0 {
        let side = (1u64 << cover_level) as f64;
        if (unit.max_x - unit.min_x) * side <= 16.0 && (unit.max_y - unit.min_y) * side <= 16.0 {
            break;
        }
        cover_level -= 1;
    }
    let cells = cover_rect(cfg.space.curve, cover_level, &unit);
    // Merge adjacent cover cells into maximal contiguous leaf ranges.
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for c in &cells {
        let Some((start, end)) = c.descendant_range(cfg.space.leaf_level) else {
            continue;
        };
        match ranges.last_mut() {
            Some((_, e)) if *e == start => *e = end,
            _ => ranges.push((start, end)),
        }
    }
    ranges
}

/// Headroom each shard gets over its fair share before the balancer
/// starts moving pieces: small imbalances are not worth the extra range
/// fragmentation.
const BALANCE_SLACK: f64 = 0.10;

/// The smallest piece worth shedding or splitting off, in `cost_of`
/// units (the cluster tier prices one average clustering cell at ~1.0):
/// below this, per-range overhead on the receiving shard outweighs the
/// makespan win.
const MIN_PIECE_COST: f64 = 0.5;

/// The largest slice must carry at least this much work before balancing
/// engages at all — a small query stays on its owner, inline.
const MIN_ENGAGE_COST: f64 = 2.0;

/// Balances owner slices across the whole fleet: any shard can scan any
/// range (the store is shared), so a scattered region's client-visible
/// latency — its *slowest* slice — need not be pinned to the largest
/// ownership share. Slices costing more than a shard's fair share are
/// subdivided and the surplus pieces move to the shards with the most
/// headroom (including shards that owned nothing in this query).
///
/// `shares` lists every eligible shard id with its relative capacity (the
/// same weights the weighted rendezvous uses, so a deliberately
/// down-weighted shard is not handed surplus work). `cost_of(start, end)`
/// prices a leaf range; it must be additive over concatenation — the
/// cluster tier prices ranges with the load layer's per-cell rates, so a
/// hot business-center range counts as expensive even when it is short.
///
/// Returns the balanced `(shard id, ranges)` slices (ascending id, exact
/// same leaf-index partition as the input) plus the number of pieces
/// moved off their owner.
pub fn balance_slices(
    slices: OwnerSlices,
    shares: &[(u64, f64)],
    cost_of: impl Fn(u64, u64) -> f64,
) -> (OwnerSlices, usize) {
    if shares.len() <= 1 {
        return (slices, 0);
    }
    let total_share: f64 = shares.iter().map(|&(_, w)| w.max(0.0)).sum();
    let slice_costs: Vec<f64> = slices
        .iter()
        .map(|(_, rs)| rs.iter().map(|&(s, e)| cost_of(s, e)).sum())
        .collect();
    let total_cost: f64 = slice_costs.iter().sum();
    if total_share <= 0.0 || total_cost <= 0.0 {
        return (slices, 0);
    }
    // Engage only when it pays: the largest slice must dominate the fair
    // per-shard share (otherwise the scatter is already level — idle
    // shards count, they are capacity) and carry at least two cells'
    // worth of work (fragmenting a tiny scan across the fleet costs more
    // in per-range overhead than the overlap wins back).
    let max_cost = slice_costs.iter().fold(0.0f64, |a, &b| a.max(b));
    let fair_cost = total_cost / shares.len() as f64;
    if max_cost < (1.0 + 2.0 * BALANCE_SLACK) * fair_cost || max_cost < MIN_ENGAGE_COST {
        return (slices, 0);
    }

    // Per-shard targets and current loads (shards outside `shares` — a
    // snapshot race — keep their slices and take no surplus).
    let mut loads: std::collections::BTreeMap<u64, (f64, f64, Vec<LeafRange>)> = shares
        .iter()
        .map(|&(id, w)| (id, (total_cost * w.max(0.0) / total_share, 0.0, Vec::new())))
        .collect();
    let mut surplus: Vec<(f64, (u64, u64))> = Vec::new();
    let mut kept_extra: OwnerSlices = Vec::new();
    for (owner, ranges) in slices {
        let Some((target, load, kept)) = loads.get_mut(&owner) else {
            kept_extra.push((owner, ranges));
            continue;
        };
        let cap = *target * (1.0 + BALANCE_SLACK);
        // Largest pieces first, so the cheap tail stays put and surplus
        // comes off in few, large, contiguous chunks.
        let mut pieces: Vec<((u64, u64), f64)> =
            ranges.into_iter().map(|r| (r, cost_of(r.0, r.1))).collect();
        pieces.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for ((start, end), cost) in pieces {
            // Keep pieces that fit, and overflows too small to be worth
            // fragmenting off.
            if *load + cost <= cap || cost <= 0.0 || *load + cost - cap < MIN_PIECE_COST {
                *load += cost;
                kept.push((start, end));
                continue;
            }
            // This piece overflows the shard: keep a prefix that fills up
            // to the cap (split at a leaf boundary by bisection on the
            // additive cost), shed the rest.
            let room = cap - *load;
            let (keep, shed) = split_range_at_cost((start, end), room, &cost_of);
            if let Some(r) = keep {
                *load += cost_of(r.0, r.1);
                kept.push(r);
            }
            if let Some(r) = shed {
                surplus.push((cost_of(r.0, r.1), r));
            }
        }
    }

    // Hand surplus pieces, costliest first, to the shard with the most
    // headroom (LPT greedy); oversized pieces split further so one chunk
    // cannot recreate the imbalance on its new shard. Ascending sort +
    // `pop()` = costliest first.
    surplus.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut moved = 0usize;
    while let Some((cost, range)) = surplus.pop() {
        // The shard with the most headroom takes the next piece; ties
        // break towards the smaller id for determinism.
        let best_id = *loads
            .iter()
            .max_by(|(ia, (ta, la, _)), (ib, (tb, lb, _))| {
                (ta - la)
                    .partial_cmp(&(tb - lb))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ib.cmp(ia))
            })
            .map(|(id, _)| id)
            .expect("shares is non-empty");
        let (target, load, kept) = loads.get_mut(&best_id).expect("best shard exists");
        let headroom = (*target - *load).max(0.0);
        if cost > headroom * (1.0 + BALANCE_SLACK)
            && cost > 2.0 * MIN_PIECE_COST
            && range.1 - range.0 > 1
        {
            // Still too big for the idlest shard: halve and retry both.
            let mid = range.0 + (range.1 - range.0) / 2;
            surplus.push((cost_of(range.0, mid), (range.0, mid)));
            surplus.push((cost_of(mid, range.1), (mid, range.1)));
            surplus.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            continue;
        }
        *load += cost;
        kept.push(range);
        moved += 1;
    }

    let mut out: OwnerSlices = loads
        .into_iter()
        .filter(|(_, (_, _, kept))| !kept.is_empty())
        .map(|(id, (_, _, mut kept))| {
            kept.sort_unstable();
            // Re-merge adjacency so a shard still scans maximal ranges.
            let mut merged: Vec<(u64, u64)> = Vec::with_capacity(kept.len());
            for (s, e) in kept {
                match merged.last_mut() {
                    Some((_, le)) if *le == s => *le = e,
                    _ => merged.push((s, e)),
                }
            }
            (id, merged)
        })
        .collect();
    out.extend(kept_extra);
    out.sort_by_key(|&(id, _)| id);
    (out, moved)
}

/// Splits `range` at a leaf boundary so the left part costs at most
/// `budget` (bisection over the additive `cost_of`). Either part may be
/// empty (`None`): a zero budget sheds the whole range.
fn split_range_at_cost(
    range: LeafRange,
    budget: f64,
    cost_of: &impl Fn(u64, u64) -> f64,
) -> (Option<LeafRange>, Option<LeafRange>) {
    let (start, end) = range;
    if budget <= 0.0 {
        return (None, Some(range));
    }
    let (mut lo, mut hi) = (start, end);
    // Largest cut with cost(start, cut) <= budget.
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if cost_of(start, mid) <= budget {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let cut = lo;
    let left = (cut > start).then_some((start, cut));
    let right = (cut < end).then_some((cut, end));
    (left, right)
}

/// Scans a pre-planned slice of a region query's leaf ranges: retrieves the
/// leaders in `ranges`, filters by the true `rect`, and (optionally)
/// expands their schools. Returns the raw partial — no sort, no dedup;
/// those happen once, in [`merge_region_partials`].
pub fn region_partial_scan(
    s: &mut Session,
    tables: &MoistTables,
    ranges: &[(u64, u64)],
    rect: &Rect,
    at: Timestamp,
    include_followers: bool,
) -> Result<RegionPartial> {
    let mut stats = RegionStats {
        shards_scattered: 1,
        ..RegionStats::default()
    };
    let cost0 = s.elapsed_us();
    let mut leaders = Vec::new();
    let mut range_costs = Vec::with_capacity(ranges.len());
    for &(start, end) in ranges {
        if end <= start {
            continue;
        }
        let before = s.elapsed_us();
        let entries = tables.spatial_scan_range(s, start, end, None)?;
        range_costs.push(((start, end), s.elapsed_us() - before));
        stats.ranges_scanned += 1;
        stats.leaders_fetched += entries.len();
        leaders.extend(entries);
    }
    let mut hits: Vec<Neighbor> = Vec::new();
    let mut kept: Vec<(crate::tables::SpatialEntry, moist_spatial::Point)> = Vec::new();
    for entry in leaders {
        let pos = entry
            .record
            .loc
            .advance(entry.record.vel, at.secs_since(entry.ts));
        // The planned cover is a superset: filter by the true rectangle.
        if rect.contains(&pos) {
            hits.push(Neighbor {
                oid: entry.oid,
                loc: pos,
                distance: 0.0,
                leader: entry.oid,
            });
            kept.push((entry, pos));
        } else if include_followers {
            // A leader just outside may still have followers inside.
            kept.push((entry, pos));
        }
    }
    if include_followers && !kept.is_empty() {
        let ids: Vec<_> = kept.iter().map(|(e, _)| e.oid).collect();
        let infos = tables.batch_followers(s, &ids)?;
        for ((entry, leader_pos), followers) in kept.iter().zip(infos) {
            for (foid, disp) in followers {
                let pos = leader_pos.translate(disp);
                if rect.contains(&pos) {
                    hits.push(Neighbor {
                        oid: foid,
                        loc: pos,
                        distance: 0.0,
                        leader: entry.oid,
                    });
                }
            }
        }
    }
    stats.cost_us = s.elapsed_us() - cost0;
    Ok(RegionPartial {
        hits,
        stats,
        range_costs,
    })
}

/// Folds partial results into the final region answer: hits are moved (not
/// cloned) into one vector, sorted by object id, and deduplicated exactly
/// once. Scan counters add up; `cost_us` is the *maximum* partial cost,
/// because scattered partials consume store time in parallel — that max is
/// the client-visible latency of the fan-out.
pub fn merge_region_partials(parts: Vec<RegionPartial>) -> (Vec<Neighbor>, RegionStats) {
    let mut stats = RegionStats::default();
    let total: usize = parts.iter().map(|p| p.hits.len()).sum();
    let mut out: Vec<Neighbor> = Vec::with_capacity(total);
    for part in parts {
        stats.ranges_scanned += part.stats.ranges_scanned;
        stats.leaders_fetched += part.stats.leaders_fetched;
        stats.shards_scattered += part.stats.shards_scattered;
        stats.cost_us = stats.cost_us.max(part.stats.cost_us);
        out.extend(part.hits);
    }
    out.sort_by_key(|n| n.oid);
    out.dedup_by_key(|n| n.oid);
    (out, stats)
}

/// Returns every object inside the world-coordinate `rect` at time `at`
/// (leaders extrapolated linearly; followers at leader + displacement when
/// `include_followers`).
///
/// `margin` enlarges the *scanned* window (not the returned filter): the
/// Spatial Index Table stores last-reported positions, so an object indexed
/// just outside the rect may have moved inside since, and a school leader
/// outside may carry followers displaced inside. Choose
/// `margin ≥ v_max · max-staleness + school radius` for exact results —
/// the same enlargement rule the Bx-tree applies to its windows.
pub fn region_query(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    rect: &Rect,
    at: Timestamp,
    include_followers: bool,
    margin: f64,
) -> Result<(Vec<Neighbor>, RegionStats)> {
    let ranges = plan_region_ranges(cfg, rect, margin);
    let part = region_partial_scan(s, tables, &ranges, rect, at, include_followers)?;
    Ok(merge_region_partials(vec![part]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::LfRecord;
    use crate::ids::ObjectId;
    use crate::update::{apply_update, UpdateMessage};
    use moist_bigtable::{Bigtable, CostProfile};
    use moist_spatial::{Displacement, Point, Velocity};
    use std::sync::Arc;

    fn setup() -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session_with(CostProfile::free());
        (store, tables, session, cfg)
    }

    fn put(s: &mut Session, t: &MoistTables, cfg: &MoistConfig, oid: u64, x: f64, y: f64) {
        apply_update(
            s,
            t,
            cfg,
            &UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::ZERO,
                ts: Timestamp::from_secs(1),
            },
        )
        .unwrap();
    }

    #[test]
    fn matches_brute_force_on_a_grid() {
        let (_st, t, mut s, cfg) = setup();
        for i in 0..100u64 {
            put(
                &mut s,
                &t,
                &cfg,
                i,
                (i % 10) as f64 * 100.0 + 5.0,
                (i / 10) as f64 * 100.0 + 5.0,
            );
        }
        let rect = Rect::new(150.0, 150.0, 450.0, 350.0);
        let (hits, stats) =
            region_query(&mut s, &t, &cfg, &rect, Timestamp::from_secs(1), true, 0.0).unwrap();
        // Brute force: x ∈ {205, 305, 405}, y ∈ {205, 305}: 6 objects.
        assert_eq!(hits.len(), 6);
        for h in &hits {
            assert!(rect.contains(&h.loc));
        }
        assert!(stats.ranges_scanned >= 1);
        assert!(stats.leaders_fetched >= 6);
    }

    #[test]
    fn extrapolates_moving_leaders() {
        let (_st, t, mut s, cfg) = setup();
        apply_update(
            &mut s,
            &t,
            &cfg,
            &UpdateMessage {
                oid: ObjectId(1),
                loc: Point::new(100.0, 500.0),
                vel: Velocity::new(10.0, 0.0),
                ts: Timestamp::from_secs(0),
            },
        )
        .unwrap();
        // At t=20 the object should be around x=300.
        let rect = Rect::new(290.0, 490.0, 310.0, 510.0);
        // Margin must cover v·staleness = 10 u/s × 20 s = 200 units.
        let (hits, _) = region_query(
            &mut s,
            &t,
            &cfg,
            &rect,
            Timestamp::from_secs(20),
            true,
            200.0,
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        // And not at its stale location (even with the generous margin).
        let stale = Rect::new(90.0, 490.0, 110.0, 510.0);
        let (hits, _) = region_query(
            &mut s,
            &t,
            &cfg,
            &stale,
            Timestamp::from_secs(20),
            true,
            200.0,
        )
        .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn followers_of_outside_leaders_are_found() {
        let (_st, t, mut s, cfg) = setup();
        // Leader outside the query rect; follower displaced inside it.
        put(&mut s, &t, &cfg, 1, 100.0, 100.0);
        let d = Displacement::new(200.0, 0.0); // follower at (300, 100)
        t.set_lf(
            &mut s,
            ObjectId(2),
            &LfRecord::Follower {
                leader: ObjectId(1),
                displacement: d,
                since_us: 0,
            },
            Timestamp::from_secs(1),
        )
        .unwrap();
        t.add_follower(&mut s, ObjectId(1), ObjectId(2), d, Timestamp::from_secs(1))
            .unwrap();
        let rect = Rect::new(250.0, 50.0, 350.0, 150.0);
        // Margin must cover the school's displacement span (200 units).
        let (hits, _) = region_query(
            &mut s,
            &t,
            &cfg,
            &rect,
            Timestamp::from_secs(1),
            true,
            200.0,
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].oid, ObjectId(2));
        assert_eq!(hits[0].leader, ObjectId(1));
        // Leaders-only mode misses it.
        let (hits, _) = region_query(
            &mut s,
            &t,
            &cfg,
            &rect,
            Timestamp::from_secs(1),
            false,
            200.0,
        )
        .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn empty_region_is_cheap_and_empty() {
        let (_st, t, mut s, cfg) = setup();
        put(&mut s, &t, &cfg, 1, 900.0, 900.0);
        let rect = Rect::new(0.0, 0.0, 50.0, 50.0);
        let (hits, stats) =
            region_query(&mut s, &t, &cfg, &rect, Timestamp::from_secs(1), true, 0.0).unwrap();
        assert!(hits.is_empty());
        assert_eq!(stats.leaders_fetched, 0);
    }

    /// Flattens balanced slices back into a sorted leaf-range list.
    fn flatten(slices: &[(u64, Vec<(u64, u64)>)]) -> Vec<(u64, u64)> {
        let mut flat: Vec<(u64, u64)> = slices
            .iter()
            .flat_map(|(_, rs)| rs.iter().copied())
            .collect();
        flat.sort_unstable();
        flat
    }

    fn span_cost(s: u64, e: u64) -> f64 {
        (e - s) as f64
    }

    #[test]
    fn balance_subdivides_the_dominant_slice_across_idle_shards() {
        // Shard 1 owns 80 cost units, shard 2 owns 10, shards 3 and 4 own
        // nothing — the client-visible makespan is 80 without balancing.
        let slices = vec![(1u64, vec![(0u64, 80u64)]), (2, vec![(100, 110)])];
        let shares = vec![(1u64, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)];
        let (balanced, moved) = balance_slices(slices, &shares, span_cost);
        assert!(moved > 0, "the 80-cost slice must shed work");
        // Exact partition is preserved.
        let flat = flatten(&balanced);
        let total: u64 = flat.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, 90);
        for pair in flat.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
        // The makespan drops towards the mean (90/4 = 22.5, +slack).
        let max_load: f64 = balanced
            .iter()
            .map(|(_, rs)| rs.iter().map(|&(s, e)| span_cost(s, e)).sum::<f64>())
            .fold(0.0, f64::max);
        assert!(
            max_load <= 90.0 / 4.0 * 1.35,
            "makespan {max_load} still dominated by one shard"
        );
        // Previously idle shards now carry work.
        let active = balanced.iter().filter(|(_, rs)| !rs.is_empty()).count();
        assert!(
            active >= 3,
            "idle shards must pick up surplus: {balanced:?}"
        );
    }

    #[test]
    fn balance_leaves_level_or_tiny_scatters_alone() {
        // Already level: nothing moves.
        let level = vec![(1u64, vec![(0u64, 10u64)]), (2, vec![(10, 20)])];
        let shares = vec![(1u64, 1.0), (2, 1.0)];
        let (out, moved) = balance_slices(level.clone(), &shares, span_cost);
        assert_eq!(moved, 0);
        assert_eq!(out, level);
        // A tiny single-owner query is not worth fragmenting.
        let tiny = vec![(1u64, vec![(0u64, 1u64)])];
        let shares = vec![(1u64, 1.0), (2, 1.0), (3, 1.0)];
        let (out, moved) = balance_slices(tiny.clone(), &shares, |s, e| (e - s) as f64);
        assert_eq!(moved, 0);
        assert_eq!(out, tiny);
        // Single-shard fleets trivially keep their slices.
        let one = vec![(7u64, vec![(0u64, 50u64)])];
        let (out, moved) = balance_slices(one.clone(), &[(7, 1.0)], span_cost);
        assert_eq!(moved, 0);
        assert_eq!(out, one);
    }

    #[test]
    fn balance_respects_weighted_capacity_shares() {
        // Shard 2 is down-weighted (placement decided it is overloaded):
        // the balancer must hand it less surplus than the others.
        let slices = vec![(1u64, vec![(0u64, 100u64)])];
        let shares = vec![(1u64, 1.0), (2, 0.125), (3, 1.0)];
        let (balanced, moved) = balance_slices(slices, &shares, span_cost);
        assert!(moved > 0);
        let load_of = |id: u64| -> f64 {
            balanced
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, rs)| rs.iter().map(|&(s, e)| span_cost(s, e)).sum())
                .unwrap_or(0.0)
        };
        assert!(
            load_of(2) < load_of(3) / 2.0,
            "down-weighted shard got {} vs {}",
            load_of(2),
            load_of(3)
        );
        let total: f64 = [1, 2, 3].iter().map(|&id| load_of(id)).sum();
        assert!((total - 100.0).abs() < 1e-9, "work must be conserved");
    }

    #[test]
    fn balance_assigns_surplus_costliest_first() {
        // Surplus shape [5,1,1,1,1,1] over two idle shards of capacity 5:
        // the LPT greedy (costliest first) reaches the optimal makespan 5;
        // cheapest-first fills both shards with the 1s and then has to dump
        // the indivisible 5-cost piece on top of one of them (makespan 7).
        let cost =
            |s: u64, e: u64| -> f64 { (s..e).map(|l| if l == 100 { 5.0 } else { 1.0 }).sum() };
        let slices = vec![(
            1u64,
            vec![(100u64, 101u64), (0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
        )];
        // Shard 1 is capacity-zero (drained), so every piece becomes
        // surplus for the two idle shards.
        let shares = vec![(1u64, 0.0), (2, 1.0), (3, 1.0)];
        let (balanced, moved) = balance_slices(slices, &shares, cost);
        assert_eq!(moved, 6, "every piece must move off the drained shard");
        let max_load: f64 = balanced
            .iter()
            .map(|(_, rs)| rs.iter().map(|&(s, e)| cost(s, e)).sum::<f64>())
            .fold(0.0, f64::max);
        assert!(
            max_load <= 5.5,
            "costliest-first must reach the optimal makespan 5, got {max_load}: {balanced:?}"
        );
        let total: f64 = balanced
            .iter()
            .flat_map(|(_, rs)| rs.iter())
            .map(|&(s, e)| cost(s, e))
            .sum();
        assert!((total - 10.0).abs() < 1e-9, "work must be conserved");
    }

    #[test]
    fn balance_prices_slices_by_density_not_just_span() {
        // Two equal-span slices, but shard 1's range is 9x denser: the
        // balancer must shed from the *hot* slice even though spans match.
        let density =
            |s: u64, e: u64| -> f64 { (s..e).map(|leaf| if leaf < 10 { 9.0 } else { 1.0 }).sum() };
        let slices = vec![(1u64, vec![(0u64, 10u64)]), (2, vec![(10, 20)])];
        let shares = vec![(1u64, 1.0), (2, 1.0), (3, 1.0)];
        let (balanced, moved) = balance_slices(slices, &shares, density);
        assert!(moved > 0, "the dense slice must shed");
        let hot_kept: f64 = balanced
            .iter()
            .find(|(id, _)| *id == 1)
            .map(|(_, rs)| rs.iter().map(|&(s, e)| density(s, e)).sum())
            .unwrap_or(0.0);
        assert!(
            hot_kept <= 100.0 / 3.0 * 1.35,
            "shard 1 still holds {hot_kept} of 100 cost"
        );
        let total: f64 = balanced
            .iter()
            .flat_map(|(_, rs)| rs.iter())
            .map(|&(s, e)| density(s, e))
            .sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn whole_map_region_returns_everything_once() {
        let (_st, t, mut s, cfg) = setup();
        for i in 0..50u64 {
            put(
                &mut s,
                &t,
                &cfg,
                i,
                (i * 19 % 1000) as f64,
                (i * 37 % 1000) as f64,
            );
        }
        let (hits, _) = region_query(
            &mut s,
            &t,
            &cfg,
            &cfg.space.world,
            Timestamp::from_secs(1),
            true,
            0.0,
        )
        .unwrap();
        assert_eq!(hits.len(), 50);
        let mut ids: Vec<u64> = hits.iter().map(|h| h.oid.0).collect();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }
}
