//! Periodic lazy clustering (§3.3.2).
//!
//! Clustering runs cell by cell over *clustering cells* — cells several
//! levels coarser than the spatial leaf level, so each one is a contiguous
//! row range batch-read from the Spatial Index Table. Within a cell:
//!
//! 1. **read** — batch-scan the cell's leaders and batch-get their Follower
//!    Info from the Affiliation Table;
//! 2. **compute** — map each leader's velocity to a hexagonal bin (`O(1)`
//!    each, `O(n)` total) and merge the leaders sharing a bin;
//! 3. **write** — commit each merged leader by atomically deleting its
//!    Spatial Index row *guarded on the scanned value* (the store's
//!    check-and-mutate), then apply the affiliation rewrites as batched
//!    mutations: transfer Follower Info, rewrite L/F entries of moved
//!    followers. A leader whose row changed since the scan (it updated or
//!    moved concurrently on another shard) fails the guard and its merge
//!    is aborted for this round — clustering never demotes a live leader
//!    out from under a racing cross-route move.
//!
//! The per-phase virtual latencies are reported so Figure 10's
//! read/compute/write breakdown can be regenerated.

use crate::codec::LfRecord;
use crate::config::MoistConfig;
use crate::error::Result;
use crate::hexgrid::{HexBin, HexGrid};
use crate::ids::ObjectId;
use crate::tables::{MoistTables, SpatialEntry};
use moist_bigtable::{RowMutation, Session, Timestamp};
use moist_spatial::{cells_at_level, CellId};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Outcome and phase timing of clustering one cell.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Leaders present before clustering.
    pub pre_leaders: usize,
    /// Leaders remaining after clustering.
    pub post_leaders: usize,
    /// Leaders merged into other schools.
    pub merged: usize,
    /// Merges aborted because the leader's spatial row changed between
    /// the clustering scan and the guarded commit (a racing update won).
    pub merge_aborts: usize,
    /// Followers whose affiliation was rewritten.
    pub followers_moved: usize,
    /// Virtual µs spent reading (Spatial Index + Affiliation batch reads).
    pub read_us: f64,
    /// Virtual µs spent on the in-server computation.
    pub compute_us: f64,
    /// Virtual µs spent writing the merge batches.
    pub write_us: f64,
}

impl ClusterReport {
    /// Total virtual latency of this clustering.
    pub fn total_us(&self) -> f64 {
        self.read_us + self.compute_us + self.write_us
    }

    /// Accumulates another report (for whole-map sweeps).
    pub fn merge_from(&mut self, other: &ClusterReport) {
        self.pre_leaders += other.pre_leaders;
        self.post_leaders += other.post_leaders;
        self.merged += other.merged;
        self.merge_aborts += other.merge_aborts;
        self.followers_moved += other.followers_moved;
        self.read_us += other.read_us;
        self.compute_us += other.compute_us;
        self.write_us += other.write_us;
    }
}

/// Clusters one clustering cell: merges leaders with similar velocities.
///
/// `now` stamps the rewritten records. Geographic proximity is inherent:
/// only leaders inside the same clustering cell are candidates (§3.3.2).
pub fn cluster_cell(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    cell: CellId,
    now: Timestamp,
) -> Result<ClusterReport> {
    let mut report = ClusterReport::default();

    // ---- read phase ----
    let t0 = s.elapsed_us();
    let leaders: Vec<SpatialEntry> =
        tables.spatial_scan_cell(s, cell, cfg.space.leaf_level, None)?;
    report.pre_leaders = leaders.len();
    if leaders.len() < 2 {
        report.post_leaders = leaders.len();
        report.read_us = s.elapsed_us() - t0;
        return Ok(report);
    }
    let leader_ids: Vec<ObjectId> = leaders.iter().map(|e| e.oid).collect();
    let follower_infos = tables.batch_followers(s, &leader_ids)?;
    report.read_us = s.elapsed_us() - t0;

    // ---- compute phase (wall-measured, charged to the virtual clock) ----
    let wall0 = std::time::Instant::now();
    let grid = HexGrid::new(cfg.delta_m);
    let mut bins: HashMap<HexBin, Vec<usize>> = HashMap::new();
    for (i, entry) in leaders.iter().enumerate() {
        bins.entry(grid.bin(&entry.record.vel)).or_default().push(i);
    }
    // Within each bin, the leader with the most followers survives — it is
    // the cheapest merge (fewest L/F rewrites).
    struct Merge {
        survivor: usize,
        absorbed: Vec<usize>,
    }
    let merges: Vec<Merge> = bins
        .into_values()
        .filter(|members| members.len() > 1)
        .map(|mut members| {
            members
                .sort_by_key(|&i| (std::cmp::Reverse(follower_infos[i].len()), leaders[i].oid.0));
            let survivor = members[0];
            Merge {
                survivor,
                absorbed: members[1..].to_vec(),
            }
        })
        .collect();
    let compute_wall_us = wall0.elapsed().as_secs_f64() * 1e6;
    s.charge_extra_us(compute_wall_us);
    report.compute_us = compute_wall_us;

    // ---- write phase ----
    //
    // Each absorbed leader commits through per-row guards rather than one
    // blind batch, because a move is applied by the *destination* leaf's
    // owner. A move that stays inside this cell's level+1 child shares
    // the routing key and waits on this shard's lock; a move across a
    // level+1 boundary may run on another shard, outside this cell's
    // serialization (see `crate::update`):
    //
    // * the **commit point** is a check-and-mutate delete of j's spatial
    //   row (fails ⇒ j moved since the scan ⇒ j's merge aborts whole);
    //   the update path's cross-route move deletes through the same guard
    //   ([`MoistTables::spatial_check_and_delete_value`]), so exactly one
    //   side wins and an absorbed leader can never be resurrected;
    // * each **follower re-affiliation** is a check-and-mutate on the
    //   follower's L/F record (fails ⇒ the follower promoted since the
    //   scan ⇒ it keeps its self-chosen affiliation and the school add is
    //   compensated).
    let t1 = s.elapsed_us();
    let mut merged_count = 0usize;
    let mut followers_moved = 0usize;
    let mut aborted = 0usize;
    // Leaders' stored records carry different timestamps (each wrote at its
    // own last update); advance both to `now` under linear motion before
    // differencing, or displacements absorb up to v·Δt of skew.
    let pos_now = |e: &SpatialEntry| e.record.loc.advance(e.record.vel, now.secs_since(e.ts));
    for m in &merges {
        let survivor = &leaders[m.survivor];
        for &j in &m.absorbed {
            let absorbed = &leaders[j];
            // (iii, hoisted) the commit point: atomically delete j from
            // the Spatial Index Table iff its row still holds the scanned
            // record. From here until j's L/F record flips below, j's own
            // updates back off (their guarded move finds no row), so j's
            // affiliation cannot change under us.
            if !tables.spatial_check_and_delete(s, absorbed)? {
                aborted += 1;
                continue;
            }
            // Displacement from the survivor to the absorbed leader at `now`.
            let lead_disp = pos_now(survivor).displacement_to(&pos_now(absorbed));
            // (ii) every follower of j re-affiliates to the survivor; its
            // displacement composes: survivor → j → follower. Re-read the
            // follower's record (not the scanned copy): one that departed
            // since the scan is no longer ours to move.
            for &(f, _) in &follower_infos[j] {
                let (d, expected) = match tables.lf(s, f)? {
                    Some(LfRecord::Follower {
                        leader,
                        displacement,
                        since_us,
                    }) if leader == absorbed.oid => (
                        displacement,
                        LfRecord::Follower {
                            leader,
                            displacement,
                            since_us,
                        },
                    ),
                    _ => continue, // departed (or re-led) since the scan
                };
                let nd = moist_spatial::Displacement::new(lead_disp.dx + d.dx, lead_disp.dy + d.dy);
                // School row before pointer: once the guarded flip lands,
                // f's very next update can depart and must find itself in
                // the survivor's Follower Info to remove.
                tables.add_follower(s, survivor.oid, f, nd, now)?;
                let flipped = tables.lf_check_and_set(
                    s,
                    f,
                    &expected,
                    &LfRecord::Follower {
                        leader: survivor.oid,
                        displacement: nd,
                        since_us: now.0,
                    },
                    now,
                )?;
                if flipped {
                    followers_moved += 1;
                } else {
                    // f promoted between the re-read and the guard: it
                    // never saw the survivor, so un-add it.
                    tables.remove_follower(s, survivor.oid, f)?;
                }
            }
            // (i) j's Follower Info is cleared and j itself becomes a
            // follower of the survivor (school row first, pointer last —
            // j's updates are backed off, see the commit point above).
            // The pointer flip goes through `set_lf` so it lands at a
            // superseding timestamp: this ticker's clock may trail j's
            // own report clock, and a flip stamped behind j's Leader
            // record would be shadowed — j would read itself a leader
            // forever while sitting in the survivor's school.
            tables.affiliation_batch(
                s,
                &coalesce_rows(vec![
                    MoistTables::clear_followers_mutation(absorbed.oid),
                    MoistTables::add_follower_mutation(survivor.oid, absorbed.oid, lead_disp, now),
                ]),
            )?;
            tables.set_lf(
                s,
                absorbed.oid,
                &LfRecord::Follower {
                    leader: survivor.oid,
                    displacement: lead_disp,
                    since_us: now.0,
                },
                now,
            )?;
            merged_count += 1;
        }
    }
    report.write_us = s.elapsed_us() - t1;
    report.merge_aborts = aborted;
    report.merged = merged_count;
    report.followers_moved = followers_moved;
    report.post_leaders = report.pre_leaders - merged_count;
    Ok(report)
}

/// Merges the mutations targeting the same row into one [`RowMutation`]
/// (preserving per-row mutation order), the way a batching client library
/// groups its commit: row-level atomicity is unchanged, the batch just
/// carries fewer row headers.
fn coalesce_rows(batch: Vec<RowMutation>) -> Vec<RowMutation> {
    let mut order: Vec<moist_bigtable::RowKey> = Vec::new();
    let mut by_row: HashMap<moist_bigtable::RowKey, Vec<moist_bigtable::Mutation>> = HashMap::new();
    for rm in batch {
        match by_row.entry(rm.key.clone()) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                e.get_mut().extend(rm.mutations);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                order.push(rm.key.clone());
                e.insert(rm.mutations);
            }
        }
    }
    order
        .into_iter()
        .map(|key| {
            let mutations = by_row.remove(&key).expect("tracked key");
            RowMutation { key, mutations }
        })
        .collect()
}

/// Clusters every clustering cell of the map once, sequentially ("at any
/// given time only a small number of clustering cells are being processed",
/// §3.3.2). Returns the aggregated report.
pub fn cluster_sweep(
    s: &mut Session,
    tables: &MoistTables,
    cfg: &MoistConfig,
    now: Timestamp,
) -> Result<ClusterReport> {
    let mut total = ClusterReport::default();
    for index in 0..cells_at_level(cfg.clustering_level) {
        let cell = CellId {
            level: cfg.clustering_level,
            index,
        };
        let r = cluster_cell(s, tables, cfg, cell, now)?;
        total.merge_from(&r);
    }
    Ok(total)
}

/// Rendezvous weight of `(key, member)`: a splitmix64-style finalizer over
/// the pair, so each member's weight stream is decorrelated both across
/// keys (curve-adjacent hot cells spread out) and across members.
fn rendezvous_weight(key: u64, member: u64) -> u64 {
    let mut z = key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(member.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rendezvous (highest-random-weight) owner of `key` among `members`
/// (stable shard ids): the member whose hashed weight for this key is
/// largest wins, ties broken towards the smaller id.
///
/// Unlike a modular hash over the member *count*, membership changes
/// remap the minimum: adding a member steals only the keys it now wins
/// (~`1/(N+1)` of them) and removing a member reassigns only the keys it
/// owned — every other key's winner is untouched, because the surviving
/// members' weights do not change. The result is also independent of the
/// order of `members`.
///
/// Panics if `members` is empty (an empty cluster owns nothing).
pub fn rendezvous_owner(key: u64, members: &[u64]) -> u64 {
    rendezvous_max(key, members.iter().copied(), |&m| m).expect("rendezvous over empty membership")
}

/// One member of a weighted membership: a stable shard id plus its
/// placement weight (relative capacity — the load-signal layer derives it
/// from measured utilization; see
/// [`crate::cluster_tier::MoistCluster::rebalance`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardWeight {
    /// Stable shard id.
    pub id: u64,
    /// Relative capacity; non-finite or non-positive weights are clamped
    /// to a small floor so a misconfigured shard still owns *something*
    /// (total loss of ownership would orphan its in-flight state).
    pub weight: f64,
}

impl ShardWeight {
    /// A unit-weight member (the unweighted-rendezvous behaviour).
    pub fn unit(id: u64) -> Self {
        ShardWeight { id, weight: 1.0 }
    }
}

/// Weighted rendezvous owner of `key`: log-weight (highest-random-weight
/// with weights) selection, `score(m) = w_m / (−ln u_m)` where `u_m ∈
/// (0,1)` is the member's hashed draw for this key. The member with the
/// largest score wins.
///
/// Properties (property-tested in `moist-core/tests/rendezvous_props.rs`):
///
/// * **proportional share** — each member owns a fraction of the key
///   space proportional to `w_m / Σw` (within hash noise);
/// * **minimal remap under weight change** — raising one member's weight
///   only moves keys *to* it, lowering it only moves keys *away* from it
///   (the other members' scores are untouched);
/// * **equal weights ⇒ plain rendezvous** — with all weights equal the
///   winner is exactly [`rendezvous_owner`]'s (the score is monotone in
///   the hashed draw, and ties fall back to the raw 64-bit weight), so
///   the unweighted API is the `w ≡ 1` special case, not a second hash.
///
/// Panics if `members` is empty.
pub fn weighted_rendezvous_owner(key: u64, members: &[ShardWeight]) -> u64 {
    weighted_rendezvous_max(key, members.iter(), |m| m.id, |m| m.weight)
        .map(|m| m.id)
        .expect("rendezvous over empty membership")
}

/// The weight floor substituted for non-finite / non-positive weights.
const MIN_SHARD_WEIGHT: f64 = 1e-6;

/// The rendezvous winner of `key` among `members`, each identified by
/// `id_of` and weighted by `weight_of`. The single definition of winner
/// selection — [`rendezvous_owner`], [`weighted_rendezvous_owner`] and the
/// cluster tier's entry-based hot routing path all go through it, so
/// routing and scheduler ownership can never disagree on a tie-break or
/// weight change.
pub(crate) fn weighted_rendezvous_max<T>(
    key: u64,
    members: impl Iterator<Item = T>,
    id_of: impl Fn(&T) -> u64,
    weight_of: impl Fn(&T) -> f64,
) -> Option<T> {
    let mut best: Option<(f64, u64, u64, T)> = None;
    for m in members {
        let id = id_of(&m);
        let h = rendezvous_weight(key, id);
        // Map the top 53 bits into (0,1): never 0 or 1, so ln is finite.
        let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let w = {
            let w = weight_of(&m);
            if w.is_finite() && w > 0.0 {
                w.max(MIN_SHARD_WEIGHT)
            } else {
                MIN_SHARD_WEIGHT
            }
        };
        let score = w / -u.ln();
        let better = match &best {
            None => true,
            // Tie-break: raw 64-bit draw (restores the unweighted
            // ordering when equal weights collapse scores), then the
            // smaller id.
            Some((bs, bh, bid, _)) => {
                score > *bs || (score == *bs && (h > *bh || (h == *bh && id < *bid)))
            }
        };
        if better {
            best = Some((score, h, id, m));
        }
    }
    best.map(|(_, _, _, m)| m)
}

/// The unweighted rendezvous winner — [`weighted_rendezvous_max`] with
/// every weight 1 (bit-identical winners; see there).
pub(crate) fn rendezvous_max<T>(
    key: u64,
    members: impl Iterator<Item = T>,
    id_of: impl Fn(&T) -> u64,
) -> Option<T> {
    weighted_rendezvous_max(key, members, id_of, |_| 1.0)
}

/// The rendezvous top-`k` of `key` among `members`, best first, under
/// exactly [`weighted_rendezvous_max`]'s ordering (score, then raw draw,
/// then smaller id). Since member ids are distinct that ordering is a
/// strict total order, so the ranked list is well-defined and its first
/// element is bit-identical to the single winner — `k = 1` reproduces
/// [`weighted_rendezvous_owner`] exactly.
///
/// Rank is what makes HRW replica sets cheap: a member's score for a key
/// never depends on who else is in the membership, so a join inserts the
/// joiner at its rank and shifts only lower ranks down (the top-`k` set
/// loses at most its last element), and a leave erases one rank and
/// promotes the next — the basis for instant follower promotion.
pub(crate) fn weighted_rendezvous_ranked<T>(
    key: u64,
    members: impl Iterator<Item = T>,
    id_of: impl Fn(&T) -> u64,
    weight_of: impl Fn(&T) -> f64,
    k: usize,
) -> Vec<T> {
    if k == 0 {
        return Vec::new();
    }
    // Small insertion-sorted list (k is 2–3 in practice).
    let mut ranked: Vec<(f64, u64, u64, T)> = Vec::with_capacity(k + 1);
    for m in members {
        let id = id_of(&m);
        let h = rendezvous_weight(key, id);
        let u = ((h >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let w = {
            let w = weight_of(&m);
            if w.is_finite() && w > 0.0 {
                w.max(MIN_SHARD_WEIGHT)
            } else {
                MIN_SHARD_WEIGHT
            }
        };
        let score = w / -u.ln();
        let pos = ranked
            .iter()
            .position(|(bs, bh, bid, _)| {
                score > *bs || (score == *bs && (h > *bh || (h == *bh && id < *bid)))
            })
            .unwrap_or(ranked.len());
        if pos < k {
            ranked.insert(pos, (score, h, id, m));
            ranked.truncate(k);
        }
    }
    ranked.into_iter().map(|(_, _, _, m)| m).collect()
}

/// The ranked rendezvous replica set of `key`: the top-`k` members by
/// hashed weight, best first. `owners[0]` is the primary and equals
/// [`rendezvous_owner`] bit-identically; `owners[1..]` are the followers
/// in promotion order. `k` is clamped to the membership size.
///
/// Panics if `members` is empty.
pub fn rendezvous_owners(key: u64, members: &[u64], k: usize) -> Vec<u64> {
    assert!(!members.is_empty(), "rendezvous over empty membership");
    weighted_rendezvous_ranked(key, members.iter().copied(), |&m| m, |_| 1.0, k)
}

/// The ranked *weighted* rendezvous replica set of `key`, best first
/// under [`weighted_rendezvous_owner`]'s ordering: `owners[0]` equals the
/// single weighted winner bit-identically, `owners[1..]` are the
/// followers in promotion order. `k` is clamped to the membership size.
///
/// Panics if `members` is empty.
pub fn weighted_rendezvous_owners(key: u64, members: &[ShardWeight], k: usize) -> Vec<u64> {
    assert!(!members.is_empty(), "rendezvous over empty membership");
    weighted_rendezvous_ranked(key, members.iter(), |m| m.id, |m| m.weight, k)
        .into_iter()
        .map(|m| m.id)
        .collect()
}

/// Tag bit marking a routing key as a *child* cell one level finer than
/// the clustering level (set by [`SplitTable::route_leaf`] for split
/// cells). Cell indexes use at most `2·leaf_level ≤ 62` bits, so the top
/// bit is free.
pub const SPLIT_CHILD_TAG: u64 = 1 << 63;

/// Decodes a routing key into the concrete cell it names: plain keys are
/// cells at `clustering_level`, tagged keys ([`SPLIT_CHILD_TAG`]) are
/// child cells one level finer.
pub fn routing_key_cell(key: u64, clustering_level: u8) -> CellId {
    if key & SPLIT_CHILD_TAG != 0 {
        CellId {
            level: clustering_level + 1,
            index: key & !SPLIT_CHILD_TAG,
        }
    } else {
        CellId {
            level: clustering_level,
            index: key,
        }
    }
}

/// The set of clustering cells whose ownership is split one level finer.
///
/// Placement normally hashes whole clustering cells to shards; a
/// business-center cell hot enough to pin a shard on its own cannot be
/// fixed by any whole-cell assignment. The split table is consulted
/// *before* rendezvous: a split cell routes by its four child cells (one
/// level finer), each hashed independently, so the hot cell's load spreads
/// across up to four shards. Updates still serialize per routing key on
/// one owner, and each child is lazily clustered by its owner as its own
/// (smaller) cell — the clustering-vs-cross-cell-move races this could
/// surface are the same class [`cluster_cell`]'s guarded commit already
/// resolves for ordinary cell-boundary crossings (the merge aborts when
/// the scanned spatial row changed under it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SplitTable {
    cells: std::collections::BTreeSet<u64>,
}

impl SplitTable {
    /// An empty table (no cell split — the pre-load-aware behaviour).
    pub fn new() -> Self {
        SplitTable::default()
    }

    /// Whether clustering cell `cell` is split.
    pub fn is_split(&self, cell: u64) -> bool {
        self.cells.contains(&cell)
    }

    /// Marks `cell` as split. Returns `false` if it already was.
    pub fn split(&mut self, cell: u64) -> bool {
        self.cells.insert(cell)
    }

    /// Reunites a split `cell`: its four children stop routing
    /// independently and the cell routes whole again. Returns `false` if
    /// the cell was not split. The table is capped (the cluster tier
    /// splits at most a handful of business-center cells), so un-splitting
    /// demand-faded cells is what keeps the cap *re-usable* when the hot
    /// spot moves — the ownership handover itself (children released, the
    /// reunited cell adopted at the earliest child deadline) is the
    /// migration path's `(split, unsplit)` transition.
    pub fn unsplit(&mut self, cell: u64) -> bool {
        self.cells.remove(&cell)
    }

    /// The split cells, ascending.
    pub fn cells(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().copied()
    }

    /// Number of split cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell is split.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The four routing keys of a split cell's children.
    pub fn child_keys(cell: u64) -> [u64; 4] {
        [
            SPLIT_CHILD_TAG | (cell << 2),
            SPLIT_CHILD_TAG | ((cell << 2) + 1),
            SPLIT_CHILD_TAG | ((cell << 2) + 2),
            SPLIT_CHILD_TAG | ((cell << 2) + 3),
        ]
    }

    /// The routing key of leaf index `leaf`: the containing clustering
    /// cell, or — when that cell is split — the containing child cell
    /// tagged with [`SPLIT_CHILD_TAG`]. Panics if `clustering_level >
    /// leaf_level` (rejected by config validation) or a split cell has no
    /// finer level to split into.
    pub fn route_leaf(&self, leaf: u64, clustering_level: u8, leaf_level: u8) -> u64 {
        let cell = leaf >> (2 * (leaf_level - clustering_level) as u64);
        if self.is_split(cell) {
            assert!(
                clustering_level < leaf_level,
                "cannot split below the leaf level"
            );
            SPLIT_CHILD_TAG | (leaf >> (2 * (leaf_level - clustering_level - 1) as u64))
        } else {
            cell
        }
    }

    /// The cell containing leaf index `leaf` at the finest level any split
    /// table routes at: `clustering_level + 1` (the leaf level itself when
    /// clustering runs there). Two leaves with equal split-safe cells share
    /// a routing key under *every* split table — an unsplit cell holds
    /// whole level+1 cells, and a split cell routes by exactly them — so an
    /// update moving between them serializes with both cells' clustering
    /// on one owner's lock, whatever the split table says now or after a
    /// rebalance.
    pub fn split_safe_cell(leaf: u64, clustering_level: u8, leaf_level: u8) -> u64 {
        let level = (clustering_level + 1).min(leaf_level);
        leaf >> (2 * (leaf_level - level) as u64)
    }

    /// Every routing key of the clustering level under this table: each
    /// unsplit cell once, each split cell as its four children. The keys
    /// partition the level exactly (each leaf index maps to exactly one
    /// key via [`route_leaf`]).
    pub fn routing_keys(&self, clustering_level: u8) -> Vec<u64> {
        let mut keys = Vec::new();
        for cell in 0..cells_at_level(clustering_level) {
            if self.is_split(cell) {
                keys.extend(Self::child_keys(cell));
            } else {
                keys.push(cell);
            }
        }
        keys
    }
}

/// Slices a region query's merged leaf-index ranges by rendezvous owner:
/// each range is split at clustering-cell boundaries (a clustering cell at
/// `clustering_level` spans `4^(leaf_level − clustering_level)` contiguous
/// leaf indexes) and every piece goes to the [`rendezvous_owner`] of its
/// clustering cell, with adjacent same-owner pieces re-merged so each shard
/// still scans maximal contiguous ranges.
///
/// The returned slices are an **exact partition** of the input: no leaf
/// index is dropped, duplicated, or moved — the scatter-gather region path
/// scans precisely the ranges the single-server plan would have
/// (property-tested in `moist-core/tests/rendezvous_props.rs`).
///
/// Returns `(owner id, that owner's merged ranges)` pairs in ascending
/// owner-id order. Panics if `members` is empty or `clustering_level >
/// leaf_level` (both are rejected by [`MoistConfig::validate`]).
pub fn slice_ranges_by_owner(
    ranges: &[(u64, u64)],
    clustering_level: u8,
    leaf_level: u8,
    members: &[u64],
) -> Vec<(u64, Vec<(u64, u64)>)> {
    let weighted: Vec<ShardWeight> = members.iter().map(|&id| ShardWeight::unit(id)).collect();
    slice_ranges_by_placement(
        ranges,
        clustering_level,
        leaf_level,
        &weighted,
        &SplitTable::default(),
    )
}

/// [`slice_ranges_by_owner`] under the full placement model: owners are
/// the **weighted** rendezvous winners ([`weighted_rendezvous_owner`]) and
/// cells in `splits` are cut one level finer, each child routed
/// independently — exactly the routing the cluster tier applies to
/// updates, so a scattered query's slices land on the shards that own the
/// matching write traffic. Still an exact partition of the input (the
/// property test covers this variant too).
pub fn slice_ranges_by_placement(
    ranges: &[(u64, u64)],
    clustering_level: u8,
    leaf_level: u8,
    members: &[ShardWeight],
    splits: &SplitTable,
) -> Vec<(u64, Vec<(u64, u64)>)> {
    assert!(
        clustering_level <= leaf_level,
        "clustering level {clustering_level} finer than leaf level {leaf_level}"
    );
    let shift = 2 * (leaf_level - clustering_level) as u64;
    let mut by_owner: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for &(start, end) in ranges {
        let mut s = start;
        while s < end {
            let cell = s >> shift;
            // Split cells cut at child boundaries so each child's piece
            // can go to its own owner; unsplit cells cut as before.
            let (key, e) = if shift >= 2 && splits.is_split(cell) {
                let child_shift = shift - 2;
                let child = s >> child_shift;
                (SPLIT_CHILD_TAG | child, end.min((child + 1) << child_shift))
            } else {
                (cell, end.min((cell + 1) << shift))
            };
            let slots = by_owner
                .entry(weighted_rendezvous_owner(key, members))
                .or_default();
            match slots.last_mut() {
                Some((_, le)) if *le == s => *le = e,
                _ => slots.push((s, e)),
            }
            s = e;
        }
    }
    by_owner.into_iter().collect()
}

/// [`slice_ranges_by_placement`] under replicated ownership: each routing
/// key's piece goes to the **least-loaded member of its top-`replicas`
/// rendezvous set** ([`weighted_rendezvous_owners`]) as measured by
/// `load_of` (ties towards the better rank, so a level fleet reads from
/// primaries). Reads are correct on any shard — the store is shared — so
/// spreading a key's read slices over its followers scales read
/// throughput per cell without touching the write path, which still
/// serializes on the primary alone.
///
/// Still an exact partition of the input, whatever `load_of` returns.
/// With `replicas <= 1` every piece goes to its primary and the output is
/// exactly [`slice_ranges_by_placement`]'s.
pub fn slice_ranges_by_replicas(
    ranges: &[(u64, u64)],
    clustering_level: u8,
    leaf_level: u8,
    members: &[ShardWeight],
    splits: &SplitTable,
    replicas: usize,
    load_of: impl Fn(u64) -> f64,
) -> Vec<(u64, Vec<(u64, u64)>)> {
    assert!(
        clustering_level <= leaf_level,
        "clustering level {clustering_level} finer than leaf level {leaf_level}"
    );
    let shift = 2 * (leaf_level - clustering_level) as u64;
    let mut by_owner: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
        std::collections::BTreeMap::new();
    for &(start, end) in ranges {
        let mut s = start;
        while s < end {
            let cell = s >> shift;
            let (key, e) = if shift >= 2 && splits.is_split(cell) {
                let child_shift = shift - 2;
                let child = s >> child_shift;
                (SPLIT_CHILD_TAG | child, end.min((child + 1) << child_shift))
            } else {
                (cell, end.min((cell + 1) << shift))
            };
            let set = weighted_rendezvous_owners(key, members, replicas.max(1));
            let reader = set
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    load_of(a)
                        .partial_cmp(&load_of(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("replica set is non-empty");
            let slots = by_owner.entry(reader).or_default();
            match slots.last_mut() {
                Some((_, le)) if *le == s => *le = e,
                _ => slots.push((s, e)),
            }
            s = e;
        }
    }
    by_owner.into_iter().collect()
}

/// Tracks per-cell clustering deadlines so servers can run lazy clustering
/// on the configured interval `T_c`.
///
/// Deadlines live in a min-heap keyed by due time, so [`due_cells`] is
/// `O(due · log owned)` rather than a full sweep of every cell, and a cell
/// re-arms from its *missed deadline* (advanced by whole intervals past
/// `now`), so late callers do not drift the schedule's phase.
///
/// In a [`crate::cluster_tier::MoistCluster`] each shard holds the
/// scheduler for the cells it wins under [`rendezvous_owner`]; the shards'
/// owned sets form an exact partition of the clustering level, so every
/// cell is clustered by exactly one shard. On a membership change the tier
/// moves only the cells whose rendezvous winner changed, handing each
/// cell's pending deadline from [`release`] on the old owner to [`adopt`]
/// on the new one — the schedule's phase survives the migration, so a
/// joining shard neither re-clusters everything at once nor skips a round.
///
/// [`due_cells`]: ClusterScheduler::due_cells
/// [`release`]: ClusterScheduler::release
/// [`adopt`]: ClusterScheduler::adopt
#[derive(Debug)]
pub struct ClusterScheduler {
    interval_us: u64,
    level: u8,
    /// The owned cell indices (mirrors the heap's contents).
    owned: HashSet<u64>,
    /// Min-heap of `(due_us, cell index)` for the owned cells.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
}

impl ClusterScheduler {
    /// Creates a scheduler owning every cell of `cfg`'s clustering level.
    pub fn new(cfg: &MoistConfig) -> Self {
        let n = cells_at_level(cfg.clustering_level);
        Self::for_cells(cfg, 0..n)
    }

    /// Creates a scheduler owning no cells (a freshly joined shard before
    /// the tier migrates its rendezvous wins over via [`adopt`]).
    ///
    /// [`adopt`]: ClusterScheduler::adopt
    pub fn empty(cfg: &MoistConfig) -> Self {
        Self::for_cells(cfg, std::iter::empty())
    }

    /// Creates the scheduler for member `member` of the membership `ids`:
    /// it owns the clustering cells whose [`rendezvous_owner`] over `ids`
    /// is `member`.
    pub fn for_member(cfg: &MoistConfig, member: u64, ids: &[u64]) -> Self {
        let weighted: Vec<ShardWeight> = ids.iter().map(|&id| ShardWeight::unit(id)).collect();
        Self::for_placement(cfg, member, &weighted, &SplitTable::default())
    }

    /// Creates the scheduler for member `member` under the full placement
    /// model: it owns the routing keys (unsplit cells, plus children of
    /// split cells) whose [`weighted_rendezvous_owner`] over `members` is
    /// `member`. With unit weights and no splits this is exactly
    /// [`for_member`](ClusterScheduler::for_member).
    pub fn for_placement(
        cfg: &MoistConfig,
        member: u64,
        members: &[ShardWeight],
        splits: &SplitTable,
    ) -> Self {
        Self::for_cells(
            cfg,
            splits
                .routing_keys(cfg.clustering_level)
                .into_iter()
                .filter(|&key| weighted_rendezvous_owner(key, members) == member),
        )
    }

    /// Creates a scheduler owning exactly `cells` — routing keys at
    /// `cfg`'s clustering level (plain cell indices, or
    /// [`SPLIT_CHILD_TAG`]-tagged children of split cells).
    ///
    /// First deadlines are staggered by *global* cell index so cells do
    /// not all fire at once (the paper clusters cells sequentially for the
    /// same reason); the stagger is identical no matter how the level is
    /// split across shards, so handing a cell between owners never shifts
    /// its phase. A split cell's children share their parent's stagger
    /// slot (they inherit its deadline phase on a live split too).
    pub fn for_cells(cfg: &MoistConfig, cells: impl IntoIterator<Item = u64>) -> Self {
        let n = cells_at_level(cfg.clustering_level);
        let interval_us = (cfg.cluster_interval_secs * 1e6) as u64;
        // 128-bit multiply before the divide: at fine levels `n` exceeds
        // `interval_us` and the naive `interval_us / n * i` truncates every
        // stagger to 0, re-creating the thundering herd.
        let stagger = |key: u64| {
            let i = if key & SPLIT_CHILD_TAG != 0 {
                (key & !SPLIT_CHILD_TAG) >> 2
            } else {
                key
            };
            (interval_us as u128 * i as u128 / n.max(1) as u128) as u64
        };
        let mut owned = HashSet::new();
        let heap = cells
            .into_iter()
            .filter(|&i| owned.insert(i))
            .map(|i| Reverse((interval_us + stagger(i), i)))
            .collect();
        ClusterScheduler {
            interval_us: interval_us.max(1),
            level: cfg.clustering_level,
            owned,
            heap,
        }
    }

    /// Whether this scheduler owns clustering cell `index`.
    pub fn owns(&self, index: u64) -> bool {
        self.owned.contains(&index)
    }

    /// Number of clustering cells this scheduler owns.
    pub fn owned_count(&self) -> usize {
        self.heap.len()
    }

    /// The owned cell indices, in no particular order.
    pub fn owned_cells(&self) -> Vec<u64> {
        self.owned.iter().copied().collect()
    }

    /// The pending deadline (virtual µs) of owned cell `index`, or `None`
    /// if this scheduler does not own it.
    pub fn deadline_of(&self, index: u64) -> Option<u64> {
        self.heap
            .iter()
            .find(|Reverse((_, i))| *i == index)
            .map(|Reverse((due, _))| *due)
    }

    /// Stops owning cell `index`, returning its pending deadline so the
    /// new owner can [`adopt`](ClusterScheduler::adopt) the cell at the
    /// same phase. Returns `None` (and changes nothing) if the cell was
    /// not owned. `O(owned)` — membership changes are rare.
    pub fn release(&mut self, index: u64) -> Option<u64> {
        if !self.owned.remove(&index) {
            return None;
        }
        let mut released = None;
        let entries: Vec<_> = std::mem::take(&mut self.heap).into_vec();
        self.heap = entries
            .into_iter()
            .filter(|Reverse((due, i))| {
                if *i == index {
                    released = Some(*due);
                    false
                } else {
                    true
                }
            })
            .collect();
        released
    }

    /// Releases every owned cell, returning `(index, pending deadline)`
    /// pairs — the handoff bundle of a shard leaving the tier.
    pub fn drain(&mut self) -> Vec<(u64, u64)> {
        self.owned.clear();
        std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .map(|Reverse((due, i))| (i, due))
            .collect()
    }

    /// Starts owning cell `index` with the pending deadline `due_us`
    /// (virtual µs) — the counterpart of [`release`] on the cell's new
    /// owner. Adopting preserves the cell's phase: its next clustering
    /// fires exactly when it would have on the old owner, instead of
    /// immediately (a thundering re-cluster) or an interval late (a missed
    /// round). A no-op if the cell is already owned.
    ///
    /// [`release`]: ClusterScheduler::release
    pub fn adopt(&mut self, index: u64, due_us: u64) {
        if self.owned.insert(index) {
            self.heap.push(Reverse((due_us, index)));
        }
    }

    /// Cells due for clustering at `now`, re-armed from their deadline.
    ///
    /// Each returned cell's next deadline is its missed one advanced by
    /// whole intervals until it is strictly in the future: the phase of the
    /// schedule is preserved without accumulating a catch-up backlog, and a
    /// cell fires at most once per call. Routing keys decode to concrete
    /// cells here ([`routing_key_cell`]): a split cell's children come back
    /// as cells one level finer, each clustered as its own smaller cell.
    pub fn due_cells(&mut self, now: Timestamp) -> Vec<CellId> {
        let now_us = now.0;
        let mut due = Vec::new();
        while let Some(&Reverse((due_us, index))) = self.heap.peek() {
            if due_us > now_us {
                break;
            }
            self.heap.pop();
            due.push(routing_key_cell(index, self.level));
            let missed = (now_us - due_us) / self.interval_us + 1;
            self.heap
                .push(Reverse((due_us + missed * self.interval_us, index)));
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::{apply_update, UpdateMessage};
    use moist_bigtable::Bigtable;
    use moist_spatial::{Point, Velocity};
    use std::sync::Arc;

    fn setup() -> (Arc<Bigtable>, MoistTables, Session, MoistConfig) {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            delta_m: 0.5,
            clustering_level: 3,
            ..MoistConfig::default()
        };
        let tables = MoistTables::create(&store, &cfg).unwrap();
        let session = store.session(); // real cost profile: reports need time
        (store, tables, session, cfg)
    }

    #[allow(clippy::too_many_arguments)]
    fn seed_leader(
        s: &mut Session,
        t: &MoistTables,
        cfg: &MoistConfig,
        oid: u64,
        x: f64,
        y: f64,
        vx: f64,
        vy: f64,
    ) {
        apply_update(
            s,
            t,
            cfg,
            &UpdateMessage {
                oid: ObjectId(oid),
                loc: Point::new(x, y),
                vel: Velocity::new(vx, vy),
                ts: Timestamp::from_secs(1),
            },
        )
        .unwrap();
    }

    #[test]
    fn similar_velocity_leaders_merge_into_one_school() {
        let (_st, t, mut s, cfg) = setup();
        // Three nearby leaders, two with near-identical velocities.
        seed_leader(&mut s, &t, &cfg, 1, 100.0, 100.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 101.0, 100.0, 1.01, 0.0);
        seed_leader(&mut s, &t, &cfg, 3, 102.0, 100.0, -1.0, 0.0); // opposite
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let report = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.pre_leaders, 3);
        assert_eq!(report.merged, 1);
        assert_eq!(report.post_leaders, 2);
        // The merged leader is now a follower.
        let lf1 = t.lf(&mut s, ObjectId(1)).unwrap().unwrap();
        let lf2 = t.lf(&mut s, ObjectId(2)).unwrap().unwrap();
        assert_ne!(lf1.is_leader(), lf2.is_leader(), "exactly one survives");
        // Object 3 is untouched.
        assert!(t.lf(&mut s, ObjectId(3)).unwrap().unwrap().is_leader());
        // Spatial index holds exactly the two surviving leaders.
        assert_eq!(
            t.spatial_count_cell(&mut s, cell, cfg.space.leaf_level)
                .unwrap(),
            2
        );
        // Phase breakdown is populated.
        assert!(report.read_us > 0.0 && report.write_us > 0.0);
    }

    #[test]
    fn merge_transfers_followers_with_composed_displacements() {
        let (_st, t, mut s, cfg) = setup();
        seed_leader(&mut s, &t, &cfg, 1, 100.0, 100.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 110.0, 100.0, 1.0, 0.0);
        let affiliate = |s: &mut Session, leader: u64, follower: u64, d| {
            t.set_lf(
                s,
                ObjectId(follower),
                &LfRecord::Follower {
                    leader: ObjectId(leader),
                    displacement: d,
                    since_us: 0,
                },
                Timestamp::from_secs(1),
            )
            .unwrap();
            t.add_follower(
                s,
                ObjectId(leader),
                ObjectId(follower),
                d,
                Timestamp::from_secs(1),
            )
            .unwrap();
        };
        // Leader 1 has one follower (9); leader 2 has two (10, 11), so 2
        // survives the merge and 1's school moves over.
        let d9 = moist_spatial::Displacement::new(0.0, 3.0);
        affiliate(&mut s, 1, 9, d9);
        affiliate(&mut s, 2, 10, moist_spatial::Displacement::new(1.0, 0.0));
        affiliate(&mut s, 2, 11, moist_spatial::Displacement::new(2.0, 0.0));
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let report = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.merged, 1);
        assert_eq!(report.followers_moved, 1, "only the absorbed school moves");
        assert!(t.lf(&mut s, ObjectId(2)).unwrap().unwrap().is_leader());
        // The absorbed leader 1 follows 2 with displacement 2→1 = (-10, 0).
        match t.lf(&mut s, ObjectId(1)).unwrap().unwrap() {
            LfRecord::Follower {
                leader,
                displacement,
                ..
            } => {
                assert_eq!(leader, ObjectId(2));
                assert!((displacement.dx - (-10.0)).abs() < 1e-9);
            }
            _ => panic!("absorbed leader must follow"),
        }
        // Follower 9's displacement composed: 2→1 + 1→9 = (-10, 3).
        match t.lf(&mut s, ObjectId(9)).unwrap().unwrap() {
            LfRecord::Follower {
                leader,
                displacement,
                ..
            } => {
                assert_eq!(leader, ObjectId(2));
                assert!((displacement.dx - (-10.0)).abs() < 1e-9);
                assert!((displacement.dy - 3.0).abs() < 1e-9);
            }
            _ => panic!("moved follower must follow the survivor"),
        }
        // Survivor's Follower Info: 10, 11, moved 9, absorbed 1.
        let followers = t.followers(&mut s, ObjectId(2)).unwrap();
        assert_eq!(followers.len(), 4);
        // Absorbed leader's own Follower Info was cleared.
        assert!(t.followers(&mut s, ObjectId(1)).unwrap().is_empty());
    }

    #[test]
    fn far_apart_leaders_are_not_merged_across_cells() {
        let (_st, t, mut s, cfg) = setup();
        // Same velocity but opposite map corners: different clustering cells.
        seed_leader(&mut s, &t, &cfg, 1, 10.0, 10.0, 1.0, 0.0);
        seed_leader(&mut s, &t, &cfg, 2, 990.0, 990.0, 1.0, 0.0);
        let report = cluster_sweep(&mut s, &t, &cfg, Timestamp::from_secs(2)).unwrap();
        assert_eq!(report.merged, 0, "geographic proximity is required");
        assert_eq!(report.pre_leaders, 2);
    }

    #[test]
    fn empty_and_singleton_cells_are_cheap_noops() {
        let (_st, t, mut s, cfg) = setup();
        seed_leader(&mut s, &t, &cfg, 1, 500.0, 500.0, 1.0, 0.0);
        let empty_cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(10.0, 10.0));
        let r = cluster_cell(&mut s, &t, &cfg, empty_cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r.pre_leaders, 0);
        assert_eq!(r.write_us, 0.0);
        let single = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(500.0, 500.0));
        let r = cluster_cell(&mut s, &t, &cfg, single, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r.pre_leaders, 1);
        assert_eq!(r.merged, 0);
    }

    #[test]
    fn clustering_is_idempotent() {
        let (_st, t, mut s, cfg) = setup();
        for i in 0..10 {
            seed_leader(&mut s, &t, &cfg, i, 100.0 + i as f64, 100.0, 1.0, 0.0);
        }
        let cell = cfg
            .space
            .cell_at(cfg.clustering_level, &Point::new(100.0, 100.0));
        let r1 = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(2)).unwrap();
        assert_eq!(r1.post_leaders, 1);
        let r2 = cluster_cell(&mut s, &t, &cfg, cell, Timestamp::from_secs(3)).unwrap();
        assert_eq!(r2.pre_leaders, 1);
        assert_eq!(r2.merged, 0, "second clustering finds nothing to merge");
    }

    #[test]
    fn scheduler_fires_each_cell_once_per_interval() {
        let cfg = MoistConfig {
            clustering_level: 1, // 4 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        assert!(sched.due_cells(Timestamp::from_secs(5)).is_empty());
        // Deadlines are staggered at 10, 12.5, 15, 17.5 s: after 18 s every
        // cell has fired exactly once.
        let mut fired = 0;
        for t in [10, 12, 15, 18] {
            fired += sched.due_cells(Timestamp::from_secs(t)).len();
        }
        assert_eq!(fired, 4);
        // They re-arm one interval past their deadline.
        let more = sched.due_cells(Timestamp::from_secs(40)).len();
        assert_eq!(more, 4);
    }

    #[test]
    fn scheduler_rearms_from_deadline_not_call_time() {
        let cfg = MoistConfig {
            clustering_level: 0, // one cell, first due at 10 s
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        // A caller 3 s late: the cell fires, and the schedule keeps its
        // phase (next deadline 20 s, not 23 s).
        assert_eq!(sched.due_cells(Timestamp::from_secs(13)).len(), 1);
        assert!(sched.due_cells(Timestamp::from_secs(19)).is_empty());
        assert_eq!(sched.due_cells(Timestamp::from_secs(20)).len(), 1);
        // A caller several intervals late gets the cell once, not a
        // backlog of catch-up firings; phase is still preserved.
        assert_eq!(sched.due_cells(Timestamp::from_secs(57)).len(), 1);
        assert!(sched.due_cells(Timestamp::from_secs(59)).is_empty());
        assert_eq!(sched.due_cells(Timestamp::from_secs(60)).len(), 1);
    }

    #[test]
    fn rendezvous_owner_is_order_independent_and_total() {
        let ids = [3u64, 11, 42, 7];
        let mut reversed = ids;
        reversed.reverse();
        for key in 0..256u64 {
            let owner = rendezvous_owner(key, &ids);
            assert!(ids.contains(&owner));
            assert_eq!(owner, rendezvous_owner(key, &reversed), "key {key}");
        }
        // Each member wins a non-trivial share (hash balance, not exact).
        for &m in &ids {
            let won = (0..256u64)
                .filter(|&k| rendezvous_owner(k, &ids) == m)
                .count();
            assert!(won > 20, "member {m} won only {won}/256 cells");
        }
    }

    #[test]
    fn equal_weights_reproduce_the_unweighted_owner() {
        let ids = [3u64, 11, 42, 7, 900_001];
        let weighted: Vec<ShardWeight> = ids.iter().map(|&id| ShardWeight::unit(id)).collect();
        for key in 0..4096u64 {
            assert_eq!(
                rendezvous_owner(key, &ids),
                weighted_rendezvous_owner(key, &weighted),
                "key {key}"
            );
        }
    }

    #[test]
    fn heavier_members_win_proportionally_more_keys() {
        let members = [
            ShardWeight { id: 1, weight: 1.0 },
            ShardWeight { id: 2, weight: 2.0 },
            ShardWeight { id: 3, weight: 4.0 },
        ];
        let mut won = [0u64; 3];
        let keys = 8192u64;
        for key in 0..keys {
            let owner = weighted_rendezvous_owner(key, &members);
            won[members.iter().position(|m| m.id == owner).unwrap()] += 1;
        }
        // Expected shares 1/7, 2/7, 4/7 within generous hash noise.
        for (i, m) in members.iter().enumerate() {
            let expect = keys as f64 * m.weight / 7.0;
            let got = won[i] as f64;
            assert!(
                (got - expect).abs() < expect * 0.25 + 32.0,
                "member {} won {} keys, expected ≈{}",
                m.id,
                got,
                expect
            );
        }
    }

    #[test]
    fn ranked_owners_lead_with_the_single_winner() {
        let ids = [3u64, 11, 42, 7, 900_001];
        let weighted: Vec<ShardWeight> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| ShardWeight {
                id,
                weight: 0.5 + i as f64,
            })
            .collect();
        for key in 0..4096u64 {
            // k = 1 is the single winner, bit for bit, in both flavours.
            assert_eq!(
                rendezvous_owners(key, &ids, 1),
                vec![rendezvous_owner(key, &ids)],
                "key {key}"
            );
            assert_eq!(
                weighted_rendezvous_owners(key, &weighted, 1),
                vec![weighted_rendezvous_owner(key, &weighted)],
                "key {key}"
            );
            // Larger k keeps rank 0 the winner and extends with distinct
            // followers; k past the membership clamps.
            let set = weighted_rendezvous_owners(key, &weighted, 3);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], weighted_rendezvous_owner(key, &weighted));
            let mut uniq = set.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replica set has no duplicates");
            let all = weighted_rendezvous_owners(key, &weighted, 99);
            assert_eq!(all.len(), ids.len(), "k clamps to the membership");
            assert_eq!(&all[..3], &set[..], "rank prefix is stable in k");
        }
    }

    #[test]
    fn ranked_owners_are_prefix_stable_under_leave() {
        // Removing one member promotes the next rank for exactly the keys
        // it appeared on — every other key's ranked prefix is untouched.
        let ids = [3u64, 11, 42, 7, 900_001];
        for key in 0..2048u64 {
            let before = rendezvous_owners(key, &ids, 3);
            let departed = before[0];
            let survivors: Vec<u64> = ids.iter().copied().filter(|&m| m != departed).collect();
            let after = rendezvous_owners(key, &survivors, 2);
            assert_eq!(
                after[..2],
                before[1..3],
                "key {key}: the old followers must step up in order"
            );
        }
    }

    #[test]
    fn replica_slicing_partitions_and_degenerates_to_placement() {
        let members: Vec<ShardWeight> = [1u64, 2, 5, 9]
            .iter()
            .map(|&id| ShardWeight::unit(id))
            .collect();
        let (cl, ll) = (2u8, 5u8);
        let ranges = [(0u64, 700u64), (800, 1024)];
        // replicas = 1 reproduces the placement slicing exactly.
        let placement =
            slice_ranges_by_placement(&ranges, cl, ll, &members, &SplitTable::default());
        let by_primary =
            slice_ranges_by_replicas(&ranges, cl, ll, &members, &SplitTable::default(), 1, |_| {
                0.0
            });
        assert_eq!(placement, by_primary);
        // replicas = 2 with a load signal still partitions the input.
        let sliced =
            slice_ranges_by_replicas(&ranges, cl, ll, &members, &SplitTable::default(), 2, |id| {
                if id == 1 {
                    100.0
                } else {
                    id as f64
                }
            });
        let mut total = 0u64;
        for (_, slices) in &sliced {
            for &(s, e) in slices {
                assert!(s < e);
                total += e - s;
            }
        }
        assert_eq!(total, 700 + 224, "no leaf dropped or duplicated");
        // Shard 1 is the heaviest: it serves a key only when it is the
        // sole replica-set member available, which never happens at k=2
        // over 4 live shards — its read load shifts to its followers.
        assert!(
            sliced.iter().all(|&(id, _)| id != 1),
            "overloaded shard must not serve replica reads: {sliced:?}"
        );
    }

    #[test]
    fn degenerate_weights_are_floored_not_fatal() {
        let members = [
            ShardWeight {
                id: 1,
                weight: f64::NAN,
            },
            ShardWeight {
                id: 2,
                weight: -3.0,
            },
            ShardWeight { id: 3, weight: 1.0 },
        ];
        // Every key has a winner; the healthy member dominates.
        let mut healthy = 0;
        for key in 0..512u64 {
            if weighted_rendezvous_owner(key, &members) == 3 {
                healthy += 1;
            }
        }
        assert!(healthy > 450, "floored weights must not win: {healthy}/512");
    }

    #[test]
    fn split_table_routes_leaves_through_children() {
        let (cl, ll) = (2u8, 5u8);
        let mut splits = SplitTable::new();
        assert!(splits.split(6));
        assert!(!splits.split(6), "double split is a no-op");
        // A leaf in an unsplit cell routes to the cell itself.
        let leaf_unsplit = 3 << (2 * (ll - cl));
        assert_eq!(splits.route_leaf(leaf_unsplit, cl, ll), 3);
        // A leaf in the split cell routes to its tagged child.
        let leaf_split = (6 << (2 * (ll - cl))) + 17;
        let key = splits.route_leaf(leaf_split, cl, ll);
        assert_ne!(key & SPLIT_CHILD_TAG, 0);
        let child = routing_key_cell(key, cl);
        assert_eq!(child.level, cl + 1);
        assert_eq!(child.index >> 2, 6, "child must descend from cell 6");
        // The routing keys partition the level: 15 unsplit + 4 children.
        let keys = splits.routing_keys(cl);
        assert_eq!(keys.len(), 15 + 4);
        let mut covered = std::collections::HashSet::new();
        for key in keys {
            let cell = routing_key_cell(key, cl);
            let (s, e) = cell.descendant_range(ll).unwrap();
            for leaf in s..e {
                assert!(covered.insert(leaf), "leaf {leaf} covered twice");
                assert_eq!(splits.route_leaf(leaf, cl, ll), key);
            }
        }
        assert_eq!(covered.len() as u64, 1 << (2 * ll));
    }

    #[test]
    fn split_safe_cells_share_a_routing_key_under_every_split_table() {
        let (cl, ll) = (2u8, 5u8);
        let cells = cells_at_level(cl);
        // A leaf's routing key depends only on whether its own clustering
        // cell is split, so no split, all split, each single cell split
        // and two alternating patterns cover every split table.
        let full = (1u32 << cells) - 1;
        let masks = [0, full, 0x5555 & full, 0xAAAA & full]
            .into_iter()
            .chain((0..cells).map(|c| 1u32 << c));
        for mask in masks {
            let mut splits = SplitTable::new();
            for cell in (0..cells).filter(|c| mask & (1 << c) != 0) {
                splits.split(cell);
            }
            for leaf in (0..1u64 << (2 * ll)).step_by(7) {
                let safe = SplitTable::split_safe_cell(leaf, cl, ll);
                let twin = (safe << (2 * (ll - cl - 1))) + (leaf * 13) % (1 << (2 * (ll - cl - 1)));
                assert_eq!(SplitTable::split_safe_cell(twin, cl, ll), safe);
                assert_eq!(
                    splits.route_leaf(leaf, cl, ll),
                    splits.route_leaf(twin, cl, ll),
                    "leaves {leaf} and {twin} share split-safe cell {safe}"
                );
            }
        }
        // Clustering at the leaf level: only the leaf itself is safe.
        assert_eq!(SplitTable::split_safe_cell(9, 4, 4), 9);
    }

    #[test]
    fn split_table_cap_is_reusable_through_unsplit() {
        // The cluster tier caps the table at 16 entries. Un-splitting
        // must free capacity so a *moving* hot spot recycles the cap
        // instead of permanently exhausting it.
        const CAP: usize = 16;
        let mut splits = SplitTable::new();
        for cell in 0..CAP as u64 {
            assert!(splits.split(cell));
        }
        assert_eq!(splits.len(), CAP, "table full");
        // The hot spot fades in the first four cells and moves on.
        for cell in 0..4u64 {
            assert!(splits.unsplit(cell));
            assert!(!splits.unsplit(cell), "double un-split is a no-op");
            assert!(!splits.is_split(cell));
        }
        assert_eq!(splits.len(), CAP - 4, "capacity freed");
        // The freed capacity takes new hot cells up to the cap again.
        for cell in 100..104u64 {
            assert!(splits.split(cell));
        }
        assert_eq!(splits.len(), CAP);
        // An un-split cell routes whole again; a still-split one doesn't.
        let (cl, ll) = (3u8, 5u8);
        assert_eq!(splits.route_leaf(1 << (2 * (ll - cl)), cl, ll), 1);
        assert_ne!(
            splits.route_leaf(5 << (2 * (ll - cl)), cl, ll) & SPLIT_CHILD_TAG,
            0
        );
    }

    #[test]
    fn placement_slicing_cuts_split_cells_at_child_boundaries() {
        let (cl, ll) = (1u8, 4u8);
        let members = [
            ShardWeight::unit(10),
            ShardWeight::unit(20),
            ShardWeight::unit(30),
        ];
        let mut splits = SplitTable::new();
        splits.split(2);
        let span = 1u64 << (2 * ll);
        let slices = slice_ranges_by_placement(&[(0, span)], cl, ll, &members, &splits);
        // Exact partition, and every piece inside cell 2 belongs to the
        // weighted owner of its child key.
        let mut flat: Vec<(u64, u64)> = Vec::new();
        let child_shift = 2 * (ll - cl - 1) as u64;
        for (owner, ranges) in &slices {
            for &(s, e) in ranges {
                flat.push((s, e));
                let cell = s >> (2 * (ll - cl) as u64);
                if cell == 2 {
                    for child in (s >> child_shift)..=((e - 1) >> child_shift) {
                        assert_eq!(
                            weighted_rendezvous_owner(SPLIT_CHILD_TAG | child, &members),
                            *owner
                        );
                    }
                }
            }
        }
        flat.sort_unstable();
        let total: u64 = flat.iter().map(|(s, e)| e - s).sum();
        assert_eq!(total, span, "no leaf dropped or duplicated");
    }

    #[test]
    fn schedulers_decode_split_children_to_finer_cells() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut splits = SplitTable::new();
        splits.split(5);
        let members = [ShardWeight::unit(0)];
        let mut sched = ClusterScheduler::for_placement(&cfg, 0, &members, &splits);
        assert_eq!(sched.owned_count(), 15 + 4);
        let due = sched.due_cells(Timestamp::from_secs(100));
        assert_eq!(due.len(), 15 + 4);
        let fine: Vec<&CellId> = due.iter().filter(|c| c.level == 3).collect();
        assert_eq!(fine.len(), 4, "the split cell fires as four children");
        for c in fine {
            assert_eq!(c.index >> 2, 5);
        }
        assert!(
            due.iter().filter(|c| c.level == 2).all(|c| c.index != 5),
            "the split parent itself never fires"
        );
    }

    #[test]
    fn rendezvous_schedulers_cover_each_cell_exactly_once() {
        let cfg = MoistConfig {
            clustering_level: 4, // 256 cells
            ..MoistConfig::default()
        };
        for ids in [vec![0u64], vec![0, 1], vec![5, 9, 13], vec![2, 3, 5, 7, 11]] {
            let scheds: Vec<ClusterScheduler> = ids
                .iter()
                .map(|&m| ClusterScheduler::for_member(&cfg, m, &ids))
                .collect();
            let total: usize = scheds.iter().map(|s| s.owned_count()).sum();
            assert_eq!(total, 256, "{ids:?} must partition the level");
            for index in 0..256u64 {
                let owners = scheds.iter().filter(|s| s.owns(index)).count();
                assert_eq!(owners, 1, "cell {index} with members {ids:?}");
                let winner = rendezvous_owner(index, &ids);
                let pos = ids.iter().position(|&m| m == winner).unwrap();
                assert!(scheds[pos].owns(index));
            }
        }
    }

    #[test]
    fn rendezvous_schedulers_fire_owned_cells_only() {
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let ids = [0u64, 1, 2, 3];
        let mut scheds: Vec<ClusterScheduler> = ids
            .iter()
            .map(|&m| ClusterScheduler::for_member(&cfg, m, &ids))
            .collect();
        // Past every staggered first deadline (they all lie in [T, 2T)).
        let now = Timestamp::from_secs(25);
        let mut seen = std::collections::HashSet::new();
        for (pos, sched) in scheds.iter_mut().enumerate() {
            for cell in sched.due_cells(now) {
                assert_eq!(rendezvous_owner(cell.index, &ids), ids[pos]);
                assert!(seen.insert(cell.index), "cell {} fired twice", cell.index);
            }
        }
        assert_eq!(seen.len(), 64, "every cell fires exactly once");
    }

    #[test]
    fn release_and_adopt_hand_a_cell_over_at_its_phase() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut old = ClusterScheduler::new(&cfg);
        let mut joiner = ClusterScheduler::empty(&cfg);
        assert_eq!(joiner.owned_count(), 0);
        let due = old.deadline_of(5).unwrap();
        assert_eq!(old.release(5), Some(due));
        assert!(!old.owns(5));
        assert_eq!(old.owned_count(), 15);
        assert_eq!(old.release(5), None, "double release is a no-op");
        joiner.adopt(5, due);
        assert!(joiner.owns(5));
        assert_eq!(joiner.deadline_of(5), Some(due), "phase survives handoff");
        // Adopting an already-owned cell does not duplicate it.
        joiner.adopt(5, due + 1);
        assert_eq!(joiner.owned_count(), 1);
        // The released cell never fires on the old owner again.
        let fired: Vec<u64> = old
            .due_cells(Timestamp::from_secs(1_000))
            .iter()
            .map(|c| c.index)
            .collect();
        assert!(!fired.contains(&5));
        // …but fires on the joiner, at the handed-over deadline.
        assert!(joiner.due_cells(Timestamp(due - 1)).is_empty());
        assert_eq!(joiner.due_cells(Timestamp(due)).len(), 1);
    }

    #[test]
    fn drain_returns_every_owned_cell_with_its_deadline() {
        let cfg = MoistConfig {
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let mut sched = ClusterScheduler::new(&cfg);
        let expected: Vec<(u64, u64)> = (0..16u64)
            .map(|i| (i, sched.deadline_of(i).unwrap()))
            .collect();
        let mut drained = sched.drain();
        drained.sort_unstable();
        assert_eq!(drained, expected);
        assert_eq!(sched.owned_count(), 0);
        assert!(sched.due_cells(Timestamp::from_secs(1_000)).is_empty());
    }
}
