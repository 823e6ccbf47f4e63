//! The sharded multi-server front-end tier (§4.3.3).
//!
//! The paper's headline numbers are *fleet* numbers: 5 and 10 front-end
//! servers share one BigTable and split the update stream between them.
//! [`MoistCluster`] is that deployment shape: it owns N [`MoistServer`]
//! shards over one shared [`Bigtable`] and routes every operation to a
//! shard by **rendezvous hash** ([`crate::cluster::rendezvous_owner`] over the cell of the
//! operation's location at the configured clustering level).
//!
//! Routing by clustering cell buys two invariants:
//!
//! * **Clustering exclusivity** — each shard's [`ClusterScheduler`] owns
//!   exactly the cells it wins under the same hash, so every clustering
//!   cell is lazily clustered by *exactly one* shard (naively running
//!   `run_due_clustering` on N servers clusters the whole map N times
//!   over).
//! * **School-merge locality** — school merges only ever happen between
//!   leaders of one clustering cell, and all updates for a cell serialize
//!   through its owner shard, so a school is never torn by two shards
//!   rewriting it concurrently.
//!
//! ## Elastic membership
//!
//! The fleet can grow and shrink live. Membership is an epoch-stamped,
//! read-mostly snapshot: each operation grabs an `Arc` of the current
//! [`Membership`] (one brief read-lock), routes against it, and keeps the
//! target shard alive through the `Arc` even if the membership changes
//! mid-flight. [`add_shard`] and [`remove_shard`] bump the epoch and swap
//! the snapshot. Updates additionally validate their routing against a
//! membership seqlock after taking the owner's lock and re-route if an
//! epoch bump raced them (see [`update`](MoistCluster::update)), so a
//! write never lands on a migrated cell's old owner — no torn routing,
//! no lost updates; read-only queries route on the snapshot alone.
//!
//! Because ownership is a **rendezvous** (highest-random-weight) hash over
//! the stable shard *ids* — not a modular hash over the shard *count* —
//! a membership change remaps the minimum: a join steals only the ~1/(N+1)
//! of cells the newcomer now wins, a leave reassigns only the departed
//! shard's cells, and every other cell's owner (and therefore its school
//! state's home shard) is untouched. Each migrating cell's clustering
//! deadline is handed over at its current phase
//! ([`ClusterScheduler::release`] → [`ClusterScheduler::adopt`]), so a
//! join causes neither a thundering re-cluster of the stolen cells nor a
//! missed round.
//!
//! The shards share one cluster-wide object-count estimate (FLAG's `n`),
//! seeded from the store, so a shard that joins an already-populated store
//! guesses sensible NN levels from its first query.
//!
//! Shards are individually locked: concurrent clients contend per shard,
//! not on the whole tier, and operations on different shards proceed in
//! parallel on real OS threads (drive it with
//! `moist_workload::ClientPool`).
//!
//! ## Query fan-out (scatter-gather)
//!
//! Updates route to one shard by design — a cell's writes must serialize
//! on its owner. Queries have no such constraint: any shard reads a
//! consistent view of the shared store. [`region`](MoistCluster::region)
//! therefore plans its merged leaf ranges once, slices them by rendezvous
//! owner ([`crate::cluster::slice_ranges_by_owner`] — an exact partition
//! of the plan), scans every slice on a pooled worker
//! ([`crate::query_pool::QueryPool`]) against its owner shard, and merges
//! the partials: hits move (never clone) into one list and each object is
//! deduplicated exactly once at the merge (partials scanned at different
//! instants can double-sight a mover crossing a slice boundary). The
//! client-visible cost is the *slowest* partial, not the sum, because the
//! slices consume store time in parallel. [`nn`](MoistCluster::nn)
//! scatters only when its candidate ring (query cell + edge neighbours at
//! the FLAG level) crosses an ownership boundary, and the merge *replays*
//! the single-shard frontier search over the scanned candidates
//! ([`crate::nn::merge_ring_partials`]) — if the replayed frontier would
//! escape the ring, the query falls back to the real single-shard search,
//! so fan-out never trades exactness for speed. An epoch bump mid-scatter re-routes
//! only the migrated slices: each worker re-validates its slice against
//! the freshest membership snapshot and hands back the pieces whose cells
//! moved, which the gather loop re-slices and re-dispatches.
//!
//! ## Load-aware placement
//!
//! Placement is not static: every shard tracks per-clustering-cell EWMA
//! demand rates ([`crate::load::LoadTracker`], fed by the update/query
//! timestamps, so the signal is deterministic in virtual time), and
//! [`rebalance`](MoistCluster::rebalance) folds the measurements into the
//! membership snapshot through the same epoch/handover machinery joins
//! and leaves use:
//!
//! * **weighted rendezvous** — per-shard weights derived from measured
//!   utilization; a weight change remaps only keys toward/away from the
//!   re-weighted shard ([`crate::cluster::weighted_rendezvous_owner`]);
//! * **hot-cell splitting** — cells hot enough to pin a shard on their
//!   own split ownership one level finer
//!   ([`crate::cluster::SplitTable`], consulted before rendezvous), each
//!   child routed, scheduled and clustered independently at its parent's
//!   deadline phase;
//! * **fan-out slice balancing** — scattered region plans subdivide
//!   their costliest owner slices across idle shards
//!   ([`crate::region::balance_slices`], priced by the measured per-cell
//!   rates), so the client-visible latency tracks the mean slice, not
//!   the largest ownership share.
//!
//! [`cluster_stats`](MoistCluster::cluster_stats) exposes the whole
//! signal chain (per-shard utilization/rates/weights, primary/follower
//! key counts, scatter-slice timings, split table, migration/promotion
//! counters) for operators and benches.
//!
//! ## Replicated ownership
//!
//! With [`with_replicas`](MoistCluster::with_replicas)`(k)`, ownership of
//! each routing key widens from the rendezvous *winner* to the rendezvous
//! **top-k** ([`crate::cluster::rendezvous_owners`]): rank 0 is the
//! **primary** — the only shard that takes the key's updates and clusters
//! it, so every exclusivity invariant above is unchanged — and ranks 1+
//! are **followers**. Followers hold no private state (the store is
//! shared, so they mirror the key's schools and spatial rows for free);
//! what they add is a wider *read* path: NN anchors, fixed-level NN,
//! anchored regions and object lookups route to the least-loaded live
//! replica of their key (by virtual elapsed store time, primary on ties),
//! and scattered NN rings / region slices spread across follower sets the
//! same way. Because a member's rendezvous score is independent of the
//! other members, the top-k list is **prefix-stable**: when a primary
//! leaves, each of its keys' rank-1 follower — already warm on that key's
//! reads — is exactly the new winner, and adopts the key's clustering
//! deadline through the ordinary [`migrate_ownership`] handover. Failover
//! is therefore *promotion*, not recovery. `k = 1` (the default)
//! reproduces the single-owner tier bit-identically.
//!
//! [`migrate_ownership`]: MoistCluster::remove_shard
//!
//! ## Pipelined ingestion
//!
//! [`update`](MoistCluster::update) is the synchronous baseline: one
//! message, one owner lock, one store round-trip per write. The pipelined
//! tier ([`crate::ingest`]) buffers submissions in a bounded queue per
//! shard ([`submit`](MoistCluster::submit)), flushes each queue as one
//! [`MoistServer::update_batch`] when it reaches the batch size or its
//! oldest message ages past the flush deadline
//! ([`flush_due`](MoistCluster::flush_due)), and surfaces a full queue as
//! typed backpressure instead of queueing unboundedly. Batched flushes go
//! through [`update_batch`](MoistCluster::update_batch), which re-routes
//! every message under the same membership seqlock the synchronous path
//! uses — grouped by the *current* owner, re-validated after each owner
//! lock — and every epoch bump (join, leave, rebalance) drains the queues
//! right after publishing its snapshot
//! ([`drain_ingest`](MoistCluster::drain_ingest)), so in-flight batches
//! re-route rather than land on a migrated cell's old owner and a killed
//! shard's buffered messages are applied, not lost.
//!
//! [`add_shard`]: MoistCluster::add_shard
//! [`remove_shard`]: MoistCluster::remove_shard
//!
//! ```
//! use moist_bigtable::{Bigtable, Timestamp};
//! use moist_core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
//! use moist_spatial::{Point, Velocity};
//!
//! let store = Bigtable::new();
//! let cluster = MoistCluster::builder(&store, MoistConfig::default())
//!     .shards(4)
//!     .build()?;
//! cluster.update(&UpdateMessage {
//!     oid: ObjectId(1),
//!     loc: Point::new(420.0, 500.0),
//!     vel: Velocity::new(1.8, 0.0),
//!     ts: Timestamp::from_secs(10),
//! })?;
//! // Grow the fleet live: only the joiner's rendezvous wins migrate.
//! let id = cluster.add_shard()?;
//! assert_eq!(cluster.num_shards(), 5);
//! // Any front-end answers queries over the whole map.
//! let (nn, _) = cluster.nn(Point::new(400.0, 500.0), 1, Timestamp::from_secs(11))?;
//! assert_eq!(nn[0].oid, ObjectId(1));
//! // And shrink again: the departed shard's cells are re-adopted.
//! cluster.remove_shard(id)?;
//! # Ok::<(), moist_core::MoistError>(())
//! ```

use crate::cluster::{
    slice_ranges_by_placement, slice_ranges_by_replicas, weighted_rendezvous_max,
    weighted_rendezvous_ranked, ClusterReport, ClusterScheduler, ShardWeight, SplitTable,
};
use crate::config::MoistConfig;
use crate::controller::{
    AutoController, ControllerAction, ControllerConfig, ControllerEvent, Plan,
};
use crate::error::{check_centre, check_rect, MoistError, Result};
use crate::ids::ObjectId;
use crate::ingest::{
    BackpressurePolicy, EnqueueResult, FlushKind, IngestConfig, IngestQueues, IngestStats,
    SubmitOutcome,
};
use crate::nn::{merge_ring_partials, nn_candidate_ring};
use crate::nn::{Neighbor, NnOptions, NnPartial, NnStats};
use crate::query_pool::QueryPool;
use crate::region::{balance_slices, merge_region_partials, plan_region_ranges};
use crate::region::{RegionPartial, RegionStats};
use crate::server::{MoistServer, ServerStats};
use crate::update::{UpdateMessage, UpdateOutcome};
use moist_archive::PppArchiver;
use moist_bigtable::{Bigtable, RecoveryReport, StoreConfig, Timestamp};
use moist_spatial::{cells_at_level, CellId, Point, Rect};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Scatter rounds after which a region query stops re-validating slice
/// ownership and scans wherever the last slicing routed them. Reads are
/// correct on any shard (the store is shared); the cap only bounds the
/// re-route loop under pathological non-stop churn.
const MAX_REROUTE_ROUNDS: usize = 4;

/// A cell whose merged EWMA demand rate exceeds this multiple of the mean
/// cell rate is hot enough to split one level finer.
const HOT_SPLIT_FACTOR: f64 = 4.0;

/// Upper bound on the split table: splitting is for the handful of
/// business-center cells, not a second level of hashing. The cap stays
/// *re-usable* because rebalance un-splits cells whose demand faded (see
/// [`UNSPLIT_FACTOR`]) — a hot spot that moves across the map recycles
/// table entries instead of exhausting them.
const MAX_SPLIT_CELLS: usize = 16;

/// A split cell whose merged demand rate falls below this multiple of
/// the mean cell rate is reunited (its four children merge back into one
/// routing key). Far below [`HOT_SPLIT_FACTOR`] on purpose: the wide gap
/// is the hysteresis that keeps a cell wobbling around one threshold
/// from splitting and un-splitting every rebalance.
const UNSPLIT_FACTOR: f64 = 1.0;

/// Largest per-rebalance multiplicative weight step (up or down): placement
/// converges over a few rebalances instead of slamming cells around on one
/// noisy measurement.
const REBALANCE_MAX_STEP: f64 = 2.0;

/// Placement-weight clamp: a shard never owns less than ~1/8 or more than
/// ~8× its fair share, however skewed the measurements get.
const MIN_PLACEMENT_WEIGHT: f64 = 0.125;

/// See [`MIN_PLACEMENT_WEIGHT`].
const MAX_PLACEMENT_WEIGHT: f64 = 8.0;

/// Cap on the relative demand density used to price scattered-region
/// slices: above this the update rate says "hot" but (thanks to
/// schooling) not "proportionally more rows to scan".
const MAX_SCAN_DENSITY: f64 = 3.0;

/// What one [`MoistCluster::rebalance`] step changed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebalanceReport {
    /// The membership epoch after the step (unchanged if nothing moved).
    pub epoch: u64,
    /// Shards whose placement weight was adjusted.
    pub reweighted: usize,
    /// Clustering cells newly split one level finer.
    pub split_cells: Vec<u64>,
    /// Previously-split cells reunited because their measured demand
    /// faded (freeing split-table capacity for the next hot spot).
    pub unsplit_cells: Vec<u64>,
    /// Routing keys that changed owner (each handed over at its deadline
    /// phase through the scheduler release/adopt path).
    pub migrated_keys: u64,
}

/// One live shard's row in [`ClusterStats`]: the measured signals the
/// load-aware placement runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoadStats {
    /// Stable shard id.
    pub id: u64,
    /// Current placement weight (relative capacity).
    pub weight: f64,
    /// Virtual µs of store time this shard has consumed.
    pub elapsed_us: f64,
    /// EWMA update arrivals per virtual second across the shard's cells.
    pub update_rate: f64,
    /// EWMA query arrivals per virtual second across the shard's cells.
    pub query_rate: f64,
    /// Routing keys (cells / split children) this shard is **primary**
    /// for: its scheduler owns them, their updates serialize on it, and
    /// it alone clusters them.
    pub primary_keys: usize,
    /// Routing keys this shard **follows** (it is in their replica set at
    /// rank 1+): it mirrors their state through the shared store and
    /// serves their reads when less loaded than the primary. Always 0 at
    /// `replicas == 1`.
    pub follower_keys: usize,
    /// Reads this shard served as a follower.
    pub replica_reads: u64,
    /// Scattered partial scans (region + NN slices) this shard served.
    pub scatter_slices: u64,
    /// Virtual µs spent serving those scattered slices.
    pub scatter_slice_us: f64,
    /// Messages currently buffered in this shard's ingest queue.
    pub queue_depth: usize,
}

/// The tier-level load/placement rollup returned by
/// [`MoistCluster::cluster_stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Current membership epoch.
    pub epoch: u64,
    /// Per-shard signals, in position order.
    pub shards: Vec<ShardLoadStats>,
    /// Clustering cells currently split one level finer.
    pub split_cells: Vec<u64>,
    /// Cells migrated by join/leave epoch bumps.
    pub epoch_migrations: u64,
    /// Keys migrated by rebalance steps (weight shifts + cell splits).
    pub split_migrations: u64,
    /// Configured replication factor (1 = unreplicated single-owner).
    pub replicas: usize,
    /// Routing keys whose follower stepped up to primary on a shard
    /// leave (subset of `epoch_migrations`; 0 at `replicas == 1`).
    pub promotions: u64,
    /// Reads served by a follower instead of the primary, tier-wide.
    pub replica_reads: u64,
    /// Ingestion-pipeline counters: queue depths, flush sizes and
    /// latencies, and the backpressure / overload-shed split.
    pub ingest: IngestStats,
    /// Aggregate operation counters (live + retired shards).
    pub ops: ServerStats,
}

impl ClusterStats {
    /// Max-over-mean shard utilization (virtual elapsed time): 1.0 is a
    /// perfectly level fleet; the `fig16_skew` acceptance bar is about
    /// cutting this.
    pub fn utilization_skew(&self) -> f64 {
        if self.shards.is_empty() {
            return 1.0;
        }
        let max = self
            .shards
            .iter()
            .map(|s| s.elapsed_us)
            .fold(0.0f64, f64::max);
        let mean = self.shards.iter().map(|s| s.elapsed_us).sum::<f64>() / self.shards.len() as f64;
        if mean <= 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total submissions that produced **no** store-applied update:
    /// school sheds ([`ServerStats::shed`] — absorbed by the school
    /// model), pipeline overload sheds (dropped on a full queue under
    /// [`BackpressurePolicy::Shed`](crate::BackpressurePolicy::Shed)) and
    /// backpressure rejections (refused, client retries). The three are
    /// kept as separate counters because they mean different things to a
    /// client-visible QPS derivation — school sheds are *served* updates,
    /// the other two are not — this helper is the denominator-side rollup
    /// the benches share.
    pub fn shed_or_backpressure(&self) -> u64 {
        self.ops.shed + self.ingest.overload_shed + self.ingest.backpressure
    }

    /// True refusals only: pipeline overload sheds plus backpressure
    /// rejections. School sheds are *excluded* — a shed update was served
    /// (absorbed by the school model, the client-visible QPS multiplier),
    /// so it is workload behaving, not capacity failing. This is the
    /// overload signal the [`AutoController`] scales on; counting school
    /// sheds there would read MOIST's headline feature as an emergency.
    pub fn refused(&self) -> u64 {
        self.ingest.overload_shed + self.ingest.backpressure
    }
}

/// One live shard: its stable id plus the server behind a reader-writer
/// lock — queries (`nn*`, `region*`, partials, `position`, stats) take
/// the read guard and overlap freely on one shard; updates, clustering
/// sweeps and scheduler handoff serialize on the write guard.
struct ShardEntry {
    /// Stable shard id — never reused, survives other shards' churn.
    id: u64,
    server: RwLock<MoistServer>,
    /// Reads this shard served as a *follower* (it was in the routing
    /// key's replica set but not its primary).
    replica_reads: AtomicU64,
}

impl ShardEntry {
    fn new(id: u64, server: MoistServer) -> Self {
        ShardEntry {
            id,
            server: RwLock::new(server),
            replica_reads: AtomicU64::new(0),
        }
    }
}

/// An immutable snapshot of the tier's membership at one epoch.
///
/// Operations route against one snapshot end to end; the `Arc`s keep a
/// shard alive for in-flight operations even after it leaves the tier
/// (its writes still land in the shared store, so nothing is lost). The
/// snapshot carries the full **placement** state — per-shard weights and
/// the hot-cell split table — so routing, slicing and scheduling within
/// one epoch always agree.
struct Membership {
    /// Monotonic epoch, bumped by every join/leave/rebalance.
    epoch: u64,
    /// Live shards, sorted by id (positions index this order).
    shards: Vec<Arc<ShardEntry>>,
    /// Placement weights, parallel to `shards` (relative capacity; 1.0
    /// until a [`MoistCluster::rebalance`] derives measured ones).
    weights: Vec<f64>,
    /// Clustering cells whose ownership is split one level finer.
    splits: Arc<SplitTable>,
    /// Replication factor: each routing key's rendezvous top-`replicas`
    /// shards form its replica set — rank 0 is the primary (the only
    /// shard that takes the key's updates and clusters it), ranks 1+ are
    /// followers that mirror state via the shared store and serve reads.
    /// 1 reproduces single-owner routing exactly.
    replicas: usize,
}

impl Membership {
    fn ids(&self) -> Vec<u64> {
        self.shards.iter().map(|e| e.id).collect()
    }

    /// `(id, weight)` pairs in position order — the placement the
    /// weighted rendezvous and the slice balancer consume.
    fn placement(&self) -> Vec<ShardWeight> {
        self.shards
            .iter()
            .zip(&self.weights)
            .map(|(e, &weight)| ShardWeight { id: e.id, weight })
            .collect()
    }

    fn position_of(&self, id: u64) -> Option<usize> {
        self.shards.iter().position(|e| e.id == id)
    }

    /// The entry owning routing key `key` (weighted rendezvous winner).
    ///
    /// Picks the winner directly over the entries — one scan, no id-list
    /// allocation — because this sits on the per-operation hot path; the
    /// selection is the shared [`weighted_rendezvous_max`], so it agrees
    /// with [`crate::cluster::weighted_rendezvous_owner`] (and, at unit
    /// weights, [`crate::cluster::rendezvous_owner`]) by definition.
    fn owner_of(&self, key: u64) -> &Arc<ShardEntry> {
        weighted_rendezvous_max(
            key,
            self.shards.iter().zip(&self.weights),
            |(e, _)| e.id,
            |(_, &w)| w,
        )
        .map(|(e, _)| e)
        .expect("membership is never empty")
    }

    /// The ranked replica set of routing key `key`: the rendezvous
    /// top-`replicas` entries, best first. Index 0 is always exactly
    /// [`owner_of`](Membership::owner_of)'s winner (same comparator, same
    /// weights), so "primary" and "owner" can never disagree; the set
    /// clamps to the live shard count.
    fn owners_of(&self, key: u64) -> Vec<&Arc<ShardEntry>> {
        weighted_rendezvous_ranked(
            key,
            self.shards.iter().zip(&self.weights),
            |(e, _)| e.id,
            |(_, &w)| w,
            self.replicas.clamp(1, self.shards.len()),
        )
        .into_iter()
        .map(|(e, _)| e)
        .collect()
    }

    /// The routing key of the clustering cell containing leaf index
    /// `leaf`: the cell itself, or its child one level finer when the
    /// cell's ownership is split.
    fn route_leaf(&self, leaf: u64, cfg: &MoistConfig) -> u64 {
        self.splits
            .route_leaf(leaf, cfg.clustering_level, cfg.space.leaf_level)
    }

    fn entry(&self, shard: usize) -> Result<&Arc<ShardEntry>> {
        self.shards.get(shard).ok_or_else(|| {
            MoistError::NoSuchShard(format!(
                "position {shard} out of {} live shards (epoch {})",
                self.shards.len(),
                self.epoch
            ))
        })
    }

    fn entry_by_id(&self, id: u64) -> Option<&Arc<ShardEntry>> {
        self.shards.iter().find(|e| e.id == id)
    }
}

/// A set of merged `[start, end)` leaf-index ranges.
type RangeSet = Vec<(u64, u64)>;

/// Bookkeeping for shards that left the tier: folded counters plus the
/// entries that may still be referenced by in-flight operations.
#[derive(Default)]
struct RetiredShards {
    /// Counters of retired shards whose last reference has dropped.
    folded: ServerStats,
    /// Retired entries possibly still held by in-flight snapshots.
    entries: Vec<Arc<ShardEntry>>,
}

impl RetiredShards {
    /// Folds quiescent entries (no outstanding in-flight `Arc`s, so their
    /// counters can no longer move) into the aggregate and drops them.
    fn compact(&mut self) {
        self.entries.retain(|entry| {
            if Arc::strong_count(entry) == 1 {
                self.folded.merge_from(&entry.server.read().stats());
                false
            } else {
                true
            }
        });
    }

    /// Total counters across folded and still-referenced retirees.
    fn stats(&mut self) -> ServerStats {
        self.compact();
        let mut total = self.folded;
        for entry in &self.entries {
            total.merge_from(&entry.server.read().stats());
        }
        total
    }
}

/// A sharded tier of MOIST front-end servers over one shared store, with
/// live shard join/leave (see the module docs for the membership design).
pub struct MoistCluster {
    cfg: MoistConfig,
    store: Arc<Bigtable>,
    /// Read-mostly membership snapshot; swapped whole on epoch bumps.
    /// Behind an `Arc` so scatter workers on the [`QueryPool`] can
    /// re-validate slice ownership against the freshest snapshot.
    membership: Arc<RwLock<Arc<Membership>>>,
    /// Shared worker pool running scattered query slices in parallel.
    query_pool: QueryPool,
    /// Counters of shards that left the tier (their updates — absorbed
    /// while live or in flight — must stay in [`stats`]). A departed
    /// shard's entry lingers only until its last in-flight `Arc` drops,
    /// then folds into the aggregate, so churn does not accumulate dead
    /// servers.
    ///
    /// [`stats`]: MoistCluster::stats
    retired: Mutex<RetiredShards>,
    /// Cluster-wide object-count estimate shared by every shard's FLAG.
    object_estimate: Arc<AtomicU64>,
    /// Archiver handed to every current and future shard.
    archiver: Option<Arc<PppArchiver>>,
    /// Next stable shard id to assign.
    next_shard_id: AtomicU64,
    /// Seqlock guarding the update path against stale routing: odd while
    /// a membership change is migrating cells, bumped to even once the new
    /// snapshot is published. [`update`](MoistCluster::update) re-reads it
    /// after taking the shard lock and re-routes if it moved, so a write
    /// never lands on a cell's *old* owner concurrently with the new
    /// owner clustering that cell.
    version: AtomicU64,
    /// Cells migrated between shards by join/leave epoch bumps.
    epoch_migrations: AtomicU64,
    /// Routing keys whose next-ranked follower stepped up to primary on a
    /// shard leave (replicated mode's instant promotions).
    promotions: AtomicU64,
    /// Reads served by a follower instead of the primary, tier-wide
    /// (monotonic — includes reads served by shards that later retired).
    replica_reads: AtomicU64,
    /// Cell migrations caused by hot-cell splits (children adopted by a
    /// shard other than the parent's old owner) and by rebalance weight
    /// shifts.
    split_migrations: AtomicU64,
    /// Per-shard virtual elapsed µs at the last rebalance — the baseline
    /// the next rebalance diffs against to get utilization *since*.
    rebalance_baseline: Mutex<HashMap<u64, f64>>,
    /// Read-mostly per-clustering-cell demand density (relative rate,
    /// mean ≈ 1), refreshed by [`rebalance`](MoistCluster::rebalance) and
    /// consumed by the region fan-out to price slices — empty until the
    /// first rebalance (every cell then prices by its leaf span alone).
    cell_density: RwLock<Arc<HashMap<u64, f64>>>,
    /// Read-mostly per-clustering-cell *measured* scan price (relative,
    /// average measured cell ≈ 2.0 to match the density prior's scale),
    /// learned from the per-range costs the region fan-out pays and
    /// merged across shards at [`rebalance`](MoistCluster::rebalance).
    /// Cells never scanned are absent and keep pricing by the
    /// span×density prior.
    cell_scan_cost: RwLock<Arc<HashMap<u64, f64>>>,
    /// Ingestion-pipeline knobs (batch size, queue cap, flush deadline,
    /// backpressure policy). Defaulted; tuned via
    /// [`with_ingest`](MoistCluster::with_ingest).
    ingest_cfg: IngestConfig,
    /// The per-shard bounded submission queues plus their counters.
    ingest: IngestQueues,
    /// The elasticity controller, when one was attached via
    /// [`ClusterBuilder::controller`]. Mutexed because ticks arrive from
    /// arbitrary client threads; `try_lock` keeps concurrent tickers
    /// from serializing on it.
    controller: Option<Mutex<AutoController>>,
}

/// The one construction path for [`MoistCluster`]: every knob — fleet
/// size, replication factor, ingest pipeline, elasticity controller,
/// archiver — is set on the builder, and both fresh construction
/// ([`build`](ClusterBuilder::build)) and crash recovery
/// ([`recover`](ClusterBuilder::recover)) honour all of them. The old
/// constructors ([`MoistCluster::new`], [`MoistCluster::recover`],
/// [`with_replicas`](MoistCluster::with_replicas),
/// [`with_ingest`](MoistCluster::with_ingest)) survive as thin wrappers
/// over this builder.
///
/// ```
/// # use moist_core::{MoistCluster, MoistConfig, ControllerConfig, IngestConfig};
/// # use moist_bigtable::Bigtable;
/// # fn main() -> moist_core::Result<()> {
/// let store = Bigtable::new();
/// let cluster = MoistCluster::builder(&store, MoistConfig::default())
///     .shards(10)
///     .replicas(2)
///     .ingest(IngestConfig::default())
///     .controller(ControllerConfig::default())
///     .build()?;
/// assert_eq!(cluster.num_shards(), 10);
/// assert_eq!(cluster.replicas(), 2);
/// # Ok(())
/// # }
/// ```
pub struct ClusterBuilder {
    store: Arc<Bigtable>,
    cfg: MoistConfig,
    shards: usize,
    replicas: usize,
    ingest: Option<IngestConfig>,
    controller: Option<ControllerConfig>,
    archiver: Option<Arc<PppArchiver>>,
}

impl ClusterBuilder {
    /// Fleet size to start with (default 1; clamped to at least 1).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Replication factor (default 1 = unreplicated single-owner; see
    /// [`MoistCluster::with_replicas`] for semantics).
    pub fn replicas(mut self, k: usize) -> Self {
        self.replicas = k;
        self
    }

    /// Ingestion-pipeline knobs (default [`IngestConfig::default`]; see
    /// [`MoistCluster::with_ingest`]).
    pub fn ingest(mut self, cfg: IngestConfig) -> Self {
        self.ingest = Some(cfg);
        self
    }

    /// Attaches a self-tuning elasticity controller (none by default):
    /// the tier then grows/shrinks/rebalances itself on
    /// [`controller_tick`](MoistCluster::controller_tick)s.
    pub fn controller(mut self, cfg: ControllerConfig) -> Self {
        self.controller = Some(cfg);
        self
    }

    /// Streams all non-shed location writes into a shared PPP archiver
    /// (see [`MoistCluster::with_archiver`]).
    pub fn archiver(mut self, archiver: Arc<PppArchiver>) -> Self {
        self.archiver = Some(archiver);
        self
    }

    /// Builds the tier over the store the builder was bound to.
    pub fn build(self) -> Result<MoistCluster> {
        let store = Arc::clone(&self.store);
        self.build_over(&store)
    }

    /// Rebuilds the tier from a crashed durable store, carrying **every**
    /// builder knob over to the recovered fleet — this is the fix for
    /// the old [`MoistCluster::recover`], which silently rebuilt with
    /// default replica/ingest settings. The store the builder was bound
    /// to is ignored; the recovered store replaces it.
    ///
    /// [`Bigtable::recover`] replays every table's snapshot + WAL tail
    /// to its last consistent cut, then the fleet is built over the
    /// recovered store exactly as [`build`](ClusterBuilder::build) does
    /// over a populated one: tables are opened (not recreated), each
    /// shard's scheduler is re-seeded with its rendezvous slice, and the
    /// shared object estimate restarts from the recovered affiliation
    /// rows. Returns the recovered store (callers usually want sessions
    /// on it), the tier, and the recovery report. `store_cfg.durability`
    /// must be [`Durability::Wal`](moist_bigtable::Durability::Wal).
    pub fn recover(
        self,
        store_cfg: StoreConfig,
    ) -> Result<(Arc<Bigtable>, MoistCluster, RecoveryReport)> {
        let (store, report) = Bigtable::recover(store_cfg)?;
        let cluster = self.build_over(&store)?;
        Ok((store, cluster, report))
    }

    /// The shared construction body: the base fleet (bit-identical to
    /// what `MoistCluster::new` always built), then each configured knob
    /// applied through the same public combinator the old API exposed —
    /// so builder and wrappers cannot drift apart.
    fn build_over(&self, store: &Arc<Bigtable>) -> Result<MoistCluster> {
        let mut cluster = MoistCluster::build_base(store, self.cfg, self.shards)?;
        if let Some(icfg) = self.ingest {
            cluster = cluster.with_ingest(icfg);
        }
        if self.replicas != 1 {
            cluster = cluster.with_replicas(self.replicas);
        }
        if let Some(archiver) = &self.archiver {
            cluster = cluster.with_archiver(Arc::clone(archiver));
        }
        if let Some(ccfg) = self.controller {
            cluster.controller = Some(Mutex::new(AutoController::new(ccfg)));
        }
        Ok(cluster)
    }
}

impl MoistCluster {
    /// Starts a [`ClusterBuilder`] over `store` — **the** construction
    /// path for the tier. Every knob (fleet size, replicas, ingest,
    /// controller, archiver) is set on the builder; the legacy
    /// constructors below are thin wrappers over it.
    pub fn builder(store: &Arc<Bigtable>, cfg: MoistConfig) -> ClusterBuilder {
        ClusterBuilder {
            store: Arc::clone(store),
            cfg,
            shards: 1,
            replicas: 1,
            ingest: None,
            controller: None,
            archiver: None,
        }
    }

    /// Opens (or on first use creates) the MOIST tables in `store` and
    /// builds a tier of `shards` front-end servers around them.
    ///
    /// Wrapper kept for compatibility — prefer
    /// [`builder`](MoistCluster::builder):
    /// `MoistCluster::builder(store, cfg).shards(n).build()` is this
    /// call, bit for bit.
    pub fn new(store: &Arc<Bigtable>, cfg: MoistConfig, shards: usize) -> Result<Self> {
        Self::builder(store, cfg).shards(shards).build()
    }

    /// The base fleet every construction path shares: `shards` servers,
    /// unit weights, epoch 0, no splits, replication factor 1, default
    /// ingest pipeline, no controller.
    ///
    /// Each shard gets the rendezvous slice of the clustering schedule it
    /// wins and the shared object-count estimate (seeded from the store's
    /// row count, so a tier over a populated store starts with the right
    /// FLAG `n`).
    fn build_base(store: &Arc<Bigtable>, cfg: MoistConfig, shards: usize) -> Result<Self> {
        let shards = shards.max(1);
        let object_estimate = Arc::new(AtomicU64::new(0));
        let ids: Vec<u64> = (0..shards as u64).collect();
        let entries: Vec<Arc<ShardEntry>> = ids
            .iter()
            .map(|&id| {
                Ok(Arc::new(ShardEntry::new(
                    id,
                    MoistServer::new(store, cfg)?
                        .with_scheduler(ClusterScheduler::for_member(&cfg, id, &ids))
                        .with_shared_estimate(Arc::clone(&object_estimate)),
                )))
            })
            .collect::<Result<_>>()?;
        Ok(MoistCluster {
            cfg,
            store: Arc::clone(store),
            membership: Arc::new(RwLock::new(Arc::new(Membership {
                epoch: 0,
                weights: vec![1.0; entries.len()],
                splits: Arc::new(SplitTable::default()),
                shards: entries,
                replicas: 1,
            }))),
            query_pool: QueryPool::sized_for_host(),
            retired: Mutex::new(RetiredShards::default()),
            object_estimate,
            archiver: None,
            next_shard_id: AtomicU64::new(shards as u64),
            version: AtomicU64::new(0),
            epoch_migrations: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            replica_reads: AtomicU64::new(0),
            split_migrations: AtomicU64::new(0),
            rebalance_baseline: Mutex::new(HashMap::new()),
            cell_density: RwLock::new(Arc::new(HashMap::new())),
            cell_scan_cost: RwLock::new(Arc::new(HashMap::new())),
            ingest_cfg: IngestConfig::default().normalized(),
            ingest: IngestQueues::default(),
            controller: None,
        })
    }

    /// Rebuilds a tier from a crashed durable store, with **default**
    /// replica/ingest settings.
    ///
    /// Wrapper kept for compatibility — prefer
    /// [`ClusterBuilder::recover`], which carries the crashed tier's
    /// replica/ingest/controller knobs onto the recovered fleet instead
    /// of silently resetting them:
    /// `MoistCluster::builder(&store, cfg).shards(n).replicas(k).recover(store_cfg)`.
    pub fn recover(
        store_cfg: StoreConfig,
        cfg: MoistConfig,
        shards: usize,
    ) -> Result<(Arc<Bigtable>, Self, RecoveryReport)> {
        // The builder needs a store to bind to; `recover` replaces it
        // with the recovered one, so an empty placeholder does.
        Self::builder(&Bigtable::new(), cfg)
            .shards(shards)
            .recover(store_cfg)
    }

    /// Durability checkpoint: drains the ingest pipeline so every
    /// buffered acknowledged update is applied (and therefore WAL-logged)
    /// **before** the store snapshots, then compacts every table —
    /// snapshot + log truncation. Returns `(updates drained, snapshot
    /// bytes written)`. On a non-durable store the compaction half is a
    /// no-op and `bytes` is 0.
    pub fn checkpoint(&self) -> Result<(usize, u64)> {
        let drained = self.drain_ingest()?;
        let bytes = self.store.compact_all()?;
        Ok((drained, bytes))
    }

    /// Tunes the ingestion pipeline ([`submit`](MoistCluster::submit) /
    /// [`flush_due`](MoistCluster::flush_due)): batch size, queue cap,
    /// flush deadline and the full-queue policy. Degenerate sizes are
    /// clamped to workable minima. The synchronous
    /// [`update`](MoistCluster::update) path is unaffected.
    ///
    /// Wrapper kept for compatibility — prefer
    /// [`ClusterBuilder::ingest`], which is this call applied at build
    /// time (and the only form [`ClusterBuilder::recover`] can carry
    /// across a crash).
    pub fn with_ingest(mut self, cfg: IngestConfig) -> Self {
        self.ingest_cfg = cfg.normalized();
        self
    }

    /// The ingestion pipeline's current knobs.
    pub fn ingest_config(&self) -> IngestConfig {
        self.ingest_cfg
    }

    /// Point-in-time ingestion-pipeline counters (also embedded in
    /// [`cluster_stats`](MoistCluster::cluster_stats)).
    pub fn ingest_stats(&self) -> IngestStats {
        self.ingest.stats()
    }

    /// Sets the replication factor: each routing key is owned by its
    /// rendezvous top-`k` shards — the rank-0 **primary** (updates and
    /// clustering, exactly as in the unreplicated tier) plus `k − 1`
    /// **followers** that mirror the key's state through the shared store
    /// and serve its reads when they are less loaded than the primary.
    /// `k` clamps to the live shard count; `with_replicas(1)` (the
    /// default) reproduces single-owner routing bit-identically.
    ///
    /// Replication here costs no extra storage or write amplification —
    /// the store is shared, followers hold no private state — it widens
    /// each key's *read* path and pre-arms a leave: when the primary
    /// dies, the rank-1 follower is already serving the key's reads and
    /// adopts its clustering deadlines through the normal migration path.
    ///
    /// Wrapper kept for compatibility — prefer
    /// [`ClusterBuilder::replicas`], which is this call applied at build
    /// time (and the only form [`ClusterBuilder::recover`] can carry
    /// across a crash).
    pub fn with_replicas(self, k: usize) -> Self {
        {
            let mut guard = self.membership.write();
            let old = Arc::clone(&guard);
            *guard = Arc::new(Membership {
                epoch: old.epoch,
                shards: old.shards.clone(),
                weights: old.weights.clone(),
                splits: Arc::clone(&old.splits),
                replicas: k.max(1),
            });
        }
        self
    }

    /// The configured replication factor.
    pub fn replicas(&self) -> usize {
        self.snapshot().replicas
    }

    /// Attaches one PPP archiver to every shard (current and future
    /// joiners): all non-shed location writes stream into the shared
    /// aged-data pipeline.
    pub fn with_archiver(mut self, archiver: Arc<PppArchiver>) -> Self {
        let snap = self.membership.read().clone();
        for entry in &snap.shards {
            entry.server.write().set_archiver(Arc::clone(&archiver));
        }
        self.archiver = Some(archiver);
        self
    }

    /// The current membership snapshot.
    fn snapshot(&self) -> Arc<Membership> {
        self.membership.read().clone()
    }

    /// The replica that should serve a *read* of routing key `key`: the
    /// least-loaded member of the key's replica set, by virtual elapsed
    /// store time — the same deterministic signal
    /// [`rebalance`](MoistCluster::rebalance) weighs. Strict `<` with the
    /// primary scanned first keeps reads on the primary until a follower
    /// is genuinely cheaper, so `replicas == 1` (where the set *is* the
    /// primary) reproduces owner routing exactly. Returns the chosen
    /// entry plus whether it is a follower (rank 1+); each replica's lock
    /// is taken briefly in turn, never two at once.
    fn read_replica<'a>(&self, snap: &'a Membership, key: u64) -> (&'a Arc<ShardEntry>, bool) {
        if snap.replicas <= 1 || snap.shards.len() <= 1 {
            return (snap.owner_of(key), false);
        }
        let set = snap.owners_of(key);
        let mut best = 0usize;
        let mut best_load = f64::INFINITY;
        for (rank, entry) in set.iter().enumerate() {
            let load = entry.server.read().elapsed_us();
            if load < best_load {
                best_load = load;
                best = rank;
            }
        }
        (set[best], best > 0)
    }

    /// Records one follower-served read on `entry` and tier-wide.
    fn note_replica_read(&self, entry: &ShardEntry) {
        entry.replica_reads.fetch_add(1, Ordering::Relaxed);
        self.replica_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// The entry at position `shard` in the current snapshot, as an owned
    /// `Arc`.
    fn entry_at(&self, shard: usize) -> Result<Arc<ShardEntry>> {
        Ok(Arc::clone(self.snapshot().entry(shard)?))
    }

    /// Number of live front-end shards.
    pub fn num_shards(&self) -> usize {
        self.snapshot().shards.len()
    }

    /// The live shards' stable ids, in position order.
    pub fn shard_ids(&self) -> Vec<u64> {
        self.snapshot().ids()
    }

    /// The current membership epoch (bumped by every join/leave).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// The tier's configuration.
    pub fn config(&self) -> &MoistConfig {
        &self.cfg
    }

    /// Cluster-wide object-count estimate (FLAG's `n`).
    pub fn object_estimate(&self) -> u64 {
        self.object_estimate.load(Ordering::Relaxed)
    }

    /// Adds a fresh shard to the tier and returns its stable id.
    ///
    /// The joiner starts with an empty schedule; only the clustering cells
    /// whose rendezvous winner changed (≈ cells/(N+1) of them — exactly
    /// the joiner's wins) migrate, each adopted at the deadline phase it
    /// had on its old owner. In-flight operations keep routing against
    /// the pre-join snapshot and land correctly in the shared store.
    pub fn add_shard(&self) -> Result<u64> {
        let mut guard = self.membership.write();
        let old = Arc::clone(&guard);
        let id = self.next_shard_id.fetch_add(1, Ordering::Relaxed);
        let mut server = MoistServer::new(&self.store, self.cfg)?
            .with_scheduler(ClusterScheduler::empty(&self.cfg))
            .with_shared_estimate(Arc::clone(&self.object_estimate));
        if let Some(archiver) = &self.archiver {
            server = server.with_archiver(Arc::clone(archiver));
        }
        let joiner = Arc::new(ShardEntry::new(id, server));

        let mut shards = old.shards.clone();
        let mut weights = old.weights.clone();
        let pos = shards.partition_point(|e| e.id < id);
        shards.insert(pos, Arc::clone(&joiner));
        // A joiner starts at the fleet's mean weight: unproven capacity
        // gets an average share, and the next rebalance corrects it from
        // measurement.
        let mean = weights.iter().sum::<f64>() / weights.len().max(1) as f64;
        weights.insert(
            pos,
            if mean.is_finite() && mean > 0.0 {
                mean
            } else {
                1.0
            },
        );
        let new = Membership {
            epoch: old.epoch + 1,
            shards,
            weights,
            splits: Arc::clone(&old.splits),
            replicas: old.replicas,
        };

        // Seqlock odd phase: updates started against the old snapshot
        // will re-validate and re-route rather than land on a cell whose
        // owner is mid-migration.
        self.version.fetch_add(1, Ordering::AcqRel);
        let migrated = self.migrate_ownership(&old, &new);
        self.epoch_migrations.fetch_add(migrated, Ordering::Relaxed);
        *guard = Arc::new(new);
        self.version.fetch_add(1, Ordering::AcqRel);
        // Drain the ingest queues against the published snapshot (write
        // lock released first — the drain re-takes it read-side): batches
        // buffered under the old epoch re-route to the new owners now.
        drop(guard);
        self.drain_ingest()?;
        Ok(id)
    }

    /// Moves every routing key whose owner differs between `old` and
    /// `new` from its old owner's scheduler to its new owner's,
    /// preserving each key's deadline phase; cells split (or unsplit)
    /// between the snapshots hand their phase down to (or up from) their
    /// children. The single migration path shared by
    /// [`add_shard`](MoistCluster::add_shard),
    /// [`remove_shard`](MoistCluster::remove_shard) and
    /// [`rebalance`](MoistCluster::rebalance) — callers hold the
    /// membership write lock and the seqlock's odd phase. Returns the
    /// number of keys that changed owner.
    fn migrate_ownership(&self, old: &Membership, new: &Membership) -> u64 {
        let mut migrated = 0u64;
        // Moves one key if its owner changed; returns whether it did.
        let move_key = |key: u64| -> bool {
            let old_owner = old.owner_of(key);
            let new_owner = new.owner_of(key);
            if old_owner.id == new_owner.id {
                return false;
            }
            let due = old_owner
                .server
                .write()
                .scheduler_mut()
                .release(key)
                .expect("old owner held the migrating key");
            new_owner.server.write().scheduler_mut().adopt(key, due);
            true
        };
        for cell in 0..cells_at_level(self.cfg.clustering_level) {
            match (old.splits.is_split(cell), new.splits.is_split(cell)) {
                (false, false) => migrated += u64::from(move_key(cell)),
                (true, true) => {
                    for child in SplitTable::child_keys(cell) {
                        migrated += u64::from(move_key(child));
                    }
                }
                (false, true) => {
                    // A fresh split: the parent's pending deadline carries
                    // over to every child, so none of the four re-clusters
                    // early or skips a round.
                    let due = old
                        .owner_of(cell)
                        .server
                        .write()
                        .scheduler_mut()
                        .release(cell)
                        .expect("old owner held the splitting cell");
                    let old_id = old.owner_of(cell).id;
                    for child in SplitTable::child_keys(cell) {
                        let new_owner = new.owner_of(child);
                        new_owner.server.write().scheduler_mut().adopt(child, due);
                        if new_owner.id != old_id {
                            migrated += 1;
                        }
                    }
                }
                (true, false) => {
                    // Un-split (not produced by today's rebalance policy,
                    // but the handover stays total): the earliest child
                    // deadline becomes the reunited cell's phase.
                    let mut due = u64::MAX;
                    for child in SplitTable::child_keys(cell) {
                        if let Some(d) = old
                            .owner_of(child)
                            .server
                            .write()
                            .scheduler_mut()
                            .release(child)
                        {
                            due = due.min(d);
                        }
                    }
                    let due = if due == u64::MAX {
                        (self.cfg.cluster_interval_secs * 1e6) as u64
                    } else {
                        due
                    };
                    new.owner_of(cell)
                        .server
                        .write()
                        .scheduler_mut()
                        .adopt(cell, due);
                    migrated += 1;
                }
            }
        }
        migrated
    }

    /// Removes the shard with stable id `id` from the tier.
    ///
    /// Only the departed shard's cells are reassigned — every other
    /// cell's owner is untouched (the rendezvous property) — and each
    /// reassigned cell is adopted by its new owner at its current deadline
    /// phase. The removed shard's counters remain in [`stats`] so no
    /// update it absorbed (live or in flight) goes unaccounted.
    ///
    /// Fails with [`MoistError::NoSuchShard`] if `id` is not a live shard
    /// or it is the last one (an empty tier could serve nothing).
    ///
    /// [`stats`]: MoistCluster::stats
    pub fn remove_shard(&self, id: u64) -> Result<()> {
        let mut guard = self.membership.write();
        let old = Arc::clone(&guard);
        let pos = old.position_of(id).ok_or_else(|| {
            MoistError::NoSuchShard(format!(
                "shard id {id} is not in the live membership {:?} (epoch {})",
                old.ids(),
                old.epoch
            ))
        })?;
        if old.shards.len() == 1 {
            return Err(MoistError::NoSuchShard(format!(
                "cannot remove shard id {id}: it is the last live shard"
            )));
        }
        let departed = Arc::clone(&old.shards[pos]);
        let mut shards = old.shards.clone();
        let mut weights = old.weights.clone();
        shards.remove(pos);
        weights.remove(pos);
        let new = Membership {
            epoch: old.epoch + 1,
            shards,
            weights,
            splits: Arc::clone(&old.splits),
            replicas: old.replicas,
        };

        // Seqlock odd phase (see `add_shard`). The migration loop hands
        // exactly the departed shard's keys (the only ones whose winner
        // changes) to their new owners at their current deadline phase.
        self.version.fetch_add(1, Ordering::AcqRel);
        let migrated = self.migrate_ownership(&old, &new);
        self.epoch_migrations.fetch_add(migrated, Ordering::Relaxed);
        if old.replicas > 1 {
            // Rendezvous ranks are prefix-stable under a leave: every
            // migrated key's new primary is exactly its old rank-1
            // follower, already warm on the key's reads — each handover
            // is an instant follower promotion.
            self.promotions.fetch_add(migrated, Ordering::Relaxed);
        }
        let mut retired = self.retired.lock();
        retired.entries.push(departed);
        retired.compact();
        drop(retired);
        *guard = Arc::new(new);
        self.version.fetch_add(1, Ordering::AcqRel);
        // Drain-and-reroute: anything buffered for the departed shard
        // (or any other) applies now, under the survivors' ownership —
        // an acknowledged submission is never stranded behind a dead
        // shard's queue key.
        drop(guard);
        self.drain_ingest()?;
        Ok(())
    }

    /// One load-aware placement step: derives per-shard weights from the
    /// utilization measured since the previous rebalance and splits the
    /// hottest clustering cells one level finer, then migrates exactly the
    /// routing keys whose owner changed through the same epoch/handover
    /// path joins and leaves use (deadline phases preserved, seqlock
    /// protecting the update path).
    ///
    /// * **Weights** — a shard whose virtual elapsed time since the last
    ///   rebalance sits above the fleet mean is over-utilized: its weight
    ///   shrinks by the utilization ratio (per-step factor clamped, total
    ///   weight clamped to `[1/8, 8]`, then normalized to mean 1), so the
    ///   weighted rendezvous shifts whole cells away from it with minimal
    ///   remap. Under-utilized shards symmetrically grow. A dead-band
    ///   around the mean keeps a level fleet from oscillating.
    /// * **Splits** — per-cell EWMA update rates (the load layer) merge
    ///   across shards; cells whose rate exceeds [`HOT_SPLIT_FACTOR`]×
    ///   the mean cell rate split one level finer (bounded by
    ///   [`MAX_SPLIT_CELLS`]), so a single business-center cell stops
    ///   pinning whichever shard owns it. Split cells whose demand later
    ///   fades below [`UNSPLIT_FACTOR`]× the mean **un-split** — the four
    ///   children reunite through the same handover path — so the split
    ///   table's cap recycles as the hot spot moves.
    /// * **Density & scan prices** — the merged per-cell rates refresh
    ///   the relative density map the region fan-out uses to price its
    ///   balancing pass, and the per-cell scan costs *measured* by past
    ///   fan-out partials (see
    ///   [`LoadTracker::note_cell_scan`](crate::load::LoadTracker::note_cell_scan))
    ///   merge into a learned price map that replaces the density prior
    ///   for every cell that has actually been scanned.
    ///
    /// Returns what changed; when nothing does (level fleet, no hot
    /// cells) the membership — and its epoch — is left untouched. The
    /// membership change itself cannot fail, but the post-publish ingest
    /// drain applies buffered batches and any error it hits (a poisoned
    /// update, a store failure) is propagated rather than swallowed —
    /// the new epoch is already live at that point, so callers see the
    /// placement applied *and* the drain failure.
    pub fn rebalance(&self, now: Timestamp) -> Result<RebalanceReport> {
        let mut guard = self.membership.write();
        let old = Arc::clone(&guard);

        // ---- measure: per-shard utilization + merged per-cell rates ----
        let mut utils: Vec<f64> = Vec::with_capacity(old.shards.len());
        let mut cell_rates: HashMap<u64, f64> = HashMap::new();
        let mut scan_samples: HashMap<u64, (f64, u32)> = HashMap::new();
        {
            let mut baseline = self.rebalance_baseline.lock();
            for entry in &old.shards {
                let server = entry.server.read();
                let elapsed = server.elapsed_us();
                for (cell, rates) in server.load_rates(now) {
                    *cell_rates.entry(cell).or_insert(0.0) += rates.total();
                }
                // Different shards may have scanned the same cell (the
                // balancing pass moves slices around); their learned
                // costs average.
                for (cell, us) in server.cell_scan_costs() {
                    let e = scan_samples.entry(cell).or_insert((0.0, 0));
                    e.0 += us;
                    e.1 += 1;
                }
                let prev = baseline.insert(entry.id, elapsed).unwrap_or(0.0);
                utils.push((elapsed - prev).max(0.0));
            }
        }

        // ---- weights from utilization ----
        let n = old.shards.len();
        let mean_util = utils.iter().sum::<f64>() / n.max(1) as f64;
        let mut weights = old.weights.clone();
        let mut reweighted = 0usize;
        if mean_util > 1.0 {
            for (w, &util) in weights.iter_mut().zip(&utils) {
                let ratio = util / mean_util;
                // Dead-band: a ±20% wobble around the mean is noise.
                let factor = if ratio > 1.2 {
                    (1.0 / ratio).max(1.0 / REBALANCE_MAX_STEP)
                } else if ratio < 0.8 {
                    (1.0 / ratio.max(0.05)).min(REBALANCE_MAX_STEP)
                } else {
                    1.0
                };
                if factor != 1.0 {
                    *w = (*w * factor).clamp(MIN_PLACEMENT_WEIGHT, MAX_PLACEMENT_WEIGHT);
                    reweighted += 1;
                }
            }
            // Normalize to mean 1 so weights stay comparable across
            // epochs instead of drifting towards a clamp.
            let sum: f64 = weights.iter().sum();
            if sum > 0.0 {
                let scale = n as f64 / sum;
                for w in &mut weights {
                    *w *= scale;
                }
            }
        }

        // ---- splits (and un-splits) from per-cell rates ----
        let mut splits = (*old.splits).clone();
        let mut split_now: Vec<u64> = Vec::new();
        let mut unsplit_now: Vec<u64> = Vec::new();
        if self.cfg.clustering_level < self.cfg.space.leaf_level {
            let candidates: Vec<(u64, f64)> = cell_rates
                .iter()
                .filter(|(cell, &rate)| rate > 0.0 && !splits.is_split(**cell))
                .map(|(&cell, &rate)| (cell, rate))
                .collect();
            // Mean over the whole level, not just the loaded cells: "hot"
            // means hot relative to the map, and a map where one cell has
            // all the traffic is the textbook split case.
            let mean_rate = cell_rates.values().sum::<f64>()
                / cells_at_level(self.cfg.clustering_level).max(1) as f64;
            if mean_rate > 0.0 {
                // Un-split first: demand observations key by the *parent*
                // cell even while it is split, so a split cell's merged
                // EWMA rate compares directly against the same mean the
                // split threshold uses. A cell whose demand faded below
                // [`UNSPLIT_FACTOR`]× the mean reunites, freeing
                // split-table capacity for wherever the hot spot moved;
                // the wide gap to [`HOT_SPLIT_FACTOR`] is the hysteresis.
                // An idle map (`mean_rate == 0`) deliberately un-splits
                // nothing: no evidence, no churn.
                for cell in splits.cells().collect::<Vec<u64>>() {
                    let rate = cell_rates.get(&cell).copied().unwrap_or(0.0);
                    if rate < UNSPLIT_FACTOR * mean_rate {
                        splits.unsplit(cell);
                        unsplit_now.push(cell);
                    }
                }
                let mut hot: Vec<(u64, f64)> = candidates
                    .into_iter()
                    .filter(|&(_, rate)| rate >= HOT_SPLIT_FACTOR * mean_rate)
                    .collect();
                hot.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                for (cell, _) in hot {
                    if splits.len() >= MAX_SPLIT_CELLS {
                        break;
                    }
                    splits.split(cell);
                    split_now.push(cell);
                }
            }
        }

        // ---- refresh the fan-out's density map ----
        if !cell_rates.is_empty() {
            let mean = cell_rates.values().sum::<f64>() / cell_rates.len() as f64;
            if mean > 0.0 {
                let density: HashMap<u64, f64> = cell_rates
                    .iter()
                    .map(|(&cell, &rate)| (cell, rate / mean))
                    .collect();
                *self.cell_density.write() = Arc::new(density);
            }
        }

        // ---- refresh the fan-out's *measured* scan-price map ----
        if !scan_samples.is_empty() {
            let merged: Vec<(u64, f64)> = scan_samples
                .iter()
                .map(|(&cell, &(sum, n))| (cell, sum / n as f64))
                .collect();
            let mean = merged.iter().map(|&(_, us)| us).sum::<f64>() / merged.len() as f64;
            if mean > 0.0 {
                // Scaled so the average *measured* cell prices at 2.0 —
                // the scale the density prior averages to (1 + mean
                // relative density = 2) — so measured cells and
                // prior-priced (never-scanned) cells mix consistently in
                // one cost function.
                let prices: HashMap<u64, f64> = merged
                    .into_iter()
                    .map(|(cell, us)| (cell, 2.0 * us / mean))
                    .collect();
                *self.cell_scan_cost.write() = Arc::new(prices);
            }
        }

        let weights_changed = weights
            .iter()
            .zip(&old.weights)
            .any(|(a, b)| (a - b).abs() > 1e-9);
        if !weights_changed && split_now.is_empty() && unsplit_now.is_empty() {
            return Ok(RebalanceReport {
                epoch: old.epoch,
                reweighted: 0,
                split_cells: Vec::new(),
                unsplit_cells: Vec::new(),
                migrated_keys: 0,
            });
        }

        // ---- publish: one epoch bump through the shared handover path ----
        let new = Membership {
            epoch: old.epoch + 1,
            shards: old.shards.clone(),
            weights,
            splits: Arc::new(splits),
            replicas: old.replicas,
        };
        self.version.fetch_add(1, Ordering::AcqRel);
        let migrated = self.migrate_ownership(&old, &new);
        self.split_migrations.fetch_add(migrated, Ordering::Relaxed);
        *guard = Arc::new(new);
        self.version.fetch_add(1, Ordering::AcqRel);
        // Same drain-and-reroute as join/leave: the drain's error is the
        // caller's to see — buffered acknowledged updates that fail to
        // apply must not vanish behind a successful-looking report.
        drop(guard);
        self.drain_ingest()?;
        Ok(RebalanceReport {
            epoch: old.epoch + 1,
            reweighted,
            split_cells: split_now,
            unsplit_cells: unsplit_now,
            migrated_keys: migrated,
        })
    }

    /// Drives the elasticity controller one tick of virtual time: a
    /// no-op unless a controller was attached
    /// ([`ClusterBuilder::controller`]) *and* an evaluation is due at
    /// `now`. Call it from the client loop next to
    /// [`run_due_clustering`](MoistCluster::run_due_clustering) — the
    /// controller is deliberately thread-free and deterministic, exactly
    /// like the load layer it reads.
    ///
    /// Each closed window yields at most one scaling action (plus
    /// rebalances on their own cadence); the actions executed this tick
    /// are returned and logged to
    /// [`controller_events`](MoistCluster::controller_events).
    /// Concurrent tickers don't serialize: whoever holds the controller
    /// evaluates, everyone else returns immediately. A planned removal
    /// that races an operator's own `remove_shard` (the victim is
    /// already gone) is skipped, not an error; the min-fleet clamp is
    /// re-checked against the live membership at execution time.
    pub fn controller_tick(&self, now: Timestamp) -> Result<Vec<ControllerAction>> {
        let Some(ctl) = &self.controller else {
            return Ok(Vec::new());
        };
        let Some(mut guard) = ctl.try_lock() else {
            return Ok(Vec::new());
        };
        if !guard.due(now) {
            return Ok(Vec::new());
        }
        let stats = self.cluster_stats(now);
        let split_table_full = stats.split_cells.len() >= MAX_SPLIT_CELLS;
        let plans = guard.plan(now, &stats, self.ingest_cfg.queue_cap, split_table_full);
        let mut actions = Vec::new();
        for plan in plans {
            match plan {
                Plan::Rebalance => {
                    let report = self.rebalance(now)?;
                    let action = ControllerAction::Rebalance {
                        epoch: report.epoch,
                    };
                    guard.note_action(now, action, self.num_shards(), "rebalance cadence");
                    actions.push(action);
                }
                Plan::Add { count, reason } => {
                    for _ in 0..count {
                        if self.num_shards() >= guard.config().max_shards {
                            break;
                        }
                        let id = self.add_shard()?;
                        let action = ControllerAction::AddShard { id };
                        guard.note_action(now, action, self.num_shards(), reason);
                        actions.push(action);
                    }
                }
                Plan::Remove { victim, reason } => {
                    if self.num_shards() <= guard.config().min_shards {
                        continue;
                    }
                    match self.remove_shard(victim) {
                        Ok(()) => {
                            let action = ControllerAction::RemoveShard { id: victim };
                            guard.note_action(now, action, self.num_shards(), reason);
                            actions.push(action);
                        }
                        // The victim raced away (operator kill, chaos):
                        // the plan is stale, not wrong.
                        Err(MoistError::NoSuchShard(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        Ok(actions)
    }

    /// The controller's decision log so far (empty when no controller is
    /// attached), oldest first — the observable trace the chaos tests
    /// assert hysteresis on.
    pub fn controller_events(&self) -> Vec<ControllerEvent> {
        self.controller
            .as_ref()
            .map(|c| c.lock().events().to_vec())
            .unwrap_or_default()
    }

    /// The attached controller's (normalized) configuration, if any.
    pub fn controller_config(&self) -> Option<ControllerConfig> {
        self.controller.as_ref().map(|c| c.lock().config())
    }

    /// The learned per-cell scan prices the region fan-out currently
    /// uses (relative; average measured cell ≈ 2.0), refreshed by
    /// [`rebalance`](MoistCluster::rebalance) from the per-range costs
    /// past fan-outs measured. Empty until a fan-out has scanned and a
    /// rebalance has folded — cells absent here price by the
    /// span×density prior.
    pub fn learned_scan_costs(&self) -> HashMap<u64, f64> {
        self.cell_scan_cost.read().as_ref().clone()
    }

    /// The clustering cells currently split one level finer.
    pub fn split_cells(&self) -> Vec<u64> {
        self.snapshot().splits.cells().collect()
    }

    /// The live shards' placement weights, in position order.
    pub fn shard_weights(&self) -> Vec<f64> {
        self.snapshot().weights.clone()
    }

    /// The tier's load/placement observability rollup: per-shard
    /// utilization and demand rates, placement weights, owned-key counts,
    /// scatter-slice service timings, the split table, and the migration
    /// counters — everything [`rebalance`](MoistCluster::rebalance)
    /// consumes, exposed so operators (and the `fig16_skew` bench) can see
    /// what placement sees. `now` folds the EWMA windows before reading.
    pub fn cluster_stats(&self, now: Timestamp) -> ClusterStats {
        let snap = self.snapshot();
        // Follower-key counts per shard id: walk every routing key's
        // replica set once and charge ranks 1+. Skipped entirely at
        // `replicas == 1` (no set has a rank 1).
        let mut follower_counts: HashMap<u64, usize> = HashMap::new();
        if snap.replicas > 1 {
            let mut note = |key: u64| {
                for entry in snap.owners_of(key).into_iter().skip(1) {
                    *follower_counts.entry(entry.id).or_insert(0) += 1;
                }
            };
            for cell in 0..cells_at_level(self.cfg.clustering_level) {
                if snap.splits.is_split(cell) {
                    for child in SplitTable::child_keys(cell) {
                        note(child);
                    }
                } else {
                    note(cell);
                }
            }
        }
        let shards = snap
            .shards
            .iter()
            .zip(&snap.weights)
            .map(|(entry, &weight)| {
                let server = entry.server.read();
                let (update_rate, query_rate) = server.load_totals(now);
                let (scatter_slices, scatter_slice_us) = server.scatter_slice_stats();
                ShardLoadStats {
                    id: entry.id,
                    weight,
                    elapsed_us: server.elapsed_us(),
                    update_rate,
                    query_rate,
                    primary_keys: server.scheduler().owned_count(),
                    follower_keys: follower_counts.get(&entry.id).copied().unwrap_or(0),
                    replica_reads: entry.replica_reads.load(Ordering::Relaxed),
                    scatter_slices,
                    scatter_slice_us,
                    queue_depth: self.ingest.depth(entry.id),
                }
            })
            .collect();
        ClusterStats {
            epoch: snap.epoch,
            shards,
            split_cells: snap.splits.cells().collect(),
            epoch_migrations: self.epoch_migrations.load(Ordering::Relaxed),
            split_migrations: self.split_migrations.load(Ordering::Relaxed),
            replicas: snap.replicas,
            promotions: self.promotions.load(Ordering::Relaxed),
            replica_reads: self.replica_reads.load(Ordering::Relaxed),
            ingest: self.ingest.stats(),
            ops: self.stats(),
        }
    }

    /// The position (in current membership order) of the shard owning the
    /// clustering cell (or, for a split cell, the child cell) containing
    /// `p`.
    pub fn shard_for_point(&self, p: &Point) -> usize {
        let leaf = self.cfg.space.leaf_cell(p).index;
        let snap = self.snapshot();
        let id = snap.owner_of(snap.route_leaf(leaf, &self.cfg)).id;
        snap.position_of(id).expect("winner is live")
    }

    /// The position of the rendezvous winner for `key` in the current
    /// snapshot.
    fn owner_position(&self, key: u64) -> usize {
        let snap = self.snapshot();
        let id = snap.owner_of(key).id;
        snap.position_of(id).expect("winner is live")
    }

    /// The position of the shard owning clustering cell `cell` (coarser or
    /// finer cells are mapped through a representative leaf descendant,
    /// so split-cell routing applies to them too).
    pub fn shard_for_cell(&self, cell: CellId) -> usize {
        let snap = self.snapshot();
        let id = snap
            .owner_of(snap.route_leaf(self.leaf_representative(cell), &self.cfg))
            .id;
        snap.position_of(id).expect("winner is live")
    }

    /// A representative leaf index inside `cell` (its first leaf
    /// descendant; cells finer than the leaf level map through their
    /// ancestor).
    fn leaf_representative(&self, cell: CellId) -> u64 {
        let leaf_level = self.cfg.space.leaf_level;
        if cell.level <= leaf_level {
            cell.index << (2 * (leaf_level - cell.level) as u64)
        } else {
            cell.index >> (2 * (cell.level - leaf_level) as u64)
        }
    }

    /// The position of the shard answering object-keyed lookups for `oid`
    /// (pure load spreading — any shard could serve them from the shared
    /// store).
    pub fn shard_for_object(&self, oid: ObjectId) -> usize {
        self.owner_position(oid.0)
    }

    /// Runs `f` against one shard's server by position (stats inspection,
    /// clock resets, direct table access in tests). Fails with
    /// [`MoistError::NoSuchShard`] when `shard` is past the current
    /// membership instead of panicking, so callers racing a shard removal
    /// degrade gracefully.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut MoistServer) -> R) -> Result<R> {
        let entry = self.entry_at(shard)?;
        let mut server = entry.server.write();
        Ok(f(&mut server))
    }

    /// Shared-access variant of [`with_shard`](MoistCluster::with_shard):
    /// runs `f` under the shard's *read* guard, so any number of callers
    /// (and the tier's own query paths) can overlap on the same shard.
    /// All of [`MoistServer`]'s query methods take `&self` and work here;
    /// use `with_shard` when `f` needs the exclusive writer view.
    pub fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&MoistServer) -> R) -> Result<R> {
        let entry = self.entry_at(shard)?;
        let server = entry.server.read();
        Ok(f(&server))
    }

    /// Applies one update on the shard owning the update's clustering cell.
    ///
    /// Routing is seqlock-validated against membership changes: the
    /// version is read before routing and re-read *after* the owner's
    /// lock is held; if a join/leave ran (or is running) in between, the
    /// lock is dropped and routing retries on the new snapshot. This
    /// keeps the exclusivity invariant — a cell's updates and its
    /// clustering serialize on the current owner's lock — across epoch
    /// bumps: without it, an update routed on a pre-bump snapshot could
    /// mutate a migrated cell's school state on the *old* owner while the
    /// new owner is already clustering that cell. Read-only queries skip
    /// the validation deliberately (a stale-routed read still scans a
    /// consistent store).
    pub fn update(&self, msg: &UpdateMessage) -> Result<UpdateOutcome> {
        let leaf = self.cfg.space.leaf_cell(&msg.loc).index;
        loop {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                // A membership change is migrating cells right now.
                std::thread::yield_now();
                continue;
            }
            // Routing key and owner come from the same snapshot, so the
            // split table consulted is the one this epoch's owners were
            // seeded from.
            let snap = self.snapshot();
            let entry = Arc::clone(snap.owner_of(snap.route_leaf(leaf, &self.cfg)));
            drop(snap);
            let mut server = entry.server.write();
            if self.version.load(Ordering::Acquire) == v1 {
                return server.update(msg);
            }
            // Membership moved while we were acquiring the lock; this
            // entry may no longer own the cell. Re-route.
            drop(server);
        }
    }

    /// Applies a batch of updates, each on the shard owning its
    /// clustering cell, amortizing lock acquisitions and store
    /// round-trips across each shard's group
    /// ([`MoistServer::update_batch`]).
    ///
    /// Routing holds the same seqlock discipline as
    /// [`update`](MoistCluster::update), per owner group: messages are
    /// grouped by the current snapshot's owners, the version is re-read
    /// after each owner's lock is taken, and groups raced by an epoch
    /// bump return to the pending set and re-route on the new snapshot —
    /// so no message in the batch ever lands on a migrated cell's old
    /// owner. Outcomes come back in message order. On a store error the
    /// already-applied groups stay applied (store errors are fatal in
    /// this tier, never transient).
    pub fn update_batch(&self, msgs: &[UpdateMessage]) -> Result<Vec<UpdateOutcome>> {
        if msgs.is_empty() {
            return Ok(Vec::new());
        }
        let mut out: Vec<Option<UpdateOutcome>> = vec![None; msgs.len()];
        let mut pending: Vec<usize> = (0..msgs.len()).collect();
        while !pending.is_empty() {
            let v1 = self.version.load(Ordering::Acquire);
            if v1 % 2 == 1 {
                // A membership change is migrating cells right now.
                std::thread::yield_now();
                continue;
            }
            let snap = self.snapshot();
            // Group by owner in first-seen order: deterministic apply
            // order per submission order, so the virtual-time cost model
            // stays reproducible.
            let mut groups: Vec<(Arc<ShardEntry>, Vec<usize>)> = Vec::new();
            let mut slot_of: HashMap<u64, usize> = HashMap::new();
            for &i in &pending {
                let leaf = self.cfg.space.leaf_cell(&msgs[i].loc).index;
                let entry = snap.owner_of(snap.route_leaf(leaf, &self.cfg));
                let slot = *slot_of.entry(entry.id).or_insert_with(|| {
                    groups.push((Arc::clone(entry), Vec::new()));
                    groups.len() - 1
                });
                groups[slot].1.push(i);
            }
            drop(snap);
            pending.clear();
            for (entry, idxs) in groups {
                let mut server = entry.server.write();
                if self.version.load(Ordering::Acquire) != v1 {
                    // An epoch bump raced this group: its owner may have
                    // changed. Hand the whole group back for re-routing.
                    drop(server);
                    pending.extend(idxs);
                    continue;
                }
                let batch: Vec<UpdateMessage> = idxs.iter().map(|&i| msgs[i]).collect();
                let outcomes = server.update_batch(&batch)?;
                drop(server);
                for (&i, o) in idxs.iter().zip(outcomes) {
                    out[i] = Some(o);
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|o| o.expect("every message applied by exactly one group"))
            .collect())
    }

    /// Submits one update to the ingestion pipeline instead of applying
    /// it synchronously.
    ///
    /// The message is routed by the current membership snapshot to its
    /// owner shard's bounded queue. An enqueue that fills the batch
    /// flushes it inline through
    /// [`update_batch`](MoistCluster::update_batch) (which re-routes
    /// under the seqlock, so queue-key staleness is harmless). A full
    /// queue surfaces per the configured [`BackpressurePolicy`]: a typed
    /// [`MoistError::Backpressure`] (nothing accepted — the client owns
    /// the retry) or an overload shed ([`SubmitOutcome::ShedOverload`],
    /// counted separately from school sheds). Malformed (non-finite)
    /// messages are rejected here, before buffering, so a later flush
    /// can never fail on a message that was already acknowledged.
    ///
    /// `Ok(Enqueued { .. }) | Ok(Flushed { .. })` is the pipeline's
    /// acknowledgement: the update **will** be applied — by a size or
    /// deadline flush, or by the drain every epoch bump and
    /// [`drain_ingest`](MoistCluster::drain_ingest) call performs.
    pub fn submit(&self, msg: &UpdateMessage) -> Result<SubmitOutcome> {
        msg.validate()?;
        let leaf = self.cfg.space.leaf_cell(&msg.loc).index;
        let snap = self.snapshot();
        let shard = snap.owner_of(snap.route_leaf(leaf, &self.cfg)).id;
        drop(snap);
        match self.ingest.enqueue(&self.ingest_cfg, shard, msg) {
            EnqueueResult::Queued { depth } => Ok(SubmitOutcome::Enqueued { shard, depth }),
            EnqueueResult::Batch(batch) => {
                self.update_batch(&batch)?;
                let flush_ts = Timestamp(batch.iter().map(|m| m.ts.0).max().unwrap_or(0));
                self.ingest
                    .note_flush(FlushKind::Size, shard, &batch, flush_ts);
                Ok(SubmitOutcome::Flushed {
                    shard,
                    batch: batch.len(),
                })
            }
            EnqueueResult::Full { depth } => match self.ingest_cfg.policy {
                BackpressurePolicy::Reject => Err(MoistError::Backpressure { shard, depth }),
                BackpressurePolicy::Shed => Ok(SubmitOutcome::ShedOverload { shard }),
            },
        }
    }

    /// Flushes every ingest queue whose oldest buffered message has aged
    /// past the flush deadline at (virtual) `now` — the "or deadline"
    /// half of the flush trigger, driven by client ticks rather than a
    /// background thread so the cost model stays deterministic. Returns
    /// the number of updates applied.
    pub fn flush_due(&self, now: Timestamp) -> Result<usize> {
        let mut flushed = 0usize;
        for (shard, batch) in self.ingest.take_due(&self.ingest_cfg, now) {
            self.update_batch(&batch)?;
            self.ingest
                .note_flush(FlushKind::Deadline, shard, &batch, now);
            flushed += batch.len();
        }
        Ok(flushed)
    }

    /// Drains every ingest queue unconditionally, applying everything
    /// buffered. Called by every epoch bump
    /// ([`add_shard`](MoistCluster::add_shard) /
    /// [`remove_shard`](MoistCluster::remove_shard) /
    /// [`rebalance`](MoistCluster::rebalance)) right after its snapshot
    /// publishes — in-flight batches re-route to the new owners instead
    /// of being stranded behind a dead shard's queue key — and by
    /// clients at end-of-stream. Returns the number of updates applied.
    pub fn drain_ingest(&self) -> Result<usize> {
        let mut flushed = 0usize;
        for (shard, batch) in self.ingest.take_all() {
            self.update_batch(&batch)?;
            let flush_ts = Timestamp(batch.iter().map(|m| m.ts.0).max().unwrap_or(0));
            self.ingest
                .note_flush(FlushKind::Drain, shard, &batch, flush_ts);
            flushed += batch.len();
        }
        Ok(flushed)
    }

    /// FLAG-tuned k-nearest-neighbour query.
    ///
    /// When the candidate ring (query cell + edge neighbours at the FLAG
    /// level) crosses a shard-ownership boundary, the ring's scans scatter
    /// across the owning shards in parallel and the partials merge; when
    /// the merged ring cannot *prove* the k-th neighbour (its distance
    /// exceeds the ring's covered radius) the query falls back to the
    /// exact single-shard frontier search, so the answer is always the
    /// plain Algorithm 2 answer. Rings on one shard skip the scatter
    /// entirely — the current anchor-routed path.
    pub fn nn(&self, center: Point, k: usize, at: Timestamp) -> Result<(Vec<Neighbor>, NnStats)> {
        check_centre(&center)?;
        let leaf = self.cfg.space.leaf_cell(&center).index;
        let snap = self.snapshot();
        let (entry, follower) = self.read_replica(&snap, snap.route_leaf(leaf, &self.cfg));
        let anchor = Arc::clone(entry);
        drop(snap);
        if follower {
            self.note_replica_read(&anchor);
        }
        let level = { anchor.server.read().flag_level(&center, at)? };
        self.nn_scatter(center, k, at, level, &anchor)
    }

    /// The scatter-or-fallback NN body shared by [`nn`](MoistCluster::nn).
    fn nn_scatter(
        &self,
        center: Point,
        k: usize,
        at: Timestamp,
        nn_level: u8,
        anchor: &Arc<ShardEntry>,
    ) -> Result<(Vec<Neighbor>, NnStats)> {
        let ring = nn_candidate_ring(&self.cfg, &center, nn_level);
        let snap = self.snapshot();
        // Group the ring's cells by the replica that should *read* them:
        // the least-loaded member of each cell's replica set. At
        // `replicas == 1` this is exactly the old owner grouping; above
        // it, a hot cell's reads spread over its followers, and cells
        // whose replica sets overlap can collapse onto one shard (fewer
        // partials, same exact merge).
        let mut by_reader: Vec<(Arc<ShardEntry>, Vec<CellId>, u64)> = Vec::new();
        // Slot map keyed by shard id: O(ring) grouping (the linear probe
        // this replaces was O(ring²)) while by_reader keeps first-seen
        // order, which the scatter and merge below rely on.
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for &cell in &ring {
            let key = snap.route_leaf(self.leaf_representative(cell), &self.cfg);
            let (reader, follower) = self.read_replica(&snap, key);
            let follower = u64::from(follower);
            let slot = *slot_of.entry(reader.id).or_insert_with(|| {
                by_reader.push((Arc::clone(reader), Vec::new(), 0));
                by_reader.len() - 1
            });
            by_reader[slot].1.push(cell);
            by_reader[slot].2 += follower;
        }
        if k == 0 || by_reader.len() <= 1 {
            // The whole ring reads on one shard: plain Algorithm 2 there.
            let server = anchor.server.read();
            return server.nn_at_level(center, k, at, nn_level);
        }

        let opts = NnOptions::new(k, nn_level);
        let tasks: Vec<_> = by_reader
            .into_iter()
            .map(|(entry, cells, followed)| {
                // The partial genuinely runs now: charge the
                // follower-routed cells to their serving shard.
                for _ in 0..followed {
                    self.note_replica_read(&entry);
                }
                move || -> Result<NnPartial> {
                    let server = entry.server.read();
                    server.nn_partial(&cells, center, at, &opts)
                }
            })
            .collect();
        let mut parts = Vec::new();
        for outcome in self.query_pool.scatter(tasks) {
            parts.push(outcome?);
        }
        let (merged, mut stats) = merge_ring_partials(&self.cfg, &center, &ring, parts, &opts);
        if let Some(nn) = merged {
            // One client query: the scattered partials are not counted
            // individually, so credit the anchor shard with the query.
            anchor.server.read().note_query_served();
            return Ok((nn, stats));
        }
        // The replayed frontier escaped the ring (sparse cells, or a
        // school/velocity bound the ring cannot prove): run the exact
        // frontier search on the anchor. The scattered scan stays on the
        // bill — the client saw both phases.
        let (nn, fallback) = {
            let server = anchor.server.read();
            server.nn_at_level(center, k, at, nn_level)?
        };
        stats.cells_scanned += fallback.cells_scanned;
        stats.leaders_fetched += fallback.leaders_fetched;
        stats.cost_us += fallback.cost_us;
        Ok((nn, stats))
    }

    /// k-NN at a fixed search level, routed like [`MoistCluster::nn`].
    pub fn nn_at_level(
        &self,
        center: Point,
        k: usize,
        at: Timestamp,
        nn_level: u8,
    ) -> Result<(Vec<Neighbor>, NnStats)> {
        check_centre(&center)?;
        let leaf = self.cfg.space.leaf_cell(&center).index;
        let snap = self.snapshot();
        let (entry, follower) = self.read_replica(&snap, snap.route_leaf(leaf, &self.cfg));
        let entry = Arc::clone(entry);
        drop(snap);
        if follower {
            self.note_replica_read(&entry);
        }
        let server = entry.server.read();
        server.nn_at_level(center, k, at, nn_level)
    }

    /// Region query, scatter-gathered across the owning shards.
    ///
    /// The merged leaf ranges are planned once, owner-sliced (an exact
    /// partition — see [`slice_ranges_by_owner`]), scanned in parallel on
    /// the [`QueryPool`] (one slice per owning shard, each under its own
    /// shard lock), and merged: hits move into one list and each object
    /// dedups exactly once at the merge. `cost_us` in the returned stats
    /// is the client-visible latency of the fan-out: within a scatter
    /// round the slices overlap, so the round costs its *slowest* partial,
    /// and the (rare, churn-only) re-route rounds run back to back, so
    /// rounds *add*. `shards_scattered` counts distinct shards that
    /// scanned. A plan whose ranges all belong to one shard runs inline on
    /// that shard, no pool hop.
    ///
    /// Workers re-validate their slice against the freshest membership
    /// snapshot (re-slicing it with the same property-tested
    /// [`slice_ranges_by_owner`] the dispatch used), so an epoch bump
    /// mid-scatter re-routes only the slices whose cells actually
    /// migrated; reads are correct on any shard (one shared store), the
    /// re-route just keeps load on the current owners.
    pub fn region(
        &self,
        rect: &Rect,
        at: Timestamp,
        margin: f64,
    ) -> Result<(Vec<Neighbor>, RegionStats)> {
        check_rect(rect)?;
        let clustering_level = self.cfg.clustering_level;
        let leaf_level = self.cfg.space.leaf_level;
        let mut pending = plan_region_ranges(&self.cfg, rect, margin);
        let mut parts: Vec<RegionPartial> = Vec::new();
        let mut scanned_shards: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut cost_us = 0.0f64;
        let mut rebalanced = 0usize;
        let mut round = 0usize;
        while !pending.is_empty() {
            round += 1;
            let revalidate = round < MAX_REROUTE_ROUNDS;
            let snap = self.snapshot();
            let placement = snap.placement();
            let slices = if snap.replicas > 1 && snap.shards.len() > 1 {
                // Replica-aware slicing: each routing key's slice goes to
                // the least-loaded member of its replica set (one elapsed
                // snapshot per shard, taken once per round), so a
                // query-heavy mix spreads a hot key's scans over its
                // followers instead of pinning the primary.
                let loads: HashMap<u64, f64> = snap
                    .shards
                    .iter()
                    .map(|e| (e.id, e.server.read().elapsed_us()))
                    .collect();
                slice_ranges_by_replicas(
                    &pending,
                    clustering_level,
                    leaf_level,
                    &placement,
                    &snap.splits,
                    snap.replicas,
                    |id| loads.get(&id).copied().unwrap_or(f64::INFINITY),
                )
            } else {
                slice_ranges_by_placement(
                    &pending,
                    clustering_level,
                    leaf_level,
                    &placement,
                    &snap.splits,
                )
            };
            // Balancing pass: the largest owner slices subdivide across
            // idle shards (any shard can scan any range), priced by the
            // load layer's per-cell demand so a short-but-hot range counts
            // as expensive. The client then waits for the *mean*-ish
            // slice, not the largest ownership share.
            let density = self.cell_density.read().clone();
            let scan_price = self.cell_scan_cost.read().clone();
            let shift = 2 * (leaf_level - clustering_level) as u64;
            let cost_of = move |start: u64, end: u64| -> f64 {
                let mut cost = 0.0;
                let mut s = start;
                while s < end {
                    let cell = s >> shift;
                    let e = end.min((cell + 1) << shift);
                    let frac = (e - s) as f64 / (1u64 << shift) as f64;
                    let price = match scan_price.get(&cell) {
                        // Measured beats modelled: cells the fan-out has
                        // scanned before price at their learned per-cell
                        // scan cost (merged across shards at rebalance),
                        // uncapped — a measurement needs no guard against
                        // overstating itself.
                        Some(&p) => p,
                        // Never-scanned cells fall back to the demand
                        // density *prior*, capped: schooling collapses a
                        // hot cell's objects into few leader rows, so
                        // update rate overstates scan cost — an uncapped
                        // density would make the balancer dedicate shards
                        // to cheap-to-scan hot cells and cram the real
                        // rows together elsewhere.
                        None => {
                            1.0 + density
                                .get(&cell)
                                .copied()
                                .unwrap_or(0.0)
                                .min(MAX_SCAN_DENSITY)
                        }
                    };
                    cost += frac * price;
                    s = e;
                }
                cost
            };
            // Scan capacity is uniform — any shard reads the shared store
            // equally fast — so the balancer gets unit shares. Placement
            // weights only shape *ownership* (update locality): a shard
            // up-weighted because it was idle on updates may own half the
            // map, and its slice is exactly what this pass subdivides.
            let shares: Vec<(u64, f64)> = placement.iter().map(|w| (w.id, 1.0)).collect();
            let (slices, moved) = balance_slices(slices, &shares, &cost_of);
            rebalanced += moved;
            pending = Vec::new();
            let rect = *rect;
            let dispatch_epoch = snap.epoch;
            let tasks: Vec<_> = slices
                .into_iter()
                .map(|(id, ranges)| {
                    let entry = Arc::clone(snap.entry_by_id(id).expect("sliced to a live owner"));
                    let membership = Arc::clone(&self.membership);
                    move || -> Result<(u64, RegionPartial, RangeSet)> {
                        let (mine, migrated) = if revalidate {
                            // Freshest snapshot; the read guard drops
                            // before the shard lock is taken, so there is
                            // no ordering cycle with add/remove_shard
                            // (which hold the write lock while locking
                            // shards for the handoff). Same epoch — the
                            // common, churn-free case — means the dispatch
                            // slicing (including deliberate balancing
                            // moves) is still current: skip re-hashing.
                            let now = membership.read().clone();
                            if now.epoch == dispatch_epoch {
                                (ranges, Vec::new())
                            } else {
                                // An epoch bump raced the scatter: hand
                                // back everything this worker no longer
                                // owns (balanced-in pieces included — the
                                // gather re-balances them), keep the rest.
                                let mut mine = Vec::new();
                                let mut migrated = Vec::new();
                                // Re-slice with this worker's load pinned
                                // to zero: any piece whose *current*
                                // replica set still contains this shard is
                                // kept (a replica read is as correct as a
                                // primary read — one shared store); only
                                // pieces this shard no longer replicates
                                // hand back. At `replicas == 1` the set is
                                // the owner alone, so this degenerates to
                                // the exact owner re-slicing.
                                for (reader, slice) in slice_ranges_by_replicas(
                                    &ranges,
                                    clustering_level,
                                    leaf_level,
                                    &now.placement(),
                                    &now.splits,
                                    now.replicas,
                                    |id| if id == entry.id { 0.0 } else { 1.0 },
                                ) {
                                    if reader == entry.id {
                                        mine = slice;
                                    } else {
                                        migrated.extend(slice);
                                    }
                                }
                                (mine, migrated)
                            }
                        } else {
                            (ranges, Vec::new())
                        };
                        if mine.is_empty() {
                            return Ok((entry.id, RegionPartial::default(), migrated));
                        }
                        let server = entry.server.read();
                        let part = server.region_partial(&mine, &rect, at)?;
                        Ok((entry.id, part, migrated))
                    }
                })
                .collect();
            let mut round_cost = 0.0f64;
            for outcome in self.query_pool.scatter(tasks) {
                let (id, part, migrated) = outcome?;
                round_cost = round_cost.max(part.stats.cost_us);
                if part.stats.shards_scattered > 0 {
                    scanned_shards.insert(id);
                    parts.push(part);
                }
                pending.extend(migrated);
            }
            // Rounds run sequentially: the client waits for each round's
            // slowest slice in turn.
            cost_us += round_cost;
        }
        let (hits, mut stats) = merge_region_partials(parts);
        stats.cost_us = cost_us;
        stats.shards_scattered = scanned_shards.len();
        stats.slices_rebalanced = rebalanced;
        Ok((hits, stats))
    }

    /// The pre-fan-out region path: the whole query runs on the single
    /// shard owning the rectangle's centre cell. Kept as the baseline the
    /// `fig15_fanout` bench compares scatter-gather against (and the
    /// right call when a deployment pins queries for cache locality).
    pub fn region_anchor(
        &self,
        rect: &Rect,
        at: Timestamp,
        margin: f64,
    ) -> Result<(Vec<Neighbor>, RegionStats)> {
        let center = rect.center();
        let leaf = self.cfg.space.leaf_cell(&center).index;
        let snap = self.snapshot();
        let (entry, follower) = self.read_replica(&snap, snap.route_leaf(leaf, &self.cfg));
        let entry = Arc::clone(entry);
        drop(snap);
        if follower {
            self.note_replica_read(&entry);
        }
        let server = entry.server.read();
        server.region(rect, at, margin)
    }

    /// Current position of one object, routed by object id (any replica
    /// of the id's routing key serves it from the shared store).
    pub fn position(&self, oid: ObjectId, at: Timestamp) -> Result<Option<Point>> {
        let snap = self.snapshot();
        let (entry, follower) = self.read_replica(&snap, oid.0);
        let entry = Arc::clone(entry);
        drop(snap);
        if follower {
            self.note_replica_read(&entry);
        }
        let server = entry.server.read();
        server.position(oid, at)
    }

    /// Runs lazy clustering on one shard by position: only the cells that
    /// shard owns and that are due fire, so across shards each cell is
    /// clustered by exactly one server. Workers call this for "their"
    /// shard on a tick; a worker racing a shard removal gets
    /// [`MoistError::NoSuchShard`], not a panic.
    pub fn run_due_clustering_shard(&self, shard: usize, now: Timestamp) -> Result<ClusterReport> {
        let entry = self.entry_at(shard)?;
        let mut server = entry.server.write();
        server.run_due_clustering(now)
    }

    /// Runs lazy clustering on every shard in turn (single-driver mode).
    pub fn run_due_clustering(&self, now: Timestamp) -> Result<ClusterReport> {
        let snap = self.snapshot();
        let mut total = ClusterReport::default();
        for entry in &snap.shards {
            total.merge_from(&entry.server.write().run_due_clustering(now)?);
        }
        Ok(total)
    }

    /// Ages out cold records. The aging columns are table-global, so this
    /// runs once (through the first live shard), not once per shard.
    pub fn age_data(&self, now: Timestamp) -> Result<usize> {
        let entry = self.entry_at(0)?;
        let mut server = entry.server.write();
        server.age_data(now)
    }

    /// Aggregate operation counters across all shards, including shards
    /// that have since left the tier (so a failover never "loses" the
    /// updates the departed shard absorbed).
    pub fn stats(&self) -> ServerStats {
        let snap = self.snapshot();
        let mut total = self.retired.lock().stats();
        for entry in &snap.shards {
            total.merge_from(&entry.server.read().stats());
        }
        total
    }

    /// Per-shard operation counters for the live shards, in position
    /// order.
    pub fn shard_stats(&self) -> Vec<ServerStats> {
        let snap = self.snapshot();
        snap.shards
            .iter()
            .map(|e| e.server.read().stats())
            .collect()
    }

    /// Per-shard virtual elapsed microseconds for the live shards, in
    /// position order.
    pub fn shard_elapsed_us(&self) -> Vec<f64> {
        let snap = self.snapshot();
        snap.shards
            .iter()
            .map(|e| e.server.read().elapsed_us())
            .collect()
    }

    /// Virtual elapsed microseconds of the busiest live shard — the tier's
    /// makespan, since shards consume store time in parallel.
    pub fn max_elapsed_us(&self) -> f64 {
        self.shard_elapsed_us().into_iter().fold(0.0, f64::max)
    }

    /// Sum of the live shards' virtual elapsed microseconds (total store
    /// work).
    pub fn total_elapsed_us(&self) -> f64 {
        self.shard_elapsed_us().into_iter().sum()
    }

    /// Resets every live shard's session clock (benches do this after
    /// warm-up) along with the rebalance utilization baseline, which is
    /// measured against those clocks.
    pub fn reset_clocks(&self) {
        let snap = self.snapshot();
        for entry in &snap.shards {
            entry.server.write().session_mut().reset();
        }
        self.rebalance_baseline.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moist_spatial::Velocity;

    fn msg(oid: u64, x: f64, y: f64, vx: f64, secs: f64) -> UpdateMessage {
        UpdateMessage {
            oid: ObjectId(oid),
            loc: Point::new(x, y),
            vel: Velocity::new(vx, 0.0),
            ts: Timestamp::from_secs_f64(secs),
        }
    }

    /// Owner positions of every clustering cell: asserts exactly one live
    /// shard owns each cell and returns the owners.
    fn sole_owners(cluster: &MoistCluster) -> Vec<usize> {
        let cells = cells_at_level(cluster.config().clustering_level);
        (0..cells)
            .map(|index| {
                let owners: Vec<usize> = (0..cluster.num_shards())
                    .filter(|&i| {
                        cluster
                            .with_shard(i, |s| s.scheduler().owns(index))
                            .unwrap()
                    })
                    .collect();
                assert_eq!(owners.len(), 1, "cell {index} owners: {owners:?}");
                owners[0]
            })
            .collect()
    }

    #[test]
    fn routes_by_clustering_cell_and_serves_cross_shard_queries() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        // Spread objects over the whole map so several shards see traffic.
        for i in 0..64u64 {
            let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
            let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
            cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
        }
        let stats = cluster.stats();
        assert_eq!(stats.updates, 64);
        assert_eq!(stats.registered, 64);
        assert_eq!(cluster.object_estimate(), 64);
        let active = cluster
            .shard_stats()
            .iter()
            .filter(|s| s.updates > 0)
            .count();
        assert!(active >= 2, "hash routing must spread load, got {active}");
        // A query lands on one shard but sees every shard's writes.
        let (nn, _) = cluster
            .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
            .unwrap();
        assert_eq!(nn.len(), 64);
        // Object-keyed reads work for every object from any routing.
        for i in [0u64, 31, 63] {
            assert!(cluster
                .position(ObjectId(i), Timestamp::ZERO)
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn same_cell_updates_always_hit_the_same_shard() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let cluster = MoistCluster::new(&store, cfg, 5).unwrap();
        // Points in one clustering cell route identically; the routing
        // agrees with scheduler ownership, so the shard applying a cell's
        // updates is also the only one clustering it.
        let p = Point::new(123.0, 456.0);
        let shard = cluster.shard_for_point(&p);
        let cell = cfg.space.cell_at(cfg.clustering_level, &p);
        assert_eq!(cluster.shard_for_cell(cell), shard);
        let leaf = cfg.space.leaf_cell(&p);
        assert_eq!(cluster.shard_for_cell(leaf), shard);
        assert!(cluster
            .with_shard(shard, |s| s.scheduler().owns(cell.index))
            .unwrap());
        for other in 0..cluster.num_shards() {
            if other != shard {
                assert!(!cluster
                    .with_shard(other, |s| s.scheduler().owns(cell.index))
                    .unwrap());
            }
        }
    }

    #[test]
    fn clustering_partition_covers_level_exactly_once() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        let owned: usize = (0..cluster.num_shards())
            .map(|i| {
                cluster
                    .with_shard(i, |s| s.scheduler().owned_count())
                    .unwrap()
            })
            .sum();
        assert_eq!(owned as u64, cells_at_level(cfg.clustering_level));
        // One sweep past every staggered deadline: each cell fires once,
        // on its owner, so total runs equal the cell count exactly.
        let now = Timestamp::from_secs(25);
        for i in 0..cluster.num_shards() {
            cluster.run_due_clustering_shard(i, now).unwrap();
        }
        assert_eq!(
            cluster.stats().cluster_runs,
            cells_at_level(cfg.clustering_level)
        );
    }

    #[test]
    fn schools_form_and_shed_through_the_tier() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 2,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 3).unwrap();
        // Two co-moving objects in one cell.
        cluster.update(&msg(1, 100.0, 100.0, 1.0, 0.0)).unwrap();
        cluster.update(&msg(2, 101.0, 100.0, 1.0, 0.0)).unwrap();
        cluster
            .run_due_clustering(Timestamp::from_secs(30))
            .unwrap();
        for t in 1..=10u64 {
            let x = 101.0 + t as f64;
            cluster.update(&msg(2, x, 100.0, 1.0, t as f64)).unwrap();
        }
        let stats = cluster.stats();
        assert!(stats.shed >= 9, "stats: {stats:?}");
        assert!(stats.balanced(), "counters must sum: {stats:?}");
    }

    #[test]
    fn add_shard_migrates_only_the_joiners_wins_and_keeps_phase() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 4, // 256 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 3).unwrap();
        assert_eq!(cluster.epoch(), 0);
        let cells = cells_at_level(cfg.clustering_level);
        // Record each cell's owner *id* and deadline before the join.
        let owners_before = sole_owners(&cluster);
        let before: Vec<(u64, u64)> = (0..cells)
            .map(|index| {
                let pos = owners_before[index as usize];
                let id = cluster.shard_ids()[pos];
                let due = cluster
                    .with_shard(pos, |s| s.scheduler().deadline_of(index))
                    .unwrap()
                    .unwrap();
                (id, due)
            })
            .collect();

        let joiner = cluster.add_shard().unwrap();
        assert_eq!(cluster.num_shards(), 4);
        assert_eq!(cluster.epoch(), 1);
        assert!(cluster.shard_ids().contains(&joiner));

        let owners_after = sole_owners(&cluster);
        let mut migrated = 0u64;
        for index in 0..cells {
            let pos = owners_after[index as usize];
            let id_after = cluster.shard_ids()[pos];
            let due_after = cluster
                .with_shard(pos, |s| s.scheduler().deadline_of(index))
                .unwrap()
                .unwrap();
            let (id_before, due_before) = before[index as usize];
            assert_eq!(due_after, due_before, "cell {index} must keep its phase");
            if id_after != id_before {
                migrated += 1;
                assert_eq!(id_after, joiner, "only the joiner may steal cells");
            }
        }
        // ~cells/(N+1) migrate; generous statistical slack, but far below
        // the near-total remap a modular hash would cause.
        assert!(migrated > 0, "the joiner must win some cells");
        assert!(
            migrated <= cells / 4 + cells / 8,
            "migrated {migrated} of {cells} — not a minimal remap"
        );
    }

    #[test]
    fn remove_shard_reassigns_only_the_departed_cells() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        for i in 0..64u64 {
            let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
            let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
            cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
        }
        let cells = cells_at_level(cfg.clustering_level);
        let owners_before: Vec<u64> = {
            let owners = sole_owners(&cluster);
            owners.iter().map(|&pos| cluster.shard_ids()[pos]).collect()
        };
        let victim = cluster.shard_ids()[1];
        let victim_updates = cluster.shard_stats()[1].updates;
        cluster.remove_shard(victim).unwrap();
        assert_eq!(cluster.num_shards(), 3);
        assert_eq!(cluster.epoch(), 1);
        assert!(!cluster.shard_ids().contains(&victim));

        let owners_after = sole_owners(&cluster);
        for index in 0..cells {
            let id_after = cluster.shard_ids()[owners_after[index as usize]];
            let id_before = owners_before[index as usize];
            if id_before != victim {
                assert_eq!(id_after, id_before, "cell {index} must not move");
            } else {
                assert_ne!(id_after, victim);
            }
        }
        // The departed shard's updates stay in the aggregate…
        let agg = cluster.stats();
        assert_eq!(agg.updates, 64);
        assert!(victim_updates > 0, "victim should have taken traffic");
        // …and the whole map still answers queries.
        let (nn, _) = cluster
            .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
            .unwrap();
        assert_eq!(nn.len(), 64);
    }

    /// Deterministic xorshift scatter in (0, 1000)².
    fn scattered(n: u64) -> Vec<(u64, f64, f64)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| (i, next() * 1000.0, next() * 1000.0))
            .collect()
    }

    #[test]
    fn scattered_region_matches_anchor_routing_and_fans_out() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells spread over the shards
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        for &(i, x, y) in &scattered(200) {
            cluster.update(&msg(i, x, y, 0.0, 0.0)).unwrap();
        }
        let rects = [
            cfg.space.world,
            Rect::new(100.0, 100.0, 900.0, 450.0),
            Rect::new(700.0, 700.0, 780.0, 790.0),
        ];
        for rect in &rects {
            let (anchor, _) = cluster.region_anchor(rect, Timestamp::ZERO, 0.0).unwrap();
            let (fanout, stats) = cluster.region(rect, Timestamp::ZERO, 0.0).unwrap();
            let a: Vec<u64> = anchor.iter().map(|n| n.oid.0).collect();
            let f: Vec<u64> = fanout.iter().map(|n| n.oid.0).collect();
            assert_eq!(a, f, "fan-out must return the anchor answer");
            let mut unique = f.clone();
            unique.dedup();
            assert_eq!(unique.len(), f.len(), "no duplicated objects");
            assert!(stats.ranges_scanned >= 1);
        }
        // The whole map genuinely scatters across several shards, and its
        // client-visible cost is the slowest slice, below the serialized
        // anchor scan.
        let (_, anchor_stats) = cluster
            .region_anchor(&cfg.space.world, Timestamp::ZERO, 0.0)
            .unwrap();
        let (_, fan_stats) = cluster
            .region(&cfg.space.world, Timestamp::ZERO, 0.0)
            .unwrap();
        assert!(
            fan_stats.shards_scattered >= 2,
            "whole-map query must scatter, got {fan_stats:?}"
        );
        assert!(
            fan_stats.cost_us < anchor_stats.cost_us,
            "overlapped slices must beat the serialized scan: {} vs {}",
            fan_stats.cost_us,
            anchor_stats.cost_us
        );
    }

    #[test]
    fn scattered_nn_agrees_with_the_single_shard_frontier_search() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 3,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 5).unwrap();
        for &(i, x, y) in &scattered(300) {
            cluster.update(&msg(i, x, y, 0.0, 0.0)).unwrap();
        }
        // Form schools: zero-velocity co-located leaders merge, so many
        // probes now return followers displaced up to a clustering-cell
        // diagonal from their leader's spatial entry — exactly the shape
        // that would diverge if the merge trusted cell distances instead
        // of replaying the frontier.
        cluster
            .run_due_clustering(Timestamp::from_secs(25))
            .unwrap();
        let queries_before = cluster.stats().nn_queries;
        let oracle = MoistServer::new(&store, cfg).unwrap();
        // Probe points include cell-boundary huggers (the scatter case)
        // and interior points (the single-shard case).
        let probes = [
            Point::new(500.0, 500.0),
            Point::new(499.9, 250.1),
            Point::new(125.3, 875.2),
            Point::new(3.0, 3.0),
            Point::new(750.1, 749.9),
        ];
        let mut total = 0u64;
        for p in &probes {
            for k in [1usize, 5, 20] {
                let (got, _) = cluster.nn(*p, k, Timestamp::ZERO).unwrap();
                let level = oracle.flag_level(p, Timestamp::ZERO).unwrap();
                let (want, _) = oracle.nn_at_level(*p, k, Timestamp::ZERO, level).unwrap();
                let got_ids: Vec<u64> = got.iter().map(|n| n.oid.0).collect();
                let want_ids: Vec<u64> = want.iter().map(|n| n.oid.0).collect();
                assert_eq!(got_ids, want_ids, "probe {p:?} k={k}");
                total += 1;
            }
        }
        // Every client query counts exactly once, whichever path (pure
        // scatter, scatter + fallback, or single-shard) served it.
        assert_eq!(cluster.stats().nn_queries - queries_before, total);
    }

    /// Asserts the live shards' schedulers own every routing key (unsplit
    /// cells + children of split cells) exactly once, and that each key's
    /// owner agrees with the tier's routing.
    fn assert_routing_partition(cluster: &MoistCluster) {
        let cfg = *cluster.config();
        let split: std::collections::HashSet<u64> = cluster.split_cells().into_iter().collect();
        let mut keys = Vec::new();
        for cell in 0..cells_at_level(cfg.clustering_level) {
            if split.contains(&cell) {
                keys.extend(SplitTable::child_keys(cell));
            } else {
                keys.push(cell);
            }
        }
        for key in keys {
            let owners: Vec<usize> = (0..cluster.num_shards())
                .filter(|&i| cluster.with_shard(i, |s| s.scheduler().owns(key)).unwrap())
                .collect();
            assert_eq!(owners.len(), 1, "key {key:#x} owners: {owners:?}");
            let cell = crate::cluster::routing_key_cell(key, cfg.clustering_level);
            assert_eq!(
                cluster.shard_for_cell(cell),
                owners[0],
                "routing and scheduling disagree on key {key:#x}"
            );
        }
    }

    #[test]
    fn rebalance_splits_hot_cells_and_downweights_hot_shards() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        let hot = Point::new(437.0, 437.0);
        let hot_cell = cfg.space.cell_at(cfg.clustering_level, &hot).index;
        let hot_shard_before = cluster.shard_for_point(&hot);
        // 80% of updates hammer one cell, the rest scatter; timestamps
        // advance so the EWMA windows fold.
        let mut oid = 0u64;
        for sec in 0..40u64 {
            for i in 0..25u64 {
                let (x, y) = if i < 20 {
                    (hot.x + (i % 5) as f64, hot.y + (i / 5) as f64)
                } else {
                    (
                        31.0 + 211.0 * (oid % 4) as f64,
                        31.0 + 311.0 * (oid % 3) as f64,
                    )
                };
                cluster
                    .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                    .unwrap();
                oid += 1;
            }
        }
        let before_skew = cluster
            .cluster_stats(Timestamp::from_secs(40))
            .utilization_skew();
        let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
        assert_eq!(report.epoch, 1, "a skewed fleet must publish a new epoch");
        assert!(
            report.split_cells.contains(&hot_cell),
            "the hot cell {hot_cell} must split: {report:?}"
        );
        assert!(report.migrated_keys > 0);
        assert!(cluster.split_cells().contains(&hot_cell));
        // The hot shard measured busiest: its weight must have dropped
        // below the fleet mean (weights are normalized to mean 1).
        let weights = cluster.shard_weights();
        assert!(
            weights[hot_shard_before] < 1.0,
            "hot shard kept weight {weights:?}"
        );
        // Ownership is still an exact partition of the routing keys, and
        // the stats layer exposes what moved.
        assert_routing_partition(&cluster);
        let stats = cluster.cluster_stats(Timestamp::from_secs(40));
        assert_eq!(stats.split_cells, cluster.split_cells());
        assert_eq!(stats.split_migrations, report.migrated_keys);
        assert!(stats.shards.iter().any(|s| s.update_rate > 0.0));
        let _ = before_skew; // skew improvement is pinned by fig16_skew
                             // The tier still answers exactly: every object is found where a
                             // fresh single-server oracle finds it.
        let oracle = MoistServer::new(&store, cfg).unwrap();
        for probe in [hot, Point::new(100.0, 500.0), Point::new(900.0, 80.0)] {
            let (got, _) = cluster.nn(probe, 5, Timestamp::from_secs(40)).unwrap();
            let level = oracle.flag_level(&probe, Timestamp::from_secs(40)).unwrap();
            let (want, _) = oracle
                .nn_at_level(probe, 5, Timestamp::from_secs(40), level)
                .unwrap();
            let got_ids: Vec<u64> = got.iter().map(|n| n.oid.0).collect();
            let want_ids: Vec<u64> = want.iter().map(|n| n.oid.0).collect();
            assert_eq!(got_ids, want_ids, "probe {probe:?}");
        }
        // Updates keep landing after the rebalance, on the new owners.
        let agg_before = cluster.stats().updates;
        cluster
            .update(&msg(9_999, hot.x, hot.y, 0.0, 41.0))
            .unwrap();
        assert_eq!(cluster.stats().updates, agg_before + 1);
        // A follow-up rebalance on the (now quieter) fleet must keep the
        // partition exact even if it moves more keys.
        cluster.rebalance(Timestamp::from_secs(80)).unwrap();
        assert_routing_partition(&cluster);
    }

    #[test]
    fn rebalance_is_a_noop_on_a_level_fleet() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        // Perfectly uniform traffic over the whole map.
        for sec in 0..30u64 {
            for i in 0..64u64 {
                let x = 8.0 + 984.0 * (i % 8) as f64 / 8.0;
                let y = 8.0 + 984.0 * (i / 8) as f64 / 8.0;
                cluster
                    .update(&msg(i, x, y, 0.0, sec as f64 + i as f64 / 64.0))
                    .unwrap();
            }
        }
        let report = cluster.rebalance(Timestamp::from_secs(30)).unwrap();
        assert!(
            report.split_cells.is_empty(),
            "uniform load must not split: {report:?}"
        );
        assert!(cluster.split_cells().is_empty());
        assert_routing_partition(&cluster);
        // Epoch may bump only if utilization genuinely wobbled past the
        // dead-band; either way no key may be double-owned and weights
        // stay within the clamp.
        for w in cluster.shard_weights() {
            assert!((0.1..=8.0).contains(&w), "weight {w} out of bounds");
        }
    }

    /// Pins that a failing post-publish ingest drain surfaces through
    /// `rebalance` instead of being swallowed: a poisoned buffered update
    /// must turn the placement step into an error the caller sees.
    #[test]
    fn rebalance_propagates_a_failing_ingest_drain() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        // Skew the fleet hard enough that rebalance publishes a new epoch
        // (same workload shape the hot-cell test pins).
        let hot = Point::new(437.0, 437.0);
        let mut oid = 0u64;
        for sec in 0..40u64 {
            for i in 0..25u64 {
                let (x, y) = if i < 20 {
                    (hot.x + (i % 5) as f64, hot.y + (i / 5) as f64)
                } else {
                    (
                        31.0 + 211.0 * (oid % 4) as f64,
                        31.0 + 311.0 * (oid % 3) as f64,
                    )
                };
                cluster
                    .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                    .unwrap();
                oid += 1;
            }
        }
        // Poison the ingest queue behind `submit`'s validation (a real
        // deployment can always buffer a message that later fails to
        // apply — e.g. a store error): the drain inside rebalance must
        // hit it and propagate.
        let bad = UpdateMessage {
            oid: ObjectId(77),
            loc: Point::new(f64::NAN, 1.0),
            vel: Velocity::new(0.0, 0.0),
            ts: Timestamp::from_secs(40),
        };
        match cluster.ingest.enqueue(&cluster.ingest_cfg, 0, &bad) {
            EnqueueResult::Queued { .. } => {}
            other => panic!("poisoned message must buffer, got {other:?}"),
        }
        let err = cluster
            .rebalance(Timestamp::from_secs(40))
            .expect_err("a failing drain must fail the rebalance");
        assert!(
            matches!(err, MoistError::InvalidInput(_)),
            "wrong error: {err:?}"
        );
        // The failure is in the drain, not the placement: the routing
        // partition stays exact and the tier keeps serving.
        assert_routing_partition(&cluster);
        cluster
            .update(&msg(9_999, hot.x, hot.y, 0.0, 41.0))
            .unwrap();
    }

    #[test]
    fn split_cell_updates_route_to_child_owners_and_cluster_once() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 2, // 16 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        let hot = Point::new(300.0, 300.0);
        let hot_cell = cfg.space.cell_at(cfg.clustering_level, &hot).index;
        for sec in 0..40u64 {
            for i in 0..10u64 {
                cluster
                    .update(&msg(
                        i,
                        hot.x + (i % 3) as f64 * 80.0,
                        hot.y + (i / 3) as f64 * 60.0,
                        0.0,
                        sec as f64 + i as f64 / 10.0,
                    ))
                    .unwrap();
            }
        }
        let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
        assert!(
            report.split_cells.contains(&hot_cell),
            "the only loaded cell must split: {report:?}"
        );
        assert_routing_partition(&cluster);
        // A sweep past every deadline clusters each routing key exactly
        // once: unsplit cells as whole cells, the split cell as its four
        // finer children, each on its own owner.
        let key_count = cells_at_level(cfg.clustering_level) - 1 + 4;
        let runs_before = cluster.stats().cluster_runs;
        let sweep_at = Timestamp::from_secs(40 + 2 * cfg.cluster_interval_secs as u64);
        for shard in 0..cluster.num_shards() {
            cluster.run_due_clustering_shard(shard, sweep_at).unwrap();
        }
        assert_eq!(cluster.stats().cluster_runs - runs_before, key_count);
    }

    #[test]
    fn shard_errors_are_typed_not_panics() {
        let store = Bigtable::new();
        let cluster = MoistCluster::new(&store, MoistConfig::default(), 2).unwrap();
        // Position past the membership.
        let err = cluster.with_shard(7, |_| ()).unwrap_err();
        assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
        let err = cluster
            .run_due_clustering_shard(7, Timestamp::ZERO)
            .unwrap_err();
        assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
        // Unknown id.
        let err = cluster.remove_shard(999).unwrap_err();
        assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
        // Removing the last shard.
        let ids = cluster.shard_ids();
        cluster.remove_shard(ids[0]).unwrap();
        let err = cluster.remove_shard(ids[1]).unwrap_err();
        assert!(matches!(err, MoistError::NoSuchShard(_)), "got {err:?}");
        assert_eq!(cluster.num_shards(), 1);
    }

    #[test]
    fn replicated_reads_serve_from_followers_and_stay_correct() {
        let store = Bigtable::new();
        let cfg = MoistConfig::default();
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap().with_replicas(2);
        assert_eq!(cluster.replicas(), 2);
        for i in 0..64u64 {
            let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
            let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
            cluster.update(&msg(i, x, y, 1.0, 0.0)).unwrap();
        }
        // Reads stay exactly correct whichever replica serves them.
        let (nn, _) = cluster
            .nn(Point::new(500.0, 500.0), 64, Timestamp::ZERO)
            .unwrap();
        assert_eq!(nn.len(), 64);
        let mut seen: Vec<u64> = nn.iter().map(|n| n.oid.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 64, "replica routing must not duplicate");
        for i in [0u64, 31, 63] {
            assert!(cluster
                .position(ObjectId(i), Timestamp::ZERO)
                .unwrap()
                .is_some());
        }
        // The primaries carry the whole update load, so their clocks lead
        // their followers' — repeated point reads must route some serves
        // to the less-loaded followers and count them.
        for round in 0..8u64 {
            for i in 0..8u64 {
                let p = Point::new(60.0 + 120.0 * i as f64, 500.0);
                cluster.nn(p, 3, Timestamp::from_secs(round)).unwrap();
            }
        }
        let cstats = cluster.cluster_stats(Timestamp::ZERO);
        assert_eq!(cstats.replicas, 2);
        assert!(
            cstats.replica_reads > 0,
            "followers must serve reads: {cstats:?}"
        );
        // k=2 accounting: every routing key has exactly one primary and
        // one follower across the fleet.
        let keys: usize = cstats.shards.iter().map(|s| s.primary_keys).sum();
        let follows: usize = cstats.shards.iter().map(|s| s.follower_keys).sum();
        assert_eq!(keys as u64, cells_at_level(cfg.clustering_level));
        assert_eq!(follows, keys);
        let counted: u64 = cstats.shards.iter().map(|s| s.replica_reads).sum();
        assert_eq!(counted, cstats.replica_reads);
    }

    #[test]
    fn remove_shard_promotes_the_next_ranked_replica_for_every_key() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap().with_replicas(2);
        let cells = cells_at_level(cfg.clustering_level);
        let before: Vec<Vec<u64>> = {
            let snap = cluster.snapshot();
            (0..cells)
                .map(|key| snap.owners_of(key).iter().map(|e| e.id).collect())
                .collect()
        };
        let victim = cluster.shard_ids()[1];
        cluster.remove_shard(victim).unwrap();

        // Prefix stability in action: a key led by the victim is adopted
        // by its old rank-1 follower — never by a stranger — and every
        // other key keeps its primary.
        let snap = cluster.snapshot();
        let mut expected_promotions = 0u64;
        for (key, owners) in before.iter().enumerate() {
            let new_primary = snap.owners_of(key as u64)[0].id;
            if owners[0] == victim {
                expected_promotions += 1;
                assert_eq!(
                    new_primary, owners[1],
                    "key {key}: the rank-1 follower must step up"
                );
            } else {
                assert_eq!(
                    new_primary, owners[0],
                    "key {key}: primary moved without cause"
                );
            }
        }
        drop(snap);
        assert!(
            expected_promotions > 0,
            "the victim must have led some keys"
        );
        let cstats = cluster.cluster_stats(Timestamp::ZERO);
        assert_eq!(cstats.promotions, expected_promotions);
        // The scheduler partition (primaries only) is still exact.
        sole_owners(&cluster);
    }

    #[test]
    fn pipelined_submissions_match_the_synchronous_tier_and_cost_less() {
        let store_sync = Bigtable::new();
        let store_pipe = Bigtable::new();
        let cfg = MoistConfig::default();
        let sync = MoistCluster::new(&store_sync, cfg, 4).unwrap();
        let pipe = MoistCluster::new(&store_pipe, cfg, 4)
            .unwrap()
            .with_ingest(IngestConfig {
                batch_size: 16,
                ..IngestConfig::default()
            });
        // Two reporting rounds over a spread map: the second round is
        // refreshes (leaders + sheddable followers), where batching pays.
        let mut msgs = Vec::new();
        for round in 0..2u64 {
            for i in 0..64u64 {
                let x = 15.0 + 970.0 * (i % 8) as f64 / 8.0;
                let y = 15.0 + 970.0 * (i / 8) as f64 / 8.0;
                msgs.push(msg(i, x + round as f64, y, 1.0, 10.0 * round as f64));
            }
        }
        for m in &msgs {
            sync.update(m).unwrap();
            pipe.submit(m).unwrap();
        }
        pipe.drain_ingest().unwrap();

        let (a, b) = (sync.stats(), pipe.stats());
        assert_eq!(a.updates, b.updates);
        assert_eq!(a.registered, b.registered);
        assert_eq!(a.shed, b.shed);
        // Same routing: per-shard update counts agree exactly.
        let per_shard =
            |c: &MoistCluster| -> Vec<u64> { c.shard_stats().iter().map(|s| s.updates).collect() };
        assert_eq!(per_shard(&sync), per_shard(&pipe));
        // Amortization is real: the pipelined tier consumed less virtual
        // store time for the same stream.
        assert!(
            pipe.total_elapsed_us() < sync.total_elapsed_us(),
            "batched {} µs vs sync {} µs",
            pipe.total_elapsed_us(),
            sync.total_elapsed_us()
        );
        let is = pipe.ingest_stats();
        assert_eq!(is.submitted, msgs.len() as u64);
        assert_eq!(is.enqueued, msgs.len() as u64);
        assert_eq!(is.flushed_updates, msgs.len() as u64);
        assert_eq!(is.queued, 0, "drain left nothing behind");
        assert!(is.size_flushes >= 1, "16-deep queues must size-flush");
        assert!(is.max_batch >= 2);
        assert_eq!(is.backpressure + is.overload_shed, 0);
        let cstats = pipe.cluster_stats(Timestamp::from_secs(20));
        assert_eq!(cstats.ingest, is);
        assert_eq!(cstats.shed_or_backpressure(), cstats.ops.shed);
        assert!(cstats.shards.iter().all(|s| s.queue_depth == 0));
    }

    #[test]
    fn deadline_flush_applies_a_stranded_trickle() {
        let store = Bigtable::new();
        let cluster = MoistCluster::new(&store, MoistConfig::default(), 2)
            .unwrap()
            .with_ingest(IngestConfig {
                batch_size: 1000,
                flush_deadline_secs: 5.0,
                ..IngestConfig::default()
            });
        for i in 0..3u64 {
            let out = cluster.submit(&msg(i, 100.0, 100.0, 1.0, 0.0)).unwrap();
            assert!(matches!(out, SubmitOutcome::Enqueued { .. }));
        }
        // Before the oldest message ages past the deadline: nothing due.
        assert_eq!(cluster.flush_due(Timestamp::from_secs(3)).unwrap(), 0);
        assert_eq!(cluster.stats().updates, 0);
        // Past it: the whole trickle applies as one batch.
        assert_eq!(cluster.flush_due(Timestamp::from_secs(5)).unwrap(), 3);
        assert_eq!(cluster.stats().updates, 3);
        let is = cluster.ingest_stats();
        assert_eq!(is.deadline_flushes, 1);
        assert_eq!(is.queued, 0);
        // Queue wait was accounted in virtual time: 5s + 5s + 5s.
        assert_eq!(is.queue_wait_us, 15_000_000);
    }

    /// Runs the backpressure dance under `policy`: one thread pins the
    /// target shard's lock, another submits a full batch that blocks
    /// applying against it, and the main thread keeps submitting until
    /// the outstanding cap trips. Returns what the tripping submission
    /// got.
    fn provoke_full_queue(policy: BackpressurePolicy) -> (MoistCluster, Result<SubmitOutcome>) {
        let store = Bigtable::new();
        let cluster = MoistCluster::new(&store, MoistConfig::default(), 2)
            .unwrap()
            .with_ingest(IngestConfig {
                batch_size: 4,
                queue_cap: 5,
                policy,
                ..IngestConfig::default()
            });
        let p = Point::new(100.0, 100.0);
        let shard_pos = cluster.shard_for_point(&p);
        let pinned = std::sync::atomic::AtomicBool::new(false);
        let release = std::sync::atomic::AtomicBool::new(false);
        let tripped = std::thread::scope(|scope| {
            // Pin the owner's lock so the size-flush below cannot finish.
            let pin = scope.spawn(|| {
                cluster
                    .with_shard(shard_pos, |_| {
                        pinned.store(true, Ordering::Release);
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    })
                    .unwrap();
            });
            // 4th submission fills the batch and blocks applying it
            // (submitting only after the pin visibly holds the lock).
            let flusher = scope.spawn(|| {
                while !pinned.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                for i in 0..4u64 {
                    cluster.submit(&msg(i, 100.0, 100.0, 1.0, 0.0)).unwrap();
                }
            });
            // Wait until the blocked batch's slots are visibly held.
            while cluster.ingest_stats().queued < 4 {
                std::thread::yield_now();
            }
            // 5th fits the cap (5), 6th trips it.
            let under = cluster.submit(&msg(10, 100.0, 100.0, 1.0, 0.0)).unwrap();
            assert!(matches!(under, SubmitOutcome::Enqueued { depth: 5, .. }));
            let tripped = cluster.submit(&msg(11, 100.0, 100.0, 1.0, 0.0));
            release.store(true, Ordering::Release);
            pin.join().unwrap();
            flusher.join().unwrap();
            tripped
        });
        cluster.drain_ingest().unwrap();
        (cluster, tripped)
    }

    #[test]
    fn full_queue_rejects_with_typed_backpressure() {
        let (cluster, tripped) = provoke_full_queue(BackpressurePolicy::Reject);
        match tripped {
            Err(MoistError::Backpressure { shard, depth }) => {
                assert_eq!(depth, 5);
                assert!(cluster.shard_ids().contains(&shard));
            }
            other => panic!("expected typed backpressure, got {other:?}"),
        }
        let is = cluster.ingest_stats();
        assert_eq!(is.backpressure, 1);
        assert_eq!(is.overload_shed, 0);
        // The rejected message was never accepted; everything accepted
        // (4 batched + 1 straggler) applied.
        assert_eq!(cluster.stats().updates, 5);
        assert_eq!(is.queued, 0);
        assert_eq!(
            cluster
                .cluster_stats(Timestamp::ZERO)
                .shed_or_backpressure(),
            1
        );
    }

    #[test]
    fn full_queue_sheds_under_the_shed_policy() {
        let (cluster, tripped) = provoke_full_queue(BackpressurePolicy::Shed);
        match tripped {
            Ok(SubmitOutcome::ShedOverload { shard }) => {
                assert!(cluster.shard_ids().contains(&shard));
            }
            other => panic!("expected an overload shed, got {other:?}"),
        }
        let is = cluster.ingest_stats();
        assert_eq!(is.overload_shed, 1);
        assert_eq!(is.backpressure, 0);
        assert_eq!(cluster.stats().updates, 5);
    }

    #[test]
    fn epoch_bumps_drain_buffered_batches_to_the_new_owners() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 3)
            .unwrap()
            .with_ingest(IngestConfig {
                batch_size: 1000, // nothing size-flushes: all drain-driven
                ..IngestConfig::default()
            });
        // Buffer a spread of registrations, none applied yet.
        for i in 0..32u64 {
            let x = 20.0 + 960.0 * (i % 8) as f64 / 8.0;
            let y = 20.0 + 960.0 * (i / 8) as f64 / 8.0;
            cluster.submit(&msg(i, x, y, 1.0, 0.0)).unwrap();
        }
        assert_eq!(cluster.stats().updates, 0);
        assert_eq!(cluster.ingest_stats().queued, 32);
        // A join drains them — under the *new* epoch's ownership.
        let joiner = cluster.add_shard().unwrap();
        assert_eq!(cluster.stats().updates, 32);
        assert_eq!(cluster.ingest_stats().queued, 0);
        assert!(cluster.ingest_stats().drain_flushes >= 1);
        sole_owners(&cluster);
        // Buffer more, then kill a shard: its buffered messages re-route
        // to the survivors instead of being lost.
        for i in 32..48u64 {
            let x = 20.0 + 960.0 * (i % 8) as f64 / 8.0;
            let y = 20.0 + 960.0 * ((i / 8) % 8) as f64 / 8.0;
            cluster.submit(&msg(i, x, y, 1.0, 1.0)).unwrap();
        }
        cluster.remove_shard(joiner).unwrap();
        assert_eq!(cluster.stats().updates, 48, "zero buffered updates lost");
        assert_eq!(cluster.ingest_stats().queued, 0);
        sole_owners(&cluster);
        // Every buffered object is really in the store.
        for i in [0u64, 31, 32, 47] {
            assert!(cluster
                .position(ObjectId(i), Timestamp::from_secs(2))
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn cluster_update_batch_groups_by_owner_and_keeps_order() {
        let store = Bigtable::new();
        let cluster = MoistCluster::new(&store, MoistConfig::default(), 4).unwrap();
        let mut msgs = Vec::new();
        for i in 0..24u64 {
            let x = 15.0 + 970.0 * (i % 6) as f64 / 6.0;
            let y = 15.0 + 970.0 * (i / 6) as f64 / 6.0;
            msgs.push(msg(i, x, y, 1.0, 0.0));
        }
        let outcomes = cluster.update_batch(&msgs).unwrap();
        assert_eq!(outcomes.len(), msgs.len());
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, UpdateOutcome::Registered)));
        assert_eq!(cluster.stats().updates, 24);
        // Routed like the synchronous path: only owners saw their cells.
        for (i, m) in msgs.iter().enumerate() {
            let pos = cluster.shard_for_point(&m.loc);
            let upd = cluster.with_shard(pos, |s| s.stats().updates).unwrap();
            assert!(upd > 0, "message {i} must have landed on shard {pos}");
        }
    }

    #[test]
    fn builder_and_legacy_constructors_build_identical_tiers() {
        let cfg = MoistConfig::default();
        let cells = cells_at_level(cfg.clustering_level);

        // `new(n)` vs `builder().shards(n).build()`: same fleet, same
        // routing table, same defaults everywhere.
        let legacy = MoistCluster::new(&Bigtable::new(), cfg, 6).unwrap();
        let built = MoistCluster::builder(&Bigtable::new(), cfg)
            .shards(6)
            .build()
            .unwrap();
        assert_eq!(legacy.num_shards(), built.num_shards());
        assert_eq!(legacy.shard_ids(), built.shard_ids());
        assert_eq!(legacy.epoch(), built.epoch());
        assert_eq!(legacy.shard_weights(), built.shard_weights());
        assert_eq!(legacy.replicas(), built.replicas());
        assert_eq!(legacy.ingest_config(), built.ingest_config());
        assert!(legacy.split_cells().is_empty() && built.split_cells().is_empty());
        assert!(built.controller_config().is_none());
        for index in 0..cells {
            let cell = CellId {
                level: cfg.clustering_level,
                index,
            };
            assert_eq!(
                legacy.shard_for_cell(cell),
                built.shard_for_cell(cell),
                "routing diverged on cell {index}"
            );
        }

        // `with_replicas` / `with_ingest` combinators vs builder knobs.
        let icfg = IngestConfig {
            batch_size: 16,
            queue_cap: 128,
            flush_deadline_secs: 0.25,
            policy: BackpressurePolicy::Shed,
        };
        let legacy = MoistCluster::new(&Bigtable::new(), cfg, 5)
            .unwrap()
            .with_replicas(2)
            .with_ingest(icfg);
        let built = MoistCluster::builder(&Bigtable::new(), cfg)
            .shards(5)
            .replicas(2)
            .ingest(icfg)
            .build()
            .unwrap();
        assert_eq!(legacy.replicas(), built.replicas());
        assert_eq!(legacy.ingest_config(), built.ingest_config());
        assert_eq!(legacy.epoch(), built.epoch());
        for index in 0..cells {
            let cell = CellId {
                level: cfg.clustering_level,
                index,
            };
            assert_eq!(legacy.shard_for_cell(cell), built.shard_for_cell(cell));
        }
        // A controller attached through the builder reports its
        // (normalized) config back.
        let ccfg = ControllerConfig {
            min_shards: 2,
            max_shards: 8,
            ..ControllerConfig::default()
        };
        let with_ctl = MoistCluster::builder(&Bigtable::new(), cfg)
            .shards(2)
            .controller(ccfg)
            .build()
            .unwrap();
        assert_eq!(with_ctl.controller_config(), Some(ccfg.normalized()));
    }

    #[test]
    fn rebalance_unsplits_cells_whose_demand_faded() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            epsilon: 50.0,
            clustering_level: 3, // 64 cells
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        let hot_a = Point::new(437.0, 437.0);
        let a_cell = cfg.space.cell_at(cfg.clustering_level, &hot_a).index;
        let hot_b = Point::new(100.0, 900.0);
        let b_cell = cfg.space.cell_at(cfg.clustering_level, &hot_b).index;
        assert_ne!(a_cell, b_cell);
        // Phase one: hammer cell A, 80/20 like the split test above.
        let mut oid = 0u64;
        for sec in 0..40u64 {
            for i in 0..25u64 {
                let (x, y) = if i < 20 {
                    (hot_a.x + (i % 5) as f64, hot_a.y + (i / 5) as f64)
                } else {
                    (
                        31.0 + 211.0 * (oid % 4) as f64,
                        31.0 + 311.0 * (oid % 3) as f64,
                    )
                };
                cluster
                    .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                    .unwrap();
                oid += 1;
            }
        }
        let report = cluster.rebalance(Timestamp::from_secs(40)).unwrap();
        assert!(report.split_cells.contains(&a_cell));
        assert!(report.unsplit_cells.is_empty());
        // Phase two: the hot spot moves to cell B; A goes silent and its
        // EWMA rate decays far below the (B-driven) mean.
        for sec in 40..80u64 {
            for i in 0..25u64 {
                let (x, y) = if i < 20 {
                    (hot_b.x + (i % 5) as f64, hot_b.y + (i / 5) as f64)
                } else {
                    (
                        531.0 + 111.0 * (oid % 4) as f64,
                        31.0 + 211.0 * (oid % 3) as f64,
                    )
                };
                cluster
                    .update(&msg(oid % 600, x, y, 0.0, sec as f64 + i as f64 / 25.0))
                    .unwrap();
                oid += 1;
            }
        }
        let report = cluster.rebalance(Timestamp::from_secs(80)).unwrap();
        assert!(
            report.unsplit_cells.contains(&a_cell),
            "faded cell {a_cell} must un-split: {report:?}"
        );
        assert!(
            report.split_cells.contains(&b_cell),
            "the new hot cell {b_cell} must split: {report:?}"
        );
        let split = cluster.split_cells();
        assert!(!split.contains(&a_cell), "split table still holds {a_cell}");
        assert!(split.contains(&b_cell));
        // The handover through the (split → plain) transition kept the
        // routing-key partition exact, and updates keep landing — both to
        // the reunited cell and the freshly split one.
        assert_routing_partition(&cluster);
        let before = cluster.stats().updates;
        cluster
            .update(&msg(7_001, hot_a.x, hot_a.y, 0.0, 81.0))
            .unwrap();
        cluster
            .update(&msg(7_002, hot_b.x, hot_b.y, 0.0, 81.0))
            .unwrap();
        assert_eq!(cluster.stats().updates, before + 2);
        assert!(cluster
            .position(ObjectId(7_001), Timestamp::from_secs(81))
            .unwrap()
            .is_some());
    }

    #[test]
    fn region_fanout_learns_scan_costs_that_reprice_slices() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        let cluster = MoistCluster::new(&store, cfg, 4).unwrap();
        let dense = Point::new(437.0, 437.0);
        let dense_cell = cfg.space.cell_at(cfg.clustering_level, &dense).index;
        let sparse = Point::new(100.0, 900.0);
        let sparse_cell = cfg.space.cell_at(cfg.clustering_level, &sparse).index;
        // 200 objects crowd one cell, 5 sit in another.
        for i in 0..200u64 {
            let x = dense.x + (i % 20) as f64;
            let y = dense.y + (i / 20) as f64;
            cluster.update(&msg(i, x, y, 0.0, 0.0)).unwrap();
        }
        for i in 200..205u64 {
            cluster
                .update(&msg(i, sparse.x + (i % 5) as f64, sparse.y, 0.0, 0.0))
                .unwrap();
        }
        assert!(cluster.learned_scan_costs().is_empty());
        // A whole-map region query fans out over every shard's slices;
        // each shard attributes its measured per-range scan cost back to
        // the clustering cells the range covered.
        let rect = Rect::new(0.0, 0.0, 999.0, 999.0);
        let (hits, _) = cluster.region(&rect, Timestamp::from_secs(1), 0.0).unwrap();
        assert_eq!(hits.len(), 205);
        // Rebalance merges the per-shard samples into the shared price map.
        cluster.rebalance(Timestamp::from_secs(5)).unwrap();
        let learned = cluster.learned_scan_costs();
        assert!(!learned.is_empty(), "fan-out scans must leave cost samples");
        let dense_price = learned.get(&dense_cell).copied().unwrap_or(0.0);
        let sparse_price = learned.get(&sparse_cell).copied().unwrap_or(f64::MAX);
        assert!(
            dense_price > sparse_price,
            "200-object cell must price above 5-object cell: \
             dense {dense_price} vs sparse {sparse_price}"
        );
        // Learned prices are normalized to average 2.0 over measured cells
        // (the density prior's scale), so they stay comparable with the
        // prior used for never-scanned cells.
        let mean = learned.values().sum::<f64>() / learned.len() as f64;
        assert!((mean - 2.0).abs() < 1e-6, "price scale drifted: {mean}");
        // The repriced fan-out still answers exactly.
        let (hits, _) = cluster.region(&rect, Timestamp::from_secs(6), 0.0).unwrap();
        assert_eq!(hits.len(), 205);
    }

    #[test]
    fn controller_grows_on_surge_and_shrinks_back_when_idle() {
        let store = Bigtable::new();
        let cfg = MoistConfig {
            clustering_level: 3,
            cluster_interval_secs: 10.0,
            ..MoistConfig::default()
        };
        // A tier with no controller ticks as a no-op.
        let bare = MoistCluster::new(&store, cfg, 2).unwrap();
        assert!(bare
            .controller_tick(Timestamp::from_secs(1))
            .unwrap()
            .is_empty());
        assert!(bare.controller_events().is_empty());

        let ccfg = ControllerConfig {
            min_shards: 2,
            max_shards: 5,
            window_secs: 2.0,
            cooldown_secs: 5.0,
            rebalance_every_secs: 10.0,
            // Virtual busy-µs per virtual second: tiny, so the surge below
            // clearly saturates it and idling clearly undershoots it.
            target_shard_busy_us: 300.0,
            ..ControllerConfig::default()
        };
        let store = Bigtable::new();
        let cluster = MoistCluster::builder(&store, cfg)
            .shards(2)
            .controller(ccfg)
            .build()
            .unwrap();
        // Surge: 100 updates/s spread over the map, controller ticking
        // every virtual second like a client loop would.
        let mut oid = 0u64;
        for sec in 0..20u64 {
            for i in 0..100u64 {
                let x = 15.0 + 970.0 * ((oid * 7) % 64 % 8) as f64 / 8.0;
                let y = 15.0 + 970.0 * ((oid * 7) % 64 / 8) as f64 / 8.0;
                cluster
                    .update(&msg(oid % 900, x, y, 0.0, sec as f64 + i as f64 / 100.0))
                    .unwrap();
                oid += 1;
            }
            cluster
                .controller_tick(Timestamp::from_secs(sec + 1))
                .unwrap();
        }
        let peak = cluster.num_shards();
        assert!(
            peak > 2,
            "surge must grow the fleet past its floor, stuck at {peak}"
        );
        assert!(peak <= 5, "fleet exceeded max_shards: {peak}");
        // Idle: no traffic, just ticks. Each closed window under the
        // scale-down band sheds one shard per cooldown until the floor.
        for sec in 20..80u64 {
            cluster
                .controller_tick(Timestamp::from_secs(sec + 1))
                .unwrap();
        }
        assert_eq!(
            cluster.num_shards(),
            2,
            "idle fleet must shrink back to min_shards"
        );
        assert_routing_partition(&cluster);
        // Every scaling decision is logged, and decisions from different
        // ticks respect the cooldown (same-tick batches share one stamp).
        let events = cluster.controller_events();
        let adds = events
            .iter()
            .filter(|e| matches!(e.action, ControllerAction::AddShard { .. }))
            .count();
        let removes = events
            .iter()
            .filter(|e| matches!(e.action, ControllerAction::RemoveShard { .. }))
            .count();
        assert!(adds >= 1, "no add events logged: {events:?}");
        assert_eq!(
            removes,
            peak - 2,
            "every removal back to the floor must be logged: {events:?}"
        );
        let scale_times: Vec<f64> = events
            .iter()
            .filter(|e| e.action.is_scaling())
            .map(|e| e.at_secs)
            .collect();
        for pair in scale_times.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                gap == 0.0 || gap >= ccfg.cooldown_secs - 1e-9,
                "scale events {gap}s apart violate the {}s cooldown: {events:?}",
                ccfg.cooldown_secs
            );
        }
        // All objects written during the surge are still served.
        for i in [0u64, 450, 899] {
            assert!(cluster
                .position(ObjectId(i), Timestamp::from_secs(80))
                .unwrap()
                .is_some());
        }
    }
}
