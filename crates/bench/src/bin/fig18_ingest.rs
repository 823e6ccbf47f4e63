//! Figure 18 (repo extension) — batched, pipelined ingestion vs the
//! synchronous per-call tier.
//!
//! §4.1's cost model gives batched writes a steep discount: a MutateRows
//! RPC pays the 15 µs base once for the whole batch plus ~0.5 µs per row,
//! where per-call writes pay the base *per update*. The pipelined tier
//! ([`MoistCluster::submit`] + bounded per-shard queues + batched
//! [`MoistCluster::update_batch`] apply) exists to harvest that discount;
//! this bin measures how much of it survives end to end on the §4.1
//! road-network workload.
//!
//! Two sweeps, both against the synchronous [`MoistCluster::update`] path
//! as the baseline tier:
//!
//! * **scale-out** — client-visible QPS vs shard count (1/2/4/5/10) for
//!   both tiers. Asserts the pipelined tier beats the baseline at the
//!   largest fleet by ≥ 2× (full) / ≥ 1.2× (smoke).
//! * **latency-vs-throughput** — at the largest fleet, batch size ×
//!   in-flight limit (`queue_cap = batch × in-flight`) trade queue wait
//!   against batching efficiency: bigger batches amortize more RPC base
//!   but strand updates in the buffer longer.
//!
//! Unlike fig14, **store QPS here is deliberately uncapped** (no
//! [`STORE_WRITE_CAPACITY_OPS`](moist_bench::STORE_WRITE_CAPACITY_OPS)
//! clip, which models a per-op write ceiling): the batch discount's whole point is that one MutateRows RPC
//! carries many updates past a per-op ceiling, so clipping both tiers at
//! the per-op cap would erase exactly the effect under measurement. The
//! baseline is derived uncapped too, so the comparison stays apples to
//! apples. Client-visible QPS divides by the *school* shed ratio only —
//! overload sheds and backpressure are separate [`IngestStats`] counters
//! (none fire at these queue depths; asserted below) and never inflate
//! the client-visible rate.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{
    IngestConfig, IngestStats, MoistCluster, MoistConfig, MoistError, ObjectId, ServerStats,
    UpdateMessage,
};
use moist::workload::{ClientPool, RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use moist_bench::{smoke_mode, Figure, Series};
use std::sync::Mutex;

struct Scale {
    shard_counts: Vec<usize>,
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    measure_secs: f64,
    /// `(batch_size, in_flight)` points for the latency/throughput sweep,
    /// run at the largest shard count.
    sweep: Vec<(usize, usize)>,
    /// Required pipelined-over-baseline client-QPS ratio at the largest
    /// shard count.
    min_speedup: f64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            shard_counts: vec![1, 2, 4, 5, 10],
            clients: 4,
            agents_per_client: 1200,
            warmup_secs: 60.0,
            measure_secs: 240.0,
            sweep: vec![(16, 2), (16, 8), (64, 2), (64, 8), (256, 2), (256, 8)],
            min_speedup: 2.0,
        }
    }

    fn smoke() -> Self {
        Scale {
            shard_counts: vec![1, 2, 4],
            clients: 2,
            agents_per_client: 300,
            warmup_secs: 30.0,
            measure_secs: 60.0,
            sweep: vec![(8, 2), (8, 4), (32, 2), (32, 4)],
            min_speedup: 1.2,
        }
    }
}

/// Counter deltas between two aggregate snapshots.
fn delta(after: &ServerStats, before: &ServerStats) -> ServerStats {
    ServerStats {
        updates: after.updates - before.updates,
        shed: after.shed - before.shed,
        leader_updates: after.leader_updates - before.leader_updates,
        registered: after.registered - before.registered,
        departures: after.departures - before.departures,
        nn_queries: after.nn_queries - before.nn_queries,
        cluster_runs: after.cluster_runs - before.cluster_runs,
    }
}

/// Ingest counter deltas over the measurement window (`queued` is a live
/// gauge, not a counter; both snapshots are taken after a drain so it is
/// zero on each side).
fn ingest_delta(after: &IngestStats, before: &IngestStats) -> IngestStats {
    IngestStats {
        submitted: after.submitted - before.submitted,
        enqueued: after.enqueued - before.enqueued,
        backpressure: after.backpressure - before.backpressure,
        overload_shed: after.overload_shed - before.overload_shed,
        batches: after.batches - before.batches,
        flushed_updates: after.flushed_updates - before.flushed_updates,
        size_flushes: after.size_flushes - before.size_flushes,
        deadline_flushes: after.deadline_flushes - before.deadline_flushes,
        drain_flushes: after.drain_flushes - before.drain_flushes,
        max_batch: after.max_batch,
        queue_wait_us: after.queue_wait_us - before.queue_wait_us,
        queued: after.queued,
    }
}

struct Measured {
    store_qps: f64,
    client_qps: f64,
    shed: f64,
    /// Mean virtual µs an update sat buffered before its batch flushed
    /// (zero for the synchronous tier).
    queue_wait_us: f64,
    /// Mean virtual µs of shard apply time charged per update.
    apply_us: f64,
    avg_batch: f64,
    /// Typed-backpressure rejections the submitters retried through.
    backpressure: u64,
}

/// Drives every simulator to `until` in `tick`-second steps. `pipelined`
/// selects the submission path: `false` routes through the synchronous
/// [`MoistCluster::update`], `true` through [`MoistCluster::submit`] with
/// a deadline-flush tick per worker. Backpressure (only reachable when a
/// sweep point sets a tight in-flight limit) is handled the way a real
/// client would: flush what is due and retry.
fn drive(
    cluster: &MoistCluster,
    sims: &[Mutex<RoadNetSim>],
    until: f64,
    tick: f64,
    pipelined: bool,
) {
    let shards = cluster.num_shards();
    ClientPool::run(sims.len(), |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 10_000_000;
        let mut t = sim.now_secs();
        while t < until {
            t = (t + tick).min(until);
            for u in sim.advance_until(t) {
                let msg = UpdateMessage {
                    oid: ObjectId(oid_base + u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                };
                if pipelined {
                    loop {
                        match cluster.submit(&msg) {
                            Ok(_) => break,
                            Err(MoistError::Backpressure { .. }) => {
                                cluster
                                    .flush_due(Timestamp::from_secs_f64(t))
                                    .expect("flush");
                                std::thread::yield_now();
                            }
                            Err(e) => panic!("submit: {e}"),
                        }
                    }
                } else {
                    cluster.update(&msg).expect("update");
                }
            }
            if pipelined {
                cluster
                    .flush_due(Timestamp::from_secs_f64(t))
                    .expect("flush");
            }
            let mut shard = i;
            while shard < shards {
                cluster
                    .run_due_clustering_shard(shard, Timestamp::from_secs_f64(t))
                    .expect("clustering");
                shard += sims.len();
            }
        }
    });
    if pipelined {
        cluster.drain_ingest().expect("drain");
    }
}

fn run_one(shards: usize, scale: &Scale, ingest: Option<IngestConfig>) -> Measured {
    let store = Bigtable::new();
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    };
    let pipelined = ingest.is_some();
    let mut builder = MoistCluster::builder(&store, cfg).shards(shards);
    if let Some(icfg) = ingest {
        builder = builder.ingest(icfg);
    }
    let cluster = builder.build().expect("cluster");
    let sims: Vec<Mutex<RoadNetSim>> = (0..scale.clients)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: scale.agents_per_client,
                    seed: 4000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();
    // Warm-up: register everyone and let schools form, then measure from a
    // clean clock and clean (drained) queues.
    drive(&cluster, &sims, scale.warmup_secs, 5.0, pipelined);
    cluster.reset_clocks();
    let before = cluster.stats();
    let ingest_before = cluster.ingest_stats();
    drive(
        &cluster,
        &sims,
        scale.warmup_secs + scale.measure_secs,
        5.0,
        pipelined,
    );
    let d = delta(&cluster.stats(), &before);
    assert!(d.balanced(), "outcome counters must sum: {d:?}");
    let di = ingest_delta(&cluster.ingest_stats(), &ingest_before);
    if pipelined {
        assert_eq!(di.queued, 0, "measurement must end drained");
        assert_eq!(
            di.flushed_updates, d.updates,
            "every applied update must have gone through the queues"
        );
        assert_eq!(di.overload_shed, 0, "Reject policy must never shed");
    }
    // Cross-layer consistency: the tier's folded load-loss signal must
    // equal the independently read school-shed + queue-loss counters, or
    // a client-QPS derivation somewhere is lying about lost updates.
    let cs = cluster.cluster_stats(Timestamp::from_secs_f64(
        scale.warmup_secs + scale.measure_secs,
    ));
    let ingest_all = cluster.ingest_stats();
    assert_eq!(
        cs.shed_or_backpressure(),
        cluster.stats().shed + ingest_all.backpressure + ingest_all.overload_shed,
        "ClusterStats must fold every load-loss signal"
    );

    let busiest_secs = cluster.max_elapsed_us() / 1e6;
    let non_shed = (d.updates - d.shed) as f64;
    // Deliberately uncapped — see the module doc. The shed ratio is the
    // *school* ratio only; overload sheds live in `di.overload_shed` and
    // are excluded by construction.
    let store_qps = non_shed / busiest_secs.max(1e-9);
    let shed = d.shed as f64 / d.updates.max(1) as f64;
    let client_qps = store_qps / (1.0 - shed).max(0.05);
    Measured {
        store_qps,
        client_qps,
        shed,
        queue_wait_us: di.avg_queue_wait_us(),
        apply_us: cluster.total_elapsed_us() / (d.updates.max(1)) as f64,
        avg_batch: di.avg_batch(),
        backpressure: di.backpressure,
    }
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig18_ingest_smoke"
    } else {
        "fig18_ingest"
    };
    let pipe_cfg = IngestConfig {
        batch_size: if smoke { 32 } else { 64 },
        ..IngestConfig::default()
    };

    let mut fig = Figure::new(
        id,
        "Pipelined ingestion: client-visible QPS vs shards, and batch-size/in-flight latency trade (road network)",
        "shards (scale-out series) / batch size (sweep series)",
        "updates/s (QPS series) / virtual us (latency series)",
    );
    let mut base_series = Series::new("baseline client QPS");
    let mut pipe_series = Series::new("pipelined client QPS");

    println!(
        "{:>6}  {:>10}  {:>10}  {:>10}  {:>10}  {:>7}  {:>9}  {:>9}",
        "shards", "base st/s", "pipe st/s", "base q/s", "pipe q/s", "ratio", "wait us", "batch"
    );
    let mut last_ratio = 0.0;
    for &n in &scale.shard_counts {
        let base = run_one(n, &scale, None);
        let pipe = run_one(n, &scale, Some(pipe_cfg));
        last_ratio = pipe.client_qps / base.client_qps.max(1e-9);
        println!(
            "{n:>6}  {:>10.0}  {:>10.0}  {:>10.0}  {:>10.0}  {:>6.2}x  {:>9.1}  {:>9.1}",
            base.store_qps,
            pipe.store_qps,
            base.client_qps,
            pipe.client_qps,
            last_ratio,
            pipe.queue_wait_us,
            pipe.avg_batch
        );
        debug_assert!(base.shed <= 1.0 && pipe.shed <= 1.0);
        base_series.push(n as f64, base.client_qps);
        pipe_series.push(n as f64, pipe.client_qps);
    }
    fig.add(base_series);
    fig.add(pipe_series);

    // Latency-vs-throughput sweep at the largest fleet: one QPS series and
    // one end-to-end latency series (queue wait + amortized apply) per
    // in-flight limit, indexed by batch size.
    let &max_shards = scale.shard_counts.last().expect("shard counts");
    println!("\nsweep at {max_shards} shards (batch x in-flight):");
    println!(
        "{:>6}  {:>9}  {:>10}  {:>9}  {:>9}  {:>6}",
        "batch", "in-flight", "pipe q/s", "wait us", "apply us", "bp"
    );
    let mut sweep_qps: Vec<(usize, Series)> = Vec::new();
    let mut sweep_lat: Vec<(usize, Series)> = Vec::new();
    for &(batch, in_flight) in &scale.sweep {
        let m = run_one(
            max_shards,
            &scale,
            Some(IngestConfig {
                batch_size: batch,
                queue_cap: batch * in_flight,
                ..IngestConfig::default()
            }),
        );
        println!(
            "{batch:>6}  {in_flight:>9}  {:>10.0}  {:>9.1}  {:>9.1}  {:>6}",
            m.client_qps, m.queue_wait_us, m.apply_us, m.backpressure
        );
        let qps = match sweep_qps.iter_mut().find(|(k, _)| *k == in_flight) {
            Some((_, s)) => s,
            None => {
                sweep_qps.push((
                    in_flight,
                    Series::new(format!("sweep client QPS (in-flight {in_flight})")),
                ));
                &mut sweep_qps.last_mut().expect("just pushed").1
            }
        };
        qps.push(batch as f64, m.client_qps);
        let lat = match sweep_lat.iter_mut().find(|(k, _)| *k == in_flight) {
            Some((_, s)) => s,
            None => {
                // `(noisy)` opts the series out of the CI drop gate:
                // latency is lower-is-better, so a batching *improvement*
                // would read as a >15% "drop" and fail the job.
                sweep_lat.push((
                    in_flight,
                    Series::new(format!("sweep latency us (in-flight {in_flight}) (noisy)")),
                ));
                &mut sweep_lat.last_mut().expect("just pushed").1
            }
        };
        lat.push(batch as f64, m.queue_wait_us + m.apply_us);
    }
    for (_, s) in sweep_qps {
        fig.add(s);
    }
    for (_, s) in sweep_lat {
        fig.add(s);
    }
    fig.print();
    fig.save().expect("save");

    assert!(
        last_ratio >= scale.min_speedup,
        "pipelined tier must beat the synchronous baseline by >= {:.1}x at {} shards (got {:.2}x)",
        scale.min_speedup,
        max_shards,
        last_ratio
    );
    println!(
        "pipelined ingestion beats the synchronous tier {last_ratio:.2}x at {max_shards} shards"
    );
}
