//! Load generation from the two seeded op streams: an open loop runs one
//! client thread per stream (ops due on a fixed schedule; latency timed
//! from the due time); a closed loop issues both streams' ops in turn from
//! one thread (ops back to back; capacity). A traced phase issues the same
//! ops split into their public layer calls, each wrapped in a span.

use crate::tier::Tier;
use crate::trace::Tracer;
use crate::workload::{Class, Op, OpStream, NN_K, REGION_MARGIN, THREADS};
use moist::archive::{HistoryRecord, QueryCost};
use moist::bigtable::Timestamp;
use moist::core::{
    ClusterReport, MoistError, Neighbor, NnStats, ObjectId, RegionStats, Result, SubmitOutcome,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one client thread saw in one phase.
#[derive(Default)]
pub struct ThreadLog {
    /// Ops issued, ticks included.
    pub attempted: u64,
    /// Errors, ingest refusals, and ops an overrun open loop never issued.
    pub failed: u64,
    /// Updates the tier acknowledged (applied, or accepted by ingest).
    pub acked_updates: u64,
    /// Open-loop latency from the due time, µs, by [`Class`].
    pub latency_us: [Vec<f64>; 5],
    /// How late the generator issued each open-loop op, µs.
    pub late_us: Vec<f64>,
    /// Ops (ticks excluded) a closed loop completed.
    pub completed: u64,
    pub nn: Vec<NnStats>,
    pub nn_returned: u64,
    pub region: Vec<RegionStats>,
    pub region_hits: u64,
    pub history: Vec<QueryCost>,
    pub sweeps: Vec<ClusterReport>,
    /// Correctness failures seen inline (history answers).
    pub check_failures: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl ThreadLog {
    fn fail(&mut self, op: &Op, e: &MoistError) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("op failed: {op:?}: {e}");
        }
    }

    /// Records a `submit` (ingest workloads) or `update` outcome.
    fn note_update(&mut self, op: &Op, r: Result<Option<SubmitOutcome>>) {
        match r {
            Ok(Some(SubmitOutcome::ShedOverload { .. })) => self.failed += 1,
            Ok(_) => self.acked_updates += 1,
            Err(e) => self.fail(op, &e),
        }
    }

    fn note_nn(&mut self, op: &Op, r: Result<(Vec<Neighbor>, NnStats)>) {
        match r {
            Ok((hits, stats)) => {
                self.nn_returned += hits.len() as u64;
                self.nn.push(stats);
            }
            Err(e) => self.fail(op, &e),
        }
    }

    fn note_region(&mut self, op: &Op, r: Result<(Vec<Neighbor>, RegionStats)>) {
        match r {
            Ok((hits, stats)) => {
                self.region_hits += hits.len() as u64;
                self.region.push(stats);
            }
            Err(e) => self.fail(op, &e),
        }
    }

    /// Records a history answer and checks it: the queried oid's records
    /// only, in time order, within the asked range.
    fn note_history(&mut self, op: &Op, r: Result<Option<(Vec<HistoryRecord>, QueryCost)>>) {
        let (records, cost) = match r {
            Ok(Some(answer)) => answer,
            Ok(None) => return self.fail(op, &MoistError::Inconsistent("no archiver".into())),
            Err(e) => return self.fail(op, &e),
        };
        self.history.push(cost);
        let Op::History { oid, from, to } = *op else {
            return;
        };
        let ordered = records.windows(2).all(|w| w[0].ts_us <= w[1].ts_us);
        let own = records.iter().all(|r| r.oid == oid.0);
        let in_range = records.iter().all(|r| (from.0..=to.0).contains(&r.ts_us));
        if !(ordered && own && in_range) {
            self.check_failures.push(format!(
                "history of {oid} in [{}, {}]: ordered {ordered}, own oid {own}, in range {in_range}",
                from.0, to.0
            ));
        }
    }
}

/// Merges untraced logs: one phase's threads, or a run's rounds.
pub fn merge(logs: Vec<ThreadLog>) -> ThreadLog {
    let mut out = ThreadLog::default();
    for mut l in logs {
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.acked_updates += l.acked_updates;
        for (a, b) in out.latency_us.iter_mut().zip(l.latency_us.iter_mut()) {
            a.append(b);
        }
        out.late_us.append(&mut l.late_us);
        out.completed += l.completed;
        out.nn.append(&mut l.nn);
        out.nn_returned += l.nn_returned;
        out.region.append(&mut l.region);
        out.region_hits += l.region_hits;
        out.history.append(&mut l.history);
        out.sweeps.append(&mut l.sweeps);
        out.check_failures.append(&mut l.check_failures);
    }
    out
}

/// The shard that answers a history query (the archiver is shared, so
/// any shard could; spreading by oid keeps one shard from taking all).
fn history_shard(tier: &Tier, oid: ObjectId) -> usize {
    (oid.0 % tier.cluster.num_shards() as u64) as usize
}

/// Issues one op through the tier's public entry points.
fn exec(tier: &Tier, op: &Op, log: &mut ThreadLog) {
    let cluster = &tier.cluster;
    log.attempted += 1;
    match *op {
        Op::Update(msg) if tier.spec.ingest => log.note_update(op, cluster.submit(&msg).map(Some)),
        Op::Update(msg) => log.note_update(op, cluster.update(&msg).map(|_| None)),
        Op::Nn { center, at } => log.note_nn(op, cluster.nn(center, NN_K, at)),
        Op::Region { rect, at } => log.note_region(op, cluster.region(&rect, at, REGION_MARGIN)),
        Op::History { oid, from, to } => log.note_history(
            op,
            cluster.with_shard_read(history_shard(tier, oid), |s| s.history(oid, from, to)),
        ),
        Op::Tick { now } => tick(tier, now, log),
    }
}

fn tick(tier: &Tier, now: Timestamp, log: &mut ThreadLog) {
    let cluster = &tier.cluster;
    if tier.spec.clustering {
        match cluster.run_due_clustering(now) {
            Ok(r) => log.sweeps.push(r),
            Err(e) => log.fail(&Op::Tick { now }, &e),
        }
    }
    if tier.spec.ingest {
        if let Err(e) = cluster.flush_due(now) {
            log.fail(&Op::Tick { now }, &e);
        }
    }
}

/// Issues one op split into its public layer calls, each in a span.
fn exec_traced(tier: &Tier, op: &Op, log: &mut ThreadLog) {
    let mut tr = log.tracer.take().expect("traced phase has a tracer");
    let cluster = &tier.cluster;
    log.attempted += 1;
    let req = tr.begin();
    let t_op = tr.now();
    let root_name;
    let mut children: Vec<(&'static str, u64, u64)> = Vec::new();
    match *op {
        Op::Update(msg) if tier.spec.ingest => {
            root_name = "op.update";
            let t0 = tr.now();
            let r = cluster.submit(&msg);
            let t1 = tr.now();
            let name = match r {
                Ok(SubmitOutcome::Flushed { .. }) => "ingest.flush",
                Ok(SubmitOutcome::Enqueued { .. }) => "ingest.enqueue",
                _ => "cluster_tier.submit",
            };
            children.push((name, t0, t1));
            log.note_update(op, r.map(Some));
        }
        Op::Update(msg) => {
            root_name = "op.update";
            // Alternate updates go through the tier entry point whole, or
            // split into route + shard lock + server call; the residual
            // of the tier over its parts is taken between the two medians.
            let r = if req.is_multiple_of(2) {
                let t0 = tr.now();
                let r = cluster.update(&msg);
                children.push(("cluster_tier.update", t0, tr.now()));
                r
            } else {
                let t0 = tr.now();
                let shard = cluster.shard_for_point(&msg.loc);
                let t1 = tr.now();
                children.push(("cluster_tier.route", t0, t1));
                let epoch = tr.epoch();
                let called = tr.now();
                let (entered, done, r) = cluster
                    .with_shard(shard, |s| {
                        let entered = Tracer::since(epoch);
                        let r = s.update(&msg);
                        (entered, Tracer::since(epoch), r)
                    })
                    .unwrap_or_else(|e| (called, called, Err(e)));
                children.push(("server.write_wait", called, entered));
                children.push(("server.update", entered, done));
                r
            };
            log.note_update(op, r.map(|_| None));
        }
        Op::Nn { center, at } => {
            root_name = "op.nn";
            // The read guard of the query's home shard, taken and dropped
            // empty just before the query: the wait a reader meets there,
            // without touching the shard's FLAG cache or virtual clock.
            // (The query's own cost on one shard is timed by the probe.)
            let shard = cluster.shard_for_point(&center);
            let epoch = tr.epoch();
            let called = tr.now();
            if let Ok(entered) = cluster.with_shard_read(shard, |_| Tracer::since(epoch)) {
                children.push(("server.read_wait", called, entered));
            }
            let t0 = tr.now();
            let r = cluster.nn(center, NN_K, at);
            children.push(("cluster_tier.nn", t0, tr.now()));
            log.note_nn(op, r);
        }
        Op::Region { rect, at } => {
            root_name = "op.region";
            let t0 = tr.now();
            let r = cluster.region(&rect, at, REGION_MARGIN);
            children.push(("cluster_tier.region", t0, tr.now()));
            log.note_region(op, r);
        }
        Op::History { oid, from, to } => {
            root_name = "op.history";
            let epoch = tr.epoch();
            let called = tr.now();
            let r = cluster.with_shard_read(history_shard(tier, oid), |s| {
                let entered = Tracer::since(epoch);
                let r = s.history(oid, from, to);
                (entered, Tracer::since(epoch), r)
            });
            let r = r.map(|(entered, done, answer)| {
                children.push(("server.read_wait", called, entered));
                children.push(("archive.query", entered, done));
                answer
            });
            log.note_history(op, r);
        }
        Op::Tick { now } => {
            root_name = "op.tick";
            if tier.spec.clustering {
                let sweep0 = tr.now();
                let mut total = ClusterReport::default();
                for shard in 0..cluster.num_shards() {
                    let epoch = tr.epoch();
                    let called = tr.now();
                    match cluster.with_shard(shard, |s| {
                        let entered = Tracer::since(epoch);
                        let r = s.run_due_clustering(now);
                        (entered, Tracer::since(epoch), r)
                    }) {
                        Ok((entered, done, Ok(r))) => {
                            children.push(("server.write_wait", called, entered));
                            children.push(("cluster.sweep_shard", entered, done));
                            total.merge_from(&r);
                        }
                        Ok((_, _, Err(e))) | Err(e) => log.fail(op, &e),
                    }
                }
                children.push(("cluster.sweep", sweep0, tr.now()));
                log.sweeps.push(total);
            }
            if tier.spec.ingest {
                let t0 = tr.now();
                let r = cluster.flush_due(now);
                children.push(("ingest.flush_due", t0, tr.now()));
                if let Err(e) = r {
                    log.fail(op, &e);
                }
            }
        }
    }
    let root = tr.record(req, None, root_name, t_op, tr.now());
    for (name, start, end) in children {
        tr.record(req, Some(root), name, start, end);
    }
    log.tracer = Some(tr);
}

fn issue(tier: &Tier, op: &Op, log: &mut ThreadLog) {
    if log.tracer.is_some() {
        exec_traced(tier, op, log);
    } else {
        exec(tier, op, log);
    }
}

/// Sleeps until close to `due`, then spins until it arrives: a plain
/// sleep overshoots by tens of µs, which would read as latency.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A closed loop on the calling thread: the streams' ops in turn, back to
/// back, until `ops` ops (ticks not counted) are done or `limit` passes.
/// Every run does the same work whatever its speed. One client, not one
/// per stream, so the client does not contend with the tier's query
/// workers for the host's few cores. With a tracer, every op is traced.
pub fn closed_loop(
    tier: &Tier,
    streams: &mut [OpStream],
    ops: u64,
    limit: Duration,
    tracer: Option<Tracer>,
) -> ThreadLog {
    let mut log = ThreadLog {
        tracer,
        ..ThreadLog::default()
    };
    let start = Instant::now();
    for turn in 0.. {
        if log.completed >= ops || start.elapsed() >= limit {
            break;
        }
        let op = streams[turn % streams.len()].next_op();
        issue(tier, &op, &mut log);
        if op.class() != Class::Tick {
            log.completed += 1;
        }
    }
    log
}

/// An open loop on one client thread per stream: `ops_per_thread` ops per
/// thread, due every `gap` on each thread (threads offset by half a gap).
/// The phase gives up after `limit`; ops it never issued count as failed.
pub fn open_loop(
    tier: &Tier,
    streams: &mut [OpStream],
    ops_per_thread: u64,
    gap: Duration,
    limit: Duration,
) -> ThreadLog {
    let barrier = Barrier::new(streams.len());
    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(thread, stream)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = ThreadLog::default();
                    let n = ops_per_thread as usize;
                    log.late_us.reserve(n);
                    for v in &mut log.latency_us {
                        v.reserve(n);
                    }
                    let offset = gap * thread as u32 / THREADS as u32;
                    barrier.wait();
                    let start = Instant::now();
                    for k in 0..ops_per_thread {
                        if start.elapsed() > limit {
                            log.attempted += ops_per_thread - k;
                            log.failed += ops_per_thread - k;
                            break;
                        }
                        let op = stream.next_op();
                        let due = start + offset + gap * k as u32;
                        wait_until(due);
                        let issued = Instant::now();
                        issue(tier, &op, &mut log);
                        let done = Instant::now();
                        log.late_us.push((issued - due).as_secs_f64() * 1e6);
                        log.latency_us[op.class() as usize].push((done - due).as_secs_f64() * 1e6);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    merge(logs)
}
