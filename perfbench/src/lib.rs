//! The MOIST tier benchmark: three workloads against `MoistCluster`,
//! driven from one process by at most two client threads, reporting wall-clock
//! and virtual (cost-model) end-to-end metrics, checking the answers, and
//! — in a separate traced run — per-layer metrics measured from outside
//! through each layer's public calls. See `README.md` beside this crate.

pub mod checks;
pub mod layers;
pub mod load;
pub mod stats;
pub mod tier;
pub mod trace;
pub mod workload;

use layers::{Counters, Probe};
use load::{closed_loop, open_loop, ThreadLog};
use moist::bigtable::{Bigtable, Timestamp};
use moist::core::Result;
use stats::{mean, median, percentile, ratio, Metrics};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Class, Kind, OpStream, Spec, THREADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;
/// Recoveries per durable run; `recovery_s` is their median.
const RECOVERY_ROUNDS: usize = 3;
/// Share of the run's seconds spent in closed loops; open loops get the
/// rest.
const CLOSED_SHARE: f64 = 0.4;

pub struct Args {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the WAL and the span file go.
    pub work_dir: PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks; the run is correct when empty.
    pub failures: Vec<String>,
    /// The result line's metrics: end-to-end untraced, per-layer traced.
    pub metrics: Metrics,
    /// End-to-end metrics that carry no bound (see [`op_metrics`]),
    /// printed for people next to the result.
    pub extra: Metrics,
    /// Open-loop latency spread per op type.
    pub detail: Vec<String>,
    /// What the correctness checks covered.
    pub checked: Vec<String>,
    /// Where the traced run wrote its spans.
    pub span_file: Option<PathBuf>,
}

/// Measurement rounds per run, each a closed-loop segment and then an
/// open-loop segment, so slow spells of a shared host fall on both loops
/// alike. Latency figures pool every round's samples; the closed-loop
/// throughput is the median of the rounds'.
const ROUNDS: usize = 10;

/// What the phases of one run leave behind for the metrics.
#[derive(Default)]
pub(crate) struct Measured {
    pub(crate) setup_secs: Vec<f64>,
    pub(crate) peak_rss_mb: f64,
    /// Every closed-loop segment, merged, and the virtual µs of each
    /// segment's busiest shard, summed.
    pub(crate) closed: ThreadLog,
    pub(crate) closed_virt_us: f64,
    /// Each closed-loop segment's wall throughput, ops/s.
    pub(crate) closed_rates: Vec<f64>,
    /// The traced closed loop, counters before and after it, its seconds.
    pub(crate) traced: Option<(ThreadLog, Counters, Counters, f64)>,
    /// Every open-loop segment, merged, and their total wall seconds.
    pub(crate) open: ThreadLog,
    pub(crate) open_secs: f64,
    /// Wall seconds and snapshot bytes of the checkpoint.
    pub(crate) checkpoint: Option<(f64, u64)>,
    pub(crate) probe: Option<Probe>,
    /// Recovery wall seconds of each round, and records replayed.
    pub(crate) recovery: Option<(Vec<f64>, u64)>,
}

impl Measured {
    /// Closed-loop wall throughput: the median over the rounds, so a slow
    /// spell of a shared host that spans a few rounds moves it little.
    pub(crate) fn closed_ops_per_s(&self) -> f64 {
        median(&mut self.closed_rates.clone())
    }
}

fn max_elapsed_delta(before: &[f64], after: &[f64]) -> f64 {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a - b)
        .fold(0.0, f64::max)
}

fn timed_setup(
    spec: &Spec,
    seed: u64,
    wal_dir: Option<PathBuf>,
) -> Result<(tier::Tier, Vec<OpStream>, u64, f64)> {
    let t0 = Instant::now();
    let (tier, streams, acked) = tier::setup(spec, seed, wal_dir)?;
    Ok((tier, streams, acked, t0.elapsed().as_secs_f64()))
}

/// The latest simulated time the client threads reached.
fn sim_now(streams: &[OpStream]) -> Timestamp {
    Timestamp::from_secs_f64(streams.iter().map(|s| s.now_secs()).fold(0.0, f64::max))
}

/// A closed loop's op count for `secs` seconds at the workload's capacity,
/// and the time after which it gives up.
fn closed_budget(spec: &Spec, secs: f64) -> (u64, Duration) {
    let ops = (spec.closed_ops_s * secs).round().max(1.0) as u64;
    (ops, Duration::from_secs_f64(secs * 3.0 + 5.0))
}

/// The traced closed loop, with the tier's counters before and after it
/// and its wall seconds.
fn traced_loop(
    tier: &tier::Tier,
    streams: &mut [OpStream],
    secs: f64,
) -> Result<(ThreadLog, Counters, Counters, f64)> {
    let before = layers::counters(tier, sim_now(streams))?;
    let epoch = Instant::now();
    let (ops, limit) = closed_budget(&tier.spec, secs);
    let log = closed_loop(tier, streams, ops, limit, Some(Tracer::new(epoch)));
    let secs = epoch.elapsed().as_secs_f64();
    let after = layers::counters(tier, sim_now(streams))?;
    Ok((log, before, after, secs))
}

pub fn run(args: &Args) -> Result<Outcome> {
    let spec = args.spec;
    let seed = args.seed;
    let wal_dir = spec.wal.then(|| {
        args.work_dir
            .join(format!("wal-{}-{}", spec.name, std::process::id()))
    });
    let (tier, mut streams, mut acked, setup_s) = timed_setup(&spec, seed, wal_dir.clone())?;
    let mut m = Measured {
        setup_secs: vec![setup_s],
        ..Measured::default()
    };
    let cluster = &tier.cluster;

    // Rounds: capacity in a closed loop, then latency in an open loop at
    // the workload's fixed offered rate. A traced run adds a traced closed
    // loop, half as long as the untraced ones together, before the last
    // open loop; the durable workload checkpoints there too, so recovery
    // replays a fixed schedule.
    let closed_seg = args.seconds * CLOSED_SHARE / ROUNDS as f64;
    let open_seg = args.seconds * (1.0 - CLOSED_SHARE) / ROUNDS as f64;
    let per_thread = (spec.offered_ops_s / THREADS as f64 * open_seg)
        .round()
        .max(1.0) as u64;
    let gap = Duration::from_secs_f64(THREADS as f64 / spec.offered_ops_s);
    let (closed_ops, closed_limit) = closed_budget(&spec, closed_seg);
    let open_limit = Duration::from_secs_f64(open_seg * 3.0 + 5.0);
    for round in 0..ROUNDS {
        let e0 = cluster.shard_elapsed_us();
        let t0 = Instant::now();
        let closed = closed_loop(&tier, &mut streams, closed_ops, closed_limit, None);
        let closed_secs = t0.elapsed().as_secs_f64();
        let virt_us = max_elapsed_delta(&e0, &cluster.shard_elapsed_us());
        if round + 1 == ROUNDS {
            if args.trace {
                let secs = closed_seg * ROUNDS as f64 / 2.0;
                m.traced = Some(traced_loop(&tier, &mut streams, secs)?);
            }
            if spec.wal {
                let t0 = Instant::now();
                let (_, bytes) = cluster.checkpoint()?;
                m.checkpoint = Some((t0.elapsed().as_secs_f64(), bytes));
            }
        }
        let t0 = Instant::now();
        let open = open_loop(&tier, &mut streams, per_thread, gap, open_limit);
        m.open_secs += t0.elapsed().as_secs_f64();
        m.closed_rates
            .push(ratio(closed.completed as f64, closed_secs));
        m.closed_virt_us += virt_us;
        m.closed = load::merge(vec![std::mem::take(&mut m.closed), closed]);
        m.open = load::merge(vec![std::mem::take(&mut m.open), open]);
    }

    // Quiescent checks.
    let mut failures = Vec::new();
    failures.append(&mut m.closed.check_failures);
    failures.append(&mut m.open.check_failures);
    if let Some((log, ..)) = &mut m.traced {
        failures.append(&mut log.check_failures);
    }
    if spec.ingest {
        cluster.drain_ingest()?;
    }
    m.peak_rss_mb = peak_rss_mb();
    let at = sim_now(&streams);
    let mut checked = Vec::new();
    let report = checks::oracle(cluster, &tier.store, tier.cfg, seed, at, 1)?;
    checked.push(report.summary("tier"));
    failures.extend(report.failures);
    if args.trace {
        let p = layers::probe(&tier, &mut streams[0], seed, at)?;
        acked += p.updates;
        m.probe = Some(p);
    }
    acked += m.closed.acked_updates + m.open.acked_updates;
    if let Some((log, ..)) = &m.traced {
        acked += log.acked_updates;
    }
    if spec.kind == Kind::UpdateNoschool {
        let applied = cluster.stats().updates;
        if applied != acked {
            failures.push(format!(
                "ServerStats::updates is {applied}, but {acked} updates were acknowledged"
            ));
        }
    }

    // Durability: drop the drained tier without a checkpoint, recover it
    // through the builder, and check that every acknowledged object
    // resolves where it did before the crash, and the NN/region oracle on
    // the recovered store.
    let before_crash = match &wal_dir {
        Some(_) => checks::positions(cluster, spec.population, at)?,
        None => Vec::new(),
    };
    let tier::Tier {
        store,
        cluster,
        archiver,
        ..
    } = tier;
    drop(cluster);
    drop(store);
    if let Some(dir) = &wal_dir {
        let mut times = Vec::new();
        let mut replayed = 0;
        for round in 0..RECOVERY_ROUNDS {
            let t0 = Instant::now();
            let (store, cluster, report) = tier::builder(&spec, &Bigtable::new(), &archiver)
                .recover(tier::store_config(Some(dir)))?;
            times.push(t0.elapsed().as_secs_f64());
            replayed = report.replayed_records;
            if round + 1 == RECOVERY_ROUNDS {
                if replayed == 0 {
                    failures.push(
                        "recovery replayed no WAL records, but updates were acknowledged \
                         after the checkpoint"
                            .into(),
                    );
                }
                failures.extend(checks::same_positions(&cluster, &before_crash, at)?);
                checked.push(format!(
                    "recovery: {replayed} WAL records replayed; {} positions compared",
                    before_crash.len()
                ));
                let report = checks::oracle(&cluster, &store, spec.config(), seed, at, 2)?;
                checked.push(report.summary("recovered tier"));
                failures.extend(report.failures);
            }
        }
        m.recovery = Some((times, replayed));
    }
    drop(archiver);

    // The untraced run sets up again from scratch (after the peak RSS was
    // read, so it counts one tier) and reports the median set-up time.
    if !args.trace {
        for _ in 1..SETUP_ROUNDS {
            let (again, _, _, secs) = timed_setup(&spec, seed, wal_dir.clone())?;
            drop(again);
            m.setup_secs.push(secs);
        }
    }
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut attempted = m.closed.attempted + m.open.attempted;
    let mut failed = m.closed.failed + m.open.failed;
    if let Some((log, ..)) = &m.traced {
        attempted += log.attempted;
        failed += log.failed;
    }
    let span_file = match &mut m.traced {
        Some((log, ..)) => {
            let path = args
                .work_dir
                .join(format!("spans-{}-seed{}.tsv", spec.name, seed));
            let tracer = log.tracer.as_ref().expect("traced phase has a tracer");
            tracer.write(&path).map_err(|e| {
                moist::core::MoistError::Inconsistent(format!("span file {}: {e}", path.display()))
            })?;
            Some(path)
        }
        None => None,
    };
    let mut detail = latency_detail(&spec, &mut m.open);
    detail.push(format!(
        "closed   ops/s by round: {}",
        m.closed_rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let extra = op_metrics(&spec, &mut m, attempted, failed);
    let metrics = if args.trace {
        let mut all = layers::per_layer(&spec, &mut m);
        all.0.extend(extra.0.iter().cloned());
        all
    } else {
        end_to_end(&mut m)
    };
    Ok(Outcome {
        attempted,
        failed,
        failures,
        metrics,
        extra,
        detail,
        checked,
        span_file,
    })
}

/// Peak resident set (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub(crate) fn lat(log: &mut ThreadLog, class: Class) -> &mut Vec<f64> {
    &mut log.latency_us[class as usize]
}

/// The end-to-end metrics every workload reports (untraced run).
fn end_to_end(m: &mut Measured) -> Metrics {
    let mut out = Metrics::default();
    out.put("setup_s", median(&mut m.setup_secs), "s");
    out.put("peak_rss_mb", m.peak_rss_mb, "MiB");
    let ops = m.closed.completed as f64;
    out.put("ops_per_s", m.closed_ops_per_s(), "ops/s");
    out.put(
        "virt_ops_per_s",
        ratio(ops, m.closed_virt_us / 1e6),
        "ops/s",
    );
    out
}

/// End-to-end metrics that carry no bound: open-loop latencies, and the
/// metrics of op types only some workloads issue (0 elsewhere). They go
/// in the traced run's per-layer set and next to every run's result.
fn op_metrics(spec: &Spec, m: &mut Measured, attempted: u64, failed: u64) -> Metrics {
    let mut out = Metrics::default();
    out.put("fail_frac", ratio(failed as f64, attempted as f64), "ratio");
    let open = &mut m.open;
    // Open-loop latencies: measured and reported, but too unsteady from
    // run to run on a small shared host to bound (see README.md).
    let mut all: Vec<f64> = [Class::Update, Class::Nn, Class::Region, Class::History]
        .iter()
        .flat_map(|&c| open.latency_us[c as usize].iter().copied())
        .collect();
    let upd = lat(open, Class::Update);
    out.put("update_p50_us", percentile(upd, 0.5), "us");
    out.put("update_p99_us", percentile(upd, 0.99), "us");
    out.put("op_p50_us", percentile(&mut all, 0.5), "us");
    out.put("op_p99_us", percentile(&mut all, 0.99), "us");
    for (class, p50, p99) in [
        (Class::Nn, Some("nn_p50_us"), "nn_p99_us"),
        (Class::Region, Some("region_p50_us"), "region_p99_us"),
        (Class::History, None, "history_p99_us"),
    ] {
        let v = lat(open, class);
        if let Some(p50) = p50 {
            out.put(p50, percentile(v, 0.5), "us");
        }
        out.put(p99, percentile(v, 0.99), "us");
    }
    let nn: Vec<f64> = open.nn.iter().map(|s| s.cost_us).collect();
    out.put("virt_nn_us", mean(&nn), "us");
    let region: Vec<f64> = open.region.iter().map(|s| s.cost_us).collect();
    out.put("virt_region_us", mean(&region), "us");
    let hist: Vec<f64> = open.history.iter().map(|c| c.parallel_secs * 1e3).collect();
    out.put("virt_history_ms", mean(&hist), "ms");
    let recovery = m
        .recovery
        .as_mut()
        .map_or(0.0, |(times, _)| median(&mut times.clone()));
    out.put("recovery_s", recovery, "s");
    // The generator: validity of every open-loop latency.
    out.put("gen.offered_ops_s", spec.offered_ops_s, "ops/s");
    out.put(
        "gen.achieved_ops_s",
        ratio(open.attempted as f64, m.open_secs),
        "ops/s",
    );
    out.put("gen.late_p99_us", percentile(&mut open.late_us, 0.99), "us");
    out
}

/// Open-loop latency spread per op type, with sample counts and the
/// workload's p99 limit, for people: a tail percentile means little
/// without the samples beyond it.
pub fn latency_detail(spec: &Spec, log: &mut ThreadLog) -> Vec<String> {
    let mut lines = Vec::new();
    for (class, name) in [
        (Class::Update, "update"),
        (Class::Nn, "nn"),
        (Class::Region, "region"),
        (Class::History, "history"),
        (Class::Tick, "tick"),
    ] {
        let v = lat(log, class);
        if v.is_empty() {
            continue;
        }
        let q = |v: &mut Vec<f64>, p| percentile(v, p);
        let p99 = q(v, 0.99);
        let limit = match spec.p99_limit_us.get(class as usize) {
            Some(&l) if l > 0.0 => {
                format!(
                    " (limit {l:.0}: {})",
                    if p99 <= l { "met" } else { "MISSED" }
                )
            }
            _ => String::new(),
        };
        lines.push(format!(
            "{name:<8} n={:<7} p50={:.1} p90={:.1} p99={p99:.1}{limit} p99.9={:.1} max={:.1} us",
            v.len(),
            q(v, 0.5),
            q(v, 0.9),
            q(v, 0.999),
            q(v, 1.0)
        ));
    }
    let v = &mut log.late_us;
    lines.push(format!(
        "late     n={:<7} p50={:.1} p99={:.1} max={:.1} us",
        v.len(),
        percentile(v, 0.5),
        percentile(v, 0.99),
        percentile(v, 1.0)
    ));
    lines
}
