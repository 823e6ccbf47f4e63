//! Per-layer measurement from outside: counter snapshots taken at phase
//! boundaries, and a quiescent single-thread probe that times codec and
//! `MoistTables` calls on the populated tables and counts store ops per
//! write and per query at each op boundary; and the per-layer metrics a
//! traced run reports, computed from those and from the traced loop's
//! spans.

use crate::checks::flag_levels;
use crate::stats::{mean, median, percentile, ratio, Metrics};
use crate::tier::Tier;
use crate::workload::Spec;
use crate::workload::{derive, region_window, OpStream, Rng, MAP, NN_K, REGION_MARGIN};
use crate::Measured;
use moist::archive::{PppStats, RECORD_BYTES};
use moist::bigtable::{MetricsSnapshot, Timestamp};
use moist::core::{
    FlagStats, IngestStats, LfRecord, LocationRecord, ObjectId, Result, ServerStats,
};
use moist::spatial::Point;
use std::hint::black_box;
use std::time::Instant;

/// Tier-wide counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub server: ServerStats,
    pub ingest: IngestStats,
    pub flag: FlagStats,
    pub replica_reads: u64,
    pub ppp: PppStats,
    pub disk_pages_read: u64,
    pub store: MetricsSnapshot,
}

pub fn counters(tier: &Tier, now: Timestamp) -> Result<Counters> {
    let cluster = &tier.cluster;
    let mut flag = FlagStats::default();
    for shard in 0..cluster.num_shards() {
        let f = cluster.with_shard_read(shard, |s| s.flag_stats())?;
        flag.cache_hits += f.cache_hits;
        flag.cache_misses += f.cache_misses;
        flag.probes += f.probes;
    }
    let (ppp, disk_pages_read) = match &tier.archiver {
        Some(a) => (a.stats(), a.disk_stats().iter().map(|d| d.pages_read).sum()),
        None => (PppStats::default(), 0),
    };
    Ok(Counters {
        server: cluster.stats(),
        ingest: cluster.ingest_stats(),
        flag,
        replica_reads: cluster.cluster_stats(now).replica_reads,
        ppp,
        disk_pages_read,
        store: tier.store.metrics_snapshot(),
    })
}

/// What the quiescent probe measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Updates applied by the write-path sample.
    pub updates: u64,
    pub update_ops: MetricsSnapshot,
    /// Virtual µs all shards spent on the write-path sample.
    pub update_virt_us: f64,
    pub queries: u64,
    pub query_ops: MetricsSnapshot,
    /// p50 wall µs of an NN on one shard (`MoistServer::nn_at_level`
    /// under the read guard), and of the tier's NN over that (ring
    /// scatter and merge), on warm FLAG caches.
    pub nn_server_us: f64,
    pub nn_residual_us: f64,
    pub location_encode_ns: f64,
    pub location_decode_ns: f64,
    pub lf_decode_ns: f64,
    pub point_read_us: f64,
    pub scan_row_ns: f64,
    /// Spatial Index rows: one per school leader.
    pub leaders: u64,
}

/// Reports in the write-path sample (ten ingest batches).
const WRITE_SAMPLE: usize = 640;
/// Queries in the read-path sample, and NN queries in the NN timing.
const QUERY_SAMPLE: usize = 40;
/// Objects whose rows the codec and table timings read.
const ROW_SAMPLE: u64 = 1000;
/// Passes over the row sample for the codec timings.
const CODEC_PASSES: usize = 200;

pub fn probe(tier: &Tier, stream: &mut OpStream, seed: u64, at: Timestamp) -> Result<Probe> {
    let cluster = &tier.cluster;
    let spec = tier.spec;
    let mut p = Probe::default();

    // The workload's write path, one report at a time.
    let m0 = tier.store.metrics_snapshot();
    let v0: f64 = cluster.shard_elapsed_us().iter().sum();
    for _ in 0..WRITE_SAMPLE {
        let msg = stream.next_update();
        if spec.ingest {
            cluster.submit(&msg)?;
        } else {
            cluster.update(&msg)?;
        }
    }
    if spec.ingest {
        cluster.drain_ingest()?;
    }
    p.updates = WRITE_SAMPLE as u64;
    p.update_ops = tier.store.metrics_snapshot().delta(&m0);
    p.update_virt_us = cluster.shard_elapsed_us().iter().sum::<f64>() - v0;

    // The workload's store-backed queries (history is served by the
    // archiver, not the store).
    let mix = spec.mix;
    if mix.nn + mix.region > 0.0 {
        let mut rng = Rng::new(derive(seed, 8, 0x9e));
        let m0 = tier.store.metrics_snapshot();
        for _ in 0..QUERY_SAMPLE {
            let c = Point::new(rng.unit() * MAP, rng.unit() * MAP);
            if rng.unit() * (mix.nn + mix.region) < mix.nn {
                cluster.nn(c, NN_K, at)?;
            } else {
                cluster.region(&region_window(&mut rng, c), at, REGION_MARGIN)?;
            }
        }
        p.queries = QUERY_SAMPLE as u64;
        p.query_ops = tier.store.metrics_snapshot().delta(&m0);
    }

    // NN through the tier, and the same query on its home shard alone at
    // that shard's level: the difference is what the tier adds on top.
    // Every shard's FLAG cache is filled first, so both calls hit it.
    if mix.nn > 0.0 {
        let mut rng = Rng::new(derive(seed, 8, 0x9f));
        let (mut server_us, mut residual_us) = (Vec::new(), Vec::new());
        for _ in 0..QUERY_SAMPLE {
            let c = Point::new(rng.unit() * MAP, rng.unit() * MAP);
            let shard = cluster.shard_for_point(&c);
            let level = flag_levels(cluster, &c, at)?[shard];
            let t0 = Instant::now();
            cluster.nn(c, NN_K, at)?;
            let tier_us = t0.elapsed().as_secs_f64() * 1e6;
            let one_us = cluster.with_shard_read(shard, |s| {
                let t0 = Instant::now();
                s.nn_at_level(c, NN_K, at, level)
                    .map(|_| t0.elapsed().as_secs_f64() * 1e6)
            })??;
            server_us.push(one_us);
            residual_us.push(tier_us - one_us);
        }
        p.nn_server_us = median(&mut server_us);
        p.nn_residual_us = median(&mut residual_us);
    }

    // Codec and table calls on the populated tables.
    let cfg = tier.cfg;
    let flag_points: Vec<Point> = {
        let mut rng = Rng::new(derive(seed, 9, 0x5c));
        (0..8)
            .map(|_| Point::new(rng.unit() * MAP, rng.unit() * MAP))
            .collect()
    };
    let mut levels = Vec::new();
    for pt in &flag_points {
        levels.push(cluster.with_shard_read(0, |s| s.flag_level(pt, at))??);
    }
    let sampled = ROW_SAMPLE.min(spec.population);
    cluster.with_shard_read(0, |server| -> Result<()> {
        let tables = server.tables();
        let mut s = tier.store.session();
        let t0 = Instant::now();
        let mut records = Vec::new();
        for oid in 0..sampled {
            if let Some((_, rec)) = tables.latest_location(&mut s, ObjectId(oid))? {
                records.push(rec);
            }
        }
        p.point_read_us = t0.elapsed().as_secs_f64() * 1e6 / sampled.max(1) as f64;

        let mut lfs = Vec::new();
        for oid in 0..sampled {
            if let Some(lf) = tables.lf(&mut s, ObjectId(oid))? {
                lfs.push(lf.encode());
            }
        }
        let encoded: Vec<_> = records.iter().map(|r| r.encode()).collect();
        let n = (records.len() * CODEC_PASSES).max(1) as f64;
        let t0 = Instant::now();
        for _ in 0..CODEC_PASSES {
            for r in &records {
                black_box(black_box(r).encode());
            }
        }
        p.location_encode_ns = t0.elapsed().as_nanos() as f64 / n;
        let t0 = Instant::now();
        for _ in 0..CODEC_PASSES {
            for b in &encoded {
                black_box(LocationRecord::decode(black_box(b))?);
            }
        }
        p.location_decode_ns = t0.elapsed().as_nanos() as f64 / n;
        let n_lf = (lfs.len() * CODEC_PASSES).max(1) as f64;
        let t0 = Instant::now();
        for _ in 0..CODEC_PASSES {
            for b in &lfs {
                black_box(LfRecord::decode(black_box(b))?);
            }
        }
        p.lf_decode_ns = t0.elapsed().as_nanos() as f64 / n_lf;

        // One FLAG-level cell scan per sampled point, per row returned.
        let mut rows = 0usize;
        let t0 = Instant::now();
        for (pt, &level) in flag_points.iter().zip(&levels) {
            let cell = cfg.space.cell_at(level, pt);
            rows += tables
                .spatial_scan_cell(&mut s, cell, cfg.space.leaf_level, None)?
                .len();
        }
        p.scan_row_ns = t0.elapsed().as_nanos() as f64 / rows.max(1) as f64;

        let leaf_end = 1u64 << (2 * cfg.space.leaf_level as u32);
        p.leaders = tables.spatial_scan_range(&mut s, 0, leaf_end, None)?.len() as u64;
        Ok(())
    })??;
    Ok(p)
}

/// Per-layer metrics (traced run), named by module.
pub(crate) fn per_layer(spec: &Spec, m: &mut Measured) -> Metrics {
    let mut out = Metrics::default();
    let (log, before, after, traced_secs) = m.traced.as_mut().expect("traced run");
    let tr = log.tracer.as_mut().expect("traced phase has a tracer");
    let mut p50 = |name: &str| median(&mut tr.take(name));

    // cluster_tier
    let route = p50("cluster_tier.route");
    let tier_update = p50("cluster_tier.update");
    let write_wait_samples = tr.take("server.write_wait");
    let mut ww = write_wait_samples.clone();
    let write_wait = median(&mut ww);
    let mut server_update = tr.take("server.update");
    let server_update = median(&mut server_update);
    out.put("cluster_tier.route_us", route, "us");
    out.put(
        "cluster_tier.update_residual_us",
        if tier_update > 0.0 {
            tier_update - route - write_wait - server_update
        } else {
            0.0
        },
        "us",
    );
    let probe = m.probe.unwrap_or_default();
    out.put("cluster_tier.nn_residual_us", probe.nn_residual_us, "us");
    let nn_n = log.nn.len() as f64;
    let region_n = log.region.len() as f64;
    out.put(
        "cluster_tier.nn_shards",
        ratio(log.nn.iter().map(|s| s.shards_scattered as f64).sum(), nn_n),
        "count",
    );
    out.put(
        "cluster_tier.region_shards",
        ratio(
            log.region.iter().map(|s| s.shards_scattered as f64).sum(),
            region_n,
        ),
        "count",
    );
    out.put(
        "cluster_tier.slices_rebalanced",
        ratio(
            log.region.iter().map(|s| s.slices_rebalanced as f64).sum(),
            region_n,
        ),
        "count",
    );
    // Follower-served reads (NN anchors and region slices) per query.
    out.put(
        "cluster_tier.replica_reads_per_query",
        ratio(
            (after.replica_reads - before.replica_reads) as f64,
            nn_n + region_n,
        ),
        "count",
    );

    // server: the shard lock, and the calls made under it.
    let mut ww = write_wait_samples;
    out.put("server.write_wait_p50_us", percentile(&mut ww, 0.5), "us");
    out.put("server.write_wait_p99_us", percentile(&mut ww, 0.99), "us");
    let mut rw = tr.take("server.read_wait");
    out.put("server.read_wait_p50_us", percentile(&mut rw, 0.5), "us");
    out.put("server.read_wait_p99_us", percentile(&mut rw, 0.99), "us");
    out.put("server.update_us", server_update, "us");
    out.put("server.nn_us", probe.nn_server_us, "us");

    // update (Algorithm 1)
    let srv =
        |f: fn(&moist::core::ServerStats) -> u64| (f(&after.server) - f(&before.server)) as f64;
    let updates = srv(|s| s.updates);
    out.put(
        "update.virt_us",
        ratio(probe.update_virt_us, probe.updates as f64),
        "us",
    );
    out.put("update.shed_frac", ratio(srv(|s| s.shed), updates), "ratio");
    out.put(
        "update.leader_frac",
        ratio(srv(|s| s.leader_updates), updates),
        "ratio",
    );
    out.put(
        "update.departed_frac",
        ratio(srv(|s| s.departures), updates),
        "ratio",
    );

    // ingest
    let ing =
        |f: fn(&moist::core::IngestStats) -> u64| (f(&after.ingest) - f(&before.ingest)) as f64;
    let flushed = ing(|s| s.flushed_updates);
    out.put(
        "ingest.avg_batch",
        ratio(flushed, ing(|s| s.batches)),
        "count",
    );
    out.put(
        "ingest.queue_wait_virt_us",
        ratio(ing(|s| s.queue_wait_us), flushed),
        "us",
    );
    out.put(
        "ingest.refused_frac",
        ratio(
            ing(|s| s.backpressure) + ing(|s| s.overload_shed),
            ing(|s| s.submitted),
        ),
        "ratio",
    );
    out.put(
        "ingest.enqueue_us",
        median(&mut tr.take("ingest.enqueue")),
        "us",
    );
    let mut flush = tr.take("ingest.flush");
    flush.append(&mut tr.take("ingest.flush_due"));
    out.put("ingest.flush_p50_us", percentile(&mut flush, 0.5), "us");
    out.put("ingest.flush_p99_us", percentile(&mut flush, 0.99), "us");

    // cluster (Algorithm 3's sweeps)
    let mut sweep = tr.take("cluster.sweep");
    out.put("cluster.sweep_p50_us", percentile(&mut sweep, 0.5), "us");
    out.put("cluster.sweep_p99_us", percentile(&mut sweep, 0.99), "us");
    let sweep_virt: Vec<f64> = log.sweeps.iter().map(|r| r.total_us()).collect();
    out.put("cluster.sweep_virt_us", mean(&sweep_virt), "us");
    let merged: f64 = log.sweeps.iter().map(|r| r.merged as f64).sum();
    let aborts: f64 = log.sweeps.iter().map(|r| r.merge_aborts as f64).sum();
    out.put(
        "cluster.merge_abort_frac",
        ratio(aborts, merged + aborts),
        "ratio",
    );
    out.put(
        "cluster.leaders_per_object",
        ratio(probe.leaders as f64, spec.population as f64),
        "ratio",
    );

    // nn / flag
    let leaders: f64 = log.nn.iter().map(|s| s.leaders_fetched as f64).sum();
    out.put(
        "nn.cells_scanned",
        ratio(log.nn.iter().map(|s| s.cells_scanned as f64).sum(), nn_n),
        "count",
    );
    out.put("nn.leaders_fetched", ratio(leaders, nn_n), "count");
    out.put(
        "nn.useful_frac",
        ratio(log.nn_returned as f64, leaders),
        "ratio",
    );
    let hits = (after.flag.cache_hits - before.flag.cache_hits) as f64;
    let misses = (after.flag.cache_misses - before.flag.cache_misses) as f64;
    out.put("flag.hit_frac", ratio(hits, hits + misses), "ratio");
    out.put(
        "flag.probes_per_miss",
        ratio((after.flag.probes - before.flag.probes) as f64, misses),
        "count",
    );

    // region
    let region_leaders: f64 = log.region.iter().map(|s| s.leaders_fetched as f64).sum();
    out.put(
        "region.ranges_scanned",
        ratio(
            log.region.iter().map(|s| s.ranges_scanned as f64).sum(),
            region_n,
        ),
        "count",
    );
    out.put(
        "region.leaders_fetched",
        ratio(region_leaders, region_n),
        "count",
    );
    out.put(
        "region.useful_frac",
        ratio(log.region_hits as f64, region_leaders),
        "ratio",
    );

    // codec / tables (quiescent probe)
    out.put("codec.location_encode_ns", probe.location_encode_ns, "ns");
    out.put("codec.location_decode_ns", probe.location_decode_ns, "ns");
    out.put("codec.lf_decode_ns", probe.lf_decode_ns, "ns");
    out.put("tables.point_read_us", probe.point_read_us, "us");
    out.put("tables.scan_row_ns", probe.scan_row_ns, "ns");

    // bigtable: store ops at the write and query boundaries; write
    // amplification is over one user report's bytes (a history record).
    let pu = probe.updates as f64;
    let pq = probe.queries as f64;
    let (uo, qo) = (probe.update_ops, probe.query_ops);
    out.put(
        "bigtable.reads_per_update",
        ratio(uo.read_ops as f64, pu),
        "count",
    );
    out.put(
        "bigtable.writes_per_update",
        ratio(uo.write_ops as f64, pu),
        "count",
    );
    out.put(
        "bigtable.batches_per_update",
        ratio(uo.batch_ops as f64, pu),
        "count",
    );
    out.put(
        "bigtable.scans_per_query",
        ratio(qo.scan_ops as f64, pq),
        "count",
    );
    out.put(
        "bigtable.rows_per_query",
        ratio((qo.rows_read + qo.rows_scanned) as f64, pq),
        "count",
    );
    out.put(
        "bigtable.bytes_read_per_query",
        ratio(qo.bytes_read as f64, pq),
        "bytes",
    );
    out.put(
        "bigtable.write_amp",
        ratio(uo.bytes_written as f64, RECORD_BYTES as f64 * pu),
        "ratio",
    );

    // wal (durable workload only)
    let st = after.store.delta(&before.store);
    out.put(
        "wal.bytes_per_write_byte",
        ratio(st.wal_bytes as f64, st.bytes_written as f64),
        "ratio",
    );
    let (ckpt_s, ckpt_bytes) = m.checkpoint.unwrap_or_default();
    out.put("wal.checkpoint_s", ckpt_s, "s");
    out.put(
        "wal.snapshot_bytes_per_object",
        ratio(ckpt_bytes as f64, spec.population as f64),
        "bytes",
    );
    let (rec_times, replayed) = m.recovery.clone().unwrap_or_default();
    let mut rec_times = rec_times;
    out.put("wal.replayed_records", replayed as f64, "count");
    out.put(
        "wal.replay_us_per_record",
        ratio(median(&mut rec_times) * 1e6, replayed as f64),
        "us",
    );

    // archive
    let hist_n = log.history.len() as f64;
    out.put(
        "archive.records_per_update",
        ratio(
            (after.ppp.records_ingested - before.ppp.records_ingested) as f64,
            updates,
        ),
        "ratio",
    );
    out.put("archive.flushes", after.ppp.flushes as f64, "count");
    out.put(
        "archive.max_flush_virt_ms",
        after.ppp.max_flush_secs * 1e3,
        "ms",
    );
    out.put(
        "archive.pages_per_query",
        ratio(
            (after.disk_pages_read - before.disk_pages_read) as f64,
            hist_n,
        ),
        "count",
    );
    out.put(
        "archive.disks_per_query",
        ratio(
            log.history.iter().map(|c| c.disks_touched as f64).sum(),
            hist_n,
        ),
        "count",
    );
    out.put(
        "archive.mem_served_frac",
        ratio(
            log.history
                .iter()
                .filter(|c| c.parallel_secs == 0.0)
                .count() as f64,
            hist_n,
        ),
        "ratio",
    );
    out.put(
        "archive.query_p50_us",
        median(&mut tr.take("archive.query")),
        "us",
    );

    // generator and tracing overhead
    let traced_ops = ratio(log.completed as f64, *traced_secs);
    let untraced_ops = m.closed_ops_per_s();
    out.put(
        "trace.overhead_frac",
        1.0 - ratio(traced_ops, untraced_ops),
        "ratio",
    );
    out
}
