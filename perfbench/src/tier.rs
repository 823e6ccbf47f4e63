//! Building a workload's tier through `ClusterBuilder`, and set-up:
//! registering the population and warming schools, FLAG and archiver.

use crate::workload::{Op, OpStream, Spec, HOT_CENTERS, NN_K, THREADS};
use moist::archive::{PppArchiver, PppConfig};
use moist::bigtable::{Bigtable, Durability, StoreConfig, Timestamp};
use moist::core::{ClusterBuilder, IngestConfig, MoistCluster, MoistConfig, Result};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// WAL fsync cadence of the durable workload: none explicit, the page
/// cache decides. Every write still appends to the log and recovery
/// replays it. At `fsync_every = 64` a shared virtual disk's sync latency
/// spread the workload's wall figures 0.16–0.37 over seeds (README.md).
const FSYNC_EVERY: u64 = 0;

/// A small archiver, so aged columns flush to the disks several times a
/// run: at the 1 MiB default the buffer never fills in a run this short.
/// Columns of four records age out after a few reports per object.
pub fn archiver_config() -> PppConfig {
    PppConfig {
        total_buffer_bytes: 32 * 1024,
        column_records: 4,
        ..PppConfig::default()
    }
}

pub struct Tier {
    pub spec: Spec,
    pub cfg: MoistConfig,
    pub store: Arc<Bigtable>,
    pub cluster: MoistCluster,
    pub archiver: Option<Arc<PppArchiver>>,
}

pub fn store_config(wal_dir: Option<&Path>) -> StoreConfig {
    StoreConfig {
        durability: match wal_dir {
            Some(dir) => Durability::Wal {
                dir: dir.to_path_buf(),
                fsync_every: FSYNC_EVERY,
            },
            None => Durability::None,
        },
        ..StoreConfig::default()
    }
}

/// The builder with every knob the workload sets; fresh construction and
/// crash recovery both go through it.
pub fn builder(
    spec: &Spec,
    store: &Arc<Bigtable>,
    archiver: &Option<Arc<PppArchiver>>,
) -> ClusterBuilder {
    let mut b = MoistCluster::builder(store, spec.config())
        .shards(spec.shards)
        .replicas(spec.replicas);
    if spec.ingest {
        b = b.ingest(IngestConfig::default());
    }
    if let Some(a) = archiver {
        b = b.archiver(Arc::clone(a));
    }
    b
}

pub fn build(spec: &Spec, wal_dir: Option<PathBuf>) -> Result<Tier> {
    if let Some(dir) = &wal_dir {
        // A stale directory would be replayed into the fresh tier.
        let _ = std::fs::remove_dir_all(dir);
    }
    let store = Bigtable::with_config(store_config(wal_dir.as_deref()));
    let cfg = spec.config();
    let archiver = spec
        .archiver
        .then(|| Arc::new(PppArchiver::new(cfg.space, archiver_config())));
    let cluster = builder(spec, &store, &archiver).build()?;
    Ok(Tier {
        spec: *spec,
        cfg,
        store,
        cluster,
        archiver,
    })
}

/// One set-up: build the tier, register every object, then apply
/// `warm_secs` of simulated reports (with their clustering ticks) through
/// the synchronous path, and prime FLAG at the business centres. Returns
/// the tier, the two op streams positioned after the warm-up, and the
/// number of acknowledged updates.
pub fn setup(
    spec: &Spec,
    seed: u64,
    wal_dir: Option<PathBuf>,
) -> Result<(Tier, Vec<OpStream>, u64)> {
    let tier = build(spec, wal_dir)?;
    let mut streams: Vec<OpStream> = (0..THREADS)
        .map(|t| OpStream::new(*spec, seed, t))
        .collect();
    let cluster = &tier.cluster;
    let acked: Result<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .map(|stream| {
                scope.spawn(move || -> Result<u64> {
                    let mut acked = 0u64;
                    for msg in stream.registrations() {
                        cluster.update(&msg)?;
                        acked += 1;
                    }
                    while stream.now_secs() < spec.warm_secs {
                        match stream.next_warm_op() {
                            Op::Update(msg) => {
                                cluster.update(&msg)?;
                                acked += 1;
                            }
                            Op::Tick { now } => {
                                cluster.run_due_clustering(now)?;
                            }
                            _ => unreachable!("the warm-up issues reports and ticks only"),
                        }
                    }
                    Ok(acked)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("set-up thread panicked"))
            .collect()
    });
    let acked = acked?.into_iter().sum();
    if spec.mix.nn > 0.0 {
        let at = Timestamp::from_secs_f64(spec.warm_secs);
        for c in HOT_CENTERS {
            cluster.nn(c, NN_K, at)?;
        }
    }
    Ok((tier, streams, acked))
}
