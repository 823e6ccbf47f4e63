//! Figure 19 (repo extension) — the price of durability and the cost of
//! coming back.
//!
//! The paper runs on production BigTable and gets tablet durability for
//! free; this repo's in-memory store did not, until the per-table WAL
//! landed. This bin quantifies what that WAL costs on the §4.1
//! road-network update workload, across fsync cadences:
//!
//! * **update QPS** — synchronous [`MoistCluster::update`] throughput
//!   under `Durability::None` vs `Durability::Wal` at
//!   `fsync_every ∈ {1, 8, 64, 0}` (0 = no explicit fsync). Group
//!   commit should recover most of the fsync tax; the append + byte
//!   charges remain.
//! * **write amplification** — WAL bytes appended (frame headers
//!   included) per payload byte the tier asked the store to write.
//!   Identical across cadences by construction: the cadence changes
//!   *when* data hits the platter, not how much.
//! * **recovery** — after each durable run the store is dropped
//!   mid-flight (no checkpoint, nothing graceful) and
//!   [`ClusterBuilder::recover`](moist::core::ClusterBuilder::recover)
//!   replays the full log; the replay is priced with
//!   [`CostProfile::replay_us`]. A checkpoint on the
//!   recovered tier then truncates the logs, and a second recovery must
//!   replay exactly zero records — the snapshot path, measured.
//!
//! The `Durability::None` QPS series doubles as the regression sentinel
//! for the acceptance bar "fig13–18 unchanged with durability off": it
//! runs the same update path those figures exercise and sits in the CI
//! drop gate. Amplification and recovery series are `(noisy)`-exempt —
//! both are lower-is-better, so an improvement would read as a >15%
//! "drop" and fail the job.

use moist::bigtable::{Bigtable, CostProfile, Durability, StoreConfig, Timestamp};
use moist::core::{MoistCluster, MoistConfig, ObjectId, UpdateMessage};
use moist::workload::{ClientPool, RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use moist_bench::{smoke_mode, Figure, Series};
use std::path::PathBuf;
use std::sync::Mutex;

struct Scale {
    shards: usize,
    clients: usize,
    agents_per_client: u64,
    warmup_secs: f64,
    measure_secs: f64,
}

impl Scale {
    fn full() -> Self {
        Scale {
            shards: 4,
            clients: 2,
            agents_per_client: 800,
            warmup_secs: 30.0,
            measure_secs: 120.0,
        }
    }

    fn smoke() -> Self {
        Scale {
            shards: 2,
            clients: 2,
            agents_per_client: 200,
            warmup_secs: 10.0,
            measure_secs: 30.0,
        }
    }
}

fn tier_config() -> MoistConfig {
    MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 3,
        cluster_interval_secs: 10.0,
        ..MoistConfig::default()
    }
}

/// One durability setting under test: `None` is the in-memory baseline,
/// `Some(n)` is `Durability::Wal { fsync_every: n }`.
struct Setting {
    label: &'static str,
    fsync_every: Option<u64>,
}

const SETTINGS: &[Setting] = &[
    Setting {
        label: "none",
        fsync_every: None,
    },
    Setting {
        label: "wal fsync=1",
        fsync_every: Some(1),
    },
    Setting {
        label: "wal fsync=8",
        fsync_every: Some(8),
    },
    Setting {
        label: "wal fsync=64",
        fsync_every: Some(64),
    },
    Setting {
        label: "wal nofsync",
        fsync_every: Some(0),
    },
];

fn wal_dir(label: &str) -> PathBuf {
    let slug: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    std::env::temp_dir().join(format!("moist_fig19_{}_{slug}", std::process::id()))
}

fn store_config(setting: &Setting, dir: &std::path::Path) -> StoreConfig {
    let durability = match setting.fsync_every {
        None => Durability::None,
        Some(every) => Durability::Wal {
            dir: dir.to_path_buf(),
            fsync_every: every,
        },
    };
    StoreConfig {
        durability,
        ..StoreConfig::default()
    }
}

/// Drives every simulator to `until` in 5-second steps through the
/// synchronous update path, interleaving due clustering runs.
fn drive(cluster: &MoistCluster, sims: &[Mutex<RoadNetSim>], until: f64) {
    let shards = cluster.num_shards();
    ClientPool::run(sims.len(), |i| {
        let mut sim = sims[i].lock().expect("sim lock");
        let oid_base = i as u64 * 10_000_000;
        let mut t = sim.now_secs();
        while t < until {
            t = (t + 5.0).min(until);
            for u in sim.advance_until(t) {
                cluster
                    .update(&UpdateMessage {
                        oid: ObjectId(oid_base + u.oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(u.at_secs),
                    })
                    .expect("update");
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
}

struct Measured {
    store_qps: f64,
    /// WAL bytes per payload byte written (0 for `Durability::None`).
    write_amp: f64,
    /// Modelled replay cost of a crash recovery, virtual ms
    /// (0 for `Durability::None`, which has nothing to recover).
    recovery_ms: f64,
    replayed_records: u64,
}

fn run_one(setting: &Setting, scale: &Scale) -> Measured {
    let dir = wal_dir(setting.label);
    let _ = std::fs::remove_dir_all(&dir);
    let store = Bigtable::with_config(store_config(setting, &dir));
    let cluster = MoistCluster::builder(&store, tier_config())
        .shards(scale.shards)
        .build()
        .expect("cluster");
    let sims: Vec<Mutex<RoadNetSim>> = (0..scale.clients)
        .map(|i| {
            Mutex::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: scale.agents_per_client,
                    seed: 9000 + i as u64,
                    ..SimConfig::default()
                },
            ))
        })
        .collect();
    drive(&cluster, &sims, scale.warmup_secs);
    cluster.reset_clocks();
    let before = cluster.stats();
    let m_before = store.metrics_snapshot();
    drive(&cluster, &sims, scale.warmup_secs + scale.measure_secs);
    let updates = cluster.stats().updates - before.updates;
    let shed = cluster.stats().shed - before.shed;
    assert!(updates > 0, "workload produced no updates");
    let m = store.metrics_snapshot().delta(&m_before);
    let busiest_secs = cluster.max_elapsed_us() / 1e6;
    let store_qps = (updates - shed) as f64 / busiest_secs.max(1e-9);
    let write_amp = m.wal_bytes as f64 / m.bytes_written.max(1) as f64;

    if setting.fsync_every.is_none() {
        assert_eq!(m.wal_appends, 0, "Durability::None must never touch a WAL");
        return Measured {
            store_qps,
            write_amp: 0.0,
            recovery_ms: 0.0,
            replayed_records: 0,
        };
    }
    assert!(m.wal_appends > 0 && m.wal_bytes > 0);

    // Crash: drop the tier and the store mid-flight, then come back.
    drop(cluster);
    drop(store);
    let profile = CostProfile::default();
    let (_store, recovered, report) = MoistCluster::builder(&Bigtable::new(), tier_config())
        .shards(scale.shards)
        .recover(store_config(setting, &dir))
        .expect("recover");
    assert!(report.tables >= 3, "MOIST tables must recover: {report:?}");
    assert!(report.replayed_records > 0, "crash must leave a log tail");
    let recovery_ms = profile.replay_us(report.replayed_records, report.replayed_bytes) / 1e3;

    // Checkpoint the recovered tier; a second recovery must be pure
    // snapshot load — zero records replayed.
    recovered.checkpoint().expect("checkpoint");
    drop(recovered);
    let (_store2, _again, report2) = MoistCluster::builder(&Bigtable::new(), tier_config())
        .shards(scale.shards)
        .recover(store_config(setting, &dir))
        .expect("re-recover");
    assert_eq!(
        report2.replayed_records, 0,
        "checkpoint must truncate the logs: {report2:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Measured {
        store_qps,
        write_amp,
        recovery_ms,
        replayed_records: report.replayed_records,
    }
}

fn main() {
    let smoke = smoke_mode();
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let id = if smoke {
        "fig19_durability_smoke"
    } else {
        "fig19_durability"
    };

    let mut fig = Figure::new(
        id,
        "Durability tax and recovery: update QPS by fsync cadence, WAL write amplification, and modelled crash-replay cost (road network)",
        "setting index (0 = none, then wal fsync=1/8/64/none)",
        "updates/s (QPS series) / ratio (amplification) / virtual ms (recovery)",
    );
    let mut qps_series = Series::new("update QPS by durability");
    let mut amp_series = Series::new("WAL write amplification (noisy)");
    let mut rec_series = Series::new("crash recovery virtual ms (noisy)");

    println!(
        "{:>12}  {:>10}  {:>8}  {:>12}  {:>10}",
        "setting", "store q/s", "wal amp", "replayed", "recover ms"
    );
    let mut measured = Vec::new();
    for (idx, setting) in SETTINGS.iter().enumerate() {
        let m = run_one(setting, &scale);
        println!(
            "{:>12}  {:>10.0}  {:>8.2}  {:>12}  {:>10.2}",
            setting.label, m.store_qps, m.write_amp, m.replayed_records, m.recovery_ms
        );
        qps_series.push(idx as f64, m.store_qps);
        if setting.fsync_every.is_some() {
            amp_series.push(idx as f64, m.write_amp);
            rec_series.push(idx as f64, m.recovery_ms);
        }
        measured.push(m);
    }
    fig.add(qps_series);
    fig.add(amp_series);
    fig.add(rec_series);
    fig.print();
    fig.save().expect("save");

    // The tax is real but bounded: per-write fsync costs the most, group
    // commit at 64 recovers most of it, and even fsync=1 keeps more than
    // a third of the in-memory throughput under the default profile.
    let none = measured[0].store_qps;
    let fsync1 = measured[1].store_qps;
    let fsync64 = measured[3].store_qps;
    assert!(
        none > fsync1,
        "durability must cost something: none {none:.0} vs fsync=1 {fsync1:.0}"
    );
    assert!(
        fsync64 > fsync1,
        "group commit must beat per-write fsync: {fsync64:.0} vs {fsync1:.0}"
    );
    assert!(
        fsync1 > none / 3.0,
        "fsync=1 tax implausibly large: {fsync1:.0} vs none {none:.0}"
    );
    for m in &measured[1..] {
        assert!(
            m.write_amp > 1.0,
            "frame headers make amplification exceed 1: {}",
            m.write_amp
        );
    }
    println!(
        "durability tax: fsync=1 keeps {:.0}% of in-memory QPS, fsync=64 keeps {:.0}%",
        100.0 * fsync1 / none,
        100.0 * fsync64 / none
    );
}
