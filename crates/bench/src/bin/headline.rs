//! The paper's headline numbers (§1 and §4):
//!
//! 1. single-server MOIST (ε = 0, no schooling) vs the Bx-tree on update
//!    QPS at 1M objects — "8,000+ updates per second … 2x better than
//!    3,000+ QPS of Bx-tree";
//! 2. update shedding on the road network — "about 80% of the updates …
//!    are shed by object schools";
//! 3. the combined leverage — "with 10 servers and object schools, MOIST
//!    achieves update QPS of 60k …, showing a nearly 80x speedup over
//!    Bx-tree" (client-visible updates = store updates / (1 − shed)).
//!
//! The Bx-tree runs with the disk-B+-tree cost profile of the benchmark the
//! paper cites (its ref. 6); MOIST runs with the BigTable profile. Both indexes
//! execute their real algorithms; only the per-op cost constants differ.

use moist::bigtable::{Bigtable, Timestamp};
use moist::core::{MoistConfig, MoistServer, ObjectId, UpdateMessage};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig};
use moist_bench::{
    bx_update_qps, moist_update_qps, smoke_mode, Figure, Series, HEADLINE_SMOKE_ROWS,
    STORE_WRITE_CAPACITY_OPS,
};

/// The §1 shed claim, measured on the road network at school-friendly
/// parameters (dense co-movement, generous ε — the deployment regime).
fn shed_ratio(agents: u64, horizon_secs: f64) -> f64 {
    let cfg = MoistConfig {
        epsilon: 50.0,
        delta_m: 2.0,
        clustering_level: 1,
        ..MoistConfig::default()
    };
    let store = Bigtable::new();
    let mut server = MoistServer::new(&store, cfg).expect("server");
    let mut sim = RoadNetSim::new(
        RoadMap::new(RoadMapConfig::default()),
        SimConfig {
            agents,
            seed: 77,
            ..SimConfig::default()
        },
    );
    let mut t = 0.0;
    while t < horizon_secs {
        t += 10.0;
        for u in sim.advance_until(t) {
            server
                .update(&UpdateMessage {
                    oid: ObjectId(u.oid),
                    loc: u.loc,
                    vel: u.vel,
                    ts: Timestamp::from_secs_f64(u.at_secs),
                })
                .expect("update");
        }
        server
            .run_due_clustering(Timestamp::from_secs_f64(t))
            .expect("cluster");
    }
    server.stats().shed_ratio()
}

fn main() {
    // Smoke mode (CI): a small population and few updates — the numbers
    // drift from the paper's but every code path still runs end to end.
    let smoke = smoke_mode();
    let (population, measured, shed_agents, shed_secs) = if smoke {
        let (population, measured) = HEADLINE_SMOKE_ROWS;
        (population, measured, 300, 120.0)
    } else {
        (1_000_000, 30_000, 1000, 240.0)
    };
    println!("measuring single-server update QPS at {population} objects...");
    let moist_qps = moist_update_qps(population, measured);
    let bx_qps = bx_update_qps(population, measured);
    println!("measuring road-network shed ratio ({shed_agents} objects, {shed_secs} s)...");
    let shed = shed_ratio(shed_agents, shed_secs);

    let ten_server_store_qps = (10.0 * moist_qps).min(STORE_WRITE_CAPACITY_OPS);
    let effective_qps = ten_server_store_qps / (1.0 - shed).max(0.05);

    let mut fig = Figure::new(
        if smoke { "headline_smoke" } else { "headline" },
        format!("Headline update-QPS comparison ({population} objects)"),
        "row",
        "updates/s",
    );
    let mut series = Series::new("updates/s");
    series.push(1.0, bx_qps);
    series.push(2.0, moist_qps);
    series.push(3.0, ten_server_store_qps);
    series.push(4.0, effective_qps);
    fig.add(series);
    fig.save().expect("save");

    println!("\n================= headline results =================");
    println!("  [1] Bx-tree single server:            {bx_qps:>10.0} updates/s");
    println!("  [2] MOIST single server (no school):  {moist_qps:>10.0} updates/s");
    println!("  [3] MOIST 10 servers (store-limited): {ten_server_store_qps:>10.0} updates/s");
    println!(
        "  [4] + schooling shed ratio {:>5.1}%  ->  {effective_qps:>10.0} client updates/s",
        shed * 100.0
    );
    println!("----------------------------------------------------");
    println!(
        "  MOIST single vs Bx:       {:>6.1}x   (paper: ~2x, 8k vs 3k)",
        moist_qps / bx_qps
    );
    println!(
        "  10 servers vs single:     {:>6.1}x   (paper: near-linear, store-capped)",
        ten_server_store_qps / moist_qps
    );
    println!(
        "  effective vs Bx:          {:>6.1}x   (paper: 'nearly 80x')",
        effective_qps / bx_qps
    );
}
