//! The three workloads and their seeded op streams.
//!
//! Each of the two [`OpStream`]s (one per client thread in an open loop)
//! owns its own slice of the population (object ids `2·j + thread`, so
//! every object's reports come from one stream in time order, as one
//! device's stream does), its own simulator and its own RNG, all derived
//! from the workload seed. The stream interleaves the simulator's reports
//! with queries drawn from the workload's mix, and with the
//! once-per-simulated-second ticks (clustering, ingest deadline flush)
//! that real clients drive on this tier, which runs no background threads.

use moist::bigtable::Timestamp;
use moist::core::{MoistConfig, ObjectId, UpdateMessage};
use moist::spatial::{Point, Rect};
use moist::workload::{RoadMap, RoadMapConfig, RoadNetSim, SimConfig, UniformSim};
use std::collections::VecDeque;

/// Client threads; each owns half the population.
pub const THREADS: usize = 2;
/// Neighbours asked of every NN query.
pub const NN_K: usize = 10;
/// Region-query margin: one clustering cell at level 3 (125 world units),
/// enough to catch followers whose leader sits just outside the window.
pub const REGION_MARGIN: f64 = 125.0;
/// The map every workload runs on (the paper's 1 km² road network).
pub const MAP: f64 = 1000.0;

/// Which of the three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    UpdateNoschool,
    FleetIngest,
    NnHotspot,
}

/// Share of each op type in a workload's mix (ticks come on top).
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub update: f64,
    pub nn: f64,
    pub region: f64,
    /// History queries answered from the archiver's in-memory window.
    pub history_mem: f64,
    /// History queries reaching archived disk pages.
    pub history_disk: f64,
}

/// Everything that defines one workload. All values are constants: the
/// offered rate is never derived at run time, so a parent commit and a
/// change see the same load.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub population: u64,
    pub shards: usize,
    pub replicas: usize,
    /// Updates go through `submit` (batched ingest) instead of `update`.
    pub ingest: bool,
    /// Durable WAL store instead of in-memory.
    pub wal: bool,
    /// A PPP archiver is attached (history queries need it).
    pub archiver: bool,
    /// Clustering ticks run (workloads with schooling on).
    pub clustering: bool,
    pub mix: Mix,
    /// Open-loop offered rate, ops/s over both threads.
    pub offered_ops_s: f64,
    /// Sets the closed loop's fixed op count, ops per second of closed
    /// loop asked for (about the repository's capacity with one client, so
    /// a run lasts about `--seconds`).
    pub closed_ops_s: f64,
    /// Simulated seconds of reports applied during setup.
    pub warm_secs: f64,
    /// Open-loop p99 latency limits per op type, µs (update, nn, region,
    /// history; 0 where the mix has none): the offered rate is set so the
    /// repository meets them with headroom.
    pub p99_limit_us: [f64; 4],
}

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.iter().copied().find(|s| s.name == name)
    }

    /// The tier configuration: schooling off for the single-server
    /// headline, the paper's road-network settings otherwise.
    pub fn config(&self) -> MoistConfig {
        match self.kind {
            Kind::UpdateNoschool => MoistConfig::without_schooling(),
            Kind::FleetIngest | Kind::NnHotspot => MoistConfig {
                epsilon: 50.0,
                delta_m: 2.0,
                clustering_level: 3,
                cluster_interval_secs: 10.0,
                ..MoistConfig::default()
            },
        }
    }

    /// A copy at a smaller population (the benchmark's own tests).
    pub fn scaled(mut self, population: u64) -> Spec {
        self.population = population;
        self
    }
}

const NO_QUERIES: Mix = Mix {
    update: 1.0,
    nn: 0.0,
    region: 0.0,
    history_mem: 0.0,
    history_disk: 0.0,
};

pub const ALL: [Spec; 3] = [
    Spec {
        name: "update_noschool",
        kind: Kind::UpdateNoschool,
        population: 200_000,
        shards: 1,
        replicas: 1,
        ingest: false,
        wal: false,
        archiver: false,
        clustering: false,
        mix: NO_QUERIES,
        offered_ops_s: 20_000.0,
        closed_ops_s: 65_000.0,
        warm_secs: 0.0,
        p99_limit_us: [5_000.0, 0.0, 0.0, 0.0],
    },
    Spec {
        name: "fleet_ingest",
        kind: Kind::FleetIngest,
        population: 20_000,
        shards: 4,
        replicas: 1,
        ingest: true,
        wal: true,
        archiver: true,
        clustering: true,
        mix: Mix {
            update: 0.959,
            nn: 0.001,
            region: 0.0,
            history_mem: 0.02,
            history_disk: 0.02,
        },
        offered_ops_s: 1_000.0,
        closed_ops_s: 85_000.0,
        warm_secs: 20.0,
        p99_limit_us: [25_000.0, 50_000.0, 0.0, 25_000.0],
    },
    Spec {
        name: "nn_hotspot",
        kind: Kind::NnHotspot,
        population: 20_000,
        shards: 4,
        replicas: 2,
        ingest: false,
        wal: false,
        archiver: false,
        clustering: true,
        mix: Mix {
            update: 0.10,
            nn: 0.72,
            region: 0.18,
            history_mem: 0.0,
            history_disk: 0.0,
        },
        offered_ops_s: 100.0,
        closed_ops_s: 250.0,
        warm_secs: 20.0,
        p99_limit_us: [25_000.0, 60_000.0, 100_000.0, 0.0],
    },
];

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    Update(UpdateMessage),
    Nn {
        center: Point,
        at: Timestamp,
    },
    Region {
        rect: Rect,
        at: Timestamp,
    },
    History {
        oid: ObjectId,
        from: Timestamp,
        to: Timestamp,
    },
    /// Once per simulated second: due clustering (and the ingest deadline
    /// flush on workloads that batch).
    Tick {
        now: Timestamp,
    },
}

/// Op classes a latency or a count is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Update,
    Nn,
    Region,
    History,
    Tick,
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Update(_) => Class::Update,
            Op::Nn { .. } => Class::Nn,
            Op::Region { .. } => Class::Region,
            Op::History { .. } => Class::History,
            Op::Tick { .. } => Class::Tick,
        }
    }
}

/// A region query's window around `c`: a square, log-uniform from a
/// street block (100 units) to a quarter of the map (500 × 500), clamped
/// to the map.
pub fn region_window(rng: &mut Rng, c: Point) -> Rect {
    let half = 50.0 * 5f64.powf(rng.unit());
    Rect::new(
        (c.x - half).max(0.0),
        (c.y - half).max(0.0),
        (c.x + half).min(MAP),
        (c.y + half).min(MAP),
    )
}

/// splitmix64: a small, stable RNG, so the schedule depends on the seed
/// alone and not on any library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Seed of one derived generator (thread, purpose) under the run seed.
pub fn derive(seed: u64, thread: usize, salt: u64) -> u64 {
    Rng::new(seed ^ (thread as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F) ^ salt).next_u64()
}

/// The business centres: a few fixed spots of the map (like its road
/// grid, part of the workload, not of the seed) where most `nn_hotspot`
/// queries land, so the FLAG cache hits there. Seeds vary which centre a
/// query picks and where around it, not how dense the centres are.
pub const HOT_CENTERS: [Point; 8] = [
    Point { x: 150.0, y: 250.0 },
    Point { x: 450.0, y: 150.0 },
    Point { x: 750.0, y: 250.0 },
    Point { x: 850.0, y: 550.0 },
    Point { x: 650.0, y: 850.0 },
    Point { x: 350.0, y: 750.0 },
    Point { x: 150.0, y: 650.0 },
    Point { x: 500.0, y: 500.0 },
];

/// Side of the square around a business centre its queries land in.
const HOT_SPAN: f64 = 125.0;

enum Sim {
    Uniform(Box<UniformSim>),
    Road(Box<RoadNetSim>),
}

/// Uniform movers report from t = 1 s, so their registration (at 1 s)
/// precedes every later report.
const UNIFORM_T0: f64 = 1.0;
/// Reports the uniform simulator generates per refill: small, so no
/// refill delays an open-loop op by much.
const REFILL: usize = 128;
/// Simulated seconds the road simulator advances per refill.
const ROAD_STEP: f64 = 0.25;
/// Road agents first report within one maximum update interval (5 s).
const REGISTER_BY_SECS: f64 = 5.0;

/// One client thread's seeded op stream.
pub struct OpStream {
    spec: Spec,
    thread: usize,
    sim: Sim,
    rng: Rng,
    pending: VecDeque<UpdateMessage>,
    /// Simulated time of the latest report handed out.
    now_secs: f64,
    next_tick: f64,
    objects: u64,
}

impl OpStream {
    pub fn new(spec: Spec, seed: u64, thread: usize) -> Self {
        let objects = spec.population / THREADS as u64
            + u64::from((thread as u64) < spec.population % THREADS as u64);
        let sim_seed = derive(seed, thread, 0x51);
        let sim = match spec.kind {
            Kind::UpdateNoschool => Sim::Uniform(Box::new(
                UniformSim::new(Rect::new(0.0, 0.0, MAP, MAP), objects, 2.0, 5.0, sim_seed)
                    .with_velocity_walk(0.5),
            )),
            Kind::FleetIngest | Kind::NnHotspot => Sim::Road(Box::new(RoadNetSim::new(
                RoadMap::new(RoadMapConfig::default()),
                SimConfig {
                    agents: objects,
                    seed: sim_seed,
                    ..SimConfig::default()
                },
            ))),
        };
        OpStream {
            spec,
            thread,
            sim,
            rng: Rng::new(derive(seed, thread, 0x0b5)),
            pending: VecDeque::new(),
            now_secs: 0.0,
            next_tick: 1.0,
            objects,
        }
    }

    /// Object id of this thread's `j`-th object.
    pub fn oid(&self, j: u64) -> ObjectId {
        ObjectId(j * THREADS as u64 + self.thread as u64)
    }

    /// Simulated seconds reached so far.
    pub fn now_secs(&self) -> f64 {
        self.now_secs
    }

    /// Registration reports: every object of this thread once. Uniform
    /// movers register at their start positions; road agents report on
    /// their own cadence, all within the first five simulated seconds.
    pub fn registrations(&mut self) -> Vec<UpdateMessage> {
        match &mut self.sim {
            Sim::Uniform(sim) => {
                let t = self.thread as u64;
                sim.positions()
                    .into_iter()
                    .map(|(j, loc, vel)| UpdateMessage {
                        oid: ObjectId(j * THREADS as u64 + t),
                        loc,
                        vel,
                        ts: Timestamp::from_secs_f64(UNIFORM_T0),
                    })
                    .collect()
            }
            Sim::Road(_) => {
                let mut out = Vec::new();
                loop {
                    if self.pending.is_empty() {
                        self.refill();
                    }
                    match self.pending.front() {
                        Some(m) if m.ts.as_secs_f64() < REGISTER_BY_SECS => {}
                        _ => return out,
                    }
                    out.extend(self.pop_report());
                }
            }
        }
    }

    fn refill(&mut self) {
        let t = self.thread as u64;
        let map = |oid: u64| ObjectId(oid * THREADS as u64 + t);
        match &mut self.sim {
            Sim::Uniform(sim) => {
                for u in sim.next_updates(REFILL) {
                    self.pending.push_back(UpdateMessage {
                        oid: map(u.oid),
                        loc: u.loc,
                        vel: u.vel,
                        ts: Timestamp::from_secs_f64(UNIFORM_T0 + u.at_secs),
                    });
                }
            }
            Sim::Road(sim) => {
                while self.pending.is_empty() {
                    let until = sim.now_secs() + ROAD_STEP;
                    for u in sim.advance_until(until) {
                        self.pending.push_back(UpdateMessage {
                            oid: map(u.oid),
                            loc: u.loc,
                            vel: u.vel,
                            ts: Timestamp::from_secs_f64(u.at_secs),
                        });
                    }
                }
            }
        }
    }

    fn pop_report(&mut self) -> Option<UpdateMessage> {
        if self.pending.is_empty() {
            self.refill();
        }
        let m = self.pending.pop_front()?;
        self.now_secs = self.now_secs.max(m.ts.as_secs_f64());
        Some(m)
    }

    /// The tick due at the current simulated time, if this thread owns it
    /// (threads take alternate seconds, so the tier sees one tick per
    /// simulated second).
    fn due_tick(&mut self) -> Option<Op> {
        let ticks = self.spec.clustering || self.spec.ingest;
        while ticks && self.now_secs >= self.next_tick {
            let second = self.next_tick;
            self.next_tick += 1.0;
            if second as usize % THREADS == self.thread {
                return Some(Op::Tick {
                    now: Timestamp::from_secs_f64(second),
                });
            }
        }
        None
    }

    /// The next report.
    pub fn next_update(&mut self) -> UpdateMessage {
        self.pop_report().expect("simulators never run dry")
    }

    /// The next op of the warm-up: reports and ticks only.
    pub fn next_warm_op(&mut self) -> Op {
        self.due_tick()
            .unwrap_or_else(|| Op::Update(self.next_update()))
    }

    /// The next op of the mix.
    pub fn next_op(&mut self) -> Op {
        if let Some(tick) = self.due_tick() {
            return tick;
        }
        let mix = self.spec.mix;
        let mut r = self.rng.unit();
        if r < mix.update {
            return Op::Update(self.next_update());
        }
        r -= mix.update;
        let at = Timestamp::from_secs_f64(self.now_secs);
        if r < mix.nn {
            return Op::Nn {
                center: self.query_center(),
                at,
            };
        }
        r -= mix.nn;
        if r < mix.region {
            let c = self.query_center();
            let rect = region_window(&mut self.rng, c);
            return Op::Region { rect, at };
        }
        r -= mix.region;
        let j = (self.rng.unit() * self.objects as f64) as u64;
        let oid = self.oid(j);
        let now_us = at.0;
        if r < mix.history_mem {
            // The last few seconds: inside the archiver's in-memory window.
            let from = Timestamp(now_us.saturating_sub(5_000_000));
            return Op::History { oid, from, to: at };
        }
        // Everything older than 15 s: aged out of the in-memory window
        // (a few reports per object) onto archived pages.
        Op::History {
            oid,
            from: Timestamp::ZERO,
            to: Timestamp(now_us.saturating_sub(15_000_000)),
        }
    }

    /// Query centre: 80% near a business centre on the hotspot workload,
    /// uniform otherwise.
    fn query_center(&mut self) -> Point {
        if self.spec.kind == Kind::NnHotspot && self.rng.unit() < 0.8 {
            let h = HOT_CENTERS[(self.rng.unit() * HOT_CENTERS.len() as f64) as usize];
            // Anywhere in the centre's block: wide enough that the density
            // a query meets does not hinge on a handful of agents.
            Point::new(
                (h.x + (self.rng.unit() - 0.5) * HOT_SPAN).clamp(0.0, MAP),
                (h.y + (self.rng.unit() - 0.5) * HOT_SPAN).clamp(0.0, MAP),
            )
        } else {
            Point::new(self.rng.unit() * MAP, self.rng.unit() * MAP)
        }
    }
}
