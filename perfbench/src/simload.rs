//! `sim_table1` and `sim_blocking`: replicated network simulation
//! through `run_network_replicated_with_engine(.., threads = 1, Auto)`.
//!
//! One op is one runner call on a short block of replications whose
//! seeds derive from the workload seed and the op index, followed by a
//! merge into the run's accumulator. Ops are kept short (tens of
//! milliseconds) so a run holds a few hundred of them, and run on one
//! thread so an op never waits for a second worker.

use crate::trace::{Recorder, OP};
use crate::{Checked, Workload};
use banyan_prng::{RngCore, SplitMix64};
use banyan_repro::core::total_delay::TotalWaiting;
use banyan_repro::obs::{Telemetry, TelemetryConfig};
use banyan_repro::sim::{
    run_network_replicated_with_engine, NetworkConfig, NetworkSim, NetworkStats, ReplicationEngine,
    Workload as Traffic,
};
use std::marker::PhantomData;
use std::time::Instant;

/// Largest relative distance of an op's mean total wait from the §V
/// closed form `TotalWaiting::mean_total` on `sim_table1`. At 4 × 1000
/// measured cycles of a 64-port network the sampling error is about
/// 0.7% (400 ops all fell within ±2.1%), so 5% is a seven-sigma
/// bound that still fails an engine whose waits drift.
pub const MEAN_TOTAL_TOLERANCE: f64 = 0.05;

/// Ops `1..=COUNT_OPS` give the per-layer counts, so a count depends
/// only on the seed and not on how many ops a run completes.
const COUNT_OPS: u64 = 32;

/// A simulated workload's fixed shape.
pub trait Spec {
    /// Replications per op.
    const REPS: u32;
    /// Whether `Auto` must pick the lane stage sweep (else scalar).
    const LANES: bool;
    /// The network configuration, seed aside.
    fn config() -> NetworkConfig;
}

/// The Table-I family on 64 ports: k = 2, 6 stages, p = 0.5, unit
/// messages, infinite buffers, tag routing. `Auto` runs the lane
/// stage sweep on it.
pub struct Table1;

impl Spec for Table1 {
    const REPS: u32 = 4;
    const LANES: bool = true;
    fn config() -> NetworkConfig {
        let mut cfg = NetworkConfig::new(2, 6, Traffic::uniform(0.5, 1));
        cfg.warmup_cycles = 200;
        cfg.measure_cycles = 1_000;
        cfg
    }
}

/// The same family on 256 ports with 4-message buffers: §VI
/// store-and-forward blocking, which `Auto` runs on the scalar
/// `NetworkSim`.
pub struct Blocking;

impl Spec for Blocking {
    const REPS: u32 = 2;
    const LANES: bool = false;
    fn config() -> NetworkConfig {
        let mut cfg = NetworkConfig::new(2, 8, Traffic::uniform(0.5, 1));
        cfg.buffer_capacity = Some(4);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 250;
        cfg
    }
}

/// Base seed of op `i`: replication `j` of the op runs with
/// `base + j`, the runner's seeding convention.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn op_config<S: Spec>(seed: u64, i: u64) -> NetworkConfig {
    let mut cfg = S::config();
    cfg.seed = op_seed(seed, i);
    cfg
}

fn auto(cfg: &NetworkConfig, reps: u32, tel: &Telemetry) -> NetworkStats {
    run_network_replicated_with_engine(cfg, reps, 1, tel, ReplicationEngine::Auto)
}

/// The runner's scalar path spelled out through the public pieces:
/// one `NetworkSim` per replication, merged in replication order.
/// With a recorder, each call is a span under `root`. Returns the merged
/// statistics and each replication's `run` time in nanoseconds.
fn scalar_composition(
    cfg: &NetworkConfig,
    reps: u32,
    mut rec: Option<(&mut Recorder, usize)>,
) -> (NetworkStats, Vec<f64>) {
    let mut acc: Option<NetworkStats> = None;
    let mut run_ns = Vec::new();
    for j in 0..u64::from(reps) {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(j);
        let sim = timed(&mut rec, "network.new", || NetworkSim::new(c));
        let t = Instant::now();
        let stats = timed(&mut rec, "network.run", || sim.run());
        run_ns.push(t.elapsed().as_nanos() as f64);
        match &mut acc {
            None => acc = Some(stats),
            Some(a) => timed(&mut rec, "stats.merge", || a.merge(&stats)),
        }
    }
    (acc.expect("reps > 0"), run_ns)
}

fn timed<T>(
    rec: &mut Option<(&mut Recorder, usize)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match rec {
        Some((r, root)) => r.span(*root, name, f),
        None => f(),
    }
}

/// Statistics rendered with every float in shortest round-trip form:
/// equal strings mean bit-identical statistics.
fn fingerprint(s: &NetworkStats) -> String {
    format!("{s:?}")
}

/// Checks made once, before the set-up clock, on op 0: the engine
/// `Auto` picks (from the run log), bit identity of an instrumented and
/// a plain call, and — for the scalar family — bit identity with the
/// runner's path spelled out.
fn check_engine<S: Spec>(seed: u64) -> Result<u64, String> {
    let cfg = op_config::<S>(seed, 0);
    let tel = Telemetry::new(TelemetryConfig::on());
    let logged = auto(&cfg, S::REPS, &tel);
    let log = tel.run_log_json();
    // One lane per replication; the trailing space ends the tag.
    let want = if S::LANES {
        format!("engine=lanes{} ", S::REPS)
    } else {
        "engine=scalar ".to_string()
    };
    if !log.contains(&want) {
        return Err(format!("Auto did not log {want}: {log}"));
    }
    let plain = auto(&cfg, S::REPS, &Telemetry::off());
    // Telemetry adds per-stage histograms; every other statistic must
    // be bit-identical.
    let mut logged = logged;
    logged.stage_hists = None;
    if fingerprint(&plain) != fingerprint(&logged) {
        return Err("Auto results differ with telemetry on".to_string());
    }
    if !S::LANES {
        let (spelled, _) = scalar_composition(&cfg, S::REPS, None);
        if fingerprint(&spelled) != fingerprint(&plain) {
            return Err("NetworkSim::new/run composition differs from the runner".to_string());
        }
    }
    Ok(tel.registry().counter_value("net.lane_runs").unwrap_or(0))
}

/// Inputs shared by every set-up of a run.
pub struct Prep {
    seed: u64,
    analytic_mean: f64,
    engine: Result<u64, String>,
}

/// A simulated workload instance.
pub struct Sim<S: Spec> {
    seed: u64,
    analytic_mean: f64,
    engine: Result<u64, String>,
    tel: Telemetry,
    /// The run accumulator every op merges into.
    acc: NetworkStats,
    /// Sums over ops `1..=COUNT_OPS`: delivered, injected, rejected.
    counted: [u64; 3],
    lanes_ns_per_msg: Vec<f64>,
    scalar_ns_per_msg: Vec<f64>,
    run_ns_per_msg: Vec<f64>,
    scalar_identical: bool,
    spec: PhantomData<S>,
}

impl<S: Spec> Sim<S> {
    /// Per-op checks: every tracked message delivered, the conservation
    /// ledger closed, and on the Table-I family the mean total wait
    /// within [`MEAN_TOTAL_TOLERANCE`] of §V.
    fn op_ok(&self, s: &NetworkStats) -> bool {
        let delivered = s.delivered == s.injected && s.delivered > 0;
        let ledger = s.injected_total == s.delivered_total + s.in_flight_at_end;
        let mean = !S::LANES
            || (s.total_wait.mean() / self.analytic_mean - 1.0).abs() <= MEAN_TOTAL_TOLERANCE;
        delivered && ledger && mean
    }
}

impl<S: Spec> Workload for Sim<S> {
    type Prep = Prep;
    type Out = NetworkStats;

    fn prepare(seed: u64) -> Result<Prep, String> {
        let cfg = S::config();
        let analytic_mean = TotalWaiting::new(cfg.k, cfg.stages, 0.5, 1).mean_total();
        Ok(Prep {
            seed,
            analytic_mean,
            engine: check_engine::<S>(seed),
        })
    }

    fn setup(prep: &Prep) -> Result<Self, String> {
        let tel = Telemetry::off();
        let acc = auto(&op_config::<S>(prep.seed, 0), S::REPS, &tel);
        let sim = Sim {
            seed: prep.seed,
            analytic_mean: prep.analytic_mean,
            engine: prep.engine.clone(),
            tel,
            acc,
            counted: [0; 3],
            lanes_ns_per_msg: Vec::new(),
            scalar_ns_per_msg: Vec::new(),
            run_ns_per_msg: Vec::new(),
            scalar_identical: true,
            spec: PhantomData,
        };
        if !sim.op_ok(&sim.acc) {
            return Err("warm-up op failed its checks".to_string());
        }
        Ok(sim)
    }

    fn op(&mut self, i: u64) -> NetworkStats {
        let s = auto(&op_config::<S>(self.seed, i), S::REPS, &self.tel);
        self.acc.merge(&s);
        s
    }

    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> NetworkStats {
        let cfg = op_config::<S>(self.seed, i);
        let root = rec.begin_op(i, OP);
        let s = if S::LANES {
            let t = Instant::now();
            let s = rec.span(root, "runner.call", || auto(&cfg, S::REPS, &self.tel));
            let ns = t.elapsed().as_nanos() as f64;
            self.lanes_ns_per_msg.push(ns / s.delivered_total as f64);
            s
        } else {
            let (s, run_ns) = scalar_composition(&cfg, S::REPS, Some((&mut *rec, root)));
            // Replications of one op deliver nearly equal counts; the
            // per-message figure uses the op's mean.
            let per_rep = s.delivered_total as f64 / f64::from(S::REPS);
            self.run_ns_per_msg
                .extend(run_ns.iter().map(|ns| ns / per_rep));
            s
        };
        rec.span(root, "stats.merge", || self.acc.merge(&s));
        rec.close(root);
        rec.end_op();
        if S::LANES {
            // The same op on the scalar engine, outside the op's spans:
            // it must be bit-identical, and its time per message is the
            // base of `lanes.speedup_vs_scalar`.
            let t = Instant::now();
            let scalar = run_network_replicated_with_engine(
                &cfg,
                S::REPS,
                1,
                &self.tel,
                ReplicationEngine::Scalar,
            );
            let ns = t.elapsed().as_nanos() as f64;
            self.scalar_ns_per_msg
                .push(ns / scalar.delivered_total as f64);
            self.scalar_identical &= fingerprint(&scalar) == fingerprint(&s);
        }
        s
    }

    fn check(&mut self, i: u64, s: NetworkStats) -> Checked {
        if i <= COUNT_OPS {
            self.counted[0] += s.delivered_total;
            self.counted[1] += s.injected_total;
            self.counted[2] += s.rejected_total;
        }
        Checked {
            ok: self.op_ok(&s),
            items: s.delivered_total,
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        self.engine.clone()?;
        if !self.scalar_identical {
            return Err("Scalar re-run of a traced op is not bit-identical to Auto".to_string());
        }
        if !self.op_ok(&self.acc) {
            return Err("the run accumulator fails the per-op checks".to_string());
        }
        Ok(())
    }

    fn layer_extras(&mut self) -> Vec<(&'static str, f64)> {
        let [delivered, injected, rejected] = self.counted;
        let mut out = vec![
            ("sim.msgs_per_op", delivered as f64 / COUNT_OPS as f64),
            ("runner.lane_ops", self.engine.clone().unwrap_or(0) as f64),
            (
                "network.accept_ratio",
                injected as f64 / (injected + rejected) as f64,
            ),
        ];
        if S::LANES {
            let lanes = crate::stats::median(&self.lanes_ns_per_msg);
            let scalar = crate::stats::median(&self.scalar_ns_per_msg);
            out.push(("lanes.ns_per_msg", lanes));
            out.push(("network.scalar_ns_per_msg", scalar));
            out.push(("lanes.speedup_vs_scalar", scalar / lanes));
        } else {
            out.push((
                "network.run_ns_per_msg",
                crate::stats::median(&self.run_ns_per_msg),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_replication_seeds() {
        assert_eq!(op_seed(1, 5), op_seed(1, 5));
        assert_ne!(op_seed(1, 5), op_seed(2, 5));
        assert_ne!(op_seed(1, 5), op_seed(1, 6));
        let ops: std::collections::BTreeSet<u64> = (0..1000).map(|i| op_seed(7, i)).collect();
        assert_eq!(ops.len(), 1000, "op seeds must not collide");
        assert_eq!(op_config::<Table1>(9, 3).seed, op_seed(9, 3));
        assert_eq!(op_config::<Blocking>(9, 3).seed, op_seed(9, 3));
    }

    #[test]
    fn blocking_composition_matches_the_runner() {
        let mut cfg = op_config::<Blocking>(1, 1);
        cfg.warmup_cycles = 20;
        cfg.measure_cycles = 40;
        let mut rec = Recorder::new();
        let root = rec.begin_op(1, OP);
        let (spelled, run_ns) = scalar_composition(&cfg, 2, Some((&mut rec, root)));
        rec.close(root);
        rec.end_op();
        assert_eq!(run_ns.len(), 2);
        let summary = rec.layer_summary();
        for layer in ["network.new", "network.run", "stats.merge"] {
            assert!(
                summary
                    .iter()
                    .any(|&(n, _, share)| n == layer && share > 0.0),
                "{layer}"
            );
        }
        assert_eq!(
            fingerprint(&spelled),
            fingerprint(&auto(&cfg, 2, &Telemetry::off()))
        );
        assert!(
            spelled.rejected_total > 0,
            "4-message buffers must block at p = 0.5"
        );
    }
}
