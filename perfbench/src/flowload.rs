//! `flow_mesh`: the `/v1/flow` answer (`serve::flow::flow_body`, which
//! `banyan flow --json` prints) for a 2-D XY-routed mesh.
//!
//! The traced op rebuilds the same body from the public pieces that
//! `flow_body` calls, in its order and with its call counts, so each
//! piece gets a span: graph build, stream decomposition, moments, gamma
//! quantiles, rendering. The rebuilt body must be byte-identical to
//! `flow_body`'s.

use crate::trace::{Recorder, OP};
use crate::{Checked, Workload};
use banyan_prng::rngs::SmallRng;
use banyan_prng::{Rng, SeedableRng};
use banyan_repro::flow::FlowAnalysis;
use banyan_repro::obs::json::{JsonObject, JsonValue};
use banyan_repro::serve::answer::{LEVELS, LEVEL_LABELS};
use banyan_repro::serve::flow::{flow_body, FlowQuery, Topo, FLOW_SCHEMA};
use banyan_repro::stats::Gamma;
use std::hint::black_box;

/// Mesh side: a 4 × 4 mesh carries 240 all-to-all flows, and one
/// answer takes about 25 ms, so a run holds several hundred answers.
pub const MESH_SIDE: usize = 4;

/// The numbers of one flow's answer row.
struct FlowNumbers {
    mean_wait: f64,
    var_wait: f64,
    mean_delay: f64,
    wait_q: [f64; 4],
    delay_q: [f64; 4],
}

/// `flow_body(q)` rebuilt from its public pieces with a span around
/// each. Returns the body and the number of gamma quantile
/// evaluations.
pub fn traced_flow_body(
    q: &FlowQuery,
    rec: &mut Recorder,
    parent: usize,
) -> Result<(String, u64), String> {
    let graph = rec.span(parent, "topo.build", || q.build_graph());
    let an = rec.span(parent, "engine.decompose", || FlowAnalysis::new(&graph))?;
    let flows = graph.flows().len();
    let mut quantiles = 0u64;
    let mut rows = Vec::with_capacity(flows);
    // Flow by flow, as `flow_body` goes, so each layer meets the caches
    // it meets there.
    for (f, flow) in graph.flows().iter().enumerate() {
        // `flow_body` evaluates `mean_wait` 7 times and `var_wait` 6
        // times per flow: once each in `gamma`, once each for the wait
        // row, `mean_wait` once more in `mean_delay`, and once each in
        // the `gamma` of every one of the four `delay_quantile` levels.
        let (mean, var, shift) = rec.span(parent, "engine.moments", || {
            for _ in 0..5 {
                black_box((an.mean_wait(f), an.var_wait(f)));
            }
            black_box(an.mean_wait(f));
            (an.mean_wait(f), an.var_wait(f), an.total_service(f) as f64)
        });
        let n = rec.span(parent, "gamma.quantile", || {
            // `gamma(f)` once for the wait row and once per delay level.
            let gammas: Vec<Option<Gamma>> =
                (0..5).map(|_| Gamma::from_mean_var(mean, var)).collect();
            let mut wait_q = [0.0; 4];
            let mut delay_q = [shift; 4];
            for (l, &level) in LEVELS.iter().enumerate() {
                if let Some(g) = &gammas[0] {
                    wait_q[l] = g.quantile(level);
                    quantiles += 1;
                }
                if let Some(g) = &gammas[l + 1] {
                    delay_q[l] = shift + g.quantile(level);
                    quantiles += 1;
                }
            }
            FlowNumbers {
                mean_wait: mean,
                var_wait: var,
                mean_delay: mean + shift,
                wait_q,
                delay_q,
            }
        });
        rows.push(rec.span(parent, "flow.render", || {
            let mut row = JsonObject::new();
            row.field_u64("id", f as u64)
                .field_str("src", &graph.nodes()[flow.src].name)
                .field_str("dst", &graph.nodes()[flow.dst].name)
                .field_u64("hops", flow.path.len() as u64)
                .field_f64("rate", flow.rate);
            let mut wait = JsonObject::new();
            wait.field_f64("mean", n.mean_wait)
                .field_f64("var", n.var_wait);
            for (label, v) in LEVEL_LABELS.iter().zip(n.wait_q) {
                wait.field_f64(label, v);
            }
            row.field_raw("wait", &wait.finish());
            let mut delay = JsonObject::new();
            delay.field_f64("mean", n.mean_delay);
            for (label, v) in LEVEL_LABELS.iter().zip(n.delay_q) {
                delay.field_f64(label, v);
            }
            row.field_raw("delay", &delay.finish());
            row.finish()
        }));
    }
    let body = rec.span(parent, "flow.render", || {
        let mut o = JsonObject::new();
        o.field_str("schema", FLOW_SCHEMA)
            .field_str("source", "flow-analytic")
            .field_str("topo", &q.topo.label());
        let mut cfg = JsonObject::new();
        cfg.field_f64("p", q.p).field_u64("m", u64::from(q.m));
        o.field_raw("config", &cfg.finish());
        o.field_u64("nodes", graph.nodes().len() as u64)
            .field_u64("links", graph.links().len() as u64)
            .field_u64("flows", flows as u64);
        o.field_raw("per_flow", &format!("[{}]", rows.join(", ")));
        let mut body = o.finish();
        body.push('\n');
        body
    });
    Ok((body, quantiles))
}

/// Inputs shared by every set-up of a run.
pub struct Prep {
    query: FlowQuery,
    expected: String,
    flows: u64,
}

/// A `flow_mesh` instance.
pub struct FlowMesh {
    query: FlowQuery,
    expected: String,
    flows: u64,
    quantiles_per_op: u64,
}

impl Workload for FlowMesh {
    type Prep = Prep;
    type Out = Result<String, String>;

    fn prepare(seed: u64) -> Result<Prep, String> {
        // The seed picks the load in [0.45, 0.55]: different gamma
        // shapes, all at nearly the same cost.
        let mut rng = SmallRng::seed_from_u64(seed);
        let p = (450 + rng.gen_range(0..101u32)) as f64 / 1000.0;
        let query = FlowQuery {
            topo: Topo::Mesh {
                rows: MESH_SIDE,
                cols: MESH_SIDE,
            },
            p,
            m: 1,
        };
        let expected = flow_body(&query)?;
        let doc = JsonValue::parse(&expected).map_err(|e| format!("answer is not JSON: {e}"))?;
        let flows = doc
            .get("flows")
            .and_then(JsonValue::as_u64)
            .ok_or("answer has no flow count")?;
        Ok(Prep {
            query,
            expected,
            flows,
        })
    }

    fn setup(prep: &Prep) -> Result<Self, String> {
        let mut w = FlowMesh {
            query: prep.query.clone(),
            expected: prep.expected.clone(),
            flows: prep.flows,
            quantiles_per_op: 0,
        };
        let warm = w.op(0);
        if !w.check(0, warm).ok {
            return Err("warm-up answer differs from the prepared one".to_string());
        }
        Ok(w)
    }

    fn op(&mut self, _i: u64) -> Result<String, String> {
        flow_body(&self.query)
    }

    fn traced_op(&mut self, i: u64, rec: &mut Recorder) -> Result<String, String> {
        let root = rec.begin_op(i, OP);
        let out = traced_flow_body(&self.query, rec, root);
        rec.close(root);
        rec.end_op();
        out.map(|(body, quantiles)| {
            self.quantiles_per_op = quantiles;
            body
        })
    }

    /// The answer must be byte-identical to the one prepared (and
    /// parsed with `obs::json`) before set-up.
    fn check(&mut self, _i: u64, out: Result<String, String>) -> Checked {
        Checked {
            ok: out.is_ok_and(|body| body == self.expected),
            items: self.flows,
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn layer_extras(&mut self) -> Vec<(&'static str, f64)> {
        vec![
            ("flow.flows_per_op", self.flows as f64),
            ("gamma.calls_per_op", self.quantiles_per_op as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_rebuild_is_byte_identical_to_flow_body() {
        for topo in [
            Topo::Mesh { rows: 2, cols: 3 },
            Topo::Omega { k: 2, stages: 3 },
        ] {
            for p in [0.0, 0.3, 0.6] {
                let q = FlowQuery {
                    topo: topo.clone(),
                    p,
                    m: 1,
                };
                let mut rec = Recorder::new();
                let root = rec.begin_op(0, OP);
                let (body, quantiles) = traced_flow_body(&q, &mut rec, root).unwrap();
                rec.close(root);
                rec.end_op();
                assert_eq!(body, flow_body(&q).unwrap(), "{topo:?} p={p}");
                let flows = q.build_graph().flows().len() as u64;
                assert_eq!(quantiles, if p == 0.0 { 0 } else { 8 * flows });
            }
        }
    }
}
