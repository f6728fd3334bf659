//! `serve_mix`: an in-process `banyan serve` daemon answering a seeded
//! closed-loop request stream over one keep-alive connection.
//!
//! The stream is mostly analytic `/query` requests over a key space
//! larger than the answer cache, with Zipf popularity, so hits, misses
//! and FIFO evictions all occur; some `/v1/flow` requests on small
//! topologies; and an occasional `/v1/batch`. No request simulates:
//! simulation is measured by the two sim workloads.
//!
//! The mix is synthetic. The repository holds no recorded traffic, so
//! the constants below are chosen to give that shape, each for the
//! effect named beside it; they should be replaced by figures from a
//! recorded access log (`banyan serve --access-log`) once one is
//! committed.
//!
//! The traced op sends the request, then replays it in process through
//! the same public calls the daemon makes (`http::read_request`,
//! `Query::from_json`, `cache_key`, the answer cache, `for_query`,
//! `analytic_body`, `flow_body`'s pieces, `http::write_response`), each
//! in a span. Client latency minus the replay is the transport: socket
//! I/O, the daemon's dispatch, counters and its operations plane.

use crate::flowload::traced_flow_body;
use crate::trace::Recorder;
use crate::{Checked, Workload};
use banyan_prng::rngs::SmallRng;
use banyan_prng::{Rng, SeedableRng};
use banyan_repro::obs::json::{JsonObject, JsonValue};
use banyan_repro::serve::answer::{analytic_body, AnalyticModel};
use banyan_repro::serve::cache::{AnswerCache, CachedAnswer};
use banyan_repro::serve::flow::{flow_body, FlowQuery};
use banyan_repro::serve::http::{
    read_request, write_response, Client, ClientResponse, Response, DEFAULT_MAX_BODY_BYTES,
};
use banyan_repro::serve::query::Query;
use banyan_repro::serve::{ServeConfig, ServerHandle};
use std::sync::Arc;
use std::time::Instant;

/// Answer-cache capacity, the daemon's default.
pub const CACHE_CAP: usize = 1024;
/// Requests sent by each set-up after spawning the daemon, so the timed
/// phase starts with a full cache and evicts from its first miss: about
/// 2,800 requests fill it, and set-up checks that it is full.
const WARM_REQUESTS: u64 = 4_000;
/// Requests over which `cache.hit_ratio` is counted (warm-up included).
const COUNT_REQUESTS: u64 = 20_000;
/// Zipf exponent of `/query` popularity: skewed enough that most
/// requests hit the 1024-entry cache (`cache.hit_ratio` 0.76), with a
/// tail over the 3,888 keys long enough that a quarter miss and evict.
const ZIPF_S: f64 = 1.0;
/// Share of requests that are `/v1/flow`: a minority.
const P_FLOW: f64 = 0.12;
/// Share of requests that are `/v1/batch`: occasional, yet a few
/// hundred in each one-second window, so every window holds some.
const P_BATCH: f64 = 0.03;
/// Batch sizes, inclusive: each batch costs several requests' work,
/// so batches form part of the latency tail.
const BATCH_SIZES: (u64, u64) = (4, 16);
/// Share of batch elements that are flow queries, near their share of
/// single requests.
const P_BATCH_FLOW: f64 = 0.1;

/// One cacheable configuration: its request body, canonical cache key,
/// and the answer body computed in process before set-up.
pub struct Entry {
    request: String,
    key: String,
    answer: String,
}

/// Every configuration the stream can ask for.
pub struct Universe {
    queries: Vec<Entry>,
    flows: Vec<Entry>,
    /// Cumulative popularity of `flows`.
    flow_cdf: Vec<f64>,
}

/// Analytic capacity queries: k ∈ {2, 4, 8}, 1–12 stages, unit and
/// longer messages at every stable load on a 0.05 grid, and hot-spot
/// traffic for unit messages. Configurations without a closed form
/// (unstable hot spots) are left out.
fn query_entries() -> Result<Vec<Entry>, String> {
    let mut out = Vec::new();
    for k in [2, 4, 8] {
        for stages in 1..=12 {
            for m in [1u32, 2, 4] {
                for step in 1..20 {
                    let p = f64::from(step) / 20.0;
                    if p * f64::from(m) >= 1.0 {
                        continue;
                    }
                    let hot: &[f64] = if m == 1 {
                        &[0.0, 0.01, 0.02, 0.05, 0.1]
                    } else {
                        &[0.0]
                    };
                    for &q in hot {
                        let request = format!(
                            "{{\"k\": {k}, \"stages\": {stages}, \"p\": {p}, \"q\": {q}, \"m\": {m}, \"mode\": \"analytic\"}}"
                        );
                        let query = Query::from_json(&request)?;
                        if let Some(model) = AnalyticModel::for_query(&query) {
                            out.push(Entry {
                                key: query.cache_key(),
                                answer: analytic_body(&query, &model, None),
                                request,
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Flow queries on small topologies with their popularity weights: the
/// 4 × 4 mesh answer is costly (about 25 ms), so it is asked rarely.
fn flow_entries() -> Result<Vec<(Entry, f64)>, String> {
    let mut specs: Vec<(String, f64)> = Vec::new();
    for p in [0.2, 0.4, 0.6] {
        specs.push((
            format!("{{\"topo\": \"mesh\", \"rows\": 2, \"cols\": 2, \"p\": {p}}}"),
            10.0,
        ));
    }
    for stages in [3, 4, 5] {
        for p in [0.3, 0.5, 0.7] {
            specs.push((
                format!("{{\"topo\": \"omega\", \"k\": 2, \"stages\": {stages}, \"p\": {p}}}"),
                10.0,
            ));
        }
    }
    specs.push((
        "{\"topo\": \"omega\", \"k\": 4, \"stages\": 3, \"p\": 0.5}".to_string(),
        10.0,
    ));
    specs.push((
        "{\"topo\": \"mesh\", \"rows\": 4, \"cols\": 4, \"p\": 0.5}".to_string(),
        1.0,
    ));
    specs
        .into_iter()
        .map(|(request, weight)| {
            let fq = FlowQuery::from_json(&request)?;
            let answer = flow_body(&fq)?;
            Ok((
                Entry {
                    key: fq.cache_key(),
                    answer,
                    request,
                },
                weight,
            ))
        })
        .collect()
}

fn cdf(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    let mut out: Vec<f64> = weights
        .map(|w| {
            acc += w;
            acc
        })
        .collect();
    for c in &mut out {
        *c /= acc;
    }
    out
}

fn sample(cdf: &[f64], rng: &mut SmallRng) -> u32 {
    let u: f64 = rng.gen();
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u32
}

impl Universe {
    /// Builds every entry, rendering each answer in process.
    pub fn build() -> Result<Universe, String> {
        let queries = query_entries()?;
        if queries.len() <= 2 * CACHE_CAP {
            return Err(format!(
                "only {} query keys for a {CACHE_CAP}-entry cache",
                queries.len()
            ));
        }
        let (flows, weights): (Vec<Entry>, Vec<f64>) = flow_entries()?.into_iter().unzip();
        Ok(Universe {
            flow_cdf: cdf(weights.into_iter()),
            queries,
            flows,
        })
    }

    fn entry(&self, item: Item) -> &Entry {
        match item {
            Item::Query(i) => &self.queries[i as usize],
            Item::Flow(i) => &self.flows[i as usize],
        }
    }

    fn source(item: Item) -> &'static str {
        match item {
            Item::Query(_) => "analytic",
            Item::Flow(_) => "flow-analytic",
        }
    }

    /// Route and body of a request.
    fn request(&self, req: &Req) -> (&'static str, String) {
        match req {
            Req::Single(item @ Item::Query(_)) => ("/query", self.entry(*item).request.clone()),
            Req::Single(item @ Item::Flow(_)) => ("/v1/flow", self.entry(*item).request.clone()),
            Req::Batch(items) => {
                let parts: Vec<&str> = items
                    .iter()
                    .map(|&it| self.entry(it).request.as_str())
                    .collect();
                ("/v1/batch", format!("[{}]", parts.join(", ")))
            }
        }
    }

    /// The body the daemon must answer with.
    fn expected(&self, req: &Req) -> String {
        match req {
            Req::Single(item) => self.entry(*item).answer.clone(),
            Req::Batch(items) => batch_body(
                items
                    .iter()
                    .map(|&it| self.entry(it).answer.trim_end().to_string())
                    .collect(),
            ),
        }
    }
}

/// One element of a batch, or a whole single request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Item {
    /// Index into the analytic queries.
    Query(u32),
    /// Index into the flow queries.
    Flow(u32),
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Req {
    /// `POST /query` or `POST /v1/flow`.
    Single(Item),
    /// `POST /v1/batch`.
    Batch(Vec<Item>),
}

/// The seeded request stream. The seed permutes which configuration
/// gets which popularity rank and drives every draw.
pub struct Stream {
    rng: SmallRng,
    rank_to_query: Vec<u32>,
    query_cdf: Vec<f64>,
    flow_cdf: Vec<f64>,
}

impl Stream {
    /// A stream over `queries` analytic keys and the given flow
    /// popularity.
    pub fn new(seed: u64, queries: usize, flow_cdf: &[f64]) -> Stream {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rank_to_query: Vec<u32> = (0..queries as u32).collect();
        for i in (1..rank_to_query.len()).rev() {
            rank_to_query.swap(i, rng.gen_range(0..i as u64 + 1) as usize);
        }
        let query_cdf = cdf((1..=queries).map(|r| (r as f64).powf(-ZIPF_S)));
        Stream {
            rng,
            rank_to_query,
            query_cdf,
            flow_cdf: flow_cdf.to_vec(),
        }
    }

    fn item(&mut self, p_flow: f64) -> Item {
        if self.rng.gen_bool(p_flow) {
            Item::Flow(sample(&self.flow_cdf, &mut self.rng))
        } else {
            let rank = sample(&self.query_cdf, &mut self.rng);
            Item::Query(self.rank_to_query[rank as usize])
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        if self.rng.gen_bool(P_BATCH) {
            let n = self.rng.gen_range(BATCH_SIZES.0..BATCH_SIZES.1 + 1);
            Req::Batch((0..n).map(|_| self.item(P_BATCH_FLOW)).collect())
        } else {
            Req::Single(self.item(P_FLOW / (1.0 - P_BATCH)))
        }
    }
}

/// The `/v1/batch` envelope around element bodies.
fn batch_body(results: Vec<String>) -> String {
    let mut o = JsonObject::new();
    o.field_str("schema", "banyan-serve/batch/v1")
        .field_u64("count", results.len() as u64)
        .field_raw("results", &format!("[{}]", results.join(", ")));
    let mut body = o.finish();
    body.push('\n');
    body
}

/// Hit ratio of the daemon's FIFO answer cache over the first
/// [`COUNT_REQUESTS`] requests of the stream, computed on a cache of
/// the daemon's type and capacity.
fn stream_hit_ratio(seed: u64, u: &Universe) -> f64 {
    let cache = AnswerCache::new(CACHE_CAP);
    let mut stream = Stream::new(seed, u.queries.len(), &u.flow_cdf);
    let (mut hits, mut lookups) = (0u64, 0u64);
    for _ in 0..COUNT_REQUESTS {
        let items = match stream.next_req() {
            Req::Single(item) => vec![item],
            Req::Batch(items) => items,
        };
        for item in items {
            let key = &u.entry(item).key;
            lookups += 1;
            if cache.get(key).is_some() {
                hits += 1;
            } else {
                let blank = CachedAnswer {
                    body: String::new(),
                    source: "",
                };
                cache.insert(key.clone(), blank);
            }
        }
    }
    hits as f64 / lookups as f64
}

/// Inputs shared by every set-up of a run.
pub struct Shared {
    seed: u64,
    universe: Universe,
    hit_ratio: f64,
}

/// The output of one request.
pub struct Out {
    req: Req,
    resp: std::io::Result<ClientResponse>,
}

/// A traced request awaiting its in-process replay.
struct Pending {
    op: u64,
    /// Position of the request in the stream.
    seq: u64,
    req: Req,
    start: Instant,
    end: Instant,
    /// The daemon's `X-Banyan-Cache` verdict.
    hit: Option<bool>,
}

/// Traced requests replayed with spans, at most; the others are fed to
/// the replay cache only, to keep its state in step with the daemon's.
const MAX_REPLAYED: usize = 20_000;

/// A `serve_mix` instance: one daemon, one client connection.
pub struct ServeMix {
    prep: Arc<Shared>,
    daemon: Option<ServerHandle>,
    client: Option<Client>,
    stream: Stream,
    /// The next request, drawn outside the timed interval.
    next: (Req, &'static str, String),
    /// An in-process cache fed the same key sequence as the daemon's,
    /// so its hits and misses must match the daemon's.
    mirror: AnswerCache,
    hits: u64,
    misses: u64,
    sent: u64,
    pending: Vec<Pending>,
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // The daemon's worker serves the connection until the client
        // closes it, so close first, then join the daemon.
        drop(self.client.take());
        if let Some(d) = self.daemon.take() {
            let _ = d.shutdown();
        }
    }
}

/// Looks up every key of `req` in `cache` as the daemon does, filling
/// misses with the prepared answers. Returns the hit and miss counts and,
/// for a single request, whether it hit.
fn lookup(cache: &AnswerCache, u: &Universe, req: &Req) -> (u64, u64, Option<bool>) {
    let items: &[Item] = match req {
        Req::Single(item) => std::slice::from_ref(item),
        Req::Batch(items) => items,
    };
    let (mut hits, mut last) = (0, false);
    for &item in items {
        let e = u.entry(item);
        last = cache.get(&e.key).is_some();
        if last {
            hits += 1;
        } else {
            let answer = CachedAnswer {
                body: e.answer.clone(),
                source: Universe::source(item),
            };
            cache.insert(e.key.clone(), answer);
        }
    }
    let single = matches!(req, Req::Single(_)).then_some(last);
    (hits, items.len() as u64 - hits, single)
}

/// Replays one request in process through the calls the daemon makes,
/// each in a span under `root`, against `cache`. Returns the response
/// body and, for a single request, whether it hit the cache.
fn replay(
    cache: &AnswerCache,
    route: &str,
    body: &str,
    rec: &mut Recorder,
    root: usize,
) -> Result<(String, Option<bool>), String> {
    let raw = format!(
        "POST {route} HTTP/1.1\r\nhost: banyan\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let req = rec
        .span(root, "http.parse", || {
            read_request(&mut raw.as_bytes(), DEFAULT_MAX_BODY_BYTES)
        })
        .map_err(|e| format!("replay parse: {e:?}"))?;
    let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
    let (answer, hit) = match route {
        "/query" => {
            let q = rec.span(root, "query.decode", || Query::from_json(text))?;
            let (a, hit) = replay_query(cache, &q, rec, root)?;
            (a, Some(hit))
        }
        "/v1/flow" => {
            let fq = rec.span(root, "query.decode", || FlowQuery::from_json(text))?;
            let (a, hit) = replay_flow(cache, &fq, rec, root)?;
            (a, Some(hit))
        }
        _ => {
            let doc = rec.span(root, "query.decode", || JsonValue::parse(text))?;
            let items = doc.as_array().ok_or("batch body is not an array")?;
            let mut results = Vec::with_capacity(items.len());
            for item in items {
                let (a, _) = if item.get("topo").is_some() {
                    let fq = rec.span(root, "query.decode", || FlowQuery::from_value(item))?;
                    replay_flow(cache, &fq, rec, root)?
                } else {
                    let q = rec.span(root, "query.decode", || Query::from_value(item))?;
                    replay_query(cache, &q, rec, root)?
                };
                results.push(a.body.trim_end().to_string());
            }
            let body = rec.span(root, "answer.render", || batch_body(results));
            (CachedAnswer { body, source: "" }, None)
        }
    };
    let mut resp = Response::json(200, answer.body);
    if let Some(hit) = hit {
        resp = resp
            .with_header("X-Banyan-Cache", if hit { "hit" } else { "miss" })
            .with_header("X-Banyan-Source", answer.source);
    }
    let mut wire = Vec::new();
    rec.span(root, "http.write", || {
        write_response(&mut wire, &resp, true)
    })
    .map_err(|e| e.to_string())?;
    Ok((resp.body, hit))
}

/// The daemon's cache discipline: look up, else compute and insert.
fn replay_cached(
    cache: &AnswerCache,
    key: String,
    rec: &mut Recorder,
    root: usize,
    compute: impl FnOnce(&mut Recorder) -> Result<CachedAnswer, String>,
) -> Result<(CachedAnswer, bool), String> {
    if let Some(hit) = rec.span(root, "cache.get", || cache.get(&key)) {
        return Ok((hit, true));
    }
    let answer = compute(rec)?;
    rec.span(root, "cache.insert", || cache.insert(key, answer.clone()));
    Ok((answer, false))
}

fn replay_query(
    cache: &AnswerCache,
    q: &Query,
    rec: &mut Recorder,
    root: usize,
) -> Result<(CachedAnswer, bool), String> {
    let key = rec.span(root, "query.key", || q.cache_key());
    replay_cached(cache, key, rec, root, |rec| {
        let model = rec
            .span(root, "answer.compute", || AnalyticModel::for_query(q))
            .ok_or("no closed form")?;
        let body = rec.span(root, "answer.render", || analytic_body(q, &model, None));
        Ok(CachedAnswer {
            body,
            source: "analytic",
        })
    })
}

fn replay_flow(
    cache: &AnswerCache,
    fq: &FlowQuery,
    rec: &mut Recorder,
    root: usize,
) -> Result<(CachedAnswer, bool), String> {
    let key = rec.span(root, "query.key", || fq.cache_key());
    replay_cached(cache, key, rec, root, |rec| {
        let (body, _) = traced_flow_body(fq, rec, root)?;
        Ok(CachedAnswer {
            body,
            source: "flow-analytic",
        })
    })
}

/// Whether the daemon answered from its cache (`None` for batches).
fn cache_header(r: &ClientResponse) -> Option<bool> {
    r.header("x-banyan-cache").map(|h| h == "hit")
}

impl ServeMix {
    fn draw(&mut self) {
        let req = self.stream.next_req();
        let (route, body) = self.prep.universe.request(&req);
        self.next = (req, route, body);
    }

    fn send(&mut self) -> Out {
        let (route, body) = (self.next.1, &self.next.2);
        let client = self.client.as_mut().expect("connected in setup");
        Out {
            resp: client.request("POST", route, Some(body)),
            req: self.next.0.clone(),
        }
    }
}

impl Workload for ServeMix {
    type Prep = Arc<Shared>;
    type Out = Out;

    fn prepare(seed: u64) -> Result<Arc<Shared>, String> {
        let universe = Universe::build()?;
        let hit_ratio = stream_hit_ratio(seed, &universe);
        Ok(Arc::new(Shared {
            seed,
            universe,
            hit_ratio,
        }))
    }

    fn setup(prep: &Arc<Shared>) -> Result<Self, String> {
        // Simulation knobs are unused: every request is analytic.
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_cap: CACHE_CAP,
            drift_poll_ms: 0,
            access_log: None,
            rolling: true,
            ..ServeConfig::default()
        };
        let daemon = ServerHandle::spawn(cfg).map_err(|e| format!("spawn daemon: {e}"))?;
        let client =
            Client::connect(&daemon.addr().to_string()).map_err(|e| format!("connect: {e}"))?;
        let u = &prep.universe;
        let mut stream = Stream::new(prep.seed, u.queries.len(), &u.flow_cdf);
        let first = stream.next_req();
        let (route, body) = u.request(&first);
        let mut w = ServeMix {
            prep: Arc::clone(prep),
            daemon: Some(daemon),
            client: Some(client),
            stream,
            next: (first, route, body),
            mirror: AnswerCache::new(CACHE_CAP),
            hits: 0,
            misses: 0,
            sent: 0,
            pending: Vec::new(),
        };
        for _ in 0..WARM_REQUESTS {
            let out = w.op(0);
            if !w.check(0, out).ok {
                return Err("warm-up request failed its checks".to_string());
            }
        }
        if w.mirror.len() < CACHE_CAP {
            return Err(format!(
                "{WARM_REQUESTS} warm-up requests filled {} of {CACHE_CAP} cache entries",
                w.mirror.len()
            ));
        }
        Ok(w)
    }

    fn op(&mut self, _i: u64) -> Out {
        self.send()
    }

    /// Sends the request exactly as `op` does and keeps its interval;
    /// the in-process replay that attributes it runs after the timed
    /// phase, so tracing does not change what the daemon sees.
    fn traced_op(&mut self, i: u64, _rec: &mut Recorder) -> Out {
        let start = Instant::now();
        let out = self.send();
        let end = Instant::now();
        let hit = out.resp.as_ref().ok().and_then(cache_header);
        self.pending.push(Pending {
            op: i,
            seq: self.sent,
            req: out.req.clone(),
            start,
            end,
            hit,
        });
        out
    }

    /// Status 200, a body byte-identical to the in-process answer, and
    /// for single requests a cache header that matches the mirror.
    fn check(&mut self, _i: u64, out: Out) -> Checked {
        self.sent += 1;
        let u = &self.prep.universe;
        let expected = u.expected(&out.req);
        let (hits, misses, hit) = lookup(&self.mirror, u, &out.req);
        self.hits += hits;
        self.misses += misses;
        let ok = out
            .resp
            .is_ok_and(|r| r.status == 200 && r.body == expected && cache_header(&r) == hit);
        self.draw();
        Checked {
            ok,
            items: hits + misses,
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        let reg = self
            .daemon
            .as_ref()
            .expect("running")
            .state()
            .telemetry()
            .registry();
        let daemon = (
            reg.counter_value("serve.cache.hits").unwrap_or(0),
            reg.counter_value("serve.cache.misses").unwrap_or(0),
            reg.counter_value("serve.http.requests_total").unwrap_or(0),
        );
        if daemon != (self.hits, self.misses, self.sent) {
            return Err(format!(
                "daemon (hits, misses, requests) = {daemon:?}, mirror = {:?}",
                (self.hits, self.misses, self.sent)
            ));
        }
        Ok(())
    }

    /// Replays the traced requests in order against a fresh cache fed
    /// the same stream, so each replay meets the cache state the daemon
    /// met. Each replayed answer and cache verdict must equal the
    /// daemon's.
    fn replay_traced(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let u = &self.prep.universe;
        let cache = AnswerCache::new(CACHE_CAP);
        let mut stream = Stream::new(self.prep.seed, u.queries.len(), &u.flow_cdf);
        let mut seq = 0;
        let stride = self.pending.len().div_ceil(MAX_REPLAYED).max(1);
        for (n, p) in self.pending.iter().enumerate() {
            for _ in seq..p.seq {
                lookup(&cache, u, &stream.next_req());
            }
            seq = p.seq + 1;
            let req = stream.next_req();
            if req != p.req {
                return Err(format!("replay stream diverged at traced op {}", p.op));
            }
            if n % stride != 0 {
                lookup(&cache, u, &req);
                continue;
            }
            let (route, body) = u.request(&req);
            let root = rec.begin_op_at(p.op, "transport", p.start, p.end);
            let replayed = replay(&cache, route, &body, rec, root);
            rec.end_op();
            let (body, hit) = replayed?;
            if body != u.expected(&req) || hit != p.hit {
                return Err(format!(
                    "replay of traced op {} differs from the daemon's answer",
                    p.op
                ));
            }
        }
        Ok(())
    }

    fn layer_extras(&mut self) -> Vec<(&'static str, f64)> {
        vec![("cache.hit_ratio", self.prep.hit_ratio)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        let flow_cdf = cdf([10.0, 10.0, 1.0].into_iter());
        let draw = |seed| {
            let mut s = Stream::new(seed, 3000, &flow_cdf);
            (0..2000).map(|_| s.next_req()).collect::<Vec<_>>()
        };
        let a = draw(1);
        assert_eq!(a, draw(1));
        assert_ne!(a, draw(2));
        let batches = a.iter().filter(|r| matches!(r, Req::Batch(_))).count();
        let flows = a
            .iter()
            .filter(|r| matches!(r, Req::Single(Item::Flow(_))))
            .count();
        assert!((20..=100).contains(&batches), "{batches} batches");
        assert!((160..=330).contains(&flows), "{flows} flow requests");
    }

    #[test]
    fn popularity_is_skewed() {
        let mut s = Stream::new(3, 3000, &cdf([1.0].into_iter()));
        let mut counts = vec![0u32; 3000];
        for _ in 0..20_000 {
            if let Req::Single(Item::Query(i)) = s.next_req() {
                counts[i as usize] += 1;
            }
        }
        counts.sort_unstable();
        let top: u32 = counts[2900..].iter().sum();
        let total: u32 = counts.iter().sum();
        assert!(
            f64::from(top) / f64::from(total) > 0.4,
            "top 100 of 3000 keys draw {top}/{total}"
        );
    }

    #[test]
    fn sampling_covers_the_whole_cdf() {
        let c = cdf([1.0, 1.0, 2.0].into_iter());
        assert_eq!(c, vec![0.25, 0.5, 1.0]);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen = [0u32; 3];
        for _ in 0..4000 {
            seen[sample(&c, &mut rng) as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 700), "{seen:?}");
        assert!(seen[2] > seen[0] + 500, "{seen:?}");
    }
}
