//! The traced replay: a workload's generated request stream driven in-process through the
//! public functions of each layer, with a span around every call, to split a request's cost
//! by layer.
//!
//! Every request takes the serving path the reactor takes — `wire` decode and parse, then
//! `Frontend::submit` + `tick`, then response encoding — and every downgrade is decided twice
//! more on mirror sessions: by the pooled batch path (`Deployment::downgrade_batch_fused`)
//! and by a plain sequential `anosy_core::downgrade_step`. The three answers must agree.
//! Count and validity requests run once more on the sharded solver and once on a sequential
//! `Solver`. Cold registrations are synthesized, verified and journaled here, span by span,
//! before the frontend registers them from the cache.

use crate::client::put_unit;
use crate::loadgen::Rounds;
use crate::trace::{Totals, Tracer};
use crate::workload::{layout, Generated, Op, Step, Workload, CONNECTIONS};
use anosy_core::{
    downgrade_step, AnosyError, AnosySession, Knowledge, QInfo, SharedCacheEntry, SynthesizeInto,
};
use anosy_domains::AbstractDomain;
use anosy_serve::proto::{ConnId, Denial, ServeRequest, ServeResponse, TaggedResponse};
use anosy_serve::wire::{self, DecodedFrame, DecodedLine, FrameDecoder, LineDecoder, NameInterner};
use anosy_serve::{
    Deployment, FlushPolicy, Frontend, FusedGroup, Journal, JournalConfig, ServeConfig,
};
use anosy_solver::{Solver, SolverConfig, ValidityOutcome};
use anosy_synth::{DomainCodec, Synthesizer};
use anosy_verify::Verifier;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// Most requests one replay drives (the time budget usually ends it first on slow layers).
pub const REPLAY_REQUESTS: usize = 20_000;

/// What the replay measured.
pub struct Layers {
    /// Per-layer metrics by name, in their `BENCHMARK.json` units.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Share of the replay's wall time covered by layer spans.
    pub coverage: f64,
    /// Requests replayed.
    pub requests: u64,
    /// Disagreements between the serving path and the mirrors.
    pub mismatches: Vec<String>,
    /// The spans, as chrome://tracing JSON.
    pub trace_json: String,
    /// Count, total and self time per span name.
    pub totals: BTreeMap<&'static str, Totals>,
}

/// Incremental request decoding, as the reactor runs it for each protocol.
enum Decoder {
    Line(LineDecoder),
    Frame(FrameDecoder),
}

impl Decoder {
    fn feed(&mut self, bytes: &[u8]) -> Vec<String> {
        match self {
            Decoder::Line(decoder) => decoder
                .feed(bytes)
                .into_iter()
                .map(|unit| match unit {
                    DecodedLine::Line(line) => line,
                    other => panic!("the replay encodes only well-formed lines: {other:?}"),
                })
                .collect(),
            Decoder::Frame(decoder) => decoder
                .feed(bytes)
                .into_iter()
                .map(|unit| match unit {
                    DecodedFrame::Frame(payload) => {
                        String::from_utf8(payload).expect("the replay frames UTF-8 payloads")
                    }
                    other => panic!("the replay encodes only well-formed frames: {other:?}"),
                })
                .collect(),
        }
    }
}

/// Running sums the metrics are computed from (times in nanoseconds).
#[derive(Default)]
struct Sums {
    requests: u64,
    downgrades: u64,
    /// Frontend tick time attributed to downgrades (a tick's time split by request share).
    tick_on_downgrades: u64,
    /// In-process time each downgrade's response waited on: its own wire and tick spans, or
    /// the whole round's under ticked batching.
    downgrade_path: u64,
    decide: u64,
    step: u64,
    authorized: u64,
    refused: u64,
    registrations: u64,
    registration_hits: u64,
    cached_registrations: u64,
    cold_queries: u64,
    solver_nodes: u64,
}

struct Replay<'g, D: AbstractDomain> {
    g: &'g Generated,
    tracer: Tracer,
    deployment: Deployment<D>,
    frontend: Frontend<D>,
    interner: NameInterner,
    decoders: Vec<Decoder>,
    out: Vec<u8>,
    journal: Option<Journal<D>>,
    /// Frontend session id per tenant.
    sessions: HashMap<u32, u64>,
    /// Mirror sessions the batch path decides on.
    direct: HashMap<u32, AnosySession<D>>,
    /// Sequential mirror: the knowledge `downgrade_step` chains from.
    core: HashMap<u32, Knowledge<D>>,
    qinfos: HashMap<usize, QInfo<D>>,
    registered: Vec<usize>,
    sums: Sums,
    mismatches: Vec<String>,
}

/// Replays `generated` for at most `budget` (and [`REPLAY_REQUESTS`]), writing the journal of
/// a journaled workload under `scratch`. `e2e_downgrade_p50_us` is the end-to-end median of
/// downgrade requests, from which the transport residual is derived.
pub fn replay<D>(
    generated: &Generated,
    budget: Duration,
    scratch: &Path,
    e2e_downgrade_p50_us: f64,
) -> Result<Layers, String>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    let workload = generated.workload;
    let deployment: Deployment<D> =
        Deployment::new(layout(), ServeConfig::new().with_workers(CONNECTIONS));
    let mut frontend = Frontend::new(deployment.share());
    if workload.conn_scoped() {
        frontend = frontend.with_conn_scoped_sessions();
    }
    let journal = if workload == Workload::Population {
        let config =
            JournalConfig::new(scratch.join("replay.journal")).with_flush(FlushPolicy::EveryEntry);
        Some(Journal::recover(config).map_err(|e| format!("replay journal: {e}"))?.journal)
    } else {
        None
    };
    let decoders = (0..CONNECTIONS)
        .map(|_| {
            if workload.binary() {
                Decoder::Frame(FrameDecoder::new())
            } else {
                Decoder::Line(LineDecoder::new())
            }
        })
        .collect();
    let mut replay = Replay {
        g: generated,
        tracer: Tracer::new(),
        deployment,
        frontend,
        interner: NameInterner::new(),
        decoders,
        out: Vec::new(),
        journal,
        sessions: HashMap::new(),
        direct: HashMap::new(),
        core: HashMap::new(),
        qinfos: HashMap::new(),
        registered: Vec::new(),
        sums: Sums::default(),
        mismatches: Vec::new(),
    };

    let deadline = Instant::now() + budget;
    let root = replay.tracer.enter("replay", 0);
    for &q in &generated.initial {
        replay.request(0, Step { tenant: None, op: Op::Register(q) });
    }
    match workload {
        Workload::Interactive => {
            // The two connections' closed loops, interleaved request by request.
            let longest = generated.streams.iter().map(Vec::len).max().unwrap_or(0);
            'outer: for i in 0..longest {
                for (socket, stream) in generated.streams.iter().enumerate() {
                    if replay.done(deadline) {
                        break 'outer;
                    }
                    if let Some(&step) = stream.get(i) {
                        replay.request(socket, step);
                    }
                }
            }
        }
        Workload::Population => {
            // One merged stream in due-time order.
            let mut merged: Vec<(u64, usize, Step)> = Vec::new();
            for (socket, (stream, due)) in generated.streams.iter().zip(&generated.due).enumerate()
            {
                merged.extend(due.iter().zip(stream).map(|(&at, &step)| (at, socket, step)));
            }
            merged.sort_by_key(|&(at, socket, _)| (at, socket));
            for (_, socket, step) in merged {
                if replay.done(deadline) {
                    break;
                }
                replay.request(socket, step);
            }
        }
        Workload::Bulk => {
            let mut planners: Vec<Rounds> =
                generated.streams.iter().map(|s| Rounds::new(s)).collect();
            let mut round = Vec::new();
            'rounds: loop {
                for (socket, planner) in planners.iter_mut().enumerate() {
                    if replay.done(deadline) {
                        break 'rounds;
                    }
                    planner.next_round(generated, &mut round);
                    if round.is_empty() {
                        break 'rounds;
                    }
                    replay.round(socket, &round, planner);
                }
            }
        }
    }
    replay.tracer.exit(root);
    Ok(replay.finish(root, e2e_downgrade_p50_us))
}

/// The logical connection and request text of a protocol line (`@conn` prefix optional).
fn split_conn(line: &str, base: u64) -> (ConnId, &str) {
    let line = line.trim();
    match line.strip_prefix('@').and_then(|rest| rest.split_once(' ')) {
        Some((conn, rest)) => (ConnId(conn.parse().expect("the replay writes numeric ids")), rest),
        None => (ConnId(base), line),
    }
}

/// The wire bytes a client sends for `step`, given the session ids answered so far.
fn client_bytes(g: &Generated, sessions: &HashMap<u32, u64>, step: Step, out: &mut Vec<u8>) {
    let session = step.tenant.and_then(|t| sessions.get(&t)).copied().unwrap_or(0);
    let conn = step.tenant.and_then(|t| match g.workload {
        // Population tenants each speak on a logical connection of their own.
        Workload::Population => Some(1_000 + u64::from(t)),
        _ => g.tenants[t as usize].conn,
    });
    put_unit(out, g.workload.binary(), &g.line(step, session, conn));
}

fn answer_body(result: Result<bool, AnosyError>) -> String {
    wire::encode_response(&ServeResponse::Answer(result.map_err(Denial::from)))
}

impl<'g, D> Replay<'g, D>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    fn done(&self, deadline: Instant) -> bool {
        self.sums.requests as usize >= REPLAY_REQUESTS || Instant::now() >= deadline
    }

    fn parse(&mut self, line: &str, socket: usize) -> (ConnId, ServeRequest) {
        let (conn, text) = split_conn(line, socket as u64);
        let request = wire::parse_request_interned(text, &layout(), &mut self.interner)
            .expect("the replay sends well-formed requests");
        (conn, request)
    }

    fn encode(&mut self, responses: &[TaggedResponse]) {
        self.out.clear();
        for tagged in responses {
            let text = format!("{} {}", tagged.request, wire::encode_response(&tagged.response));
            put_unit(&mut self.out, self.g.workload.binary(), &text);
        }
    }

    /// One request under per-request ticking (the default reactor mode).
    fn request(&mut self, socket: usize, step: Step) {
        let req = self.sums.requests;
        self.sums.requests += 1;
        let start = self.tracer.spans().len();
        let mut bytes = Vec::new();
        let (g, sessions) = (self.g, &self.sessions);
        self.tracer.time("loadgen.encode", req, || client_bytes(g, sessions, step, &mut bytes));
        let decoder = &mut self.decoders[socket];
        let lines = self.tracer.time("wire.decode", req, || decoder.feed(&bytes));
        let [line] = lines.as_slice() else { panic!("one request decodes to one line") };
        let id = self.tracer.enter("wire.parse", req);
        let (conn, request) = self.parse(line, socket);
        self.tracer.exit(id);
        if let Op::Register(q) = step.op {
            self.ensure_synthesized(req, q);
        }
        let frontend = &mut self.frontend;
        let responses = self.tracer.time("frontend.tick", req, || {
            frontend.submit(conn, request);
            frontend.tick()
        });
        let id = self.tracer.enter("wire.encode", req);
        self.encode(&responses);
        self.tracer.exit(id);
        let [response] = responses.as_slice() else { panic!("one request, one response") };
        if let Op::Downgrade(_) = step.op {
            let path =
                self.path_ns(start, &["wire.decode", "wire.parse", "frontend.tick", "wire.encode"]);
            let tick = self.path_ns(start, &["frontend.tick"]);
            self.sums.downgrade_path += path;
            self.sums.tick_on_downgrades += tick;
        }
        let response = response.response.clone();
        self.mirror(req, step, &response);
    }

    /// Summed durations of the named spans recorded since span index `start`.
    fn path_ns(&self, start: usize, names: &[&str]) -> u64 {
        self.tracer.spans()[start..]
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end - s.start)
            .sum()
    }

    /// One ticked round of the bulk workload: every request decoded and parsed, then one
    /// tick answers them all (the tick marker's effect), then the round's mirrors.
    fn round(&mut self, socket: usize, round: &[(usize, Step, u64)], planner: &mut Rounds) {
        let first = self.sums.requests;
        self.sums.requests += round.len() as u64;
        let start = self.tracer.spans().len();
        let mut bytes = Vec::new();
        let (g, sessions) = (self.g, &self.sessions);
        self.tracer.time("loadgen.encode", first, || {
            for &(_, step, _) in round {
                client_bytes(g, sessions, step, &mut bytes);
            }
            put_unit(&mut bytes, true, "");
        });
        let decoder = &mut self.decoders[socket];
        let lines = self.tracer.time("wire.decode", first, || decoder.feed(&bytes));
        assert_eq!(lines.len(), round.len() + 1, "every frame decodes, tick marker last");
        let mut requests = Vec::with_capacity(round.len());
        for (i, line) in lines[..round.len()].iter().enumerate() {
            let id = self.tracer.enter("wire.parse", first + i as u64);
            requests.push(self.parse(line, socket));
            self.tracer.exit(id);
        }
        let frontend = &mut self.frontend;
        let responses = self.tracer.time("frontend.tick", first, || {
            for (conn, request) in requests {
                frontend.submit(conn, request);
            }
            frontend.tick()
        });
        let id = self.tracer.enter("wire.encode", first);
        self.encode(&responses);
        self.tracer.exit(id);
        assert_eq!(responses.len(), round.len(), "one response per request");

        let downgrades = round.iter().filter(|(_, s, _)| matches!(s.op, Op::Downgrade(_))).count();
        if downgrades > 0 {
            let path =
                self.path_ns(start, &["wire.decode", "wire.parse", "frontend.tick", "wire.encode"]);
            let tick = self.path_ns(start, &["frontend.tick"]);
            // Every downgrade's answer waited for the whole round; the tick is shared by
            // request count.
            self.sums.downgrade_path += path * downgrades as u64;
            self.sums.tick_on_downgrades += tick * downgrades as u64 / round.len() as u64;
        }
        self.decide_round(first, round, &responses);
        for (i, (&(slot, step, _), tagged)) in round.iter().zip(&responses).enumerate() {
            let req = first + i as u64;
            if matches!(step.op, Op::Downgrade(_)) {
                continue; // decided and checked as a batch above
            }
            self.mirror(req, step, &tagged.response);
            if step.op == Op::Open {
                planner.opened(slot, step.tenant.and_then(|t| self.sessions.get(&t)).copied());
            }
        }
    }

    /// A bulk round's downgrades: one fused `downgrade_batch_fused` call over the mirror sessions (one
    /// group per session), then the sequential steps, then the three-way check.
    fn decide_round(
        &mut self,
        first: u64,
        round: &[(usize, Step, u64)],
        responses: &[TaggedResponse],
    ) {
        let g = self.g;
        let mut picked: Vec<(usize, u32, usize, AnosySession<D>)> = Vec::new();
        for (i, &(_, step, _)) in round.iter().enumerate() {
            if let (Op::Downgrade(q), Some(t)) = (step.op, step.tenant) {
                let session = self.direct.remove(&t).expect("downgrades follow an open");
                picked.push((i, t, q, session));
            }
        }
        if picked.is_empty() {
            return;
        }
        let secrets: Vec<[anosy_logic::Point; 1]> =
            picked.iter().map(|&(_, t, _, _)| [g.tenants[t as usize].secret.clone()]).collect();
        let deployment = &self.deployment;
        let start = self.tracer.spans().len();
        let batch = self.tracer.time("batch.decide", first, || {
            let mut groups: Vec<FusedGroup<'_, D>> = picked
                .iter_mut()
                .zip(&secrets)
                .map(|((_, _, q, session), secret)| FusedGroup {
                    session,
                    secrets: secret,
                    query: &g.names[*q],
                })
                .collect();
            deployment.downgrade_batch_fused(&mut groups)
        });
        self.sums.decide += self.path_ns(start, &["batch.decide"]);
        for ((i, t, q, session), mut results) in picked.into_iter().zip(batch) {
            self.direct.insert(t, session);
            let req = first + i as u64;
            let core = self.core_step(req, t, q);
            let batch = results.pop().expect("one secret per group");
            self.check_downgrade(req, &responses[i].response, batch, core);
        }
    }

    /// The sequential decision on the core mirror; commits an authorized posterior.
    fn core_step(&mut self, req: u64, t: u32, q: usize) -> Result<bool, AnosyError> {
        let g = self.g;
        let tenant = &g.tenants[t as usize];
        let prior = self.core.get(&t).expect("downgrades follow an open");
        let qinfo = self.qinfos.get(&q).expect("downgraded queries are registered");
        let start = self.tracer.spans().len();
        let step = self.tracer.time("core.step", req, || {
            downgrade_step(&tenant.policy, qinfo, prior, &tenant.secret)
        });
        self.sums.step += self.path_ns(start, &["core.step"]);
        self.sums.downgrades += 1;
        match step {
            Ok((answer, posterior)) => {
                self.core.insert(t, posterior);
                self.sums.authorized += 1;
                Ok(answer)
            }
            Err(e) => {
                self.sums.refused += 1;
                Err(e)
            }
        }
    }

    /// The three-way agreement of one downgrade, compared in wire form (the benchmark's own
    /// checking layer, `replay.check`).
    fn check_downgrade(
        &mut self,
        req: u64,
        served: &ServeResponse,
        batch: Result<bool, AnosyError>,
        core: Result<bool, AnosyError>,
    ) {
        let mismatches = &mut self.mismatches;
        self.tracer.time("replay.check", req, || {
            let served = wire::encode_response(served);
            let (batch, core) = (answer_body(batch), answer_body(core));
            if served != batch || served != core {
                mismatches.push(format!(
                    "request {req}: frontend `{served}`, batch path `{batch}`, \
                     downgrade_step `{core}`"
                ));
            }
        });
    }

    /// Synthesizes, verifies and journals query `q` unless the cache already holds it, then
    /// installs it so the frontend's registration is a cache hit.
    fn ensure_synthesized(&mut self, req: u64, q: usize) {
        let g = self.g;
        let query = &g.queries[q];
        self.sums.registrations += 1;
        if self.deployment.shared().contains(query, g.kind, g.members) {
            self.sums.registration_hits += 1;
            return;
        }
        let mut synth = Synthesizer::with_config(self.deployment.config().synth.clone());
        let indsets = self
            .tracer
            .time("synth.query", req, || D::synthesize(&mut synth, query, g.kind, g.members));
        self.sums.solver_nodes += synth.solver_stats().nodes_explored;
        self.sums.cold_queries += 1;
        let indsets = match indsets {
            Ok(indsets) => indsets,
            Err(e) => {
                self.mismatches.push(format!("{}: synthesis failed: {e}", query.name()));
                return;
            }
        };
        let mut verifier = Verifier::with_config(SolverConfig::default());
        let report =
            self.tracer.time("verify.query", req, || verifier.verify_indsets(query, &indsets));
        if !report.as_ref().is_ok_and(|r| r.is_verified()) {
            self.mismatches.push(format!("{}: verification failed", query.name()));
            return;
        }
        let entry = SharedCacheEntry {
            pred: query.pred().clone(),
            layout: query.layout().clone(),
            kind: g.kind,
            members: g.members,
            indsets,
        };
        if let Some(journal) = &self.journal {
            if let Err(e) = self.tracer.time("journal.append", req, || journal.append(&entry)) {
                self.mismatches.push(format!("journal append failed: {e}"));
            }
        }
        self.deployment.shared().insert_ready(entry);
    }

    /// Registers query `q` on one mirror session, from the cache.
    fn register_mirror(g: &Generated, session: &mut AnosySession<D>, q: usize) {
        session
            .register_cached(&g.queries[q], g.kind, g.members)
            .expect("the replay synthesizes before it registers");
    }

    /// The mirrors' side of one request, and the checks against the served response.
    fn mirror(&mut self, req: u64, step: Step, served: &ServeResponse) {
        let g = self.g;
        match (step.op, step.tenant) {
            (Op::Open, Some(t)) => {
                let ServeResponse::SessionOpened { session } = served else {
                    self.mismatches.push(format!("request {req}: open answered {served:?}"));
                    return;
                };
                self.sessions.insert(t, session.0);
                let tenant = &g.tenants[t as usize];
                let deployment = &self.deployment;
                let mut mirror = self
                    .tracer
                    .time("core.session_open", req, || deployment.session(tenant.policy.clone()));
                let registered = &self.registered;
                self.tracer.time("shared.register_hit", req, || {
                    for &q in registered {
                        Self::register_mirror(g, &mut mirror, q);
                    }
                });
                self.sums.cached_registrations += self.registered.len() as u64;
                self.direct.insert(t, mirror);
                self.core.insert(t, Knowledge::initial(&layout()));
            }
            (Op::Register(q), _) => {
                if !matches!(served, ServeResponse::QueryRegistered { .. }) {
                    self.mismatches.push(format!("request {req}: register answered {served:?}"));
                    return;
                }
                if self.qinfos.contains_key(&q) {
                    return;
                }
                let indsets = self
                    .deployment
                    .shared()
                    .get_ready(&g.queries[q], g.kind, g.members)
                    .expect("registered queries are cached");
                self.qinfos.insert(q, QInfo::new(g.queries[q].clone(), indsets));
                self.registered.push(q);
                let direct = &mut self.direct;
                if !direct.is_empty() {
                    self.tracer.time("shared.register_hit", req, || {
                        for mirror in direct.values_mut() {
                            Self::register_mirror(g, mirror, q);
                        }
                    });
                    self.sums.cached_registrations += self.direct.len() as u64;
                }
            }
            (Op::Downgrade(q), Some(t)) => {
                let secret = [g.tenants[t as usize].secret.clone()];
                let session = self.direct.get_mut(&t).expect("downgrades follow an open");
                let deployment = &self.deployment;
                let start = self.tracer.spans().len();
                let mut batch = self.tracer.time("batch.decide", req, || {
                    let mut groups = [FusedGroup { session, secrets: &secret, query: &g.names[q] }];
                    deployment.downgrade_batch_fused(&mut groups)
                });
                self.sums.decide += self.path_ns(start, &["batch.decide"]);
                let batch = batch.pop().and_then(|mut r| r.pop()).expect("one answer");
                let core = self.core_step(req, t, q);
                self.check_downgrade(req, served, batch, core);
            }
            (Op::Knowledge, Some(t)) => {
                let (core, mismatches) = (&self.core[&t], &mut self.mismatches);
                self.tracer.time("replay.check", req, || {
                    let expected = wire::encode_response(&ServeResponse::Knowledge {
                        size: core.size(),
                        encoded: core.domain().encode(),
                    });
                    if wire::encode_response(served) != expected {
                        mismatches.push(format!("request {req}: knowledge {served:?}"));
                    }
                });
            }
            (Op::Close, Some(t)) => {
                self.sessions.remove(&t);
                self.core.remove(&t);
                // Dropping a session releases its registered queries and notes the closure
                // in the deployment aggregates.
                let mirror = self.direct.remove(&t);
                self.tracer.time("core.session_close", req, || drop(mirror));
            }
            (Op::Count(q), None) => {
                let pred = g.queries[q].pred();
                let space = layout().space();
                let deployment = &self.deployment;
                let sharded = self.tracer.time("parallel.count", req, || {
                    deployment.par_count_models(pred, &space).map(|s| s.value)
                });
                let sequential = self
                    .tracer
                    .time("solver.count", req, || Solver::new().count_models(pred, &space));
                let served = match served {
                    ServeResponse::Count { models } => Some(*models),
                    _ => None,
                };
                let sequential = sequential.ok();
                if sharded.ok() != sequential || served != sequential {
                    self.mismatches.push(format!("request {req}: count disagrees"));
                }
            }
            (Op::Valid(q), None) => {
                let pred = g.queries[q].pred();
                let space = layout().space();
                let deployment = &self.deployment;
                let sharded = self.tracer.time("parallel.count", req, || {
                    deployment.par_check_validity(pred, &space).map(|s| s.value)
                });
                let sequential = self
                    .tracer
                    .time("solver.count", req, || Solver::new().check_validity(pred, &space));
                // The sharded and sequential solvers must agree on validity; a refutation may name any point that
                // falsifies the predicate, and the frontend answers with the sharded solver's.
                let agree = match (&sharded, &sequential, served) {
                    (Ok(ValidityOutcome::Valid), Ok(ValidityOutcome::Valid), _) => {
                        matches!(served, ServeResponse::Validity { counterexample: None })
                    }
                    (
                        Ok(ValidityOutcome::CounterExample(point)),
                        Ok(ValidityOutcome::CounterExample(_)),
                        ServeResponse::Validity { counterexample: Some(served) },
                    ) => served == point && layout().admits(point) && !g.queries[q].ask(point),
                    _ => false,
                };
                if !agree {
                    self.mismatches.push(format!("request {req}: validity disagrees"));
                }
            }
            (op, tenant) => panic!("step {op:?} of {tenant:?} is not generated"),
        }
    }

    fn finish(self, root: u32, e2e_downgrade_p50_us: f64) -> Layers {
        let totals = self.tracer.totals();
        let sums = &self.sums;
        let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
        let count = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
        let per = |value: f64, n: f64| if n > 0.0 { value / n } else { 0.0 };
        let requests = sums.requests as f64;
        let downgrades = sums.downgrades as f64;
        let cold = sums.cold_queries as f64;
        let stats = self.frontend.stats();
        let store = self.deployment.store_stats();
        let ratio = |hits: u64, misses: u64| per(hits as f64, (hits + misses) as f64);
        let core_step_ns = per(sums.step as f64, downgrades);
        let decide_ns = per(sums.decide as f64, downgrades);
        let journal = self.journal.as_ref().map(Journal::stats).unwrap_or_default();

        let mut metrics = BTreeMap::new();
        metrics.insert("wire.decode_ns", per(total("wire.decode"), requests));
        metrics.insert("wire.parse_ns", per(total("wire.parse"), requests));
        metrics.insert("wire.encode_ns", per(total("wire.encode"), requests));
        metrics.insert("frontend.tick_ns", per(total("frontend.tick"), requests));
        metrics.insert(
            "frontend.queue_ns",
            per(sums.tick_on_downgrades as f64 - sums.decide as f64, downgrades),
        );
        metrics.insert(
            "frontend.fused_batch",
            per(stats.batched_downgrades as f64, stats.ticks as f64),
        );
        metrics.insert("batch.decide_ns", decide_ns);
        metrics.insert("batch.overhead_ns", decide_ns - core_step_ns);
        metrics.insert("core.step_ns", core_step_ns);
        metrics.insert("core.authorized", sums.authorized as f64);
        metrics.insert("core.refused", sums.refused as f64);
        metrics.insert(
            "parallel.count_us",
            per(total("parallel.count"), count("parallel.count")) / 1e3,
        );
        metrics.insert("solver.count_us", per(total("solver.count"), count("solver.count")) / 1e3);
        metrics.insert(
            "shared.hit_ratio",
            per(sums.registration_hits as f64, sums.registrations as f64),
        );
        metrics.insert(
            "shared.register_hit_ns",
            per(total("shared.register_hit"), sums.cached_registrations as f64),
        );
        metrics.insert("synth.query_ms", per(total("synth.query"), cold) / 1e6);
        metrics.insert("synth.solver_nodes", per(sums.solver_nodes as f64, cold));
        metrics.insert("verify.query_ms", per(total("verify.query"), cold) / 1e6);
        metrics.insert("store.range_hit_ratio", ratio(store.range_hits, store.range_misses));
        metrics.insert("store.tri_hit_ratio", ratio(store.tri_hits, store.tri_misses));
        metrics.insert("store.nodes", (store.exprs_interned + store.preds_interned) as f64);
        metrics.insert(
            "journal.append_us",
            per(total("journal.append"), count("journal.append")) / 1e3,
        );
        metrics.insert("journal.appended", journal.appended as f64);
        metrics.insert(
            "transport.residual_us",
            e2e_downgrade_p50_us - per(sums.downgrade_path as f64, downgrades) / 1e3,
        );
        let coverage = self.tracer.coverage(root);
        Layers {
            metrics,
            coverage,
            requests: sums.requests,
            mismatches: self.mismatches,
            trace_json: self.tracer.to_json(),
            totals,
        }
    }
}
