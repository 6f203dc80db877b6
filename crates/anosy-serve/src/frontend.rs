//! The sans-IO serving frontend: sessions behind a uniform request/response protocol, with
//! per-tick downgrade batching.
//!
//! A [`Frontend`] owns a [`Deployment`] plus every open [`AnosySession`], keyed by
//! [`SessionId`], and the one [`QueryTable`] all those sessions share: opening a session hands
//! it the table (a refcount, not a copy), and registering a query updates the table once. Any
//! number of logical connections submit [`ServeRequest`]s between ticks ([`Frontend::submit`] —
//! pure queueing, no work); [`Frontend::tick`] then processes the whole queue and returns one
//! [`TaggedResponse`] per request, in submission order. The frontend never performs I/O:
//! transports (the `anosy-served` stdio binary, tests, a future socket executor) feed it
//! requests and write out its responses.
//!
//! # Tick batching
//!
//! Within a tick, maximal runs of consecutive [`ServeRequest::Downgrade`] requests are not
//! executed one by one: the run is regrouped per session (and, within a session, split at query
//! boundaries), and each group rides the deployment's sharded
//! [`downgrade_batch`](Deployment::downgrade_batch) driver. This is the
//! accumulate-per-tick shape of the ROADMAP's serving front: the more downgrade traffic lands in
//! a tick, the bigger the batches handed to the [`ShardPool`](crate::ShardPool).
//!
//! # Determinism guarantee
//!
//! Batching never changes answers — only wall-clock. Responses are **element-wise identical to
//! processing the same requests sequentially, one at a time, against plain [`AnosySession`]s**
//! (`downgrade` per downgrade request), no matter how requests interleave across connections or
//! how they split into ticks. The regrouping is sound because distinct sessions share no mutable
//! state (the shared synthesis cache is append-only, and downgrades write neither it nor the
//! shared query table), distinct secrets within one session are independent, and same-secret
//! chains stay in arrival order on one worker — the `downgrade_batch` guarantee,
//! property-tested end-to-end for the frontend in `tests/proptest_frontend.rs`.

use crate::batch::FusedGroup;
use crate::proto::{
    ConnId, Denial, DenialCode, RequestId, ServeRequest, ServeResponse, SessionId, StatsSnapshot,
    TaggedResponse,
};
use crate::Deployment;
use anosy_core::{AnosyError, AnosySession, QInfo, QueryTable, SynthesizeInto};
use anosy_domains::AbstractDomain;
use anosy_logic::{Point, PredId};
use anosy_solver::ValidityOutcome;
use anosy_synth::{ApproxKind, DomainCodec, QueryDef};
use anosy_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Counters of the frontend itself (the deployment's counters ride along in
/// [`StatsSnapshot::serve`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// Completed [`Frontend::tick`] calls.
    pub ticks: u64,
    /// Requests submitted since construction.
    pub requests: u64,
    /// Downgrades that rode a batched driver call.
    pub batched_downgrades: u64,
    /// Largest single batch handed to the deployment driver.
    pub largest_batch: usize,
    /// Sessions torn down because the connection that opened them disconnected
    /// ([`Frontend::disconnect`]) — explicit [`ServeRequest::CloseSession`]s are not counted.
    pub sessions_torn_down: u64,
    /// Distinct logical connections that submitted at least one request — the tenant count of a
    /// multi-tenant run (connections that only ever disconnected are not tenants).
    pub tenants: u64,
    /// Responses that carried a denial: refused downgrade answers, denied batch elements and
    /// rejected requests alike. The denial *rate* of a run is this over
    /// [`FrontendStats::requests`].
    pub denials: u64,
}

/// How many denials one response carries (batch answers can carry several).
fn denials_in(response: &ServeResponse) -> u64 {
    match response {
        ServeResponse::Answer(Err(_)) | ServeResponse::Rejected(_) => 1,
        ServeResponse::Answers(results) => results.iter().filter(|r| r.is_err()).count() as u64,
        _ => 0,
    }
}

/// Packs the conn-scoped session id `((conn + 1) << 32) | k` with **checked** arithmetic:
/// `None` when either half would leave its 32-bit lane (`conn ≥ 2³² − 1` or `k ≥ 2³²`).
/// The unchecked form silently wrapped — `(conn + 1) << 32` loses the high bits for large
/// conn ids, and a connection's 2³²-th open bleeds into the conn lane — colliding ids
/// across connections; see [`SessionId`]'s packing docs.
fn conn_scoped_session_id(conn: ConnId, k: u64) -> Option<SessionId> {
    let high = conn.0.checked_add(1).filter(|&high| high <= u64::from(u32::MAX))?;
    if k > u64::from(u32::MAX) {
        return None;
    }
    Some(SessionId((high << 32) | k))
}

/// One queued downgrade of the current run: its position in the tick, plus the request fields.
/// The query name is the interned handle the wire parser produced — comparing two of them for
/// segment-boundary detection is a pointer check first, never an allocation.
struct QueuedDowngrade {
    index: usize,
    session: SessionId,
    secret: Point,
    query: Arc<str>,
}

/// One query-boundary segment of a session's downgrade run: consecutive requests from one
/// session targeting one query, in arrival order.
struct Segment {
    query: Arc<str>,
    indices: Vec<usize>,
    secrets: Vec<Point>,
}

/// A session owned by the frontend, remembering which logical connection opened it so a
/// transport-level disconnect can tear it down ([`Frontend::disconnect`]).
struct OpenSession<D: AbstractDomain> {
    owner: ConnId,
    session: AnosySession<D>,
}

/// One queued unit of work: a tagged request, or a connection teardown riding the same queue so
/// it takes effect at its submission position within the tick.
enum Pending {
    Request(RequestId, ServeRequest),
    Disconnect(ConnId),
}

/// The sans-IO protocol state machine (see the [module docs](self)).
pub struct Frontend<D: AbstractDomain> {
    deployment: Deployment<D>,
    sessions: BTreeMap<SessionId, OpenSession<D>>,
    /// The query table every open session shares: an open costs one refcount, and a
    /// registration copy-on-writes the table once and re-points the open sessions at it.
    queries: QueryTable<D>,
    /// The request behind each table entry, keyed by name, for the identical-re-registration
    /// short-circuit (the table does not record the powerset member budget).
    registry: BTreeMap<String, (QueryDef, ApproxKind, Option<usize>)>,
    pending: Vec<Pending>,
    next_session: u64,
    next_conn: u64,
    conn_seqs: HashMap<ConnId, u64>,
    /// Per-connection open counts, used by the conn-scoped session-id mode.
    conn_opens: HashMap<ConnId, u64>,
    conn_scoped: bool,
    reactors: u64,
    shard: u64,
    stats: FrontendStats,
}

impl<D: AbstractDomain> Frontend<D> {
    /// Wraps a deployment into a frontend with no open sessions.
    pub fn new(deployment: Deployment<D>) -> Self {
        Frontend {
            deployment,
            sessions: BTreeMap::new(),
            queries: QueryTable::default(),
            registry: BTreeMap::new(),
            pending: Vec::new(),
            next_session: 0,
            next_conn: 0,
            conn_seqs: HashMap::new(),
            conn_opens: HashMap::new(),
            conn_scoped: false,
            reactors: 1,
            shard: 0,
            stats: FrontendStats::default(),
        }
    }

    /// Switches session-id allocation from the global sequence (`1, 2, 3, …` in submission
    /// order) to **conn-scoped** ids: connection `c`'s `k`-th open (1-based) is answered with
    /// `((c + 1) << 32) | k`. The id a session gets then depends only on the connection that
    /// opened it — never on how opens interleave across connections — so it is invariant under
    /// sharding the connections across any number of reactors. Every [`crate::ReactorPool`]
    /// shard runs in this mode (at any reactor count, including one, so counts are comparable).
    pub fn with_conn_scoped_sessions(mut self) -> Self {
        self.conn_scoped = true;
        self
    }

    /// Identifies this frontend as reactor shard `shard` of `reactors` — reported in
    /// [`StatsSnapshot`] (and on the wire stats line as `reactors=`/`shard=`). Standalone
    /// frontends keep the default `(0, 1)`.
    pub fn with_shard(mut self, shard: u64, reactors: u64) -> Self {
        self.shard = shard;
        self.reactors = reactors.max(1);
        self
    }

    /// The deployment behind this frontend (for direct drivers and stats).
    pub fn deployment(&self) -> &Deployment<D> {
        &self.deployment
    }

    /// Allocates the next logical connection id. Transports that already have a connection
    /// notion (one per socket, say) may mint their own [`ConnId`]s instead — the frontend
    /// tracks per-connection sequence numbers for whatever ids it sees.
    pub fn connect(&mut self) -> ConnId {
        self.next_conn += 1;
        ConnId(self.next_conn)
    }

    /// Queues a request; no work happens until [`Frontend::tick`]. Returns the id the matching
    /// response will carry (per-connection sequence numbers, starting at 1).
    pub fn submit(&mut self, conn: ConnId, request: ServeRequest) -> RequestId {
        let stats = &mut self.stats;
        let seq = self.conn_seqs.entry(conn).or_insert_with(|| {
            stats.tenants += 1;
            0
        });
        *seq += 1;
        let id = RequestId { conn, seq: *seq };
        self.pending.push(Pending::Request(id, request));
        self.stats.requests += 1;
        id
    }

    /// Reports a logical connection as gone: every session it opened is torn down **at this
    /// queue position** during the next [`Frontend::tick`] — requests submitted before the
    /// disconnect still answer normally, requests referencing the torn-down sessions afterwards
    /// deny with `unknown-session`, exactly as a sequential replay interleaving an explicit
    /// close would. The teardown itself produces no response (there is nobody left to read it);
    /// torn-down sessions are counted in [`FrontendStats::sessions_torn_down`].
    ///
    /// Sessions the connection *used* but did not open are untouched — ownership is the open.
    pub fn disconnect(&mut self, conn: ConnId) {
        self.pending.push(Pending::Disconnect(conn));
    }

    /// Queued work items (requests and disconnects) for the next tick.
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Sessions currently open.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// The frontend's own counters.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// The protocol-level snapshot a [`ServeRequest::Stats`] would answer with right now —
    /// also the per-shard input of [`crate::reactor::fold_stats`].
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            open_sessions: self.sessions.len(),
            ticks: self.stats.ticks,
            requests: self.stats.requests,
            batched_downgrades: self.stats.batched_downgrades,
            largest_batch: self.stats.largest_batch,
            sessions_torn_down: self.stats.sessions_torn_down,
            tenants: self.stats.tenants,
            denials: self.stats.denials,
            reactors: self.reactors,
            shard: self.shard,
            journal: {
                let journal = self.deployment.journal_stats();
                [journal.appended, journal.compacted, journal.replayed, journal.torn]
            },
            saves_skipped: self.deployment.saves_skipped(),
            serve: self.deployment.stats(),
        }
    }
}

impl<D> Frontend<D>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    /// Processes every queued request and returns one tagged response per request, in
    /// submission order (see the [module docs](self) for the batching and determinism story).
    pub fn tick(&mut self) -> Vec<TaggedResponse> {
        let _span = telemetry::span("frontend.tick");
        let pending = std::mem::take(&mut self.pending);
        let ids: Vec<Option<RequestId>> = pending
            .iter()
            .map(|item| match item {
                Pending::Request(id, _) => Some(*id),
                Pending::Disconnect(_) => None,
            })
            .collect();
        let mut responses: Vec<Option<ServeResponse>> = Vec::new();
        responses.resize_with(pending.len(), || None);

        let mut run: Vec<QueuedDowngrade> = Vec::new();
        for (index, item) in pending.into_iter().enumerate() {
            match item {
                Pending::Request(_, ServeRequest::Downgrade { session, secret, query }) => {
                    run.push(QueuedDowngrade { index, session, secret, query });
                }
                Pending::Request(id, other) => {
                    self.flush_run(&mut run, &mut responses);
                    responses[index] = Some(self.handle(id.conn, other));
                }
                Pending::Disconnect(conn) => {
                    self.flush_run(&mut run, &mut responses);
                    self.teardown(conn);
                }
            }
        }
        self.flush_run(&mut run, &mut responses);
        self.stats.ticks += 1;

        let tagged: Vec<TaggedResponse> = ids
            .into_iter()
            .zip(responses)
            .filter_map(|(id, response)| {
                id.map(|request| TaggedResponse {
                    request,
                    response: response.expect("every request produced a response"),
                })
            })
            .collect();
        self.stats.denials += tagged.iter().map(|t| denials_in(&t.response)).sum::<u64>();
        tagged
    }

    /// Removes (and drops) every session opened by `conn`; the sessions' own teardown notes
    /// their closure in the deployment aggregates.
    fn teardown(&mut self, conn: ConnId) {
        let doomed: Vec<SessionId> = self
            .sessions
            .iter()
            .filter(|(_, open)| open.owner == conn)
            .map(|(id, _)| *id)
            .collect();
        self.stats.sessions_torn_down += doomed.len() as u64;
        for id in doomed {
            self.sessions.remove(&id);
        }
    }

    /// Executes a buffered run of consecutive downgrade requests: regrouped per session, split
    /// at query boundaries, then fused **across sessions** — every round answers one segment
    /// per session with a single pooled decision phase ([`Deployment::downgrade_batch_fused`]).
    fn flush_run(
        &mut self,
        run: &mut Vec<QueuedDowngrade>,
        responses: &mut [Option<ServeResponse>],
    ) {
        if run.is_empty() {
            return;
        }
        // Per-session segment queues, split at query boundaries: within one session,
        // same-secret chains across different queries must keep their arrival order, so a
        // segment may only fuse with *other sessions'* segments, never reorder within its own.
        // The queued requests are consumed by value — this is the hot path, and the points
        // they own become the batches with no clones.
        let mut per_session: BTreeMap<SessionId, VecDeque<Segment>> = BTreeMap::new();
        for queued in run.drain(..) {
            let segments = per_session.entry(queued.session).or_default();
            match segments.back_mut() {
                Some(last) if last.query == queued.query => {
                    last.indices.push(queued.index);
                    last.secrets.push(queued.secret);
                }
                _ => segments.push_back(Segment {
                    query: queued.query,
                    indices: vec![queued.index],
                    secrets: vec![queued.secret],
                }),
            }
        }
        // Unknown sessions answer per element up front, exactly as the sequential replay
        // would at these queue positions (sessions cannot open or close mid-run: the run
        // holds only downgrades).
        per_session.retain(|session_id, segments| {
            if self.sessions.contains_key(session_id) {
                return true;
            }
            for segment in segments.iter() {
                for &index in &segment.indices {
                    responses[index] =
                        Some(ServeResponse::Answer(Err(Denial::unknown_session(*session_id))));
                }
            }
            false
        });
        // Rounds: round r fuses the r-th segment of every session into one pooled decision
        // phase. Cross-session fusion never changes answers — sessions share no mutable
        // state — and within-session order holds because round r+1 only starts after round
        // r committed. Most ticks have exactly one segment per session, so one round.
        while !per_session.is_empty() {
            let mut round: Vec<(SessionId, Segment)> = Vec::new();
            per_session.retain(|session_id, segments| {
                if let Some(segment) = segments.pop_front() {
                    round.push((*session_id, segment));
                }
                !segments.is_empty()
            });
            self.fuse_round(round, responses);
        }
    }

    /// Answers one fused round with a single [`Deployment::downgrade_batch_fused`] call.
    /// Segments are ordered by their query's interned [`PredId`] (the secret layout is
    /// deployment-wide, so the predicate identifies the shared decision work), putting
    /// sessions that downgrade against the same shared predicate adjacent in the scatter —
    /// the same cross-session sharing the single-flight synthesis cache exploits.
    fn fuse_round(
        &mut self,
        round: Vec<(SessionId, Segment)>,
        responses: &mut [Option<ServeResponse>],
    ) {
        let shared = self.deployment.shared();
        let mut ranks: HashMap<(PredId, ApproxKind), usize> = HashMap::new();
        let mut keyed: Vec<(usize, SessionId, Segment)> = round
            .into_iter()
            .map(|(session_id, segment)| {
                let open = self.sessions.get(&session_id).expect("unknown sessions answered");
                let rank = match open.session.query_info(&segment.query) {
                    Some(qinfo) => {
                        let key = (shared.intern_pred(qinfo.query().pred()), qinfo.kind());
                        let next = ranks.len();
                        *ranks.entry(key).or_insert(next)
                    }
                    // Unknown queries answer per element inside the fused driver; park them
                    // after every real group.
                    None => usize::MAX,
                };
                (rank, session_id, segment)
            })
            .collect();
        keyed.sort_by_key(|(rank, session_id, _)| (*rank, *session_id));

        // Pull the round's sessions out of the map so the fused driver can hold one `&mut`
        // per group (groups never alias: one segment per session per round).
        let mut removed: Vec<(SessionId, OpenSession<D>, Segment)> = keyed
            .into_iter()
            .map(|(_, session_id, segment)| {
                let open = self.sessions.remove(&session_id).expect("unknown sessions answered");
                (session_id, open, segment)
            })
            .collect();
        let total: usize = removed.iter().map(|(_, _, segment)| segment.secrets.len()).sum();
        self.stats.batched_downgrades += total as u64;
        self.stats.largest_batch = self.stats.largest_batch.max(total);
        telemetry::observe("batch.size", total as u64);
        let results = {
            let mut groups: Vec<FusedGroup<'_, D>> = removed
                .iter_mut()
                .map(|(_, open, segment)| FusedGroup {
                    session: &mut open.session,
                    secrets: &segment.secrets,
                    query: &segment.query,
                })
                .collect();
            let _span = telemetry::span("deployment.downgrade_batch");
            self.deployment.downgrade_batch_fused(&mut groups)
        };
        for ((_, _, segment), group_results) in removed.iter().zip(results) {
            for (&index, result) in segment.indices.iter().zip(group_results) {
                responses[index] = Some(ServeResponse::Answer(result.map_err(Denial::from)));
            }
        }
        for (session_id, open, _) in removed {
            self.sessions.insert(session_id, open);
        }
    }

    /// Handles every non-`Downgrade` request (downgrades ride [`Frontend::flush_run`]).
    /// `conn` is the logical connection the request arrived on — the owner of any session it
    /// opens.
    fn handle(&mut self, conn: ConnId, request: ServeRequest) -> ServeResponse {
        match request {
            ServeRequest::Downgrade { .. } => unreachable!("downgrades are batched in tick()"),
            ServeRequest::OpenSession { policy } => {
                let id = if self.conn_scoped {
                    let opens = self.conn_opens.entry(conn).or_insert(0);
                    // Checked packing: an id outside the two 32-bit lanes would collide with
                    // another connection's ids, so the open is refused at the boundary and
                    // the open counter does not move.
                    match conn_scoped_session_id(conn, *opens + 1) {
                        Some(id) => {
                            *opens += 1;
                            id
                        }
                        None => {
                            return ServeResponse::Rejected(Denial::new(
                                DenialCode::Internal,
                                format!(
                                    "conn-scoped session-id space exhausted \
                                     (conn {}, opens {})",
                                    conn.0, *opens
                                ),
                            ));
                        }
                    }
                } else {
                    self.next_session += 1;
                    SessionId(self.next_session)
                };
                let mut session = self.deployment.session(policy);
                session.set_query_table(Arc::clone(&self.queries));
                self.sessions.insert(id, OpenSession { owner: conn, session });
                ServeResponse::SessionOpened { session: id }
            }
            ServeRequest::RegisterQuery { query, kind, members } => {
                if let Err(e) = self.deployment.register_query(&query, kind, members) {
                    return ServeResponse::Rejected(Denial::new(
                        DenialCode::Internal,
                        e.to_string(),
                    ));
                }
                // Re-registering an identical query is the steady-state pattern when many
                // tenants each register the slice of a shared palette they use: the table
                // already holds the exact cached approximation, so there is nothing to
                // install. The shared-cache lookup above keeps the deployment's hit/miss
                // aggregates honest.
                if self
                    .registry
                    .get(query.name())
                    .is_some_and(|(q, k, m)| *q == query && *k == kind && *m == members)
                {
                    return ServeResponse::QueryRegistered { name: query.name().to_string() };
                }
                let name = query.name().to_string();
                let Some(indsets) = self.deployment.shared().get_ready(&query, kind, members)
                else {
                    return ServeResponse::Rejected(Denial::from(AnosyError::NotSynthesized {
                        name,
                    }));
                };
                // Every open session holds the table, so this copies it once (entries are
                // refcounted); the sessions then swap to the new one.
                Arc::make_mut(&mut self.queries)
                    .insert(name.clone(), Arc::new(QInfo::new(query.clone(), indsets)));
                for open in self.sessions.values_mut() {
                    open.session.set_query_table(Arc::clone(&self.queries));
                }
                self.registry.insert(name.clone(), (query, kind, members));
                ServeResponse::QueryRegistered { name }
            }
            ServeRequest::DowngradeBatch { session, secrets, query } => {
                let Some(open) = self.sessions.get_mut(&session).map(|open| &mut open.session)
                else {
                    return ServeResponse::Rejected(Denial::unknown_session(session));
                };
                self.stats.batched_downgrades += secrets.len() as u64;
                self.stats.largest_batch = self.stats.largest_batch.max(secrets.len());
                telemetry::observe("batch.size", secrets.len() as u64);
                let results = {
                    let _span = telemetry::span("deployment.downgrade_batch");
                    self.deployment.downgrade_batch(open, &secrets, &query)
                };
                ServeResponse::Answers(
                    results.into_iter().map(|r| r.map_err(|e| DenialCode::of(&e))).collect(),
                )
            }
            ServeRequest::CountModels { pred } => {
                match self.deployment.par_count_models(&pred, &self.deployment.layout().space()) {
                    Ok(sharded) => ServeResponse::Count { models: sharded.value },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::CheckValidity { pred } => {
                match self.deployment.par_check_validity(&pred, &self.deployment.layout().space()) {
                    Ok(sharded) => ServeResponse::Validity {
                        counterexample: match sharded.value {
                            ValidityOutcome::Valid => None,
                            ValidityOutcome::CounterExample(p) => Some(p),
                        },
                    },
                    Err(e) => {
                        ServeResponse::Rejected(Denial::new(DenialCode::Internal, e.to_string()))
                    }
                }
            }
            ServeRequest::Knowledge { session, secret } => {
                let Some(open) = self.sessions.get(&session).map(|open| &open.session) else {
                    return ServeResponse::Rejected(Denial::unknown_session(session));
                };
                let knowledge = open.knowledge_of(&secret);
                ServeResponse::Knowledge {
                    size: knowledge.size(),
                    encoded: knowledge.domain().encode(),
                }
            }
            ServeRequest::Stats => ServeResponse::Stats(Box::new(self.snapshot())),
            // Both telemetry answers read the *reactor thread's* collector: the frontend runs
            // on it, so the snapshot is exactly this shard's recording (empty without a
            // collector, or when telemetry is compiled out).
            ServeRequest::Metrics => ServeResponse::Metrics {
                json: telemetry::snapshot()
                    .map(|r| r.metrics.to_json())
                    .unwrap_or_else(|| "{}".to_string()),
            },
            ServeRequest::Trace => ServeResponse::Trace {
                json: telemetry::snapshot()
                    .map(|r| telemetry::trace_json(std::slice::from_ref(&r)))
                    .unwrap_or_else(|| "[]".to_string()),
            },
            ServeRequest::CloseSession { session } => match self.sessions.remove(&session) {
                Some(_) => ServeResponse::SessionClosed { session },
                None => ServeResponse::Rejected(Denial::unknown_session(session)),
            },
        }
    }
}

impl<D: AbstractDomain> fmt::Debug for Frontend<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frontend")
            .field("sessions", &self.sessions.len())
            .field("registry", &self.registry.len())
            .field("pending", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use anosy_core::PolicySpec;
    use anosy_domains::IntervalDomain;
    use anosy_ifc::Protected;
    use anosy_logic::{IntExpr, SecretLayout};

    fn layout() -> SecretLayout {
        SecretLayout::builder().field("x", 0, 400).field("y", 0, 400).build()
    }

    fn nearby_query(xo: i64) -> QueryDef {
        let pred = ((IntExpr::var(0) - xo).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        QueryDef::new(format!("nearby_{xo}_200"), layout(), pred).unwrap()
    }

    fn frontend() -> Frontend<IntervalDomain> {
        Frontend::new(Deployment::new(layout(), ServeConfig::for_tests()))
    }

    fn downgrade(session: SessionId, x: i64, y: i64, query: &str) -> ServeRequest {
        ServeRequest::Downgrade { session, secret: Point::new(vec![x, y]), query: query.into() }
    }

    #[test]
    fn the_full_surface_round_trips_through_one_tick_sequence() {
        let mut frontend = frontend();
        let conn = frontend.connect();

        // Tick 1: register a query and open two sessions under different policies.
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(30_000) });
        let responses = frontend.tick();
        assert_eq!(responses.len(), 3);
        assert_eq!(
            responses[0].response,
            ServeResponse::QueryRegistered { name: "nearby_200_200".into() }
        );
        let strict = SessionId(2);
        assert_eq!(responses[1].response, ServeResponse::SessionOpened { session: SessionId(1) });
        assert_eq!(responses[2].response, ServeResponse::SessionOpened { session: strict });
        assert_eq!(responses[0].request, RequestId { conn, seq: 1 });

        // Tick 2: downgrades across both sessions in one run — batched, answers exact.
        let lax = SessionId(1);
        frontend.submit(conn, downgrade(lax, 300, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(strict, 300, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(lax, 10, 10, "nearby_200_200"));
        frontend.submit(conn, downgrade(lax, 300, 200, "no_such_query"));
        let responses = frontend.tick();
        assert_eq!(responses[0].response, ServeResponse::Answer(Ok(true)));
        // The strict policy refuses: under min-size 30000 one posterior is too small.
        match &responses[1].response {
            ServeResponse::Answer(Err(denial)) => assert_eq!(denial.code, DenialCode::Policy),
            other => panic!("expected a policy denial, got {other:?}"),
        }
        assert_eq!(responses[2].response, ServeResponse::Answer(Ok(false)));
        match &responses[3].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownQuery)
            }
            other => panic!("expected unknown-query, got {other:?}"),
        }

        // The frontend's answers equal a plain session's sequential ones.
        let mut reference: AnosySession<IntervalDomain> =
            self::reference_session(PolicySpec::MinSize(100));
        let secret = Protected::new(Point::new(vec![300, 200]));
        assert!(reference.downgrade(&secret, "nearby_200_200").unwrap());

        // Tick 3: knowledge, stats, close; then the closed session denies.
        frontend.submit(
            conn,
            ServeRequest::Knowledge { session: lax, secret: Point::new(vec![300, 200]) },
        );
        frontend.submit(conn, ServeRequest::Stats);
        frontend.submit(conn, ServeRequest::CloseSession { session: strict });
        let responses = frontend.tick();
        match &responses[0].response {
            ServeResponse::Knowledge { size, encoded } => {
                assert_eq!(*size, reference.knowledge_of(&Point::new(vec![300, 200])).size());
                assert!(!encoded.is_empty());
            }
            other => panic!("expected knowledge, got {other:?}"),
        }
        match &responses[1].response {
            ServeResponse::Stats(snapshot) => {
                assert_eq!(snapshot.open_sessions, 2);
                assert_eq!(snapshot.requests, 10);
                assert_eq!(snapshot.batched_downgrades, 4);
                assert!(snapshot.largest_batch >= 2, "the lax run batched");
                assert_eq!(snapshot.serve.cache.synth_misses, 1);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert_eq!(responses[2].response, ServeResponse::SessionClosed { session: strict });

        frontend.submit(conn, downgrade(strict, 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        match &responses[0].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected unknown-session, got {other:?}"),
        }
        assert!(format!("{frontend:?}").contains("sessions: 1"));
    }

    /// A plain owned session with the test query registered — the sequential reference.
    fn reference_session(policy: PolicySpec) -> AnosySession<IntervalDomain> {
        let mut session = AnosySession::new(layout(), policy);
        let mut synth = anosy_synth::Synthesizer::with_config(ServeConfig::for_tests().synth);
        session
            .register_synthesized(&mut synth, &nearby_query(200), ApproxKind::Under, None)
            .unwrap();
        session
    }

    #[test]
    fn sessions_opened_after_registration_know_the_query_set() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.tick();
        // A session opened *later* still knows the query: it shares the frontend's table.
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, downgrade(SessionId(1), 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(responses[1].response, ServeResponse::Answer(Ok(true)));
        // One synthesis total.
        assert_eq!(frontend.deployment().stats().cache.synth_misses, 1);

        // Re-registering a *changed* definition under the same name reaches the session opened
        // before the change and one opened after it. (390, 200) is outside the old diamond
        // around (200, 200) and inside the new one around (300, 200).
        let moved = nearby_query(300);
        let changed = QueryDef::new("nearby_200_200", layout(), moved.pred().clone()).unwrap();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery { query: changed, kind: ApproxKind::Under, members: None },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, downgrade(SessionId(1), 390, 200, "nearby_200_200"));
        frontend.submit(conn, downgrade(SessionId(2), 390, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(
            responses[0].response,
            ServeResponse::QueryRegistered { name: "nearby_200_200".into() }
        );
        assert_eq!(responses[1].response, ServeResponse::SessionOpened { session: SessionId(2) });
        assert_eq!(responses[2].response, ServeResponse::Answer(Ok(true)));
        assert_eq!(responses[3].response, ServeResponse::Answer(Ok(true)));
        for open in frontend.sessions.values() {
            assert!(Arc::ptr_eq(open.session.query_table(), &frontend.queries));
            let qinfo = open.session.query_info("nearby_200_200").unwrap();
            assert_eq!(qinfo.query().pred(), moved.pred());
        }
        assert_eq!(frontend.deployment().stats().cache.synth_misses, 2);
    }

    #[test]
    fn opening_sessions_shares_the_table_without_cache_lookups() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        for xo in [200, 300] {
            frontend.submit(
                conn,
                ServeRequest::RegisterQuery {
                    query: nearby_query(xo),
                    kind: ApproxKind::Under,
                    members: None,
                },
            );
        }
        frontend.tick();
        let hits = frontend.deployment().stats().cache.synth_hits;
        for _ in 0..8 {
            frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        }
        frontend.tick();
        assert_eq!(frontend.open_sessions(), 8);
        assert_eq!(frontend.deployment().stats().cache.synth_hits, hits, "opens never look up");
        assert_eq!(frontend.queries.len(), 2);
        for open in frontend.sessions.values() {
            assert!(Arc::ptr_eq(open.session.query_table(), &frontend.queries));
        }
    }

    #[test]
    fn duplicate_secrets_within_one_tick_chain_in_order() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        let session = SessionId(1);
        for _ in 0..4 {
            frontend.submit(conn, downgrade(session, 300, 200, "nearby_200_200"));
        }
        let batched: Vec<ServeResponse> = frontend.tick().into_iter().map(|t| t.response).collect();

        let mut reference = reference_session(PolicySpec::MinSize(100));
        let secret = Protected::new(Point::new(vec![300, 200]));
        let sequential: Vec<ServeResponse> = (0..4)
            .map(|_| {
                ServeResponse::Answer(
                    reference.downgrade(&secret, "nearby_200_200").map_err(Denial::from),
                )
            })
            .collect();
        assert_eq!(batched, sequential);
    }

    #[test]
    fn disconnects_tear_down_owned_sessions_at_their_queue_position() {
        let mut frontend = frontend();
        let a = frontend.connect();
        let b = frontend.connect();
        frontend.submit(
            a,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(a, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(b, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        assert_eq!(frontend.open_sessions(), 2);

        // A downgrade submitted before the disconnect still answers; the same request after it
        // finds the session gone — teardown takes effect at its queue position.
        frontend.submit(b, downgrade(SessionId(1), 300, 200, "nearby_200_200"));
        frontend.disconnect(a);
        frontend.submit(b, downgrade(SessionId(1), 300, 200, "nearby_200_200"));
        let responses = frontend.tick();
        assert_eq!(responses.len(), 2, "the teardown itself produces no response");
        assert_eq!(responses[0].response, ServeResponse::Answer(Ok(true)));
        match &responses[1].response {
            ServeResponse::Answer(Err(denial)) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected unknown-session after teardown, got {other:?}"),
        }
        assert_eq!(frontend.open_sessions(), 1, "b's session survives a's disconnect");
        assert_eq!(frontend.stats().sessions_torn_down, 1);

        // The dropped session reported its closure to the deployment aggregates (the
        // anosy-core teardown hook) — no leak in either ledger.
        let cache = frontend.deployment().stats().cache;
        assert_eq!(cache.sessions_opened, 2);
        assert_eq!(cache.sessions_closed, 1);

        // Disconnecting a connection that owns nothing is a no-op.
        frontend.disconnect(a);
        frontend.tick();
        assert_eq!(frontend.stats().sessions_torn_down, 1);
    }

    #[test]
    fn count_and_validity_ride_the_sharded_driver() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        let pred = ((IntExpr::var(0) - 200).abs() + (IntExpr::var(1) - 200).abs()).le(100);
        frontend.submit(conn, ServeRequest::CountModels { pred: pred.clone() });
        frontend.submit(conn, ServeRequest::CheckValidity { pred });
        let responses = frontend.tick();
        assert_eq!(responses[0].response, ServeResponse::Count { models: 20_201 });
        match &responses[1].response {
            ServeResponse::Validity { counterexample: Some(_) } => {}
            other => panic!("the diamond is not valid everywhere: {other:?}"),
        }
    }

    #[test]
    fn explicit_batches_answer_per_element() {
        let mut frontend = frontend();
        let conn = frontend.connect();
        frontend.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.tick();
        frontend.submit(
            conn,
            ServeRequest::DowngradeBatch {
                session: SessionId(1),
                secrets: vec![
                    Point::new(vec![300, 200]),
                    Point::new(vec![10, 10]),
                    Point::new(vec![9_000, 0]),
                ],
                query: "nearby_200_200".into(),
            },
        );
        let responses = frontend.tick();
        assert_eq!(
            responses[0].response,
            ServeResponse::Answers(vec![Ok(true), Ok(false), Err(DenialCode::OutsideLayout),])
        );
        // An unknown session rejects the whole batch request.
        frontend.submit(
            conn,
            ServeRequest::DowngradeBatch {
                session: SessionId(77),
                secrets: vec![Point::new(vec![0, 0])],
                query: "nearby_200_200".into(),
            },
        );
        match &frontend.tick()[0].response {
            ServeResponse::Rejected(denial) => {
                assert_eq!(denial.code, DenialCode::UnknownSession)
            }
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    #[test]
    fn conn_scoped_id_packing_is_checked_at_both_lanes() {
        let max = u64::from(u32::MAX);
        // In-range edges pack exactly as documented.
        assert_eq!(conn_scoped_session_id(ConnId(0), 1), Some(SessionId((1 << 32) | 1)));
        assert_eq!(conn_scoped_session_id(ConnId(0), max), Some(SessionId((1 << 32) | max)));
        assert_eq!(conn_scoped_session_id(ConnId(max - 1), 1), Some(SessionId((max << 32) | 1)));
        // One past either lane refuses. The unchecked form returned `SessionId(2 << 32)` for
        // the first (colliding with conn 1's first open) and `SessionId(1)`-style wrapped ids
        // for the large-conn cases.
        assert_eq!(conn_scoped_session_id(ConnId(0), max + 1), None);
        assert_eq!(conn_scoped_session_id(ConnId(max), 1), None);
        assert_eq!(conn_scoped_session_id(ConnId(u64::MAX), 1), None, "conn + 1 must not wrap");
    }

    #[test]
    fn exhausted_conn_scoped_opens_reject_without_moving_the_counter() {
        let mut frontend = frontend().with_conn_scoped_sessions();
        let conn = frontend.connect();
        // Seed the connection as if it had already opened 2³² − 1 sessions: the next open
        // would need k = 2³², which bleeds into the conn lane.
        frontend.conn_opens.insert(conn, u64::from(u32::MAX));
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        frontend.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        let responses = frontend.tick();
        for tagged in &responses {
            match &tagged.response {
                ServeResponse::Rejected(denial) => assert_eq!(denial.code, DenialCode::Internal),
                other => panic!("expected a session-id-space rejection, got {other:?}"),
            }
        }
        assert_eq!(frontend.open_sessions(), 0);
        assert_eq!(
            frontend.conn_opens[&conn],
            u64::from(u32::MAX),
            "a refused open must not burn id space"
        );

        // A wire-reachable conn id past the lane (`@4294967295`-style) is refused too,
        // instead of wrapping into another connection's id range.
        let big = ConnId(u64::from(u32::MAX));
        frontend.submit(big, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        match &frontend.tick()[0].response {
            ServeResponse::Rejected(denial) => assert_eq!(denial.code, DenialCode::Internal),
            other => panic!("expected a conn-lane rejection, got {other:?}"),
        }
    }

    #[test]
    fn cross_session_runs_fuse_and_match_sequential_replay() {
        let mut fused = frontend();
        let conn = fused.connect();
        fused.submit(
            conn,
            ServeRequest::RegisterQuery {
                query: nearby_query(200),
                kind: ApproxKind::Under,
                members: None,
            },
        );
        for _ in 0..3 {
            fused.submit(conn, ServeRequest::OpenSession { policy: PolicySpec::MinSize(100) });
        }
        fused.tick();
        // Interleave three sessions' downgrades in one run: the tick answers them in one
        // fused round (largest_batch sees the *fused* size, not the per-session slices).
        let secrets = [(300, 200), (10, 10), (250, 150), (300, 200)];
        for &(x, y) in &secrets {
            for s in 1..=3 {
                fused.submit(conn, downgrade(SessionId(s), x, y, "nearby_200_200"));
            }
        }
        let answers: Vec<ServeResponse> = fused.tick().into_iter().map(|t| t.response).collect();
        assert_eq!(fused.stats().largest_batch, 12, "the round fused all three sessions");

        // Element-wise identical to a sequential per-session replay.
        let mut reference = reference_session(PolicySpec::MinSize(100));
        let sequential: Vec<ServeResponse> = secrets
            .iter()
            .map(|&(x, y)| {
                ServeResponse::Answer(
                    reference
                        .downgrade(&Protected::new(Point::new(vec![x, y])), "nearby_200_200")
                        .map_err(Denial::from),
                )
            })
            .collect();
        for (i, expected) in sequential.iter().enumerate() {
            for s in 0..3 {
                assert_eq!(&answers[i * 3 + s], expected, "secret {i}, session {}", s + 1);
            }
        }
    }
}
