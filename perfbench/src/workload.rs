//! The three workloads: their fixed parameters, and the request streams generated from a seed.
//!
//! Every stream is a pure function of `(workload, seed, seconds)`, so the end-to-end run, the
//! sequential oracle and the traced in-process replay all see the same requests. The server
//! receives only the generated requests; it never sees the seed.

use anosy_core::PolicySpec;
use anosy_logic::{Point, SecretLayout};
use anosy_serve::proto::{ServeRequest, SessionId};
use anosy_serve::wire;
use anosy_suite::population::{Exit, Population, PopulationConfig, TenantAction};
use anosy_synth::{ApproxKind, QueryDef};
use std::sync::Arc;

/// Side of the paper's location grid: secrets are `(x, y)` with `x, y ∈ 0..=400`.
pub const GRID_SIDE: i64 = 400;
/// The grid as an `anosy-served --layout` argument.
pub const LAYOUT_ARG: &str = "x:0:400 y:0:400";
/// Connections (and load-generator threads) every workload uses: the capture host's `nproc`.
pub const CONNECTIONS: usize = 2;

/// Palette size of the warm interval deployment.
const INTERACTIVE_PALETTE: usize = 64;
/// An analyst `count`/`valid` request follows every this many interactive sessions: about 5%
/// of requests, a fixed share, so the p99 lies well inside their latency distribution on
/// every seed instead of straddling its edge.
const ANALYST_EVERY: usize = 3;
/// Think time of the interactive closed loop: each connection sends at most one request per
/// this period (1000 req/s per connection). A saturating loop would spend the host's CPU
/// budget and, on a VM with burst credits, measure the host's throttling instead of the
/// server; the cap keeps the loop well below capacity even under 30% CPU steal.
pub const INTERACTIVE_PERIOD: std::time::Duration = std::time::Duration::from_millis(1);
/// Palette size of the warm powerset deployment.
const BULK_PALETTE: usize = 32;
/// Powerset member budget of the bulk deployment.
pub const BULK_MEMBERS: usize = 3;
/// Live sessions per bulk connection: each round sends one request per slot, then a tick.
pub const BULK_SLOTS: usize = 48;
/// Ranked palette of the cold population (Zipf-skewed).
const POPULATION_PALETTE: usize = 256;
/// Head of the population palette registered at set-up, beside the probe ladder. Left cold,
/// the head would synthesize in a burst in the first second and the run would have no
/// steady state; warm, the tail's first uses keep arriving cold through the whole run.
const POPULATION_WARM_HEAD: usize = 32;
/// Population tenants that never close their session, in permille. None abandon: on a
/// connection multiplexing many tenants, one tenant cannot reset the connection alone.
const POPULATION_LINGER_PERMILLE: u32 = 30;
/// Fixed open-loop arrival rate of the cold population, in requests per second. Set below the
/// closed-loop capacity of a 2-thread host, so the queue stays bounded and lateness shows
/// stalls rather than overload.
pub const POPULATION_RATE: u64 = 2_000;
/// Tenants interleaved at any moment in the population schedule.
const POPULATION_LIVE: usize = 32;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm interval deployment, closed loop of short line-protocol sessions.
    Interactive,
    /// Warm powerset deployment, closed loop of binary-framed ticked rounds.
    Bulk,
    /// Cold journaled interval deployment on two reactors, open-loop seeded population.
    Population,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "interactive-interval" => Some(Workload::Interactive),
            "bulk-powerset" => Some(Workload::Bulk),
            "population-cold" => Some(Workload::Population),
            _ => None,
        }
    }

    /// The `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive-interval",
            Workload::Bulk => "bulk-powerset",
            Workload::Population => "population-cold",
        }
    }

    /// Whether the server runs the powerset domain.
    pub fn powerset(self) -> bool {
        self == Workload::Bulk
    }

    /// Whether connections negotiate the binary frame protocol.
    pub fn binary(self) -> bool {
        self == Workload::Bulk
    }

    /// Whether session ids are connection-scoped (a reactor pool), hence predictable.
    pub fn conn_scoped(self) -> bool {
        self == Workload::Population
    }

    /// `anosy-served` arguments besides `--layout`, `--listen` and `--journal`.
    pub fn server_args(self) -> Vec<String> {
        let workers = CONNECTIONS.to_string();
        let args: Vec<&str> = match self {
            Workload::Interactive => vec!["--workers", &workers, "--reactors", "1"],
            Workload::Bulk => vec!["--workers", &workers, "--domain", "powerset", "--ticked"],
            Workload::Population => vec!["--workers", &workers, "--reactors", "2"],
        };
        args.into_iter().map(str::to_string).collect()
    }
}

/// One protocol action of a tenant (or of the analyst, for `Count`/`Valid`). Query operands
/// index [`Generated::queries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Open the tenant's session with its policy.
    Open,
    /// Register a query (synthesizes on first use in a cold deployment).
    Register(usize),
    /// Downgrade the tenant's secret against a query.
    Downgrade(usize),
    /// Read the tenant's tracked knowledge.
    Knowledge,
    /// Close the tenant's session.
    Close,
    /// Analyst request: count the models of a query's predicate.
    Count(usize),
    /// Analyst request: check a query's predicate for validity.
    Valid(usize),
}

/// One session's script: a policy, one secret, the logical connection it speaks on and its
/// actions in order (the first is always [`Op::Open`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// The session policy.
    pub policy: PolicySpec,
    /// The tenant's secret.
    pub secret: Point,
    /// The `@conn` logical connection, or `None` for bare lines on the socket's own id.
    pub conn: Option<u64>,
    /// The actions, in order.
    pub ops: Vec<Op>,
}

/// One request of a connection's stream: an action of a tenant, or an analyst request
/// (`tenant: None`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index into [`Generated::tenants`].
    pub tenant: Option<u32>,
    /// The action.
    pub op: Op,
}

/// Everything generated from one seed.
#[derive(Debug, Clone)]
pub struct Generated {
    /// Which workload.
    pub workload: Workload,
    /// Every query a step may reference.
    pub queries: Vec<QueryDef>,
    /// Interned names of [`Generated::queries`], as downgrade requests carry them.
    pub names: Vec<Arc<str>>,
    /// Queries registered during set-up (the deployment's initial query set).
    pub initial: Vec<usize>,
    /// Approximation kind of every registration.
    pub kind: ApproxKind,
    /// Powerset member budget of every registration.
    pub members: Option<usize>,
    /// All tenants.
    pub tenants: Vec<Tenant>,
    /// Per connection: the requests in sending order.
    pub streams: Vec<Vec<Step>>,
    /// Per connection: the open-loop send time of each step, in nanoseconds from the start of
    /// the window (empty for closed-loop workloads).
    pub due: Vec<Vec<u64>>,
}

/// SplitMix64: a tiny seeded generator, so streams depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// The grid layout every workload serves.
pub fn layout() -> SecretLayout {
    SecretLayout::builder().field("x", 0, GRID_SIDE).field("y", 0, GRID_SIDE).build()
}

/// The `anosy_suite::population` palette (Manhattan balls) with `palette` ranked queries,
/// followed by the probe-ladder queries.
fn population_palette(seed: u64, palette: usize) -> (Population, Vec<QueryDef>) {
    let config = PopulationConfig::paper(seed).with_tenants(1).with_palette(palette);
    let population = Population::generate(&config);
    let queries = population.queries.clone();
    (population, queries)
}

/// The per-tenant policy mix of `anosy_suite::population::PolicyMix::grid_default`
/// (weights 2:4:2:2 over allow-all, min-size, min-entropy and their conjunction).
fn sample_policy(rng: &mut Rng) -> PolicySpec {
    const SIZES: [u128; 3] = [200, 1_000, 5_000];
    const ENTROPY: [u64; 2] = [4_000, 7_000];
    let size = |rng: &mut Rng| SIZES[rng.range(0, 2) as usize];
    let entropy = |rng: &mut Rng| ENTROPY[rng.range(0, 1) as usize];
    match rng.range(0, 9) {
        0..=1 => PolicySpec::AllowAll,
        2..=5 => PolicySpec::MinSize(size(rng)),
        6..=7 => PolicySpec::MinEntropyMillibits(entropy(rng)),
        _ => PolicySpec::All(vec![
            PolicySpec::MinSize(size(rng)),
            PolicySpec::MinEntropyMillibits(entropy(rng)),
        ]),
    }
}

/// `count` distinct query indices below `palette`, in random order. Distinct, because a
/// session that repeats a query is refused after its first answer (one posterior is empty).
fn distinct_queries(rng: &mut Rng, palette: usize, count: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..palette).collect();
    for i in 0..count {
        let j = i + rng.range(0, (palette - i - 1) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

fn random_secret(rng: &mut Rng) -> Point {
    let side = GRID_SIDE as u64;
    Point::new(vec![rng.range(0, side) as i64, rng.range(0, side) as i64])
}

/// Generates `workload`'s streams for a run of about `seconds` seconds.
pub fn generate(workload: Workload, seed: u64, seconds: f64) -> Generated {
    match workload {
        Workload::Interactive => generate_sessions(workload, seed, seconds),
        Workload::Bulk => generate_sessions(workload, seed, seconds),
        Workload::Population => generate_population(seed, seconds),
    }
}

/// Requests per connection generated for closed-loop workloads: far more than a 2-thread
/// host answers in `seconds`, so the window, not the stream, ends a run.
fn closed_loop_budget(seconds: f64) -> usize {
    (seconds.max(1.0) * 25_000.0) as usize
}

fn generate_sessions(workload: Workload, seed: u64, seconds: f64) -> Generated {
    let interactive = workload == Workload::Interactive;
    let palette = if interactive { INTERACTIVE_PALETTE } else { BULK_PALETTE };
    let (_, mut queries) = population_palette(seed, palette);
    queries.truncate(palette);
    let mut rng = Rng::new(seed ^ 0x0005_EED0_FA11);
    let mut tenants = Vec::new();
    let mut streams = vec![Vec::new(); CONNECTIONS];
    let budget = closed_loop_budget(seconds);
    for (socket, stream) in streams.iter_mut().enumerate() {
        let mut sessions = 0;
        while stream.len() < budget {
            let index = tenants.len() as u32;
            sessions += 1;
            let (burst, knowledge) = if interactive {
                (rng.range(2, 6) as usize, rng.chance(1, 4))
            } else {
                (rng.range(3, 6) as usize, false)
            };
            let mut ops = vec![Op::Open];
            ops.extend(distinct_queries(&mut rng, palette, burst).into_iter().map(Op::Downgrade));
            if knowledge {
                ops.push(Op::Knowledge);
            }
            ops.push(Op::Close);
            let tenant = Tenant {
                policy: sample_policy(&mut rng),
                secret: random_secret(&mut rng),
                // Interactive sessions each speak on a logical connection of their own;
                // bulk sessions share the socket's id.
                conn: interactive.then(|| 1_000 + 2 * u64::from(index) + socket as u64),
                ops,
            };
            stream.extend(tenant.ops.iter().map(|&op| Step { tenant: Some(index), op }));
            tenants.push(tenant);
            if interactive && sessions % ANALYST_EVERY == 0 {
                let query = rng.range(0, palette as u64 - 1) as usize;
                let op = if rng.chance(1, 2) { Op::Count(query) } else { Op::Valid(query) };
                stream.push(Step { tenant: None, op });
            }
        }
    }
    let (kind, members) = if interactive {
        (ApproxKind::Under, None)
    } else {
        (ApproxKind::Under, Some(BULK_MEMBERS))
    };
    finish(workload, queries, (0..palette).collect(), kind, members, tenants, streams, Vec::new())
}

/// Logical connection ids for the population's tenants: ids the reactor pool routes to the
/// shard of the socket that carries them (a claim hashing to another shard is refused), and
/// never reused across sockets.
pub fn population_conn_ids(
    socket_shards: &[u64],
    reactors: u64,
    per_socket: usize,
) -> Vec<Vec<u64>> {
    let mut ids = vec![Vec::with_capacity(per_socket); socket_shards.len()];
    let mut next = 1_000u64;
    for _ in 0..per_socket {
        for (socket, &shard) in socket_shards.iter().enumerate() {
            while anosy_serve::reactor::shard_of(next, reactors) != shard {
                next += 1;
            }
            ids[socket].push(next);
            next += 1;
        }
    }
    ids
}

fn generate_population(seed: u64, seconds: f64) -> Generated {
    let requests = (seconds * POPULATION_RATE as f64).ceil() as usize;
    // About seven requests per tenant; generate enough tenants to cover the window.
    let config = PopulationConfig::paper(seed)
        .with_tenants(requests / 4 + 16)
        .with_palette(POPULATION_PALETTE)
        .with_churn(0, POPULATION_LINGER_PERMILLE);
    let population = Population::generate(&config);
    let queries = population.queries.clone();
    let initial: Vec<usize> =
        (0..POPULATION_WARM_HEAD).chain(population.probe_base..queries.len()).collect();

    let tenants: Vec<Tenant> = population
        .tenants
        .iter()
        .map(|t| {
            let mut ops = vec![Op::Open];
            for action in t.bursts.iter().flatten() {
                ops.push(match action {
                    TenantAction::Register { query } => Op::Register(*query),
                    TenantAction::Downgrade { query, .. } => Op::Downgrade(*query),
                    TenantAction::Knowledge { .. } => Op::Knowledge,
                });
            }
            // Lingering tenants never close: their sessions stay open until the connection
            // carrying them ends, as a leaked session would.
            if t.exit == Exit::Clean {
                ops.push(Op::Close);
            }
            Tenant { policy: t.policy.clone(), secret: t.secret.clone(), conn: None, ops }
        })
        .collect();

    // Interleave POPULATION_LIVE tenants round-robin; a finished tenant's slot goes to the
    // next one. Tenant i rides connection i % CONNECTIONS; request k is due at k / rate.
    let mut streams = vec![Vec::new(); CONNECTIONS];
    let mut due = vec![Vec::new(); CONNECTIONS];
    let mut live: Vec<(u32, usize)> = Vec::new();
    let mut next_tenant = 0usize;
    let mut k = 0u64;
    let period_ns = 1e9 / POPULATION_RATE as f64;
    'schedule: while (k as usize) < requests {
        while live.len() < POPULATION_LIVE && next_tenant < tenants.len() {
            live.push((next_tenant as u32, 0));
            next_tenant += 1;
        }
        if live.is_empty() {
            break;
        }
        let mut i = 0;
        while i < live.len() {
            let (tenant, at) = live[i];
            let socket = tenant as usize % CONNECTIONS;
            streams[socket]
                .push(Step { tenant: Some(tenant), op: tenants[tenant as usize].ops[at] });
            due[socket].push((k as f64 * period_ns) as u64);
            k += 1;
            if at + 1 == tenants[tenant as usize].ops.len() {
                live.swap_remove(i);
            } else {
                live[i].1 += 1;
                i += 1;
            }
            if k as usize >= requests {
                break 'schedule;
            }
        }
    }
    finish(Workload::Population, queries, initial, ApproxKind::Under, None, tenants, streams, due)
}

#[allow(clippy::too_many_arguments)]
fn finish(
    workload: Workload,
    queries: Vec<QueryDef>,
    initial: Vec<usize>,
    kind: ApproxKind,
    members: Option<usize>,
    tenants: Vec<Tenant>,
    streams: Vec<Vec<Step>>,
    due: Vec<Vec<u64>>,
) -> Generated {
    let names = queries.iter().map(|q| Arc::from(q.name())).collect();
    Generated { workload, queries, names, initial, kind, members, tenants, streams, due }
}

impl Generated {
    /// The register request for query `q` with this workload's kind and member budget.
    pub fn register_request(&self, q: usize) -> ServeRequest {
        ServeRequest::RegisterQuery {
            query: self.queries[q].clone(),
            kind: self.kind,
            members: self.members,
        }
    }

    /// The typed request of `step`; `session` is the tenant's server-side id (ignored by
    /// steps that name no session).
    pub fn request(&self, step: Step, session: u64) -> ServeRequest {
        let tenant = step.tenant.map(|t| &self.tenants[t as usize]);
        let secret = || tenant.expect("session steps name a tenant").secret.clone();
        let session = SessionId(session);
        match step.op {
            Op::Open => ServeRequest::OpenSession {
                policy: tenant.expect("opens name a tenant").policy.clone(),
            },
            Op::Register(q) => self.register_request(q),
            Op::Downgrade(q) => ServeRequest::Downgrade {
                session,
                secret: secret(),
                query: Arc::clone(&self.names[q]),
            },
            Op::Knowledge => ServeRequest::Knowledge { session, secret: secret() },
            Op::Close => ServeRequest::CloseSession { session },
            Op::Count(q) => ServeRequest::CountModels { pred: self.queries[q].pred().clone() },
            Op::Valid(q) => ServeRequest::CheckValidity { pred: self.queries[q].pred().clone() },
        }
    }

    /// The wire line of `step` (with its `@conn` prefix when the tenant has one).
    pub fn line(&self, step: Step, session: u64, conn: Option<u64>) -> String {
        let request = wire::encode_request(&self.request(step, session))
            .expect("generated requests ride the line wire");
        match conn {
            Some(conn) => format!("@{conn} {request}"),
            None => request,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_streams() {
        for workload in [Workload::Interactive, Workload::Bulk, Workload::Population] {
            let a = generate(workload, 7, 1.0);
            let b = generate(workload, 7, 1.0);
            assert_eq!(a.streams, b.streams);
            assert_eq!(a.tenants, b.tenants);
            assert_ne!(generate(workload, 8, 1.0).tenants, a.tenants);
        }
    }

    #[test]
    fn sessions_draw_distinct_queries() {
        let generated = generate(Workload::Interactive, 3, 1.0);
        for tenant in &generated.tenants {
            let mut seen = std::collections::BTreeSet::new();
            for op in &tenant.ops {
                if let Op::Downgrade(q) = op {
                    assert!(seen.insert(*q), "query {q} repeated in one session");
                }
            }
        }
    }

    #[test]
    fn population_schedule_is_paced_and_keeps_tenant_order() {
        let generated = generate(Workload::Population, 5, 1.0);
        let total: usize = generated.streams.iter().map(Vec::len).sum();
        assert_eq!(total, POPULATION_RATE as usize);
        for (stream, due) in generated.streams.iter().zip(&generated.due) {
            assert!(due.windows(2).all(|w| w[0] < w[1]));
            let mut progress = std::collections::HashMap::new();
            for step in stream {
                let tenant = step.tenant.unwrap();
                let at = progress.entry(tenant).or_insert(0usize);
                assert_eq!(generated.tenants[tenant as usize].ops[*at], step.op);
                *at += 1;
            }
        }
    }

    #[test]
    fn population_conn_ids_land_on_their_socket_shard() {
        let ids = population_conn_ids(&[1, 1], 2, 50);
        for socket in &ids {
            assert!(socket.iter().all(|&id| anosy_serve::reactor::shard_of(id, 2) == 1));
        }
        let all: std::collections::BTreeSet<u64> = ids.iter().flatten().copied().collect();
        assert_eq!(all.len(), 100);
    }
}
