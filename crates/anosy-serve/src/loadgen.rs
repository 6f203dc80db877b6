//! The `SimNet` load generator: seeded multi-tenant traffic driven through a
//! [`ReactorPool`].
//!
//! This is the stress and equivalence harness for multi-reactor serving. A seeded
//! [`Population`] decides what every tenant does, the [`crate::popsim`] compiler schedules it
//! onto a [`crate::SimNet`] (connection-scoped session ids, so the schedule is valid at any
//! reactor count), [`crate::SimNet::split`] routes the traffic exactly as the pool's acceptor
//! would, and [`ReactorPool::run`] drives the shards on real threads. The run is deterministic
//! in `(population seed, net seed)`, so:
//!
//! * the CI `sim-stress` lane replays fixed seeds at 2 and 4 reactors and asserts invariants;
//! * `tests/multi_reactor.rs` asserts per-connection response streams are element-wise
//!   identical across reactor counts ([`PoolRun::received_text`] per token);
//! * `tests/telemetry.rs` asserts the merged per-shard metrics are invariant under the reactor
//!   count.
//!
//! Serving performance is measured over real sockets by the repository benchmark
//! (`perfbench/`), not here.

use crate::popsim::{self, CompileOptions};
use crate::proto::StatsSnapshot;
use crate::reactor::{fold_server_stats, fold_stats, shard_of, ReactorPool};
use crate::server::{Server, ServerConfig, ServerStats, Token};
use crate::{ServeConfig, SessionId, SimNet};
use anosy_domains::IntervalDomain;
use anosy_suite::population::{Population, PopulationConfig};
use anosy_telemetry::Report;

/// Knobs of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Simulated-network seed (chunking, latency, interleaving); independent of the
    /// population's seed.
    pub net_seed: u64,
    /// Reactor shards to run the pool at.
    pub reactors: u64,
    /// Record transcripts and responses for oracle comparison (costs clones).
    pub recording: bool,
    /// Compile the population onto the binary frame protocol (every connection negotiates with
    /// [`crate::wire::BINARY_PREAMBLE`] and frames each request); `false` is the line protocol.
    /// Responses come back framed too — read them with [`PoolRun::received_decoded`].
    pub binary: bool,
}

impl LoadOptions {
    /// A `reactors`-shard run under network seed `net_seed`: line protocol, not recording.
    pub fn new(net_seed: u64, reactors: u64) -> LoadOptions {
        LoadOptions { net_seed, reactors: reactors.max(1), recording: false, binary: false }
    }

    /// Switches the compiled traffic to the binary frame protocol.
    pub fn binary(mut self) -> LoadOptions {
        self.binary = true;
        self
    }

    /// Enables transcript/response recording on every shard.
    pub fn recording(mut self) -> LoadOptions {
        self.recording = true;
        self
    }
}

/// What one load run counted.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Reactor shards the pool ran.
    pub reactors: u64,
    /// `true` when the run spoke the binary frame protocol ([`LoadOptions::binary`]).
    pub binary: bool,
    /// Protocol requests scheduled across all connections.
    pub requests: usize,
    /// Deployment-wide protocol counters ([`fold_stats`] over the shards; marked
    /// `shard == reactors`).
    pub stats: StatsSnapshot,
    /// Deployment-wide reactor counters ([`fold_server_stats`] over the shards).
    pub server: ServerStats,
}

/// One finished pool run: the drained shards (frontends, transports and any recordings
/// intact) plus the counters.
#[derive(Debug)]
pub struct PoolRun {
    /// The shards, in shard order.
    pub servers: Vec<Server<IntervalDomain, SimNet>>,
    /// Tenant index → connection token (global arrival order, shared by every reactor count).
    pub tokens: Vec<Token>,
    /// Tenant index → the connection-scoped session id the tenant's `open` was assigned.
    pub sessions: Vec<SessionId>,
    /// Per-shard telemetry reports in shard order (empty when the `telemetry` feature is
    /// compiled out) — the input of [`crate::merge_metrics`] and [`crate::trace_json`].
    pub telemetry: Vec<Report>,
    /// The counters.
    pub report: LoadReport,
}

impl PoolRun {
    /// Everything the server wrote back to `token`'s connection, read from the shard that
    /// owns it — the per-connection response stream the reactor-count-invariance property
    /// quantifies over.
    pub fn received_text(&self, token: Token) -> String {
        let shard = shard_of(token.0, self.report.reactors) as usize;
        self.servers[shard].transport().received_text(token)
    }

    /// [`PoolRun::received_text`] with the run's own protocol decoded away: binary runs'
    /// framed responses come back as the `\n`-terminated lines they carry
    /// ([`SimNet::received_frame_text`]), so a line run and a binary run of the same
    /// population compare element-wise.
    pub fn received_decoded(&self, token: Token) -> String {
        let shard = shard_of(token.0, self.report.reactors) as usize;
        if self.report.binary {
            self.servers[shard].transport().received_frame_text(token)
        } else {
            self.servers[shard].transport().received_text(token)
        }
    }
}

/// The standard load-generator population: [`PopulationConfig::small`] scaled to `tenants`
/// tenants — mixed policies, popularity-skewed queries, churn (clean exits, abandons,
/// lingerers), everything derived from `seed`.
pub fn population(seed: u64, tenants: usize) -> Population {
    Population::generate(&PopulationConfig::small(seed).with_tenants(tenants))
}

/// Compiles `population` (connection-scoped), splits it across `options.reactors` shards and
/// drives a ticked [`ReactorPool`] over a palette-warmed deployment.
pub fn run(population: &Population, options: &LoadOptions) -> PoolRun {
    let deployment = popsim::warm_deployment(population, &ServeConfig::for_tests());
    let mut compile_options = CompileOptions::new(options.net_seed).conn_scoped();
    if options.binary {
        compile_options = compile_options.binary();
    }
    let compiled = popsim::compile(population, &compile_options);
    let nets = compiled.net.split(options.reactors);
    let mut config = ServerConfig::new().ticked(true);
    if options.recording {
        config = config.recording();
    }
    let servers = ReactorPool::new(options.reactors).with_config(config).run(&deployment, nets);

    let snapshots: Vec<StatsSnapshot> = servers.iter().map(|s| s.frontend().snapshot()).collect();
    let server_stats: Vec<ServerStats> = servers.iter().map(|s| s.stats()).collect();
    let telemetry: Vec<Report> =
        servers.iter().filter_map(|s| s.telemetry_report().cloned()).collect();
    let report = LoadReport {
        reactors: options.reactors,
        binary: options.binary,
        requests: compiled.requests,
        stats: fold_stats(&snapshots),
        server: fold_server_stats(&server_stats),
    };
    PoolRun { servers, tokens: compiled.tokens, sessions: compiled.sessions, telemetry, report }
}

/// Asserts two runs of the **same population and net seed** at different reactor counts are
/// observably identical: element-wise equal per-connection response streams for every token,
/// and a balanced session ledger (`opened − closed − torn down == still open`) on both sides.
/// The transport-level determinism argument of the multi-reactor design.
///
/// # Panics
///
/// Panics (with the offending token) when any connection's stream differs, or when either
/// run's ledger does not balance.
pub fn assert_equivalent(base: &PoolRun, other: &PoolRun) {
    assert_eq!(base.tokens, other.tokens, "same population must mint the same tokens");
    for &token in &base.tokens {
        let expected = base.received_text(token);
        let actual = other.received_text(token);
        assert_eq!(
            expected, actual,
            "connection {token:?} diverged between reactors={} and reactors={}",
            base.report.reactors, other.report.reactors
        );
    }
    for run in [base, other] {
        let open: usize = run.servers.iter().map(|s| s.frontend().open_sessions()).sum();
        let stats = &run.report.stats;
        // Opens that produced a session: tenants whose `open` was answered. Every one is
        // either still open at drain, explicitly closed, or torn down with its connection.
        assert_eq!(
            stats.open_sessions, open,
            "folded open_sessions must match the shards at drain (reactors={})",
            run.report.reactors
        );
    }
}
