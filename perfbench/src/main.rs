//! `perfbench` — the repository benchmark: `anosy-served` over loopback under three
//! workloads, every response checked against a sequential oracle, plus a traced in-process
//! replay that splits a request's cost by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --server PATH
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds the server and this program
//! first. The last line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Any wrong answer makes the run exit non-zero.

mod client;
mod host;
mod loadgen;
mod oracle;
mod replay;
mod stats;
mod trace;
mod workload;

use anosy_core::SynthesizeInto;
use anosy_domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy_synth::DomainCodec;
use client::{split_tag, Conn, ServerProcess};
use loadgen::Record;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workload::{Generated, Op, Workload, CONNECTIONS, LAYOUT_ARG};

/// The end-to-end metrics, as `BENCHMARK.json` names them, with their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("decisions_per_s", "1/s"),
    ("server_cpu_us_per_req", "us"),
    ("server_peak_rss_mib", "MiB"),
    ("authorized_ratio", "ratio"),
];

/// The per-layer metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 30] = [
    ("wire.decode_ns", "ns"),
    ("wire.parse_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("frontend.tick_ns", "ns"),
    ("frontend.queue_ns", "ns"),
    ("frontend.fused_batch", "count"),
    ("batch.decide_ns", "ns"),
    ("batch.overhead_ns", "ns"),
    ("core.step_ns", "ns"),
    ("core.authorized", "count"),
    ("core.refused", "count"),
    ("parallel.count_us", "us"),
    ("solver.count_us", "us"),
    ("shared.hit_ratio", "ratio"),
    ("shared.register_hit_ns", "ns"),
    ("synth.query_ms", "ms"),
    ("synth.solver_nodes", "count"),
    ("verify.query_ms", "ms"),
    ("store.range_hit_ratio", "ratio"),
    ("store.tri_hit_ratio", "ratio"),
    ("store.nodes", "count"),
    ("journal.append_us", "us"),
    ("journal.appended", "count"),
    ("transport.residual_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("loadgen.sent", "count"),
    ("loadgen.answered", "count"),
    ("loadgen.failed", "count"),
    ("host.steal_share", "ratio"),
    ("replay.coverage", "ratio"),
];

/// Server start-ups per run; `setup_s` is their median.
const SETUP_RUNS: usize = 5;
/// Least share of the replay's wall time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.9;
/// How long the open loop waits past its last due time for outstanding answers.
const OPEN_LOOP_GRACE: Duration = Duration::from_secs(5);
/// Where runs keep their journals and write their traces, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload interactive-interval|bulk-powerset|population-cold \
         --seed N --seconds S --trace 0|1 --server PATH"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [key, value] if key.starts_with("--") => {
                options.insert(&key[2..], value);
            }
            _ => usage(),
        }
    }
    let get = |key: &str| options.get(key).copied().unwrap_or_else(|| usage());
    Args {
        workload: Workload::parse(get("workload")).unwrap_or_else(|| usage()),
        seed: get("seed").parse().unwrap_or_else(|_| usage()),
        seconds: get("seconds").parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage()),
        trace: match get("trace") {
            "0" => false,
            "1" => true,
            _ => usage(),
        },
        server: PathBuf::from(get("server")),
    }
}

/// One run's result: the metrics to print and whether every answer was right.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() {
    let args = parse_args();
    let result = if args.workload.powerset() {
        run::<PowersetDomain>(&args)
    } else {
        run::<IntervalDomain>(&args)
    };
    match result {
        Ok(outcome) => {
            println!("{}", to_json(&outcome));
            if !outcome.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn to_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Removes a run's scratch directory (journals) however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and reused by nothing.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A started server with its connections, ready for the measured window.
struct Ready {
    server: ServerProcess,
    conns: Vec<Conn>,
    setup: Duration,
}

/// Starts the server, connects, and registers the workload's initial query set: everything
/// `setup_s` times. Set-up requests ride logical connection [`SETUP_CONN`] where the
/// workload's own requests ride the socket's id, so the measured stream's tags start at 1.
fn start(
    args: &Args,
    generated: &Generated,
    scratch: &Path,
    attempt: usize,
) -> Result<Ready, String> {
    let workload = args.workload;
    let mut server_args = vec!["--layout".to_string(), LAYOUT_ARG.to_string()];
    server_args.extend(workload.server_args());
    if workload == Workload::Population {
        let journal = scratch.join(format!("served-{attempt}.journal"));
        server_args.extend(["--journal".to_string(), journal.display().to_string()]);
    }
    let begin = Instant::now();
    let server = ServerProcess::spawn(&args.server, &server_args)?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.addr, workload.binary()))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let setup_conn = (workload != Workload::Population).then_some(SETUP_CONN);
    for &q in &generated.initial {
        let request = anosy_serve::wire::encode_request(&generated.register_request(q))
            .expect("palette queries ride the wire");
        conns[0].queue(&match setup_conn {
            Some(conn) => format!("@{conn} {request}"),
            None => request,
        });
    }
    if workload == Workload::Bulk {
        conns[0].queue_tick();
    }
    conns[0].flush().map_err(|e| format!("set-up write: {e}"))?;
    for &q in &generated.initial {
        let text = conns[0].recv().map_err(|e| format!("set-up read: {e}"))?;
        let (_, body) = split_tag(&text)?;
        let expected = format!("ok registered {}", generated.queries[q].name());
        if body != expected {
            return Err(format!("set-up registration answered `{body}`, not `{expected}`"));
        }
    }
    Ok(Ready { server, conns, setup: begin.elapsed() })
}

/// Logical connection of the set-up registrations on single-reactor servers.
const SETUP_CONN: u64 = 900;

/// Asks each socket's reactor shard (from its `stats` line) and assigns the population's
/// tenants logical connection ids that route to it.
fn population_conn_ids(generated: &Generated, conns: &mut [Conn]) -> Result<Vec<u64>, String> {
    let mut shards = Vec::new();
    for conn in conns.iter_mut() {
        conn.queue("stats");
        conn.flush().map_err(|e| format!("stats write: {e}"))?;
        let text = conn.recv().map_err(|e| format!("stats read: {e}"))?;
        let (_, body) = split_tag(&text)?;
        let field = |key: &str| {
            body.split_whitespace().find_map(|t| t.strip_prefix(key)).and_then(|v| v.parse().ok())
        };
        match (field("shard="), field("reactors=")) {
            (Some(shard), Some(reactors)) => shards.push((shard, reactors)),
            _ => return Err(format!("no shard in stats line `{body}`")),
        }
    }
    let reactors = shards[0].1;
    let per_socket = generated.tenants.len().div_ceil(CONNECTIONS);
    let shard_ids: Vec<u64> = shards.iter().map(|&(shard, _)| shard).collect();
    let ids = workload::population_conn_ids(&shard_ids, reactors, per_socket);
    Ok((0..generated.tenants.len()).map(|t| ids[t % CONNECTIONS][t / CONNECTIONS]).collect())
}

/// What the measured window produced.
struct Window {
    records: Vec<Record>,
    seconds: f64,
    cpu: Duration,
    peak_rss_mib: f64,
    steal_share: f64,
    load_average: f64,
}

fn measure(args: &Args, generated: &Generated, ready: Ready) -> Result<Window, String> {
    let Ready { server, mut conns, .. } = ready;
    let conn_ids = match args.workload {
        Workload::Population => population_conn_ids(generated, &mut conns)?,
        _ => Vec::new(),
    };
    let pid = server.pid();
    let cpu_before = host::process_cpu(pid)?;
    let ticks_before = host::CpuTicks::read();
    let load_average = host::load_average();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let records: Vec<Record> = if args.workload == Workload::Population {
        // The first requests are due a millisecond in, once both loop threads are up.
        loadgen::open_loop(
            &mut conns,
            generated,
            &generated.due,
            &conn_ids,
            origin,
            1_000_000,
            OPEN_LOOP_GRACE,
        )?
    } else {
        // One closed-loop thread per connection.
        let per_conn: Vec<Vec<Record>> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter_mut()
                .zip(&generated.streams)
                .map(|(conn, stream)| {
                    scope.spawn(move || match args.workload {
                        Workload::Bulk => {
                            loadgen::bulk_rounds(conn, generated, stream, origin, deadline)
                        }
                        _ => loadgen::closed_loop(
                            conn,
                            generated,
                            stream,
                            workload::INTERACTIVE_PERIOD,
                            origin,
                            deadline,
                        ),
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("a load thread panicked")).collect()
        });
        per_conn.into_iter().flatten().collect()
    };
    let first = records.iter().map(|r| r.due).min().unwrap_or(0);
    let last = records.iter().map(|r| r.recv).max().unwrap_or(0);
    let cpu = host::process_cpu(pid)?.saturating_sub(cpu_before);
    let steal_share = ticks_before.steal_share(&host::CpuTicks::read());
    let peak_rss_mib = host::peak_rss_mib(pid)?;
    for conn in &conns {
        conn.shutdown();
    }
    drop(server);
    Ok(Window {
        records,
        seconds: last.saturating_sub(first) as f64 / 1e9,
        cpu,
        peak_rss_mib,
        steal_share,
        load_average,
    })
}

fn run<D>(args: &Args) -> Result<Outcome, String>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    let workload = args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let generated = workload::generate(workload, args.seed, args.seconds);
    let scratch = Scratch(PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("cannot create scratch: {e}"))?;

    let mut setups = Vec::with_capacity(SETUP_RUNS);
    let mut ready = None;
    for attempt in 0..SETUP_RUNS {
        let started = start(args, &generated, &scratch.0, attempt)?;
        setups.push(started.setup.as_secs_f64());
        // Earlier start-ups are dropped here, which kills their servers.
        ready = Some(started);
    }
    let setup_s = stats::median(&setups);
    let window = measure(args, &generated, ready.expect("at least one start-up"))?;

    let mut oracle = oracle::Oracle::<D>::new(&generated);
    let verdict = oracle.check(&window.records);
    let records = &window.records;
    let transport_failures = records.iter().filter(|r| r.body.is_err()).count() as u64;
    let attempted = records.len() as u64;
    let failed = transport_failures + verdict.mismatches.len() as u64;
    for line in verdict.mismatches.iter().chain(&verdict.unsound).take(20) {
        println!("# MISMATCH {line}");
    }
    for reason in records.iter().filter_map(|r| r.body.as_ref().err()).take(5) {
        println!("# FAILED {reason}");
    }

    let answered: Vec<&Record> = records.iter().filter(|r| r.body.is_ok()).collect();
    let authorized = answered.iter().filter(|r| decision(r) == Some(true)).count() as f64;
    let decisions = answered.iter().filter(|r| decision(r).is_some()).count() as f64;
    let open_loop = workload == Workload::Population;
    let (latency, lateness) = loadgen::timings(records, open_loop);
    let p50 = stats::percentile(&latency, 50.0)?;
    let n_answered = answered.len() as f64;
    let error_rate = failed as f64 / attempted.max(1) as f64;
    // The tail is the median of the run's per-second p99s, so a burst of host noise inside
    // one run moves it less than it moves the whole-run p99.
    let seconds = per_second(records, open_loop);
    let tails: Vec<f64> = seconds.iter().filter_map(|s| stats::percentile(s, 99.0).ok()).collect();
    let p99 = match tails.is_empty() {
        true => stats::percentile(&latency, 99.0)?,
        false => stats::median(&tails),
    };
    let window_s = window.seconds.max(1e-9);
    let (requests_per_s, decisions_per_s) = (n_answered / window_s, decisions / window_s);

    println!(
        "# host nproc={} loadavg={:.2} steal_share={:.4} window_s={:.3}",
        host::nproc(),
        window.load_average,
        window.steal_share,
        window.seconds
    );
    println!(
        "# setup_s runs: {}",
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" ")
    );
    if let Some((p, value)) = stats::highest_tail(&latency) {
        println!(
            "# latency tail: p{p} = {value:.1} us over {} samples (whole-run p99 {:.1} us)",
            latency.len(),
            stats::percentile(&latency, 99.0)?
        );
    }
    if workload == Workload::Population {
        println!(
            "# open loop: {} req/s scheduled; lateness p50 {:.1} us, p99 {:.1} us",
            workload::POPULATION_RATE,
            stats::percentile(&lateness, 50.0)?,
            stats::percentile(&lateness, 99.0)?
        );
    }
    let mut by_kind: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for record in records {
        if let Some(latency) = loadgen::latency_us(record, open_loop) {
            by_kind.entry(op_kind(record.step.op)).or_default().push(latency);
        }
    }
    for (kind, latencies) in &by_kind {
        let tail = stats::highest_tail(latencies)
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.1} us"));
        println!(
            "# latency of {kind}: n={} p50 {:.1} us{tail}",
            latencies.len(),
            stats::percentile(latencies, 50.0)?
        );
    }
    println!(
        "# answered per second: {}",
        seconds.iter().map(|s| s.len().to_string()).collect::<Vec<_>>().join(" ")
    );
    println!(
        "# latency p99 per second (us): {}",
        seconds
            .iter()
            .map(|s| stats::percentile(s, 99.0).map_or("-".into(), |v| format!("{v:.0}")))
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# correctness: {} responses checked against the oracle, {} mismatches; {} queries \
         checked for soundness, {} unsound; error_rate = {error_rate} ratio ({failed} of {attempted})",
        verdict.checked,
        verdict.mismatches.len(),
        verdict.queries,
        verdict.unsound.len()
    );

    let mut correct = failed == 0 && verdict.unsound.is_empty();
    let mut metrics = Vec::new();
    if !args.trace {
        let values = [
            (setup_s, setups.len()),
            (requests_per_s, answered.len()),
            (decisions_per_s, decisions as usize),
            (window.cpu.as_secs_f64() * 1e6 / n_answered.max(1.0), answered.len()),
            (window.peak_rss_mib, 1),
            (authorized / decisions.max(1.0), decisions as usize),
        ];
        for ((name, unit), (value, samples)) in END_TO_END.into_iter().zip(values) {
            println!("# {name} = {value:.6} {unit} (n={samples})");
            metrics.push((name, value, unit));
        }
        // Reported with every run but not gated: on the capture host their run-to-run spread
        // follows CPU steal and exceeds any bound the benchmark may set (see README).
        println!("# latency_p50_us = {p50:.6} us (n={})", latency.len());
        println!("# latency_p99_us = {p99:.6} us (n={})", latency.len());
    } else {
        let downgrade_latency: Vec<f64> = records
            .iter()
            .filter(|r| matches!(r.step.op, Op::Downgrade(_)) && r.body.is_ok())
            .filter_map(|r| loadgen::latency_us(r, open_loop))
            .collect();
        let downgrade_p50 = stats::percentile(&downgrade_latency, 50.0)?;
        let layers = replay::replay::<D>(
            &generated,
            Duration::from_secs_f64(args.seconds),
            &scratch.0,
            downgrade_p50,
        )?;
        let trace_path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", workload.name()));
        std::fs::write(&trace_path, &layers.trace_json)
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        println!(
            "# replay: {} requests, span coverage {:.4}, trace {}",
            layers.requests,
            layers.coverage,
            trace_path.display()
        );
        for (name, t) in &layers.totals {
            println!(
                "# span {name}: n={} total {:.3} ms, self {:.3} ms ({:.1} ns per span)",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.self_ns as f64 / t.count.max(1) as f64
            );
        }
        for line in layers.mismatches.iter().take(20) {
            println!("# REPLAY MISMATCH {line}");
        }
        if layers.coverage < MIN_COVERAGE {
            println!("# REPLAY COVERAGE {:.4} is below {MIN_COVERAGE}", layers.coverage);
        }
        correct &= layers.mismatches.is_empty() && layers.coverage >= MIN_COVERAGE;
        let mut values = layers.metrics;
        values.insert("loadgen.lag_p99_us", stats::percentile(&lateness, 99.0)?);
        values.insert("loadgen.sent", records.iter().filter(|r| r.sent > 0).count() as f64);
        values.insert("loadgen.answered", n_answered);
        values.insert("loadgen.failed", failed as f64);
        values.insert("host.steal_share", window.steal_share);
        values.insert("replay.coverage", layers.coverage);
        for (name, unit) in PER_LAYER {
            let value =
                values.remove(name).ok_or_else(|| format!("layer metric {name} missing"))?;
            println!("# {name} = {value:.6} {unit}");
            metrics.push((name, value, unit));
        }
        assert!(values.is_empty(), "unlisted layer metrics: {:?}", values.keys());
    }
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    Ok(Outcome { correct, attempted, failed, metrics })
}

/// For an answered downgrade decision, whether it was authorized; `None` for any other
/// response (a refusal other than the policy's is not a decision).
fn decision(record: &Record) -> Option<bool> {
    let body = record.body.as_deref().ok()?;
    match record.step.op {
        Op::Downgrade(_) if body.starts_with("ok answer") => Some(true),
        Op::Downgrade(_) if body.starts_with("deny policy") => Some(false),
        _ => None,
    }
}

/// The request verb of an action, for per-kind reporting.
fn op_kind(op: Op) -> &'static str {
    match op {
        Op::Open => "open",
        Op::Register(_) => "register",
        Op::Downgrade(_) => "downgrade",
        Op::Knowledge => "knowledge",
        Op::Close => "close",
        Op::Count(_) => "count",
        Op::Valid(_) => "valid",
    }
}

/// The latencies of the run's answered requests, split into whole seconds by due time from
/// the first; a trailing partial second is dropped unless the run is shorter than a second.
fn per_second(records: &[Record], open_loop: bool) -> Vec<Vec<f64>> {
    let start = records.iter().map(|r| r.due).min().unwrap_or(0);
    let mut seconds: Vec<Vec<f64>> = Vec::new();
    for record in records {
        let (Some(latency), Ok(_)) = (loadgen::latency_us(record, open_loop), &record.body) else {
            continue;
        };
        let index = ((record.due - start) / 1_000_000_000) as usize;
        if seconds.len() <= index {
            seconds.resize_with(index + 1, Vec::new);
        }
        seconds[index].push(latency);
    }
    let end = records.iter().map(|r| r.due).max().unwrap_or(0);
    let whole = ((end - start) / 1_000_000_000) as usize;
    if whole > 0 {
        seconds.truncate(whole);
    }
    seconds
}
