//! `anosy-served` — the serving protocol over stdin/stdout or a TCP socket.
//!
//! Both transports run the same event-loop reactor ([`anosy_serve::Server`]) around the sans-IO
//! [`anosy_serve::Frontend`]: each input line is one request in the [`anosy_serve::wire`] text
//! form, each output line one tagged response (`<conn>.<seq> <response>`). Examples, tests, CI
//! smoke scripts and network clients all speak this one format — the canned smoke transcript
//! produces byte-identical output over a pipe and over a loopback socket.
//!
//! ```text
//! anosy-served --layout "x:0:400 y:0:400" [options] < requests > responses
//! anosy-served --layout "x:0:400 y:0:400" --listen 127.0.0.1:7070 [options]
//! ```
//!
//! Options:
//!
//! * `--layout "<name:lo:hi> ..."` — the secret space served (required);
//! * `--domain interval|powerset` — the knowledge domain (default `interval`);
//! * `--workers N` — shard-pool width (default: available parallelism);
//! * `--journal PATH` — the synthesis cache's one durability path ([`anosy_serve::journal`]):
//!   warm-restart from `PATH.snapshot` + `PATH` (journal replay, torn-tail tolerant), then
//!   append every newly synthesized entry to `PATH` as it commits. Recovery reports as a
//!   `# journal recovered replayed=N torn=N snapshot_loaded=N skipped=N` line;
//! * `--verify-on-load` — with `--journal`: re-verify every recovered entry with the solver
//!   before installing it, skipping (and counting) the ones that fail;
//! * `--journal-flush every-entry-fsync|every-entry|every-N|on-tick` — with `--journal`: when
//!   journal appends reach the OS (default `every-entry`); `every-entry-fsync` additionally
//!   `fsync`s every append to the device, the strongest rung;
//! * `--compact-every N` — with `--journal`: every `N` server ticks, fold the journal into its
//!   snapshot while serving continues (no stop-the-world);
//! * `--ticked` — accumulate requests and tick only on blank lines, quiescence timers and
//!   connection teardown, so scripted transcripts control batching; the default ticks after
//!   every request line;
//! * `--listen ADDR` — serve TCP connections on `ADDR` instead of stdin/stdout (port 0 picks a
//!   free port; the bound address is announced as a `# listening on ...` line on stdout).
//!   Sockets are served readiness-based ([`anosy_serve::PollTransport`]: epoll where the
//!   platform has it, the portable sleep loop otherwise) — responses are byte-identical either
//!   way;
//! * `--accept N` — with `--listen`: exit after `N` connections have been served (tests);
//! * `--tick-ms MS` — with `--listen --ticked`: quiescence timer, ticking pending work after
//!   `MS` milliseconds of idleness;
//! * `--reactors N` — with `--listen`: shard connections across `N` reactor threads over the
//!   one shared deployment ([`anosy_serve::ReactorPool`]; arrival-order hash assignment,
//!   connection-scoped session ids, responses invariant under `N`). Default `1`: the
//!   standalone single-reactor server;
//! * `--trace PATH` — after the run, write every reactor's recorded spans as a
//!   chrome://tracing JSON array (load it in `about:tracing` or Perfetto). Over stdin/stdout
//!   the trace clock is the reactor's poll counter, so a piped script traces byte-identically
//!   on every replay — the CI trace-smoke check.
//!
//! A connection whose very first bytes are the magic preamble `anosy-bin v1\n` is served the
//! **binary frame protocol** instead: every subsequent request rides a
//! `[len u32 LE][fnv1a-64 u64 LE][payload]` frame whose payload is one protocol line, and every
//! response comes back framed the same way (see [`anosy_serve::wire`], "Binary frames").
//! Anything else falls back to the line protocol — old clients keep working unchanged.
//!
//! Input lines starting with `#` are comments. A line may carry an explicit logical connection
//! as `@<conn> <request>`; bare lines ride the transport connection's own id (stdin: 0, sockets:
//! accept order). Malformed lines answer with an unnumbered `! <reason>` line (they never reach
//! the frontend, so they consume no sequence number). Per-connection I/O errors close *that
//! connection* — its sessions are released and the denial is logged to stderr; the process keeps
//! serving. Start-up actions (journal recovery, the listening address) report as `# ...` comment
//! lines, keeping transcripts diffable.

use anosy_core::SynthesizeInto;
use anosy_domains::{IntervalDomain, PowersetDomain};
use anosy_logic::SecretLayout;
use anosy_serve::{
    reactor, wire, Deployment, FlushPolicy, Frontend, JournalConfig, PollTransport, ReactorPool,
    ServeConfig, Server, ServerConfig, StdioTransport, Transport,
};
use anosy_synth::DomainCodec;
use std::io::Write;
use std::time::Duration;

struct Options {
    layout: SecretLayout,
    domain: String,
    config: ServeConfig,
    verify_on_load: bool,
    ticked: bool,
    listen: Option<String>,
    accept: Option<usize>,
    tick_ms: Option<u64>,
    reactors: u64,
    trace: Option<std::path::PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: anosy-served --layout \"x:0:400 y:0:400\" [--domain interval|powerset] \
         [--workers N] [--journal PATH [--verify-on-load] \
         [--journal-flush every-entry-fsync|every-entry|every-N|on-tick] \
         [--compact-every N]] [--ticked] [--trace PATH] \
         [--listen ADDR [--accept N] [--tick-ms MS] [--reactors N]]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut layout = None;
    let mut domain = "interval".to_string();
    let mut config = ServeConfig::new();
    let mut verify_on_load = false;
    let mut journal = None;
    let mut journal_flush = None;
    let mut compact_every = None;
    let mut ticked = false;
    let mut listen = None;
    let mut accept = None;
    let mut tick_ms = None;
    let mut reactors = 1u64;
    let mut trace = None;
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--layout" => {
                layout = Some(wire::parse_layout(&value(&mut i)).unwrap_or_else(|| usage()));
            }
            "--domain" => {
                domain = value(&mut i);
                if domain != "interval" && domain != "powerset" {
                    usage();
                }
            }
            "--workers" => {
                let workers = value(&mut i).parse().unwrap_or_else(|_| usage());
                config = config.with_workers(workers);
            }
            "--trace" => trace = Some(std::path::PathBuf::from(value(&mut i))),
            "--verify-on-load" => verify_on_load = true,
            "--journal" => journal = Some(std::path::PathBuf::from(value(&mut i))),
            "--journal-flush" => {
                journal_flush = Some(FlushPolicy::parse(&value(&mut i)).unwrap_or_else(|| usage()));
            }
            "--compact-every" => {
                compact_every = Some(value(&mut i).parse().unwrap_or_else(|_| usage()));
            }
            "--ticked" => ticked = true,
            "--listen" => listen = Some(value(&mut i)),
            "--accept" => accept = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--tick-ms" => tick_ms = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--reactors" => {
                reactors = value(&mut i).parse().unwrap_or_else(|_| usage());
                if reactors == 0 {
                    usage();
                }
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(layout) = layout else { usage() };
    if (accept.is_some() || tick_ms.is_some() || reactors > 1) && listen.is_none() {
        usage();
    }
    if tick_ms.is_some() && !ticked {
        usage();
    }
    match journal {
        Some(path) => {
            let mut journal = JournalConfig::new(path);
            if let Some(flush) = journal_flush {
                journal = journal.with_flush(flush);
            }
            if let Some(ticks) = compact_every {
                journal = journal.with_compact_every(ticks);
            }
            config = config.with_journal(journal);
        }
        None if compact_every.is_some() || journal_flush.is_some() || verify_on_load => usage(),
        None => {}
    }
    Options {
        layout,
        domain,
        config,
        verify_on_load,
        ticked,
        listen,
        accept,
        tick_ms,
        reactors,
        trace,
    }
}

fn main() {
    let options = parse_options();
    if options.domain == "powerset" {
        serve::<PowersetDomain>(options);
    } else {
        serve::<IntervalDomain>(options);
    }
}

fn serve<D>(options: Options)
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
{
    let deployment: Deployment<D> = Deployment::new(options.layout.clone(), options.config.clone());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    // Warm restart from the journal's snapshot + replay, then attach the commit observer so
    // everything synthesized from here on is journaled as it lands.
    match deployment.open_journal(options.verify_on_load) {
        Ok(Some(recovery)) => writeln!(
            out,
            "# journal recovered replayed={} torn={} snapshot_loaded={} skipped={}",
            recovery.replayed,
            recovery.torn,
            recovery.snapshot_loaded,
            recovery.snapshot_skipped + recovery.replay_skipped,
        )
        .expect("stdout is writable"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("anosy-served: cannot open journal: {e}");
            std::process::exit(1);
        }
    }

    let server_config = ServerConfig::new().ticked(options.ticked);
    match &options.listen {
        // The reactor pool: an acceptor thread routes connections to N readiness-based
        // reactor shards over the one shared deployment.
        Some(addr) if options.reactors > 1 => {
            let tick_interval = options.tick_ms.map(Duration::from_millis);
            let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
                eprintln!("anosy-served: cannot listen on {addr}: {e}");
                std::process::exit(1);
            });
            match listener.local_addr() {
                Ok(bound) => writeln!(out, "# listening on {bound} reactors={}", options.reactors),
                Err(e) => writeln!(out, "# listening (address unavailable: {e})"),
            }
            .expect("stdout is writable");
            out.flush().expect("stdout is flushable");
            drop(out);
            let pool = ReactorPool::new(options.reactors).with_config(server_config);
            let servers = pool
                .serve(&deployment, listener, options.accept, tick_interval)
                .unwrap_or_else(|e| {
                    eprintln!("anosy-served: cannot set up the reactor pool: {e}");
                    std::process::exit(1);
                });
            let folded = reactor::fold_stats(
                &servers.iter().map(|s| s.frontend().snapshot()).collect::<Vec<_>>(),
            );
            eprintln!(
                "# pool drained: reactors={} requests={} open={} denied={}",
                options.reactors, folded.requests, folded.open_sessions, folded.denials
            );
            let logs: Vec<&[anosy_serve::IoLogEntry]> =
                servers.iter().map(|s| s.io_log()).collect();
            for entry in reactor::merge_io_logs(&logs) {
                eprintln!("# merged io-log: {entry}");
            }
            let reports: Vec<anosy_serve::Report> =
                servers.iter().filter_map(|s| s.telemetry_report().cloned()).collect();
            write_trace(&options, &reports);
        }
        Some(addr) => {
            let tick_interval = options.tick_ms.map(Duration::from_millis);
            let transport = PollTransport::bind(addr, options.accept, tick_interval)
                .unwrap_or_else(|e| {
                    eprintln!("anosy-served: cannot listen on {addr}: {e}");
                    std::process::exit(1);
                });
            match transport.local_addr() {
                Ok(bound) => writeln!(out, "# listening on {bound}"),
                Err(e) => writeln!(out, "# listening (address unavailable: {e})"),
            }
            .expect("stdout is writable");
            out.flush().expect("stdout is flushable");
            drop(out);
            let mut server = Server::new(Frontend::new(deployment), transport, server_config);
            finish(&mut server, &options);
        }
        None => {
            drop(out);
            let mut server =
                Server::new(Frontend::new(deployment), StdioTransport::new(), server_config);
            finish(&mut server, &options);
        }
    }
}

/// Writes the run's spans as a chrome://tracing JSON array when `--trace` asked for it.
fn write_trace(options: &Options, reports: &[anosy_serve::Report]) {
    let Some(path) = &options.trace else { return };
    match std::fs::write(path, anosy_serve::trace_json(reports)) {
        Ok(()) => eprintln!("# trace written: {} ({} reactors)", path.display(), reports.len()),
        Err(e) => eprintln!("# trace write failed: {e}"),
    }
}

/// Runs the reactor to completion (per-connection denials reach stderr as they happen) and
/// writes the trace when asked.
fn finish<D, T>(server: &mut Server<D, T>, options: &Options)
where
    D: DomainCodec + SynthesizeInto + Send + Sync + 'static,
    T: Transport,
{
    server.run();
    let reports: Vec<anosy_serve::Report> =
        server.telemetry_report().cloned().into_iter().collect();
    write_trace(options, &reports);
}
