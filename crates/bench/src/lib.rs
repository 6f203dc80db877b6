//! Shared harness code for regenerating the paper's tables and figures.
//!
//! The report binaries (`report_table1`, `report_fig5`, `report_fig6`, `report_baseline`) print
//! the same rows/series the paper reports; the Criterion benches under `benches/` measure the
//! synthesis and verification costs behind them. Both are thin wrappers around the functions in
//! this library so the numbers in EXPERIMENTS.md and the benchmark timings come from the same
//! code path.

use anosy::domains::{AbstractDomain, IntervalDomain, PowersetDomain};
use anosy::prelude::*;
use anosy::suite::benchmarks::{all_benchmarks, Benchmark};
use std::time::{Duration, Instant};

/// One row of Table 1: benchmark metadata plus this repository's exact ind. set sizes.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark short id (`B1` ... `B5`) and name.
    pub id: String,
    /// Number of secret fields.
    pub fields: usize,
    /// Exact True / False ind. set sizes measured by model counting.
    pub measured: (u128, u128),
    /// The sizes published in the paper.
    pub paper: (u128, u128),
    /// Whether our bounds reproduce the paper exactly.
    pub exact_bounds: bool,
}

/// Computes Table 1 (ground-truth ind. set sizes) for every benchmark.
pub fn table1(solver: &mut Solver) -> Vec<Table1Row> {
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let measured = b.ground_truth(solver).expect("ground-truth counting fits the budget");
            Table1Row {
                id: format!("{} {:?}", b.id.short(), b.id),
                fields: b.field_count(),
                measured,
                paper: (b.paper_true_size, b.paper_false_size),
                exact_bounds: b.exact_bounds,
            }
        })
        .collect()
}

/// Which abstract domain a Figure 5 run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5Domain {
    /// Figure 5a: the interval domain.
    Intervals,
    /// Figure 5b: powersets of the given size.
    Powersets(usize),
}

/// One row of Figure 5: sizes, % difference from ground truth and timings for one benchmark and
/// one approximation direction.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Benchmark short id.
    pub id: String,
    /// Approximation direction.
    pub kind: ApproxKind,
    /// Synthesized True / False ind. set sizes.
    pub sizes: (u128, u128),
    /// Percentage difference from the exact ind. set sizes (True, False); lower is better.
    pub diff_percent: (f64, f64),
    /// Verification time.
    pub verify_time: Duration,
    /// Synthesis time.
    pub synth_time: Duration,
    /// Whether verification succeeded (it always should).
    pub verified: bool,
    /// Solver search nodes explored during synthesis (search effort behind `synth_time`).
    pub synth_nodes: u64,
    /// Term-store memo-table hits during synthesis (interned-representation reuse).
    pub cache_hits: u64,
    /// Term-store memo-table misses during synthesis.
    pub cache_misses: u64,
}

fn percent_diff(approx: u128, exact: u128) -> f64 {
    if exact == 0 {
        return if approx == 0 { 0.0 } else { 100.0 * approx as f64 };
    }
    100.0 * (approx as f64 - exact as f64).abs() / exact as f64
}

/// Synthesizes and verifies the ind. sets of one benchmark in one domain/direction, returning the
/// Figure 5 row.
pub fn fig5_row(
    benchmark: &Benchmark,
    domain: Fig5Domain,
    kind: ApproxKind,
    synth_config: &SynthConfig,
) -> Fig5Row {
    let mut solver = Solver::with_config(synth_config.solver.clone());
    let exact = benchmark.ground_truth(&mut solver).expect("ground-truth counting fits the budget");

    let mut synthesizer = Synthesizer::with_config(synth_config.clone());
    let mut verifier = Verifier::with_config(synth_config.solver.clone());

    // Synthesize (timed), then verify (timed), in whichever domain was requested. The two arms
    // produce different concrete domain types, so the shared tail works on the extracted sizes.
    let synth_started = Instant::now();
    let (sizes, synth_time, report) = match domain {
        Fig5Domain::Intervals => {
            let ind = synthesizer
                .synth_interval(&benchmark.query, kind)
                .expect("interval synthesis fits the budget");
            let synth_time = synth_started.elapsed();
            let report = verifier
                .verify_indsets(&benchmark.query, &ind)
                .expect("verification obligations are well-formed");
            ((ind.truthy().size(), ind.falsy().size()), synth_time, report)
        }
        Fig5Domain::Powersets(k) => {
            let ind = synthesizer
                .synth_powerset(&benchmark.query, kind, k)
                .expect("powerset synthesis fits the budget");
            let synth_time = synth_started.elapsed();
            let report = verifier
                .verify_indsets(&benchmark.query, &ind)
                .expect("verification obligations are well-formed");
            ((ind.truthy().size(), ind.falsy().size()), synth_time, report)
        }
    };
    let store = synthesizer.store_stats();
    Fig5Row {
        id: benchmark.id.short().to_string(),
        kind,
        sizes,
        diff_percent: (percent_diff(sizes.0, exact.0), percent_diff(sizes.1, exact.1)),
        verify_time: report.elapsed,
        synth_time,
        verified: report.is_verified(),
        synth_nodes: synthesizer.solver_stats().nodes_explored,
        cache_hits: store.cache_hits(),
        cache_misses: store.cache_misses(),
    }
}

/// Computes the whole Figure 5 table (every benchmark × under/over) for one domain.
pub fn fig5(domain: Fig5Domain, synth_config: &SynthConfig) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        for kind in ApproxKind::ALL {
            rows.push(fig5_row(&b, domain, kind, synth_config));
        }
    }
    rows
}

/// Formats a size the way the paper does: exact below 10⁵, scientific notation above.
pub fn fmt_size(n: u128) -> String {
    if n < 100_000 {
        n.to_string()
    } else {
        format!("{:.2e}", n as f64)
    }
}

/// Renders Table 1 as aligned text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "#   Name        Fields  Ind. sets (ours, T/F)        Ind. sets (paper, T/F)       Bounds\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:>6}  {:>13} / {:<13} {:>13} / {:<13} {}\n",
            r.id,
            r.fields,
            fmt_size(r.measured.0),
            fmt_size(r.measured.1),
            fmt_size(r.paper.0),
            fmt_size(r.paper.1),
            if r.exact_bounds { "exact" } else { "same order" },
        ));
    }
    out
}

/// Renders a Figure 5 table as aligned text (one block per approximation direction).
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    for kind in ApproxKind::ALL {
        out.push_str(&format!(
            "\n{kind}-approximation\n#     Size (T/F)                    %diff (T/F)        Verif.  Synth.   Verified\n"
        ));
        for r in rows.iter().filter(|r| r.kind == kind) {
            out.push_str(&format!(
                "{:<4} {:>13} / {:<13} {:>7.0} / {:<7.0} {:>6.2}s {:>7.2}s  {}\n",
                r.id,
                fmt_size(r.sizes.0),
                fmt_size(r.sizes.1),
                r.diff_percent.0,
                r.diff_percent.1,
                r.verify_time.as_secs_f64(),
                r.synth_time.as_secs_f64(),
                if r.verified { "yes" } else { "NO" },
            ));
        }
    }
    out
}

/// Renders Figure 5 rows as a small JSON document, used to check in benchmark baselines
/// (`BENCH_seed.json`). Hand-rolled: the workspace carries no serde dependency, and every field
/// is a number or a short identifier.
///
/// The document records the measuring host's parallelism next to a `capped_by_host` flag, the
/// same pair the older serve documents (`BENCH_pr3.json` on) carry per parallel row. Figure 5's
/// synthesis and verification run on one thread (`workers = 1`), so the flag is `false` on any
/// host — it exists so tooling can check every `BENCH_*.json` uniformly.
pub fn fig5_rows_to_json(domain_label: &str, rows: &[Fig5Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"figure\": \"{domain_label}\",\n"));
    out.push_str(&format!("  \"host_parallelism\": {},\n", host_parallelism()));
    out.push_str(&format!("  \"capped_by_host\": {},\n", capped_by_host(1)));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", ",
                "\"true_size\": {}, \"false_size\": {}, ",
                "\"diff_true_percent\": {:.4}, \"diff_false_percent\": {:.4}, ",
                "\"synth_seconds\": {:.6}, \"verify_seconds\": {:.6}, \"verified\": {}, ",
                "\"synth_nodes\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}{}\n"
            ),
            r.id,
            r.kind,
            r.sizes.0,
            r.sizes.1,
            r.diff_percent.0,
            r.diff_percent.1,
            r.synth_time.as_secs_f64(),
            r.verify_time.as_secs_f64(),
            r.verified,
            r.synth_nodes,
            r.cache_hits,
            r.cache_misses,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A quick synthesis configuration used by smoke tests and the CI-friendly benches.
pub fn quick_synth_config() -> SynthConfig {
    SynthConfig::new().with_solver(SolverConfig::for_tests()).with_seeds(1)
}

/// Hardware threads of the measuring host (the ceiling on any wall-clock speedup thread
/// parallelism can deliver; recorded in the JSON reports so readers can interpret the ratios).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// Whether a measurement that spread work over `workers` threads was capped by the host: with
/// fewer hardware threads than workers, wall-clock ratios measure batching/protocol overhead,
/// not scaling. Recorded in the JSON reports so readers (and tooling) don't have to infer it.
pub fn capped_by_host(workers: usize) -> bool {
    host_parallelism() < workers
}

/// Precision comparison against the abstract-interpretation baseline for every benchmark.
pub fn baseline_comparison(synth_config: &SynthConfig) -> Vec<anosy::suite::BaselineComparison> {
    let mut solver = Solver::with_config(synth_config.solver.clone());
    let mut synthesizer = Synthesizer::with_config(synth_config.clone());
    all_benchmarks()
        .into_iter()
        .map(|b| {
            let prior = IntervalDomain::top(b.query.layout());
            let (baseline_true, _) = anosy::suite::ai_posterior(&b.query, &prior);
            let exact = b.ground_truth(&mut solver).expect("counting fits the budget");
            let over = synthesizer
                .synth_interval(&b.query, ApproxKind::Over)
                .expect("synthesis fits the budget");
            let under = synthesizer
                .synth_interval(&b.query, ApproxKind::Under)
                .expect("synthesis fits the budget");
            anosy::suite::BaselineComparison {
                query: b.query.name().to_string(),
                exact_true: exact.0,
                baseline_true: baseline_true.size(),
                anosy_over_true: over.truthy().size(),
                anosy_under_true: under.truthy().size(),
            }
        })
        .collect()
}

/// Renders the Figure 6 survivor curves as a text series (one line per powerset size).
pub fn render_fig6(outcomes: &[anosy::suite::AdvertisingOutcome], num_queries: usize) -> String {
    let mut out = String::from("k   survivors after the i-th authorized declassification query\n");
    for o in outcomes {
        let curve = o.survivor_curve(num_queries);
        let rendered: Vec<String> = curve.iter().map(|n| n.to_string()).collect();
        out.push_str(&format!(
            "{:<3} [{}]  (max {} queries, mean {:.1})\n",
            o.k,
            rendered.join(", "),
            o.max_authorized(),
            o.mean_authorized()
        ));
    }
    out
}

/// Ensures the powerset domain really is a domain the harness can use generically (guards against
/// regressions in the facade's re-exports).
pub fn sanity_check_domains(layout: &SecretLayout) -> (u128, u128) {
    (IntervalDomain::top(layout).size(), PowersetDomain::top(layout).size())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_for_exact_benchmarks() {
        let mut solver = Solver::new();
        let rows = table1(&mut solver);
        assert_eq!(rows.len(), 5);
        for r in rows.iter().filter(|r| r.exact_bounds) {
            assert_eq!(r.measured, r.paper, "{}", r.id);
        }
        let text = render_table1(&rows);
        assert!(text.contains("B1"));
        assert!(text.contains("exact"));
    }

    #[test]
    fn fig5_row_for_birthday_is_verified_and_reasonably_precise() {
        let b = anosy::suite::benchmarks::birthday();
        let row = fig5_row(&b, Fig5Domain::Intervals, ApproxKind::Under, &quick_synth_config());
        assert!(row.verified);
        assert_eq!(row.sizes.0, 259); // the True set is exactly representable by one box
        assert!(row.diff_percent.0 < 1e-9);
        let row_p =
            fig5_row(&b, Fig5Domain::Powersets(3), ApproxKind::Under, &quick_synth_config());
        assert!(row_p.verified);
        assert!(row_p.sizes.1 >= row.sizes.1);
        let text = render_fig5(&[row, row_p]);
        assert!(text.contains("under-approximation"));
    }

    #[test]
    fn fig5_json_has_one_object_per_row_and_parseable_shape() {
        let rows = vec![Fig5Row {
            id: "B1".to_string(),
            kind: ApproxKind::Under,
            sizes: (259, 9620),
            diff_percent: (0.0, 27.37),
            verify_time: Duration::from_micros(7),
            synth_time: Duration::from_micros(65),
            verified: true,
            synth_nodes: 420,
            cache_hits: 1700,
            cache_misses: 300,
        }];
        let json = fig5_rows_to_json("fig5a_intervals", &rows);
        assert_eq!(json.matches("{\"id\"").count(), rows.len());
        assert!(json.contains("\"figure\": \"fig5a_intervals\""));
        assert!(json.contains("\"host_parallelism\": "));
        assert!(
            json.contains("\"capped_by_host\": false"),
            "fig5 measurements are single-threaded, never capped"
        );
        assert!(json.contains("\"true_size\": 259"));
        assert!(json.contains("\"verified\": true"));
        assert!(json.contains("\"synth_nodes\": 420"));
        assert!(json.contains("\"cache_hits\": 1700"));
        assert!(json.contains("\"cache_misses\": 300"));
        // Crude but dependency-free well-formedness checks.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "no trailing comma before the array close");
    }

    #[test]
    fn size_formatting_matches_the_papers_style() {
        assert_eq!(fmt_size(259), "259");
        assert_eq!(fmt_size(13_246), "13246");
        assert!(fmt_size(24_300_000).contains('e'));
    }

    #[test]
    fn baseline_comparison_shows_anosy_at_least_as_precise() {
        for c in baseline_comparison(&quick_synth_config()) {
            assert!(c.anosy_over_true <= c.baseline_true, "{}", c.query);
            assert!(c.anosy_under_true <= c.exact_true, "{}", c.query);
        }
    }

    #[test]
    fn fig6_rendering_contains_one_line_per_k() {
        let outcomes = vec![
            anosy::suite::AdvertisingOutcome { k: 1, authorized_per_run: vec![1, 2] },
            anosy::suite::AdvertisingOutcome { k: 3, authorized_per_run: vec![2, 3] },
        ];
        let text = render_fig6(&outcomes, 3);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("max 3"));
    }

    #[test]
    fn domain_sanity_check() {
        let layout = SecretLayout::builder().field("x", 0, 9).build();
        assert_eq!(sanity_check_domains(&layout), (10, 10));
    }
}
