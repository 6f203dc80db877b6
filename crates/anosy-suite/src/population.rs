//! The multi-tenant population simulator (the macro-workload generator).
//!
//! Every benchmark before this module drove the deployment with the Mardziel et al. B1–B5
//! suite at uniform scale — microbenchmarks. The ROADMAP's north star is *heavy traffic from
//! millions of heterogeneous users*, and this module generates that shape: N simulated
//! tenants, each with a secret, a [`PolicySpec`] drawn from a weighted mix, a session
//! lifecycle (connect → downgrade bursts → clean close, abandon, or linger), and a query
//! stream drawn from a shared palette under configurable popularity skew
//! ([`Skew::Zipf`]/[`Skew::Sharp`] make the head of the palette hot, which is what gives the
//! deployment's single-flight synthesis cache a realistic workout). A configurable fraction
//! of tenants are *adversarial*: they climb a geometric ladder of threshold probes against
//! their own secret until the policy refuses.
//!
//! Everything is a pure function of [`PopulationConfig`] — same config (same seed) ⇒
//! byte-identical population, property-tested in `tests/proptest_population.rs`. The
//! `anosy-serve` crate compiles a population into a `SimNet` script (`anosy_serve::popsim`),
//! replays it through the event-loop server, and checks every response against the
//! sequential-session oracle.

use anosy_core::PolicySpec;
use anosy_logic::{IntExpr, Point, SecretLayout};
use anosy_synth::QueryDef;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Which secret space the population's tenants live in.
///
/// Heterogeneous layouts are one of the population's scenario axes: the same protocol and
/// generator drive both the paper's 2-D location grid and a 1-D strip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopulationLayout {
    /// The paper's 2-D location grid: `x, y ∈ 0..=side`.
    Grid {
        /// Upper bound of both coordinates (the paper's evaluation uses 400).
        side: i64,
    },
    /// A 1-D strip `x ∈ 0..=len`.
    Strip {
        /// Upper bound of the single coordinate.
        len: i64,
    },
}

impl PopulationLayout {
    /// The concrete secret layout.
    pub fn layout(&self) -> SecretLayout {
        match self {
            PopulationLayout::Grid { side } => {
                SecretLayout::builder().field("x", 0, *side).field("y", 0, *side).build()
            }
            PopulationLayout::Strip { len } => SecretLayout::builder().field("x", 0, *len).build(),
        }
    }

    /// Upper bound of the first (probed) coordinate.
    pub fn extent(&self) -> i64 {
        match self {
            PopulationLayout::Grid { side } => *side,
            PopulationLayout::Strip { len } => *len,
        }
    }
}

/// Query-popularity skew across the ranked palette.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every palette query equally likely.
    Uniform,
    /// Zipf with exponent 1: rank `i` drawn with weight `∝ 1/(i+1)`.
    Zipf,
    /// Zipf with exponent 2 (a much hotter head): weight `∝ 1/(i+1)²`.
    Sharp,
}

/// Integer fixed-point popularity weights over query ranks, and a cumulative-weight sampler.
///
/// Weights are computed in integer arithmetic only (no `powf`), so the distribution — and
/// therefore every generated population — is bit-stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPopularity {
    weights: Vec<u64>,
    cumulative: Vec<u64>,
}

impl QueryPopularity {
    /// Fixed-point scale of the rank-0 weight.
    const SCALE: u64 = 1 << 24;

    /// Popularity over `ranks` queries under `skew`.
    ///
    /// # Panics
    ///
    /// Panics when `ranks` is zero.
    pub fn new(skew: Skew, ranks: usize) -> QueryPopularity {
        assert!(ranks > 0, "a popularity distribution needs at least one rank");
        let weights: Vec<u64> = (0..ranks as u64)
            .map(|i| match skew {
                Skew::Uniform => Self::SCALE,
                Skew::Zipf => Self::SCALE / (i + 1),
                Skew::Sharp => Self::SCALE / ((i + 1) * (i + 1)),
            })
            .collect();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0u64;
        for w in &weights {
            total += w;
            cumulative.push(total);
        }
        QueryPopularity { weights, cumulative }
    }

    /// The per-rank weights (monotone non-increasing in rank — property-tested).
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Draws a rank with probability proportional to its weight.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let roll = rng.gen_range(0..total);
        self.cumulative.partition_point(|&c| c <= roll)
    }
}

/// A weighted mix of per-tenant policies: the four shapes [`PolicySpec`] supports, with the
/// threshold palettes each shape draws from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyMix {
    /// Weight of [`PolicySpec::AllowAll`].
    pub allow_all: u32,
    /// Weight of a single [`PolicySpec::MinSize`] atom.
    pub min_size: u32,
    /// Weight of a single [`PolicySpec::MinEntropyMillibits`] atom.
    pub min_entropy: u32,
    /// Weight of a size ∧ entropy conjunction ([`PolicySpec::All`]).
    pub conjunction: u32,
    /// Candidate min-size thresholds.
    pub sizes: Vec<u128>,
    /// Candidate min-entropy thresholds, in millibits.
    pub entropy_millibits: Vec<u64>,
}

impl PolicyMix {
    /// A mix scaled to the 400 × 400 grid (space ≈ 2¹⁷·³).
    pub fn grid_default() -> PolicyMix {
        PolicyMix {
            allow_all: 2,
            min_size: 4,
            min_entropy: 2,
            conjunction: 2,
            sizes: vec![200, 1_000, 5_000],
            entropy_millibits: vec![4_000, 7_000],
        }
    }

    /// A mix scaled to a ~1000-wide strip (space ≈ 2¹⁰).
    pub fn strip_default() -> PolicyMix {
        PolicyMix {
            allow_all: 2,
            min_size: 4,
            min_entropy: 2,
            conjunction: 2,
            sizes: vec![10, 40],
            entropy_millibits: vec![2_000, 4_000],
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> PolicySpec {
        let total = self.allow_all + self.min_size + self.min_entropy + self.conjunction;
        assert!(total > 0, "policy mix needs at least one positive weight");
        let pick_size = |rng: &mut R| self.sizes[rng.gen_range(0..self.sizes.len())];
        let roll = rng.gen_range(0..total);
        if roll < self.allow_all {
            PolicySpec::AllowAll
        } else if roll < self.allow_all + self.min_size {
            PolicySpec::MinSize(pick_size(rng))
        } else if roll < self.allow_all + self.min_size + self.min_entropy {
            PolicySpec::MinEntropyMillibits(
                self.entropy_millibits[rng.gen_range(0..self.entropy_millibits.len())],
            )
        } else {
            PolicySpec::All(vec![
                PolicySpec::MinSize(pick_size(rng)),
                PolicySpec::MinEntropyMillibits(
                    self.entropy_millibits[rng.gen_range(0..self.entropy_millibits.len())],
                ),
            ])
        }
    }
}

/// How a tenant's connection ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Explicit `close session=…` then a clean half-close.
    Clean,
    /// Abortive reset (the server must tear the session down — the leak-check path).
    Abandon,
    /// Never disconnects: the connection is still open when the run drains (the
    /// `open_sessions` ledger must account for it).
    Linger,
}

/// One protocol action inside a tenant's burst. Query indices point into
/// [`Population::queries`].
#[derive(Debug, Clone, PartialEq)]
pub enum TenantAction {
    /// Register the palette query (tenants register each query they use before first use).
    Register {
        /// Palette index.
        query: usize,
    },
    /// Downgrade the tenant's secret against the palette query.
    Downgrade {
        /// Palette index.
        query: usize,
        /// The tenant's secret.
        secret: Point,
    },
    /// Knowledge checkpoint: how much has this session's adversary model learned?
    Knowledge {
        /// The tenant's secret.
        secret: Point,
    },
}

/// One simulated tenant: a policy, a secret, a lifecycle, and a scripted request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    /// Position in [`Population::tenants`] (also the tenant's connection slot).
    pub index: usize,
    /// The session policy this tenant opens with.
    pub policy: PolicySpec,
    /// The tenant's secret point (always inside the layout).
    pub secret: Point,
    /// Whether this tenant runs the probe-until-refused ladder instead of an honest stream.
    pub adversarial: bool,
    /// How the connection ends.
    pub exit: Exit,
    /// Which churn cohort the tenant connects in (bursts ride successive rounds).
    pub wave: usize,
    /// The request stream, one inner vector per burst round.
    pub bursts: Vec<Vec<TenantAction>>,
}

/// Full configuration of a generated population. Two configs compare equal iff they generate
/// byte-identical populations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PopulationConfig {
    /// Master seed — the only source of randomness.
    pub seed: u64,
    /// Number of simulated tenants.
    pub tenants: usize,
    /// Secret space.
    pub layout: PopulationLayout,
    /// Number of ranked (popularity-weighted) palette queries.
    pub palette: usize,
    /// Popularity skew over the ranked palette.
    pub skew: Skew,
    /// Per-tenant policy mix.
    pub policy_mix: PolicyMix,
    /// Length of the adversarial probe ladder (geometric thresholds; may be truncated on
    /// small layouts).
    pub probe_steps: usize,
    /// Adversarial tenants, in permille.
    pub adversary_permille: u32,
    /// The min-size policy adversarial tenants open with (chosen so the ladder's late rungs
    /// are refused).
    pub adversary_min_size: u128,
    /// Tenants that abort their connection instead of closing, in permille.
    pub abandon_permille: u32,
    /// Tenants that never disconnect, in permille.
    pub linger_permille: u32,
    /// Honest tenants that end with a knowledge checkpoint, in permille.
    pub knowledge_permille: u32,
    /// Minimum bursts per honest tenant (≥ 1).
    pub min_bursts: usize,
    /// Maximum bursts per honest tenant.
    pub max_bursts: usize,
    /// Minimum downgrades per burst (≥ 1).
    pub min_burst_len: usize,
    /// Maximum downgrades per burst.
    pub max_burst_len: usize,
    /// Number of churn cohorts: wave `w` connects in round `w`, so at any instant only a few
    /// waves' tenants are live.
    pub waves: usize,
}

impl PopulationConfig {
    /// A small tier-1-test-sized population on the paper's grid.
    pub fn small(seed: u64) -> PopulationConfig {
        PopulationConfig {
            seed,
            tenants: 18,
            layout: PopulationLayout::Grid { side: 400 },
            palette: 5,
            skew: Skew::Uniform,
            policy_mix: PolicyMix::grid_default(),
            probe_steps: 7,
            adversary_permille: 0,
            adversary_min_size: 2_000,
            abandon_permille: 250,
            linger_permille: 150,
            knowledge_permille: 300,
            min_bursts: 1,
            max_bursts: 3,
            min_burst_len: 1,
            max_burst_len: 4,
            waves: 4,
        }
    }

    /// The paper-scale sweep configuration (the `expensive-tests` tier): ≥ 100k tenants.
    pub fn paper(seed: u64) -> PopulationConfig {
        PopulationConfig {
            seed,
            tenants: 100_000,
            layout: PopulationLayout::Grid { side: 400 },
            palette: 12,
            skew: Skew::Zipf,
            policy_mix: PolicyMix::grid_default(),
            probe_steps: 6,
            adversary_permille: 15,
            adversary_min_size: 2_000,
            abandon_permille: 250,
            linger_permille: 30,
            knowledge_permille: 100,
            min_bursts: 1,
            max_bursts: 2,
            min_burst_len: 2,
            max_burst_len: 4,
            waves: 40,
        }
    }

    /// Overrides the tenant count.
    pub fn with_tenants(mut self, tenants: usize) -> PopulationConfig {
        self.tenants = tenants;
        self
    }

    /// Overrides the popularity skew.
    pub fn with_skew(mut self, skew: Skew) -> PopulationConfig {
        self.skew = skew;
        self
    }

    /// Overrides the secret layout (pair with a matching [`PolicyMix`]).
    pub fn with_layout(mut self, layout: PopulationLayout) -> PopulationConfig {
        self.layout = layout;
        self
    }

    /// Overrides the policy mix.
    pub fn with_policy_mix(mut self, mix: PolicyMix) -> PopulationConfig {
        self.policy_mix = mix;
        self
    }

    /// Overrides the adversarial fraction and the policy adversaries open with.
    pub fn with_adversaries(mut self, permille: u32, min_size: u128) -> PopulationConfig {
        self.adversary_permille = permille;
        self.adversary_min_size = min_size;
        self
    }

    /// Overrides the churn profile (abandon/linger permille).
    pub fn with_churn(mut self, abandon_permille: u32, linger_permille: u32) -> PopulationConfig {
        self.abandon_permille = abandon_permille;
        self.linger_permille = linger_permille;
        self
    }

    /// Overrides the number of churn cohorts.
    pub fn with_waves(mut self, waves: usize) -> PopulationConfig {
        self.waves = waves;
        self
    }

    /// Overrides the ranked-palette size.
    pub fn with_palette(mut self, palette: usize) -> PopulationConfig {
        self.palette = palette;
        self
    }
}

/// The geometric probe-threshold ladder over `0..=extent`: starts at `extent / 2` and halves
/// the remaining headroom each rung, so successive committed posteriors shrink until a
/// min-size policy must refuse — the probe-until-refused shape.
pub fn probe_thresholds(extent: i64, steps: usize) -> Vec<i64> {
    let mut thresholds = Vec::new();
    let mut c = extent / 2;
    while thresholds.len() < steps && extent - c >= 2 {
        thresholds.push(c);
        c += (extent - c) / 2;
    }
    thresholds
}

/// A fully generated population: the shared query palette plus every tenant's script.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// The configuration this population was generated from.
    pub config: PopulationConfig,
    /// The query palette: `palette` ranked queries first, then the probe ladder.
    pub queries: Vec<QueryDef>,
    /// Index of the first probe-ladder query inside [`Population::queries`].
    pub probe_base: usize,
    /// The tenants, in connection order.
    pub tenants: Vec<Tenant>,
}

impl Population {
    /// Generates the population — a pure function of `config`.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configs (no tenants, empty palette, zero-length bursts, an extent
    /// too small to carry the query palette).
    pub fn generate(config: &PopulationConfig) -> Population {
        assert!(config.tenants > 0, "population needs at least one tenant");
        assert!(config.palette > 0, "population needs a non-empty ranked palette");
        assert!(config.min_bursts >= 1 && config.min_bursts <= config.max_bursts);
        assert!(config.min_burst_len >= 1 && config.min_burst_len <= config.max_burst_len);
        assert!(config.waves >= 1, "population needs at least one wave");
        let extent = config.layout.extent();
        assert!(extent >= 64, "population layouts need extent >= 64");

        let layout = config.layout.layout();
        let mut queries = ranked_queries(config, &layout);
        let probe_base = queries.len();
        let ladder = probe_thresholds(extent, config.probe_steps);
        for &c in &ladder {
            let pred = IntExpr::var(0).le(c);
            queries.push(
                QueryDef::new(format!("pop_probe_{c}"), layout.clone(), pred)
                    .expect("probe predicate fits the layout"),
            );
        }

        let popularity = QueryPopularity::new(config.skew, config.palette);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let adversary_lo = ladder.last().map(|c| c + 1).unwrap_or(extent);
        let tenants = (0..config.tenants)
            .map(|index| {
                generate_tenant(
                    index,
                    config,
                    &popularity,
                    probe_base,
                    ladder.len(),
                    adversary_lo,
                    &mut rng,
                )
            })
            .collect();
        Population { config: config.clone(), queries, probe_base, tenants }
    }

    /// The concrete secret layout.
    pub fn layout(&self) -> SecretLayout {
        self.config.layout.layout()
    }

    /// A deterministic full rendering of the population — two populations are byte-identical
    /// iff their fingerprints are equal (the property the proptest suite checks).
    pub fn fingerprint(&self) -> String {
        format!("{:?}", self)
    }

    /// Total protocol requests the population will issue (opens + actions + clean closes).
    pub fn total_requests(&self) -> usize {
        self.tenants
            .iter()
            .map(|t| {
                let actions: usize = t.bursts.iter().map(Vec::len).sum();
                1 + actions + usize::from(t.exit == Exit::Clean)
            })
            .sum()
    }

    /// Number of tenants per [`Exit`] shape `(clean, abandon, linger)`.
    pub fn exit_profile(&self) -> (usize, usize, usize) {
        let mut profile = (0, 0, 0);
        for tenant in &self.tenants {
            match tenant.exit {
                Exit::Clean => profile.0 += 1,
                Exit::Abandon => profile.1 += 1,
                Exit::Linger => profile.2 += 1,
            }
        }
        profile
    }

    /// Number of adversarial tenants.
    pub fn adversaries(&self) -> usize {
        self.tenants.iter().filter(|t| t.adversarial).count()
    }
}

/// The ranked (popularity-weighted) palette queries for `config`'s layout.
fn ranked_queries(config: &PopulationConfig, layout: &SecretLayout) -> Vec<QueryDef> {
    let extent = config.layout.extent();
    (0..config.palette)
        .map(|rank| {
            let r = rank as i64;
            match config.layout {
                PopulationLayout::Grid { .. } => {
                    // Manhattan balls enumerated in mixed radix over (x origin, y origin,
                    // radius), so every rank below `span² × radii` is a *distinct predicate* —
                    // the synthesis cache keys on the canonical predicate, and a palette with
                    // colliding ranks would silently collapse the cold-cache miss count the
                    // macro-benchmark measures.
                    let margin = extent / 8;
                    let span = (extent - 2 * margin).max(1);
                    let radii = (extent / 8).max(1);
                    let ox = margin + r % span;
                    let oy = margin + (r / span) % span;
                    let radius = extent / 8 + (r / (span * span)) % radii;
                    let pred =
                        ((IntExpr::var(0) - ox).abs() + (IntExpr::var(1) - oy).abs()).le(radius);
                    QueryDef::new(format!("pop_near_{rank}"), layout.clone(), pred)
                        .expect("grid palette predicate fits the layout")
                }
                PopulationLayout::Strip { .. } => {
                    // Bands |x - c| <= w, mixed radix over (center, width): distinct
                    // predicates for every rank below `span × widths`.
                    let margin = extent / 8;
                    let span = (extent - 2 * margin).max(1);
                    let widths = (extent / 16).max(1);
                    let c = margin + r % span;
                    let w = extent / 16 + (r / span) % widths;
                    let pred = (IntExpr::var(0) - c).abs().le(w);
                    QueryDef::new(format!("pop_band_{rank}"), layout.clone(), pred)
                        .expect("strip palette predicate fits the layout")
                }
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)] // internal helper: one call site, all state threaded
fn generate_tenant(
    index: usize,
    config: &PopulationConfig,
    popularity: &QueryPopularity,
    probe_base: usize,
    ladder_len: usize,
    adversary_lo: i64,
    rng: &mut StdRng,
) -> Tenant {
    let extent = config.layout.extent();
    let adversarial = rng.gen_range(0u32..1000) < config.adversary_permille && ladder_len > 0;

    let secret = if adversarial {
        // Above every ladder threshold, so the walk answers `false` all the way up and the
        // committed posterior narrows geometrically until the policy refuses.
        let x = rng.gen_range(adversary_lo..=extent);
        match config.layout {
            PopulationLayout::Grid { .. } => Point::new(vec![x, rng.gen_range(0..=extent)]),
            PopulationLayout::Strip { .. } => Point::new(vec![x]),
        }
    } else {
        match config.layout {
            PopulationLayout::Grid { .. } => {
                Point::new(vec![rng.gen_range(0..=extent), rng.gen_range(0..=extent)])
            }
            PopulationLayout::Strip { .. } => Point::new(vec![rng.gen_range(0..=extent)]),
        }
    };

    let policy = if adversarial {
        PolicySpec::MinSize(config.adversary_min_size)
    } else {
        config.policy_mix.sample(rng)
    };

    let exit_roll = rng.gen_range(0u32..1000);
    let exit = if exit_roll < config.linger_permille {
        Exit::Linger
    } else if exit_roll < config.linger_permille + config.abandon_permille {
        Exit::Abandon
    } else {
        Exit::Clean
    };

    let wave = rng.gen_range(0..config.waves);

    let bursts = if adversarial {
        adversarial_bursts(probe_base, ladder_len, &secret)
    } else {
        honest_bursts(config, popularity, &secret, rng)
    };

    Tenant { index, policy, secret, adversarial, exit, wave, bursts }
}

/// The probe-until-refused script: register-then-probe each ladder rung in ascending order,
/// hammer the final rung twice more (the denial must be stable), then checkpoint knowledge.
fn adversarial_bursts(
    probe_base: usize,
    ladder_len: usize,
    secret: &Point,
) -> Vec<Vec<TenantAction>> {
    let mut flat = Vec::with_capacity(2 * ladder_len + 3);
    for rung in 0..ladder_len {
        let query = probe_base + rung;
        flat.push(TenantAction::Register { query });
        flat.push(TenantAction::Downgrade { query, secret: secret.clone() });
    }
    let last = probe_base + ladder_len - 1;
    flat.push(TenantAction::Downgrade { query: last, secret: secret.clone() });
    flat.push(TenantAction::Downgrade { query: last, secret: secret.clone() });
    flat.push(TenantAction::Knowledge { secret: secret.clone() });
    flat.chunks(5).map(<[TenantAction]>::to_vec).collect()
}

fn honest_bursts(
    config: &PopulationConfig,
    popularity: &QueryPopularity,
    secret: &Point,
    rng: &mut StdRng,
) -> Vec<Vec<TenantAction>> {
    let n_bursts = rng.gen_range(config.min_bursts..=config.max_bursts);
    let mut seen = vec![false; config.palette];
    let mut bursts: Vec<Vec<TenantAction>> = (0..n_bursts)
        .map(|_| {
            let len = rng.gen_range(config.min_burst_len..=config.max_burst_len);
            let mut actions = Vec::with_capacity(2 * len);
            for _ in 0..len {
                let query = popularity.sample(rng);
                if !seen[query] {
                    seen[query] = true;
                    actions.push(TenantAction::Register { query });
                }
                actions.push(TenantAction::Downgrade { query, secret: secret.clone() });
            }
            actions
        })
        .collect();
    if rng.gen_range(0u32..1000) < config.knowledge_permille {
        bursts
            .last_mut()
            .expect("min_bursts >= 1")
            .push(TenantAction::Knowledge { secret: secret.clone() });
    }
    bursts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_generates_identical_populations() {
        let config = PopulationConfig::small(7);
        let a = Population::generate(&config);
        let b = Population::generate(&config);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_generate_different_populations() {
        let a = Population::generate(&PopulationConfig::small(1));
        let b = Population::generate(&PopulationConfig::small(2));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn zipf_weights_are_monotone_and_uniform_is_flat() {
        let zipf = QueryPopularity::new(Skew::Zipf, 16);
        assert!(zipf.weights().windows(2).all(|w| w[0] >= w[1]));
        let uniform = QueryPopularity::new(Skew::Uniform, 16);
        assert!(uniform.weights().iter().all(|&w| w == uniform.weights()[0]));
    }

    #[test]
    fn probe_ladder_is_strictly_increasing_and_bounded() {
        let ladder = probe_thresholds(400, 7);
        assert_eq!(ladder, vec![200, 300, 350, 375, 387, 393, 396]);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn registers_precede_first_use_per_tenant() {
        let config = PopulationConfig::small(11).with_adversaries(300, 2_000);
        let population = Population::generate(&config);
        for tenant in &population.tenants {
            let mut registered = vec![false; population.queries.len()];
            for action in tenant.bursts.iter().flatten() {
                match action {
                    TenantAction::Register { query } => registered[*query] = true,
                    TenantAction::Downgrade { query, .. } => {
                        assert!(registered[*query], "downgrade before register");
                    }
                    TenantAction::Knowledge { .. } => {}
                }
            }
        }
    }

    #[test]
    fn palette_predicates_are_pairwise_distinct() {
        // The macro-benchmark's cold-cache miss count is per distinct *predicate*: colliding
        // ranks would silently collapse it, so large palettes must stay injective.
        for layout in [PopulationLayout::Grid { side: 400 }, PopulationLayout::Strip { len: 1_000 }]
        {
            let config = PopulationConfig::small(1).with_layout(layout).with_palette(1_024);
            let population = Population::generate(&config);
            let distinct: std::collections::BTreeSet<String> =
                population.queries.iter().map(|q| format!("{:?}", q.pred())).collect();
            assert_eq!(distinct.len(), population.queries.len(), "{layout:?}");
        }
    }

    #[test]
    fn every_secret_is_inside_the_layout() {
        for seed in 0..4 {
            let config = PopulationConfig::small(seed)
                .with_layout(PopulationLayout::Strip { len: 1_000 })
                .with_policy_mix(PolicyMix::strip_default())
                .with_adversaries(200, 20);
            let population = Population::generate(&config);
            let layout = population.layout();
            for tenant in &population.tenants {
                assert!(layout.admits(&tenant.secret));
            }
        }
    }
}
