//! The correctness gate: every response checked against a sequential oracle, and every
//! registered approximation checked for soundness against exact model counts. Both run
//! after the measured window.
//!
//! The oracle replays each session's own request stream through a plain [`AnosySession`],
//! built on approximations synthesized in-process by the same pipeline and configuration the
//! server uses. Sessions share no mutable state, so a per-session replay in request order is
//! exactly what the server owes each session, however its requests interleaved with others.

use crate::loadgen::Record;
use crate::workload::{layout, Generated, Op};
use anosy_core::{AnosySession, SynthesizeInto};
use anosy_domains::AbstractDomain;
use anosy_ifc::Protected;
use anosy_serve::proto::{Denial, ServeResponse};
use anosy_serve::{wire, Deployment, ServeConfig};
use anosy_solver::{Solver, ValidityOutcome};
use anosy_synth::{ApproxKind, DomainCodec};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Responses compared with the oracle.
    pub checked: usize,
    /// One line per response that differed from the oracle's.
    pub mismatches: Vec<String>,
    /// Registered queries checked for soundness.
    pub queries: usize,
    /// One line per approximation that is not sound against the exact count.
    pub unsound: Vec<String>,
}

/// The sequential oracle over one generated workload.
pub struct Oracle<'g, D: AbstractDomain> {
    generated: &'g Generated,
    deployment: Deployment<D>,
    synthesized: BTreeSet<usize>,
    analyst: HashMap<Op, String>,
}

impl<'g, D> Oracle<'g, D>
where
    D: AbstractDomain + SynthesizeInto + DomainCodec + Send + Sync + 'static,
{
    /// An oracle with nothing synthesized yet.
    pub fn new(generated: &'g Generated) -> Self {
        Oracle {
            generated,
            deployment: Deployment::new(layout(), ServeConfig::new().with_workers(1)),
            synthesized: BTreeSet::new(),
            analyst: HashMap::new(),
        }
    }

    /// Synthesizes query `q` (once) exactly as a server registration does.
    fn synthesize(&mut self, q: usize) -> Result<(), String> {
        if self.synthesized.insert(q) {
            let g = self.generated;
            self.deployment
                .register_query(&g.queries[q], g.kind, g.members)
                .map_err(|e| format!("oracle cannot synthesize {}: {e}", g.queries[q].name()))?;
        }
        Ok(())
    }

    /// Checks `records` (any mix of connections, each in its own request order).
    pub fn check(&mut self, records: &[Record]) -> Verdict {
        let mut verdict = Verdict::default();
        let mut by_tenant: BTreeMap<u32, Vec<&Record>> = BTreeMap::new();
        for record in records {
            match record.step.tenant {
                Some(tenant) => by_tenant.entry(tenant).or_default().push(record),
                None => {
                    if let Ok(body) = &record.body {
                        match self.analyst_body(record.step.op) {
                            Ok(expected) => {
                                let body = self.accepted_witness(record.step.op, body, &expected);
                                compare(&mut verdict, record, body, &expected);
                            }
                            Err(e) => verdict.mismatches.push(e),
                        }
                    }
                }
            }
        }
        for (tenant, records) in by_tenant {
            if let Err(e) = self.check_tenant(tenant, &records, &mut verdict) {
                verdict.mismatches.push(e);
            }
        }
        self.check_soundness(&mut verdict);
        verdict
    }

    /// Replays one tenant's answered prefix and compares it with what the server said.
    fn check_tenant(
        &mut self,
        tenant: u32,
        records: &[&Record],
        verdict: &mut Verdict,
    ) -> Result<(), String> {
        let expected = self.expected(tenant, records)?;
        for (record, expected) in records.iter().zip(&expected) {
            let body = record.body.as_deref().expect("expectations stop at the first failure");
            compare(verdict, record, body, expected);
        }
        Ok(())
    }

    /// The oracle's response bodies for one tenant's records, up to the first record that
    /// failed in transport: the server may or may not have applied that request, and the
    /// failure is already counted.
    fn expected(&mut self, tenant: u32, records: &[&Record]) -> Result<Vec<String>, String> {
        let g = self.generated;
        let script = &g.tenants[tenant as usize];
        for record in records {
            if let Op::Register(q) | Op::Downgrade(q) = record.step.op {
                self.synthesize(q)?;
            }
        }
        let mut session = self.deployment.session(script.policy.clone());
        let secret = Protected::new(script.secret.clone());
        let mut bodies = Vec::with_capacity(records.len());
        for record in records.iter().take_while(|r| r.body.is_ok()) {
            bodies.push(match record.step.op {
                Op::Open => format!("ok session {}", record.session),
                Op::Register(q) => {
                    register(&mut session, g, q)?;
                    format!("ok registered {}", g.queries[q].name())
                }
                Op::Downgrade(q) => {
                    if session.query_info(&g.names[q]).is_none() {
                        register(&mut session, g, q)?;
                    }
                    let answer = session.downgrade(&secret, &g.names[q]).map_err(Denial::from);
                    wire::encode_response(&ServeResponse::Answer(answer))
                }
                Op::Knowledge => {
                    let knowledge = session.knowledge_of(&script.secret);
                    wire::encode_response(&ServeResponse::Knowledge {
                        size: knowledge.size(),
                        encoded: knowledge.domain().encode(),
                    })
                }
                Op::Close => format!("ok closed {}", record.session),
                Op::Count(_) | Op::Valid(_) => unreachable!("analyst requests name no tenant"),
            });
        }
        Ok(bodies)
    }

    /// The sequential solver's answer to an analyst request.
    fn analyst_body(&mut self, op: Op) -> Result<String, String> {
        if let Some(body) = self.analyst.get(&op) {
            return Ok(body.clone());
        }
        let space = layout().space();
        let mut solver = Solver::new();
        let response = match op {
            Op::Count(q) => ServeResponse::Count {
                models: solver
                    .count_models(self.generated.queries[q].pred(), &space)
                    .map_err(|e| e.to_string())?,
            },
            Op::Valid(q) => ServeResponse::Validity {
                counterexample: match solver
                    .check_validity(self.generated.queries[q].pred(), &space)
                    .map_err(|e| e.to_string())?
                {
                    ValidityOutcome::Valid => None,
                    ValidityOutcome::CounterExample(point) => Some(point),
                },
            },
            _ => unreachable!("only analyst requests name no tenant"),
        };
        let body = wire::encode_response(&response);
        self.analyst.insert(op, body.clone());
        Ok(body)
    }

    /// A validity refutation may name any falsifying point: the sharded solver reports the
    /// first shard's, the sequential solver the first it meets. When both refute and the
    /// served point lies in the layout and falsifies the predicate, the served body is
    /// accepted as the oracle's own; otherwise it is returned as is, to be compared.
    fn accepted_witness<'b>(&self, op: Op, body: &'b str, expected: &'b str) -> &'b str {
        let Op::Valid(q) = op else { return body };
        let witness =
            |text: &str| text.strip_prefix("ok counterexample ").and_then(wire::parse_point);
        match (witness(body), witness(expected)) {
            (Some(point), Some(_))
                if layout().admits(&point) && !self.generated.queries[q].ask(&point) =>
            {
                expected
            }
            _ => body,
        }
    }

    /// Soundness of every approximation the run registered: an under-approximation may
    /// admit no more secrets than the exact ind. set holds (`under ≤ exact`), an
    /// over-approximation no fewer (`exact ≤ over`).
    fn check_soundness(&mut self, verdict: &mut Verdict) {
        let g = self.generated;
        for &q in &g.initial {
            if let Err(e) = self.synthesize(q) {
                verdict.unsound.push(e);
            }
        }
        let space = layout().space();
        let mut solver = Solver::new();
        for &q in &self.synthesized {
            let query = &g.queries[q];
            verdict.queries += 1;
            let Some(indsets) = self.deployment.shared().get_ready(query, g.kind, g.members) else {
                verdict.unsound.push(format!("{}: not synthesized", query.name()));
                continue;
            };
            let exact_true = match solver.count_models(query.pred(), &space) {
                Ok(count) => count,
                Err(e) => {
                    verdict.unsound.push(format!("{}: exact count failed: {e}", query.name()));
                    continue;
                }
            };
            let exact_false = space.count() - exact_true;
            let (t, f) = (indsets.truthy().size(), indsets.falsy().size());
            let sound = match indsets.kind() {
                ApproxKind::Under => t <= exact_true && f <= exact_false,
                ApproxKind::Over => t >= exact_true && f >= exact_false,
            };
            if !sound {
                verdict.unsound.push(format!(
                    "{} ({}): approx sizes true {t} false {f} vs exact {exact_true} {exact_false}",
                    query.name(),
                    indsets.kind()
                ));
            }
        }
    }
}

fn register<D>(session: &mut AnosySession<D>, g: &Generated, q: usize) -> Result<(), String>
where
    D: AbstractDomain,
{
    session
        .register_cached(&g.queries[q], g.kind, g.members)
        .map_err(|e| format!("oracle cannot register {}: {e}", g.queries[q].name()))
}

fn compare(verdict: &mut Verdict, record: &Record, body: &str, expected: &str) {
    verdict.checked += 1;
    if body != expected {
        verdict.mismatches.push(format!(
            "{:?} (session {}): server `{body}`, oracle `{expected}`",
            record.step, record.session
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate, Step, Workload};
    use anosy_domains::IntervalDomain;

    /// A recorded stream answered by the oracle itself, as a correct server would answer it.
    fn perfect_records(generated: &Generated, tenants: u32) -> Vec<Record> {
        let mut oracle = Oracle::<IntervalDomain>::new(generated);
        let mut records = Vec::new();
        for tenant in 0..tenants {
            let mut stream: Vec<Record> = generated.tenants[tenant as usize]
                .ops
                .iter()
                .map(|&op| Record {
                    step: Step { tenant: Some(tenant), op },
                    session: u64::from(tenant) + 1,
                    due: 0,
                    sent: 0,
                    recv: 1,
                    body: Ok(String::new()),
                })
                .collect();
            let expected = oracle.expected(tenant, &stream.iter().collect::<Vec<_>>()).unwrap();
            for (record, body) in stream.iter_mut().zip(expected) {
                record.body = Ok(body);
            }
            records.extend(stream);
        }
        records
    }

    #[test]
    fn a_faithful_stream_passes_and_an_injected_mismatch_is_caught() {
        let generated = generate(Workload::Interactive, 11, 1.0);
        let mut records = perfect_records(&generated, 6);
        let verdict = Oracle::<IntervalDomain>::new(&generated).check(&records);
        assert!(verdict.mismatches.is_empty(), "{:?}", verdict.mismatches);
        assert!(verdict.unsound.is_empty(), "{:?}", verdict.unsound);
        assert_eq!(verdict.checked, records.len());

        let flipped = records
            .iter_mut()
            .find(|r| matches!(r.step.op, Op::Downgrade(_)) && r.body.as_deref().is_ok())
            .expect("the stream downgrades");
        let answer = flipped.body.clone().unwrap();
        let wrong = if answer == "ok answer true" { "ok answer false" } else { "ok answer true" };
        flipped.body = Ok(wrong.to_string());
        let verdict = Oracle::<IntervalDomain>::new(&generated).check(&records);
        assert_eq!(verdict.mismatches.len(), 1, "{:?}", verdict.mismatches);
    }

    #[test]
    fn any_falsifying_witness_refutes_validity() {
        let generated = generate(Workload::Interactive, 11, 1.0);
        let oracle = Oracle::<IntervalDomain>::new(&generated);
        let expected = "ok counterexample 0,0";
        // Far from every palette ball: falsifies the predicate, so it is a valid witness.
        let other = "ok counterexample 399,399";
        assert_eq!(oracle.accepted_witness(Op::Valid(0), other, expected), expected);
        // The ball's own centre satisfies the predicate, so it refutes nothing.
        let inside = "ok counterexample 50,50";
        assert!(generated.queries[0].ask(&wire::parse_point("50,50").unwrap()));
        assert_eq!(oracle.accepted_witness(Op::Valid(0), inside, expected), inside);
        assert_eq!(oracle.accepted_witness(Op::Valid(0), "ok valid", expected), "ok valid");
    }

    #[test]
    fn analyst_answers_come_from_the_sequential_solver() {
        let generated = generate(Workload::Interactive, 11, 1.0);
        let mut oracle = Oracle::<IntervalDomain>::new(&generated);
        let body = oracle.analyst_body(Op::Count(0)).unwrap();
        let mut solver = Solver::new();
        let exact = solver.count_models(generated.queries[0].pred(), &layout().space()).unwrap();
        assert_eq!(body, format!("ok count {exact}"));
    }
}
