//! `prove-paper`: one caller checks the paper's proof scripts and
//! seeded `prove_auto` specs over `paper.csp`. Nearly all of its time is
//! proof rules plus bounded discharge of pure premises.

use csp_core::proofs::{all_scripts, Script};
use csp_core::{
    check_with, spec_goal, synthesize, Assertion, CheckReport, Context, ProofError, Universe,
    Value, Workbench, WorkbenchError,
};

use crate::harness::{Counts, Op};
use crate::rng::Rng;
use crate::tracer::Tracer;

const PAPER_CSP: &str = include_str!("../../paper.csp");

/// The counts a proof report carries, under the benchmark's names.
fn report_counts(report: &CheckReport) -> Counts {
    let c = |k: &str| report.metrics.counter(k);
    Counts::from([
        ("proof.rules", c("proof.rules")),
        ("proof.obligations", c("proof.obligations")),
        ("proof.discharge.bounded", c("proof.discharge.bounded")),
        ("proof.discharge.syntactic", c("proof.discharge.syntactic")),
        ("assertion.bounded_cases", c("proof.bounded_cases")),
    ])
}

/// `check_with` under a `proof.check` span. The checker lints the
/// definitions before it opens its own `proof.check` span, so the time
/// before that span is the linter's (`analysis.lint`).
fn traced_check(
    tr: &mut Tracer,
    ctx: &Context,
    goal: &csp_core::Judgement,
    proof: &csp_core::Proof,
) -> Result<CheckReport, ProofError> {
    let g = tr.open("proof.check");
    let (collector, at) = tr.collector();
    let result = check_with(ctx, goal, proof, &collector);
    tr.import(&collector, at, &[("proof.check", "proof.rules")]);
    tr.lead_in("analysis.lint", "proof.rules");
    tr.close(g);
    result
}

/// One of the paper's machine-checked proof scripts; the paper proves
/// every one of them.
pub struct ScriptOp(pub Script);

impl Op for ScriptOp {
    fn kind(&self) -> &'static str {
        "script"
    }

    fn label(&self) -> String {
        format!("script {}", self.0.name)
    }

    fn run(&self, tr: &mut Tracer) -> Result<Counts, String> {
        let s = &self.0;
        traced_check(tr, &s.context, &s.goal, &s.proof)
            .map(|r| report_counts(&r))
            .map_err(|e| format!("the paper proves it, the checker said: {e}"))
    }
}

/// Whether a spec is an invariant of its process (so the synthesised
/// proof must check) or a claim the paper's semantics refutes (so a
/// pure premise must fail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Proved,
    Refuted,
}

/// A `prove_auto` request, made through the same public calls
/// `Workbench::prove_auto` makes, one layer at a time, so that
/// `synthesize` can be timed apart from the checker. A test holds its
/// reports equal to `Session::prove_auto`'s.
pub struct SpecOp {
    pub wb: std::sync::Arc<Workbench>,
    pub specs: Vec<(&'static str, String)>,
    pub expect: Expect,
}

impl SpecOp {
    fn prove(&self, tr: &mut Tracer) -> Result<CheckReport, WorkbenchError> {
        let g = tr.open("assertion.parse");
        let parsed: Result<Vec<(String, Assertion)>, WorkbenchError> = self
            .specs
            .iter()
            .map(|(n, src)| Ok((n.to_string(), self.wb.assertion(src)?)))
            .collect();
        tr.close(g);
        let parsed = parsed?;
        let g = tr.open("proof.synth");
        // `Context::new` installs the built-in functions, the only ones a
        // workbench's function table holds.
        let mut ctx = Context::new(self.wb.definitions().clone(), self.wb.universe().clone());
        ctx.env = self.wb.env().clone();
        let synthesized = synthesize(&ctx, &parsed, 0)
            .map_err(|e| ProofError::BadRecursion(e.to_string()))
            .and_then(|proof| Ok((proof, spec_goal(&ctx, &parsed[0])?)));
        tr.close(g);
        let (proof, goal) = synthesized?;
        Ok(traced_check(tr, &ctx, &goal, &proof)?)
    }
}

impl Op for SpecOp {
    fn kind(&self) -> &'static str {
        "spec"
    }

    fn label(&self) -> String {
        let specs: Vec<String> = self
            .specs
            .iter()
            .map(|(n, a)| format!("{n} sat {a}"))
            .collect();
        format!("prove_auto [{}] ({:?})", specs.join("; "), self.expect)
    }

    fn run(&self, tr: &mut Tracer) -> Result<Counts, String> {
        match (self.prove(tr), self.expect) {
            (Ok(report), Expect::Proved) => Ok(report_counts(&report)),
            (Err(WorkbenchError::Proof(ProofError::InvalidPremise { .. })), Expect::Refuted) => {
                Ok(Counts::from([("verify.refutations", 1)]))
            }
            (Ok(_), Expect::Refuted) => Err("proved a claim that does not hold".to_string()),
            (Err(e), _) => Err(format!("expected {:?}, got error: {e}", self.expect)),
        }
    }
}

/// `paper.csp` with the universe and bindings its examples need.
pub fn paper_workbench() -> Result<Workbench, String> {
    let mut wb = Workbench::new()
        .with_universe(Universe::new(1).with_named("M", [Value::nat(0), Value::nat(1)]));
    wb.define_source(PAPER_CSP).map_err(|e| e.to_string())?;
    wb.bind_vector("v", &[2, 3, 5]);
    Ok(wb)
}

/// The seeded spec list. Every seed draws the same templates, so the mix
/// (and the cost of each template) is the same for every seed; the seed
/// picks slack constants, which one-place stage is refuted, and how.
pub fn specs(wb: &std::sync::Arc<Workbench>, seed: u64) -> Vec<SpecOp> {
    let mut rng = Rng::stream(seed, 1);
    // One-place stages of paper.csp: (process, its input, its output).
    const STAGES: [(&str, &str, &str); 4] = [
        ("copier", "input", "wire"),
        ("recopier", "wire", "output"),
        ("cell0", "in", "link"),
        ("cell1", "link", "out"),
    ];
    let op = |specs: Vec<(&'static str, String)>, expect| SpecOp {
        wb: std::sync::Arc::clone(wb),
        specs,
        expect,
    };
    let mut ops = Vec::new();
    for (p, i, o) in STAGES {
        // A one-place stage holds at most one message: `#in <= #out + K`
        // is inductive for every K >= 1 (§2's `#input <= #wire + 1`).
        let k = rng.range(1, 3);
        ops.push(op(vec![(p, format!("#{i} <= #{o} + {k}"))], Expect::Proved));
    }
    let (p, i, o) = STAGES[rng.below(2)];
    ops.push(op(vec![(p, format!("{o} <= {i}"))], Expect::Proved));
    let (p, i, o) = STAGES[2 + rng.below(2)];
    ops.push(op(vec![(p, format!("{o} <= {i}"))], Expect::Proved));
    // Table 1 and the §2.2(2) exercise.
    ops.push(op(
        vec![
            ("sender", "f(wire) <= input".to_string()),
            ("q", "f(wire) <= x^input".to_string()),
        ],
        Expect::Proved,
    ));
    ops.push(op(
        vec![("receiver", "output <= f(wire)".to_string())],
        Expect::Proved,
    ));
    ops.push(op(
        vec![(
            "zeroes",
            "forall i:NAT. 1 <= i and i <= #col[0] => col[0][i] == 0".to_string(),
        )],
        Expect::Proved,
    ));
    // Two claims that fail right after a stage's first input: the
    // input is ahead of the output by one message.
    let (p, i, o) = STAGES[rng.below(4)];
    ops.push(op(vec![(p, format!("#{i} <= #{o}"))], Expect::Refuted));
    let (p, i, o) = STAGES[rng.below(4)];
    ops.push(op(vec![(p, format!("{i} <= {o}"))], Expect::Refuted));
    ops
}

/// The operation list of one pass: every paper script, then the specs.
pub fn ops(seed: u64) -> Result<Vec<Box<dyn Op>>, String> {
    let wb = std::sync::Arc::new(paper_workbench()?);
    let mut ops: Vec<Box<dyn Op>> = all_scripts()
        .into_iter()
        .map(|s| Box::new(ScriptOp(s)) as Box<dyn Op>)
        .collect();
    ops.extend(
        specs(&wb, seed)
            .into_iter()
            .map(|s| Box::new(s) as Box<dyn Op>),
    );
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn same_seed_same_specs_and_every_seed_the_same_mix() {
        let wb = std::sync::Arc::new(paper_workbench().unwrap());
        let labels = |seed| {
            specs(&wb, seed)
                .iter()
                .map(SpecOp::label)
                .collect::<Vec<_>>()
        };
        assert_eq!(labels(7), labels(7));
        let refuted = |seed| {
            specs(&wb, seed)
                .iter()
                .filter(|s| s.expect == Expect::Refuted)
                .count()
        };
        for seed in 0..20 {
            assert_eq!(specs(&wb, seed).len(), 11);
            assert_eq!(refuted(seed), 2);
        }
        assert!(
            (0..20).any(|s| labels(s) != labels(7)),
            "the seed changes the specs"
        );
    }

    #[test]
    fn every_spec_has_its_known_answer_and_a_flipped_one_fails() {
        let wb = std::sync::Arc::new(paper_workbench().unwrap());
        let mut tr = Tracer::new(false, Instant::now());
        for seed in 0..3 {
            for mut s in specs(&wb, seed) {
                assert!(s.run(&mut tr).is_ok(), "{}", s.label());
                s.expect = match s.expect {
                    Expect::Proved => Expect::Refuted,
                    Expect::Refuted => Expect::Proved,
                };
                assert!(s.run(&mut tr).is_err(), "flipped {}", s.label());
            }
        }
    }

    #[test]
    fn spec_reports_equal_session_prove_auto() {
        let wb = std::sync::Arc::new(paper_workbench().unwrap());
        let mut tr = Tracer::new(false, Instant::now());
        for seed in 0..3 {
            for s in specs(&wb, seed) {
                let specs: Vec<(&str, &str)> =
                    s.specs.iter().map(|(n, a)| (*n, a.as_str())).collect();
                let theirs = wb.session().prove_auto(&specs);
                match (s.prove(&mut tr), theirs) {
                    (Ok(ours), Ok(theirs)) => {
                        assert_eq!(ours.steps, theirs.steps, "{}", s.label());
                        assert_eq!(
                            format!("{:?}", ours.obligations),
                            format!("{:?}", theirs.obligations),
                            "{}",
                            s.label()
                        );
                        assert_eq!(report_counts(&ours), report_counts(&theirs));
                    }
                    (Err(ours), Err(theirs)) => {
                        assert_eq!(ours.to_string(), theirs.to_string(), "{}", s.label())
                    }
                    (ours, theirs) => panic!("{}: {ours:?} against {theirs:?}", s.label()),
                }
            }
        }
    }
}
