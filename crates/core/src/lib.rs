//! # csp-core
//!
//! Facade for the `hoare-csp` reproduction of Zhou Chao Chen & C. A. R.
//! Hoare, *Partial Correctness of Communicating Sequential Processes*
//! (1981): one crate that pulls together the whole stack —
//!
//! * the **language** of §1 (`csp-lang`): process equations over named
//!   channels, with a parser for the paper's notation;
//! * the **trace semantics** of §3 (`csp-semantics`): prefix-closed
//!   denotations, the fixpoint construction, and an agreeing operational
//!   semantics;
//! * the **assertion language** of §2 (`csp-assert`): channel-history
//!   predicates such as `f(wire) <= input`;
//! * the **proof system** of §2.1 (`csp-proof`): all ten rules, plus
//!   machine-checked scripts for every proof in the paper (including
//!   Table 1);
//! * the **model checker** (`csp-verify`): bounded `sat` checking with
//!   counterexamples, per-rule empirical soundness, proof/model
//!   cross-validation;
//! * the **runtime** (`csp-runtime`): networks executed on real threads
//!   with multi-party rendezvous, with conformance checking back against
//!   the semantics.
//!
//! The [`Workbench`] is the high-level entry point:
//!
//! ```
//! use csp_core::prelude::*;
//!
//! let mut wb = Workbench::new();
//! wb.define_source(
//!     "copier = input?x:NAT -> wire!x -> copier
//!      recopier = wire?y:NAT -> output!y -> recopier
//!      pipeline = chan wire; (copier || recopier)",
//! )?;
//! assert!(wb.check_sat("pipeline", "output <= input", 3)?.holds());
//! # Ok::<(), csp_core::WorkbenchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod options;
mod pool;
mod session;
mod workbench;

pub use cache::{content_hash, hash_field, Lru, VerifyCache, HASH_SEED};
pub use options::{ConformanceOptions, Engine, SatOptions};

/// The workspace's canonical content hashing (re-exported from
/// `csp_trace::hash`): one FNV-1a definition shared by the incremental
/// analysis database, the cross-request verification cache, and the
/// serve request keying.
pub mod hash {
    pub use csp_trace::hash::{content_hash, hash_field, HASH_SEED};
}
pub use pool::{PooledWorkbench, WorkbenchPool};
pub use session::Session;
pub use workbench::{Workbench, WorkbenchError};

/// The observability substrate (re-exported from `csp-obs`): collectors,
/// spans, metrics snapshots, and the JSONL/folded-stacks sinks.
///
/// `csp_obs::Span` is deliberately *not* re-exported at the crate root —
/// there it would collide with the source-position [`csp_lang::Span`]
/// re-exported from `csp-lang`; reach it as `obs::Span`.
pub mod obs {
    pub use csp_obs::*;
}

/// The paper's example systems (re-exported from `csp-lang`).
pub mod examples {
    pub use csp_lang::examples::*;
}

/// Machine-checked proof scripts for every proof in the paper
/// (re-exported from `csp-proof`).
pub mod proofs {
    pub use csp_proof::scripts::*;
}

pub use csp_analysis::{
    max_severity, render_json, AnalysisDb, Confirmation, Diagnostic, LintCode, Linter,
    RevisionStats, Severity, ALL_CODES,
};
pub use csp_assert::{
    decide_valid, parse_assertion, protocol_cancel, simplify, subst_chan_cons, subst_empty,
    subst_var, AssertError, Assertion, ChannelInfo, CmpOp, DecideConfig, Decision, EvalCtx,
    FuncTable, STerm, Term,
};
pub use csp_lang::{
    channel_alphabet, parse_definitions, parse_definitions_spanned, parse_expr, parse_module,
    parse_process, validate, ChanRef, Definition, Definitions, Env, EvalError, Expr, MsgSet,
    ParseError, ParsedModule, Process, SetExpr, SourceMap, Span, ValidationIssue,
};
pub use csp_obs::{Collector, FieldValue, Metered, MetricsSnapshot, SpanRecord};
pub use csp_proof::{
    check, check_with, render_report, spec_goal, synthesize, CheckReport, Context, Discharge,
    Judgement, Obligation, Proof, ProofError, SynthError,
};
pub use csp_runtime::{
    check_conformance, chrome_causal_trace, flatten, msc, CausalError, CausalEvent,
    CausalEventKind, CausalLog, Component, ComponentFailure, ComponentSel, ConformanceReport,
    Executor, FailureReason, Fault, FaultError, FaultPlan, Monitor, MonitorReport, MonitorSpec,
    MonitorVerdict, MonitorViolation, Network, RestartPolicy, RunError, RunOptions, RunOutcome,
    RunResult, Scheduler, Supervision, VectorClock, ViolationKind,
};
pub use csp_semantics::{
    compare, fixpoint, fixpoint_with, refines, walk, CompiledLts, Config, Discrepancy, FixpointRun,
    Lts, Semantics, StateId, Step, Successors, Universe,
};
pub use csp_trace::{
    timeline, Channel, ChannelSet, Event, History, NaiveTraceSet, OpStats, Seq, Trace, TraceSet,
    Value,
};
pub use csp_verify::{
    cross_validate_scripts, fault_conformance, find_deadlocks, stop_choice_identity,
    validate_all_rules, CrossValidation, Deadlock, DeadlockReport, DegradedRun, FaultConfError,
    FaultConformance, FaultSweep, InstanceGen, RuleReport, SatChecker, SatResult,
};

/// Convenient glob-import surface: `use csp_core::prelude::*;`.
pub mod prelude {
    pub use crate::{
        Assertion, CausalLog, Channel, Collector, ConformanceOptions, Definitions, Engine, Env,
        Event, FaultPlan, FaultSweep, Judgement, Metered, MetricsSnapshot, MonitorReport,
        MonitorSpec, Process, Proof, RestartPolicy, RunOptions, RunOutcome, SatOptions, SatResult,
        Scheduler, Session, Supervision, Trace, TraceSet, Universe, Value, VectorClock, Workbench,
        WorkbenchError,
    };
}
