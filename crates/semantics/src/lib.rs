//! # csp-semantics
//!
//! The denotational model of Zhou & Hoare (1981) §3, plus a derived
//! operational semantics.
//!
//! * [`Semantics`] — the paper's semantic equations: every process
//!   expression denotes a prefix-closed trace set, computed here to a
//!   requested depth over a finite [`Universe`].
//! * [`mod@fixpoint`] — the explicit approximation sequence `a₀ ⊆ a₁ ⊆ …` of
//!   §3.3 for (mutually) recursive definitions and process arrays, with
//!   convergence detection.
//! * [`Lts`] — the labelled transition system of §1.2, derived from the
//!   syntax and composing networks on the fly; its traces provably (by
//!   test) agree with the denotational model.
//! * [`CompiledLts`] — the same relation memoised: configurations
//!   interned into a [`StateId`] arena, each successor row computed
//!   once.
//! * [`Successors`] and [`mod@walk`] — the interface both relations
//!   implement, and the queries written once over it: bounded traces,
//!   τ-closure, the visible-event frontier step, and trace refinement by
//!   subset construction. [`Engine`] picks the relation a query runs on
//!   and is re-exported by `csp-core` as the option-level selector.
//! * [`compare`]/[`refines`] — trace-set equality and refinement with
//!   counterexample reporting (e.g. the §4 identity `STOP | P = P`).
//!
//! ```
//! use csp_lang::{examples, Env};
//! use csp_semantics::{Lts, Semantics, Universe};
//!
//! let defs = examples::pipeline();
//! let uni = Universe::new(1);
//! let sem = Semantics::new(&defs, &uni);
//! let lts = Lts::new(&defs, &uni);
//! let env = Env::new();
//! let d = sem.denote_name("pipeline", &env, 3).unwrap();
//! let o = lts.traces(&lts.initial("pipeline", &env), 3).unwrap();
//! assert_eq!(d, o);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod denote;
mod equiv;
mod lts;
mod universe;

pub mod fixpoint;
pub mod walk;

pub use compiled::{CompiledLts, Engine, StateId};
pub use denote::Semantics;
pub use equiv::{compare, refines, Discrepancy};
pub use fixpoint::{fixpoint, fixpoint_with, Approximation, FixpointRun, ProcKey};
pub use lts::{Config, Lts, Step};
pub use universe::Universe;
pub use walk::Successors;
