//! The memoised successor relation: definitions lowered to a labelled
//! transition system with interned states.
//!
//! Stepping a term on the fly ([`Lts`]) recomputes the transition
//! relation at every visit — for a confluent network the same
//! configuration is re-stepped once per interleaving that reaches it,
//! and each step re-resolves alphabets and re-closes operand
//! environments. [`CompiledLts`] removes exactly that redundancy:
//! configurations are interned into an arena of [`StateId`]s the first
//! time they are seen, the row of each state is computed once (on the
//! fly, so parallel composition and hiding are still product automata
//! over *reachable* states only), and every later visit is a table
//! lookup.
//!
//! Both relations implement [`Successors`], and each query is written
//! once over that trait (see [`crate::walk`]). The rows keep the order
//! [`Lts::steps`] produces, so a query gives the same answer on either
//! relation; [`Engine`] is the selector the higher layers thread through
//! their option bundles to pick one.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use csp_lang::{Definitions, Env, EvalError, Process};
use csp_trace::TraceSet;

use crate::walk::{self, Successors};
use crate::{Config, Lts, Step, Universe};

/// Which successor relation a query runs on.
///
/// The selector is `#[non_exhaustive]`: future relations can be added
/// without breaking callers. Parse/display round-trip
/// through the CLI spelling:
///
/// ```
/// use csp_semantics::Engine;
///
/// let e: Engine = "compiled".parse().unwrap();
/// assert_eq!(e, Engine::Compiled);
/// assert_eq!(e.to_string(), "compiled");
/// assert_eq!(Engine::default(), Engine::Auto);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Engine {
    /// The on-the-fly relation ([`Lts`]): every visit re-steps the
    /// term.
    Enumerative,
    /// The memoised relation ([`CompiledLts`]): interned states, each
    /// row computed once.
    Compiled,
    /// Resolve per query: compiled for networks (any reachable parallel
    /// composition or hiding, where re-stepping is quadratic pain),
    /// enumerative for plain sequential terms (where interning is pure
    /// overhead).
    #[default]
    Auto,
}

impl Engine {
    /// The CLI spelling (`enumerative` / `compiled` / `auto`).
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Enumerative => "enumerative",
            Engine::Compiled => "compiled",
            Engine::Auto => "auto",
        }
    }

    /// Resolves `Auto` against a concrete query: compiled when the
    /// definitions reachable from `root` contain a parallel composition
    /// or hiding, enumerative otherwise. `Enumerative` and `Compiled`
    /// resolve to themselves.
    pub fn resolve(self, defs: &Definitions, root: &Process) -> Engine {
        match self {
            Engine::Auto => {
                if prefers_compiled(defs, root) {
                    Engine::Compiled
                } else {
                    Engine::Enumerative
                }
            }
            other => other,
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "enumerative" => Ok(Engine::Enumerative),
            "compiled" => Ok(Engine::Compiled),
            "auto" => Ok(Engine::Auto),
            other => Err(format!(
                "unknown engine `{other}` (expected `enumerative`, `compiled`, or `auto`)"
            )),
        }
    }
}

/// True when any definition reachable from `root` composes processes in
/// parallel or hides channels — the shapes whose state spaces revisit
/// configurations across interleavings.
fn prefers_compiled(defs: &Definitions, root: &Process) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack: Vec<&Process> = vec![root];
    while let Some(p) = stack.pop() {
        match p {
            Process::Parallel { .. } | Process::Hide { .. } => return true,
            Process::Stop | Process::Error(_) => {}
            Process::Call { name, .. } => {
                if seen.insert(name.as_str()) {
                    if let Some(def) = defs.get(name) {
                        stack.push(def.body());
                    }
                }
            }
            Process::Output { then, .. } | Process::Input { then, .. } => stack.push(then),
            Process::Choice(a, b) => {
                stack.push(a);
                stack.push(b);
            }
        }
    }
    false
}

/// An interned configuration in a [`CompiledLts`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(u32);

impl StateId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The compiled transition-system view of a definition list: an arena of
/// interned configurations with memoised successor rows, grown on the
/// fly as checks reach new states.
#[derive(Debug)]
pub struct CompiledLts<'a> {
    lts: Lts<'a>,
    states: Vec<Config>,
    index: BTreeMap<Config, u32>,
    rows: Vec<Option<Arc<[Step<StateId>]>>>,
    transitions: usize,
}

impl<'a> CompiledLts<'a> {
    /// An empty arena over the given definitions and universe.
    pub fn new(defs: &'a Definitions, universe: &'a Universe) -> Self {
        CompiledLts {
            lts: Lts::new(defs, universe),
            states: Vec::new(),
            index: BTreeMap::new(),
            rows: Vec::new(),
            transitions: 0,
        }
    }

    /// Interns a configuration, returning its arena id (stable for the
    /// lifetime of the arena; the same configuration always gets the
    /// same id).
    pub fn intern(&mut self, config: Config) -> StateId {
        if let Some(&i) = self.index.get(&config) {
            return StateId(i);
        }
        let i = u32::try_from(self.states.len()).expect("state arena exceeds u32");
        self.states.push(config.clone());
        self.index.insert(config, i);
        self.rows.push(None);
        StateId(i)
    }

    /// Interns the initial configuration of a named process.
    pub fn start(&mut self, name: &str, env: &Env) -> StateId {
        let config = self.lts.initial(name, env);
        self.intern(config)
    }

    /// Distinct configurations interned so far.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Transitions in the compiled rows so far.
    pub fn num_transitions(&self) -> usize {
        self.transitions
    }

    /// The visible traces of length at most `depth` from `start`, with
    /// the default internal budget (`depth × 3`, as [`Lts::traces`]).
    /// See [`walk::traces`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures from the transition relation.
    pub fn traces(&mut self, start: StateId, depth: usize) -> Result<TraceSet, EvalError> {
        walk::traces(self, &start, depth, depth * 3)
    }
}

/// The memoised relation: a row is compiled on first access, and later
/// visits share it.
impl Successors for CompiledLts<'_> {
    type State = StateId;
    type Row = Arc<[Step<StateId>]>;

    fn successors(&mut self, &id: &StateId) -> Result<Self::Row, EvalError> {
        if let Some(row) = &self.rows[id.index()] {
            return Ok(Arc::clone(row));
        }
        let steps = self.lts.steps(&self.states[id.index()])?;
        let row: Arc<[Step<StateId>]> = steps
            .into_iter()
            .map(|s| match s {
                Step::Visible(e, c) => Step::Visible(e, self.intern(c)),
                Step::Internal(c) => Step::Internal(self.intern(c)),
            })
            .collect();
        self.transitions += row.len();
        self.rows[id.index()] = Some(Arc::clone(&row));
        Ok(row)
    }

    fn config<'s>(&'s self, id: &'s StateId) -> &'s Config {
        &self.states[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, parse_definitions};
    use csp_trace::Value;

    #[test]
    fn engine_parse_display_round_trip() {
        for e in [Engine::Enumerative, Engine::Compiled, Engine::Auto] {
            let back: Engine = e.to_string().parse().unwrap();
            assert_eq!(back, e);
        }
        let err = "turbo".parse::<Engine>().unwrap_err();
        assert!(
            err.contains("turbo") && err.contains("enumerative"),
            "{err}"
        );
    }

    #[test]
    fn auto_resolves_by_network_shape() {
        let defs = examples::pipeline();
        // The pipeline hides `wire` and composes in parallel: compiled.
        assert_eq!(
            Engine::Auto.resolve(&defs, &Process::call("pipeline")),
            Engine::Compiled
        );
        // A single sequential component: enumerative.
        assert_eq!(
            Engine::Auto.resolve(&defs, &Process::call("copier")),
            Engine::Enumerative
        );
        // Explicit choices always win.
        assert_eq!(
            Engine::Compiled.resolve(&defs, &Process::call("copier")),
            Engine::Compiled
        );
        assert_eq!(
            Engine::Enumerative.resolve(&defs, &Process::call("pipeline")),
            Engine::Enumerative
        );
    }

    #[test]
    fn interning_is_stable() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut c = CompiledLts::new(&defs, &uni);
        let a = c.start("pipeline", &Env::new());
        let b = c.start("pipeline", &Env::new());
        assert_eq!(a, b);
        assert_eq!(c.num_states(), 1);
    }

    #[test]
    fn compiled_traces_equal_enumerative_on_pipeline() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for name in ["copier", "recopier", "pipeline"] {
            for depth in 0..=4 {
                let mut c = CompiledLts::new(&defs, &uni);
                let start = c.start(name, &env);
                let compiled = c.traces(start, depth).unwrap();
                let enumerated = lts.traces(&lts.initial(name, &env), depth).unwrap();
                assert_eq!(compiled, enumerated, "{name} at depth {depth}");
            }
        }
    }

    #[test]
    fn compiled_traces_equal_enumerative_on_protocol() {
        let defs = examples::protocol();
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        let lts = Lts::new(&defs, &uni);
        let env = Env::new();
        for depth in 0..=3 {
            let mut c = CompiledLts::new(&defs, &uni);
            let start = c.start("protocol", &env);
            let compiled = c.traces(start, depth).unwrap();
            let enumerated = lts.traces(&lts.initial("protocol", &env), depth).unwrap();
            assert_eq!(compiled, enumerated, "protocol at depth {depth}");
        }
    }

    #[test]
    fn memoised_rows_equal_on_the_fly_steps_on_multiplier() {
        // Every query is one walk over either relation, so the relations
        // agree on every query exactly when their rows agree: each
        // memoised row, mapped back to configurations, is `Lts::steps`
        // of the configuration it was compiled from.
        let defs = parse_definitions(csp_lang::examples::MULTIPLIER_SRC).unwrap();
        let env = examples::multiplier_env(&[2, 3, 5]);
        let uni = Universe::new(10);
        let lts = Lts::new(&defs, &uni);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.intern(Config::new(Process::call("multiplier"), env));
        let traces = walk::traces(&mut c, &start, 4, 16).unwrap();
        assert_eq!(traces.len(), 85_690);
        assert!(c.rows.iter().filter(|r| r.is_some()).count() > 1);
        for (i, row) in c.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            let back: Vec<Step> = row
                .iter()
                .map(|s| match s {
                    Step::Visible(e, t) => Step::Visible(*e, c.states[t.index()].clone()),
                    Step::Internal(t) => Step::Internal(c.states[t.index()].clone()),
                })
                .collect();
            assert_eq!(back, lts.steps(&c.states[i]).unwrap(), "row of state {i}");
        }
        // The point of memoising: far fewer states than traces visited.
        assert!(c.num_states() < traces.len());
    }

    #[test]
    fn rows_are_compiled_once() {
        let defs = examples::pipeline();
        let uni = Universe::new(1);
        let mut c = CompiledLts::new(&defs, &uni);
        let start = c.start("pipeline", &env_new());
        c.traces(start, 3).unwrap();
        let states = c.num_states();
        let transitions = c.num_transitions();
        // A second walk re-uses every row: no new states, no new rows.
        c.traces(start, 3).unwrap();
        assert_eq!(c.num_states(), states);
        assert_eq!(c.num_transitions(), transitions);
    }

    fn env_new() -> Env {
        Env::new()
    }
}
