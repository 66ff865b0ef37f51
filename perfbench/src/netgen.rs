//! Seeded random networks whose answers the benchmark knows by
//! construction. Each is `gen = chan b; (p || q)`, with `p` a finite
//! term over channels `a`, `b` and `q` one over `b`, `c`, built from
//! output and input prefixes, choice and `STOP` (the shapes of
//! `csp_verify::InstanceGen`). The benchmark enumerates their visible
//! traces itself, straight from §3's definitions, so the trace count and
//! the bound on `#a` / `#c` come from this file and not from the engine
//! under test.

use std::collections::BTreeSet;

use crate::rng::Rng;

/// Values messages range over (the universe `NAT ↾ {0, 1}`).
const VALUES: [i64; 2] = [0, 1];
const CHANNELS: [&str; 3] = ["a", "b", "c"];

#[derive(Debug, Clone)]
enum Term {
    Stop,
    Out(usize, i64, Box<Term>),
    In(usize, Box<Term>),
    Alt(Box<Term>, Box<Term>),
}

type Event = (usize, i64);

impl Term {
    fn random(rng: &mut Rng, depth: usize, chans: [usize; 2]) -> Term {
        if depth == 0 {
            return Term::Stop;
        }
        let ch = chans[rng.below(2)];
        let next = |rng: &mut Rng| Box::new(Term::random(rng, depth - 1, chans));
        match rng.below(4) {
            0 | 1 => Term::Out(ch, VALUES[rng.below(2)], next(rng)),
            2 => Term::In(ch, next(rng)),
            _ => Term::Alt(next(rng), next(rng)),
        }
    }

    fn source(&self) -> String {
        match self {
            Term::Stop => "STOP".to_string(),
            Term::Out(c, v, k) => format!("{}!{v} -> {}", CHANNELS[*c], k.source()),
            Term::In(c, k) => format!("{}?x:{{0..1}} -> {}", CHANNELS[*c], k.source()),
            Term::Alt(l, r) => format!("({} | {})", l.source(), r.source()),
        }
    }

    fn alphabet(&self, out: &mut BTreeSet<usize>) {
        match self {
            Term::Stop => {}
            Term::Out(c, _, k) | Term::In(c, k) => {
                out.insert(*c);
                k.alphabet(out);
            }
            Term::Alt(l, r) => {
                l.alphabet(out);
                r.alphabet(out);
            }
        }
    }

    fn steps(&self) -> Vec<(Event, &Term)> {
        match self {
            Term::Stop => Vec::new(),
            Term::Out(c, v, k) => vec![((*c, *v), k)],
            Term::In(c, k) => VALUES.iter().map(|v| ((*c, *v), &**k)).collect(),
            Term::Alt(l, r) => {
                let mut s = l.steps();
                s.extend(r.steps());
                s
            }
        }
    }
}

/// One generated network and what the benchmark knows about it.
#[derive(Debug, Clone)]
pub struct Network {
    pub source: String,
    /// Visible traces of `gen` (the empty one included) of at most
    /// `depth` events.
    pub traces: u64,
    pub depth: usize,
    /// The channel the assertions count (`a` or `c`).
    pub chan: &'static str,
    /// The largest `#chan` over the traces: `#chan <= max` holds.
    pub max: usize,
    /// Every trace with `#chan == max`, rendered as `Trace` displays
    /// itself: the counterexamples to `#chan <= max - 1`.
    pub violations: BTreeSet<String>,
}

fn render(trace: &[Event]) -> String {
    let events: Vec<String> = trace
        .iter()
        .map(|(c, v)| format!("{}.{v}", CHANNELS[*c]))
        .collect();
    format!("<{}>", events.join(", "))
}

/// Visible traces of `chan b; (p || q)`: events on a channel in both
/// alphabets need both sides; `b` is then concealed.
fn visible_traces(p: &Term, q: &Term, depth: usize) -> BTreeSet<Vec<Event>> {
    let (mut ap, mut aq) = (BTreeSet::new(), BTreeSet::new());
    p.alphabet(&mut ap);
    q.alphabet(&mut aq);
    let mut out = BTreeSet::new();
    fn walk(
        p: &Term,
        q: &Term,
        ap: &BTreeSet<usize>,
        aq: &BTreeSet<usize>,
        seen: &mut Vec<Event>,
        depth: usize,
        out: &mut BTreeSet<Vec<Event>>,
    ) {
        out.insert(seen.clone());
        let mut next: Vec<(Event, &Term, &Term)> = Vec::new();
        for (e, p2) in p.steps() {
            if !aq.contains(&e.0) {
                next.push((e, p2, q));
            } else {
                for (f, q2) in q.steps() {
                    if f == e {
                        next.push((e, p2, q2));
                    }
                }
            }
        }
        for (e, q2) in q.steps() {
            if !ap.contains(&e.0) {
                next.push((e, p, q2));
            }
        }
        for (e, p2, q2) in next {
            let hidden = CHANNELS[e.0] == "b";
            if !hidden && seen.len() == depth {
                continue;
            }
            if !hidden {
                seen.push(e);
            }
            walk(p2, q2, ap, aq, seen, depth, out);
            if !hidden {
                seen.pop();
            }
        }
    }
    walk(p, q, &ap, &aq, &mut Vec::new(), depth, &mut out);
    out
}

impl Network {
    /// A seeded network whose counted channel occurs on some trace, so
    /// that both the holding and the refuted assertion exist. Networks
    /// with more than `MAX_TRACES` traces are drawn again: every seed's
    /// networks then cost about the same, well below the paper networks.
    pub fn generate(rng: &mut Rng) -> Network {
        const TERM_DEPTH: usize = 4;
        const DEPTH: usize = 6;
        const MAX_TRACES: usize = 40;
        loop {
            let p = Term::random(rng, TERM_DEPTH, [0, 1]);
            let q = Term::random(rng, TERM_DEPTH, [1, 2]);
            let (chan, idx) = if rng.below(2) == 0 {
                ("a", 0)
            } else {
                ("c", 2)
            };
            let traces = visible_traces(&p, &q, DEPTH);
            let count = |t: &Vec<Event>| t.iter().filter(|e| e.0 == idx).count();
            let max = traces.iter().map(count).max().unwrap_or(0);
            if max == 0 || traces.len() > MAX_TRACES {
                continue;
            }
            let violations = traces
                .iter()
                .filter(|t| count(t) == max)
                .map(|t| render(t))
                .collect();
            return Network {
                source: format!(
                    "p = {}\nq = {}\ngen = chan b; (p || q)\n",
                    p.source(),
                    q.source()
                ),
                traces: traces.len() as u64,
                depth: DEPTH,
                chan,
                max,
                violations,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_networks() {
        let nets = |seed| {
            let mut rng = Rng::new(seed);
            (0..5)
                .map(|_| Network::generate(&mut rng).source)
                .collect::<Vec<_>>()
        };
        assert_eq!(nets(9), nets(9));
        assert_ne!(nets(9), nets(10));
    }

    #[test]
    fn hand_checked_network() {
        // p offers a then b!0; q takes b and then offers c.
        let p = Term::Out(0, 1, Box::new(Term::Out(1, 0, Box::new(Term::Stop))));
        let q = Term::In(1, Box::new(Term::Out(2, 1, Box::new(Term::Stop))));
        let traces: Vec<String> = visible_traces(&p, &q, 6)
            .iter()
            .map(|t| render(t))
            .collect();
        assert_eq!(traces, ["<>", "<a.1>", "<a.1, c.1>"]);
    }
}
