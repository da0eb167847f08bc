//! Thompson NFA construction and simulation for [`Pattern`]s.
//!
//! The matcher runs the classic lock-step simulation (a set of active states
//! advanced per input character) which is linear in `text × states` with no
//! backtracking blow-up — fitting for the IRS-style workloads the paper
//! targets. Search is unanchored: `is_match` asks whether the pattern occurs
//! *anywhere* in the text (the semantics of `contains`).

use crate::pattern::Pattern;

/// State transitions.
#[derive(Debug, Clone)]
enum Trans {
    /// Consume one character if it satisfies the test, go to `to`.
    Char { test: CharTest, to: usize },
    /// ε-transitions.
    Eps(Vec<usize>),
    /// Accepting state.
    Accept,
}

#[derive(Debug, Clone)]
enum CharTest {
    Exact(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
}

impl CharTest {
    fn matches(&self, c: char) -> bool {
        match self {
            CharTest::Exact(e) => *e == c,
            CharTest::Any => true,
            CharTest::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                inside != *negated
            }
        }
    }
}

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<Trans>,
    start: usize,
}

impl Nfa {
    /// Compile a pattern.
    pub fn compile(pattern: &Pattern) -> Nfa {
        let mut b = Builder { states: Vec::new() };
        let accept = b.push(Trans::Accept);
        let start = b.compile(pattern, accept);
        Nfa {
            states: b.states,
            start,
        }
    }

    /// Does the pattern occur anywhere in `text`?
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Leftmost match: `(start_byte, end_byte)` of the first occurrence
    /// (shortest end for that start).
    pub fn find(&self, text: &str) -> Option<(usize, usize)> {
        // Lock-step simulation from every start offset, all at once: each
        // active thread remembers the byte offset where it started. The
        // thread lists and the closure stack are reused across characters.
        let mut current: Vec<(usize, usize)> = Vec::new(); // (state, started_at)
        let mut next: Vec<(usize, usize)> = Vec::new();
        let mut stack: Vec<(usize, usize)> = Vec::new();
        let mut seen = vec![usize::MAX; self.states.len()];
        let mut best: Option<(usize, usize)> = None;

        let mut add = |threads: &mut Vec<(usize, usize)>,
                       seen: &mut Vec<usize>,
                       stamp: usize,
                       state: usize,
                       started: usize,
                       states: &[Trans],
                       best: &mut Option<(usize, usize)>,
                       here: usize| {
            // DFS through ε-closure.
            stack.push((state, started));
            while let Some((s, st)) = stack.pop() {
                if seen[s] == stamp {
                    continue;
                }
                seen[s] = stamp;
                match &states[s] {
                    Trans::Eps(targets) => {
                        for &t in targets {
                            stack.push((t, st));
                        }
                    }
                    Trans::Accept => {
                        let cand = (st, here);
                        if best.is_none_or(|(bs, be)| cand.0 < bs || (cand.0 == bs && cand.1 < be))
                        {
                            *best = Some(cand);
                        }
                    }
                    Trans::Char { .. } => threads.push((s, st)),
                }
            }
        };

        let mut stamp = 0usize;
        // Seed at offset 0.
        add(
            &mut current,
            &mut seen,
            stamp,
            self.start,
            0,
            &self.states,
            &mut best,
            0,
        );
        let mut offsets = text.char_indices().peekable();
        while let Some((_at, c)) = offsets.next() {
            let next_at = offsets.peek().map(|&(i, _)| i).unwrap_or(text.len());
            stamp += 1;
            next.clear();
            for &(s, st) in &current {
                if let Trans::Char { test, to } = &self.states[s] {
                    if test.matches(c) {
                        add(
                            &mut next,
                            &mut seen,
                            stamp,
                            *to,
                            st,
                            &self.states,
                            &mut best,
                            next_at,
                        );
                    }
                }
            }
            // New thread starting at the next character boundary.
            add(
                &mut next,
                &mut seen,
                stamp,
                self.start,
                next_at,
                &self.states,
                &mut best,
                next_at,
            );
            std::mem::swap(&mut current, &mut next);
            // Leftmost match already found and no thread can start earlier.
            if let Some((bs, _)) = best {
                if current.iter().all(|&(_, st)| st > bs) {
                    break;
                }
            }
        }
        best
    }

    /// Number of NFA states (diagnostics / benches).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }
}

struct Builder {
    states: Vec<Trans>,
}

impl Builder {
    fn push(&mut self, t: Trans) -> usize {
        self.states.push(t);
        self.states.len() - 1
    }

    /// Compile `pattern` so that matching it ends in `next`; returns the
    /// entry state.
    fn compile(&mut self, pattern: &Pattern, next: usize) -> usize {
        match pattern {
            Pattern::Empty => next,
            Pattern::Char(c) => self.push(Trans::Char {
                test: CharTest::Exact(*c),
                to: next,
            }),
            Pattern::Any => self.push(Trans::Char {
                test: CharTest::Any,
                to: next,
            }),
            Pattern::Class { negated, ranges } => self.push(Trans::Char {
                test: CharTest::Class {
                    negated: *negated,
                    ranges: ranges.clone(),
                },
                to: next,
            }),
            Pattern::Concat(items) => {
                let mut target = next;
                for item in items.iter().rev() {
                    target = self.compile(item, target);
                }
                target
            }
            Pattern::Alt(items) => {
                let entries: Vec<usize> = items.iter().map(|i| self.compile(i, next)).collect();
                self.push(Trans::Eps(entries))
            }
            Pattern::Star(inner) => {
                // fork -> inner -> fork ; fork -> next
                let fork = self.push(Trans::Eps(vec![next]));
                let entry = self.compile(inner, fork);
                if let Trans::Eps(targets) = &mut self.states[fork] {
                    targets.push(entry);
                }
                fork
            }
            Pattern::Plus(inner) => {
                let fork = self.push(Trans::Eps(vec![next]));
                let entry = self.compile(inner, fork);
                if let Trans::Eps(targets) = &mut self.states[fork] {
                    targets.push(entry);
                }
                entry
            }
            Pattern::Opt(inner) => {
                let entry = self.compile(inner, next);
                self.push(Trans::Eps(vec![entry, next]))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Nfa::compile(&Pattern::parse(pat).unwrap()).is_match(text)
    }

    #[test]
    fn literal_substring_search() {
        assert!(m("SGML", "an SGML document"));
        assert!(!m("SGML", "an XML document"));
        assert!(m("SGML", "SGML"));
    }

    #[test]
    fn paper_title_pattern() {
        assert!(m("(t|T)itle", "the Title field"));
        assert!(m("(t|T)itle", "subtitle"));
        assert!(!m("(t|T)itle", "TITLES"));
    }

    #[test]
    fn closures() {
        assert!(m("ab*c", "ac"));
        assert!(m("ab*c", "abbbc"));
        assert!(!m("ab+c", "ac"));
        assert!(m("ab?c", "abc"));
        assert!(m("(ab)+", "xxabababyy"));
    }

    #[test]
    fn alternation_and_classes() {
        assert!(m("cat|dog", "hotdog stand"));
        assert!(m("[0-9]+cm", "width 16cm"));
        assert!(!m("[0-9]+cm", "width cm"));
        assert!(m("[^ ]+@[^ ]+", "mail me at a@b please"));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", ""));
        assert!(m("", "anything"));
        assert!(m("a*", "zzz"), "a* matches the empty string in zzz");
    }

    #[test]
    fn find_reports_leftmost_position() {
        let nfa = Nfa::compile(&Pattern::parse("b+").unwrap());
        assert_eq!(nfa.find("aabbbaab"), Some((2, 3)));
        assert_eq!(nfa.find("zzz"), None);
    }

    #[test]
    fn find_handles_multibyte_text() {
        let nfa = Nfa::compile(&Pattern::parse("é+").unwrap());
        let text = "caféé!";
        let (s, e) = nfa.find(text).unwrap();
        assert_eq!(&text[s..s + 2], "é");
        assert!(e > s);
    }

    #[test]
    fn pathological_pattern_is_linear_ish() {
        // (a?)ⁿaⁿ against aⁿ — catastrophic for backtrackers.
        let n = 20;
        let pat = format!("{}{}", "a?".repeat(n), "a".repeat(n));
        let text = "a".repeat(n);
        assert!(m(&pat, &text));
    }

    #[test]
    fn anchoredless_match_mid_text() {
        assert!(m("complex object", "queries over complex objects"));
    }
}
