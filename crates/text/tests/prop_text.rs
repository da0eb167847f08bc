//! Property tests for the pattern engine: the NFA agrees with a naive
//! reference matcher on arbitrary patterns and inputs, and the index agrees
//! with direct evaluation.
//!
//! Originally written against an external property-testing library and
//! gated off; now running on the in-repo `docql-prop` harness.

use docql_prop::{
    check, element, just, one_of, prop_assert, prop_assert_eq, recursive, string_of, vec_of, zip,
    zip3, Gen,
};
use docql_text::{ContainsExpr, InvertedIndex, Nfa, Pattern};

const CASES: usize = 256;

/// Reference semantics: language membership by recursive interpretation
/// (exponential, fine for tiny inputs). Returns all possible match end
/// positions for a match starting at `start`.
fn ends(p: &Pattern, s: &[char], start: usize) -> Vec<usize> {
    match p {
        Pattern::Empty => vec![start],
        Pattern::Char(c) => {
            if s.get(start) == Some(c) {
                vec![start + 1]
            } else {
                vec![]
            }
        }
        Pattern::Any => {
            if start < s.len() {
                vec![start + 1]
            } else {
                vec![]
            }
        }
        Pattern::Class { negated, ranges } => match s.get(start) {
            Some(&c) => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                if inside != *negated {
                    vec![start + 1]
                } else {
                    vec![]
                }
            }
            None => vec![],
        },
        Pattern::Concat(items) => {
            let mut positions = vec![start];
            for item in items {
                let mut next = Vec::new();
                for &pos in &positions {
                    for e in ends(item, s, pos) {
                        if !next.contains(&e) {
                            next.push(e);
                        }
                    }
                }
                positions = next;
                if positions.is_empty() {
                    break;
                }
            }
            positions
        }
        Pattern::Alt(items) => {
            let mut out = Vec::new();
            for item in items {
                for e in ends(item, s, start) {
                    if !out.contains(&e) {
                        out.push(e);
                    }
                }
            }
            out
        }
        Pattern::Star(inner) => {
            let mut out = vec![start];
            let mut frontier = vec![start];
            while let Some(pos) = frontier.pop() {
                for e in ends(inner, s, pos) {
                    if e > pos && !out.contains(&e) {
                        out.push(e);
                        frontier.push(e);
                    }
                }
            }
            out
        }
        Pattern::Plus(inner) => ends(
            &Pattern::Concat(vec![(**inner).clone(), Pattern::Star(inner.clone())]),
            s,
            start,
        ),
        Pattern::Opt(inner) => {
            let mut out = vec![start];
            for e in ends(inner, s, start) {
                if !out.contains(&e) {
                    out.push(e);
                }
            }
            out
        }
    }
}

fn reference_contains(p: &Pattern, text: &str) -> bool {
    let chars: Vec<char> = text.chars().collect();
    (0..=chars.len()).any(|i| !ends(p, &chars, i).is_empty())
}

fn arb_pattern() -> Gen<Pattern> {
    let leaf = one_of(vec![
        element(vec!['a', 'b', 'c']).map(|c| Pattern::Char(*c)),
        just(Pattern::Any),
        just(Pattern::Empty),
    ]);
    recursive(leaf, 3, |inner| {
        one_of(vec![
            vec_of(inner.clone(), 1..3).map(|ps| Pattern::Concat(ps.clone())),
            vec_of(inner.clone(), 1..3).map(|ps| Pattern::Alt(ps.clone())),
            inner.clone().map(|p| Pattern::Star(Box::new(p.clone()))),
            inner.clone().map(|p| Pattern::Plus(Box::new(p.clone()))),
            inner.clone().map(|p| Pattern::Opt(Box::new(p.clone()))),
        ])
    })
}

#[test]
fn nfa_agrees_with_reference() {
    check(
        "nfa_agrees_with_reference",
        CASES,
        &zip(arb_pattern(), string_of("abc", 0, 8)),
        |(p, text)| {
            let nfa = Nfa::compile(p);
            prop_assert_eq!(
                nfa.is_match(text),
                reference_contains(p, text),
                "pattern {p:?} on {text:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn parse_display_round_trip() {
    check("parse_display_round_trip", CASES, &arb_pattern(), |p| {
        let printed = p.to_string();
        if let Ok(re) = Pattern::parse(&printed) {
            // Semantically equal: agree on a basket of inputs.
            let nfa1 = Nfa::compile(p);
            let nfa2 = Nfa::compile(&re);
            for text in ["", "a", "ab", "abc", "ccba", "aabbcc"] {
                prop_assert_eq!(
                    nfa1.is_match(text),
                    nfa2.is_match(text),
                    "{printed} vs reparsed on {text:?}"
                );
            }
        }
        Ok(())
    });
}

#[test]
fn find_span_is_a_real_match() {
    check(
        "find_span_is_a_real_match",
        CASES,
        &zip(arb_pattern(), string_of("abc", 0, 8)),
        |(p, text)| {
            let nfa = Nfa::compile(p);
            if let Some((s, e)) = nfa.find(text) {
                prop_assert!(s <= e && e <= text.len());
                prop_assert!(text.is_char_boundary(s) && text.is_char_boundary(e));
                // The reported span itself matches the pattern (anchored both
                // ends): check via reference ends() from s reaching e.
                let chars: Vec<char> = text.chars().collect();
                // Byte offsets equal char offsets for [abc] alphabets.
                prop_assert!(
                    ends(p, &chars, s).contains(&e),
                    "span {s}..{e} of {text:?} for {p:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn index_docs_agree_with_direct_eval_for_words() {
    check(
        "index_docs_agree_with_direct_eval_for_words",
        CASES,
        &zip(
            vec_of(string_of("abc ", 0, 20), 1..6),
            string_of("abc", 1, 3),
        ),
        |(texts, word)| {
            let mut ix = InvertedIndex::new();
            for (i, t) in texts.iter().enumerate() {
                ix.add(i as u64, t);
            }
            let from_index = ix.docs_with_word(word);
            for (i, t) in texts.iter().enumerate() {
                let direct = docql_text::tokenize(t)
                    .iter()
                    .any(|tok| docql_text::normalize(tok.word) == *word);
                prop_assert_eq!(
                    from_index.contains(&(i as u64)),
                    direct,
                    "doc {i} = {t:?}, word {word:?}"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn contains_boolean_laws() {
    check(
        "contains_boolean_laws",
        CASES,
        &zip3(
            string_of("abc", 1, 3),
            string_of("abc", 1, 3),
            string_of("abc ", 0, 12),
        ),
        |(a, b, text)| {
            let pa = ContainsExpr::pattern(a).unwrap();
            let pb = ContainsExpr::pattern(b).unwrap();
            let and = ContainsExpr::And(vec![pa.clone(), pb.clone()]);
            let or = ContainsExpr::Or(vec![pa.clone(), pb.clone()]);
            let na = ContainsExpr::Not(Box::new(pa.clone()));
            prop_assert_eq!(and.eval(text), pa.eval(text) && pb.eval(text));
            prop_assert_eq!(or.eval(text), pa.eval(text) || pb.eval(text));
            prop_assert_eq!(na.eval(text), !pa.eval(text));
            Ok(())
        },
    );
}

#[test]
fn candidates_is_a_superset_of_substring_matches() {
    // Patterns: a plain word, a two-word phrase, and an alternation.
    let arb_query = one_of(vec![
        string_of("abc", 1, 4),
        zip(string_of("abc", 1, 2), string_of("abc", 1, 2)).map(|(x, y)| format!("{x} {y}")),
        zip(element(vec!['a', 'b', 'c']), element(vec!['a', 'b', 'c']))
            .map(|(x, y)| format!("{x}|{y}")),
    ]);
    check(
        "candidates_is_a_superset_of_substring_matches",
        CASES,
        &zip(vec_of(string_of("abc ", 0, 24), 1..8), arb_query),
        |(texts, pattern)| {
            let Ok(expr) = ContainsExpr::pattern(pattern) else {
                return Ok(());
            };
            let mut ix = InvertedIndex::new();
            for (i, t) in texts.iter().enumerate() {
                ix.add(i as u64, t);
            }
            let candidates = ix.candidates(&expr);
            let matcher = expr.compile();
            for (i, t) in texts.iter().enumerate() {
                if matcher.eval(t) {
                    prop_assert!(
                        candidates.contains(&(i as u64)),
                        "doc {i} ({t:?}) matches {pattern:?} but was pruned"
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn literal_matcher_agrees_with_nfa_and_reference() {
    // Literals over multibyte characters and pattern metacharacters, the
    // empty literal included; the text draws on the same characters so that
    // matches are common.
    const CHARS: &str = "ab.(é€";
    check(
        "literal_matcher_agrees_with_nfa_and_reference",
        CASES,
        &zip(string_of(CHARS, 0, 3), string_of(CHARS, 0, 8)),
        |(literal, text)| {
            let mut src = String::new();
            for c in literal.chars() {
                if "\\.()|*+?[]".contains(c) {
                    src.push('\\');
                }
                src.push(c);
            }
            let p = Pattern::parse(&src).unwrap();
            let expr = ContainsExpr::Pattern(p.clone());
            prop_assert!(expr.is_word_exact(), "{src:?} is a plain literal");
            let fast = expr.compile().eval(text);
            prop_assert_eq!(fast, text.contains(literal.as_str()));
            prop_assert_eq!(fast, Nfa::compile(&p).is_match(text), "{src:?} on {text:?}");
            prop_assert_eq!(fast, reference_contains(&p, text), "{src:?} on {text:?}");
            Ok(())
        },
    );
}
