//! The pattern language of the `contains` predicate (§4.1).
//!
//! "Patterns are constructed using concatenation, disjunction, Kleene
//! closure, etc." — we provide a small regex dialect with literals,
//! grouping `( )`, alternation `|`, closures `* + ?`, wildcard `.`, simple
//! character classes `[a-z]`, and `\`-escapes. The paper's own example
//! `"(t|T)itle"` parses here.

use std::fmt;

/// Errors from pattern parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError {
    /// Byte offset in the pattern source.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pattern error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for PatternError {}

/// A parsed pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// The empty pattern (matches the empty string).
    Empty,
    /// A single literal character.
    Char(char),
    /// Any single character (`.`).
    Any,
    /// A character class: ranges, possibly negated.
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    /// Concatenation.
    Concat(Vec<Pattern>),
    /// Disjunction (`|`).
    Alt(Vec<Pattern>),
    /// Kleene closure (`*`).
    Star(Box<Pattern>),
    /// One or more (`+`).
    Plus(Box<Pattern>),
    /// Zero or one (`?`).
    Opt(Box<Pattern>),
}

impl Pattern {
    /// Parse a pattern from its textual form.
    pub fn parse(src: &str) -> Result<Pattern, PatternError> {
        let mut p = Parser {
            chars: src.char_indices().collect(),
            pos: 0,
        };
        let pat = p.alternation()?;
        if p.pos < p.chars.len() {
            return Err(PatternError {
                at: p.chars[p.pos].0,
                msg: format!("unexpected `{}`", p.chars[p.pos].1),
            });
        }
        Ok(pat)
    }

    /// A pattern matching exactly this literal text.
    pub fn literal(text: &str) -> Pattern {
        Pattern::Concat(text.chars().map(Pattern::Char).collect())
    }
}

struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn at(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(i, _)| i)
            .unwrap_or_else(|| {
                self.chars
                    .last()
                    .map(|&(i, c)| i + c.len_utf8())
                    .unwrap_or(0)
            })
    }

    fn alternation(&mut self) -> Result<Pattern, PatternError> {
        let first = self.concat()?;
        if self.peek() != Some('|') {
            return Ok(first);
        }
        let mut alts = vec![first];
        while self.peek() == Some('|') {
            self.bump();
            alts.push(self.concat()?);
        }
        Ok(Pattern::Alt(alts))
    }

    fn concat(&mut self) -> Result<Pattern, PatternError> {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            items.push(self.repeat()?);
        }
        Ok(if items.len() > 1 {
            Pattern::Concat(items)
        } else {
            items.pop().unwrap_or(Pattern::Empty)
        })
    }

    fn repeat(&mut self) -> Result<Pattern, PatternError> {
        let mut base = self.atom()?;
        loop {
            match self.peek() {
                Some('*') => {
                    self.bump();
                    base = Pattern::Star(Box::new(base));
                }
                Some('+') => {
                    self.bump();
                    base = Pattern::Plus(Box::new(base));
                }
                Some('?') => {
                    self.bump();
                    base = Pattern::Opt(Box::new(base));
                }
                _ => return Ok(base),
            }
        }
    }

    fn atom(&mut self) -> Result<Pattern, PatternError> {
        let at = self.at();
        match self.bump() {
            None => Err(PatternError {
                at,
                msg: "unexpected end of pattern".to_string(),
            }),
            Some('(') => {
                let inner = self.alternation()?;
                if self.bump() != Some(')') {
                    return Err(PatternError {
                        at: self.at(),
                        msg: "unclosed `(`".to_string(),
                    });
                }
                Ok(inner)
            }
            Some('.') => Ok(Pattern::Any),
            Some('[') => self.class(),
            Some('\\') => match self.bump() {
                Some(c) => Ok(Pattern::Char(c)),
                None => Err(PatternError {
                    at,
                    msg: "dangling escape".to_string(),
                }),
            },
            Some(c @ ('*' | '+' | '?')) => Err(PatternError {
                at,
                msg: format!("`{c}` with nothing to repeat"),
            }),
            Some(c) => Ok(Pattern::Char(c)),
        }
    }

    fn class(&mut self) -> Result<Pattern, PatternError> {
        let start = self.at();
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        loop {
            match self.bump() {
                None => {
                    return Err(PatternError {
                        at: start,
                        msg: "unclosed `[`".to_string(),
                    });
                }
                Some(']') if !ranges.is_empty() || negated => break,
                Some(']') => break, // empty class matches nothing
                Some('\\') => {
                    let c = self.bump().ok_or(PatternError {
                        at: start,
                        msg: "dangling escape in class".to_string(),
                    })?;
                    ranges.push((c, c));
                }
                Some(lo) => {
                    let hi = match self.chars.get(self.pos + 1) {
                        Some(&(_, hi)) if self.peek() == Some('-') && hi != ']' => {
                            self.pos += 2; // the dash and the upper bound
                            hi
                        }
                        _ => lo,
                    };
                    ranges.push((lo, hi));
                }
            }
        }
        Ok(Pattern::Class { negated, ranges })
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn needs_group(p: &Pattern) -> bool {
            // Empty must render as an explicit group under a quantifier, or
            // the operator would dangle (`+` instead of `()+`).
            matches!(p, Pattern::Concat(_) | Pattern::Alt(_) | Pattern::Empty)
        }
        fn write_sub(p: &Pattern, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if needs_group(p) {
                write!(f, "({p})")
            } else {
                write!(f, "{p}")
            }
        }
        match self {
            Pattern::Empty => Ok(()),
            Pattern::Char(c) => {
                if "()|*+?.[]\\".contains(*c) {
                    write!(f, "\\{c}")
                } else {
                    write!(f, "{c}")
                }
            }
            Pattern::Any => f.write_str("."),
            Pattern::Class { negated, ranges } => {
                f.write_str("[")?;
                if *negated {
                    f.write_str("^")?;
                }
                for (lo, hi) in ranges {
                    if lo == hi {
                        write!(f, "{lo}")?;
                    } else {
                        write!(f, "{lo}-{hi}")?;
                    }
                }
                f.write_str("]")
            }
            Pattern::Concat(items) => {
                for i in items {
                    if matches!(i, Pattern::Alt(_)) {
                        write!(f, "({i})")?;
                    } else {
                        write!(f, "{i}")?;
                    }
                }
                Ok(())
            }
            Pattern::Alt(items) => {
                for (k, i) in items.iter().enumerate() {
                    if k > 0 {
                        f.write_str("|")?;
                    }
                    write!(f, "{i}")?;
                }
                Ok(())
            }
            Pattern::Star(p) => {
                write_sub(p, f)?;
                f.write_str("*")
            }
            Pattern::Plus(p) => {
                write_sub(p, f)?;
                f.write_str("+")
            }
            Pattern::Opt(p) => {
                write_sub(p, f)?;
                f.write_str("?")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example() {
        // The paper queries `name(A) contains "(t|T)itle"`.
        let p = Pattern::parse("(t|T)itle").unwrap();
        match p {
            Pattern::Concat(items) => {
                assert!(matches!(items[0], Pattern::Alt(_)));
                assert_eq!(items.len(), 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn closures_bind_tightly() {
        let p = Pattern::parse("ab*").unwrap();
        match p {
            Pattern::Concat(items) => {
                assert_eq!(items[0], Pattern::Char('a'));
                assert!(matches!(items[1], Pattern::Star(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn escapes() {
        assert_eq!(Pattern::parse(r"\*").unwrap(), Pattern::Char('*'));
        assert!(Pattern::parse(r"\").is_err());
    }

    #[test]
    fn classes_and_ranges() {
        let p = Pattern::parse("[a-z0]").unwrap();
        assert_eq!(
            p,
            Pattern::Class {
                negated: false,
                ranges: vec![('a', 'z'), ('0', '0')]
            }
        );
        let n = Pattern::parse("[^x]").unwrap();
        assert!(matches!(n, Pattern::Class { negated: true, .. }));
    }

    #[test]
    fn dangling_operators_rejected() {
        assert!(Pattern::parse("*a").is_err());
        assert!(Pattern::parse("(a").is_err());
        assert!(Pattern::parse("a)").is_err());
    }

    #[test]
    fn empty_pattern_ok() {
        assert_eq!(Pattern::parse("").unwrap(), Pattern::Empty);
        assert_eq!(
            Pattern::parse("a|").unwrap(),
            Pattern::Alt(vec![Pattern::Char('a'), Pattern::Empty])
        );
    }

    #[test]
    fn display_round_trips() {
        for src in [
            "(t|T)itle",
            "ab*c+d?",
            "[a-z]+",
            "a\\*b",
            "x|y|z",
            "(ab|cd)*",
        ] {
            let p = Pattern::parse(src).unwrap();
            let printed = p.to_string();
            let re = Pattern::parse(&printed).unwrap();
            assert_eq!(p, re, "round-trip of {src} via {printed}");
        }
    }

    #[test]
    fn literal_constructor_escapes_nothing() {
        let p = Pattern::literal("a*b");
        assert_eq!(
            p,
            Pattern::Concat(vec![
                Pattern::Char('a'),
                Pattern::Char('*'),
                Pattern::Char('b')
            ])
        );
    }
}
