//! A character cursor over SGML source with line/column tracking.

use crate::error::{ErrorKind, Pos, Result, SgmlError};

/// Char-level scanner shared by the DTD and document parsers.
pub struct Cursor<'a> {
    src: &'a str,
    bytes: &'a [u8],
    off: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `src`.
    pub fn new(src: &'a str) -> Cursor<'a> {
        Cursor {
            src,
            bytes: src.as_bytes(),
            off: 0,
            line: 1,
            col: 1,
        }
    }

    /// Current position.
    pub fn pos(&self) -> Pos {
        Pos {
            line: self.line,
            col: self.col,
        }
    }

    /// End of input?
    pub fn at_eof(&self) -> bool {
        self.off >= self.bytes.len()
    }

    /// Peek the current byte (SGML names and delimiters are ASCII; multi-byte
    /// UTF-8 only appears inside text content, which is consumed as spans).
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.off).copied()
    }

    /// Peek `k` bytes ahead.
    pub fn peek_at(&self, k: usize) -> Option<u8> {
        self.bytes.get(self.off + k).copied()
    }

    /// Does the remaining input start with `s`?
    pub fn starts_with(&self, s: &str) -> bool {
        self.src[self.off..].starts_with(s)
    }

    /// Advance one byte.
    pub fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.off += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    /// Consume `s` or fail.
    pub fn require(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            Ok(())
        } else {
            let found: String = self.src[self.off..].chars().take(12).collect();
            Err(SgmlError::new(
                self.pos(),
                ErrorKind::Unexpected {
                    expected: format!("`{s}`"),
                    found: if found.is_empty() {
                        "end of input".to_string()
                    } else {
                        format!("`{found}`")
                    },
                },
            ))
        }
    }

    /// Consume `s` if present; report whether it was.
    pub fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            for _ in 0..s.len() {
                self.bump();
            }
            true
        } else {
            false
        }
    }

    /// Skip ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skip whitespace and SGML comments (`-- … --` inside declarations is
    /// handled by the DTD parser; this skips `<!-- … -->` markup comments).
    pub fn skip_ws_and_comments(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                while !self.at_eof() && !self.starts_with("-->") {
                    self.bump();
                }
                let _ = self.eat("-->");
            } else {
                break;
            }
        }
    }

    /// Is this byte valid in an SGML name (after the first character)?
    fn is_name_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'-' || b == b'.' || b == b'_'
    }

    /// Parse an SGML name (letter, then name characters). Also accepts the
    /// reserved-name prefix `#` when `allow_hash`.
    pub fn name(&mut self, allow_hash: bool) -> Result<String> {
        let start_pos = self.pos();
        let mut out = String::new();
        if allow_hash && self.peek() == Some(b'#') {
            out.push('#');
            self.bump();
        }
        match self.peek() {
            Some(b) if b.is_ascii_alphabetic() => {}
            other => {
                return Err(SgmlError::new(
                    start_pos,
                    ErrorKind::Unexpected {
                        expected: "a name".to_string(),
                        found: other
                            .map(|b| format!("`{}`", b as char))
                            .unwrap_or_else(|| "end of input".to_string()),
                    },
                ));
            }
        }
        while let Some(b) = self.peek() {
            if Self::is_name_byte(b) {
                out.push(b as char);
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    /// Parse a quoted literal (`"…"` or `'…'`), returning its contents.
    pub fn quoted(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            other => {
                return Err(SgmlError::new(
                    self.pos(),
                    ErrorKind::Unexpected {
                        expected: "a quoted literal".to_string(),
                        found: other
                            .map(|b| format!("`{}`", b as char))
                            .unwrap_or_else(|| "end of input".to_string()),
                    },
                ));
            }
        };
        self.bump();
        let start = self.off;
        while let Some(b) = self.peek() {
            if b == quote {
                let text = self.src[start..self.off].to_string();
                self.bump();
                return Ok(text);
            }
            self.bump();
        }
        Err(SgmlError::new(
            self.pos(),
            ErrorKind::UnexpectedEof("reading quoted literal".to_string()),
        ))
    }

    /// Consume raw text until (not including) the next `<` or `&`, returning
    /// the span.
    pub fn text_span(&mut self) -> &'a str {
        let start = self.off;
        while let Some(b) = self.peek() {
            if b == b'<' || b == b'&' {
                break;
            }
            self.bump();
        }
        &self.src[start..self.off]
    }

    /// Byte offset (for slicing).
    pub fn offset(&self) -> usize {
        self.off
    }

    /// The remaining input (for diagnostics).
    pub fn rest(&self) -> &'a str {
        &self.src[self.off..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_line_and_column() {
        let mut c = Cursor::new("ab\ncd");
        c.bump();
        c.bump();
        assert_eq!(c.pos(), Pos { line: 1, col: 3 });
        c.bump(); // newline
        assert_eq!(c.pos(), Pos { line: 2, col: 1 });
    }

    #[test]
    fn names_and_hash_names() {
        let mut c = Cursor::new("article #PCDATA 7up");
        assert_eq!(c.name(false).unwrap(), "article");
        c.skip_ws();
        assert_eq!(c.name(true).unwrap(), "#PCDATA");
        c.skip_ws();
        assert!(c.name(false).is_err(), "names must start with a letter");
    }

    #[test]
    fn quoted_literals_both_quotes() {
        let mut c = Cursor::new("\"final\" 'draft'");
        assert_eq!(c.quoted().unwrap(), "final");
        c.skip_ws();
        assert_eq!(c.quoted().unwrap(), "draft");
    }

    #[test]
    fn unterminated_quote_is_error() {
        let mut c = Cursor::new("\"oops");
        assert!(c.quoted().is_err());
    }

    #[test]
    fn text_span_stops_at_markup() {
        let mut c = Cursor::new("hello world<tag>");
        assert_eq!(c.text_span(), "hello world");
        assert!(c.starts_with("<tag>"));
    }

    #[test]
    fn skip_comments() {
        let mut c = Cursor::new("  <!-- a comment --> <x>");
        c.skip_ws_and_comments();
        assert!(c.starts_with("<x>"));
    }

    #[test]
    fn eat_and_expect() {
        let mut c = Cursor::new("<!ELEMENT");
        assert!(!c.eat("<!ATTLIST"));
        assert!(c.eat("<!ELEMENT"));
        let mut c2 = Cursor::new("abc");
        assert!(c2.require("abd").is_err());
        assert!(c2.require("abc").is_ok());
        assert!(c2.at_eof());
    }

    #[test]
    fn utf8_text_is_preserved() {
        let mut c = Cursor::new("héllo ✨<end>");
        assert_eq!(c.text_span(), "héllo ✨");
    }
}
