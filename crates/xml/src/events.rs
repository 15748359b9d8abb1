//! Streaming pull tokenizer: an [`Events`] iterator over any [`Read`]
//! source that yields start/attr/text/end events without ever building a
//! DOM.
//!
//! This is the crate's only XML tokenizer. Store ingest and WAL appends
//! feed its events straight to the vectorizer; [`crate::parse`] feeds
//! them to a [`crate::TreeBuilder`]. It covers the XML 1.0 subset the
//! crate supports (elements, attributes, text, CDATA, comments, PIs,
//! predefined entities, numeric character references, skipped internal
//! DTD subset) with the usual well-formedness checks, and coalesces text
//! the way the DOM keeps it: consecutive character data and references
//! merge into one [`Event::Text`], CDATA sections stay separate.
//!
//! Memory is bounded by one look-ahead buffer plus the open-element name
//! stack plus the event currently being assembled; the input is never
//! materialized as a whole. This is what makes DOM-free, bounded-memory
//! vectorization (`vx-ingest`) possible.

use crate::dom::XmlDecl;
use crate::{Result, XmlError};
use std::io::Read;

/// Refill granularity of the look-ahead buffer.
const CHUNK: usize = 8192;
/// Consumed-prefix length that triggers compaction of the buffer.
const COMPACT_AT: usize = 4 * CHUNK;

/// One parsing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The `<?xml …?>` declaration. At most one, always first.
    Decl(XmlDecl),
    /// A start tag opened. Its attributes follow immediately as
    /// [`Event::Attr`] events; `<e/>` additionally yields [`Event::End`]
    /// right after them.
    Start(String),
    /// One attribute of the most recently started element.
    Attr { name: String, value: String },
    /// Character data with references expanded. Never empty; maximal —
    /// adjacent text and references are coalesced, and [`crate::parse`]
    /// keeps each as one `Node::Text`.
    Text(String),
    /// A CDATA section's literal contents (may be empty).
    CData(String),
    /// The named element closed.
    End(String),
    /// A comment (in the prolog, the epilog, or element content).
    Comment(String),
    /// A processing instruction.
    Pi { target: String, data: String },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Very beginning: the declaration is only recognized here.
    AtStart,
    /// Before the root element: misc items, DOCTYPE.
    Prolog,
    /// Inside a start tag, attributes pending.
    StartTag,
    /// Inside element content.
    Content,
    /// After the root element closed: misc items until EOF.
    Epilog,
    Done,
}

/// A pull-based event reader over any byte source.
///
/// Iteration yields `Result<Event>`; after the first error the iterator is
/// fused and returns `None` forever. Well-formedness violations are
/// reported with a 1-based line/column position.
pub struct Events<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    line: u32,
    column: u32,
    state: State,
    stack: Vec<String>,
    seen_attrs: Vec<String>,
    failed: bool,
}

impl<R: Read> Events<R> {
    /// Wraps a byte source. `&[u8]` implements [`Read`], so
    /// `Events::new(text.as_bytes())` streams over an in-memory string.
    pub fn new(src: R) -> Self {
        Events {
            src,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            line: 1,
            column: 1,
            state: State::AtStart,
            stack: Vec::new(),
            seen_attrs: Vec::new(),
            failed: false,
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    fn err(&self, message: impl Into<String>) -> XmlError {
        XmlError {
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }

    // ---- buffered cursor -------------------------------------------------

    fn refill(&mut self) -> Result<()> {
        if self.pos >= COMPACT_AT {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        let mut chunk = [0u8; CHUNK];
        loop {
            match self.src.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.err(format!("I/O error: {e}"))),
            }
        }
    }

    /// Best-effort: makes at least `n` bytes available unless EOF comes
    /// first.
    fn ensure(&mut self, n: usize) -> Result<()> {
        while self.buf.len() - self.pos < n && !self.eof {
            self.refill()?;
        }
        Ok(())
    }

    fn peek(&mut self) -> Result<Option<u8>> {
        self.ensure(1)?;
        Ok(self.buf.get(self.pos).copied())
    }

    fn starts_with(&mut self, s: &str) -> Result<bool> {
        self.ensure(s.len())?;
        Ok(self.buf[self.pos..].starts_with(s.as_bytes()))
    }

    fn bump(&mut self) -> Result<Option<u8>> {
        let Some(b) = self.peek()? else {
            return Ok(None);
        };
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.column = 1;
        } else if b & 0xc0 != 0x80 {
            // Count UTF-8 scalar starts, not continuation bytes.
            self.column += 1;
        }
        Ok(Some(b))
    }

    fn advance(&mut self, n: usize) -> Result<()> {
        for _ in 0..n {
            self.bump()?;
        }
        Ok(())
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s)? {
            self.advance(s.len())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    fn skip_ws(&mut self) -> Result<()> {
        while matches!(self.peek()?, Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump()?;
        }
        Ok(())
    }

    /// Copies bytes into `out` until one of `stops` (or EOF); the stop byte
    /// is not consumed.
    fn copy_until(&mut self, out: &mut Vec<u8>, stops: &[u8]) -> Result<()> {
        loop {
            if self.pos >= self.buf.len() {
                if self.eof {
                    return Ok(());
                }
                self.refill()?;
                continue;
            }
            let b = self.buf[self.pos];
            if stops.contains(&b) {
                return Ok(());
            }
            out.push(b);
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                self.column = 1;
            } else if b & 0xc0 != 0x80 {
                self.column += 1;
            }
        }
    }

    fn utf8(&self, bytes: Vec<u8>, what: &str) -> Result<String> {
        String::from_utf8(bytes).map_err(|_| self.err(format!("{what} is not valid UTF-8")))
    }

    // ---- grammar -----------------------------------------------------------

    fn name(&mut self) -> Result<String> {
        let mut out = Vec::new();
        match self.peek()? {
            Some(b) if is_name_start(b) => {
                out.push(b);
                self.bump()?;
            }
            _ => return Err(self.err("expected name")),
        }
        while let Some(b) = self.peek()? {
            if is_name_char(b) {
                out.push(b);
                self.bump()?;
            } else {
                break;
            }
        }
        self.utf8(out, "name")
    }

    /// Parses `&…;` and returns the expanded text.
    fn reference(&mut self) -> Result<String> {
        self.expect("&")?;
        if self.peek()? == Some(b'#') {
            self.bump()?;
            let radix = if self.peek()? == Some(b'x') {
                self.bump()?;
                16
            } else {
                10
            };
            let mut digits = String::new();
            while let Some(b) = self.peek()? {
                if (b as char).is_digit(radix) {
                    digits.push(b as char);
                    self.bump()?;
                } else {
                    break;
                }
            }
            self.expect(";")?;
            let code = u32::from_str_radix(&digits, radix)
                .map_err(|_| self.err("bad character reference"))?;
            let ch = char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?;
            return Ok(ch.to_string());
        }
        let name = self.name()?;
        self.expect(";")?;
        let expansion = match name.as_str() {
            "lt" => "<",
            "gt" => ">",
            "amp" => "&",
            "apos" => "'",
            "quot" => "\"",
            other => return Err(self.err(format!("unknown entity `&{other};`"))),
        };
        Ok(expansion.to_string())
    }

    fn attribute(&mut self) -> Result<(String, String)> {
        let name = self.name()?;
        self.skip_ws()?;
        self.expect("=")?;
        self.skip_ws()?;
        let quote = match self.peek()? {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.bump()?;
        let mut value = Vec::new();
        loop {
            match self.peek()? {
                Some(q) if q == quote => {
                    self.bump()?;
                    let value = self.utf8(value, "attribute value")?;
                    return Ok((name, value));
                }
                Some(b'<') => return Err(self.err("`<` in attribute value")),
                Some(b'&') => {
                    let expanded = self.reference()?;
                    value.extend_from_slice(expanded.as_bytes());
                }
                Some(_) => self.copy_until(&mut value, &[quote, b'&', b'<'])?,
                None => return Err(self.err("unterminated attribute value")),
            }
        }
    }

    fn xml_decl(&mut self) -> Result<Option<XmlDecl>> {
        if !self.starts_with("<?xml")? {
            return Ok(None);
        }
        // `<?xml-stylesheet` etc. are PIs, not the declaration.
        self.ensure(6)?;
        if !matches!(
            self.buf.get(self.pos + 5),
            Some(b' ' | b'\t' | b'\r' | b'\n')
        ) {
            return Ok(None);
        }
        self.advance(5)?;
        let mut decl = XmlDecl {
            version: "1.0".to_string(),
            encoding: None,
            standalone: None,
        };
        loop {
            self.skip_ws()?;
            if self.starts_with("?>")? {
                self.advance(2)?;
                return Ok(Some(decl));
            }
            let (name, value) = self.attribute()?;
            match name.as_str() {
                "version" => decl.version = value,
                "encoding" => decl.encoding = Some(value),
                "standalone" => decl.standalone = Some(value == "yes"),
                other => {
                    return Err(self.err(format!("unknown XML declaration attribute `{other}`")))
                }
            }
        }
    }

    /// Skips a DOCTYPE declaration, including a bracketed internal subset.
    /// The skipped bytes must still be UTF-8, as everywhere else.
    fn doctype(&mut self) -> Result<()> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 0i32;
        let mut skipped = Vec::new();
        loop {
            match self.bump()? {
                Some(b'>') if depth == 0 => return self.utf8(skipped, "DOCTYPE").map(drop),
                Some(b) => {
                    match b {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    skipped.push(b);
                }
                None => return Err(self.err("unterminated DOCTYPE")),
            }
        }
    }

    fn comment(&mut self) -> Result<String> {
        self.expect("<!--")?;
        let mut out = Vec::new();
        loop {
            if self.starts_with("-->")? {
                let text = self.utf8(out, "comment")?;
                if text.contains("--") {
                    return Err(self.err("`--` inside comment"));
                }
                self.advance(3)?;
                return Ok(text);
            }
            match self.bump()? {
                Some(b) => out.push(b),
                None => return Err(self.err("unterminated comment")),
            }
        }
    }

    fn processing_instruction(&mut self) -> Result<Event> {
        self.expect("<?")?;
        let target = self.name()?;
        if target.eq_ignore_ascii_case("xml") {
            return Err(self.err("XML declaration not allowed here"));
        }
        self.skip_ws()?;
        let mut out = Vec::new();
        loop {
            if self.starts_with("?>")? {
                let data = self.utf8(out, "processing instruction")?;
                self.advance(2)?;
                return Ok(Event::Pi { target, data });
            }
            match self.bump()? {
                Some(b) => out.push(b),
                None => return Err(self.err("unterminated processing instruction")),
            }
        }
    }

    fn cdata(&mut self) -> Result<String> {
        self.expect("<![CDATA[")?;
        let mut out = Vec::new();
        loop {
            if self.starts_with("]]>")? {
                self.advance(3)?;
                return self.utf8(out, "CDATA section");
            }
            match self.bump()? {
                Some(b) => out.push(b),
                None => return Err(self.err("unterminated CDATA section")),
            }
        }
    }

    /// Maximal run of character data and references.
    fn text(&mut self) -> Result<String> {
        let mut out = Vec::new();
        loop {
            match self.peek()? {
                Some(b'<') | None => break,
                Some(b'&') => {
                    let expanded = self.reference()?;
                    out.extend_from_slice(expanded.as_bytes());
                }
                Some(_) => self.copy_until(&mut out, b"<&")?,
            }
        }
        self.utf8(out, "text")
    }

    /// Consumes `<name`, pushes the open element, and switches to attribute
    /// parsing.
    fn open_tag(&mut self) -> Result<Event> {
        self.expect("<")?;
        let name = self.name()?;
        self.stack.push(name.clone());
        self.seen_attrs.clear();
        self.state = State::StartTag;
        Ok(Event::Start(name))
    }

    fn next_event(&mut self) -> Result<Option<Event>> {
        loop {
            match self.state {
                State::AtStart => {
                    self.state = State::Prolog;
                    if let Some(decl) = self.xml_decl()? {
                        return Ok(Some(Event::Decl(decl)));
                    }
                }
                State::Prolog => {
                    self.skip_ws()?;
                    if self.starts_with("<!--")? {
                        return Ok(Some(Event::Comment(self.comment()?)));
                    }
                    if self.starts_with("<!DOCTYPE")? {
                        self.doctype()?;
                        continue;
                    }
                    if self.starts_with("<?")? {
                        return Ok(Some(self.processing_instruction()?));
                    }
                    if self.peek()? == Some(b'<') {
                        return Ok(Some(self.open_tag()?));
                    }
                    return Err(self.err("expected root element"));
                }
                State::StartTag => {
                    self.skip_ws()?;
                    match self.peek()? {
                        Some(b'/') => {
                            self.expect("/>")?;
                            let name = self.stack.pop().expect("StartTag implies open element");
                            self.state = if self.stack.is_empty() {
                                State::Epilog
                            } else {
                                State::Content
                            };
                            return Ok(Some(Event::End(name)));
                        }
                        Some(b'>') => {
                            self.bump()?;
                            self.state = State::Content;
                        }
                        Some(_) => {
                            let (name, value) = self.attribute()?;
                            if self.seen_attrs.contains(&name) {
                                return Err(self.err(format!("duplicate attribute `{name}`")));
                            }
                            self.seen_attrs.push(name.clone());
                            return Ok(Some(Event::Attr { name, value }));
                        }
                        None => return Err(self.err("unterminated start tag")),
                    }
                }
                State::Content => match self.peek()? {
                    Some(b'<') => {
                        if self.starts_with("</")? {
                            self.expect("</")?;
                            let close = self.name()?;
                            let open = self.stack.last().expect("Content implies open element");
                            if close != *open {
                                return Err(self.err(format!(
                                    "mismatched end tag: expected `</{open}>`, found `</{close}>`"
                                )));
                            }
                            self.skip_ws()?;
                            self.expect(">")?;
                            self.stack.pop();
                            if self.stack.is_empty() {
                                self.state = State::Epilog;
                            }
                            return Ok(Some(Event::End(close)));
                        }
                        if self.starts_with("<!--")? {
                            return Ok(Some(Event::Comment(self.comment()?)));
                        }
                        if self.starts_with("<![CDATA[")? {
                            return Ok(Some(Event::CData(self.cdata()?)));
                        }
                        if self.starts_with("<?")? {
                            return Ok(Some(self.processing_instruction()?));
                        }
                        return Ok(Some(self.open_tag()?));
                    }
                    Some(_) => {
                        let text = self.text()?;
                        if !text.is_empty() {
                            return Ok(Some(Event::Text(text)));
                        }
                    }
                    None => return Err(self.err("unexpected end of input inside element")),
                },
                State::Epilog => {
                    self.skip_ws()?;
                    if self.starts_with("<!--")? {
                        return Ok(Some(Event::Comment(self.comment()?)));
                    }
                    if self.starts_with("<?")? {
                        return Ok(Some(self.processing_instruction()?));
                    }
                    if self.peek()?.is_none() {
                        self.state = State::Done;
                        return Ok(None);
                    }
                    return Err(self.err("content after root element"));
                }
                State::Done => return Ok(None),
            }
        }
    }
}

impl<R: Read> Iterator for Events<R> {
    type Item = Result<Event>;

    fn next(&mut self) -> Option<Result<Event>> {
        if self.failed {
            return None;
        }
        match self.next_event() {
            Ok(Some(event)) => Some(Ok(event)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
}

fn is_name_char(b: u8) -> bool {
    is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, write_document, WriteOptions};

    /// A reader that trickles one byte per `read` call, to exercise every
    /// buffer-refill path.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.split_first() {
                Some((&b, rest)) => {
                    buf[0] = b;
                    self.0 = rest;
                    Ok(1)
                }
                None => Ok(0),
            }
        }
    }

    include!("cases.rs");

    #[test]
    fn parse_write_parse_is_a_fixpoint_over_cases() {
        for case in CASES {
            let doc = parse(case).unwrap_or_else(|e| panic!("{case:?}: parse: {e}"));
            let written = write_document(&doc, &WriteOptions::compact());
            let reparsed = parse(&written).unwrap_or_else(|e| panic!("{written:?}: reparse: {e}"));
            assert_eq!(doc, reparsed, "case {case:?}");
        }
    }

    #[test]
    fn one_byte_reads_match_slice_reads() {
        for case in CASES {
            let whole: Vec<_> = Events::new(case.as_bytes()).collect();
            let trickled: Vec<_> = Events::new(OneByte(case.as_bytes())).collect();
            let whole: Vec<_> = whole.into_iter().map(|r| r.unwrap()).collect();
            let trickled: Vec<_> = trickled.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(whole, trickled, "case {case:?}");
        }
    }

    #[test]
    fn event_sequence_is_as_documented() {
        let events: Vec<_> = Events::new(r#"<a x="1"><b>hi</b></a>"#.as_bytes())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(
            events,
            vec![
                Event::Start("a".into()),
                Event::Attr {
                    name: "x".into(),
                    value: "1".into()
                },
                Event::Start("b".into()),
                Event::Text("hi".into()),
                Event::End("b".into()),
                Event::End("a".into()),
            ]
        );
    }

    #[test]
    fn self_closing_yields_end_event() {
        let events: Vec<_> = Events::new("<a><b/></a>".as_bytes())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(
            events,
            vec![
                Event::Start("a".into()),
                Event::Start("b".into()),
                Event::End("b".into()),
                Event::End("a".into()),
            ]
        );
    }

    #[test]
    fn rejects_what_parse_rejects() {
        for bad in [
            "",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x='1' x='2'/>",
            "<a>&unknown;</a>",
            "<a/><b/>",
            "<a attr=novalue/>",
            "<a><!-- -- --></a>",
            "<a><?xml version='1.0'?></a>",
        ] {
            assert!(parse(bad).is_err(), "parse must reject {bad:?}");
            let result: Result<Vec<_>> = Events::new(bad.as_bytes()).collect();
            assert!(result.is_err(), "events must reject {bad:?}");
        }
    }

    #[test]
    fn errors_are_fused_and_positioned() {
        let mut events = Events::new("<a>\n  <b></c>\n</a>".as_bytes());
        let mut error = None;
        for item in &mut events {
            if let Err(e) = item {
                error = Some(e);
            }
        }
        let error = error.expect("mismatched end tag must error");
        assert_eq!(error.line, 2);
        assert!(error.message.contains("mismatched end tag"));
        assert!(events.next().is_none(), "iterator must fuse after error");
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut events = Events::new("<a><b>t</b></a>".as_bytes());
        assert_eq!(events.depth(), 0);
        events.next(); // Start(a)
        assert_eq!(events.depth(), 1);
        events.next(); // Start(b)
        assert_eq!(events.depth(), 2);
        events.next(); // Text
        events.next(); // End(b)
        assert_eq!(events.depth(), 1);
        events.next(); // End(a)
        assert_eq!(events.depth(), 0);
    }
}
