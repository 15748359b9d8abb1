//! Streaming pull tokenizer: [`Events`] reads any [`Read`] source and
//! hands out start/attr/text/end events without ever building a DOM.
//!
//! This is the crate's only XML tokenizer. Store ingest and WAL appends
//! feed its events straight to the vectorizer; [`crate::parse`] feeds
//! them to a [`crate::TreeBuilder`]. It covers the XML 1.0 subset the
//! crate supports (elements, attributes, text, CDATA, comments, PIs,
//! predefined entities, numeric character references, skipped internal
//! DTD subset) with the usual well-formedness checks, and coalesces text
//! the way the DOM keeps it: consecutive character data and references
//! merge into one text event, CDATA sections stay separate.
//!
//! [`Events::next_ref`] is the tokenizer. It scans its look-ahead buffer
//! a slice at a time (to the next `<`, `&`, quote or end of name),
//! checks each name or text slice for UTF-8 once, and hands out an
//! [`EventRef`] that borrows from the buffer: text without references is
//! a slice of it, text with references is expanded into one reused
//! scratch string, and open element names live in one string arena. So
//! a pass over a document allocates nothing per event once its buffers
//! have grown. Line and column are not tracked per byte: the consumed
//! bytes are counted in bulk when the buffer is compacted or an error is
//! built. The [`Iterator`] impl is a thin adapter that copies each
//! [`EventRef`] into an owned [`Event`].
//!
//! Memory is bounded by one look-ahead buffer (8 KiB reads, the consumed
//! prefix compacted away between events; a token longer than the buffer
//! grows it) plus the open-element names plus the event being handed
//! out; the input is never materialized as a whole. This is what makes
//! DOM-free, bounded-memory vectorization (`vx-ingest`) possible.

use crate::dom::XmlDecl;
use crate::{Result, XmlError};
use std::cell::Cell;
use std::io::Read;
use std::str;

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

/// One parsing event as [`Events::next_ref`] hands it out: an [`Event`]
/// whose strings borrow from the tokenizer, valid until its next call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventRef<'a> {
    /// See [`Event::Decl`].
    Decl(&'a XmlDecl),
    /// See [`Event::Start`].
    Start(&'a str),
    /// See [`Event::Attr`].
    Attr { name: &'a str, value: &'a str },
    /// See [`Event::Text`].
    Text(&'a str),
    /// See [`Event::CData`].
    CData(&'a str),
    /// See [`Event::End`].
    End(&'a str),
    /// See [`Event::Comment`].
    Comment(&'a str),
    /// See [`Event::Pi`].
    Pi { target: &'a str, data: &'a str },
}

impl EventRef<'_> {
    /// The owned copy of the event.
    pub fn to_owned(self) -> Event {
        match self {
            EventRef::Decl(decl) => Event::Decl(decl.clone()),
            EventRef::Start(name) => Event::Start(name.to_string()),
            EventRef::Attr { name, value } => Event::Attr {
                name: name.to_string(),
                value: value.to_string(),
            },
            EventRef::Text(text) => Event::Text(text.to_string()),
            EventRef::CData(text) => Event::CData(text.to_string()),
            EventRef::End(name) => Event::End(name.to_string()),
            EventRef::Comment(text) => Event::Comment(text.to_string()),
            EventRef::Pi { target, data } => Event::Pi {
                target: target.to_string(),
                data: data.to_string(),
            },
        }
    }
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

/// Where a scanned run of character data lies.
#[derive(Debug, Clone, Copy)]
enum Chars {
    /// In `buf[start..end]`, not yet checked for UTF-8: it had no
    /// references.
    Buf(usize, usize),
    /// Expanded into `scratch`, every raw run checked.
    Scratch,
    /// Expanded, but some raw run was not UTF-8.
    Invalid,
}

/// A pull-based event reader over any byte source.
///
/// [`Events::next_ref`] yields borrowed events; iteration yields owned
/// `Result<Event>`s. After the first error both are fused and return
/// nothing forever. Well-formedness violations are reported with a
/// 1-based line/column position.
pub struct Events<R> {
    src: R,
    /// Look-ahead: `buf[..pos]` is consumed, the rest not yet.
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    /// Line and column of `buf[mark]`. Bytes before `pos` are counted
    /// into them only when the buffer is compacted or an error is built.
    line: u32,
    column: u32,
    mark: usize,
    state: State,
    /// The open elements' names, concatenated, outermost first.
    names: String,
    /// Where each open element's name starts in `names`.
    open: Vec<usize>,
    /// The length `names` is cut back to at the next call, once the
    /// [`EventRef::End`] borrowing the closed element's name is done.
    popped: Option<usize>,
    /// The current start tag's attribute names, concatenated, and where
    /// each ends: the duplicate check compares against them in place.
    attr_names: String,
    attr_ends: Vec<usize>,
    /// Text or an attribute value with its references expanded, or a
    /// processing instruction's target.
    scratch: String,
    decl: Option<XmlDecl>,
    /// Set by every error built: the reader is fused from then on.
    failed: Cell<bool>,
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
            mark: 0,
            state: State::AtStart,
            names: String::new(),
            open: Vec::new(),
            popped: None,
            attr_names: String::new(),
            attr_ends: Vec::new(),
            scratch: String::new(),
            decl: None,
            failed: Cell::new(false),
        }
    }

    /// Number of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// The next event, borrowing from the reader until the next call;
    /// `None` at the end of the document and after an error.
    pub fn next_ref(&mut self) -> Result<Option<EventRef<'_>>> {
        if self.failed.get() {
            return Ok(None);
        }
        if let Some(len) = self.popped.take() {
            self.names.truncate(len);
        }
        self.compact();
        self.next_event()
    }

    /// Drops the consumed prefix of the buffer once it is long enough,
    /// counting its lines and columns first. Only safe where no index
    /// into the buffer is held: between events, and in whitespace.
    fn compact(&mut self) {
        if self.pos >= COMPACT_AT {
            (self.line, self.column) = self.line_column();
            self.buf.drain(..self.pos);
            self.pos = 0;
            self.mark = 0;
        }
    }

    /// Line and column of `buf[pos]`: a newline starts a line, and every
    /// byte that does not continue a UTF-8 sequence is a column.
    fn line_column(&self) -> (u32, u32) {
        let consumed = &self.buf[self.mark..self.pos];
        let (mut line, mut column, mut rest) = (self.line, self.column, consumed);
        let newlines = count(consumed, |b| b == b'\n');
        if newlines > 0 {
            let last = consumed.iter().rposition(|&b| b == b'\n').unwrap_or(0);
            line += newlines as u32;
            column = 1;
            rest = &consumed[last + 1..];
        }
        column += count(rest, |b| b & 0xc0 != 0x80) as u32;
        (line, column)
    }

    /// An error at the current position; fuses the reader.
    fn err(&self, message: impl Into<String>) -> XmlError {
        self.failed.set(true);
        let (line, column) = self.line_column();
        XmlError {
            line,
            column,
            message: message.into(),
        }
    }

    // ---- buffered cursor -------------------------------------------------

    /// Appends one read to the buffer; false at the end of input.
    fn fill(&mut self) -> Result<bool> {
        if self.eof {
            return Ok(false);
        }
        let len = self.buf.len();
        self.buf.resize(len + CHUNK, 0);
        loop {
            match self.src.read(&mut self.buf[len..]) {
                Ok(n) => {
                    self.buf.truncate(len + n);
                    self.eof = n == 0;
                    return Ok(n > 0);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.buf.truncate(len);
                    return Err(self.err(format!("I/O error: {e}")));
                }
            }
        }
    }

    /// The byte at `i`, reading as needed; `None` past the end of input.
    fn byte(&mut self, i: usize) -> Result<Option<u8>> {
        while i >= self.buf.len() {
            if !self.fill()? {
                return Ok(None);
            }
        }
        Ok(Some(self.buf[i]))
    }

    fn peek(&mut self) -> Result<Option<u8>> {
        self.byte(self.pos)
    }

    fn starts_with(&mut self, s: &[u8]) -> Result<bool> {
        while self.buf.len() - self.pos < s.len() && self.fill()? {}
        Ok(self.buf[self.pos..].starts_with(s))
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s.as_bytes())? {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// The index of the first byte at or after `from` that `stop`
    /// matches, reading as needed; the end of input if none does.
    fn find(&mut self, from: usize, stop: impl Fn(u8) -> bool) -> Result<usize> {
        let mut i = from;
        loop {
            if let Some(k) = self.buf[i..].iter().position(|&b| stop(b)) {
                return Ok(i + k);
            }
            i = self.buf.len();
            if !self.fill()? {
                return Ok(i);
            }
        }
    }

    /// The index of the first `pat` at or after `pos`; `None` if the
    /// input ends first.
    fn find_seq(&mut self, pat: &[u8]) -> Result<Option<usize>> {
        let mut i = self.pos;
        loop {
            let at = self.find(i, |b| b == pat[0])?;
            while self.buf.len() < at + pat.len() {
                if !self.fill()? {
                    return Ok(None);
                }
            }
            if self.buf[at..].starts_with(pat) {
                return Ok(Some(at));
            }
            i = at + 1;
        }
    }

    /// Skips whitespace, compacting the buffer as it goes: a run of
    /// whitespace is no token, so however long it is, it is not kept.
    fn skip_ws(&mut self) -> Result<()> {
        let is_ws = |b: &u8| matches!(b, b' ' | b'\t' | b'\r' | b'\n');
        loop {
            match self.buf[self.pos..].iter().position(|b| !is_ws(b)) {
                Some(k) => {
                    self.pos += k;
                    return Ok(());
                }
                None => {
                    self.pos = self.buf.len();
                    self.compact();
                    if !self.fill()? {
                        return Ok(());
                    }
                }
            }
        }
    }

    // ---- grammar -----------------------------------------------------------

    /// Scans a name at `pos`, leaving `pos` after it; the caller checks
    /// `buf[start..end]` for UTF-8.
    fn name(&mut self) -> Result<(usize, usize)> {
        let start = self.pos;
        match self.peek()? {
            Some(b) if is_name_start(b) => {}
            _ => return Err(self.err("expected name")),
        }
        self.pos = self.find(start + 1, |b| !is_name_char(b))?;
        Ok((start, self.pos))
    }

    /// Parses `&…;` at `pos` and appends its expansion to `scratch`.
    fn reference(&mut self) -> Result<()> {
        self.pos += 1; // `&`
        if self.peek()? == Some(b'#') {
            self.pos += 1;
            let radix = if self.peek()? == Some(b'x') {
                self.pos += 1;
                16
            } else {
                10
            };
            let start = self.pos;
            self.pos = self.find(start, |b| !(b as char).is_digit(radix))?;
            let end = self.pos;
            self.expect(";")?;
            let digits = &self.buf[start..end];
            let code = digits
                .iter()
                .try_fold(0u32, |code, &b| {
                    code.checked_mul(radix)?
                        .checked_add((b as char).to_digit(radix)?)
                })
                .filter(|_| !digits.is_empty())
                .ok_or_else(|| self.err("bad character reference"))?;
            let ch = char::from_u32(code).ok_or_else(|| self.err("invalid code point"))?;
            self.scratch.push(ch);
            return Ok(());
        }
        let (start, end) = self.name()?;
        let Ok(name) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("name is not valid UTF-8"));
        };
        let expansion = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ => {
                let name = name.to_string();
                self.expect(";")?;
                return Err(self.err(format!("unknown entity `&{name};`")));
            }
        };
        self.expect(";")?;
        self.scratch.push(expansion);
        Ok(())
    }

    /// Scans character data from `pos` up to the first byte `is_stop`
    /// matches (or the end of input), leaving `pos` there. Data without
    /// references stays in the buffer; with them, each raw run is
    /// checked and copied into `scratch` between the expansions.
    fn chars(&mut self, is_stop: impl Fn(u8) -> bool) -> Result<Chars> {
        let start = self.pos;
        let mut expanded = false;
        let mut valid = true;
        loop {
            let run = self.pos;
            self.pos = self.find(run, |b| b == b'&' || is_stop(b))?;
            if expanded {
                match str::from_utf8(&self.buf[run..self.pos]) {
                    Ok(raw) => self.scratch.push_str(raw),
                    Err(_) => valid = false,
                }
            }
            if self.buf.get(self.pos) != Some(&b'&') {
                return Ok(match (expanded, valid) {
                    (false, _) => Chars::Buf(start, self.pos),
                    (true, true) => Chars::Scratch,
                    (true, false) => Chars::Invalid,
                });
            }
            if !expanded {
                expanded = true;
                self.scratch.clear();
                match str::from_utf8(&self.buf[start..self.pos]) {
                    Ok(raw) => self.scratch.push_str(raw),
                    Err(_) => valid = false,
                }
            }
            self.reference()?;
        }
    }

    /// The scanned character data as a string, or an error naming `what`
    /// at the current position if it is not UTF-8.
    fn chars_str(&self, chars: Chars, what: &str) -> Result<&str> {
        match chars {
            Chars::Buf(start, end) => str::from_utf8(&self.buf[start..end])
                .map_err(|_| self.err(format!("{what} is not valid UTF-8"))),
            Chars::Scratch => Ok(&self.scratch),
            Chars::Invalid => Err(self.err(format!("{what} is not valid UTF-8"))),
        }
    }

    /// Parses `name = "value"` at `pos`: the name is appended to
    /// `attr_names`, and the value is scanned, `pos` left after its
    /// closing quote.
    fn attribute(&mut self) -> Result<Chars> {
        let (start, end) = self.name()?;
        let Ok(name) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("name is not valid UTF-8"));
        };
        self.attr_names.push_str(name);
        self.attr_ends.push(self.attr_names.len());
        self.skip_ws()?;
        self.expect("=")?;
        self.skip_ws()?;
        let quote = match self.peek()? {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        self.pos += 1;
        let value = self.chars(|b| b == quote || b == b'<')?;
        match self.peek()? {
            Some(b'<') => Err(self.err("`<` in attribute value")),
            Some(_) => {
                self.pos += 1;
                Ok(value)
            }
            None => Err(self.err("unterminated attribute value")),
        }
    }

    /// The name of the attribute `attribute` scanned last.
    fn last_attr_name(&self) -> &str {
        let end = self.attr_names.len();
        let start = match self.attr_ends.len() {
            0 | 1 => 0,
            n => self.attr_ends[n - 2],
        };
        &self.attr_names[start..end]
    }

    /// Parses the XML declaration into `decl`, if the input starts with
    /// one.
    fn xml_decl(&mut self) -> Result<bool> {
        // `<?xml-stylesheet` etc. are PIs, not the declaration.
        if !self.starts_with(b"<?xml")?
            || !matches!(self.byte(self.pos + 5)?, Some(b' ' | b'\t' | b'\r' | b'\n'))
        {
            return Ok(false);
        }
        self.pos += 5;
        let mut decl = XmlDecl {
            version: "1.0".to_string(),
            encoding: None,
            standalone: None,
        };
        loop {
            self.skip_ws()?;
            if self.starts_with(b"?>")? {
                self.pos += 2;
                self.decl = Some(decl);
                return Ok(true);
            }
            let value = self.attribute()?;
            let value = self.chars_str(value, "attribute value")?.to_string();
            match self.last_attr_name() {
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
        self.pos += b"<!DOCTYPE".len();
        let start = self.pos;
        let mut depth = 0i32;
        let mut i = start;
        loop {
            match self.byte(i)? {
                Some(b'>') if depth == 0 => break,
                Some(b'[') => depth += 1,
                Some(b']') => depth -= 1,
                Some(_) => {}
                None => {
                    self.pos = i;
                    return Err(self.err("unterminated DOCTYPE"));
                }
            }
            i += 1;
        }
        self.pos = i + 1;
        match str::from_utf8(&self.buf[start..i]) {
            Ok(_) => Ok(()),
            Err(_) => Err(self.err("DOCTYPE is not valid UTF-8")),
        }
    }

    fn comment(&mut self) -> Result<Option<EventRef<'_>>> {
        self.pos += b"<!--".len();
        let start = self.pos;
        let Some(end) = self.find_seq(b"-->")? else {
            self.pos = self.buf.len();
            return Err(self.err("unterminated comment"));
        };
        self.pos = end;
        let Ok(text) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("comment is not valid UTF-8"));
        };
        if text.contains("--") {
            return Err(self.err("`--` inside comment"));
        }
        self.pos = end + 3;
        Ok(Some(EventRef::Comment(text)))
    }

    fn processing_instruction(&mut self) -> Result<Option<EventRef<'_>>> {
        self.pos += b"<?".len();
        let (start, end) = self.name()?;
        let Ok(target) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("name is not valid UTF-8"));
        };
        if target.eq_ignore_ascii_case("xml") {
            return Err(self.err("XML declaration not allowed here"));
        }
        self.scratch.clear();
        self.scratch.push_str(target);
        self.skip_ws()?;
        let start = self.pos;
        let Some(end) = self.find_seq(b"?>")? else {
            self.pos = self.buf.len();
            return Err(self.err("unterminated processing instruction"));
        };
        self.pos = end;
        let Ok(data) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("processing instruction is not valid UTF-8"));
        };
        self.pos = end + 2;
        Ok(Some(EventRef::Pi {
            target: &self.scratch,
            data,
        }))
    }

    fn cdata(&mut self) -> Result<Option<EventRef<'_>>> {
        self.pos += b"<![CDATA[".len();
        let start = self.pos;
        let Some(end) = self.find_seq(b"]]>")? else {
            self.pos = self.buf.len();
            return Err(self.err("unterminated CDATA section"));
        };
        self.pos = end + 3;
        match str::from_utf8(&self.buf[start..end]) {
            Ok(text) => Ok(Some(EventRef::CData(text))),
            Err(_) => Err(self.err("CDATA section is not valid UTF-8")),
        }
    }

    /// Consumes `<name`, pushes the open element, and switches to attribute
    /// parsing.
    fn open_tag(&mut self) -> Result<Option<EventRef<'_>>> {
        self.expect("<")?;
        let (start, end) = self.name()?;
        let Ok(name) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("name is not valid UTF-8"));
        };
        let at = self.names.len();
        self.names.push_str(name);
        self.open.push(at);
        self.attr_names.clear();
        self.attr_ends.clear();
        self.state = State::StartTag;
        Ok(Some(EventRef::Start(&self.names[at..])))
    }

    /// Consumes `</name>` closing the innermost open element.
    fn close_tag(&mut self) -> Result<Option<EventRef<'_>>> {
        self.pos += b"</".len();
        let (start, end) = self.name()?;
        let Ok(close) = str::from_utf8(&self.buf[start..end]) else {
            return Err(self.err("name is not valid UTF-8"));
        };
        let at = *self.open.last().expect("Content implies open element");
        let open = &self.names[at..];
        if close != open {
            return Err(self.err(format!(
                "mismatched end tag: expected `</{open}>`, found `</{close}>`"
            )));
        }
        self.skip_ws()?;
        self.expect(">")?;
        Ok(Some(self.pop()))
    }

    /// Closes the innermost open element.
    fn pop(&mut self) -> EventRef<'_> {
        let at = self.open.pop().expect("an element is open");
        self.popped = Some(at);
        self.state = if self.open.is_empty() {
            State::Epilog
        } else {
            State::Content
        };
        EventRef::End(&self.names[at..])
    }

    fn next_event(&mut self) -> Result<Option<EventRef<'_>>> {
        loop {
            match self.state {
                State::AtStart => {
                    self.state = State::Prolog;
                    if self.xml_decl()? {
                        return Ok(self.decl.as_ref().map(EventRef::Decl));
                    }
                }
                State::Prolog => {
                    self.skip_ws()?;
                    if self.starts_with(b"<!--")? {
                        return self.comment();
                    }
                    if self.starts_with(b"<!DOCTYPE")? {
                        self.doctype()?;
                        continue;
                    }
                    if self.starts_with(b"<?")? {
                        return self.processing_instruction();
                    }
                    if self.peek()? == Some(b'<') {
                        return self.open_tag();
                    }
                    return Err(self.err("expected root element"));
                }
                State::StartTag => {
                    self.skip_ws()?;
                    match self.peek()? {
                        Some(b'/') => {
                            self.expect("/>")?;
                            return Ok(Some(self.pop()));
                        }
                        Some(b'>') => {
                            self.pos += 1;
                            self.state = State::Content;
                        }
                        Some(_) => {
                            let value = self.attribute()?;
                            let value = self.chars_str(value, "attribute value")?;
                            let name = self.last_attr_name();
                            let earlier = &self.attr_names[..self.attr_names.len() - name.len()];
                            let mut start = 0;
                            for &end in &self.attr_ends[..self.attr_ends.len() - 1] {
                                if &earlier[start..end] == name {
                                    return Err(self.err(format!("duplicate attribute `{name}`")));
                                }
                                start = end;
                            }
                            return Ok(Some(EventRef::Attr { name, value }));
                        }
                        None => return Err(self.err("unterminated start tag")),
                    }
                }
                State::Content => match self.peek()? {
                    Some(b'<') => match self.byte(self.pos + 1)? {
                        Some(b'/') => return self.close_tag(),
                        Some(b'!') if self.starts_with(b"<!--")? => return self.comment(),
                        Some(b'!') if self.starts_with(b"<![CDATA[")? => return self.cdata(),
                        Some(b'?') => return self.processing_instruction(),
                        _ => return self.open_tag(),
                    },
                    Some(_) => {
                        // Never empty: the data starts with a byte that
                        // is not `<`, or with a reference.
                        let text = self.chars(|b| b == b'<')?;
                        return Ok(Some(EventRef::Text(self.chars_str(text, "text")?)));
                    }
                    None => return Err(self.err("unexpected end of input inside element")),
                },
                State::Epilog => {
                    self.skip_ws()?;
                    if self.starts_with(b"<!--")? {
                        return self.comment();
                    }
                    if self.starts_with(b"<?")? {
                        return self.processing_instruction();
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

    /// The owned copy of [`Events::next_ref`]'s event.
    fn next(&mut self) -> Option<Result<Event>> {
        self.next_ref()
            .map(|e| e.map(EventRef::to_owned))
            .transpose()
    }
}

/// The number of bytes `pred` accepts, summed in byte-wide lanes over
/// short chunks so that the compiler can vectorize it: the position of
/// every byte of a document is counted this way once.
fn count(bytes: &[u8], pred: impl Fn(u8) -> bool) -> usize {
    bytes
        .chunks(255)
        .map(|chunk| chunk.iter().fold(0u8, |n, &b| n + u8::from(pred(b))) as usize)
        .sum()
}

/// `[byte]` → may the byte start a name, may it continue one.
const NAME_START: [bool; 256] = name_table(false);
const NAME_CHAR: [bool; 256] = name_table(true);

const fn name_table(continuing: bool) -> [bool; 256] {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphabetic()
            || c == b'_'
            || c == b':'
            || c >= 0x80
            || (continuing && (c.is_ascii_digit() || c == b'-' || c == b'.'));
        b += 1;
    }
    table
}

fn is_name_start(b: u8) -> bool {
    NAME_START[b as usize]
}

fn is_name_char(b: u8) -> bool {
    NAME_CHAR[b as usize]
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
    fn borrowed_events_are_the_owned_ones() {
        for case in CASES {
            let owned: Vec<_> = Events::new(case.as_bytes()).map(|r| r.unwrap()).collect();
            let mut events = Events::new(OneByte(case.as_bytes()));
            let mut borrowed = Vec::new();
            while let Some(event) = events.next_ref().unwrap() {
                borrowed.push(event.to_owned());
            }
            assert_eq!(owned, borrowed, "case {case:?}");
        }
    }

    /// Line and column are counted per consumed slice, across buffer
    /// compactions, as a newline and every UTF-8 scalar start.
    #[test]
    fn error_positions_survive_compaction() {
        let mut doc = String::from("<r>");
        for i in 0..5_000 {
            doc.push_str(&format!("<v a=\"é{i}\">✓ &amp; {i}</v>\n"));
        }
        doc.push_str("  <x>é</y>");
        let error = Events::new(doc.as_bytes())
            .find_map(|r| r.err())
            .expect("mismatched end tag must error");
        let at = doc.len() - 1; // just after `</y`
        let line = 1 + doc[..at].matches('\n').count() as u32;
        let column = 1 + doc[..at].rsplit('\n').next().unwrap().chars().count() as u32;
        assert_eq!((error.line, error.column), (line, column), "{error}");
        assert_eq!((line, column), (5_001, 10));
    }

    /// Whitespace between tokens is dropped as it is read, so a long run
    /// of it does not grow the look-ahead buffer.
    #[test]
    fn long_whitespace_keeps_the_buffer_bounded() {
        let spaces = || std::io::repeat(b' ').take(1 << 20);
        let src = spaces()
            .chain(&b"<a "[..])
            .chain(spaces())
            .chain(&b"x='1'"[..])
            .chain(spaces())
            .chain(&b"><b>t</b"[..])
            .chain(spaces())
            .chain(&b"></a>"[..])
            .chain(spaces())
            .chain(&b"<!---->"[..])
            .chain(spaces());
        let mut events = Events::new(src);
        let mut n = 0;
        while events.next_ref().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 7, "Start, Attr, Start, Text, End, End, Comment");
        assert!(
            events.buf.capacity() <= 4 * COMPACT_AT,
            "buffer grew to {} bytes",
            events.buf.capacity()
        );
        let mut bad = Events::new(spaces().chain(&b"\n  <a></b>"[..]));
        let error = std::iter::from_fn(|| bad.next()).find_map(|r| r.err());
        let error = error.expect("mismatched end tag must error");
        assert_eq!((error.line, error.column), (2, 9));
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
