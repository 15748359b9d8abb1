//! Serialization: [`XmlWriter`] streams compact XML into any
//! [`io::Write`]; [`write_document`] drives it over a DOM.

use crate::dom::{Document, Element, Node};
use crate::Sink;
use std::io::{self, Write};

/// Serialization options. Output is always compact — no whitespace is
/// added, which the vectorizer's lossless round trip requires — so there
/// is nothing left to choose.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct WriteOptions {}

impl WriteOptions {
    /// No added whitespace.
    pub fn compact() -> Self {
        WriteOptions {}
    }
}

/// Serializes a document to a string.
pub fn write_document(doc: &Document, _options: &WriteOptions) -> String {
    let mut writer = XmlWriter::new(Vec::new());
    writer
        .document(doc)
        .expect("writing into a Vec cannot fail");
    String::from_utf8(writer.into_inner()).expect("the writer emits only the UTF-8 it is given")
}

/// A streaming compact XML writer: each [`Sink`] call goes straight to
/// `out`, so memory stays at one flag whatever the document's size. A
/// start tag stays open until the element's first content or its end:
/// an element with no content is written `<a/>`, one whose only content
/// is an empty text `<a></a>`. Wrap `out` in an [`io::BufWriter`] when
/// it is a file or a pipe.
pub struct XmlWriter<W> {
    out: W,
    /// A start tag is written up to its attributes; `>` or `/>` is due.
    open: bool,
}

impl<W: Write> XmlWriter<W> {
    pub fn new(out: W) -> Self {
        XmlWriter { out, open: false }
    }

    /// The underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }

    /// Writes a whole DOM document: declaration, prolog, root, epilog.
    fn document(&mut self, doc: &Document) -> io::Result<()> {
        if let Some(decl) = &doc.decl {
            write!(self.out, "<?xml version=\"{}\"", decl.version)?;
            if let Some(encoding) = &decl.encoding {
                write!(self.out, " encoding=\"{encoding}\"")?;
            }
            if let Some(standalone) = decl.standalone {
                let yes_no = if standalone { "yes" } else { "no" };
                write!(self.out, " standalone=\"{yes_no}\"")?;
            }
            self.out.write_all(b"?>")?;
        }
        for node in &doc.prolog {
            self.node(node)?;
        }
        self.element(&doc.root)?;
        for node in &doc.epilog {
            self.node(node)?;
        }
        Ok(())
    }

    fn element(&mut self, element: &Element) -> io::Result<()> {
        self.start(&element.name)?;
        for (name, value) in &element.attributes {
            self.attr(name, value)?;
        }
        for child in &element.children {
            self.node(child)?;
        }
        self.end(&element.name)
    }

    fn node(&mut self, node: &Node) -> io::Result<()> {
        match node {
            Node::Element(e) => self.element(e),
            Node::Text(t) => self.text(t),
            Node::CData(t) => self.markup(&["<![CDATA[", t, "]]>"]),
            Node::Comment(t) => self.markup(&["<!--", t, "-->"]),
            Node::ProcessingInstruction { target, data } if data.is_empty() => {
                self.markup(&["<?", target, "?>"])
            }
            Node::ProcessingInstruction { target, data } => {
                self.markup(&["<?", target, " ", data, "?>"])
            }
        }
    }

    /// Unescaped content: the parts of a CDATA section, comment or
    /// processing instruction.
    fn markup(&mut self, parts: &[&str]) -> io::Result<()> {
        self.content()?;
        for part in parts {
            self.out.write_all(part.as_bytes())?;
        }
        Ok(())
    }

    /// Ends a pending start tag with `>`: the element has content.
    fn content(&mut self) -> io::Result<()> {
        if std::mem::take(&mut self.open) {
            self.out.write_all(b">")?;
        }
        Ok(())
    }
}

impl<W: Write> Sink for XmlWriter<W> {
    fn start(&mut self, name: &str) -> io::Result<()> {
        self.content()?;
        self.out.write_all(b"<")?;
        self.out.write_all(name.as_bytes())?;
        self.open = true;
        Ok(())
    }

    fn attr(&mut self, name: &str, value: &str) -> io::Result<()> {
        debug_assert!(self.open, "attribute `{name}` after content");
        self.out.write_all(b" ")?;
        self.out.write_all(name.as_bytes())?;
        self.out.write_all(b"=\"")?;
        escape(&mut self.out, value, true)?;
        self.out.write_all(b"\"")
    }

    fn text(&mut self, text: &str) -> io::Result<()> {
        self.content()?;
        escape(&mut self.out, text, false)
    }

    fn end(&mut self, name: &str) -> io::Result<()> {
        if std::mem::take(&mut self.open) {
            return self.out.write_all(b"/>");
        }
        self.out.write_all(b"</")?;
        self.out.write_all(name.as_bytes())?;
        self.out.write_all(b">")
    }
}

/// Writes text content escaping `<`, `>` and `&`, or an attribute value
/// escaping `"` too. Unescaped runs go out in one write each.
fn escape(out: &mut impl Write, text: &str, attribute: bool) -> io::Result<()> {
    let bytes = text.as_bytes();
    let mut from = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let entity: &[u8] = match b {
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'&' => b"&amp;",
            b'"' if attribute => b"&quot;",
            _ => continue,
        };
        out.write_all(&bytes[from..i])?;
        out.write_all(entity)?;
        from = i + 1;
    }
    out.write_all(&bytes[from..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Element;

    #[test]
    fn compact_output() {
        let e = Element::new("a")
            .with_attr("k", "v<w")
            .with_child(Node::Element(Element::new("b").with_text("x & y")));
        let s = write_document(&Document::from_root(e), &WriteOptions::compact());
        assert_eq!(s, r#"<a k="v&lt;w"><b>x &amp; y</b></a>"#);
    }
}
