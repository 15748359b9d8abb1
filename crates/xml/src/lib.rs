//! `vx-xml` — XML 1.0 tokenizing, DOM, and serialization.
//!
//! This crate is the document layer of xmlvec (DESIGN.md row 1). It has
//! one path in each direction:
//!
//! * in: [`Events`], a pull tokenizer over any byte source, is the only
//!   XML tokenizer. Store ingest feeds its borrowed events
//!   ([`EventRef`], from [`Events::next_ref`]) straight to the
//!   vectorizer; [`parse`] feeds its owned ones to a [`TreeBuilder`]
//!   when a caller wants a DOM.
//! * out: [`XmlWriter`] streams compact XML into any [`std::io::Write`]
//!   from [`Sink`] calls. [`write_document`] drives it over a DOM;
//!   `vx-core` drives it straight from a vectorized document.
//!
//! It supports elements, attributes, character data, CDATA sections,
//! comments, processing instructions, the five predefined entities,
//! numeric character references, and skips an internal DTD subset.
//!
//! It deliberately does **not** implement namespaces-as-scoping, external
//! entities, or validation: the vectorizer operates on tag names as opaque
//! strings, exactly as the paper's skeleton does.

mod dom;
mod events;
mod writer;

pub use dom::{Document, Element, Node, TreeBuilder, XmlDecl};
pub use events::{Event, EventRef, Events};
pub use parser::parse;
pub use writer::{write_document, WriteOptions, XmlWriter};

use std::fmt;

/// A consumer of one element tree in document order, which a walk over
/// the tree drives: [`XmlWriter`] writes it as XML, [`TreeBuilder`]
/// builds it as a DOM.
pub trait Sink {
    /// Opens an element. Its attributes follow before any content.
    fn start(&mut self, name: &str) -> std::io::Result<()>;
    /// One attribute of the element just opened.
    fn attr(&mut self, name: &str, value: &str) -> std::io::Result<()>;
    /// Character data of the innermost open element (may be empty).
    fn text(&mut self, text: &str) -> std::io::Result<()>;
    /// Closes the innermost open element, `name`.
    fn end(&mut self, name: &str) -> std::io::Result<()>;
}

/// A parse error with 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub line: u32,
    pub column: u32,
    pub message: String,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML error at {}:{}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for XmlError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, XmlError>;

/// [`parse`]: the DOM of a whole document, built from [`Events`].
mod parser {
    use crate::{Document, Event, Events, Node, Result, TreeBuilder};

    /// Parses a complete XML document into a DOM. Acceptance, error
    /// positions and text coalescing are [`Events`]'s: consecutive
    /// character data and references form one [`Node::Text`], CDATA
    /// sections stay separate.
    pub fn parse(input: &str) -> Result<Document> {
        let mut builder = TreeBuilder::default();
        for event in Events::new(input.as_bytes()) {
            match event? {
                Event::Decl(decl) => builder.decl(decl),
                Event::Start(name) => builder.open(name),
                Event::Attr { name, value } => builder.attribute(name, value),
                Event::Text(text) => builder.node(Node::Text(text)),
                Event::CData(text) => builder.node(Node::CData(text)),
                Event::End(_) => builder.close(),
                Event::Comment(text) => builder.node(Node::Comment(text)),
                Event::Pi { target, data } => {
                    builder.node(Node::ProcessingInstruction { target, data })
                }
            }
        }
        Ok(builder
            .finish()
            .expect("`Events` ends without error only after the root element closed"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::writer::{write_document, WriteOptions};

        #[test]
        fn minimal_document() {
            let doc = parse("<a/>").unwrap();
            assert_eq!(doc.root.name, "a");
            assert!(doc.root.children.is_empty());
        }

        #[test]
        fn nested_with_text_and_attributes() {
            let doc = parse(r#"<a x="1" y="two"><b>hi</b><b>bye</b></a>"#).unwrap();
            assert_eq!(doc.root.attr("x"), Some("1"));
            assert_eq!(doc.root.attr("y"), Some("two"));
            let bs: Vec<_> = doc.root.child_elements().collect();
            assert_eq!(bs.len(), 2);
            assert_eq!(bs[0].text(), "hi");
            assert_eq!(bs[1].text(), "bye");
        }

        #[test]
        fn entities_and_char_refs() {
            let doc = parse("<a>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;</a>").unwrap();
            assert_eq!(doc.root.text(), "<>&'\"AB");
        }

        #[test]
        fn cdata_comments_pis() {
            let doc = parse("<a><!-- note --><![CDATA[1 < 2]]><?pi data?></a>").unwrap();
            assert_eq!(doc.root.children.len(), 3);
            assert!(matches!(&doc.root.children[0], Node::Comment(c) if c == " note "));
            assert!(matches!(&doc.root.children[1], Node::CData(c) if c == "1 < 2"));
            assert!(matches!(
                &doc.root.children[2],
                Node::ProcessingInstruction { target, data } if target == "pi" && data == "data"
            ));
        }

        #[test]
        fn declaration_doctype_prolog() {
            let doc = parse(
                "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]>\n<!-- pre -->\n<a/>",
            )
            .unwrap();
            let decl = doc.decl.unwrap();
            assert_eq!(decl.version, "1.0");
            assert_eq!(decl.encoding.as_deref(), Some("UTF-8"));
            assert_eq!(doc.prolog.len(), 1);
        }

        #[test]
        fn mixed_content_preserved() {
            let doc = parse("<p>one <b>two</b> three</p>").unwrap();
            assert_eq!(doc.root.children.len(), 3);
            assert!(matches!(&doc.root.children[0], Node::Text(t) if t == "one "));
            assert!(matches!(&doc.root.children[2], Node::Text(t) if t == " three"));
        }

        #[test]
        fn utf8_names_and_text() {
            let doc = parse("<données>héllo ✓</données>").unwrap();
            assert_eq!(doc.root.name, "données");
            assert_eq!(doc.root.text(), "héllo ✓");
        }

        #[test]
        fn errors_are_positioned() {
            let err = parse("<a>\n  <b></c>\n</a>").unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("mismatched end tag"));
        }

        #[test]
        fn rejects_malformed() {
            for bad in [
                "",
                "<a>",
                "<a></b>",
                "<a><b></a></b>",
                "<a x='1' x='2'/>",
                "<a>&unknown;</a>",
                "<a/><b/>",
                "<a attr=novalue/>",
            ] {
                assert!(parse(bad).is_err(), "expected parse failure for {bad:?}");
            }
        }

        #[test]
        fn parse_write_parse_fixpoint() {
            let src = r#"<a x="&lt;q&gt;"><b>text &amp; more</b><c/><!-- c --><d>tail</d></a>"#;
            let doc = parse(src).unwrap();
            let written = write_document(&doc, &WriteOptions::compact());
            let reparsed = parse(&written).unwrap();
            assert_eq!(doc, reparsed);
        }
    }
}
