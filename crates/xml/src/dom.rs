//! Owned DOM types, and [`TreeBuilder`], the one way a DOM is built.

use crate::Sink;

/// The XML declaration (`<?xml version="1.0" ...?>`), if present.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct XmlDecl {
    pub version: String,
    pub encoding: Option<String>,
    pub standalone: Option<bool>,
}

/// A parsed document: optional declaration, prolog/epilog misc nodes, and
/// exactly one root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    pub decl: Option<XmlDecl>,
    /// Comments and processing instructions appearing before the root.
    pub prolog: Vec<Node>,
    pub root: Element,
    /// Comments and processing instructions appearing after the root.
    pub epilog: Vec<Node>,
}

impl Document {
    /// Wraps an element as a document with no prolog or epilog.
    pub fn from_root(root: Element) -> Self {
        Document {
            decl: None,
            prolog: Vec::new(),
            root,
            epilog: Vec::new(),
        }
    }
}

/// An element: tag name, attributes in source order, children in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<Node>,
}

impl Element {
    /// A childless, attribute-less element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: appends a child node (or element).
    pub fn with_child(mut self, child: impl Into<Node>) -> Self {
        self.children.push(child.into());
        self
    }

    /// Wraps the element as a [`Node`].
    pub fn into_node(self) -> Node {
        Node::Element(self)
    }

    /// Builder-style: appends a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Builder-style: appends an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// First attribute value with the given name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterator over child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|c| match c {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// First child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// Concatenation of all directly contained text and CDATA.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            match c {
                Node::Text(t) | Node::CData(t) => out.push_str(t),
                _ => {}
            }
        }
        out
    }

    /// Total node count (this element, its attributes' values excluded,
    /// plus all descendant elements and text-class nodes).
    pub fn node_count(&self) -> u64 {
        let mut n = 1;
        for c in &self.children {
            n += match c {
                Node::Element(e) => e.node_count(),
                _ => 1,
            };
        }
        n
    }
}

/// A DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    Element(Element),
    /// Character data (entity references already expanded).
    Text(String),
    /// A CDATA section's literal contents.
    CData(String),
    Comment(String),
    ProcessingInstruction {
        target: String,
        data: String,
    },
}

impl Node {
    pub fn element(name: impl Into<String>) -> Node {
        Node::Element(Element::new(name))
    }

    pub fn text(text: impl Into<String>) -> Node {
        Node::Text(text.into())
    }
}

impl From<Element> for Node {
    fn from(e: Element) -> Node {
        Node::Element(e)
    }
}

/// Builds a [`Document`] in document order: the [`Sink`] calls, plus the
/// nodes a DOM keeps beyond them (CDATA, comments, processing
/// instructions, the declaration). [`crate::parse`] drives it from
/// [`crate::Events`]; `vx-core` drives it from a vectorized document.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    decl: Option<XmlDecl>,
    prolog: Vec<Node>,
    root: Option<Element>,
    epilog: Vec<Node>,
    /// The open elements, innermost last.
    stack: Vec<Element>,
}

impl TreeBuilder {
    pub(crate) fn decl(&mut self, decl: XmlDecl) {
        self.decl = Some(decl);
    }

    pub(crate) fn open(&mut self, name: String) {
        self.stack.push(Element::new(name));
    }

    pub(crate) fn attribute(&mut self, name: String, value: String) {
        if let Some(element) = self.stack.last_mut() {
            element.attributes.push((name, value));
        }
    }

    /// Appends `node` to the innermost open element; outside the root
    /// element, to the prolog or the epilog.
    pub(crate) fn node(&mut self, node: Node) {
        match (self.stack.last_mut(), &self.root) {
            (Some(element), _) => element.children.push(node),
            (None, None) => self.prolog.push(node),
            (None, Some(_)) => self.epilog.push(node),
        }
    }

    pub(crate) fn close(&mut self) {
        if let Some(done) = self.stack.pop() {
            match self.stack.last_mut() {
                Some(parent) => parent.children.push(Node::Element(done)),
                None => self.root = Some(done),
            }
        }
    }

    /// The document, once its root element has closed and nothing is
    /// left open.
    pub fn finish(self) -> Option<Document> {
        if !self.stack.is_empty() {
            return None;
        }
        Some(Document {
            decl: self.decl,
            prolog: self.prolog,
            root: self.root?,
            epilog: self.epilog,
        })
    }
}

impl Sink for TreeBuilder {
    fn start(&mut self, name: &str) -> std::io::Result<()> {
        self.open(name.to_string());
        Ok(())
    }

    fn attr(&mut self, name: &str, value: &str) -> std::io::Result<()> {
        self.attribute(name.to_string(), value.to_string());
        Ok(())
    }

    fn text(&mut self, text: &str) -> std::io::Result<()> {
        self.node(Node::Text(text.to_string()));
        Ok(())
    }

    fn end(&mut self, _name: &str) -> std::io::Result<()> {
        self.close();
        Ok(())
    }
}
