//! `vx-xquery` — the XQ query-language front end (DESIGN.md row 5).
//!
//! XQ is the paper's practical XQuery fragment:
//!
//! ```text
//! query    := "for" binding ("," binding)*
//!             ("where" cond ("and" cond)*)?
//!             "return" ret
//! binding  := $var "in" path
//! path     := ( doc("name") | $var ) step*
//! step     := "/" name | "//" name | "/" "*" | step "[" qual "]"
//! qual     := relpath | relpath "=" literal
//! cond     := path "=" literal | path "=" path | "exists" "(" path ")"
//! ret      := path | elem
//! elem     := "<" name ">" content* "</" name ">"
//! content  := "{" path "}" | "{" query "}" | elem
//! ```
//!
//! `//` (descendant-or-self) and `*` (wildcard) form the XQ[*,//]
//! extension, `path = path` conditions are equality (join) edges, and
//! element constructors with nested FLWRs form the result-skeleton
//! extension; the parser accepts all of them and the engine decides what
//! it supports. Qualifiers are syntactic sugar: [`desugar`] rewrites
//! `$x in P[q]/R` into fresh-variable bindings plus `where` conjuncts,
//! after which no qualifier remains (the form the query-graph compiler
//! consumes). Qualifiers, constructors and the queries inside
//! constructors nest at most [`MAX_NESTING`] levels deep; past that the
//! parser returns an error at the offending token.

pub mod ast;
mod desugar;
mod lexer;
mod parser;

pub use ast::{
    Axis, Binding, Condition, Content, ElemConstructor, NameTest, Operand, PathExpr, Qualifier,
    Query, ReturnExpr, Root, Span, Step,
};
pub use desugar::{desugar, is_fully_desugared};
pub use parser::{parse_query, MAX_NESTING};

use std::fmt;

/// A parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for XqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XQ parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for XqError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, XqError>;
