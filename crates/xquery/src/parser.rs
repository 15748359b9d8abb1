//! Recursive-descent parser for XQ.

use crate::ast::*;
use crate::lexer::{tokenize, Spanned, Token};
use crate::{Result, XqError};

/// How deep qualifiers (`a[b[c]]`), element constructors and the
/// queries inside constructors may nest.
/// The parser and the passes after it recurse once per level, so past
/// this a query is refused rather than allowed to exhaust the stack.
pub const MAX_NESTING: usize = 64;

/// Parses an XQ query.
pub fn parse_query(input: &str) -> Result<Query> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let query = p.query()?;
    p.expect(&Token::Eof)?;
    Ok(query)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Qualifiers, constructors and nested queries open around the
    /// current token.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].token.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> XqError {
        XqError {
            offset: self.offset(),
            message: message.into(),
        }
    }

    fn expect(&mut self, token: &Token) -> Result<()> {
        if self.peek() == token {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {token:?}, found {:?}", self.peek())))
        }
    }

    /// Runs `parse` one nesting level deeper, past [`MAX_NESTING`] an error.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn query(&mut self) -> Result<Query> {
        self.expect(&Token::For)?;
        let mut bindings = vec![self.binding()?];
        while self.peek() == &Token::Comma {
            self.bump();
            bindings.push(self.binding()?);
        }
        let mut conditions = Vec::new();
        if self.peek() == &Token::Where {
            self.bump();
            conditions.push(self.condition()?);
            while self.peek() == &Token::And {
                self.bump();
                conditions.push(self.condition()?);
            }
        }
        self.expect(&Token::Return)?;
        let ret = self.return_expr()?;
        Ok(Query {
            bindings,
            conditions,
            ret,
        })
    }

    /// `return` body: a path or an element constructor.
    fn return_expr(&mut self) -> Result<ReturnExpr> {
        if self.peek() == &Token::LAngle {
            Ok(ReturnExpr::Element(self.constructor()?))
        } else {
            Ok(ReturnExpr::Path(self.path()?))
        }
    }

    /// `<tag> content* </tag>`; content is `{path}`, `{for … return …}`,
    /// or a nested constructor. Literal text content is out of the
    /// grammar (XQ constructs documents from queried values only).
    fn constructor(&mut self) -> Result<ElemConstructor> {
        let start = self.offset();
        self.expect(&Token::LAngle)?;
        let tag = match self.bump() {
            Token::Name(n) => n,
            other => return Err(self.err(format!("expected constructor tag, found {other:?}"))),
        };
        self.expect(&Token::RAngle)?;
        let mut content = Vec::new();
        loop {
            match self.peek() {
                Token::LAngle => content.push(Content::Element(self.nested(Self::constructor)?)),
                Token::LBrace => {
                    self.bump();
                    if self.peek() == &Token::For {
                        content.push(Content::Query(Box::new(self.nested(Self::query)?)));
                    } else {
                        content.push(Content::Path(self.path()?));
                    }
                    self.expect(&Token::RBrace)?;
                }
                Token::LAngleSlash => break,
                other => {
                    return Err(self.err(format!(
                        "expected `{{`, nested constructor, or `</{tag}>`, found {other:?}"
                    )))
                }
            }
        }
        self.expect(&Token::LAngleSlash)?;
        match self.bump() {
            Token::Name(n) if n == tag => {}
            other => {
                return Err(self.err(format!(
                    "constructor `<{tag}>` closed by {other:?}, expected `</{tag}>`"
                )))
            }
        }
        let end = self.offset();
        self.expect(&Token::RAngle)?;
        Ok(ElemConstructor {
            tag,
            content,
            span: Span::new(start, end),
        })
    }

    fn binding(&mut self) -> Result<Binding> {
        let var = match self.bump() {
            Token::Var(v) => v,
            other => return Err(self.err(format!("expected $variable, found {other:?}"))),
        };
        self.expect(&Token::In)?;
        let path = self.path()?;
        Ok(Binding { var, path })
    }

    fn path(&mut self) -> Result<PathExpr> {
        let start = self.offset();
        let root = match self.bump() {
            Token::Doc => {
                self.expect(&Token::LParen)?;
                let name = match self.bump() {
                    Token::Literal(s) => s,
                    other => {
                        return Err(self.err(format!("expected document name, found {other:?}")))
                    }
                };
                self.expect(&Token::RParen)?;
                Root::Doc(name)
            }
            Token::Var(v) => Root::Var(v),
            other => return Err(self.err(format!("expected doc(\"…\") or $var, found {other:?}"))),
        };
        let steps = self.steps()?;
        let end = self.offset();
        Ok(PathExpr {
            root,
            steps,
            span: Span::new(start, end),
        })
    }

    /// Zero or more `/name`, `//name`, `/*` steps with qualifiers.
    fn steps(&mut self) -> Result<Vec<Step>> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                Token::Slash => Axis::Child,
                Token::DoubleSlash => Axis::DescendantOrSelf,
                _ => return Ok(steps),
            };
            self.bump();
            let test = match self.bump() {
                Token::Name(n) => NameTest::Name(n),
                Token::Star => NameTest::Any,
                other => return Err(self.err(format!("expected step name or *, found {other:?}"))),
            };
            let mut qualifiers = Vec::new();
            while self.peek() == &Token::LBracket {
                self.bump();
                qualifiers.push(self.nested(Self::qualifier)?);
                self.expect(&Token::RBracket)?;
            }
            steps.push(Step {
                axis,
                test,
                qualifiers,
            });
        }
    }

    /// Inside `[ … ]`: a relative path, optionally `= literal`.
    fn qualifier(&mut self) -> Result<Qualifier> {
        let rel = self.relative_steps()?;
        if self.peek() == &Token::Equals {
            self.bump();
            let value = match self.bump() {
                Token::Literal(s) => s,
                Token::Number(n) => n,
                other => return Err(self.err(format!("expected literal, found {other:?}"))),
            };
            Ok(Qualifier::Eq(rel, value))
        } else {
            Ok(Qualifier::Exists(rel))
        }
    }

    /// `name(/name)*` — the relative path of a qualifier (leading slash
    /// omitted, as in the paper's `[p = c]`).
    fn relative_steps(&mut self) -> Result<Vec<Step>> {
        let mut first = match self.bump() {
            Token::Name(n) => Step::child(n),
            other => return Err(self.err(format!("expected relative path, found {other:?}"))),
        };
        while self.peek() == &Token::LBracket {
            self.bump();
            first.qualifiers.push(self.nested(Self::qualifier)?);
            self.expect(&Token::RBracket)?;
        }
        let mut steps = vec![first];
        steps.extend(self.steps()?);
        Ok(steps)
    }

    fn condition(&mut self) -> Result<Condition> {
        if self.peek() == &Token::Exists {
            self.bump();
            self.expect(&Token::LParen)?;
            let path = self.path()?;
            self.expect(&Token::RParen)?;
            return Ok(Condition::Exists(path));
        }
        let left = self.path()?;
        self.expect(&Token::Equals)?;
        let right = match self.peek().clone() {
            Token::Literal(s) => {
                self.bump();
                Operand::Literal(s)
            }
            Token::Number(n) => {
                self.bump();
                Operand::Literal(n)
            }
            Token::Doc | Token::Var(_) => Operand::Path(self.path()?),
            other => return Err(self.err(format!("expected literal or path, found {other:?}"))),
        };
        Ok(Condition::Eq(left, right))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_selection_query() {
        let q = parse_query(
            r#"for $x in doc("ml")/MedlineCitationSet/MedlineCitation
               where $x/Language = "ENG"
               return $x/PMID"#,
        )
        .unwrap();
        assert_eq!(q.bindings.len(), 1);
        assert_eq!(q.bindings[0].var, "x");
        assert_eq!(
            q.bindings[0].path.simple_tags().unwrap(),
            vec!["MedlineCitationSet", "MedlineCitation"]
        );
        assert_eq!(q.conditions.len(), 1);
        assert_eq!(format!("{}", q.ret), "$x/PMID");
    }

    #[test]
    fn parses_qualifiers_joins_and_xq_star_slashslash() {
        let q = parse_query(
            r#"for $x in doc("d")/a/b[c = "1"][d], $y in $x//e
               where $x/f = $y/g and exists($y/h)
               return $y/*"#,
        )
        .unwrap();
        assert_eq!(q.bindings[0].path.steps[1].qualifiers.len(), 2);
        assert_eq!(q.bindings[1].path.steps[0].axis, Axis::DescendantOrSelf);
        assert!(matches!(
            &q.conditions[0],
            Condition::Eq(_, Operand::Path(_))
        ));
        assert!(matches!(&q.conditions[1], Condition::Exists(_)));
        match &q.ret {
            ReturnExpr::Path(p) => assert_eq!(p.steps[0].test, NameTest::Any),
            other => panic!("expected path return, got {other:?}"),
        }
    }

    #[test]
    fn parses_element_constructors() {
        let q = parse_query(
            r#"for $x in doc("d")/a, $y in doc("e")/b
               where $x/k = $y/k
               return <r>{$x/v}<inner>{$y//w}</inner>{for $z in $x/c return $z/t}</r>"#,
        )
        .unwrap();
        let c = match &q.ret {
            ReturnExpr::Element(c) => c,
            other => panic!("expected constructor, got {other:?}"),
        };
        assert_eq!(c.tag, "r");
        assert_eq!(c.content.len(), 3);
        assert!(matches!(&c.content[0], Content::Path(_)));
        match &c.content[1] {
            Content::Element(inner) => {
                assert_eq!(inner.tag, "inner");
                assert!(matches!(&inner.content[0], Content::Path(_)));
            }
            other => panic!("expected nested constructor, got {other:?}"),
        }
        match &c.content[2] {
            Content::Query(nested) => {
                assert_eq!(nested.bindings[0].var, "z");
                assert_eq!(format!("{}", nested.ret), "$z/t");
            }
            other => panic!("expected nested FLWR, got {other:?}"),
        }
    }

    #[test]
    fn paths_carry_spans() {
        let src = r#"for $x in doc("d")/a//b return $x/c"#;
        let q = parse_query(src).unwrap();
        let span = q.bindings[0].path.span;
        assert_eq!(&src[span.start..span.start + 8], r#"doc("d")"#);
        assert!(span.end > span.start);
    }

    #[test]
    fn rejects_mismatched_constructor_tags() {
        assert!(parse_query(r#"for $x in doc("d")/a return <r>{$x/v}</s>"#).is_err());
        assert!(parse_query(r#"for $x in doc("d")/a return <r>text</r>"#).is_err());
    }

    #[test]
    fn caps_nesting_with_a_positioned_error() {
        let qualifiers = |n: usize| {
            format!(
                "for $x in doc(\"d\")/a{}{} return $x/c",
                "[b".repeat(n),
                "]".repeat(n)
            )
        };
        let constructors = |n: usize| {
            format!(
                "for $x in doc(\"d\")/a return <r>{}{{$x/c}}{}</r>",
                "<e>".repeat(n - 1),
                "</e>".repeat(n - 1)
            )
        };
        let queries = |n: usize| {
            let inner = "for $y in $x/c return <r>{".repeat(n - 1);
            let close = "}</r>".repeat(n - 1);
            format!("for $x in doc(\"d\")/a return <r>{{{inner}$y/c{close}}}</r>")
        };
        for deep in [qualifiers, constructors, queries] {
            assert!(parse_query(&deep(MAX_NESTING)).is_ok());
            let src = deep(4_000);
            let err = parse_query(&src).unwrap_err();
            assert!(err.message.contains("nesting deeper than 64"), "{err}");
            assert!(err.offset > 0 && err.offset < src.len() / 2, "{err}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "for x in doc(\"d\") return $x",
            "for $x in doc(d) return $x",
            "for $x in doc(\"d\")/a where return $x",
            "for $x in doc(\"d\")/a[b = ] return $x",
            "for $x in doc(\"d\")/a return $x extra",
        ] {
            assert!(parse_query(bad).is_err(), "expected failure for {bad:?}");
        }
    }
}
