//! Recursive-descent parser for the mini-C source language.

use std::error::Error;
use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LexError};
use crate::token::{SpannedToken, Token};

/// Error produced while parsing source text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending token (0 when at end of input).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(err: LexError) -> ParseError {
        ParseError {
            line: err.line,
            message: err.message,
        }
    }
}

/// How deeply statements and expressions may nest, in levels. Each
/// statement opens one level, as do each expression (a full expression,
/// or one in parentheses, brackets or a call argument), each unary or
/// cast operand and each assignment's right-hand side. The parsers of
/// this crate and of the Locus language refuse deeper input with a
/// parse error naming the limit, so no input can exhaust the stack of
/// the parser or of the passes that walk its tree.
pub const MAX_NESTING_DEPTH: usize = 256;

/// Parses a whole mini-C translation unit.
///
/// # Errors
///
/// Returns [`ParseError`] (which also wraps lexical errors) on malformed
/// input, including input nested deeper than [`MAX_NESTING_DEPTH`].
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser::new(tokens);
    parser.program()
}

/// Parses a single expression; useful in tests and snippet splicing.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing tokens.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut parser = Parser::new(tokens);
    let expr = parser.expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(parser.err_here("trailing tokens after expression"));
    }
    Ok(expr)
}

pub(crate) struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Nesting levels open at the current position.
    depth: usize,
}

impl Parser {
    pub(crate) fn new(tokens: Vec<SpannedToken>) -> Parser {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err_here(format!(
                "nesting exceeds the limit of {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|t| &t.token)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|t| t.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.err_here(format!("expected `{want}`, found `{t}`"))),
            None => Err(self.err_here(format!("expected `{want}`, found end of input"))),
        }
    }

    fn eat(&mut self, want: &Token) -> bool {
        if self.peek() == Some(want) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(name)) => Ok(name),
            Some(t) => Err(self.err_here(format!("expected identifier, found `{t}`"))),
            None => Err(self.err_here("expected identifier, found end of input")),
        }
    }

    fn is_type_keyword(token: Option<&Token>) -> bool {
        matches!(
            token,
            Some(Token::Ident(name))
                if matches!(name.as_str(), "int" | "double" | "float" | "char" | "void")
        )
    }

    fn parse_type(&mut self) -> Result<Type, ParseError> {
        let name = self.expect_ident()?;
        let mut ty = match name.as_str() {
            "int" => Type::Int,
            "double" => Type::Double,
            "float" => Type::Float,
            "char" => Type::Char,
            "void" => Type::Void,
            other => return Err(self.err_here(format!("unknown type `{other}`"))),
        };
        while self.eat(&Token::Star) {
            ty = Type::Ptr(Box::new(ty));
        }
        Ok(ty)
    }

    // ---- program structure -------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut items = Vec::new();
        while self.peek().is_some() {
            // Pragmas before top-level items attach to the following
            // global declaration.
            let pragmas = self.collect_pragmas()?;
            if !Self::is_type_keyword(self.peek()) {
                return Err(self.err_here("expected a type at top level"));
            }
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            if self.peek() == Some(&Token::LParen) {
                if !pragmas.is_empty() {
                    return Err(self.err_here("pragmas cannot precede a function definition"));
                }
                items.push(Item::Function(self.function(ty, name)?));
            } else {
                let mut stmts = self.decl_tail(ty, name)?;
                for mut s in stmts.drain(..) {
                    s.pragmas = pragmas.clone();
                    items.push(Item::Global(s));
                }
            }
        }
        Ok(Program { items })
    }

    fn function(&mut self, ret: Type, name: String) -> Result<Function, ParseError> {
        self.expect(&Token::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Token::RParen) {
            loop {
                if self.peek() == Some(&Token::Ident("void".into()))
                    && params.is_empty()
                    && self.peek_at(1) == Some(&Token::RParen)
                {
                    self.bump();
                    break;
                }
                let ty = self.parse_type()?;
                let pname = self.expect_ident()?;
                let mut dims = Vec::new();
                while self.eat(&Token::LBracket) {
                    if self.eat(&Token::RBracket) {
                        dims.push(Expr::IntLit(0));
                    } else {
                        dims.push(self.expr()?);
                        self.expect(&Token::RBracket)?;
                    }
                }
                params.push(Param {
                    ty,
                    name: pname,
                    dims,
                });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        self.expect(&Token::LBrace)?;
        let mut body = Vec::new();
        while !self.eat(&Token::RBrace) {
            if self.peek().is_none() {
                return Err(self.err_here("unterminated function body"));
            }
            body.push(self.stmt()?);
        }
        Ok(Function {
            ret,
            name,
            params,
            body,
        })
    }

    // ---- statements ---------------------------------------------------

    fn collect_pragmas(&mut self) -> Result<Vec<Pragma>, ParseError> {
        let mut pragmas = Vec::new();
        while let Some(Token::Pragma(_)) = self.peek() {
            let Some(Token::Pragma(text)) = self.bump() else {
                unreachable!()
            };
            pragmas.push(parse_pragma(&text).map_err(|m| self.err_here(m))?);
        }
        Ok(pragmas)
    }

    pub(crate) fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(|p| {
            let pragmas = p.collect_pragmas()?;
            let mut stmt = p.stmt_no_pragma()?;
            stmt.pragmas = pragmas;
            Ok(stmt)
        })
    }

    fn stmt_no_pragma(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Token::Semi) => {
                self.bump();
                Ok(Stmt::new(StmtKind::Empty))
            }
            Some(Token::LBrace) => {
                self.bump();
                let mut stmts = Vec::new();
                while !self.eat(&Token::RBrace) {
                    if self.peek().is_none() {
                        return Err(self.err_here("unterminated block"));
                    }
                    stmts.push(self.stmt()?);
                }
                Ok(Stmt::new(StmtKind::Block(stmts)))
            }
            Some(Token::Ident(name)) => match name.as_str() {
                "for" => self.for_stmt(),
                "while" => self.while_stmt(),
                "if" => self.if_stmt(),
                "return" => {
                    self.bump();
                    if self.eat(&Token::Semi) {
                        Ok(Stmt::new(StmtKind::Return(None)))
                    } else {
                        let value = self.expr()?;
                        self.expect(&Token::Semi)?;
                        Ok(Stmt::new(StmtKind::Return(Some(value))))
                    }
                }
                _ if Self::is_type_keyword(self.peek()) => {
                    let ty = self.parse_type()?;
                    let name = self.expect_ident()?;
                    let mut decls = self.decl_tail(ty, name)?;
                    if decls.len() == 1 {
                        Ok(decls.pop().expect("one declaration"))
                    } else {
                        // `int i, j, k;` expands to a flat run of decls;
                        // wrap in a block marker-free sequence by splicing.
                        Ok(Stmt::new(StmtKind::Block(decls)))
                    }
                }
                _ => {
                    let expr = self.expr()?;
                    self.expect(&Token::Semi)?;
                    Ok(Stmt::expr(expr))
                }
            },
            Some(_) => {
                let expr = self.expr()?;
                self.expect(&Token::Semi)?;
                Ok(Stmt::expr(expr))
            }
            None => Err(self.err_here("expected statement, found end of input")),
        }
    }

    /// Parses the rest of a declaration after `type name`, including
    /// comma-separated declarators. Consumes the trailing `;`.
    fn decl_tail(&mut self, ty: Type, first_name: String) -> Result<Vec<Stmt>, ParseError> {
        let mut decls = Vec::new();
        let mut name = first_name;
        loop {
            let mut dims = Vec::new();
            while self.eat(&Token::LBracket) {
                dims.push(self.expr()?);
                self.expect(&Token::RBracket)?;
            }
            let init = if self.eat(&Token::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            decls.push(Stmt::new(StmtKind::Decl {
                ty: ty.clone(),
                name,
                dims,
                init,
            }));
            if self.eat(&Token::Comma) {
                name = self.expect_ident()?;
            } else {
                break;
            }
        }
        self.expect(&Token::Semi)?;
        Ok(decls)
    }

    fn for_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // `for`
        self.expect(&Token::LParen)?;
        let init = if self.eat(&Token::Semi) {
            None
        } else if Self::is_type_keyword(self.peek()) {
            let ty = self.parse_type()?;
            let name = self.expect_ident()?;
            let init = if self.eat(&Token::Eq) {
                Some(self.expr()?)
            } else {
                None
            };
            self.expect(&Token::Semi)?;
            Some(Box::new(Stmt::new(StmtKind::Decl {
                ty,
                name,
                dims: Vec::new(),
                init,
            })))
        } else {
            let e = self.expr()?;
            self.expect(&Token::Semi)?;
            Some(Box::new(Stmt::expr(e)))
        };
        let cond = if self.peek() == Some(&Token::Semi) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&Token::Semi)?;
        let step = if self.peek() == Some(&Token::RParen) {
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(&Token::RParen)?;
        let body = self.stmt()?;
        Ok(Stmt::new(StmtKind::For(ForLoop {
            init,
            cond,
            step,
            body: Box::new(normalize_body(body)),
        })))
    }

    fn while_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // `while`
        self.expect(&Token::LParen)?;
        let cond = self.expr()?;
        self.expect(&Token::RParen)?;
        let body = self.stmt()?;
        Ok(Stmt::new(StmtKind::While {
            cond,
            body: Box::new(normalize_body(body)),
        }))
    }

    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.bump(); // `if`
        self.expect(&Token::LParen)?;
        let cond = self.expr()?;
        self.expect(&Token::RParen)?;
        let then_branch = Box::new(self.stmt()?);
        let else_branch = if self.peek() == Some(&Token::Ident("else".into())) {
            self.bump();
            Some(Box::new(self.stmt()?))
        } else {
            None
        };
        Ok(Stmt::new(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        }))
    }

    // ---- expressions ----------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::assignment)
    }

    fn assignment(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.logical_or()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(AssignOp::Assign),
            Some(Token::PlusEq) => Some(AssignOp::AddAssign),
            Some(Token::MinusEq) => Some(AssignOp::SubAssign),
            Some(Token::StarEq) => Some(AssignOp::MulAssign),
            Some(Token::SlashEq) => Some(AssignOp::DivAssign),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.nested(Parser::assignment)?;
            Ok(Expr::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            })
        } else {
            Ok(lhs)
        }
    }

    fn logical_or(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.logical_and()?;
        while self.eat(&Token::PipePipe) {
            let rhs = self.logical_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn logical_and(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.equality()?;
        while self.eat(&Token::AmpAmp) {
            let rhs = self.equality()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.relational()?;
        loop {
            let op = match self.peek() {
                Some(Token::EqEq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.relational()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.additive()?;
        loop {
            let op = match self.peek() {
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Ge) => BinOp::Ge,
                _ => break,
            };
            self.bump();
            let rhs = self.additive()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                Some(Token::Percent) => BinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let op = match self.peek() {
            Some(Token::Minus) => Some(UnOp::Neg),
            Some(Token::Bang) => Some(UnOp::Not),
            Some(Token::Star) => Some(UnOp::Deref),
            Some(Token::Amp) => Some(UnOp::Addr),
            Some(Token::PlusPlus) => {
                // Prefix increment: `++i` == `i += 1`.
                self.bump();
                let operand = self.nested(Parser::unary)?;
                return Ok(Expr::Assign {
                    op: AssignOp::AddAssign,
                    lhs: Box::new(operand),
                    rhs: Box::new(Expr::IntLit(1)),
                });
            }
            Some(Token::MinusMinus) => {
                self.bump();
                let operand = self.nested(Parser::unary)?;
                return Ok(Expr::Assign {
                    op: AssignOp::SubAssign,
                    lhs: Box::new(operand),
                    rhs: Box::new(Expr::IntLit(1)),
                });
            }
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let operand = self.nested(Parser::unary)?;
            return Ok(Expr::Unary {
                op,
                operand: Box::new(operand),
            });
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut expr = self.primary()?;
        loop {
            match self.peek() {
                Some(Token::LBracket) => {
                    self.bump();
                    let index = self.expr()?;
                    self.expect(&Token::RBracket)?;
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(index),
                    };
                }
                Some(Token::PlusPlus) => {
                    // Postfix increment used for its effect only.
                    self.bump();
                    expr = Expr::Assign {
                        op: AssignOp::AddAssign,
                        lhs: Box::new(expr),
                        rhs: Box::new(Expr::IntLit(1)),
                    };
                }
                Some(Token::MinusMinus) => {
                    self.bump();
                    expr = Expr::Assign {
                        op: AssignOp::SubAssign,
                        lhs: Box::new(expr),
                        rhs: Box::new(Expr::IntLit(1)),
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::LParen) => {
                // Either a cast `(type) expr` or a parenthesized expression.
                if Self::is_type_keyword(self.peek_at(1)) {
                    self.bump();
                    let ty = self.parse_type()?;
                    self.expect(&Token::RParen)?;
                    let inner = self.nested(Parser::unary)?;
                    return Ok(Expr::Cast {
                        ty,
                        expr: Box::new(inner),
                    });
                }
                self.bump();
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Int(v)) => {
                let v = *v;
                self.bump();
                Ok(Expr::IntLit(v))
            }
            Some(Token::Float(v)) => {
                let v = *v;
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            Some(Token::Str(_)) => {
                let Some(Token::Str(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(Expr::StrLit(s))
            }
            Some(Token::Ident(_)) => {
                let Some(Token::Ident(name)) = self.bump() else {
                    unreachable!()
                };
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen)?;
                    }
                    Ok(Expr::Call { callee: name, args })
                } else {
                    Ok(Expr::Ident(name))
                }
            }
            Some(t) => Err(self.err_here(format!("unexpected token `{t}` in expression"))),
            None => Err(self.err_here("unexpected end of input in expression")),
        }
    }
}

/// Ensures a loop body is a block statement (single statements are wrapped).
fn normalize_body(body: Stmt) -> Stmt {
    if matches!(body.kind, StmtKind::Block(_)) && body.pragmas.is_empty() {
        body
    } else {
        Stmt::block(vec![body])
    }
}

/// Parses the text of a `#pragma` directive into a structured [`Pragma`].
pub fn parse_pragma(text: &str) -> Result<Pragma, String> {
    let trimmed = text.trim();
    if let Some(rest) = trimmed.strip_prefix("@Locus") {
        let rest = rest.trim();
        if let Some(id) = rest.strip_prefix("loop=") {
            return Ok(Pragma::LocusLoop(id.trim().to_string()));
        }
        if let Some(id) = rest.strip_prefix("block=") {
            return Ok(Pragma::LocusBlock(id.trim().to_string()));
        }
        return Err(format!("malformed @Locus pragma `{trimmed}`"));
    }
    if trimmed == "ivdep" {
        return Ok(Pragma::Ivdep);
    }
    if trimmed == "vector always" {
        return Ok(Pragma::VectorAlways);
    }
    if let Some(rest) = trimmed.strip_prefix("omp parallel for") {
        let mut rest = rest.trim_start();
        let mut schedule = None;
        let mut clauses = Vec::new();
        while !rest.is_empty() {
            let Some((name, tail)) = rest.split_once('(') else {
                return Err(format!("unsupported omp clause `{rest}`"));
            };
            let (body, after) = tail
                .split_once(')')
                .ok_or_else(|| format!("malformed `{}` clause in `{trimmed}`", name.trim()))?;
            let body = body.trim();
            match name.trim() {
                "schedule" => {
                    let mut parts = body.splitn(2, ',');
                    let kind = match parts.next().map(str::trim) {
                        Some("static") => OmpScheduleKind::Static,
                        Some("dynamic") => OmpScheduleKind::Dynamic,
                        other => return Err(format!("unknown schedule kind `{other:?}`")),
                    };
                    let chunk = match parts.next().map(str::trim) {
                        Some(text) => Some(
                            text.parse::<u32>()
                                .map_err(|_| format!("malformed chunk size `{text}`"))?,
                        ),
                        None => None,
                    };
                    schedule = Some(OmpSchedule { kind, chunk });
                }
                "reduction" => {
                    let (op, var) = body
                        .split_once(':')
                        .ok_or_else(|| format!("malformed reduction clause in `{trimmed}`"))?;
                    let op = match op.trim() {
                        "+" => BinOp::Add,
                        "-" => BinOp::Sub,
                        "*" => BinOp::Mul,
                        other => return Err(format!("unsupported reduction operator `{other}`")),
                    };
                    clauses.push(OmpClause::Reduction {
                        op,
                        var: var.trim().to_string(),
                    });
                }
                "private" => clauses.push(OmpClause::Private {
                    var: body.to_string(),
                }),
                other => return Err(format!("unsupported omp clause `{other}`")),
            }
            rest = after.trim_start();
        }
        return Ok(Pragma::OmpParallelFor { schedule, clauses });
    }
    Ok(Pragma::Raw(trimmed.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_matmul_kernel_from_paper() {
        let src = r#"
        #define M 64
        #define N 64
        #define K 64
        double A[M][K];
        double B[K][N];
        double C[M][N];
        double alpha;
        double beta;
        int main() {
            int i, j, k;
            #pragma @Locus loop=matmul
            for (i = 0; i < M; i++)
                for (j = 0; j < N; j++)
                    for (k = 0; k < K; k++)
                        C[i][j] = beta*C[i][j] + alpha*A[i][k]*B[k][j];
            return 0;
        }
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.functions().count(), 1);
        assert_eq!(program.globals().count(), 5);
        let main = program.function("main").unwrap();
        // Declarations (expanded from `int i, j, k;`) plus the loop and
        // return.
        let loop_stmt = main
            .body
            .iter()
            .flat_map(|s| s.body_stmts())
            .find(|s| s.is_for())
            .expect("loop");
        assert_eq!(loop_stmt.region_id(), Some("matmul"));
    }

    #[test]
    fn parses_for_with_decl_init() {
        let program =
            parse_program("void f() { for (int t = 0; t < 4; t++) { int x; x = t; } }").unwrap();
        let f = program.function("f").unwrap();
        let fl = f.body[0].as_for().unwrap();
        assert!(matches!(
            fl.init.as_deref().unwrap().kind,
            StmtKind::Decl { .. }
        ));
    }

    #[test]
    fn single_statement_bodies_are_wrapped_in_blocks() {
        let program =
            parse_program("void f(int n) { for (int i = 0; i < n; ++i) n = n; }").unwrap();
        let f = program.function("f").unwrap();
        let fl = f.body[0].as_for().unwrap();
        assert!(matches!(fl.body.kind, StmtKind::Block(_)));
    }

    #[test]
    fn parses_compound_assignment_and_increments() {
        let e = parse_expr("x += 2").unwrap();
        assert!(matches!(
            e,
            Expr::Assign {
                op: AssignOp::AddAssign,
                ..
            }
        ));
        let e = parse_expr("i++").unwrap();
        assert!(matches!(
            e,
            Expr::Assign {
                op: AssignOp::AddAssign,
                ..
            }
        ));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let e = parse_expr("a + b * c").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. })),
            other => panic!("unexpected parse: {other:?}"),
        }
    }

    #[test]
    fn parses_cast() {
        let e = parse_expr("(double)x * 2.0").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parses_deref_and_pointer_decl() {
        let program = parse_program("void f(double* p) { *p += 1.0; }").unwrap();
        let f = program.function("f").unwrap();
        assert_eq!(f.params[0].ty, Type::Ptr(Box::new(Type::Double)));
    }

    #[test]
    fn parses_omp_pragmas() {
        assert_eq!(
            parse_pragma("omp parallel for").unwrap(),
            Pragma::OmpParallelFor {
                schedule: None,
                clauses: Vec::new()
            }
        );
        assert_eq!(
            parse_pragma("omp parallel for schedule(dynamic, 8)").unwrap(),
            Pragma::OmpParallelFor {
                schedule: Some(OmpSchedule {
                    kind: OmpScheduleKind::Dynamic,
                    chunk: Some(8)
                }),
                clauses: Vec::new()
            }
        );
        assert_eq!(
            parse_pragma("omp parallel for schedule(static) reduction(+:s) private(t)").unwrap(),
            Pragma::OmpParallelFor {
                schedule: Some(OmpSchedule {
                    kind: OmpScheduleKind::Static,
                    chunk: None
                }),
                clauses: vec![
                    OmpClause::Reduction {
                        op: BinOp::Add,
                        var: "s".to_string()
                    },
                    OmpClause::Private {
                        var: "t".to_string()
                    },
                ]
            }
        );
        assert!(parse_pragma("omp parallel for reduction(/:s)").is_err());
        assert!(parse_pragma("omp parallel for nowait").is_err());
        assert_eq!(parse_pragma("ivdep").unwrap(), Pragma::Ivdep);
        assert_eq!(parse_pragma("vector always").unwrap(), Pragma::VectorAlways);
    }

    #[test]
    fn unknown_pragma_is_preserved_raw() {
        assert_eq!(
            parse_pragma("unroll(4)").unwrap(),
            Pragma::Raw("unroll(4)".into())
        );
    }

    #[test]
    fn modulo_indexing_from_heat_kernel_parses() {
        let e = parse_expr("A[(t+1)%2][i][j]").unwrap();
        let (name, idx) = e.as_array_access().unwrap();
        assert_eq!(name, "A");
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn error_mentions_line() {
        let err = parse_program("int main() {\n  int x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn if_else_parses() {
        let program =
            parse_program("int f(int x) { if (x > 0) { return 1; } else { return 0; } }").unwrap();
        let f = program.function("f").unwrap();
        assert!(matches!(f.body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn while_loop_parses() {
        let program = parse_program("void f(int n) { while (n > 0) { n -= 1; } }").unwrap();
        let f = program.function("f").unwrap();
        assert!(matches!(f.body[0].kind, StmtKind::While { .. }));
    }
}
