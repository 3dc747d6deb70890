//! Recursive-descent parser for the Locus language (the EBNF of the
//! paper's Fig. 4).

use std::error::Error;
use std::fmt;

use crate::ast::*;
use crate::lexer::{lex, LocusLexError, SpannedTok, Tok};
use locus_srcir::parser::MAX_NESTING_DEPTH;

/// Parse error for Locus programs.
#[derive(Debug, Clone, PartialEq)]
pub struct LocusParseError {
    /// 1-based source line of the offending token.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for LocusParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Locus parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for LocusParseError {}

impl From<LocusLexError> for LocusParseError {
    fn from(e: LocusLexError) -> LocusParseError {
        LocusParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parses a Locus program.
///
/// # Errors
///
/// Returns [`LocusParseError`] on malformed input, including input whose
/// statements and expressions nest deeper than the mini-C parser's
/// [`MAX_NESTING_DEPTH`] (each statement, each expression — full,
/// parenthesized, bracketed or an argument — and each `not` or unary
/// minus operand opens one level).
pub fn parse(src: &str) -> Result<LocusProgram, LocusParseError> {
    let tokens = lex(src)?;
    let mut p = P {
        tokens,
        pos: 0,
        serial: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while p.peek().is_some() {
        items.push(p.item()?);
    }
    Ok(LocusProgram {
        items,
        serial_count: p.serial,
    })
}

struct P {
    tokens: Vec<SpannedTok>,
    pos: usize,
    serial: usize,
    /// Nesting levels open at the current position.
    depth: usize,
}

impl P {
    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_NESTING_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut P) -> Result<T, LocusParseError>,
    ) -> Result<T, LocusParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err(format!(
                "nesting exceeds the limit of {MAX_NESTING_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn next_serial(&mut self) -> usize {
        let s = self.serial;
        self.serial += 1;
        s
    }

    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&Tok> {
        self.tokens.get(self.pos + off).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|t| t.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> LocusParseError {
        LocusParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect(&mut self, want: &Tok) -> Result<(), LocusParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            Some(t) => Err(self.err(format!("expected `{want}`, found `{t}`"))),
            None => Err(self.err(format!("expected `{want}`, found end of input"))),
        }
    }

    fn eat(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(name)) if name == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, LocusParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => Ok(name),
            Some(t) => Err(self.err(format!("expected identifier, found `{t}`"))),
            None => Err(self.err("expected identifier, found end of input")),
        }
    }

    // ---- items ----------------------------------------------------------

    fn item(&mut self) -> Result<LItem, LocusParseError> {
        if self.eat_kw("import") {
            let Some(Tok::Str(path)) = self.bump() else {
                return Err(self.err("import expects a string"));
            };
            self.expect(&Tok::Semi)?;
            return Ok(LItem::Import(path));
        }
        if self.eat_kw("extern") {
            let e = self.mol()?;
            self.expect(&Tok::Semi)?;
            return Ok(LItem::Extern(e));
        }
        if self.eat_kw("CodeReg") {
            let name = self.expect_ident()?;
            let body = self.block()?;
            return Ok(LItem::CodeReg { name, body });
        }
        if self.eat_kw("OptSeq") {
            let name = self.expect_ident()?;
            let params = self.param_list()?;
            let body = self.block()?;
            return Ok(LItem::OptSeq { name, params, body });
        }
        if self.eat_kw("Query") {
            let name = self.expect_ident()?;
            let params = self.param_list()?;
            let body = self.block()?;
            return Ok(LItem::Query { name, params, body });
        }
        if self.is_kw("Module")
            && matches!(self.peek_at(1), Some(Tok::Ident(_)))
            && self.peek_at(2) == Some(&Tok::LBrace)
        {
            self.bump();
            let name = self.expect_ident()?;
            let body = self.block()?;
            return Ok(LItem::ModuleDecl { name, body });
        }
        if self.eat_kw("def") {
            let name = self.expect_ident()?;
            let params = self.param_list()?;
            let body = self.block()?;
            return Ok(LItem::Def { name, params, body });
        }
        if self.is_kw("Search") && self.peek_at(1) == Some(&Tok::LBrace) {
            self.bump();
            let body = self.block()?;
            return Ok(LItem::SearchBlock(body));
        }
        Ok(LItem::Stmt(self.stmt()?))
    }

    fn param_list(&mut self) -> Result<Vec<String>, LocusParseError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.expect_ident()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(params)
    }

    // ---- blocks ---------------------------------------------------------

    /// Parses `{ stmts }` and any `OR { stmts }` continuation.
    fn block(&mut self) -> Result<LBlock, LocusParseError> {
        let mut alternatives = vec![self.braced_stmts()?];
        while self.is_kw("OR") && self.peek_at(1) == Some(&Tok::LBrace) {
            self.bump();
            alternatives.push(self.braced_stmts()?);
        }
        let serial = if alternatives.len() > 1 {
            Some(self.next_serial())
        } else {
            None
        };
        Ok(LBlock {
            alternatives,
            serial,
        })
    }

    fn braced_stmts(&mut self) -> Result<Vec<LStmt>, LocusParseError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    // ---- statements -----------------------------------------------------

    fn stmt(&mut self) -> Result<LStmt, LocusParseError> {
        self.nested(P::stmt_unnested)
    }

    fn stmt_unnested(&mut self) -> Result<LStmt, LocusParseError> {
        if self.peek() == Some(&Tok::LBrace) {
            let block = self.block()?;
            return Ok(LStmt::Block(block));
        }
        if self.is_kw("if") {
            return self.if_stmt();
        }
        if self.is_kw("for") && self.peek_at(1) == Some(&Tok::LParen) {
            return self.for_stmt();
        }
        if self.is_kw("while") {
            self.bump();
            let cond = self.test()?;
            let body = self.block()?;
            return Ok(LStmt::While { cond, body });
        }
        if self.eat_kw("return") {
            if self.eat(&Tok::Semi) {
                return Ok(LStmt::Return(None));
            }
            let e = self.test()?;
            self.expect(&Tok::Semi)?;
            return Ok(LStmt::Return(Some(e)));
        }
        if self.eat_kw("print") {
            let e = self.test()?;
            self.expect(&Tok::Semi)?;
            return Ok(LStmt::Print(e));
        }
        if self.is_kw("None") && self.peek_at(1) == Some(&Tok::Semi) {
            self.bump();
            self.bump();
            return Ok(LStmt::Pass);
        }
        if self.peek() == Some(&Tok::Star) {
            // Optional statement: `*stmt`.
            self.bump();
            let serial = self.next_serial();
            let inner = self.simple_stmt()?;
            return Ok(LStmt::Optional {
                serial,
                stmt: Box::new(inner),
            });
        }
        self.simple_stmt()
    }

    /// Assignment or (OR-)expression statement, consuming the `;`.
    fn simple_stmt(&mut self) -> Result<LStmt, LocusParseError> {
        let first = self.test()?;
        match self.peek() {
            Some(Tok::Eq) => {
                self.bump();
                let value = self.or_expr_rhs()?;
                self.expect(&Tok::Semi)?;
                Ok(LStmt::Assign {
                    targets: vec![first],
                    value,
                })
            }
            Some(Tok::Comma) => {
                // Multiple targets: `a, b = value;`
                let mut targets = vec![first];
                while self.eat(&Tok::Comma) {
                    targets.push(self.test()?);
                }
                self.expect(&Tok::Eq)?;
                let value = self.or_expr_rhs()?;
                self.expect(&Tok::Semi)?;
                Ok(LStmt::Assign { targets, value })
            }
            _ => {
                // Possibly an OR statement.
                let expr = self.or_expr_tail(first)?;
                self.expect(&Tok::Semi)?;
                Ok(LStmt::Expr(expr))
            }
        }
    }

    /// Parses the right-hand side of an assignment: `test (OR test)*`.
    fn or_expr_rhs(&mut self) -> Result<LExpr, LocusParseError> {
        let first = self.test()?;
        self.or_expr_tail(first)
    }

    fn or_expr_tail(&mut self, first: LExpr) -> Result<LExpr, LocusParseError> {
        if !self.is_kw("OR") {
            return Ok(first);
        }
        let mut options = vec![first];
        while self.eat_kw("OR") {
            options.push(self.test()?);
        }
        Ok(LExpr::OrExpr {
            serial: self.next_serial(),
            options,
        })
    }

    fn if_stmt(&mut self) -> Result<LStmt, LocusParseError> {
        self.bump(); // `if`
        let cond = self.test()?;
        let then = self.block()?;
        let mut elifs = Vec::new();
        let mut els = None;
        loop {
            if self.is_kw("elif") {
                self.bump();
                let c = self.test()?;
                let b = self.block()?;
                elifs.push((c, b));
            } else if self.is_kw("else") {
                self.bump();
                els = Some(self.block()?);
                break;
            } else {
                break;
            }
        }
        Ok(LStmt::If {
            cond,
            then,
            elifs,
            els,
        })
    }

    fn for_stmt(&mut self) -> Result<LStmt, LocusParseError> {
        self.bump(); // `for`
        self.expect(&Tok::LParen)?;
        let init = self.small_stmt_no_semi()?;
        self.expect(&Tok::Semi)?;
        let cond = self.test()?;
        self.expect(&Tok::Semi)?;
        let step = self.small_stmt_no_semi()?;
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        Ok(LStmt::For {
            init: Box::new(init),
            cond,
            step: Box::new(step),
            body,
        })
    }

    /// A small statement without the trailing `;` (for-loop header).
    fn small_stmt_no_semi(&mut self) -> Result<LStmt, LocusParseError> {
        let first = self.test()?;
        if self.eat(&Tok::Eq) {
            let value = self.test()?;
            Ok(LStmt::Assign {
                targets: vec![first],
                value,
            })
        } else {
            Ok(LStmt::Expr(first))
        }
    }

    // ---- expressions ------------------------------------------------------

    fn test(&mut self) -> Result<LExpr, LocusParseError> {
        self.nested(P::or_test)
    }

    fn or_test(&mut self) -> Result<LExpr, LocusParseError> {
        let mut lhs = self.and_test()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.and_test()?;
            lhs = bin(LBinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_test(&mut self) -> Result<LExpr, LocusParseError> {
        let mut lhs = self.not_test()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.not_test()?;
            lhs = bin(LBinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_test(&mut self) -> Result<LExpr, LocusParseError> {
        if self.eat_kw("not") {
            let inner = self.nested(P::not_test)?;
            return Ok(LExpr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<LExpr, LocusParseError> {
        let mut lhs = self.arith()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => LBinOp::Lt,
                Some(Tok::Le) => LBinOp::Le,
                Some(Tok::Gt) => LBinOp::Gt,
                Some(Tok::Ge) => LBinOp::Ge,
                Some(Tok::EqEq) => LBinOp::Eq,
                Some(Tok::Ne) => LBinOp::Ne,
                _ => break,
            };
            self.bump();
            let rhs = self.arith()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn arith(&mut self) -> Result<LExpr, LocusParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => LBinOp::Add,
                Some(Tok::Minus) => LBinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.term()?;
            lhs = bin(op, lhs, rhs);
        }
        // Range expression: `a..b` or `a..b..c`.
        if self.eat(&Tok::DotDot) {
            let hi = {
                let mut h = self.term()?;
                loop {
                    let op = match self.peek() {
                        Some(Tok::Plus) => LBinOp::Add,
                        Some(Tok::Minus) => LBinOp::Sub,
                        _ => break,
                    };
                    self.bump();
                    let rhs = self.term()?;
                    h = bin(op, h, rhs);
                }
                h
            };
            let step = if self.eat(&Tok::DotDot) {
                Some(Box::new(self.term()?))
            } else {
                None
            };
            return Ok(LExpr::Range {
                lo: Box::new(lhs),
                hi: Box::new(hi),
                step,
            });
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<LExpr, LocusParseError> {
        let mut lhs = self.power()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => LBinOp::Mul,
                Some(Tok::Slash) => LBinOp::Div,
                Some(Tok::Percent) => LBinOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.power()?;
            lhs = bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn power(&mut self) -> Result<LExpr, LocusParseError> {
        let base = self.unary()?;
        if self.eat(&Tok::StarStar) {
            let exp = self.unary()?;
            return Ok(bin(LBinOp::Pow, base, exp));
        }
        Ok(base)
    }

    fn unary(&mut self) -> Result<LExpr, LocusParseError> {
        if self.eat(&Tok::Minus) {
            let inner = self.nested(P::unary)?;
            return Ok(LExpr::Neg(Box::new(inner)));
        }
        self.mol()
    }

    /// The grammar's `mol`: an atom with call/index/attribute postfixes.
    fn mol(&mut self) -> Result<LExpr, LocusParseError> {
        let mut e = self.atom()?;
        loop {
            match self.peek() {
                Some(Tok::LParen) => {
                    self.bump();
                    let args = self.arg_list()?;
                    e = LExpr::Call {
                        callee: Box::new(e),
                        args,
                    };
                }
                Some(Tok::LBracket) => {
                    self.bump();
                    let index = self.test()?;
                    self.expect(&Tok::RBracket)?;
                    e = LExpr::Index {
                        base: Box::new(e),
                        index: Box::new(index),
                    };
                }
                Some(Tok::Dot) => {
                    self.bump();
                    let name = self.expect_ident()?;
                    e = LExpr::Attr {
                        base: Box::new(e),
                        name,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn arg_list(&mut self) -> Result<Vec<LArg>, LocusParseError> {
        let mut args = Vec::new();
        if self.eat(&Tok::RParen) {
            return Ok(args);
        }
        loop {
            // Named argument: IDENT '=' test (not '==').
            let named = matches!(
                (self.peek(), self.peek_at(1)),
                (Some(Tok::Ident(_)), Some(Tok::Eq))
            );
            if named {
                let Some(Tok::Ident(name)) = self.bump() else {
                    unreachable!()
                };
                self.bump(); // '='
                let value = self.test()?;
                args.push(LArg {
                    name: Some(name),
                    value,
                });
            } else {
                let value = self.test()?;
                args.push(LArg { name: None, value });
            }
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(args)
    }

    fn atom(&mut self) -> Result<LExpr, LocusParseError> {
        // Search-construct keywords.
        if let Some(Tok::Ident(name)) = self.peek() {
            if let Some(kind) = SearchKind::from_name(name) {
                if self.peek_at(1) == Some(&Tok::LParen) {
                    self.bump();
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.test()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    return Ok(LExpr::Search {
                        serial: self.next_serial(),
                        kind,
                        args,
                    });
                }
            }
            if name == "dict" && self.peek_at(1) == Some(&Tok::LParen) {
                self.bump();
                self.bump();
                let mut entries = Vec::new();
                if !self.eat(&Tok::RParen) {
                    loop {
                        let key = self.expect_ident()?;
                        self.expect(&Tok::Eq)?;
                        let value = self.test()?;
                        entries.push((key, value));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                return Ok(LExpr::Dict(entries));
            }
            if name == "None" {
                self.bump();
                return Ok(LExpr::None);
            }
        }
        let line = self.line();
        match self.bump() {
            Some(Tok::Int(v)) => Ok(LExpr::Int(v)),
            Some(Tok::Float(v)) => Ok(LExpr::Float(v)),
            Some(Tok::Str(s)) => Ok(LExpr::Str(s)),
            Some(Tok::Ident(name)) => Ok(LExpr::Ident(name)),
            Some(Tok::LBracket) => {
                let mut items = Vec::new();
                if !self.eat(&Tok::RBracket) {
                    loop {
                        items.push(self.test()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RBracket)?;
                }
                Ok(LExpr::List(items))
            }
            Some(Tok::LParen) => {
                let first = self.test()?;
                if self.eat(&Tok::Comma) {
                    let mut items = vec![first];
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            items.push(self.test()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(LExpr::Tuple(items))
                } else {
                    self.expect(&Tok::RParen)?;
                    Ok(first)
                }
            }
            Some(t) => Err(LocusParseError {
                line,
                message: format!("unexpected token `{t}` in expression"),
            }),
            None => Err(self.err("unexpected end of input in expression")),
        }
    }
}

fn bin(op: LBinOp, lhs: LExpr, rhs: LExpr) -> LExpr {
    LExpr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig5_program() {
        let src = r#"
import "RoseLocus";
def printstatus(type) {
    print "Tiling selected: " + type;
}
OptSeq Tiling2D() {
    tileI = poweroftwo(2..32);
    tileJ = poweroftwo(2..32);
    RoseLocus.Tiling(loop="0", factor=[tileI, tileJ]);
    return "2D";
}
OptSeq Tiling3D() {
    RoseLocus.Tiling(loop="0", factor=[4, 4, 8]);
    return "3D";
}
CodeReg matmul {
    tiledim = 4;
    tiletype = Tiling2D() OR Tiling3D();
    printstatus(tiletype);
    if (tiletype == "2D") {
        RoseLocus.Unroll(loop=innermost, factor=tiledim);
    }
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.codereg_names(), vec!["matmul"]);
        assert!(p.optseq("Tiling2D").is_some());
        assert!(p.optseq("Tiling3D").is_some());
        assert!(p.method("printstatus").is_some());
        // Three search constructs: two pow2 + the OR expression.
        assert_eq!(p.serial_count, 3);
    }

    #[test]
    fn parses_fig7_program() {
        let src = r#"
Search {
    buildcmd = "make clean; make";
    runcmd = "./matmul";
}
CodeReg matmul {
    RoseLocus.Interchange(order=[0, 2, 1]);
    tileI = poweroftwo(2..512);
    tileK = poweroftwo(2..512);
    tileJ = poweroftwo(2..512);
    Pips.Tiling(loop="0", factor=[tileI, tileK, tileJ]);
    tileI_2 = poweroftwo(2..tileI);
    tileK_2 = poweroftwo(2..tileK);
    tileJ_2 = poweroftwo(2..tileJ);
    Pips.Tiling(loop="0.0.0.0", factor=[tileI_2, tileK_2, tileJ_2]);
    {
        Pragma.OMPFor(loop="0");
    } OR {
        Pragma.OMPFor(loop="0",
                      schedule=enum("static", "dynamic"),
                      chunk=integer(1..32));
    }
}
"#;
        let p = parse(src).unwrap();
        assert!(p.search_block().is_some());
        // 6 pow2 + enum + integer + the OR block = 9 serials.
        assert_eq!(p.serial_count, 9);
        let body = p.codereg("matmul").unwrap();
        // The OR block is the last statement.
        let last = body.alternatives[0].last().unwrap();
        match last {
            LStmt::Block(b) => assert_eq!(b.alternatives.len(), 2),
            other => panic!("expected OR block, got {other:?}"),
        }
    }

    #[test]
    fn parses_fig13_generic_program() {
        let src = r#"
Search {
    buildcmd = "make clean; make LOOPEXTRACTED";
    runcmd = "LOOPEXTRACTED ../input 10";
}
CodeReg scop {
    perfect = BuiltIn.IsPerfectLoopNest();
    depth = BuiltIn.LoopNestDepth();
    if (RoseLocus.IsDepAvailable()) {
        if (perfect && depth > 1) {
            permorder = permutation(seq(0, depth));
            RoseLocus.Interchange(order=permorder);
        }
        {
            if (perfect) {
                indexT1 = integer(1..depth);
                T1fac = poweroftwo(2..32);
                RoseLocus.Tiling(loop=indexT1, factor=T1fac);
            }
        } OR {
            if (depth > 1) {
                indexUAJ = integer(1..depth-1);
                UAJfac = poweroftwo(2..4);
                RoseLocus.UnrollAndJam(loop=indexUAJ, factor=UAJfac);
            }
        } OR {
            None; # No tiling, interchange, or unroll and jam.
        }
        innerloops = BuiltIn.ListInnerLoops();
        *RoseLocus.Distribute(loop=innerloops);
    }
    innerloops = BuiltIn.ListInnerLoops();
    RoseLocus.Unroll(loop=innerloops, factor=poweroftwo(2..8));
}
"#;
        let p = parse(src).unwrap();
        // permutation + OR block(3) + integer + pow2 + integer + pow2 +
        // optional + pow2 = 8 serials.
        assert_eq!(p.serial_count, 8);
    }

    #[test]
    fn parses_fig11_kripke_program() {
        let src = r#"
datalayout = enum("DZG", "DGZ", "GDZ", "GZD", "ZDG", "ZGD");
CodeReg Scattering {
    if (datalayout == "DGZ") {
        looporder = [0, 1, 2, 3, 4];
        omploop = "0.0.0.0";
    } elif (datalayout == "GDZ") {
        looporder = [1, 2, 0, 3, 4];
        omploop = "0.0.0.0";
    } else {
        looporder = [0, 3, 4, 1, 2];
        omploop = "0.0";
    }
    sourcepath = "scatter_" + datalayout + ".txt";
    BuiltIn.Altdesc(stmt="0.0.0.0.0.3", source=sourcepath);
    RoseLocus.Interchange(order=looporder);
    RoseLocus.LICM();
    RoseLocus.ScalarRepl();
    Pragma.OMPFor(loop=omploop);
}
"#;
        let p = parse(src).unwrap();
        assert_eq!(p.serial_count, 1);
        assert_eq!(p.codereg_names(), vec!["Scattering"]);
    }

    #[test]
    fn parses_or_statement_and_optional() {
        let p = parse("CodeReg r { transfA() OR transfB(); *maybe(); }").unwrap();
        let body = p.codereg("r").unwrap();
        assert!(matches!(
            &body.alternatives[0][0],
            LStmt::Expr(LExpr::OrExpr { options, .. }) if options.len() == 2
        ));
        assert!(matches!(&body.alternatives[0][1], LStmt::Optional { .. }));
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            r#"CodeReg r {
                for (i = 0; i < 4; i = i + 1) { x = i; }
                while x > 0 { x = x - 1; }
            }"#,
        )
        .unwrap();
        let body = p.codereg("r").unwrap();
        assert!(matches!(&body.alternatives[0][0], LStmt::For { .. }));
        assert!(matches!(&body.alternatives[0][1], LStmt::While { .. }));
    }

    #[test]
    fn parses_data_structures() {
        let p = parse(
            r#"CodeReg r {
                l = [1, 2, 3];
                t = (1, "two");
                d = dict(a=1, b=2);
                m = [[s1, 0], [0 - s1, s1]];
                x = l[0] + d.a;
            }"#,
        )
        .unwrap();
        assert_eq!(p.serial_count, 0);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let err = parse("CodeReg r {\n x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn range_with_arithmetic_endpoints() {
        let p = parse("CodeReg r { x = integer(1..depth-1); }").unwrap();
        let body = p.codereg("r").unwrap();
        let LStmt::Assign { value, .. } = &body.alternatives[0][0] else {
            panic!("expected assignment")
        };
        let LExpr::Search { kind, args, .. } = value else {
            panic!("expected search construct, got {value:?}")
        };
        assert_eq!(*kind, SearchKind::Integer);
        assert!(matches!(&args[0], LExpr::Range { .. }));
    }
}
