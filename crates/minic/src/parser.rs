//! The MiniC parser: recursive descent, with one precedence-climbing
//! loop for the binary operators.

use crate::ast::{BinOp, Expr, ExprKind, Func, Global, Stmt, StructDef, Type, UnOp, Unit};
use crate::lexer::{Tok, Token};
use crate::sema::CompileError;

/// Parses a token stream into a [`Unit`].
///
/// # Errors
///
/// Returns a [`CompileError`] on syntax errors.
pub fn parse(tokens: &[Token]) -> Result<Unit, CompileError> {
    let mut p = Parser {
        toks: tokens,
        pos: 0,
        next_id: 0,
    };
    p.unit()
}

/// The binary operator a token spells, with its precedence (higher
/// binds tighter). Every binary operator is left-associative.
fn binary_op(tok: &Tok) -> Option<(BinOp, u8)> {
    Some(match tok {
        Tok::PipePipe => (BinOp::Or, 1),
        Tok::AmpAmp => (BinOp::And, 2),
        Tok::Pipe => (BinOp::BitOr, 3),
        Tok::Caret => (BinOp::BitXor, 4),
        Tok::Amp => (BinOp::BitAnd, 5),
        Tok::EqEq => (BinOp::Eq, 6),
        Tok::Ne => (BinOp::Ne, 6),
        Tok::Lt => (BinOp::Lt, 7),
        Tok::Le => (BinOp::Le, 7),
        Tok::Gt => (BinOp::Gt, 7),
        Tok::Ge => (BinOp::Ge, 7),
        Tok::Shl => (BinOp::Shl, 8),
        Tok::Shr => (BinOp::Shr, 8),
        Tok::Plus => (BinOp::Add, 9),
        Tok::Minus => (BinOp::Sub, 9),
        Tok::Star => (BinOp::Mul, 10),
        Tok::Slash => (BinOp::Div, 10),
        Tok::Percent => (BinOp::Rem, 10),
        _ => return None,
    })
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    next_id: u32,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> CompileError {
        CompileError::new(self.line(), message)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |t| t.line)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.kind.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), CompileError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{tok}`, found {}",
                self.peek()
                    .map_or("end of input".to_owned(), |t| format!("`{t}`"))
            )))
        }
    }

    fn ident(&mut self) -> Result<String, CompileError> {
        match self.peek() {
            Some(Tok::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other.map_or("end of input".to_owned(), |t| format!("`{t}`"))
            ))),
        }
    }

    fn fresh(&mut self, line: u32, kind: ExprKind) -> Expr {
        let id = self.next_id;
        self.next_id += 1;
        Expr { id, line, kind }
    }

    fn at_type(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::KwInt | Tok::KwChar | Tok::KwVoid | Tok::KwStruct)
        )
    }

    /// Parses a base type followed by any number of `*`s.
    fn ty(&mut self) -> Result<Type, CompileError> {
        let base = match self.bump() {
            Some(Tok::KwInt) => Type::Int,
            Some(Tok::KwChar) => Type::Char,
            Some(Tok::KwVoid) => Type::Void,
            Some(Tok::KwStruct) => {
                let name = self.ident()?;
                Type::Struct(name)
            }
            other => {
                return Err(self.err(format!(
                    "expected type, found {}",
                    other.map_or("end of input".to_owned(), |t| format!("`{t}`"))
                )))
            }
        };
        let mut t = base;
        while self.eat(&Tok::Star) {
            t = t.ptr_to();
        }
        Ok(t)
    }

    /// Wraps `base` in array dimensions `[N]...` read left to right.
    fn dims(&mut self, base: Type) -> Result<Type, CompileError> {
        let mut sizes = Vec::new();
        while self.eat(&Tok::LBracket) {
            match self.bump() {
                Some(Tok::Num(n)) if n > 0 => sizes.push(n as usize),
                _ => return Err(self.err("array dimension must be a positive integer")),
            }
            self.expect(&Tok::RBracket)?;
        }
        // int a[2][3] is an array of 2 arrays of 3.
        let mut t = base;
        for &n in sizes.iter().rev() {
            t = Type::Array(Box::new(t), n);
        }
        Ok(t)
    }

    fn unit(&mut self) -> Result<Unit, CompileError> {
        let mut unit = Unit::default();
        while self.peek().is_some() {
            if self.peek() == Some(&Tok::KwStruct) && self.is_struct_def() {
                unit.structs.push(self.struct_def()?);
                continue;
            }
            let line = self.line();
            let ty = self.ty()?;
            let name = self.ident()?;
            if self.peek() == Some(&Tok::LParen) {
                unit.funcs.push(self.func_rest(ty, name, line)?);
            } else {
                let full_ty = self.dims(ty)?;
                let init = if self.eat(&Tok::Eq) {
                    Some(self.const_int()?)
                } else {
                    None
                };
                self.expect(&Tok::Semi)?;
                unit.globals.push(Global {
                    name,
                    ty: full_ty,
                    init,
                    line,
                });
            }
        }
        unit.expr_count = self.next_id;
        Ok(unit)
    }

    /// Distinguishes `struct S { ... };` from `struct S x;` /
    /// `struct S* f(...)`.
    fn is_struct_def(&self) -> bool {
        matches!(self.peek2(), Some(Tok::Ident(_)))
            && matches!(
                self.toks.get(self.pos + 2).map(|t| &t.kind),
                Some(Tok::LBrace)
            )
    }

    fn struct_def(&mut self) -> Result<StructDef, CompileError> {
        let line = self.line();
        self.expect(&Tok::KwStruct)?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let fty = self.ty()?;
            let fname = self.ident()?;
            let fty = self.dims(fty)?;
            self.expect(&Tok::Semi)?;
            fields.push((fname, fty));
        }
        self.expect(&Tok::Semi)?;
        Ok(StructDef { name, fields, line })
    }

    fn const_int(&mut self) -> Result<i64, CompileError> {
        let neg = self.eat(&Tok::Minus);
        match self.bump() {
            Some(Tok::Num(n)) => Ok(if neg { -n } else { n }),
            _ => Err(self.err("expected constant integer initializer")),
        }
    }

    fn func_rest(&mut self, ret: Type, name: String, line: u32) -> Result<Func, CompileError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            if self.peek() == Some(&Tok::KwVoid) && self.peek2() == Some(&Tok::RParen) {
                self.pos += 2;
            } else {
                loop {
                    let pty = self.ty()?;
                    let pname = self.ident()?;
                    // Array parameters decay to pointers.
                    let pty = self.dims(pty)?.decayed();
                    params.push((pname, pty));
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
            }
        }
        if params.len() > 4 {
            return Err(CompileError::new(
                line,
                format!("function `{name}` has more than 4 parameters"),
            ));
        }
        self.expect(&Tok::LBrace)?;
        let body = self.block_body()?;
        Ok(Func {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    /// Statements up to and including the closing `}`.
    fn block_body(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut out = Vec::new();
        while !self.eat(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err(self.err("unexpected end of input inside block"));
            }
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek() {
            Some(Tok::LBrace) => {
                self.pos += 1;
                Ok(Stmt::Block(self.block_body()?))
            }
            Some(Tok::KwIf) => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let then = self.stmt_as_block()?;
                let els = if self.eat(&Tok::KwElse) {
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Some(Tok::KwWhile) => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Tok::KwFor) => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let init = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let cond = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                let step = if self.peek() == Some(&Tok::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Tok::KwReturn) => {
                self.pos += 1;
                let value = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(value, line))
            }
            Some(Tok::KwBreak) => {
                self.pos += 1;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Some(Tok::KwContinue) => {
                self.pos += 1;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ if self.at_type() => {
                let ty = self.ty()?;
                let name = self.ident()?;
                let ty = self.dims(ty)?;
                let init = if self.eat(&Tok::Eq) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Decl {
                    name,
                    ty,
                    init,
                    line,
                })
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat(&Tok::LBrace) {
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    // ---- expressions, by descending precedence ----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.assignment()
    }

    fn assignment(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let lhs = self.binary(1)?;
        if self.eat(&Tok::Eq) {
            let rhs = self.assignment()?;
            return Ok(self.fresh(line, ExprKind::Assign(Box::new(lhs), Box::new(rhs))));
        }
        Ok(lhs)
    }

    /// A chain of binary operators binding at least as tightly as
    /// `min_prec`, by precedence climbing: each operator's right
    /// operand binds tighter than the operator itself, so equal
    /// precedences associate to the left.
    fn binary(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = self.peek().and_then(binary_op) {
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let line = self.line();
            let rhs = self.binary(prec + 1)?;
            lhs = self.fresh(line, ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        let op = match self.peek() {
            Some(Tok::Minus) => Some(UnOp::Neg),
            Some(Tok::Bang) => Some(UnOp::Not),
            Some(Tok::Tilde) => Some(UnOp::BitNot),
            Some(Tok::Star) => Some(UnOp::Deref),
            Some(Tok::Amp) => Some(UnOp::Addr),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let inner = self.unary()?;
            return Ok(self.fresh(line, ExprKind::Unary(op, Box::new(inner))));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            if self.eat(&Tok::LBracket) {
                let idx = self.expr()?;
                self.expect(&Tok::RBracket)?;
                e = self.fresh(line, ExprKind::Index(Box::new(e), Box::new(idx)));
            } else if self.eat(&Tok::Dot) {
                let f = self.ident()?;
                e = self.fresh(line, ExprKind::Field(Box::new(e), f));
            } else if self.eat(&Tok::Arrow) {
                let f = self.ident()?;
                e = self.fresh(line, ExprKind::Arrow(Box::new(e), f));
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let line = self.line();
        match self.peek().cloned() {
            Some(Tok::Num(n)) => {
                self.pos += 1;
                Ok(self.fresh(line, ExprKind::Num(n)))
            }
            Some(Tok::KwSizeof) => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let t = self.ty()?;
                let t = self.dims(t)?;
                self.expect(&Tok::RParen)?;
                Ok(self.fresh(line, ExprKind::SizeOf(t)))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    Ok(self.fresh(line, ExprKind::Call(name, args)))
                } else {
                    Ok(self.fresh(line, ExprKind::Var(name)))
                }
            }
            other => Err(self.err(format!(
                "expected expression, found {}",
                other.map_or("end of input".to_owned(), |t| format!("`{t}`"))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Unit {
        parse(&lex(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_function_with_params() {
        let u = parse_src("int add(int a, int b) { return a + b; }");
        assert_eq!(u.funcs.len(), 1);
        let f = &u.funcs[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert!(matches!(f.body[0], Stmt::Return(Some(_), _)));
    }

    #[test]
    fn parses_globals_and_arrays() {
        let u = parse_src("int x = 5; int grid[4][8]; char buf[256];");
        assert_eq!(u.globals.len(), 3);
        assert_eq!(u.globals[0].init, Some(5));
        assert_eq!(
            u.globals[1].ty,
            Type::Array(Box::new(Type::Array(Box::new(Type::Int), 8)), 4)
        );
    }

    #[test]
    fn parses_struct_def_and_use() {
        let u = parse_src(
            "struct node { int value; struct node* next; };\n\
             struct node* head;\n\
             int main() { return 0; }",
        );
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(u.globals[0].ty, Type::Struct("node".into()).ptr_to());
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let u = parse_src("int f() { return 1 + 2 * 3; }");
        let Stmt::Return(Some(e), _) = &u.funcs[0].body[0] else {
            panic!()
        };
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("expected Add at root, got {:?}", e.kind)
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn assignment_is_right_associative() {
        let u = parse_src("int f() { int a; int b; a = b = 1; return a; }");
        let Stmt::Expr(e) = &u.funcs[0].body[2] else {
            panic!()
        };
        let ExprKind::Assign(_, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Assign(_, _)));
    }

    #[test]
    fn postfix_chains() {
        let u = parse_src("struct s { int f; }; int g(struct s** a) { return a[1][2].f; }");
        let Stmt::Return(Some(e), _) = &u.funcs[0].body[0] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Field(_, _)));
    }

    #[test]
    fn control_flow_statements() {
        let u = parse_src(
            "int f(int n) {\n\
               int i; int s;\n\
               s = 0;\n\
               for (i = 0; i < n; i = i + 1) {\n\
                 if (i % 2 == 0) { s = s + i; } else { continue; }\n\
                 while (s > 100) { s = s - 100; break; }\n\
               }\n\
               return s;\n\
             }",
        );
        assert!(matches!(u.funcs[0].body[3], Stmt::For { .. }));
    }

    #[test]
    fn sizeof_and_pointers() {
        let u = parse_src(
            "struct pair { int a; int b; };\n\
             int f() { int* p; p = malloc(4 * sizeof(struct pair)); return p[0]; }",
        );
        let Stmt::Expr(e) = &u.funcs[0].body[1] else {
            panic!()
        };
        let ExprKind::Assign(_, rhs) = &e.kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Call(_, _)));
    }

    #[test]
    fn too_many_params_rejected() {
        let r = parse(&lex("int f(int a, int b, int c, int d, int e) { return 0; }").unwrap());
        assert!(r.is_err());
    }

    #[test]
    fn syntax_errors_have_lines() {
        let e = parse(&lex("int f() {\n  return 1 +;\n}").unwrap()).unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn dangling_else_binds_inner() {
        let u = parse_src("int f(int a) { if (a) if (a > 1) return 2; else return 3; return 0; }");
        let Stmt::If { then, els, .. } = &u.funcs[0].body[0] else {
            panic!()
        };
        assert!(els.is_empty());
        let Stmt::If { els: inner_els, .. } = &then[0] else {
            panic!()
        };
        assert!(!inner_els.is_empty());
    }
}
