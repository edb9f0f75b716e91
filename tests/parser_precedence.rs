//! Operator precedence and associativity of the MiniC parser, pinned
//! against an independent reference: unparenthesized chains over all
//! 18 binary operators must parse to the tree a shunting-yard over a
//! left-associative precedence table builds, with expression ids in
//! post-order and each binary node on the line of its right operand's
//! first token.

use dl_minic::lexer::lex;
use dl_minic::parser::parse;
use dl_minic::{BinOp, Expr, ExprKind, Stmt};
use dl_testkit::{cases, Rng};

/// The binary operators, loosest first, with C's precedence levels.
const TABLE: [(&str, BinOp, u8); 18] = [
    ("||", BinOp::Or, 1),
    ("&&", BinOp::And, 2),
    ("|", BinOp::BitOr, 3),
    ("^", BinOp::BitXor, 4),
    ("&", BinOp::BitAnd, 5),
    ("==", BinOp::Eq, 6),
    ("!=", BinOp::Ne, 6),
    ("<", BinOp::Lt, 7),
    ("<=", BinOp::Le, 7),
    (">", BinOp::Gt, 7),
    (">=", BinOp::Ge, 7),
    ("<<", BinOp::Shl, 8),
    (">>", BinOp::Shr, 8),
    ("+", BinOp::Add, 9),
    ("-", BinOp::Sub, 9),
    ("*", BinOp::Mul, 10),
    ("/", BinOp::Div, 10),
    ("%", BinOp::Rem, 10),
];

/// Prefix operators an operand may carry; they bind tighter than any
/// binary operator.
const PREFIX: [&str; 5] = ["-", "!", "~", "*", "&"];

/// An expression tree reduced to what precedence decides: operands
/// by position in the chain, binary nodes with their line.
#[derive(Debug, PartialEq)]
enum Tree {
    Operand(usize),
    Binary(BinOp, u32, Box<Tree>, Box<Tree>),
}

/// One operand of a chain: its prefix operators and the line of its
/// first token.
struct Operand {
    prefixes: usize,
    line: u32,
}

/// The reference parse of `operands[0] ops[0] operands[1] ...`
/// (`ops` index into [`TABLE`]): a shunting-yard that pops every
/// stacked operator of equal or higher precedence before pushing.
fn reference(operands: &[Operand], ops: &[usize]) -> Tree {
    fn reduce(out: &mut Vec<(Tree, u32)>, op: usize) {
        let (rhs, rhs_line) = out.pop().expect("rhs");
        let (lhs, lhs_line) = out.pop().expect("lhs");
        let node = Tree::Binary(TABLE[op].1, rhs_line, Box::new(lhs), Box::new(rhs));
        out.push((node, lhs_line));
    }
    // Each entry keeps the line of its subtree's first token.
    let mut out = vec![(Tree::Operand(0), operands[0].line)];
    let mut stack: Vec<usize> = Vec::new();
    for (k, &op) in ops.iter().enumerate() {
        while let Some(&top) = stack.last() {
            if TABLE[top].2 < TABLE[op].2 {
                break;
            }
            reduce(&mut out, top);
            stack.pop();
        }
        stack.push(op);
        out.push((Tree::Operand(k + 1), operands[k + 1].line));
    }
    while let Some(top) = stack.pop() {
        reduce(&mut out, top);
    }
    out.pop().expect("one tree").0
}

/// The parsed expression as a [`Tree`], checking each operand's
/// prefix operators on the way; `ids` collects expression ids in
/// post-order.
fn shape(e: &Expr, operands: &[Operand], ids: &mut Vec<u32>) -> Tree {
    let tree = match &e.kind {
        ExprKind::Binary(op, l, r) => {
            let l = shape(l, operands, ids);
            let r = shape(r, operands, ids);
            Tree::Binary(*op, e.line, Box::new(l), Box::new(r))
        }
        _ => {
            let mut inner = e;
            let mut prefixes = 0;
            while let ExprKind::Unary(_, x) = &inner.kind {
                prefixes += 1;
                inner = x;
            }
            let ExprKind::Var(name) = &inner.kind else {
                panic!("unexpected operand {e:?}");
            };
            let k: usize = name[1..].parse().expect("operand name");
            assert_eq!(prefixes, operands[k].prefixes, "prefixes of {name}");
            assert_eq!(e.line, operands[k].line, "line of {name}");
            post_order_ids(e, ids);
            return Tree::Operand(k);
        }
    };
    ids.push(e.id);
    tree
}

fn post_order_ids(e: &Expr, ids: &mut Vec<u32>) {
    if let ExprKind::Unary(_, x) = &e.kind {
        post_order_ids(x, ids);
    }
    ids.push(e.id);
}

/// Parses the chain with operators `ops`, laying its tokens out with
/// random prefixes and line breaks, and checks it against the
/// reference.
fn check_chain(rng: &mut Rng, ops: &[usize]) {
    let mut src = String::from("int f() {\nreturn");
    let mut line = 2;
    let mut token = |rng: &mut Rng, src: &mut String, text: &str| -> u32 {
        if rng.chance(0.2) {
            src.push('\n');
            line += 1;
        } else {
            src.push(' ');
        }
        src.push_str(text);
        line
    };
    let mut operands = Vec::new();
    for k in 0..=ops.len() {
        if k > 0 {
            token(rng, &mut src, TABLE[ops[k - 1]].0);
        }
        let prefixes = if rng.chance(0.25) {
            1 + rng.index(2)
        } else {
            0
        };
        let mut first = None;
        for _ in 0..prefixes {
            let prefix = *rng.pick(&PREFIX);
            first.get_or_insert(token(rng, &mut src, prefix));
        }
        let l = token(rng, &mut src, &format!("v{k}"));
        operands.push(Operand {
            prefixes,
            line: first.unwrap_or(l),
        });
    }
    src.push_str(";\n}\n");
    let unit = parse(&lex(&src).expect("lexes")).expect("parses");
    let Stmt::Return(Some(e), _) = &unit.funcs[0].body[0] else {
        panic!("expected a return in {src}");
    };
    let mut ids = Vec::new();
    let got = shape(e, &operands, &mut ids);
    assert_eq!(got, reference(&operands, ops), "in {src}");
    let want: Vec<u32> = (0..unit.expr_count).collect();
    assert_eq!(ids, want, "expression ids not in post-order in {src}");
}

/// All 18 operators in one chain, loosest first and tightest first,
/// then random chains.
#[test]
fn binary_chains_follow_the_precedence_table() {
    cases(512, 0x9a55, |rng| {
        let all: Vec<usize> = (0..TABLE.len()).collect();
        check_chain(rng, &all);
        let reversed: Vec<usize> = all.iter().rev().copied().collect();
        check_chain(rng, &reversed);
        let n = 1 + rng.index(12);
        let ops: Vec<usize> = (0..n).map(|_| rng.index(TABLE.len())).collect();
        check_chain(rng, &ops);
    });
}

/// Every operator associates to the left: `a op b op c` is
/// `(a op b) op c`.
#[test]
fn every_binary_operator_is_left_associative() {
    for (text, op, _) in TABLE {
        let src = format!("int f() {{ return a {text} b {text} c; }}");
        let unit = parse(&lex(&src).expect("lexes")).expect("parses");
        let Stmt::Return(Some(e), _) = &unit.funcs[0].body[0] else {
            panic!("expected a return in {src}");
        };
        let ExprKind::Binary(root, lhs, rhs) = &e.kind else {
            panic!("expected a binary root in {src}");
        };
        assert_eq!(*root, op, "{src}");
        assert!(
            matches!(&lhs.kind, ExprKind::Binary(inner, _, _) if *inner == op),
            "{src}: left operand {lhs:?}"
        );
        assert!(matches!(&rhs.kind, ExprKind::Var(v) if v == "c"), "{src}");
    }
}
