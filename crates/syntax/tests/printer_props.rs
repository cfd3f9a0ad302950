//! Printer correctness property: for *arbitrary synthesized expression
//! trees* (no `Paren` nodes — precedence must be reconstructed purely from
//! structure), `parse(print(e))` yields the same tree modulo parentheses,
//! node ids, and spans. This is the invariant the test-data mutator and the
//! baselines rely on when they synthesize ASTs.

mod strip;

use comfort_syntax::ast::*;
use comfort_syntax::{parse, print_stmt};
use proptest::prelude::*;
use strip::strip_program;

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0u32..50).prop_map(|n| build::num(n as f64)),
        Just(build::num(0.5)),
        Just(build::num(-3.0)),
        "[a-d]".prop_map(|s| build::ident(&s)),
        "[a-z]{0,6}".prop_map(|s| build::str(&s)),
        any::<bool>().prop_map(build::bool),
        Just(build::null()),
        Just(Expr::synthesized(ExprKind::This)),
    ]
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            // Binary operators across the precedence spectrum.
            (
                inner.clone(),
                prop_oneof![
                    Just(BinaryOp::Add),
                    Just(BinaryOp::Sub),
                    Just(BinaryOp::Mul),
                    Just(BinaryOp::Div),
                    Just(BinaryOp::Rem),
                    Just(BinaryOp::Pow),
                    Just(BinaryOp::Lt),
                    Just(BinaryOp::StrictEq),
                    Just(BinaryOp::BitAnd),
                    Just(BinaryOp::BitOr),
                    Just(BinaryOp::Shl),
                ],
                inner.clone()
            )
                .prop_map(|(l, op, r)| Expr::synthesized(ExprKind::Binary {
                    op,
                    left: Box::new(l),
                    right: Box::new(r),
                })),
            (inner.clone(), any::<bool>(), inner.clone()).prop_map(|(l, and, r)| {
                Expr::synthesized(ExprKind::Logical {
                    op: if and { LogicalOp::And } else { LogicalOp::Or },
                    left: Box::new(l),
                    right: Box::new(r),
                })
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| {
                Expr::synthesized(ExprKind::Cond {
                    cond: Box::new(c),
                    cons: Box::new(t),
                    alt: Box::new(e),
                })
            }),
            (
                prop_oneof![
                    Just(UnaryOp::Neg),
                    Just(UnaryOp::Not),
                    Just(UnaryOp::TypeOf),
                    Just(UnaryOp::BitNot),
                    Just(UnaryOp::Void),
                ],
                inner.clone()
            )
                .prop_map(|(op, e)| Expr::synthesized(ExprKind::Unary {
                    op,
                    operand: Box::new(e),
                })),
            (inner.clone(), "[a-z]{1,4}").prop_map(|(o, p)| {
                Expr::synthesized(ExprKind::Member { object: Box::new(o), prop: p })
            }),
            (inner.clone(), inner.clone()).prop_map(|(o, i)| {
                Expr::synthesized(ExprKind::Index { object: Box::new(o), index: Box::new(i) })
            }),
            (inner.clone(), proptest::collection::vec(inner.clone(), 0..3)).prop_map(
                |(callee, args)| Expr::synthesized(ExprKind::Call {
                    callee: Box::new(callee),
                    args,
                })
            ),
            proptest::collection::vec(inner.clone().prop_map(Some), 0..4)
                .prop_map(|items| Expr::synthesized(ExprKind::Array(items))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| { Expr::synthesized(ExprKind::Seq(vec![a, b])) }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_preserves_structure(e in expr_strategy()) {
        // Statement-ify so the parser accepts it; assignment avoids the
        // expression-statement `{`/`function` ambiguity entirely.
        let stmt = build::var_decl("probe", e);
        let printed = print_stmt(&stmt);
        let program = parse(&printed)
            .unwrap_or_else(|err| panic!("printed statement failed to parse: {err}\n{printed}"));
        let expected = Program { body: vec![stmt], ..Program::new() };
        let lhs = strip_program(&expected);
        let rhs = strip_program(&program);
        prop_assert_eq!(
            format!("{lhs:?}"),
            format!("{rhs:?}"),
            "structure changed through print/parse:\n{}",
            printed
        );
    }
}
