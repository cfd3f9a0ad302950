//! Printer correctness property: for *arbitrary synthesized expression
//! trees* (no `Paren` nodes — precedence must be reconstructed purely from
//! structure), `parse(print(e))` yields the same tree modulo parentheses,
//! node ids, and spans. This is the invariant the test-data mutator and the
//! baselines rely on when they synthesize ASTs.

mod strip;

use comfort_syntax::ast::*;
use comfort_syntax::visit::{walk_program, Visitor};
use comfort_syntax::{parse, print_program, print_program_spans, print_stmt};
use proptest::prelude::*;
use strip::strip_program;

/// Every expression of a program, in pre-order.
fn expressions(program: &Program) -> Vec<&Expr> {
    struct All<'p>(Vec<&'p Expr>);
    impl<'p> Visitor<'p> for All<'p> {
        fn visit_expr(&mut self, e: &'p Expr) {
            self.0.push(e);
        }
    }
    let mut all = All(Vec::new());
    walk_program(program, &mut all);
    all.0
}

/// `var probe = <e>;` with its ids, spans and parentheses stripped.
fn probe_structure(e: Expr) -> String {
    format!(
        "{:?}",
        strip_program(&Program { body: vec![build::var_decl("probe", e)], ..Program::new() })
    )
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `print_program_spans` prints what `print_program` prints, and each
    /// expression's range holds that expression: re-parsed, it has the
    /// same structure, and replacing an argument or an initializer in the
    /// tree prints as replacing its range in the text.
    #[test]
    fn spans_locate_every_expression(e in expr_strategy(), f in expr_strategy()) {
        let call = build::call(build::ident("print"), vec![e.clone(), f.clone()]);
        let mut program = Program {
            body: vec![build::var_decl("probe", e), build::expr_stmt(call), build::expr_stmt(f)],
            ..Program::new()
        };
        program.renumber();
        let (text, spans) = print_program_spans(&program);
        prop_assert_eq!(&text, &print_program(&program));
        let spans = spans.expect("renumbered ids are unique");
        for expr in expressions(&program) {
            let snippet = &text[spans.get(expr.id).expect("every expression has a range")];
            let reparsed = parse(&format!("var probe = ({snippet});"))
                .unwrap_or_else(|err| panic!("{snippet:?} does not parse: {err}"));
            prop_assert_eq!(
                format!("{:?}", strip_program(&reparsed)),
                probe_structure(expr.clone()),
                "range text {:?} in\n{}",
                snippet,
                text
            );
        }

        let zero = build::num(0.0);
        let StmtKind::Decl { decls, .. } = &program.body[0].kind else { unreachable!() };
        let StmtKind::Expr(Expr { kind: ExprKind::Call { callee, args }, .. }) =
            &program.body[1].kind
        else {
            unreachable!()
        };
        prop_assert_eq!(text.as_bytes()[spans.get(callee.id).expect("printed").end], b'(');
        let slots = [decls[0].init.as_ref().expect("initialized").id, args[0].id, args[1].id];
        for (slot, id) in slots.into_iter().enumerate() {
            let mut edited = program.clone();
            match (slot, &mut edited.body[..]) {
                (0, [Stmt { kind: StmtKind::Decl { decls, .. }, .. }, ..]) => {
                    decls[0].init = Some(zero.clone());
                }
                (i, [_, Stmt { kind: StmtKind::Expr(call), .. }, ..]) => {
                    let ExprKind::Call { args, .. } = &mut call.kind else { unreachable!() };
                    args[i - 1] = zero.clone();
                }
                _ => unreachable!(),
            }
            let range = spans.get(id).expect("printed");
            let spliced = format!("{}0{}", &text[..range.start], &text[range.end..]);
            prop_assert_eq!(spliced, print_program(&edited));
        }
    }
}

#[test]
fn spans_are_withheld_when_ids_repeat() {
    let mut program = parse("print(\"a\".slice(1));\nprint(\"b\".slice(2));\n").expect("parses");
    assert!(print_program_spans(&program).1.is_some());
    let first = expressions(&program)[0].id;
    if let StmtKind::Expr(e) = &mut program.body[1].kind {
        e.id = first;
    }
    let (text, spans) = print_program_spans(&program);
    assert_eq!(text, print_program(&program));
    assert!(spans.is_none(), "a repeated id names two ranges");
    let synthesized = Program {
        body: vec![build::expr_stmt(build::call(build::ident("f"), vec![build::num(1.0)]))],
        ..Program::new()
    };
    assert!(print_program_spans(&synthesized).1.is_none(), "NodeId::DUMMY is past node_count");
}
