//! Differential property tests: the expression bytecode VM
//! ([`Program`]) against the AST interpreter ([`Expr::eval_in`]), and the
//! masked lane interpreter ([`LaneEval`]) against per-lane [`Program::eval`].
//!
//! The VM's contract is **full `Result` equality** with the AST walk on
//! every input row — values, presence, laziness of `if`/`?` branches, the
//! early exit of builtin calls on absent arguments, and exact error
//! payloads (division by zero, type errors, unbound identifiers, bad
//! arities, unknown functions). The generators deliberately produce all of
//! those: mixed int/bool operands, an identifier that is never bound, bad
//! `clamp` arities and an unknown function.

use std::sync::Arc;

use automode_kernel::lanes::encode;
use automode_kernel::ops::{BinOp, UnOp};
use automode_kernel::{LaneKernel, LaneSlice, LaneStore, Message, Value};
use automode_lang::{Expr, LaneEval, Program, Scratch, SliceScope};
use proptest::prelude::*;

/// The fixed input-port order programs are compiled against. `q` is
/// deliberately missing: referencing it exercises `Unbound` errors and
/// their laziness (an unbound ident in an untaken branch must not fire).
fn port_names() -> Vec<String> {
    ["a", "b", "c", "p"].map(String::from).to_vec()
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        4 => (0i64..20).prop_map(Expr::lit),
        1 => Just(Expr::lit(Value::Bool(true))),
        1 => Just(Expr::lit(Value::Bool(false))),
        4 => Just(Expr::ident("a")),
        4 => Just(Expr::ident("b")),
        3 => Just(Expr::ident("c")),
        2 => Just(Expr::ident("p")),
        1 => Just(Expr::ident("q")),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Add, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Sub, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Mul, x, y)),
            // Division and modulo: zero denominators produce runtime errors
            // whose payloads must match exactly.
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Div, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Min, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Max, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Lt, x, y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::bin(BinOp::Eq, x, y)),
            inner.clone().prop_map(|x| Expr::un(UnOp::Neg, x)),
            inner.clone().prop_map(|x| Expr::un(UnOp::Abs, x)),
            inner.clone().prop_map(|x| Expr::un(UnOp::Not, x)),
            // `if` with an arbitrary condition: exercises type errors on
            // non-Boolean conditions and lazy branch evaluation.
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| Expr::ite(c, t, e)),
            inner.clone().prop_map(|x| Expr::Present(Box::new(x))),
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Expr::OrElse(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, y, z)| Expr::Call("clamp".to_string(), vec![x, y, z])),
            // Wrong arity and unknown function: error paths that must fire
            // only after every argument evaluated present.
            (inner.clone(), inner.clone())
                .prop_map(|(x, y)| Expr::Call("clamp".to_string(), vec![x, y])),
            inner.prop_map(|x| Expr::Call("mystery".to_string(), vec![x])),
        ]
    })
}

/// A present int message, or absent (1-in-4).
fn arb_int_msg() -> BoxedStrategy<Message> {
    prop_oneof![
        3 => (-10i64..10).prop_map(Message::present),
        1 => Just(Message::Absent),
    ]
}

/// One input row over ports `a, b, c` (ints) and `p` (bool), each
/// independently absent.
fn arb_row() -> impl Strategy<Value = Vec<Message>> {
    let p = prop_oneof![
        3 => any::<bool>().prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    (arb_int_msg(), arb_int_msg(), arb_int_msg(), p).prop_map(|(a, b, c, p)| vec![a, b, c, p])
}

/// A present int or float message, or absent (1-in-4): floats drive the
/// kernel's uniform-`f64` column paths, ints its mixed and error paths.
fn arb_num_msg() -> BoxedStrategy<Message> {
    prop_oneof![
        2 => (-10i64..10).prop_map(Message::present),
        2 => (-10i64..10).prop_map(|x| Message::present(x as f64 * 0.5)),
        1 => Just(Message::Absent),
    ]
}

/// One lane's row for the lane interpreter: numeric `a, b, c`, bool `p`.
fn arb_lane_row() -> impl Strategy<Value = Vec<Message>> {
    let p = prop_oneof![
        3 => any::<bool>().prop_map(Message::present),
        1 => Just(Message::Absent),
    ];
    (arb_num_msg(), arb_num_msg(), arb_num_msg(), p).prop_map(|(a, b, c, p)| vec![a, b, c, p])
}

/// A message's lane encoding, so NaN payloads compare bit for bit.
fn bits_of(m: &Message) -> (u8, u64, Message) {
    let (mut tag, mut bits, mut other) = (0u8, 0u64, Message::Absent);
    encode(m, &mut tag, &mut bits, &mut other);
    if tag != automode_kernel::lanes::TAG_OTHER {
        other = Message::Absent;
    }
    (tag, bits, other)
}

proptest! {
    /// The VM reproduces the AST interpreter's full `Result` on arbitrary
    /// expressions and rows; when the strict fast-path summary applies and
    /// every strict port is absent, the result is absent.
    #[test]
    fn vm_matches_ast_interpreter(e in arb_expr(), row in arb_row()) {
        let names = port_names();
        let program = Program::compile(&e, &names);
        let mut scratch = Scratch::new();
        let vm = program.eval(&row, &mut scratch);
        let ast = e.eval_in(&SliceScope::new(&names, &row));
        prop_assert_eq!(&vm, &ast);
        if let Some(ports) = program.strict_ports() {
            // Empty `ports` means a constant program — always present, the
            // all-absent contract is only claimed for non-empty port sets
            // (`ExprBlock::clock_behavior` maps empty to `Opaque`).
            if !ports.is_empty() && ports.iter().all(|&p| row[p as usize].is_absent()) {
                prop_assert_eq!(&vm, &Ok(Message::Absent));
            }
        }
    }

    /// Register reuse across evaluations never leaks state: interleaving
    /// rows through one `Scratch` gives the same results as fresh buffers.
    #[test]
    fn scratch_reuse_is_deterministic(
        e in arb_expr(),
        r1 in arb_row(),
        r2 in arb_row(),
    ) {
        let names = port_names();
        let program = Program::compile(&e, &names);
        let mut shared = Scratch::new();
        let first = program.eval(&r1, &mut shared);
        let second = program.eval(&r2, &mut shared);
        let again = program.eval(&r1, &mut shared);
        prop_assert_eq!(&first, &again);
        prop_assert_eq!(&first, &program.eval(&r1, &mut Scratch::new()));
        prop_assert_eq!(&second, &program.eval(&r2, &mut Scratch::new()));
    }

}

proptest! {
    // Most generated expressions fail on some lane; the extra cases keep
    // enough all-lane and masked comparisons to exercise branch merging.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The masked lane interpreter agrees with per-lane evaluation on
    /// every active lane: it fails exactly when some active lane's
    /// `Program::eval` fails, and with the failing lanes masked off it
    /// yields every other lane's result bit for bit. Inactive lanes carry arbitrary rows (garbage
    /// the interpreter must neither read into an error nor act on), and a
    /// second call on the same interpreter checks no state leaks across
    /// calls.
    #[test]
    fn lane_eval_matches_program_eval(
        e in arb_expr(),
        rows in prop::collection::vec(arb_lane_row(), 1..10),
        mask in prop::collection::vec(any::<bool>(), 10),
    ) {
        let names = port_names();
        let program = Arc::new(Program::compile(&e, &names));
        let k = rows.len();
        let mut cols = LaneStore::new(names.len(), k);
        for (l, row) in rows.iter().enumerate() {
            for (p, m) in row.iter().enumerate() {
                cols.set(p, l, m);
            }
        }
        let ports: Vec<LaneSlice<'_>> = (0..names.len()).map(|p| cols.slice(p)).collect();
        let mut lanes = LaneEval::new(Arc::clone(&program), Arc::from("prop"), k);
        let all = vec![true; k];
        for active in [&mask[..k], &all[..]] {
            let mut out = LaneStore::new(1, k);
            let got = lanes.step_lanes(0, &ports, &mut out.slice_mut(0), active);
            let mut scratch = Scratch::new();
            let expect: Vec<Option<Result<Message, _>>> = rows
                .iter()
                .zip(active)
                .map(|(row, &a)| a.then(|| program.eval(row, &mut scratch)))
                .collect();
            let any_err = expect.iter().flatten().any(Result::is_err);
            prop_assert_eq!(got.is_err(), any_err);
            // Without the failing lanes the call succeeds, and every
            // remaining lane carries its own result.
            let ok: Vec<bool> = expect.iter().map(|e| matches!(e, Some(Ok(_)))).collect();
            let mut out = LaneStore::new(1, k);
            let got = lanes.step_lanes(0, &ports, &mut out.slice_mut(0), &ok);
            prop_assert!(got.is_ok());
            for (l, want) in expect.iter().enumerate() {
                if let Some(Ok(m)) = want {
                    prop_assert_eq!(bits_of(&out.decode(0, l)), bits_of(m));
                }
            }
        }
    }
}
