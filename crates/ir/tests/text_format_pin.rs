//! Pins the text format: one module holding every `Inst`, `Term`,
//! `GInit` and `Const` variant (and every opcode, predicate and cast)
//! with the edge values the printer must spell exactly — `i64::MIN`,
//! negative ints, both `i1` constants, NaN, infinities and `-0.0` in both
//! float types, `null`, indirect callees, invokes and pads with and
//! without a destination, negative switch cases, exported and variadic
//! functions and externs, annotations, a negative `funcptr` addend and an
//! empty `bytes`. Its printed text and `content_fingerprint` are the
//! format every build-memo key and every stored `bld/` record depend on:
//! neither may change without a `BUILD_MEMO_VERSION` bump.

use khaos_ir::parser::parse_module;
use khaos_ir::printer::print_module;
use khaos_ir::{
    BinOp, Block, BlockId, Callee, CastKind, CmpPred, Const, ExtFunc, ExtId, FuncId, Function,
    GInit, Global, GlobalId, Inst, Linkage, LocalId, Module, Operand, PadInfo, ProvKind,
    Provenance, Term, Type, UnOp,
};

fn l(i: u32) -> LocalId {
    LocalId(i)
}

fn lo(i: u32) -> Operand {
    Operand::Local(LocalId(i))
}

fn int(ty: Type, value: i64) -> Operand {
    Operand::Const(Const::Int { value, ty })
}

fn float(ty: Type, value: f64) -> Operand {
    Operand::Const(Const::Float { value, ty })
}

fn func(name: &str, params: u32, ret_ty: Type, locals: Vec<Type>, blocks: Vec<Block>) -> Function {
    let mut f = Function::new(name, ret_ty);
    f.param_count = params;
    f.locals = locals;
    f.blocks = blocks;
    f
}

fn block(insts: Vec<Inst>, term: Term) -> Block {
    Block {
        insts,
        term,
        pad: None,
    }
}

/// The module the format is pinned on.
fn every_variant() -> Module {
    let mut m = Module::new("pin");
    m.externals = vec![
        ExtFunc {
            name: "print_i64".into(),
            params: vec![Type::I64],
            ret_ty: Type::Void,
            variadic: false,
        },
        ExtFunc {
            name: "printf".into(),
            params: vec![Type::Ptr, Type::I32],
            ret_ty: Type::I32,
            variadic: true,
        },
        ExtFunc {
            name: "only_varargs".into(),
            params: vec![],
            ret_ty: Type::F64,
            variadic: true,
        },
        ExtFunc {
            name: "nothing".into(),
            params: vec![],
            ret_ty: Type::Void,
            variadic: false,
        },
    ];
    m.globals = vec![
        Global {
            name: "table".into(),
            init: vec![
                GInit::FuncPtr {
                    func: FuncId(1),
                    addend: -8,
                },
                GInit::FuncPtr {
                    func: FuncId(0),
                    addend: 0,
                },
                GInit::Bytes(vec![0x00, 0x7f, 0x80, 0xff, 0x0a]),
                GInit::Bytes(vec![]),
                GInit::Int {
                    value: i64::MIN,
                    ty: Type::I64,
                },
                GInit::Int {
                    value: -1,
                    ty: Type::I8,
                },
                GInit::Int {
                    value: i64::MAX,
                    ty: Type::Ptr,
                },
                GInit::Float {
                    value: f64::NAN,
                    ty: Type::F64,
                },
                GInit::Float {
                    value: -0.0,
                    ty: Type::F32,
                },
                GInit::Float {
                    value: f64::NEG_INFINITY,
                    ty: Type::F64,
                },
                GInit::Float {
                    value: 1e300,
                    ty: Type::F64,
                },
                GInit::Zero(0),
                GInit::Zero(3),
            ],
            align: 16,
            exported: true,
        },
        Global::zeroed("plain", 24),
    ];

    // helper: every binary op, unary op, predicate and cast.
    let mut insts = Vec::new();
    for (i, op) in BinOp::ALL.into_iter().enumerate() {
        let float_op = matches!(op, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv);
        let (ty, rhs) = if float_op {
            (Type::F64, float(Type::F64, 0.5 + i as f64))
        } else {
            (Type::I64, int(Type::I64, -(i as i64)))
        };
        insts.push(Inst::Bin {
            op,
            ty,
            dst: l(2),
            lhs: lo(0),
            rhs,
        });
    }
    for op in [UnOp::Neg, UnOp::Not, UnOp::FNeg] {
        insts.push(Inst::Un {
            op,
            ty: Type::I32,
            dst: l(3),
            src: int(Type::I32, -7),
        });
    }
    for pred in CmpPred::ALL {
        insts.push(Inst::Cmp {
            pred,
            ty: Type::I64,
            dst: l(4),
            lhs: lo(0),
            rhs: int(Type::I64, 42),
        });
    }
    let casts = [
        (CastKind::Trunc, Type::I64, Type::I8),
        (CastKind::ZExt, Type::I1, Type::I64),
        (CastKind::SExt, Type::I16, Type::I64),
        (CastKind::FpToSi, Type::F64, Type::I32),
        (CastKind::SiToFp, Type::I64, Type::F32),
        (CastKind::FpTrunc, Type::F64, Type::F32),
        (CastKind::FpExt, Type::F32, Type::F64),
        (CastKind::PtrToInt, Type::Ptr, Type::I64),
        (CastKind::IntToPtr, Type::I64, Type::Ptr),
    ];
    for (kind, from, to) in casts {
        let src = match from {
            Type::I1 => Operand::const_bool(true),
            Type::F32 => float(Type::F32, f64::NAN),
            Type::F64 => float(Type::F64, -0.0),
            Type::Ptr => Operand::Const(Const::Null),
            ty => int(ty, i64::MIN),
        };
        insts.push(Inst::Cast {
            kind,
            dst: l(5),
            src,
            from,
            to,
        });
    }
    let mut helper = func(
        "helper",
        1,
        Type::I64,
        vec![
            Type::I64,
            Type::I1,
            Type::I64,
            Type::I32,
            Type::I1,
            Type::F64,
        ],
        vec![block(insts, Term::Ret(Some(lo(2))))],
    );
    helper.variadic = true;
    helper.provenance = Provenance {
        kind: ProvKind::Sep,
        origins: vec!["main".into(), "helper".into()],
    };

    // main: every other instruction and every terminator.
    let entry = block(
        vec![
            Inst::Select {
                ty: Type::I64,
                dst: l(0),
                cond: Operand::const_bool(false),
                on_true: int(Type::I64, i64::MIN),
                on_false: int(Type::I64, i64::MAX),
            },
            Inst::Copy {
                ty: Type::F32,
                dst: l(1),
                src: float(Type::F32, f64::INFINITY),
            },
            Inst::Alloca {
                dst: l(2),
                size: 4096,
                align: 16,
            },
            Inst::Store {
                ty: Type::I64,
                addr: lo(2),
                value: int(Type::I64, -9),
            },
            Inst::Load {
                ty: Type::I64,
                dst: l(3),
                addr: lo(2),
            },
            Inst::PtrAdd {
                dst: l(4),
                base: lo(2),
                offset: int(Type::I64, -16),
            },
            Inst::FuncAddr {
                dst: l(5),
                func: FuncId(0),
            },
            Inst::GlobalAddr {
                dst: l(6),
                global: GlobalId(1),
            },
            Inst::Call {
                dst: Some(l(3)),
                callee: Callee::Direct(FuncId(0)),
                args: vec![
                    lo(3),
                    float(Type::F64, f64::NAN),
                    Operand::Const(Const::Null),
                ],
            },
            Inst::Call {
                dst: None,
                callee: Callee::Ext(ExtId(0)),
                args: vec![lo(3)],
            },
            Inst::Call {
                dst: None,
                callee: Callee::Ext(ExtId(3)),
                args: vec![],
            },
            Inst::Call {
                dst: Some(l(7)),
                callee: Callee::Indirect(lo(5)),
                args: vec![int(Type::I8, -128), Operand::const_bool(true)],
            },
            Inst::Call {
                dst: None,
                callee: Callee::Indirect(Operand::Const(Const::Null)),
                args: vec![float(Type::F32, -0.0)],
            },
        ],
        Term::Branch {
            cond: Operand::const_bool(true),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        },
    );
    let switch = block(
        vec![],
        Term::Switch {
            ty: Type::I64,
            value: lo(3),
            cases: vec![
                (i64::MIN, BlockId(3)),
                (-1, BlockId(4)),
                (0, BlockId(5)),
                (7, BlockId(6)),
            ],
            default: BlockId(7),
        },
    );
    let empty_switch = block(
        vec![],
        Term::Switch {
            ty: Type::I8,
            value: int(Type::I8, -3),
            cases: vec![],
            default: BlockId(3),
        },
    );
    let invoke_dst = block(
        vec![],
        Term::Invoke {
            dst: Some(l(3)),
            callee: Callee::Direct(FuncId(0)),
            args: vec![int(Type::I64, -1)],
            normal: BlockId(4),
            unwind: BlockId(5),
        },
    );
    let invoke_void = block(
        vec![],
        Term::Invoke {
            dst: None,
            callee: Callee::Indirect(lo(5)),
            args: vec![],
            normal: BlockId(6),
            unwind: BlockId(6),
        },
    );
    let mut pad_dst = block(vec![], Term::Jump(BlockId(7)));
    pad_dst.pad = Some(PadInfo { dst: Some(l(3)) });
    let mut pad_bare = block(vec![], Term::Ret(Some(int(Type::I32, -2_147_483_648))));
    pad_bare.pad = Some(PadInfo { dst: None });
    let exit = block(vec![], Term::Unreachable);
    let mut main = func(
        "main",
        0,
        Type::I32,
        vec![
            Type::I64,
            Type::F32,
            Type::Ptr,
            Type::I64,
            Type::Ptr,
            Type::Ptr,
            Type::Ptr,
            Type::I8,
        ],
        vec![
            entry,
            switch,
            empty_switch,
            invoke_dst,
            invoke_void,
            pad_dst,
            pad_bare,
            exit,
        ],
    );
    main.linkage = Linkage::Exported;
    main.annotations = vec!["vulnerable".into(), "hot".into()];

    // The remaining provenance kinds, an exported variadic function, a
    // void return and a function without locals or origins.
    let mut rem = func(
        "rem",
        0,
        Type::Void,
        vec![],
        vec![block(vec![], Term::Ret(None))],
    );
    rem.provenance = Provenance {
        kind: ProvKind::Rem,
        origins: vec![],
    };
    let mut fused = func(
        "fused",
        2,
        Type::F64,
        vec![Type::F64, Type::I16],
        vec![block(vec![], Term::Ret(Some(float(Type::F64, 0.1))))],
    );
    fused.provenance.kind = ProvKind::Fused;
    fused.linkage = Linkage::Exported;
    fused.variadic = true;
    let mut tramp = func(
        "tramp",
        0,
        Type::Void,
        vec![],
        vec![block(vec![], Term::Jump(BlockId(0)))],
    );
    tramp.provenance.kind = ProvKind::Trampoline;

    m.functions = vec![helper, main, rem, fused, tramp];
    m
}

const PINNED_TEXT: &str = concat!(
    "module pin\n",
    "extern print_i64(i64) -> void\n",
    "extern printf(ptr, i32, ...) -> i32\n",
    "extern only_varargs(, ...) -> f64\n",
    "extern nothing() -> void\n",
    "global table align 16 exported {\n",
    "  funcptr @main + -8\n",
    "  funcptr @helper + 0\n",
    "  bytes 007f80ff0a\n",
    "  bytes \n",
    "  int i64 -9223372036854775808\n",
    "  int i8 -1\n",
    "  int ptr 9223372036854775807\n",
    "  float f64 NaN\n",
    "  float f32 -0.0\n",
    "  float f64 -inf\n",
    "  float f64 1e300\n",
    "  zero 0\n",
    "  zero 3\n",
    "}\n",
    "global plain align 8 {\n",
    "  zero 24\n",
    "}\n",
    "\n",
    "func helper(1) -> i64 variadic {\n",
    "  prov sep main helper\n",
    "  locals i64 i1 i64 i32 i1 f64\n",
    "bb0:\n",
    "  %2 = add i64 %0, i64:0\n",
    "  %2 = sub i64 %0, i64:-1\n",
    "  %2 = mul i64 %0, i64:-2\n",
    "  %2 = sdiv i64 %0, i64:-3\n",
    "  %2 = udiv i64 %0, i64:-4\n",
    "  %2 = srem i64 %0, i64:-5\n",
    "  %2 = urem i64 %0, i64:-6\n",
    "  %2 = and i64 %0, i64:-7\n",
    "  %2 = or i64 %0, i64:-8\n",
    "  %2 = xor i64 %0, i64:-9\n",
    "  %2 = shl i64 %0, i64:-10\n",
    "  %2 = lshr i64 %0, i64:-11\n",
    "  %2 = ashr i64 %0, i64:-12\n",
    "  %2 = fadd f64 %0, f64:13.5\n",
    "  %2 = fsub f64 %0, f64:14.5\n",
    "  %2 = fmul f64 %0, f64:15.5\n",
    "  %2 = fdiv f64 %0, f64:16.5\n",
    "  %3 = neg i32 i32:-7\n",
    "  %3 = not i32 i32:-7\n",
    "  %3 = fneg i32 i32:-7\n",
    "  %4 = cmp eq i64 %0, i64:42\n",
    "  %4 = cmp ne i64 %0, i64:42\n",
    "  %4 = cmp slt i64 %0, i64:42\n",
    "  %4 = cmp sle i64 %0, i64:42\n",
    "  %4 = cmp sgt i64 %0, i64:42\n",
    "  %4 = cmp sge i64 %0, i64:42\n",
    "  %4 = cmp ult i64 %0, i64:42\n",
    "  %4 = cmp ule i64 %0, i64:42\n",
    "  %4 = cmp ugt i64 %0, i64:42\n",
    "  %4 = cmp uge i64 %0, i64:42\n",
    "  %4 = cmp feq i64 %0, i64:42\n",
    "  %4 = cmp fne i64 %0, i64:42\n",
    "  %4 = cmp flt i64 %0, i64:42\n",
    "  %4 = cmp fle i64 %0, i64:42\n",
    "  %4 = cmp fgt i64 %0, i64:42\n",
    "  %4 = cmp fge i64 %0, i64:42\n",
    "  %5 = trunc i64:-9223372036854775808 : i64 -> i8\n",
    "  %5 = zext true : i1 -> i64\n",
    "  %5 = sext i16:-9223372036854775808 : i16 -> i64\n",
    "  %5 = fptosi f64:-0.0 : f64 -> i32\n",
    "  %5 = sitofp i64:-9223372036854775808 : i64 -> f32\n",
    "  %5 = fptrunc f64:-0.0 : f64 -> f32\n",
    "  %5 = fpext f32:NaN : f32 -> f64\n",
    "  %5 = ptrtoint null : ptr -> i64\n",
    "  %5 = inttoptr i64:-9223372036854775808 : i64 -> ptr\n",
    "  ret %2\n",
    "}\n",
    "\n",
    "func main(0) -> i32 exported {\n",
    "  prov original main\n",
    "  annot vulnerable hot\n",
    "  locals i64 f32 ptr i64 ptr ptr ptr i8\n",
    "bb0:\n",
    "  %0 = select i64 false, i64:-9223372036854775808, i64:9223372036854775807\n",
    "  %1 = copy f32 f32:inf\n",
    "  %2 = alloca 4096 align 16\n",
    "  store i64 i64:-9, %2\n",
    "  %3 = load i64, %2\n",
    "  %4 = ptradd %2, i64:-16\n",
    "  %5 = funcaddr @helper\n",
    "  %6 = globaladdr @plain\n",
    "  %3 = call @helper(%3, f64:NaN, null)\n",
    "  call ext:print_i64(%3)\n",
    "  call ext:nothing()\n",
    "  %7 = call [%5](i8:-128, true)\n",
    "  call [null](f32:-0.0)\n",
    "  br true, bb1, bb2\n",
    "bb1:\n",
    "  switch i64 %3 [-9223372036854775808 -> bb3, -1 -> bb4, 0 -> bb5, 7 -> bb6] default bb7\n",
    "bb2:\n",
    "  switch i8 i8:-3 [] default bb3\n",
    "bb3:\n",
    "  %3 = invoke @helper(i64:-1) to bb4 unwind bb5\n",
    "bb4:\n",
    "  invoke [%5]() to bb6 unwind bb6\n",
    "bb5 pad %3:\n",
    "  jmp bb7\n",
    "bb6 pad:\n",
    "  ret i32:-2147483648\n",
    "bb7:\n",
    "  unreachable\n",
    "}\n",
    "\n",
    "func rem(0) -> void {\n",
    "  prov rem \n",
    "  locals \n",
    "bb0:\n",
    "  ret\n",
    "}\n",
    "\n",
    "func fused(2) -> f64 exported variadic {\n",
    "  prov fused fused\n",
    "  locals f64 i16\n",
    "bb0:\n",
    "  ret f64:0.1\n",
    "}\n",
    "\n",
    "func tramp(0) -> void {\n",
    "  prov trampoline tramp\n",
    "  locals \n",
    "bb0:\n",
    "  jmp bb0\n",
    "}\n",
);

const PINNED_FINGERPRINT: u64 = 0x229c_09cf_958b_3d61;

#[test]
fn printed_text_is_pinned() {
    let text = print_module(&every_variant());
    assert_eq!(text, PINNED_TEXT, "the printed text moved; got:\n{text}");
}

#[test]
fn content_fingerprint_is_pinned() {
    let m = every_variant();
    assert_eq!(
        m.content_fingerprint(),
        PINNED_FINGERPRINT,
        "got {:#018x}",
        m.content_fingerprint()
    );
}

#[test]
fn parse_inverts_print() {
    let m = every_variant();
    let text = print_module(&m);
    let parsed = parse_module(&text).expect("printed text parses");
    // `Module`'s `PartialEq` has NaN != NaN; the `Debug` forms spell
    // every field (and tell -0.0 from 0.0), so they compare NaNs too.
    assert_eq!(format!("{parsed:?}"), format!("{m:?}"));
    assert_eq!(print_module(&parsed), text);
}
