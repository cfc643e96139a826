//! The seeded program generator.

use khaos_ir::builder::FunctionBuilder;
use khaos_ir::{
    BinOp, Callee, CastKind, CmpPred, ExtFunc, ExtId, FuncId, GInit, Global, Module, Operand, Type,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for one synthetic program.
#[derive(Clone, Debug)]
pub struct ProgramProfile {
    /// Program (module/binary) name.
    pub name: String,
    /// Number of worker functions (before `main` and helpers).
    pub functions: usize,
    /// Average body complexity: structured constructs per function.
    pub constructs: usize,
    /// Probability a construct is a loop (hot code).
    pub loop_rate: f64,
    /// Probability a function gets an early-return cold path.
    pub cold_path_rate: f64,
    /// Calls emitted per function body (to later functions).
    pub call_density: f64,
    /// Fraction of functions that are float-flavoured.
    pub float_rate: f64,
    /// Probability a function works on a stack buffer.
    pub memory_rate: f64,
    /// Number of functions published in the indirect-call table
    /// (0 disables indirect calls).
    pub table_size: usize,
    /// Include the invoke/landing-pad (C++ EH) pair.
    pub exceptions: bool,
    /// Include the setjmp/longjmp pair.
    pub setjmp: bool,
    /// Fraction of functions that self-recurse (depth-bounded).
    pub recursion_rate: f64,
    /// Fraction of exported (API) functions.
    pub exported_rate: f64,
    /// Number of global variables.
    pub globals: usize,
    /// Iterations of `main`'s driver loop (scales simulated runtime).
    pub work_scale: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProgramProfile {
    fn default() -> Self {
        ProgramProfile {
            name: "program".into(),
            functions: 24,
            constructs: 6,
            loop_rate: 0.3,
            cold_path_rate: 0.6,
            call_density: 1.5,
            float_rate: 0.2,
            memory_rate: 0.5,
            table_size: 4,
            exceptions: true,
            setjmp: false,
            recursion_rate: 0.1,
            exported_rate: 0.15,
            globals: 4,
            work_scale: 40,
            seed: 1,
        }
    }
}

struct Externs {
    print_i64: ExtId,
    printf: ExtId,
    input: ExtId,
    throw_exc: ExtId,
    setjmp: ExtId,
    longjmp: ExtId,
}

fn declare_externs(m: &mut Module) -> Externs {
    let e = |m: &mut Module, name: &str, params: Vec<Type>, ret: Type, variadic: bool| {
        m.declare_external(ExtFunc {
            name: name.into(),
            params,
            ret_ty: ret,
            variadic,
        })
    };
    Externs {
        print_i64: e(m, "print_i64", vec![Type::I64], Type::Void, false),
        printf: e(m, "printf", vec![Type::Ptr], Type::I32, true),
        input: e(m, "input_i64", vec![], Type::I64, false),
        throw_exc: e(m, "throw_exc", vec![Type::I64], Type::Void, false),
        setjmp: e(m, "setjmp", vec![Type::Ptr], Type::I32, false),
        longjmp: e(m, "longjmp", vec![Type::Ptr, Type::I32], Type::Void, false),
    }
}

/// Per-function body builder state.
struct BodyGen<'a> {
    fb: FunctionBuilder,
    rng: &'a mut StdRng,
    /// Initialized integer locals available as operands.
    ints: Vec<khaos_ir::LocalId>,
    /// Initialized float locals.
    floats: Vec<khaos_ir::LocalId>,
    /// Stack buffer (pointer local, size) when present.
    buffer: Option<(khaos_ir::LocalId, u32)>,
    /// Globals available (id, size).
    globals: Vec<(khaos_ir::GlobalId, u32)>,
}

impl<'a> BodyGen<'a> {
    fn int_operand(&mut self) -> Operand {
        if self.ints.is_empty() || self.rng.gen_bool(0.3) {
            // A small house pool of constants: real programs reuse the
            // same masks and small literals everywhere.
            let pool = [0i64, 1, 2, 4, 8, 15, 16, 31, 255];
            Operand::const_int(Type::I64, pool[self.rng.gen_range(0..pool.len())])
        } else {
            Operand::local(self.ints[self.rng.gen_range(0..self.ints.len())])
        }
    }

    fn float_operand(&mut self) -> Operand {
        if self.floats.is_empty() || self.rng.gen_bool(0.3) {
            Operand::const_float(Type::F64, self.rng.gen_range(-8.0..8.0))
        } else {
            Operand::local(self.floats[self.rng.gen_range(0..self.floats.len())])
        }
    }

    /// A handful of integer ALU operations.
    fn arith(&mut self, count: usize) {
        for _ in 0..count {
            let op = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Xor,
                BinOp::And,
                BinOp::Or,
                BinOp::Shl,
                BinOp::AShr,
            ][self.rng.gen_range(0..8)];
            let a = self.int_operand();
            let b = match op {
                // Keep shifts in range.
                BinOp::Shl | BinOp::AShr => Operand::const_int(Type::I64, self.rng.gen_range(0..8)),
                _ => self.int_operand(),
            };
            let r = self.fb.bin(op, Type::I64, a, b);
            self.ints.push(r);
        }
    }

    /// A guarded division (divisor forced odd, so never zero).
    fn division(&mut self) {
        let a = self.int_operand();
        let d0 = self.int_operand();
        let odd = self
            .fb
            .bin(BinOp::Or, Type::I64, d0, Operand::const_int(Type::I64, 1));
        let r = self.fb.bin(BinOp::SDiv, Type::I64, a, Operand::local(odd));
        self.ints.push(r);
    }

    fn float_arith(&mut self, count: usize) {
        for _ in 0..count {
            let op = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv][self.rng.gen_range(0..4)];
            let a = self.float_operand();
            let b = self.float_operand();
            let r = self.fb.bin(op, Type::F64, a, b);
            self.floats.push(r);
        }
    }

    /// Read-modify-write on the stack buffer at a masked offset.
    fn memory_op(&mut self) {
        let Some((buf, size)) = self.buffer else {
            return;
        };
        let slots = (size / 8) as i64;
        if self.rng.gen_bool(0.5) {
            // Constant offset.
            let off = self.rng.gen_range(0..slots) * 8;
            let p = self
                .fb
                .ptradd(Operand::local(buf), Operand::const_int(Type::I64, off));
            let v = self.fb.load(Type::I64, Operand::local(p));
            let addend = self.int_operand();
            let w = self
                .fb
                .bin(BinOp::Add, Type::I64, Operand::local(v), addend);
            self.fb
                .store(Type::I64, Operand::local(w), Operand::local(p));
            self.ints.push(w);
        } else {
            // Dynamic masked index.
            let i = self.int_operand();
            let masked = self.fb.bin(
                BinOp::And,
                Type::I64,
                i,
                Operand::const_int(Type::I64, slots - 1),
            );
            let off = self.fb.bin(
                BinOp::Shl,
                Type::I64,
                Operand::local(masked),
                Operand::const_int(Type::I64, 3),
            );
            let p = self.fb.ptradd(Operand::local(buf), Operand::local(off));
            let v = self.fb.load(Type::I64, Operand::local(p));
            let value = self.int_operand();
            self.fb.store(Type::I64, value, Operand::local(p));
            self.ints.push(v);
        }
    }

    /// Read-modify-write on a random global.
    fn global_op(&mut self) {
        if self.globals.is_empty() {
            return;
        }
        let (g, size) = self.globals[self.rng.gen_range(0..self.globals.len())];
        let slots = (size / 8).max(1) as i64;
        let off = self.rng.gen_range(0..slots) * 8;
        let ga = self.fb.globaladdr(g);
        let p = self
            .fb
            .ptradd(Operand::local(ga), Operand::const_int(Type::I64, off));
        let v = self.fb.load(Type::I64, Operand::local(p));
        let mask = self.int_operand();
        let w = self.fb.bin(BinOp::Xor, Type::I64, Operand::local(v), mask);
        self.fb
            .store(Type::I64, Operand::local(w), Operand::local(p));
        self.ints.push(v);
    }

    /// if/else diamond; arms may early-return.
    fn if_else(&mut self, ret_ty: Type, depth: usize) {
        let a = self.int_operand();
        let b = self.int_operand();
        let pred = [CmpPred::Slt, CmpPred::Sgt, CmpPred::Eq, CmpPred::Ne][self.rng.gen_range(0..4)];
        let c = self.fb.cmp(pred, Type::I64, a, b);
        let then_bb = self.fb.new_block();
        let else_bb = self.fb.new_block();
        let join = self.fb.new_block();
        self.fb.branch(Operand::local(c), then_bb, else_bb);

        self.fb.switch_to(then_bb);
        {
            let n = self.rng.gen_range(1..3);
            self.arith(n);
        }
        if depth > 0 && self.rng.gen_bool(0.3) {
            self.if_else(ret_ty, depth - 1);
        }
        if self.rng.gen_bool(0.25) {
            let v = self.ret_value(ret_ty);
            self.fb.ret(v);
        } else {
            self.fb.jump(join);
        }

        self.fb.switch_to(else_bb);
        {
            let n = self.rng.gen_range(1..3);
            self.arith(n);
        }
        self.fb.jump(join);
        self.fb.switch_to(join);
    }

    /// Bounded counting loop with a small body.
    fn bounded_loop(&mut self, depth: usize) {
        let bound = self.rng.gen_range(4..=12i64);
        let i = self.fb.new_local(Type::I64);
        self.fb.copy_to(i, Operand::const_int(Type::I64, 0));
        let head = self.fb.new_block();
        let body = self.fb.new_block();
        let exit = self.fb.new_block();
        self.fb.jump(head);
        self.fb.switch_to(head);
        let c = self.fb.cmp(
            CmpPred::Slt,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, bound),
        );
        self.fb.branch(Operand::local(c), body, exit);
        self.fb.switch_to(body);
        self.ints.push(i);
        {
            let n = self.rng.gen_range(1..4);
            self.arith(n);
        }
        // Real hot loops are memory-bound; keep the simulated ones so too.
        self.memory_op();
        if self.rng.gen_bool(0.5) {
            self.memory_op();
        }
        if self.rng.gen_bool(0.3) {
            self.global_op();
        }
        if depth > 0 && self.rng.gen_bool(0.25) {
            self.bounded_loop(depth - 1);
        }
        let ni = self.fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(i),
            Operand::const_int(Type::I64, 1),
        );
        self.fb.copy_to(i, Operand::local(ni));
        self.fb.jump(head);
        self.fb.switch_to(exit);
    }

    /// Multi-way dispatch.
    fn switch_construct(&mut self) {
        let v = self.int_operand();
        let masked = self
            .fb
            .bin(BinOp::And, Type::I64, v, Operand::const_int(Type::I64, 3));
        let cases = self.rng.gen_range(2..=3usize);
        let blocks: Vec<_> = (0..cases).map(|_| self.fb.new_block()).collect();
        let default = self.fb.new_block();
        let join = self.fb.new_block();
        self.fb.switch(
            Type::I64,
            Operand::local(masked),
            blocks
                .iter()
                .enumerate()
                .map(|(k, b)| (k as i64, *b))
                .collect(),
            default,
        );
        for b in &blocks {
            self.fb.switch_to(*b);
            {
                let n = self.rng.gen_range(1..3);
                self.arith(n);
            }
            self.fb.jump(join);
        }
        self.fb.switch_to(default);
        self.arith(1);
        self.fb.jump(join);
        self.fb.switch_to(join);
    }

    fn ret_value(&mut self, ret_ty: Type) -> Option<Operand> {
        match ret_ty {
            Type::Void => None,
            Type::F64 => {
                let v = self.float_operand();
                Some(v)
            }
            Type::I64 => Some(self.int_operand()),
            Type::I32 => {
                let v = self.int_operand();
                let t = self.fb.cast(CastKind::Trunc, v, Type::I64, Type::I32);
                Some(Operand::local(t))
            }
            other => unreachable!("unsupported return type {other}"),
        }
    }
}

/// One worker function's interface.
#[derive(Clone, Debug)]
struct FnPlan {
    name: String,
    params: Vec<Type>,
    ret: Type,
    recursive: bool,
    exported: bool,
    float_flavoured: bool,
    vulnerable: bool,
}

/// Builds the module for `profile`.
pub fn generate(profile: &ProgramProfile) -> Module {
    generate_with_vulnerable(profile, &[])
}

/// [`generate`], additionally planting functions with the given names
/// that are annotated `"vulnerable"` (Table 3 stand-ins).
pub fn generate_with_vulnerable(profile: &ProgramProfile, vulnerable: &[&str]) -> Module {
    let mut rng = StdRng::seed_from_u64(profile.seed);
    let mut m = Module::new(profile.name.clone());
    let ext = declare_externs(&mut m);

    // Globals.
    let mut globals = Vec::new();
    for gi in 0..profile.globals {
        let size = [8u32, 16, 32, 64][rng.gen_range(0..4)];
        let id = m.push_global(Global {
            name: format!("g_state_{gi}"),
            init: vec![
                GInit::Int {
                    value: rng.gen_range(0..100),
                    ty: Type::I64,
                },
                GInit::Zero(size.saturating_sub(8)),
            ],
            align: 8,
            exported: false,
        });
        globals.push((id, size));
    }
    // printf format string.
    let fmt = m.push_global(Global {
        name: "fmt_result".into(),
        init: vec![GInit::Bytes(b"result %ld\n\0".to_vec())],
        align: 1,
        exported: false,
    });

    // ---- Plan the worker functions. ----
    let total = profile.functions.max(vulnerable.len() + 2);
    let mut plans: Vec<FnPlan> = Vec::with_capacity(total);
    // Table members need a uniform (i64) -> i64 signature.
    let table_members: Vec<usize> = if profile.table_size > 0 {
        (0..profile.table_size.min(total / 2).max(1))
            .map(|k| k * 2)
            .collect()
    } else {
        Vec::new()
    };
    for i in 0..total {
        let in_table = table_members.contains(&i);
        let vulnerable_name = vulnerable.get(i).copied();
        let float_flavoured = !in_table && rng.gen_bool(profile.float_rate);
        let nparams = if in_table {
            1
        } else {
            rng.gen_range(1..=4usize)
        };
        let mut params = vec![Type::I64];
        for _ in 1..nparams {
            params.push(if float_flavoured && rng.gen_bool(0.5) {
                Type::F64
            } else if rng.gen_bool(0.3) {
                Type::I32
            } else {
                Type::I64
            });
        }
        let ret = if in_table {
            Type::I64
        } else if float_flavoured && rng.gen_bool(0.5) {
            Type::F64
        } else if rng.gen_bool(0.2) {
            Type::Void
        } else if rng.gen_bool(0.3) {
            Type::I32
        } else {
            Type::I64
        };
        plans.push(FnPlan {
            name: vulnerable_name
                .map(String::from)
                .unwrap_or_else(|| realistic_name(&mut rng, i)),
            params,
            ret,
            recursive: !in_table && rng.gen_bool(profile.recursion_rate),
            // Vulnerable third-party functions are library API: exported,
            // so whole-program optimization cannot discard them.
            exported: vulnerable_name.is_some() || rng.gen_bool(profile.exported_rate),
            float_flavoured,
            vulnerable: vulnerable_name.is_some(),
        });
    }

    // Reserve ids (bodies reference later functions by id).
    let ids: Vec<FuncId> = (0..total).map(FuncId::new).collect();

    // ---- Build the worker bodies. ----
    for (i, plan) in plans.iter().enumerate() {
        let mut fb = FunctionBuilder::new(&plan.name, plan.ret);
        let mut param_ids = Vec::new();
        for &t in &plan.params {
            param_ids.push(fb.add_param(t));
        }
        if plan.exported {
            fb.set_exported();
        }
        if plan.vulnerable {
            fb.annotate("vulnerable");
        }

        let mut g = BodyGen {
            fb,
            rng: &mut rng,
            ints: Vec::new(),
            floats: Vec::new(),
            buffer: None,
            globals: globals.clone(),
        };
        // Seed available operands from the parameters.
        for (k, &t) in plan.params.iter().enumerate() {
            match t {
                Type::I64 => g.ints.push(param_ids[k]),
                Type::F64 => g.floats.push(param_ids[k]),
                Type::I32 => {
                    let w = g.fb.cast(
                        CastKind::SExt,
                        Operand::local(param_ids[k]),
                        Type::I32,
                        Type::I64,
                    );
                    g.ints.push(w);
                }
                _ => {}
            }
        }
        if g.rng.gen_bool(profile.memory_rate) {
            let size = [32u32, 64][g.rng.gen_range(0..2)];
            let buf = g.fb.alloca(size);
            // Initialize every slot: reading uninitialized stack memory
            // would make program output depend on stale frame contents
            // (and thus on code layout), breaking differential testing.
            g.fb.store(Type::I64, Operand::local(param_ids[0]), Operand::local(buf));
            for slot in 1..(size / 8) as i64 {
                let p =
                    g.fb.ptradd(Operand::local(buf), Operand::const_int(Type::I64, slot * 8));
                g.fb.store(
                    Type::I64,
                    Operand::const_int(Type::I64, slot),
                    Operand::local(p),
                );
            }
            g.buffer = Some((buf, size));
        }

        // Recursion: depth-bounded self call on a masked counter.
        if plan.recursive {
            let d = g.fb.bin(
                BinOp::And,
                Type::I64,
                Operand::local(param_ids[0]),
                Operand::const_int(Type::I64, 7),
            );
            let base = g.fb.new_block();
            let rec = g.fb.new_block();
            let cont = g.fb.new_block();
            let c = g.fb.cmp(
                CmpPred::Sle,
                Type::I64,
                Operand::local(d),
                Operand::const_int(Type::I64, 0),
            );
            g.fb.branch(Operand::local(c), base, rec);
            g.fb.switch_to(base);
            g.fb.jump(cont);
            g.fb.switch_to(rec);
            let dm1 = g.fb.bin(
                BinOp::Sub,
                Type::I64,
                Operand::local(d),
                Operand::const_int(Type::I64, 1),
            );
            let mut args: Vec<Operand> = vec![Operand::local(dm1)];
            for &t in plan.params.iter().skip(1) {
                args.push(Operand::Const(khaos_ir::Const::zero(t)));
            }
            let r = g.fb.call(ids[i], plan.ret, args);
            if let (Some(r), Type::I64) = (r, plan.ret) {
                g.ints.push(r);
            }
            g.fb.jump(cont);
            g.fb.switch_to(cont);
        }

        // Cold early-return path.
        if g.rng.gen_bool(profile.cold_path_rate) {
            let c = g.fb.cmp(
                CmpPred::Sgt,
                Type::I64,
                Operand::local(param_ids[0]),
                Operand::const_int(Type::I64, 1 << 40),
            );
            let cold1 = g.fb.new_block();
            let cold2 = g.fb.new_block();
            let warm = g.fb.new_block();
            g.fb.branch(Operand::local(c), cold1, warm);
            g.fb.switch_to(cold1);
            g.arith(2);
            g.global_op();
            g.fb.jump(cold2);
            g.fb.switch_to(cold2);
            g.arith(2);
            let v = g.ret_value(plan.ret);
            g.fb.ret(v);
            g.fb.switch_to(warm);
        }

        // Main body constructs. Real codebases are stylistically uniform —
        // most functions follow one of a few shapes (check, loop over
        // data, update state, return). Drawing the construct sequence
        // from a small set of house patterns (instead of independently
        // random picks) reproduces that self-similarity, which is what
        // makes nearest-neighbour function matching brittle in practice.
        let constructs = profile.constructs.max(1);
        // House style: one dominant pattern per program, with a minority
        // of functions deviating.
        let pattern = if g.rng.gen_bool(0.75) {
            (profile.seed % 4) as u8
        } else {
            g.rng.gen_range(0..4u8)
        };
        for ci in 0..constructs {
            let kind = match (pattern, ci % 4) {
                (0, 0) | (1, 1) | (2, 2) => 0u8, // loop
                (0, 1) | (1, 2) | (3, 0) => 1,   // if/else
                (0, 2) | (2, 0) | (3, 2) => 2,   // memory + global
                (1, 0) | (2, 3) | (3, 3) => 3,   // switch
                _ => 4,                          // arithmetic
            };
            let roll: f64 = g.rng.gen();
            match kind {
                0 if roll < profile.loop_rate + 0.5 => g.bounded_loop(1),
                1 => g.if_else(plan.ret, 1),
                2 => {
                    g.memory_op();
                    g.global_op();
                }
                3 if roll < 0.6 => g.switch_construct(),
                3 => g.division(),
                _ if plan.float_flavoured => g.float_arith(2),
                _ => g.arith(2),
            }
            // Calls into later functions (forward DAG, no accidental cycles).
            if g.rng
                .gen_bool((profile.call_density / constructs as f64).min(0.9))
                && i + 1 < total
            {
                let callee = g.rng.gen_range(i + 1..total);
                let cp = plans[callee].clone();
                let mut args = Vec::new();
                for (k, &t) in cp.params.iter().enumerate() {
                    match t {
                        Type::I64 => {
                            // First arg doubles as depth/work for callees.
                            let raw = g.int_operand();
                            let masked = g.fb.bin(
                                BinOp::And,
                                Type::I64,
                                raw,
                                Operand::const_int(Type::I64, 63),
                            );
                            let _ = k;
                            args.push(Operand::local(masked));
                        }
                        Type::I32 => {
                            let raw = g.int_operand();
                            let t32 = g.fb.cast(CastKind::Trunc, raw, Type::I64, Type::I32);
                            args.push(Operand::local(t32));
                        }
                        Type::F64 => args.push(g.float_operand()),
                        other => unreachable!("unplanned param type {other}"),
                    }
                }
                let r = g.fb.call(ids[callee], cp.ret, args);
                match (r, cp.ret) {
                    (Some(r), Type::I64) => g.ints.push(r),
                    (Some(r), Type::I32) => {
                        let w =
                            g.fb.cast(CastKind::SExt, Operand::local(r), Type::I32, Type::I64);
                        g.ints.push(w);
                    }
                    (Some(r), Type::F64) => g.floats.push(r),
                    _ => {}
                }
            }
        }

        // Fold available values into the return.
        let mut acc = g.fb.iconst(Type::I64, 0x9e37);
        let folds = g.ints.len().min(4);
        for k in 0..folds {
            let v = g.ints[g.ints.len() - 1 - k];
            acc = g.fb.bin(
                BinOp::Xor,
                Type::I64,
                Operand::local(acc),
                Operand::local(v),
            );
        }
        if !g.floats.is_empty() && plan.ret == Type::F64 {
            let v = g.float_operand();
            g.fb.ret(Some(v));
        } else {
            match plan.ret {
                Type::Void => g.fb.ret(None),
                Type::I64 => g.fb.ret(Some(Operand::local(acc))),
                Type::I32 => {
                    let t =
                        g.fb.cast(CastKind::Trunc, Operand::local(acc), Type::I64, Type::I32);
                    g.fb.ret(Some(Operand::local(t)));
                }
                Type::F64 => {
                    let f =
                        g.fb.cast(CastKind::SiToFp, Operand::local(acc), Type::I64, Type::F64);
                    g.fb.ret(Some(Operand::local(f)));
                }
                other => unreachable!("unsupported return type {other}"),
            }
        }
        let id = m.push_function(g.fb.finish());
        debug_assert_eq!(id, ids[i]);
    }

    // ---- Indirect-call table + dispatcher. ----
    let mut dispatcher: Option<FuncId> = None;
    if !table_members.is_empty() {
        let tbl = m.push_global(Global {
            name: "fn_table".into(),
            init: table_members
                .iter()
                .map(|&k| GInit::FuncPtr {
                    func: ids[k],
                    addend: 0,
                })
                .collect(),
            align: 8,
            exported: false,
        });
        let n = table_members.len() as i64;
        let mut fb = FunctionBuilder::new("dispatch", Type::I64);
        let sel = fb.add_param(Type::I64);
        let ga = fb.globaladdr(tbl);
        // Power-of-two table? Use modulo via masked compare chain instead:
        // idx = sel % n  (n odd-safe via srem; n > 0 constant).
        let idx = fb.bin(
            BinOp::SRem,
            Type::I64,
            Operand::local(sel),
            Operand::const_int(Type::I64, n),
        );
        let pos = fb.bin(
            BinOp::Mul,
            Type::I64,
            Operand::local(idx),
            Operand::const_int(Type::I64, 8),
        );
        // srem can be negative; take abs via masking to [0, n): add n, rem again.
        let shifted = fb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(pos),
            Operand::const_int(Type::I64, (n - 1) * 8),
        );
        let wrapped = fb.bin(
            BinOp::SRem,
            Type::I64,
            Operand::local(shifted),
            Operand::const_int(Type::I64, n * 8),
        );
        let p = fb.ptradd(Operand::local(ga), Operand::local(wrapped));
        let fp = fb.load(Type::Ptr, Operand::local(p));
        let arg = fb.bin(
            BinOp::And,
            Type::I64,
            Operand::local(sel),
            Operand::const_int(Type::I64, 31),
        );
        let r = fb
            .call_indirect(Operand::local(fp), Type::I64, vec![Operand::local(arg)])
            .expect("i64 ret");
        fb.ret(Some(Operand::local(r)));
        dispatcher = Some(m.push_function(fb.finish()));
    }

    // ---- EH pair. ----
    let mut guard: Option<FuncId> = None;
    if profile.exceptions {
        let mut th = FunctionBuilder::new("may_throw", Type::Void);
        let x = th.add_param(Type::I64);
        let yes = th.new_block();
        let no = th.new_block();
        let masked = th.bin(
            BinOp::And,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 15),
        );
        let c = th.cmp(
            CmpPred::Eq,
            Type::I64,
            Operand::local(masked),
            Operand::const_int(Type::I64, 3),
        );
        th.branch(Operand::local(c), yes, no);
        th.switch_to(yes);
        th.call_ext(ext.throw_exc, Type::Void, vec![Operand::local(x)]);
        th.ret(None);
        th.switch_to(no);
        th.ret(None);
        let thrower = m.push_function(th.finish());

        let mut gd = FunctionBuilder::new("guarded_call", Type::I64);
        let x = gd.add_param(Type::I64);
        let exc = gd.new_local(Type::I64);
        let normal = gd.new_block();
        let pad = gd.new_pad_block(Some(exc));
        gd.invoke(
            Callee::Direct(thrower),
            Type::Void,
            vec![Operand::local(x)],
            normal,
            pad,
        );
        gd.switch_to(normal);
        let ok = gd.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 1),
        );
        gd.ret(Some(Operand::local(ok)));
        gd.switch_to(pad);
        let neg = gd.un(khaos_ir::UnOp::Neg, Type::I64, Operand::local(exc));
        gd.ret(Some(Operand::local(neg)));
        guard = Some(m.push_function(gd.finish()));
    }

    // ---- setjmp pair. ----
    let mut sj_entry: Option<FuncId> = None;
    if profile.setjmp {
        // jumper(buf, x): if (x & 7) == 5 longjmp(buf, x | 1)
        let mut jp = FunctionBuilder::new("maybe_longjmp", Type::Void);
        let buf = jp.add_param(Type::Ptr);
        let x = jp.add_param(Type::I64);
        let yes = jp.new_block();
        let no = jp.new_block();
        let masked = jp.bin(
            BinOp::And,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 7),
        );
        let c = jp.cmp(
            CmpPred::Eq,
            Type::I64,
            Operand::local(masked),
            Operand::const_int(Type::I64, 5),
        );
        jp.branch(Operand::local(c), yes, no);
        jp.switch_to(yes);
        let val = jp.bin(
            BinOp::Or,
            Type::I64,
            Operand::local(x),
            Operand::const_int(Type::I64, 1),
        );
        let v32 = jp.cast(CastKind::Trunc, Operand::local(val), Type::I64, Type::I32);
        jp.call_ext(
            ext.longjmp,
            Type::Void,
            vec![Operand::local(buf), Operand::local(v32)],
        );
        jp.ret(None);
        jp.switch_to(no);
        jp.ret(None);
        let jumper = m.push_function(jp.finish());

        let mut sj = FunctionBuilder::new("checkpoint", Type::I64);
        let x = sj.add_param(Type::I64);
        let buf = sj.alloca(8);
        let r = sj
            .call_ext(ext.setjmp, Type::I32, vec![Operand::local(buf)])
            .expect("i32");
        let first = sj.new_block();
        let resumed = sj.new_block();
        let c = sj.cmp(
            CmpPred::Eq,
            Type::I32,
            Operand::local(r),
            Operand::const_int(Type::I32, 0),
        );
        sj.branch(Operand::local(c), first, resumed);
        sj.switch_to(first);
        sj.call(
            jumper,
            Type::Void,
            vec![Operand::local(buf), Operand::local(x)],
        );
        sj.ret(Some(Operand::const_int(Type::I64, 0)));
        sj.switch_to(resumed);
        let w = sj.cast(CastKind::SExt, Operand::local(r), Type::I32, Type::I64);
        sj.ret(Some(Operand::local(w)));
        sj_entry = Some(m.push_function(sj.finish()));
    }

    // ---- main: the driver loop. ----
    let mut mb = FunctionBuilder::new("main", Type::I64);
    mb.set_exported();
    let acc = mb.new_local(Type::I64);
    let i = mb.new_local(Type::I64);
    mb.copy_to(acc, Operand::const_int(Type::I64, 0));
    mb.copy_to(i, Operand::const_int(Type::I64, 0));
    let seed_in = mb.call_ext(ext.input, Type::I64, vec![]).expect("i64");
    let head = mb.new_block();
    let body = mb.new_block();
    let tail = mb.new_block();
    mb.jump(head);
    mb.switch_to(head);
    let c = mb.cmp(
        CmpPred::Slt,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, profile.work_scale as i64),
    );
    mb.branch(Operand::local(c), body, tail);
    mb.switch_to(body);
    // Rotate over the first few workers.
    let roots: Vec<usize> = (0..total.min(4)).collect();
    let mixed = mb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(i),
        Operand::local(seed_in),
    );
    for &r in &roots {
        let plan = &plans[r];
        let mut args = Vec::new();
        for (k, &t) in plan.params.iter().enumerate() {
            match t {
                Type::I64 => {
                    let a = mb.bin(
                        BinOp::And,
                        Type::I64,
                        Operand::local(mixed),
                        Operand::const_int(Type::I64, 63 - k as i64),
                    );
                    args.push(Operand::local(a));
                }
                Type::I32 => {
                    let a = mb.cast(CastKind::Trunc, Operand::local(mixed), Type::I64, Type::I32);
                    args.push(Operand::local(a));
                }
                Type::F64 => {
                    let a = mb.cast(
                        CastKind::SiToFp,
                        Operand::local(mixed),
                        Type::I64,
                        Type::F64,
                    );
                    args.push(Operand::local(a));
                }
                other => unreachable!("unplanned param type {other}"),
            }
        }
        let ret = mb.call(ids[r], plan.ret, args);
        match (ret, plan.ret) {
            (Some(v), Type::I64) => {
                let nx = mb.bin(
                    BinOp::Xor,
                    Type::I64,
                    Operand::local(acc),
                    Operand::local(v),
                );
                mb.copy_to(acc, Operand::local(nx));
            }
            (Some(v), Type::I32) => {
                let w = mb.cast(CastKind::SExt, Operand::local(v), Type::I32, Type::I64);
                let nx = mb.bin(
                    BinOp::Add,
                    Type::I64,
                    Operand::local(acc),
                    Operand::local(w),
                );
                mb.copy_to(acc, Operand::local(nx));
            }
            (Some(v), Type::F64) => {
                let w = mb.cast(CastKind::FpToSi, Operand::local(v), Type::F64, Type::I64);
                let nx = mb.bin(
                    BinOp::Add,
                    Type::I64,
                    Operand::local(acc),
                    Operand::local(w),
                );
                mb.copy_to(acc, Operand::local(nx));
            }
            _ => {}
        }
    }
    if let Some(d) = dispatcher {
        let r = mb
            .call(d, Type::I64, vec![Operand::local(mixed)])
            .expect("i64");
        let nx = mb.bin(
            BinOp::Xor,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
        mb.copy_to(acc, Operand::local(nx));
    }
    if let Some(gd) = guard {
        let r = mb
            .call(gd, Type::I64, vec![Operand::local(mixed)])
            .expect("i64");
        let nx = mb.bin(
            BinOp::Add,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
        mb.copy_to(acc, Operand::local(nx));
    }
    if let Some(sj) = sj_entry {
        let r = mb
            .call(sj, Type::I64, vec![Operand::local(mixed)])
            .expect("i64");
        let nx = mb.bin(
            BinOp::Xor,
            Type::I64,
            Operand::local(acc),
            Operand::local(r),
        );
        mb.copy_to(acc, Operand::local(nx));
    }
    let ni = mb.bin(
        BinOp::Add,
        Type::I64,
        Operand::local(i),
        Operand::const_int(Type::I64, 1),
    );
    mb.copy_to(i, Operand::local(ni));
    mb.jump(head);
    mb.switch_to(tail);
    mb.call_ext(ext.print_i64, Type::Void, vec![Operand::local(acc)]);
    let fp = mb.globaladdr(fmt);
    mb.call_ext(
        ext.printf,
        Type::I32,
        vec![Operand::local(fp), Operand::local(acc)],
    );
    mb.ret(Some(Operand::local(acc)));
    m.push_function(mb.finish());

    debug_assert!(
        khaos_ir::verify::verify_module(&m).is_ok(),
        "generator produced invalid module `{}`: {:?}",
        profile.name,
        khaos_ir::verify::verify_module(&m).err()
    );
    m
}

/// Plausible C-style function names (real binaries have diverse symbol
/// names; a shared prefix would make name-based matching artificially
/// hard or easy).
fn realistic_name(rng: &mut StdRng, index: usize) -> String {
    const VERBS: [&str; 24] = [
        "parse", "read", "write", "init", "update", "compute", "hash", "alloc", "release", "check",
        "scan", "emit", "load", "store", "merge", "split", "encode", "decode", "open", "find",
        "insert", "remove", "copy", "flush",
    ];
    const NOUNS: [&str; 20] = [
        "buffer", "node", "table", "state", "block", "header", "record", "queue", "tree", "cache",
        "stream", "chunk", "page", "index", "token", "frame", "entry", "list", "map", "field",
    ];
    let v = VERBS[rng.gen_range(0..VERBS.len())];
    let n = NOUNS[rng.gen_range(0..NOUNS.len())];
    // The index suffix keeps names unique within a module.
    format!("{v}_{n}_{index}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use khaos_vm::run_to_completion;

    #[test]
    fn default_profile_builds_valid_runnable_module() {
        let m = generate(&ProgramProfile::default());
        khaos_ir::verify::assert_valid(&m);
        let r = run_to_completion(&m, &[7]).expect("runs");
        assert!(!r.output.is_empty());
    }

    #[test]
    fn vulnerable_functions_are_planted() {
        let m = generate_with_vulnerable(
            &ProgramProfile {
                name: "vuln".into(),
                ..Default::default()
            },
            &["bad_memcpy", "bad_parse"],
        );
        for n in ["bad_memcpy", "bad_parse"] {
            let (_, f) = m.function_by_name(n).expect("planted");
            assert!(f.has_annotation("vulnerable"));
        }
    }

    #[test]
    fn setjmp_profile_runs() {
        let p = ProgramProfile {
            setjmp: true,
            seed: 5,
            ..Default::default()
        };
        let m = generate(&p);
        khaos_ir::verify::assert_valid(&m);
        run_to_completion(&m, &[3]).expect("setjmp workload runs");
    }

    #[test]
    fn work_scale_scales_cycles() {
        let small = generate(&ProgramProfile {
            work_scale: 10,
            ..Default::default()
        });
        let big = generate(&ProgramProfile {
            work_scale: 100,
            ..Default::default()
        });
        let rs = run_to_completion(&small, &[1]).unwrap();
        let rb = run_to_completion(&big, &[1]).unwrap();
        assert!(
            rb.cycles > rs.cycles * 5,
            "{} !> {}",
            rb.cycles,
            rs.cycles * 5
        );
    }

    #[test]
    fn different_seeds_different_programs() {
        let a = generate(&ProgramProfile {
            seed: 1,
            ..Default::default()
        });
        let b = generate(&ProgramProfile {
            seed: 2,
            ..Default::default()
        });
        assert_ne!(a, b);
    }
}
