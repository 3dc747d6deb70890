//! Robustness: the front-ends must never panic on malformed input, the
//! interpreters must fail closed (errors, not UB), and less-traveled
//! constructs (float search values, log-scaled ranges, nested parallel
//! pragmas) behave sensibly.
//!
//! Fuzz loops are hand-rolled over the in-tree [`SplitMix64`] generator
//! (offline-only build; see README "Testing").

use locus::space::SplitMix64;

// ---- parsers never panic ----------------------------------------------------

/// A random string over a broad printable alphabet (plus newlines), the
/// deterministic stand-in for arbitrary fuzz input.
fn random_garbage(rng: &mut SplitMix64, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"abcxyzXYZ0123456789 \t\n(){}[];,.+-*/=<>!&|%#@\"'_\\~^?:$";
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.below_usize(ALPHABET.len())] as char)
        .collect()
}

fn random_soup(rng: &mut SplitMix64, lexemes: &[&str], max_len: usize) -> String {
    let len = rng.below_usize(max_len + 1);
    (0..len)
        .map(|_| lexemes[rng.below_usize(lexemes.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Arbitrary bytes: the mini-C parser returns Ok or Err, never panics.
#[test]
fn minic_parser_is_panic_free() {
    let mut rng = SplitMix64::new(0xf022);
    for _ in 0..256 {
        let _ = locus::srcir::parse_program(&random_garbage(&mut rng, 120));
    }
}

/// Arbitrary token soup assembled from the language's own lexemes.
#[test]
fn minic_parser_survives_token_soup() {
    const LEXEMES: [&str; 24] = [
        "for",
        "if",
        "else",
        "while",
        "int",
        "double",
        "return",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "+",
        "*",
        "=",
        "==",
        "<",
        "x",
        "42",
        "1.5",
        "#pragma @Locus loop=r\n",
    ];
    let mut rng = SplitMix64::new(0x50a1);
    for _ in 0..256 {
        let _ = locus::srcir::parse_program(&random_soup(&mut rng, &LEXEMES, 60));
    }
}

/// The Locus parser is equally panic-free.
#[test]
fn locus_parser_is_panic_free() {
    let mut rng = SplitMix64::new(0xf0cb);
    for _ in 0..256 {
        let _ = locus::lang::parse(&random_garbage(&mut rng, 120));
    }
}

#[test]
fn locus_parser_survives_token_soup() {
    const LEXEMES: [&str; 27] = [
        "CodeReg",
        "OptSeq",
        "Search",
        "OR",
        "if",
        "elif",
        "else",
        "def",
        "poweroftwo",
        "integer",
        "enum",
        "permutation",
        "(",
        ")",
        "{",
        "}",
        "[",
        "]",
        ";",
        ",",
        "..",
        ".",
        "=",
        "*",
        "x",
        "7",
        "\"s\"",
    ];
    let mut rng = SplitMix64::new(0x50a2);
    for _ in 0..256 {
        let _ = locus::lang::parse(&random_soup(&mut rng, &LEXEMES, 60));
    }
}

/// Hierarchical indices round-trip through their string form.
#[test]
fn hier_index_round_trips() {
    let mut rng = SplitMix64::new(0x41d3);
    for _ in 0..256 {
        let components: Vec<usize> = (0..1 + rng.below_usize(5))
            .map(|_| rng.below_usize(30))
            .collect();
        let idx = locus::srcir::HierIndex::new(components.clone());
        let parsed: locus::srcir::HierIndex = idx.to_string().parse().unwrap();
        assert_eq!(idx, parsed);
    }
}

/// Region hashing is stable across print/parse round trips.
#[test]
fn region_hash_is_print_stable() {
    for n in 1usize..40 {
        let src = format!(
            "double A[64];\nvoid kernel() {{\n#pragma @Locus loop=r\nfor (int i = 0; i < {n}; i++) A[i] = 1.0;\n}}"
        );
        let p1 = locus::srcir::parse_program(&src).unwrap();
        let p2 = locus::srcir::parse_program(&locus::srcir::print_program(&p1)).unwrap();
        let h = |p: &locus::srcir::ast::Program| {
            let regions = locus::srcir::region::find_regions(p);
            let stmt = locus::srcir::region::extract_region(p, &regions[0])
                .unwrap()
                .stmt;
            locus::srcir::hash::hash_region(&stmt)
        };
        assert_eq!(h(&p1), h(&p2), "n = {n}");
    }
}

// ---- less-traveled constructs -----------------------------------------------

#[test]
fn float_and_log_constructs_flow_through_the_space() {
    let program = locus::lang::parse(
        r#"CodeReg r {
            alpha = float(1..4);
            beta = logfloat(1..100);
            gamma = loginteger(1..1000);
            A.Use(a=alpha, b=beta, c=gamma);
        }"#,
    )
    .unwrap();
    let info = locus::lang::extract_space(&program).unwrap();
    assert_eq!(info.space.len(), 3);
    use locus::space::ParamKind;
    assert!(matches!(
        info.space.param("alpha").unwrap().kind,
        ParamKind::Float { .. }
    ));
    assert!(matches!(
        info.space.param("beta").unwrap().kind,
        ParamKind::LogFloat { .. }
    ));
    assert!(matches!(
        info.space.param("gamma").unwrap().kind,
        ParamKind::LogInteger { .. }
    ));

    // Random points decode through the interpreter.
    let mut rng = SplitMix64::new(1);
    struct Capture(Vec<String>);
    impl locus::lang::TransformHost for Capture {
        fn call(
            &mut self,
            _m: &str,
            _f: &str,
            args: &[(Option<String>, locus::lang::Value)],
        ) -> Result<locus::lang::Value, locus::lang::HostError> {
            self.0.extend(args.iter().map(|(_, v)| v.to_string()));
            Ok(locus::lang::Value::None)
        }
    }
    for _ in 0..20 {
        let point = info.space.random_point(&mut rng);
        let mut host = Capture(Vec::new());
        let mut interp = locus::lang::Interp::new(&program, &mut host, &point, &info.ids);
        interp.run_codereg("r").unwrap();
        assert_eq!(host.0.len(), 3);
    }
}

#[test]
fn nested_parallel_pragmas_are_serialized() {
    // Only the outer `omp parallel for` parallelizes; the inner pragma is
    // ignored (common OpenMP runtime default), so timing equals the
    // outer-only version.
    let nested = locus::srcir::parse_program(
        r#"double A[64][64];
        void kernel() {
            #pragma omp parallel for
            for (int i = 0; i < 64; i++) {
                #pragma omp parallel for
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] * 2.0;
            }
        }"#,
    )
    .unwrap();
    let outer_only = locus::srcir::parse_program(
        r#"double A[64][64];
        void kernel() {
            #pragma omp parallel for
            for (int i = 0; i < 64; i++) {
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] * 2.0;
            }
        }"#,
    )
    .unwrap();
    let machine =
        locus::machine::Machine::new(locus::machine::MachineConfig::scaled_small().with_cores(4));
    let a = machine.run(&nested, "kernel").unwrap();
    let b = machine.run(&outer_only, "kernel").unwrap();
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn scaled_tiny_machine_is_consistent() {
    let program = locus::corpus::stencil_program(locus::corpus::Stencil::Heat1d, 32, 4);
    let small = locus::machine::Machine::new(locus::machine::MachineConfig::scaled_small());
    let tiny = locus::machine::Machine::new(locus::machine::MachineConfig::scaled_tiny());
    let a = small.run(&program, "kernel").unwrap();
    let b = tiny.run(&program, "kernel").unwrap();
    assert_eq!(a.checksum, b.checksum, "cache size never changes results");
    assert!(b.cycles >= a.cycles, "smaller caches cannot be faster");
}

#[test]
fn runtime_errors_fail_closed_through_the_system() {
    // A variant that indexes out of bounds is a failed variant, not a
    // crash: the search continues and reports the valid ones.
    let source = locus::srcir::parse_program(
        r#"double A[32];
        void kernel() {
            #pragma @Locus loop=r
            for (int i = 0; i < 32; i++)
                A[i] = 1.0;
        }"#,
    )
    .unwrap();
    // Unrolling by 7 generates a remainder loop; forcing an interchange
    // on a depth-1 nest errors. Both failure kinds must surface cleanly.
    let locus_program = locus::lang::parse(
        r#"CodeReg r {
            {
                RoseLocus.Interchange(order=[1, 0]);
            } OR {
                RoseLocus.Unroll(loop="0", factor=7);
            }
        }"#,
    )
    .unwrap();
    let system = locus::system::LocusSystem::new(locus::machine::Machine::new(
        locus::machine::MachineConfig::scaled_small(),
    ));
    let mut search = locus::search::ExhaustiveSearch::default();
    let result = system
        .tune(&source, &locus_program, &mut search, 4)
        .unwrap();
    // Alternative 0 fails (interchange on depth-1), alternative 1 works.
    assert_eq!(result.outcome.evaluations, 2);
    assert!(result.best.is_some());
}

// ---- deep nesting is refused, never a stack overflow -------------------------

use locus::srcir::parser::MAX_NESTING_DEPTH;

/// Runs `f` on a thread with an explicit 2 MiB stack, so the nesting
/// limit is checked against a known stack budget.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(scope, f)
            .expect("spawn")
            .join()
            .expect("no stack overflow")
    })
}

/// A runnable mini-C program whose deepest point nests exactly `depth`
/// levels by the rule of [`MAX_NESTING_DEPTH`] (`depth >= 5`). Seeded
/// choices mix nested blocks, `if`s and `for`s down to a leaf
/// assignment whose right-hand side is wrapped in parentheses, unary
/// minus and casts.
fn deep_minic(rng: &mut SplitMix64, depth: usize) -> String {
    // The region loop is level 1, its block level 2.
    let mut src = String::from(
        "double A[4];\nvoid kernel() {\n#pragma @Locus loop=deep\nfor (int i0 = 0; i0 < 1; i0++) {\n",
    );
    let mut closers = 1;
    // The leaf statement's level: its lhs index and rhs open one more
    // level, each wrapper of the rhs one more again.
    let leaf = 3 + rng.below_usize(depth - 4);
    let mut level = 3;
    let mut loops = 0;
    while level < leaf {
        let room = leaf - level;
        match rng.below_usize(3) {
            0 => {
                src.push_str("{\n");
                level += 1;
            }
            1 if room >= 2 => {
                src.push_str("if (1) {\n");
                level += 2;
            }
            2 if room >= 2 => {
                loops += 1;
                src.push_str(&format!(
                    "for (int i{loops} = 0; i{loops} < 1; i{loops}++) {{\n"
                ));
                level += 2;
            }
            _ => continue,
        }
        closers += 1;
    }
    let wrappers = depth - leaf - 2;
    let mut rhs = String::from("1.5");
    for _ in 0..wrappers {
        rhs = match rng.below_usize(3) {
            0 => format!("({rhs})"),
            1 => format!("- {rhs}"),
            _ => format!("(double){rhs}"),
        };
    }
    src.push_str(&format!("A[0] = {rhs};\n"));
    src.push_str(&"}\n".repeat(closers + 1));
    src
}

/// A Locus program whose deepest point nests exactly `depth` levels
/// (`depth >= 3`): nested blocks and `if`s (one level each) around an
/// assignment whose right-hand side is wrapped in parentheses, `-` and
/// `not`.
fn deep_locus(rng: &mut SplitMix64, depth: usize) -> String {
    let mut src = String::from("CodeReg deep {\n");
    let mut closers = 0;
    let leaf = 1 + rng.below_usize(depth - 2);
    let mut level = 1;
    while level < leaf {
        src.push_str(if rng.chance(0.5) { "if 1 {\n" } else { "{\n" });
        level += 1;
        closers += 1;
    }
    let mut rhs = String::from("1");
    for _ in 0..depth - leaf - 1 {
        // `-` binds tighter than `not`, so it never wraps one bare.
        rhs = match rng.below_usize(3) {
            0 => format!("({rhs})"),
            1 if !rhs.starts_with("not") => format!("-{rhs}"),
            _ => format!("not {rhs}"),
        };
    }
    src.push_str(&format!("x = {rhs};\n"));
    src.push_str(&"}\n".repeat(closers + 1));
    src
}

/// At the nesting limit every stage that walks the tree succeeds on a
/// 2 MiB stack — parse, print, variant build, both engines; one level
/// past it, parsing fails with an error that names the limit.
#[test]
fn minic_nesting_limit_is_exact_and_safe() {
    use locus::machine::{ExecEngine, Machine, MachineConfig};

    on_small_stack(|| {
        let mut rng = SplitMix64::new(0xdee9);
        for _ in 0..4 {
            let seed = rng.next_u64();
            let at = deep_minic(&mut SplitMix64::new(seed), MAX_NESTING_DEPTH);
            let program = locus::srcir::parse_program(&at)
                .unwrap_or_else(|e| panic!("seed {seed:x}: the limit itself parses: {e}"));
            let printed = locus::srcir::print_program(&program);
            assert!(printed.contains("A[0]"));

            let tree = Machine::new(MachineConfig::scaled_tiny().with_engine(ExecEngine::Tree));
            let vm = Machine::new(MachineConfig::scaled_tiny());
            let a = tree.run(&program, "kernel").expect("tree engine runs");
            let b = vm.run(&program, "kernel").expect("register VM runs");
            assert_eq!(a.checksum, b.checksum, "seed {seed:x}");

            let system = locus::system::LocusSystem::new(vm);
            let recipe = locus::lang::parse(
                r#"CodeReg deep {
                    *Pragma.Vector(loop="innermost");
                }"#,
            )
            .unwrap();
            let prepared = system.prepare(&program, &recipe).unwrap();
            for i in 0..prepared.space.size() {
                let point = prepared.space.point_at(i);
                assert!(
                    system.build_variant(&program, &prepared, &point).is_ok(),
                    "seed {seed:x}: point {i} builds"
                );
            }

            let past = deep_minic(&mut SplitMix64::new(seed), MAX_NESTING_DEPTH + 1);
            let err = locus::srcir::parse_program(&past).expect_err("one level past the limit");
            assert!(
                err.message.contains(&MAX_NESTING_DEPTH.to_string()),
                "seed {seed:x}: {err}"
            );
        }
    });
}

/// The Locus parser shares the limit: at it, parse and print succeed;
/// one level past it, parsing fails with an error that names it.
#[test]
fn locus_nesting_limit_is_exact_and_safe() {
    on_small_stack(|| {
        let mut rng = SplitMix64::new(0x10c5);
        for _ in 0..4 {
            let seed = rng.next_u64();
            let at = deep_locus(&mut SplitMix64::new(seed), MAX_NESTING_DEPTH);
            let program = locus::lang::parse(&at)
                .unwrap_or_else(|e| panic!("seed {seed:x}: the limit itself parses: {e}"));
            assert!(locus::lang::print_program(&program).contains("x ="));
            let past = deep_locus(&mut SplitMix64::new(seed), MAX_NESTING_DEPTH + 1);
            let err = locus::lang::parse(&past).expect_err("one level past the limit");
            assert!(
                err.message.contains(&MAX_NESTING_DEPTH.to_string()),
                "seed {seed:x}: {err}"
            );
        }
    });
}

/// `locus-lint` refuses a 5,000-deep file with a message and exit 1,
/// and lints a file at the limit to completion.
#[test]
fn lint_refuses_absurd_nesting_without_crashing() {
    let dir = std::env::temp_dir();
    let deep = dir.join(format!("locus-lint-deep-{}.c", std::process::id()));
    let at = dir.join(format!("locus-lint-at-limit-{}.c", std::process::id()));
    let mut rng = SplitMix64::new(5);
    std::fs::write(&deep, deep_minic(&mut rng, 5000)).unwrap();
    std::fs::write(&at, deep_minic(&mut rng, MAX_NESTING_DEPTH)).unwrap();
    let lint = |path: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_locus-lint"))
            .arg(path)
            .output()
            .expect("run locus-lint")
    };
    let refused = lint(&deep);
    assert_eq!(refused.status.code(), Some(1), "{refused:?}");
    assert!(String::from_utf8_lossy(&refused.stdout).contains("nesting"));
    let linted = lint(&at);
    assert_eq!(linted.status.code(), Some(0), "{linted:?}");
    std::fs::remove_file(&deep).ok();
    std::fs::remove_file(&at).ok();
}
