//! Random MIPS assembly generation for property tests.
//!
//! Emits assembly *strings* (this crate stays dependency-free); the
//! consuming test parses them with `dl_mips::parse::parse_asm`. Two
//! families:
//!
//! - [`arb_flow_program`]: multi-function, call-free programs rich in
//!   loads and arbitrary intra-function control flow — the original
//!   input space of the predictor-equivalence suite.
//! - [`arb_call_program`]: call-bearing programs — direct `jal`
//!   calls, calls inside counted loops, and call chains nested two or
//!   more functions deep — the input space of the interprocedural
//!   reuse-profile engine. Calls only target higher-numbered
//!   functions, so generated call graphs are acyclic by construction
//!   and every mid-chain function saves/restores `$ra`.
//!
//! [`arb_program`] mixes the two families, so one `cases` loop
//! exercises both.

use crate::Rng;

/// Appends 1–5 random body instructions to `s`: stack reloads,
/// register-based (possibly chased) dereferences, global accesses,
/// pointer arithmetic, and stores — the instruction mix the
/// classifiers and predictors disagree over.
fn block_body(rng: &mut Rng, s: &mut String) {
    for _ in 0..1 + rng.index(5) {
        let (d, a, c) = (rng.index(8), rng.index(8), rng.index(8));
        match rng.index(8) {
            0 => s.push_str(&format!("\tlw $t{d}, {}($sp)\n", 4 * rng.index(16))),
            1 => s.push_str(&format!("\tlw $t{d}, {}($t{a})\n", 4 * rng.index(8))),
            2 => s.push_str(&format!("\tlw $t{d}, {}($gp)\n", 4 * rng.index(16))),
            3 => s.push_str(&format!(
                "\taddiu $t{d}, $t{a}, {}\n",
                rng.range_i32(-8, 64)
            )),
            4 => s.push_str(&format!("\tsll $t{d}, $t{a}, {}\n", 1 + rng.index(3))),
            5 => s.push_str(&format!("\tli $t{d}, {}\n", rng.index(4096))),
            6 => s.push_str(&format!("\tsw $t{d}, {}($sp)\n", 4 * rng.index(16))),
            _ => s.push_str(&format!("\taddu $t{d}, $t{a}, $t{c}\n")),
        }
    }
}

/// A random multi-function, call-free program with arbitrary
/// intra-function control flow (forward and backward jumps and
/// branches between 1–4 blocks per function).
#[must_use]
pub fn arb_flow_program(rng: &mut Rng) -> String {
    let nfuncs = 1 + rng.index(3);
    let mut s = String::new();
    for fi in 0..nfuncs {
        if fi == 0 {
            s.push_str("main:\n");
        } else {
            s.push_str(&format!("f{fi}:\n"));
        }
        let nblocks = 1 + rng.index(4);
        for b in 0..nblocks {
            s.push_str(&format!(".L{fi}_{b}:\n"));
            block_body(rng, &mut s);
            let target = rng.index(nblocks);
            match rng.index(3) {
                0 => {}
                1 => s.push_str(&format!("\tj .L{fi}_{target}\n")),
                _ => s.push_str(&format!(
                    "\tbne $t{}, $zero, .L{fi}_{target}\n",
                    rng.index(8)
                )),
            }
        }
        s.push_str("\tjr $ra\n");
    }
    s
}

/// A random call-bearing program: `main` plus 1–3 callees. Every
/// non-leaf function calls exactly one higher-numbered function —
/// either as a plain direct call or inside a counted loop (trip
/// 2–7) — so chains nest up to three functions deep and the call
/// graph is acyclic. Mid-chain functions save and restore `$ra`
/// around their call.
#[must_use]
pub fn arb_call_program(rng: &mut Rng) -> String {
    let nfuncs = 2 + rng.index(3);
    let mut s = String::new();
    for fi in 0..nfuncs {
        if fi == 0 {
            s.push_str("main:\n");
        } else {
            s.push_str(&format!("f{fi}:\n"));
        }
        let makes_calls = fi + 1 < nfuncs;
        let saves_ra = fi > 0 && makes_calls;
        if saves_ra {
            s.push_str("\taddiu $sp, $sp, -8\n\tsw $ra, 4($sp)\n");
        }
        block_body(rng, &mut s);
        if makes_calls {
            let callee = fi + 1 + rng.index(nfuncs - fi - 1);
            if rng.chance(0.5) {
                // Call inside a counted loop: the shape interprocedural
                // summary inlining must price (callee footprint re-walked
                // every iteration). A saved register holds the counter so
                // the callee cannot clobber it.
                let trip = 2 + rng.index(6);
                s.push_str(&format!("\tli $s{fi}, {trip}\n.Lcall{fi}:\n"));
                s.push_str(&format!("\tjal f{callee}\n"));
                s.push_str(&format!(
                    "\taddiu $s{fi}, $s{fi}, -1\n\tbgtz $s{fi}, .Lcall{fi}\n"
                ));
            } else {
                s.push_str(&format!("\tjal f{callee}\n"));
            }
            block_body(rng, &mut s);
        }
        if saves_ra {
            s.push_str("\tlw $ra, 4($sp)\n\taddiu $sp, $sp, 8\n");
        }
        s.push_str("\tjr $ra\n");
    }
    s
}

/// A random program from either family: call-free control flow or
/// call-bearing, 50/50.
#[must_use]
pub fn arb_program(rng: &mut Rng) -> String {
    if rng.chance(0.5) {
        arb_call_program(rng)
    } else {
        arb_flow_program(rng)
    }
}

/// A strided scan: `trips` loads stepping `stride` bytes through the
/// global segment, the regular access pattern a PC-indexed stride
/// prefetcher must lock onto (and PLRU sweeps evict predictably).
/// `stride` is rounded up to a positive multiple of 4.
#[must_use]
pub fn strided_scan_program(stride: u32, trips: u32) -> String {
    let stride = stride.next_multiple_of(4).max(4);
    let trips = trips.max(1);
    format!(
        "main:\n\
         \tli $t0, {trips}\n\
         \tmove $t1, $gp\n\
         .Lscan:\n\
         \tlw $t2, 0($t1)\n\
         \taddiu $t1, $t1, {stride}\n\
         \taddiu $t0, $t0, -1\n\
         \tbgtz $t0, .Lscan\n\
         \tli $v0, 10\n\
         \tli $a0, 0\n\
         \tsyscall\n"
    )
}

/// A pointer chase: builds an in-memory linked chain whose nodes sit
/// `stride` bytes apart in the global segment, then walks it `trips`
/// times. Each hop's address comes from the previous load, so no
/// stride is observable at the chasing site — the anti-pattern the
/// prefetcher must *not* win on. `stride` is rounded up to a positive
/// multiple of 8 (node = next pointer + payload word).
#[must_use]
pub fn pointer_chase_program(stride: u32, nodes: u32, trips: u32) -> String {
    let stride = stride.next_multiple_of(8).max(8);
    let nodes = nodes.max(2);
    let trips = trips.max(1);
    format!(
        "main:\n\
         \tli $t0, {nodes}\n\
         \tmove $t1, $gp\n\
         .Lbuild:\n\
         \taddiu $t2, $t1, {stride}\n\
         \tsw $t2, 0($t1)\n\
         \tsw $t0, 4($t1)\n\
         \tmove $t1, $t2\n\
         \taddiu $t0, $t0, -1\n\
         \tbgtz $t0, .Lbuild\n\
         \tsw $gp, 0($t1)\n\
         \tli $t3, {trips}\n\
         .Lwalk:\n\
         \tmove $t1, $gp\n\
         \tli $t0, {nodes}\n\
         .Lhop:\n\
         \tlw $t4, 4($t1)\n\
         \tlw $t1, 0($t1)\n\
         \taddiu $t0, $t0, -1\n\
         \tbgtz $t0, .Lhop\n\
         \taddiu $t3, $t3, -1\n\
         \tbgtz $t3, .Lwalk\n\
         \tli $v0, 10\n\
         \tli $a0, 0\n\
         \tsyscall\n"
    )
}

/// A stack-slot-heavy program: dense runs of `$sp`-relative loads and
/// stores over small 4-aligned offsets, so neighbouring accesses
/// mostly share a cache line (the MRU-hit case the block engine's fast
/// path answers with one compare), interleaved with ALU work and the
/// occasional run-breaker between runs (an access through a different
/// base register, a balanced `$sp` push/pop, or an aliased copy of
/// `$sp`). The whole body sits in a counted loop so the same decoded
/// blocks replay many times, and the program always exits cleanly:
/// every address is a small in-bounds `$sp`/`$gp` offset, so the only
/// trap it can raise is a step limit.
#[must_use]
pub fn arb_stack_heavy_program(rng: &mut Rng) -> String {
    let trips = 2 + rng.index(7);
    let mut s = String::new();
    s.push_str("main:\n");
    // The initial `$sp` has little headroom above it; open a frame so
    // every positive offset below lands on mapped stack.
    s.push_str("\taddiu $sp, $sp, -64\n");
    s.push_str(&format!("\tli $s0, {trips}\n.Louter:\n"));
    let nruns = 2 + rng.index(3);
    for run in 0..nruns {
        // One dense run: 3–8 `$sp`-relative accesses whose offsets
        // cluster inside a 56-byte window, so neighbours frequently
        // share a cache line.
        let base_off = 4 * rng.index(6);
        for _ in 0..3 + rng.index(6) {
            let d = rng.index(8);
            let off = base_off + 4 * rng.index(10);
            if rng.chance(0.5) {
                s.push_str(&format!("\tlw $t{d}, {off}($sp)\n"));
            } else {
                s.push_str(&format!("\tsw $t{d}, {off}($sp)\n"));
            }
            if rng.chance(0.4) {
                let (a, b) = (rng.index(8), rng.index(8));
                match rng.index(3) {
                    0 => s.push_str(&format!("\taddiu $t{a}, $t{b}, {}\n", rng.range_i32(-8, 8))),
                    1 => s.push_str(&format!("\tsll $t{a}, $t{b}, {}\n", 1 + rng.index(3))),
                    _ => s.push_str(&format!("\taddu $t{a}, $t{a}, $t{b}\n")),
                }
            }
        }
        if run + 1 < nruns {
            match rng.index(3) {
                // A different base register between two runs.
                0 => s.push_str(&format!(
                    "\tlw $t{}, {}($gp)\n",
                    rng.index(8),
                    4 * rng.index(16)
                )),
                // A write to the runs' base register itself.
                1 => s.push_str(
                    "\taddiu $sp, $sp, -16\n\tsw $t0, 0($sp)\n\tlw $t1, 0($sp)\n\taddiu $sp, $sp, 16\n",
                ),
                // An aliased copy of `$sp`: same line, different name.
                _ => s.push_str("\tmove $t2, $sp\n\tlw $t3, 4($t2)\n"),
            }
        }
    }
    s.push_str("\taddiu $s0, $s0, -1\n\tbgtz $s0, .Louter\n");
    s.push_str("\tli $v0, 10\n\tli $a0, 0\n\tsyscall\n");
    s
}

/// A random access-pattern kernel for the memory-matrix differential
/// sweeps: a strided scan or a pointer chase with randomized stride
/// and footprint, 50/50.
#[must_use]
pub fn arb_pattern_program(rng: &mut Rng) -> String {
    if rng.chance(0.5) {
        let stride = 4 * (1 + rng.index(24)) as u32;
        let trips = (64 + rng.index(448)) as u32;
        strided_scan_program(stride, trips)
    } else {
        let stride = 8 * (1 + rng.index(12)) as u32;
        let nodes = (8 + rng.index(56)) as u32;
        let trips = (2 + rng.index(6)) as u32;
        pointer_chase_program(stride, nodes, trips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = Rng::new(99);
        let mut b = Rng::new(99);
        for _ in 0..20 {
            assert_eq!(arb_program(&mut a), arb_program(&mut b));
        }
    }

    #[test]
    fn call_programs_cover_all_required_shapes() {
        // Across a modest case budget the generator must produce
        // plain direct calls, calls inside loops, and 2-deep nesting
        // (a function that both is called and calls — it saves $ra).
        let (mut direct, mut in_loop, mut nested) = (false, false, false);
        cases(64, 0x9106, |rng| {
            let s = arb_call_program(rng);
            let jals = s.matches("jal f").count();
            assert!(jals >= 1, "every call program calls: {s}");
            if s.contains(".Lcall") {
                in_loop = true;
            } else {
                direct = true;
            }
            if s.contains("sw $ra") {
                nested = true;
            }
        });
        assert!(direct, "no plain direct call generated");
        assert!(in_loop, "no call-in-loop generated");
        assert!(nested, "no 2-deep call chain generated");
    }

    #[test]
    fn call_targets_are_defined_and_forward_only() {
        cases(64, 0x517e, |rng| {
            let s = arb_call_program(rng);
            let mut current = 0usize;
            for line in s.lines() {
                if let Some(name) = line.strip_suffix(':') {
                    if let Some(n) = name.strip_prefix('f') {
                        current = n.parse().expect("function label");
                    }
                }
                if let Some(callee) = line.trim().strip_prefix("jal f") {
                    let callee: usize = callee.parse().expect("callee index");
                    assert!(callee > current, "call must target a later function: {s}");
                }
            }
        });
    }

    #[test]
    fn strided_scan_rounds_stride_and_steps_it() {
        let s = strided_scan_program(6, 100);
        assert!(s.contains("addiu $t1, $t1, 8"), "stride rounds to 8: {s}");
        assert!(s.contains("li $t0, 100"));
        // Degenerate inputs stay executable.
        let s = strided_scan_program(0, 0);
        assert!(s.contains("addiu $t1, $t1, 4"));
        assert!(s.contains("li $t0, 1"));
    }

    #[test]
    fn pointer_chase_builds_then_walks() {
        let s = pointer_chase_program(16, 10, 3);
        let build = s.find(".Lbuild").expect("build loop");
        let walk = s.find(".Lwalk").expect("walk loop");
        assert!(build < walk, "chain built before walked");
        assert!(s.contains("lw $t1, 0($t1)"), "address chases a load: {s}");
    }

    #[test]
    fn pattern_programs_cover_both_shapes_deterministically() {
        let (mut scans, mut chases) = (false, false);
        let mut a = Rng::new(0x9a77);
        let mut b = Rng::new(0x9a77);
        for _ in 0..32 {
            let s = arb_pattern_program(&mut a);
            assert_eq!(s, arb_pattern_program(&mut b), "nondeterministic");
            if s.contains(".Lscan") {
                scans = true;
            }
            if s.contains(".Lhop") {
                chases = true;
            }
        }
        assert!(scans, "no strided scan generated");
        assert!(chases, "no pointer chase generated");
    }

    #[test]
    fn stack_heavy_programs_are_dense_and_bounded() {
        let (mut any_breaker, mut any_alias) = (false, false);
        let mut b = Rng::new(0x57AC);
        let mut a = Rng::new(0x57AC);
        for _ in 0..48 {
            let s = arb_stack_heavy_program(&mut a);
            assert_eq!(
                s,
                arb_stack_heavy_program(&mut b),
                "generation must be deterministic per seed"
            );
            // Every program must contain at least one dense run: three
            // consecutive `$sp`-relative accesses in a row (ignoring
            // interleaved ALU lines, which never end a run).
            let mut best = 0usize;
            let mut streak = 0usize;
            for line in s.lines() {
                let t = line.trim();
                if t.ends_with("($sp)") && (t.starts_with("lw") || t.starts_with("sw")) {
                    streak += 1;
                    best = best.max(streak);
                } else if t.starts_with("addiu $t")
                    || t.starts_with("sll $t")
                    || t.starts_with("addu $t")
                {
                    // ALU interleave: streak survives.
                } else {
                    streak = 0;
                }
            }
            assert!(best >= 3, "no dense sp-relative run: {s}");
            assert!(s.ends_with("\tsyscall\n"), "must exit cleanly: {s}");
            any_breaker |= s.contains("($gp)") || s.contains("addiu $sp, $sp, -16");
            any_alias |= s.contains("move $t2, $sp");
        }
        assert!(any_breaker, "no run-breaking access generated");
        assert!(any_alias, "no aliased-base access generated");
    }

    #[test]
    fn flow_programs_stay_call_free() {
        let mut any_loads = false;
        cases(32, 0xF10C, |rng| {
            let s = arb_flow_program(rng);
            assert!(!s.contains("jal"), "flow programs must not call: {s}");
            any_loads |= s.contains("lw ");
        });
        assert!(any_loads, "no flow program carried a load");
    }
}
