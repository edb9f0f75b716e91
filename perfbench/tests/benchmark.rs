//! Tests of the benchmark itself: the seed only permutes, the checks
//! can fail, traced self times are bounded by wall time, and the
//! metric names agree with `BENCHMARK.json`.

use dl_obs::Json;
use dl_perfbench::golden::{self, Golden};
use dl_perfbench::metrics::{per_layer, END_TO_END};
use dl_perfbench::order;
use dl_perfbench::trace::{layer_self_secs, self_times, Tracer};
use dl_perfbench::workloads::{
    compile_all, exec, observed, static_path, tables, Execution, Workload,
};
use dl_perfbench::Phase;

/// The `n` executions with the fewest instructions, by their golden
/// digests, so simulating tests stay fast.
fn cheapest_executions(n: usize) -> Vec<Execution> {
    let insts = |key: &str| -> u64 {
        golden::EXEC
            .lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(" insts="))
            .and_then(|rest| rest.split(' ').next()?.parse().ok())
            .expect("every execution has a golden entry")
    };
    let mut all = exec::executions();
    all.sort_by_key(|e| insts(&e.key()));
    all.truncate(n);
    all
}

/// `text` with the value of `key`'s entry replaced by `value`.
fn corrupt(text: &str, key: &str, value: &str) -> String {
    text.lines()
        .map(|l| match l.split_once(' ') {
            Some((k, _)) if k == key => format!("{k} {value}"),
            _ => l.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn two_seeds_run_the_same_ops_with_identical_outputs() {
    let ops = static_path::programs();
    let a = order::passes(ops.len(), 2, 1);
    let b = order::passes(ops.len(), 2, 2);
    assert_ne!(a, b, "the seed must permute");
    let (mut sa, mut sb) = (a.clone(), b.clone());
    sa.sort_unstable();
    sb.sort_unstable();
    assert_eq!(sa, sb, "the seed must not change the multiset of ops");

    let golden = Golden::parse(golden::STATIC);
    let first = &a[..ops.len()];
    let second = &b[..ops.len()];
    let pa = static_path::run(&ops, first, &golden, &Tracer::off());
    let pb = static_path::run(&ops, second, &golden, &Tracer::off());
    assert_eq!((pa.attempted, pa.failed), (42, 0));
    assert_eq!(pa.outputs, pb.outputs);
    assert_eq!(pa.insts, pb.insts);

    let executions = cheapest_executions(3);
    let programs = compile_all(&executions, &Tracer::off());
    let golden = Golden::parse(golden::EXEC);
    let run = |seed| {
        let order = order::passes(executions.len(), 2, seed);
        exec::run(&executions, &order, &programs, &golden, &Tracer::off())
    };
    let (ea, eb) = (run(1), run(2));
    assert_eq!((ea.attempted, ea.failed), (6, 0));
    assert_eq!(ea.outputs, eb.outputs);
    assert_eq!(ea.insts, eb.insts);
}

#[test]
fn a_corrupted_golden_entry_fails_its_op() {
    let executions = cheapest_executions(2);
    let programs = compile_all(&executions, &Tracer::off());
    let key = executions[0].key();
    let bad = Golden::parse(&corrupt(golden::EXEC, &key, "insts=0"));
    let phase = exec::run(&executions, &[0, 1], &programs, &bad, &Tracer::off());
    assert_eq!((phase.attempted, phase.failed), (2, 1));
    assert!(!phase.outputs.contains_key(&key));

    // Observing checks against the same execution digests.
    let observed_ops = observed::executions();
    let programs = compile_all(&observed_ops[..1], &Tracer::off());
    let bad = Golden::parse(&corrupt(golden::EXEC, &observed_ops[0].key(), "insts=0"));
    let phase = observed::run(&observed_ops[..1], &[0], &programs, &bad, &Tracer::off());
    assert_eq!((phase.attempted, phase.failed), (1, 1));

    let ops = static_path::programs();
    let bad = Golden::parse(&corrupt(
        golden::STATIC,
        &static_path::key(&ops[3]),
        "insts=0",
    ));
    let phase = static_path::run(&ops, &[2, 3], &bad, &Tracer::off());
    assert_eq!((phase.attempted, phase.failed), (2, 1));
}

#[test]
fn a_corrupted_experiments_line_fails_its_table() {
    let names: Vec<&str> = dl_experiments::tables::all_tables()
        .iter()
        .map(|(name, _)| *name)
        .collect();
    let committed = golden::EXPERIMENTS_MD;
    let table3 = &golden::sections(committed)["table3"];
    let row = table3
        .lines()
        .skip_while(|l| !l.starts_with("|---"))
        .nth(1)
        .expect("table3 has a data row");
    let corrupted = committed.replacen(row, &format!("{row} x"), 1);

    let mut phase = Phase::default();
    tables::check_document(&mut phase, &names, &corrupted, Ok(committed.to_owned()));
    assert_eq!((phase.attempted, phase.failed), (25, 1));
    assert!(!phase.outputs.contains_key("table3"));

    let mut phase = Phase::default();
    tables::check_document(&mut phase, &names, committed, Ok(committed.to_owned()));
    assert_eq!((phase.attempted, phase.failed), (25, 0));

    let mut phase = Phase::default();
    tables::check_document(&mut phase, &names, committed, Err("panic".into()));
    assert_eq!(phase.failed, 25, "a render panic fails every table");
}

#[test]
fn traced_self_times_never_sum_past_wall_time() {
    let ops = static_path::programs();
    let golden = Golden::parse(golden::STATIC);
    let tracer = Tracer::on();
    let phase = tracer.span(
        || "static".to_owned(),
        || static_path::run(&ops, &[0, 1, 2, 3, 4, 5], &golden, &tracer),
    );
    assert_eq!(phase.failed, 0);
    let records = tracer.spans().expect("tracing").records();
    let times = self_times(&records);
    let root = records
        .iter()
        .position(|r| r.path == "static")
        .expect("root span");
    let wall = records[root].secs;
    let total: f64 = times.self_secs.iter().sum();
    assert!(total <= wall * (1.0 + 1e-9), "self {total} > wall {wall}");
    assert!(times.self_secs.iter().all(|&s| s >= -1e-12));
    let layers = layer_self_secs(&records, &times, root);
    let attributed: f64 = layers.values().sum();
    assert!(attributed <= wall);
    for key in [
        "minic.compile",
        "analysis.reaching",
        "analysis.profile",
        "predict.bdh",
    ] {
        assert!(
            layers.get(key).is_some_and(|&s| s > 0.0),
            "{key} missing: {layers:?}"
        );
    }
}

#[test]
fn metric_names_match_benchmark_json() {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<[String; 3]> {
        let Some(Json::Arr(items)) = spec.get(key) else {
            panic!("{key} missing");
        };
        items
            .iter()
            .map(|m| {
                ["name", "unit", "better"].map(|f| match m.get(f) {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("{key}.{f}: {other:?}"),
                })
            })
            .collect()
    };
    let names = |metrics: Vec<[String; 3]>| -> Vec<[String; 2]> {
        metrics.into_iter().map(|[n, u, _]| [n, u]).collect()
    };
    let e2e: Vec<[String; 2]> = END_TO_END
        .iter()
        .map(|(n, u)| [(*n).to_owned(), (*u).to_owned()])
        .collect();
    assert_eq!(names(list("end_to_end")), e2e);
    let layers: Vec<[String; 3]> = per_layer()
        .into_iter()
        .map(|(n, u, b)| [n, u.to_owned(), b.to_owned()])
        .collect();
    assert_eq!(list("per_layer"), layers);
    let Some(Json::Arr(workloads)) = spec.get("workloads") else {
        panic!("workloads missing");
    };
    for w in workloads {
        let Some(Json::Str(name)) = w.get("name") else {
            panic!("workload without a name: {w:?}");
        };
        assert!(Workload::parse(name).is_some(), "{name} is not a workload");
    }
}
