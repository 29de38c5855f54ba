//! Differential suite for the out-of-core storage layer: every plan in
//! the workload must produce **byte-identical** output (rows AND row
//! order, compared via `Debug`) whether its tables live in memory or in
//! buffer-managed pages, at every buffer-pool size, thread count, and
//! optimizer setting. This is the acceptance gate for the paged heap:
//! spilling is invisible to query results by construction, and these
//! tests pin that construction.
//!
//! The spilled catalogs additionally carry disk-resident B-tree indexes
//! on the join keys while the in-memory baseline carries hash indexes,
//! so the index-join fast path is exercised against a different index
//! implementation and must still agree byte for byte.

use std::sync::Arc;

use probkb_relational::prelude::*;

/// Rows for the fact table: 3 int columns, enough rows to span several
/// 4096-row column chunks so chunk boundaries are actually exercised.
fn fact_rows() -> Vec<Vec<Value>> {
    // Deterministic pseudo-random stream (LCG) — no RNG dependency.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as i64
    };
    (0..12_000)
        .map(|i| {
            vec![
                Value::Int(next() % 500),
                Value::Int(next() % 40),
                Value::Int(i),
            ]
        })
        .collect()
}

fn dim_rows() -> Vec<Vec<Value>> {
    (0..500i64)
        .map(|k| vec![Value::Int(k), Value::Int(k % 7)])
        .collect()
}

/// Build the workload catalog. `pool_pages = None` keeps every table in
/// memory (with hash indexes); `Some(n)` spills through an `n`-page
/// buffer pool (with B-tree indexes).
fn catalog(pool_pages: Option<u32>) -> Catalog {
    let cat = Catalog::new();
    cat.set_spill_policy(None);
    if let Some(pages) = pool_pages {
        let ctx: Arc<StorageContext> = StorageContext::in_temp(pages as usize).unwrap();
        cat.set_spill_policy(Some(SpillPolicy {
            ctx,
            threshold_rows: 1024,
        }));
    }
    cat.create(
        "fact",
        Table::from_rows_unchecked(Schema::ints(&["k", "g", "v"]), fact_rows()),
    )
    .unwrap();
    cat.create(
        "dim",
        Table::from_rows_unchecked(Schema::ints(&["k", "c"]), dim_rows()),
    )
    .unwrap();
    if pool_pages.is_some() {
        assert!(cat.get("fact").unwrap().is_spilled(), "fact must spill");
        cat.build_btree_index("fact", &[0]).unwrap();
        cat.build_btree_index("dim", &[0]).unwrap();
    } else {
        cat.build_index("fact", &[0], 1).unwrap();
        cat.build_index("dim", &[0], 1).unwrap();
    }
    cat
}

/// The plan workload: every operator family grounding leans on.
fn plans() -> Vec<Plan> {
    vec![
        Plan::scan("fact").filter(Expr::col(0).lt(Expr::lit(100i64))),
        Plan::scan("fact").project_cols(&[1, 0], &["g", "k"]),
        Plan::scan("fact").hash_join(Plan::scan("dim"), vec![0], vec![0]),
        Plan::scan("dim").hash_join(Plan::scan("fact"), vec![0], vec![0]),
        Plan::scan("fact").join(Plan::scan("dim").filter(Expr::col(1).lt(Expr::lit(3i64))), vec![0], vec![0], JoinKind::LeftSemi),
        Plan::scan("fact").join(Plan::scan("dim").filter(Expr::col(1).lt(Expr::lit(3i64))), vec![0], vec![0], JoinKind::LeftAnti),
        Plan::scan("fact").join(Plan::scan("dim"), vec![2], vec![0], JoinKind::LeftSemi),
        Plan::scan("fact").join(Plan::scan("dim"), vec![2], vec![0], JoinKind::LeftAnti),
        Plan::scan("fact").aggregate(
            vec![1],
            vec![
                AggExpr::new(AggFunc::CountStar, "n"),
                AggExpr::new(AggFunc::Min(2), "mn"),
            ],
        ),
        Plan::scan("fact").project_cols(&[1], &["g"]).distinct(),
        Plan::scan("fact")
            .hash_join(Plan::scan("dim"), vec![0], vec![0])
            .filter(Expr::col(4).eq(Expr::lit(2i64)))
            .aggregate(vec![1], vec![AggExpr::new(AggFunc::CountStar, "n")]),
        Plan::scan("fact").sort(vec![1, 0]).limit(777),
    ]
}

fn run(cat: &Catalog, plan: &Plan, threads: usize, optimize: bool) -> String {
    let out = Executor::new(cat)
        .with_threads(threads)
        .with_parallel_threshold(0)
        .with_optimize(optimize)
        .execute_table(plan)
        .unwrap();
    format!("{out:?}")
}

/// The full matrix in one test body: pools {64, 1024, unlimited} ×
/// threads {1, 4} × optimizer {off, on}. The in-memory serial run is
/// the oracle for each optimizer setting; everything else must match
/// it byte for byte.
#[test]
fn workload_is_identical_across_pools_threads_optimizer() {
    let mem = catalog(None);
    let spilled: Vec<(u32, Catalog)> =
        [64u32, 1024].iter().map(|&p| (p, catalog(Some(p)))).collect();
    for (pi, plan) in plans().iter().enumerate() {
        for optimize in [false, true] {
            let oracle = run(&mem, plan, 1, optimize);
            for threads in [1usize, 4] {
                let got = run(&mem, plan, threads, optimize);
                assert_eq!(oracle, got, "plan {pi} mem threads={threads} opt={optimize}");
                for (pages, cat) in &spilled {
                    let got = run(cat, plan, threads, optimize);
                    assert_eq!(
                        oracle, got,
                        "plan {pi} pool={pages} threads={threads} opt={optimize}"
                    );
                }
            }
        }
    }
}

/// Mutation parity: inserts, deletes, and dedup must leave a spilled
/// catalog's tables byte-identical to an in-memory catalog driven by
/// the same operations (deletes/dedup transparently unspill).
#[test]
fn mutations_are_identical_under_spill() {
    let mem = catalog(None);
    let sp = catalog(Some(64));
    let extra: Vec<Vec<Value>> = (0..5_000i64)
        .map(|i| vec![Value::Int(i % 11), Value::Int(i % 3), Value::Int(-i)])
        .collect();
    mem.insert_rows("fact", extra.clone()).unwrap();
    sp.insert_rows("fact", extra).unwrap();
    assert!(sp.get("fact").unwrap().is_spilled());
    assert_eq!(
        format!("{:?}", mem.get("fact").unwrap()),
        format!("{:?}", sp.get("fact").unwrap())
    );

    let doomed: std::collections::HashSet<Vec<Value>> =
        [vec![Value::Int(2)], vec![Value::Int(5)]].into_iter().collect();
    let a = mem.delete_matching("fact", &[1], &doomed).unwrap();
    let b = sp.delete_matching("fact", &[1], &doomed).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        format!("{:?}", mem.get("fact").unwrap()),
        format!("{:?}", sp.get("fact").unwrap())
    );

    let a = mem.dedup_table("fact", &[0, 1]).unwrap();
    let b = sp.dedup_table("fact", &[0, 1]).unwrap();
    assert_eq!(a, b);
    assert_eq!(
        format!("{:?}", mem.get("fact").unwrap()),
        format!("{:?}", sp.get("fact").unwrap())
    );
}

/// Incremental index maintenance parity: appending to an indexed,
/// spilled table keeps B-tree-driven joins identical to the hash-index
/// baseline, and the maintained all-`Int` hash index equals a fresh
/// build — also after an append whose keys are not `Int`.
#[test]
fn incremental_index_maintenance_is_identical() {
    let mem = catalog(None);
    let sp = catalog(Some(64));
    let maintained_equals_fresh = |cat: &Catalog| {
        let table = cat.get("fact").unwrap();
        let index = cat.index_on("fact", &[0]).expect("fact index kept");
        for threads in [1, 4] {
            assert_eq!(*index, HashIndex::build(&table, &[0], threads), "threads={threads}");
        }
    };
    let extra: Vec<Vec<Value>> = (0..6_000i64)
        .map(|i| vec![Value::Int(400 + i % 200), Value::Int(i % 5), Value::Int(i)])
        .collect();
    mem.insert_rows("fact", extra.clone()).unwrap();
    sp.insert_rows("fact", extra).unwrap();
    maintained_equals_fresh(&mem);
    let plan = Plan::scan("dim").hash_join(Plan::scan("fact"), vec![0], vec![0]);
    assert_eq!(run(&mem, &plan, 1, true), run(&sp, &plan, 1, true));
    assert_eq!(run(&mem, &plan, 4, true), run(&sp, &plan, 4, true));

    // String keys turn the inline-key index into a boxed one in place;
    // the all-Int keys before and after them must keep matching.
    let mixed: Vec<Vec<Value>> = (0..3_000i64)
        .map(|i| match i % 3 {
            0 => vec![Value::Str(format!("k{}", i % 500).into()), Value::Int(1), Value::Int(i)],
            _ => vec![Value::Int(i % 500), Value::Int(2), Value::Int(i)],
        })
        .collect();
    mem.insert_rows_unchecked("fact", mixed.clone()).unwrap();
    sp.insert_rows_unchecked("fact", mixed).unwrap();
    maintained_equals_fresh(&mem);
    assert_eq!(run(&mem, &plan, 1, true), run(&sp, &plan, 1, true));
    assert_eq!(run(&mem, &plan, 4, true), run(&sp, &plan, 4, true));
}
