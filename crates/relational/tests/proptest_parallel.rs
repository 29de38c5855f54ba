//! Differential serial-vs-parallel property suite for the morsel-driven
//! executor: every randomized plan must produce the same rows at 1, 2,
//! and 8 threads. The parallel threshold is forced to zero so even tiny
//! random tables exercise the parallel operators; the design guarantee
//! is stronger than multiset equality — chunk-ordered concatenation
//! keeps the output row *order* identical to serial, so the tests
//! compare tables exactly.

use probkb_support::check::prelude::*;

use probkb_relational::prelude::*;

/// A small random table of `width` int columns with values in 0..domain.
fn arb_table(width: usize, domain: i64, max_rows: usize) -> impl Strategy<Value = Table> {
    let names: Vec<String> = (0..width).map(|i| format!("c{i}")).collect();
    prop::collection::vec(prop::collection::vec(0..domain, width), 0..=max_rows).prop_map(
        move |rows| {
            let cols: Vec<&str> = names.iter().map(String::as_str).collect();
            Table::from_rows_unchecked(
                Schema::ints(&cols),
                rows.into_iter()
                    .map(|r| r.into_iter().map(Value::Int).collect())
                    .collect(),
            )
        },
    )
}

/// Execute `plan` with an explicit thread count (threshold 0 so the
/// parallel path is taken regardless of input size). Serial is pinned to
/// one thread explicitly — the suite must behave the same under any
/// ambient `PROBKB_THREADS`.
fn run_at(cat: &Catalog, plan: &Plan, threads: usize) -> Table {
    Executor::new(cat)
        .with_threads(threads)
        .with_parallel_threshold(0)
        .execute_table(plan)
        .unwrap()
}

/// Assert the plan's output is identical (rows AND row order) at 1, 2,
/// and 8 threads.
fn assert_thread_invariant(cat: &Catalog, plan: &Plan) {
    let serial = run_at(cat, plan, 1);
    for threads in [2usize, 8] {
        let parallel = run_at(cat, plan, threads);
        assert_eq!(
            format!("{serial:?}"),
            format!("{parallel:?}"),
            "threads={threads}"
        );
    }
}

/// A catalog holding `l` and `r`, with a prebuilt hash index on the join
/// key of the build table `r` when `prebuilt` is set.
fn join_catalog(left: &Table, right: &Table, prebuilt: bool) -> Catalog {
    let cat = Catalog::new();
    cat.create("l", left.clone()).unwrap();
    cat.create("r", right.clone()).unwrap();
    if prebuilt {
        cat.build_index("r", &[0], 1).unwrap();
    }
    cat
}

proptest! {
    /// Inner join output is thread-count invariant, whether the build
    /// table is hashed for the query or probed through a prebuilt index.
    #[test]
    fn inner_join_is_thread_invariant(
        left in arb_table(2, 6, 40),
        right in arb_table(2, 6, 40),
    ) {
        for prebuilt in [false, true] {
            let cat = join_catalog(&left, &right, prebuilt);
            let plan = Plan::scan("l").hash_join(Plan::scan("r"), vec![0], vec![0]);
            assert_thread_invariant(&cat, &plan);
        }
    }

    /// Semi and anti joins are thread-count invariant, and a prebuilt
    /// index on the build table does not change their output.
    #[test]
    fn semi_and_anti_joins_are_thread_invariant(
        left in arb_table(2, 5, 40),
        right in arb_table(1, 5, 40),
    ) {
        for kind in [JoinKind::LeftSemi, JoinKind::LeftAnti] {
            let plan = Plan::scan("l").join(Plan::scan("r"), vec![0], vec![0], kind);
            let mut outputs = Vec::new();
            for prebuilt in [false, true] {
                let cat = join_catalog(&left, &right, prebuilt);
                assert_thread_invariant(&cat, &plan);
                outputs.push(format!("{:?}", run_at(&cat, &plan, 1)));
            }
            prop_assert_eq!(&outputs[0], &outputs[1]);
        }
    }

    /// Grouped aggregation over the order-insensitive functions is
    /// thread-count invariant.
    #[test]
    fn aggregate_is_thread_invariant(t in arb_table(2, 5, 60)) {
        let cat = Catalog::new();
        cat.create("t", t).unwrap();
        let plan = Plan::scan("t").aggregate(
            vec![0],
            vec![
                AggExpr::new(AggFunc::CountStar, "n"),
                AggExpr::new(AggFunc::Count(1), "c1"),
                AggExpr::new(AggFunc::Sum(1), "s1"),
                AggExpr::new(AggFunc::Min(1), "lo"),
                AggExpr::new(AggFunc::Max(1), "hi"),
            ],
        );
        assert_thread_invariant(&cat, &plan);
    }

    /// AVG forces that aggregate onto the serial path, but the plan as a
    /// whole must still be thread-count invariant.
    #[test]
    fn avg_aggregate_is_thread_invariant(t in arb_table(2, 5, 60)) {
        let cat = Catalog::new();
        cat.create("t", t).unwrap();
        let plan = Plan::scan("t").aggregate(
            vec![0],
            vec![AggExpr::new(AggFunc::Avg(1), "mean")],
        );
        assert_thread_invariant(&cat, &plan);
    }

    /// A multi-operator plan tree (filter → join → project → aggregate)
    /// is thread-count invariant end to end.
    #[test]
    fn plan_tree_is_thread_invariant(
        t in arb_table(3, 6, 50),
        u in arb_table(2, 6, 50),
        threshold in 0i64..6,
    ) {
        let cat = Catalog::new();
        cat.create("t", t).unwrap();
        cat.create("u", u).unwrap();
        let plan = Plan::scan("t")
            .filter(Expr::col(0).lt(Expr::lit(threshold)))
            .hash_join(Plan::scan("u"), vec![1], vec![0])
            .project(vec![
                (Expr::col(0), "a"),
                (Expr::col(2), "b"),
                (Expr::col(4), "c"),
            ])
            .aggregate(
                vec![0],
                vec![
                    AggExpr::new(AggFunc::Sum(1), "s"),
                    AggExpr::new(AggFunc::Max(2), "m"),
                    AggExpr::new(AggFunc::CountStar, "n"),
                ],
            );
        assert_thread_invariant(&cat, &plan);
    }
}

#[test]
fn empty_inputs_are_thread_invariant() {
    let cat = Catalog::new();
    cat.create("e", Table::empty(Schema::ints(&["k", "v"]))).unwrap();
    let full = Table::from_rows_unchecked(
        Schema::ints(&["k", "v"]),
        (0..50i64).map(|i| vec![Value::Int(i % 5), Value::Int(i)]).collect(),
    );
    cat.create("f", full).unwrap();
    let plans = [
        Plan::scan("e").hash_join(Plan::scan("e"), vec![0], vec![0]),
        Plan::scan("e").hash_join(Plan::scan("f"), vec![0], vec![0]),
        Plan::scan("f").hash_join(Plan::scan("e"), vec![0], vec![0]),
        Plan::scan("e").aggregate(vec![0], vec![AggExpr::new(AggFunc::CountStar, "n")]),
        Plan::scan("e").filter(Expr::col(0).lt(Expr::lit(3))),
    ];
    for plan in &plans {
        assert_thread_invariant(&cat, plan);
    }
}

#[test]
fn all_keys_collide_is_thread_invariant() {
    // Every row shares one join key: a single build partition gets all
    // the skew and the self-join explodes quadratically (120² rows).
    let skew = Table::from_rows_unchecked(
        Schema::ints(&["k", "v"]),
        (0..120i64).map(|i| vec![Value::Int(7), Value::Int(i)]).collect(),
    );
    let cat = Catalog::new();
    cat.create("s", skew).unwrap();
    let join = Plan::scan("s").hash_join(Plan::scan("s"), vec![0], vec![0]);
    assert_thread_invariant(&cat, &join);
    let agg = Plan::scan("s").aggregate(
        vec![0],
        vec![
            AggExpr::new(AggFunc::CountStar, "n"),
            AggExpr::new(AggFunc::Sum(1), "s"),
        ],
    );
    assert_thread_invariant(&cat, &agg);
}
