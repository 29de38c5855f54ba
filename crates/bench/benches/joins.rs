//! Criterion microbenchmarks for the relational substrate's operators:
//! the hash join, grouped aggregate, and distinct that grounding leans on.

use probkb_support::microbench::{BenchmarkId, Criterion};
use probkb_support::{criterion_group, criterion_main};

use probkb_relational::prelude::*;

fn table(rows: usize, keys: i64) -> Table {
    Table::from_rows_unchecked(
        Schema::ints(&["k", "v"]),
        (0..rows as i64)
            .map(|i| vec![Value::Int(i % keys), Value::Int(i)])
            .collect(),
    )
}

/// A grounding-shaped table: a 4-column all-`Int` key `(R, C1, C2, z)`,
/// like the `TΠ` legs Query 1-i joins on, derived from `i % keys`, plus a
/// payload column.
fn keyed4(rows: usize, keys: i64) -> Table {
    Table::from_rows_unchecked(
        Schema::ints(&["r", "c1", "c2", "z", "v"]),
        (0..rows as i64)
            .map(|i| {
                let k = i % keys;
                [k % 50, k % 7, k % 11, k, i].map(Value::Int).to_vec()
            })
            .collect(),
    )
}

fn bench_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("relational_operators");
    group.sample_size(20);

    for rows in [10_000usize, 100_000] {
        let cat = Catalog::new();
        cat.create_or_replace("t", table(rows, 500));
        cat.create_or_replace("dim", table(500, 500));
        cat.create_or_replace("t4", keyed4(rows, 500));
        cat.create_or_replace("dim4", keyed4(500, 500));
        let exec = Executor::new(&cat);

        group.bench_with_input(BenchmarkId::new("hash_join", rows), &rows, |b, _| {
            let plan = Plan::scan("t").hash_join(Plan::scan("dim"), vec![0], vec![0]);
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(BenchmarkId::new("hash_join_4key", rows), &rows, |b, _| {
            let keys = vec![0, 1, 2, 3];
            let plan = Plan::scan("t4").hash_join(Plan::scan("dim4"), keys.clone(), keys);
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(BenchmarkId::new("aggregate", rows), &rows, |b, _| {
            let plan = Plan::scan("t").aggregate(
                vec![0],
                vec![
                    AggExpr::new(AggFunc::CountStar, "n"),
                    AggExpr::new(AggFunc::Min(1), "mn"),
                ],
            );
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(BenchmarkId::new("distinct", rows), &rows, |b, _| {
            let plan = Plan::scan("t").project_cols(&[0], &["k"]).distinct();
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(BenchmarkId::new("filter", rows), &rows, |b, _| {
            let plan = Plan::scan("t").filter(Expr::col(0).lt(Expr::lit(100i64)));
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });
    }
    group.finish();
}

/// Thread-scaling sweep over the morsel-driven executor: the same join
/// and aggregate plans at 1/2/4/8 worker threads. On a multi-core host
/// the parallel runs should beat serial from ~4 threads; on a single
/// hardware thread they only measure the fork-join overhead.
fn bench_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_thread_scaling");
    group.sample_size(10);

    let cat = Catalog::new();
    cat.create_or_replace("t", table(200_000, 4_000));
    cat.create_or_replace("dim", table(4_000, 4_000));

    for threads in [1usize, 2, 4, 8] {
        let exec = Executor::new(&cat).with_threads(threads);

        group.bench_with_input(BenchmarkId::new("hash_join", threads), &threads, |b, _| {
            let plan = Plan::scan("t").hash_join(Plan::scan("dim"), vec![0], vec![0]);
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(BenchmarkId::new("aggregate", threads), &threads, |b, _| {
            let plan = Plan::scan("t").aggregate(
                vec![0],
                vec![
                    AggExpr::new(AggFunc::CountStar, "n"),
                    AggExpr::new(AggFunc::Sum(1), "s"),
                    AggExpr::new(AggFunc::Max(1), "mx"),
                ],
            );
            b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
        });

        group.bench_with_input(
            BenchmarkId::new("join_aggregate", threads),
            &threads,
            |b, _| {
                let plan = Plan::scan("t")
                    .hash_join(Plan::scan("dim"), vec![0], vec![0])
                    .aggregate(vec![0], vec![AggExpr::new(AggFunc::CountStar, "n")]);
                b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
            },
        );
    }
    group.finish();
}

/// Out-of-core sweep: the same join/aggregate/scan plans over a fact
/// table spilled into buffer-managed pages, at pool sizes from "fits
/// entirely" down to a hard memory cap well below the table's resident
/// size. The in-memory numbers above are the baseline; the gap at each
/// pool size is the price of paging (decode + eviction churn), and the
/// results are byte-identical at every size by construction.
fn bench_out_of_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_out_of_core");
    group.sample_size(10);

    let rows = 200_000usize;
    // 64 pages = 512 KiB of buffer pool against a ~9 MiB table.
    for pool_pages in [64usize, 256, 4096] {
        let cat = Catalog::new();
        let ctx = StorageContext::in_temp(pool_pages).unwrap();
        cat.set_spill_policy(Some(SpillPolicy {
            ctx,
            threshold_rows: 4096,
        }));
        cat.create_or_replace("t", table(rows, 4_000));
        cat.create_or_replace("dim", table(4_000, 4_000));
        assert!(cat.get("t").unwrap().is_spilled());
        let exec = Executor::new(&cat);

        group.bench_with_input(
            BenchmarkId::new("hash_join", pool_pages),
            &pool_pages,
            |b, _| {
                let plan = Plan::scan("t").hash_join(Plan::scan("dim"), vec![0], vec![0]);
                b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
            },
        );

        group.bench_with_input(
            BenchmarkId::new("aggregate", pool_pages),
            &pool_pages,
            |b, _| {
                let plan = Plan::scan("t").aggregate(
                    vec![0],
                    vec![
                        AggExpr::new(AggFunc::CountStar, "n"),
                        AggExpr::new(AggFunc::Min(1), "mn"),
                    ],
                );
                b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
            },
        );

        group.bench_with_input(
            BenchmarkId::new("filter", pool_pages),
            &pool_pages,
            |b, _| {
                let plan = Plan::scan("t").filter(Expr::col(0).lt(Expr::lit(100i64)));
                b.iter(|| std::hint::black_box(exec.execute_table(&plan).unwrap().len()));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_operators, bench_thread_scaling, bench_out_of_core);
criterion_main!(benches);
