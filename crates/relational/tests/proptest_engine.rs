//! Property-based tests for the relational engine: operators are checked
//! against naive reference implementations over arbitrary small relations.

use std::collections::{HashMap, HashSet};

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

/// One key value. An all-`Int` table draws from `{0, 1}`; a mixed one
/// also draws floats and strings that print like those ints (strict
/// typing: `Int(1) ≠ Float(1.0) ≠ Str("1")`) and NULLs.
fn key_value(code: u8, mixed: bool) -> Value {
    match if mixed { code % 7 } else { code % 2 } {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Float(0.0),
        3 => Value::Float(1.0),
        4 => Value::Str("0".into()),
        5 => Value::Str("1".into()),
        _ => Value::Null,
    }
}

/// A random table whose first `arity` columns are a join key drawn by
/// [`key_value`], followed by an `Int` row tag in `0..tags`.
fn arb_keyed_table(
    arity: usize,
    mixed: bool,
    tags: i64,
    max_rows: usize,
) -> impl Strategy<Value = Table> {
    let mut cols: Vec<Column> = (0..arity)
        .map(|i| Column::nullable(&format!("k{i}"), DataType::Int))
        .collect();
    cols.push(Column::new("tag", DataType::Int));
    let schema = Schema::new(cols);
    prop::collection::vec((prop::collection::vec(0u8..7, arity), 0..tags), 0..=max_rows)
        .prop_map(move |rows| {
            let rows = rows
                .into_iter()
                .map(|(key, tag)| {
                    let mut row: Row = key.into_iter().map(|c| key_value(c, mixed)).collect();
                    row.push(Value::Int(tag));
                    row
                })
                .collect();
            Table::from_rows_unchecked(schema.clone(), rows)
        })
}

/// Two keyed tables sharing a key arity in 1..=6, both all-`Int` or
/// both mixed.
fn arb_join_inputs(max_rows: usize) -> impl Strategy<Value = (usize, Table, Table)> {
    (1usize..7, any::<bool>()).prop_flat_map(move |(arity, mixed)| {
        (
            Just(arity),
            arb_keyed_table(arity, mixed, 6, max_rows),
            arb_keyed_table(arity, mixed, 6, max_rows),
        )
    })
}

/// The nested-loop definition of an equi-join match: whole keys equal,
/// none of their values NULL.
fn keys_match(l: &[Value], r: &[Value], arity: usize) -> bool {
    l[..arity] == r[..arity] && !l[..arity].iter().any(Value::is_null)
}

/// Rows in a canonical order (`Value`'s `Ord` ties `Int(1)` with
/// `Float(1.0)`, so sort by the rendered row instead).
fn canonical(rows: &[Row]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn ints(row: &[Value]) -> Vec<i64> {
    row.iter().map(|v| v.as_int().unwrap()).collect()
}

proptest! {
    /// Inner hash join agrees with the nested-loop definition, for keys
    /// of 1–6 columns over all-`Int` and mixed-type values.
    #[test]
    fn join_matches_nested_loop(input in arb_join_inputs(40)) {
        let (arity, left, right) = input;
        let cat = Catalog::new();
        cat.create("l", left.clone()).unwrap();
        cat.create("r", right.clone()).unwrap();
        let keys: Vec<usize> = (0..arity).collect();
        let plan = Plan::scan("l").hash_join(Plan::scan("r"), keys.clone(), keys);
        let out = Executor::new(&cat).execute_table(&plan).unwrap();

        let mut expected: Vec<Row> = Vec::new();
        for l in left.rows() {
            for r in right.rows() {
                if keys_match(l, r, arity) {
                    let mut row = l.clone();
                    row.extend(r.iter().cloned());
                    expected.push(row);
                }
            }
        }
        prop_assert_eq!(canonical(out.rows()), canonical(&expected));
    }

    /// Semi and anti join partition the left input, in left order,
    /// exactly as the nested-loop definition splits it.
    #[test]
    fn semi_anti_partition_left(input in arb_join_inputs(30)) {
        let (arity, left, right) = input;
        let cat = Catalog::new();
        cat.create("l", left.clone()).unwrap();
        cat.create("r", right.clone()).unwrap();
        let exec = Executor::new(&cat);
        let keys: Vec<usize> = (0..arity).collect();
        let semi = exec.execute_table(
            &Plan::scan("l").join(Plan::scan("r"), keys.clone(), keys.clone(), JoinKind::LeftSemi),
        ).unwrap();
        let anti = exec.execute_table(
            &Plan::scan("l").join(Plan::scan("r"), keys.clone(), keys, JoinKind::LeftAnti),
        ).unwrap();
        prop_assert_eq!(semi.len() + anti.len(), left.len());
        let (want_semi, want_anti): (Vec<Row>, Vec<Row>) = left
            .rows()
            .iter()
            .cloned()
            .partition(|l| right.rows().iter().any(|r| keys_match(l, r, arity)));
        prop_assert_eq!(semi.rows(), want_semi.as_slice());
        prop_assert_eq!(anti.rows(), want_anti.as_slice());
    }

    /// DISTINCT yields exactly the set of unique rows and is idempotent.
    #[test]
    fn distinct_is_set_semantics(t in arb_table(2, 4, 50)) {
        let cat = Catalog::new();
        cat.create("t", t.clone()).unwrap();
        let exec = Executor::new(&cat);
        let once = exec.execute_table(&Plan::scan("t").distinct()).unwrap();
        let expected: HashSet<Vec<i64>> = t.rows().iter().map(|r| ints(r)).collect();
        prop_assert_eq!(once.len(), expected.len());
        let twice = exec.execute_table(&Plan::scan("t").distinct().distinct()).unwrap();
        prop_assert_eq!(twice.len(), once.len());
    }

    /// COUNT(*) group-by agrees with a HashMap count.
    #[test]
    fn groupby_count_matches_hashmap(t in arb_table(2, 5, 60)) {
        let cat = Catalog::new();
        cat.create("t", t.clone()).unwrap();
        let plan = Plan::scan("t").aggregate(
            vec![0],
            vec![AggExpr::new(AggFunc::CountStar, "n")],
        );
        let out = Executor::new(&cat).execute_table(&plan).unwrap();
        let mut expected: HashMap<i64, i64> = HashMap::new();
        for row in t.rows() {
            *expected.entry(row[0].as_int().unwrap()).or_default() += 1;
        }
        prop_assert_eq!(out.len(), expected.len());
        for row in out.rows() {
            let g = row[0].as_int().unwrap();
            prop_assert_eq!(row[1].as_int().unwrap(), expected[&g]);
        }
    }

    /// UNION ALL preserves multiplicity: |A ∪B B| = |A| + |B|.
    #[test]
    fn union_all_preserves_bag_cardinality(
        a in arb_table(2, 4, 30),
        b in arb_table(2, 4, 30),
    ) {
        let cat = Catalog::new();
        cat.create("a", a.clone()).unwrap();
        cat.create("b", b.clone()).unwrap();
        let out = Executor::new(&cat)
            .execute_table(&Plan::scan("a").union_all(Plan::scan("b")))
            .unwrap();
        prop_assert_eq!(out.len(), a.len() + b.len());
    }

    /// Filter keeps exactly the rows satisfying the predicate.
    #[test]
    fn filter_agrees_with_predicate(t in arb_table(2, 8, 60), threshold in 0i64..8) {
        let cat = Catalog::new();
        cat.create("t", t.clone()).unwrap();
        let plan = Plan::scan("t").filter(Expr::col(0).lt(Expr::lit(threshold)));
        let out = Executor::new(&cat).execute_table(&plan).unwrap();
        let expected = t
            .rows()
            .iter()
            .filter(|r| r[0].as_int().unwrap() < threshold)
            .count();
        prop_assert_eq!(out.len(), expected);
    }

    /// Sort output is ordered and a permutation of the input.
    #[test]
    fn sort_orders_permutation(t in arb_table(2, 6, 50)) {
        let cat = Catalog::new();
        cat.create("t", t.clone()).unwrap();
        let out = Executor::new(&cat)
            .execute_table(&Plan::scan("t").sort(vec![0, 1]))
            .unwrap();
        prop_assert_eq!(out.len(), t.len());
        for pair in out.rows().windows(2) {
            prop_assert!(ints(&pair[0]) <= ints(&pair[1]));
        }
        let mut a: Vec<Vec<i64>> = t.rows().iter().map(|r| ints(r)).collect();
        let mut b: Vec<Vec<i64>> = out.rows().iter().map(|r| ints(r)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// HashIndex probes agree with a linear scan.
    #[test]
    fn index_agrees_with_scan(t in arb_table(2, 5, 50), probe in 0i64..5) {
        let idx = HashIndex::build(&t, &[0], 1);
        let expected: Vec<usize> = t
            .rows()
            .iter()
            .enumerate()
            .filter(|(_, r)| r[0] == Value::Int(probe))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(idx.get(&[Value::Int(probe)]).to_vec(), expected);
    }

    /// dedup_by_cols leaves one row per key and keeps first occurrences.
    #[test]
    fn dedup_by_cols_one_per_key(t in arb_table(3, 4, 50)) {
        let mut deduped = t.clone();
        deduped.dedup_by_cols(&[0, 1]);
        let keys: HashSet<Vec<Value>> = t.distinct_keys(&[0, 1]);
        prop_assert_eq!(deduped.len(), keys.len());
        // First occurrence preserved: the first row of t (if any) survives.
        if let Some(first) = t.rows().first() {
            prop_assert_eq!(&deduped.rows()[0], first);
        }
    }
}
