//! End-to-end check that the feasibility map (the reproduction of
//! Tables 1–4 and the figures) is fully consistent with the paper on a small
//! configuration. The benchmark harness runs the same experiments on larger
//! rings.

#[allow(dead_code)]
mod common;

use dynring_analysis::{figures, lower_bounds, markdown_table, tables};

#[test]
fn tables_and_figures_reproduce_the_paper() {
    let mut rows = Vec::new();
    rows.extend(tables::table1(14));
    rows.extend(tables::table2(&[6, 9], 1));
    rows.extend(tables::table3(10));
    rows.extend(tables::table4(&[6], 1));
    rows.extend(figures::all_figures(10));
    rows.push(lower_bounds::theorem4(10));
    rows.extend(lower_bounds::theorem13_15(&[6], 1));

    let rendered = markdown_table("Feasibility map", &rows);
    let violations: Vec<_> = rows.iter().filter(|r| !r.holds).collect();
    assert!(
        violations.is_empty(),
        "rows inconsistent with the paper:\n{:#?}\nfull map:\n{rendered}",
        violations
    );
    // Sanity: the map covers all four tables and the figures.
    assert!(rows.iter().any(|r| r.id.starts_with("T1")));
    assert!(rows.iter().any(|r| r.id.starts_with("T2")));
    assert!(rows.iter().any(|r| r.id.starts_with("T3")));
    assert!(rows.iter().any(|r| r.id.starts_with("T4")));
    assert!(rows.iter().any(|r| r.id.starts_with("F2")));
    assert!(rows.iter().any(|r| r.id.starts_with("LB")));
    // Every row's text, recorded before the Table 1/3 rows were built from
    // the model-check cells.
    assert_eq!(
        common::fnv(&rendered),
        16_533_063_967_820_452_580,
        "the feasibility map's texts changed:\n{rendered}"
    );
}
