//! Regenerates **Table 1**: the number of view strategies for a view
//! defined over n views, n = 1..6, three independent ways — the paper's
//! Equation (5), the Fubini recurrence, and explicit enumeration.

use uww_vdag::{fubini, ordered_set_partitions, paper_formula_strategies};

pub fn run() {
    println!("== Table 1: number of view strategies for a view over n views ==");
    println!(
        "{:>3} {:>12} {:>12} {:>12} {:>12}",
        "n", "paper", "formula(5)", "recurrence", "enumerated"
    );
    let paper = [1u128, 3, 13, 75, 541, 4683];
    let mut all_match = true;
    for n in 1..=6u32 {
        let formula = paper_formula_strategies(n);
        let rec = fubini(n);
        let enumerated = if n <= 6 {
            ordered_set_partitions(n as usize).len() as u128
        } else {
            0
        };
        let expected = paper[(n - 1) as usize];
        all_match &= formula == expected && rec == expected && enumerated == expected;
        println!("{n:>3} {expected:>12} {formula:>12} {rec:>12} {enumerated:>12}");
    }
    println!(
        "\nTable 1 {}: all three derivations match the paper exactly.",
        if all_match { "REPRODUCED" } else { "MISMATCH" }
    );
    // Context lines from the paper's prose.
    println!(
        "Q3 (3 sources) has {} view strategies; Q5 (6) has {}; Q10 (4) has {}.",
        fubini(3),
        fubini(6),
        fubini(4)
    );
    assert!(all_match);
}
