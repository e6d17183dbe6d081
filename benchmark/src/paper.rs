//! Distance of reproduced numbers from the paper's, in percent.

/// Mean absolute relative error of `(measured, reference)` pairs, in
/// percent of the reference.
pub fn mean_abs_rel_err_pct(pairs: &[(f64, f64)]) -> f64 {
    let sum: f64 = pairs.iter().map(|&(m, r)| ((m - r) / r).abs()).sum();
    sum / pairs.len() as f64 * 100.0
}

/// `(measured, nearest bound)` for a value the paper gives only as a
/// `(low, high)` range: inside the range the error is zero.
pub fn against_range(measured: f64, (low, high): (f64, f64)) -> (f64, f64) {
    if measured < low {
        (measured, low)
    } else if measured > high {
        (measured, high)
    } else {
        (measured, measured)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn err_pct_on_a_hand_made_table() {
        // |110-100|/100 = 10 %, |45-50|/50 = 10 %, exact = 0 %, |30-20|/20 = 50 %.
        let table = [(110.0, 100.0), (45.0, 50.0), (7.0, 7.0), (30.0, 20.0)];
        assert!((mean_abs_rel_err_pct(&table) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn a_range_reference_costs_nothing_inside_and_the_gap_outside() {
        let band = (34.0, 48.0);
        assert_eq!(mean_abs_rel_err_pct(&[against_range(40.0, band)]), 0.0);
        assert_eq!(mean_abs_rel_err_pct(&[against_range(17.0, band)]), 50.0);
        assert_eq!(mean_abs_rel_err_pct(&[against_range(72.0, band)]), 50.0);
    }
}
