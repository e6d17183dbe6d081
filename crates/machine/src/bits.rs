//! Chunked bit masks: a `[u64]` with bit `i % 64` of word `i / 64`
//! standing for index `i`.

/// Indices of the set bits of `mask`, ascending.
pub(crate) fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                i
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_bits_ascend_across_words() {
        assert_eq!(set_bits(&[]).count(), 0);
        assert_eq!(set_bits(&[0, 0]).count(), 0);
        let mask = [1 | 1 << 63, 0, 1 << 5];
        assert_eq!(set_bits(&mask).collect::<Vec<_>>(), vec![0, 63, 133]);
    }
}
