//! Performance-monitoring hardware.
//!
//! Cedar monitors performance with external hardware: event tracers that
//! each collect a million time-stamped events and histogrammers with 64 K
//! 32-bit counters, attachable to any accessible hardware signal; programs
//! can also post software events (§2 "Performance monitoring"). The
//! simulator provides the same two devices; the prefetch-latency numbers
//! of Table 2 come from probes built on them.

use crate::snapshot::{
    snapshot_state, Codec, RecordWriter, Records, SnapReader, SnapResult, SnapWriter,
};
use crate::time::Cycle;

/// Default tracer capacity: 1 M events, as on the real hardware.
pub const TRACER_CAPACITY: usize = 1 << 20;

/// Default histogrammer size: 64 K 32-bit counters.
pub const HISTOGRAM_BINS: usize = 1 << 16;

/// A time-stamped event trace with bounded capacity.
///
/// # Examples
///
/// ```
/// use cedar_machine::monitor::EventTracer;
/// use cedar_machine::time::Cycle;
/// let mut t = EventTracer::with_capacity(2);
/// t.post(Cycle(1), 7);
/// t.post(Cycle(2), 8);
/// t.post(Cycle(3), 9); // dropped: tracer is full
/// assert_eq!(t.events().len(), 2);
/// assert_eq!(t.dropped(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EventTracer {
    capacity: usize,
    events: Vec<(Cycle, u32)>,
    dropped: u64,
}

impl EventTracer {
    /// A tracer with the hardware's 1 M-event capacity.
    pub fn new() -> EventTracer {
        Self::with_capacity(TRACER_CAPACITY)
    }

    /// A tracer with a custom capacity (tracers can be cascaded on the
    /// real machine to capture more events).
    pub fn with_capacity(capacity: usize) -> EventTracer {
        EventTracer {
            capacity,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Record an event; drops (and counts) once full.
    pub fn post(&mut self, at: Cycle, tag: u32) {
        if self.events.len() < self.capacity {
            self.events.push((at, tag));
        } else {
            self.dropped += 1;
        }
    }

    /// The collected events in posting order.
    pub fn events(&self) -> &[(Cycle, u32)] {
        &self.events
    }

    /// Events dropped after the tracer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The maximum number of events this tracer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clear the trace for a new experiment.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

// The capacity is configuration, not state.
snapshot_state! {
    impl EventTracer as this {
        saved: [events: Records, dropped],
        derived: [capacity],
    }
}

impl Default for EventTracer {
    fn default() -> Self {
        Self::new()
    }
}

/// A histogramming counter array with saturating 32-bit bins; samples
/// beyond the last bin land in it (a catch-all overflow bin, as when the
/// hardware is programmed with a final open bucket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogrammer {
    bins: Vec<u32>,
}

impl Histogrammer {
    /// A histogrammer with the hardware's 64 K counters.
    pub fn new() -> Histogrammer {
        Self::with_bins(HISTOGRAM_BINS)
    }

    /// A histogrammer with a custom number of bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero.
    pub fn with_bins(bins: usize) -> Histogrammer {
        assert!(bins > 0, "histogrammer needs at least one bin");
        Histogrammer {
            bins: vec![0; bins],
        }
    }

    /// Count a sample at `value` (clamped into the last bin).
    #[inline]
    pub fn record(&mut self, value: usize) {
        let i = value.min(self.bins.len() - 1);
        self.bins[i] = self.bins[i].saturating_add(1);
    }

    /// Bin-wise accumulate another histogram into this one (saturating,
    /// like [`Histogrammer::record`]). `other`'s overflow of this
    /// histogram's bin range is folded into the last bin.
    pub fn merge(&mut self, other: &Histogrammer) {
        let last = self.bins.len() - 1;
        for (i, &n) in other.bins.iter().enumerate() {
            let j = i.min(last);
            self.bins[j] = self.bins[j].saturating_add(n);
        }
    }

    /// The raw bins.
    pub fn bins(&self) -> &[u32] {
        &self.bins
    }

    /// Total samples recorded (saturating bins may undercount).
    pub fn total(&self) -> u64 {
        self.bins.iter().map(|&b| u64::from(b)).sum()
    }

    /// Mean of the recorded distribution, or 0 when empty.
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(i, &b)| i as u64 * u64::from(b))
            .sum();
        sum as f64 / total as f64
    }

    /// The value below which fraction `p` (in `0.0..=1.0`) of the samples
    /// fall: the smallest bin index whose cumulative count reaches
    /// `ceil(p * total)`. Returns `None` when the histogram is empty —
    /// an empty distribution has no percentiles, and conflating "no
    /// samples" with "all samples at 0" misread idle probes as
    /// zero-latency ones.
    ///
    /// # Examples
    ///
    /// ```
    /// use cedar_machine::monitor::Histogrammer;
    /// let mut h = Histogrammer::with_bins(16);
    /// assert_eq!(h.percentile(0.5), None);
    /// for v in [1, 1, 2, 3, 10] {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.percentile(0.5), Some(2));
    /// assert_eq!(h.percentile(1.0), Some(10));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `0.0..=1.0`.
    pub fn percentile(&self, p: f64) -> Option<usize> {
        assert!((0.0..=1.0).contains(&p), "percentile wants p in 0..=1");
        let total = self.total();
        if total == 0 {
            return None;
        }
        let rank = ((p * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.bins.iter().enumerate() {
            seen += u64::from(b);
            if seen >= rank {
                return Some(i);
            }
        }
        Some(self.bins.len() - 1)
    }

    /// Bin-wise difference `self - earlier` (saturating at zero), sized to
    /// the larger of the two histograms. Used by the stats layer's
    /// snapshot/delta API to bracket a measurement region.
    pub fn delta_since(&self, earlier: &Histogrammer) -> Histogrammer {
        let len = self.bins.len().max(earlier.bins.len());
        let mut bins = vec![0u32; len];
        for (i, b) in bins.iter_mut().enumerate() {
            let new = self.bins.get(i).copied().unwrap_or(0);
            let old = earlier.bins.get(i).copied().unwrap_or(0);
            *b = new.saturating_sub(old);
        }
        Histogrammer { bins }
    }

    /// Clear all bins.
    pub fn clear(&mut self) {
        self.bins.iter_mut().for_each(|b| *b = 0);
    }
}

/// Sparse snapshot encoding: bin count, then `(index, count)` records for
/// the non-zero bins. Most of the machine's histograms are 64 K bins with
/// a handful occupied; dense encoding would dominate the snapshot.
impl Codec for Histogrammer {
    fn put(&self, w: &mut SnapWriter) {
        w.usize(self.bins.len());
        let occupied = self.bins.iter().enumerate().filter(|(_, &b)| b != 0);
        w.records(occupied, |(i, &b)| {
            RecordWriter::<8>::new().u32(i as u32).u32(b).done()
        });
    }

    fn get(r: &mut SnapReader) -> SnapResult<Histogrammer> {
        // The bin count sizes an allocation but is not a count of the
        // bytes behind it (only occupied bins are), so it is bounded by
        // the hardware's size rather than by the bytes left.
        let len = r.usize()?;
        if !(1..=HISTOGRAM_BINS).contains(&len) {
            return Err(r.err_mismatch(&format!("histogram of {len} bins (1 to {HISTOGRAM_BINS})")));
        }
        let mut h = Histogrammer::with_bins(len);
        for (i, b) in r.records::<_, 8>(|mut f| Ok((f.u32(), f.u32())))? {
            *h.bins
                .get_mut(i as usize)
                .ok_or_else(|| r.err_invalid("histogram bin index", 0))? = b;
        }
        Ok(h)
    }
}

impl Default for Histogrammer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_records_until_full() {
        let mut t = EventTracer::with_capacity(3);
        for i in 0..5 {
            t.post(Cycle(i), i as u32);
        }
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.dropped(), 2);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn histogram_mean_and_overflow() {
        let mut h = Histogrammer::with_bins(4);
        h.record(0);
        h.record(2);
        h.record(100); // clamps to bin 3
        assert_eq!(h.total(), 3);
        assert!((h.mean() - (0.0 + 2.0 + 3.0) / 3.0).abs() < 1e-12);
        h.clear();
        assert_eq!(h.total(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    /// A sparse histogram's bin count is not backed by bytes: an empty
    /// 8 K-bin histogram decodes at the very end of an image, and a bin
    /// count past the hardware's 64 K is refused before it allocates.
    #[test]
    fn snapshot_codec_histogram_bin_count_is_not_bounded_by_the_bytes_left() {
        let encode = |h: &Histogrammer| {
            let mut w = SnapWriter::fragment();
            h.put(&mut w);
            w.into_fragment()
        };
        let mut h = Histogrammer::with_bins(8192);
        let empty = encode(&h);
        assert_eq!(Histogrammer::get(&mut SnapReader::new(&empty)).unwrap(), h);
        h.record(7);
        let one = encode(&h);
        assert_eq!(Histogrammer::get(&mut SnapReader::new(&one)).unwrap(), h);
        let huge = encode(&Histogrammer::with_bins(HISTOGRAM_BINS + 1));
        let e = Histogrammer::get(&mut SnapReader::new(&huge)).unwrap_err();
        assert!(e.0.contains("histogram of 65537 bins"), "{}", e.0);
    }

    #[test]
    fn default_sizes_match_hardware() {
        assert_eq!(EventTracer::new().capacity(), TRACER_CAPACITY);
        assert_eq!(Histogrammer::new().bins().len(), HISTOGRAM_BINS);
    }

    #[test]
    fn custom_capacity_is_reported() {
        assert_eq!(EventTracer::with_capacity(17).capacity(), 17);
    }

    #[test]
    fn percentiles_walk_the_cumulative_distribution() {
        let mut h = Histogrammer::with_bins(128);
        // 100 samples: values 0..100, one each.
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.5), Some(49));
        assert_eq!(h.percentile(0.95), Some(94));
        assert_eq!(h.percentile(0.99), Some(98));
        assert_eq!(h.percentile(1.0), Some(99));
        assert_eq!(h.percentile(0.0), Some(0));
    }

    #[test]
    fn percentile_of_empty_histogram_is_none() {
        // Regression: this used to report bin 0, indistinguishable from
        // a real all-zero-latency distribution.
        let h = Histogrammer::with_bins(8);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.percentile(1.0), None);
    }

    #[test]
    fn percentile_returns_some_once_a_sample_lands() {
        let mut h = Histogrammer::with_bins(8);
        assert_eq!(h.percentile(0.5), None);
        h.record(0);
        assert_eq!(h.percentile(0.5), Some(0));
        h.clear();
        assert_eq!(h.percentile(0.5), None, "clear() empties the histogram");
    }

    #[test]
    fn percentile_with_mass_in_one_bin() {
        let mut h = Histogrammer::with_bins(8);
        for _ in 0..10 {
            h.record(3);
        }
        assert_eq!(h.percentile(0.5), Some(3));
        assert_eq!(h.percentile(0.99), Some(3));
    }
}
