/// One point on a fault-coverage-versus-test-length curve.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct CoveragePoint {
    /// Number of patterns applied so far.
    pub patterns: u64,
    /// Fraction of target faults detected by then (0..=1).
    pub coverage: f64,
}

/// Result of a fault-simulation run: per-fault first-detection indices and
/// derived statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSimResult {
    first_detected: Vec<Option<u64>>,
    patterns_applied: u64,
}

impl FaultSimResult {
    pub(crate) fn new(first_detected: Vec<Option<u64>>, patterns_applied: u64) -> FaultSimResult {
        FaultSimResult {
            first_detected,
            patterns_applied,
        }
    }

    /// Number of target faults.
    pub fn fault_count(&self) -> usize {
        self.first_detected.len()
    }

    /// Number of faults detected at least once.
    pub fn detected_count(&self) -> usize {
        self.first_detected.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage: detected / targeted (1.0 for an empty target set).
    pub fn coverage(&self) -> f64 {
        if self.first_detected.is_empty() {
            1.0
        } else {
            self.detected_count() as f64 / self.first_detected.len() as f64
        }
    }

    /// Patterns applied in total.
    pub fn patterns_applied(&self) -> u64 {
        self.patterns_applied
    }

    /// The 0-based index of the first pattern detecting fault `i`, if any.
    pub fn first_detection(&self, i: usize) -> Option<u64> {
        self.first_detected[i]
    }

    /// Indices of faults that remained undetected.
    pub fn undetected_indices(&self) -> Vec<usize> {
        self.first_detected
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i))
            .collect()
    }

    /// The coverage-versus-test-length curve sampled at multiples of
    /// `step` patterns (plus the final point).
    ///
    /// # Panics
    ///
    /// Panics if `step == 0`.
    pub fn coverage_curve(&self, step: u64) -> Vec<CoveragePoint> {
        assert!(step > 0, "step must be positive");
        let n = self.first_detected.len().max(1) as f64;
        let mut detections: Vec<u64> = self.first_detected.iter().flatten().copied().collect();
        detections.sort_unstable();
        let mut points = Vec::new();
        let mut t = step;
        loop {
            let upto = t.min(self.patterns_applied);
            let covered = detections.partition_point(|&d| d < upto);
            points.push(CoveragePoint {
                patterns: upto,
                coverage: covered as f64 / n,
            });
            if upto >= self.patterns_applied {
                break;
            }
            t += step;
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics() {
        let r = FaultSimResult::new(vec![Some(0), None, Some(10), Some(99)], 100);
        assert_eq!(r.fault_count(), 4);
        assert_eq!(r.detected_count(), 3);
        assert!((r.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(r.patterns_applied(), 100);
        assert_eq!(r.undetected_indices(), vec![1]);
        assert_eq!(r.first_detection(2), Some(10));
    }

    #[test]
    fn empty_target_set_is_full_coverage() {
        let r = FaultSimResult::new(vec![], 10);
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_final_coverage() {
        let r = FaultSimResult::new(vec![Some(0), Some(5), Some(70), None], 100);
        let curve = r.coverage_curve(10);
        assert_eq!(curve.len(), 10);
        for w in curve.windows(2) {
            assert!(w[1].coverage >= w[0].coverage);
            assert!(w[1].patterns > w[0].patterns);
        }
        assert!((curve.last().unwrap().coverage - 0.75).abs() < 1e-12);
        // First point covers patterns 0..10 → detections at 0 and 5.
        assert!((curve[0].coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn curve_with_large_step_has_single_point() {
        let r = FaultSimResult::new(vec![Some(1)], 10);
        let curve = r.coverage_curve(1000);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].patterns, 10);
        assert_eq!(curve[0].coverage, 1.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        FaultSimResult::new(vec![], 1).coverage_curve(0);
    }
}
