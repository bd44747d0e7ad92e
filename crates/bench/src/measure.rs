//! Wall-clock measurement core of `matching_gate`.
//!
//! Measurement model: the closure is timed in growing batches until one
//! batch fills its share of the budget, then `sample_size` batches of that
//! size are timed and the reported figure is the mean wall-clock time per
//! iteration of the best batch. This is deliberately simple — no outlier
//! rejection, no regression — and the number it returns is archived, never
//! asserted: native time is judged by `benchmark/` (alternated pairs and a
//! bound), not here.

use std::time::{Duration, Instant};

/// Timing callback handle passed to the measured closure.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `f` back to back.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Calibrates a batch size for `f` and returns the best-mean nanoseconds per
/// iteration over `sample_size` batches.
pub fn measure_ns<F: FnMut(&mut Bencher)>(
    sample_size: usize,
    measurement_time: Duration,
    mut f: F,
) -> f64 {
    // Calibrate: grow the batch until one batch takes >= budget / samples.
    let per_sample = measurement_time / sample_size.max(1) as u32;
    let mut iters = 1u64;
    loop {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        if b.elapsed >= per_sample || iters >= 1 << 24 {
            break;
        }
        // Aim directly for the per-sample budget once we have a signal.
        let scale = if b.elapsed.is_zero() {
            16.0
        } else {
            (per_sample.as_secs_f64() / b.elapsed.as_secs_f64()).clamp(1.5, 16.0)
        };
        iters = ((iters as f64) * scale).ceil() as u64;
    }
    // Measure: `sample_size` batches, report the fastest mean (least noise).
    let mut best_ns = f64::INFINITY;
    for _ in 0..sample_size.max(1) {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        let ns = b.elapsed.as_secs_f64() * 1e9 / iters as f64;
        if ns < best_ns {
            best_ns = ns;
        }
    }
    best_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_drives_the_closure_and_reports() {
        let mut runs = 0u64;
        let ns = measure_ns(2, Duration::from_millis(2), |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        assert!(runs > 0, "closure must have been driven");
        assert!(ns.is_finite() && ns >= 0.0, "{ns}");
    }
}
