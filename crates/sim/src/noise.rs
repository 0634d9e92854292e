//! Per-core OS-noise processes: Poisson-arriving excess work (§6's δ).

use crate::machine::NoiseConfig;
use calu_rand::Rng;

/// A single core's noise process. Events arrive with exponential
/// inter-arrival times (rate `rate_hz`) and exponential durations (mean
/// `mean_duration`); while a core is idle, pending noise is absorbed
/// invisibly (it delays nothing).
#[derive(Debug, Clone)]
pub struct NoiseProcess {
    rng: Rng,
    rate: f64,
    mean_dur: f64,
    next_event: f64,
}

impl NoiseProcess {
    /// Create the process for one core.
    pub fn new(cfg: &NoiseConfig, core: usize) -> Self {
        let mut rng = Rng::seed_from_u64(
            cfg.seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(core as u64),
        );
        let rate = cfg.rate_hz;
        let mean_dur = cfg.mean_duration;
        let next_event = if rate > 0.0 {
            exp_sample(&mut rng, 1.0 / rate)
        } else {
            f64::INFINITY
        };
        Self {
            rng,
            rate,
            mean_dur,
            next_event,
        }
    }

    /// Stretch a task that starts at `start` with busy duration `dur` by
    /// the noise events preempting it. Returns the task's actual end time
    /// and the noise intervals `(start, duration)` that interrupted it.
    pub fn stretch(&mut self, start: f64, dur: f64, noise_out: &mut Vec<(f64, f64)>) -> f64 {
        noise_out.clear();
        if self.rate == 0.0 {
            return start + dur;
        }
        // noise that would have fired while the core idled is absorbed
        while self.next_event < start {
            let d = exp_sample(&mut self.rng, self.mean_dur);
            self.next_event += d + exp_sample(&mut self.rng, 1.0 / self.rate);
        }
        let mut end = start + dur;
        while self.next_event < end {
            let at = self.next_event;
            let d = exp_sample(&mut self.rng, self.mean_dur);
            noise_out.push((at, d));
            end += d;
            self.next_event = at + d + exp_sample(&mut self.rng, 1.0 / self.rate);
        }
        end
    }
}

fn exp_sample(rng: &mut Rng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -u.ln() * mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_noise_passthrough() {
        let mut p = NoiseProcess::new(&NoiseConfig::off(), 0);
        let mut spans = vec![];
        assert_eq!(p.stretch(1.0, 2.0, &mut spans), 3.0);
        assert!(spans.is_empty());
    }

    #[test]
    fn noise_stretches_tasks() {
        let cfg = NoiseConfig {
            rate_hz: 1000.0,
            mean_duration: 1e-3,
            seed: 42,
        };
        let mut p = NoiseProcess::new(&cfg, 0);
        let mut spans = vec![];
        let end = p.stretch(0.0, 1.0, &mut spans);
        assert!(end > 1.0, "heavy noise must extend the task");
        assert!(!spans.is_empty());
        // all noise intervals lie within the stretched execution
        for (at, d) in &spans {
            assert!(*at >= 0.0 && at + d <= end + 1e-9);
        }
    }

    #[test]
    fn average_load_roughly_matches_config() {
        let cfg = NoiseConfig {
            rate_hz: 100.0,
            mean_duration: 1e-3,
            seed: 7,
        }; // 10% load
        let mut p = NoiseProcess::new(&cfg, 3);
        let mut spans = vec![];
        let end = p.stretch(0.0, 100.0, &mut spans);
        let noise_total: f64 = spans.iter().map(|(_, d)| d).sum();
        assert!((end - 100.0 - noise_total).abs() < 1e-6);
        let load = noise_total / 100.0;
        assert!((load - 0.1).abs() < 0.05, "measured load {load}");
    }

    #[test]
    fn idle_noise_is_absorbed() {
        let cfg = NoiseConfig {
            rate_hz: 1000.0,
            mean_duration: 1e-4,
            seed: 3,
        };
        let mut p = NoiseProcess::new(&cfg, 0);
        let mut spans = vec![];
        // long idle period before the task: pending events must not pile up
        let end = p.stretch(1000.0, 0.001, &mut spans);
        assert!(
            end - 1000.001 < 0.05,
            "idle noise must not delay future work"
        );
    }

    #[test]
    fn deterministic_per_seed_and_core() {
        let cfg = NoiseConfig {
            rate_hz: 500.0,
            mean_duration: 1e-3,
            seed: 9,
        };
        let run = |core| {
            let mut p = NoiseProcess::new(&cfg, core);
            let mut spans = vec![];
            p.stretch(0.0, 5.0, &mut spans)
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "cores get independent processes");
    }
}
