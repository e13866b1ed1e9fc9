//! Small shared pieces: the seed-driven generator, the result digest,
//! latency samples and the JSON result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own input generator, so the inputs depend
/// on `--seed` and on nothing inside the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// FNV-1a 64 over everything written into it.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn i32s(&mut self, vs: &[i32]) {
        for &v in vs {
            self.bytes(&v.to_le_bytes());
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Latency samples of one operation class, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank quantile in microseconds (`NaN` when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
        let (_, x, _) = v.select_nth_unstable(rank);
        *x as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// The p99 with the number of samples strictly above it.
    pub fn p99_us(&self) -> (f64, usize) {
        let p99 = self.quantile_us(0.99);
        let beyond = self.0.iter().filter(|&&x| x as f64 / 1e3 > p99).count();
        (p99, beyond)
    }
}

/// The timed operations of a run, cut into consecutive windows of a fixed
/// number of operations.
///
/// Other tenants of the machine change its speed for seconds at a time,
/// by up to half, and how much of a run each state covers varies from run
/// to run. So the reported figures are what the run sustained in nine
/// windows out of ten: the lowest decile of the window rates, and for each
/// timed class the highest decile of its per-window p50s.
#[derive(Clone, Debug)]
pub struct Windows {
    size: usize,
    ops: usize,
    start_ns: u64,
    rates: Vec<f64>,
    current: [Samples; 3],
    p50s: [Vec<f64>; 3],
    /// Every sample of the run, per class.
    pub all: [Samples; 3],
    total_ops: usize,
    total_ns: u64,
}

impl Windows {
    pub fn new(size: usize) -> Windows {
        Windows {
            size,
            ops: 0,
            start_ns: 0,
            rates: Vec::new(),
            current: Default::default(),
            p50s: Default::default(),
            all: Default::default(),
            total_ops: 0,
            total_ns: 0,
        }
    }

    /// One timed sample of class `class` (0..3).
    pub fn sample(&mut self, class: usize, ns: u64) {
        self.current[class].push(ns);
        self.all[class].push(ns);
    }

    /// One more operation done, `work_ns` into the run's work clock (wall
    /// time minus time spent checking outputs).
    pub fn op(&mut self, work_ns: u64) {
        self.ops += 1;
        self.total_ops += 1;
        self.total_ns = work_ns;
        if self.ops == self.size {
            self.rates
                .push(self.size as f64 / ((work_ns - self.start_ns) as f64 / 1e9));
            for (cur, p50s) in self.current.iter_mut().zip(&mut self.p50s) {
                if cur.len() > 0 {
                    p50s.push(cur.p50_us());
                }
                *cur = Samples::default();
            }
            self.ops = 0;
            self.start_ns = work_ns;
        }
    }

    /// Operations per second sustained in nine windows of ten (the
    /// whole-run rate if no window completed).
    pub fn rate(&self) -> f64 {
        if self.rates.is_empty() {
            return self.mean_rate();
        }
        decile(&self.rates, 1)
    }

    /// The p50 of `class` met in nine windows of ten (the whole-run p50 if
    /// no window completed).
    pub fn p50_us(&self, class: usize) -> f64 {
        if self.p50s[class].is_empty() {
            return self.all[class].p50_us();
        }
        decile(&self.p50s[class], 9)
    }

    /// Operations per second over the whole run.
    pub fn mean_rate(&self) -> f64 {
        self.total_ops as f64 / (self.total_ns as f64 / 1e9)
    }

    pub fn windows(&self) -> usize {
        self.rates.len()
    }
}

/// Decile `k` (1..=9) of `values`: for nine or more values, what Python's
/// `statistics.quantiles(values, n=10)` gives; fewer are clamped to the
/// extreme values rather than extrapolated.
fn decile(values: &[f64], k: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return v[0];
    }
    let m = k as f64 * (v.len() + 1) as f64 / 10.0;
    let j = (m.floor() as usize).clamp(1, v.len() - 1);
    let frac = (m - j as f64).clamp(0.0, 1.0);
    v[j - 1] + frac * (v[j] - v[j - 1])
}

/// Batches of consecutive set-ups whose mean times `setup_s` takes the
/// median of (see [`Setups`]).
const SETUP_BATCHES: usize = 5;

/// The set-up of a run and its repetitions, from which `setup_s` comes.
///
/// A run's speed depends on the state the shared machine is in: set-up
/// times switch between a fast and a slow level, about a quarter apart,
/// every second or so. Set-ups repeated back to back all measure the one
/// state the run started in, and their median moved by a third between
/// runs. Repetitions are therefore spread evenly over the timed loop,
/// outside its work clock, so the set-ups see the same mix of states as
/// the timed metrics. Because the median of a two-level mix jumps between
/// the levels as the mix shifts, `setup_s` is the median of the means of
/// `SETUP_BATCHES` consecutive batches of set-ups of equal size (give or
/// take one), each covering a fifth of the run. Every repetition must give the first one's inputs.
pub struct Setups<'a> {
    times: Vec<f64>,
    every_ns: Option<u64>,
    /// Set up once more; the seconds that took and the inputs' digest.
    repeat: Box<dyn FnMut() -> (f64, String) + 'a>,
    inputs: String,
}

impl<'a> Setups<'a> {
    /// Run the first set-up, timed by `once`, which returns the set-up's
    /// seconds, its product and the digest of its inputs. Later calls to
    /// `once` repeat it every `every` of the timed loop (never if `None`).
    pub fn first<T>(
        every: Option<Duration>,
        mut once: impl FnMut() -> (f64, T, String) + 'a,
    ) -> (T, Setups<'a>) {
        let (secs, product, inputs) = once();
        let setups = Setups {
            times: vec![secs],
            every_ns: every.map(|e| e.as_nanos() as u64),
            repeat: Box::new(move || {
                let (secs, _, h) = once();
                (secs, h)
            }),
            inputs,
        };
        (product, setups)
    }

    /// Digest of the inputs the set-up generated.
    pub fn inputs(&self) -> &str {
        &self.inputs
    }

    /// Repeat the set-up if one is due `work_ns` into the timed loop's
    /// work clock. Returns the wall time that took, which the caller
    /// leaves out of its work clock.
    pub fn repeat_if_due(&mut self, work_ns: u64, out: &mut Outcome) -> u64 {
        let due = self
            .every_ns
            .is_some_and(|e| work_ns >= e * self.times.len() as u64);
        if !due {
            return 0;
        }
        let t = Instant::now();
        let (secs, h) = (self.repeat)();
        self.times.push(secs);
        let rep = self.times.len();
        out.check(h == self.inputs, || {
            format!("set-up repetition {rep} generated different inputs")
        });
        ns_since(t)
    }

    /// Median of the batch means of the set-up times in seconds, and the
    /// number of set-ups.
    pub fn median_s(&self) -> (f64, usize) {
        let n = self.times.len();
        let means: Vec<f64> = (0..SETUP_BATCHES)
            .map(|b| &self.times[b * n / SETUP_BATCHES..(b + 1) * n / SETUP_BATCHES])
            .filter(|batch| !batch.is_empty())
            .map(|batch| batch.iter().sum::<f64>() / batch.len() as f64)
            .collect();
        (median(&means), n)
    }

    /// Every set-up time in milliseconds, in run order.
    pub fn times_ms(&self) -> String {
        let ms: Vec<String> = self
            .times
            .iter()
            .map(|t| format!("{:.3}", t * 1e3))
            .collect();
        ms.join(" ")
    }
}

/// Time `generate`, for [`Setups::first`]: the seconds, the inputs and
/// their digest.
pub fn timed<T>(generate: impl Fn() -> T, digest: impl Fn(&T) -> Digest) -> (f64, T, String) {
    let t = Instant::now();
    let inputs = generate();
    let secs = t.elapsed().as_secs_f64();
    let h = digest(&inputs).hex();
    (secs, inputs, h)
}

/// Median of a few repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one run reports: op counts, lines printed before the
/// result, and the metrics of the result line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Per-layer metrics of the traced run.
    pub layers: Vec<Metric>,
}

impl Outcome {
    /// Count one checked operation; a failed check is printed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                self.notes.push(format!("check failed: {}", what()));
            }
        }
    }

    /// Record the end-to-end metrics under their shared names
    /// (`setup_s`, `throughput_per_s`, `op1_p50_us`..`op3_p50_us`), and
    /// print each beside the workload's own name for it, with the whole-run
    /// p50 and p99 of every timed class as ungated diagnostics.
    pub fn end_to_end(
        &mut self,
        setups: &Setups,
        rate_name: &str,
        classes: [&str; 3],
        w: &Windows,
    ) {
        let rate = w.rate();
        let (setup_s, reps) = setups.median_s();
        self.notes
            .push(format!("metric setup_s = {setup_s} s (median of {SETUP_BATCHES} batch means of {reps} set-ups)"));
        self.notes
            .push(format!("diag setup_ms = {}", setups.times_ms()));
        self.notes.push(format!(
            "metric {rate_name} = {rate} 1/s [throughput_per_s] (lowest decile of {} windows)",
            w.windows()
        ));
        self.notes.push(format!(
            "diag {rate_name}_whole_run = {} 1/s",
            w.mean_rate()
        ));
        self.metrics.push(metric("setup_s", setup_s, "s"));
        self.metrics.push(metric("throughput_per_s", rate, "1/s"));
        const SLOTS: [&str; 3] = ["op1_p50_us", "op2_p50_us", "op3_p50_us"];
        for (k, (slot, name)) in SLOTS.into_iter().zip(classes).enumerate() {
            let p50 = w.p50_us(k);
            let all = &w.all[k];
            let (p99, beyond) = all.p99_us();
            self.notes.push(format!(
                "metric {name}_p50_us = {p50} us [{slot}] (highest decile of per-window p50s)"
            ));
            self.notes.push(format!(
                "diag {name}_whole_run_p50_us = {} us, p99 = {p99} us ({beyond} of {} samples beyond)",
                all.p50_us(),
                all.len()
            ));
            self.metrics.push(metric(slot, p50, "us"));
        }
    }
}

/// The result line the benchmark ends its standard output with.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        // Rust's `{}` for f64 prints the shortest exact round-trip form.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut s = Samples::default();
        for ns in (1..=100).map(|i| i * 1000) {
            s.push(ns);
        }
        assert_eq!(s.p50_us(), 50.0);
        assert_eq!(s.p99_us(), (99.0, 1));
    }

    #[test]
    fn deciles_match_python() {
        // statistics.quantiles(range(1, 20), n=10) starts 2.0 and ends 18.0.
        let v: Vec<f64> = (1..20).map(f64::from).collect();
        assert_eq!(decile(&v, 1), 2.0);
        assert_eq!(decile(&v, 9), 18.0);
        let w = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(decile(&w, 1), 1.0);
        assert_eq!(decile(&w, 9), 4.0);
    }

    #[test]
    fn rng_below_stays_in_range() {
        let mut r = Rng::new(7);
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
