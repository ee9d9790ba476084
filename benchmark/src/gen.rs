//! Everything drawn from `--seed`: the job mix, the open-loop arrival
//! schedule and the trace sample. The daemon only ever sees `Submit`
//! frames; the same seed regenerates the same inputs.

use std::time::{Duration, Instant};

/// splitmix64 — a few lines, no dependency, good enough to draw a mix.
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

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The workload's job mix as an endless stream of class indices, each an
/// independent draw with the classes' shares as probabilities.
pub struct ClassStream {
    rng: Rng,
    shares: Vec<f64>,
}

impl ClassStream {
    pub fn new(seed: u64, shares: &[f64]) -> ClassStream {
        ClassStream {
            rng: Rng::new(seed),
            shares: shares.to_vec(),
        }
    }
}

impl Iterator for ClassStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let mut u = self.rng.next_f64();
        for (class, share) in self.shares.iter().enumerate() {
            if u < *share {
                return Some(class);
            }
            u -= share;
        }
        Some(self.shares.len() - 1)
    }
}

/// One open-loop arrival.
#[derive(Clone, Copy, Debug)]
pub struct Arrival {
    /// When the job is due to be sent, in seconds from the schedule's start.
    pub due_s: f64,
    pub tenant: usize,
    /// Index into the workload's job mix.
    pub class: usize,
}

/// Poisson arrivals at a mean `rate_per_s` for `seconds`: exponential
/// gaps, each arrival's tenant a fair coin and its class a draw from the
/// mix, all from the seed. The two tenants offer equal load whatever their
/// admission weights, so whenever jobs queue the daemon has to choose.
pub fn open_schedule(seed: u64, rate_per_s: f64, seconds: f64, shares: &[f64]) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0xa771_7a15);
    let mut classes = ClassStream::new(seed, shares);
    let mut due_s = 0.0;
    std::iter::from_fn(move || {
        due_s += -(1.0 - rng.next_f64()).ln() / rate_per_s;
        Some(Arrival {
            due_s,
            tenant: (rng.next_u64() & 1) as usize,
            class: classes.next().expect("endless"),
        })
    })
    .take_while(|a| a.due_s < seconds)
    .collect()
}

/// `k` distinct indices below `n`, ascending — the jobs the trace ladder
/// replays.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x7ace);
    let mut all: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

/// The open-loop generator's view of time; a test substitutes a clock it
/// can stall.
pub trait Clock {
    fn now_s(&self) -> f64;
    fn sleep_until(&mut self, t_s: f64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    fn sleep_until(&mut self, t_s: f64) {
        let now = self.now_s();
        if t_s > now {
            std::thread::sleep(Duration::from_secs_f64(t_s - now));
        }
    }
}

/// Send arrival `i` at `dues[i]`, never earlier and — when the generator
/// has fallen behind — immediately. Returns how late each send started.
/// The schedule does not slip: a stall delays the sends it covers but
/// leaves every later due time where it was, so the wait it imposes is
/// charged to the jobs that suffered it.
pub fn pace<C: Clock>(
    clock: &mut C,
    dues: &[f64],
    mut send: impl FnMut(usize, &mut C),
) -> Vec<f64> {
    let mut late = Vec::with_capacity(dues.len());
    for (i, &due) in dues.iter().enumerate() {
        clock.sleep_until(due);
        late.push((clock.now_s() - due).max(0.0));
        send(i, clock);
    }
    late
}

/// Open-loop latency: from when the job was *due*, not from when a late
/// generator got round to sending it.
pub fn latency_from_due_ms(due_s: f64, done_s: f64) -> f64 {
    (done_s - due_s) * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let key = |s: &[Arrival]| -> Vec<(u64, usize, usize)> {
            s.iter()
                .map(|x| (x.due_s.to_bits(), x.tenant, x.class))
                .collect()
        };
        let a = open_schedule(7, 200.0, 50.0, &[0.9, 0.1]);
        assert_eq!(key(&a), key(&open_schedule(7, 200.0, 50.0, &[0.9, 0.1])));
        assert_ne!(key(&a), key(&open_schedule(8, 200.0, 50.0, &[0.9, 0.1])));
        // About the asked rate, mix and tenant split (10 000 draws), in
        // due-time order, with gaps that are not all alike.
        let share = |n: usize| n as f64 / a.len() as f64;
        assert!((9_600..=10_400).contains(&a.len()), "{} arrivals", a.len());
        assert!((share(a.iter().filter(|x| x.class == 1).count()) - 0.1).abs() < 0.01);
        assert!((share(a.iter().filter(|x| x.tenant == 1).count()) - 0.5).abs() < 0.02);
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        let short = a.windows(2).filter(|w| w[1].due_s - w[0].due_s < 0.0025);
        assert!(
            (share(short.count()) - 0.393).abs() < 0.02,
            "exponential gaps"
        );
        assert_eq!(sample_indices(3, 100, 5), sample_indices(3, 100, 5));
        assert_eq!(sample_indices(3, 4, 9), vec![0, 1, 2, 3]);
    }

    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now_s(&self) -> f64 {
            self.0
        }

        fn sleep_until(&mut self, t_s: f64) {
            self.0 = self.0.max(t_s);
        }
    }

    /// The generator stalls for 25 ms while sending job 1. Jobs 2 and 3
    /// fell due inside the stall: they are sent late, and their latency
    /// must count from their due times — timing from the send would
    /// report 1 ms for all of them and hide the stall.
    #[test]
    fn a_generator_stall_is_charged_from_the_due_time() {
        let dues = [0.000, 0.010, 0.020, 0.030, 0.040];
        let service = 0.001;
        let mut clock = FakeClock(0.0);
        let mut done = Vec::new();
        let late = pace(&mut clock, &dues, |i, clock| {
            if i == 1 {
                clock.0 += 0.025;
            }
            // The request reaches the server once the send returns.
            done.push(clock.0 + service);
        });
        let late_ms: Vec<i64> = late.iter().map(|l| (l * 1e3).round() as i64).collect();
        assert_eq!(late_ms, [0, 0, 15, 5, 0]);
        let lat_ms: Vec<i64> = dues
            .iter()
            .zip(&done)
            .map(|(due, done)| latency_from_due_ms(*due, *done).round() as i64)
            .collect();
        assert_eq!(lat_ms, [1, 26, 16, 6, 1]);
    }
}
