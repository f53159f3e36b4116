//! Random distributions for workload generation and policies.
//!
//! `rand_distr` is not on the approved dependency list for this
//! reproduction, so the distributions the experiments need are implemented
//! here from first principles:
//!
//! * [`Exp`] — exponential inter-arrival times for the open-loop Poisson
//!   load generators of §7.2/§7.3.
//! * [`Gamma`] (Marsaglia–Tsang) and [`Beta`] — required by SOL's Thompson
//!   sampling with a Beta prior (§4.2).
//! * [`Pareto`] — heavy-tailed service times for the synthetic
//!   production-trace generator (`wave_core::workload`).
//!
//! Each sampler has moment-level statistical tests.

use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Sampled by inversion: `-ln(U)/lambda`.
///
/// # Examples
///
/// ```
/// use wave_sim::dist::Exp;
/// let mut rng = wave_sim::rng(7);
/// let exp = Exp::new(1e6); // one-microsecond mean, in seconds
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp {
    lambda: f64,
}

impl Exp {
    /// Creates an exponential distribution with rate `lambda` (events per
    /// unit time).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exp { lambda }
    }

    /// The rate parameter.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Guard against ln(0): random() is in [0, 1).
        let u: f64 = 1.0 - rng.random::<f64>();
        -u.ln() / self.lambda
    }
}

/// Pareto distribution with shape `alpha` and minimum value `scale`.
///
/// Sampled by inversion: `scale * U^(-1/alpha)`. The heavy tail
/// (`P[X > x] = (scale/x)^alpha`) is what makes trace-shaped service
/// times "dispersive" in a way the bimodal paper mix is not: for
/// `alpha <= 2` the variance is infinite, so open-loop queues see rare
/// but enormous jobs.
///
/// # Examples
///
/// ```
/// use wave_sim::dist::Pareto;
/// let mut rng = wave_sim::rng(7);
/// let d = Pareto::new(1.5, 10.0);
/// assert!(d.sample(&mut rng) >= 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    alpha: f64,
    scale: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with tail index `alpha` and minimum
    /// `scale`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(alpha: f64, scale: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "pareto shape must be positive, got {alpha}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "pareto scale must be positive, got {scale}"
        );
        Pareto { alpha, scale }
    }

    /// The distribution mean (`alpha * scale / (alpha - 1)` for
    /// `alpha > 1`; infinite otherwise).
    pub fn mean(&self) -> f64 {
        if self.alpha > 1.0 {
            self.alpha * self.scale / (self.alpha - 1.0)
        } else {
            f64::INFINITY
        }
    }

    /// Draws one sample in `[scale, inf)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.random::<f64>();
        self.scale * u.powf(-1.0 / self.alpha)
    }
}

/// Gamma distribution (shape `alpha`, scale 1) via Marsaglia & Tsang's
/// squeeze method, with the Johnk-style boost for `alpha < 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    alpha: f64,
}

impl Gamma {
    /// Creates a Gamma(α, 1) distribution.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not strictly positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "gamma shape must be positive, got {alpha}"
        );
        Gamma { alpha }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.alpha < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
            let g = Gamma::new(self.alpha + 1.0).sample(rng);
            let u: f64 = 1.0 - rng.random::<f64>();
            return g * u.powf(1.0 / self.alpha);
        }
        let d = self.alpha - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            // Standard normal via Box-Muller (deterministic given rng).
            let u1: f64 = 1.0 - rng.random::<f64>();
            let u2: f64 = rng.random();
            let x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let v = 1.0 + c * x;
            if v <= 0.0 {
                continue;
            }
            let v = v * v * v;
            let u: f64 = 1.0 - rng.random::<f64>();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

/// Beta(α, β) distribution, sampled as `Ga/(Ga+Gb)` from two Gammas.
///
/// This is the posterior SOL maintains per page batch: α counts observed
/// "hot" scans and β "cold" scans; Thompson sampling draws from the
/// posterior and classifies the batch by comparing against a threshold
/// (§4.2 of the paper, after SOL \[82\]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    a: Gamma,
    b: Gamma,
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Creates a Beta(α, β) distribution.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive and finite.
    pub fn new(alpha: f64, beta: f64) -> Self {
        Beta {
            a: Gamma::new(alpha),
            b: Gamma::new(beta),
            alpha,
            beta,
        }
    }

    /// The α parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The β parameter.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The distribution mean `α / (α + β)`.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Draws one sample in `(0, 1)`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let x = self.a.sample(rng);
        let y = self.b.sample(rng);
        x / (x + y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_and_var(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn exp_moments() {
        let mut rng = crate::rng(42);
        let d = Exp::new(2.0);
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn exp_rejects_zero_rate() {
        let _ = Exp::new(0.0);
    }

    #[test]
    fn pareto_median_and_mean() {
        let mut rng = crate::rng(11);
        let d = Pareto::new(2.5, 10.0);
        let mut samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(samples[0] >= 10.0, "support starts at scale");
        // Median = scale * 2^(1/alpha) ~ 13.195.
        let median = samples[samples.len() / 2];
        assert!((median - 13.195).abs() < 0.2, "median {median}");
        // Mean = 2.5 * 10 / 1.5 ~ 16.67 (finite variance at alpha=2.5,
        // but slow convergence: allow generous slack).
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 16.67).abs() < 0.8, "mean {mean}");
        assert!(Pareto::new(1.0, 5.0).mean().is_infinite());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn pareto_rejects_zero_shape() {
        let _ = Pareto::new(0.0, 1.0);
    }

    #[test]
    fn gamma_moments() {
        let mut rng = crate::rng(5);
        for &alpha in &[0.5, 1.0, 2.5, 9.0] {
            let d = Gamma::new(alpha);
            let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
            let (mean, var) = mean_and_var(&samples);
            assert!(
                (mean - alpha).abs() < 0.06 * alpha.max(1.0),
                "alpha {alpha} mean {mean}"
            );
            assert!(
                (var - alpha).abs() < 0.12 * alpha.max(1.0),
                "alpha {alpha} var {var}"
            );
        }
    }

    #[test]
    fn beta_moments() {
        let mut rng = crate::rng(6);
        let d = Beta::new(2.0, 6.0);
        let samples: Vec<f64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let (mean, var) = mean_and_var(&samples);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        // Var = ab / ((a+b)^2 (a+b+1)) = 12 / (64*9) = 0.0208
        assert!((var - 0.0208).abs() < 0.004, "var {var}");
        assert!(samples.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn beta_mean_accessor() {
        assert!((Beta::new(3.0, 1.0).mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = crate::rng(99);
        let mut b = crate::rng(99);
        let d = Exp::new(1.0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a).to_bits(), d.sample(&mut b).to_bits());
        }
    }
}
