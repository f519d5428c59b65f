//! Polynomial surface/hyperplane fitting — the Rust equivalent of the
//! paper's MATLAB surface fits (Figs. 3.4, 3.6, 3.7).
//!
//! The delay library stores each characterized quantity as a low-order
//! polynomial in the sweep variables: `(input slew, wire length)` for
//! single-wire components, `(input slew, left length, right length)` for
//! branch components. Inputs are standardized (zero mean, unit variance per
//! dimension) before fitting so the normal equations stay well conditioned,
//! and queries are clamped to the characterized domain — extrapolating a
//! cubic outside its data is how timing models go wrong silently.

use crate::linalg::{least_squares, Matrix};
use std::fmt;

/// Error returned when a polynomial fit cannot be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer samples than polynomial coefficients.
    TooFewSamples {
        /// Samples provided.
        samples: usize,
        /// Coefficients required by the requested order.
        needed: usize,
    },
    /// The design matrix was rank deficient (e.g. all samples identical in
    /// one dimension).
    Degenerate,
    /// A sample contained a non-finite coordinate or value.
    NonFiniteSample,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { samples, needed } => write!(
                f,
                "too few samples for fit: {samples} provided, {needed} needed"
            ),
            FitError::Degenerate => write!(f, "design matrix is rank deficient"),
            FitError::NonFiniteSample => write!(f, "samples must be finite"),
        }
    }
}

impl std::error::Error for FitError {}

/// Monomial powers for a full polynomial basis of total degree `order` in
/// `dims` variables.
fn basis_powers(dims: usize, order: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut current = vec![0u32; dims];
    fn rec(dims: usize, idx: usize, left: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if idx == dims {
            out.push(current.clone());
            return;
        }
        for p in 0..=left {
            current[idx] = p;
            rec(dims, idx + 1, left - p, current, out);
        }
        current[idx] = 0;
    }
    rec(dims, 0, order, &mut current, &mut out);
    out
}

/// Most input variables a fit may have. The library's surfaces take two
/// (input slew, wire length) and its volumes three (input slew, two arm
/// lengths); [`PolyFit::eval`] standardizes a query into a stack array of
/// this size instead of a heap-allocated one.
pub const MAX_DIMS: usize = 3;

/// [`basis_powers`] with every term padded to [`MAX_DIMS`] exponents.
fn padded_powers(dims: usize, order: u32) -> Vec<[u32; MAX_DIMS]> {
    basis_powers(dims, order)
        .into_iter()
        .map(|p| {
            let mut padded = [0; MAX_DIMS];
            padded[..dims].copy_from_slice(&p);
            padded
        })
        .collect()
}

/// Per-dimension standardization parameters.
#[derive(Debug, Clone, PartialEq)]
struct Standardizer {
    mean: Vec<f64>,
    scale: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Standardizer {
    fn from_samples(dims: usize, points: &[Vec<f64>]) -> Standardizer {
        let n = points.len() as f64;
        let mut mean = vec![0.0; dims];
        let mut lo = vec![f64::INFINITY; dims];
        let mut hi = vec![f64::NEG_INFINITY; dims];
        for p in points {
            for d in 0..dims {
                mean[d] += p[d];
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut scale = vec![0.0; dims];
        for p in points {
            for d in 0..dims {
                scale[d] += (p[d] - mean[d]).powi(2);
            }
        }
        for s in &mut scale {
            *s = (*s / n).sqrt().max(1e-12);
        }
        Standardizer {
            mean,
            scale,
            lo,
            hi,
        }
    }

    /// Coordinate `d` of a query, clamped to the fitted domain and
    /// standardized — one element of `apply(x, true)`, same operations.
    fn standardize(&self, d: usize, v: f64) -> f64 {
        (v.clamp(self.lo[d], self.hi[d]) - self.mean[d]) / self.scale[d]
    }

    fn apply(&self, x: &[f64], clamp: bool) -> Vec<f64> {
        x.iter()
            .enumerate()
            .map(|(d, &v)| {
                let v = if clamp {
                    v.clamp(self.lo[d], self.hi[d])
                } else {
                    v
                };
                (v - self.mean[d]) / self.scale[d]
            })
            .collect()
    }
}

/// A fitted polynomial in `D` variables with domain clamping.
///
/// Build one with [`PolyFit::fit`]; evaluate with [`PolyFit::eval`].
///
/// ```
/// use cts_timing::fit::PolyFit;
/// // z = 1 + 2x + 3y, sampled on a grid.
/// let mut pts = Vec::new();
/// let mut vals = Vec::new();
/// for i in 0..5 {
///     for j in 0..5 {
///         let (x, y) = (i as f64, j as f64);
///         pts.push(vec![x, y]);
///         vals.push(1.0 + 2.0 * x + 3.0 * y);
///     }
/// }
/// let fit = PolyFit::fit(2, 2, &pts, &vals)?;
/// assert!((fit.eval(&[2.0, 2.0]) - 11.0).abs() < 1e-8);
/// # Ok::<(), cts_timing::fit::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    dims: usize,
    order: u32,
    /// Monomial exponents per term, in basis order; dimensions past `dims`
    /// hold 0, whose factor is an exact 1.0.
    powers: Vec<[u32; MAX_DIMS]>,
    coefs: Vec<f64>,
    std: Standardizer,
    max_abs_residual: f64,
    rms_residual: f64,
}

impl PolyFit {
    /// Fits a full polynomial of total degree `order` in `dims` variables to
    /// the samples `(points[i], values[i])` by least squares.
    ///
    /// # Errors
    ///
    /// Returns [`FitError`] if there are fewer samples than coefficients,
    /// samples are non-finite, or the design matrix is rank deficient.
    ///
    /// # Panics
    ///
    /// Panics if any point has the wrong dimensionality, or `dims` is 0 or
    /// above [`MAX_DIMS`].
    pub fn fit(
        dims: usize,
        order: u32,
        points: &[Vec<f64>],
        values: &[f64],
    ) -> Result<PolyFit, FitError> {
        assert!(
            (1..=MAX_DIMS).contains(&dims),
            "dims must be in 1..={MAX_DIMS}"
        );
        assert_eq!(points.len(), values.len(), "points/values must match");
        for p in points {
            assert_eq!(p.len(), dims, "point dimensionality mismatch");
        }
        if points
            .iter()
            .flat_map(|p| p.iter())
            .chain(values.iter())
            .any(|v| !v.is_finite())
        {
            return Err(FitError::NonFiniteSample);
        }
        let powers = padded_powers(dims, order);
        if points.len() < powers.len() {
            return Err(FitError::TooFewSamples {
                samples: points.len(),
                needed: powers.len(),
            });
        }
        let std = Standardizer::from_samples(dims, points);
        let design = Matrix::from_fn(points.len(), powers.len(), |r, c| {
            let x = std.apply(&points[r], false);
            monomial(&x, &powers[c][..dims])
        });
        let coefs = least_squares(&design, values).ok_or(FitError::Degenerate)?;

        let mut max_abs = 0.0f64;
        let mut sum_sq = 0.0f64;
        let predictions = design.mul_vec(&coefs);
        for (pred, &truth) in predictions.iter().zip(values) {
            let e = (pred - truth).abs();
            max_abs = max_abs.max(e);
            sum_sq += e * e;
        }
        let rms = (sum_sq / values.len() as f64).sqrt();

        Ok(PolyFit {
            dims,
            order,
            powers,
            coefs,
            std,
            max_abs_residual: max_abs,
            rms_residual: rms,
        })
    }

    /// Evaluates the polynomial at `x`, clamping each coordinate to the
    /// fitted domain (no extrapolation).
    ///
    /// Allocation-free, and bit-identical to standardizing into a vector
    /// and summing `c · Π z_d.powi(p_d)` over the terms: the same
    /// operations run in the same order. Each dimension gets a power table
    /// `[1, z, z·z, z·(z·z)]`, which is exactly what `powi`'s
    /// square-and-multiply computes for exponents up to 3; higher
    /// exponents still call `powi`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimensionality.
    pub fn eval(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "query dimensionality mismatch");
        let mut pow = [[1.0f64; 4]; MAX_DIMS];
        for (d, (table, &v)) in pow.iter_mut().zip(x).enumerate() {
            *table = power_table(self.std.standardize(d, v));
        }
        self.powers
            .iter()
            .zip(&self.coefs)
            .map(|(p, c)| {
                c * p
                    .iter()
                    .zip(&pow)
                    .map(|(&e, table)| power(table, e))
                    .product::<f64>()
            })
            .sum()
    }

    /// The 1-D section `v ↦ eval(&[x0, v])` of a two-variable fit, with
    /// the first coordinate's work done once, here.
    ///
    /// Bit-identical to [`PolyFit::eval`] at every `v`: `eval` forms each
    /// term as `c · (((1 · t0[e0]) · t1[e1]) · 1)`, where `t0`/`t1` are the
    /// coordinates' power tables, the leading 1 seeds the product and the
    /// trailing 1 is the padding dimension's factor. Multiplying by 1.0 is
    /// exact, so that product is
    /// `c · (q · t1[e1])` with `q = t0[e0]` — which the section stores per
    /// term and [`FitSection::eval`] completes, summing the terms in the
    /// same order. Exponents above the power table take the same `powi`
    /// fallback on either coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the fit does not have exactly two input variables.
    pub fn section(&self, x0: f64) -> FitSection {
        assert_eq!(self.dims, 2, "sections are taken of two-variable fits");
        let t0 = power_table(self.std.standardize(0, x0));
        FitSection {
            terms: self
                .powers
                .iter()
                .zip(&self.coefs)
                .map(|(p, &c)| (c, power(&t0, p[0]), p[1]))
                .collect(),
            mean: self.std.mean[1],
            scale: self.std.scale[1],
            lo: self.std.lo[1],
            hi: self.std.hi[1],
        }
    }

    /// A copy of this fit with every coefficient (and the residual
    /// statistics) multiplied by `factor`, so the surface's output is
    /// scaled by `factor` over the entire domain. `factor == 1.0`
    /// reproduces `self` bit-identically (`x * 1.0 == x` for finite
    /// coefficients), which the variation axis relies on for the
    /// sigma-zero case.
    pub(crate) fn scaled(&self, factor: f64) -> PolyFit {
        PolyFit {
            dims: self.dims,
            order: self.order,
            powers: self.powers.clone(),
            coefs: self.coefs.iter().map(|c| c * factor).collect(),
            std: self.std.clone(),
            max_abs_residual: self.max_abs_residual * factor.abs(),
            rms_residual: self.rms_residual * factor.abs(),
        }
    }

    /// Number of input variables.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Total polynomial degree.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Largest absolute residual over the fitting samples.
    pub fn max_abs_residual(&self) -> f64 {
        self.max_abs_residual
    }

    /// Root-mean-square residual over the fitting samples.
    pub fn rms_residual(&self) -> f64 {
        self.rms_residual
    }

    /// The fitted domain: per-dimension `(lo, hi)` bounds that queries are
    /// clamped to.
    pub fn domain(&self) -> Vec<(f64, f64)> {
        (0..self.dims)
            .map(|d| (self.std.lo[d], self.std.hi[d]))
            .collect()
    }

    // -- (de)serialization support for the library's text format ----------

    pub(crate) fn to_record(&self) -> Vec<f64> {
        let mut rec = vec![self.dims as f64, self.order as f64];
        rec.extend(self.std.mean.iter());
        rec.extend(self.std.scale.iter());
        rec.extend(self.std.lo.iter());
        rec.extend(self.std.hi.iter());
        rec.push(self.max_abs_residual);
        rec.push(self.rms_residual);
        rec.extend(self.coefs.iter());
        rec
    }

    pub(crate) fn from_record(rec: &[f64]) -> Option<PolyFit> {
        if rec.len() < 2 {
            return None;
        }
        let dims = rec[0] as usize;
        let order = rec[1] as u32;
        if !(1..=MAX_DIMS).contains(&dims) {
            return None;
        }
        let powers = padded_powers(dims, order);
        let need = 2 + 4 * dims + 2 + powers.len();
        if rec.len() != need {
            return None;
        }
        let mut it = rec[2..].iter().copied();
        let mut take = |n: usize| -> Vec<f64> { (&mut it).take(n).collect() };
        let mean = take(dims);
        let scale = take(dims);
        let lo = take(dims);
        let hi = take(dims);
        let max_abs_residual = it.next()?;
        let rms_residual = it.next()?;
        let coefs: Vec<f64> = it.collect();
        Some(PolyFit {
            dims,
            order,
            powers,
            coefs,
            std: Standardizer {
                mean,
                scale,
                lo,
                hi,
            },
            max_abs_residual,
            rms_residual,
        })
    }
}

/// `[1, z, z·z, z·(z·z)]`: exactly what `powi`'s square-and-multiply
/// computes for exponents up to 3.
#[inline]
fn power_table(z: f64) -> [f64; 4] {
    let z2 = z * z;
    [1.0, z, z2, z * z2]
}

/// `z^e` from a [`power_table`] of `z`, through `powi` above the table.
#[inline]
fn power(table: &[f64; 4], e: u32) -> f64 {
    match table.get(e as usize) {
        Some(&v) => v,
        None => table[1].powi(e as i32),
    }
}

/// A two-variable [`PolyFit`] with its first coordinate fixed: see
/// [`PolyFit::section`]. Evaluation is allocation-free.
#[derive(Debug, Clone, PartialEq)]
pub struct FitSection {
    /// Per term: coefficient, first-coordinate power, second exponent.
    terms: Vec<(f64, f64, u32)>,
    mean: f64,
    scale: f64,
    lo: f64,
    hi: f64,
}

impl FitSection {
    /// The fit at `(x0, v)`, bit for bit, clamping `v` to the fitted
    /// domain like [`PolyFit::eval`].
    #[inline]
    pub fn eval(&self, v: f64) -> f64 {
        let t1 = power_table((v.clamp(self.lo, self.hi) - self.mean) / self.scale);
        self.terms
            .iter()
            .map(|&(c, q, e1)| c * (q * power(&t1, e1)))
            .sum()
    }
}

fn monomial(x: &[f64], powers: &[u32]) -> f64 {
    x.iter()
        .zip(powers)
        .map(|(v, &p)| v.powi(p as i32))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The evaluator [`PolyFit::eval`] replaced, kept as its bit-identity
    /// reference: standardize into a heap vector, then sum
    /// `c · Π z.powi(p)` over the nested basis.
    fn reference_eval(fit: &PolyFit, x: &[f64]) -> f64 {
        let z = fit.std.apply(x, true);
        basis_powers(fit.dims, fit.order)
            .iter()
            .zip(&fit.coefs)
            .map(|(p, c)| c * monomial(&z, p))
            .sum()
    }

    #[test]
    fn eval_is_bit_identical_to_the_allocating_reference() {
        let mut rng = StdRng::seed_from_u64(0x6b65_726e_656c);
        for dims in 1..=MAX_DIMS {
            // Orders up to 4 cover the `powi` fallback above the table.
            for order in 0..=4u32 {
                for _fit in 0..3 {
                    // Per-dimension domains of very different magnitude,
                    // like (slew [s], length [µm]).
                    let domains: Vec<(f64, f64)> = (0..dims)
                        .map(|d| {
                            let mag = [1e-11, 1e3, 1e2][d];
                            let lo = rng.gen_range(0.0..mag);
                            (lo, lo + rng.gen_range(0.5 * mag..3.0 * mag))
                        })
                        .collect();
                    let pts: Vec<Vec<f64>> = (0..80)
                        .map(|_| {
                            domains
                                .iter()
                                .map(|&(lo, hi)| rng.gen_range(lo..hi))
                                .collect()
                        })
                        .collect();
                    let vals: Vec<f64> = pts
                        .iter()
                        .map(|p| {
                            let u: Vec<f64> = p
                                .iter()
                                .zip(&domains)
                                .map(|(v, (lo, hi))| (v - lo) / (hi - lo))
                                .collect();
                            u.iter().map(|v| (1.7 * v).sin()).sum::<f64>()
                                + u.iter().product::<f64>()
                                + rng.gen_range(-1e-3..1e-3)
                        })
                        .collect();
                    let fit = PolyFit::fit(dims, order, &pts, &vals).unwrap();
                    for _ in 0..200 {
                        // Half a domain beyond each side, so clamping runs.
                        let q: Vec<f64> = domains
                            .iter()
                            .map(|&(lo, hi)| {
                                let w = hi - lo;
                                rng.gen_range(lo - 0.5 * w..hi + 0.5 * w)
                            })
                            .collect();
                        assert_eq!(
                            fit.eval(&q).to_bits(),
                            reference_eval(&fit, &q).to_bits(),
                            "dims {dims} order {order} at {q:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn section_is_bit_identical_to_eval() {
        let mut rng = StdRng::seed_from_u64(0x0073_6563_7469_6f6e);
        // Orders up to 4 run the `powi` fallback on both coordinates.
        for order in 0..=4u32 {
            for _fit in 0..4 {
                let domains = [
                    {
                        let lo = rng.gen_range(0.0..1e-11);
                        (lo, lo + rng.gen_range(0.5e-11..3e-11))
                    },
                    {
                        let lo = rng.gen_range(0.0..1e3);
                        (lo, lo + rng.gen_range(0.5e3..3e3))
                    },
                ];
                let pts: Vec<Vec<f64>> = (0..60)
                    .map(|_| {
                        domains
                            .iter()
                            .map(|&(lo, hi)| rng.gen_range(lo..hi))
                            .collect()
                    })
                    .collect();
                let vals: Vec<f64> = pts
                    .iter()
                    .map(|p| (3e10 * p[0]).sin() + (1e-3 * p[1]).cos() + 1e7 * p[0] * p[1])
                    .collect();
                let fit = PolyFit::fit(2, order, &pts, &vals).unwrap();
                // Half a domain beyond each side, so both clamps run.
                let beyond = |(lo, hi): (f64, f64), rng: &mut StdRng| {
                    let w = hi - lo;
                    rng.gen_range(lo - 0.5 * w..hi + 0.5 * w)
                };
                for _ in 0..20 {
                    let x0 = beyond(domains[0], &mut rng);
                    let section = fit.section(x0);
                    for _ in 0..50 {
                        let v = beyond(domains[1], &mut rng);
                        assert_eq!(
                            section.eval(v).to_bits(),
                            fit.eval(&[x0, v]).to_bits(),
                            "order {order} at ({x0:e}, {v})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "two-variable fits")]
    fn sections_need_two_variables() {
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let _ = PolyFit::fit(1, 1, &pts, &vals).unwrap().section(0.0);
    }

    #[test]
    #[should_panic(expected = "dims must be in")]
    fn too_many_dims_is_rejected() {
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64; MAX_DIMS + 1]).collect();
        let _ = PolyFit::fit(MAX_DIMS + 1, 1, &pts, &[0.0; 8]);
    }

    #[test]
    fn basis_sizes() {
        assert_eq!(basis_powers(2, 3).len(), 10); // full bivariate cubic
        assert_eq!(basis_powers(2, 4).len(), 15);
        assert_eq!(basis_powers(3, 2).len(), 10); // trivariate quadratic
        assert_eq!(basis_powers(1, 4).len(), 5);
    }

    #[test]
    fn fits_exact_cubic_surface() {
        let f =
            |x: f64, y: f64| 0.5 - x + 2.0 * y + 0.25 * x * x - 0.1 * x * y * y + 0.03 * x * x * x;
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                let (x, y) = (i as f64 * 0.7, j as f64 * 1.3 + 2.0);
                pts.push(vec![x, y]);
                vals.push(f(x, y));
            }
        }
        let fit = PolyFit::fit(2, 3, &pts, &vals).unwrap();
        assert!(
            fit.max_abs_residual() < 1e-8,
            "residual {}",
            fit.max_abs_residual()
        );
        assert!((fit.eval(&[1.05, 3.3]) - f(1.05, 3.3)).abs() < 1e-7);
    }

    #[test]
    fn clamps_outside_domain() {
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let vals: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let fit = PolyFit::fit(1, 1, &pts, &vals).unwrap();
        // Queries beyond the domain return the edge value, not extrapolation.
        assert!((fit.eval(&[100.0]) - fit.eval(&[9.0])).abs() < 1e-9);
        assert!((fit.eval(&[-5.0]) - fit.eval(&[0.0])).abs() < 1e-9);
    }

    #[test]
    fn too_few_samples_is_an_error() {
        let pts = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let vals = vec![0.0, 1.0];
        match PolyFit::fit(2, 3, &pts, &vals) {
            Err(FitError::TooFewSamples {
                needed: 10,
                samples: 2,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn degenerate_samples_are_an_error() {
        // All x identical: can't identify x coefficients.
        let pts: Vec<Vec<f64>> = (0..12).map(|i| vec![5.0, i as f64]).collect();
        let vals: Vec<f64> = (0..12).map(|i| i as f64).collect();
        assert!(matches!(
            PolyFit::fit(2, 2, &pts, &vals),
            Err(FitError::Degenerate) | Ok(_)
        ));
        // (Standardization may still let the fit through with ~zero scale;
        // if it does, evaluation must at least reproduce the samples.)
        if let Ok(fit) = PolyFit::fit(2, 2, &pts, &vals) {
            assert!(fit.rms_residual() < 1e-6);
        }
    }

    #[test]
    fn non_finite_rejected() {
        let pts = vec![vec![f64::NAN], vec![1.0]];
        let vals = vec![0.0, 1.0];
        assert_eq!(
            PolyFit::fit(1, 1, &pts, &vals),
            Err(FitError::NonFiniteSample)
        );
    }

    #[test]
    fn record_roundtrip() {
        let pts: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64 * 0.3, (i % 5) as f64])
            .collect();
        let vals: Vec<f64> = pts.iter().map(|p| 1.0 + p[0] * p[1]).collect();
        let fit = PolyFit::fit(2, 2, &pts, &vals).unwrap();
        let rec = fit.to_record();
        let back = PolyFit::from_record(&rec).unwrap();
        assert_eq!(fit, back);
        assert!(PolyFit::from_record(&rec[..rec.len() - 1]).is_none());
    }

    #[test]
    fn trivariate_hyperplane_fit() {
        // The Fig. 3.6/3.7 shape: delay(slew, l_left, l_right).
        let f = |s: f64, a: f64, b: f64| 3.0 + 0.2 * s + 0.9 * a + 0.4 * b + 0.01 * a * b;
        let mut pts = Vec::new();
        let mut vals = Vec::new();
        for s in 0..3 {
            for a in 0..4 {
                for b in 0..4 {
                    let p = vec![s as f64 * 20.0, a as f64 * 300.0, b as f64 * 300.0];
                    vals.push(f(p[0], p[1], p[2]));
                    pts.push(p);
                }
            }
        }
        let fit = PolyFit::fit(3, 2, &pts, &vals).unwrap();
        assert!(fit.max_abs_residual() < 1e-6);
    }
}
