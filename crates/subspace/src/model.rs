//! The subspace model: normal/anomalous separation of OD traffic.
//!
//! "The subspace method exploits this result by designating the trends in
//! these top k eigenflows as normal, and the temporal patterns in the
//! remaining eigenflows as anomalous (we use k = 4 throughout). We can then
//! use this separation to reconstruct each OD flow as a sum of normal and
//! anomalous components: x = x̂ + x̃" (§2.2).
//!
//! [`SubspaceModel`] fits PCA to a traffic matrix, splits the OD space into
//! the normal subspace (spanned by the top-`k` principal axes) and its
//! orthogonal complement, and exposes both detection statistics with their
//! thresholds:
//!
//! * the squared prediction error `SPE = ||x̃||²` against the
//!   Jackson–Mudholkar threshold `δ²_α`, and
//! * the `t²` statistic (sum of squared unit-variance normal-subspace
//!   scores) against `T²_{k,n,α} = k(n-1)/(n-k) F_{k,n-k,α}`.

use crate::eigenflow::EigenflowDecomposition;
use crate::error::{Result, SubspaceError};
use crate::qstat::q_threshold;
use crate::tsq::t2_threshold;
use odflow_linalg::{vecops, EigenMethod, Matrix};

/// Configuration of the subspace model.
///
/// # Examples
///
/// ```
/// use odflow_subspace::SubspaceConfig;
///
/// // The paper's defaults: k = 4, 99.9% confidence.
/// let cfg = SubspaceConfig::default();
/// assert_eq!((cfg.k, cfg.alpha), (4, 0.001));
///
/// // A larger normal subspace, as the large-mesh runs use:
/// let mesh = SubspaceConfig { k: 10, ..SubspaceConfig::default() };
/// assert_eq!(mesh.k, 10);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SubspaceConfig {
    /// Normal subspace dimension. The paper uses `k = 4` throughout.
    pub k: usize,
    /// False-alarm rate for both thresholds. The paper's figures use the
    /// 99.9% confidence level, i.e. `alpha = 0.001`.
    pub alpha: f64,
    /// Always [`EigenMethod::Auto`]: every fit is the exact one, its Gram
    /// chosen by the window's shape. The field stays because the frozen
    /// `e2e_bench` names it; the next `[benchmark]` PR drops that name and
    /// this field goes.
    pub method: EigenMethod,
}

impl Default for SubspaceConfig {
    fn default() -> Self {
        SubspaceConfig { k: 4, alpha: 0.001, method: EigenMethod::Auto }
    }
}

/// Decomposition of one traffic observation into normal and anomalous
/// parts (in *centered* coordinates: `centered = normal + residual`).
#[derive(Debug, Clone, Default)]
pub struct StateSplit {
    /// The centered observation.
    pub centered: Vec<f64>,
    /// Its scores along the normal subspace's principal axes (`Pᵀ x_c`,
    /// strongest axis first) — what `normal` is rebuilt from and what t²
    /// is the variance-weighted square sum of.
    pub scores: Vec<f64>,
    /// Projection onto the normal subspace (`x̂`, centered coordinates).
    pub normal: Vec<f64>,
    /// Residual (`x̃`): the anomalous component.
    pub residual: Vec<f64>,
}

impl StateSplit {
    /// An empty split whose buffers are sized for `p` OD pairs — the
    /// reusable scratch for [`SubspaceModel::split_into`].
    pub fn with_dimension(p: usize) -> Self {
        StateSplit {
            centered: vec![0.0; p],
            scores: Vec::new(),
            normal: vec![0.0; p],
            residual: vec![0.0; p],
        }
    }
}

/// A fitted subspace model over one traffic type.
#[derive(Debug, Clone)]
pub struct SubspaceModel {
    decomp: EigenflowDecomposition,
    config: SubspaceConfig,
    p: usize,
    spe_threshold: f64,
    t2_threshold: f64,
    /// `true` when the training residual carried no variance at all (exact
    /// low-rank data); the SPE threshold is then 0 and any positive
    /// residual energy alarms.
    degenerate_residual: bool,
}

impl SubspaceModel {
    /// Fits the model to an `n x p` traffic matrix (rows = 5-minute bins,
    /// columns = OD pairs) exactly: through the `p x p` column Gram while
    /// `p ≤ max(n, 512)`, through the `n x n` row Gram of a wider window.
    /// The SPE threshold reads the whole spectrum the fit returns.
    ///
    /// # Errors
    ///
    /// * [`SubspaceError::BadSubspaceDim`] unless `0 < k < p`.
    /// * [`SubspaceError::InsufficientData`] unless `n > k` (the T²
    ///   threshold needs `n - k` denominator degrees of freedom; the paper
    ///   studies week-long windows where `n = 2016 >> p = 121`).
    /// * Numeric/threshold errors from degenerate inputs.
    pub fn fit(x: &Matrix, config: SubspaceConfig) -> Result<Self> {
        let (n, p) = x.shape();
        if config.k == 0 || config.k >= p {
            return Err(SubspaceError::BadSubspaceDim { k: config.k, p });
        }
        if n <= config.k {
            return Err(SubspaceError::InsufficientData {
                n,
                p,
                need: "need more timebins than normal-subspace dimensions",
            });
        }
        let decomp = EigenflowDecomposition::fit_with(x, config.k)?;
        let eigenvalues = decomp.eigenvalues_padded(p);

        // `None`: exactly low-rank training data, no residual variance.
        let spe_threshold = q_threshold(&eigenvalues, config.k, config.alpha)?;
        let t2 = t2_threshold(config.k, n, config.alpha)?;

        Ok(SubspaceModel {
            decomp,
            config,
            p,
            spe_threshold: spe_threshold.unwrap_or(0.0),
            t2_threshold: t2,
            degenerate_residual: spe_threshold.is_none(),
        })
    }

    /// Fits with the paper's defaults (`k = 4`, 99.9% confidence).
    pub fn fit_default(x: &Matrix) -> Result<Self> {
        Self::fit(x, SubspaceConfig::default())
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> SubspaceConfig {
        self.config
    }

    /// Number of OD pairs the model expects.
    pub fn num_od_pairs(&self) -> usize {
        self.p
    }

    /// The underlying eigenflow decomposition.
    pub fn decomposition(&self) -> &EigenflowDecomposition {
        &self.decomp
    }

    /// The SPE (Q-statistic) detection threshold `δ²_α`.
    pub fn spe_threshold(&self) -> f64 {
        self.spe_threshold
    }

    /// The T² detection threshold `T²_{k,n,α}`.
    pub fn t2_threshold(&self) -> f64 {
        self.t2_threshold
    }

    /// Recomputes the Jackson–Mudholkar SPE threshold `δ²_α` at a
    /// different confidence level. The quality-aware scoring path widens
    /// the detection band this way (smaller `alpha` → larger threshold)
    /// when too much of the window was imputed to trust the fitted
    /// residual variance at full confidence.
    ///
    /// # Errors
    ///
    /// Propagates threshold-computation errors; a degenerate residual
    /// yields 0 exactly as at fit time.
    pub fn spe_threshold_at(&self, alpha: f64) -> Result<f64> {
        let eigenvalues = self.decomp.eigenvalues_padded(self.p);
        Ok(q_threshold(&eigenvalues, self.config.k, alpha)?.unwrap_or(0.0))
    }

    /// `true` when training data was exactly low-rank (see struct docs).
    pub fn degenerate_residual(&self) -> bool {
        self.degenerate_residual
    }

    /// Splits one observation (raw, uncentered, length `p`) into normal
    /// and residual components.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] for wrong-length input.
    pub fn split(&self, x: &[f64]) -> Result<StateSplit> {
        let mut out = StateSplit::with_dimension(self.p);
        self.split_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Self::split`] into caller-owned buffers: streaming consumers
    /// (notably `OnlineDetector::push`) reuse one [`StateSplit`] across
    /// observations instead of allocating three vectors per bin. The
    /// arithmetic — projection order, summation order — is exactly
    /// [`Self::split`]'s, so results are bit-identical.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] for wrong-length input.
    pub fn split_into(&self, x: &[f64], out: &mut StateSplit) -> Result<()> {
        self.center_into(x, &mut out.centered)?;

        // x̂ = P Pᵀ x_c over the top-k principal axes, in two sweeps of the
        // row-major `p x k` loadings: scores first, then every element of x̂ as the score-weighted sum
        // of its own loadings row, strongest axis first from 0.0.
        self.axis_scores(&out.centered, &mut out.scores);
        let r = self.decomp.loadings.ncols();
        let axes = self.decomp.loadings.as_slice().chunks_exact(r);
        out.normal.clear();
        out.residual.clear();
        for (row, &c) in axes.zip(&out.centered) {
            let mut nrm = 0.0;
            for (score, a) in out.scores.iter().zip(row) {
                nrm += score * a;
            }
            out.normal.push(nrm);
            out.residual.push(c - nrm);
        }
        Ok(())
    }

    /// The number of principal axes spanning the normal subspace.
    fn normal_dim(&self) -> usize {
        self.config.k.min(self.decomp.rank())
    }

    /// Scores of a centered observation along the normal axes: one sweep
    /// over the loadings rows, every axis accumulating `loading * x_c` from
    /// 0.0 in ascending OD order. Detection results are bit-exact (against
    /// history, and across thread counts) only while each accumulator keeps
    /// that order; the sweep may not be unrolled across rows or split.
    fn axis_scores(&self, centered: &[f64], scores: &mut Vec<f64>) {
        let r = self.decomp.loadings.ncols();
        scores.clear();
        scores.resize(self.normal_dim(), 0.0);
        for (row, c) in self.decomp.loadings.as_slice().chunks_exact(r).zip(centered) {
            for (acc, a) in scores.iter_mut().zip(row) {
                *acc += a * c;
            }
        }
    }

    /// t² from the scores of [`Self::axis_scores`].
    pub(crate) fn t2_of_scores(&self, scores: &[f64]) -> f64 {
        let mut t2 = 0.0;
        for (i, z) in scores.iter().enumerate() {
            let lambda = self.decomp.eigenvalue(i);
            if lambda > 1e-300 {
                t2 += z * z / lambda;
            }
        }
        t2
    }

    /// The squared prediction error `||x̃||²` of one observation.
    pub fn spe(&self, x: &[f64]) -> Result<f64> {
        Ok(vecops::norm_sq(&self.split(x)?.residual))
    }

    /// The t² statistic of one observation: the sum of squared
    /// unit-variance scores along the top-k axes.
    pub fn t2(&self, x: &[f64]) -> Result<f64> {
        let mut scores = Vec::new();
        self.axis_scores(&self.center(x)?, &mut scores);
        Ok(self.t2_of_scores(&scores))
    }

    /// Centers a raw observation with the training means.
    pub(crate) fn center(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut centered = Vec::new();
        self.center_into(x, &mut centered)?;
        Ok(centered)
    }

    /// [`Self::center`] into a caller-owned buffer.
    fn center_into(&self, x: &[f64], centered: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.p {
            return Err(SubspaceError::DimensionMismatch { expected: self.p, got: x.len() });
        }
        centered.clear();
        centered.extend(x.iter().zip(&self.decomp.means).map(|(x, m)| x - m));
        Ok(())
    }

    /// Snapshots every number behind this fitted model. Restoring the
    /// snapshot with [`Self::from_state`] rebuilds the model bit-exactly —
    /// no refit, so thresholds and axis floats carry over unchanged. This
    /// is the crash-safe checkpoint path for a long-running detector.
    pub fn export_state(&self) -> ModelState {
        ModelState {
            decomp: self.decomp.clone(),
            config: self.config,
            p: self.p,
            spe_threshold: self.spe_threshold,
            t2_threshold: self.t2_threshold,
            degenerate_residual: self.degenerate_residual,
        }
    }

    /// Rebuilds a fitted model from a snapshot without refitting.
    ///
    /// The decomposition keeps at least one singular value (`r ≥ 1`), one
    /// training mean per OD pair, and loadings for exactly the normal
    /// subspace's `min(k, r)` axes — what a fit stores.
    ///
    /// # Errors
    ///
    /// [`SubspaceError::DimensionMismatch`] when the snapshot's claimed OD
    /// dimension does not match its decomposition, or the decomposition's
    /// own shapes break the rule above (a corrupt or hand-built snapshot
    /// must never produce a model that panics at scoring time).
    pub fn from_state(s: ModelState) -> Result<Self> {
        let r = s.decomp.singular_values.len();
        let consistent = s.p > 0
            && r >= 1
            && s.decomp.loadings.shape() == (s.p, s.config.k.min(r).max(1))
            && s.decomp.means.len() == s.p;
        if !consistent {
            return Err(SubspaceError::DimensionMismatch {
                expected: s.p,
                got: s.decomp.loadings.nrows(),
            });
        }
        Ok(SubspaceModel {
            decomp: s.decomp,
            config: s.config,
            p: s.p,
            spe_threshold: s.spe_threshold,
            t2_threshold: s.t2_threshold,
            degenerate_residual: s.degenerate_residual,
        })
    }

    /// The SPE timeseries over a full matrix (one value per row).
    pub fn spe_series(&self, x: &Matrix) -> Result<Vec<f64>> {
        let mut split = StateSplit::with_dimension(self.p);
        x.rows_iter()
            .map(|row| {
                self.split_into(row, &mut split)?;
                Ok(vecops::norm_sq(&split.residual))
            })
            .collect()
    }

    /// The t² timeseries over a full matrix (one value per row).
    pub fn t2_series(&self, x: &Matrix) -> Result<Vec<f64>> {
        // t² needs the scores only, so the sweep that rebuilds `normal` and
        // `residual` is skipped.
        let mut split = StateSplit::default();
        x.rows_iter()
            .map(|row| {
                self.center_into(row, &mut split.centered)?;
                self.axis_scores(&split.centered, &mut split.scores);
                Ok(self.t2_of_scores(&split.scores))
            })
            .collect()
    }
}

/// Serializable snapshot of a fitted [`SubspaceModel`]: the decomposition
/// plus the frozen thresholds and flags. Produced by
/// [`SubspaceModel::export_state`], consumed by
/// [`SubspaceModel::from_state`]; the serve layer's checkpoint codec
/// persists it so a restarted collector scores with the *same* model —
/// same floats, same thresholds — as the process that crashed.
#[derive(Debug, Clone)]
pub struct ModelState {
    /// The eigenflow decomposition (axes, spectrum, training means).
    pub decomp: EigenflowDecomposition,
    /// The fit-time configuration.
    pub config: SubspaceConfig,
    /// Number of OD pairs the model expects.
    pub p: usize,
    /// The frozen SPE threshold `δ²_α`.
    pub spe_threshold: f64,
    /// The frozen T² threshold.
    pub t2_threshold: f64,
    /// Whether training data was exactly low-rank.
    pub degenerate_residual: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic OD traffic: two shared temporal patterns + noise, with an
    /// optional spike injected at (bin, od).
    fn traffic(n: usize, p: usize, spike: Option<(usize, usize, f64)>) -> Matrix {
        let mut m = Matrix::from_fn(n, p, |i, j| {
            let t = i as f64 / 288.0 * std::f64::consts::TAU;
            let phase = (j % 3) as f64 * 0.7;
            let amp = 20.0 + (j as f64) * 2.0;
            amp * (2.0 + (t + phase).sin()) + 0.3 * (((i * 37 + j * 23) % 101) as f64 - 50.0) / 50.0
        });
        if let Some((bi, od, mag)) = spike {
            m[(bi, od)] += mag;
        }
        m
    }

    #[test]
    fn decomposition_exact() {
        // x = x̂ + x̃ must hold exactly (in centered coordinates).
        let x = traffic(200, 10, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let row = x.row(57).unwrap();
        let split = model.split(row).unwrap();
        for i in 0..10 {
            let sum = split.normal[i] + split.residual[i];
            assert!((sum - split.centered[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn subspaces_orthogonal() {
        let x = traffic(200, 10, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let split = model.split(x.row(11).unwrap()).unwrap();
        let dot = vecops::dot(&split.normal, &split.residual);
        let scale = vecops::norm(&split.normal) * vecops::norm(&split.residual);
        assert!(dot.abs() <= 1e-8 * (1.0 + scale), "normal·residual = {dot}");
    }

    #[test]
    fn pythagoras_on_split() {
        let x = traffic(150, 8, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let split = model.split(x.row(42).unwrap()).unwrap();
        let total = vecops::norm_sq(&split.centered);
        let parts = vecops::norm_sq(&split.normal) + vecops::norm_sq(&split.residual);
        assert!((total - parts).abs() < 1e-7 * (1.0 + total));
    }

    #[test]
    fn spike_raises_spe_above_threshold() {
        let n = 400;
        let clean = traffic(n, 12, None);
        // Train on clean data, then evaluate a spiked observation.
        let model = SubspaceModel::fit_default(&clean).unwrap();
        let spiked = traffic(n, 12, Some((100, 5, 500.0)));
        let spe_clean = model.spe(clean.row(100).unwrap()).unwrap();
        let spe_spiked = model.spe(spiked.row(100).unwrap()).unwrap();
        assert!(spe_spiked > spe_clean * 50.0);
        assert!(
            spe_spiked > model.spe_threshold(),
            "spiked SPE {spe_spiked} must exceed threshold {}",
            model.spe_threshold()
        );
        assert!(spe_clean < model.spe_threshold(), "clean bin must not alarm");
    }

    #[test]
    fn broad_shift_raises_t2() {
        // A shift aligned with the dominant axes inflates t², not SPE.
        let n = 400;
        let clean = traffic(n, 12, None);
        let model = SubspaceModel::fit_default(&clean).unwrap();
        // Push the observation far along the first principal axis.
        let axis = model.decomposition().loadings.col(0).unwrap();
        let sigma0 = model.decomposition().eigenvalue(0).sqrt();
        let mut shifted = clean.row(100).unwrap().to_vec();
        for (s, a) in shifted.iter_mut().zip(&axis) {
            *s += 20.0 * sigma0 * a;
        }
        let t2 = model.t2(&shifted).unwrap();
        assert!(
            t2 > model.t2_threshold(),
            "t2 {t2} must exceed threshold {}",
            model.t2_threshold()
        );
        // And the residual barely moves.
        let spe = model.spe(&shifted).unwrap();
        let spe_clean = model.spe(clean.row(100).unwrap()).unwrap();
        assert!(spe < spe_clean * 3.0 + 1e-6);
    }

    #[test]
    fn training_t2_mean_near_k() {
        // For unit-variance scores, E[t²] = k on training data.
        let x = traffic(500, 10, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let t2s = model.t2_series(&x).unwrap();
        let mean: f64 = t2s.iter().sum::<f64>() / t2s.len() as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean t² {mean} should be ≈ k = 4");
        // The series is the per-row statistic, bit for bit.
        for (row, series) in x.rows_iter().zip(&t2s) {
            assert_eq!(series.to_bits(), model.t2(row).unwrap().to_bits());
        }
    }

    #[test]
    fn few_training_alarms_at_high_confidence() {
        let x = traffic(500, 10, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let spe = model.spe_series(&x).unwrap();
        // The series is the per-row statistic, bit for bit.
        for (row, series) in x.rows_iter().zip(&spe) {
            assert_eq!(series.to_bits(), model.spe(row).unwrap().to_bits());
        }
        let alarms = spe.iter().filter(|&&v| v > model.spe_threshold()).count();
        // alpha = 0.001 over 500 bins -> expect ~0-3 alarms.
        assert!(alarms <= 10, "too many SPE alarms on clean data: {alarms}");
        let t2 = model.t2_series(&x).unwrap();
        let alarms = t2.iter().filter(|&&v| v > model.t2_threshold()).count();
        assert!(alarms <= 10, "too many t² alarms on clean data: {alarms}");
    }

    #[test]
    fn rejects_bad_config_and_shapes() {
        let x = traffic(50, 6, None);
        assert!(matches!(
            SubspaceModel::fit(
                &x,
                SubspaceConfig { k: 0, alpha: 0.001, ..SubspaceConfig::default() }
            ),
            Err(SubspaceError::BadSubspaceDim { .. })
        ));
        assert!(matches!(
            SubspaceModel::fit(
                &x,
                SubspaceConfig { k: 6, alpha: 0.001, ..SubspaceConfig::default() }
            ),
            Err(SubspaceError::BadSubspaceDim { .. })
        ));
        let tiny = traffic(3, 6, None);
        assert!(SubspaceModel::fit(
            &tiny,
            SubspaceConfig { k: 4, alpha: 0.001, ..SubspaceConfig::default() }
        )
        .is_err());

        let model = SubspaceModel::fit_default(&x).unwrap();
        assert!(matches!(model.spe(&[1.0, 2.0]), Err(SubspaceError::DimensionMismatch { .. })));
        assert!(matches!(model.t2(&[1.0]), Err(SubspaceError::DimensionMismatch { .. })));
    }

    #[test]
    fn degenerate_low_rank_data_handled() {
        // Exactly rank-2 data: the residual spectrum is numerically zero
        // (either exactly — degenerate flag — or at rounding-noise level,
        // giving a vanishing threshold). Either way the model stays usable
        // and a genuine residual deviation still alarms.
        let x = Matrix::from_fn(60, 8, |i, j| {
            (i as f64).sin() * (j as f64 + 1.0) + (i as f64 / 7.0).cos() * (j as f64)
        });
        let model = SubspaceModel::fit(
            &x,
            SubspaceConfig { k: 4, alpha: 0.001, ..SubspaceConfig::default() },
        )
        .unwrap();
        let scale = model.decomposition().eigenvalue(0);
        assert!(
            model.degenerate_residual() || model.spe_threshold() < 1e-9 * scale,
            "threshold {} not degenerate (scale {scale})",
            model.spe_threshold()
        );
        // A residual-direction deviation of visible size must alarm.
        let mut row = x.row(30).unwrap().to_vec();
        row[5] += 10.0;
        assert!(model.spe(&row).unwrap() > model.spe_threshold());
    }

    #[test]
    fn model_state_roundtrip_scores_bit_identically() {
        let x = traffic(300, 9, None);
        let model = SubspaceModel::fit_default(&x).unwrap();
        let restored = SubspaceModel::from_state(model.export_state()).unwrap();
        assert_eq!(restored.spe_threshold().to_bits(), model.spe_threshold().to_bits());
        assert_eq!(restored.t2_threshold().to_bits(), model.t2_threshold().to_bits());
        assert_eq!(restored.num_od_pairs(), 9);
        let row = x.row(123).unwrap();
        assert_eq!(restored.spe(row).unwrap().to_bits(), model.spe(row).unwrap().to_bits());
        assert_eq!(restored.t2(row).unwrap().to_bits(), model.t2(row).unwrap().to_bits());

        // An inconsistent snapshot is rejected, never absorbed.
        let mut bad = model.export_state();
        bad.p += 1;
        assert!(matches!(
            SubspaceModel::from_state(bad),
            Err(SubspaceError::DimensionMismatch { .. })
        ));
    }

    fn refused(state: ModelState) -> bool {
        matches!(SubspaceModel::from_state(state), Err(SubspaceError::DimensionMismatch { .. }))
    }

    #[test]
    fn a_zero_rank_snapshot_is_refused_not_scored() {
        // No axes, no spectrum: a model built from it would panic at its
        // first score (loadings rows zero wide).
        let x = traffic(300, 9, None);
        let mut zero = SubspaceModel::fit_default(&x).unwrap().export_state();
        zero.decomp.loadings = Matrix::zeros(9, 0);
        zero.decomp.singular_values.clear();
        assert!(refused(zero));
    }

    #[test]
    fn snapshot_loadings_span_the_normal_subspace_and_no_more_than_the_spectrum() {
        let x = traffic(300, 9, None);
        let good = SubspaceModel::fit_default(&x).unwrap().export_state();
        let r = good.decomp.rank();
        assert_eq!(good.decomp.loadings.shape(), (9, 4), "a fit keeps the k = 4 axes");
        assert!(SubspaceModel::from_state(good.clone()).is_ok());
        let with_axes = |axes: usize| {
            let mut s = good.clone();
            let full = EigenflowDecomposition::fit_with(&x, 9).unwrap().loadings;
            s.decomp.loadings = full.select_cols(&(0..axes).collect::<Vec<_>>()).unwrap();
            s
        };
        // Exactly the min(k, r) = 4 axes: one fewer, and every wider panel
        // up to the whole spectrum, are refused.
        assert!(refused(with_axes(3)), "narrower than min(k, r)");
        for axes in 5..=r {
            assert!(refused(with_axes(axes)), "{axes} of {r} axes");
        }
        // One mean short of the OD pairs.
        let mut short = good.clone();
        short.decomp.means.pop();
        assert!(refused(short));
        // A spectrum of fewer singular values than the normal subspace
        // has axes: min(k, r) shrinks below the loadings' width.
        let mut thin = good.clone();
        thin.decomp.singular_values.truncate(3);
        assert!(refused(thin));
    }

    #[test]
    fn thresholds_positive_and_config_stored() {
        let x = traffic(300, 9, None);
        let cfg = SubspaceConfig { k: 3, alpha: 0.01, ..SubspaceConfig::default() };
        let model = SubspaceModel::fit(&x, cfg).unwrap();
        assert!(model.spe_threshold() > 0.0);
        assert!(model.t2_threshold() > 0.0);
        assert_eq!(model.config().k, 3);
        assert_eq!(model.num_od_pairs(), 9);
        assert_eq!(model.decomposition().n, 300);
    }
}
