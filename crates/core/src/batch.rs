//! Blocked (vector-width) Boris kernel.
//!
//! The paper's C++ loop is auto-vectorized with AVX-512 (8 doubles / 16
//! floats per register). This module mirrors that structure explicitly: it
//! gathers particles into a fixed-width block of per-component arrays,
//! runs the Boris update as straight-line per-lane loops the compiler can
//! vectorize, and scatters the results back. The arithmetic per lane is
//! identical (same order of operations) to [`BorisPusher`], so blocked and
//! scalar runs produce bitwise-identical trajectories — asserted in tests.

use crate::boris::BorisPusher;
use crate::kernel::FieldSource;
use crate::pusher::{half_kick_coef, u_from_momentum, Pusher};
use pic_math::constants::LIGHT_VELOCITY;
use pic_math::{Real, Vec3};
use pic_particles::{ParticleAccess, SpeciesTable};

/// Vector width of the blocked kernel (AVX-512 double lanes) — the
/// field crate's block width, so a kernel block is one sampler block.
pub use pic_fields::LANES;

/// Blocked Boris pusher over any [`ParticleAccess`] collection.
///
/// Unlike [`crate::PushKernel`] this is not a per-particle
/// [`pic_particles::ParticleKernel`]; it owns the whole sweep so it can
/// process `LANES` particles at a time.
#[derive(Clone, Copy, Debug)]
pub struct BatchBorisKernel<'a, R, F> {
    source: &'a F,
    table: &'a SpeciesTable<R>,
    dt: R,
    time: R,
}

impl<'a, R: Real, F: FieldSource<R>> BatchBorisKernel<'a, R, F> {
    /// Creates a blocked kernel.
    pub fn new(source: &'a F, table: &'a SpeciesTable<R>, dt: R, time: R) -> Self {
        BatchBorisKernel {
            source,
            table,
            dt,
            time,
        }
    }

    /// Advances every particle in `store` by one step.
    ///
    /// When the store is SoA-backed this delegates to the zero-gather
    /// direct-slice path of [`crate::SoaBorisKernel`] — the gather/
    /// scatter round-trip below only pays off when the layout forces it.
    /// Both paths produce identical trajectories (within the documented
    /// scatter rounding of the gathered path; the fast path is bitwise-
    /// equal to the scalar reference).
    pub fn sweep<A: ParticleAccess<R>>(&self, store: &mut A) {
        if let Some(mut lanes) = store.soa_lanes_mut() {
            let fast =
                crate::soa_boris::SoaBorisKernel::new(self.source, self.table, self.dt, self.time);
            fast.run_lanes(&mut lanes);
            return;
        }
        self.sweep_gathered(store);
    }

    /// The original gather → compute → scatter sweep, kept callable so
    /// benchmarks can measure the round-trip cost against the fast path.
    pub fn sweep_gathered<A: ParticleAccess<R>>(&self, store: &mut A) {
        let n = store.len();
        let base = store.base_index();
        let mut i = 0;
        while i + LANES <= n {
            self.block(store, base, i);
            i += LANES;
        }
        // Scalar tail, same arithmetic.
        let mut tail = TailKernel { inner: self };
        while i < n {
            let mut v = store.view_mut(i);
            pic_particles::ParticleKernel::apply(&mut tail, base + i, &mut v);
            i += 1;
        }
    }

    #[inline]
    fn block<A: ParticleAccess<R>>(&self, store: &mut A, base: usize, start: usize) {
        // Gather.
        let mut ux = [R::ZERO; LANES];
        let mut uy = [R::ZERO; LANES];
        let mut uz = [R::ZERO; LANES];
        let mut ex = [R::ZERO; LANES];
        let mut ey = [R::ZERO; LANES];
        let mut ez = [R::ZERO; LANES];
        let mut bx = [R::ZERO; LANES];
        let mut by = [R::ZERO; LANES];
        let mut bz = [R::ZERO; LANES];
        let mut eps = [R::ZERO; LANES];
        let mut inv_mc = [R::ZERO; LANES];
        for l in 0..LANES {
            let p = store.get(start + l);
            let species = self.table.get(p.species);
            let field = self.source.field(base + start + l, p.position, self.time);
            let u = u_from_momentum(p.momentum, species.mass);
            ux[l] = u.x;
            uy[l] = u.y;
            uz[l] = u.z;
            ex[l] = field.e.x;
            ey[l] = field.e.y;
            ez[l] = field.e.z;
            bx[l] = field.b.x;
            by[l] = field.b.y;
            bz[l] = field.b.z;
            eps[l] = half_kick_coef(species, self.dt);
            inv_mc[l] = (species.mass * R::from_f64(LIGHT_VELOCITY)).recip();
        }

        // Compute: per-lane straight-line Boris, vectorizable.
        let mut gx = [R::ZERO; LANES];
        let mut gamma = [R::ZERO; LANES];
        let mut gy = [R::ZERO; LANES];
        let mut gz = [R::ZERO; LANES];
        for l in 0..LANES {
            // Half electric kick: u⁻ = u + ε·E (same op order as
            // BorisPusher::rotate_kick → Vec3::mul_add).
            let umx = ex[l].mul_add(eps[l], ux[l]);
            let umy = ey[l].mul_add(eps[l], uy[l]);
            let umz = ez[l].mul_add(eps[l], uz[l]);
            let gamma_n = (R::ONE + (umx * umx + umy * umy + umz * umz)).sqrt();
            let coef = eps[l] / gamma_n;
            let tx = bx[l] * coef;
            let ty = by[l] * coef;
            let tz = bz[l] * coef;
            let t2 = tx * tx + ty * ty + tz * tz;
            let sc = R::TWO / (R::ONE + t2);
            let sx = tx * sc;
            let sy = ty * sc;
            let sz = tz * sc;
            // u' = u⁻ + u⁻ × t
            let upx = umx + (umy * tz - umz * ty);
            let upy = umy + (umz * tx - umx * tz);
            let upz = umz + (umx * ty - umy * tx);
            // u⁺ = u⁻ + u' × s
            let uplx = umx + (upy * sz - upz * sy);
            let uply = umy + (upz * sx - upx * sz);
            let uplz = umz + (upx * sy - upy * sx);
            // Second half kick.
            gx[l] = ex[l].mul_add(eps[l], uplx);
            gy[l] = ey[l].mul_add(eps[l], uply);
            gz[l] = ez[l].mul_add(eps[l], uplz);
            gamma[l] = (R::ONE + (gx[l] * gx[l] + gy[l] * gy[l] + gz[l] * gz[l])).sqrt();
        }

        // Scatter: momentum, γ, leapfrog position.
        for l in 0..LANES {
            let mut p = store.get(start + l);
            let u_new = Vec3::new(gx[l], gy[l], gz[l]);
            let mc = inv_mc[l].recip();
            let p_new = u_new * mc;
            let vel = p_new / (gamma[l] * (mc * R::from_f64(1.0 / LIGHT_VELOCITY)));
            p.momentum = p_new;
            p.gamma = gamma[l];
            p.position += vel * self.dt;
            store.set(start + l, &p);
        }
    }
}

/// Lets the parallel runtime drive the *gathered* path chunk by chunk —
/// the benchmark's gather/scatter baseline. Single-particle applications
/// use the scalar reference arithmetic, same as the sweep's tail.
impl<R: Real, F: FieldSource<R>> pic_particles::ParticleKernel<R> for BatchBorisKernel<'_, R, F> {
    #[inline(always)]
    fn apply<V: pic_particles::ParticleView<R>>(&mut self, index: usize, view: &mut V) {
        let field = self.source.field(index, view.position(), self.time);
        let species = self.table.get(view.species());
        BorisPusher.push(view, &field, species, self.dt);
    }

    fn apply_chunk<A: ParticleAccess<R>>(&mut self, chunk: &mut A) {
        self.sweep_gathered(chunk);
    }
}

/// Scalar tail: delegates to the reference [`BorisPusher`].
struct TailKernel<'a, 'b, R, F> {
    inner: &'b BatchBorisKernel<'a, R, F>,
}

impl<R: Real, F: FieldSource<R>> pic_particles::ParticleKernel<R> for TailKernel<'_, '_, R, F> {
    #[inline(always)]
    fn apply<V: pic_particles::ParticleView<R>>(&mut self, index: usize, view: &mut V) {
        let field = self
            .inner
            .source
            .field(index, view.position(), self.inner.time);
        let species = self.inner.table.get(view.species());
        BorisPusher.push(view, &field, species, self.inner.dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AnalyticalSource, PushKernel};
    use pic_fields::DipoleStandingWave;
    use pic_math::constants::{BENCH_OMEGA, BENCH_POWER, BENCH_WAVELENGTH};
    use pic_particles::init::{fill_sphere_at_rest, SphereDist};
    use pic_particles::{AosEnsemble, ParticleStore, SoaEnsemble};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ensemble<S: ParticleStore<f64>>(n: usize) -> S {
        let mut s = S::default();
        fill_sphere_at_rest(
            &mut s,
            n,
            &SphereDist {
                center: Vec3::zero(),
                radius: 0.6 * BENCH_WAVELENGTH,
            },
            1.0,
            SpeciesTable::<f64>::ELECTRON,
            &mut StdRng::seed_from_u64(5),
        );
        s
    }

    fn compare_batch_vs_scalar<S: ParticleStore<f64>>(n: usize, tol: f64) {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = 0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;

        let mut scalar: S = ensemble(n);
        let mut blocked: S = ensemble(n);

        let mut k = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        for step in 0..10 {
            scalar.for_each_mut(&mut k);
            k.advance_time();

            let time = dt * step as f64;
            let bk = BatchBorisKernel::new(&source, &table, dt, time);
            bk.sweep(&mut blocked);
        }
        for i in 0..scalar.len() {
            let a = scalar.get(i);
            let b = blocked.get(i);
            let scale = a.momentum.norm().max(1e-30);
            assert!(
                (a.momentum - b.momentum).norm() / scale <= tol,
                "momentum diverged at particle {i}: {:?} vs {:?}",
                a.momentum,
                b.momentum
            );
            let pscale = a.position.norm().max(1e-30);
            assert!((a.position - b.position).norm() / pscale <= tol);
        }
    }

    #[test]
    fn batch_matches_scalar_on_aos() {
        // 37 = 4 full blocks + a 5-particle scalar tail.
        compare_batch_vs_scalar::<AosEnsemble<f64>>(37, 1e-12);
    }

    #[test]
    fn batch_matches_scalar_on_soa() {
        compare_batch_vs_scalar::<SoaEnsemble<f64>>(64, 1e-12);
    }

    #[test]
    fn tail_only_ensembles_work() {
        compare_batch_vs_scalar::<AosEnsemble<f64>>(3, 1e-12);
    }

    #[test]
    fn empty_ensemble_is_fine() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let bk = BatchBorisKernel::new(&source, &table, 1e-15, 0.0);
        let mut ens = AosEnsemble::<f64>::new();
        bk.sweep(&mut ens);
        assert!(ens.is_empty());
    }

    #[test]
    fn soa_sweep_delegates_to_fast_path_and_matches_gathered_aos() {
        // Regression for the layout split: `sweep` on an SoA store now takes
        // the direct-slice fast path while an AoS store keeps the gathered
        // path. Both must agree on the same initial conditions to within the
        // documented scatter rounding of the gathered path.
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = 0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;

        let mut aos: AosEnsemble<f64> = ensemble(37);
        let mut soa: SoaEnsemble<f64> = ensemble(37);
        for step in 0..10 {
            let time = dt * step as f64;
            let bk = BatchBorisKernel::new(&source, &table, dt, time);
            bk.sweep(&mut aos);
            bk.sweep(&mut soa);
        }
        for i in 0..aos.len() {
            let a = aos.get(i);
            let b = soa.get(i);
            let scale = a.momentum.norm().max(1e-30);
            assert!(
                (a.momentum - b.momentum).norm() / scale <= 1e-12,
                "AoS/SoA sweep diverged at particle {i}"
            );
            let pscale = a.position.norm().max(1e-30);
            assert!((a.position - b.position).norm() / pscale <= 1e-12);
        }
    }

    #[test]
    fn gathered_sweep_still_matches_scalar_on_soa() {
        // The gathered path stays available for benchmarking; it must keep
        // matching the scalar reference on SoA stores too.
        let table = SpeciesTable::<f64>::with_standard_species();
        let wave = DipoleStandingWave::<f64>::new(BENCH_POWER, BENCH_OMEGA);
        let source = AnalyticalSource::new(&wave);
        let dt = 0.005 * 2.0 * std::f64::consts::PI / BENCH_OMEGA;

        let mut scalar: SoaEnsemble<f64> = ensemble(21);
        let mut gathered: SoaEnsemble<f64> = ensemble(21);
        let mut k = PushKernel::new(AnalyticalSource::new(&wave), BorisPusher, &table, dt);
        for step in 0..10 {
            scalar.for_each_mut(&mut k);
            k.advance_time();
            let bk = BatchBorisKernel::new(&source, &table, dt, dt * step as f64);
            bk.sweep_gathered(&mut gathered);
        }
        for i in 0..scalar.len() {
            let a = scalar.get(i);
            let b = gathered.get(i);
            let scale = a.momentum.norm().max(1e-30);
            assert!((a.momentum - b.momentum).norm() / scale <= 1e-12);
        }
    }

    #[test]
    fn momentum_magnitude_preserved_in_pure_b() {
        let table = SpeciesTable::<f64>::with_standard_species();
        let field = pic_fields::UniformFields::<f64>::magnetic(Vec3::new(0.0, 0.0, 1e4));
        let source = AnalyticalSource::new(field);
        let mut ens: SoaEnsemble<f64> = ensemble(16);
        // Give them momenta.
        for i in 0..ens.len() {
            let mut p = ens.get(i);
            p.momentum = Vec3::new(1e-18 * (i + 1) as f64, 0.0, 2e-19);
            p.refresh_gamma(pic_particles::Species::<f64>::electron().mass);
            ens.set(i, &p);
        }
        let norms: Vec<f64> = (0..ens.len()).map(|i| ens.get(i).momentum.norm()).collect();
        let bk = BatchBorisKernel::new(&source, &table, 1e-12, 0.0);
        for _ in 0..25 {
            bk.sweep(&mut ens);
        }
        for (i, before) in norms.iter().enumerate() {
            let n = ens.get(i).momentum.norm();
            assert!((n - before).abs() / before < 1e-12);
        }
    }
}
